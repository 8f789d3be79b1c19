"""On-disk formats: embeddings (text and binary), trials, scores, gates.

Text files are UTF-8; bad UTF-8 is a ParseError at its byte offset.
Fields are split on any run of whitespace, and a line whose first field
starts with `#` is a comment (`_fields`). Text is read about 64 KiB at a
time, each read completed to the next newline, so the memory a parse
needs besides its result does not grow with the file size; an error
found after the read (a repeated ID or trial, a non-finite or zero row)
takes its line number from the record's line that the parser kept.
Trial and score files are read into a TrialTable (see `core`), IDs
interned and coded as read. A block in the writers' layout (one field
count, single spaces, LF line ends, no line starting with whitespace or
`#`, known labels and numbers) is split once and sliced into columns;
any other block is read line by line, so each error keeps its line.

The writers encode text as UTF-8, separate fields with one space and
raise ValueError, before the target is opened, for an ID that would not
read back as the same field: an empty one, one holding whitespace, a
line's first field starting with `#`, or a text embedding file's first
ID starting with the binary magic. Scores are written a run at a time.

Text embedding file: one `<id> <v1> ... <vD>` line per utterance, each
value the `repr` of a float32 widened to float64 (`np.float32(0.1)` is
`0.10000000149011612`), so binary -> text -> binary conversion is lossless.

Binary embedding file (all integers little-endian; any ID is allowed):

    bytes 0..7    magic "SASVEMB1"
    bytes 8..11   CRC-32 of everything after this field
    bytes 12..15  D   (u32)
    bytes 16..19  count (u32)
    then per record: id length (u16), id bytes (UTF-8), D float32 values

The checksum covers dimension, count, and all records, so any
single-byte corruption after the magic is detected rather than silently
misparsed; a corrupted magic fails the magic check itself.

Trial file: `<enroll_id> <test_id> [label]` and score file:
`<enroll_id> <test_id> <score> [label]`, with the label field one of
target/nontarget/spoof (`_label_code`); a missing label means unlabeled.

Gate file: one `<name> <w1> ... <wD> <bias>` line per gate output, read
and written as float64.
"""

import io
import re
import struct
import sys
import zlib
from array import array
from collections import defaultdict
from itertools import chain, count, islice

import numpy as np

from .core import _UNLABELED, LABEL_CODE, LABELS, TOKEN_CODE, EmbeddingSet, ScoreSet, TrialTable
from .errors import DimensionDrift, DuplicateId, DuplicateTrial, ParseError

MAGIC = b"SASVEMB1"
_BLOCK = 1 << 16  # bytes (or characters) a text reader reads at a time
_RECORDS = 1024  # records the score writer formats and writes at a time

# a label code's optional last field, as the writers append it
_LABEL_SUFFIX = tuple("" if code == _UNLABELED else " " + label.value
                      for code, label in enumerate(LABELS))


def _write_all(data, path_or_stream):
    """Write str or bytes, or each of an iterable of them, to a stream,
    or to a path it then replaces (str as UTF-8, whatever the locale)."""
    pieces = [data] if isinstance(data, (str, bytes)) else data
    if hasattr(path_or_stream, "write"):
        for piece in pieces:
            path_or_stream.write(piece)
        return
    with open(path_or_stream, "wb") as fh:
        for piece in pieces:
            fh.write(piece.encode("utf-8") if isinstance(piece, str) else piece)


def _blocks(path_or_stream, head=None):
    """The text of a path or stream (str or UTF-8 bytes; `head` is what was
    read of it already) in blocks of `_BLOCK` that its `readline` completes
    to a newline, so no CR LF pair straddles two blocks. A path's file is
    closed when the generator ends or is dropped (a parser iterating it
    raised); an unbuffered stream, whose `readline` reads a byte at a time,
    is read through a buffer that is then detached, leaving it open."""
    if not hasattr(path_or_stream, "read"):
        with open(path_or_stream, "rb") as fh:
            yield from _blocks(fh)
        return
    if isinstance(path_or_stream, io.RawIOBase):
        buffered = io.BufferedReader(path_or_stream)
        try:
            yield from _blocks(buffered, head)
        finally:
            buffered.detach()
        return
    offset, block = 0, head or path_or_stream.read(0)  # "" or b"", as the stream reads
    while block := block + path_or_stream.read(_BLOCK) + path_or_stream.readline():
        try:
            text = block.decode("utf-8") if isinstance(block, bytes) else block
        except UnicodeDecodeError as e:
            raise ParseError(f"bad UTF-8 text: {e.reason}", offset=offset + e.start) from None
        offset += len(block)
        block = block[:0]
        yield text


def _fields(lines, lineno):
    """(line number, fields) of each of `lines` after line `lineno` that is
    neither blank nor a comment: the one definition of fields and comments."""
    for lineno, line in enumerate(lines, start=lineno + 1):
        fields = line.split()
        if fields and fields[0][0] != "#":
            yield lineno, fields


def _lines(path_or_stream, head=None):
    """`_fields` of all the lines of a text path or stream (see `_blocks`)."""
    lineno = 0
    for text in _blocks(path_or_stream, head):
        lines = text.splitlines()
        yield from _fields(lines, lineno)
        lineno += len(lines)


# a block of a trial (n = 2) or score (n = 3) file in the writers' layout
_LAYOUT = {n: re.compile(r"(?:[^\s#]\S*" + r" \S+" * (n - 1) + r"(?: \S+)?\n)*") for n in (2, 3)}


def _layout_columns(text, n, lineno):
    """`_line_columns` of a block in the writers' layout with one field
    count, known labels and numbers, split once and sliced; else None."""
    if not _LAYOUT[n].fullmatch(text):
        return None
    fields, lines = text.split(), text.count("\n")
    width, mixed = divmod(len(fields), lines)
    labels = [_UNLABELED] * lines if width == n else list(map(TOKEN_CODE.get, fields[n::width]))
    if mixed or None in labels:
        return None
    try:
        scores = list(map(float, fields[2::width])) if n == 3 else []
    except ValueError:
        return None
    ids = fields[: 2 * lines]
    ids[0::2], ids[1::2] = fields[0::width], fields[1::width]
    return lines, range(lineno + 1, lineno + 1 + lines), ids, labels, scores


def _line_columns(text, n, lineno):
    """(line count, record line numbers, enroll and test IDs interleaved,
    label codes, scores) of a block of a trial (n = 2) or score (n = 3)
    file after line `lineno`, line by line: its first bad line raises."""
    lines, linenos, ids, labels, scores = text.splitlines(), array("q"), [], [], []
    for at, fields in _fields(lines, lineno):
        labels.append(_label_code(fields, n, at))
        try:
            scores += map(float, fields[2:n])
        except ValueError:
            raise ParseError(f"bad score {fields[2]!r}", line=at) from None
        ids += fields[:2]
        linenos.append(at)
    if linenos and linenos[-1] - linenos[0] == len(linenos) - 1:  # consecutive: a range
        linenos = range(linenos[0], linenos[-1] + 1)
    return len(lines), linenos, ids, labels, scores


def _id_columns(path_or_stream, n):
    """(TrialTable, float64 scores) of a trial or score file, a block at a
    time (see `_line_columns`): the IDs interned, in order of first
    appearance, and the record line numbers kept on the table as a `range`
    or `array` per block (see `_located`)."""
    vocab = defaultdict(count().__next__)  # codes in order of first appearance
    codes, labels, scores, linenos, lineno = array("q"), array("b"), array("d"), [], 0
    for text in _blocks(path_or_stream):
        lines, block_linenos, ids, block_labels, block_scores = (
            _layout_columns(text, n, lineno) or _line_columns(text, n, lineno))
        codes.extend(map(vocab.__getitem__, ids))
        labels.extend(block_labels)
        scores.extend(block_scores)
        linenos.append(block_linenos)
        lineno += lines
    codes = np.asarray(codes)
    return TrialTable._of_codes(map(sys.intern, vocab), codes[0::2], codes[1::2], labels, linenos), scores


def _located(table, e):
    """`e`, raised for record `e.row` of a table `_id_columns` read, at that record's line."""
    line = next(islice(chain.from_iterable(table._linenos), e.row, None))
    return (DuplicateTrial(f"{e} (line {line})") if isinstance(e, DuplicateTrial)
            else ParseError(str(e), line=line))


def _label_code(fields, n, lineno):
    """The label code of a line of `n` fields and an optional label."""
    if len(fields) == n + 1 and fields[n] in TOKEN_CODE:
        return TOKEN_CODE[fields[n]]
    if len(fields) == n:
        return _UNLABELED
    if len(fields) == n + 1:
        raise ParseError(f"unknown label {fields[n]!r}", line=lineno)
    raise ParseError(f"expected {n} or {n + 1} fields, got {len(fields)}", line=lineno)


def _check_ids(ids, first):
    """Raise ValueError naming the first of `ids` that would not read
    back as the same field: one that is not a string, is empty, holds
    whitespace or, as a line's `first` field, starts a comment."""
    try:
        joined = "".join(ids)
        if all(ids) and joined.split() == [joined] and not (first and "#" in joined):
            return  # the common case, without a loop in Python
    except TypeError:
        pass
    for uid in ids:
        if not isinstance(uid, str) or uid.split() != [uid] or first and uid[0] == "#":
            raise ValueError(f"ID {uid!r} is not a text field: IDs are non-empty, hold no "
                             "whitespace and do not start a line with '#'")


# ---------------------------------------------------------------- embeddings


def _value_rows(path_or_stream, typecode, what, head=None):
    """(first fields, matrix, line numbers) of a text path or stream (see
    `_lines`): each line's first field, its other fields as a row of one
    N x D matrix in an `array` of `typecode`, and its line number."""
    ids, values, linenos, dim = [], array(typecode), array("q"), 0
    for lineno, fields in _lines(path_or_stream, head):
        if len(fields) < 2:
            raise ParseError(f"{what} line needs an ID and values", line=lineno)
        try:
            row = [float(v) for v in fields[1:]]
        except ValueError as e:
            raise ParseError(f"bad number: {e}", line=lineno) from None
        if ids and len(row) != dim:
            raise DimensionDrift(f"dimension {len(row)} after {dim}", line=lineno)
        ids.append(fields[0])
        values.fromlist(row)
        linenos.append(lineno)
        dim = len(row)
    return ids, np.frombuffer(values, dtype=typecode).reshape(len(ids), dim), linenos


def _parse_embeddings_text(stream, head):
    ids, matrix, linenos = _value_rows(stream, "f", "embedding", head)
    try:
        return EmbeddingSet.from_matrix(ids, matrix)
    except DuplicateId as e:
        raise DuplicateId(f"duplicate ID {ids[e.row]!r} (line {linenos[e.row]})") from None
    except ValueError as e:
        raise ParseError(str(e), line=linenos[e.row]) from None


def _parse_embeddings_binary(data):
    if len(data) < 8 or data[:8] != MAGIC:
        raise ParseError("bad magic; not a binary embedding file", offset=0)
    if len(data) < 20:
        raise ParseError("truncated header", offset=len(data))
    (crc_stored,) = struct.unpack_from("<I", data, 8)
    if zlib.crc32(data[12:]) & 0xFFFFFFFF != crc_stored:
        raise ParseError("checksum mismatch; file is corrupted", offset=8)
    dim, count = struct.unpack_from("<II", data, 12)
    if dim < 1:
        raise ParseError("dimension must be >= 1", offset=12)
    ids, offsets = [], []  # offsets: where each record's values start
    pos = 20
    for r in range(count):
        if pos + 2 > len(data):
            raise ParseError(f"truncated record {r}", offset=pos)
        (id_len,) = struct.unpack_from("<H", data, pos)
        pos += 2
        if pos + id_len + 4 * dim > len(data):
            raise ParseError(f"truncated record {r}", offset=pos)
        try:
            ids.append(data[pos : pos + id_len].decode("utf-8"))
        except UnicodeDecodeError:
            raise ParseError(f"bad UTF-8 in record {r} ID", offset=pos) from None
        pos += id_len
        offsets.append(pos)
        pos += 4 * dim
    if pos != len(data):
        raise ParseError("trailing bytes after last record", offset=pos)
    rows = [np.frombuffer(data, dtype="<f4", count=dim, offset=o) for o in offsets]
    try:
        return EmbeddingSet.from_matrix(ids, np.stack(rows) if rows else np.empty((0, dim)))
    except DuplicateId as e:
        raise DuplicateId(f"duplicate ID {ids[e.row]!r} (record {e.row})") from None
    except ValueError as e:
        raise ParseError(str(e), offset=offsets[e.row]) from None


def parse_embeddings(path_or_stream, format="auto"):
    """Load an EmbeddingSet; `format` is auto (by the magic bytes), text or binary."""
    if format not in ("auto", "text", "binary"):
        raise ValueError(f"unknown format {format!r}")
    if not hasattr(path_or_stream, "read"):
        with open(path_or_stream, "rb") as fh:
            return parse_embeddings(fh, format)
    head = None if format == "text" else path_or_stream.read(len(MAGIC))
    while head and len(head) < len(MAGIC) and (more := path_or_stream.read(len(MAGIC) - len(head))):
        head += more  # a raw stream may return the magic in several reads
    if format == "binary" or head == MAGIC:
        # the whole body, for its checksum
        return _parse_embeddings_binary(head + path_or_stream.read())
    return _parse_embeddings_text(path_or_stream, head)


def write_embeddings_text(embset, path_or_stream):
    ids = embset.ids()
    _check_ids(ids, first=True)
    if ids and ids[0].startswith(MAGIC.decode()):
        raise ValueError(f"ID {ids[0]!r} cannot start a text embedding file: it begins "
                         f"with the binary magic {MAGIC.decode()!r}")
    # repr of the exact float64 widening of each float32 component: it
    # parses back to that float64, and so to the same float32
    _write_all("".join([uid + " " + " ".join(map(repr, row)) + "\n"
                        for uid, row in zip(ids, embset.matrix().tolist())]), path_or_stream)


def write_embeddings_binary(embset, path_or_stream):
    if len(embset) == 0 or embset.dim is None:
        raise ValueError("cannot write an empty embedding set")
    body = bytearray(struct.pack("<II", embset.dim, len(embset)))
    for uid, row in zip(embset.ids(), embset.matrix().astype("<f4")):
        id_bytes = uid.encode("utf-8")
        if len(id_bytes) > 0xFFFF:
            raise ValueError(f"ID too long: {uid!r}")
        body += struct.pack("<H", len(id_bytes)) + id_bytes + row.tobytes()
    _write_all(MAGIC + struct.pack("<I", zlib.crc32(body)) + body, path_or_stream)


# ------------------------------------------------------------ trials, scores


def parse_trials(path_or_stream):
    """A TrialTable of a trial file (see `core`)."""
    return _id_columns(path_or_stream, 2)[0]


def write_trials(trials, path_or_stream):
    enroll, test, labels = tuple(zip(*trials)) or ((), (), ())
    _check_ids(enroll, first=True)
    _check_ids(test, first=False)
    _write_all("".join([f"{e} {t}{_LABEL_SUFFIX[LABEL_CODE[label]]}\n"
                        for e, t, label in zip(enroll, test, labels)]), path_or_stream)


def parse_scores(path_or_stream):
    table, scores = _id_columns(path_or_stream, 3)
    try:
        return ScoreSet._of_table(table, scores)
    except (DuplicateTrial, ValueError) as e:  # a repeated trial, a non-finite score
        raise _located(table, e) from None


def write_scores(scores, path_or_stream):
    table = scores._table
    runs = [slice(lo, lo + _RECORDS) for lo in range(0, len(scores), _RECORDS)]
    for column, first in ((0, True), (1, False)):  # every enroll ID, then every test ID
        for run in runs:
            _check_ids(table._sides(table._ids, run)[column], first)
    _write_all(("".join([f"{e} {t} {v!r}{_LABEL_SUFFIX[c]}\n" for e, t, c, v in zip(
                    *table._sides(table._ids, run), table._labels[run].tolist(),
                    scores._scores[run].tolist())]) for run in runs), path_or_stream)


# ------------------------------------------------------------------- gates


def parse_gate_params(path_or_stream):
    """Gate parameters: one `<name> <w1> ... <wD> <bias>` line per gate
    output, candidate layers in file order (depth order, final layer
    excluded). The name is not checked. Returns (weight, bias) float64
    arrays.
    """
    _, mat, linenos = _value_rows(path_or_stream, "d", "gate")
    if mat.shape[1] < 2:
        raise ParseError("gate file needs rows of D+1 values", line=linenos[0] if linenos else 1)
    finite = np.isfinite(mat).all(axis=1)
    if not finite.all():
        raise ParseError("non-finite gate value", line=linenos[int(np.argmin(finite))])
    return mat[:, :-1], mat[:, -1]


def write_gate_params(weight, bias, path_or_stream):
    """Gate rows `gate000`, `gate001`, ... with shortest round-trip
    decimals of the float64 values, so they parse back exactly."""
    rows = np.concatenate([np.asarray(weight, dtype=np.float64),
                           np.asarray(bias, dtype=np.float64)[:, None]], axis=1)
    if not np.all(np.isfinite(rows)):
        raise ValueError("non-finite gate value")
    _write_all("".join([f"gate{i:03d} " + " ".join(map(repr, row)) + "\n"
                        for i, row in enumerate(rows.tolist())]), path_or_stream)
