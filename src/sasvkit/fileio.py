"""On-disk formats: embeddings (text and binary), trials, scores, gates.

Text files are UTF-8; bad UTF-8 is a ParseError at its byte offset. The
tokenizer `_lines` is the one definition of their fields (split on any
run of whitespace) and comments (a line whose first field starts with
`#`). It reads a file in blocks that end at a newline, so the memory a
parse needs besides its result does not grow with the file size; an
error found after the read (a repeated ID or trial, a non-finite or zero
row) takes its line number from the record's line that the parser kept.
The enroll and test IDs of trial and score files are interned, so each
distinct ID is one string however many lines and files repeat it.

The writers separate fields with one space and raise ValueError, before
the target is opened, for an ID that would not read back as the same
field: an empty one, one holding whitespace, or a line's first field
starting with `#`.

Text embedding file: one `<id> <v1> ... <vD>` line per utterance.
Values are written as shortest round-trip decimals of the 32-bit stored
floats, so binary -> text -> binary conversion is lossless.

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

import struct
import sys
import zlib
from array import array

import numpy as np

from .core import LABEL_CODE, LABELS, TOKEN_CODE, EmbeddingSet, ScoreSet, Trial, TrialLabel
from .errors import DimensionDrift, DuplicateId, DuplicateTrial, ParseError

MAGIC = b"SASVEMB1"
_BLOCK = 1 << 16  # bytes (or characters) a text reader reads at a time

_UNLABELED = LABEL_CODE[TrialLabel.UNLABELED]
# a label code's optional last field, as the writers append it
_LABEL_SUFFIX = tuple("" if code == _UNLABELED else " " + label.value
                      for code, label in enumerate(LABELS))


def _write_all(data, path_or_stream):
    """Write str or bytes to a stream, or to a path it then replaces."""
    if hasattr(path_or_stream, "write"):
        path_or_stream.write(data)
    else:
        with open(path_or_stream, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)


def _blocks(stream, head):
    """The text of `stream` (str or bytes), after the already read
    `head`, in pieces that each end at a newline but for the last. Each
    read is searched once and joined once, so a line longer than a
    block costs time in proportion to its length."""
    pending = [head] if head else []  # what is read of a line not yet ended
    while chunk := stream.read(_BLOCK):
        cut = chunk.rfind(b"\n" if isinstance(chunk, bytes) else "\n") + 1
        if cut:
            yield chunk[:0].join([*pending, chunk[:cut]])
            pending = [chunk[cut:]]
        else:
            pending.append(chunk)
    if pending:
        yield pending[0][:0].join(pending)


def _lines(path_or_stream, head=None):
    """(line number, fields) of each line of a text path or stream (str
    or UTF-8 bytes; `head` is what was already read of the stream) that
    is neither blank nor a comment: the one definition of the text
    grammar's fields and comments.

    The text is read and decoded in blocks that end at a newline, so a
    CR LF pair never straddles two blocks and `splitlines` on each block
    gives the lines of the whole text. A path's file is closed when the
    lines end or the generator is dropped, as it is when a parser that
    iterates it in its `for` statement raises."""
    if not hasattr(path_or_stream, "read"):
        with open(path_or_stream, "rb") as fh:
            yield from _lines(fh)
        return
    lineno = offset = 0
    for block in _blocks(path_or_stream, head):
        if isinstance(block, bytes):
            try:
                text = block.decode("utf-8")
            except UnicodeDecodeError as e:
                raise ParseError(f"bad UTF-8 text: {e.reason}", offset=offset + e.start) from None
            offset += len(block)
        else:
            text = block
        for lineno, line in enumerate(text.splitlines(), start=lineno + 1):
            fields = line.split()
            if fields and fields[0][0] != "#":
                yield lineno, fields


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


def _value_rows(path_or_stream, dtype, what, head=None):
    """(first fields, rows, line numbers) of a text path or stream (see
    `_lines`): each line's first field, its other fields as a `dtype`
    vector, all of one length, and its line number."""
    ids, rows, linenos = [], [], array("q")
    for lineno, fields in _lines(path_or_stream, head):
        if len(fields) < 2:
            raise ParseError(f"{what} line needs an ID and values", line=lineno)
        try:
            values = np.array([float(v) for v in fields[1:]], dtype=dtype)
        except ValueError as e:
            raise ParseError(f"bad number: {e}", line=lineno) from None
        if rows and values.shape[0] != rows[0].shape[0]:
            raise DimensionDrift(
                f"dimension {values.shape[0]} after {rows[0].shape[0]}", line=lineno
            )
        ids.append(fields[0])
        rows.append(values)
        linenos.append(lineno)
    return ids, rows, linenos


def _parse_embeddings_text(stream, head):
    ids, rows, linenos = _value_rows(stream, np.float32, "embedding", head)
    try:
        return EmbeddingSet.from_matrix(ids, np.stack(rows) if rows else np.empty((0, 0)))
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
    if format == "binary" or head in (MAGIC, MAGIC.decode()):
        # the whole body, for its checksum
        data = head + path_or_stream.read()
        return _parse_embeddings_binary(data.encode("utf-8") if isinstance(data, str) else data)
    return _parse_embeddings_text(path_or_stream, head)


def write_embeddings_text(embset, path_or_stream):
    ids = embset.ids()
    _check_ids(ids, first=True)
    # repr of the exact float64 value of each float32 component:
    # shortest decimal that round-trips back to the same float32
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
    trials = []
    for lineno, fields in _lines(path_or_stream):
        label = LABELS[_label_code(fields, 2, lineno)]
        trials.append(Trial(sys.intern(fields[0]), sys.intern(fields[1]), label))
    return trials


def write_trials(trials, path_or_stream):
    trials = list(trials)
    enroll, test = [t.enroll_id for t in trials], [t.test_id for t in trials]
    _check_ids(enroll, first=True)
    _check_ids(test, first=False)
    _write_all("".join([f"{e} {t}{_LABEL_SUFFIX[LABEL_CODE[trial.label]]}\n"
                        for e, t, trial in zip(enroll, test, trials)]), path_or_stream)


def parse_scores(path_or_stream):
    enroll, test, labels, scores, linenos = [], [], array("b"), array("d"), array("q")
    for lineno, fields in _lines(path_or_stream):
        labels.append(_label_code(fields, 3, lineno))
        try:
            scores.append(float(fields[2]))
        except ValueError:
            raise ParseError(f"bad score {fields[2]!r}", line=lineno) from None
        enroll.append(sys.intern(fields[0]))
        test.append(sys.intern(fields[1]))
        linenos.append(lineno)
    try:
        return ScoreSet.from_columns(enroll, test, labels, scores)
    except DuplicateTrial as e:
        raise DuplicateTrial(f"{e} (line {linenos[e.row]})") from None
    except ValueError as e:
        raise ParseError(str(e), line=linenos[e.row]) from None


def write_scores(scores, path_or_stream):
    enroll, test, labels, values = scores.columns()
    _check_ids(enroll, first=True)
    _check_ids(test, first=False)
    _write_all("".join([f"{e} {t} {v!r}{_LABEL_SUFFIX[c]}\n"
                        for e, t, v, c in zip(enroll, test, values.tolist(), labels.tolist())]),
               path_or_stream)


# ------------------------------------------------------------------- gates


def parse_gate_params(path_or_stream):
    """Gate parameters: one `<name> <w1> ... <wD> <bias>` line per gate
    output, candidate layers in file order (depth order, final layer
    excluded). The name is not checked. Returns (weight, bias) float64
    arrays.
    """
    _, rows, linenos = _value_rows(path_or_stream, np.float64, "gate")
    if not rows or rows[0].shape[0] < 2:
        raise ParseError("gate file needs rows of D+1 values", line=linenos[0] if rows else 1)
    mat = np.stack(rows)
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
