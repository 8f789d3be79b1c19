"""On-disk formats: embeddings (text and binary), trials, scores, gates.

Text embedding file: one `<id> <v1> ... <vD>` line per utterance,
`#` lines are comments. Values are written as
shortest round-trip decimals of the 32-bit stored floats, so
binary -> text -> binary conversion is lossless.

Binary embedding file (all integers little-endian):

    bytes 0..7    magic "SASVEMB1"
    bytes 8..11   CRC-32 of everything after this field
    bytes 12..15  D   (u32)
    bytes 16..19  count (u32)
    then per record: id length (u16), id bytes (UTF-8), D float32 values

The checksum covers dimension, count, and all records, so any
single-byte corruption after the magic is detected rather than silently
misparsed; a corrupted magic fails the magic check itself.

Trial file: `<enroll_id> <test_id> [label]` with label one of
target/nontarget/spoof; a missing label means unlabeled.
Score file: `<enroll_id> <test_id> <score> [label]`.

Text fields are separated by any run of whitespace (spaces or tabs), so
IDs cannot contain whitespace; the writers separate fields with a
single space.
"""

import struct
import zlib

import numpy as np

from .core import LABEL_CODE, LABELS, EmbeddingSet, ScoreSet, Trial, TrialLabel
from .errors import DimensionDrift, DuplicateId, DuplicateTrial, ParseError

MAGIC = b"SASVEMB1"

# score-file label field <-> ScoreSet label code; unlabeled has no field
_UNLABELED = LABEL_CODE[TrialLabel.UNLABELED]
_LABEL_TOKENS = {label.value: code for code, label in enumerate(LABELS) if code != _UNLABELED}
_LABEL_SUFFIX = tuple("" if code == _UNLABELED else " " + label.value
                      for code, label in enumerate(LABELS))


def _open_maybe(path_or_stream, mode):
    if hasattr(path_or_stream, "read") or hasattr(path_or_stream, "write"):
        return path_or_stream, False
    return open(path_or_stream, mode), True


def _read_all(path_or_stream, mode):
    fh, owned = _open_maybe(path_or_stream, mode)
    try:
        return fh.read()
    finally:
        if owned:
            fh.close()


# ---------------------------------------------------------------- embeddings


def _parse_embeddings_text(text):
    ids, rows, lines = [], [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) < 2:
            raise ParseError("embedding line needs an ID and values", line=lineno)
        try:
            values = np.array([float(v) for v in fields[1:]], dtype=np.float32)
        except ValueError as e:
            raise ParseError(f"bad number: {e}", line=lineno) from None
        if rows and values.shape[0] != rows[0].shape[0]:
            raise DimensionDrift(
                f"dimension {values.shape[0]} after {rows[0].shape[0]}", line=lineno
            )
        ids.append(fields[0])
        rows.append(values)
        lines.append(lineno)
    try:
        return EmbeddingSet.from_matrix(ids, np.stack(rows) if rows else np.empty((0, 0)))
    except DuplicateId as e:
        raise DuplicateId(f"duplicate ID {ids[e.row]!r} (line {lines[e.row]})") from None
    except ValueError as e:
        raise ParseError(str(e), line=lines[e.row]) from None


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
    """Load an EmbeddingSet; `format` is auto, text, or binary.

    Auto-detection looks at the binary magic bytes.
    """
    if format not in ("auto", "text", "binary"):
        raise ValueError(f"unknown format {format!r}")
    if format == "text":
        data = _read_all(path_or_stream, "r")
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return _parse_embeddings_text(data)
    data = _read_all(path_or_stream, "rb")
    if isinstance(data, str):
        data = data.encode("utf-8")
    if format == "binary":
        return _parse_embeddings_binary(data)
    if data[:8] == MAGIC:
        return _parse_embeddings_binary(data)
    try:
        return _parse_embeddings_text(data.decode("utf-8"))
    except UnicodeDecodeError:
        raise ParseError("neither binary magic nor UTF-8 text", offset=0) from None


def write_embeddings_text(embset, path_or_stream):
    fh, owned = _open_maybe(path_or_stream, "w")
    try:
        for emb in embset:
            # repr of the exact float64 value of each float32 component:
            # shortest decimal that round-trips back to the same float32
            fh.write(emb.id + " " + " ".join(repr(float(v)) for v in emb.values) + "\n")
    finally:
        if owned:
            fh.close()


def write_embeddings_binary(embset, path_or_stream):
    if len(embset) == 0 or embset.dim is None:
        raise ValueError("cannot write an empty embedding set")
    body = bytearray()
    body += struct.pack("<II", embset.dim, len(embset))
    for emb in embset:
        id_bytes = emb.id.encode("utf-8")
        if len(id_bytes) > 0xFFFF:
            raise ValueError(f"ID too long: {emb.id!r}")
        body += struct.pack("<H", len(id_bytes))
        body += id_bytes
        body += emb.values.astype("<f4").tobytes()
    crc = zlib.crc32(bytes(body)) & 0xFFFFFFFF
    fh, owned = _open_maybe(path_or_stream, "wb")
    try:
        fh.write(MAGIC + struct.pack("<I", crc) + bytes(body))
    finally:
        if owned:
            fh.close()


# ------------------------------------------------------------ trials, scores


def parse_trials(path_or_stream):
    data = _read_all(path_or_stream, "r")
    trials = []
    for lineno, line in enumerate(data.splitlines(), start=1):
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) not in (2, 3):
            raise ParseError(
                f"expected 2 or 3 fields, got {len(fields)}", line=lineno
            )
        label = TrialLabel.UNLABELED
        if len(fields) == 3:
            if fields[2] not in _LABEL_TOKENS:
                raise ParseError(f"unknown label {fields[2]!r}", line=lineno)
            label = LABELS[_LABEL_TOKENS[fields[2]]]
        try:
            trials.append(Trial(fields[0], fields[1], label))
        except ValueError as e:
            raise ParseError(str(e), line=lineno) from None
    return trials


def write_trials(trials, path_or_stream):
    fh, owned = _open_maybe(path_or_stream, "w")
    try:
        for t in trials:
            if t.label is TrialLabel.UNLABELED:
                fh.write(f"{t.enroll_id} {t.test_id}\n")
            else:
                fh.write(f"{t.enroll_id} {t.test_id} {t.label.value}\n")
    finally:
        if owned:
            fh.close()


def parse_scores(path_or_stream):
    data = _read_all(path_or_stream, "r")
    enroll, test, labels, scores, lines = [], [], [], [], []
    for lineno, line in enumerate(data.splitlines(), start=1):
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) == 3:
            labels.append(_UNLABELED)
        elif len(fields) == 4 and fields[3] in _LABEL_TOKENS:
            labels.append(_LABEL_TOKENS[fields[3]])
        elif len(fields) == 4:
            raise ParseError(f"unknown label {fields[3]!r}", line=lineno)
        else:
            raise ParseError(f"expected 3 or 4 fields, got {len(fields)}", line=lineno)
        try:
            scores.append(float(fields[2]))
        except ValueError:
            raise ParseError(f"bad score {fields[2]!r}", line=lineno) from None
        enroll.append(fields[0])
        test.append(fields[1])
        lines.append(lineno)
    try:
        return ScoreSet.from_columns(enroll, test, labels, scores)
    except DuplicateTrial as e:
        raise DuplicateTrial(f"{e} (line {lines[e.row]})") from None
    except ValueError as e:
        raise ParseError(str(e), line=lines[e.row]) from None


def write_scores(scores, path_or_stream):
    enroll, test, labels, values = scores.columns()
    text = "".join([f"{e} {t} {v!r}{_LABEL_SUFFIX[c]}\n"
                    for e, t, v, c in zip(enroll, test, values.tolist(), labels.tolist())])
    fh, owned = _open_maybe(path_or_stream, "w")
    try:
        fh.write(text)
    finally:
        if owned:
            fh.close()


# ------------------------------------------------------------------- gates


def parse_gate_params(path_or_stream):
    """Gate parameters from the embedding text format.

    Each row is a pseudo-embedding of D+1 values: the first D are one
    gate weight row, the last is that row's bias. Rows are candidate
    layers in file order (depth order, final layer excluded).
    Returns (weight, bias) float64 arrays.
    """
    embset = parse_embeddings(path_or_stream, format="text")
    if len(embset) == 0 or embset.dim < 2:
        raise ParseError("gate file needs rows of D+1 values", line=1)
    mat = embset.matrix().astype(np.float64)
    return mat[:, :-1], mat[:, -1]


def write_gate_params(weight, bias, path_or_stream):
    rows = np.concatenate(
        [np.asarray(weight, dtype=np.float64), np.asarray(bias)[:, None]], axis=1
    )
    embset = EmbeddingSet.from_matrix([f"gate{i:03d}" for i in range(len(rows))], rows)
    write_embeddings_text(embset, path_or_stream)
