import io
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import first_bad_embedding_row

from sasvkit.core import Embedding, EmbeddingSet, ScoreSet, Trial, TrialLabel
from sasvkit.errors import DimensionDrift, DuplicateId, DuplicateTrial, ParseError
from sasvkit.fileio import (
    MAGIC,
    parse_embeddings,
    parse_gate_params,
    parse_scores,
    parse_trials,
    write_embeddings_binary,
    write_embeddings_text,
    write_gate_params,
    write_scores,
    write_trials,
)


def _random_embset(rng, n=10, d=4, prefix="u"):
    return EmbeddingSet(
        Embedding(f"{prefix}{i}", rng.standard_normal(d).astype(np.float32))
        for i in range(n)
    )


def test_parse_text_embeddings():
    s = parse_embeddings(io.StringIO("a 1.0 0.0\nb 0.0 1.0\n"), format="text")
    assert len(s) == 2 and s.dim == 2
    assert np.array_equal(s["a"].values, [1.0, 0.0])


def test_parse_text_comments_and_blank_lines():
    s = parse_embeddings(io.StringIO("# header\n\na 1.0\n"), format="text")
    assert len(s) == 1


def test_parse_text_dimension_drift():
    with pytest.raises(DimensionDrift, match="line 2"):
        parse_embeddings(io.StringIO("a 1.0 2.0\nb 1.0 2.0 3.0\n"), format="text")


def test_parse_text_duplicate_and_bad_number():
    with pytest.raises(DuplicateId):
        parse_embeddings(io.StringIO("a 1.0\na 2.0\n"), format="text")
    with pytest.raises(ParseError, match="line 1"):
        parse_embeddings(io.StringIO("a one\n"), format="text")


def test_text_round_trip():
    rng = np.random.default_rng(0)
    original = _random_embset(rng, n=100)
    buf = io.StringIO()
    write_embeddings_text(original, buf)
    parsed = parse_embeddings(io.StringIO(buf.getvalue()), format="text")
    assert parsed.ids() == original.ids()
    for e in original:
        assert np.array_equal(parsed[e.id].values, e.values)


def test_binary_round_trip_bit_exact():
    rng = np.random.default_rng(1)
    original = _random_embset(rng, n=100)
    buf = io.BytesIO()
    write_embeddings_binary(original, buf)
    parsed = parse_embeddings(io.BytesIO(buf.getvalue()), format="binary")
    for e in original:
        assert parsed[e.id].values.tobytes() == e.values.tobytes()


def test_auto_detection():
    rng = np.random.default_rng(2)
    original = _random_embset(rng, n=3)
    bbuf = io.BytesIO()
    write_embeddings_binary(original, bbuf)
    assert len(parse_embeddings(io.BytesIO(bbuf.getvalue()))) == 3
    tbuf = io.StringIO()
    write_embeddings_text(original, tbuf)
    assert len(parse_embeddings(io.BytesIO(tbuf.getvalue().encode()))) == 3


def test_binary_text_binary_lossless():
    rng = np.random.default_rng(3)
    original = _random_embset(rng, n=20)
    b1 = io.BytesIO()
    write_embeddings_binary(original, b1)
    via_text = io.StringIO()
    write_embeddings_text(parse_embeddings(io.BytesIO(b1.getvalue())), via_text)
    reparsed = parse_embeddings(io.BytesIO(via_text.getvalue().encode()))
    b2 = io.BytesIO()
    write_embeddings_binary(reparsed, b2)
    assert b1.getvalue() == b2.getvalue()


def test_every_single_byte_corruption_is_detected():
    rng = np.random.default_rng(4)
    buf = io.BytesIO()
    write_embeddings_binary(_random_embset(rng, n=5, d=3), buf)
    blob = bytearray(buf.getvalue())
    for pos in range(len(blob)):
        for delta in (0xFF, 0x01):
            corrupted = bytearray(blob)
            corrupted[pos] ^= delta
            with pytest.raises(ParseError):
                parse_embeddings(io.BytesIO(bytes(corrupted)), format="binary")


def test_binary_truncation_detected():
    rng = np.random.default_rng(5)
    buf = io.BytesIO()
    write_embeddings_binary(_random_embset(rng, n=3), buf)
    blob = buf.getvalue()
    with pytest.raises(ParseError):
        parse_embeddings(io.BytesIO(blob[:-1]), format="binary")
    with pytest.raises(ParseError):
        parse_embeddings(io.BytesIO(blob + b"\x00"), format="binary")


def test_parse_trials():
    trials = parse_trials(io.StringIO("e1 t1 target\ne2 t2\n"))
    assert trials[0] == Trial("e1", "t1", TrialLabel.TARGET)
    assert trials[1].label is TrialLabel.UNLABELED
    with pytest.raises(ParseError, match="unknown label"):
        parse_trials(io.StringIO("e1 t1 bogus\n"))
    with pytest.raises(ParseError):
        parse_trials(io.StringIO("only-one-field\n"))


def test_parsers_split_on_any_whitespace():
    embs = parse_embeddings(io.StringIO("a\t1.0  0.0\nb  0.0 \t1.0\n"), format="text")
    assert np.array_equal(embs["b"].values, [0.0, 1.0])
    trials = parse_trials(io.StringIO("e1\tt1\ttarget\ne2   t2\n"))
    assert trials == [Trial("e1", "t1", TrialLabel.TARGET), Trial("e2", "t2")]
    scores = parse_scores(io.StringIO("e1\tt1\t0.5\tspoof\ne2  t2 \t -1.0\n"))
    assert scores.keys() == [("e1", "t1"), ("e2", "t2")]
    assert list(scores.scores()) == [0.5, -1.0]
    # the writers keep single-space output
    buf = io.StringIO()
    write_trials(trials, buf)
    assert buf.getvalue() == "e1 t1 target\ne2 t2\n"
    buf = io.StringIO()
    write_scores(scores, buf)
    assert buf.getvalue() == "e1 t1 0.5 spoof\ne2 t2 -1.0\n"


def test_trials_round_trip():
    rng = np.random.default_rng(6)
    labels = list(TrialLabel)
    trials = [
        Trial(f"e{i}", f"t{i}", labels[rng.integers(4)]) for i in range(50)
    ]
    buf = io.StringIO()
    write_trials(trials, buf)
    parsed = parse_trials(io.StringIO(buf.getvalue()))
    assert parsed == trials and all(type(t) is Trial for t in parsed)


def test_scores_round_trip_identity():
    rng = np.random.default_rng(7)
    labels = list(TrialLabel)
    s = ScoreSet()
    for i in range(50):
        s.append(
            Trial(f"e{i}", f"t{i}", labels[rng.integers(4)]),
            float(rng.standard_normal() * 10.0 ** rng.integers(-8, 8)),
        )
    buf = io.StringIO()
    write_scores(s, buf)
    parsed = parse_scores(io.StringIO(buf.getvalue()))
    assert parsed.keys() == s.keys()
    assert np.array_equal(parsed.scores(), s.scores())
    assert [t.label for t, _ in parsed] == [t.label for t, _ in s]
    assert all(type(t) is Trial and type(v) is float for t, v in parsed)


def test_parse_scores_errors():
    with pytest.raises(ParseError, match="bad score"):
        parse_scores(io.StringIO("e t abc\n"))
    with pytest.raises(ParseError):
        parse_scores(io.StringIO("e t\n"))


def test_parse_scores_locates_duplicates_and_non_finite_scores():
    text = "e t 1.0\n# comment\n\ne2 t 2.0\ne t 3.0\n"
    with pytest.raises(DuplicateTrial, match=r"duplicate trial \('e', 't'\) \(line 5\)$"):
        parse_scores(io.StringIO(text))
    with pytest.raises(ParseError, match=r"non-finite score for trial \('e2', 't'\) \(line 2\)"):
        parse_scores(io.StringIO("e t 1.0\ne2 t nan\ne t 3.0\n"))
    # the first offending record decides, as when appending one by one
    with pytest.raises(DuplicateTrial, match=r"\(line 2\)"):
        parse_scores(io.StringIO("e t 1.0\ne t 2.0\ne2 t inf\n"))


def test_gate_params_round_trip():
    rng = np.random.default_rng(8)
    weight = rng.standard_normal((5, 7))
    bias = rng.standard_normal(5)
    buf = io.StringIO()
    write_gate_params(weight, bias, buf)
    w2, b2 = parse_gate_params(io.StringIO(buf.getvalue()))
    assert w2.dtype == b2.dtype == np.float64
    assert np.array_equal(w2, weight) and np.array_equal(b2, bias)


def test_gate_params_keep_float64_values_and_zero_rows():
    buf = io.StringIO()
    write_gate_params([[0.1, 0.0], [0.0, 0.0]], [1 / 3, 0.0], buf)
    assert buf.getvalue() == "gate000 0.1 0.0 0.3333333333333333\ngate001 0.0 0.0 0.0\n"
    weight, bias = parse_gate_params(io.StringIO(buf.getvalue()))
    assert weight.tolist() == [[0.1, 0.0], [0.0, 0.0]] and bias.tolist() == [1 / 3, 0.0]


def test_gate_params_name_field_is_not_checked():
    weight, bias = parse_gate_params(io.StringIO("# a comment\nx 1 2\nx 3 4\n"))
    assert weight.tolist() == [[1.0], [3.0]] and bias.tolist() == [2.0, 4.0]


@pytest.mark.parametrize("text, message, line", [
    ("g 1 2\ng 1 x\n", "bad number", 2),
    ("g 1 2\n\ng nan 2\n", "non-finite gate value", 3),
    ("g 1 2\ng 1 1e999\n", "non-finite gate value", 2),
    ("g 1 2\ng 1 2 3\n", "dimension 3 after 2", 2),
    ("# c\ng 1\ng 2\n", "gate file needs rows of D\\+1 values", 2),
    ("g\n", "gate line needs an ID and values", 1),
    ("# only a comment\n", "gate file needs rows of D\\+1 values", 1),
])
def test_gate_params_errors_are_located(text, message, line):
    with pytest.raises(ParseError, match=message) as err:
        parse_gate_params(io.StringIO(text))
    assert err.value.line == line


def test_write_gate_params_rejects_non_finite_values():
    buf = io.StringIO()
    with pytest.raises(ValueError, match="non-finite gate value"):
        write_gate_params([[np.inf]], [0.0], buf)
    assert buf.getvalue() == ""


def test_label_fields_are_the_three_labels():
    for text in ("e t 1.0 unlabeled\n", "e t 1.0 Target\n", "e t 1.0 TARGET\n",
                 "e t 1.0 bonafide\n"):
        with pytest.raises(ParseError, match="unknown label"):
            parse_scores(io.StringIO(text))
    with pytest.raises(ParseError, match="unknown label"):
        parse_trials(io.StringIO("e t unlabeled\n"))


_F32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
_BAD_KINDS = ("empty id", "nan", "inf", "-inf", "zero", "duplicate")


@st.composite
def _rows_with_bad_ones(draw):
    """(ids, float32 matrix, kinds) with bad rows of the drawn kinds at
    random positions; every other row is a valid embedding."""
    n = draw(st.integers(1, 10))
    dim = draw(st.integers(1, 4))
    ids = [f"u{i}" for i in range(n)]
    rows = np.array(draw(st.lists(st.lists(_F32, min_size=dim, max_size=dim),
                                  min_size=n, max_size=n)), dtype=np.float32).reshape(n, dim)
    rows[~rows.any(axis=1), 0] = 1.0
    kinds = draw(st.lists(st.tuples(st.sampled_from(_BAD_KINDS), st.integers(0, n - 1),
                                    st.integers(0, n - 1), st.integers(0, dim - 1)), max_size=3))
    for kind, row, other, col in kinds:
        if kind == "empty id":
            ids[row] = ""
        elif kind == "zero":
            rows[row] = 0.0
        elif kind == "duplicate":
            ids[row] = ids[other]
        else:
            rows[row, col] = float(kind)
    return ids, rows, {k for k, *_ in kinds}


def _text_file(ids, rows, gaps):
    """The text file of the rows after gaps[i] comment or blank lines
    each, and the line number of every row."""
    lines, numbers = [], []
    for uid, row, gap in zip(ids, rows, gaps):
        lines += ["# comment", ""][:gap]
        lines.append(uid + " " + " ".join(repr(float(v)) for v in row))
        numbers.append(len(lines))
    return "\n".join(lines) + "\n", numbers


def _binary_file(ids, rows):
    """The binary file of the rows, which may break the row checks, and
    the byte offset of every row's values."""
    body, offsets = bytearray(struct.pack("<II", rows.shape[1], len(ids))), []
    for uid, row in zip(ids, rows):
        id_bytes = uid.encode("utf-8")
        body += struct.pack("<H", len(id_bytes)) + id_bytes
        offsets.append(12 + len(body))
        body += row.astype("<f4").tobytes()
    return _signed(bytes(body)), offsets


def _signed(body):
    """The binary file of `body` (everything after the checksum field)
    with a correct CRC-32, so a structure check fails and not the
    checksum."""
    return MAGIC + struct.pack("<I", zlib.crc32(body)) + body


_HEAD_1x1 = struct.pack("<II", 1, 1)  # dimension 1, one record
_HEAD_1x2 = struct.pack("<II", 1, 2)  # dimension 1, two records
_RECORD_A = struct.pack("<H", 1) + b"a" + struct.pack("<f", 1.0)  # 7 bytes


@pytest.mark.parametrize("body, message, offset", [
    (struct.pack("<II", 0, 1), "dimension must be >= 1", 12),
    (struct.pack("<II", 2, 1), "truncated record 0", 20),
    (_HEAD_1x2 + _RECORD_A, "truncated record 1", 27),
    (_HEAD_1x2 + _RECORD_A + b"\x01", "truncated record 1", 27),
    (struct.pack("<II", 2, 1) + _RECORD_A, "truncated record 0", 22),
    (_HEAD_1x1 + struct.pack("<H", 9) + b"a" + struct.pack("<f", 1.0), "truncated record 0", 22),
    (_HEAD_1x2 + _RECORD_A + struct.pack("<H", 1) + b"\xff" + struct.pack("<f", 1.0),
     "bad UTF-8 in record 1 ID", 29),
    (_HEAD_1x1 + _RECORD_A + b"\x00", "trailing bytes after last record", 27),
], ids=["dimension-0", "no-record", "no-second-record", "cut-id-length", "cut-values",
        "id-past-the-end", "bad-utf8-id", "trailing-byte"])
def test_binary_structure_errors_are_located(body, message, offset):
    for fmt in ("binary", "auto"):
        with pytest.raises(ParseError) as info:
            parse_embeddings(io.BytesIO(_signed(body)), format=fmt)
        assert str(info.value) == f"{message} (byte offset {offset})"
        assert info.value.offset == offset


@pytest.mark.parametrize("call, message", [
    (lambda: write_embeddings_binary(EmbeddingSet(), io.BytesIO()),
     "^cannot write an empty embedding set$"),
    (lambda: write_embeddings_binary(
        EmbeddingSet.from_matrix(["\xe9" * 32768], np.ones((1, 2))), io.BytesIO()),
     "^ID too long: '\xe9"),
    (lambda: write_scores(ScoreSet.from_columns([1], [2], [0], [0.5]), io.StringIO()),
     r"^ID 1 is not a text field: "),
    (lambda: parse_embeddings(io.BytesIO(MAGIC), format="bogus"), "^unknown format 'bogus'$"),
], ids=["empty-set", "long-id", "non-str-id", "unknown-format"])
def test_writers_and_the_format_switch_reject_bad_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_binary_ids_up_to_65535_utf8_bytes_round_trip():
    buf = io.BytesIO()
    uid = "\xe9" * 32767 + "x"  # 65,535 bytes
    write_embeddings_binary(EmbeddingSet.from_matrix([uid], np.ones((1, 2))), buf)
    assert parse_embeddings(io.BytesIO(buf.getvalue())).ids() == [uid]


@settings(max_examples=300, deadline=None)
@given(_rows_with_bad_ones(), st.lists(st.integers(0, 2), min_size=10, max_size=10))
def test_column_constructors_report_the_first_offending_row(case, gaps):
    ids, rows, kinds = case
    expected = first_bad_embedding_row(ids, rows)
    text, lines = _text_file(ids, rows, gaps)
    blob, offsets = _binary_file(ids, rows)
    if expected is None:
        for got in (EmbeddingSet.from_matrix(ids, rows.copy()),
                    parse_embeddings(io.StringIO(text), format="text"),
                    parse_embeddings(io.BytesIO(blob), format="binary")):
            assert got.ids() == ids and got.matrix().tobytes() == rows.tobytes()
        return
    row, exc_type, message = expected
    with pytest.raises(exc_type) as info:
        EmbeddingSet.from_matrix(ids, rows.copy())
    assert str(info.value) == message and info.value.row == row
    if exc_type is DuplicateId:
        text_error = DuplicateId, f"duplicate ID {ids[row]!r} (line {lines[row]})"
        binary_error = DuplicateId, f"duplicate ID {ids[row]!r} (record {row})"
    else:
        text_error = ParseError, f"{message} (line {lines[row]})"
        binary_error = ParseError, f"{message} (byte offset {offsets[row]})"
    with pytest.raises(binary_error[0]) as info:
        parse_embeddings(io.BytesIO(blob), format="binary")
    assert str(info.value) == binary_error[1]
    if "empty id" in kinds:
        return  # a text line cannot hold an empty ID field
    with pytest.raises(text_error[0]) as info:
        parse_embeddings(io.StringIO(text), format="text")
    assert str(info.value) == text_error[1]
    if exc_type is ParseError:
        assert info.value.line == lines[row]


_ID = st.text(st.characters(codec="utf-8"), min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(st.lists(_ID, min_size=1, max_size=8, unique=True), st.integers(1, 5), st.data())
def test_embeddings_write_parse_round_trips(ids, dim, data):
    rows = np.array(data.draw(st.lists(st.lists(_F32, min_size=dim, max_size=dim),
                                       min_size=len(ids), max_size=len(ids))),
                    dtype=np.float32).reshape(len(ids), dim)
    rows[~rows.any(axis=1), 0] = -2.5
    original = EmbeddingSet.from_matrix(ids, rows)
    formats = [(write_embeddings_binary, io.BytesIO)]
    # a text ID is one whitespace-free field that does not start a comment
    if all(uid.split() == [uid] and not uid.startswith("#") for uid in ids):
        formats.append((write_embeddings_text, io.StringIO))
    for write, stream in formats:
        buf = stream()
        write(original, buf)
        parsed = parse_embeddings(stream(buf.getvalue()))
        assert parsed.ids() == ids
        assert parsed.matrix().tobytes() == original.matrix().tobytes()


def _text_field(uid, first):
    """Whether `uid` reads back as the same text field."""
    return uid.split() == [uid] and not (first and uid.startswith("#"))


def _assert_written_or_rejected(write, original, buf, columns):
    """Write `original` to `buf` and return True when every ID of
    `columns` (ID lists, the first holding lines' first fields) is a
    text field. Otherwise assert that `write` raises ValueError naming
    the first offender, column by column, and writes nothing."""
    bad = [uid for i, ids in enumerate(columns) for uid in ids if not _text_field(uid, i == 0)]
    if not bad:
        write(original, buf)
        return True
    with pytest.raises(ValueError, match="is not a text field") as info:
        write(original, buf)
    assert str(info.value).startswith(f"ID {bad[0]!r} ")
    assert buf.getvalue() == ""
    return False


@settings(max_examples=200, deadline=None)
@given(st.lists(_ID, min_size=1, max_size=8, unique=True), st.integers(1, 5), st.data())
def test_embeddings_text_writer_round_trips_or_rejects_the_id(ids, dim, data):
    rows = np.array(data.draw(st.lists(st.lists(_F32, min_size=dim, max_size=dim),
                                       min_size=len(ids), max_size=len(ids))),
                    dtype=np.float32).reshape(len(ids), dim)
    rows[~rows.any(axis=1), 0] = -2.5
    original = EmbeddingSet.from_matrix(ids, rows)
    buf = io.StringIO()
    if _assert_written_or_rejected(write_embeddings_text, original, buf, [ids]):
        parsed = parse_embeddings(io.StringIO(buf.getvalue()))
        assert parsed.ids() == ids
        assert parsed.matrix().tobytes() == original.matrix().tobytes()


_KEYS = st.lists(st.tuples(_ID, _ID), min_size=1, max_size=8, unique=True)
_LABEL = st.sampled_from(list(TrialLabel))


@settings(max_examples=200, deadline=None)
@given(_KEYS, st.data())
def test_trials_write_parse_round_trips(keys, data):
    trials = [Trial(e, t, data.draw(_LABEL)) for e, t in keys]
    buf = io.StringIO()
    if _assert_written_or_rejected(write_trials, trials, buf, list(zip(*keys))):
        assert parse_trials(io.StringIO(buf.getvalue())) == trials


@settings(max_examples=200, deadline=None)
@given(_KEYS, st.data())
def test_scores_write_parse_round_trips(keys, data):
    original = ScoreSet((Trial(e, t, data.draw(_LABEL)), data.draw(st.floats(allow_nan=False,
                         allow_infinity=False))) for e, t in keys)
    buf = io.StringIO()
    if _assert_written_or_rejected(write_scores, original, buf, list(zip(*keys))):
        parsed = parse_scores(io.StringIO(buf.getvalue()))
        assert list(parsed) == list(original)
        assert parsed.scores().tobytes() == original.scores().tobytes()


def test_rejected_write_leaves_a_path_untouched(tmp_path):
    trials = [Trial("e", "t"), Trial("#e", "t")]
    kept, absent = tmp_path / "kept.txt", tmp_path / "absent.txt"
    kept.write_text("old\n")
    for path in (kept, absent):
        with pytest.raises(ValueError, match=r"^ID '#e' is not a text field"):
            write_trials(trials, str(path))
    assert kept.read_text() == "old\n" and not absent.exists()
    # a test ID is never a line's first field, so it may start with '#'
    write_trials([Trial("e", "#t", TrialLabel.SPOOF)], str(absent))
    assert parse_trials(str(absent)) == [Trial("e", "#t", TrialLabel.SPOOF)]


def test_writers_name_a_late_bad_enroll_id_before_an_early_bad_test_id(tmp_path):
    # every enroll ID is checked before any test ID, across runs of records
    trials = [Trial(f"e{i}", "t x" if i == 0 else f"t{i}", TrialLabel.TARGET) for i in range(6000)]
    trials[5000] = Trial("#e", "t5000", TrialLabel.TARGET)
    path = tmp_path / "out.txt"
    for write, records in ((write_trials, trials),
                           (write_scores, ScoreSet((t, 0.5) for t in trials))):
        with pytest.raises(ValueError, match=r"^ID '#e' is not a text field"):
            write(records, str(path))
        assert not path.exists()


def test_writers_name_the_first_bad_enroll_id_in_record_order(tmp_path):
    # '#x' is coded first (as record 0's test ID) but is first an enroll ID at record 5,000
    trials = [Trial(f"e{i}", "#x" if i == 0 else f"t{i}", TrialLabel.TARGET) for i in range(6000)]
    trials[3000] = Trial("a b", "t3000", TrialLabel.TARGET)
    trials[5000] = Trial("#x", "t5000", TrialLabel.TARGET)
    path = tmp_path / "out.txt"
    for write, records in ((write_trials, trials),
                           (write_scores, ScoreSet((t, 0.5) for t in trials))):
        with pytest.raises(ValueError, match=r"^ID 'a b' is not a text field"):
            write(records, str(path))
        assert not path.exists()


def test_text_embedding_writer_rejects_a_first_id_that_starts_with_the_magic(tmp_path):
    # parse_embeddings would read such a file as binary
    path = tmp_path / "emb.txt"
    for uid in ("SASVEMB1", "SASVEMB1x"):
        embs = EmbeddingSet.from_matrix([uid, "b"], np.ones((2, 2)))
        with pytest.raises(ValueError, match=f"^ID '{uid}' cannot start a text embedding file"):
            write_embeddings_text(embs, str(path))
        assert not path.exists()
    # only the file's first bytes are sniffed
    for ids in (["SASVEMB", "b"], ["b", "SASVEMB1"]):
        write_embeddings_text(EmbeddingSet.from_matrix(ids, np.ones((2, 2))), str(path))
        assert parse_embeddings(str(path)).ids() == ids


@pytest.mark.parametrize("parse", [parse_scores, parse_trials,
                                   lambda f: parse_embeddings(f, format="text"),
                                   parse_embeddings],
                         ids=["scores", "trials", "embeddings-text", "embeddings-auto"])
def test_bad_utf8_is_a_located_parse_error(parse):
    with pytest.raises(ParseError, match=r"^bad UTF-8 text: .* \(byte offset 10\)$") as info:
        parse(io.BytesIO(b"# caf\xc3\xa9\na \xff 1.0\n"))
    assert info.value.offset == 10


# two bad lines of different kinds: the earlier one is reported
_TWO_BAD_SCORE_LINES = [
    ("e t abc\ne2 t 1.0\n\ne3 t 1.0 bogus\n", ParseError, r"bad score 'abc' \(line 1\)"),
    ("e t 1.0\ne2 t 1.0 bogus\ne3 t abc\n", ParseError, r"unknown label 'bogus' \(line 2\)"),
    ("e t 1.0\ne t 1.0\n# c\ne2 t x\n", ParseError, r"bad score 'x' \(line 4\)"),
    ("e t 1.0\ne2 t\ne3 t 1.0 spoof extra\n", ParseError, r"expected 3 or 4 fields, got 2 \(line 2\)"),
    ("e t nan\n\ne t 1.0\n", ParseError, r"non-finite score .* \(line 1\)"),
    ("e t 1.0\n\ne t 1.0\ne2 t inf\n", DuplicateTrial, r"\(line 3\)$"),
]


@pytest.mark.parametrize("text, exc_type, message", _TWO_BAD_SCORE_LINES)
def test_parse_scores_reports_the_earlier_of_two_bad_lines(text, exc_type, message):
    with pytest.raises(exc_type, match=message):
        parse_scores(io.StringIO(text))


@pytest.mark.parametrize("text, message", [
    ("e t\ne\n\ne t bogus\n", r"expected 2 or 3 fields, got 1 \(line 2\)"),
    ("e t\n# c\ne t bogus\ne\n", r"unknown label 'bogus' \(line 3\)"),
    ("e t target x\ne t Target\n", r"expected 2 or 3 fields, got 4 \(line 1\)"),
])
def test_parse_trials_reports_the_earlier_of_two_bad_lines(text, message):
    with pytest.raises(ParseError, match=message):
        parse_trials(io.StringIO(text))


def test_a_comment_is_a_line_whose_first_field_starts_with_hash():
    head = "  # indented\n\t#tab\n#\n \n"
    assert parse_trials(io.StringIO(head + "e #t spoof\n")) == [Trial("e", "#t", TrialLabel.SPOOF)]
    assert parse_scores(io.StringIO(head + "e #t 1.5\n")).keys() == [("e", "#t")]
    assert parse_embeddings(io.StringIO(head + "a 1.0\n"), format="text").ids() == ["a"]
    with pytest.raises(ParseError, match=r"\(line 5\)"):
        parse_scores(io.StringIO(head + "e t x # not a comment\n"))
