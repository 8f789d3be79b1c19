"""The block reader behind the text parsers: same lines as the whole
text, located errors without re-reading, closed files, interned IDs and
parse memory that does not grow with the file."""

import io
import os
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sasvkit import fileio
from sasvkit.core import EmbeddingSet, ScoreSet
from sasvkit.errors import DimensionDrift, DuplicateId, DuplicateTrial, ParseError, SasvError
from sasvkit.fileio import (
    parse_embeddings,
    parse_gate_params,
    parse_scores,
    parse_trials,
    write_embeddings_text,
    write_scores,
)


def _whole_text_lines(data):
    """(line number, fields) of the non-blank, non-comment lines of the
    whole decoded text, or the ParseError of its bad UTF-8."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        return ParseError(f"bad UTF-8 text: {e.reason}", offset=e.start)
    lines = [(n, line.split()) for n, line in enumerate(text.splitlines(), start=1)]
    return [(n, fields) for n, fields in lines if fields and fields[0][0] != "#"]


def _block_lines(source, head=None):
    try:
        return list(fileio._lines(source, head))
    except ParseError as e:
        return e


def _same(got, want):
    if isinstance(want, ParseError):
        return isinstance(got, ParseError) and (str(got), got.offset) == (str(want), want.offset)
    return got == want


class _OneShot(io.RawIOBase):
    """A binary stream that can be read once, front to back."""

    def __init__(self, data):
        self._data, self._pos = data, 0

    def readable(self):
        return True

    def readinto(self, buf):
        n = min(len(buf), len(self._data) - self._pos)
        buf[:n] = self._data[self._pos : self._pos + n]
        self._pos += n
        return n


# every separator str.splitlines knows, whitespace, comment marks, fields and
# characters of two and three bytes
_PIECES = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
           "\u2028", "\u2029", " ", "\xa0", "\t", "#", "a", "b7", "\xe9", "\u65e5\u672c",
           "  x  "]
# bytes that are not UTF-8: a lone continuation, a cut sequence, an invalid lead
_BAD = [b"\xff", b"\x80", b"\xc3", b"\xe6\x97", b"\xed\xa0\x80"]


@settings(max_examples=400, deadline=None)
@given(pieces=st.lists(st.sampled_from(_PIECES), max_size=60),
       bad=st.lists(st.tuples(st.integers(0, 60), st.sampled_from(_BAD)), max_size=2),
       block=st.integers(1, 9), head=st.integers(0, 10))
def test_block_reader_gives_the_lines_of_the_whole_text(tmp_path_factory, pieces, bad, block,
                                                        head):
    text = "".join(pieces)
    data = text.encode("utf-8")
    for at, junk in bad:
        data = data[:at] + junk + data[at:]
    want = _whole_text_lines(data)
    path = tmp_path_factory.getbasetemp() / "blocks.txt"
    path.write_bytes(data)
    with mock.patch.object(fileio, "_BLOCK", block):
        assert _same(_block_lines(str(path)), want)
        assert _same(_block_lines(io.BytesIO(data)), want)
        assert _same(_block_lines(_OneShot(data)), want)
        stream = io.BytesIO(data)
        assert _same(_block_lines(stream, stream.read(head)), want)
        if not bad:
            assert _block_lines(io.StringIO(text)) == want
            stream = io.StringIO(text)
            assert _block_lines(stream, stream.read(head)) == want


def test_a_line_longer_than_many_blocks_is_read_in_linear_time():
    # 2 MB in 32,768 reads: joining them once is milliseconds, joining
    # the line so far at every read would copy about 34 GB
    line = b"x" * (1 << 21)
    with mock.patch.object(fileio, "_BLOCK", 64):
        t0 = time.perf_counter()
        assert list(fileio._lines(io.BytesIO(line + b"\n# c\ny 1\n"))) == [
            (1, [line.decode()]), (3, ["y", "1"])]
        assert time.perf_counter() - t0 < 2.0


# located errors on a stream that cannot be re-read: repeats, non-finite and
# zero rows are found after the read, from the line numbers it recorded
@pytest.mark.parametrize("parse, text, exc_type, message", [
    (parse_embeddings, "# h\na 1 2\n\nb 3 4\na 5 6\n", DuplicateId, r"'a' \(line 5\)$"),
    (parse_embeddings, "a 1 2\n\n# h\nb 0 0\n", ParseError, r"zero vector \(line 4\)$"),
    (parse_embeddings, "a 1 2\n#\nb nan 0\n", ParseError, r"non-finite .* \(line 3\)$"),
    (parse_embeddings, "a 1 2\n\nb 1 2 3\n", DimensionDrift, r"\(line 3\)$"),
    (parse_scores, "e t 1\n# h\n\ne2 t 2\ne t 3\n", DuplicateTrial, r"\(line 5\)$"),
    (parse_scores, "e t 1\n\n# h\ne2 t inf target\n", ParseError, r"non-finite .* \(line 4\)$"),
    (parse_scores, "e t 1\n\ne2 t 2 bogus\n", ParseError, r"unknown label 'bogus' \(line 3\)$"),
    (parse_trials, "e t\n# h\ne2 t Target\n", ParseError, r"unknown label 'Target' \(line 3\)$"),
    (parse_gate_params, "g 1 2\n\n# h\ng nan 1\n", ParseError, r"non-finite gate .* \(line 4\)$"),
])
def test_errors_after_the_read_keep_their_line_on_a_one_shot_stream(parse, text, exc_type,
                                                                     message):
    with mock.patch.object(fileio, "_BLOCK", 3):
        with pytest.raises(exc_type, match=message):
            parse(_OneShot(text.encode("utf-8")))


# files of several blocks with an error early on (the last two: after the read)
_BAD_FILES = [
    (parse_embeddings, b"a 1.0\nb x\n" + b"c 1.0\n" * 20000),
    (lambda p: parse_embeddings(p, format="text"), b"a 1.0\n\xff\n" + b"c 1.0\n" * 20000),
    (parse_trials, b"e t\ne t bogus\n" + b"e t\n" * 20000),
    (parse_scores, b"e t 1.0\ne t x\n" + b"e t 1.0\n" * 20000),
    (parse_gate_params, b"g 1 2\ng 1\n" + b"g 1 2\n" * 20000),
    (parse_embeddings, b"a 1.0\nb 1.0\n" + b"c 1.0\n" * 20000 + b"a 2.0\n"),
    (parse_scores, b"e t 1.0\ne2 t 1.0\n" * 10000 + b"e t 2.0\n"),
]


@pytest.mark.parametrize("parse, data", _BAD_FILES, ids=[
    "embeddings-number", "embeddings-text-utf8", "trials-label", "scores-score", "gate-row",
    "embeddings-duplicate", "scores-duplicate"])
def test_a_parse_error_closes_the_file(tmp_path, monkeypatch, parse, data):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    opened = []

    def spy(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(fileio, "open", spy, raising=False)
    with pytest.raises(SasvError) as info:
        parse(str(path))
    # the traceback, which holds the parser's frames, is still alive
    assert info.traceback and len(opened) == 1 and opened[0].closed


def test_trial_and_score_ids_are_interned():
    text = "".join(f"spk{i % 3}-utt{i % 5} spk{i % 7}-utt{i % 2} {i}.5\n" for i in range(40))
    a, b = parse_scores(io.StringIO(text)), parse_scores(io.BytesIO(text.encode()))
    enroll, test = a.columns()[:2]
    assert len({id(s) for s in enroll + test}) == len(set(enroll + test))
    assert all(x is y for x, y in zip(enroll + test, b.columns()[0] + b.columns()[1]))
    trials = parse_trials(io.StringIO("".join(line.rsplit(" ", 1)[0] + "\n"
                                              for line in text.splitlines())))
    assert all(t.enroll_id is e and t.test_id is s for t, e, s in zip(trials, enroll, test))


def _traced_peak(parse, path):
    """(peak, retained) bytes allocated while `parse(path)` runs, the
    latter while its result is still alive."""
    tracemalloc.start()
    try:
        result = parse(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak, retained


def test_parse_memory_does_not_grow_with_the_file(tmp_path):
    rng = np.random.default_rng(0)
    n, d = 1500, 128
    ids = [f"spk{i // 15:03d}-utt{i % 15:03d}" for i in range(n)]
    emb_path = tmp_path / "emb.txt"
    write_embeddings_text(EmbeddingSet.from_matrix(
        ids, rng.standard_normal((n, d)).astype(np.float32)), str(emb_path))
    size = os.path.getsize(emb_path)
    assert size >= 2 << 20
    # the float32 matrix it keeps is a fifth of the text; a reader that
    # holds the bytes, the decoded text or its lines peaks above 3x
    peak, _ = _traced_peak(parse_embeddings, str(emb_path))
    assert peak < size

    pairs = rng.choice(n * n, 20000, replace=False)
    score_path = tmp_path / "scores.txt"
    write_scores(ScoreSet.from_columns([ids[p // n] for p in pairs], [ids[p % n] for p in pairs],
                                       rng.integers(0, 3, pairs.size),
                                       rng.standard_normal(pairs.size)), str(score_path))
    size = os.path.getsize(score_path)
    # the ScoreSet's (enroll, test) -> row index is kept, so it is not
    # counted; what the read costs on top of it stays below the file size
    peak, retained = _traced_peak(parse_scores, str(score_path))
    assert peak - retained < size
