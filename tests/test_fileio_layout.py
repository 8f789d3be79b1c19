"""The whole-block path of the trial and score parsers: a block in the
writers' layout is split once and sliced into columns, and gives the
columns, line numbers and errors that the per-line path gives."""

import contextlib
import io
import tracemalloc
from itertools import chain
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sasvkit import fileio
from sasvkit.cli import main
from sasvkit.core import EmbeddingSet, Trial, TrialLabel
from sasvkit.errors import SasvError
from sasvkit.fileio import parse_scores, parse_trials, write_embeddings_binary, write_trials

# IDs that repeat, one of two bytes, one that starts a comment as a first
# field, one that holds and one that starts with a line break of
# str.splitlines
_IDS = ["a", "b7", "\xe9", "#t", "x\x85y", "\u2028z"]
_LABELS = ["", "", " target", " nontarget", " spoof", " bogus", " Target"]
_SCORES = ["0.5", "-1e3", "7", "-0.0", "inf", "-inf", "nan", "1e999", "1_0", "x", "0x1"]
# lines outside the writers' layout: comments, blank lines, tabs, CR LF,
# leading or double spaces, too few or too many fields
_OTHER = ["# c\n", "\n", " \t\n", "a\tb7\n", "a b7 0.5\r\n", " a b7\n", "a  b7 1\n",
          "a b7 1 spoof x\n", "a\n", "b7 a 2 target\x0b"]
# every ID a line can give, for the embeddings `score` reads
_PIECES = ["a", "b7", "\xe9", "#t", "x", "y", "z"]


@st.composite
def _record(draw, n):
    fields = [draw(st.sampled_from(_IDS)), draw(st.sampled_from(_IDS))]
    if n == 3:
        fields.append(draw(st.sampled_from(_SCORES)))
    return " ".join(fields) + draw(st.sampled_from(_LABELS)) + "\n"


def _failure(e):
    return type(e), str(e), getattr(e, "row", None)


def _columns(data, n):
    """The columns of `_id_columns`' table of `data` and its scores, with
    the line numbers flat, or its error."""
    try:
        table, scores = fileio._id_columns(io.BytesIO(data), n)
    except SasvError as e:
        return _failure(e)
    return (table._ids.tolist(), table._keys.tolist(), list(chain.from_iterable(table._linenos)),
            table._labels.tolist(), scores.tobytes())


def _parsed(data, n):
    try:
        result = (parse_trials if n == 2 else parse_scores)(io.BytesIO(data))
    except SasvError as e:
        return _failure(e)
    return list(result)


def _scored(data, paths):
    """Exit code, standard error and output of `sasvkit score` on the
    trial file `data`: a repeated trial is located after the read."""
    trials, embeddings, out = paths
    trials.write_bytes(data)
    out.unlink(missing_ok=True)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(["score", "--trials", str(trials), "--embeddings", str(embeddings),
                     "--out", str(out)])
    return code, stderr.getvalue(), out.read_bytes() if out.exists() else None


def _outcomes(data, n, paths):
    scored = _scored(data, paths) if n == 2 else None
    return _columns(data, n), _parsed(data, n), scored


@settings(max_examples=150, deadline=None)
@given(n=st.sampled_from([2, 3]), data=st.data(), block=st.integers(1, 48))
def test_layout_blocks_parse_as_the_per_line_path_does(tmp_path_factory, n, data, block):
    lines = data.draw(st.lists(st.one_of(_record(n), _record(n), st.sampled_from(_OTHER)),
                               max_size=24))
    raw = "".join(lines).encode("utf-8")
    base = tmp_path_factory.getbasetemp()
    paths = (base / "layout-trials.txt", base / "layout-emb.bin", base / "layout-out.txt")
    if not paths[1].exists():
        rows = np.eye(len(_PIECES), dtype=np.float32) + 0.5
        write_embeddings_binary(EmbeddingSet.from_matrix(_PIECES, rows), str(paths[1]))
    with mock.patch.object(fileio, "_BLOCK", block):
        fast = _outcomes(raw, n, paths)
        with mock.patch.object(fileio, "_layout_columns", lambda *block: None):
            assert _outcomes(raw, n, paths) == fast


def _fast_blocks(data, n, block):
    """Whether each block of `data` took the whole-block path."""
    taken, real = [], fileio._layout_columns

    def spy(*block):
        columns = real(*block)
        taken.append(columns is not None)
        return columns

    with mock.patch.object(fileio, "_BLOCK", block):
        with mock.patch.object(fileio, "_layout_columns", spy):
            fileio._id_columns(io.BytesIO(data), n)
    return taken


def test_only_blocks_in_the_writers_layout_take_the_whole_block_path():
    trials = [Trial("e", f"t{i}", list(TrialLabel)[i % 3]) for i in range(40)]
    buf = io.StringIO()
    write_trials(trials, buf)
    data = buf.getvalue().encode()
    assert all(_fast_blocks(data, 2, 32)) and len(_fast_blocks(data, 2, 32)) > 10
    unlabeled = b"e t1\ne t2\n" * 20
    assert all(_fast_blocks(unlabeled, 2, 8))
    assert all(_fast_blocks(b"e t 0.5 spoof\ne t2 -1e3 target\n" * 20, 3, 16))
    # one line off the layout sends its block, and only it, line by line
    for other in (b"e\tt\n", b"e t\r\n", b" e t\n", b"e  t\n", b"# c\n", b"\n"):
        taken = _fast_blocks(unlabeled + other + unlabeled, 2, 8)
        assert taken.count(False) == 1 and len(taken) > 10
    # so does a block whose lines have a label field and lines without
    assert _fast_blocks(b"e t1\ne t2 spoof\n" * 5, 2, 1 << 16) == [False]


def test_a_parsed_trial_list_keeps_at_most_32_bytes_a_trial(tmp_path):
    rng = np.random.default_rng(3)
    ids = [f"spk{i // 20:03d}-utt{i % 20:03d}" for i in range(2000)]
    pairs = rng.choice(2000 * 2000, 20000, replace=False)
    labels = list(TrialLabel)[:3]
    path = tmp_path / "trials.txt"
    write_trials([Trial(ids[p // 2000], ids[p % 2000], labels[p % 3]) for p in pairs.tolist()],
                 str(path))
    # two int64 codes and an int8 label a trial, and each ID once: about
    # 25 bytes; a list of Trial tuples keeps about 85
    tracemalloc.start()
    try:
        trials = parse_trials(str(path))
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trials) == 20000 and len(set(chain.from_iterable(t[:2] for t in trials))) == 2000
    assert retained <= 32 * len(trials)
