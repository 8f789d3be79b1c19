"""Fuzz of every file the data commands read: whatever a file holds, the
CLI returns an exit code and no exception escapes `main`."""

import contextlib
import io
import os
import re
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sasvkit.cli import main
from sasvkit.core import EmbeddingSet
from sasvkit.fileio import write_embeddings_binary

_EMB_TEXT = b"e1 1.0 0.0\nt1 0.0 1.0\ne2 0.6 0.8\n"
_BINARY = io.BytesIO()
write_embeddings_binary(EmbeddingSet.from_matrix(["e1", "t1", "e2"], np.eye(3, 2) + 0.5), _BINARY)

# valid contents of each kind of file; the fuzz starts from these
_VALID = {
    "emb": (_EMB_TEXT, _BINARY.getvalue()),
    "trials": (b"e1 t1 target\ne2 t1 nontarget\n",),
    "scores": (b"e1 t1 0.5 target\ne2 t1 -0.5 nontarget\ne3 t1 -1 spoof\n",),
    "adcf": (b'{"c_miss": 1, "pi_target": 0.5, "pi_nontarget": 0.25, "pi_spoof": 0.25}',),
    "layers": (b"l0 1 0\nl1 0 1\nl2 0.6 0.8\n",),
    "gate": (b"g0 1 0 0\ng1 0 1 0.5\n",),
}
_TOKENS = [b"#", b"\t", b"\r", b"\n", b" ", b"nan", b"1e400", b"1e39", b"-inf", b"0.5", b"-1",
           b"0", b"target", b"nontarget", b"spoof", b"unlabeled", b"SASVEMB1", b"e1", b"t1",
           b"\xff", b"{", b"}", b'"c_miss"', b":", b","]
# one command line per data command; {kind} and {kind2} are file slots
_COMMANDS = [
    "score --trials {trials} --embeddings {emb} --out {out}",
    "score --trials {trials} --embeddings {emb} --cohort {emb2} --top-k 2 --out {out}",
    "cascade --sd-scores {scores} --asv-scores {scores2} --threshold 0 --out {out}",
    "ensemble --in {scores},{scores2} --out {out}",
    "eval --scores {scores} --adcf-config {adcf}",
    "moe-demo --layers {layers} --gate {gate} --top-k 2",
]


def _variants(valid):
    """Random bytes, random tokens, the valid content with its tokens
    shuffled or one byte replaced, or the valid content itself."""
    tokens = re.findall(rb"\s+|\S+", valid)
    return st.one_of(
        st.binary(max_size=120),
        st.lists(st.sampled_from(_TOKENS), max_size=30).map(b"".join),
        st.permutations(tokens).map(b"".join),
        st.tuples(st.integers(0, len(valid) - 1), st.binary(min_size=1, max_size=1)).map(
            lambda p: valid[: p[0]] + p[1] + valid[p[0] + 1 :]),
        st.just(valid),
    )


def _run(command, contents):
    """`main`'s return value for `command` with the slots holding
    `contents` (slot -> bytes), its output discarded."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"out": os.path.join(tmp, "out.txt")}
        for slot, content in contents.items():
            paths[slot] = os.path.join(tmp, slot)
            with open(paths[slot], "wb") as fh:
                fh.write(content)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return main(command.format(**paths).split())


def _slots(command):
    return [s for s in re.findall(r"\{(\w+)\}", command) if s != "out"]


def test_valid_files_pass():
    for command in _COMMANDS:
        assert _run(command, {s: _VALID[s.rstrip("2")][0] for s in _slots(command)}) == 0, command
    assert _run(_COMMANDS[1], {"trials": _VALID["trials"][0], "emb": _BINARY.getvalue(),
                               "emb2": _BINARY.getvalue()}) == 0


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_COMMANDS), st.data())
def test_any_file_content_gives_an_exit_code(command, data):
    contents = {s: data.draw(st.sampled_from(_VALID[s.rstrip("2")]).flatmap(_variants), label=s)
                for s in _slots(command)}
    assert _run(command, contents) in (0, 1, 2, 3)
