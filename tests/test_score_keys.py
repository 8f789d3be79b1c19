"""ScoreSets built every way, on their own trial tables or on shared ones,
agree with a per-key oracle: membership, lookup, record order, alignment,
cascade and ensemble. A repeated trial is located alike by every
builder, by the score parser and by `sasvkit score`."""

import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sasvkit.cli import main
from sasvkit.core import LABELS, EmbeddingSet, ScoreSet, Trial
from sasvkit.errors import DuplicateTrial, TrialMismatch
from sasvkit.fileio import (
    parse_scores,
    parse_trials,
    write_embeddings_text,
    write_scores,
    write_trials,
)
from sasvkit.scoring import CascadeConfig, cascade, ensemble, score_trials

_IDS = ["a", "b", "c", "d", "e"]
_PAIRS = [(e, t) for e in _IDS for t in _IDS]
# one ID the trials never use, so a scored table's ID codes are not all
# the embedding rows
_EMBEDDINGS = EmbeddingSet.from_matrix(
    _IDS + ["unused"], np.random.default_rng(0).uniform(0.5, 1.5, (6, 3)).astype(np.float32))


def _columns(records):
    trials = [t for t, _ in records]
    return ([t.enroll_id for t in trials], [t.test_id for t in trials],
            [LABELS.index(t.label) for t in trials], [s for _, s in records])


def _appended(records, out=None):
    out = ScoreSet() if out is None else out
    for trial, score in records:
        out.append(trial, score)
    return out


def _parsed(records):
    buf = io.StringIO()
    write_scores(ScoreSet(records), buf)
    return parse_scores(io.StringIO(buf.getvalue()))


def _scored(records):
    return score_trials([t for t, _ in records], _EMBEDDINGS)


def _parsed_then_scored(records):
    buf = io.StringIO()
    write_trials([t for t, _ in records], buf)
    return score_trials(parse_trials(io.StringIO(buf.getvalue())), _EMBEDDINGS)


def _scored_then_appended(records):
    half = len(records) // 2
    return _appended(records[half:], _scored(records[:half]))


# each builds a set of the records' trials in their order; the scored
# ones hold cosines instead of the records' scores
_BUILDERS = {
    "records": ScoreSet,
    "columns": lambda records: ScoreSet.from_columns(*_columns(records)),
    "append": _appended,
    "parse": _parsed,
    "derived": lambda records: ScoreSet(records).with_scores([s for _, s in records]),
    "score_trials": _scored,
    "score_trials+append": _scored_then_appended,
    "parse_trials+score_trials": _parsed_then_scored,
}


@st.composite
def _two_sets(draw):
    """Records of a first set and of a second one over the same keys in
    another order, or with one key replaced, dropped or added."""
    keys = draw(st.lists(st.sampled_from(_PAIRS), unique=True, max_size=8))
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=len(keys), max_size=len(keys)))
    scores = st.floats(-3, 3, allow_nan=False)
    first = [(Trial(*k, label), draw(scores)) for k, label in zip(keys, labels)]
    second = [first[i] for i in draw(st.permutations(range(len(keys))))]
    spare = st.sampled_from([k for k in _PAIRS if k not in keys])
    change = draw(st.sampled_from(["none", "replace", "drop", "add"] if keys else ["none", "add"]))
    if change in ("replace", "drop"):
        del second[draw(st.integers(0, len(second) - 1))]
    if change in ("replace", "add"):
        at = draw(st.integers(0, len(second)))
        second.insert(at, (Trial(*draw(spare), draw(st.sampled_from(LABELS))), draw(scores)))
    names = st.sampled_from(sorted(_BUILDERS))
    builders = draw(st.tuples(names, names))
    return first, second, builders, draw(scores)


def _built(name, records):
    """The set `name` builds of `records`, checked against them, and its
    key -> score oracle."""
    out = _BUILDERS[name](records)
    assert out.keys() == [t[:2] for t, _ in records]
    assert [t for t, _ in out] == [t for t, _ in records]
    if "score_trials" not in name:
        assert out.scores().tolist() == [s for _, s in records]
    return out, dict(zip(out.keys(), out.scores().tolist()))


@settings(max_examples=300, deadline=None)
@given(_two_sets())
def test_sets_of_any_builder_align_as_a_per_key_oracle_does(case):
    first, second, (name_x, name_y), threshold = case
    (x, ox), (y, oy) = _built(name_x, first), _built(name_y, second)

    for s, oracle in ((x, ox), (y, oy)):
        for key in _PAIRS + [("z", "a"), ("a",), ("a", "b", "c"), "ab", None]:
            assert (key in s) == (key in oracle)
            if key in oracle:
                assert s.score_of(key) == oracle[key]
            else:
                with pytest.raises(KeyError):
                    s.score_of(key)

    same = ox.keys() == oy.keys()
    got = x.scores_in_order_of(y)
    assert got is None if not same else got.tolist() == [ox[k] for k in y.keys()]

    cfg = CascadeConfig(sd_threshold=threshold, reject_score=-7.5)
    if not same:
        with pytest.raises(TrialMismatch):
            cascade(y, x, cfg)
        with pytest.raises(TrialMismatch):
            ensemble([x, y], [1.0, 2.0])
        return
    out = cascade(y, x, cfg)
    assert [t for t, _ in out] == [t for t, _ in x]
    assert out.scores().tolist() == [-7.5 if oy[k] < threshold else ox[k] for k in x.keys()]
    out = ensemble([x, y], [1.0, 2.0])
    assert [t for t, _ in out] == [t for t, _ in x]
    assert out.scores().tolist() == [(0.0 + 1.0 * ox[k] + 2.0 * oy[k]) / 3.0 for k in x.keys()]


def test_a_new_id_leaves_the_vocabularies_of_other_sets_alone():
    scored = score_trials([Trial("a", "b")], _EMBEDDINGS)
    derived = scored.with_scores([0.5])
    scored.append(Trial("a", "new"), 1.0)
    assert "new" not in _EMBEDDINGS and len(_EMBEDDINGS) == 6
    assert ("a", "new") in scored and ("a", "new") not in derived
    derived.append(Trial("new", "a"), 2.0)
    assert scored.keys() == [("a", "b"), ("a", "new")]
    assert derived.keys() == [("a", "b"), ("new", "a")]
    assert scored.scores_in_order_of(derived) is None and ("new", "a") not in scored


@settings(max_examples=100, deadline=None)
@given(keys=st.lists(st.sampled_from(_PAIRS), unique=True, min_size=1, max_size=6),
       data=st.data())
def test_a_repeated_trial_is_located_alike_everywhere(tmp_path_factory, keys, data):
    repeat = data.draw(st.integers(0, len(keys) - 1))
    row = data.draw(st.integers(repeat + 1, len(keys)))
    trials = [Trial(*k) for k in keys]
    trials.insert(row, Trial(*keys[repeat], LABELS[0]))
    records = [(t, float(i)) for i, t in enumerate(trials)]
    message = f"duplicate trial {keys[repeat]}"

    for build in (ScoreSet, lambda r: ScoreSet.from_columns(*_columns(r)), _scored):
        with pytest.raises(DuplicateTrial, match=f"^{re.escape(message)}$") as info:
            build(records)
        assert info.value.row == row
    grown = _appended(records[:row])
    with pytest.raises(DuplicateTrial, match=f"^{re.escape(message)}$") as info:
        grown.append(*records[row])
    assert info.value.row == row and len(grown) == row

    # a comment and a blank line before every record: record i is on line 3i + 3
    text = "".join(f"# c\n\n{t.enroll_id} {t.test_id} {s!r}\n" for t, s in records)
    with pytest.raises(DuplicateTrial, match=f"^{re.escape(message)} \\(line {3 * row + 3}\\)$"):
        parse_scores(io.StringIO(text))

    work = tmp_path_factory.mktemp("score")
    write_embeddings_text(_EMBEDDINGS, str(work / "emb.txt"))
    buf = io.StringIO()
    write_trials(trials, buf)
    (work / "trials.txt").write_text("\n# c\n".join(buf.getvalue().splitlines()) + "\n")
    argv = ["score", "--trials", str(work / "trials.txt"), "--embeddings", str(work / "emb.txt"),
            "--out", str(work / "out.txt")]
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("sys.stderr", err)
        assert main(argv) == 2
    assert err.getvalue() == f"sasvkit: {message} (line {2 * row + 1})\n"
