import numpy as np
import pytest

from sasvkit.core import (
    Embedding,
    EmbeddingSet,
    ScoreSet,
    Trial,
    TrialLabel,
    partition_scores,
)
from sasvkit.errors import (
    DimensionMismatch,
    DuplicateId,
    DuplicateTrial,
    UnlabeledTrial,
)


def test_embedding_basics():
    e = Embedding("utt1", [1.0, 2.0])
    assert e.dim == 2
    assert e.values.dtype == np.float32


def test_embedding_rejects_empty_id_and_zero_vector():
    with pytest.raises(ValueError):
        Embedding("", [1.0])
    with pytest.raises(ValueError):
        Embedding("z", [0.0, 0.0])


def test_embedding_rejects_nan_fuzz():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = int(rng.integers(1, 10))
        v = rng.standard_normal(d)
        v[rng.integers(d)] = np.nan
        with pytest.raises(ValueError):
            Embedding("x", v)
    with pytest.raises(ValueError):
        Embedding("x", [1.0, np.inf])


def test_a_value_beyond_float32_is_non_finite_without_a_warning():
    # a RuntimeWarning fails the suite, so this also checks none leaks
    with pytest.raises(ValueError, match="'x' has non-finite components"):
        Embedding("x", [1e39, 1.0])
    with pytest.raises(ValueError, match="'b' has non-finite components") as info:
        EmbeddingSet.from_matrix(["a", "b"], np.array([[1.0, 1.0], [1.0, -1e39]]))
    assert info.value.row == 1


def test_embedding_values_immutable():
    e = Embedding("a", [1.0, 2.0])
    with pytest.raises(ValueError):
        e.values[0] = 5.0


def test_embedding_set_invariants():
    s = EmbeddingSet([Embedding("a", [1, 0]), Embedding("b", [0, 1])])
    assert len(s) == 2 and s.dim == 2
    assert s["a"].id == "a"
    with pytest.raises(DuplicateId):
        s.add(Embedding("a", [1, 1]))
    with pytest.raises(DimensionMismatch):
        s.add(Embedding("c", [1, 2, 3]))


def test_ids_are_opaque():
    # slashes and dots carry no path semantics
    s = EmbeddingSet([Embedding("dir/a.wav", [1.0])])
    assert "dir/a.wav" in s
    assert "a.wav" not in s


def test_trial_requires_ids():
    with pytest.raises(ValueError):
        Trial("", "t")
    with pytest.raises(ValueError):
        Trial("e", "")
    for token in ("target", None):  # a label must be a TrialLabel, not its token
        with pytest.raises(ValueError, match=f"not {token!r}"):
            Trial("e", "t", token)


def test_self_trials_allowed():
    t = Trial("u1", "u1", TrialLabel.TARGET)
    assert t.key == ("u1", "u1")


def test_trial_is_a_named_tuple_of_its_fields():
    t = Trial("e", "t")
    assert t == ("e", "t", TrialLabel.UNLABELED) and hash(t) == hash(tuple(t))
    assert t.label is TrialLabel.UNLABELED and repr(t) == "Trial('e', 't', unlabeled)"
    assert type(t._replace(label=TrialLabel.SPOOF)) is Trial
    with pytest.raises(AttributeError):
        t.enroll_id = "x"


def test_score_set_rejects_duplicates_and_nonfinite():
    s = ScoreSet()
    s.append(Trial("e", "t"), 0.5)
    with pytest.raises(DuplicateTrial):
        s.append(Trial("e", "t", TrialLabel.TARGET), 0.9)
    with pytest.raises(ValueError):
        s.append(Trial("e", "t2"), float("nan"))


def test_from_columns_reports_the_first_offending_record():
    nan, unlabeled = float("nan"), 3
    with pytest.raises(ValueError, match=r"non-finite score for trial \('e', 't2'\)") as info:
        ScoreSet.from_columns(["e"] * 3, ["t", "t2", "t"], [unlabeled] * 3, [0.0, nan, 1.0])
    assert info.value.row == 1
    with pytest.raises(DuplicateTrial, match=r"^duplicate trial \('e', 't'\)$") as info:
        ScoreSet.from_columns(["e"] * 3, ["t", "t", "t2"], [unlabeled] * 3, [0.0, 1.0, nan])
    assert info.value.row == 1
    # a repeated record with a non-finite score fails on the score, as in append
    with pytest.raises(ValueError, match="non-finite"):
        ScoreSet.from_columns(["e", "e"], ["t", "t"], [unlabeled] * 2, [0.0, nan])
    with pytest.raises(ValueError, match="differ in length"):
        ScoreSet.from_columns(["e"], ["t"], [unlabeled], [0.0, 1.0])
    with pytest.raises(ValueError, match="non-empty"):
        ScoreSet.from_columns([""], ["t"], [unlabeled], [0.0])
    # a code is an integer in 0..3: not a bool, a float or a string
    for code in (-1, 4, 300, 1.5, True, "1"):
        with pytest.raises(ValueError, match="^unknown label code$"):
            ScoreSet.from_columns(["e"], ["t"], [code], [0.0])
    s = ScoreSet.from_columns(["e", "e"], ["t", "t2"], [0, 3], [0.5, -1.0])
    assert list(s) == [(Trial("e", "t", TrialLabel.TARGET), 0.5), (Trial("e", "t2"), -1.0)]
    for scores in ([1.0], [1.0, 2.0, 3.0]):
        with pytest.raises(ValueError, match="^score set columns differ in length$"):
            s.with_scores(scores)


@pytest.mark.parametrize("labels", [[0, True], [np.int64(0), np.True_]])
def test_from_columns_rejects_a_bool_among_the_codes(labels):
    # np.asarray would read either list as the int codes 0 and 1
    with pytest.raises(ValueError, match="^unknown label code$"):
        ScoreSet.from_columns(["e", "f"], ["t", "t"], labels, [0.0, 0.0])


def test_derived_set_shares_keys_until_either_appends():
    src = ScoreSet([(Trial("e", "t", TrialLabel.TARGET), 1.0)])
    derived = src.with_scores([2.0])
    assert derived.scores_in_order_of(src).tolist() == [2.0]
    derived.append(Trial("e", "t2"), 3.0)
    src.append(Trial("e", "t3", TrialLabel.SPOOF), 4.0)
    assert src.keys() == [("e", "t"), ("e", "t3")]
    assert derived.keys() == [("e", "t"), ("e", "t2")]
    assert src.scores().tolist() == [1.0, 4.0]
    assert derived.scores().tolist() == [2.0, 3.0]
    assert [t.label for t, _ in derived] == [TrialLabel.TARGET, TrialLabel.UNLABELED]
    assert ("e", "t3") not in derived and derived.scores_in_order_of(src) is None
    src.scores()[0] = 9.0  # a copy
    assert src.score_of(("e", "t")) == 1.0


def test_partition_scores_examples():
    s = ScoreSet(
        [
            (Trial("e1", "t1", TrialLabel.TARGET), 0.9),
            (Trial("e2", "t2", TrialLabel.SPOOF), -5.0),
        ]
    )
    assert partition_scores(s) == ([0.9], [], [-5.0])
    assert partition_scores(ScoreSet()) == ([], [], [])


def test_partition_scores_unlabeled():
    s = ScoreSet([(Trial("e", "t"), 0.1)])
    with pytest.raises(UnlabeledTrial):
        partition_scores(s)


def test_partition_is_a_bijection_on_records():
    rng = np.random.default_rng(3)
    labels = [TrialLabel.TARGET, TrialLabel.NONTARGET, TrialLabel.SPOOF]
    s = ScoreSet()
    for i in range(60):
        s.append(
            Trial(f"e{i}", f"t{i}", labels[rng.integers(3)]),
            float(rng.standard_normal()),
        )
    tar, non, spf = partition_scores(s)
    assert len(tar) + len(non) + len(spf) == len(s)
    assert sorted(tar + non + spf) == sorted(v for _, v in s)


def _score_set_state(s):
    return len(s), s.keys(), s.scores().tolist(), list(s)


def _embedding_set_state(s):
    return (len(s), s.ids(), s.dim, s.matrix().tobytes(),
            [(e.id, e.values.tobytes()) for e in s])


def test_rejected_append_and_add_leave_the_set_unchanged():
    src = ScoreSet([(Trial("e", "t", TrialLabel.TARGET), 1.0), (Trial("e", "t2"), 2.0)])
    for s in (src, src.with_scores([3.0, 4.0])):
        before = _score_set_state(s)
        with pytest.raises(DuplicateTrial):
            s.append(Trial("e", "t", TrialLabel.SPOOF), 5.0)
        assert _score_set_state(s) == before
        with pytest.raises(ValueError, match="non-finite"):
            s.append(Trial("e", "t3"), float("nan"))
        assert _score_set_state(s) == before
    assert src.scores().tolist() == [1.0, 2.0]

    embs = EmbeddingSet([Embedding("a", [1, 0]), Embedding("b", [0, 1])])
    before = _embedding_set_state(embs)
    with pytest.raises(DuplicateId):
        embs.add(Embedding("a", [1, 1]))
    assert _embedding_set_state(embs) == before
    with pytest.raises(DimensionMismatch):
        embs.add(Embedding("c", [1, 2, 3]))
    assert _embedding_set_state(embs) == before
    assert "c" not in embs


def test_embedding_set_construction_checks_members_in_order():
    a, b2, b3 = Embedding("a", [1, 0]), Embedding("b", [0, 1]), Embedding("b", [1, 2, 3])
    # the first offending member decides, as when adding one by one
    with pytest.raises(DuplicateId):
        EmbeddingSet([a, b2, b2, b3])
    with pytest.raises(DimensionMismatch, match=r"'b' has dimension 3, set has 2"):
        EmbeddingSet([a, b3, b2])
    s = EmbeddingSet([a, b2])
    assert s.ids() == ["a", "b"] and s.matrix().tolist() == [[1, 0], [0, 1]]
    assert not s.matrix().flags.writeable and s["b"].values.tolist() == [0, 1]


def test_from_matrix_validates_its_shape():
    with pytest.raises(ValueError, match="N x D"):
        EmbeddingSet.from_matrix(["a", "b"], [[1.0, 2.0]])
    with pytest.raises(ValueError, match="N x D"):
        EmbeddingSet.from_matrix(["a"], [1.0, 2.0])
    with pytest.raises(DimensionMismatch, match="D >= 1"):
        EmbeddingSet.from_matrix(["a"], np.empty((1, 0)))
    empty = EmbeddingSet.from_matrix([], np.empty((0, 3)))
    assert len(empty) == 0 and empty.dim is None
