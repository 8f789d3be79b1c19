import io
import re
import tracemalloc

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sasvkit.core import Embedding, EmbeddingSet, ScoreSet, Trial, TrialLabel, partition_scores
from sasvkit.errors import (
    BadWeights,
    DimensionMismatch,
    EmptyCohort,
    EmptyList,
    MissingEmbedding,
    TrialMismatch,
    UnlabeledTrial,
    ZeroNorm,
)
from sasvkit.fileio import parse_scores, parse_trials, write_scores, write_trials
from sasvkit.scoring import (
    AsNormConfig,
    CascadeConfig,
    CohortStats,
    as_norm,
    cascade,
    cohort_stats,
    cosine,
    ensemble,
    score_trials,
    top_k_cohort_scores,
)


def test_cosine_examples():
    assert cosine([3, 4], [3, 4]) == 1.0
    assert cosine([1, 0], [0, 1]) == 0.0
    assert abs(cosine([1, 2, 2], [2, 1, 2]) - 8 / 9) < 1e-15


def test_cosine_errors():
    with pytest.raises(DimensionMismatch):
        cosine([1, 0], [1, 0, 0])
    with pytest.raises(ZeroNorm):
        cosine([0, 0], [1, 0])


@pytest.mark.parametrize("a, b", [
    (3, 4),  # scalars: 0-D, not vectors
    ([[1.0, 0.0]], [[1.0, 0.0]]),
    ([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0]),
    ([1.0, 0.0], [[1.0], [0.0]]),
])
def test_cosine_takes_two_1d_vectors_of_one_length(a, b):
    with pytest.raises(DimensionMismatch, match="^shapes "):
        cosine(a, b)


def test_cosine_is_the_engines_raw_score_bit_for_bit():
    rng = np.random.default_rng(4)
    embs = _embset(rng.standard_normal((10, 7)), prefix="u")
    trials = [Trial(f"u{i}", f"u{j}") for i in range(10) for j in range(10)]
    out = score_trials(trials, embs)
    for t in trials:
        assert out.score_of(t.key) == cosine(embs[t.enroll_id].values, embs[t.test_id].values)


def test_cosine_scale_invariance():
    rng = np.random.default_rng(0)
    for _ in range(100):
        a = rng.standard_normal(5)
        b = rng.standard_normal(5)
        lam, mu = rng.uniform(0.01, 100, size=2)
        assert abs(cosine(a, b) - cosine(lam * a, mu * b)) < 1e-12


def _embset(vectors, prefix="c"):
    return EmbeddingSet(
        Embedding(f"{prefix}{i}", v) for i, v in enumerate(vectors)
    )


def test_top_k_selection_and_saturation():
    probe = Embedding("p", [1.0, 0.0])
    # cohort cosines 0.1, 0.5, 0.3 against the probe
    cohort = _embset(
        [
            [0.1, np.sqrt(1 - 0.01)],
            [0.5, np.sqrt(1 - 0.25)],
            [0.3, np.sqrt(1 - 0.09)],
        ]
    )
    top2 = top_k_cohort_scores(probe, cohort, 2)
    assert np.allclose(top2, [0.5, 0.3], atol=1e-6)
    assert len(top_k_cohort_scores(probe, cohort, 10)) == 3
    with pytest.raises(EmptyCohort):
        top_k_cohort_scores(probe, EmbeddingSet(), 2)
    for k in (0, 2.5, 2.0, float("nan")):
        with pytest.raises(ValueError, match="^top_k must be an integer >= 1$"):
            top_k_cohort_scores(probe, cohort, k)


def test_top_k_matches_sort_oracle():
    rng = np.random.default_rng(11)
    probe = Embedding("p", rng.standard_normal(6))
    cohort = _embset(rng.standard_normal((50, 6)))
    got = top_k_cohort_scores(probe, cohort, 5)
    all_scores = [cosine(probe.values, e.values) for e in cohort]
    assert got == sorted(all_scores, reverse=True)[:5]
    # multiset subset, sorted descending
    assert got == sorted(got, reverse=True)


def test_top_k_tie_break_by_insertion_order():
    probe = Embedding("p", [1.0, 0.0])
    cohort = _embset([[0.0, 1.0], [1.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    # scores [0, 1, 1, 0]; ties resolved toward earlier members
    got = top_k_cohort_scores(probe, cohort, 3)
    assert got == [1.0, 1.0, 0.0]


def test_cohort_stats_examples():
    st = cohort_stats([0.1, 0.3])
    assert abs(st.mu - 0.2) < 1e-15 and abs(st.sigma - 0.1) < 1e-15
    assert st.k_used == 2
    degenerate = cohort_stats([0.7, 0.7, 0.7])
    assert degenerate.sigma == 1e-8  # floor on a zero-variance cohort
    st2 = cohort_stats([-1.0, 1.0])
    assert st2.mu == 0.0 and st2.sigma == 1.0
    with pytest.raises(EmptyList):
        cohort_stats([])


@pytest.mark.parametrize("scores", [
    np.ones((2, 3)),
    [[0.1], [0.3]],
    0.5,
    [0.1, float("nan")],
    [0.1, float("inf")],
    [-float("inf"), 0.1],
])
def test_cohort_stats_takes_a_1d_list_of_finite_scores(scores):
    with pytest.raises(ValueError, match="^cohort scores must be a 1-D list of finite values$"):
        cohort_stats(scores)


def test_as_norm_hand_example():
    value = as_norm(0.5, cohort_stats([0.1, 0.3]), cohort_stats([0.0, 0.4]))
    assert abs(value - 2.25) < 1e-12


def test_as_norm_identity_and_symmetric_collapse():
    unit = cohort_stats([-1.0, 1.0])  # mu 0, sigma 1
    assert as_norm(0.5, unit, unit) == 0.5
    st = cohort_stats([0.2, 0.6])
    raw = 0.9
    assert abs(as_norm(raw, st, st) - (raw - st.mu) / st.sigma) < 1e-15


def test_as_norm_joint_affine_invariance():
    rng = np.random.default_rng(5)
    for _ in range(200):
        raw = rng.standard_normal()
        ce = list(rng.standard_normal(8))
        ct = list(rng.standard_normal(8))
        alpha = rng.uniform(0.1, 10)
        beta = rng.standard_normal()
        base = as_norm(raw, cohort_stats(ce), cohort_stats(ct))
        moved = as_norm(
            alpha * raw + beta,
            cohort_stats([alpha * v + beta for v in ce]),
            cohort_stats([alpha * v + beta for v in ct]),
        )
        assert abs(base - moved) < 1e-9


def test_score_trials_raw_cosine():
    embs = EmbeddingSet([Embedding("e1", [1, 2, 2]), Embedding("t1", [2, 1, 2])])
    out = score_trials([Trial("e1", "t1")], embs)
    assert abs(out.score_of(("e1", "t1")) - 8 / 9) < 1e-6


@pytest.mark.parametrize("trials", [
    [],
    [Trial("u0", "u1", TrialLabel.TARGET), Trial("u1", "u2"), Trial("u2", "u0", TrialLabel.SPOOF)],
], ids=["empty", "three"])
def test_trial_rows_from_a_list_or_a_one_shot_generator_agree(trials):
    embs = _embset([[1.0, 0.0], [0.6, 0.8], [0.0, 1.0]], prefix="u")
    results = []
    for rows in (lambda: trials, lambda: (t for t in trials)):
        scored = score_trials(rows(), embs)
        buf = io.StringIO()
        write_trials(rows(), buf)
        built = ScoreSet((t, 0.5) for t in rows())
        results.append((list(scored), buf.getvalue(), list(built)))
    assert results[0] == results[1]
    scored, text, built = results[0]
    assert [t for t, _ in scored] == [t for t, _ in built] == trials
    assert text.count("\n") == len(trials)


def test_score_trials_asnorm_matches_manual_composition():
    rng = np.random.default_rng(2)
    embs = _embset(rng.standard_normal((12, 4)), prefix="u")
    cohort = _embset(rng.standard_normal((20, 4)), prefix="coh")
    trials = [Trial(f"u{i}", f"u{i + 6}") for i in range(6)]
    cfg = AsNormConfig(top_k=7)
    out = score_trials(trials, embs, cohort, cfg)
    for t in trials:
        raw = cosine(embs[t.enroll_id].values, embs[t.test_id].values)
        se = cohort_stats(top_k_cohort_scores(embs[t.enroll_id], cohort, 7))
        st = cohort_stats(top_k_cohort_scores(embs[t.test_id], cohort, 7))
        assert out.score_of(t.key) == as_norm(raw, se, st)
        # and the formula itself, against a brute-force reference
        ref, _ = oracles.as_norm(embs[t.enroll_id].values, embs[t.test_id].values,
                                 cohort.matrix(), 7)
        assert abs(out.score_of(t.key) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_score_trials_missing_embedding():
    embs = EmbeddingSet([Embedding("e1", [1.0])])
    with pytest.raises(MissingEmbedding, match="spk9-utt3"):
        score_trials([Trial("e1", "spk9-utt3")], embs)


def test_score_trials_missing_id_checked_before_cohort():
    embs = _embset([[1.0, 0.0], [0.0, 1.0]], prefix="u")
    trials = [Trial("u0", "u1"), Trial("u0", "x2"), Trial("x1", "u1")]
    # the first missing ID in trial order, before any cohort error
    with pytest.raises(MissingEmbedding, match="'x2'"):
        score_trials(trials, embs, EmbeddingSet())


def test_missing_embedding_names_the_first_missing_id_in_trial_order():
    embs = _embset([[1.0, 0.0], [0.0, 1.0]], prefix="u")
    # line 1's test ID comes before line 2's enroll ID, enroll before test
    # within a line, whether the trials are a parsed table or a list
    text = "u0 x1\nx2 u1\n"
    for trials in (parse_trials(io.StringIO(text)), list(parse_trials(io.StringIO(text)))):
        with pytest.raises(MissingEmbedding, match="^no embedding for ID 'x1'$"):
            score_trials(trials, embs)
    with pytest.raises(MissingEmbedding, match="^no embedding for ID 'x2'$"):
        score_trials(parse_trials(io.StringIO("u0 u1\nx2 x1\n")), embs)


def test_a_parsed_table_scores_as_its_list_does():
    rng = np.random.default_rng(9)
    embs = _embset(rng.standard_normal((6, 3)), prefix="u")
    cohort = _embset(rng.standard_normal((9, 3)), prefix="coh")
    trials = [Trial(f"u{i % 6}", f"u{(i + 1 + i // 6) % 6}", list(TrialLabel)[i % 4])
              for i in range(12)]
    buf = io.StringIO()
    write_trials(trials, buf)
    table = parse_trials(io.StringIO(buf.getvalue()))
    for cohort_set in (None, cohort):
        got = score_trials(table, embs, cohort_set, AsNormConfig(top_k=4))
        want = score_trials(trials, embs, cohort_set, AsNormConfig(top_k=4))
        assert list(got) == list(want)
        assert got.scores().tobytes() == want.scores().tobytes()


def test_cohort_stats_must_be_finite_with_a_positive_sigma():
    with pytest.raises(ValueError, match="^sigma must be finite and > 0$"):
        as_norm(0.5, CohortStats(0.0, 0.0, 1), cohort_stats([0.1, 0.3]))
    for sigma in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^sigma must be finite and > 0$"):
            CohortStats(0.0, sigma, 1)
    for mu in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="^mu must be finite$"):
            CohortStats(mu, 1.0, 1)
    # what cohort_stats builds passes: a degenerate cohort's sigma is floored
    assert cohort_stats([0.7, 0.7]).sigma == 1e-8


def test_score_trials_empty_cohort():
    embs = _embset([[1.0, 0.0], [0.0, 1.0]], prefix="u")
    with pytest.raises(EmptyCohort):
        score_trials([Trial("u0", "u1")], embs, EmbeddingSet())
    assert len(score_trials([], embs, EmbeddingSet())) == 0


def test_score_trials_cohort_dimension_mismatch():
    embs = _embset([[1.0, 0.0], [0.0, 1.0]], prefix="u")
    cohort = _embset([[1.0, 0.0, 0.0]])
    with pytest.raises(DimensionMismatch):
        score_trials([Trial("u0", "u1")], embs, cohort)


def test_score_trials_sigma_floor():
    embs = _embset([[1.0, 0.0], [0.6, 0.8]], prefix="u")
    cohort = _embset([[1.0, 1.0], [1.0, 1.0]])
    cfg = AsNormConfig(top_k=2)
    got = score_trials([Trial("u0", "u1")], embs, cohort, cfg).score_of(("u0", "u1"))
    se = cohort_stats(top_k_cohort_scores(embs["u0"], cohort, 2))
    st_ = cohort_stats(top_k_cohort_scores(embs["u1"], cohort, 2))
    assert se.sigma == st_.sigma == 1e-8  # every cohort score of a side ties
    raw = cosine(embs["u0"].values, embs["u1"].values)
    ref = as_norm(raw, se, st_)
    assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


_GRID = st.integers(-3, 3)


@st.composite
def _asnorm_cases(draw):
    """Integer-valued embeddings, cohort, top_k and trials.

    Integer components make every dot product and squared norm exact, so
    any summation order gives the same bits and the comparison checks the
    engine's indexing, top-K selection and reduction rather than BLAS
    rounding. The cohort is empty, one vector repeated (every cohort
    score of a side ties, so sigma hits the floor) or arbitrary (ties
    are frequent on a grid this coarse).
    """
    dim = draw(st.integers(1, 4))
    vector = st.lists(_GRID, min_size=dim, max_size=dim).filter(any)
    embs = draw(st.lists(vector, min_size=1, max_size=6))
    kind = draw(st.sampled_from(["empty", "repeated", "arbitrary"]))
    if kind == "empty":
        cohort = []
    elif kind == "repeated":
        cohort = [draw(vector)] * draw(st.integers(1, 5))
    else:
        cohort = draw(st.lists(vector, min_size=1, max_size=8))
    index = st.integers(0, len(embs) - 1)
    pairs = draw(st.lists(st.tuples(index, index), unique=True, max_size=10))
    top_k = draw(st.integers(1, 10))
    return embs, cohort, pairs, top_k


@settings(max_examples=200, deadline=None)
@given(_asnorm_cases())
def test_score_trials_matches_per_side_composition(case):
    vectors, cohort_vectors, pairs, top_k = case
    embs = _embset(vectors, prefix="u")
    cohort = _embset(cohort_vectors)
    trials = [Trial(f"u{e}", f"u{t}") for e, t in pairs]
    cfg = AsNormConfig(top_k=top_k)
    if trials and not cohort_vectors:
        with pytest.raises(EmptyCohort):
            score_trials(trials, embs, cohort, cfg)
        return
    out = score_trials(trials, embs, cohort, cfg)
    assert out.keys() == [t.key for t in trials]
    for t in trials:
        raw = cosine(embs[t.enroll_id].values, embs[t.test_id].values)
        se = cohort_stats(top_k_cohort_scores(embs[t.enroll_id], cohort, top_k))
        st_ = cohort_stats(top_k_cohort_scores(embs[t.test_id], cohort, top_k))
        ref = as_norm(raw, se, st_)
        assert abs(out.score_of(t.key) - ref) <= 1e-12 * max(1.0, abs(ref))
        assert abs(score_trials([t], embs).score_of(t.key) - raw) <= 1e-12
        # the brute-force reference rounds its unit rows differently, an
        # error of a few ulps in each cosine that a side's std magnifies
        brute, sigma = oracles.as_norm(embs[t.enroll_id].values, embs[t.test_id].values,
                                       cohort.matrix(), top_k)
        assert abs(out.score_of(t.key) - brute) <= 1e-12 * max(1.0, abs(brute)) + 1e-14 / sigma


def _scoreset(pairs_scores, label=TrialLabel.UNLABELED):
    s = ScoreSet()
    for (e, t), v in pairs_scores:
        s.append(Trial(e, t, label), v)
    return s


@pytest.mark.parametrize("kwargs, message", [
    ({"top_k": 2.5}, "top_k must be an integer >= 1"),
    ({"top_k": 3.0}, "top_k must be an integer >= 1"),
    ({"top_k": 0}, "top_k must be an integer >= 1"),
    ({"top_k": True}, "top_k must be an integer >= 1"),
])
def test_as_norm_config_rejects_bad_values(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        AsNormConfig(**kwargs)


def test_as_norm_config_takes_a_numpy_integer_top_k():
    assert AsNormConfig(top_k=np.int64(5)).top_k == 5


def test_cascade_config_rejects_a_nan_threshold_and_keeps_infinite_ones():
    with pytest.raises(ValueError, match="sd_threshold must not be NaN"):
        CascadeConfig(sd_threshold=float("nan"))
    for threshold in (float("inf"), -float("inf")):
        assert CascadeConfig(sd_threshold=threshold).sd_threshold == threshold
    for reject in (float("inf"), -float("inf"), float("nan")):
        with pytest.raises(ValueError, match="^reject_score must be finite$"):
            CascadeConfig(sd_threshold=0.0, reject_score=reject)


def test_cascade_examples():
    cfg = CascadeConfig(sd_threshold=0.5)
    asv = _scoreset([(("e", "t"), 2.25)])
    assert cascade(_scoreset([(("e", "t"), 0.1)]), asv, cfg).score_of(("e", "t")) == -5.0
    assert cascade(_scoreset([(("e", "t"), 0.9)]), asv, cfg).score_of(("e", "t")) == 2.25
    # boundary: equality counts as bona fide
    assert cascade(_scoreset([(("e", "t"), 0.5)]), asv, cfg).score_of(("e", "t")) == 2.25


def test_cascade_trial_mismatch():
    cfg = CascadeConfig(sd_threshold=0.0)
    with pytest.raises(TrialMismatch):
        cascade(_scoreset([(("a", "b"), 1.0)]), _scoreset([(("a", "c"), 1.0)]), cfg)


def test_cascade_reject_set_property():
    rng = np.random.default_rng(9)
    cfg = CascadeConfig(sd_threshold=0.3, reject_score=-5.0)
    keys = [(f"e{i}", f"t{i}") for i in range(40)]
    sd = _scoreset([(k, float(rng.standard_normal())) for k in keys])
    asv = _scoreset([(k, float(rng.standard_normal() + 10)) for k in keys])
    out = cascade(sd, asv, cfg)
    for k in keys:
        if sd.score_of(k) < 0.3:
            assert out.score_of(k) == -5.0
        else:
            assert out.score_of(k) == asv.score_of(k)


def test_ensemble_examples():
    s1 = _scoreset([(("e", "t"), 1.0)])
    assert ensemble([s1]).score_of(("e", "t")) == 1.0
    s3 = _scoreset([(("e", "t"), 3.0)])
    assert ensemble([s1, s3]).score_of(("e", "t")) == 2.0
    s0 = _scoreset([(("e", "t"), 0.0)])
    s4 = _scoreset([(("e", "t"), 4.0)])
    assert ensemble([s0, s4], weights=[1, 3]).score_of(("e", "t")) == 3.0


def test_ensemble_permutation_invariance():
    rng = np.random.default_rng(1)
    keys = [(f"e{i}", f"t{i}") for i in range(10)]
    sets = [_scoreset([(k, float(rng.standard_normal())) for k in keys]) for _ in range(3)]
    weights = [1.0, 2.0, 3.0]
    a = ensemble(sets, weights)
    b = ensemble([sets[2], sets[0], sets[1]], [weights[2], weights[0], weights[1]])
    for k in keys:
        assert abs(a.score_of(k) - b.score_of(k)) < 1e-12


def test_ensemble_errors():
    s1 = _scoreset([(("e", "t"), 1.0)])
    with pytest.raises(BadWeights):
        ensemble([s1], weights=[1.0, 2.0])
    with pytest.raises(BadWeights):
        ensemble([s1], weights=[0.0])
    with pytest.raises(TrialMismatch):
        ensemble([s1, _scoreset([(("x", "y"), 1.0)])])
    with pytest.raises(ValueError):
        ensemble([])


def test_ensemble_non_finite_weights():
    s1 = _scoreset([(("e", "t"), 1.0)])
    for weights in ([float("nan"), 1.0], [1.0, float("inf")], [float("-inf"), 1.0]):
        with pytest.raises(BadWeights, match="weights must be finite"):
            ensemble([s1, s1], weights=weights)


def test_ensemble_negative_weight_with_positive_sum():
    s1 = _scoreset([(("e", "t"), 1.0)])
    s3 = _scoreset([(("e", "t"), 3.0)])
    assert ensemble([s1, s3], weights=[-1.0, 2.0]).score_of(("e", "t")) == 5.0
    with pytest.raises(BadWeights, match="positive"):
        ensemble([s1, s3], weights=[-2.0, 1.0])


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


_LABELS = list(TrialLabel)
# a few repeated values, so ties and a threshold equal to a score occur
_SCORE = st.one_of(st.sampled_from([-1.5, -0.0, 0.0, 0.25]),
                   st.floats(-1e6, 1e6, allow_nan=False))


@st.composite
def _aligned_sets(draw):
    """Two score sets over the same keys, the second in a random order,
    with the drawn keys and labels of the first."""
    ids = st.sampled_from(["a", "b", "c", "d"])
    keys = draw(st.lists(st.tuples(ids, ids), unique=True, max_size=10))
    n = len(keys)

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    labels, other_labels = column(st.sampled_from(_LABELS)), column(st.sampled_from(_LABELS))
    first, second = column(_SCORE), column(_SCORE)
    perm = draw(st.permutations(range(n)))
    a = ScoreSet.from_columns([e for e, _ in keys], [t for _, t in keys],
                              [_LABELS.index(label) for label in labels], first)
    b = ScoreSet((Trial(*keys[i], other_labels[i]), second[i]) for i in perm)
    threshold = draw(st.sampled_from(second) if n and draw(st.booleans()) else _SCORE)
    weights = draw(st.tuples(st.floats(-4, 4), st.floats(-4, 4)).filter(lambda w: sum(w) >= 0.25))
    return keys, labels, a, b, threshold, weights


def _round_trip(scores):
    buf = io.StringIO()
    write_scores(scores, buf)
    parsed = parse_scores(io.StringIO(buf.getvalue()))
    assert parsed.keys() == scores.keys()
    assert [t for t, _ in parsed] == [t for t, _ in scores]
    assert _bits(parsed.scores()) == _bits(scores.scores())


@settings(max_examples=200, deadline=None)
@given(_aligned_sets())
def test_columnar_ops_match_per_key_composition(case):
    keys, labels, a, b, threshold, weights = case
    assert a.keys() == keys and [t.label for t, _ in a] == labels

    cfg = CascadeConfig(sd_threshold=threshold, reject_score=-7.5)
    out = cascade(b, a, cfg)
    ref = [-7.5 if b.score_of(k) < threshold else a.score_of(k) for k in keys]
    assert out.keys() == keys and [t.label for t, _ in out] == labels
    assert _bits(out.scores()) == _bits(ref)
    _round_trip(out)

    w1, w2 = weights
    for x, y in ((a, b), (b, a)):
        out = ensemble([x, y], [w1, w2])
        ref = [(0.0 + w1 * x.score_of(k) + w2 * y.score_of(k)) / (w1 + w2) for k in x.keys()]
        assert out.keys() == x.keys()
        assert [t for t, _ in out] == [t for t, _ in x]
        assert _bits(out.scores()) == _bits(ref)
        _round_trip(out)

    if TrialLabel.UNLABELED in labels:
        first = keys[labels.index(TrialLabel.UNLABELED)]
        with pytest.raises(UnlabeledTrial, match=re.escape(str(first))):
            partition_scores(a)
    else:
        for label, got in zip(_LABELS, partition_scores(a)):
            ref = [a.score_of(k) for k, lab in zip(keys, labels) if lab is label]
            assert _bits(got) == _bits(ref)

    if keys:
        # one key replaced (same length), and one key missing
        replaced = ScoreSet((Trial(*k), 1.0) for k in keys[1:] + [("z", "z")])
        for other in (replaced, ScoreSet((Trial(*k), 1.0) for k in keys[1:])):
            with pytest.raises(TrialMismatch):
                cascade(other, a, cfg)
            with pytest.raises(TrialMismatch):
                ensemble([a, other])


def test_raw_scoring_allocates_less_than_a_float64_copy_of_the_embeddings():
    rng = np.random.default_rng(0)
    n, d = 2000, 192
    embs = EmbeddingSet.from_matrix([f"u{i}" for i in range(n)],
                                    rng.standard_normal((n, d)).astype(np.float32))
    ids = embs.ids()
    trials = [Trial(ids[p // n], ids[p % n], TrialLabel.TARGET)
              for p in rng.choice(n * n, 20000, replace=False).tolist()]
    # norms and cosines a chunk of rows at a time, and a set of int64
    # keys: about 2.4 MB in all; a float64 copy of the matrix for the
    # norms and a key dict took about 7 MB
    tracemalloc.start()
    try:
        scores = score_trials(trials, embs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(scores) == len(trials)
    assert peak < n * d * 8


def test_scoring_a_parsed_table_keeps_at_most_18_bytes_a_record_beyond_it():
    rng = np.random.default_rng(4)
    n = 2000
    embs = EmbeddingSet.from_matrix([f"u{i}" for i in range(n)],
                                    rng.standard_normal((n, 4)).astype(np.float32))
    ids = embs.ids()
    buf = io.StringIO()
    write_trials([Trial(ids[p // n], ids[p % n], TrialLabel.TARGET)
                  for p in rng.choice(n * n, 20000, replace=False).tolist()], buf)
    table = parse_trials(io.StringIO(buf.getvalue()))
    # the set shares the table and adds the keys' order and the scores,
    # 16 bytes a record; a second key or label column would add 8 or 1
    tracemalloc.start()
    try:
        scores = score_trials(table, embs)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(scores) == len(table) == 20000
    assert retained <= 18 * len(table)
