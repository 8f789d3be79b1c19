import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.special import expit, log_softmax, logsumexp, softmax

import oracles
from oracles import chain_pair_grads_per_pair
from sasvkit.errors import InvalidBatch, ValueOutOfRange
from sasvkit.losses import (
    CircleConfig,
    LossBatch,
    PairSet,
    SphereFaceConfig,
    _log_softmax,
    circle_alphas,
    circle_loss,
    combined_loss,
    grad_check,
    mine_pairs,
    sphereface_loss,
)


def _random_batch(rng, B=4, C=3, D=8):
    return LossBatch(
        rng.standard_normal((B, D)),
        rng.standard_normal((C, D)),
        rng.integers(0, C, size=B),
    )


def test_config_validation():
    with pytest.raises(ValueError):
        SphereFaceConfig(scale_s=0)
    with pytest.raises(ValueError):
        SphereFaceConfig(margin_m=0.5)
    with pytest.raises(ValueError):
        CircleConfig(margin=1.0)
    with pytest.raises(ValueError):
        CircleConfig(weight=-0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_config_validation_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        SphereFaceConfig(scale_s=bad)
    with pytest.raises(ValueError):
        SphereFaceConfig(margin_m=bad)
    with pytest.raises(ValueError):
        CircleConfig(gamma=bad)
    with pytest.raises(ValueError):
        CircleConfig(weight=bad)


def test_loss_batch_validation():
    with pytest.raises(InvalidBatch):
        LossBatch(np.ones((2, 3)), np.ones((1, 3)), [0, 0])  # C < 2
    with pytest.raises(InvalidBatch):
        LossBatch(np.ones((2, 3)), np.ones((3, 4)), [0, 0])  # dim mismatch
    with pytest.raises(InvalidBatch):
        LossBatch(np.ones((2, 3)), np.ones((3, 3)), [0, 5])  # label range
    bad = np.ones((2, 3))
    bad[0, 0] = np.nan
    with pytest.raises(InvalidBatch):
        LossBatch(bad, np.ones((3, 3)), [0, 0])


@pytest.mark.parametrize("rows, labels, message", [
    (np.eye(3), [0, 0, 1, 1], "labels must be a length-B vector"),
    (np.eye(3), [0, 0], "labels must be a length-B vector"),
    (np.eye(3), [[0], [0], [1]], "labels must be a length-B vector"),
    (np.ones(3), [0, 0, 1], "embeddings must be a BxD matrix with B >= 1"),
    (np.ones((0, 3)), [], "embeddings must be a BxD matrix with B >= 1"),
    ([[1.0, np.inf], [0.0, 1.0], [1.0, 1.0]], [0, 0, 1], "non-finite values in batch"),
])
def test_mine_pairs_and_loss_batch_check_rows_and_labels_alike(rows, labels, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidBatch, match=f"^{message}$"):
            mine_pairs(rows, labels)
        with pytest.raises(InvalidBatch, match=f"^{message}$"):
            LossBatch(rows, np.ones((3, 3)), labels)


def test_sphereface_orthogonal_example():
    # target at angle ~0, other class orthogonal: loss ~ exp(-s)
    batch = LossBatch([[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]], [0])
    cfg = SphereFaceConfig()  # s=30, m=1.5
    loss, _, _ = sphereface_loss(batch, cfg)
    # independent scalar evaluation of the same clamped expression
    theta_t = math.acos(1.0 - 1e-7)  # the clamp's eps
    z_t = cfg.scale_s * math.cos(cfg.margin_m * theta_t)
    expected = math.log(1.0 + math.exp(0.0 - z_t))
    assert math.isclose(loss, expected, rel_tol=1e-9)
    assert abs(loss - 9.36e-14) < 1e-14


def test_sphereface_m1_equals_cross_entropy():
    rng = np.random.default_rng(17)
    for _ in range(10):
        batch = _random_batch(rng, B=6, C=4, D=8)
        loss, _, _ = sphereface_loss(batch, SphereFaceConfig(margin_m=1.0))
        Xh = batch.embeddings / np.linalg.norm(batch.embeddings, axis=1, keepdims=True)
        Wh = batch.class_weights / np.linalg.norm(
            batch.class_weights, axis=1, keepdims=True
        )
        logits = 30.0 * np.clip(Xh @ Wh.T, -1 + 1e-7, 1 - 1e-7)
        rows = np.arange(6)
        ce = float(-np.mean(log_softmax(logits, axis=1)[rows, batch.labels]))
        assert abs(loss - ce) < 1e-12


def test_sphereface_gradients_match_finite_differences():
    rng = np.random.default_rng(23)
    cfg = SphereFaceConfig()
    for _ in range(10):
        batch = _random_batch(rng)
        W, y = batch.class_weights, batch.labels

        def f_x(x):
            loss, g, _ = sphereface_loss(LossBatch(x, W, y), cfg)
            return loss, g

        def f_w(w):
            loss, _, g = sphereface_loss(LossBatch(batch.embeddings, w, y), cfg)
            return loss, g

        assert grad_check(f_x, batch.embeddings).passed
        assert grad_check(f_w, W).passed


def test_sphereface_nonnegative_and_scaling_invariant():
    rng = np.random.default_rng(31)
    for _ in range(20):
        batch = _random_batch(rng)
        loss, _, _ = sphereface_loss(batch)
        assert loss >= 0.0
        row_x = rng.uniform(0.1, 10, size=(batch.size, 1))
        row_w = rng.uniform(0.1, 10, size=(batch.n_classes, 1))
        scaled = LossBatch(
            batch.embeddings * row_x, batch.class_weights * row_w, batch.labels
        )
        loss2, _, _ = sphereface_loss(scaled)
        assert abs(loss - loss2) < 1e-9


def test_sphereface_decreasing_target_angle_never_hurts():
    cfg = SphereFaceConfig()
    m = cfg.margin_m
    thetas = np.linspace(0.01, math.pi / m - 0.01, 30)
    losses = []
    for theta in thetas:
        x = [math.cos(theta), math.sin(theta)]
        batch = LossBatch([x], [[1.0, 0.0], [-1.0, 0.0]], [0])
        losses.append(sphereface_loss(batch, cfg)[0])
    # per-sample loss non-decreasing in the target angle on [0, pi/m]
    assert all(b >= a - 1e-12 for a, b in zip(losses, losses[1:]))


def test_mine_pairs_counts():
    emb = np.eye(3)
    pairs = mine_pairs(emb, [0, 0, 1])
    assert len(pairs.s_p) == 1 and len(pairs.s_n) == 2
    pairs_same = mine_pairs(emb, [7, 7, 7])
    assert len(pairs_same.s_n) == 0
    # PK batch with P=3, K=2
    rng = np.random.default_rng(0)
    labels = [0, 0, 1, 1, 2, 2]
    pk = mine_pairs(rng.standard_normal((6, 4)), labels)
    assert len(pk.s_p) == 3 * (2 * 1) // 2  # P * K(K-1)/2
    assert len(pk.s_n) == 2 * 2 * (3 * 2) // 2  # K^2 * P(P-1)/2


def test_mine_pairs_order_is_row_major():
    emb = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    pairs = mine_pairs(emb, [0, 0, 0])
    # (0,1), (0,2), (1,2)
    assert np.allclose(pairs.s_p, [1.0, 0.0, 0.0])
    assert pairs.pos_pairs.tolist() == [[0, 1], [0, 2], [1, 2]]


def test_circle_loss_examples():
    assert circle_loss(PairSet([0.5, 0.1], []))[0] == 0.0
    assert circle_loss(PairSet([], [0.2]))[0] == 0.0
    cfg = CircleConfig(gamma=1.0, margin=0.25)
    loss, _, _ = circle_loss(PairSet([0.75], [0.25]), cfg)
    assert abs(loss - math.log(2.0)) < 1e-12
    with pytest.raises(ValueOutOfRange):
        circle_loss(PairSet([1.5], [0.0]))


def test_circle_loss_positive_iff_both_sides():
    rng = np.random.default_rng(41)
    for _ in range(20):
        sp = rng.uniform(-1, 1, size=rng.integers(1, 6))
        sn = rng.uniform(-1, 1, size=rng.integers(1, 6))
        loss, _, _ = circle_loss(PairSet(sp, sn))
        assert loss > 0.0


def test_circle_loss_gradient_signs():
    rng = np.random.default_rng(43)
    for _ in range(20):
        sp = rng.uniform(-0.9, 0.9, size=4)
        sn = rng.uniform(-0.9, 0.9, size=5)
        _, gp, gn = circle_loss(PairSet(sp, sn))
        assert np.all(gp <= 0.0)  # non-increasing in each s_p
        assert np.all(gn >= 0.0)  # non-decreasing in each s_n


def test_circle_loss_finite_differences_frozen_alpha():
    rng = np.random.default_rng(47)
    cfg = CircleConfig()
    for _ in range(10):
        sp = rng.uniform(-0.7, 0.9, size=4)
        sn = rng.uniform(-0.9, 0.7, size=6)
        frozen = circle_alphas(PairSet(sp, sn), cfg)

        def f(v):
            loss, gp, gn = circle_loss(PairSet(v[:4], v[4:]), cfg, alphas=frozen)
            return loss, np.concatenate([gp, gn])

        assert grad_check(f, np.concatenate([sp, sn])).passed


def test_combined_loss_collapses():
    rng = np.random.default_rng(51)
    batch = _random_batch(rng)
    base = sphereface_loss(batch)
    zero_weight = combined_loss(batch, cc=CircleConfig(weight=0.0))
    assert zero_weight[0] == base[0]
    assert np.array_equal(zero_weight[1], base[1])
    assert np.array_equal(zero_weight[2], base[2])
    # one sample per class: no positive pairs, circle term annihilates
    single = LossBatch(
        rng.standard_normal((3, 8)), rng.standard_normal((3, 8)), [0, 1, 2]
    )
    assert combined_loss(single)[0] == sphereface_loss(single)[0]


def test_combined_loss_finite_differences():
    rng = np.random.default_rng(53)
    sf = SphereFaceConfig()
    cc = CircleConfig()
    for _ in range(10):
        batch = _random_batch(rng, B=6, C=3, D=8)
        W, y = batch.class_weights, batch.labels
        frozen = circle_alphas(mine_pairs(batch.embeddings, y), cc)

        def f(x):
            loss, g, _ = combined_loss(LossBatch(x, W, y), sf, cc, frozen_alphas=frozen)
            return loss, g

        assert grad_check(f, batch.embeddings).passed


def test_grad_check_quadratic():
    report = grad_check(lambda x: (float(x @ x), 2 * x), np.array([3.0]))
    assert report.passed and report.max_rel_error < 1e-8


def test_grad_check_report_line():
    # a linear f and a step that is a power of two: the differences are exact
    report = grad_check(lambda x: (2.0 * float(x.sum()), np.full_like(x, 2.0)),
                        np.array([[3.0, 1.0], [0.5, -2.0]]), step=0.5)
    assert str(report) == "grad_check PASS: max_rel_error=0.000e+00 checked=4 step=0.5 tol=0.0001"


@pytest.mark.parametrize("name, bad", [(n, v) for n in ("step", "tol")
                                        for v in (0.0, -1e-5, math.nan, math.inf, -math.inf)])
def test_grad_check_rejects_a_bad_step_or_tolerance(name, bad):
    def f(x):
        raise AssertionError("f evaluated")

    with pytest.raises(ValueError, match=f"^{name} must be finite and > 0$"):
        grad_check(f, np.array([3.0]), **{name: bad})


@st.composite
def _pair_batches(draw):
    """A loss batch plus configs covering the pair-chain edge cases.

    Labels are mixed, all equal (no negative pairs) or all distinct (no
    positive pairs); B goes down to 2; some rows repeat another row's
    direction at another norm, so their pair cosine is exactly 1; the
    self-paced weights are live or frozen away from their live values.
    """
    B = draw(st.integers(2, 10))
    D = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((B, D))
    row = st.integers(0, B - 1)
    for dst, src in draw(st.lists(st.tuples(row, row), max_size=3)):
        X[dst] = draw(st.sampled_from([1.0, 2.5])) * X[src]
    kind = draw(st.sampled_from(["mixed", "same", "distinct"]))
    if kind == "mixed":
        y = rng.integers(0, draw(st.integers(2, 3)), size=B)
    elif kind == "same":
        y = np.zeros(B, dtype=np.int64)
    else:
        y = np.arange(B)
    batch = LossBatch(X, rng.standard_normal((B + 1, D)), y)
    cc = CircleConfig(gamma=draw(st.sampled_from([1.0, 10.0, 80.0])),
                      weight=draw(st.sampled_from([0.2, 1.0])))
    frozen = None
    if draw(st.booleans()):
        a_p, a_n = circle_alphas(mine_pairs(X, y), cc)
        frozen = (a_p * rng.uniform(0.5, 1.5, a_p.size),
                  a_n * rng.uniform(0.5, 1.5, a_n.size))
    return batch, cc, frozen


@settings(max_examples=300, deadline=None)
@given(_pair_batches())
def test_combined_loss_dense_backprop_matches_per_pair_chain(case):
    batch, cc, frozen = case
    sf = SphereFaceConfig()
    _, got, _ = combined_loss(batch, sf, cc, frozen_alphas=frozen)
    _, ref, _ = sphereface_loss(batch, sf)
    pairs = mine_pairs(batch.embeddings, batch.labels)
    c_loss, gp, gn = circle_loss(pairs, cc, alphas=frozen)
    if c_loss != 0.0:
        chain_pair_grads_per_pair(ref, cc.weight * gp, pairs.pos_pairs, batch.embeddings)
        chain_pair_grads_per_pair(ref, cc.weight * gn, pairs.neg_pairs, batch.embeddings)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


# logits over +-1e3 with frequent exact ties
_LOGIT = st.one_of(st.sampled_from([-1e3, -1.0, 0.0, 1.0, 1e3]),
                   st.floats(-1e3, 1e3))


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=8),
              elements=_LOGIT))
def test_log_softmax_matches_scipy(z):
    got = _log_softmax(z, axis=1)
    ref = log_softmax(z, axis=1)
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
    p = softmax(z, axis=1)
    assert np.all(np.abs(np.exp(got) - p) <= 1e-12 * p + 1e-300)


def _circle_loss_scipy(pairs, cfg, alphas):
    # the pairwise loss written with scipy.special, as an oracle
    sp, sn = pairs.s_p, pairs.s_n
    a_p, a_n = alphas
    logit_p = -cfg.gamma * a_p * (sp - (1 - cfg.margin))
    logit_n = cfg.gamma * a_n * (sn - cfg.margin)
    t = logsumexp(logit_p) + logsumexp(logit_n)
    sig = expit(t)
    return (float(np.logaddexp(0.0, t)),
            sig * softmax(logit_p) * (-cfg.gamma * a_p),
            sig * softmax(logit_n) * (cfg.gamma * a_n))


_SIM = st.one_of(st.sampled_from([-1.0, -0.25, 0.0, 0.75, 1.0]),
                 st.floats(-1.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(st.lists(_SIM, min_size=1, max_size=8), st.lists(_SIM, min_size=1, max_size=8),
       st.sampled_from([1.0, 80.0, 256.0]))
def test_circle_loss_matches_scipy(sp, sn, gamma):
    # with gamma=256 the logits span about +-1e3
    cfg = CircleConfig(gamma=gamma)
    pairs = PairSet(sp, sn)
    alphas = circle_alphas(pairs, cfg)
    got = circle_loss(pairs, cfg, alphas=alphas)
    ref = _circle_loss_scipy(pairs, cfg, alphas)
    assert abs(got[0] - ref[0]) <= 1e-12 * max(1.0, abs(ref[0]))
    for g, r in zip(got[1:], ref[1:]):
        assert np.all(np.abs(g - r) <= 1e-12 * np.abs(r) + 1e-300)


@pytest.mark.parametrize("f", [
    lambda x: (float(x @ x), np.full_like(x, np.nan)),  # NaN derivative
    lambda x: (math.nan, 2 * x),  # NaN loss
    lambda x: (float(x @ x), np.full_like(x, np.inf)),  # infinite derivative
])
def test_grad_check_fails_a_nan_relative_error(f):
    report = grad_check(f, np.ones(3))
    assert not report.passed
    assert [k for k, *_ in report.failures] == [0, 1, 2]
    assert math.isnan(report.max_rel_error)
    assert str(report).startswith("grad_check FAIL: max_rel_error=nan ")


@pytest.mark.parametrize("rows, message", [
    ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], "zero-norm row cannot be normalized"),
    ([[1.0, 0.0], [np.nan, 0.0], [0.0, 1.0]], "non-finite values in batch"),
    ([[1.0, 0.0], [1.0, 0.0], [0.0, -np.inf]], "non-finite values in batch"),
])
def test_mine_pairs_rejects_rows_it_cannot_normalize(rows, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidBatch, match=f"^{message}$"):
            mine_pairs(rows, [0, 0, 1])


@pytest.mark.parametrize("sp, sn", [([math.nan], [0.2]), ([0.2], [math.nan]),
                                    ([math.nan], [])])
def test_circle_loss_rejects_a_nan_similarity(sp, sn):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueOutOfRange, match="outside"):
            circle_loss(PairSet(sp, sn))


@st.composite
def _reference_batches(draw):
    """A loss batch with B from 1 to 12, labels mixed, all equal or all
    distinct, some rows repeating another row's direction at another
    norm, a pair weight of 0 among others, and live or perturbed frozen
    self-paced weights."""
    B = draw(st.integers(1, 12))
    D = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((B, D))
    row = st.integers(0, B - 1)
    for dst, src in draw(st.lists(st.tuples(row, row), max_size=3)):
        X[dst] = draw(st.sampled_from([0.5, 3.0])) * X[src]
    kind = draw(st.sampled_from(["mixed", "same", "distinct"]))
    y = {"mixed": rng.integers(0, 3, size=B), "same": np.zeros(B, dtype=np.int64),
         "distinct": np.arange(B)}[kind]
    batch = LossBatch(X, rng.standard_normal((max(B, 3), D)), y)
    cc = CircleConfig(gamma=draw(st.sampled_from([1.0, 80.0])),
                      weight=draw(st.sampled_from([0.0, 0.2, 1.0])))
    frozen = None
    if B >= 2 and draw(st.booleans()):
        a_p, a_n = circle_alphas(oracles.mine_pairs_by_index(X, y), cc)
        frozen = (a_p * rng.uniform(0.5, 1.5, a_p.size), a_n * rng.uniform(0.5, 1.5, a_n.size))
    return batch, cc, frozen


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None)
@given(_reference_batches())
def test_mine_pairs_matches_the_index_pair_reference(case):
    batch, _, _ = case
    X, y = batch.embeddings, batch.labels
    if batch.size < 2:
        for mine in (mine_pairs, oracles.mine_pairs_by_index):
            with pytest.raises(InvalidBatch, match="at least 2 rows"):
                mine(X, y)
        return
    got, want = mine_pairs(X, y), oracles.mine_pairs_by_index(X, y)
    for name in ("s_p", "s_n", "pos_pairs", "neg_pairs"):
        assert _same_bits(getattr(got, name), getattr(want, name)), name


@settings(max_examples=300, deadline=None)
@given(_reference_batches())
def test_combined_loss_matches_the_index_scatter_reference(case):
    batch, cc, frozen = case
    sf = SphereFaceConfig()
    got = combined_loss(batch, sf, cc, frozen_alphas=frozen)
    want = oracles.combined_loss_by_index(batch, sf, cc, frozen_alphas=frozen)
    assert got[0] == want[0]
    assert _same_bits(got[1], want[1]) and _same_bits(got[2], want[2])
