"""Margin-loss kernels with hand-derived gradients.

Two losses are implemented:

* a multiplicative angular-margin softmax: the target logit is
  s*cos(m*theta) with theta the angle between the (normalized) embedding
  and its class weight, non-target logits are s*cos(theta); the loss is
  the mean negative log-softmax probability of the true class.

* a pairwise similarity loss over within-batch positive/negative cosine
  pairs:

      L = log(1 + sum_p exp(-g*a_p*(s_p - d_p)) * sum_n exp(g*a_n*(s_n - d_n)))

  with self-paced weights a_p = max(0, 1 + m - s_p) and
  a_n = max(0, s_n + m), offsets d_p = 1 - m, d_n = m. The weights a_*
  are treated as constants during differentiation (the original
  convention), which also makes the finite-difference oracle
  well-defined.

Rows are normalized once, when a `LossBatch` is built; both losses read
those unit rows. Within-batch pairs come from one kernel: the clipped
BxB cosine matrix and boolean masks of the i < j same-label and
different-label pairs, read row-major. `mine_pairs` and the pair-gradient
chain of `combined_loss` share it.

Gradients are exact derivatives of the computation actually performed,
including normalization of the raw inputs and the arccos clamp (a
clamped coordinate contributes zero gradient). The kernels are numpy
only, with no autodiff framework; all are checked by finite differences.

A kernel writes only to arrays it allocated itself, GEMM outputs and
shifted copies reused in place for its next passes: never to its inputs,
a batch's unit rows or a PairSet's arrays.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidBatch, ValueOutOfRange

_COS_CLAMP_EPS = 1e-7  # cosines are clamped to [-1+eps, 1-eps] before arccos


@dataclass(frozen=True)
class SphereFaceConfig:
    scale_s: float = 30.0
    margin_m: float = 1.5

    def __post_init__(self):
        if not (self.scale_s > 0 and math.isfinite(self.scale_s)):
            raise ValueError("scale_s must be finite and > 0")
        if not (self.margin_m >= 1 and math.isfinite(self.margin_m)):
            raise ValueError("margin_m must be finite and >= 1")


@dataclass(frozen=True)
class CircleConfig:
    gamma: float = 80.0
    margin: float = 0.25
    weight: float = 0.2

    def __post_init__(self):
        if not (self.gamma > 0 and math.isfinite(self.gamma)):
            raise ValueError("gamma must be finite and > 0")
        if not 0 < self.margin < 1:
            raise ValueError("margin must be in (0, 1)")
        if not (self.weight >= 0 and math.isfinite(self.weight)):
            raise ValueError("weight must be finite and >= 0")

    # the self-paced weights' optima: a_p = max(0, o_p - s_p), a_n = max(0, s_n - o_n)
    @property
    def o_p(self):
        return 1.0 + self.margin

    @property
    def o_n(self):
        return -self.margin


class LossBatch:
    """Embeddings, class weights, and labels for one loss evaluation.

    Rows of both matrices are unit-normalized here, once, and the losses
    read those unit rows; callers pass raw values and receive gradients
    w.r.t. those raw values. A batch holds its arrays as they were at
    construction: `np.asarray` keeps a float64 input without a copy, so
    a caller that changes that array in place afterwards builds a new
    batch.
    """

    def __init__(self, embeddings, class_weights, labels):
        X, y = _batch_rows(embeddings, np.asarray(labels, dtype=np.int64))
        W = np.asarray(class_weights, dtype=np.float64)
        if W.ndim != 2 or W.shape[0] < 2:
            raise InvalidBatch("class_weights must be a CxD matrix with C >= 2")
        if X.shape[1] != W.shape[1]:
            raise InvalidBatch(
                f"embedding dim {X.shape[1]} vs class weight dim {W.shape[1]}"
            )
        if not np.all(np.isfinite(W)):
            raise InvalidBatch("non-finite values in batch")
        if np.any(y < 0) or np.any(y >= W.shape[0]):
            raise InvalidBatch("label outside [0, C)")
        # (X_hat, ||x||, W_hat, ||w||)
        self._unit = _unit_rows(X) + _unit_rows(W)
        self.embeddings = X
        self.class_weights = W
        self.labels = y

    @property
    def size(self):
        return self.embeddings.shape[0]

    @property
    def n_classes(self):
        return self.class_weights.shape[0]


@dataclass
class PairSet:
    """Within-batch positive/negative pair cosine similarities.

    pos_pairs / neg_pairs hold the (i, j) row indices each similarity
    came from; they are None when the set was built directly from
    similarity values.
    """

    s_p: np.ndarray
    s_n: np.ndarray
    pos_pairs: np.ndarray = None
    neg_pairs: np.ndarray = None

    def __post_init__(self):
        self.s_p = np.asarray(self.s_p, dtype=np.float64)
        self.s_n = np.asarray(self.s_n, dtype=np.float64)


def _batch_rows(embeddings, labels):
    """(X, y): the embeddings as a finite float64 BxD matrix with B >= 1
    and the labels as a length-B vector, or InvalidBatch."""
    X = np.asarray(embeddings, dtype=np.float64)
    y = np.asarray(labels)
    if X.ndim != 2 or X.shape[0] < 1:
        raise InvalidBatch("embeddings must be a BxD matrix with B >= 1")
    if y.shape != (X.shape[0],):
        raise InvalidBatch("labels must be a length-B vector")
    if not np.all(np.isfinite(X)):
        raise InvalidBatch("non-finite values in batch")
    return X, y


def _unit_rows(M):
    # np.linalg.norm(M, axis=1)'s own passes, without its dispatch
    norms = np.sqrt(np.add.reduce(M * M, axis=1))
    if np.any(norms == 0):
        raise InvalidBatch("zero-norm row cannot be normalized")
    return M / norms[:, None], norms


@functools.lru_cache(maxsize=8)
def _upper(B):
    """The read-only B x B mask of the pairs i < j."""
    upper = np.triu(np.ones((B, B), dtype=bool), 1)
    upper.flags.writeable = False
    return upper


def _pair_masks(Xh, y):
    """Clipped cosine matrix of the unit rows Xh, and the masks of the
    pairs i < j with the same label and with different labels.

    Boolean indexing reads row-major, so sims[pos] lists the pairs
    (0,1), (0,2), ..., (1,2), ... in that order.
    """
    upper = _upper(len(y))
    same = y[:, None] == y
    neg = upper > same  # upper & ~same
    same &= upper
    sims = Xh @ Xh.T
    return np.clip(sims, -1.0, 1.0, out=sims), same, neg


def _log_softmax(z, axis=-1):
    # max-shifted, so exp never overflows; z itself is never written to
    out = z - np.max(z, axis=axis, keepdims=True)
    out -= np.log(np.sum(np.exp(out), axis=axis, keepdims=True))
    return out


def _backprop_row_normalization(G_hat, M_hat, norms):
    # d(x/||x||)/dx applied to upstream gradient G_hat, in place in G_hat:
    # (G_hat - <G_hat, x_hat> x_hat) / ||x||
    tmp = G_hat * M_hat
    G_hat -= np.multiply(np.sum(tmp, axis=1, keepdims=True), M_hat, out=tmp)
    G_hat /= norms[:, None]
    return G_hat


def sphereface_loss(batch, cfg=SphereFaceConfig()):
    """Angular-margin softmax loss, mean over the batch.

    Returns (loss, grad_embeddings, grad_weights) with gradients taken
    w.r.t. the raw (un-normalized) inputs. Cosines are clamped to
    [-1+eps, 1-eps] before arccos and the clamp is part of the
    differentiated graph.
    """
    Xh, xn, Wh, wn = batch._unit
    y, B = batch.labels, batch.size
    s, m, eps = cfg.scale_s, cfg.margin_m, _COS_CLAMP_EPS

    logits = Xh @ Wh.T
    active = (logits > -1.0 + eps) & (logits < 1.0 - eps)
    np.clip(logits, -1.0 + eps, 1.0 - eps, out=logits)

    rows = np.arange(B)
    cy = logits[rows, y]
    theta = np.arccos(cy)
    logits *= s
    logits[rows, y] = s * np.cos(m * theta)
    dtarget_dc = s * m * np.sin(m * theta) / np.sqrt(1.0 - cy * cy)

    log_p = _log_softmax(logits, axis=1)
    loss = float(-np.mean(log_p[rows, y]))

    dC = np.exp(log_p, out=log_p)  # dZ, then dC in place
    dC[rows, y] -= 1.0
    dC /= B
    target = dC[rows, y] * dtarget_dc
    dC *= s
    dC[rows, y] = target
    dC *= active

    grad_X = _backprop_row_normalization(dC @ Wh, Xh, xn)
    grad_W = _backprop_row_normalization(dC.T @ Xh, Wh, wn)
    return loss, grad_X, grad_W


def mine_pairs(embeddings, labels):
    """Cosine similarities of all unordered within-batch pairs.

    Pairs are enumerated row-major: (0,1), (0,2), ..., (1,2), ... so the
    order is deterministic. Same-label pairs go to s_p, different-label
    pairs to s_n. The rows must form a BxD matrix with B >= 2 and be
    finite and non-zero, with one label each (InvalidBatch).
    """
    X, y = _batch_rows(embeddings, labels)
    if X.shape[0] < 2:
        raise InvalidBatch("pair mining needs at least 2 rows")
    sims, pos, neg = _pair_masks(_unit_rows(X)[0], y)
    return PairSet(sims[pos], sims[neg], np.argwhere(pos), np.argwhere(neg))


def circle_alphas(pairs, cfg=CircleConfig()):
    """The self-paced weights at the given similarities (for freezing)."""
    a_p = cfg.o_p - pairs.s_p
    a_n = pairs.s_n - cfg.o_n
    return np.maximum(0.0, a_p, out=a_p), np.maximum(0.0, a_n, out=a_n)


def circle_loss(pairs, cfg=CircleConfig(), alphas=None):
    """Pairwise similarity loss with detached self-paced weights.

    Returns (loss, grad_s_p, grad_s_n). If either pair list is empty the
    product inside the log vanishes and the loss is exactly 0. `alphas`
    overrides the (a_p, a_n) weights, which the finite-difference oracle
    uses to keep them frozen at the base point.
    """
    sp, sn = pairs.s_p, pairs.s_n
    # written so that NaN fails too
    if not (np.all(np.abs(sp) <= 1.0) and np.all(np.abs(sn) <= 1.0)):
        raise ValueOutOfRange("pair similarity outside [-1, 1]")
    if sp.size == 0 or sn.size == 0:
        return 0.0, np.zeros_like(sp), np.zeros_like(sn)

    g = cfg.gamma
    a_p, a_n = circle_alphas(pairs, cfg) if alphas is None else alphas

    logit_p = -g * a_p * (sp - (1.0 - cfg.margin))
    logit_n = g * a_n * (sn - cfg.margin)
    log_p, log_n = _log_softmax(logit_p), _log_softmax(logit_n)
    # logsumexp(z) = z - log_softmax(z), read at the max where it is exact
    t = (np.max(logit_p) - np.max(log_p)) + (np.max(logit_n) - np.max(log_n))
    loss = float(np.logaddexp(0.0, t))  # log(1 + e^t), stable

    sig = np.exp(t - loss)  # sigmoid(t)
    grad_sp = sig * np.exp(log_p, out=log_p) * (-g * a_p)
    grad_sn = sig * np.exp(log_n, out=log_n) * (g * a_n)
    return loss, grad_sp, grad_sn


def combined_loss(batch, sf=SphereFaceConfig(), cc=CircleConfig(), frozen_alphas=None):
    """Angular-margin loss plus weighted pairwise loss over mined pairs.

    Gradients of the pairwise term are chained through the within-batch
    pair mining back to the raw embeddings: with G the BxB matrix of
    pair gradients (G[i, j] = dL/ds_ij), dL/dX_hat = (G + G.T) @ X_hat.
    With cc.weight == 0, or no positive or no negative pair, the pairwise
    term adds exact zeros and the result equals sphereface_loss.
    """
    sf_loss, grad_X, grad_W = sphereface_loss(batch, sf)
    Xh, xn = batch._unit[:2]
    sims, pos, neg = _pair_masks(Xh, batch.labels)
    c_loss, grad_sp, grad_sn = circle_loss(PairSet(sims[pos], sims[neg]), cc,
                                           alphas=frozen_alphas)
    total = sf_loss + cc.weight * c_loss
    G = np.zeros_like(sims)
    G[pos] = np.multiply(cc.weight, grad_sp, out=grad_sp)
    G[neg] = np.multiply(cc.weight, grad_sn, out=grad_sn)
    grad_X += _backprop_row_normalization(np.add(G, G.T, out=sims) @ Xh, Xh, xn)
    return total, grad_X, grad_W


@dataclass
class GradCheckReport:
    """Outcome of a central finite-difference gradient comparison."""

    passed: bool
    max_rel_error: float
    n_checked: int
    step: float
    tol: float
    failures: list = field(default_factory=list)

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return (
            f"grad_check {status}: max_rel_error={self.max_rel_error:.3e} "
            f"checked={self.n_checked} step={self.step:g} tol={self.tol:g}"
        )


def grad_check(f, point, step=1e-5, tol=1e-4):
    """Compare an analytic gradient with central finite differences at every coordinate.

    `f(x)` must return (scalar_value, gradient) with the gradient shaped
    like x. The relative error per coordinate is
    |a - n| / max(1, |a|, |n|). A NaN error (from a NaN or infinite a or
    n) fails the coordinate and makes max_rel_error NaN. Raises
    ValueError unless `step` and `tol` are finite and > 0.
    """
    for name, value in (("step", step), ("tol", tol)):
        # written so that NaN fails too
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"{name} must be finite and > 0")
    point = np.asarray(point, dtype=np.float64)
    _, analytic = f(point)
    analytic = np.asarray(analytic, dtype=np.float64)
    if analytic.shape != point.shape:
        raise ValueError("gradient shape does not match point shape")
    flat = point.ravel()

    def f_at(k, delta):
        x = flat.copy()
        x[k] += delta
        return f(x.reshape(point.shape))[0]

    coords = np.arange(flat.size)
    numeric = np.array([(f_at(k, step) - f_at(k, -step)) / (2.0 * step) for k in coords])
    a = analytic.ravel()
    with np.errstate(invalid="ignore"):  # an infinite a or n gives rel NaN
        rel = np.abs(a - numeric) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(numeric)))
    bad = ~(rel <= tol)  # NaN fails
    return GradCheckReport(
        passed=not bad.any(),
        max_rel_error=float(np.max(rel, initial=0.0)),
        n_checked=flat.size,
        step=step,
        tol=tol,
        failures=list(zip(*(v[bad].tolist() for v in (coords, a, numeric, rel)))),
    )
