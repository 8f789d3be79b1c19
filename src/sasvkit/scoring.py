"""Cosine scoring, top-K AS-Norm, spoof-detector cascade, and ensembling.

The trial score pipeline is: cosine similarity between enrollment and
test embeddings, optionally normalized with adaptive symmetric score
normalization (AS-Norm) against an imposter cohort:

    s_norm = 0.5 * ((s - mu_e) / sigma_e + (s - mu_t) / sigma_t)

where the mean/std on each side come from the top-K cohort similarities
of that side's embedding. A spoof-detector cascade then replaces the
score of any trial whose detector score falls below a threshold with a
fixed reject score.

`score_trials` is a batched array engine. It maps every trial side to
its row of the embedding matrix, computes raw cosines as row-wise dot
products a chunk of trials at a time (`_pair_cosines`, which
`sampler.eval_toy` shares), and computes the cohort statistics once per
distinct side: one GEMM of a block of sides against the whole cohort,
`np.partition` for the top K of each row, and the mean and std of
those K values sorted in descending order, so that the summation order,
and the result, do not depend on how ties were ordered. AS-Norm is then
one vectorized expression over all trials.
`cosine`, `top_k_cohort_scores`, `cohort_stats` and `as_norm` are the
N = 1 case of those kernels: one pair, one probe, one side. Only the
top-K cosines may differ, by a few ulps, because BLAS may sum the dot
products of one probe in another order than those of a block of probes.

All functions are pure; scores are float64 throughout.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import ScoreSet, TrialTable, _is_k
from .errors import (
    BadWeights,
    DimensionMismatch,
    EmptyCohort,
    EmptyList,
    MissingEmbedding,
    TrialMismatch,
    ZeroNorm,
)

DEFAULT_TOP_K = 300
DEFAULT_REJECT_SCORE = -5.0

# bound the float64 temporaries of score_trials: matrix rows per norm
# and trial pairs per raw-cosine gather, and trial sides per cohort GEMM block
_TRIAL_CHUNK = 512
_SIDE_BLOCK = 64
# floor of a cohort std, so AS-Norm's division is defined for degenerate cohorts
_MIN_SIGMA = 1e-8


@dataclass(frozen=True)
class CohortStats:
    """Mean/std of the selected cohort scores for one trial side."""

    mu: float
    sigma: float
    k_used: int

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise ValueError("mu must be finite")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("sigma must be finite and > 0")
        if self.k_used < 1:
            raise ValueError("k_used must be >= 1")


@dataclass(frozen=True)
class AsNormConfig:
    top_k: int = DEFAULT_TOP_K

    def __post_init__(self):
        if not _is_k(self.top_k):
            raise ValueError("top_k must be an integer >= 1")


@dataclass(frozen=True)
class CascadeConfig:
    sd_threshold: float
    reject_score: float = DEFAULT_REJECT_SCORE

    def __post_init__(self):
        if math.isnan(self.sd_threshold):
            raise ValueError("sd_threshold must not be NaN")
        if not np.isfinite(self.reject_score):
            raise ValueError("reject_score must be finite")


def cosine(a, b):
    """Cosine similarity of two 1-D vectors of one length, clamped to [-1, 1]."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise DimensionMismatch(f"shapes {a.shape} vs {b.shape}")
    mat = np.stack((a, b))
    return float(_pair_cosines(mat, np.linalg.norm(mat, axis=1), [0], [1])[0])


def top_k_cohort_scores(probe, cohort, top_k):
    """The min(top_k, |cohort|) largest cosine scores, descending.

    The selected values, and so their order, do not depend on how ties
    are broken.
    """
    values = np.asarray(probe.values, dtype=np.float64)[None, :]
    top_k = AsNormConfig(top_k).top_k
    _, top = next(_top_k_blocks(values, np.linalg.norm(values, axis=1), cohort, top_k))
    return top[0].tolist()


def _top_k_blocks(probes, probe_norms, cohort, top_k):
    """Yield (block, top) for each block of `probes` rows: a slice and
    the min(top_k, |cohort|) largest cohort cosines of those rows,
    descending."""
    if len(cohort) == 0:
        raise EmptyCohort("cohort set is empty")
    if cohort.dim != probes.shape[1]:
        raise DimensionMismatch(f"probe dimension {probes.shape[1]} "
                                f"vs cohort dimension {cohort.dim}")
    coh = cohort.matrix().astype(np.float64)
    coh_norms = np.linalg.norm(coh, axis=1)
    n = coh.shape[0]
    k = min(top_k, n)
    for lo in range(0, probes.shape[0], _SIDE_BLOCK):
        block = slice(lo, lo + _SIDE_BLOCK)
        sims = probes[block].astype(np.float64) @ coh.T
        sims /= probe_norms[block, None] * coh_norms
        np.clip(sims, -1.0, 1.0, out=sims)
        sims.partition(n - k, axis=1)
        yield block, np.ascontiguousarray(np.sort(sims[:, n - k :], axis=1)[:, ::-1])


def cohort_stats(scores):
    """Mean and population (1/N) standard deviation of a 1-D list of
    finite cohort scores, sigma floored at 1e-8."""
    arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim != 1 or not np.isfinite(arr).all():
        raise ValueError("cohort scores must be a 1-D list of finite values")
    if len(arr) == 0:
        raise EmptyList("cohort score list is empty")
    mu, sigma = _side_stats(arr[None, :])
    return CohortStats(mu=float(mu[0]), sigma=float(sigma[0]), k_used=len(arr))


def _side_stats(top):
    """Mean and population std, floored at _MIN_SIGMA, of each row of `top`."""
    return top.mean(axis=1), np.maximum(top.std(axis=1), _MIN_SIGMA)


def as_norm(raw, enroll_stats, test_stats):
    """Symmetric adaptive score normalization of one raw score."""
    return _as_norm(raw, enroll_stats.mu, enroll_stats.sigma, test_stats.mu, test_stats.sigma)


def _as_norm(raw, mu_e, sigma_e, mu_t, sigma_t):
    return 0.5 * ((raw - mu_e) / sigma_e + (raw - mu_t) / sigma_t)


def score_trials(trials, embeddings, cohort=None, cfg=AsNormConfig()):
    """Score trials by cosine, with AS-Norm when a cohort is given.

    `trials` is a TrialTable, which the result shares, or any iterable
    of Trials, coded as one. Enroll-side and test-side top-K statistics are computed
    independently against the same cohort set, once per distinct side.
    All IDs are checked before any scoring; MissingEmbedding names the
    first missing one in trial order.
    """
    table = trials if isinstance(trials, TrialTable) else TrialTable(trials)
    try:  # the table's IDs in order of first appearance: the first missing one in trial order
        id_rows = embeddings.rows(table._ids)
    except KeyError as e:
        raise MissingEmbedding(f"no embedding for ID {e.args[0]!r}") from None
    if not len(table):
        return ScoreSet._of_table(table, [])
    mat, norms = embeddings.matrix(), np.empty(len(embeddings))
    for lo in range(0, len(mat), _TRIAL_CHUNK):  # rows reduce alone: chunks change no bit
        chunk = slice(lo, lo + _TRIAL_CHUNK)
        norms[chunk] = np.linalg.norm(mat[chunk].astype(np.float64), axis=1)
    scores = _pair_cosines(mat, norms, *table._sides(id_rows))
    if cohort is not None:
        # the distinct sides are the rows of the table's IDs, in row order
        sides, inverse = np.unique(id_rows, return_inverse=True)
        mu, sigma = np.empty(len(sides)), np.empty(len(sides))
        for block, top in _top_k_blocks(mat[sides], norms[sides], cohort, cfg.top_k):
            mu[block], sigma[block] = _side_stats(top)
        ie, it = table._sides(inverse)
        scores = _as_norm(scores, mu[ie], sigma[ie], mu[it], sigma[it])
    return ScoreSet._of_table(table, scores)


def _pair_cosines(mat, norms, enroll, test):
    """Cosines, clamped to [-1, 1], of rows enroll[i] and test[i] of `mat`
    given its float64 row norms, a chunk of pairs at a time; ZeroNorm if
    a pair holds a zero-norm row."""
    scores = np.empty(len(enroll))
    for lo in range(0, len(enroll), _TRIAL_CHUNK):
        e, t = enroll[lo : lo + _TRIAL_CHUNK], test[lo : lo + _TRIAL_CHUNK]
        ne, nt = norms[e], norms[t]
        if not (ne.all() and nt.all()):
            raise ZeroNorm("cosine undefined for zero-norm vector")
        pairs = mat[e].astype(np.float64)
        pairs *= mat[t]  # in place: one float64 temporary a chunk
        dots = pairs.sum(axis=1)
        scores[lo : lo + _TRIAL_CHUNK] = dots / (ne * nt)
    return np.clip(scores, -1.0, 1.0, out=scores)


def _mismatch(a, b):
    ka, kb = set(a.keys()), set(b.keys())
    only_a = sorted(ka - kb)
    only_b = sorted(kb - ka)
    return TrialMismatch(
        f"trial sets differ; only in first: {only_a[:5]}, only in second: {only_b[:5]}"
    )


def cascade(sd_scores, asv_scores, cfg):
    """Tandem decision: reject (fixed score) when the detector fires.

    A trial whose spoof-detector score is strictly below cfg.sd_threshold
    gets cfg.reject_score; otherwise it keeps its ASV score. Equality
    counts as bona fide. Output order (and labels) follow asv_scores.
    """
    sd = sd_scores.scores_in_order_of(asv_scores)
    if sd is None:
        raise _mismatch(sd_scores, asv_scores)
    return asv_scores.with_scores(
        np.where(sd < cfg.sd_threshold, cfg.reject_score, asv_scores.scores())
    )


def ensemble(sets, weights=None):
    """Per-trial weighted arithmetic mean of several score sets.

    All sets must cover the same (enroll, test) pairs; the output keeps
    the trial order (and labels) of the first set. Default weights are
    equal. Weights must be finite and sum to a positive value; an
    individual weight may be negative, as learned linear score fusion
    can give.
    """
    if len(sets) == 0:
        raise ValueError("ensemble needs at least one score set")
    if weights is None:
        weights = [1.0] * len(sets)
    if len(weights) != len(sets):
        raise BadWeights(f"{len(weights)} weights for {len(sets)} score sets")
    if not all(math.isfinite(w) for w in weights):
        raise BadWeights(f"weights must be finite, got {list(weights)}")
    total = float(sum(weights))
    if total <= 0:
        raise BadWeights("weights must sum to a positive value")
    first = sets[0]
    value = 0.0
    for w, s in zip(weights, sets):
        scores = s.scores_in_order_of(first)
        if scores is None:
            raise _mismatch(first, s)
        value = value + w * scores
    return first.with_scores(value / total)
