"""Detection metrics over labeled score sets: EER variants and a-DCF.

Decision rule is fixed globally: accept iff score >= threshold. All
sweeps evaluate every distinct observed score plus -inf and +inf as
candidate thresholds, which covers every achievable operating point, so
results are exact rather than interpolated.

Rates at threshold tau:
    P_miss(tau)  = fraction of positive (target) scores < tau
    P_fa(tau)    = fraction of negative scores >= tau

EER picks the candidate minimizing |P_miss - P_fa| (ties: lower tau) and
reports (P_miss + P_fa) / 2 there. The a-DCF is

    a-DCF(tau) = c_miss * pi_tar * P_miss(tau)
               + c_fa_non * pi_non * P_fa_non(tau)
               + c_fa_spf * pi_spf * P_fa_spf(tau)

minimized over the same candidate sweep; the normalized value divides by
the cost of the better of the two dummy systems (accept-all /
reject-all).
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import partition_scores
from .errors import EmptyClass


@dataclass(frozen=True)
class ADcfConfig:
    """Costs and priors of the a-DCF.

    The defaults follow the a-DCF cost model used by SASV challenge
    protocols (c_miss=1, c_fa=10 for both false-accept types, priors
    0.9405 / 0.0095 / 0.05); they are printed alongside every result so
    reported numbers are auditable.
    """

    c_miss: float = 1.0
    c_fa_nontarget: float = 10.0
    c_fa_spoof: float = 10.0
    pi_target: float = 0.9405
    pi_nontarget: float = 0.0095
    pi_spoof: float = 0.05

    def __post_init__(self):
        # written so that NaN fails too
        for name in ("c_miss", "c_fa_nontarget", "c_fa_spoof"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and > 0")
        priors = (self.pi_target, self.pi_nontarget, self.pi_spoof)
        if not all(p > 0 and math.isfinite(p) for p in priors):
            raise ValueError("priors must be finite and positive")
        if abs(sum(priors) - 1.0) > 1e-9:
            raise ValueError("priors must sum to 1")

    def dummy_cost(self):
        """Cost of the better of accept-all and reject-all."""
        reject_all = self.c_miss * self.pi_target
        accept_all = (
            self.c_fa_nontarget * self.pi_nontarget
            + self.c_fa_spoof * self.pi_spoof
        )
        return min(reject_all, accept_all)


def _sweep(pos, *negs):
    """(thresholds, P_miss, one P_fa per negative class) over the
    candidate sweep of sorted score arrays."""
    taus = np.concatenate(([-np.inf], np.unique(np.concatenate((pos, *negs))), [np.inf]))
    # P_miss: positives strictly below tau; P_fa: negatives at or above it
    p_miss = np.searchsorted(pos, taus, side="left") / pos.shape[0]
    p_fa = [(n.shape[0] - np.searchsorted(n, taus, side="left")) / n.shape[0] for n in negs]
    return (taus, p_miss, *p_fa)


def eer(positive, negative):
    """Equal error rate and its threshold over an exact sweep.

    Returns (eer, threshold). Among candidates with minimal
    |P_miss - P_fa| the lowest threshold wins.
    """
    pos = np.sort(np.asarray(positive, dtype=np.float64))
    neg = np.sort(np.asarray(negative, dtype=np.float64))
    if pos.size == 0 or neg.size == 0:
        raise EmptyClass("eer needs at least one score in each class")
    for name, arr in (("positive", pos), ("negative", neg)):
        if np.isnan(arr[-1]):  # np.sort puts NaN last
            raise ValueError(f"eer got a NaN {name} score")
    taus, frr, far = _sweep(pos, neg)
    idx = int(np.argmin(np.abs(frr - far)))  # first minimum = lowest tau
    return float((frr[idx] + far[idx]) / 2.0), float(taus[idx])


def sv_eer(scores):
    """Speaker-verification EER: targets vs nontargets, spoofs excluded."""
    target, nontarget, _ = partition_scores(scores)
    if not target or not nontarget:
        raise EmptyClass("sv_eer needs target and nontarget scores")
    return eer(target, nontarget)


def spf_eer(scores):
    """Spoofing EER: targets vs spoofed trials, nontargets excluded."""
    target, _, spoof = partition_scores(scores)
    if not target or not spoof:
        raise EmptyClass("spf_eer needs target and spoof scores")
    return eer(target, spoof)


def _three_class_sweep(scores, empty_message):
    """`_sweep` of a set's target, nontarget and spoof scores."""
    tar, non, spf = (np.sort(np.asarray(c, dtype=np.float64)) for c in partition_scores(scores))
    if not (tar.size and non.size and spf.size):
        raise EmptyClass(empty_message)
    return _sweep(tar, non, spf)


def a_dcf(scores, cfg=ADcfConfig()):
    """Minimum a-DCF, its threshold, and the normalized value.

    Returns (min_a_dcf, threshold, normalized). The normalizer is the
    cost of the better dummy system, so normalized = 1 means no better
    than always accepting or always rejecting.
    """
    taus, p_miss, p_fa_non, p_fa_spf = _three_class_sweep(
        scores, "a_dcf needs target, nontarget, and spoof scores")
    cost = (
        cfg.c_miss * cfg.pi_target * p_miss
        + cfg.c_fa_nontarget * cfg.pi_nontarget * p_fa_non
        + cfg.c_fa_spoof * cfg.pi_spoof * p_fa_spf
    )
    idx = int(np.argmin(cost))
    minimum = float(cost[idx])
    return minimum, float(taus[idx]), minimum / cfg.dummy_cost()


def det_points(scores):
    """Error rates at every candidate threshold, ascending threshold: a
    record array with fields threshold, p_miss, p_fa_nontarget and
    p_fa_spoof, one record per threshold."""
    return np.rec.fromarrays(_three_class_sweep(scores, "det_points needs all three classes"),
                             names="threshold,p_miss,p_fa_nontarget,p_fa_spoof")
