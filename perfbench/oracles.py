"""Brute-force numpy references for every output the benchmark checks.

They share no code with sasvkit. Score-level references are computed
with whole-matrix numpy operations; the threshold sweeps count class
members below each distinct score with np.unique and cumulative sums,
a different method from the library's searchsorted sweep.
"""

import numpy as np

# float64 scores of the same arithmetic in another summation order
# agree to ~1e-14 here; anything looser than this is a defect
TOL = 1e-10


def close(a, b):
    return np.shape(a) == np.shape(b) and np.allclose(a, b, rtol=TOL, atol=TOL)


def _unit(m):
    m = np.asarray(m, dtype=np.float64)
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def fuse(stacks, weight, bias, top_k):
    """Top-k gated layer fusion of an (N, L, D) stack array."""
    stacks = np.asarray(stacks, dtype=np.float64)
    final = stacks[:, -1]
    logits = final @ weight.T + bias
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    rows = np.arange(stacks.shape[0])[:, None]
    top = np.argsort(-p, axis=1, kind="stable")[:, :top_k]
    w = np.zeros_like(p)
    w[rows, top] = p[rows, top] / p[rows, top].sum(axis=1, keepdims=True)
    return final + np.einsum("nl,nld->nd", w, stacks[:, :-1])


def cosine_pairs(emb, enroll, test, rows=4096):
    """Cosine of each (enroll, test) row pair, `rows` pairs at a time."""
    u = _unit(emb)
    out = np.empty(len(enroll))
    for lo in range(0, len(enroll), rows):
        e, t = enroll[lo:lo + rows], test[lo:lo + rows]
        out[lo:lo + rows] = np.einsum("nd,nd->n", u[e], u[t])
    return np.clip(out, -1.0, 1.0)


def as_norm(emb, cohort, enroll, test, top_k, min_sigma=1e-8, rows=256):
    """Symmetric AS-Norm with the top-k cohort cosines of every row,
    `rows` embeddings at a time to keep the similarity block small."""
    u, c = _unit(emb), _unit(cohort)
    k = min(top_k, c.shape[0])
    mu, sigma = np.empty(len(u)), np.empty(len(u))
    for lo in range(0, len(u), rows):
        sims = np.clip(u[lo:lo + rows] @ c.T, -1.0, 1.0)
        top = np.partition(sims, c.shape[0] - k, axis=1)[:, -k:]
        mu[lo:lo + rows] = top.mean(axis=1)
        sigma[lo:lo + rows] = np.maximum(top.std(axis=1), min_sigma)
    raw = cosine_pairs(emb, enroll, test)
    return 0.5 * ((raw - mu[enroll]) / sigma[enroll] + (raw - mu[test]) / sigma[test])


def cascade(sd, asv, threshold, reject):
    return np.where(sd < threshold, reject, asv)


def ensemble(columns, weights):
    w = np.asarray(weights, dtype=np.float64)
    return (w[:, None] * np.asarray(columns)).sum(axis=0) / w.sum()


def _sweep(scores, labels, classes):
    """Thresholds (-inf, distinct scores, +inf) and, per class, the
    counts strictly below each threshold and the class sizes."""
    keep = np.isin(labels, classes)
    values, inverse = np.unique(scores[keep], return_inverse=True)
    taus = np.r_[-np.inf, values, np.inf]
    below, sizes = [], []
    for c in classes:
        per_value = np.bincount(inverse[labels[keep] == c], minlength=values.size)
        below.append(np.r_[0, np.cumsum(per_value) - per_value, per_value.sum()])
        sizes.append(per_value.sum())
    return taus, below, sizes


def eer(scores, labels, pos, neg):
    """(EER, threshold): first minimum of |P_miss - P_fa| over the sweep."""
    taus, (bp, bn), (npos, nneg) = _sweep(scores, labels, (pos, neg))
    p_miss = bp / npos
    p_fa = (nneg - bn) / nneg
    i = int(np.argmin(np.abs(p_miss - p_fa)))
    return (p_miss[i] + p_fa[i]) / 2.0, taus[i]


def det(scores, labels):
    """Thresholds with P_miss, P_fa(nontarget), P_fa(spoof) at each."""
    taus, (bt, bn, bs), (nt, nn, ns) = _sweep(scores, labels, (0, 1, 2))
    return taus, bt / nt, (nn - bn) / nn, (ns - bs) / ns


def a_dcf(scores, labels, c_miss=1.0, c_fa_non=10.0, c_fa_spf=10.0,
          pi_tar=0.9405, pi_non=0.0095, pi_spf=0.05):
    """(min a-DCF, its threshold, normalized) with the SASV default costs."""
    taus, p_miss, p_fa_non, p_fa_spf = det(scores, labels)
    cost = c_miss * pi_tar * p_miss + c_fa_non * pi_non * p_fa_non + c_fa_spf * pi_spf * p_fa_spf
    i = int(np.argmin(cost))
    dummy = min(c_miss * pi_tar, c_fa_non * pi_non + c_fa_spf * pi_spf)
    return cost[i], taus[i], cost[i] / dummy


def eval_report(scores, labels):
    """The five values `sasvkit eval` prints, by their printed names."""
    sv, _ = eer(scores, labels, 0, 1)
    spf, _ = eer(scores, labels, 0, 2)
    mind, tau, norm = a_dcf(scores, labels)
    return {"sv_eer": sv, "spf_eer": spf, "min_a_dcf": mind,
            "a_dcf_threshold": tau, "normalized_a_dcf": norm}
