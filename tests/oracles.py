"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's vectorized implementations:
candidate thresholds are midpoints between consecutive distinct scores
(plus the infinities), and rates are counted with plain Python loops.
The pair-gradient chain scatters each pair's contribution into its two
rows one pair at a time instead of forming the dense BxB product. The
embedding-row check looks at one row and one component at a time.
"""

import math

import numpy as np

from sasvkit.errors import DimensionMismatch, DuplicateId


def frr_at(pos, tau):
    return sum(1 for p in pos if p < tau) / len(pos)


def far_at(neg, tau):
    return sum(1 for n in neg if n >= tau) / len(neg)


def midpoint_candidates(*score_lists):
    values = sorted(set(v for lst in score_lists for v in lst))
    taus = [-math.inf]
    for a, b in zip(values, values[1:]):
        taus.append((a + b) / 2.0)
    taus.append(math.inf)
    return taus


def oracle_eer(pos, neg):
    best = None
    for tau in midpoint_candidates(pos, neg):
        frr = frr_at(pos, tau)
        far = far_at(neg, tau)
        key = (abs(frr - far), tau)
        if best is None or key < best[0]:
            best = (key, (frr + far) / 2.0)
    return best[1]


def oracle_a_dcf(target, nontarget, spoof, cfg):
    best = None
    for tau in midpoint_candidates(target, nontarget, spoof):
        cost = (
            cfg.c_miss * cfg.pi_target * frr_at(target, tau)
            + cfg.c_fa_nontarget * cfg.pi_nontarget * far_at(nontarget, tau)
            + cfg.c_fa_spoof * cfg.pi_spoof * far_at(spoof, tau)
        )
        if best is None or cost < best:
            best = cost
    return best


def chain_pair_grads_per_pair(grad_out, pair_grads, pairs_idx, X):
    """Add dL/dX for pair gradients dL/ds_ij, s_ij = cos(x_i, x_j), into
    grad_out, pair by pair: ds/dx_i = (x_hat_j - s x_hat_i) / ||x_i||."""
    if pairs_idx is None or len(pairs_idx) == 0:
        return
    norms = np.linalg.norm(X, axis=1)
    Xh = X / norms[:, None]
    i, j = pairs_idx[:, 0], pairs_idx[:, 1]
    s = np.sum(Xh[i] * Xh[j], axis=1)
    gi = pair_grads[:, None] * (Xh[j] - s[:, None] * Xh[i]) / norms[i, None]
    gj = pair_grads[:, None] * (Xh[i] - s[:, None] * Xh[j]) / norms[j, None]
    np.add.at(grad_out, i, gi)
    np.add.at(grad_out, j, gj)


def first_bad_embedding_row(ids, rows):
    """(row, exception type, message) for the first row that is not a
    valid embedding with a new ID, or None: checked in the order an
    Embedding and then the set check them (ID, dimension, finite,
    non-zero, unique)."""
    seen = set()
    for row, (uid, values) in enumerate(zip(ids, rows)):
        values = [float(v) for v in values]
        if not isinstance(uid, str) or uid == "":
            return row, ValueError, "embedding ID must be a non-empty string"
        if not values:
            return row, DimensionMismatch, f"embedding {uid!r}: expected a 1-D vector with D >= 1"
        if any(math.isnan(v) or math.isinf(v) for v in values):
            return row, ValueError, f"embedding {uid!r} has non-finite components"
        if all(v == 0.0 for v in values):
            return row, ValueError, f"embedding {uid!r} is the zero vector"
        if uid in seen:
            return row, DuplicateId, f"duplicate embedding ID {uid!r}"
        seen.add(uid)
    return None
