"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's vectorized implementations:
candidate thresholds are midpoints between consecutive distinct scores
(plus the infinities), and rates are counted with plain Python loops.
The pair-gradient chain scatters each pair's contribution into its two
rows one pair at a time instead of forming the dense BxB product.
Within-batch pairs are enumerated from `np.triu_indices` and gathered by
index, and the pairwise term normalizes the rows on each call. The
embedding-row check looks at one row and one component at a time. The
PK sampler sorts each batch's speakers with a Python key, held-out
trials are scored one `cosine` call at a time, and the training loop
counts its steps and epochs by hand.
"""

import math

import numpy as np

from sasvkit.core import LABEL_CODE, ScoreSet, TrialLabel
from sasvkit.errors import DimensionMismatch, DivergenceDetected, DuplicateId, InvalidBatch
from sasvkit.losses import LossBatch, PairSet, circle_loss, combined_loss, sphereface_loss
from sasvkit.scoring import cosine


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


def mine_pairs_by_index(embeddings, labels):
    """`losses.mine_pairs` with the pairs taken from `np.triu_indices`."""
    X = np.asarray(embeddings, dtype=np.float64)
    y = np.asarray(labels)
    B = X.shape[0]
    if B < 2:
        raise InvalidBatch("pair mining needs at least 2 rows")
    Xh = X / np.linalg.norm(X, axis=1, keepdims=True)
    sims = np.clip(Xh @ Xh.T, -1.0, 1.0)
    iu, ju = np.triu_indices(B, k=1)
    same = y[iu] == y[ju]
    return PairSet(
        s_p=sims[iu[same], ju[same]],
        s_n=sims[iu[~same], ju[~same]],
        pos_pairs=np.stack([iu[same], ju[same]], axis=1),
        neg_pairs=np.stack([iu[~same], ju[~same]], axis=1),
    )


def combined_loss_by_index(batch, sf, cc, frozen_alphas=None):
    """`losses.combined_loss` through `mine_pairs_by_index`: the rows are
    normalized again for the pairwise term and the pair gradients are
    scattered into the dense BxB matrix by (i, j) index."""
    sf_loss, grad_X, grad_W = sphereface_loss(batch, sf)
    if cc.weight == 0.0 or batch.size < 2:
        return sf_loss, grad_X, grad_W
    pairs = mine_pairs_by_index(batch.embeddings, batch.labels)
    c_loss, grad_sp, grad_sn = circle_loss(pairs, cc, alphas=frozen_alphas)
    total = sf_loss + cc.weight * c_loss
    if c_loss == 0.0:
        return total, grad_X, grad_W
    G = np.zeros((batch.size, batch.size))
    G[tuple(pairs.pos_pairs.T)] = cc.weight * grad_sp
    G[tuple(pairs.neg_pairs.T)] = cc.weight * grad_sn
    norms = np.linalg.norm(batch.embeddings, axis=1, keepdims=True)
    Xh = batch.embeddings / norms
    G_hat = (G + G.T) @ Xh
    # d(x/||x||)/dx applied to G_hat
    grad_X += (G_hat - np.sum(G_hat * Xh, axis=1, keepdims=True) * Xh) / norms
    return total, grad_X, grad_W


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


def pk_batches(dataset, P, K, seed):
    """One epoch of PK batches, speaker chunks kept as Python lists."""
    rng = np.random.default_rng(seed)
    chunks = {}  # speaker index -> list of index-chunks of length K
    for s, sid in enumerate(dataset.speaker_ids):
        n = dataset.speakers[sid].shape[0]
        order = rng.permutation(n)
        chunk_list = []
        for start in range(0, n, K):
            chunk = list(order[start : start + K])
            while len(chunk) < K:
                chunk.append(int(rng.integers(n)))
            chunk_list.append(chunk)
        chunks[s] = chunk_list
    batches = []
    while sum(1 for c in chunks.values() if c) >= P:
        available = [s for s, c in chunks.items() if c]
        jitter = rng.permutation(len(available))
        ranked = sorted(
            range(len(available)),
            key=lambda i: (-len(chunks[available[i]]), jitter[i]),
        )
        feats, labels = [], []
        for i in ranked[:P]:
            s = available[i]
            chunk = chunks[s].pop()
            feats.append(dataset.speakers[dataset.speaker_ids[s]][chunk])
            labels.extend([s] * K)
        batches.append((np.concatenate(feats), np.array(labels, dtype=np.int64)))
    return batches


def train_toy(dataset, model, tc, pk):
    """SGD over the reference's PK epochs (seed advanced per epoch);
    updates `model` in place and returns the per-step loss history."""
    history = []
    step = 0
    epoch = 0
    while step < tc.steps:
        for feats, labels in pk_batches(dataset, pk.P, pk.K, pk.seed + epoch):
            if step >= tc.steps:
                break
            batch = LossBatch(model.embed(feats), model.class_weights, labels)
            loss, grad_emb, grad_w = combined_loss(batch, tc.sphereface, tc.circle)
            if not math.isfinite(loss):
                raise DivergenceDetected(step)
            model.projection -= tc.learning_rate * (grad_emb.T @ feats)
            model.class_weights -= tc.learning_rate * grad_w
            history.append(loss)
            step += 1
        epoch += 1
    return history


def eval_toy(model, dataset, n_trials, seed=0):
    """Held-out trials drawn as ID-string pairs and scored one `cosine`
    call per trial."""
    rng = np.random.default_rng(seed)
    n_spk = dataset.n_speakers
    per_spk = max(2, math.ceil(2 * n_trials / n_spk))
    raw = dataset.means[:, None, :] + dataset.noise * rng.standard_normal(
        (n_spk, per_spk, dataset.d_in)
    )
    held = raw / np.linalg.norm(raw, axis=2, keepdims=True)
    emb = np.stack([model.embed(held[s]) for s in range(n_spk)])
    n_nontarget = n_trials // 2 if n_spk >= 2 else 0
    n_target = n_trials - n_nontarget

    def utt_id(s, u):
        return f"{dataset.speaker_ids[s]}-ho{u:03d}"

    made = {}  # (enroll, test) -> cosine, targets first
    while len(made) < n_target:
        s = int(rng.integers(n_spk))
        u1, u2 = rng.choice(per_spk, size=2, replace=False)
        key = (utt_id(s, u1), utt_id(s, u2))
        if key not in made:
            made[key] = cosine(emb[s, u1], emb[s, u2])
    while len(made) < n_target + n_nontarget:
        s1, s2 = rng.choice(n_spk, size=2, replace=False)
        u1, u2 = int(rng.integers(per_spk)), int(rng.integers(per_spk))
        key = (utt_id(s1, u1), utt_id(s2, u2))
        if key not in made:
            made[key] = cosine(emb[s1, u1], emb[s2, u2])
    labels = [LABEL_CODE[TrialLabel.TARGET]] * n_target
    labels += [LABEL_CODE[TrialLabel.NONTARGET]] * n_nontarget
    return ScoreSet.from_columns(
        [e for e, _ in made], [t for _, t in made], labels, list(made.values())
    )
