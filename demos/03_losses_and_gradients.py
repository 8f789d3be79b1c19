"""SphereFace and Circle losses with analytic gradients, checked numerically.

Both losses come with hand-derived gradients. This script evaluates them
on a random batch, verifies the gradients against central finite
differences, and shows the m=1 sanity check: with a multiplicative
angular margin of 1, SphereFace is exactly scaled-cosine cross entropy.
"""

import numpy as np

from sasvkit.losses import (
    CircleConfig,
    LossBatch,
    SphereFaceConfig,
    circle_alphas,
    circle_loss,
    combined_loss,
    grad_check,
    mine_pairs,
    sphereface_loss,
)

rng = np.random.default_rng(3)
B, C, D = 8, 4, 16
X = rng.standard_normal((B, D))
W = rng.standard_normal((C, D))
y = rng.integers(0, C, size=B)
batch = LossBatch(X, W, y)

sf = SphereFaceConfig()  # s=30, m=1.5
cc = CircleConfig()  # gamma=80, margin=0.25, weight=0.2

loss, grad_x, grad_w = sphereface_loss(batch, sf)
print(f"SphereFace loss (s={sf.scale_s:g}, m={sf.margin_m:g}): {loss:.6f}")

report = grad_check(lambda x: sphereface_loss(LossBatch(x, W, y), sf)[:2], X)
print(f"  FD check on embeddings: {report}")
report = grad_check(
    lambda w: sphereface_loss(LossBatch(X, w, y), sf)[::2], W
)
print(f"  FD check on class weights: {report}")

# m=1 collapses to plain cross entropy over scaled cosines
loss_m1, _, _ = sphereface_loss(batch, SphereFaceConfig(margin_m=1.0))
Xh = X / np.linalg.norm(X, axis=1, keepdims=True)
Wh = W / np.linalg.norm(W, axis=1, keepdims=True)
logits = 30.0 * np.clip(Xh @ Wh.T, -1 + 1e-7, 1 - 1e-7)
# cross entropy = mean of logsumexp(row) - target logit
ce = float(np.mean(np.log(np.exp(logits).sum(axis=1)) - logits[np.arange(B), y]))
print(f"  m=1 vs cross entropy: |diff| = {abs(loss_m1 - ce):.2e}")

pairs = mine_pairs(X, y)
print(f"\nCircle loss: {len(pairs.s_p)} positive / {len(pairs.s_n)} negative pairs")
closs, gp, gn = circle_loss(pairs, cc)
print(f"  loss = {closs:.6f}")

# the self-paced alphas are detached, so freeze them for the FD probe
frozen = circle_alphas(pairs, cc)
n_p = len(pairs.s_p)


def f_circle(v):
    from sasvkit.losses import PairSet

    l, dp, dn = circle_loss(PairSet(v[:n_p], v[n_p:]), cc, alphas=frozen)
    return l, np.concatenate([dp, dn])


report = grad_check(f_circle, np.concatenate([pairs.s_p, pairs.s_n]))
print(f"  FD check on pair similarities: {report}")

total, gx, gw = combined_loss(batch, sf, cc)
print(f"\nCombined loss (circle weight {cc.weight:g}): {total:.6f}")
print(f"  grad norms: |dL/dX| = {np.linalg.norm(gx):.4f}, "
      f"|dL/dW| = {np.linalg.norm(gw):.4f}")
