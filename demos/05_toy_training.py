"""Desk-scale speaker embedding training with PK batches and SGD.

Trains a single linear projection on synthetic speaker features using
the combined SphereFace + Circle objective, fed by a P-speakers times
K-utterances batch sampler. The run is tiny (a few seconds on one CPU
core) but shows the full loop: held-out SV-EER drops from chance-like
to a few percent.
"""

import time

import numpy as np

from sasvkit.metrics import sv_eer
from sasvkit.sampler import (
    PkConfig,
    ToyModel,
    TrainConfig,
    eval_toy,
    gen_synthetic,
    pk_batches,
    train_toy,
)

dataset = gen_synthetic(n_speakers=20, utts_per_speaker=30, d_in=32, noise=0.15, seed=0)

batches = pk_batches(dataset, PkConfig(P=8, K=4, seed=0))
feats, labels = batches[0]
print(f"one epoch = {len(batches)} PK batches; "
      f"each batch is {feats.shape[0]} rows = P*K = 8*4")
uniq, counts = np.unique(labels, return_counts=True)
print(f"first batch speakers: {uniq.tolist()} with counts {counts.tolist()}")

model0 = ToyModel.random(d_emb=16, d_in=32, n_classes=20, seed=0)
eer0, _ = sv_eer(eval_toy(model0, dataset, n_trials=400, seed=99))
print(f"\nheld-out SV-EER before training: {eer0:.4f}")

started = time.perf_counter()
model, history = train_toy(
    dataset,
    model0,
    TrainConfig(steps=500, learning_rate=0.05),
    PkConfig(P=8, K=4, seed=0),
)
elapsed = time.perf_counter() - started

eer1, _ = sv_eer(eval_toy(model, dataset, n_trials=400, seed=99))
print(f"held-out SV-EER after 500 SGD steps: {eer1:.4f}  ({elapsed:.1f} s)")

print("\nloss trajectory:")
for step in range(0, len(history), 100):
    print(f"  step {step:4d}: {history[step]:.4f}")
print(f"  step {len(history) - 1:4d}: {history[-1]:.4f}")
