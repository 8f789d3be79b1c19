"""Synthetic speaker data, PK batch sampling, and a desk-scale trainer.

The dataset generator draws per-speaker mean directions uniformly on the
unit hypersphere and produces utterance features as
normalize(mean + noise * gaussian). A linear projection followed by
normalization stands in for a real embedding network; plain SGD on the
combined margin + pairwise loss is enough to demonstrate that the loss
kernels actually reduce verification error.

PK batches are dealt from per-speaker chunk index matrices; held-out and
`gen-synth` trials are one drawer's labelled TrialTable over the rows of
one embedding matrix. Everything is deterministic given the seeds.
"""

import math
from dataclasses import dataclass
from itertools import chain, count

import numpy as np

from .core import LABEL_CODE, ScoreSet, TrialLabel, TrialTable
from .errors import (
    BadParams,
    DimensionMismatch,
    DivergenceDetected,
    InvalidBatch,
    TooFewSpeakers,
)
from .losses import LossBatch, combined_loss
from .scoring import _pair_cosines


class SpeakerDataset:
    """Speaker-ID -> feature matrix map plus the generation config.

    `means` (one unit direction per speaker) and the noise level are
    retained so held-out utterances can be drawn from the same
    distribution at evaluation time.
    """

    def __init__(self, speakers, means=None, noise=None):
        if len(speakers) < 1:
            raise BadParams("dataset needs at least one speaker")
        dims = set()
        cleaned = {}
        for sid, feats in speakers.items():
            feats = np.asarray(feats, dtype=np.float64)
            if feats.ndim != 2 or 0 in feats.shape:
                raise BadParams(f"features for speaker {sid!r} must be an n x D matrix "
                                f"with n >= 1 and D >= 1, got shape {feats.shape}")
            if not np.all(np.isfinite(feats)):
                raise BadParams(f"non-finite features for speaker {sid!r}")
            dims.add(feats.shape[1])
            cleaned[sid] = feats
        if len(dims) != 1:
            raise DimensionMismatch("speakers have inconsistent feature dims")
        self.speakers = cleaned
        self.speaker_ids = list(cleaned.keys())
        self.d_in = dims.pop()
        self.means = means
        self.noise = noise

    @property
    def n_speakers(self):
        return len(self.speaker_ids)


@dataclass(frozen=True)
class PkConfig:
    """P speakers x K utterances per batch."""

    P: int
    K: int
    seed: int = 0

    def __post_init__(self):
        if self.P < 2:
            raise BadParams("P must be >= 2")
        if self.K < 1:
            raise BadParams("K must be >= 1")


@dataclass
class ToyModel:
    """Linear embedding model: embedding = normalize(projection @ x)."""

    projection: np.ndarray
    class_weights: np.ndarray

    def __post_init__(self):
        self.projection = np.asarray(self.projection, dtype=np.float64)
        self.class_weights = np.asarray(self.class_weights, dtype=np.float64)
        if not (
            np.all(np.isfinite(self.projection))
            and np.all(np.isfinite(self.class_weights))
        ):
            raise BadParams("non-finite model parameters")

    def embed(self, features):
        """Raw (un-normalized) embeddings of a feature matrix."""
        return np.asarray(features, dtype=np.float64) @ self.projection.T

    def copy(self):
        return ToyModel(self.projection.copy(), self.class_weights.copy())

    @classmethod
    def random(cls, d_emb, d_in, n_classes, seed=0):
        """Random starting point with a deliberately poor projection.

        The projection is rank-1 dominant (plus a small full-rank
        perturbation that training can amplify), so the initial model
        collapses most of the input geometry and verification error
        starts high; isotropic gaussian projections are near-isometries
        and would start too close to the raw-feature performance to
        demonstrate anything.
        """
        if d_emb < 1 or d_in < 1 or n_classes < 2:
            raise BadParams(f"need d_emb >= 1, d_in >= 1, n_classes >= 2; got "
                            f"d_emb={d_emb}, d_in={d_in}, n_classes={n_classes}")
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((d_emb, 1))
        v = rng.standard_normal((1, d_in))
        projection = (u @ v + 0.05 * rng.standard_normal((d_emb, d_in))) / math.sqrt(
            d_in
        )
        return cls(
            projection=projection,
            class_weights=rng.standard_normal((n_classes, d_emb)),
        )


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 500
    learning_rate: float = 1e-3

    def __post_init__(self):
        if self.steps < 0:
            raise BadParams("steps must be >= 0")
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise BadParams("learning_rate must be finite and > 0")


def gen_synthetic(n_speakers, utts_per_speaker, d_in, noise, seed=0):
    """Clustered unit-vector features for a synthetic speaker population."""
    if n_speakers < 2 or utts_per_speaker < 1 or d_in < 1:
        raise BadParams("need n_speakers >= 2, utts_per_speaker >= 1, d_in >= 1")
    if not (noise >= 0 and math.isfinite(noise)):
        raise BadParams(f"noise must be finite and >= 0, got {noise}")
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((n_speakers, d_in))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    feats = _draw_utterances(rng, means, noise, utts_per_speaker)
    return SpeakerDataset({f"spk{i:03d}": f for i, f in enumerate(feats)}, means=means, noise=noise)


def _draw_utterances(rng, means, noise, per_spk):
    """`per_spk` features normalize(mean + noise * N(0, I)) per row of `means`: S x per_spk x D."""
    n_spk, dim = means.shape
    raw = means[:, None, :] + noise * rng.standard_normal((n_spk, per_spk, dim))
    return raw / np.linalg.norm(raw, axis=2, keepdims=True)


def pk_batches(dataset, cfg):
    """One epoch of PK batches: P distinct speakers x K utterances each.

    Each speaker's shuffled utterance indices, topped up to a multiple
    of K by sampling its utterances with replacement, form the rows of a
    ceil(utts/K) x K chunk matrix. Each batch takes the last chunk left
    of the P speakers with the most chunks left (ties broken at random
    but seeded, one lexsort per batch), so the epoch covers every
    utterance. Chunks that cannot fill a P-speaker batch are dropped.

    Returns a list of (features, labels) with labels the integer index
    of the speaker in dataset.speaker_ids.
    """
    if cfg.P > dataset.n_speakers:
        raise TooFewSpeakers(
            f"P={cfg.P} but dataset has {dataset.n_speakers} speakers"
        )
    rng = np.random.default_rng(cfg.seed)
    feats = [dataset.speakers[sid] for sid in dataset.speaker_ids]
    chunks = [
        np.concatenate((rng.permutation(n), rng.integers(n, size=-n % cfg.K))).reshape(-1, cfg.K)
        for n in map(len, feats)
    ]
    left = np.array([c.shape[0] for c in chunks])
    batches = []
    while np.count_nonzero(left) >= cfg.P:
        available = np.flatnonzero(left)
        # most-chunks-first keeps per-speaker usage proportional
        jitter = rng.permutation(available.size)
        chosen = available[np.lexsort((jitter, -left[available]))[: cfg.P]]
        left[chosen] -= 1
        batches.append((
            np.concatenate([feats[s][chunks[s][left[s]]] for s in chosen]),
            np.repeat(chosen, cfg.K).astype(np.int64),
        ))
    return batches


def train_toy(dataset, model0, tc, pk):
    """Plain SGD on the combined loss over PK batches.

    Returns (trained model, per-step loss history). The input model and
    dataset are never mutated. Batches cycle through fresh epochs (seed
    advanced per epoch) until `steps` updates have been applied.
    """
    model = model0.copy()
    history = []
    epochs = chain.from_iterable(
        pk_batches(dataset, PkConfig(P=pk.P, K=pk.K, seed=pk.seed + e)) for e in count()
    )
    # zip draws from range first, so no epoch is sampled past the last step
    for step, (feats, labels) in zip(range(tc.steps), epochs):
        raw_emb = model.embed(feats)
        try:
            batch = LossBatch(raw_emb, model.class_weights, labels)
        except InvalidBatch:
            raise DivergenceDetected(step, "parameters became non-finite")
        loss, grad_emb, grad_w = combined_loss(batch)
        if not math.isfinite(loss):
            raise DivergenceDetected(step)
        # raw_emb = feats @ P.T, so dL/dP = grad_emb.T @ feats
        model.projection -= tc.learning_rate * (grad_emb.T @ feats)
        model.class_weights -= tc.learning_rate * grad_w
        history.append(loss)
    return model, history


def _draw_pairs(rng, ids, per_spk, n_trials):
    """A labelled TrialTable of `n_trials` distinct trials over `ids`,
    utterance u of speaker s at s * per_spk + u: target trials of two
    utterances, half the trials rounded up (all, with one speaker) but
    no more than there are such pairs, then nontarget trials. Each class
    is one uniform draw without replacement of indices into all its
    pairs; the second utterance (speaker) skips the first."""
    p, n_spk = per_spk, len(ids) // per_spk
    n_target = min(n_trials - n_trials // 2 if n_spk > 1 else n_trials, n_spk * p * (p - 1))
    n_nontarget = n_trials - n_target
    t = rng.choice(n_spk * p * (p - 1), n_target, replace=False)
    s, u1, u2 = np.unravel_index(t, (n_spk, p, p - 1))
    u2 += u2 >= u1
    c = rng.choice(n_spk * (n_spk - 1) * p * p, n_nontarget, replace=False)
    s1, s2, v1, v2 = np.unravel_index(c, (n_spk, n_spk - 1, p, p))
    s2 += s2 >= s1
    labels = np.repeat([LABEL_CODE[TrialLabel.TARGET], LABEL_CODE[TrialLabel.NONTARGET]],
                       (n_target, n_nontarget))
    return TrialTable._of_codes(ids, np.concatenate((s * p + u1, s1 * p + v1)),
                                np.concatenate((s * p + u2, s2 * p + v2)), labels)


def eval_toy(model, dataset, n_trials, seed=0):
    """Balanced target/nontarget trials on held-out utterances.

    Held-out utterances are drawn from the dataset's stored generation
    config (means + noise) with an independent seed and embedded with
    the model into one matrix, row s * per_spk + u for utterance u of
    speaker s. `_draw_pairs` draws the trials over those rows, scored in
    one pass of `score_trials`' cosine kernel; a zero-norm embedding in
    a trial raises ZeroNorm. With a single-speaker dataset only target
    trials can be built.
    """
    if n_trials < 1:
        raise BadParams("n_trials must be >= 1")
    if dataset.means is None or dataset.noise is None:
        raise BadParams("dataset lacks generation config for held-out draws")
    rng = np.random.default_rng(seed)
    per_spk = max(2, math.ceil(2 * n_trials / dataset.n_speakers))
    # the features are not kept: with the IDs and the draw they would raise the peak
    emb = model.embed(_draw_utterances(rng, dataset.means, dataset.noise, per_spk)
                      .reshape(-1, dataset.d_in))
    ids = [f"{sid}-ho{u:03d}" for sid in dataset.speaker_ids for u in range(per_spk)]
    table = _draw_pairs(rng, ids, per_spk, n_trials)
    enroll, test = table._sides(np.arange(len(ids)))
    norms = np.linalg.norm(emb, axis=1)
    return ScoreSet._of_table(table, _pair_cosines(emb, norms, enroll, test))
