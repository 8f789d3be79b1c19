"""Synthetic speaker data, PK batch sampling, and a desk-scale trainer.

The dataset generator draws per-speaker mean directions uniformly on the
unit hypersphere and produces utterance features as
normalize(mean + noise * gaussian). A linear projection followed by
normalization stands in for a real embedding network; plain SGD on the
combined margin + pairwise loss is enough to demonstrate that the loss
kernels actually reduce verification error.

Everything is deterministic given the configured seeds.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import LABEL_CODE, ScoreSet, TrialLabel
from .errors import (
    BadParams,
    DimensionMismatch,
    DivergenceDetected,
    InvalidBatch,
    TooFewSpeakers,
)
from .losses import CircleConfig, SphereFaceConfig, combined_loss, LossBatch
from .scoring import cosine


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

    @property
    def d_emb(self):
        return self.projection.shape[0]

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
    sphereface: SphereFaceConfig = field(default_factory=SphereFaceConfig)
    circle: CircleConfig = field(default_factory=CircleConfig)

    def __post_init__(self):
        if self.steps < 0:
            raise BadParams("steps must be >= 0")
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise BadParams("learning_rate must be finite and > 0")


def _random_unit_vectors(rng, n, d):
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def gen_synthetic(n_speakers, utts_per_speaker, d_in, noise, seed=0):
    """Clustered unit-vector features for a synthetic speaker population."""
    if n_speakers < 2 or utts_per_speaker < 1 or d_in < 1 or noise < 0:
        raise BadParams(
            "need n_speakers >= 2, utts_per_speaker >= 1, d_in >= 1, noise >= 0"
        )
    rng = np.random.default_rng(seed)
    means = _random_unit_vectors(rng, n_speakers, d_in)
    speakers = {}
    for i in range(n_speakers):
        raw = means[i] + noise * rng.standard_normal((utts_per_speaker, d_in))
        speakers[f"spk{i:03d}"] = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    return SpeakerDataset(speakers, means=means, noise=noise)


def pk_batches(dataset, cfg):
    """One epoch of PK batches: P distinct speakers x K utterances each.

    Per speaker, utterance indices are shuffled and dealt K at a time;
    a final short chunk is topped up by sampling that speaker's
    utterances with replacement, so every speaker contributes
    ceil(utts/K) chunks. Batches greedily draw the P speakers with the
    most chunks remaining (ties broken at random but seeded), so the
    epoch covers every utterance. Leftover chunks that cannot fill a
    P-speaker batch are dropped.

    Returns a list of (features, labels) with labels the integer index
    of the speaker in dataset.speaker_ids.
    """
    if cfg.P > dataset.n_speakers:
        raise TooFewSpeakers(
            f"P={cfg.P} but dataset has {dataset.n_speakers} speakers"
        )
    rng = np.random.default_rng(cfg.seed)
    chunks = {}  # speaker index -> list of index-chunks of length K
    for s, sid in enumerate(dataset.speaker_ids):
        n = dataset.speakers[sid].shape[0]
        order = rng.permutation(n)
        chunk_list = []
        for start in range(0, n, cfg.K):
            chunk = list(order[start : start + cfg.K])
            while len(chunk) < cfg.K:
                chunk.append(int(rng.integers(n)))
            chunk_list.append(chunk)
        chunks[s] = chunk_list

    batches = []
    while sum(1 for c in chunks.values() if c) >= cfg.P:
        available = [s for s, c in chunks.items() if c]
        # most-chunks-first keeps per-speaker usage proportional
        jitter = rng.permutation(len(available))
        ranked = sorted(
            range(len(available)),
            key=lambda i: (-len(chunks[available[i]]), jitter[i]),
        )
        feats, labels = [], []
        for i in ranked[: cfg.P]:
            s = available[i]
            chunk = chunks[s].pop()
            sid = dataset.speaker_ids[s]
            feats.append(dataset.speakers[sid][chunk])
            labels.extend([s] * cfg.K)
        batches.append((np.concatenate(feats), np.array(labels, dtype=np.int64)))
    return batches


def train_toy(dataset, model0, tc, pk):
    """Plain SGD on the combined loss over PK batches.

    Returns (trained model, per-step loss history). The input model and
    dataset are never mutated. Batches cycle through fresh epochs (seed
    advanced per epoch) until `steps` updates have been applied.
    """
    model = model0.copy()
    history = []
    step = 0
    epoch = 0
    while step < tc.steps:
        epoch_cfg = PkConfig(P=pk.P, K=pk.K, seed=pk.seed + epoch)
        for feats, labels in pk_batches(dataset, epoch_cfg):
            if step >= tc.steps:
                break
            raw_emb = model.embed(feats)
            try:
                batch = LossBatch(raw_emb, model.class_weights, labels)
            except InvalidBatch:
                raise DivergenceDetected(step, "parameters became non-finite")
            loss, grad_emb, grad_w = combined_loss(batch, tc.sphereface, tc.circle)
            if not math.isfinite(loss):
                raise DivergenceDetected(step)
            # raw_emb = feats @ P.T, so dL/dP = grad_emb.T @ feats
            model.projection -= tc.learning_rate * (grad_emb.T @ feats)
            model.class_weights -= tc.learning_rate * grad_w
            history.append(loss)
            step += 1
        epoch += 1
    return model, history


def eval_toy(model, dataset, n_trials, seed=0):
    """Balanced target/nontarget trials on held-out utterances.

    Held-out utterances are drawn from the dataset's stored generation
    config (means + noise) with an independent seed, embedded with the
    model, and scored by cosine. With a single-speaker dataset only
    target trials can be built.
    """
    if n_trials < 1:
        raise BadParams("n_trials must be >= 1")
    if dataset.means is None or dataset.noise is None:
        raise BadParams("dataset lacks generation config for held-out draws")
    rng = np.random.default_rng(seed)
    n_spk = dataset.n_speakers
    per_spk = max(2, math.ceil(2 * n_trials / n_spk))
    raw = dataset.means[:, None, :] + dataset.noise * rng.standard_normal(
        (n_spk, per_spk, dataset.d_in)
    )
    held = raw / np.linalg.norm(raw, axis=2, keepdims=True)
    emb = np.stack([model.embed(held[s]) for s in range(n_spk)])

    if n_spk < 2:
        n_target, n_nontarget = n_trials, 0
    else:
        n_nontarget = n_trials // 2
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
