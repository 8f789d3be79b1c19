"""Domain types shared by every module: embeddings, trials, labels, scores.

Embedding values, trials and scores are immutable after construction.
Scores are kept as 64-bit floats everywhere; embedding storage is 32-bit
(matching the on-disk binary format) and is promoted to 64-bit inside
numerical routines.

An EmbeddingSet is array-backed for the scoring engine: it keeps an
ID -> row dict as members are added, and on first use builds one
read-only float32 N x D matrix plus its float64 row norms, cached until
the next `add`. Building the matrix rebinds each member's `values` to
its (equal, read-only) row, so the vectors are stored once.
"""

import math
from enum import Enum

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateId,
    DuplicateTrial,
    UnlabeledTrial,
)


class TrialLabel(Enum):
    TARGET = "target"
    NONTARGET = "nontarget"
    SPOOF = "spoof"
    UNLABELED = "unlabeled"

    @classmethod
    def from_token(cls, token):
        """Parse one of the exact lowercase tokens target/nontarget/spoof."""
        for member in (cls.TARGET, cls.NONTARGET, cls.SPOOF):
            if token == member.value:
                return member
        raise ValueError(f"unknown label {token!r}")


class Embedding:
    """A unit-normalizable vector identified by an utterance ID.

    IDs are opaque strings compared exactly; no path semantics.
    """

    __slots__ = ("id", "values")

    def __init__(self, id, values):
        if not isinstance(id, str) or id == "":
            raise ValueError("embedding ID must be a non-empty string")
        values = np.asarray(values, dtype=np.float32)
        if values.ndim != 1 or values.shape[0] < 1:
            raise DimensionMismatch(
                f"embedding {id!r}: expected a 1-D vector with D >= 1"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError(f"embedding {id!r} has non-finite components")
        if not np.any(values != 0.0):
            raise ValueError(f"embedding {id!r} is the zero vector")
        values.setflags(write=False)
        self.id = id
        self.values = values

    @property
    def dim(self):
        return self.values.shape[0]

    def __repr__(self):
        return f"Embedding({self.id!r}, dim={self.dim})"


class EmbeddingSet:
    """ID-indexed collection of embeddings sharing one dimension.

    Iteration preserves insertion order, which downstream code relies on
    for deterministic tie-breaking; row i of `matrix()` is the i-th
    member. The matrix and norms are built once and handed out
    read-only; `add` invalidates them.
    """

    def __init__(self, embeddings=()):
        self._rows = {}  # id -> row index
        self._order = []
        self._arrays_cache = None  # (matrix, norms), built on first use
        self.dim = None
        for emb in embeddings:
            self.add(emb)

    def add(self, emb):
        if self.dim is None:
            self.dim = emb.dim
        elif emb.dim != self.dim:
            raise DimensionMismatch(
                f"embedding {emb.id!r} has dimension {emb.dim}, set has {self.dim}"
            )
        if emb.id in self._rows:
            raise DuplicateId(f"duplicate embedding ID {emb.id!r}")
        self._rows[emb.id] = len(self._order)
        self._order.append(emb)
        self._arrays_cache = None

    def __len__(self):
        return len(self._order)

    def __contains__(self, id):
        return id in self._rows

    def __getitem__(self, id):
        return self._order[self._rows[id]]

    def __iter__(self):
        return iter(self._order)

    def ids(self):
        return [e.id for e in self._order]

    def rows(self, ids):
        """Row indices of `ids`; KeyError names the first missing ID."""
        return np.fromiter((self._rows[i] for i in ids), dtype=np.intp)

    def matrix(self):
        """Read-only float32 N x D matrix of all vectors in insertion order."""
        return self._arrays()[0]

    def norms(self):
        """Read-only float64 Euclidean norm of every row of `matrix()`."""
        return self._arrays()[1]

    def _arrays(self):
        if self._arrays_cache is None:
            mat = np.stack([e.values for e in self._order])
            mat.setflags(write=False)
            for emb, row in zip(self._order, mat):
                emb.values = row
            norms = np.linalg.norm(mat.astype(np.float64), axis=1)
            norms.setflags(write=False)
            self._arrays_cache = (mat, norms)
        return self._arrays_cache


class Trial:
    """One verification attempt: (enrollment ID, test ID, label)."""

    __slots__ = ("enroll_id", "test_id", "label")

    def __init__(self, enroll_id, test_id, label=TrialLabel.UNLABELED):
        if not enroll_id or not test_id:
            raise ValueError("trial IDs must be non-empty")
        self.enroll_id = enroll_id
        self.test_id = test_id
        self.label = label

    @property
    def key(self):
        return (self.enroll_id, self.test_id)

    def __eq__(self, other):
        return (
            isinstance(other, Trial)
            and self.key == other.key
            and self.label == other.label
        )

    def __hash__(self):
        return hash((self.key, self.label))

    def __repr__(self):
        return f"Trial({self.enroll_id!r}, {self.test_id!r}, {self.label.value})"


class ScoreSet:
    """Ordered (trial, score) records with unique (enroll, test) pairs."""

    def __init__(self, records=()):
        self._records = []
        self._index = {}
        for trial, score in records:
            self.append(trial, score)

    def append(self, trial, score):
        score = float(score)
        if not math.isfinite(score):
            raise ValueError(f"non-finite score for trial {trial.key}")
        if trial.key in self._index:
            raise DuplicateTrial(f"duplicate trial {trial.key}")
        self._index[trial.key] = len(self._records)
        self._records.append((trial, score))

    def __len__(self):
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def __contains__(self, key):
        return key in self._index

    def score_of(self, key):
        return self._records[self._index[key]][1]

    def trial_of(self, key):
        return self._records[self._index[key]][0]

    def keys(self):
        return [t.key for t, _ in self._records]

    def scores(self):
        return np.array([s for _, s in self._records], dtype=np.float64)


def partition_scores(scores):
    """Split a fully labeled ScoreSet into (target, nontarget, spoof) lists.

    Lists keep the original record order. Raises UnlabeledTrial on the
    first record without a label.
    """
    target, nontarget, spoof = [], [], []
    buckets = {
        TrialLabel.TARGET: target,
        TrialLabel.NONTARGET: nontarget,
        TrialLabel.SPOOF: spoof,
    }
    for trial, score in scores:
        if trial.label is TrialLabel.UNLABELED:
            raise UnlabeledTrial(f"trial {trial.key} has no label")
        buckets[trial.label].append(score)
    return target, nontarget, spoof
