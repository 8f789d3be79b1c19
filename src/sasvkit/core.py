"""Domain types shared by every module: embeddings, trials, labels, scores.

Embedding values, trials and scores are immutable after construction.
A Trial is a validated named tuple (enroll_id, test_id, label): its IDs
are checked to be non-empty, and it equals the plain tuple of its fields.
Scores are kept as 64-bit floats everywhere; embedding storage is 32-bit
(matching the on-disk binary format) and is promoted to 64-bit inside
numerical routines.

An EmbeddingSet is one read-only float32 N x D matrix, built at
construction, and an ID -> row dict. `EmbeddingSet.from_matrix` applies
an Embedding's checks to whole rows at once, as do construction from
Embeddings and `add`; members are handed out as Embeddings viewing
their row.

A ScoreSet is columnar: a list of enroll IDs, a list of test IDs, an
int8 label code per record (the label's index in LABELS), a float64
score array and one (enroll, test) -> row dict, which is also the
duplicate check. `ScoreSet.from_columns` validates whole columns at
once, and `append` goes through the same checks. A set derived from
another (`with_scores`, used by cascade and ensemble) shares the
source's key columns, index and labels and holds only a new score
array; `append` builds new columns rather than changing shared ones.
`scores_in_order_of` aligns a second set to a set's row order with one
dict lookup per key, after which combining scores is array arithmetic.
"""

from collections import namedtuple
from enum import Enum
from itertools import groupby

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


def _readonly(array):
    array.setflags(write=False)
    return array


def _at_row(exc, row):
    """`exc` carrying the row of the record that raised it."""
    exc.row = row
    return exc


class Embedding:
    """A unit-normalizable vector identified by an utterance ID.

    IDs are opaque strings compared exactly; no path semantics.
    """

    __slots__ = ("id", "values")

    def __init__(self, id, values):
        with np.errstate(over="ignore"):  # beyond float32's range is inf: non-finite
            values = np.asarray(values, dtype=np.float32)
        # a vector that is not 1-D fails as a row of D = 0 does
        _check_rows([id], values[None, :] if values.ndim == 1 else np.empty((1, 0)))
        self.id = id
        self.values = _readonly(values)

    @classmethod
    def _of_row(cls, id, row):
        """An Embedding viewing a matrix row that has passed `_check_rows`."""
        emb = cls.__new__(cls)
        emb.id, emb.values = id, row
        return emb

    @property
    def dim(self):
        return self.values.shape[0]

    def __repr__(self):
        return f"Embedding({self.id!r}, dim={self.dim})"


def _check_rows(ids, matrix, taken=()):
    """The ID -> row dict of `matrix`'s rows, numbered after the rows
    of `taken`. Raises for the first row that is not a valid embedding
    with a new ID, with its `row` set, checking in order: a non-empty
    string ID, D >= 1, finite, not zero, an ID not seen before."""
    bad = np.flatnonzero(~(np.isfinite(matrix).all(axis=1) & matrix.any(axis=1)))
    first_bad = bad[0] if bad.size else len(ids)
    index = {}
    for row, id in enumerate(ids):
        if not isinstance(id, str) or id == "":
            exc = ValueError("embedding ID must be a non-empty string")
        elif row == first_bad and matrix.shape[1] == 0:
            exc = DimensionMismatch(f"embedding {id!r}: expected a 1-D vector with D >= 1")
        elif row == first_bad and not np.isfinite(matrix[row]).all():
            exc = ValueError(f"embedding {id!r} has non-finite components")
        elif row == first_bad:
            exc = ValueError(f"embedding {id!r} is the zero vector")
        elif id in taken or id in index:
            exc = DuplicateId(f"duplicate embedding ID {id!r}")
        else:
            index[id] = len(taken) + row
            continue
        raise _at_row(exc, row)
    return index


class EmbeddingSet:
    """ID-indexed collection of embeddings sharing one dimension.

    Row i of `matrix()` is the i-th member (see the module docstring).
    Iteration preserves insertion order, which downstream code relies on
    for deterministic tie-breaking. A rejected `add` leaves the set
    unchanged.
    """

    def __init__(self, embeddings=()):
        self._index, self.dim = {}, None  # id -> row, in insertion order
        self._matrix = _readonly(np.empty((0, 0), np.float32))
        # one matrix per run of members of one dimension, so a member of
        # another dimension than the set's fails as it would in `add`
        for _, run in groupby(embeddings, key=lambda e: e.dim):
            run = list(run)
            self._append([e.id for e in run], np.stack([e.values for e in run]))

    @classmethod
    def from_matrix(cls, ids, matrix):
        """A set of the rows of an N x D `matrix` under the N `ids`; the
        first row failing an Embedding's checks or repeating an ID raises
        with its `row` set. A float32 matrix is kept, made read-only."""
        out = cls()
        out._append(list(ids), matrix)
        return out

    def add(self, emb):
        self._append([emb.id], emb.values[None, :])

    def _append(self, ids, matrix):
        with np.errstate(over="ignore"):  # beyond float32's range is inf: non-finite
            matrix = np.asarray(matrix, dtype=np.float32)
        if matrix.ndim != 2 or matrix.shape[0] != len(ids):
            raise ValueError("expected an N x D matrix for N IDs")
        if self.dim is not None and matrix.shape[1] != self.dim:
            raise DimensionMismatch(
                f"embedding {ids[0]!r} has dimension {matrix.shape[1]}, set has {self.dim}"
            )
        index = _check_rows(ids, matrix, self._index)
        if ids:
            self._matrix = _readonly(np.concatenate((self._matrix, matrix)) if self._index else matrix)
            self._index.update(index)
            self.dim = matrix.shape[1]

    def __len__(self):
        return len(self._index)

    def __contains__(self, id):
        return id in self._index

    def __getitem__(self, id):
        return Embedding._of_row(id, self._matrix[self._index[id]])

    def __iter__(self):
        return map(Embedding._of_row, self._index, self._matrix)

    def ids(self):
        return list(self._index)

    def rows(self, ids):
        """Row indices of `ids`; KeyError names the first missing ID."""
        return np.fromiter(map(self._index.__getitem__, ids), dtype=np.intp)

    def matrix(self):
        """Read-only float32 N x D matrix of all vectors in insertion order."""
        return self._matrix


class Trial(namedtuple("Trial", "enroll_id test_id label")):
    """One verification attempt, a named tuple with non-empty IDs and a TrialLabel."""

    __slots__ = ()

    def __new__(cls, enroll_id, test_id, label=TrialLabel.UNLABELED):
        if not enroll_id or not test_id:
            raise ValueError("trial IDs must be non-empty")
        if not isinstance(label, TrialLabel):
            raise ValueError(f"trial label must be a TrialLabel, not {label!r}")
        return super().__new__(cls, enroll_id, test_id, label)

    @property
    def key(self):
        return (self.enroll_id, self.test_id)

    def __repr__(self):
        return f"Trial({self.enroll_id!r}, {self.test_id!r}, {self.label.value})"


# The label column of a ScoreSet holds codes: a label's code is its
# index in LABELS, so 0/1/2 are target/nontarget/spoof.
LABELS = tuple(TrialLabel)
LABEL_CODE = {label: code for code, label in enumerate(LABELS)}
_UNLABELED = LABEL_CODE[TrialLabel.UNLABELED]
# a label field's token -> code; an unlabeled trial has no label field
TOKEN_CODE = {label.value: code for label, code in LABEL_CODE.items() if code != _UNLABELED}


class ScoreSet:
    """Ordered (trial, score) records with unique (enroll, test) pairs.

    Stored as columns (see the module docstring); iteration builds each
    record's Trial on the fly from IDs that `from_columns` has checked.
    """

    def __init__(self, records=()):
        trials, scores = tuple(zip(*records)) or ((), ())
        enroll, test, labels = tuple(zip(*trials)) or ((), (), ())
        self._set_columns(enroll, test, list(map(LABEL_CODE.__getitem__, labels)), scores)

    @classmethod
    def from_columns(cls, enroll, test, labels, scores):
        """A ScoreSet from whole columns: enroll IDs, test IDs, label
        codes (see LABELS) and scores, one entry per record.

        Raises ValueError for a non-finite score or DuplicateTrial for a
        repeated (enroll, test) pair, whichever record comes first, as
        appending the records one by one would; the exception's `row` is
        that record's row.
        """
        out = cls.__new__(cls)
        out._set_columns(enroll, test, labels, scores)
        return out

    def _set_columns(self, enroll, test, labels, scores):
        enroll, test = list(enroll), list(test)
        labels = np.array(labels, dtype=np.int8)
        scores = np.array(scores, dtype=np.float64)
        n = len(enroll)
        if not (len(test) == labels.size == scores.size == n and scores.ndim == 1):
            raise ValueError("score set columns differ in length")
        if not (all(enroll) and all(test)):
            raise ValueError("trial IDs must be non-empty")
        if n and not (labels.min() >= 0 and labels.max() < len(LABELS)):
            raise ValueError("unknown label code")
        index = dict(zip(zip(enroll, test), range(n)))
        duplicate = n
        if len(index) < n:
            seen = set()
            for duplicate, key in enumerate(zip(enroll, test)):
                if key in seen:
                    break
                seen.add(key)
        self._enroll, self._test, self._index = enroll, test, index
        # a record with a non-finite score fails before it is a duplicate
        self._check_finite(scores[: duplicate + 1])
        if duplicate < n:
            raise _at_row(DuplicateTrial(f"duplicate trial {self._key(duplicate)}"), duplicate)
        self._labels, self._scores = _readonly(labels), _readonly(scores)

    def _check_finite(self, scores):
        """Raise ValueError for the first non-finite score."""
        bad = np.flatnonzero(~np.isfinite(scores))
        if bad.size:
            row = int(bad[0])
            raise _at_row(ValueError(f"non-finite score for trial {self._key(row)}"), row)

    def _key(self, row):
        return (self._enroll[row], self._test[row])

    def with_scores(self, scores):
        """A set of this set's records, in this order and with these
        labels, holding new scores; it shares this set's key columns.
        Raises ValueError on the first non-finite score."""
        scores = np.array(scores, dtype=np.float64)
        if scores.shape != self._scores.shape:
            raise ValueError("score set columns differ in length")
        self._check_finite(scores)
        out = ScoreSet.__new__(ScoreSet)
        out._enroll, out._test, out._index = self._enroll, self._test, self._index
        out._labels, out._scores = self._labels, _readonly(scores)
        return out

    def scores_in_order_of(self, other):
        """This set's scores in the row order of `other`, or None when
        the two sets do not cover the same (enroll, test) pairs."""
        if self._index is other._index:
            return self._scores
        if len(self) != len(other):
            return None
        try:
            rows = np.fromiter(map(self._index.__getitem__, other._index), np.intp, len(other))
        except KeyError:
            return None
        return self._scores[rows]

    def append(self, trial, score):
        """Add one record through the `from_columns` checks; the set
        takes on the new columns only after they pass. Each call copies
        every column, O(N); build a large set in bulk with
        `ScoreSet(records)` or `from_columns`."""
        vars(self).update(vars(ScoreSet.from_columns(
            self._enroll + [trial.enroll_id], self._test + [trial.test_id],
            np.append(self._labels, LABEL_CODE[trial.label]), np.append(self._scores, score))))

    def __len__(self):
        return len(self._enroll)

    def __iter__(self):
        labels = map(LABELS.__getitem__, self._labels.tolist())
        return zip(map(Trial._make, zip(self._enroll, self._test, labels)), self._scores.tolist())

    def __contains__(self, key):
        return key in self._index

    def score_of(self, key):
        return float(self._scores[self._index[key]])

    def keys(self):
        return list(self._index)

    def scores(self):
        return self._scores.copy()

    def columns(self):
        """(enroll IDs, test IDs, label codes, scores): two tuples and
        two read-only arrays, in record order."""
        return tuple(self._enroll), tuple(self._test), self._labels, self._scores


def partition_scores(scores):
    """Split a fully labeled ScoreSet into (target, nontarget, spoof) lists.

    Lists keep the original record order. Raises UnlabeledTrial on the
    first record without a label.
    """
    codes, values = scores._labels, scores._scores
    unlabeled = np.flatnonzero(codes == _UNLABELED)
    if unlabeled.size:
        raise UnlabeledTrial(f"trial {scores._key(unlabeled[0])} has no label")
    return tuple(values[codes == code].tolist() for code in range(3))
