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

A TrialTable is a trial list as columns: its IDs in order of first
appearance, enroll before test, an N x 2 int64 array of each trial's
codes (indices of that list) and int8 label codes. It iterates, indexes
and compares as the list of its Trials, repeats included.

A ScoreSet is columnar: a vocabulary (a dict coding each ID 0, 1, ...
in insertion order), one int64 key per record (enroll code << 32 | test
code) with the keys' stable argsort order, int8 label codes (the label's
index in LABELS) and float64 scores. The sorted keys are the duplicate
check; `in`, `score_of` and `scores_in_order_of` find keys with
`searchsorted`, after one dict lookup per ID of another vocabulary. No
set changes a vocabulary it holds, so sets share them: `score_trials`
codes IDs by EmbeddingSet row, and a set derived by `with_scores` (in
cascade and ensemble) shares all but the scores; `append` builds new
columns, and a new vocabulary for a new ID.
"""

from collections import defaultdict, namedtuple
from enum import Enum
from itertools import chain, count, groupby, repeat

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
_TEST_CODE = (1 << 32) - 1  # the low bits of a ScoreSet key


class TrialTable:
    """A trial list as columns (see the module docstring)."""

    def __init__(self, trials=()):
        enroll, test, labels = tuple(zip(*trials)) or ((), (), ())
        vocab = defaultdict(count().__next__)
        codes = list(map(vocab.__getitem__, chain.from_iterable(zip(enroll, test))))
        vars(self).update(vars(TrialTable._of_codes(
            list(vocab), codes, list(map(LABEL_CODE.__getitem__, labels)))))

    @classmethod
    def _of_codes(cls, ids, codes, labels):
        """The trials whose enroll and test codes of `ids` pair up in `codes`."""
        out = cls.__new__(cls)
        out._ids, out._codes = ids, _readonly(np.asarray(codes, np.int64).reshape(-1, 2))
        out._labels = _readonly(np.asarray(labels, np.int8))
        return out

    def __len__(self):
        return len(self._labels)

    def __iter__(self):
        ids = map(self._ids.__getitem__, self._codes.ravel().tolist())
        return map(Trial._make, zip(ids, ids, map(LABELS.__getitem__, self._labels.tolist())))

    def __getitem__(self, i):
        enroll, test = self._codes[i].tolist()
        return Trial._make((self._ids[enroll], self._ids[test], LABELS[self._labels[i]]))

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, (list, TrialTable)) else NotImplemented


class ScoreSet:
    """Ordered (trial, score) records with unique (enroll, test) pairs.

    Stored as columns (see the module docstring); iteration builds each
    record's Trial on the fly from IDs that `from_columns` has checked.
    """

    def __init__(self, records=()):
        trials, scores = tuple(zip(*records)) or ((), ())
        t = TrialTable(trials)
        vocab = dict(zip(t._ids, count()))
        vars(self).update(vars(ScoreSet._of_codes(vocab, *t._codes.T, t._labels, scores)))

    @classmethod
    def from_columns(cls, enroll, test, labels, scores):
        """A ScoreSet from whole columns: enroll IDs, test IDs, label
        codes (see LABELS) and scores, one entry per record.

        Raises ValueError for a non-finite score or DuplicateTrial for a
        repeated (enroll, test) pair, whichever record comes first, as
        appending the records one by one would; the exception's `row` is
        that record's row.
        """
        vocab = defaultdict(count().__next__)  # codes in order of first appearance
        enroll, test = (np.fromiter(map(vocab.__getitem__, c), np.int64) for c in (enroll, test))
        vocab.default_factory = None
        return cls._of_codes(vocab, enroll, test, labels, scores)

    @classmethod
    def _of_codes(cls, vocab, enroll, test, labels, scores, order=None):
        """`from_columns` of IDs given as codes of `vocab`, a dict coding
        its IDs 0, 1, ... in insertion order, which the set then shares;
        `order` is the keys' stable argsort order, when the caller has it."""
        enroll, test = np.asarray(enroll, np.int64), np.asarray(test, np.int64)
        labels, scores = np.array(labels, np.int8), np.array(scores, np.float64)
        n = enroll.size
        if not (test.size == labels.size == scores.size == n and scores.ndim == 1):
            raise ValueError("score set columns differ in length")
        if not all(vocab):
            raise ValueError("trial IDs must be non-empty")
        if n and not (labels.min() >= 0 and labels.max() < len(LABELS)):
            raise ValueError("unknown label code")
        out = cls.__new__(cls)
        out._vocab, out._keys = vocab, _readonly(enroll << 32 | test)
        order = np.argsort(out._keys, kind="stable") if order is None else order
        ordered = out._keys[order]
        # the stable order puts each record after the earlier ones with its key
        repeats = order[1:][ordered[1:] == ordered[:-1]]
        duplicate = int(repeats.min()) if repeats.size else n
        # a record with a non-finite score fails before it is a duplicate
        out._check_finite(scores[: duplicate + 1])
        if duplicate < n:
            raise _at_row(DuplicateTrial(f"duplicate trial {out._key(duplicate)}"), duplicate)
        out._order, out._labels, out._scores = map(_readonly, (order, labels, scores))
        return out

    def _check_finite(self, scores):
        """Raise ValueError for the first non-finite score."""
        bad = np.flatnonzero(~np.isfinite(scores))
        if bad.size:
            row = int(bad[0])
            raise _at_row(ValueError(f"non-finite score for trial {self._key(row)}"), row)

    def _key(self, row):
        ids, key = list(self._vocab), int(self._keys[row])
        return ids[key >> 32], ids[key & _TEST_CODE]

    def _rows(self, vocab, keys):
        """The row of each of `keys`, coded in `vocab`, or -1 where the set
        lacks it; another vocabulary costs one dict lookup per ID."""
        if vocab is not self._vocab:  # an unknown ID's code -1 makes a key < 0
            code = np.fromiter(map(self._vocab.get, vocab, repeat(-1)), np.int64, len(vocab))
            keys = code[keys >> 32] << 32 | code[keys & _TEST_CODE]
        if not len(self):
            return np.full(len(keys), -1)
        rows = self._order.take(np.searchsorted(self._keys, keys, sorter=self._order), mode="clip")
        return np.where(self._keys[rows] == keys, rows, -1)

    def _row(self, key):
        """The row of an (enroll, test) pair, or -1."""
        vocab = self._vocab
        if not (isinstance(key, tuple) and len(key) == 2 and key[0] in vocab and key[1] in vocab):
            return -1
        return self._rows(vocab, np.array([vocab[key[0]] << 32 | vocab[key[1]]]))[0]

    def with_scores(self, scores):
        """A set of this set's records, in this order and with these
        labels, holding new scores; it shares this set's vocabulary, keys
        and labels. Raises ValueError on the first non-finite score."""
        scores = np.array(scores, dtype=np.float64)
        if scores.shape != self._scores.shape:
            raise ValueError("score set columns differ in length")
        self._check_finite(scores)
        out = ScoreSet.__new__(ScoreSet)
        vars(out).update(vars(self), _scores=_readonly(scores))
        return out

    def scores_in_order_of(self, other):
        """This set's scores in the row order of `other`, or None when
        the two sets do not cover the same (enroll, test) pairs."""
        if other._keys is self._keys:
            return self._scores
        rows = self._rows(other._vocab, other._keys) if len(self) == len(other) else None
        return None if rows is None or (rows < 0).any() else self._scores[rows]

    def append(self, trial, score):
        """Add one record through the `from_columns` checks; the set
        takes on the new columns only after they pass. Each call copies
        every column, O(N); build a large set in bulk with
        `ScoreSet(records)` or `from_columns`."""
        vocab, ids = self._vocab, (trial.enroll_id, trial.test_id)
        if new := {*ids} - vocab.keys():  # a new dict, as other sets may share this one
            vocab = {**vocab, **dict(zip(new, count(len(vocab))))}
        enroll, test = map(vocab.__getitem__, ids)
        row = np.searchsorted(self._keys, enroll << 32 | test, "right", self._order)
        vars(self).update(vars(ScoreSet._of_codes(
            vocab, np.append(self._keys >> 32, enroll), np.append(self._keys & _TEST_CODE, test),
            np.append(self._labels, LABEL_CODE[trial.label]), np.append(self._scores, score),
            np.insert(self._order, row, len(self)))))

    def _records(self, size=1 << 62):
        """(enroll IDs, test IDs, label codes, scores) lists of each run
        of `size` records in order; one run, maybe empty, by default."""
        ids = np.fromiter(self._vocab, object, len(self._vocab))
        for lo in range(0, len(self) or 1, size):
            keys, run = self._keys[lo : lo + size], slice(lo, lo + size)
            yield (ids[keys >> 32].tolist(), ids[keys & _TEST_CODE].tolist(),
                   self._labels[run].tolist(), self._scores[run].tolist())

    def __len__(self):
        return len(self._keys)

    def __iter__(self):
        enroll, test, labels, scores = next(self._records())
        return zip(map(Trial._make, zip(enroll, test, map(LABELS.__getitem__, labels))), scores)

    def __contains__(self, key):
        return self._row(key) >= 0

    def score_of(self, key):
        if (row := self._row(key)) < 0:
            raise KeyError(key)
        return float(self._scores[row])

    def keys(self):
        return list(zip(*next(self._records())[:2]))

    def scores(self):
        return self._scores.copy()

    def columns(self):
        """(enroll IDs, test IDs, label codes, scores): two tuples and
        two read-only arrays, in record order."""
        enroll, test, _, _ = next(self._records())
        return tuple(enroll), tuple(test), self._labels, self._scores


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
