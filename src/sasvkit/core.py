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

A TrialTable is the one place where trial IDs are coded: the IDs in
order of first appearance, enroll before test, one int64 key per trial
(enroll code << 32 | test code, a code being an index of that list) and
int8 label codes (a label's index in LABELS). It iterates, indexes and
compares as the list of its Trials, repeats included. A table is never
changed, so many score sets share one; it is a trial list's one form
from drawer (`sampler`) or parser (`fileio`) to scorer or writer.

A ScoreSet is a TrialTable plus the keys' stable argsort order and a
float64 score column. The sorted keys are the duplicate check; `in`,
`score_of` and `scores_in_order_of` find keys with `searchsorted`, after
one dict lookup per ID for a key or a table of other IDs. `score_trials`
attaches its scores to the table it was given, and `with_scores` (in
cascade and ensemble) to its set's table; `append` builds a new table.
"""

import numbers
from collections import defaultdict, namedtuple
from enum import Enum
from functools import cached_property
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


# The label column of a TrialTable holds codes: a label's code is its
# index in LABELS, so 0/1/2 are target/nontarget/spoof.
LABELS = tuple(TrialLabel)
LABEL_CODE = {label: code for code, label in enumerate(LABELS)}
_UNLABELED = LABEL_CODE[TrialLabel.UNLABELED]
# a label field's token -> code; an unlabeled trial has no label field
TOKEN_CODE = {label.value: code for label, code in LABEL_CODE.items() if code != _UNLABELED}


def _is_k(k):
    """Whether `k` is an integer >= 1; a bool is not a count."""
    return isinstance(k, numbers.Integral) and not isinstance(k, bool) and k >= 1


class TrialTable:
    """A trial list as columns (see the module docstring)."""

    def __init__(self, trials=()):
        enroll, test, labels = tuple(zip(*trials)) or ((), (), ())
        vocab = defaultdict(count().__next__)
        codes = list(map(vocab.__getitem__, chain.from_iterable(zip(enroll, test))))
        vars(self).update(vars(TrialTable._of_codes(
            vocab, codes[0::2], codes[1::2], list(map(LABEL_CODE.__getitem__, labels)))))

    @classmethod
    def _of_codes(cls, ids, enroll, test, labels):
        """The trials of codes `enroll` and `test` into the iterable `ids`, kept as an object array."""
        out = cls.__new__(cls)
        keys = np.asarray(enroll, np.int64) << 32
        keys |= np.asarray(test, np.int64)
        out._ids, out._keys = np.fromiter(ids, object), _readonly(keys)
        out._labels = _readonly(np.asarray(labels, np.int8))
        return out

    @cached_property
    def _vocab(self):
        """The ID -> code dict of `_ids`, built on the first per-ID lookup."""
        return dict(zip(self._ids, count()))

    def _sides(self, values, rows=slice(None)):
        """`values`, an array over `_ids` such as `_ids` itself, at the
        enroll and at the test side of the trials at `rows`."""
        enroll, test = np.divmod(self._keys[rows], 1 << 32)
        return values[enroll], values[test]

    def __len__(self):
        return len(self._labels)

    def __iter__(self):
        enroll, test = self._sides(self._ids)
        return map(Trial._make, zip(enroll, test, map(LABELS.__getitem__, self._labels.tolist())))

    def __getitem__(self, i):
        enroll, test = self._sides(self._ids, i)
        return Trial._make((enroll, test, LABELS[self._labels[i]]))

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, (list, TrialTable)) else NotImplemented


class ScoreSet:
    """Ordered (trial, score) records with unique (enroll, test) pairs:
    a TrialTable plus scores (see the module docstring)."""

    def __init__(self, records=()):
        trials, scores = tuple(zip(*records)) or ((), ())
        vars(self).update(vars(ScoreSet._of_table(TrialTable(trials), scores)))

    @classmethod
    def from_columns(cls, enroll, test, labels, scores):
        """A ScoreSet from whole columns: enroll IDs, test IDs, integer
        label codes (see LABELS) and scores, one entry per record.

        Raises ValueError for a non-finite score or DuplicateTrial for a
        repeated (enroll, test) pair, whichever record comes first, as
        appending the records one by one would; the exception's `row` is
        that record's row.
        """
        enroll, test, labels = list(enroll), list(test), np.asarray(labels)
        if not (len(enroll) == len(test) == len(labels) and np.shape(scores) == labels.shape):
            raise ValueError("score set columns differ in length")
        if labels.size and not (labels.dtype.kind in "iu"
                                and 0 <= labels.min() <= labels.max() < len(LABELS)):
            raise ValueError("unknown label code")
        trials = map(Trial, enroll, test, map(LABELS.__getitem__, labels.tolist()))
        return cls._of_table(TrialTable(trials), scores)

    @classmethod
    def _of_table(cls, table, scores, order=None):
        """The records of `table`, which the set shares, with `scores`;
        `order` is the table keys' stable argsort order, when the caller
        has it. Raises as `from_columns` does."""
        scores, keys = np.array(scores, np.float64), table._keys
        if scores.shape != keys.shape:
            raise ValueError("score set columns differ in length")
        order = np.argsort(keys, kind="stable") if order is None else order
        ordered = keys[order]
        # the stable order puts each record after the earlier ones with its key
        repeats = order[1:][ordered[1:] == ordered[:-1]]
        duplicate = int(repeats.min()) if repeats.size else len(keys)
        # a record with a non-finite score fails before it is a duplicate
        bad = np.flatnonzero(~np.isfinite(scores[: duplicate + 1]))
        if bad.size:
            raise _at_row(ValueError(f"non-finite score for trial {table[bad[0]].key}"), int(bad[0]))
        if repeats.size:
            raise _at_row(DuplicateTrial(f"duplicate trial {table[duplicate].key}"), duplicate)
        out = cls.__new__(cls)
        out._table, out._order, out._scores = table, _readonly(order), _readonly(scores)
        return out

    def _row(self, key):
        """The row of an (enroll, test) pair, or -1."""
        vocab, keys, order = self._table._vocab, self._table._keys, self._order
        if not (isinstance(key, tuple) and len(key) == 2 and key[0] in vocab and key[1] in vocab):
            return -1
        code = vocab[key[0]] << 32 | vocab[key[1]]
        i = keys.searchsorted(code, sorter=order)
        return int(order[i]) if i < len(order) and keys[order[i]] == code else -1

    def with_scores(self, scores):
        """A set of this set's records, in this order and with these
        labels, holding new scores; it shares this set's table. Raises
        ValueError on the first non-finite score."""
        return ScoreSet._of_table(self._table, scores, self._order)

    def scores_in_order_of(self, other):
        """This set's scores in the row order of `other`, or None when the
        two sets do not cover the same (enroll, test) pairs; a set on a
        table of other IDs costs one dict lookup per ID."""
        own, table = self._table, other._table
        if len(self) != len(other):
            return None
        if table is own:
            return self._scores
        # the other table's keys in this table's codes: an unknown ID's -1 makes a key < 0
        code = np.fromiter(map(own._vocab.get, table._ids, repeat(-1)), np.int64, len(table._ids))
        enroll, test = table._sides(code)
        keys = enroll << 32 | test
        rows = self._order.take(own._keys.searchsorted(keys, sorter=self._order), mode="clip")
        return None if (own._keys[rows] != keys).any() else self._scores[rows]

    def append(self, trial, score):
        """Add one record through the `from_columns` checks; the set
        takes on the new table and columns only after they pass. Each
        call copies every column, O(N); build a large set in bulk with
        `ScoreSet(records)` or `from_columns`."""
        table = self._table
        vocab = dict(table._vocab)  # a new dict, as other tables may share this one
        enroll, test = [vocab.setdefault(id, len(vocab)) for id in trial.key]
        codes = np.append(np.divmod(table._keys, 1 << 32), [[enroll], [test]], axis=1)
        grown = TrialTable._of_codes(vocab, *codes, np.append(table._labels, LABEL_CODE[trial.label]))
        grown._vocab = vocab
        row = np.searchsorted(table._keys, enroll << 32 | test, "right", self._order)
        vars(self).update(vars(ScoreSet._of_table(
            grown, np.append(self._scores, score), np.insert(self._order, row, len(self)))))

    def __len__(self):
        return len(self._scores)

    def __iter__(self):
        return zip(self._table, self._scores.tolist())

    def __contains__(self, key):
        return self._row(key) >= 0

    def score_of(self, key):
        if (row := self._row(key)) < 0:
            raise KeyError(key)
        return float(self._scores[row])

    def keys(self):
        return list(zip(*self._table._sides(self._table._ids)))

    def scores(self):
        return self._scores.copy()

    def columns(self):
        """(enroll IDs, test IDs, label codes, scores): two tuples and
        two read-only arrays, in record order."""
        enroll, test = self._table._sides(self._table._ids)
        return tuple(enroll), tuple(test), self._table._labels, self._scores


def partition_scores(scores):
    """Split a fully labeled ScoreSet into (target, nontarget, spoof) lists.

    Lists keep the original record order. Raises UnlabeledTrial on the
    first record without a label.
    """
    codes, values = scores._table._labels, scores._scores
    unlabeled = np.flatnonzero(codes == _UNLABELED)
    if unlabeled.size:
        raise UnlabeledTrial(f"trial {scores._table[unlabeled[0]].key} has no label")
    return tuple(values[codes == code].tolist() for code in range(3))
