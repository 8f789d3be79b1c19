"""Span tracing of sasvkit's layers from outside the package.

`install` replaces every public function and method of the layer
modules with a wrapper, at each module attribute where callers look it
up: the defining module, modules that imported it by name (for example
`sampler.cosine`) and the package namespace. Methods are patched on
their class, so nested calls such as `EmbeddingSet.matrix` inside
`score_trials` are seen. Each call records a span (name, start, end,
parent span, iteration id) in flat arrays held in memory; `dump`
writes them out at the end. A few hooks also record counts at the same
boundaries; their work runs in `bench.hook` spans, outside every layer.
"""

import array
import functools
import importlib
import inspect
import os
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("fileio", "core", "scoring", "metrics", "moe", "losses", "sampler", "cli")
BINARY_MAGIC = b"SASVEMB1"
HOOK_SPAN = "bench.hook"


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array.array("d")
        self.end = array.array("d")
        self.name = array.array("i")
        self.parent = array.array("i")
        self.iteration = array.array("i")
        self.counts = {}  # (iteration, key) -> total
        self._stack = [-1]
        self._iter = [0]
        self._undo = []

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def set_iteration(self, i):
        self._iter[0] = i

    def count(self, key, value):
        k = (self._iter[0], key)
        self.counts[k] = self.counts.get(k, 0) + value

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, e.g. one iteration."""
        idx = self._open(self.name_id(name))
        try:
            yield idx
        finally:
            self._close(idx)

    def _open(self, nid):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.iteration.append(self._iter[0])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, pre=None, post=None):
        """`fn` recording a span per call. `pre(args, kwargs)` may return
        a name suffix; `post(tracer, args, kwargs, result)` counts. Hooks
        run in spans of their own, so callers' self time excludes them."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n = nid
            if pre is not None:
                with self.span(HOOK_SPAN):
                    n = self.name_id(f"{name}.{pre(args, kwargs)}")
            idx = self._open(n)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if post is not None:
                with self.span(HOOK_SPAN):
                    post(self, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Patch sasvkit's layer modules; `uninstall` restores them."""
        pkg = importlib.import_module("sasvkit")
        mods = [importlib.import_module(f"sasvkit.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, mods):
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self.wrap(obj, f"{layer}.{attr}", **HOOKS.get(f"{layer}.{attr}", {}))
                elif inspect.isclass(obj):
                    self._patch_class(obj, f"{layer}.{attr}")
        for mod in [pkg] + mods:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])

    def _patch_class(self, cls, prefix):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            hooks = HOOKS.get(name, {})
            if isinstance(member, (classmethod, staticmethod)):
                self._set(cls, attr, type(member)(self.wrap(member.__func__, name, **hooks)))
            elif inspect.isfunction(member):
                self._set(cls, attr, self.wrap(member, name, **hooks))

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self, path):
        keys = list(self.counts)
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            iteration=np.frombuffer(self.iteration, dtype=np.int32),
            count_iter=np.array([k[0] for k in keys], dtype=np.int64),
            count_key=np.array([k[1] for k in keys], dtype=str),
            count_value=np.array([self.counts[k] for k in keys], dtype=np.float64),
        )

    def merge(self, path, parent_span):
        """Append spans and counts dumped by a child process, re-parenting
        its root spans under `parent_span` in the current iteration."""
        with np.load(path) as d:
            remap = np.array([self.name_id(n) for n in d["names"]], dtype=np.int32)
            base = len(self.name)
            parent = d["parent"].astype(np.int64)
            parent = np.where(parent < 0, parent_span, parent + base)
            self.start.extend(d["start"].tolist())
            self.end.extend(d["end"].tolist())
            self.name.extend(remap[d["name"]].tolist())
            self.parent.extend(parent.tolist())
            self.iteration.extend([self._iter[0]] * len(parent))
            for key, value in zip(d["count_key"].tolist(), d["count_value"].tolist()):
                self.count(key, value)


# ------------------------------------------------------------- count hooks


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _size(path):
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


def _embedding_format(args, kwargs):
    fmt = args[1] if len(args) > 1 else kwargs.get("format", "auto")
    path = _arg(args, kwargs, 0, "path_or_stream")
    if fmt == "auto" and isinstance(path, (str, os.PathLike)):
        with open(path, "rb") as fh:
            fmt = "binary" if fh.read(8) == BINARY_MAGIC else "text"
    return fmt


def _read(t, args, kwargs, result):
    t.count("fileio.bytes_read", _size(_arg(args, kwargs, 0, "path_or_stream")))
    t.count("fileio.rows", len(result))


def _written(t, args, kwargs, result):
    t.count("fileio.bytes_written", _size(_arg(args, kwargs, 1, "path_or_stream")))
    t.count("fileio.rows", len(_arg(args, kwargs, 0, "scores")))


def _matrix(t, args, kwargs, result):
    t.count("core.EmbeddingSet.matrix.bytes", result.nbytes)


def _side_lookups(t, args, kwargs, result):
    cohort = args[2] if len(args) > 2 else kwargs.get("cohort")
    if cohort is not None:
        t.count("scoring.side_lookups", 2 * len(result))


def _asnorm_work(t, args, kwargs, result):
    # one probe against the whole cohort: a (cohort x D) GEMV in float64
    cohort = _arg(args, kwargs, 1, "cohort")
    t.count("scoring.asnorm.flop", 2 * len(cohort) * cohort.dim)
    t.count("scoring.asnorm.bytes", 8 * len(cohort) * cohort.dim)


def _rejected(t, args, kwargs, result):
    reject = _arg(args, kwargs, 2, "cfg").reject_score
    t.count("scoring.cascade.rejected", sum(1 for _, s in result if s == reject))


def _pairs(t, args, kwargs, result):
    # active = nonzero self-paced weight at the default CircleConfig
    from sasvkit.losses import CircleConfig

    cc = CircleConfig()
    t.count("losses.pairs", result.s_p.size + result.s_n.size)
    t.count("losses.active_pairs",
            int(np.sum(result.s_p < cc.o_p)) + int(np.sum(result.s_n > cc.o_n)))


def _coverage(t, args, kwargs, result):
    dataset = _arg(args, kwargs, 0, "dataset")
    if result:
        # distinct utterances drawn, told apart by a random projection of
        # their feature rows (equal rows give equal keys)
        rows = np.concatenate([f for f, _ in result])
        keys = rows @ np.random.default_rng(0).standard_normal(rows.shape[1])
        t.count("sampler.pk.drawn", np.unique(keys).size)
    t.count("sampler.pk.total", sum(m.shape[0] for m in dataset.speakers.values()))


def _thresholds(classes):
    def hook(t, args, kwargs, result):
        scores = _arg(args, kwargs, 0, "scores")
        values = {s for trial, s in scores if trial.label.value in classes}
        t.count("metrics.thresholds", len(values) + 2)

    return hook


HOOKS = {
    "fileio.parse_embeddings": {"pre": _embedding_format, "post": _read},
    "fileio.parse_trials": {"post": _read},
    "fileio.parse_scores": {"post": _read},
    "fileio.write_scores": {"post": _written},
    "core.EmbeddingSet.matrix": {"post": _matrix},
    "scoring.score_trials": {"post": _side_lookups},
    "scoring.top_k_cohort_scores": {"post": _asnorm_work},
    "scoring.cascade": {"post": _rejected},
    "losses.mine_pairs": {"post": _pairs},
    "sampler.pk_batches": {"post": _coverage},
    "metrics.sv_eer": {"post": _thresholds({"target", "nontarget"})},
    "metrics.spf_eer": {"post": _thresholds({"target", "spoof"})},
    "metrics.a_dcf": {"post": _thresholds({"target", "nontarget", "spoof"})},
    "metrics.det_points": {"post": _thresholds({"target", "nontarget", "spoof"})},
}


# ---------------------------------------------------------------- analysis


def per_iteration(tracer, iterations):
    """{iteration: {"dur": {name: s}, "self": {name: s}, "calls": {name: n},
    "counts": {key: v}}} over the given iteration ids."""
    n = len(tracer.name)
    start = np.frombuffer(tracer.start, dtype=np.float64)
    dur = np.frombuffer(tracer.end, dtype=np.float64) - start
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    has_parent = parent >= 0
    # nested spans of one thread never overlap, so the covered part of a
    # span is the sum of its children's durations
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    own = dur - covered
    name = np.frombuffer(tracer.name, dtype=np.int32)
    it = np.frombuffer(tracer.iteration, dtype=np.int32)
    out = {}
    for i in iterations:
        sel = it == i
        ids = name[sel]
        k = len(tracer.names)
        d = np.bincount(ids, weights=dur[sel], minlength=k)
        s = np.bincount(ids, weights=own[sel], minlength=k)
        c = np.bincount(ids, minlength=k)
        out[i] = {
            "dur": dict(zip(tracer.names, d.tolist())),
            "self": dict(zip(tracer.names, s.tolist())),
            "calls": dict(zip(tracer.names, c.tolist())),
            "counts": {key: v for (j, key), v in tracer.counts.items() if j == i},
        }
    return out
