"""sasvkit benchmark: three fixed-seed SASV workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program is the checkout's own
`src/sasvkit`, driven through its public functions in this process and
through CLI subprocesses, one at a time, with PYTHONPATH=src; each runs
`sasvkit.cli.main` under cli_shim.py, which also reports the child's
peak memory. Every input is generated from --seed (see inputs.py)
and every output is checked against the numpy references in oracles.py.

Each workload is a closed loop: an iteration starts when the previous
one ends, and no iteration starts that would, at the last one's pace,
end after --seconds of timed iterations. On the in-process workloads
the first iteration is a warm-up: its outputs are checked but its time
is not counted. At least one timed iteration always runs (with
--trace 1, one traced and one untraced).

  eval-asnorm  in-process: moe.fuse of 13-layer stacks -> parse binary
               cohort and trial list -> raw cosine and AS-Norm scoring ->
               write_scores, parse spoof-detector scores -> cascade,
               ensemble -> sv_eer, spf_eer, a_dcf, det_points.
  cli-chain    `sasvkit score` (no cohort) -> cascade -> ensemble of
               three files -> eval, on text files.
  train-pk     gen_synthetic, eval_toy, 100 PK-batch SGD steps of
               train_toy, eval_toy again.

With --trace 0 the last stdout line holds the end-to-end metrics:
  setup_s      median wall time of 7 fresh interpreters running
               `import sasvkit.cli`.
  trials_per_s trials carried from input to metric output per second of
               iteration (train-pk: the held-out trials of both eval_toy
               calls). The iteration time is the median over timed
               iterations; on cli-chain it is the sum over the four
               sasvkit commands of each command's median wall time.
  steps_per_s  steps per second of iteration: SGD steps on train-pk,
               the six pipeline stages above on eval-asnorm and the four
               sasvkit calls on cli-chain.
  peak_rss_mb  peak resident memory (VmHWM) of the process doing the
               work: this process for in-process workloads, where the
               generated inputs are kept small next to the program's own
               data, and the largest sasvkit subprocess on cli-chain.
Failed iterations (an exception, a nonzero exit or an oracle mismatch)
are counted in "failed"; the error rate is failed / attempted and is
also in the meta line.

With --trace 1 the run alternates untraced and traced iterations; the
traced ones record a span per call of every public sasvkit function and
method (tracer.py) and the last line holds the per-layer metrics:
medians over traced iterations of per-iteration totals, with the tracing
overhead against the untraced iterations. A layer a workload does not
use reads 0. Spans are written to .bench_work/spans-<workload>-<seed>.npz.
Counts marked "computed" in the meta line (AS-Norm flop and bytes,
bytes restacked by EmbeddingSet.matrix, pairs per step) are derived
from shapes at the call boundary, not measured.

The line before the last one is {"meta": ...}: machine, library
versions, BLAS thread setting, seed, input sizes and sample counts.
"""

import os

# pinned before numpy loads, in this process and every subprocess, so
# that commits are compared with the same BLAS setting
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import oracles  # noqa: E402
import tracer as tracing  # noqa: E402
from cli_shim import peak_rss_kb  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}

SD_THRESHOLD = 0.0
REJECT_SCORE = -5.0
SETUP_SAMPLES = 7
CHUNK = 200  # utterances per generation / reference step, to bound memory

SIZES = {
    "eval-asnorm": {"speakers": 40, "bona": 16, "spoof": 4, "cohort_speakers": 200,
                    "cohort_utts": 5, "layers": 13, "dim": 192, "gate_top_k": 3,
                    "trials": 8000, "top_k": 300},
    "cli-chain": {"speakers": 100, "bona": 16, "spoof": 4, "dim": 192, "trials": 20000},
    "train-pk": {"speakers": 100, "utts": 40, "d_in": 64, "noise": 0.15, "emb": 32,
                 "steps": 100, "P": 16, "K": 8, "lr": 0.05, "eval_trials": 2000},
}

END_TO_END = {"setup_s": "s", "trials_per_s": "1/s", "steps_per_s": "1/s", "peak_rss_mb": "MB"}


def load_sasvkit():
    """Import the checkout's own sasvkit; exit nonzero if it is missing."""
    sys.path.insert(0, str(SRC))
    try:
        import sasvkit
    except ImportError as e:
        sys.exit(f"perfbench: cannot import sasvkit from {SRC}: {e}")
    if Path(sasvkit.__file__).resolve().parent != SRC / "sasvkit":
        sys.exit(f"perfbench: imported sasvkit from {sasvkit.__file__}, not {SRC}")
    import sasvkit.cli  # noqa: F401  (loads every layer module)

    return sasvkit


def _scores(scoreset):
    return np.array([s for _, s in scoreset], dtype=np.float64)


def _same_keys(scoreset, keys):
    return len(scoreset) == len(keys) and all(
        (t.enroll_id, t.test_id, t.label.value) == k for (t, _), k in zip(scoreset, keys))


def _read_scores(path):
    """(keys with labels, scores) of a score file, in file order."""
    keys, scores = [], []
    with open(path) as fh:
        for line in fh:
            e, t, s, label = line.split()
            keys.append((e, t, label))
            scores.append(float(s))
    return keys, np.array(scores)


class EvalAsnorm:
    steps = 6
    warm_up = True

    def __init__(self, sv, rng, size, work):
        self.sv, self.size = sv, size
        D, L = size["dim"], size["layers"]
        pop = inputs.population(rng, size["speakers"], size["bona"], size["spoof"], D)
        cohort = inputs.population(rng, size["cohort_speakers"], size["cohort_utts"], 0, D,
                                   prefix="coh")
        # the final layer is the utterance embedding; shallower layers
        # carry less of it and more layer noise. Stacks are float32 and
        # built in chunks so the generated inputs stay small next to the
        # program's own memory, which peak_rss_mb reports.
        mix = np.linspace(0.2, 1.0, L, dtype=np.float32)[None, :, None]
        n = len(pop.ids)
        self.stacks = np.empty((n, L, D), dtype=np.float32)
        for lo in range(0, n, CHUNK):
            noise = rng.standard_normal((min(CHUNK, n - lo), L, D), dtype=np.float32)
            self.stacks[lo:lo + CHUNK] = (mix * pop.emb[lo:lo + CHUNK, None, :]
                                          + (1.0 - mix) * noise / np.float32(np.sqrt(D)))
        self.gate = (0.5 * rng.standard_normal((L - 1, D)), 0.5 * rng.standard_normal(L - 1))
        trials = inputs.trial_list(rng, pop, size["trials"])
        self.ids, self.cohort_emb, self.trials = pop.ids, cohort.emb, trials
        self.trials_n = len(trials)
        self.paths = {k: str(work / f) for k, f in (
            ("cohort", "cohort.bin"), ("trials", "trials.txt"), ("sd", "sd.txt"),
            ("out", "asnorm.txt"))}
        inputs.write_embeddings_binary(self.paths["cohort"], cohort.ids, cohort.emb)
        inputs.write_trials(self.paths["trials"], pop.ids, trials)
        self.sd = pop.sd[trials.test]
        inputs.write_scores(self.paths["sd"], pop.ids, trials, self.sd, rng.permutation(len(trials)))
        self.fused_ref = np.concatenate([
            oracles.fuse(self.stacks[lo:lo + CHUNK], *self.gate, size["gate_top_k"])
            for lo in range(0, n, CHUNK)])
        self.keys_ref = [(pop.ids[e], pop.ids[t], inputs.LABELS[lab])
                         for e, t, lab in zip(trials.enroll, trials.test, trials.label)]
        self._score_refs(self.fused_ref.astype(np.float32))

    def _score_refs(self, emb):
        t = self.trials
        raw = oracles.cosine_pairs(emb, t.enroll, t.test)
        normed = oracles.as_norm(emb, self.cohort_emb, t.enroll, t.test, self.size["top_k"])
        cascaded = oracles.cascade(self.sd, normed, SD_THRESHOLD, REJECT_SCORE)
        self._emb_ref = emb
        self._refs = (raw, normed, cascaded, oracles.ensemble([raw, cascaded], [1.0, 2.0]))

    def run(self, tracer):
        sv, size = self.sv, self.size
        gate = sv.moe.GateParams(weight=self.gate[0], bias=self.gate[1], top_k=size["gate_top_k"])
        fused = [sv.moe.fuse(sv.moe.LayerStack(stack), gate) for stack in self.stacks]
        embeddings = sv.core.EmbeddingSet(
            sv.core.Embedding(uid, f) for uid, f in zip(self.ids, fused))
        cohort = sv.fileio.parse_embeddings(self.paths["cohort"])
        trials = sv.fileio.parse_trials(self.paths["trials"])
        raw = sv.scoring.score_trials(trials, embeddings)
        normed = sv.scoring.score_trials(trials, embeddings, cohort,
                                         sv.scoring.AsNormConfig(top_k=size["top_k"]))
        sv.fileio.write_scores(normed, self.paths["out"])
        sd = sv.fileio.parse_scores(self.paths["sd"])
        cascaded = sv.scoring.cascade(sd, normed, sv.scoring.CascadeConfig(SD_THRESHOLD, REJECT_SCORE))
        ens = sv.scoring.ensemble([raw, cascaded], [1.0, 2.0])
        results = (sv.metrics.sv_eer(ens), sv.metrics.spf_eer(ens), sv.metrics.a_dcf(ens),
                   sv.metrics.det_points(ens))
        return fused, embeddings, raw, normed, cascaded, ens, results

    def check(self, out):
        fused, embeddings, raw, normed, cascaded, ens, (sv_eer, spf_eer, adcf, det) = out
        errors = []
        if not oracles.close(np.array(fused), self.fused_ref):
            errors.append("moe.fuse differs from the reference fusion")
        # scores are checked against references built from the float32
        # embeddings handed to scoring: a 1-ulp float64 difference in the
        # fusion may round a component to the neighbouring float32
        emb = np.stack([e.values for e in embeddings])
        if not np.array_equal(emb, self._emb_ref):
            self._score_refs(emb)
        for name, got, ref in zip(("raw cosine", "AS-Norm", "cascade", "ensemble"),
                                  (raw, normed, cascaded, ens), self._refs):
            if not _same_keys(got, self.keys_ref) or not oracles.close(_scores(got), ref):
                errors.append(f"{name} scores differ from the reference")
        keys, written = _read_scores(self.paths["out"])
        if keys != self.keys_ref or not np.array_equal(written, _scores(normed)):
            errors.append("write_scores output does not read back to the scores")
        scores, labels = _scores(ens), self.trials.label
        taus, p_miss, p_fa_non, p_fa_spf = oracles.det(scores, labels)
        got_det = np.array([[p.threshold, p.p_miss, p.p_fa_nontarget, p.p_fa_spoof] for p in det])
        for name, got, ref in (
            ("sv_eer", sv_eer, oracles.eer(scores, labels, 0, 1)),
            ("spf_eer", spf_eer, oracles.eer(scores, labels, 0, 2)),
            ("a_dcf", adcf, oracles.a_dcf(scores, labels)),
            ("det_points", got_det.T, (taus, p_miss, p_fa_non, p_fa_spf)),
        ):
            if not oracles.close(np.array(got, dtype=float), np.array(ref, dtype=float)):
                errors.append(f"{name} differs from the threshold-sweep reference")
        return errors


class CliChain:
    steps = 4
    # every command is a fresh process, and setup_times has already
    # written the bytecode cache
    warm_up = False
    WEIGHTS = (1.0, 2.0, 0.5)

    def __init__(self, sv, rng, size, work):
        self.child_peak_kb = 0  # largest sasvkit subprocess so far
        self.command_s = {}  # wall time of each sasvkit command, last iteration
        pop = inputs.population(rng, size["speakers"], size["bona"], size["spoof"], size["dim"])
        trials = inputs.trial_list(rng, pop, size["trials"])
        self.trials_n, self.work = len(trials), work
        self.paths = {k: str(work / f) for k, f in (
            ("emb", "emb.txt"), ("trials", "trials.txt"), ("sd", "sd.txt"), ("sys2", "sys2.txt"),
            ("asv", "asv.txt"), ("casc", "cascaded.txt"), ("ens", "ensemble.txt"))}
        inputs.write_embeddings_text(self.paths["emb"], pop.ids, pop.emb)
        inputs.write_trials(self.paths["trials"], pop.ids, trials)
        sd = pop.sd[trials.test]
        # a second verifier: label-dependent scores, independent of the first
        mean = np.array([0.5, 0.0, 0.4])[trials.label]
        sys2 = mean + 0.2 * rng.standard_normal(len(trials))
        inputs.write_scores(self.paths["sd"], pop.ids, trials, sd, rng.permutation(len(trials)))
        inputs.write_scores(self.paths["sys2"], pop.ids, trials, sys2, rng.permutation(len(trials)))
        raw = oracles.cosine_pairs(pop.emb, trials.enroll, trials.test)
        casc = oracles.cascade(sd, raw, SD_THRESHOLD, REJECT_SCORE)
        self.refs = {"asv": raw, "casc": casc, "ens": oracles.ensemble([raw, casc, sys2], self.WEIGHTS)}
        self.keys_ref = [(pop.ids[e], pop.ids[t], inputs.LABELS[lab])
                         for e, t, lab in zip(trials.enroll, trials.test, trials.label)]

    def _cli(self, tracer, command, *args):
        peak, spans = str(self.work / "child-peak"), str(self.work / "child-spans.npz")
        argv = [sys.executable, str(HERE / "cli_shim.py"), peak,
                "-" if tracer is None else spans, command, *args]
        if tracer is None:
            t0 = time.perf_counter()
            proc = subprocess.run(argv, env=CHILD_ENV, capture_output=True, text=True)
            self.command_s[command] = time.perf_counter() - t0
        else:
            with tracer.span(f"cli.{command}") as idx:
                proc = subprocess.run(argv, env=CHILD_ENV, capture_output=True, text=True)
            tracer.merge(spans, idx)
        if proc.returncode != 0:
            raise RuntimeError(f"sasvkit {command} exited {proc.returncode}: {proc.stderr.strip()}")
        with open(peak) as fh:
            self.child_peak_kb = max(self.child_peak_kb, int(fh.read()))
        return proc.stdout

    def run(self, tracer):
        self.command_s = {}
        p = self.paths
        self._cli(tracer, "score", "--trials", p["trials"], "--embeddings", p["emb"], "--out", p["asv"])
        self._cli(tracer, "cascade", "--sd-scores", p["sd"], "--asv-scores", p["asv"],
                  "--threshold", repr(SD_THRESHOLD), "--reject-score", repr(REJECT_SCORE),
                  "--out", p["casc"])
        self._cli(tracer, "ensemble", "--in", ",".join((p["asv"], p["casc"], p["sys2"])),
                  "--weights", ",".join(map(repr, self.WEIGHTS)), "--out", p["ens"])
        return self._cli(tracer, "eval", "--scores", p["ens"])

    def check(self, report):
        errors = []
        for name in ("asv", "casc", "ens"):
            keys, scores = _read_scores(self.paths[name])
            if keys != self.keys_ref or not oracles.close(scores, self.refs[name]):
                errors.append(f"{name} score file differs from the reference")
        printed = dict(line.split("=", 1) for line in report.splitlines()
                       if "=" in line and not line.startswith("#"))
        # the metric references start from the file eval read
        labels = np.array([inputs.LABELS.index(k[2]) for k in keys])
        for name, ref in oracles.eval_report(scores, labels).items():
            # eval prints 6 digits after the point
            if name not in printed or abs(float(printed[name]) - ref) > 5e-7 + oracles.TOL:
                errors.append(f"eval {name}={printed.get(name)} differs from the reference {ref!r}")
        return errors


class TrainPk:
    warm_up = True

    def __init__(self, sv, rng, size, work):
        self.sv, self.size = sv, size
        self.seeds = [int(s) for s in rng.integers(2**31, size=4)]
        self.steps = size["steps"]
        self.trials_n = 2 * size["eval_trials"]
        self.history_ref = None

    def run(self, tracer):
        sv, z = self.sv, self.size
        data_seed, model_seed, pk_seed, eval_seed = self.seeds
        dataset = sv.sampler.gen_synthetic(z["speakers"], z["utts"], z["d_in"], z["noise"], data_seed)
        model0 = sv.sampler.ToyModel.random(z["emb"], z["d_in"], z["speakers"], seed=model_seed)
        before = sv.sampler.eval_toy(model0, dataset, z["eval_trials"], seed=eval_seed)
        eer_before = sv.metrics.sv_eer(before)
        model, history = sv.sampler.train_toy(
            dataset, model0, sv.sampler.TrainConfig(steps=z["steps"], learning_rate=z["lr"]),
            sv.sampler.PkConfig(P=z["P"], K=z["K"], seed=pk_seed))
        after = sv.sampler.eval_toy(model, dataset, z["eval_trials"], seed=eval_seed)
        eer_after = sv.metrics.sv_eer(after)
        return before, eer_before, after, eer_after, history

    def check(self, out):
        before, eer_before, after, eer_after, history = out
        errors = []
        if self.history_ref is None:
            self.history_ref = history
        if history != self.history_ref or len(history) != self.steps:
            errors.append("loss history differs from the first iteration's")
        if not eer_after[0] < eer_before[0] / 2:
            errors.append(f"held-out SV-EER {eer_before[0]} -> {eer_after[0]} did not halve")
        for scores, got in ((before, eer_before), (after, eer_after)):
            labels = np.array([inputs.LABELS.index(t.label.value) for t, _ in scores])
            if not oracles.close(np.array(got), np.array(oracles.eer(_scores(scores), labels, 0, 1))):
                errors.append("sv_eer differs from the threshold-sweep reference")
        return errors


WORKLOADS = {"eval-asnorm": EvalAsnorm, "cli-chain": CliChain, "train-pk": TrainPk}


def setup_times(n):
    """Wall times of fresh interpreters importing sasvkit.cli (one
    untimed warm-up first, which also writes the bytecode cache)."""
    times = []
    for i in range(n + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import sasvkit.cli"], env=CHILD_ENV, check=True)
        if i:
            times.append(time.perf_counter() - t0)
    return times


def typical_iteration_s(times, parts):
    """Median iteration time or, when each iteration is made of timed
    parts (the sasvkit commands of cli-chain), the sum of each part's
    median, which a stall in one part moves less."""
    if parts:
        return sum(statistics.median(p[name] for p in parts) for name in parts[0])
    return statistics.median(times)


def layer_metrics(tracer, traced, untraced):
    """Per-layer metrics: medians over traced iterations of per-iteration
    values, plus the tracing overhead against the untraced iterations."""
    rows = []
    for agg in tracing.per_iteration(tracer, traced).values():
        d, own, calls, k = agg["dur"], agg["self"], agg["calls"], agg["counts"]
        it_s = d["bench.iteration"]
        v = {f"{name}.s": d.get(name, 0.0) for name in TIMED}
        v.update({f"{name}.self_s": own.get(name, 0.0) for name in SELF_TIMED})
        v.update({f"{name}.calls": calls.get(name, 0) for name in CALLED})
        v.update({name: k.get(name, 0) for name in COUNTED})
        v["cli.startup.s"] = sum(own.get(f"cli.{c}", 0.0) for c in CLI_COMMANDS)
        lookups = k.get("scoring.side_lookups", 0)
        v["scoring.side_cache.hit_ratio"] = (
            1 - calls.get("scoring.top_k_cohort_scores", 0) / lookups if lookups else 0.0)
        top_s = d.get("scoring.top_k_cohort_scores", 0.0)
        v["scoring.asnorm.gflops"] = k.get("scoring.asnorm.flop", 0) / top_s / 1e9 if top_s else 0.0
        mined = calls.get("losses.mine_pairs", 0)
        pairs = k.get("losses.pairs", 0)
        v["losses.pairs_per_step"] = pairs / mined if mined else 0.0
        v["losses.active_pair_ratio"] = k.get("losses.active_pairs", 0) / pairs if pairs else 0.0
        total = k.get("sampler.pk.total", 0)
        v["sampler.pk.coverage"] = k.get("sampler.pk.drawn", 0) / total if total else 0.0
        layer_self = dict.fromkeys(tracing.LAYERS, 0.0)
        for name, s in own.items():
            layer = name.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += s
        v.update({f"{layer}.self_share": s / it_s for layer, s in layer_self.items()})
        v["trace.iteration_s"] = it_s
        rows.append(v)
    out = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    out["trace.untraced_iteration_s"] = statistics.median(untraced)
    out["trace.overhead_ratio"] = out["trace.iteration_s"] / out["trace.untraced_iteration_s"]
    return out


CLI_COMMANDS = ("score", "cascade", "ensemble", "eval")
TIMED = (
    "scoring.top_k_cohort_scores", "scoring.cohort_stats", "core.EmbeddingSet.matrix",
    "scoring.cosine", "scoring.cascade", "scoring.ensemble", "core.partition_scores",
    "fileio.parse_embeddings.text", "fileio.parse_embeddings.binary", "fileio.parse_trials",
    "fileio.parse_scores", "fileio.write_scores", *(f"cli.{c}" for c in CLI_COMMANDS),
    "losses.sphereface_loss", "losses.mine_pairs", "losses.circle_loss",
    "sampler.pk_batches", "sampler.eval_toy",
    "metrics.sv_eer", "metrics.spf_eer", "metrics.a_dcf", "metrics.det_points",
    "moe.fuse", "moe.gate_probs", "moe.top_k_mask",
)
SELF_TIMED = ("scoring.score_trials", "losses.combined_loss", "sampler.train_toy")
CALLED = ("scoring.top_k_cohort_scores", "core.EmbeddingSet.matrix", "scoring.cosine",
          "core.ScoreSet.append", "core.ScoreSet.score_of", "moe.fuse")
COUNTED = {"scoring.asnorm.flop": "flop", "scoring.asnorm.bytes": "bytes",
           "core.EmbeddingSet.matrix.bytes": "bytes", "scoring.cascade.rejected": "count",
           "fileio.rows": "count", "fileio.bytes_read": "bytes", "fileio.bytes_written": "bytes",
           "metrics.thresholds": "count"}
DERIVED = {"cli.startup.s": "s", "scoring.side_cache.hit_ratio": "ratio",
           "scoring.asnorm.gflops": "GFLOP/s", "losses.pairs_per_step": "count",
           "losses.active_pair_ratio": "ratio", "sampler.pk.coverage": "ratio"}


def per_layer_units():
    """Unit of every per-layer metric, in report order."""
    units = {f"{n}.s": "s" for n in TIMED}
    units.update({f"{n}.self_s": "s" for n in SELF_TIMED})
    units.update({f"{n}.calls": "count" for n in CALLED})
    units.update(COUNTED)
    units.update(DERIVED)
    units.update({f"{layer}.self_share": "ratio" for layer in tracing.LAYERS})
    units.update({"trace.iteration_s": "s", "trace.untraced_iteration_s": "s",
                  "trace.overhead_ratio": "ratio"})
    return units


def metadata(args, size, samples):
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.processor()
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy_version, "blas_threads": BLAS_THREADS,
        "sizes": size, "samples": samples,
        "computed": ["scoring.asnorm.flop", "scoring.asnorm.bytes",
                     "core.EmbeddingSet.matrix.bytes", "losses.pairs_per_step"],
    }


def iterate(wl, tracer, i):
    """One closed-loop iteration, traced when `tracer` is given; returns
    (seconds, problems). Outputs are dropped before the next one starts."""
    if tracer is not None:
        tracer.set_iteration(i)
        tracer.install()
    t0 = time.perf_counter()
    try:
        if tracer is not None:
            with tracer.span("bench.iteration"):
                out = wl.run(tracer)
        else:
            out = wl.run(None)
    except Exception:
        return time.perf_counter() - t0, [traceback.format_exc()]
    finally:
        if tracer is not None:
            tracer.uninstall()
    dt = time.perf_counter() - t0
    try:
        return dt, wl.check(out)
    except Exception:
        return dt, [traceback.format_exc()]


def run(workload, seed, seconds, trace, size):
    """Generate inputs, run the closed loop, return (samples, result)."""
    sv = load_sasvkit()
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[workload](sv, np.random.default_rng(seed), size, work)
        # keep the benchmark's own objects out of the program's GC passes
        gc.collect()
        gc.freeze()
        setup = [] if trace else setup_times(SETUP_SAMPLES)
        tracer = tracing.Tracer() if trace else None
        times = {False: [], True: []}
        traced_ids, parts, attempted, failed, elapsed, dt = [], [], 0, 0, 0.0, 0.0
        # on in-process workloads iteration 0 is an untraced warm-up:
        # checked, but not timed
        warm = int(wl.warm_up)
        while attempted < warm + 1 + trace or elapsed + dt <= seconds:
            on = trace and (attempted - warm) % 2 == 0
            dt, problems = iterate(wl, tracer if on else None, attempted)
            if problems:
                failed += 1
                print(f"iteration {attempted} failed:", *problems, sep="\n  ", file=sys.stderr)
            elif attempted >= warm:
                times[on].append(dt)
                if on:
                    traced_ids.append(attempted)
                elif isinstance(wl, CliChain):
                    parts.append(wl.command_s)
            if attempted >= warm:
                elapsed += dt
            attempted += 1
        if trace:
            tracer.dump(WORK / f"spans-{workload}-{seed}.npz")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not times[False] or (trace and not times[True]):
        sys.exit("perfbench: no iteration succeeded")
    if trace:
        values = layer_metrics(tracer, traced_ids, times[False])
        units = per_layer_units()
        samples = {"traced_iterations": len(times[True]), "untraced_iterations": len(times[False])}
    else:
        peak_kb = wl.child_peak_kb if isinstance(wl, CliChain) else peak_rss_kb()
        iteration_s = typical_iteration_s(times[False], parts)
        values = {
            "setup_s": statistics.median(setup),
            "trials_per_s": wl.trials_n / iteration_s,
            "steps_per_s": wl.steps / iteration_s,
            "peak_rss_mb": peak_kb / 1024,
        }
        units = END_TO_END
        samples = {"setup_s": len(setup), "trials_per_s": len(times[False]),
                   "steps_per_s": len(times[False]), "peak_rss_mb": 1,
                   "setup_times_s": setup, "typical_iteration_s": iteration_s}
    samples.update(attempted=attempted, failed=failed, error_rate=failed / attempted,
                   iteration_s=times[False], traced_iteration_s=times[True], command_s=parts)
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return samples, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    size = SIZES[args.workload]
    samples, result = run(args.workload, args.seed, args.seconds, args.trace, size)
    print(json.dumps({"meta": metadata(args, size, samples)}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
