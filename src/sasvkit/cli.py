"""Command-line surface tying the pipeline together.

Subcommands: score, cascade, ensemble, eval, moe-demo, gen-synth,
train-toy, grad-check. Exit codes: 0 success, 1 usage error, 2 data
error, 3 numeric failure. Diagnostics go to standard error.

Score files use the 3-field `<enroll> <test> <score>` convention common
in speaker-verification tooling, with an optional 4th label field
(target/nontarget/spoof) which `eval` requires. The challenge's official
format is not published; this convention is an assumption.
"""

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import fileio, metrics, moe, sampler, scoring
from .core import EmbeddingSet
from .errors import BadParams, DivergenceDetected, DuplicateTrial, SasvError
from .losses import (
    LossBatch,
    PairSet,
    circle_alphas,
    circle_loss,
    combined_loss,
    grad_check,
    mine_pairs,
    sphereface_loss,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt(value):
    """Metric value with 6 digits after the point (>= 6 significant
    digits for the sub-10 magnitudes these metrics produce)."""
    return f"{value:.6f}"


def _top_k(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("top_k must be >= 1")
    return value


def _weights(text):
    try:
        return [float(w) for w in text.split(",")]
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"{e} in {text!r}") from None


def _build_parser():
    top = _Parser(prog="sasvkit", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)
    # the synthetic population of gen-synth and train-toy
    population = argparse.ArgumentParser(add_help=False)
    population.add_argument("--speakers", type=int, default=20)
    population.add_argument("--utts", type=int, default=30)
    population.add_argument("--dim", type=int, default=32)
    population.add_argument("--noise", type=float, default=0.15)

    p = sub.add_parser("score", help="cosine-score trials, optional AS-Norm")
    p.add_argument("--trials", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--cohort", default=None, help="imposter cohort embedding file")
    p.add_argument("--top-k", type=_top_k, default=scoring.DEFAULT_TOP_K)
    p.add_argument("--out", required=True)

    p = sub.add_parser("cascade", help="spoof-detector tandem decision")
    p.add_argument("--sd-scores", required=True)
    p.add_argument("--asv-scores", required=True)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--reject-score", type=float, default=scoring.DEFAULT_REJECT_SCORE,
                   help="score assigned to detected spoofs (interacts with the "
                        "a-DCF threshold sweep; keep it below plausible thresholds)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("ensemble", help="weighted mean of score files")
    p.add_argument("--in", dest="inputs", required=True,
                   help="comma-separated score files")
    p.add_argument("--weights", type=_weights, default=None, help="comma-separated weights")
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="SV-EER, SPF-EER, min a-DCF of a labeled score file")
    p.add_argument("--scores", required=True)
    p.add_argument("--adcf-config", default=None,
                   help="JSON file overriding a-DCF costs/priors")

    p = sub.add_parser("moe-demo", help="top-k gated fusion of a layer stack")
    p.add_argument("--layers", required=True,
                   help="embedding text file, rows = layers in depth order")
    p.add_argument("--gate", required=True,
                   help="gate file: rows of a name and D+1 values (weight row + bias)")
    p.add_argument("--top-k", type=_top_k, default=moe.DEFAULT_TOP_K)
    p.add_argument("--unweighted", action="store_true",
                   help="sum selected layers without gate weighting")

    p = sub.add_parser("gen-synth", parents=[population],
                       help="generate synthetic speaker embeddings")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="embedding text file")
    p.add_argument("--trials-out", default=None, help="also emit labeled trials")
    p.add_argument("--n-trials", type=int, default=200)

    p = sub.add_parser("train-toy", parents=[population],
                       help="SGD on synthetic speakers with the combined loss")
    p.add_argument("--data-seed", type=int, default=0)
    p.add_argument("--emb-dim", type=int, default=16)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--p", type=int, default=8, help="speakers per batch")
    p.add_argument("--k", type=int, default=4, help="utterances per speaker per batch")
    p.add_argument("--train-seed", type=int, default=0)
    p.add_argument("--eval-trials", type=int, default=200)
    p.add_argument("--history-out", default=None, help="per-step loss, one per line")

    p = sub.add_parser("grad-check", help="finite-difference check of the loss gradients")
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-4)
    return top


def _cmd_score(args):
    trials, _, linenos = fileio._id_columns(args.trials, 2)
    embeddings = fileio.parse_embeddings(args.embeddings)
    cohort = fileio.parse_embeddings(args.cohort) if args.cohort else None
    cfg = scoring.AsNormConfig(top_k=args.top_k)
    try:
        result = scoring.score_trials(trials, embeddings, cohort, cfg)
    except DuplicateTrial as e:
        raise fileio._located(linenos, e) from None
    del linenos  # kept only to locate a repeated trial
    fileio.write_scores(result, args.out)
    return EXIT_OK


def _cmd_cascade(args):
    sd = fileio.parse_scores(args.sd_scores)
    asv = fileio.parse_scores(args.asv_scores)
    cfg = scoring.CascadeConfig(sd_threshold=args.threshold,
                                reject_score=args.reject_score)
    fileio.write_scores(scoring.cascade(sd, asv, cfg), args.out)
    return EXIT_OK


def _cmd_ensemble(args):
    sets = [fileio.parse_scores(f) for f in args.inputs.split(",")]
    fileio.write_scores(scoring.ensemble(sets, args.weights), args.out)
    return EXIT_OK


def _load_adcf_config(path):
    """ADcfConfig from a JSON object of finite numbers; any other content
    is a data error naming the file."""
    with open(path, encoding="utf-8") as fh:
        fields = json.load(fh, parse_int=float)
    if not isinstance(fields, dict):
        raise BadParams(f"{path}: a-DCF config must be a JSON object")
    known = {f.name for f in dataclasses.fields(metrics.ADcfConfig)}
    for name, value in fields.items():
        if name not in known:
            raise BadParams(f"{path}: unknown a-DCF config key {name!r}")
        if not (isinstance(value, float) and math.isfinite(value)):
            raise BadParams(f"{path}: a-DCF config {name!r} must be a finite number")
    try:
        return metrics.ADcfConfig(**fields)
    except ValueError as e:
        raise BadParams(f"{path}: {e}") from None


def _cmd_eval(args):
    scores = fileio.parse_scores(args.scores)
    cfg = _load_adcf_config(args.adcf_config) if args.adcf_config else metrics.ADcfConfig()
    # computed before any output, so a data error leaves stdout empty
    sv, _ = metrics.sv_eer(scores)
    spf, _ = metrics.spf_eer(scores)
    mind, tau, norm = metrics.a_dcf(scores, cfg)
    print("# SV-EER is target-vs-nontarget (spoof trials excluded)")
    print(f"# a-DCF costs/priors: c_miss={cfg.c_miss:g} "
          f"c_fa_nontarget={cfg.c_fa_nontarget:g} c_fa_spoof={cfg.c_fa_spoof:g} "
          f"pi={cfg.pi_target:g}/{cfg.pi_nontarget:g}/{cfg.pi_spoof:g}")
    print(f"sv_eer={_fmt(sv)}")
    print(f"spf_eer={_fmt(spf)}")
    print(f"min_a_dcf={_fmt(mind)}")
    print(f"a_dcf_threshold={_fmt(tau)}")
    print(f"normalized_a_dcf={_fmt(norm)}")
    return EXIT_OK


def _cmd_moe_demo(args):
    layers = fileio.parse_embeddings(args.layers, format="text")
    stack = moe.LayerStack(layers.matrix())
    weight, bias = fileio.parse_gate_params(args.gate)
    params = moe.GateParams(weight=weight, bias=bias, top_k=args.top_k)
    probs, selected, weights, fused = moe._fuse(stack, params, unweighted=args.unweighted)
    print("gate_probs=" + " ".join(f"{p:.6f}" for p in probs))
    print("selected=" + " ".join(str(i) for i in sorted(selected)))
    print("weights=" + " ".join(f"{weights[i]:.6f}" for i in sorted(selected)))
    print("fused=" + " ".join(repr(float(v)) for v in fused))
    return EXIT_OK


def _dataset_to_embeddings(dataset):
    feats = [dataset.speakers[sid] for sid in dataset.speaker_ids]
    ids = [f"{sid}-utt{u:03d}" for sid, f in zip(dataset.speaker_ids, feats) for u in range(len(f))]
    return EmbeddingSet.from_matrix(ids, np.concatenate(feats))


def _cmd_gen_synth(args):
    dataset = sampler.gen_synthetic(args.speakers, args.utts, args.dim,
                                    args.noise, args.seed)
    pairs = args.speakers * args.utts * (args.speakers * args.utts - 1)
    if args.trials_out and not 0 <= args.n_trials <= pairs:
        raise BadParams(f"--n-trials must be between 0 and {pairs}, the number of "
                        "ordered pairs of distinct utterances")
    embeddings = _dataset_to_embeddings(dataset)
    fileio.write_embeddings_text(embeddings, args.out)
    if args.trials_out:
        trials = sampler._draw_pairs(np.random.default_rng(args.seed + 1), embeddings.ids(),
                                     args.utts, args.n_trials)
        fileio.write_trials(trials, args.trials_out)
    return EXIT_OK


def _cmd_train_toy(args):
    # opened first, so a bad path fails before any work (a later failure
    # leaves the file empty); without the option the history is discarded
    with open(args.history_out or os.devnull, "w", encoding="utf-8") as fh:
        dataset = sampler.gen_synthetic(args.speakers, args.utts, args.dim,
                                        args.noise, args.data_seed)
        model0 = sampler.ToyModel.random(args.emb_dim, args.dim, args.speakers,
                                         seed=args.train_seed)
        tc = sampler.TrainConfig(steps=args.steps, learning_rate=args.lr)
        pk = sampler.PkConfig(P=args.p, K=args.k, seed=args.train_seed)

        eer0, _ = metrics.sv_eer(sampler.eval_toy(model0, dataset, args.eval_trials,
                                                  seed=args.data_seed + 99))
        model, history = sampler.train_toy(dataset, model0, tc, pk)
        eer1, _ = metrics.sv_eer(sampler.eval_toy(model, dataset, args.eval_trials,
                                                  seed=args.data_seed + 99))
        fh.writelines(repr(h) + "\n" for h in history)
    print(f"initial_sv_eer={_fmt(eer0)}")
    print(f"final_sv_eer={_fmt(eer1)}")
    if history:
        print(f"final_loss={_fmt(history[-1])}")
    return EXIT_OK


def _cmd_grad_check(args):
    if args.instances < 1:
        raise BadParams("--instances must be >= 1")
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    failed = 0
    for _ in range(args.instances):
        B, C, D = 4, 3, 8
        X = rng.standard_normal((B, D))
        W = rng.standard_normal((C, D))
        y = rng.integers(0, C, size=B)
        sp = rng.uniform(0.0, 0.9, size=4)
        sn = rng.uniform(-0.5, 0.6, size=6)

        def f_sphere(x):
            loss, gX, _ = sphereface_loss(LossBatch(x, W, y))
            return loss, gX

        # alphas are detached in the loss, so freeze them at the base
        # point or finite differences would see them move
        frozen_x = circle_alphas(mine_pairs(X, y))

        def f_combined(x):
            loss, gX, _ = combined_loss(LossBatch(x, W, y), frozen_alphas=frozen_x)
            return loss, gX

        frozen = circle_alphas(PairSet(sp, sn))

        def f_circle(v):
            pairs = PairSet(v[:4], v[4:])
            loss, gp, gn = circle_loss(pairs, alphas=frozen)
            return loss, np.concatenate([gp, gn])

        for f, x0 in ((f_sphere, X), (f_combined, X), (f_circle, np.concatenate([sp, sn]))):
            report = grad_check(f, x0, step=args.step, tol=args.tol)
            worst = np.maximum(worst, report.max_rel_error)  # keeps a NaN
            if not report.passed:
                failed += 1
                print(str(report), file=sys.stderr)

    print(f"instances={args.instances} failed={failed} max_rel_error={worst:.3e}")
    return EXIT_OK if failed == 0 else EXIT_NUMERIC


_COMMANDS = {
    "score": _cmd_score,
    "cascade": _cmd_cascade,
    "ensemble": _cmd_ensemble,
    "eval": _cmd_eval,
    "moe-demo": _cmd_moe_demo,
    "gen-synth": _cmd_gen_synth,
    "train-toy": _cmd_train_toy,
    "grad-check": _cmd_grad_check,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (DivergenceDetected, FloatingPointError) as e:
        print(f"sasvkit: numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as e:
        print(f"sasvkit: out of memory: {e}", file=sys.stderr)
        return EXIT_DATA
    except (SasvError, OSError, ValueError) as e:  # a JSONDecodeError is a ValueError
        print(f"sasvkit: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
