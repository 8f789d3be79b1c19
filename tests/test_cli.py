import hashlib
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import sasvkit
from sasvkit import cli, fileio, losses, metrics, moe, sampler, scoring
from sasvkit.cli import main
from sasvkit.core import Embedding, EmbeddingSet, ScoreSet, Trial, TrialLabel
from sasvkit.errors import BadParams, DivergenceDetected
from sasvkit.moe import GateParams


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["score", "--trials", "x"]) == 1  # missing required args
    capsys.readouterr()


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["eval", "--scores", str(tmp_path / "nope.txt")]) == 2
    capsys.readouterr()


def test_bad_data_exits_2(tmp_path, capsys):
    bad = tmp_path / "scores.txt"
    bad.write_text("e t notanumber\n")
    assert main(["eval", "--scores", str(bad)]) == 2
    capsys.readouterr()


def test_eval_perfect_system(tmp_path, capsys):
    scores = tmp_path / "scores.txt"
    scores.write_text(
        "e1 t1 2.0 target\ne2 t2 1.5 target\ne3 t3 -1.0 nontarget\ne4 t4 -5.0 spoof\n"
    )
    assert main(["eval", "--scores", str(scores)]) == 0
    out = capsys.readouterr().out
    assert "min_a_dcf=0.000000" in out
    assert "sv_eer=0.000000" in out
    assert "spf_eer=0.000000" in out
    assert "normalized_a_dcf=" in out
    assert "a_dcf_threshold=" in out


def test_eval_adcf_config_override(tmp_path, capsys):
    scores = tmp_path / "scores.txt"
    scores.write_text(
        "e1 t1 2.0 target\ne2 t2 -1.0 nontarget\ne3 t3 -5.0 spoof\n"
    )
    cfg = tmp_path / "adcf.json"
    cfg.write_text(
        '{"c_miss": 1, "c_fa_nontarget": 1, "c_fa_spoof": 1, '
        '"pi_target": 0.5, "pi_nontarget": 0.25, "pi_spoof": 0.25}'
    )
    assert main(["eval", "--scores", str(scores), "--adcf-config", str(cfg)]) == 0
    assert "c_miss=1" in capsys.readouterr().out


@pytest.mark.parametrize("content, message", [
    ("[1, 2]", "must be a JSON object"),
    ('{"bogus": 1}', "unknown a-DCF config key 'bogus'"),
    ('{"c_miss": "1"}', "'c_miss' must be a finite number"),
    ('{"pi_target": 0.5}', "priors must sum to 1"),
])
def test_eval_bad_adcf_config_exits_2(tmp_path, capsys, content, message):
    scores = tmp_path / "scores.txt"
    scores.write_text("e1 t1 2.0 target\ne2 t2 -1.0 nontarget\ne3 t3 -5.0 spoof\n")
    cfg = tmp_path / "adcf.json"
    cfg.write_text(content)
    assert main(["eval", "--scores", str(scores), "--adcf-config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert str(cfg) in err and message in err


def test_score_top_k_below_1_is_a_usage_error(tmp_path, capsys):
    # checked before any file is read: none of these files exist
    missing = str(tmp_path / "missing.txt")
    for k in ("0", "-3"):
        assert main(["score", "--trials", missing, "--embeddings", missing,
                     "--cohort", missing, "--top-k", k, "--out", missing]) == 1
        assert "top_k must be >= 1" in capsys.readouterr().err
        assert main(["moe-demo", "--layers", missing, "--gate", missing,
                     "--top-k", k]) == 1
        assert "top_k must be >= 1" in capsys.readouterr().err


def test_ensemble_non_finite_weight_names_the_weights(tmp_path, capsys):
    scores = tmp_path / "scores.txt"
    scores.write_text("e t 0.5\n")
    out = str(tmp_path / "out.txt")
    assert main(["ensemble", "--in", f"{scores},{scores}", "--weights", "nan,1",
                 "--out", out]) == 2
    assert "weights must be finite, got [nan, 1.0]" in capsys.readouterr().err


@pytest.mark.parametrize("weights", ["abc", "1,,2"])
def test_malformed_weights_are_a_usage_error(tmp_path, capsys, weights):
    scores = tmp_path / "scores.txt"
    scores.write_text("e t 0.5\n")
    assert main(["ensemble", "--in", f"{scores},{scores}", "--weights", weights,
                 "--out", str(tmp_path / "out.txt")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: sasvkit ensemble ")
    assert error.startswith("sasvkit ensemble: error: argument --weights: ")
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("text, message", [
    ("e1 t1 2.0 target\ne2 t2 -1.0 nontarget\n", "spf_eer needs target and spoof scores"),
    ("e1 t1 2.0\ne2 t2 -1.0\n", "trial ('e1', 't1') has no label"),
], ids=["no-spoof", "unlabeled"])
def test_eval_data_error_leaves_stdout_empty(tmp_path, capsys, text, message):
    scores = tmp_path / "scores.txt"
    scores.write_text(text)
    assert main(["eval", "--scores", str(scores)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"sasvkit: {message}\n"


def _readme_commands():
    """The `sasvkit ...` commands of the README's "Command line" block,
    with backslash continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("sasvkit ")]


def test_readme_lists_every_subcommand():
    assert sorted({argv[0] for argv in _readme_commands()}) == sorted(cli._COMMANDS)


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_commands_parse(argv):
    args = cli._build_parser().parse_args(argv)
    assert args.command == argv[0]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # the two outside files are stubbed: the detector scores are a copy of
    # asv.txt, and the layer stack and gate are written by the library
    monkeypatch.chdir(tmp_path)
    fileio.write_embeddings_text(EmbeddingSet.from_matrix(
        [f"layer{i:02d}" for i in range(5)], np.random.default_rng(0).standard_normal((5, 8))),
        "layers.txt")
    params = GateParams.random(4, 8, seed=1)
    fileio.write_gate_params(params.weight, params.bias, "gate.txt")
    for argv in _readme_commands():
        if argv[0] == "cascade":
            shutil.copy("asv.txt", "sd.txt")
        code, err = main(argv), capsys.readouterr().err
        if argv[0] == "eval":
            # as the README says, gen-synth trials carry no spoof label
            assert (code, err) == (2, "sasvkit: spf_eer needs target and spoof scores\n")
        else:
            assert (code, err) == (0, ""), argv


def test_duplicate_score_line_is_located(tmp_path, capsys):
    scores = tmp_path / "scores.txt"
    scores.write_text("e t 0.5 target\ne t 0.7 target\n")
    assert main(["eval", "--scores", str(scores)]) == 2
    assert "duplicate trial ('e', 't') (line 2)" in capsys.readouterr().err


def test_duplicate_trial_line_is_located(tmp_path, capsys):
    trials, emb = tmp_path / "trials.txt", tmp_path / "emb.txt"
    trials.write_text("e t\ne2 t\n# c\n\ne t target\n")
    emb.write_text("e 1 0\ne2 1 1\nt 0 1\n")
    assert main(["score", "--trials", str(trials), "--embeddings", str(emb),
                 "--out", str(tmp_path / "out.txt")]) == 2
    assert capsys.readouterr().err == "sasvkit: duplicate trial ('e', 't') (line 5)\n"


def test_cascade_all_rejected(tmp_path):
    sd = tmp_path / "sd.txt"
    asv = tmp_path / "asv.txt"
    out = tmp_path / "out.txt"
    sd.write_text("e1 t1 0.1\ne2 t2 0.2\n")
    asv.write_text("e1 t1 3.0\ne2 t2 4.0\n")
    assert main(
        ["cascade", "--sd-scores", str(sd), "--asv-scores", str(asv),
         "--threshold", "0.5", "--out", str(out)]
    ) == 0
    result = fileio.parse_scores(str(out))
    assert all(v == -5.0 for _, v in result)


def test_cascade_nan_threshold_exits_2_and_writes_nothing(tmp_path, capsys):
    sd = tmp_path / "sd.txt"
    asv = tmp_path / "asv.txt"
    sd.write_text("e1 t1 0.1\n")
    asv.write_text("e1 t1 3.0\n")
    assert main(["cascade", "--sd-scores", str(sd), "--asv-scores", str(asv),
                 "--threshold", "nan", "--out", str(tmp_path / "out.txt")]) == 2
    assert "sd_threshold must not be NaN" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["asv.txt", "sd.txt"]


def test_full_pipeline_matches_library_composition(tmp_path, capsys):
    emb_file = tmp_path / "emb.txt"
    trial_file = tmp_path / "trials.txt"
    assert main(
        ["gen-synth", "--speakers", "6", "--utts", "5", "--dim", "8",
         "--noise", "0.2", "--seed", "3", "--out", str(emb_file),
         "--trials-out", str(trial_file), "--n-trials", "40"]
    ) == 0

    asv_file = tmp_path / "asv.txt"
    assert main(
        ["score", "--trials", str(trial_file), "--embeddings", str(emb_file),
         "--cohort", str(emb_file), "--top-k", "10", "--out", str(asv_file)]
    ) == 0

    # library-side composition
    trials = fileio.parse_trials(str(trial_file))
    embs = fileio.parse_embeddings(str(emb_file))
    expected = scoring.score_trials(
        trials, embs, embs, scoring.AsNormConfig(top_k=10)
    )
    got = fileio.parse_scores(str(asv_file))
    assert got.keys() == expected.keys()
    assert np.array_equal(got.scores(), expected.scores())

    # detector scores: bona fide everywhere (labels say nothing to the SD here)
    sd_file = tmp_path / "sd.txt"
    sd = ScoreSet()
    rng = np.random.default_rng(0)
    for t, _ in expected:
        sd.append(Trial(t.enroll_id, t.test_id, t.label), float(rng.uniform(0.5, 1)))
    fileio.write_scores(sd, str(sd_file))
    cascade_file = tmp_path / "cascaded.txt"
    assert main(
        ["cascade", "--sd-scores", str(sd_file), "--asv-scores", str(asv_file),
         "--threshold", "0.0", "--out", str(cascade_file)]
    ) == 0
    cascaded = fileio.parse_scores(str(cascade_file))
    lib_cascaded = scoring.cascade(sd, expected, scoring.CascadeConfig(0.0))
    assert np.array_equal(cascaded.scores(), lib_cascaded.scores())

    ens_file = tmp_path / "ens.txt"
    assert main(
        ["ensemble", "--in", f"{asv_file},{cascade_file}",
         "--weights", "1,3", "--out", str(ens_file)]
    ) == 0
    ens = fileio.parse_scores(str(ens_file))
    lib_ens = scoring.ensemble([expected, lib_cascaded], [1.0, 3.0])
    assert np.allclose(ens.scores(), lib_ens.scores(), atol=0, rtol=0)


def test_ensemble_mismatch_exits_2(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("e1 t1 1.0\n")
    b.write_text("e9 t9 1.0\n")
    assert main(
        ["ensemble", "--in", f"{a},{b}", "--out", str(tmp_path / "o.txt")]
    ) == 2
    capsys.readouterr()


def test_moe_demo(tmp_path, capsys):
    layers_file = tmp_path / "layers.txt"
    gate_file = tmp_path / "gate.txt"
    rng = np.random.default_rng(1)
    layers = rng.standard_normal((5, 6))
    embs = EmbeddingSet(
        Embedding(f"layer{i:02d}", row) for i, row in enumerate(layers)
    )
    fileio.write_embeddings_text(embs, str(layers_file))
    params = GateParams.random(4, 6, seed=2)
    fileio.write_gate_params(params.weight, params.bias, str(gate_file))
    with mock.patch.object(moe, "gate_probs", wraps=moe.gate_probs) as gate:
        assert main(
            ["moe-demo", "--layers", str(layers_file), "--gate", str(gate_file),
             "--top-k", "2"]
        ) == 0
    assert gate.call_count == 1
    out = capsys.readouterr().out
    assert "fused=" in out
    assert len(out.split("selected=")[1].splitlines()[0].split()) == 2


def test_train_toy_quick(tmp_path, capsys):
    hist = tmp_path / "history.txt"
    assert main(
        ["train-toy", "--speakers", "6", "--utts", "8", "--dim", "12",
         "--emb-dim", "8", "--steps", "20", "--p", "3", "--k", "2",
         "--eval-trials", "60", "--history-out", str(hist)]
    ) == 0
    out = capsys.readouterr().out
    assert "initial_sv_eer=" in out and "final_sv_eer=" in out
    assert len(hist.read_text().splitlines()) == 20


@pytest.mark.parametrize("lr", ["nan", "inf", "-inf", "0"])
def test_train_toy_bad_learning_rate_exits_2_before_training(lr, monkeypatch, capsys):
    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(sampler, "train_toy", no_training)
    assert main(["train-toy", "--steps", "5", f"--lr={lr}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "learning_rate must be finite and > 0" in captured.err


def test_train_toy_opens_the_history_file_before_any_work(tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    missing = tmp_path / "missing" / "loss.txt"
    with monkeypatch.context() as m:
        m.setattr(sampler, "gen_synthetic", no_work)
        m.setattr(sampler, "train_toy", no_work)
        assert main(["train-toy", "--history-out", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("sasvkit: ") and captured.err.count("\n") == 1
    assert str(missing) in captured.err
    # a failure after the open leaves the file empty
    history = tmp_path / "loss.txt"
    history.write_text("old\n")
    assert main(["train-toy", "--steps", "5", "--lr=nan", "--history-out", str(history)]) == 2
    assert history.read_text() == ""
    capsys.readouterr()


def test_cli_import_does_not_load_scipy():
    src = str(Path(sasvkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, sasvkit.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def test_grad_check_command(capsys):
    assert main(["grad-check", "--instances", "3", "--seed", "1"]) == 0
    assert "failed=0" in capsys.readouterr().out
    # every check fails: each instance reports sphere, combined, circle
    assert main(["grad-check", "--instances", "2", "--tol", "1e-300"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert all(line.startswith("grad_check FAIL") for line in err)
    assert [re.search(r"checked=\d+", line)[0] for line in err] == [
        "checked=32", "checked=32", "checked=10"] * 2


def test_grad_check_exits_3_on_a_nan_gradient(monkeypatch, capsys):
    def nan_gradient(batch, *args, **kwargs):
        loss, grad_X, grad_W = losses.combined_loss(batch, *args, **kwargs)
        return loss, np.full_like(grad_X, np.nan), grad_W

    monkeypatch.setattr(cli, "combined_loss", nan_gradient)
    assert main(["grad-check", "--instances", "2"]) == 3
    assert capsys.readouterr().out == "instances=2 failed=2 max_rel_error=nan\n"


@pytest.mark.parametrize("option, message", [
    ("--tol=nan", "tol must be finite and > 0"),
    ("--tol=0", "tol must be finite and > 0"),
    ("--step=0", "step must be finite and > 0"),
    ("--step=nan", "step must be finite and > 0"),
    ("--step=-inf", "step must be finite and > 0"),
    ("--instances=-3", "--instances must be >= 1"),
    ("--instances=0", "--instances must be >= 1"),
])
def test_grad_check_bad_options_exit_2_before_any_check(option, message, capsys):
    assert main(["grad-check", option]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def _run_cli(args, cwd):
    src = str(Path(sasvkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    # a subprocess with a timeout: an endless loop fails instead of hanging
    return subprocess.run([sys.executable, "-m", "sasvkit.cli", *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=60)


def test_text_is_written_as_utf8_whatever_the_locale(tmp_path):
    (tmp_path / "sd.txt").write_bytes("caf\u00e9 t1 0.1 target\ne2 t2 0.9 spoof\n".encode())
    (tmp_path / "asv.txt").write_bytes("caf\u00e9 t1 2.0 target\ne2 t2 1.0 spoof\n".encode())
    src = str(Path(sasvkit.__file__).resolve().parents[1])
    written = []
    # the C locale without coercion or UTF-8 mode makes ASCII the locale encoding
    for locale_env in ({"LC_ALL": "C.UTF-8", "PYTHONUTF8": "1"},
                       {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}):
        result = subprocess.run(
            [sys.executable, "-m", "sasvkit.cli", "cascade", "--sd-scores", "sd.txt",
             "--asv-scores", "asv.txt", "--threshold", "0.5", "--out", "out.txt"],
            env=dict(os.environ, PYTHONPATH=src, **locale_env), cwd=tmp_path,
            capture_output=True, timeout=60)
        assert result.returncode == 0, result.stderr
        written.append((tmp_path / "out.txt").read_bytes())
    assert written[0] == written[1] == "caf\u00e9 t1 -5.0 target\ne2 t2 1.0 spoof\n".encode()


@pytest.mark.parametrize("n_trials", ["5", "-1"])
def test_gen_synth_rejects_more_trials_than_utterance_pairs(tmp_path, n_trials):
    # 2 speakers x 1 utterance: 2 ordered pairs of distinct utterances
    result = _run_cli(["gen-synth", "--speakers", "2", "--utts", "1", "--n-trials", n_trials,
                       "--out", "e.txt", "--trials-out", "t.txt"], tmp_path)
    assert result.returncode == 2 and "Traceback" not in result.stderr
    assert "--n-trials must be between 0 and 2" in result.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("noise", ["nan", "inf", "-1"])
def test_gen_synth_names_a_bad_noise(tmp_path, noise):
    result = _run_cli(["gen-synth", "--noise", noise, "--out", "e.txt"], tmp_path)
    assert result.returncode == 2 and "Traceback" not in result.stderr
    assert "noise must be finite and >= 0" in result.stderr and "Warning" not in result.stderr
    assert list(tmp_path.iterdir()) == []


def test_gen_synth_can_draw_every_utterance_pair(tmp_path):
    result = _run_cli(["gen-synth", "--speakers", "2", "--utts", "2", "--n-trials", "12",
                       "--out", "e.txt", "--trials-out", "t.txt"], tmp_path)
    assert result.returncode == 0, result.stderr
    trials = fileio.parse_trials(tmp_path / "t.txt")
    assert len({t.key for t in trials}) == 12
    assert all(t.enroll_id != t.test_id for t in trials)
    # without --trials-out the trial count is not used
    assert main(["gen-synth", "--speakers", "2", "--utts", "1", "--n-trials", "5",
                 "--out", str(tmp_path / "e2.txt")]) == 0


def test_gen_synth_draws_the_largest_allowed_trial_list(tmp_path):
    # 20 speakers x 30 utterances: every ordered pair of distinct
    # utterances, drawn without a rejection loop inside the timeout
    result = _run_cli(["gen-synth", "--speakers", "20", "--utts", "30", "--n-trials", "359400",
                       "--out", "e.txt", "--trials-out", "t.txt"], tmp_path)
    assert result.returncode == 0, result.stderr
    trials = fileio.parse_trials(tmp_path / "t.txt")
    assert len({t.key for t in trials}) == 359400
    assert sum(t.label is TrialLabel.TARGET for t in trials) == 20 * 30 * 29


@pytest.mark.parametrize("speakers, utts, n_trials, n_target", [
    (3, 4, 7, 4), (3, 4, 36, 18), (3, 2, 20, 6), (2, 1, 2, 0),
])
def test_gen_synth_label_split(tmp_path, speakers, utts, n_trials, n_target):
    # ceil(n / 2) targets, or every same-speaker pair when there are fewer
    assert n_target == min(n_trials - n_trials // 2, speakers * utts * (utts - 1))
    assert main(["gen-synth", "--speakers", str(speakers), "--utts", str(utts),
                 "--n-trials", str(n_trials), "--out", str(tmp_path / "e.txt"),
                 "--trials-out", str(tmp_path / "t.txt")]) == 0
    trials = fileio.parse_trials(tmp_path / "t.txt")
    assert len({t.key for t in trials}) == n_trials
    assert [t.label for t in trials] == (
        [TrialLabel.TARGET] * n_target + [TrialLabel.NONTARGET] * (n_trials - n_target))
    assert all((t.enroll_id.split("-")[0] == t.test_id.split("-")[0])
               == (t.label is TrialLabel.TARGET) for t in trials)
    assert all(t.enroll_id != t.test_id for t in trials)


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("exc, code, prefix", [
    (DivergenceDetected("loss is nan"), 3, "sasvkit: numeric failure: "),
    (FloatingPointError("overflow"), 3, "sasvkit: numeric failure: "),
    (BadParams("bad"), 2, "sasvkit: "),
    (FileNotFoundError("gone"), 2, "sasvkit: "),
    (ValueError("bad value"), 2, "sasvkit: "),
    (json.JSONDecodeError("bad json", "{", 1), 2, "sasvkit: "),
    (MemoryError("too big"), 2, "sasvkit: out of memory: "),
])
def test_exit_code_map(exc, code, prefix, monkeypatch, capsys):
    def fail(args):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "eval", fail)
    assert main(["eval", "--scores", "x"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{prefix}{exc}\n"


def test_usage_error_prints_the_usage_then_the_error(capsys):
    assert main([]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    *usage, error = captured.err.splitlines()  # argparse wraps a long usage
    assert usage[0] == "usage: sasvkit [-h]"
    assert error == "sasvkit: error: the following arguments are required: command"


def test_oversized_parameter_is_a_data_error(capsys):
    # asks numpy for a 455 PiB array, more than a 64-bit address space
    # holds, so the allocation fails at once
    assert main(["train-toy", "--steps", "0", "--eval-trials", "1000000000000000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sasvkit: out of memory: ") and err.count("\n") == 1


def _write_moe_files(tmp_path, n_gate_rows):
    layers = np.random.default_rng(1).standard_normal((5, 6))
    fileio.write_embeddings_text(EmbeddingSet.from_matrix(
        [f"layer{i:02d}" for i in range(5)], layers), str(tmp_path / "layers.txt"))
    params = GateParams.random(n_gate_rows, 6, seed=2)
    fileio.write_gate_params(params.weight, params.bias, str(tmp_path / "gate.txt"))
    # the embedding files hold float32 values
    return layers.astype(np.float32).astype(np.float64), ["moe-demo", "--layers", str(tmp_path / "layers.txt"),
                    "--gate", str(tmp_path / "gate.txt")]


def test_moe_demo_unweighted_prints_the_weights_it_sums(tmp_path, capsys):
    layers, argv = _write_moe_files(tmp_path, 4)
    assert main(argv + ["--top-k", "2", "--unweighted"]) == 0
    out = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    selected = [int(i) for i in out["selected"].split()]
    assert len(selected) == 2
    assert out["weights"] == "1.000000 1.000000"
    fused = np.array([float(v) for v in out["fused"].split()])
    assert np.allclose(fused, layers[-1] + layers[selected].sum(axis=0), rtol=0, atol=1e-12)


def test_moe_demo_gate_with_too_few_rows_names_the_counts(tmp_path, capsys):
    _, argv = _write_moe_files(tmp_path, 3)
    assert main(argv + ["--top-k", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "sasvkit: gate has 3 outputs for 4 candidate layers\n"


def _moe_argv(tmp_path, layers, weight, bias):
    """moe-demo arguments for layer and gate files written with repr
    decimals here, not by the library's writers."""
    (tmp_path / "layers.txt").write_text("".join(
        f"layer{i:02d} " + " ".join(map(repr, row)) + "\n"
        for i, row in enumerate(np.asarray(layers, dtype=np.float64).tolist())))
    (tmp_path / "gate.txt").write_text("".join(
        f"gate{i:03d} " + " ".join(map(repr, row + [b])) + "\n"
        for i, (row, b) in enumerate(zip(weight.tolist(), bias.tolist()))))
    return ["moe-demo", "--layers", str(tmp_path / "layers.txt"),
            "--gate", str(tmp_path / "gate.txt")]


_MOE_GATE_PROBS = (
    "gate_probs=0.209001 0.006871 0.074218 0.011793 0.010134 0.028970"
    " 0.021377 0.004391 0.006510 0.516877 0.010625 0.099233\n"
)
# recorded before the selection was shared by top_k_mask and moe-demo
_MOE_GOLDEN = {
    (1, False): (
        "selected=9\n"
        "weights=1.000000\n"
        "fused=2.149457573890686 -1.742555022239685 -0.9027679860591888\n"
    ),
    (1, True): (
        "selected=9\n"
        "weights=1.000000\n"
        "fused=2.149457573890686 -1.742555022239685 -0.9027679860591888\n"
    ),
    (3, False): (
        "selected=0 9 11\n"
        "weights=0.253301 0.626433 0.120266\n"
        "fused=2.045116254202961 -2.010488493942465 -0.6618965106277537\n"
    ),
    (3, True): (
        "selected=0 9 11\n"
        "weights=1.000000 1.000000 1.000000\n"
        "fused=3.1706541180610657 -5.163686990737915 1.1064211428165436\n"
    ),
    (12, False): (
        "selected=0 1 2 3 4 5 6 7 8 9 10 11\n"
        "weights=0.209001 0.006871 0.074218 0.011793 0.010134 0.028970"
        " 0.021377 0.004391 0.006510 0.516877 0.010625 0.099233\n"
        "fused=2.020484988517457 -1.6758158334191597 -0.8238787833076153\n"
    ),
    (12, True): (
        "selected=0 1 2 3 4 5 6 7 8 9 10 11\n"
        "weights=" + " ".join(["1.000000"] * 12) + "\n"
        "fused=8.386644691228867 0.3942081704735756 1.0736335813999176\n"
    ),
}


@pytest.mark.parametrize("top_k, unweighted", list(_MOE_GOLDEN))
def test_moe_demo_stdout_is_golden(tmp_path, capsys, top_k, unweighted):
    rng = np.random.default_rng(13)
    argv = _moe_argv(tmp_path, rng.standard_normal((13, 3)), rng.standard_normal((12, 3)),
                     rng.standard_normal(12))
    assert main(argv + ["--top-k", str(top_k)] + ["--unweighted"] * unweighted) == 0
    assert capsys.readouterr().out == _MOE_GATE_PROBS + _MOE_GOLDEN[top_k, unweighted]


_SYNTH = ["--speakers", "6", "--utts", "5", "--dim", "8"]


def test_synthetic_outputs_are_golden(tmp_path, capsys):
    # recorded before gen-synth and eval_toy drew their trials with one drawer
    trials = tmp_path / "trials.txt"
    assert main(["gen-synth", *_SYNTH, "--seed", "3", "--n-trials", "40",
                 "--out", str(tmp_path / "emb.txt"), "--trials-out", str(trials)]) == 0
    # integer draws only, so the digest does not depend on the machine
    assert hashlib.sha256(trials.read_bytes()).hexdigest() == (
        "608fe063a26b3dea49d6b6906ef0fe92a51a054e6f7247e0e26876cb37990ed9")
    assert main(["train-toy", *_SYNTH, "--emb-dim", "4", "--steps", "50", "--p", "3",
                 "--k", "2", "--eval-trials", "40", "--data-seed", "3", "--train-seed", "4"]) == 0
    assert capsys.readouterr().out == (
        "initial_sv_eer=0.350000\nfinal_sv_eer=0.000000\nfinal_loss=0.095170\n")


@pytest.mark.parametrize("unweighted, weights, fused", [
    (False, "1.000000 0.000000 0.000000", "10.0 12.0"),
    (True, "1.000000 1.000000 1.000000", "18.0 22.0"),
])
def test_moe_demo_prints_every_selected_layer_when_its_probability_underflows(
        tmp_path, capsys, unweighted, weights, fused):
    # gate probabilities [1, 0, 0, 0]: exp(-800) is 0.0, yet top-3 selects layers 0, 1, 2
    layers = [[1, 2], [3, 4], [5, 6], [7, 8], [9, 10]]
    argv = _moe_argv(tmp_path, layers, np.zeros((4, 2)), np.array([0.0, -800, -800, -800]))
    assert main(argv + ["--top-k", "3"] + ["--unweighted"] * unweighted) == 0
    out = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert out["gate_probs"] == "1.000000 0.000000 0.000000 0.000000"
    assert (out["selected"], out["weights"], out["fused"]) == ("0 1 2", weights, fused)


@pytest.mark.parametrize("emb_dim", ["0", "-2"])
def test_train_toy_bad_emb_dim_exits_2_before_training(emb_dim, monkeypatch, capsys):
    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(sampler, "train_toy", no_training)
    assert main(["train-toy", "--steps", "5", f"--emb-dim={emb_dim}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"got d_emb={emb_dim}," in captured.err
