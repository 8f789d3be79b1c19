"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as the
suite executes; without -s they appear in the captured output of failing
tests only.
"""

import io
import time

import numpy as np
from scipy.special import log_softmax

from sasvkit.core import Embedding, EmbeddingSet, ScoreSet, Trial, TrialLabel
from sasvkit.errors import ParseError
from sasvkit.fileio import (
    parse_embeddings,
    parse_scores,
    parse_trials,
    write_embeddings_binary,
    write_embeddings_text,
    write_scores,
    write_trials,
)
from sasvkit.losses import (
    CircleConfig,
    LossBatch,
    SphereFaceConfig,
    circle_alphas,
    combined_loss,
    grad_check,
    mine_pairs,
    sphereface_loss,
)
from sasvkit.metrics import ADcfConfig, a_dcf, eer, sv_eer
from sasvkit.moe import GateParams, LayerStack, fuse, gate_probs, top_k_mask
from sasvkit.sampler import (
    PkConfig,
    ToyModel,
    TrainConfig,
    eval_toy,
    gen_synthetic,
    pk_batches,
    train_toy,
)
from sasvkit.scoring import CascadeConfig, as_norm, cascade, cohort_stats

from oracles import oracle_a_dcf, oracle_eer


def _report(number, name, ok):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def _score_set(target, nontarget, spoof):
    s = ScoreSet()
    for i, v in enumerate(target):
        s.append(Trial(f"e{i}", f"tt{i}", TrialLabel.TARGET), float(v))
    for i, v in enumerate(nontarget):
        s.append(Trial(f"e{i}", f"nt{i}", TrialLabel.NONTARGET), float(v))
    for i, v in enumerate(spoof):
        s.append(Trial(f"e{i}", f"sp{i}", TrialLabel.SPOOF), float(v))
    return s


def test_criterion_1_metric_oracle_equivalence():
    rng = np.random.default_rng(100)
    cfg = ADcfConfig()
    started = time.perf_counter()
    ok = True
    for case in range(200):
        sizes = rng.integers(1, 51, size=3)
        scale = 10.0 ** rng.integers(-2, 3)
        tar = rng.standard_normal(sizes[0]) * scale + rng.uniform(0, 1)
        non = rng.standard_normal(sizes[1]) * scale
        spf = rng.standard_normal(sizes[2]) * scale
        if case % 5 == 0:
            # duplicated scores exercise threshold tie handling
            tar = np.round(tar, 1)
            non = np.round(non, 1)
            spf = np.round(spf, 1)
        ok &= abs(eer(tar, non)[0] - oracle_eer(tar.tolist(), non.tolist())) <= 1e-12
        got = a_dcf(_score_set(tar, non, spf), cfg)[0]
        want = oracle_a_dcf(tar.tolist(), non.tolist(), spf.tolist(), cfg)
        ok &= abs(got - want) <= 1e-12
    elapsed = time.perf_counter() - started
    ok &= elapsed < 10.0
    _report(1, "metric oracle equivalence", ok)


def test_criterion_2_as_norm():
    enroll = cohort_stats(np.array([0.1, 0.3]))
    test = cohort_stats(np.array([0.0, 0.4]))
    ok = as_norm(0.5, enroll, test) == 2.25
    rng = np.random.default_rng(200)
    for _ in range(1000):
        n_e, n_t = rng.integers(2, 30, size=2)
        ce = rng.standard_normal(n_e)
        ct = rng.standard_normal(n_t)
        raw = float(rng.standard_normal())
        alpha = float(rng.uniform(0.1, 10.0))
        beta = float(rng.standard_normal() * 5)
        base = as_norm(raw, cohort_stats(ce), cohort_stats(ct))
        moved = as_norm(
            alpha * raw + beta,
            cohort_stats(alpha * ce + beta),
            cohort_stats(alpha * ct + beta),
        )
        ok &= abs(base - moved) <= 1e-9
    _report(2, "AS-Norm example and affine invariance", ok)


def _well_conditioned_instance(rng, B=4, C=3, D=8, cos_margin=1e-3):
    """Random loss instance with no clamp-active cosine, so central
    differences see a smooth function everywhere."""
    while True:
        X = rng.standard_normal((B, D))
        W = rng.standard_normal((C, D))
        y = rng.integers(0, C, size=B)
        Xh = X / np.linalg.norm(X, axis=1, keepdims=True)
        Wh = W / np.linalg.norm(W, axis=1, keepdims=True)
        cosines = [np.abs(Xh @ Wh.T).max(), np.abs(Xh @ Xh.T - np.eye(B)).max()]
        if max(cosines) < 1.0 - cos_margin:
            return LossBatch(X, W, y)


def test_criterion_3_gradient_verification():
    rng = np.random.default_rng(300)
    sf = SphereFaceConfig()
    cc = CircleConfig()
    ok = True
    for _ in range(100):
        batch = _well_conditioned_instance(rng)
        W, y = batch.class_weights, batch.labels

        def f_sphere(x):
            loss, g, _ = sphereface_loss(LossBatch(x, W, y), sf)
            return loss, g

        def f_sphere_w(w):
            loss, _, g = sphereface_loss(LossBatch(batch.embeddings, w, y), sf)
            return loss, g

        frozen = circle_alphas(mine_pairs(batch.embeddings, y), cc)

        def f_combined(x):
            loss, g, _ = combined_loss(
                LossBatch(x, W, y), sf, cc, frozen_alphas=frozen
            )
            return loss, g

        for f, point in ((f_sphere, batch.embeddings),
                         (f_sphere_w, W),
                         (f_combined, batch.embeddings)):
            report = grad_check(f, point, step=1e-5, tol=1e-4)
            ok &= report.passed
    # multiplicative margin of 1 collapses to plain cross entropy
    for _ in range(20):
        batch = _well_conditioned_instance(rng, B=6, C=4)
        loss, _, _ = sphereface_loss(batch, SphereFaceConfig(margin_m=1.0))
        Xh = batch.embeddings / np.linalg.norm(
            batch.embeddings, axis=1, keepdims=True
        )
        Wh = batch.class_weights / np.linalg.norm(
            batch.class_weights, axis=1, keepdims=True
        )
        logits = 30.0 * np.clip(Xh @ Wh.T, -1 + 1e-7, 1 - 1e-7)
        rows = np.arange(batch.size)
        ce = float(-np.mean(log_softmax(logits, axis=1)[rows, batch.labels]))
        ok &= abs(loss - ce) <= 1e-12
    _report(3, "gradient verification", ok)


def test_criterion_4_cascade_semantics():
    rng = np.random.default_rng(400)
    cfg = CascadeConfig(sd_threshold=0.0, reject_score=-5.0)
    ok = True
    for _ in range(50):
        n = int(rng.integers(1, 40))
        sd = ScoreSet()
        asv = ScoreSet()
        for i in range(n):
            t = Trial(f"e{i}", f"t{i}", TrialLabel.UNLABELED)
            sd.append(t, float(rng.standard_normal()))
            asv.append(t, float(rng.standard_normal()))
        out = cascade(sd, asv, cfg)
        for (t, v), (_, sdv), (_, asvv) in zip(out, sd, asv):
            ok &= v == (-5.0 if sdv < 0.0 else asvv)

    # spoofs fool the verifier but not the detector: gating must help
    n = 300
    tar_asv = rng.normal(1.0, 0.4, n)
    non_asv = rng.normal(-1.0, 0.4, n)
    spf_asv = rng.normal(0.9, 0.4, n)
    sd = ScoreSet()
    asv = ScoreSet()
    for kind, asv_scores, sd_mean in (
        (TrialLabel.TARGET, tar_asv, 1.0),
        (TrialLabel.NONTARGET, non_asv, 1.0),
        (TrialLabel.SPOOF, spf_asv, -1.0),
    ):
        for i, v in enumerate(asv_scores):
            t = Trial(f"e{kind.value}{i}", f"t{kind.value}{i}", kind)
            sd.append(t, float(rng.normal(sd_mean, 0.5)))
            asv.append(t, float(v))
    cascaded = cascade(sd, asv, cfg)
    ok &= a_dcf(cascaded)[0] <= a_dcf(asv)[0]
    _report(4, "cascade semantics", ok)


def test_criterion_5_moe_sparsity_and_invariance():
    rng = np.random.default_rng(500)
    ok = True
    for _ in range(1000):
        L = int(rng.integers(2, 14))
        D = int(rng.integers(2, 10))
        top_k = int(rng.integers(1, L + 3))
        params = GateParams.random(L - 1, D, top_k=top_k,
                                   seed=int(rng.integers(1 << 30)))
        x = rng.standard_normal(D)
        probs = gate_probs(x, params)
        mask = top_k_mask(probs, min(top_k, L - 1))
        ok &= np.count_nonzero(mask) == min(top_k, L - 1)
        shifted = GateParams(params.weight, params.bias + 57.0, params.top_k)
        ok &= bool(np.all(np.abs(probs - gate_probs(x, shifted)) < 1e-12))
    for _ in range(100):
        L, D = 6, 8
        layers = rng.standard_normal((L, D))
        params = GateParams.random(L - 1, D, top_k=3,
                                   seed=int(rng.integers(1 << 30)))
        stack = LayerStack(layers)
        fused = fuse(stack, params)
        mask = top_k_mask(gate_probs(stack.final, params), 3)
        perturbed = layers.copy()
        for i in np.flatnonzero(mask == 0):
            perturbed[i] = rng.standard_normal(D) * 1e6
        ok &= bool(np.array_equal(fuse(LayerStack(perturbed), params), fused))
    _report(5, "MoE sparsity and invariance", ok)


def test_criterion_6_toy_training_end_to_end():
    started = time.perf_counter()
    dataset = gen_synthetic(20, 30, 32, noise=0.15, seed=0)
    tc = TrainConfig(steps=500, learning_rate=0.05)
    pk = PkConfig(P=8, K=4, seed=0)
    runs = []
    for _ in range(2):
        model0 = ToyModel.random(16, 32, 20, seed=0)
        eer0, _ = sv_eer(eval_toy(model0, dataset, 400, seed=99))
        model, history = train_toy(dataset, model0, tc, pk)
        eer1, _ = sv_eer(eval_toy(model, dataset, 400, seed=99))
        runs.append((eer0, eer1, model, history))
    elapsed = time.perf_counter() - started
    ok = runs[0][0] > 0.3
    ok &= runs[0][1] < 0.05
    ok &= elapsed < 60.0
    ok &= runs[0][:2] == runs[1][:2]
    ok &= runs[0][3] == runs[1][3]
    ok &= bool(np.array_equal(runs[0][2].projection, runs[1][2].projection))
    ok &= bool(
        np.array_equal(runs[0][2].class_weights, runs[1][2].class_weights)
    )
    _report(6, "toy training end to end", ok)


def test_criterion_7_pk_sampler():
    rng = np.random.default_rng(700)
    datasets = [
        gen_synthetic(
            int(rng.integers(2, 9)), int(rng.integers(1, 9)), 4,
            noise=0.2, seed=int(rng.integers(1 << 30)),
        )
        for _ in range(60)
    ]
    ok = True
    for _ in range(10_000):
        ds = datasets[int(rng.integers(len(datasets)))]
        P = int(rng.integers(2, ds.n_speakers + 1))
        K = int(rng.integers(1, 6))
        batches = pk_batches(ds, PkConfig(P=P, K=K, seed=int(rng.integers(1 << 30))))
        for feats, labels in batches:
            ok &= feats.shape[0] == P * K
            uniq, counts = np.unique(labels, return_counts=True)
            ok &= len(uniq) == P and bool(np.all(counts == K))
    _report(7, "PK sampler label multiset", ok)


def test_criterion_8_format_round_trips():
    rng = np.random.default_rng(800)
    labels = list(TrialLabel)
    ok = True
    for case in range(1000):
        kind = case % 3
        if kind == 0:
            n, d = int(rng.integers(1, 8)), int(rng.integers(1, 6))
            original = EmbeddingSet(
                Embedding(f"id{i}", rng.standard_normal(d).astype(np.float32))
                for i in range(n)
            )
            bbuf = io.BytesIO()
            write_embeddings_binary(original, bbuf)
            parsed = parse_embeddings(io.BytesIO(bbuf.getvalue()), format="binary")
            ok &= parsed.ids() == original.ids()
            for e in original:
                ok &= parsed[e.id].values.tobytes() == e.values.tobytes()
            tbuf = io.StringIO()
            write_embeddings_text(original, tbuf)
            reparsed = parse_embeddings(io.StringIO(tbuf.getvalue()), format="text")
            for e in original:
                ok &= bool(np.array_equal(reparsed[e.id].values, e.values))
        elif kind == 1:
            trials = [
                Trial(f"e{i}", f"t{i}", labels[rng.integers(4)])
                for i in range(int(rng.integers(1, 20)))
            ]
            buf = io.StringIO()
            write_trials(trials, buf)
            ok &= parse_trials(io.StringIO(buf.getvalue())) == trials
        else:
            s = ScoreSet()
            for i in range(int(rng.integers(1, 20))):
                s.append(
                    Trial(f"e{i}", f"t{i}", labels[rng.integers(4)]),
                    float(rng.standard_normal() * 10.0 ** rng.integers(-6, 7)),
                )
            buf = io.StringIO()
            write_scores(s, buf)
            parsed = parse_scores(io.StringIO(buf.getvalue()))
            ok &= parsed.keys() == s.keys()
            ok &= bool(np.array_equal(parsed.scores(), s.scores()))

    # every single-byte corruption of a binary file must raise a ParseError
    small = EmbeddingSet(
        Embedding(f"s{i}", rng.standard_normal(3).astype(np.float32))
        for i in range(4)
    )
    buf = io.BytesIO()
    write_embeddings_binary(small, buf)
    blob = buf.getvalue()
    for pos in range(len(blob)):
        for delta in range(1, 256):
            corrupted = bytearray(blob)
            corrupted[pos] ^= delta
            try:
                parse_embeddings(io.BytesIO(bytes(corrupted)), format="binary")
                ok = False
            except ParseError:
                pass
    _report(8, "format round trips and corruption detection", ok)
