import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import sasvkit.sampler as sampler_mod
from sasvkit.core import TrialLabel
from sasvkit.errors import BadParams, DivergenceDetected, TooFewSpeakers, ZeroNorm
from sasvkit.metrics import sv_eer
from sasvkit.sampler import (
    PkConfig,
    SpeakerDataset,
    ToyModel,
    TrainConfig,
    eval_toy,
    gen_synthetic,
    pk_batches,
    train_toy,
)


def test_gen_synthetic_zero_noise_collapses_to_means():
    ds = gen_synthetic(3, 4, 8, noise=0.0, seed=1)
    for i, sid in enumerate(ds.speaker_ids):
        for row in ds.speakers[sid]:
            assert np.allclose(row, ds.means[i], atol=1e-12)


def test_gen_synthetic_deterministic():
    a = gen_synthetic(5, 6, 8, noise=0.2, seed=42)
    b = gen_synthetic(5, 6, 8, noise=0.2, seed=42)
    for sid in a.speaker_ids:
        assert np.array_equal(a.speakers[sid], b.speakers[sid])


def test_gen_synthetic_within_vs_between_cosine():
    ds = gen_synthetic(20, 30, 32, noise=0.1, seed=0)
    mats = [ds.speakers[sid] for sid in ds.speaker_ids]
    within, between = [], []
    for i, m in enumerate(mats):
        within.append(np.mean(m @ m.T) )
        for j in range(i + 1, len(mats)):
            between.append(np.mean(m @ mats[j].T))
    assert np.mean(within) > np.mean(between)


def test_gen_synthetic_bad_params():
    with pytest.raises(BadParams):
        gen_synthetic(1, 5, 8, 0.1)
    with pytest.raises(BadParams):
        gen_synthetic(3, 0, 8, 0.1)


@pytest.mark.parametrize("noise", [-0.1, np.nan, np.inf])
def test_gen_synthetic_requires_a_finite_non_negative_noise(noise):
    with pytest.raises(BadParams, match="^noise must be finite and >= 0"):
        gen_synthetic(3, 4, 8, noise)


@pytest.mark.parametrize("lr", [0.0, -1.0, np.nan, np.inf, -np.inf])
def test_train_config_rejects_bad_learning_rate(lr):
    with pytest.raises(BadParams):
        TrainConfig(learning_rate=lr)


@pytest.mark.parametrize("feats", [np.zeros((0, 4)), np.ones(4), np.zeros((2, 0))])
def test_speaker_dataset_rejects_features_that_are_not_a_matrix(feats):
    with pytest.raises(BadParams, match="speaker 's0'"):
        SpeakerDataset({"s0": feats, "s1": np.ones((3, 4)), "s2": np.ones((2, 4))})


def test_pk_exact_cover():
    ds = gen_synthetic(2, 2, 4, noise=0.1, seed=0)
    batches = pk_batches(ds, PkConfig(P=2, K=2, seed=0))
    assert len(batches) == 1
    feats, labels = batches[0]
    assert feats.shape == (4, 4)
    assert Counter(labels.tolist()) == {0: 2, 1: 2}
    all_rows = np.concatenate([ds.speakers[s] for s in ds.speaker_ids])
    assert sorted(map(tuple, feats)) == sorted(map(tuple, all_rows))


def test_pk_label_multiset_property():
    rng = np.random.default_rng(13)
    for _ in range(100):
        n_spk = int(rng.integers(2, 7))
        utts = int(rng.integers(1, 8))
        ds = gen_synthetic(n_spk, utts, 4, noise=0.2, seed=int(rng.integers(1 << 30)))
        P = int(rng.integers(2, n_spk + 1))
        K = int(rng.integers(1, 5))
        for feats, labels in pk_batches(ds, PkConfig(P=P, K=K, seed=7)):
            counts = Counter(labels.tolist())
            assert len(counts) == P
            assert all(c == K for c in counts.values())


def test_pk_epoch_coverage_and_proportionality():
    ds = gen_synthetic(20, 30, 8, noise=0.1, seed=3)
    cfg = PkConfig(P=8, K=4, seed=5)
    batches = pk_batches(ds, cfg)
    draws = Counter()
    used = {s: set() for s in range(20)}
    for feats, labels in batches:
        for row, lab in zip(feats, labels):
            draws[int(lab)] += 1
            sid = ds.speaker_ids[int(lab)]
            idx = np.flatnonzero((ds.speakers[sid] == row).all(axis=1))
            used[int(lab)].update(idx.tolist())
    # every utterance of every speaker sampled at least once
    assert all(len(used[s]) == 30 for s in range(20))
    per_spk = [draws[s] for s in range(20)]
    mean = np.mean(per_spk)
    assert all(abs(c - mean) <= cfg.K for c in per_spk)


def test_pk_too_few_speakers():
    ds = gen_synthetic(3, 4, 4, noise=0.1, seed=0)
    with pytest.raises(TooFewSpeakers):
        pk_batches(ds, PkConfig(P=4, K=2, seed=0))


def test_train_zero_steps_is_identity():
    ds = gen_synthetic(4, 6, 8, noise=0.1, seed=0)
    model0 = ToyModel.random(6, 8, 4, seed=0)
    model, history = train_toy(ds, model0, TrainConfig(steps=0), PkConfig(P=2, K=2))
    assert history == []
    assert np.array_equal(model.projection, model0.projection)
    assert np.array_equal(model.class_weights, model0.class_weights)


def test_first_step_descends_on_its_own_batch():
    from sasvkit.losses import LossBatch, combined_loss

    ds = gen_synthetic(6, 8, 12, noise=0.15, seed=2)
    model0 = ToyModel.random(8, 12, 6, seed=2)
    tc = TrainConfig(steps=1, learning_rate=1e-3)
    pk = PkConfig(P=3, K=2, seed=2)
    model, history = train_toy(ds, model0, tc, pk)
    feats, labels = pk_batches(ds, pk)[0]
    after = combined_loss(
        LossBatch(model.embed(feats), model.class_weights, labels),
    )[0]
    assert history[0] > after


def test_training_does_not_mutate_inputs():
    ds = gen_synthetic(4, 6, 8, noise=0.1, seed=0)
    snapshot = {sid: ds.speakers[sid].copy() for sid in ds.speaker_ids}
    model0 = ToyModel.random(6, 8, 4, seed=0)
    proj0 = model0.projection.copy()
    train_toy(ds, model0, TrainConfig(steps=10), PkConfig(P=2, K=2))
    assert all(np.array_equal(ds.speakers[s], snapshot[s]) for s in snapshot)
    assert np.array_equal(model0.projection, proj0)


def test_training_bit_reproducible():
    ds = gen_synthetic(6, 8, 12, noise=0.15, seed=4)
    runs = []
    for _ in range(2):
        model0 = ToyModel.random(8, 12, 6, seed=4)
        model, history = train_toy(
            ds, model0, TrainConfig(steps=30, learning_rate=0.05),
            PkConfig(P=3, K=2, seed=4),
        )
        runs.append((model, history))
    assert runs[0][1] == runs[1][1]
    assert np.array_equal(runs[0][0].projection, runs[1][0].projection)
    assert np.array_equal(runs[0][0].class_weights, runs[1][0].class_weights)


def test_divergence_detection(monkeypatch):
    ds = gen_synthetic(4, 6, 8, noise=0.1, seed=0)
    model0 = ToyModel.random(6, 8, 4, seed=0)

    def exploding_loss(batch):
        return float("nan"), np.zeros_like(batch.embeddings), np.zeros_like(
            batch.class_weights
        )

    monkeypatch.setattr(sampler_mod, "combined_loss", exploding_loss)
    with pytest.raises(DivergenceDetected) as err:
        train_toy(ds, model0, TrainConfig(steps=5), PkConfig(P=2, K=2))
    assert err.value.step == 0


def test_eval_toy_single_speaker_all_target():
    rng = np.random.default_rng(0)
    mean = rng.standard_normal(6)
    mean /= np.linalg.norm(mean)
    ds = SpeakerDataset(
        {"only": rng.standard_normal((4, 6))}, means=mean[None, :], noise=0.1
    )
    model = ToyModel.random(4, 6, 2, seed=0)
    scores = eval_toy(model, ds, 10, seed=1)
    assert len(scores) == 10
    assert all(t.label is TrialLabel.TARGET for t, _ in scores)


def test_eval_toy_deterministic():
    ds = gen_synthetic(5, 6, 8, noise=0.1, seed=0)
    model = ToyModel.random(6, 8, 5, seed=0)
    a = eval_toy(model, ds, 100, seed=7)
    b = eval_toy(model, ds, 100, seed=7)
    assert a.keys() == b.keys()
    assert np.array_equal(a.scores(), b.scores())


def test_eval_toy_zero_noise_perfect():
    ds = gen_synthetic(5, 6, 8, noise=0.0, seed=0)
    model = ToyModel.random(6, 8, 5, seed=0)
    scores = eval_toy(model, ds, 50, seed=3)
    assert sv_eer(scores)[0] == 0.0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=2, max_size=7), st.integers(1, 6), st.data())
def test_pk_batches_match_the_reference(utts, K, data):
    # single-utterance speakers, K above a speaker's utterance count and
    # P == n_speakers are all in range
    P = data.draw(st.integers(2, len(utts)), label="P")
    seed = data.draw(st.integers(0, 2**31), label="seed")
    rng = np.random.default_rng(seed)
    ds = SpeakerDataset({f"s{i}": rng.standard_normal((n, 3)) for i, n in enumerate(utts)})
    for epoch in range(3):
        got = pk_batches(ds, PkConfig(P=P, K=K, seed=seed + epoch))
        want = oracles.pk_batches(ds, P, K, seed + epoch)
        assert len(got) == len(want)
        for (feats, labels), (ref_feats, ref_labels) in zip(got, want):
            assert feats.dtype == ref_feats.dtype and feats.tobytes() == ref_feats.tobytes()
            assert labels.dtype == np.int64 and np.array_equal(labels, ref_labels)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 8), st.integers(1, 5),
       st.one_of(st.sampled_from([1, 2]), st.integers(1, 300)), st.integers(0, 2**31))
def test_eval_toy_matches_the_reference(n_spk, d_in, d_emb, n_trials, seed):
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((n_spk, d_in))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    ds = SpeakerDataset({f"spk{i}": rng.standard_normal((2, d_in)) for i in range(n_spk)},
                        means=means, noise=0.3)
    model = ToyModel.random(d_emb, d_in, 2, seed=seed)
    got = eval_toy(model, ds, n_trials, seed=seed)
    want = oracles.eval_toy(model, ds, n_trials, seed=seed)
    assert got.keys() == want.keys()
    assert [t.label for t, _ in got] == [t.label for t, _ in want]
    assert np.max(np.abs(got.scores() - want.scores())) <= 1e-15


def test_train_toy_matches_a_reference_loop_over_epochs():
    ds = gen_synthetic(4, 6, 8, noise=0.15, seed=5)
    pk = PkConfig(P=2, K=2, seed=3)
    # 4 speakers x 3 chunks in batches of 2 speakers: 6 batches an epoch
    assert len(pk_batches(ds, pk)) == 6
    tc = TrainConfig(steps=15, learning_rate=0.05)
    model0 = ToyModel.random(6, 8, 4, seed=1)
    model, history = train_toy(ds, model0, tc, pk)
    reference = model0.copy()
    assert history == oracles.train_toy(ds, reference, tc, pk)
    assert np.array_equal(model.projection, reference.projection)
    assert np.array_equal(model.class_weights, reference.class_weights)


def test_eval_toy_zero_projection_raises_zero_norm_without_warnings():
    ds = gen_synthetic(3, 4, 5, noise=0.1, seed=0)
    model = ToyModel(np.zeros((4, 5)), np.ones((3, 4)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ZeroNorm):
            eval_toy(model, ds, 10, seed=1)


@pytest.mark.parametrize("d_emb, d_in, n_classes, named", [
    (0, 5, 3, "d_emb=0"), (-2, 5, 3, "d_emb=-2"), (4, 0, 3, "d_in=0"), (4, 5, 1, "n_classes=1"),
])
def test_toy_model_random_rejects_bad_sizes(d_emb, d_in, n_classes, named):
    with pytest.raises(BadParams, match=named):
        ToyModel.random(d_emb, d_in, n_classes)


def test_train_toy_samples_no_epoch_past_the_last_step(monkeypatch):
    ds = gen_synthetic(4, 6, 8, noise=0.15, seed=5)
    pk = PkConfig(P=2, K=2, seed=3)
    dealt = []  # the epoch seed of every batch handed out
    deal = sampler_mod._deal

    def counting_deal(dataset, cfg):
        for batch in deal(dataset, cfg):
            dealt.append(cfg.seed)
            yield batch

    monkeypatch.setattr(sampler_mod, "_deal", counting_deal)
    model0 = ToyModel.random(6, 8, 4, seed=1)
    train_toy(ds, model0, TrainConfig(steps=0), pk)
    assert dealt == []
    # 6 batches an epoch: 12 steps use exactly two epochs, one batch a step
    train_toy(ds, model0, TrainConfig(steps=12, learning_rate=0.05), pk)
    assert dealt == [3] * 6 + [4] * 6


def _traced_peak(fn):
    """(result, peak bytes traced above the start) of `fn()`."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_gen_synthetic_peaks_near_its_features():
    ds, peak = _traced_peak(lambda: gen_synthetic(200, 50, 64, noise=0.15, seed=1))
    features = sum(f.nbytes for f in ds.speakers.values())  # 5.1 MB
    assert peak < 1.3 * features


def test_train_toy_holds_one_batch_not_an_epoch():
    ds = gen_synthetic(200, 50, 64, noise=0.15, seed=1)
    model0 = ToyModel.random(32, 64, 200, seed=1)
    features = sum(f.nbytes for f in ds.speakers.values())
    _, peak = _traced_peak(lambda: train_toy(ds, model0, TrainConfig(steps=5, learning_rate=0.05),
                                             PkConfig(P=16, K=8, seed=2)))
    assert peak < features / 2


def test_eval_toy_peak_at_the_benchmark_size():
    ds = gen_synthetic(100, 40, 64, noise=0.15, seed=1)
    model = ToyModel.random(32, 64, 100, seed=1)
    scores, peak = _traced_peak(lambda: eval_toy(model, ds, 2000, seed=3))
    assert len(scores) == 2000
    # 2.0 MB of held-out features and 1.0 MB of embeddings: never all the features at once
    assert peak < 3e6


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 7), st.integers(1, 9), st.integers(1, 9),
       st.floats(0.0, 2.0), st.integers(0, 2**31))
def test_gen_synthetic_matches_the_per_speaker_reference(n_spk, utts, d_in, noise, seed):
    ds = gen_synthetic(n_spk, utts, d_in, noise, seed)
    means, speakers = oracles.gen_synthetic(n_spk, utts, d_in, noise, seed)
    assert ds.means.dtype == means.dtype and ds.means.tobytes() == means.tobytes()
    assert ds.speaker_ids == list(speakers)
    for sid, feats in speakers.items():
        got = ds.speakers[sid]
        assert got.dtype == feats.dtype and got.shape == feats.shape
        assert got.tobytes() == feats.tobytes()


@pytest.mark.parametrize("n_spk, per_spk, n_target, n_nontarget", [
    (3, 1, 0, 5),  # one utterance per speaker: no same-speaker pair exists
    (1, 4, 7, 0),  # one speaker: no cross-speaker pair exists
    (1, 1, 0, 0),
    (2, 2, 4, 8),  # every pair of both classes
    (4, 3, 24, 108),
])
def test_draw_pairs_gives_distinct_pairs_of_each_class(n_spk, per_spk, n_target, n_nontarget):
    ids = [f"s{s}u{u}" for s in range(n_spk) for u in range(per_spk)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = sampler_mod._draw_pairs(np.random.default_rng(5), ids, per_spk,
                                        n_target + n_nontarget)
    enroll, test = table._sides(np.arange(len(ids)))
    n = n_target + n_nontarget
    assert [trial[:2] for trial in table] == [(ids[e], ids[t]) for e, t in zip(enroll, test)]
    assert [t.label for t in table] == ([TrialLabel.TARGET] * n_target
                                       + [TrialLabel.NONTARGET] * n_nontarget)
    assert enroll.shape == test.shape == (n,)
    assert np.all((0 <= enroll) & (enroll < n_spk * per_spk))
    assert np.all((0 <= test) & (test < n_spk * per_spk))
    assert len(set(zip(enroll.tolist(), test.tolist()))) == n
    same = enroll // per_spk == test // per_spk
    assert same[:n_target].all() and not same[n_target:].any()
    assert np.all(enroll[:n_target] != test[:n_target])
