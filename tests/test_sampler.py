import hashlib
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


def _three_speakers(**kw):
    return SpeakerDataset({f"s{i}": np.ones((2, 8)) for i in range(3)}, **kw)


@pytest.mark.parametrize("means", [
    np.ones((2, 8)), np.ones((5, 8)), np.ones((3, 5)), np.ones(8), np.full((3, 8), np.nan),
    np.full((3, 8), np.inf),
])
def test_speaker_dataset_rejects_means_that_are_not_a_finite_row_per_speaker(means):
    with pytest.raises(BadParams, match="^means must be a finite 3 x 8 matrix"):
        _three_speakers(means=means, noise=0.1)


@pytest.mark.parametrize("noise", [-1.0, np.nan, np.inf])
def test_speaker_dataset_rejects_a_noise_that_is_not_finite_and_non_negative(noise):
    with pytest.raises(BadParams, match="^noise must be finite and >= 0"):
        _three_speakers(means=np.eye(3, 8), noise=noise)


def test_speaker_dataset_keeps_a_valid_generation_config():
    ds = _three_speakers(means=np.eye(3, 8).tolist(), noise=0)
    assert ds.means.dtype == np.float64 and np.array_equal(ds.means, np.eye(3, 8))
    assert len(eval_toy(ToyModel.random(4, 8, 3, seed=0), ds, 12, seed=1)) == 12


@pytest.mark.parametrize("speaker, row", [("s0", 0), ("s1", 0), ("s2", 0), ("s2", 4)])
def test_speaker_dataset_names_the_speaker_of_a_non_finite_row(speaker, row):
    feats = {"s0": np.ones((3, 4)), "s1": np.ones((1, 4)), "s2": np.ones((5, 4))}
    feats[speaker][row, 1] = np.nan
    with pytest.raises(BadParams, match=f"^non-finite features for speaker '{speaker}'$"):
        SpeakerDataset(feats)


def test_gen_synthetic_rejects_a_noise_that_overflows_the_features():
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BadParams, match="^non-finite features for speaker 'spk000'$"):
            gen_synthetic(3, 4, 8, noise=1e308, seed=0)


def test_speakers_are_read_only_views_of_one_feature_matrix():
    rng = np.random.default_rng(3)
    given = {f"s{i}": rng.standard_normal((n, 4)) for i, n in enumerate((3, 1, 5))}
    ds = SpeakerDataset(given)
    assert ds.speaker_ids == list(given) and ds.d_in == 4
    for sid, feats in given.items():
        view = ds.speakers[sid]
        assert np.array_equal(view, feats) and not np.shares_memory(view, feats)
        assert np.shares_memory(view, ds._features) and not view.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        ds.speakers["s1"][0, 0] = 0.0
    with pytest.raises(TypeError):  # a new matrix would not be the one batches come from
        ds.speakers["s1"] = np.zeros((1, 4))
    gen = gen_synthetic(4, 3, 5, noise=0.1, seed=2)
    assert gen._features.shape == (12, 5)
    assert all(np.shares_memory(f, gen._features) for f in gen.speakers.values())


@pytest.mark.parametrize("speakers, n_trials, per_spk", [
    (("spk000", "spk001", "spk002"), 10, 7),
    ((7, "b"), 1200, 1200),  # a 4-digit utterance number, an integer speaker ID
])
def test_eval_toy_names_held_out_utterances_as_the_f_string_form(speakers, n_trials, per_spk):
    ds = SpeakerDataset({sid: np.ones((1, 3)) for sid in speakers}, means=np.eye(len(speakers), 3),
                        noise=0.1)
    scores = eval_toy(ToyModel.random(2, 3, len(speakers), seed=0), ds, n_trials, seed=1)
    assert list(scores._table._ids) == [f"{sid}-ho{u:03d}" for sid in speakers
                                        for u in range(per_spk)]


# float.hex of every loss and the SHA-256 of the final parameters' bytes,
# recorded before the training step was rewritten as in-place array passes
# (numpy 2.4, OpenBLAS on x86-64: another BLAS build may round its GEMMs
# differently)
_RAGGED_HISTORY = [
    "0x1.9a16c1c115fabp+6", "0x1.1b9704b56c89ep+6", "0x1.a911f02e153ecp+6", "0x1.b951bd579b3d4p+5",
    "0x1.6203380beeaf7p+6", "0x1.0ec466617354dp+6", "0x1.489ae4625b7e6p+6", "0x1.15e0d7f7f793ap+6",
    "0x1.2445cd979b786p+6", "0x1.fb58cf76a5befp+5", "0x1.2764b67854934p+6", "0x1.1dffaf5383654p+6",
    "0x1.8b8d868f25882p+5", "0x1.0729bbc965db7p+6", "0x1.e71e3c208ecafp+5", "0x1.190662ae32f7ep+6",
    "0x1.662626092f253p+5", "0x1.06f63ddac1020p+6", "0x1.ebe0c0f897d8cp+5", "0x1.16e2e1774bcf0p+4",
    "0x1.09962ba0a91d8p+6", "0x1.934229e17ab85p+5", "0x1.cb9c4afa77d04p+5", "0x1.1e4aa078ef06fp+6",
]
_BENCH_HISTORY = [
    "0x1.c5a1278201c5bp+6", "0x1.b1d1f706d76e5p+6", "0x1.b95ad995625f1p+6", "0x1.ab9e04b3197cap+6",
    "0x1.a06634e017eb1p+6", "0x1.a805ff7292b66p+6", "0x1.6e6a3fc00e378p+6", "0x1.566982d26359ep+6",
    "0x1.3c640055a0428p+6", "0x1.4a2d4052b05b6p+6", "0x1.5986a6b749deap+6", "0x1.6a1c34a2bc3f4p+6",
    "0x1.264ba16d419e2p+6", "0x1.4e24a582af466p+6", "0x1.2f3fe2059dd44p+6", "0x1.2603ed3b8e4c6p+6",
    "0x1.220e602c0a753p+6", "0x1.0ca7458071433p+6", "0x1.06f9c9452e865p+6", "0x1.2b0edde381262p+6",
    "0x1.1e4a99e20a418p+6", "0x1.0ed9510a3256fp+6", "0x1.ff522367b7f92p+5", "0x1.b8c1f27c9b29ap+5",
    "0x1.10ed7ad0ec4aep+6", "0x1.f97ffbde9245dp+5", "0x1.050c1dec56128p+6", "0x1.03608e15c6f35p+6",
    "0x1.efb8d98b300e5p+5", "0x1.deb5a6c6154b4p+5", "0x1.8fc65c56c0057p+5", "0x1.d0778429eaaf1p+5",
    "0x1.ff75dc53d7094p+5", "0x1.f5f580e12c8ffp+5", "0x1.a6964a5f2bf6fp+5", "0x1.f56a38dbba4c8p+5",
    "0x1.7e114c9599b78p+5", "0x1.94e2d29b381cep+5", "0x1.bcfd498d3649ap+5", "0x1.8d9e920cac876p+5",
]


def _ragged_run():
    # 7, 9 and 12 utterances at K = 3: one speaker topped up, two that K divides
    rng = np.random.default_rng(21)
    ds = SpeakerDataset({f"s{i}": rng.standard_normal((n, 10)) for i, n in enumerate((7, 9, 12))})
    return (ds, ToyModel.random(6, 10, 3, seed=22), TrainConfig(steps=24, learning_rate=0.05),
            PkConfig(P=2, K=3, seed=23))


def _benchmark_run():
    # the train-pk benchmark's sizes, P and K, over an epoch and a part (31 batches an epoch)
    ds = gen_synthetic(100, 40, 64, noise=0.15, seed=31)
    return (ds, ToyModel.random(32, 64, 100, seed=32), TrainConfig(steps=40, learning_rate=0.05),
            PkConfig(P=16, K=8, seed=33))


@pytest.mark.parametrize("run, history, projection, class_weights", [
    (_ragged_run, _RAGGED_HISTORY,
     "8e1d5c3712fd3ca7cc33ea2a4e776fa6a550cf8af6a6b93f51dc4c99c65ab240",
     "abf8123b7ebe4291c2302e57cfeab3eb9b9da245202e3b0aecc5b9504d01a167"),
    (_benchmark_run, _BENCH_HISTORY,
     "1e92c9037e9da42ae08b3d39c63b7579ffd21ea1f88741493b949c3a20562ba3",
     "dd53398f30e7bbfcd737dea4e4e406eb8095704c8e0cbc8d01fe80f5c7c4c44e"),
])
def test_train_toy_keeps_the_recorded_bits(run, history, projection, class_weights):
    model, got = train_toy(*run())
    assert [loss.hex() for loss in got] == history
    assert hashlib.sha256(model.projection.tobytes()).hexdigest() == projection
    assert hashlib.sha256(model.class_weights.tobytes()).hexdigest() == class_weights
