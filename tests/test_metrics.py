import numpy as np
import pytest

from oracles import oracle_a_dcf, oracle_eer

from sasvkit.core import ScoreSet, Trial, TrialLabel, partition_scores
from sasvkit.errors import EmptyClass
from sasvkit.metrics import ADcfConfig, a_dcf, det_points, eer, spf_eer, sv_eer


def _labeled_set(target=(), nontarget=(), spoof=()):
    s = ScoreSet()
    i = 0
    for label, values in (
        (TrialLabel.TARGET, target),
        (TrialLabel.NONTARGET, nontarget),
        (TrialLabel.SPOOF, spoof),
    ):
        for v in values:
            s.append(Trial(f"e{i}", f"t{i}", label), v)
            i += 1
    return s


def _random_labeled_set(rng, max_per_class=50):
    return _labeled_set(
        target=rng.standard_normal(rng.integers(1, max_per_class + 1)) + 1.0,
        nontarget=rng.standard_normal(rng.integers(1, max_per_class + 1)) - 0.5,
        spoof=rng.standard_normal(rng.integers(1, max_per_class + 1)),
    )


def test_eer_examples():
    value, _ = eer([0.9, 0.8], [0.1, 0.2])
    assert value == 0.0
    value, tau = eer([0.9, 0.8, 0.3], [0.7, 0.2, 0.1])
    assert abs(value - 1 / 3) < 1e-15
    assert 0.7 <= tau <= 0.8
    value, _ = eer([0.5, 0.5], [0.5, 0.5])
    assert value == 0.5


def test_eer_matches_midpoint_oracle():
    rng = np.random.default_rng(21)
    for _ in range(100):
        pos = list(rng.standard_normal(rng.integers(1, 30)))
        neg = list(rng.standard_normal(rng.integers(1, 30)))
        assert abs(eer(pos, neg)[0] - oracle_eer(pos, neg)) < 1e-12


def test_eer_ties_and_duplicates():
    # duplicated scores must not distort the counts
    pos = [0.5, 0.5, 0.9]
    neg = [0.5, 0.1]
    assert abs(eer(pos, neg)[0] - oracle_eer(pos, neg)) < 1e-15


def test_eer_empty_class():
    with pytest.raises(EmptyClass):
        eer([], [0.1])


@pytest.mark.parametrize("positive, negative, name", [
    ([float("nan"), 1.0], [0.0, 0.5], "positive"),
    ([1.0], [0.0, float("nan"), 0.5], "negative"),
    ([float("nan")], [float("nan")], "positive"),
])
def test_eer_rejects_a_nan_score_naming_its_class(positive, negative, name):
    with pytest.raises(ValueError, match=f"^eer got a NaN {name} score$"):
        eer(positive, negative)


def test_eer_takes_infinite_scores():
    pos = [float("inf"), 0.9, 0.3]
    neg = [float("-inf"), 0.7, 0.1]
    assert eer(pos, neg) == (1 / 3, 0.7)
    assert eer([float("inf")], [float("-inf")]) == (0.0, float("inf"))


def test_sv_eer_excludes_spoofs():
    s = _labeled_set(target=[0.9], nontarget=[0.1], spoof=[-5.0])
    assert sv_eer(s)[0] == 0.0
    crossing = _labeled_set(target=[0.9, 0.8, 0.3], nontarget=[0.7, 0.2, 0.1])
    assert abs(sv_eer(crossing)[0] - 1 / 3) < 1e-15
    with pytest.raises(EmptyClass):
        sv_eer(_labeled_set(target=[0.9], spoof=[0.1]))


def test_spf_eer():
    s = _labeled_set(target=[0.9, 0.8], nontarget=[0.5], spoof=[-5.0, -5.0])
    assert spf_eer(s)[0] == 0.0
    # crossing case: the exact sweep rule finds FRR=FAR=0.5 at tau=0.4
    s2 = _labeled_set(target=[0.6, 0.2], spoof=[0.4, 0.1])
    expected = oracle_eer([0.6, 0.2], [0.4, 0.1])
    assert abs(spf_eer(s2)[0] - expected) < 1e-15
    with pytest.raises(EmptyClass):
        spf_eer(_labeled_set(target=[0.9], nontarget=[0.1]))


@pytest.mark.parametrize("metric, message", [
    (a_dcf, "a_dcf needs target, nontarget, and spoof scores"),
    (det_points, "det_points needs all three classes"),
])
def test_three_class_metrics_need_spoof_trials(metric, message):
    for s in (_labeled_set(target=[0.9], nontarget=[0.1]),
              _labeled_set(target=[0.9], spoof=[0.1]),
              _labeled_set(nontarget=[0.1], spoof=[0.2])):
        with pytest.raises(EmptyClass, match=f"^{message}$"):
            metric(s)


def test_adcf_config_validation():
    with pytest.raises(ValueError):
        ADcfConfig(c_miss=0.0)
    with pytest.raises(ValueError):
        ADcfConfig(pi_target=0.5, pi_nontarget=0.2, pi_spoof=0.2)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["c_miss", "c_fa_nontarget", "c_fa_spoof"])
def test_adcf_config_rejects_non_finite_costs(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ADcfConfig(**{field: bad})


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("field", ["pi_target", "pi_nontarget", "pi_spoof"])
def test_adcf_config_rejects_non_finite_priors(field, bad):
    with pytest.raises(ValueError, match="priors must be finite"):
        ADcfConfig(**{field: bad})


def test_a_dcf_perfect_system():
    s = _labeled_set(target=[2.0, 1.5], nontarget=[-1.0], spoof=[-5.0])
    minimum, tau, normalized = a_dcf(s)
    assert minimum == 0.0
    assert -1.0 < tau <= 1.5
    assert normalized == 0.0


def test_a_dcf_degenerate_single_point():
    s = _labeled_set(target=[0.5], nontarget=[0.5], spoof=[0.5])
    cfg = ADcfConfig()
    minimum, _, normalized = a_dcf(s, cfg)
    accept_all = cfg.c_fa_nontarget * cfg.pi_nontarget + cfg.c_fa_spoof * cfg.pi_spoof
    reject_all = cfg.c_miss * cfg.pi_target
    assert abs(minimum - min(accept_all, reject_all)) < 1e-15
    assert abs(normalized - 1.0) < 1e-15


def test_a_dcf_matches_sweep_oracle():
    rng = np.random.default_rng(33)
    cfg = ADcfConfig()
    for _ in range(50):
        tar = list(rng.standard_normal(30) + 1)
        non = list(rng.standard_normal(30) - 1)
        spf = list(rng.standard_normal(30))
        s = _labeled_set(target=tar, nontarget=non, spoof=spf)
        assert abs(a_dcf(s, cfg)[0] - oracle_a_dcf(tar, non, spf, cfg)) < 1e-12


def test_a_dcf_bounded_by_dummy_systems():
    rng = np.random.default_rng(8)
    cfg = ADcfConfig()
    accept_all = cfg.c_fa_nontarget * cfg.pi_nontarget + cfg.c_fa_spoof * cfg.pi_spoof
    reject_all = cfg.c_miss * cfg.pi_target
    for _ in range(20):
        s = _random_labeled_set(rng, max_per_class=20)
        minimum = a_dcf(s, cfg)[0]
        assert 0.0 <= minimum <= min(accept_all, reject_all) + 1e-15


def test_monotone_invariance():
    rng = np.random.default_rng(12)
    for transform in (np.exp, np.arctan, lambda x: 3 * x + 7):
        s = _random_labeled_set(rng, max_per_class=25)
        moved = ScoreSet()
        for t, v in s:
            moved.append(t, float(transform(v)))
        assert abs(sv_eer(s)[0] - sv_eer(moved)[0]) < 1e-12
        assert abs(a_dcf(s)[0] - a_dcf(moved)[0]) < 1e-12


def test_det_points_minimal_and_perfect():
    s = _labeled_set(target=[0.9], nontarget=[0.2], spoof=[0.1])
    points = det_points(s)
    assert 2 <= len(points) <= 5
    assert any(
        p.p_miss == 0.0 and p.p_fa_nontarget == 0.0 and p.p_fa_spoof == 0.0
        for p in points
    )


def test_det_points_monotonic_rates():
    rng = np.random.default_rng(4)
    s = _random_labeled_set(rng, max_per_class=30)
    points = det_points(s)
    taus = [p.threshold for p in points]
    assert taus == sorted(taus)
    for a, b in zip(points, points[1:]):
        assert b.p_miss >= a.p_miss
        assert b.p_fa_nontarget <= a.p_fa_nontarget
        assert b.p_fa_spoof <= a.p_fa_spoof


def test_p_miss_complement_property():
    rng = np.random.default_rng(6)
    s = _random_labeled_set(rng, max_per_class=15)
    targets = [v for t, v in s if t.label is TrialLabel.TARGET]
    for p in det_points(s):
        accepted = sum(1 for v in targets if v >= p.threshold) / len(targets)
        assert abs(p.p_miss + accepted - 1.0) < 1e-12


def test_eer_a_dcf_and_det_points_read_one_sweep():
    rng = np.random.default_rng(21)
    cfg = ADcfConfig()
    for i in range(40):
        s = _random_labeled_set(rng, max_per_class=20)
        if i % 2:  # coarse scores: ties within and across classes
            s = ScoreSet((t, round(v, 1)) for t, v in s)
        points = det_points(s)
        minimum, tau, _ = a_dcf(s, cfg)
        (p,) = points[points.threshold == tau]
        assert minimum == (cfg.c_miss * cfg.pi_target * p.p_miss
                           + cfg.c_fa_nontarget * cfg.pi_nontarget * p.p_fa_nontarget
                           + cfg.c_fa_spoof * cfg.pi_spoof * p.p_fa_spoof)
        target, nontarget, _ = partition_scores(s)
        assert sv_eer(s) == eer(target, nontarget)
