import numpy as np
import pytest

from sasvkit.errors import BadK, DimensionMismatch
from sasvkit.moe import GateParams, LayerStack, fuse, gate_probs, top_k_mask


def test_layer_stack_validation():
    with pytest.raises(DimensionMismatch):
        LayerStack(np.ones((1, 4)))
    with pytest.raises(ValueError):
        LayerStack([[1.0, np.nan], [0.0, 1.0]])


def test_gate_probs_uniform_and_peaked():
    params = GateParams(weight=np.zeros((3, 4)), bias=np.zeros(3))
    probs = gate_probs(np.ones(4), params)
    assert np.allclose(probs, [1 / 3, 1 / 3, 1 / 3])
    peaked = GateParams(weight=np.zeros((3, 4)), bias=np.array([10.0, 0.0, 0.0]))
    probs = gate_probs(np.ones(4), peaked)
    assert probs[0] > 0.9999


def test_gate_probs_normalized_on_random_input():
    rng = np.random.default_rng(2)
    for _ in range(50):
        params = GateParams.random(5, 6, seed=rng.integers(1 << 30))
        probs = gate_probs(rng.standard_normal(6), params)
        assert np.all(probs > 0)
        assert abs(probs.sum() - 1.0) < 1e-9


def test_gate_probs_dimension_mismatch():
    params = GateParams(weight=np.zeros((3, 4)), bias=np.zeros(3))
    with pytest.raises(DimensionMismatch):
        gate_probs(np.ones(5), params)


def test_top_k_mask_examples():
    assert np.allclose(top_k_mask([0.5, 0.3, 0.2], 3), [0.5, 0.3, 0.2])
    masked = top_k_mask([0.5, 0.3, 0.1, 0.1], 3)
    assert np.allclose(masked, [0.5 / 0.9, 0.3 / 0.9, 0.1 / 0.9, 0.0])
    assert masked[3] == 0.0  # tie at 0.1 resolved to the lower index
    uniform = top_k_mask([0.25, 0.25, 0.25, 0.25], 3)
    assert np.flatnonzero(uniform).tolist() == [0, 1, 2]
    with pytest.raises(BadK):
        top_k_mask([0.5, 0.5], 3)
    with pytest.raises(BadK):
        top_k_mask([0.5, 0.5], 0)


@pytest.mark.parametrize("top_k", [0, -1, 2.5, 3.0, float("nan"), "3"])
def test_gate_params_require_an_integer_top_k_of_at_least_1(top_k):
    with pytest.raises(BadK, match="^top_k must be an integer >= 1$"):
        GateParams(np.ones((3, 2)), np.zeros(3), top_k=top_k)


def test_gate_params_take_a_numpy_integer_top_k():
    assert GateParams(np.ones((3, 2)), np.zeros(3), top_k=np.int64(2)).top_k == 2


def test_fuse_degenerate_stack():
    stack = LayerStack([[1.0, 2.0], [3.0, 4.0]])
    params = GateParams(weight=np.zeros((1, 2)), bias=np.zeros(1), top_k=1)
    fused = fuse(stack, params)
    assert np.array_equal(fused, np.array([4.0, 6.0]))


def test_fuse_uniform_gate():
    rng = np.random.default_rng(5)
    layers = rng.standard_normal((4, 6))
    stack = LayerStack(layers)
    params = GateParams(weight=np.zeros((3, 6)), bias=np.zeros(3), top_k=3)
    fused = fuse(stack, params)
    expected = layers[3] + (layers[0] + layers[1] + layers[2]) / 3.0
    assert np.allclose(fused, expected, atol=1e-12)


def test_fuse_unweighted_sums_selected_layers():
    rng = np.random.default_rng(6)
    layers = rng.standard_normal((4, 6))
    stack = LayerStack(layers)
    params = GateParams(weight=np.zeros((3, 6)), bias=np.array([5.0, 5.0, -5.0]), top_k=2)
    fused = fuse(stack, params, unweighted=True)
    assert np.allclose(fused, layers[3] + layers[0] + layers[1], atol=1e-12)


def test_fuse_ignores_non_selected_layers_bit_exactly():
    rng = np.random.default_rng(7)
    layers = rng.standard_normal((6, 8))
    stack = LayerStack(layers)
    params = GateParams.random(5, 8, top_k=2, seed=1)
    fused = fuse(stack, params)
    mask = top_k_mask(gate_probs(stack.final, params), 2)
    perturbed = layers.copy()
    for i in np.flatnonzero(mask == 0):
        perturbed[i] = rng.standard_normal(8) * 100
    assert np.array_equal(fuse(LayerStack(perturbed), params), fused)


def test_fuse_sparsity_count():
    rng = np.random.default_rng(8)
    for _ in range(50):
        L = int(rng.integers(2, 12))
        top_k = int(rng.integers(1, L + 3))
        params = GateParams.random(L - 1, 4, top_k=top_k, seed=rng.integers(1 << 30))
        probs = gate_probs(rng.standard_normal(4), params)
        mask = top_k_mask(probs, min(top_k, L - 1))
        assert np.count_nonzero(mask) == min(top_k, L - 1)


def test_gate_logit_shift_invariance():
    rng = np.random.default_rng(9)
    for _ in range(50):
        params = GateParams.random(5, 4, seed=rng.integers(1 << 30))
        x = rng.standard_normal(4)
        shifted = GateParams(params.weight, params.bias + 123.456, params.top_k)
        assert np.all(np.abs(gate_probs(x, params) - gate_probs(x, shifted)) < 1e-12)


def test_fuse_linear_in_layers_for_fixed_selection():
    rng = np.random.default_rng(10)
    layers_a = rng.standard_normal((5, 6))
    layers_b = layers_a + 0.01 * rng.standard_normal((5, 6))
    # zero gate input keeps the softmax (hence selection) fixed
    layers_a[-1] = 0.0
    layers_b[-1] = 0.0
    params = GateParams(weight=rng.standard_normal((4, 6)), bias=np.zeros(4), top_k=2)
    f = lambda layers: fuse(LayerStack(layers), params)
    lhs = f(0.25 * layers_a + 0.75 * layers_b)
    rhs = 0.25 * f(layers_a) + 0.75 * f(layers_b)
    assert np.allclose(lhs, rhs, atol=1e-12)
