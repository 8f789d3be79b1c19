"""Sparse top-k gated fusion of per-layer embeddings.

The final layer's embedding drives a softmax gate over the remaining
layers; only the k most probable layers survive (ties broken by lower
index), their probabilities are renormalized, and the weighted layers
are summed with the final-layer embedding. An `unweighted` switch
replaces the renormalized weights with 1.0, i.e. a plain sum of every
selected layer, including one whose gate probability underflowed to 0.
"""

from dataclasses import dataclass

import numpy as np

from .core import _is_k
from .errors import BadK, DimensionMismatch

DEFAULT_TOP_K = 3


class LayerStack:
    """L x D matrix of per-layer embeddings, ordered by depth."""

    def __init__(self, layers):
        layers = np.asarray(layers, dtype=np.float64)
        if layers.ndim != 2 or layers.shape[0] < 2:
            raise DimensionMismatch("layer stack must be LxD with L >= 2")
        if not np.all(np.isfinite(layers)):
            raise ValueError("non-finite layer embedding")
        self.layers = layers

    @property
    def n_layers(self):
        return self.layers.shape[0]

    @property
    def final(self):
        return self.layers[-1]


@dataclass
class GateParams:
    """Affine gate over the non-final layers: softmax(weight @ e + bias)."""

    weight: np.ndarray
    bias: np.ndarray
    top_k: int = DEFAULT_TOP_K

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2:
            raise DimensionMismatch("gate weight must be a matrix")
        if self.bias.shape != (self.weight.shape[0],):
            raise DimensionMismatch("gate bias length must match weight rows")
        if not _is_k(self.top_k):
            raise BadK("top_k must be an integer >= 1")

    @classmethod
    def random(cls, n_candidates, dim, top_k=DEFAULT_TOP_K, seed=0):
        rng = np.random.default_rng(seed)
        return cls(
            weight=rng.standard_normal((n_candidates, dim)),
            bias=rng.standard_normal(n_candidates),
            top_k=top_k,
        )


def gate_probs(final_emb, params):
    """Softmax distribution over the non-final layers."""
    final_emb = np.asarray(final_emb, dtype=np.float64)
    if params.weight.shape[1] != final_emb.shape[0]:
        raise DimensionMismatch(f"gate expects dim {params.weight.shape[1]}, "
                                f"got {final_emb.shape[0]}")
    logits = params.weight @ final_emb + params.bias
    e = np.exp(logits - logits.max())
    return e / e.sum()


def top_k_mask(probs, k):
    """Keep the k largest probabilities, renormalized; zero the rest.

    Ties are broken toward the lower index. Exactly k entries are
    selected (k may equal the full length); a selected probability that
    underflowed to 0 is a zero weight.
    """
    return _select(probs, k)[1]


def _select(probs, k):
    """(the k selected indices, most probable first; `top_k_mask`'s weights)."""
    probs = np.asarray(probs, dtype=np.float64)
    if not (_is_k(k) and k <= probs.shape[0]):
        raise BadK(f"k={k!r} is not an integer in [1, {probs.shape[0]}]")
    selected = np.argsort(-probs, kind="stable")[:k]  # stable: ties keep lower index
    weights = np.zeros_like(probs)
    # the renormalizer sums most probable first, not in index order
    weights[selected] = probs[selected] / probs[selected].sum()
    return selected, weights


def _fuse(stack, params, unweighted=False):
    """(gate probabilities, selected layer indices, weights of the L-1
    non-final layers, fused vector) of `fuse`: the min(top_k, L-1)
    selected layers keep their renormalized probability, or 1.0."""
    if params.weight.shape[0] != stack.n_layers - 1:
        raise DimensionMismatch(f"gate has {params.weight.shape[0]} outputs for "
                                f"{stack.n_layers - 1} candidate layers")
    probs = gate_probs(stack.final, params)
    selected, weights = _select(probs, min(params.top_k, stack.n_layers - 1))
    if unweighted:
        weights[selected] = 1.0
    return probs, selected, weights, stack.final + weights @ stack.layers[:-1]


def fuse(stack, params, unweighted=False):
    """Sum the gated top-k layer embeddings with the final layer.

    fused = e_final + sum_{i selected} w_i * e_i over the L-1 non-final
    layers, with w the renormalized gate probabilities (or 1.0 each when
    unweighted).
    """
    return _fuse(stack, params, unweighted)[3]
