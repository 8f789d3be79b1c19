"""Sparse top-k gated fusion of per-layer embeddings.

The final layer's embedding drives a softmax gate over the remaining
layers; only the k most probable layers survive (ties broken by lower
index), their probabilities are renormalized, and the weighted layers
are summed with the final-layer embedding. An `unweighted` switch
replaces the renormalized weights with 1.0, i.e. a plain sum of the
selected layers.
"""

import numbers
from dataclasses import dataclass

import numpy as np

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
    def dim(self):
        return self.layers.shape[1]

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
        if not (isinstance(self.top_k, numbers.Integral) and self.top_k >= 1):
            raise BadK("top_k must be an integer >= 1")

    @classmethod
    def random(cls, n_candidates, dim, top_k=DEFAULT_TOP_K, seed=0, scale=1.0):
        rng = np.random.default_rng(seed)
        return cls(
            weight=scale * rng.standard_normal((n_candidates, dim)),
            bias=scale * rng.standard_normal(n_candidates),
            top_k=top_k,
        )


def gate_probs(final_emb, params):
    """Softmax distribution over the non-final layers."""
    final_emb = np.asarray(final_emb, dtype=np.float64)
    if params.weight.shape[1] != final_emb.shape[0]:
        raise DimensionMismatch(
            f"gate expects dim {params.weight.shape[1]}, got {final_emb.shape[0]}"
        )
    logits = params.weight @ final_emb + params.bias
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def top_k_mask(probs, k):
    """Keep the k largest probabilities, renormalized; zero the rest.

    Ties are broken toward the lower index. Exactly k entries are
    nonzero (k may equal the full length).
    """
    probs = np.asarray(probs, dtype=np.float64)
    if not 1 <= k <= probs.shape[0]:
        raise BadK(f"k={k} outside [1, {probs.shape[0]}]")
    order = np.argsort(-probs, kind="stable")  # stable: ties keep lower index
    selected = order[:k]
    out = np.zeros_like(probs)
    out[selected] = probs[selected] / probs[selected].sum()
    return out


def _gate(stack, params, unweighted=False):
    """(gate probabilities, weights of the L-1 non-final layers) of `fuse`:
    min(top_k, L-1) layers keep their renormalized probability, or 1.0."""
    if params.weight.shape[0] != stack.n_layers - 1:
        raise DimensionMismatch(
            f"gate has {params.weight.shape[0]} outputs for "
            f"{stack.n_layers - 1} candidate layers"
        )
    probs = gate_probs(stack.final, params)
    mask = top_k_mask(probs, min(params.top_k, stack.n_layers - 1))
    return probs, (mask > 0).astype(np.float64) if unweighted else mask


def fuse(stack, params, unweighted=False):
    """Sum the gated top-k layer embeddings with the final layer.

    fused = e_final + sum_{i selected} w_i * e_i over the L-1 non-final
    layers, with w the renormalized gate probabilities (or 1.0 each when
    unweighted).
    """
    _, weights = _gate(stack, params, unweighted)
    return stack.final + weights @ stack.layers[:-1]
