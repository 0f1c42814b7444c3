"""Shared transformer plumbing for the planner and renderer: parameter init,
attention/MLP blocks over the numerics primitives, and sinusoidal time features.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import (
    Rng,
    Tensor,
    add,
    attention,
    gelu,
    layernorm,
    matmul,
    rotate_pairs,
)


def weight(rng: Rng, fan_in: int, fan_out: int, gain: float = 1.0) -> Tensor:
    return Tensor(rng.normal((fan_in, fan_out)) * (gain / math.sqrt(fan_in)), requires_grad=True)


def normal_param(rng: Rng, shape, std: float) -> Tensor:
    return Tensor(rng.normal(shape) * std, requires_grad=True)


def zeros_param(*shape: int) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def ones_param(*shape: int) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=True)


def ln(params: dict, prefix: str, x: Tensor) -> Tensor:
    return layernorm(x, params[prefix + "g"], params[prefix + "b"])


def mlp(params: dict, prefix: str, x: Tensor) -> Tensor:
    h = add(matmul(x, params[prefix + "w1"]), params[prefix + "b1"])
    return add(matmul(gelu(h), params[prefix + "w2"]), params[prefix + "b2"])


def self_attention(
    params: dict,
    prefix: str,
    x: Tensor,
    heads: int,
    bias: np.ndarray | None = None,
    angles: np.ndarray | None = None,
    batch: int = 1,
) -> Tensor:
    """Multi-head attention over `batch` independent token streams.

    x stacks the streams row-wise, shape (batch*n, d). `bias` is an additive
    mask broadcastable to (batch, heads, n, n); a fully banned key column gets
    softmax weight exactly 0 (the bias underflows). `angles` has shape
    (n, head_dim/2) and is shared across streams and heads.
    """
    q = matmul(x, params[prefix + "wq"])
    k = matmul(x, params[prefix + "wk"])
    v = matmul(x, params[prefix + "wv"])
    if angles is not None:
        tiled = np.tile(angles, (batch, heads))
        q = rotate_pairs(q, tiled)
        k = rotate_pairs(k, tiled)
    return matmul(attention(q, k, v, heads, batch, bias), params[prefix + "wo"])


def cross_attention(
    params: dict,
    prefix: str,
    x: Tensor,
    cond: Tensor,
    heads: int,
    batch: int = 1,
    bias: np.ndarray | None = None,
) -> Tensor:
    """Queries from the token stream, keys/values from the conditioning stream.

    Stream b of x attends to block b of cond, shape (batch*m, d); `bias`
    (broadcastable to (batch, heads, n, m)) bans padding keys.
    """
    q = matmul(x, params[prefix + "cq"])
    k = matmul(cond, params[prefix + "ck"])
    v = matmul(cond, params[prefix + "cv"])
    return matmul(attention(q, k, v, heads, batch, bias), params[prefix + "co"])


def time_features(t, dim: int) -> np.ndarray:
    """Sinusoidal features of t in [0, 1]; constant wrt the tape."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64)) * 1000.0
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / max(half, 1))
    ang = t[:, None] * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


def time_embedding(params: dict, prefix: str, t, dim_features: int) -> Tensor:
    feats = Tensor(time_features(t, dim_features))
    h = add(matmul(feats, params[prefix + "w1"]), params[prefix + "b1"])
    return add(matmul(gelu(h), params[prefix + "w2"]), params[prefix + "b2"])
