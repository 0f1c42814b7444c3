"""Shared transformer plumbing for the planner and renderer: parameter init,
attention/MLP blocks over the numerics primitives, and sinusoidal time features.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import (
    Rng,
    Rotation,
    Run,
    Tensor,
    add,
    attention,
    concat,
    embedding,
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


def block_params(params: dict, prefix: str, rng: Rng, d: int, cross: bool = False) -> None:
    """Add one transformer block of width d under `prefix`: self-attention,
    cross-attention if `cross`, then a 4*d MLP, each after its layernorm.
    The k-th weight drawn comes from `rng.child(k)`."""
    layers = [("ln1", "wq", "wk", "wv", "wo")] + ([("lnc", "cq", "ck", "cv", "co")] if cross else [])
    k = 0
    for norm, *proj in layers:
        params[prefix + norm + ".g"], params[prefix + norm + ".b"] = ones_param(1, d), zeros_param(1, d)
        for name in proj:
            params[prefix + name] = weight(rng.child(k), d, d, gain=0.5 if name == proj[-1] else 1.0)
            k += 1
    params[prefix + "ln2.g"], params[prefix + "ln2.b"] = ones_param(1, d), zeros_param(1, d)
    params[prefix + "w1"] = weight(rng.child(k), d, 4 * d)
    params[prefix + "b1"] = zeros_param(1, 4 * d)
    params[prefix + "w2"] = weight(rng.child(k + 1), 4 * d, d, gain=0.5)
    params[prefix + "b2"] = zeros_param(1, d)


def ln(params: dict, prefix: str, x: Tensor) -> Tensor:
    return layernorm(x, params[prefix + "g"], params[prefix + "b"])


def mlp(params: dict, prefix: str, x: Tensor) -> Tensor:
    h = add(matmul(x, params[prefix + "w1"]), params[prefix + "b1"])
    return add(matmul(gelu(h), params[prefix + "w2"]), params[prefix + "b2"])


def rotary(angles: np.ndarray, heads: int, batch: int = 1) -> Rotation:
    """cos/sin of per-row angles (n, head_dim/2), tiled over `batch` streams
    and `heads` heads to match self_attention's projected rows."""
    c, s = Rotation.of(angles)
    return Rotation(np.tile(c, (batch, heads)), np.tile(s, (batch, heads)))


def _after_past(past: Tensor, new: Tensor, batch: int) -> Tensor:
    """Rows of each stream: its `past` rows, then its `new` rows (batch-major)."""
    p, m = past.shape[0] // batch, new.shape[0] // batch
    both = concat([past, new], axis=0)
    if batch == 1:
        return both
    b, col = np.arange(batch)[:, None], np.arange(p + m)[None, :]
    return embedding(both, np.where(col < p, b * p + col, batch * p + b * m + col - p).ravel())


def self_attention(
    params: dict,
    prefix: str,
    x: Tensor,
    heads: int,
    bias: np.ndarray | None = None,
    rotation: Rotation | None = None,
    batch: int | list[Run] = 1,
    past: tuple[Tensor, Tensor] | None = None,
    keep: list | None = None,
    queries: np.ndarray | None = None,
) -> Tensor:
    """Multi-head attention over `batch` independent token streams.

    x stacks the streams row-wise, shape (batch*n, d). `bias` is an additive
    mask broadcastable to (batch, heads, n, n_keys); a fully banned key
    column gets softmax weight exactly 0 (the bias underflows). `rotation`
    (from `rotary`) rotates queries and keys. `past` holds the rotated keys
    and values of p earlier rows per stream, each (batch*p, d); the rows of x
    then attend to those p rows followed by their own n, so n_keys = p + n.
    `keep`, a list, receives this call's rotated (keys, values).

    Streams of unequal length pass `batch` as a list of `numerics.Run`s, and
    `queries`, row indices of x, makes only those rows queries: the output
    then has one row per query.
    """
    q = matmul(x if queries is None else embedding(x, queries), params[prefix + "wq"])
    k = matmul(x, params[prefix + "wk"])
    v = matmul(x, params[prefix + "wv"])
    if rotation is not None:
        q = rotate_pairs(q, rotation if queries is None else Rotation(rotation.cos[queries], rotation.sin[queries]))
        k = rotate_pairs(k, rotation)
    if keep is not None:
        keep.append((k, v))
    if past is not None:
        k, v = _after_past(past[0], k, batch), _after_past(past[1], v, batch)
    return matmul(attention(q, k, v, heads, batch, bias), params[prefix + "wo"])


def cross_kv(params: dict, prefix: str, cond: Tensor) -> tuple[Tensor, Tensor]:
    """Cross-attention keys and values of a conditioning stream."""
    return matmul(cond, params[prefix + "ck"]), matmul(cond, params[prefix + "cv"])


def cross_attention(
    params: dict,
    prefix: str,
    x: Tensor,
    kv: tuple[Tensor, Tensor],
    heads: int,
    batch: int | list[Run] = 1,
) -> Tensor:
    """Queries from the token stream, keys/values (from `cross_kv`) from the
    conditioning stream.

    Stream b of x attends to block b of the conditioning rows, (batch*m, d).
    A list of `numerics.Run`s as `batch` pairs streams and blocks of unequal
    size.
    """
    q = matmul(x, params[prefix + "cq"])
    return matmul(attention(q, kv[0], kv[1], heads, batch), params[prefix + "co"])


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
