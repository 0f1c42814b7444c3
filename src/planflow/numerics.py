"""Dense float64 tensors with taped reverse-mode gradients and a counter-based RNG.

The primitive vocabulary is fixed: only the ops the toy planner and renderer
need, each with a hand-written adjoint. Adjoints are verified against central
finite differences in the test suite; `fd_gradient` is the oracle used there.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, NamedTuple, Sequence

import numpy as np


class DimensionError(ValueError):
    """Shapes passed to a primitive do not fit together."""


class ContractError(ValueError):
    """A caller violated an operation's contract."""


_grad_enabled = True


@contextmanager
def no_grad():
    """Disable tape recording (inference fast path)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A dense float64 array plus the tape metadata needed for backward()."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], tuple] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    data = a.data + b.data
    return _record(data, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    data = a.data - b.data
    return _record(data, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    data = a.data * b.data
    return _record(
        data,
        (a, b),
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
    )


def matmul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    data = a.data @ b.data
    return _record(data, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _lift(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _record(data, (a,), vjp)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _lift(a)
    data = a.data.mean(axis=axis, keepdims=keepdims)
    n = a.data.size if axis is None else a.shape[axis]

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / n, a.shape).copy(),)

    return _record(data, (a,), vjp)


def softmax_rows(a) -> Tensor:
    """Softmax over the last axis; rows sum to 1."""
    a = _lift(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        return (s * (g - (g * s).sum(axis=-1, keepdims=True)),)

    return _record(s, (a,), vjp)


def logsumexp_rows(a) -> Tensor:
    """log(sum(exp(a))) over the last axis, keepdims; adjoint is the softmax."""
    a = _lift(a)
    m = a.data.max(axis=-1, keepdims=True)
    e = np.exp(a.data - m)
    z = e.sum(axis=-1, keepdims=True)
    data = m + np.log(z)
    soft = e / z
    return _record(data, (a,), lambda g: (g * soft,))


_LN_EPS = 1e-12


def layernorm(x, gain, bias) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale + shift."""
    x, gain, bias = _lift(x), _lift(gain), _lift(bias)
    # sum / d is bit-identical to ndarray.mean without its Python-level overhead
    d = x.shape[-1]
    xc = x.data - x.data.sum(axis=-1, keepdims=True) / d
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = xc * inv
    data = xhat * gain.data + bias.data

    def vjp(g):
        dxhat = g * gain.data
        dx = inv * (
            dxhat
            - dxhat.sum(axis=-1, keepdims=True) / d
            - xhat * ((dxhat * xhat).sum(axis=-1, keepdims=True) / d)
        )
        return (
            dx,
            _unbroadcast(g * xhat, gain.shape),
            _unbroadcast(g, bias.shape),
        )

    return _record(data, (x, gain, bias), vjp)


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_K = 0.044715


def gelu(a) -> Tensor:
    """Tanh-form GELU 0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³))), the form
    DiT-style MLPs use; within 4.8e-4 of the erf form x·Φ(x) everywhere.

    Written as in-place ufuncs over two buffers: `h` = ½(1 + tanh u), kept for
    the adjoint, and the output x·h. With d = 1 − h the derivative is
    h + 2·x·u′·h·d, since ½(1 − tanh² u) = 2·h·d."""
    a = _lift(a)
    x = a.data
    h = x * x
    h *= _GELU_C * _GELU_K
    h += _GELU_C
    h *= x
    np.tanh(h, out=h)
    h *= 0.5
    h += 0.5

    def vjp(g):
        # 2·x·u′ = x·(2c + 6ck·x²)
        q = x * x
        q *= 6.0 * _GELU_C * _GELU_K
        q += 2.0 * _GELU_C
        q *= x
        d = np.subtract(1.0, h)
        d *= q
        d += 1.0
        d *= h
        d *= g
        return (d,)

    return _record(x * h, (a,), vjp)


def embedding(table, ids) -> Tensor:
    """Gather rows of `table` by integer index; adjoint scatter-adds."""
    table = _lift(table)
    ids = np.asarray(ids, dtype=np.intp)
    if ids.ndim != 1:
        raise DimensionError(f"embedding: ids must be rank-1, got {ids.shape}")
    if table.data.ndim != 2:
        raise DimensionError(f"embedding: table must be rank-2, got {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(f"embedding: index out of range for table with {table.shape[0]} rows")
    data = table.data[ids]

    def vjp(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return (gt,)

    return _record(data, (table,), vjp)


def concat(parts: Sequence, axis: int = 0) -> Tensor:
    parts = [_lift(p) for p in parts]
    if not parts:
        raise DimensionError("concat: empty part list")
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        outs = []
        for i, p in enumerate(parts):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offsets[i], offsets[i + 1])
            outs.append(g[tuple(sl)])
        return tuple(outs)

    return _record(data, tuple(parts), vjp)


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    a = _lift(a)
    if start < 0 or start + length > a.shape[axis]:
        raise DimensionError(
            f"narrow: [{start}, {start + length}) out of range for axis {axis} of {a.shape}"
        )
    sl = [slice(None)] * a.data.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    data = a.data[sl].copy()

    def vjp(g):
        ga = np.zeros_like(a.data)
        ga[sl] = g
        return (ga,)

    return _record(data, (a,), vjp)


class Rotation(NamedTuple):
    """cos and sin of rotation angles, computed once for rotate_pairs calls that share them."""

    cos: np.ndarray
    sin: np.ndarray

    @classmethod
    def of(cls, angles) -> "Rotation":
        angles = np.asarray(angles, dtype=np.float64)
        return cls(np.cos(angles), np.sin(angles))


def rotate_pairs(a, angles: np.ndarray | Rotation) -> Tensor:
    """Rotate consecutive (even, odd) pairs of the last axis by `angles` radians.

    `angles` is a constant array broadcastable to a[..., ::2], or a
    `Rotation` of such an array; the rotation is orthogonal, so norms are
    preserved.
    """
    a = _lift(a)
    d = a.shape[-1]
    if d % 2 != 0:
        raise DimensionError(f"rotate_pairs: last axis must be even, got {d}")
    c, s = angles if isinstance(angles, Rotation) else Rotation.of(angles)
    x = a.data[..., 0::2]
    y = a.data[..., 1::2]
    data = np.empty_like(a.data)
    data[..., 0::2] = x * c - y * s
    data[..., 1::2] = x * s + y * c

    def vjp(g):
        gx = g[..., 0::2]
        gy = g[..., 1::2]
        ga = np.empty_like(a.data)
        ga[..., 0::2] = gx * c + gy * s
        ga[..., 1::2] = -gx * s + gy * c
        return (ga,)

    return _record(data, (a,), vjp)


class Run(NamedTuple):
    """`batch` consecutive entries of a ragged attention that share their
    shape: each has nq query rows and nk key rows."""

    batch: int
    nq: int
    nk: int


def attention(q, k, v, heads: int, batch: int | Sequence[Run] = 1, bias: np.ndarray | None = None) -> Tensor:
    """Scaled dot-product attention, block-diagonal over batch entries.

    q has shape (batch*nq, heads*hd); k and v have shape (batch*nk, heads*hd).
    Rows are batch-major and each head owns a contiguous block of hd columns.
    `bias` is a constant broadcastable to (batch, heads, nq, nk) and is added
    to the scaled logits; a column whose bias underflows gets weight exactly
    0. The output, shape (batch*nq, heads*hd), merges the heads back.

    `batch` may instead list `Run`s of entries of unequal size, which take
    the rows of q and of k in order; such a call takes no `bias`.
    """
    q, k, v = _lift(q), _lift(k), _lift(v)
    if q.data.ndim != 2 or k.shape != v.shape or q.shape[1] != k.shape[1]:
        raise DimensionError(f"attention: incompatible shapes q {q.shape}, k {k.shape}, v {v.shape}")
    width = q.shape[1]
    if isinstance(batch, int):
        if q.shape[0] % batch or k.shape[0] % batch:
            raise DimensionError(f"attention: q {q.shape}, k {k.shape} do not split into {batch} batches")
        batch = [Run(batch, q.shape[0] // batch, k.shape[0] // batch)]
    elif bias is not None:
        raise ContractError("attention: a bias applies to an integer batch, not to a list of runs")
    if width % heads or sum(r.batch * r.nq for r in batch) != q.shape[0] \
            or sum(r.batch * r.nk for r in batch) != k.shape[0]:
        raise DimensionError(f"attention: q {q.shape}, k {k.shape} do not split into runs {batch} of {heads} heads")
    hd = width // heads
    scale = 1.0 / math.sqrt(hd)

    def split(x, n):  # (b*n, heads*hd) -> (b, heads, n, hd)
        return x.reshape(-1, n, heads, hd).transpose(0, 2, 1, 3)

    def merge(x):  # inverse of split
        return x.transpose(0, 2, 1, 3).reshape(-1, width)

    data = np.empty(q.shape)
    saved = []
    q0 = k0 = 0
    for run in batch:
        rq, rk = slice(q0, q0 + run.batch * run.nq), slice(k0, k0 + run.batch * run.nk)
        q0, k0 = rq.stop, rk.stop
        qh, kh, vh = split(q.data[rq], run.nq), split(k.data[rk], run.nk), split(v.data[rk], run.nk)
        # softmax computed in place in one (batch, heads, nq, nk) buffer
        s = qh @ kh.swapaxes(-1, -2)
        s *= scale
        if bias is not None:
            s += bias
        s -= s.max(axis=-1, keepdims=True)
        np.exp(s, out=s)
        s /= s.sum(axis=-1, keepdims=True)
        data[rq] = merge(s @ vh)
        saved.append((rq, rk, qh, kh, vh, s))

    def vjp(g):
        dq, dk, dv = np.empty(q.shape), np.empty(k.shape), np.empty(v.shape)
        for rq, rk, qh, kh, vh, s in saved:
            gh = split(g[rq], s.shape[2])
            ds = gh @ vh.swapaxes(-1, -2)
            dlogits = s * (ds - (ds * s).sum(axis=-1, keepdims=True)) * scale
            dq[rq] = merge(dlogits @ kh)
            dk[rk] = merge(dlogits.swapaxes(-1, -2) @ qh)
            dv[rk] = merge(s.swapaxes(-1, -2) @ gh)
        return dq, dk, dv

    return _record(data, (q, k, v), vjp)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

class Graph:
    """Topologically ordered view of the tape reachable from a scalar loss."""

    def __init__(self, nodes: list[Tensor]):
        self.nodes = nodes  # topological order: parents before children

    @classmethod
    def trace(cls, loss: Tensor) -> "Graph":
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(loss, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        return cls(order)


def backward(loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Reverse pass from a scalar loss.

    Returns a map from each requires_grad leaf to its gradient, and also stores
    it on `leaf.grad`. Every reachable node is visited exactly once, in reverse
    topological order.
    """
    if loss.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        return {}
    graph = Graph.trace(loss)
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    leaf_grads: dict[Tensor, np.ndarray] = {}
    for node in reversed(graph.nodes):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            leaf_grads[node] = g
            node.grad = g
            continue
        parent_grads = node._vjp(g)
        for p, pg in zip(node._parents, parent_grads):
            if not p.requires_grad or pg is None:
                continue
            if id(p) in grads:
                grads[id(p)] = grads[id(p)] + pg
            else:
                grads[id(p)] = pg
    return leaf_grads


def fd_gradient(loss_fn: Callable[[], Tensor], param: Tensor, indices=None, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of `loss_fn` wrt selected coordinates of `param`.

    The independent oracle for adjoint checks: it re-evaluates the loss and never
    touches the tape.
    """
    flat = param.data.reshape(-1)
    if indices is None:
        indices = range(flat.size)
    indices = list(indices)
    out = np.zeros(len(indices))
    for k, i in enumerate(indices):
        orig = flat[i]
        flat[i] = orig + step
        with no_grad():
            f_plus = loss_fn().item()
        flat[i] = orig - step
        with no_grad():
            f_minus = loss_fn().item()
        flat[i] = orig
        out[k] = (f_plus - f_minus) / (2.0 * step)
    return out


# ---------------------------------------------------------------------------
# counter-based RNG
# ---------------------------------------------------------------------------

_GOLD = 0x9E3779B97F4A7C15
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _mix(z):
    """splitmix64 finalizer on a Python int or a uint64 array, modulo 2**64.

    The mask is needed on ints only; uint64 array arithmetic wraps silently.
    """
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class Rng:
    """Counter-based stream: draw i depends only on (seed, counter+i).

    Streams are bit-identical across runs and platforms; `state()` /
    `from_state()` round-trip through checkpoints. Scalar and vector draws
    are one stream: n scalar draws equal one n-vector draw from the same
    state. Scalar draws run on Python ints, vector draws on uint64 arrays.
    """

    __slots__ = ("seed", "counter")

    def __init__(self, seed: int, counter: int = 0):
        self.seed = int(seed) & _MASK64
        self.counter = int(counter)

    def state(self) -> tuple[int, int]:
        return (self.seed, self.counter)

    @classmethod
    def from_state(cls, state) -> "Rng":
        return cls(state[0], state[1])

    def child(self, tag: int) -> "Rng":
        """Derive an independent stream; does not consume from this one."""
        return Rng(_mix((self.seed + _GOLD * ((int(tag) + 1) & _MASK64)) & _MASK64), 0)

    def _unit(self) -> float:
        """The next draw as an open-interval (0, 1) Python float."""
        self.counter += 1
        raw = _mix(self.seed ^ _mix((self.counter * _GOLD) & _MASK64))
        return ((raw >> 11) + 0.5) * 2.0 ** -53

    def uniform(self, shape=()) -> np.ndarray:
        """Open-interval (0, 1) uniforms."""
        if not shape:
            return np.float64(self._unit())
        n = math.prod(shape)
        if n == 1:
            return np.full(shape, self._unit())
        idx = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        raw = _mix(self.seed ^ _mix(idx * _GOLD))
        return (((raw >> 11).astype(np.float64) + 0.5) * 2.0 ** -53).reshape(shape)

    def normal(self, shape=()) -> np.ndarray:
        """Standard normals via the Box-Muller transform of paired uniforms."""
        n = math.prod(shape) if shape else 1
        m = (n + 1) // 2
        u1 = self.uniform((m,))
        u2 = self.uniform((m,))
        r = np.sqrt(-2.0 * np.log(u1))
        z = np.empty(2 * m)
        z[0::2] = r * np.cos(2.0 * np.pi * u2)
        z[1::2] = r * np.sin(2.0 * np.pi * u2)
        z = z[:n]
        return z.reshape(shape) if shape else z[0]

    def integers(self, low: int, high: int, shape=()) -> np.ndarray:
        """Integers in [low, high)."""
        if high <= low:
            raise ContractError(f"integers: empty range [{low}, {high})")
        if not shape:
            return int(math.floor(self._unit() * (high - low)) + low)
        u = self.uniform(shape)
        return (np.floor(u * (high - low)) + low).astype(np.int64)

    def permutation(self, n: int) -> np.ndarray:
        keys = self.uniform((n,))
        return np.argsort(keys, kind="stable")

    def gamma(self, alpha: float, shape=()) -> np.ndarray:
        """Gamma(alpha, 1) via Marsaglia-Tsang squeeze-rejection (deterministic)."""
        if alpha <= 0:
            raise ContractError(f"gamma: alpha must be positive, got {alpha}")
        n = math.prod(shape) if shape else 1
        if alpha < 1.0:
            g = self.gamma(alpha + 1.0, (n,))
            u = self.uniform((n,))
            out = g * u ** (1.0 / alpha)
            return out.reshape(shape) if shape else out[0]
        d = alpha - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        out = np.empty(n)
        need = np.arange(n)
        while need.size:
            x = self.normal((need.size,))
            u = self.uniform((need.size,))
            v = (1.0 + c * x) ** 3
            vpos = np.where(v > 0, v, 1.0)
            ok = (v > 0) & (np.log(u) < 0.5 * x * x + d - d * v + d * np.log(vpos))
            out[need[ok]] = d * v[ok]
            need = need[~ok]
        return out.reshape(shape) if shape else out[0]

    def beta(self, a: float, b: float, shape=()) -> np.ndarray:
        """Beta(a, b) by the two-Gamma construction."""
        ga = self.gamma(a, shape if shape else (1,))
        gb = self.gamma(b, shape if shape else (1,))
        out = ga / (ga + gb)
        return out.reshape(shape) if shape else float(out[0])
