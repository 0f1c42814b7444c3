import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from planflow import numerics as nm
from planflow.numerics import (
    ContractError,
    attention,
    DimensionError,
    Rng,
    Tensor,
    backward,
    concat,
    embedding,
    fd_gradient,
    gelu,
    layernorm,
    logsumexp_rows,
    matmul,
    narrow,
    no_grad,
    Rotation,
    Run,
    rotate_pairs,
    softmax_rows,
    sub,
    tmean,
    tsum,
)
from planflow.sequence import NEG_BIAS
from util import rel_err


def naive_matmul(a, b):
    n, k = a.shape
    k2, m = b.shape
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


class TestMatmul:
    def test_identity(self):
        eye = Tensor([[1.0, 0.0], [0.0, 1.0]])
        b = Tensor([[3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(matmul(eye, b).data, b.data)

    def test_scalar_case(self):
        assert matmul(Tensor([[2.0]]), Tensor([[3.0]])).data[0, 0] == 6.0

    def test_matches_triple_loop_oracle(self):
        rng = Rng(101)
        a = rng.normal((4, 5))
        b = rng.normal((5, 3))
        got = matmul(Tensor(a), Tensor(b)).data
        assert np.abs(got - naive_matmul(a, b)).max() < 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


class TestBackward:
    def test_sum_gradient_is_ones(self):
        w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        backward(tsum(w))
        assert np.array_equal(w.grad, np.ones((2, 3)))

    def test_square_sum_gradient(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        backward(tsum(w * w))
        assert np.allclose(w.grad, [2.0, 4.0], atol=1e-15)

    def test_non_scalar_loss_rejected(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            backward(w * w)

    def test_composed_loss_matches_finite_differences(self):
        rng = Rng(7)
        w1 = Tensor(rng.normal((4, 8)) * 0.5, requires_grad=True)
        w2 = Tensor(rng.normal((8, 3)) * 0.5, requires_grad=True)
        g = Tensor(np.ones((1, 8)), requires_grad=True)
        b = Tensor(np.zeros((1, 8)), requires_grad=True)
        x = Tensor(rng.normal((5, 4)))

        def loss():
            h = layernorm(gelu(matmul(x, w1)), g, b)
            out = softmax_rows(matmul(h, w2))
            return tmean(out * out)

        grads = backward(loss())
        for p in (w1, w2, g, b):
            fd = fd_gradient(loss, p)
            assert rel_err(grads[p], fd) < 1e-4

    def test_reused_node_accumulates(self):
        w = Tensor([3.0], requires_grad=True)
        y = w * w + w * 2.0  # dy/dw = 2w + 2
        backward(tsum(y))
        assert np.allclose(w.grad, [8.0])


def _fd_check(build, params, tol=1e-4):
    grads = backward(build())
    for p in params:
        fd = fd_gradient(build, p)
        assert rel_err(grads[p], fd) < tol, f"adjoint mismatch for {p.shape}"


class TestPrimitiveAdjoints:
    """Every registered primitive against central finite differences on
    random inputs in [-2, 2]."""

    def setup_method(self):
        self.rng = Rng(99)

    def rand(self, shape, grad=True):
        return Tensor(self.rng.uniform(shape) * 4.0 - 2.0, requires_grad=grad)

    def test_add_broadcast(self):
        a, b = self.rand((3, 4)), self.rand((1, 4))
        _fd_check(lambda: tsum((a + b) * (a + b)), [a, b])

    def test_sub_mul(self):
        a, b = self.rand((3, 4)), self.rand((3, 4))
        _fd_check(lambda: tsum(sub(a, b) * b), [a, b])

    def test_mul_scalar_broadcast(self):
        a, b = self.rand((2, 5)), self.rand((2, 1))
        _fd_check(lambda: tsum(a * b), [a, b])

    def test_matmul(self):
        a, b = self.rand((3, 4)), self.rand((4, 3))
        _fd_check(lambda: tsum(matmul(a, b)), [a, b])

    def test_mean_axis(self):
        a = self.rand((4, 6))
        _fd_check(lambda: tsum(tmean(a * a, axis=-1, keepdims=True)), [a])

    def test_softmax(self):
        a = self.rand((4, 5))
        w = self.rand((4, 5))
        _fd_check(lambda: tsum(softmax_rows(a) * w), [a])

    def test_logsumexp(self):
        a = self.rand((4, 5))
        _fd_check(lambda: tsum(logsumexp_rows(a)), [a])

    def test_layernorm(self):
        a, g, b = self.rand((4, 8)), self.rand((1, 8)), self.rand((1, 8))
        _fd_check(lambda: tsum(layernorm(a, g, b) * layernorm(a, g, b)), [a, g, b])

    def test_gelu(self):
        a = self.rand((4, 6))
        _fd_check(lambda: tsum(gelu(a)), [a])

    def test_embedding(self):
        table = self.rand((7, 4))
        ids = np.array([0, 3, 3, 6], dtype=np.intp)
        _fd_check(lambda: tsum(embedding(table, ids) * embedding(table, ids)), [table])

    def test_concat_narrow(self):
        a, b = self.rand((2, 3)), self.rand((4, 3))
        _fd_check(lambda: tsum(narrow(concat([a, b], axis=0), 0, 1, 4)), [a, b])

    def test_rotate_pairs(self):
        a = self.rand((5, 6))
        angles = self.rng.uniform((5, 3)) * np.pi
        _fd_check(lambda: tsum(rotate_pairs(a, angles) * rotate_pairs(a, angles)), [a])
        rot = Rotation.of(angles)
        _fd_check(lambda: tsum(rotate_pairs(a, rot) * rotate_pairs(a, rot)), [a])
        assert np.array_equal(rotate_pairs(a, rot).data, rotate_pairs(a, angles).data)

    def test_layernorm_matches_mean_form(self):
        """The sum / d form is bit-identical to the textbook mean form."""
        x, g, b = self.rand((6, 10)), self.rand((1, 10)), self.rand((1, 10))
        xc = x.data - x.data.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-12)
        ref = xc * inv * g.data + b.data
        assert np.array_equal(layernorm(x, g, b).data, ref)
        _fd_check(lambda: tsum(layernorm(x, g, b) * layernorm(x, g, b)), [x, g, b])

    def test_attention_batched_heads_rotary_and_banned_columns(self):
        batch, heads, hd, nq, nk = 2, 2, 4, 3, 5
        q = self.rand((batch * nq, heads * hd))
        k = self.rand((batch * nk, heads * hd))
        v = self.rand((batch * nk, heads * hd))
        w = self.rand((batch * nq, heads * hd), grad=False)
        q_angles = np.tile(self.rng.uniform((nq, hd // 2)) * np.pi, (batch, heads))
        k_angles = np.tile(self.rng.uniform((nk, hd // 2)) * np.pi, (batch, heads))
        bias = np.zeros((batch, 1, 1, nk))
        bias[0, ..., 1] = NEG_BIAS
        bias[1, ..., 3:] = NEG_BIAS

        def build():
            out = attention(rotate_pairs(q, q_angles), rotate_pairs(k, k_angles), v, heads, batch, bias)
            return tsum(out * w)

        _fd_check(build, [q, k, v])
        # banned key rows get no gradient: their softmax weight is exactly 0
        backward(build())
        assert not k.grad[1].any() and not v.grad[nk + 3 :].any()


class TestAttention:
    def test_matches_per_head_softmax_oracle(self):
        rng = Rng(104)
        batch, heads, hd, nq, nk = 3, 2, 4, 4, 6
        q, k, v = (rng.normal((batch * n, heads * hd)) for n in (nq, nk, nk))
        bias = rng.normal((batch, heads, nq, nk))
        got = attention(Tensor(q), Tensor(k), Tensor(v), heads, batch, bias).data
        for b in range(batch):
            for h in range(heads):
                cols = slice(h * hd, (h + 1) * hd)
                qb, kb, vb = q[b * nq : (b + 1) * nq, cols], k[b * nk : (b + 1) * nk, cols], v[b * nk : (b + 1) * nk, cols]
                s = softmax_rows(Tensor(qb @ kb.T / np.sqrt(hd) + bias[b, h])).data
                assert np.abs(got[b * nq : (b + 1) * nq, cols] - s @ vb).max() < 1e-12

    def test_ragged_runs_match_separate_calls(self):
        """Runs of unequal entries equal one call per run, forward and adjoint;
        a bias applies to an integer batch only."""
        rng = Rng(105)
        heads, width = 2, 8
        runs = [Run(1, 3, 5), Run(2, 2, 4), Run(1, 4, 4)]
        q, k, v = (Tensor(rng.normal((sum(r.batch * getattr(r, n) for r in runs), width)), requires_grad=True)
                   for n in ("nq", "nk", "nk"))
        w = rng.normal(q.shape)
        backward(tsum(attention(q, k, v, heads, runs) * w))
        got = [t.grad.copy() for t in (q, k, v)] + [attention(q, k, v, heads, runs).data]
        q0 = k0 = 0
        for r in runs:
            rq, rk = slice(q0, q0 + r.batch * r.nq), slice(k0, k0 + r.batch * r.nk)
            q0, k0 = rq.stop, rk.stop
            parts = [Tensor(t.data[rows], requires_grad=True) for t, rows in ((q, rq), (k, rk), (v, rk))]
            out = attention(*parts, heads, r.batch)
            backward(tsum(out * w[rq]))
            assert np.array_equal(out.data, got[3][rq])
            for part, full, rows in zip(parts, got, (rq, rk, rk)):
                assert np.array_equal(part.grad, full[rows])
        with pytest.raises(DimensionError):
            attention(q, k, v, heads, runs[:2])
        with pytest.raises(ContractError):
            attention(q, k, v, heads, runs, np.zeros((1, 1, 1, 4)))

    def test_rejects_rows_that_do_not_split(self):
        x = Tensor(np.zeros((5, 4)))
        with pytest.raises(DimensionError):
            attention(x, x, x, heads=2, batch=2)
        with pytest.raises(DimensionError):
            attention(x, x, x, heads=3, batch=1)


class TestGelu:
    """The activation is the tanh form of GELU, computed without touching its input."""

    X = np.linspace(-12.0, 12.0, 4801)

    def test_matches_tanh_closed_form(self):
        c = math.sqrt(2.0 / math.pi)
        want = np.array([0.5 * x * (1.0 + math.tanh(c * (x + 0.044715 * x * x * x))) for x in self.X])
        got = gelu(Tensor(self.X)).data
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * np.maximum(np.abs(self.X), 1.0))

    def test_near_erf_form(self):
        exact = np.array([0.5 * x * (1.0 + math.erf(x / math.sqrt(2.0))) for x in self.X])
        assert np.abs(gelu(Tensor(self.X)).data - exact).max() < 4.8e-4

    def test_input_unchanged(self):
        a_np = Rng(5).normal((6, 7)) * 3
        a = Tensor(a_np.copy(), requires_grad=True)
        backward(tsum(gelu(a)))
        assert np.array_equal(a.data, a_np)

    def test_finite_at_large_magnitude(self):
        a = Tensor(np.array([-1e3, 1e3]), requires_grad=True)
        out = gelu(a)
        backward(tsum(out))
        assert np.array_equal(out.data, [0.0, 1e3])
        assert np.array_equal(a.grad, [0.0, 1.0])


class TestInvariants:
    def test_softmax_rows_sum_to_one(self):
        x = Tensor(Rng(1).normal((10, 7)) * 3)
        s = softmax_rows(x).data
        assert np.abs(s.sum(axis=-1) - 1.0).max() < 1e-12

    def test_layernorm_moments(self):
        x = Tensor(Rng(2).normal((10, 32)) * 5 + 1)
        y = layernorm(x, Tensor(np.ones((1, 32))), Tensor(np.zeros((1, 32)))).data
        assert np.abs(y.mean(axis=-1)).max() < 1e-10
        assert np.abs(y.var(axis=-1) - 1.0).max() < 1e-8

    def test_ops_pure_and_finite(self):
        rng = Rng(3)
        a_np = rng.normal((4, 4))
        a = Tensor(a_np.copy())
        out1 = gelu(softmax_rows(a)).data.copy()
        out2 = gelu(softmax_rows(a)).data
        assert np.array_equal(out1, out2)
        assert np.array_equal(a.data, a_np)
        assert np.isfinite(out1).all()

    def test_embedding_out_of_range(self):
        with pytest.raises(IndexError):
            embedding(Tensor(np.zeros((3, 2))), np.array([3]))

    def test_no_grad_skips_tape(self):
        w = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = w * w
        assert not y.requires_grad

    @given(st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_rotation_preserves_norm(self, n, pairs):
        rng = Rng(n * 31 + pairs)
        x = rng.normal((n, 2 * pairs))
        ang = rng.uniform((n, pairs)) * 2 * np.pi
        y = rotate_pairs(Tensor(x), ang).data
        assert np.abs(np.linalg.norm(y, axis=1) - np.linalg.norm(x, axis=1)).max() < 1e-12


class TestRng:
    def test_determinism(self):
        assert np.array_equal(Rng(7).normal((100,)), Rng(7).normal((100,)))
        assert np.array_equal(Rng(7).uniform((100,)), Rng(7).uniform((100,)))

    def test_counter_reconstruction(self):
        r = Rng(11)
        r.uniform((10,))
        state = r.state()
        a = r.uniform((5,))
        b = Rng.from_state(state).uniform((5,))
        assert np.array_equal(a, b)

    def test_normal_statistics(self):
        z = Rng(42).normal((100_000,))
        assert abs(z.mean()) < 0.02
        assert abs(z.var() - 1.0) < 0.05

    def test_uniform_empirical_cdf(self):
        u = np.sort(Rng(43).uniform((100_000,)))
        n = len(u)
        grid = (np.arange(1, n + 1)) / n
        ks = max(np.abs(u - grid).max(), np.abs(u - (grid - 1 / n)).max())
        assert ks < 0.01

    def test_children_are_decorrelated(self):
        a = Rng(5).child(1).uniform((2000,))
        b = Rng(5).child(2).uniform((2000,))
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.05

    def test_gamma_beta_support(self):
        r = Rng(9)
        g = r.gamma(0.9, (500,))
        assert (g > 0).all()
        be = r.beta(12.0, 0.9, (500,))
        assert ((be >= 0) & (be <= 1)).all()

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_gamma_beta_refuse_bad_parameters(self, bad):
        """A parameter that is not positive and finite is refused; a NaN or
        infinite one would otherwise keep the rejection loop from ever
        accepting a draw."""
        r = Rng(9)
        with pytest.raises(ContractError, match="positive and finite"):
            r.gamma(bad)
        for params in ((bad, 0.9), (12.0, bad)):
            with pytest.raises(ContractError, match="positive and finite"):
                r.beta(*params)

    def test_permutation_is_permutation(self):
        p = Rng(3).permutation(50)
        assert sorted(p.tolist()) == list(range(50))

    # Exact draws of each kind, in this order from a fresh stream per seed:
    # uniform(), uniform((3,)), normal(), normal((3,)), integers(-5, 1000),
    # integers(0, 10, (4,)), permutation(6), beta(12, 0.9), then state() and
    # child(2**63).state() and child(3).state(). Any change of one bit in any
    # stream fails here.
    GOLDEN = {
        0: (0.281761297722585, [0.8025511647369601, 0.48155858235550336, 0.22402281183106115],
            1.8531092156330942, [-0.9681081979725912, -0.6232318538631066, -2.163264974595407],
            125, [8, 2, 4, 9], [4, 5, 2, 3, 0, 1], 0.9275135135435411,
            (0, 28), (5196802822362493915, 0), (17909611376780542444, 0)),
        7: (0.012846003189734001, [0.09611191030497218, 0.7942885457469469, 0.5344526207351485],
            1.6828103737965139, [1.2747733638767047, -0.7927944089620134, 0.1620005964782096],
            742, [2, 7, 2, 5], [3, 1, 0, 4, 5, 2], 0.9971347001008988,
            (7, 28), (7195639206139662248, 0), (10753165928301472203, 0)),
        2**64 - 1: (0.9482802731023046, [0.612855528207616, 0.33267689279066576, 0.7840011069222779],
                    -2.064375623638129, [-1.6002015125854085, 1.0563976140464095, 1.310846216093915],
                    761, [7, 2, 2, 4], [0, 3, 1, 4, 5, 2], 0.9009815397526998,
                    (2**64 - 1, 28), (3055647633038352039, 0), (7862637804313477842, 0)),
    }

    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_golden_streams(self, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = Rng(seed)
            u, u3, z, z3 = r.uniform(), r.uniform((3,)), r.normal(), r.normal((3,))
            k, k4, perm, b = r.integers(-5, 1000), r.integers(0, 10, (4,)), r.permutation(6), r.beta(12.0, 0.9)
            got = (u, u3.tolist(), z, z3.tolist(), k, k4.tolist(), perm.tolist(), b,
                   r.state(), r.child(2**63).state(), r.child(3).state())
        assert got == self.GOLDEN[seed]
        assert (type(u), type(z), type(k), type(b)) == (np.float64, np.float64, int, float)
        assert (u3.dtype, z3.dtype, k4.dtype) == (np.float64, np.float64, np.int64)

    def test_golden_far_counter(self):
        assert Rng(3, 2**40).uniform((2,)).tolist() == [0.1712273372950514, 0.6763468185919204]
        assert Rng(3, 2**40).integers(0, 2**31, (2,)).tolist() == [367707906, 1452443733]

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_scalar_draws_are_the_vector_stream(self, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a, b = Rng(2**64 - 1, 5), Rng(2**64 - 1, 5)
            assert np.array([a.uniform() for _ in range(n)]).tobytes() == b.uniform((n,)).tobytes()
            assert [a.integers(-3, 40) for _ in range(n)] == b.integers(-3, 40, (n,)).tolist()
            assert a.state() == b.state()
