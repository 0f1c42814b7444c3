import math

import numpy as np
import pytest

from planflow.config import ConfigError
from planflow.numerics import DimensionError, Rng, Tensor
from planflow.posenc import (
    RopeConfig,
    apply_rope,
    build_phase_table,
    default_axis_split,
    segment_embedding_baseline,
    segment_embedding_lookup,
    token_angles,
)
from planflow.sequence import serialize


class TestConfig:
    def test_axis_split_default_rule(self):
        assert default_axis_split(16) == (2, 3, 3)
        assert default_axis_split(8) == (2, 1, 1)
        assert default_axis_split(32) == (4, 6, 6)

    def test_validation(self):
        with pytest.raises(ConfigError):
            RopeConfig(head_dim=7)
        with pytest.raises(ConfigError):
            RopeConfig(head_dim=8, axis_split=(1, 1, 1))
        with pytest.raises(ConfigError):
            RopeConfig(head_dim=8, base=-1.0)


class TestPhaseTable:
    def test_zero_position_zero_segment_is_identity(self):
        cfg = RopeConfig(head_dim=8)
        table = build_phase_table(cfg, (1, 1, 1), 0)
        assert np.array_equal(table.angles, np.zeros((1, 4)))

    def test_segment_zero_equals_standard_table(self):
        cfg = RopeConfig(head_dim=8)
        seg0 = build_phase_table(cfg, (2, 3, 2), 0)
        assert np.array_equal(seg0.angles, seg0.spatial)

    def test_segment_phase_closed_form(self):
        # head_dim=8, pair j=0, segment 2: phase = 2 * base^0 = 2.0 rad
        cfg = RopeConfig(head_dim=8, segment_base=10000.0)
        table = build_phase_table(cfg, (1, 1, 1), 2)
        assert table.segment[0] == 2.0
        freqs = cfg.segment_frequencies()
        assert np.array_equal(table.segment, 2 * freqs)
        assert np.allclose(freqs, [10000.0 ** (-2 * j / 8) for j in range(4)])

    def test_spatial_angle_closed_form(self):
        cfg = RopeConfig(head_dim=8, base=100.0)  # split (2,1,1)
        table = build_phase_table(cfg, (3, 2, 2), 0)
        d_t = 2
        # token at (t, h, w) = (2, 1, 1) is index 2*4 + 1*2 + 1
        idx = 2 * 4 + 1 * 2 + 1
        assert table.spatial[idx, 0] == 2 * 100.0 ** (-0 / d_t)
        assert table.spatial[idx, 1] == pytest.approx(2 * 100.0 ** (-1 / d_t))
        assert table.spatial[idx, 2] == 1.0  # h axis, single pair
        assert table.spatial[idx, 3] == 1.0  # w axis

    def test_invalid_inputs(self):
        cfg = RopeConfig(head_dim=8)
        with pytest.raises(DimensionError):
            build_phase_table(cfg, (0, 1, 1), 0)
        with pytest.raises(ConfigError):
            build_phase_table(cfg, (1, 1, 1), -1)


class TestApplyRope:
    def test_zero_angles_identity(self):
        cfg = RopeConfig(head_dim=8)
        table = build_phase_table(cfg, (1, 2, 2), 0)
        x = Rng(1).normal((4, 8))
        out = apply_rope(Tensor(x), np.zeros_like(table.angles)).data
        assert np.array_equal(out, x)

    def test_quarter_turn(self):
        x = np.zeros((1, 2))
        x[0, 0] = 1.0
        out = apply_rope(Tensor(x), np.array([[math.pi / 2]])).data
        assert abs(out[0, 0]) < 1e-12 and abs(out[0, 1] - 1.0) < 1e-12

    def test_norm_preserved(self):
        cfg = RopeConfig(head_dim=16)
        table = build_phase_table(cfg, (2, 2, 2), 3)
        x = Rng(5).normal((8, 16))
        out = apply_rope(Tensor(x), table).data
        assert np.abs(np.linalg.norm(out, axis=1) - np.linalg.norm(x, axis=1)).max() < 1e-12

    def test_dimension_mismatch(self):
        cfg = RopeConfig(head_dim=8)
        table = build_phase_table(cfg, (1, 1, 1), 0)
        with pytest.raises(DimensionError):
            apply_rope(Tensor(np.zeros((1, 6))), table)

    def test_relative_offset_invariance(self):
        """Within one segment the post-rotation dot product depends only on the
        positional offset, not the absolute positions."""
        cfg = RopeConfig(head_dim=16)
        rng = Rng(9)
        q = rng.normal((16,))
        k = rng.normal((16,))
        deltas = [(1, 0, 0), (0, 2, 1), (1, 1, 1)]
        shifts = [(0, 0, 0), (1, 2, 3), (3, 1, 0)]
        for delta in deltas:
            dots = []
            for shift in shifts:
                p = np.array([shift])
                pd = np.array([[shift[0] + delta[0], shift[1] + delta[1], shift[2] + delta[2]]])
                from planflow.posenc import spatial_angles

                aq = spatial_angles(cfg, p)
                ak = spatial_angles(cfg, pd)
                rq = apply_rope(Tensor(q[None, :]), aq).data[0]
                rk = apply_rope(Tensor(k[None, :]), ak).data[0]
                dots.append(float(rq @ rk))
            assert max(dots) - min(dots) < 1e-10

    def test_segment_phase_difference_identity(self):
        """Tokens sharing (t,h,w) in segments i != i' differ by exactly
        (i - i') * segment_base^(-2j/head_dim) on pair j."""
        cfg = RopeConfig(head_dim=8)
        freqs = cfg.segment_frequencies()
        for i in (1, 2, 5):
            ti = build_phase_table(cfg, (1, 2, 2), i)
            t0 = build_phase_table(cfg, (1, 2, 2), 0)
            # against segment 0 the identity is exact in floating point
            assert np.array_equal(ti.segment - t0.segment, i * freqs)
        t3 = build_phase_table(cfg, (1, 2, 2), 3)
        t1 = build_phase_table(cfg, (1, 2, 2), 1)
        assert np.allclose(t3.segment - t1.segment, 2 * freqs, rtol=1e-15, atol=0)
        # rotated keys actually differ
        x = Rng(3).normal((4, 8))
        r3 = apply_rope(Tensor(x), t3).data
        r1 = apply_rope(Tensor(x), t1).data
        assert np.abs(r3 - r1).max() > 1e-3

    def test_reduction_to_standard_rope(self):
        cfg = RopeConfig(head_dim=8)
        x = Rng(4).normal((4, 8))
        seg = build_phase_table(cfg, (1, 2, 2), 4)
        seg_zeroed = seg.spatial  # segment phases forced to zero
        std = build_phase_table(cfg, (1, 2, 2), 0)
        a = apply_rope(Tensor(x), seg_zeroed).data
        b = apply_rope(Tensor(x), std).data
        assert np.array_equal(a, b)


class TestTokenAngles:
    def test_text_rows_have_no_segment_phase(self):
        cfg = RopeConfig(head_dim=8)
        seq = serialize(3, [(1, 1, 1)], (1, 1, 1))
        ang_on = token_angles(cfg, seq, use_segment_phases=True)
        ang_off = token_angles(cfg, seq, use_segment_phases=False)
        assert np.array_equal(ang_on[:3], ang_off[:3])     # text rows
        assert np.array_equal(ang_on[4:], ang_off[4:])     # target rows: segment 0
        assert not np.array_equal(ang_on[3], ang_off[3])   # source row: segment 1


class TestSegmentEmbeddingBaseline:
    def test_zero_embedding_is_identity(self):
        table = Tensor(np.zeros((3, 4)))
        h = Tensor(Rng(1).normal((5, 4)))
        out = segment_embedding_baseline(h, 1, table)
        assert np.array_equal(out.data, h.data)

    def test_addition_definition(self):
        table = Tensor(Rng(2).normal((3, 4)))
        h = Tensor(Rng(3).normal((5, 4)))
        out = segment_embedding_baseline(h, 1, table)
        assert np.array_equal(out.data, h.data + table.data[1])

    def test_two_segments_differ_by_embedding_difference(self):
        table = Tensor(Rng(4).normal((3, 4)))
        h = Tensor(Rng(5).normal((5, 4)))
        out1 = segment_embedding_baseline(h, 1, table).data
        out2 = segment_embedding_baseline(h, 2, table).data
        expected = np.broadcast_to(table.data[1] - table.data[2], (5, 4))
        assert np.abs((out1 - out2) - expected).max() < 1e-12

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            segment_embedding_baseline(Tensor(np.zeros((2, 4))), 5, Tensor(np.zeros((3, 4))))

    def test_vectorized_lookup_matches(self):
        table = Tensor(Rng(6).normal((3, 4)))
        h = Tensor(Rng(7).normal((4, 4)))
        idx = np.array([0, 1, 1, 2])
        out = segment_embedding_lookup(h, idx, table).data
        for i, s in enumerate(idx):
            assert np.array_equal(out[i], h.data[i] + table.data[s])
