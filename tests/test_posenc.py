import math

import numpy as np
import pytest

from planflow.config import ConfigError
from planflow import posenc
from planflow.nets import rotary
from planflow.numerics import DimensionError, Rng, Tensor, rotate_pairs
from planflow.posenc import (
    RopeConfig,
    default_axis_split,
    spatial_angles,
    token_angles,
)
from planflow.sequence import TARGET, serialize
from util import row_at


ORIGIN = (0, 0, 0)  # the one position whose spatial phase is 0


class TestConfig:
    def test_axis_split_default_rule(self):
        assert default_axis_split(16) == (2, 3, 3)
        assert default_axis_split(8) == (2, 1, 1)
        assert default_axis_split(32) == (4, 6, 6)

    def test_validation(self):
        with pytest.raises(ConfigError):
            RopeConfig(head_dim=7)


class TestPhaseTable:
    """The phase table both models use: `token_angles` of a serialized layout."""

    def test_zero_position_zero_segment_is_identity(self):
        cfg = RopeConfig(head_dim=8)
        angles = token_angles(cfg, serialize(0, [], (1, 1, 1)), use_segment_phases=True)
        assert np.array_equal(angles, np.zeros((1, 4)))

    def test_segment_zero_equals_standard_table(self):
        cfg = RopeConfig(head_dim=8)
        seq = serialize(2, [(1, 2, 2)], (2, 3, 2))
        start, stop = seq.span_of(TARGET)
        on = token_angles(cfg, seq, use_segment_phases=True)
        off = token_angles(cfg, seq, use_segment_phases=False)
        assert np.array_equal(on[start:stop], off[start:stop])

    def test_segment_phase_closed_form(self):
        # head_dim=8, pair j=0, segment 2 at the origin: phase = 2 * base^0 = 2.0 rad
        cfg = RopeConfig(head_dim=8)
        seq = serialize(0, [(1, 1, 1), (1, 1, 1)], (1, 1, 1))
        phase = token_angles(cfg, seq, use_segment_phases=True)[row_at(seq, 2, ORIGIN)]
        assert phase[0] == 2.0
        freqs = cfg.segment_frequencies()
        assert np.array_equal(phase, 2 * freqs)
        assert np.allclose(freqs, [10000.0 ** (-2 * j / 8) for j in range(4)])

    def test_spatial_angle_closed_form(self, monkeypatch):
        monkeypatch.setattr(posenc, "ROPE_BASE", 100.0)
        cfg = RopeConfig(head_dim=8)  # split (2,1,1)
        seq = serialize(0, [], (3, 2, 2))
        angles = token_angles(cfg, seq, use_segment_phases=True)
        d_t = 2
        # token at (t, h, w) = (2, 1, 1) is index 2*4 + 1*2 + 1
        idx = 2 * 4 + 1 * 2 + 1
        assert angles[idx, 0] == 2 * 100.0 ** (-0 / d_t)
        assert angles[idx, 1] == pytest.approx(2 * 100.0 ** (-1 / d_t))
        assert angles[idx, 2] == 1.0  # h axis, single pair
        assert angles[idx, 3] == 1.0  # w axis

    def test_invalid_inputs(self):
        """No table is built for a head it cannot rotate or a grid with an empty axis."""
        with pytest.raises(ConfigError):
            RopeConfig(head_dim=0)
        with pytest.raises(DimensionError):
            serialize(0, [], (0, 1, 1))


class TestApplyRope:
    """Rotation by those phases, as `nets.self_attention` applies it."""

    def test_zero_angles_identity(self):
        x = Rng(1).normal((4, 8))
        out = rotate_pairs(Tensor(x), np.zeros((4, 4))).data
        assert np.array_equal(out, x)

    def test_quarter_turn(self):
        x = np.zeros((1, 2))
        x[0, 0] = 1.0
        out = rotate_pairs(Tensor(x), np.array([[math.pi / 2]])).data
        assert abs(out[0, 0]) < 1e-12 and abs(out[0, 1] - 1.0) < 1e-12

    def test_norm_preserved(self):
        cfg = RopeConfig(head_dim=16)
        seq = serialize(3, [(2, 2, 2), (1, 2, 2)], (2, 2, 2))
        heads = 2
        x = Rng(5).normal((len(seq), heads * 16))
        out = rotate_pairs(Tensor(x), rotary(token_angles(cfg, seq, True), heads)).data
        for h in range(heads):
            cols = slice(16 * h, 16 * (h + 1))
            assert np.abs(np.linalg.norm(out[:, cols], axis=1) - np.linalg.norm(x[:, cols], axis=1)).max() < 1e-12

    def test_dimension_mismatch(self):
        cfg = RopeConfig(head_dim=8)
        angles = token_angles(cfg, serialize(0, [], (1, 1, 1)), True)
        with pytest.raises(DimensionError):
            rotate_pairs(Tensor(np.zeros((1, 7))), angles)
        with pytest.raises(ValueError):
            rotate_pairs(Tensor(np.zeros((1, 6))), angles)

    def test_relative_offset_invariance(self):
        """Within one segment the post-rotation dot product depends only on the
        positional offset, not the absolute positions, with segment phases on."""
        cfg = RopeConfig(head_dim=16)
        seq = serialize(2, [(5, 5, 5)], (1, 1, 1))
        angles = token_angles(cfg, seq, use_segment_phases=True)
        rng = Rng(9)
        q = rng.normal((16,))
        k = rng.normal((16,))
        deltas = [(1, 0, 0), (0, 2, 1), (1, 1, 1)]
        shifts = [(0, 0, 0), (1, 2, 3), (3, 1, 0)]
        for delta in deltas:
            dots = []
            for shift in shifts:
                aq = angles[row_at(seq, 1, shift)]
                ak = angles[row_at(seq, 1, np.add(shift, delta))]
                rq = rotate_pairs(Tensor(q[None, :]), aq).data[0]
                rk = rotate_pairs(Tensor(k[None, :]), ak).data[0]
                dots.append(float(rq @ rk))
            assert max(dots) - min(dots) < 1e-10

    def test_segment_phase_difference_identity(self):
        """Tokens sharing (t,h,w) in segments i != i' differ by exactly
        (i - i') * segment_base^(-2j/head_dim) on pair j."""
        cfg = RopeConfig(head_dim=8)
        freqs = cfg.segment_frequencies()
        seq = serialize(0, [(1, 2, 2)] * 5, (1, 2, 2))
        angles = token_angles(cfg, seq, use_segment_phases=True)
        target = slice(*seq.span_of(TARGET))
        for i in (1, 2, 5):
            # against segment 0 at the origin the identity is exact in floating point
            assert np.array_equal(angles[row_at(seq, i, ORIGIN)] - angles[row_at(seq, 0, ORIGIN)], i * freqs)
            rows = slice(*seq.span_of(i))
            assert np.abs(angles[rows] - angles[target] - i * freqs).max() < 1e-14
        at = {i: angles[row_at(seq, i, ORIGIN)] for i in (1, 3)}
        assert np.allclose(at[3] - at[1], 2 * freqs, rtol=1e-15, atol=0)
        # rotated keys actually differ
        x = Rng(3).normal((4, 8))
        r3 = rotate_pairs(Tensor(x), angles[slice(*seq.span_of(3))]).data
        r1 = rotate_pairs(Tensor(x), angles[slice(*seq.span_of(1))]).data
        assert np.abs(r3 - r1).max() > 1e-3

    def test_reduction_to_standard_rope(self):
        """With segment phases off every segment, and with them on segment 0,
        rotates as the plain 3D rotation of its positions."""
        cfg = RopeConfig(head_dim=8)
        x = Rng(4).normal((4, 8))
        seq = serialize(0, [(1, 2, 2)] * 4, (1, 2, 2))
        on = token_angles(cfg, seq, use_segment_phases=True)
        off = token_angles(cfg, seq, use_segment_phases=False)
        for i, phases in ((4, off), (TARGET, on)):
            rows = slice(*seq.span_of(i))
            a = rotate_pairs(Tensor(x), phases[rows]).data
            b = rotate_pairs(Tensor(x), spatial_angles(cfg, seq.positions[rows])).data
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

    @pytest.mark.parametrize("segment_phases", [True, False])
    def test_serialized_layout_matches_phase_tables(self, segment_phases):
        """Each segment of a serialized layout rotates by its own grid and
        index only: another text length and other grids around it leave its
        rows unchanged, so the identities above hold in every layout."""
        cfg = RopeConfig(head_dim=16)
        grids = [(2, 2, 3), (1, 3, 2)]
        seq = serialize(4, grids, (2, 3, 3))
        angles = token_angles(cfg, seq, segment_phases)
        for i in (1, 2):
            others = [g if j == i else (1, 1, 1 + j) for j, g in enumerate(grids, start=1)]
            alt = serialize(7, others, (1, 2, 1))
            alt_angles = token_angles(cfg, alt, segment_phases)
            assert np.array_equal(angles[slice(*seq.span_of(i))],
                                  alt_angles[slice(*alt.span_of(i))])
        alt = serialize(1, [(1, 1, 1)], (2, 3, 3))
        assert np.array_equal(angles[slice(*seq.span_of(TARGET))],
                              token_angles(cfg, alt, segment_phases)[slice(*alt.span_of(TARGET))])
