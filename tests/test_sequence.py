import numpy as np
import pytest

from planflow.numerics import DimensionError, Rng
from planflow.sequence import (
    TARGET,
    TEXT,
    apply_target_mask,
    build_mask,
    round_half_up,
    serialize,
)


class TestSerialize:
    def test_text_plus_target_counts(self):
        seq = serialize(3, [], (1, 2, 2))
        assert len(seq) == 7
        t0, t1 = seq.span_of(TARGET)
        assert t1 - t0 == 4
        assert (seq.segment_indices[t0:t1] == 0).all()

    def test_single_source_counts(self):
        seq = serialize(2, [(1, 2, 2)], (1, 2, 2))
        assert len(seq) == 10
        s0, s1 = seq.span_of(1)
        assert (seq.segment_indices[s0:s1] == 1).all()

    def test_two_sources_layout_enumerated(self):
        seq = serialize(4, [(2, 2, 2), (1, 2, 2)], (2, 2, 2))
        assert len(seq) == 4 + 8 + 4 + 8
        assert [d.segment_index for d in seq.layout] == [TEXT, 1, 2, TARGET] == [-1, 1, 2, 0]
        # positions enumerate each grid row-major
        s0, _ = seq.span_of(1)
        assert seq.positions[s0].tolist() == [0, 0, 0]
        assert seq.positions[s0 + 1].tolist() == [0, 0, 1]
        assert seq.positions[s0 + 7].tolist() == [1, 1, 1]

    def test_zero_sized_grid_rejected(self):
        with pytest.raises(DimensionError):
            serialize(2, [], (0, 2, 2))
        with pytest.raises(DimensionError):
            serialize(2, [(1, 0, 1)], (1, 1, 1))

    def test_positions_unique_per_segment(self):
        seq = serialize(5, [(2, 3, 2)], (2, 2, 2))
        seen = {(int(s), tuple(p)) for s, p in zip(seq.segment_indices, seq.positions)}
        assert len(seen) == len(seq)

    def test_head_keeps_whole_segments(self):
        seq = serialize(3, [(1, 2, 2)], (1, 2, 2))
        seq.embeddings = np.arange(len(seq) * 2, dtype=np.float64).reshape(-1, 2)
        head = seq.head(7)
        assert head.layout == seq.layout[:2] and len(head) == 7
        assert np.array_equal(head.embeddings, seq.embeddings[:7])
        head.embeddings[0] = -1.0
        assert seq.embeddings[0, 0] == 0.0
        with pytest.raises(DimensionError):
            seq.head(5)


class TestBuildMask:
    def test_text_only_causal(self):
        seq = serialize(4, [], None)
        allow = build_mask(seq)
        assert np.array_equal(allow, np.tril(np.ones((4, 4), dtype=bool)))

    def test_target_only_bidirectional(self):
        seq = serialize(0, [], (1, 2, 2))
        assert build_mask(seq).all()

    def test_hybrid_enumerated(self):
        # text(2) + source(2) + target(2): block rules enumerated by hand
        seq = serialize(2, [(1, 1, 2)], (1, 1, 2))
        allow = build_mask(seq)
        expected = np.array([
            [1, 0, 0, 0, 0, 0],
            [1, 1, 0, 0, 0, 0],
            [1, 1, 1, 1, 0, 0],
            [1, 1, 1, 1, 0, 0],
            [1, 1, 1, 1, 1, 1],
            [1, 1, 1, 1, 1, 1],
        ], dtype=bool)
        assert np.array_equal(allow, expected)

    def test_mask_depends_on_layout_only(self):
        seq = serialize(2, [(1, 2, 2)], (1, 2, 2))
        a = build_mask(seq)
        seq.embeddings = Rng(1).normal((len(seq), 8))
        seq.text_ids = np.array([1, 2])
        assert np.array_equal(build_mask(seq), a)


class TestApplyTargetMask:
    def _seq(self, n=8):
        seq = serialize(2, [(1, 2, 2)], (2, 2, 2))
        seq.embeddings = Rng(3).normal((len(seq), 4))
        seq.text_ids = np.array([1, 2])
        return seq

    def test_ratio_zero_and_one(self):
        seq = self._seq()
        assert apply_target_mask(seq, 0.0, Rng(1)).masked.sum() == 0
        out = apply_target_mask(seq, 1.0, Rng(1))
        t0, t1 = out.span_of(TARGET)
        assert out.masked[t0:t1].all() and out.masked.sum() == t1 - t0

    def test_exact_count_round_half_up(self):
        seq = self._seq()
        for ratio, expect in ((0.5, 4), (0.3, 2), (0.44, 4), (0.05, 0), (0.0625, 1)):
            out = apply_target_mask(seq, ratio, Rng(5))
            assert out.masked.sum() == expect == round_half_up(ratio * 8)

    def test_uniform_choice_monte_carlo(self):
        seq = self._seq()
        t0, _ = seq.span_of(TARGET)
        hits = np.zeros(8)
        rng = Rng(17)
        trials = 10_000
        for _ in range(trials):
            out = apply_target_mask(seq, 0.5, rng)
            hits += out.masked[t0 : t0 + 8]
        freq = hits / trials
        assert np.abs(freq - 0.5).max() < 0.02

    def test_non_target_tokens_untouched(self):
        """Only target flags change; every embedding row, masked or not, is
        kept, since the planner reads masked rows from the flags."""
        seq = self._seq()
        before = seq.embeddings.copy()
        out = apply_target_mask(seq, 1.0, Rng(2))
        t0, _ = seq.span_of(TARGET)
        assert np.array_equal(out.embeddings, before)
        assert not out.masked[:t0].any()
        # input sequence is untouched (pure function)
        assert np.array_equal(seq.embeddings, before)
        assert not seq.masked.any()

    def test_ratio_out_of_range(self):
        with pytest.raises(ValueError):
            apply_target_mask(self._seq(), 1.5, Rng(1))
