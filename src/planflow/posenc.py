"""Rotary position phases for video token grids, with a segment-index extension.

Spatial phases: pair j of axis a at coordinate p rotates by p * base**(-j/d_a),
with the head's pair budget split across (temporal, vertical, horizontal)
subspaces. The segment extension adds a full-dimensional phase
i * segment_base**(-2j/head_dim) on every pair, so two tokens sharing (t, h, w)
but living in different segments get distinct rotations; segment index 0
contributes nothing and reduces to the plain 3D rotation. Phases compose by
addition because applying two rotations multiplies unit complex numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigError
from .numerics import DimensionError, Tensor, add, embedding, narrow, rotate_pairs
from .sequence import TEXT, TokenSequence


def default_axis_split(head_dim: int) -> tuple[int, int, int]:
    """Pairs per (t, h, w) axis: 1/4, 3/8, 3/8 of the pair budget, remainder to t."""
    pairs = head_dim // 2
    d_h = (3 * pairs) // 8
    d_w = d_h
    return (pairs - d_h - d_w, d_h, d_w)


@dataclass(frozen=True)
class RopeConfig:
    head_dim: int
    axis_split: tuple[int, int, int] | None = None
    base: float = 10000.0
    segment_base: float = 10000.0

    def __post_init__(self):
        if self.head_dim <= 0 or self.head_dim % 2 != 0:
            raise ConfigError(f"head_dim must be a positive even integer, got {self.head_dim}")
        if self.base <= 0 or self.segment_base <= 0:
            raise ConfigError("rotary bases must be positive")
        if self.axis_split is not None and sum(self.axis_split) != self.head_dim // 2:
            raise ConfigError(
                f"axis_split {self.axis_split} must sum to head_dim/2 = {self.head_dim // 2}"
            )

    def split(self) -> tuple[int, int, int]:
        return self.axis_split if self.axis_split is not None else default_axis_split(self.head_dim)

    def axis_frequencies(self) -> list[np.ndarray]:
        out = []
        for d_a in self.split():
            j = np.arange(d_a, dtype=np.float64)
            out.append(self.base ** (-j / d_a) if d_a else np.zeros(0))
        return out

    def segment_frequencies(self) -> np.ndarray:
        j = np.arange(self.head_dim // 2, dtype=np.float64)
        return self.segment_base ** (-2.0 * j / self.head_dim)


@dataclass
class PhaseTable:
    """Per-position rotation angles, spatial and segment parts kept separate."""

    spatial: np.ndarray   # (n_positions, head_dim // 2)
    segment: np.ndarray   # (head_dim // 2,) already scaled by the segment index
    segment_index: int

    @property
    def angles(self) -> np.ndarray:
        return self.spatial + self.segment


def spatial_angles(cfg: RopeConfig, positions: np.ndarray) -> np.ndarray:
    """Angles for integer (t, h, w) coordinates, axes concatenated pairwise."""
    positions = np.asarray(positions, dtype=np.float64)
    freqs = cfg.axis_frequencies()
    parts = [positions[:, a : a + 1] * freqs[a][None, :] for a in range(3)]
    return np.concatenate(parts, axis=1)


def build_phase_table(cfg: RopeConfig, grid: tuple[int, int, int], segment_index: int) -> PhaseTable:
    if any(int(d) < 1 for d in grid):
        raise DimensionError(f"build_phase_table: grid {grid} has empty axes")
    if segment_index < 0:
        raise ConfigError(f"segment_index must be >= 0, got {segment_index}")
    t, h, w = grid
    tt, hh, ww = np.meshgrid(np.arange(t), np.arange(h), np.arange(w), indexing="ij")
    positions = np.stack([tt.ravel(), hh.ravel(), ww.ravel()], axis=1)
    return PhaseTable(
        spatial=spatial_angles(cfg, positions),
        segment=segment_index * cfg.segment_frequencies(),
        segment_index=segment_index,
    )


def token_angles(
    cfg: RopeConfig,
    seq: TokenSequence,
    use_segment_phases: bool,
) -> np.ndarray:
    """Rotation angles for every token of a canonical sequence.

    Text tokens rotate on their 1-D index via the temporal axis and never carry
    a segment phase.
    """
    angles = spatial_angles(cfg, seq.positions)
    if use_segment_phases:
        seg_freq = cfg.segment_frequencies()
        visual = np.array([k != TEXT for k in seq.kinds])
        idx = np.where(visual, seq.segment_indices, 0).astype(np.float64)
        angles = angles + idx[:, None] * seg_freq[None, :]
    return angles


def apply_rope(x: Tensor | np.ndarray, table: PhaseTable | np.ndarray) -> Tensor:
    """Rotate consecutive pairs of the last axis by the table's angles."""
    angles = table.angles if isinstance(table, PhaseTable) else np.asarray(table)
    data = x.data if isinstance(x, Tensor) else np.asarray(x)
    if data.shape[-1] != 2 * angles.shape[-1]:
        raise DimensionError(
            f"apply_rope: feature dim {data.shape[-1]} does not match {2 * angles.shape[-1]}"
        )
    if data.shape[:-1] != angles.shape[:-1]:
        raise DimensionError(
            f"apply_rope: leading shape {data.shape[:-1]} does not match table {angles.shape[:-1]}"
        )
    return rotate_pairs(x, angles)


def segment_embedding_baseline(hidden: Tensor, segment_index: int, table: Tensor) -> Tensor:
    """Ablation baseline: add a learnable per-segment vector to the hidden states."""
    if not 0 <= segment_index < table.shape[0]:
        raise IndexError(
            f"segment index {segment_index} out of range for {table.shape[0]} embeddings"
        )
    row = narrow(table, 0, segment_index, 1)
    return add(hidden, row)


def segment_embedding_lookup(hidden: Tensor, segment_indices: np.ndarray, table: Tensor) -> Tensor:
    """Vectorized form of the baseline for a whole token stream."""
    rows = embedding(table, np.asarray(segment_indices, dtype=np.intp))
    return add(hidden, rows)
