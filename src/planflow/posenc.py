"""Rotary position phases for video token grids, with a segment-index extension.

Spatial phases: pair j of axis a at coordinate p rotates by
p * ROPE_BASE**(-j/d_a), with the head's pair budget split across (temporal,
vertical, horizontal) subspaces. The segment extension adds a full-dimensional
phase i * SEGMENT_BASE**(-2j/head_dim) on every pair, so two tokens sharing
(t, h, w) but living in different segments get distinct rotations; segment
index 0 contributes nothing and reduces to the plain 3D rotation. Phases
compose by addition because applying two rotations multiplies unit complex
numbers. The planner and the renderer both take their angles from
`token_angles` over a `sequence.serialize` layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigError
from .sequence import TokenSequence


ROPE_BASE = 10000.0     # spatial frequency base
SEGMENT_BASE = 10000.0  # segment-index frequency base


def default_axis_split(head_dim: int) -> tuple[int, int, int]:
    """Pairs per (t, h, w) axis: 1/4, 3/8, 3/8 of the pair budget, remainder to t."""
    pairs = head_dim // 2
    d_h = (3 * pairs) // 8
    d_w = d_h
    return (pairs - d_h - d_w, d_h, d_w)


@dataclass(frozen=True)
class RopeConfig:
    head_dim: int

    def __post_init__(self):
        if self.head_dim <= 0 or self.head_dim % 2 != 0:
            raise ConfigError(f"head_dim must be a positive even integer, got {self.head_dim}")

    def axis_frequencies(self) -> list[np.ndarray]:
        out = []
        for d_a in default_axis_split(self.head_dim):
            j = np.arange(d_a, dtype=np.float64)
            out.append(ROPE_BASE ** (-j / d_a) if d_a else np.zeros(0))
        return out

    def segment_frequencies(self) -> np.ndarray:
        j = np.arange(self.head_dim // 2, dtype=np.float64)
        return SEGMENT_BASE ** (-2.0 * j / self.head_dim)


def spatial_angles(cfg: RopeConfig, positions: np.ndarray) -> np.ndarray:
    """Angles for integer (t, h, w) coordinates, axes concatenated pairwise."""
    positions = np.asarray(positions, dtype=np.float64)
    freqs = cfg.axis_frequencies()
    parts = [positions[:, a : a + 1] * freqs[a][None, :] for a in range(3)]
    return np.concatenate(parts, axis=1)


def token_angles(
    cfg: RopeConfig,
    seq: TokenSequence,
    use_segment_phases: bool,
) -> np.ndarray:
    """Rotation angles for every token of a canonical sequence.

    Text tokens rotate on their 1-D index via the temporal axis and never carry
    a segment phase: their index -1 clips to 0, the target's own index.
    """
    angles = spatial_angles(cfg, seq.positions)
    if use_segment_phases:
        idx = np.maximum(seq.segment_indices, 0).astype(np.float64)
        angles = angles + idx[:, None] * cfg.segment_frequencies()[None, :]
    return angles
