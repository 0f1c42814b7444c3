"""Serialization of heterogeneous task inputs into one canonical token sequence.

Canonical order is: text, then source visual segments in ascending segment
index, then the single target segment. Segment index 0 is reserved for the
target; sources are numbered 1..N and text is -1, so a row's segment index
is its role. The hybrid attention mask is causal within text, bidirectional
within each visual segment, and lets every token see all tokens of earlier
segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import DimensionError, Rng

TEXT = "text"
VISUAL_SOURCE = "visual-source"
VISUAL_TARGET = "visual-target"

NEG_BIAS = -1e30  # additive logit bias for banned attention entries


@dataclass(frozen=True)
class SegmentDesc:
    segment_index: int     # -1 for text, 0 for the target, 1..N for the sources
    grid: tuple[int, ...]  # (T, H, W) for visual kinds, (L,) for text

    @property
    def kind(self) -> str:
        return TEXT if self.segment_index < 0 else VISUAL_TARGET if self.segment_index == 0 else VISUAL_SOURCE

    @property
    def length(self) -> int:
        return int(math.prod(self.grid))


@dataclass
class TokenSequence:
    """Per-token metadata arrays plus the segment layout that generated them.

    `embeddings` (visual rows) and `text_ids` are attached by the caller after
    serialization; layout-only sequences are valid.
    """

    layout: list[SegmentDesc]
    segment_indices: np.ndarray  # (n,) int: each row's segment, so its role
    positions: np.ndarray      # (n, 3): (l,0,0) for text, (t,h,w) for visual
    masked: np.ndarray         # (n,) bool, true only on target tokens
    embeddings: np.ndarray | None = None  # (n, D_e); zero rows for text
    text_ids: np.ndarray | None = None    # (text_len,)

    def __len__(self) -> int:
        return len(self.segment_indices)

    def spans(self) -> list[tuple[SegmentDesc, int, int]]:
        """(descriptor, start, stop) per segment, in canonical order."""
        out = []
        offset = 0
        for desc in self.layout:
            out.append((desc, offset, offset + desc.length))
            offset += desc.length
        return out

    def span_of(self, kind: str, segment_index: int | None = None) -> tuple[int, int]:
        for desc, start, stop in self.spans():
            if desc.kind == kind and (segment_index is None or desc.segment_index == segment_index):
                return start, stop
        raise KeyError(f"no segment of kind {kind!r} (index {segment_index})")

    @property
    def text_len(self) -> int:
        return sum(d.length for d in self.layout if d.kind == TEXT)

    def head(self, stop: int) -> "TokenSequence":
        """The segments that end at or before token `stop`, as a sequence of
        their own; `stop` must fall on a segment boundary."""
        layout = [desc for desc, _, end in self.spans() if end <= stop]
        if sum(d.length for d in layout) != stop:
            raise DimensionError(f"head: token {stop} is not a segment boundary")
        return TokenSequence(
            layout=layout,
            segment_indices=self.segment_indices[:stop].copy(),
            positions=self.positions[:stop].copy(),
            masked=self.masked[:stop].copy(),
            embeddings=None if self.embeddings is None else self.embeddings[:stop].copy(),
            text_ids=None if self.text_ids is None else self.text_ids.copy(),
        )

    def copy(self) -> "TokenSequence":
        return self.head(len(self))


def grid_positions(grid: tuple[int, int, int]) -> np.ndarray:
    """(t, h, w) coordinates of every cell of a grid, in row-major order."""
    t, h, w = grid
    tt, hh, ww = np.meshgrid(np.arange(t), np.arange(h), np.arange(w), indexing="ij")
    return np.stack([tt.ravel(), hh.ravel(), ww.ravel()], axis=1)


def serialize(
    text_len: int,
    source_grids: list[tuple[int, int, int]],
    target_grid: tuple[int, int, int] | None,
) -> TokenSequence:
    """Build the canonical layout for one task instance.

    `target_grid=None` yields a text-only sequence (understanding-style data).
    """
    if text_len < 0:
        raise DimensionError(f"serialize: negative text length {text_len}")
    for g in list(source_grids) + ([target_grid] if target_grid is not None else []):
        if len(g) != 3 or any(int(d) < 1 for d in g):
            raise DimensionError(f"serialize: zero-sized or malformed grid {g}")

    layout: list[SegmentDesc] = []
    if text_len:
        layout.append(SegmentDesc(segment_index=-1, grid=(text_len,)))
    for i, g in enumerate(source_grids):
        layout.append(SegmentDesc(segment_index=i + 1, grid=tuple(int(d) for d in g)))
    if target_grid is not None:
        layout.append(SegmentDesc(segment_index=0, grid=tuple(int(d) for d in target_grid)))

    seg_idx, positions = [], []
    for desc in layout:
        if desc.kind == TEXT:
            pos = np.zeros((desc.length, 3), dtype=np.int64)
            pos[:, 0] = np.arange(desc.length)
        else:
            pos = grid_positions(desc.grid)
        positions.append(pos)
        seg_idx.extend([desc.segment_index] * desc.length)

    n = len(seg_idx)
    return TokenSequence(
        layout=layout,
        segment_indices=np.array(seg_idx, dtype=np.int64),
        positions=np.concatenate(positions, axis=0) if n else np.zeros((0, 3), dtype=np.int64),
        masked=np.zeros(n, dtype=bool),
    )


def build_mask(seq: TokenSequence) -> np.ndarray:
    """Segment-wise hybrid mask, (n, n) bool: query row may attend key
    column. Depends on the layout only."""
    n = len(seq)
    allow = np.zeros((n, n), dtype=bool)
    spans = seq.spans()
    for i, (desc, start, stop) in enumerate(spans):
        # earlier segments are fully visible
        for _, s0, s1 in spans[:i]:
            allow[start:stop, s0:s1] = True
        if desc.kind == TEXT:
            allow[start:stop, start:stop] = np.tril(np.ones((desc.length, desc.length), dtype=bool))
        else:
            allow[start:stop, start:stop] = True
    return allow


def round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def apply_target_mask(seq: TokenSequence, ratio: float, rng: Rng) -> TokenSequence:
    """Flag exactly round(ratio * target_count) target tokens as masked, chosen
    uniformly; the embeddings are untouched, since the planner reads masked
    rows from the flags.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"apply_target_mask: ratio {ratio} outside [0, 1]")
    out = seq.copy()
    start, stop = out.span_of(VISUAL_TARGET)
    m = stop - start
    count = round_half_up(ratio * m)
    out.masked[:] = False
    if count:
        chosen = rng.permutation(m)[:count]
        out.masked[start + chosen] = True
    return out
