"""Classifier-free guidance composition.

Two composition rules live here, both pure algebra over caller-supplied
predictions:

* `compose`: an unconditional base plus ordered incremental terms, one per
  condition branch (source video, source image, text, target semantics). Each
  increment is the difference between predictions whose condition subsets
  differ by exactly that branch, so all-unit weights telescope back to the
  fully conditional prediction. For the same reason a leading run of
  unit-weight increments drops out of the chain: v0 + 1 * (v1 - v0) = v1.
  The predictions come stacked on axis 0, one per subset of the chain.

* `compose_dual_branch`: the weighted fusion of an image-to-video branch and a
  video-to-video branch with per-branch weight constraints
  (w_full - w_text - w_media = 1, alpha + beta = 1). Evaluated in telescoped
  form so that constraint-satisfying weights map identical inputs to exactly
  that input in floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

BRANCHES = ("vid", "img", "txt", "tgt")

DUAL_BRANCH_KEYS = (
    "i2v_full",        # text + image conditions
    "i2v_text_drop",   # image condition only
    "i2v_image_drop",  # text condition only
    "v2v_full",        # text + video conditions
    "v2v_text_drop",   # video condition only
    "v2v_video_drop",  # text condition only
)


class GuidanceValidationError(ValueError):
    pass


class CompositionError(KeyError):
    pass


@dataclass(frozen=True)
class GuidanceSpec:
    """Which condition branches exist for the task, and their scalar weights."""

    weights: dict[str, float]
    present: tuple[str, ...]

    def __post_init__(self):
        unknown = [b for b in self.present if b not in BRANCHES]
        if unknown:
            raise GuidanceValidationError(f"unknown branches {unknown}; expected subset of {BRANCHES}")
        if len(set(self.present)) != len(self.present):
            raise GuidanceValidationError(f"duplicate branches in {self.present}")
        for b in self.present:
            w = self.weights.get(b)
            if w is None or not np.isfinite(w):
                raise GuidanceValidationError(f"branch {b!r} needs a finite weight, got {w!r}")
        # canonical branch order regardless of caller order
        object.__setattr__(
            self, "present", tuple(b for b in BRANCHES if b in self.present)
        )

    def subset_chain(self) -> list[frozenset]:
        """Condition subsets up to fully conditional, one new branch each,
        starting after the leading unit-weight increments, which telescope."""
        chain = [frozenset()]
        for b in self.present:
            chain.append(chain[-1] | {b})
        lead = next((i for i, b in enumerate(self.present) if self.weights[b] != 1.0), len(self.present))
        return chain[lead:]


def compose(spec: GuidanceSpec, stacked: np.ndarray) -> np.ndarray:
    """Base prediction plus weighted increments over the spec's subset chain:
    `stacked[i]` is the prediction under subset i of `spec.subset_chain()`,
    and increment i adds the i-th branch past the leading unit weights."""
    chain = spec.subset_chain()
    if len(stacked) != len(chain):
        raise CompositionError(f"{len(stacked)} predictions for a chain of {len(chain)} condition subsets")
    stacked = np.asarray(stacked, dtype=np.float64)
    out = stacked[0].copy()
    for i, branch in enumerate(spec.present[len(spec.present) + 1 - len(chain):], 1):
        out += spec.weights[branch] * (stacked[i] - stacked[i - 1])
    return out


@dataclass(frozen=True)
class DualBranchSpec:
    """Fusion weights for the image-to-video / video-to-video blend."""

    alpha: float
    beta: float
    i2v: tuple[float, float, float]  # (w_full, w_text, w_image)
    v2v: tuple[float, float, float]  # (w_full, w_text, w_video)


@dataclass(frozen=True)
class Violation:
    identity: str
    residual: float

    def describe(self) -> str:
        return f"{self.identity} violated, residual {self.residual:.6g}"


def validate(spec: DualBranchSpec) -> list[Violation]:
    """Every violated identity with its residual magnitude; never raises."""
    out = []
    r = spec.i2v[0] - spec.i2v[1] - spec.i2v[2] - 1.0
    if r != 0.0:
        out.append(Violation("w_full - w_text - w_image = 1 (i2v branch)", abs(r)))
    r = spec.v2v[0] - spec.v2v[1] - spec.v2v[2] - 1.0
    if r != 0.0:
        out.append(Violation("w_full - w_text - w_video = 1 (v2v branch)", abs(r)))
    r = spec.alpha + spec.beta - 1.0
    if r != 0.0:
        out.append(Violation("alpha + beta = 1", abs(r)))
    for name, w in (("alpha", spec.alpha), ("beta", spec.beta), *zip(("i2v",) * 3, spec.i2v), *zip(("v2v",) * 3, spec.v2v)):
        if not np.isfinite(w):
            out.append(Violation(f"{name} finite", float("inf")))
    return out


def compose_dual_branch(spec: DualBranchSpec, forwards: Mapping[str, np.ndarray]) -> np.ndarray:
    """Blend the two branch predictions under the validated weight constraints."""
    violations = validate(spec)
    if violations:
        raise GuidanceValidationError("; ".join(v.describe() for v in violations))
    missing = [k for k in DUAL_BRANCH_KEYS if k not in forwards]
    if missing:
        raise CompositionError(f"missing forwards: {', '.join(missing)}")
    f = {k: np.asarray(forwards[k], dtype=np.float64) for k in DUAL_BRANCH_KEYS}
    # w_full*e1 - w_t*e2 - w_m*e3 == e1 + w_t*(e1 - e2) + w_m*(e1 - e3) given
    # w_full = 1 + w_t + w_m; this form is exact on identical inputs.
    _, w_t, w_i = spec.i2v
    a_val = f["i2v_full"] + w_t * (f["i2v_full"] - f["i2v_text_drop"]) + w_i * (
        f["i2v_full"] - f["i2v_image_drop"]
    )
    _, w_t, w_v = spec.v2v
    b_val = f["v2v_full"] + w_t * (f["v2v_full"] - f["v2v_text_drop"]) + w_v * (
        f["v2v_full"] - f["v2v_video_drop"]
    )
    return b_val + spec.alpha * (a_val - b_val)

