"""Stochastic schedules: mask-ratio Beta sampling, the cosine inference schedule,
flow-matching timestep samplers (logit-normal and mode weighting) with the
resolution shift map, and the pair-data linear decay.

Time convention everywhere: t = 1 is clean data, t = 0 is pure noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .config import DEFAULTS, ConfigError
from .numerics import ContractError, Rng
from .sequence import round_half_up


class DomainError(ValueError):
    pass


class TaskKind(str, Enum):
    T2I = "t2i"
    T2V = "t2v"
    I2I = "i2i"
    I2V = "i2v"
    V2V = "v2v"
    IV2V = "iv2v"


ALL_TASKS = tuple(TaskKind)

def parse_mask_ratio(text: str) -> tuple[float, float]:
    """'alpha,beta' -> (alpha, beta), the config form of a mask-ratio Beta."""
    try:
        a, b = (float(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(f"expected 'alpha,beta' for a mask ratio, got {text!r}") from None
    return a, b


def parse_timestep(text: str) -> tuple[str, tuple[float, ...], float]:
    """'kind,params...,shift' -> (kind, params, shift), the config form of a
    timestep weighting."""
    parts = [x.strip() for x in text.split(",") if x.strip()]
    try:
        if len(parts) < 2:
            raise ValueError
        return parts[0], tuple(float(x) for x in parts[1:-1]), float(parts[-1])
    except ValueError:
        raise ConfigError(f"expected 'kind,params...,shift' for a timestep weighting, got {text!r}") from None


# The config's defaults (schedules.* keys). Per-task Beta(alpha, beta) for the
# training mask ratio: more informative inputs get distributions pushed toward
# ratio 1 so the planner cannot lean on visible target tokens. Per-task
# timestep weighting and shift: logit-normal(0.5, 1) for image tasks,
# mode(1.29) for video tasks.
_DEFAULTS = {key: value for key, value, _ in DEFAULTS}
DEFAULT_MASK_RATIO: dict[TaskKind, tuple[float, float]] = {
    t: parse_mask_ratio(_DEFAULTS[f"schedules.mask_ratio.{t.value}"]) for t in TaskKind
}
DEFAULT_TIMESTEP: dict[TaskKind, tuple[str, tuple[float, ...], float]] = {
    t: parse_timestep(_DEFAULTS[f"schedules.timestep.{t.value}"]) for t in TaskKind
}


@dataclass
class MaskRatioConfig:
    params: dict[TaskKind, tuple[float, float]] = field(
        default_factory=lambda: dict(DEFAULT_MASK_RATIO)
    )

    def __post_init__(self):
        for task, (a, b) in self.params.items():
            if a <= 0 or b <= 0:
                raise DomainError(f"mask ratio Beta params for {task} must be positive: {(a, b)}")


_WEIGHTING_ARITY = {"logit-normal": 2, "mode": 1}


@dataclass
class TimestepConfig:
    params: dict[TaskKind, tuple[str, tuple[float, ...], float]] = field(
        default_factory=lambda: dict(DEFAULT_TIMESTEP)
    )

    def __post_init__(self):
        for task, (kind, args, shift) in self.params.items():
            if kind not in _WEIGHTING_ARITY:
                raise DomainError(f"unknown timestep weighting {kind!r} for {task}")
            if len(args) != _WEIGHTING_ARITY[kind]:
                raise DomainError(f"{kind} weighting takes {_WEIGHTING_ARITY[kind]} parameter(s), got {args} for {task}")
            if shift < 1.0:
                raise DomainError(f"shift must be >= 1, got {shift} for {task}")
            if kind == "logit-normal" and args[1] <= 0:
                raise DomainError(f"logit-normal s must be positive, got {args[1]}")


def sample_mask_ratio(cfg: MaskRatioConfig, task: TaskKind, rng: Rng) -> float:
    a, b = cfg.params[TaskKind(task)]
    return float(rng.beta(a, b))


def inference_mask_ratio(k: int, total_steps: int) -> float:
    """cos(pi/2 * (k+1)/K): strictly decreasing, exactly 0 at the last step."""
    if total_steps < 1:
        raise ContractError(f"total_steps must be >= 1, got {total_steps}")
    if not 0 <= k < total_steps:
        raise ContractError(f"step index {k} outside [0, {total_steps})")
    if k == total_steps - 1:
        return 0.0
    return math.cos(0.5 * math.pi * (k + 1) / total_steps)


def masked_count_trace(total_steps: int, n_tokens: int) -> list[int]:
    """Tokens still masked after each of the K steps; non-increasing, ends at 0."""
    return [round_half_up(inference_mask_ratio(k, total_steps) * n_tokens) for k in range(total_steps)]


def timestep_density_logit_normal(t: float, m: float, s: float) -> float:
    if not 0.0 < t < 1.0:
        raise DomainError(f"logit-normal density needs t in (0, 1), got {t}")
    if s <= 0:
        raise DomainError(f"logit-normal s must be positive, got {s}")
    logit = math.log(t / (1.0 - t))
    return (
        1.0 / (s * math.sqrt(2.0 * math.pi))
        * 1.0 / (t * (1.0 - t))
        * math.exp(-((logit - m) ** 2) / (2.0 * s * s))
    )


def sample_timestep_logit_normal(rng: Rng, m: float, s: float, shape=()):
    """Inverse-transform sampler: sigmoid(m + s * N(0, 1))."""
    z = rng.normal(shape)
    return 1.0 / (1.0 + np.exp(-(m + s * z)))


def timestep_map_mode(u, s: float):
    """1 - u - s*(cos^2(pi*u/2) - 1 + u), via the half-angle identity so the
    endpoints and the s=1.29 symmetry point are exact in floating point."""
    u = np.asarray(u, dtype=np.float64)
    cos_sq = 0.5 * (1.0 + np.cos(np.pi * u))
    out = 1.0 - u - s * (cos_sq - 1.0 + u)
    return float(out) if out.ndim == 0 else out


def sample_timestep_mode(rng: Rng, s: float, shape=()):
    u = rng.uniform(shape)
    return np.clip(timestep_map_mode(u, s), 0.0, 1.0)


def apply_shift(t, shift: float):
    """Monotone bijection of [0,1]: t' = shift*t / (1 + (shift-1)*t)."""
    if shift < 1.0:
        raise DomainError(f"shift must be >= 1, got {shift}")
    t = np.asarray(t, dtype=np.float64)
    out = shift * t / (1.0 + (shift - 1.0) * t)
    return float(out) if out.ndim == 0 else out


def shift_toward_noise(t, shift: float):
    """Conjugate of apply_shift under t -> 1-t.

    With data at t=1 and noise at t=0, this pushes sampling density (and the
    integrator's fine steps) toward the noisy end, which is what the per-task
    shift values are for on video tasks.
    """
    return 1.0 - apply_shift(1.0 - np.asarray(t, dtype=np.float64), shift)


def sample_timestep(cfg: TimestepConfig, task: TaskKind, rng: Rng, shape=()):
    """Draw a training timestep for the task, warped by its shift."""
    kind, args, shift = cfg.params[TaskKind(task)]
    if kind == "logit-normal":
        t = sample_timestep_logit_normal(rng, args[0], args[1], shape)
    else:
        t = sample_timestep_mode(rng, args[0], shape)
    if shift != 1.0:
        t = shift_toward_noise(t, shift)
    return t


def pair_decay_weight(step: int, total_steps: int, start_fraction: float) -> float:
    """Linear decay of the pair-data sampling weight, reaching 0 at the end."""
    if total_steps <= 0:
        raise ContractError(f"total_steps must be positive, got {total_steps}")
    return start_fraction * max(0.0, 1.0 - step / total_steps)
