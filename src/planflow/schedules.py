"""Stochastic schedules: mask-ratio Beta sampling, the cosine inference schedule,
flow-matching timestep samplers (logit-normal and mode weighting) with the
resolution shift map, and the pair-data linear decay.

Time convention everywhere: t = 1 is clean data, t = 0 is pure noise.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

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


# Per-task Beta(alpha, beta) of the training mask ratio: more informative
# inputs get ratios nearer 1, so the planner cannot lean on visible targets.
MASK_RATIO_BETA: dict[TaskKind, tuple[float, float]] = {
    TaskKind.T2I: (5.0, 1.1),
    TaskKind.T2V: (8.0, 1.05),
    TaskKind.I2I: (8.0, 1.05),
    TaskKind.I2V: (10.0, 1.0),
    TaskKind.V2V: (12.0, 0.9),
    TaskKind.IV2V: (12.0, 0.9),
}


def sample_mask_ratio(task: TaskKind, rng: Rng) -> float:
    return float(rng.beta(*MASK_RATIO_BETA[TaskKind(task)]))


# Per-task training timestep weighting (kind, params, shift), the SD3 recipe
# (Esser et al. 2024): logit-normal (m, s) for images, mode (s) for video,
# each warped toward noise by its task's shift.
TIMESTEP_WEIGHTING: dict[TaskKind, tuple[str, tuple[float, ...], float]] = {
    TaskKind.T2I: ("logit-normal", (0.5, 1.0), 3.0),
    TaskKind.I2I: ("logit-normal", (0.5, 1.0), 4.0),
    TaskKind.T2V: ("mode", (1.29,), 3.0),
    TaskKind.I2V: ("mode", (1.29,), 5.0),
    TaskKind.V2V: ("mode", (1.29,), 5.0),
    TaskKind.IV2V: ("mode", (1.29,), 5.0),
}


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


def sample_timestep(task: TaskKind, rng: Rng) -> float:
    """Draw a training timestep for the task, warped by its shift."""
    kind, args, shift = TIMESTEP_WEIGHTING[TaskKind(task)]
    sampler = {"logit-normal": sample_timestep_logit_normal, "mode": sample_timestep_mode}[kind]
    return shift_toward_noise(sampler(rng, *args), shift)


def pair_decay_weight(step: int, total_steps: int, start_fraction: float) -> float:
    """Linear decay of the pair-data sampling weight, reaching 0 at the end."""
    if total_steps <= 0:
        raise ContractError(f"total_steps must be positive, got {total_steps}")
    return start_fraction * max(0.0, 1.0 - step / total_steps)
