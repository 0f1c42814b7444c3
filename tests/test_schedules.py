import math

import numpy as np
import pytest
from scipy import integrate, stats

from planflow.numerics import ContractError, Rng
from planflow.schedules import (
    shift_toward_noise,
    MASK_RATIO_BETA,
    TIMESTEP_WEIGHTING,
    DomainError,
    TaskKind,
    apply_shift,
    inference_mask_ratio,
    masked_count_trace,
    pair_decay_weight,
    sample_mask_ratio,
    sample_timestep,
    sample_timestep_logit_normal,
    sample_timestep_mode,
    timestep_density_logit_normal,
    timestep_map_mode,
)

# the per-task tables
MASK_RATIO, TIMESTEP = MASK_RATIO_BETA, TIMESTEP_WEIGHTING


class TestMaskRatioSampling:
    def test_default_table(self):
        assert MASK_RATIO[TaskKind.T2I] == (5.0, 1.1)
        assert MASK_RATIO[TaskKind.T2V] == (8.0, 1.05)
        assert MASK_RATIO[TaskKind.I2I] == (8.0, 1.05)
        assert MASK_RATIO[TaskKind.I2V] == (10.0, 1.0)
        assert MASK_RATIO[TaskKind.V2V] == (12.0, 0.9)
        assert MASK_RATIO[TaskKind.IV2V] == (12.0, 0.9)

    def test_t2i_mean_monte_carlo(self):
        rng = Rng(2024)
        draws = rng.beta(5.0, 1.1, (100_000,))
        assert abs(draws.mean() - 5.0 / 6.1) < 0.01
        # the per-task sampler draws from the same stream machinery
        few = np.array([sample_mask_ratio(TaskKind.T2I, Rng(2024, c)) for c in range(0, 40, 4)])
        assert ((few >= 0) & (few <= 1)).all()

    def test_v2v_mean_monte_carlo(self):
        rng = Rng(77)
        draws = rng.beta(12.0, 0.9, (100_000,))
        assert abs(draws.mean() - 12.0 / 12.9) < 0.01

    def test_uniform_override(self, monkeypatch):
        monkeypatch.setitem(MASK_RATIO_BETA, TaskKind.V2V, (1.0, 1.0))
        rng = Rng(5)
        draws = np.sort(np.array([sample_mask_ratio(TaskKind.V2V, rng) for _ in range(20_000)]))
        grid = np.arange(1, len(draws) + 1) / len(draws)
        ks = np.abs(draws - grid).max()
        assert ks < 0.012

    def test_moments_converge_for_every_task(self):
        rng = Rng(99)
        for task, (a, b) in MASK_RATIO.items():
            draws = rng.beta(a, b, (100_000,))
            mean = a / (a + b)
            var = a * b / ((a + b) ** 2 * (a + b + 1))
            assert abs(draws.mean() - mean) < 0.01, task
            assert abs(draws.var() - var) < 0.01, task

    def test_positive_params_required(self, monkeypatch):
        assert all(a > 0 and b > 0 for a, b in MASK_RATIO.values())
        monkeypatch.setitem(MASK_RATIO_BETA, TaskKind.T2I, (0.0, 1.0))
        with pytest.raises(ContractError, match="positive and finite"):
            sample_mask_ratio(TaskKind.T2I, Rng(5))


class TestInferenceMaskRatio:
    def test_final_step_exactly_zero(self):
        for total in (1, 2, 25, 50):
            assert inference_mask_ratio(total - 1, total) == 0.0

    def test_closed_form_values(self):
        assert inference_mask_ratio(0, 2) == pytest.approx(math.cos(math.pi / 4), abs=1e-12)
        assert inference_mask_ratio(0, 2) == pytest.approx(0.7071067811865476, abs=1e-12)
        assert inference_mask_ratio(0, 25) == pytest.approx(math.cos(math.pi / 50), abs=1e-12)
        assert inference_mask_ratio(0, 25) == pytest.approx(0.99802672842827156, abs=1e-12)

    def test_strictly_decreasing_all_horizons(self):
        for total in range(1, 51):
            vals = [inference_mask_ratio(k, total) for k in range(total)]
            assert all(a > b for a, b in zip(vals, vals[1:]))
            assert vals[-1] == 0.0

    def test_contract_errors(self):
        with pytest.raises(ContractError):
            inference_mask_ratio(2, 2)
        with pytest.raises(ContractError):
            inference_mask_ratio(0, 0)

    def test_trace_non_increasing_ends_zero(self):
        for total in range(1, 51):
            for m in (1, 7, 64):
                trace = masked_count_trace(total, m)
                assert trace[-1] == 0
                assert all(a >= b for a, b in zip(trace, trace[1:]))


class TestLogitNormal:
    def test_density_normalizes(self):
        val, err = integrate.quad(lambda t: timestep_density_logit_normal(t, 0.5, 1.0), 1e-12, 1 - 1e-12)
        assert abs(val - 1.0) < 1e-6

    def test_density_midpoint_value(self):
        # independent high-precision evaluation: 4/sqrt(2*pi) * exp(-1/8)
        expected = 4.0 / math.sqrt(2 * math.pi) * math.exp(-0.125)
        got = timestep_density_logit_normal(0.5, 0.5, 1.0)
        assert got == pytest.approx(expected, abs=1e-15)
        assert abs(got - 1.40833) < 1e-4

    def test_domain(self):
        with pytest.raises(DomainError):
            timestep_density_logit_normal(0.0, 0.5, 1.0)
        with pytest.raises(DomainError):
            timestep_density_logit_normal(0.5, 0.5, 0.0)

    def test_sampler_matches_density_chi_square(self):
        rng = Rng(314)
        samples = sample_timestep_logit_normal(rng, 0.5, 1.0, (100_000,))
        edges = np.linspace(0.0, 1.0, 21)
        observed, _ = np.histogram(samples, bins=edges)
        expected = np.array([
            integrate.quad(lambda t: timestep_density_logit_normal(t, 0.5, 1.0),
                           max(lo, 1e-12), min(hi, 1 - 1e-12))[0]
            for lo, hi in zip(edges[:-1], edges[1:])
        ]) * len(samples)
        chi2 = ((observed - expected) ** 2 / expected).sum()
        p = stats.chi2.sf(chi2, df=len(observed) - 1)
        assert p > 0.001, f"chi2={chi2:.1f}, p={p:.2e}"


class TestModeMap:
    def test_endpoints_exact_any_s(self):
        for s in (0.0, 0.5, 1.29, 2.0):
            assert timestep_map_mode(0.0, s) == 1.0
            assert timestep_map_mode(1.0, s) == 0.0

    def test_symmetry_point_exact(self):
        assert timestep_map_mode(0.5, 1.29) == 0.5

    def test_s_zero_reduces_to_linear(self):
        u = np.linspace(0, 1, 11)
        assert np.array_equal(timestep_map_mode(u, 0.0), 1.0 - u)

    def test_sampler_in_unit_interval(self):
        rng = Rng(8)
        t = sample_timestep_mode(rng, 1.29, (10_000,))
        assert ((t >= 0) & (t <= 1)).all()


class TestShift:
    def test_identity_at_one(self):
        t = np.linspace(0, 1, 7)
        assert np.array_equal(apply_shift(t, 1.0), t)

    def test_endpoints_fixed(self):
        for s in (1.0, 3.0, 5.0):
            assert apply_shift(0.0, s) == 0.0
            assert apply_shift(1.0, s) == 1.0

    def test_closed_form(self):
        assert apply_shift(0.5, 3.0) == 0.75

    def test_monotone_bijection(self):
        t = np.linspace(0, 1, 101)
        out = apply_shift(t, 5.0)
        assert (np.diff(out) > 0).all()
        assert ((out >= 0) & (out <= 1)).all()

    def test_shift_below_one_rejected(self):
        with pytest.raises(DomainError):
            apply_shift(0.5, 0.5)


class TestTimestepConfig:
    def test_default_table(self):
        assert TIMESTEP[TaskKind.T2I] == ("logit-normal", (0.5, 1.0), 3.0)
        assert TIMESTEP[TaskKind.I2I] == ("logit-normal", (0.5, 1.0), 4.0)
        assert TIMESTEP[TaskKind.T2V] == ("mode", (1.29,), 3.0)
        for t in (TaskKind.I2V, TaskKind.V2V, TaskKind.IV2V):
            assert TIMESTEP[t] == ("mode", (1.29,), 5.0)

    def test_sampled_timesteps_in_range(self):
        rng = Rng(12)
        for task in TaskKind:
            t = np.array([sample_timestep(task, rng) for _ in range(200)])
            assert ((t >= 0) & (t <= 1)).all(), task

    def test_shift_flag_respected(self, monkeypatch):
        kind, args, shift = TIMESTEP[TaskKind.V2V]
        assert shift == 5.0
        b = np.array([sample_timestep(TaskKind.V2V, Rng(3, c)) for c in range(0, 400, 2)])
        monkeypatch.setitem(TIMESTEP_WEIGHTING, TaskKind.V2V, (kind, args, 1.0))
        a = np.array([sample_timestep(TaskKind.V2V, Rng(3, c)) for c in range(0, 400, 2)])
        assert np.allclose(shift_toward_noise(a, 5.0), b)

    def test_shift_toward_noise_is_conjugate(self):
        t = np.linspace(0, 1, 33)
        assert np.allclose(shift_toward_noise(t, 5.0), 1.0 - apply_shift(1.0 - t, 5.0))
        assert shift_toward_noise(0.0, 5.0) == 0.0
        assert shift_toward_noise(1.0, 5.0) == 1.0
        # mass moves toward the noise end
        assert (shift_toward_noise(t[1:-1], 5.0) < t[1:-1]).all()


class TestDefaultsFromConfig:
    def test_defaults_are_the_config_defaults(self):
        """Every task has a mask ratio and a timestep weighting."""
        assert set(MASK_RATIO) == set(TaskKind) == set(TIMESTEP)

    def test_one_domain_error(self):
        from planflow import renderer

        assert renderer.DomainError is DomainError


class TestPairDecay:
    def test_boundaries(self):
        assert pair_decay_weight(0, 100, 0.22) == 0.22
        assert pair_decay_weight(100, 100, 0.22) == 0.0

    def test_linear_midpoint(self):
        assert pair_decay_weight(50, 100, 0.22) == pytest.approx(0.11)

    def test_never_negative(self):
        assert pair_decay_weight(150, 100, 0.22) == 0.0
