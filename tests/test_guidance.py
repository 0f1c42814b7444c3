import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from planflow.config import Config
from planflow.guidance import (
    BRANCHES,
    DUAL_BRANCH_KEYS,
    CompositionError,
    DualBranchSpec,
    GuidanceSpec,
    GuidanceValidationError,
    compose,
    compose_dual_branch,
    validate,
)
from planflow.numerics import Rng
from planflow.renderer import CondInputs


GUIDANCE_KEYS = ("t2v", "s2v", "v2v", "rv2v")


def default_scales(key):
    return Config().get_weighted(f"guidance.{key}")


def full_spec(weights=None):
    w = weights or {"vid": 1.0, "img": 1.0, "txt": 1.0, "tgt": 1.0}
    return GuidanceSpec(weights=w, present=tuple(w))


def random_forwards(spec, rng, dim=6):
    return {s: rng.normal((dim,)) for s in spec.subset_chain()}


class TestCompose:
    def test_unit_weights_telescope(self):
        rng = Rng(1)
        spec = full_spec()
        for _ in range(200):
            forwards = random_forwards(spec, rng)
            out = compose(spec, forwards)
            assert np.abs(out - forwards[spec.subset_chain()[-1]]).max() < 1e-12

    def test_zero_weights_return_base(self):
        rng = Rng(2)
        spec = full_spec({b: 0.0 for b in BRANCHES})
        forwards = random_forwards(spec, rng)
        assert np.array_equal(compose(spec, forwards), forwards[frozenset()])

    def test_v2v_table_weights_match_direct_oracle(self):
        # direct weighted-sum oracle over the increment definition
        rng = Rng(3)
        weights = {"txt": 4.0, "vid": 1.25, "img": 1.25, "tgt": 0.5}
        spec = full_spec(weights)
        chain = spec.subset_chain()
        forwards = random_forwards(spec, rng)
        expected = forwards[chain[0]].astype(float).copy()
        for prev, cur in zip(chain, chain[1:]):
            branch = next(iter(cur - prev))
            expected = expected + weights[branch] * (forwards[cur] - forwards[prev])
        assert np.abs(compose(spec, forwards) - expected).max() < 1e-12

    def test_missing_subset_named(self):
        spec = full_spec({"vid": 1.25, "img": 2.5, "txt": 4.0, "tgt": 1.5})
        forwards = random_forwards(spec, Rng(4))
        del forwards[frozenset({"vid", "img"})]
        with pytest.raises(CompositionError, match=r"\{img,vid\}"):
            compose(spec, forwards)

    @given(
        present=st.lists(st.sampled_from(BRANCHES), unique=True),
        lead=st.integers(0, len(BRANCHES)),
        others=st.lists(st.floats(-4.0, 4.0).filter(lambda w: w != 1.0), min_size=4, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_unit_weight_prefix_telescopes(self, present, lead, others, seed):
        """v0 + 1 * (v1 - v0) = v1: the chain starts after the leading
        unit-weight increments, and composing over it matches the full
        incremental sum."""
        present = tuple(b for b in BRANCHES if b in present)  # canonical order
        lead = min(lead, len(present))
        weights = dict(zip(present, [1.0] * lead + others))
        spec = GuidanceSpec(weights, present)
        full = [frozenset(present[:i]) for i in range(len(present) + 1)]
        chain = spec.subset_chain()
        assert chain == full[lead:]
        if lead == 0:
            assert len(chain) == len(present) + 1
        if lead == len(present):
            assert chain == [frozenset(present)]
        rng = Rng(seed)
        forwards = {s: rng.normal((6,)) for s in full}
        expected = forwards[full[0]].copy()
        for b, prev, cur in zip(present, full, full[1:]):
            expected = expected + weights[b] * (forwards[cur] - forwards[prev])
        scale = (1.0 + sum(abs(w) for w in weights.values())) * max(np.abs(f).max() for f in forwards.values())
        assert np.abs(compose(spec, forwards) - expected).max() <= 1e-12 * scale

    def test_linearity_in_forwards(self):
        rng = Rng(5)
        spec = full_spec({"vid": 1.25, "img": 2.5, "txt": 4.0, "tgt": 1.5})
        forwards = random_forwards(spec, rng)
        scaled = {k: 3.0 * v for k, v in forwards.items()}
        assert np.allclose(compose(spec, scaled), 3.0 * compose(spec, forwards), atol=1e-12)

    def test_t2v_drops_video_branch(self):
        branches = CondInputs(text_ids=np.array([1, 2]), planner_states=np.zeros((3, 4))).branches()
        spec = GuidanceSpec(default_scales("t2v"), branches)
        assert spec.present == ("txt", "tgt")
        chain = spec.subset_chain()
        assert chain == [frozenset(), frozenset({"txt"}), frozenset({"txt", "tgt"})]

    def test_non_finite_weight_rejected(self):
        with pytest.raises(GuidanceValidationError):
            GuidanceSpec(weights={"txt": float("nan")}, present=("txt",))


class TestDualBranch:
    def test_pure_i2v_branch(self):
        rng = Rng(7)
        spec = DualBranchSpec(1.0, 0.0, (1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
        forwards = {k: rng.normal((4,)) for k in DUAL_BRANCH_KEYS}
        out = compose_dual_branch(spec, forwards)
        assert np.allclose(out, forwards["i2v_full"], atol=1e-12)

    def test_convex_average(self):
        rng = Rng(8)
        spec = DualBranchSpec(0.5, 0.5, (1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
        forwards = {k: rng.normal((4,)) for k in DUAL_BRANCH_KEYS}
        out = compose_dual_branch(spec, forwards)
        assert np.allclose(out, 0.5 * (forwards["i2v_full"] + forwards["v2v_full"]), atol=1e-12)

    def test_identical_inputs_map_to_input_exactly(self):
        rng = Rng(9)
        p = rng.normal((5,))
        for alpha, i2v, v2v in (
            (0.3, (3.0, 1.5, 0.5), (2.0, 0.75, 0.25)),
            (1.0, (5.0, 3.0, 1.0), (1.0, 0.0, 0.0)),
            (0.25, (2.5, 1.0, 0.5), (4.0, 2.0, 1.0)),
        ):
            spec = DualBranchSpec(alpha, 1.0 - alpha, i2v, v2v)
            assert not validate(spec)
            out = compose_dual_branch(spec, {k: p for k in DUAL_BRANCH_KEYS})
            assert np.array_equal(out, p)

    def test_matches_literal_formula(self):
        rng = Rng(10)
        spec = DualBranchSpec(0.25, 0.75, (3.0, 1.5, 0.5), (2.0, 0.75, 0.25))
        f = {k: rng.normal((4,)) for k in DUAL_BRANCH_KEYS}
        literal = spec.alpha * (
            spec.i2v[0] * f["i2v_full"] - spec.i2v[1] * f["i2v_text_drop"] - spec.i2v[2] * f["i2v_image_drop"]
        ) + spec.beta * (
            spec.v2v[0] * f["v2v_full"] - spec.v2v[1] * f["v2v_text_drop"] - spec.v2v[2] * f["v2v_video_drop"]
        )
        assert np.allclose(compose_dual_branch(spec, f), literal, atol=1e-12)

    def test_violation_raised_with_identity(self):
        spec = DualBranchSpec(0.7, 0.4, (1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
        with pytest.raises(GuidanceValidationError, match="alpha"):
            compose_dual_branch(spec, {k: np.zeros(2) for k in DUAL_BRANCH_KEYS})

    def test_missing_forward(self):
        spec = DualBranchSpec(1.0, 0.0, (1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
        with pytest.raises(CompositionError, match="v2v_video_drop"):
            compose_dual_branch(spec, {k: np.zeros(2) for k in DUAL_BRANCH_KEYS[:-1]})


class TestValidate:
    def test_valid_spec(self):
        assert validate(DualBranchSpec(0.5, 0.5, (3.0, 1.0, 1.0), (2.0, 0.5, 0.5))) == []

    def test_alpha_beta_violation_residual(self):
        vs = validate(DualBranchSpec(0.7, 0.4, (1.0, 0.0, 0.0), (1.0, 0.0, 0.0)))
        assert len(vs) == 1
        assert vs[0].identity == "alpha + beta = 1"
        assert vs[0].residual == pytest.approx(0.1)

    def test_branch_constraint_violations(self):
        vs = validate(DualBranchSpec(0.5, 0.5, (3.0, 1.0, 0.5), (1.0, 0.5, 0.0)))
        ids = {v.identity for v in vs}
        assert "w_full - w_text - w_image = 1 (i2v branch)" in ids
        assert "w_full - w_text - w_video = 1 (v2v branch)" in ids

    def test_table_rows_load_as_specs(self):
        # the four-increment weights carry no constraint; every table row loads
        cfg = Config()
        for key in GUIDANCE_KEYS:
            scales = default_scales(key)
            spec = GuidanceSpec(scales, tuple(scales))
            assert spec.weights["txt"] == 4.0
            assert cfg.get_int(f"guidance.steps.{key}") == {"t2v": 15, "s2v": 5, "v2v": 10, "rv2v": 5}[key]
        s2v = GuidanceSpec(default_scales("s2v"), ("img", "txt", "tgt"))
        assert (s2v.weights["txt"], s2v.weights["img"], s2v.weights["tgt"]) == (4.0, 2.5, 1.5)

    @given(st.floats(0.0, 1.0), st.floats(-2.0, 4.0), st.floats(-2.0, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_identity_inputs_property(self, alpha, w_t, w_i):
        spec = DualBranchSpec(alpha, 1.0 - alpha, (1.0 + w_t + w_i, w_t, w_i), (1.0, 0.0, 0.0))
        if validate(spec):
            return
        p = Rng(17).normal((3,))
        out = compose_dual_branch(spec, {k: p for k in DUAL_BRANCH_KEYS})
        assert np.array_equal(out, p)
