import math

import numpy as np
import pytest

from planflow.config import ConfigError
from planflow import renderer as renderer_mod
from planflow.guidance import GuidanceSpec, compose, spec_for_conditions
from planflow.numerics import ContractError, DimensionError, Rng, Tensor, backward, fd_gradient
from planflow.renderer import (
    CondInputs,
    DomainError,
    FlowSample,
    LayoutError,
    MAX_TEXT_TOKENS,
    RenderBatch,
    RendererConfig,
    RendererModel,
    ToyVae,
    build_cond_tokens,
    euler_integrate,
    patchify,
    render,
    renderer_forward,
    train_step_renderer,
    unpatchify,
)
from planflow.schedules import TimestepConfig, TaskKind
from planflow.sequence import NEG_BIAS
from planflow.toydata import PALETTE_SIZE, encode, frames_to_ids
from util import rel_err


CFG = RendererConfig(hidden_dim=16, blocks=2, heads=2, patch=(1, 2, 2), channels=4, planner_dim=16)


def make_model(seed=3, **kw):
    cfg = RendererConfig(**{**CFG.__dict__, **kw}) if kw else CFG
    return RendererModel(cfg, Rng(seed))


class TestToyVae:
    def test_roundtrip_exact(self):
        vae = ToyVae()
        x = Rng(1).uniform((2, 4, 4))
        assert np.abs(vae.decode(vae.encode(x)) - x).max() < 1e-10

    def test_zero_frames_give_offset(self):
        vae = ToyVae()
        z = vae.encode(np.zeros((1, 2, 2)))
        assert np.array_equal(z, np.broadcast_to(vae.offset, (1, 2, 2, 4)))

    def test_monte_carlo_roundtrip(self):
        vae = ToyVae()
        rng = Rng(2)
        worst = 0.0
        for _ in range(1000):
            x = rng.uniform((1, 3, 3))
            worst = max(worst, np.abs(vae.decode(vae.encode(x)) - x).max())
        assert worst < 1e-10

    def test_domain_error(self):
        with pytest.raises(DomainError):
            ToyVae().encode(np.array([[[1.5]]]))


class TestPaletteLatent:
    def test_palette_values_far_apart(self):
        vae = ToyVae()
        z = vae.encode(np.arange(PALETTE_SIZE) / (PALETTE_SIZE - 1))
        dist = np.linalg.norm(z[:, None, :] - z[None, :, :], axis=-1)
        assert dist[~np.eye(PALETTE_SIZE, dtype=bool)].min() >= 2.0

    def test_perturbed_codewords_decode_to_their_id(self):
        vae = ToyVae()
        rng = Rng(21)
        codes = vae.encode(np.arange(PALETTE_SIZE) / (PALETTE_SIZE - 1))
        for _ in range(500):
            delta = rng.normal((PALETTE_SIZE, vae.channels))
            delta *= (0.999 * rng.uniform((PALETTE_SIZE, 1))) / np.linalg.norm(delta, axis=1, keepdims=True)
            assert np.array_equal(frames_to_ids(vae.decode(codes + delta)), np.arange(PALETTE_SIZE))

    def test_too_few_channels_rejected(self):
        with pytest.raises(ConfigError):
            ToyVae(channels=2)


class TestPatchify:
    def test_roundtrip(self):
        rng = Rng(5)
        latent = rng.normal((2, 4, 6, 4))
        grid, tokens = patchify(latent, (1, 2, 2))
        assert grid == (2, 2, 3)
        assert tokens.shape == (12, 16)
        back = unpatchify(tokens, grid, (1, 2, 2), 4)
        assert np.array_equal(back, latent)

    def test_indivisible_rejected(self):
        with pytest.raises(Exception):
            patchify(np.zeros((1, 5, 4, 4)), (1, 2, 2))


class TestFlowSample:
    def test_endpoint_identities_exact(self):
        rng = Rng(7)
        data, noise = rng.normal((2, 2, 2, 4)), rng.normal((2, 2, 2, 4))
        assert np.array_equal(FlowSample(data, noise, 0.0).x_t, noise)
        assert np.array_equal(FlowSample(data, noise, 1.0).x_t, data)

    def test_velocity_is_time_independent(self):
        rng = Rng(8)
        data, noise = rng.normal((1, 2, 2, 4)), rng.normal((1, 2, 2, 4))
        a = FlowSample(data, noise, 0.25)
        b = FlowSample(data, noise, 0.75)
        assert np.array_equal(a.v_target, b.v_target)
        assert np.array_equal(a.v_target, data - noise)


class TestRendererForward:
    def test_zero_init_projector_ignores_planner_states(self):
        model = make_model()
        rng = Rng(9)
        x_t = rng.normal((1, 4, 4, 4))
        ids = np.array([2, 5], dtype=np.intp)
        out1 = renderer_forward(model, x_t, 0.4, build_cond_tokens(model, ids, rng.normal((6, 16)))).data
        out2 = renderer_forward(model, x_t, 0.4, build_cond_tokens(model, ids, rng.normal((6, 16)))).data
        assert np.abs(out1 - out2).max() < 1e-12

    def test_forced_masked_sources_equal_no_source_path(self):
        """Banning all source key columns reproduces the source-free forward."""
        model = make_model()
        rng = Rng(10)
        x_t = rng.normal((1, 4, 4, 4))
        src = rng.normal((1, 4, 4, 4))
        cond = build_cond_tokens(model, np.array([1], dtype=np.intp), None)
        no_src = renderer_forward(model, x_t, 0.3, cond, []).data
        _, src_tokens = patchify(src, CFG.patch)
        n_src, n_tgt = src_tokens.shape[0], no_src.shape[0]
        bias = np.zeros((n_src + n_tgt, n_src + n_tgt))
        bias[:, :n_src] = NEG_BIAS
        banned = renderer_forward(model, x_t, 0.3, cond, [src], attn_bias=bias).data
        assert np.abs(banned - no_src).max() < 1e-12

    def test_single_patch_hand_oracle(self):
        """One target token, two blocks: replicate the whole forward in numpy."""
        blocks = 2
        model = make_model(blocks=blocks)
        rng = Rng(11)
        x_t = rng.normal((1, 2, 2, 4))
        cond_t = build_cond_tokens(model, None, None)  # just the null token
        got = renderer_forward(model, x_t, 0.7, cond_t).data

        p = {k: v.data for k, v in model.params.items()}

        def ln(x, g, b, eps=1e-12):
            mu = x.mean(-1, keepdims=True)
            xc = x - mu
            return xc / np.sqrt((xc * xc).mean(-1, keepdims=True) + eps) * g + b

        def gelu(a):
            from scipy.special import erf

            return a * 0.5 * (1 + erf(a / math.sqrt(2)))

        _, tokens = patchify(x_t, model.cfg.patch)
        x = tokens @ p["patch_proj"] + p["patch_bias"]
        from planflow.nets import time_features

        tf = time_features(0.7, model.cfg.time_features)
        temb = gelu(tf @ p["time.w1"] + p["time.b1"]) @ p["time.w2"] + p["time.b2"]
        x = x + temb
        cond = p["null_cond"]
        for i in range(blocks):
            pre = f"block{i}."
            # self-attention over a single token: weights are 1, rotation at
            # position (0,0,0) is the identity
            h = ln(x, p[pre + "ln1.g"], p[pre + "ln1.b"])
            x = x + (h @ p[pre + "wv"]) @ p[pre + "wo"]
            # cross-attention to a single conditioning token
            h = ln(x, p[pre + "lnc.g"], p[pre + "lnc.b"])
            x = x + (cond @ p[pre + "cv"]) @ p[pre + "co"]
            h = ln(x, p[pre + "ln2.g"], p[pre + "ln2.b"])
            x = x + gelu(h @ p[pre + "w1"] + p[pre + "b1"]) @ p[pre + "w2"] + p[pre + "b2"]
        expected = ln(x, p["ln_f.g"], p["ln_f.b"]) @ p["out_proj"] + p["out_bias"]
        assert np.abs(got - expected).max() < 1e-10

    def test_word_order_changes_velocity(self):
        """A recolor instruction and its colour-swapped twin are different edits."""
        model = make_model()
        x_t = Rng(15).normal((1, 4, 4, 4))
        fwd = lambda *words: renderer_forward(
            model, x_t, 0.5, build_cond_tokens(model, np.array(encode(*words), dtype=np.intp), None)).data
        a = fwd("<bos>", "recolor", "red", "square", "to", "blue", "<eos>")
        b = fwd("<bos>", "recolor", "blue", "square", "to", "red", "<eos>")
        assert np.abs(a - b).max() > 1e-6

    def test_overlong_instruction_rejected(self):
        model = make_model()
        with pytest.raises(DimensionError, match=str(MAX_TEXT_TOKENS)):
            build_cond_tokens(model, np.ones(MAX_TEXT_TOKENS + 1, dtype=np.intp), None)

    def test_swap_ablation_property(self):
        """Two sources sharing a grid: swapping contents is detectable with
        segment phases on and invisible with them off."""
        rng = Rng(13)
        x_t = rng.normal((1, 4, 4, 4))
        a = rng.normal((1, 4, 4, 4))
        b = rng.normal((1, 4, 4, 4))
        for phases, detectable in ((True, True), (False, False)):
            model = make_model(seed=14, segment_phases=phases)
            cond = build_cond_tokens(model, np.array([3], dtype=np.intp), None)
            out_ab = renderer_forward(model, x_t, 0.5, cond, [a, b]).data
            out_ba = renderer_forward(model, x_t, 0.5, cond, [b, a]).data
            diff = np.abs(out_ab - out_ba).max()
            if detectable:
                assert diff > 1e-6, "segment phases must expose the swap"
            else:
                assert diff < 1e-10, "plain 3D rotation must be blind to the swap"


class TestTrainStep:
    def test_zero_model_output_gives_mean_square_velocity(self):
        model = make_model()
        model.params["out_proj"].data[:] = 0.0
        model.params["out_bias"].data[:] = 0.0
        rng = Rng(15)
        target = rng.normal((1, 4, 4, 4))
        cond = build_cond_tokens(model, np.array([2], dtype=np.intp), None)
        loss, fs = train_step_renderer(model, RenderBatch(target, cond), TaskKind.V2V, TimestepConfig(), Rng(16))
        _, v_tok = patchify(fs.v_target, model.cfg.patch)
        assert loss.item() == pytest.approx((v_tok ** 2).mean(), rel=1e-12)

    def test_exact_velocity_prediction_gives_zero(self):
        # the loss is the mean square of (pred - v); feeding v itself is zero
        rng = Rng(17)
        v = rng.normal((8, 16))
        resid = Tensor(v) - Tensor(v)
        from planflow.numerics import tmean, mul

        assert tmean(mul(resid, resid)).item() == 0.0

    def test_unknown_task_rejected(self):
        model = make_model()
        cond = build_cond_tokens(model, None, None)
        with pytest.raises(Exception):
            train_step_renderer(model, RenderBatch(np.zeros((1, 4, 4, 4)), cond), "w2w", TimestepConfig(), Rng(1))

    def test_gradient_vs_finite_differences(self):
        model = make_model(seed=18, blocks=1)
        rng = Rng(19)
        target = rng.normal((1, 4, 4, 4)) * 0.5
        src = rng.normal((1, 4, 4, 4)) * 0.5
        ids = np.array([1, 4], dtype=np.intp)
        states = rng.normal((3, 16))

        def loss():
            cond = build_cond_tokens(model, ids, states)
            l, _ = train_step_renderer(model, RenderBatch(target, cond, [src]),
                                       TaskKind.V2V, TimestepConfig(), Rng(20))
            return l

        grads = backward(loss())
        check = Rng(21)
        for name in ("patch_proj", "block0.wq", "block0.ck", "time.w1", "out_proj", "text_embed", "cond_proj"):
            p = model.params[name]
            idx = [int(i) for i in check.integers(0, p.size, (4,))]
            fd = fd_gradient(loss, p, indices=idx)
            ana = grads[p].reshape(-1)[idx]
            assert rel_err(ana, fd) < 1e-4, name


class TestEulerIntegration:
    def test_constant_field_exact_any_steps(self):
        rng = Rng(22)
        x0 = rng.normal((1, 2, 2, 4))
        v = rng.normal((1, 2, 2, 4))
        for steps in (1, 3, 40):
            for shift in (1.0, 3.0, 5.0):
                out = euler_integrate(lambda x, t: v, x0, steps, shift)
                assert np.abs(out - (x0 + v)).max() < 1e-12

    def test_single_step_formula(self):
        x0 = np.ones((1, 1, 1, 4))
        out = euler_integrate(lambda x, t: 2 * x, x0, 1, shift=1.0)
        assert np.array_equal(out, x0 + 2 * x0)

    def test_zero_steps_rejected(self):
        with pytest.raises(ContractError):
            euler_integrate(lambda x, t: x, np.zeros((1,)), 0)


class TestRender:
    def _cond(self, rng, with_sources=True):
        latents = [rng.normal((1, 4, 4, 4))] if with_sources else []
        roles = ["vid"] if with_sources else []
        return CondInputs(
            text_ids=np.array([1, 2], dtype=np.intp),
            planner_states=rng.normal((4, 16)),
            source_latents=latents,
            source_roles=roles,
        )

    def test_unit_weights_match_conditional_trajectory(self):
        model = make_model(seed=23)
        rng = Rng(24)
        cond_in = self._cond(rng)
        spec = GuidanceSpec(weights={"vid": 1.0, "txt": 1.0, "tgt": 1.0}, present=("vid", "txt", "tgt"))
        out = render(model, cond_in, steps=3, spec=spec, shift=2.0, rng=Rng(25), target_grid=(1, 4, 4))

        cond_full = build_cond_tokens(model, cond_in.text_ids, cond_in.planner_states)
        noise = Rng(25).normal((1, 4, 4, CFG.channels))

        def velocity(x, t):
            tok = renderer_forward(model, x, t, cond_full, cond_in.source_latents)
            grid, _ = patchify(x, CFG.patch)
            return unpatchify(tok.data, grid, CFG.patch, CFG.channels)

        expected = euler_integrate(velocity, noise, 3, 2.0)
        assert np.abs(out - expected).max() < 1e-10

    @pytest.mark.parametrize("roles", [["vid"], ["vid", "img"]], ids=["v2v", "iv2v"])
    def test_batched_subsets_match_per_subset_forwards(self, roles):
        """One batched forward per step equals one forward per condition
        subset, each over only the sources that subset holds."""
        model = make_model(seed=30)
        rng = Rng(31)
        # a trained-looking projector, so the target-semantics branch matters
        model.params["cond_proj"].data[:] = rng.normal(model.params["cond_proj"].shape) * 0.3
        cond_in = CondInputs(
            text_ids=np.array([1, 5, 2], dtype=np.intp),
            planner_states=rng.normal((6, 16)),
            source_latents=[rng.normal((1, 4, 4, 4)) for _ in roles],
            source_roles=list(roles),
        )
        spec = spec_for_conditions({"txt": 4.0, "vid": 1.25, "img": 2.5, "tgt": 1.5},
                                   has_video=True, has_image="img" in roles)
        assert len(spec.subset_chain()) == len(roles) + 3

        def per_subset_velocity(x, t):
            forwards = {}
            for subset in spec.subset_chain():
                cond = build_cond_tokens(model, cond_in.text_ids if "txt" in subset else None,
                                         cond_in.planner_states if "tgt" in subset else None)
                held = [i for i, role in enumerate(cond_in.source_roles) if role in subset]
                tok = renderer_forward(model, x, t, cond, [cond_in.source_latents[i] for i in held]).data
                grid, _ = patchify(x, CFG.patch)
                forwards[subset] = unpatchify(tok, grid, CFG.patch, CFG.channels)
            return compose(spec, forwards)

        out = render(model, cond_in, steps=3, spec=spec, shift=3.0, rng=Rng(32), target_grid=(1, 4, 4))
        noise = Rng(32).normal((1, 4, 4, CFG.channels))
        expected = euler_integrate(per_subset_velocity, noise, 3, 3.0)
        assert np.abs(out - expected).max() < 1e-12
        assert np.abs(out - noise).max() > 1e-3

    def test_hoisted_constants_match_per_step_recomputation(self, monkeypatch):
        """render() prepares rotary tables, cross-attention keys and values and
        the source projection once; rebuilding them at every step agrees."""
        model = make_model(seed=35)
        rng = Rng(36)
        model.params["cond_proj"].data[:] = rng.normal(model.params["cond_proj"].shape) * 0.3
        cond_in = CondInputs(
            text_ids=np.array([1, 5, 2], dtype=np.intp),
            planner_states=rng.normal((6, 16)),
            source_latents=[rng.normal((1, 4, 4, 4)) for _ in range(2)],
            source_roles=["vid", "img"],
        )
        spec = spec_for_conditions({"txt": 4.0, "vid": 1.25, "img": 2.5, "tgt": 1.5},
                                   has_video=True, has_image=True)
        hoisted = render(model, cond_in, steps=3, spec=spec, shift=3.0, rng=Rng(37), target_grid=(1, 4, 4))
        real = renderer_mod.renderer_forward
        prepared = []

        def per_step(model, x, t, cond, consts, **kwargs):
            prepared.append(consts)
            return real(model, x, t, cond, cond_in.source_latents, **kwargs)

        monkeypatch.setattr(renderer_mod, "renderer_forward", per_step)
        recomputed = render(model, cond_in, steps=3, spec=spec, shift=3.0, rng=Rng(37), target_grid=(1, 4, 4))
        assert len(prepared) == 3 and all(c is prepared[0] for c in prepared)
        assert np.abs(hoisted - recomputed).max() < 1e-12

    def test_one_forward_per_euler_step(self, monkeypatch):
        model = make_model()
        calls = []
        real = renderer_mod.renderer_forward

        def counting(*args, **kwargs):
            calls.append(kwargs.get("batch", 1))
            return real(*args, **kwargs)

        monkeypatch.setattr(renderer_mod, "renderer_forward", counting)
        cond_in = self._cond(Rng(33))
        spec = spec_for_conditions({"txt": 4.0, "vid": 1.25, "tgt": 0.5}, has_video=True, has_image=False)
        render(model, cond_in, steps=5, spec=spec, shift=2.0, rng=Rng(34), target_grid=(1, 4, 4))
        assert calls == [len(spec.subset_chain())] * 5

    def test_missing_condition_for_branch(self):
        model = make_model()
        rng = Rng(26)
        cond_in = self._cond(rng, with_sources=False)
        spec = GuidanceSpec(weights={"vid": 1.25, "txt": 4.0, "tgt": 0.5}, present=("vid", "txt", "tgt"))
        with pytest.raises(LayoutError):
            render(model, cond_in, 2, spec, 1.0, Rng(1), (1, 4, 4))

    def test_spec_for_conditions_render_smoke(self):
        model = make_model(seed=27)
        rng = Rng(28)
        cond_in = self._cond(rng)
        spec = spec_for_conditions({"txt": 4.0, "vid": 1.25, "img": 1.25, "tgt": 0.5},
                                   has_video=True, has_image=False)
        out = render(model, cond_in, 2, spec, 5.0, Rng(29), (1, 4, 4))
        assert out.shape == (1, 4, 4, 4)
        assert np.isfinite(out).all()

    def test_cond_inputs_validation(self):
        with pytest.raises(LayoutError):
            CondInputs(source_latents=[np.zeros((1, 2, 2, 4))], source_roles=[])
        with pytest.raises(LayoutError):
            CondInputs(source_latents=[np.zeros((1, 2, 2, 4))], source_roles=["audio"])
