import dataclasses

import numpy as np
import pytest

from planflow import nets, renderer as renderer_mod
from planflow.guidance import GuidanceSpec, compose
from planflow.numerics import ContractError, DimensionError, Rng, Tensor, backward, fd_gradient, mul, sub, tmean
from planflow.renderer import (
    CondInputs,
    DomainError,
    FlowSample,
    LATENT_CHANNELS,
    MAX_TEXT_TOKENS,
    RendererConfig,
    RendererModel,
    ToyVae,
    build_cond_tokens,
    euler_integrate,
    patchify,
    render,
    render_constants,
    renderer_forward,
    source_role,
    train_step_renderer,
    unpatchify,
    visual_stream,
)
from planflow.schedules import TaskKind
from planflow.toydata import PALETTE_SIZE, encode, frames_to_ids
from util import gelu_np, layernorm_np, rel_err


CFG = RendererConfig(hidden_dim=16, blocks=2, heads=2, patch=(1, 2, 2), segment_phases=True, planner_dim=16)

# the six task layouts: (source role, source grid) per source, and the target grid
LAYOUTS = {
    "t2i": ([], (1, 4, 4)),
    "t2v": ([], (2, 4, 4)),
    "i2i": ([("img", (1, 4, 4))], (1, 4, 4)),
    "i2v": ([("img", (1, 4, 4))], (2, 4, 4)),
    "v2v": ([("vid", (2, 4, 4))], (2, 4, 4)),
    "iv2v": ([("vid", (2, 4, 4)), ("img", (1, 4, 4))], (2, 4, 4)),
}


SCALES = {"txt": 4.0, "vid": 1.25, "img": 2.5, "tgt": 1.5}


def derived_spec(cond_in, scales=SCALES):
    """The guidance spec render() derives from its conditions and scales."""
    branches = cond_in.branches()
    return GuidanceSpec({b: scales.get(b, 1.0) for b in branches}, branches)


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
            delta = rng.normal((PALETTE_SIZE, LATENT_CHANNELS))
            delta *= (0.999 * rng.uniform((PALETTE_SIZE, 1))) / np.linalg.norm(delta, axis=1, keepdims=True)
            assert np.array_equal(frames_to_ids(vae.decode(codes + delta)), np.arange(PALETTE_SIZE))


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
        """An entry that holds no sources reproduces the source-free forward,
        and the entry beside it that holds the source the one-entry forward."""
        model = make_model()
        rng = Rng(10)
        x_t = rng.normal((1, 4, 4, 4))
        src = rng.normal((1, 4, 4, 4))
        cond = build_cond_tokens(model, np.array([1], dtype=np.intp), None)
        no_src = renderer_forward(model, x_t, 0.3, cond, []).data
        with_src = renderer_forward(model, x_t, 0.3, cond, [src]).data
        consts = render_constants(model, visual_stream(model.cfg, [src], x_t.shape), [cond, cond], ((), (0,)))
        both = renderer_forward(model, x_t, 0.3, consts=consts).data
        assert np.abs(both[: len(no_src)] - no_src).max() < 1e-12
        assert np.abs(both[len(no_src) :] - with_src).max() < 1e-12
        assert np.abs(no_src - with_src).max() > 1e-6

    @pytest.mark.parametrize("blocks", [1, 2, 3])
    def test_ragged_layout_matches_one_entry_forwards(self, blocks):
        """Each entry of a ragged batch (shared sources, conditioning of
        unequal lengths, a planner-state entry) equals its own one-entry
        forward, also when block 0 is the last block and when blocks lie
        between them."""
        model = make_model(seed=16, blocks=blocks)
        rng = Rng(17)
        model.params["cond_proj"].data[:] = rng.normal(model.params["cond_proj"].shape) * 0.3
        sources = [rng.normal((2, 4, 4, 4)), rng.normal((1, 4, 4, 4))]
        x_t = rng.normal((2, 4, 4, 4))
        text = np.array([1, 2, 3], dtype=np.intp)
        conds = [build_cond_tokens(model, None, None)] * 3 + [build_cond_tokens(model, text, None),
                                                               build_cond_tokens(model, text, rng.normal((30, 16)))]
        held = ((), (0,), (0, 1), (0, 1), (0, 1))
        consts = render_constants(model, visual_stream(model.cfg, sources, x_t.shape), conds, held)
        out = renderer_forward(model, x_t, 0.4, consts=consts).data.reshape(len(held), -1, CFG.patch_dim)
        for e, (h, cond) in enumerate(zip(held, conds)):
            own = renderer_forward(model, x_t, 0.4, cond, [sources[i] for i in h]).data
            assert np.abs(out[e] - own).max() < 1e-12, e

    def test_single_patch_hand_oracle(self):
        """One target token, two blocks: replicate the whole forward in numpy."""
        blocks = 2
        model = make_model(blocks=blocks)
        rng = Rng(11)
        x_t = rng.normal((1, 2, 2, 4))
        cond_t = build_cond_tokens(model, None, None)  # just the null token
        got = renderer_forward(model, x_t, 0.7, cond_t).data

        p = {k: v.data for k, v in model.params.items()}

        _, tokens = patchify(x_t, model.cfg.patch)
        x = tokens @ p["patch_proj"] + p["patch_bias"]
        tf = nets.time_features(0.7, nets.TIME_FEATURES)
        temb = gelu_np(tf @ p["time.w1"] + p["time.b1"]) @ p["time.w2"] + p["time.b2"]
        x = x + temb
        cond = p["null_cond"]
        for i in range(blocks):
            pre = f"block{i}."
            # self-attention over a single token: weights are 1, rotation at
            # position (0,0,0) is the identity
            h = layernorm_np(x, p[pre + "ln1.g"], p[pre + "ln1.b"])
            x = x + (h @ p[pre + "wv"]) @ p[pre + "wo"]
            # cross-attention to a single conditioning token
            h = layernorm_np(x, p[pre + "lnc.g"], p[pre + "lnc.b"])
            x = x + (cond @ p[pre + "cv"]) @ p[pre + "co"]
            h = layernorm_np(x, p[pre + "ln2.g"], p[pre + "ln2.b"])
            x = x + gelu_np(h @ p[pre + "w1"] + p[pre + "b1"]) @ p[pre + "w2"] + p[pre + "b2"]
        expected = layernorm_np(x, p["ln_f.g"], p["ln_f.b"]) @ p["out_proj"] + p["out_bias"]
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


class TestPatchBias:
    """patch_bias = delta @ patch_proj is the same as shifting every source
    and target patch token by delta, so the bias must reach both kinds of row."""

    def _setup(self):
        model = make_model(seed=60)
        rng = Rng(61)
        delta = rng.normal((1, CFG.patch_dim))

        def shifted(latent):
            grid, tokens = patchify(latent, CFG.patch)
            return unpatchify(tokens + delta, grid, CFG.patch, LATENT_CHANNELS)

        return model, rng, delta @ model.params["patch_proj"].data, shifted

    def test_one_entry_forward(self):
        model, rng, bias, shifted = self._setup()
        x_t = rng.normal((2, 4, 4, 4))
        sources = [rng.normal((2, 4, 4, 4)), rng.normal((1, 4, 4, 4))]
        cond = build_cond_tokens(model, np.array([1, 5, 2], dtype=np.intp), None)
        moved = renderer_forward(model, shifted(x_t), 0.4, cond, [shifted(s) for s in sources]).data
        model.params["patch_bias"].data[:] = bias
        biased = renderer_forward(model, x_t, 0.4, cond, sources).data
        assert np.abs(biased - moved).max() < 1e-12
        assert np.abs(biased - renderer_forward(model, shifted(x_t), 0.4, cond, sources).data).max() > 1e-6

    def test_batched_render(self, monkeypatch):
        model, rng, bias, shifted = self._setup()
        cond_in = CondInputs(
            text_ids=np.array([1, 5, 2], dtype=np.intp),
            planner_states=rng.normal((6, 16)),
            source_latents=[rng.normal((2, 4, 4, 4)), rng.normal((1, 4, 4, 4))],
        )
        real = renderer_mod.renderer_forward
        monkeypatch.setattr(renderer_mod, "renderer_forward",
                            lambda model, x, t, **kwargs: real(model, shifted(x), t, **kwargs))
        moved_in = CondInputs(cond_in.text_ids, cond_in.planner_states, [shifted(s) for s in cond_in.source_latents])
        moved = render(model, moved_in, steps=3, scales=SCALES, shift=3.0, rng=Rng(62), target_grid=(2, 4, 4))
        monkeypatch.undo()
        model.params["patch_bias"].data[:] = bias
        biased = render(model, cond_in, steps=3, scales=SCALES, shift=3.0, rng=Rng(62), target_grid=(2, 4, 4))
        assert np.abs(biased - moved).max() < 1e-12


class TestTrainStep:
    def test_zero_model_output_gives_mean_square_velocity(self):
        model = make_model()
        model.params["out_proj"].data[:] = 0.0
        model.params["out_bias"].data[:] = 0.0
        rng = Rng(15)
        target = rng.normal((1, 4, 4, 4))
        cond = build_cond_tokens(model, np.array([2], dtype=np.intp), None)
        loss, fs = train_step_renderer(model, target, cond, [], TaskKind.V2V, Rng(16))
        _, v_tok = patchify(fs.v_target, model.cfg.patch)
        assert loss.item() == pytest.approx((v_tok ** 2).mean(), rel=1e-12)

    def test_exact_velocity_prediction_gives_zero(self):
        # the loss is the mean square of (pred - v); feeding v itself is zero
        rng = Rng(17)
        v = rng.normal((8, 16))
        resid = sub(Tensor(v), Tensor(v))
        assert tmean(mul(resid, resid)).item() == 0.0

    def test_unknown_task_rejected(self):
        model = make_model()
        cond = build_cond_tokens(model, None, None)
        with pytest.raises(Exception):
            train_step_renderer(model, np.zeros((1, 4, 4, 4)), cond, [], "w2w", Rng(1))

    def test_gradient_vs_finite_differences(self):
        model = make_model(seed=18, blocks=1)
        rng = Rng(19)
        target = rng.normal((1, 4, 4, 4)) * 0.5
        src = rng.normal((1, 4, 4, 4)) * 0.5
        ids = np.array([1, 4], dtype=np.intp)
        states = rng.normal((3, 16))

        def loss():
            cond = build_cond_tokens(model, ids, states)
            l, _ = train_step_renderer(model, target, cond, [src], TaskKind.V2V, Rng(20))
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
        return CondInputs(
            text_ids=np.array([1, 2], dtype=np.intp),
            planner_states=rng.normal((4, 16)),
            source_latents=[rng.normal((2, 4, 4, 4))] if with_sources else [],  # a source video
        )

    def test_unit_weights_match_conditional_trajectory(self):
        model = make_model(seed=23)
        rng = Rng(24)
        cond_in = self._cond(rng)
        scales = {"vid": 1.0, "txt": 1.0, "tgt": 1.0}
        out = render(model, cond_in, steps=3, scales=scales, shift=2.0, rng=Rng(25), target_grid=(1, 4, 4))

        cond_full = build_cond_tokens(model, cond_in.text_ids, cond_in.planner_states)
        noise = Rng(25).normal((1, 4, 4, LATENT_CHANNELS))

        def velocity(x, t):
            tok = renderer_forward(model, x, t, cond_full, cond_in.source_latents)
            grid, _ = patchify(x, CFG.patch)
            return unpatchify(tok.data, grid, CFG.patch, LATENT_CHANNELS)

        expected = euler_integrate(velocity, noise, 3, 2.0)
        assert np.abs(out - expected).max() < 1e-10

    @pytest.mark.parametrize("task,states", [(task, states) for states in (True, False) for task in LAYOUTS],
                             ids=[task + ("" if states else "-no-states") for states in (True, False) for task in LAYOUTS])
    def test_batched_subsets_match_per_subset_forwards(self, task, states):
        """One batched forward per step equals one forward per condition
        subset, each over only the sources that subset holds."""
        model = make_model(seed=30)
        rng = Rng(31)
        # a trained-looking projector, so the target-semantics branch matters
        model.params["cond_proj"].data[:] = rng.normal(model.params["cond_proj"].shape) * 0.3
        sources, target_grid = LAYOUTS[task]
        cond_in = CondInputs(
            text_ids=np.array([1, 5, 2], dtype=np.intp),
            planner_states=rng.normal((6, 16)) if states else None,
            source_latents=[rng.normal((*grid, 4)) for _, grid in sources],
        )
        spec = derived_spec(cond_in)
        assert len(spec.subset_chain()) == len(sources) + 2 + states

        def per_subset_velocity(x, t):
            forwards = []
            for subset in spec.subset_chain():
                cond = build_cond_tokens(model, cond_in.text_ids if "txt" in subset else None,
                                         cond_in.planner_states if "tgt" in subset else None)
                held = [i for i, (role, _) in enumerate(sources) if role in subset]
                tok = renderer_forward(model, x, t, cond, [cond_in.source_latents[i] for i in held]).data
                grid, _ = patchify(x, CFG.patch)
                forwards.append(unpatchify(tok, grid, CFG.patch, LATENT_CHANNELS))
            return compose(spec, np.stack(forwards))

        out = render(model, cond_in, steps=3, scales=SCALES, shift=3.0, rng=Rng(32), target_grid=target_grid)
        noise = Rng(32).normal((*target_grid, LATENT_CHANNELS))
        expected = euler_integrate(per_subset_velocity, noise, 3, 3.0)
        assert np.abs(out - expected).max() < 1e-12
        assert np.abs(out - noise).max() > 1e-3

    def _iv2v(self, rng):
        model = make_model(seed=35)
        model.params["cond_proj"].data[:] = rng.normal(model.params["cond_proj"].shape) * 0.3
        cond_in = CondInputs(
            text_ids=np.array([1, 5, 2], dtype=np.intp),
            planner_states=rng.normal((6, 16)),
            source_latents=[rng.normal((2, 4, 4, 4)), rng.normal((1, 4, 4, 4))],
        )
        return model, cond_in

    def test_hoisted_constants_match_per_step_recomputation(self, monkeypatch):
        """render() prepares the layout's index tables, rotary tables,
        cross-attention keys and values and the source projection once;
        rebuilding them at every step agrees."""
        model, cond_in = self._iv2v(Rng(36))
        hoisted = render(model, cond_in, steps=3, scales=SCALES, shift=3.0, rng=Rng(37), target_grid=(2, 4, 4))
        real = renderer_mod.renderer_forward
        prepared = []

        chain = derived_spec(cond_in).subset_chain()
        held = tuple(tuple(i for i, role in enumerate(("vid", "img")) if role in subset) for subset in chain)

        def per_step(model, x, t, consts):
            prepared.append(consts)
            stream = visual_stream(model.cfg, cond_in.source_latents, x.shape)
            conds = [build_cond_tokens(model, cond_in.text_ids if "txt" in subset else None,
                                       cond_in.planner_states if "tgt" in subset else None) for subset in chain]
            return real(model, x, t, consts=render_constants(model, stream, conds, held))

        monkeypatch.setattr(renderer_mod, "renderer_forward", per_step)
        recomputed = render(model, cond_in, steps=3, scales=SCALES, shift=3.0, rng=Rng(37), target_grid=(2, 4, 4))
        assert len(prepared) == 3 and all(c is prepared[0] for c in prepared)
        assert np.abs(hoisted - recomputed).max() < 1e-12

    def test_render_self_attention_has_no_key_bias(self, monkeypatch):
        """No entry holds a source it may not see, so no self-attention call
        bans a key; block 0 runs once per run of entries with equal sources,
        and the last block's queries are the target rows alone."""
        model, cond_in = self._iv2v(Rng(38))
        calls = []
        real = nets.self_attention

        def recording(params, prefix, x, heads, bias=None, rotation=None, batch=1, *args, **kwargs):
            calls.append((bias, batch, x.shape[0], kwargs.get("queries")))
            return real(params, prefix, x, heads, bias, rotation, batch, *args, **kwargs)

        monkeypatch.setattr(nets, "self_attention", recording)
        render(model, cond_in, steps=2, scales=SCALES, shift=3.0, rng=Rng(39), target_grid=(2, 4, 4))
        assert len(calls) == 2 * model.cfg.blocks
        assert all(bias is None for bias, _, _, _ in calls)
        n_vid, n_img, n_tgt = 8, 4, 8
        # entries: {}, {vid}, {vid,img}, {vid,img,txt}, {vid,img,txt,tgt}
        assert calls[0][2] == n_tgt + (n_vid + n_tgt) + (n_vid + n_img + n_tgt)
        assert calls[1][2] == n_tgt + (n_vid + n_tgt) + 3 * (n_vid + n_img + n_tgt)
        assert calls[0][3] is None and len(calls[1][3]) == 5 * n_tgt

    def test_one_forward_per_euler_step(self, monkeypatch):
        model = make_model()
        calls = []
        real = renderer_mod.renderer_forward

        def counting(*args, **kwargs):
            out = real(*args, **kwargs)
            calls.append(out.shape[0] // 4)  # entries: output rows over the 4 target tokens
            return out

        monkeypatch.setattr(renderer_mod, "renderer_forward", counting)
        cond_in = self._cond(Rng(33))
        render(model, cond_in, steps=5, scales={"txt": 4.0, "vid": 1.25, "tgt": 0.5}, shift=2.0, rng=Rng(34),
               target_grid=(1, 4, 4))
        assert calls == [len(cond_in.branches()) + 1] * 5

    def test_render_ignores_scales_of_absent_branches(self):
        model = make_model(seed=27)
        rng = Rng(28)
        cond_in = self._cond(rng)
        scales = {"txt": 4.0, "vid": 1.25, "tgt": 0.5}
        out = render(model, cond_in, 2, {**scales, "img": 1.25}, 5.0, Rng(29), (1, 4, 4))
        assert out.shape == (1, 4, 4, 4)
        assert np.isfinite(out).all()
        assert np.array_equal(out, render(model, cond_in, 2, scales, 5.0, Rng(29), (1, 4, 4)))

    @pytest.mark.parametrize("states", [True, False], ids=["states", "no-states"])
    @pytest.mark.parametrize("task", LAYOUTS)
    def test_branches_follow_the_conditions(self, task, states):
        """One branch per condition the inputs hold, in canonical order."""
        sources = {"t2i": (), "t2v": (), "i2i": ("img",), "i2v": ("img",), "v2v": ("vid",), "iv2v": ("vid", "img")}
        expected = sources[task] + ("txt",) + (("tgt",) if states else ())
        layout, _ = LAYOUTS[task]
        cond = dict(planner_states=np.zeros((3, 16)) if states else None,
                    source_latents=[np.zeros((*grid, 4)) for _, grid in layout])
        assert CondInputs(np.array([1, 5], dtype=np.intp), **cond).branches() == expected
        without_text = tuple(b for b in expected if b != "txt")
        assert CondInputs(np.zeros(0, dtype=np.intp), **cond).branches() == without_text
        assert CondInputs(None, **cond).branches() == without_text

    def test_source_role_follows_frame_count(self):
        """A source of one frame is an image, a source of more a video."""
        assert [source_role(np.zeros((n, 2, 2, 4))) for n in (1, 2, 3)] == ["img", "vid", "vid"]
        for task, (layout, _) in LAYOUTS.items():
            assert [source_role(np.zeros((*grid, 4))) for _, grid in layout] == [role for role, _ in layout], task

    def test_subsets_are_one_array_axis(self):
        """compose takes one prediction per subset stacked on axis 0, and no
        structure restates a render's batch or a source's role."""
        spec = GuidanceSpec({"txt": 4.0, "tgt": 1.5}, ("txt", "tgt"))
        stacked = Rng(40).normal((3, 4, CFG.patch_dim))
        out = compose(spec, stacked)
        assert np.array_equal(out, stacked[0] + 4.0 * (stacked[1] - stacked[0]) + 1.5 * (stacked[2] - stacked[1]))
        for name in ("BatchLayout", "LayoutError"):
            assert not hasattr(renderer_mod, name), name
        assert "source_roles" not in {f.name for f in dataclasses.fields(CondInputs)}
