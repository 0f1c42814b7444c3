import dataclasses
import inspect
import math

import numpy as np
import pytest

from planflow import planner as planner_mod
from planflow import sequence
from hypothesis import given, settings, strategies as st

from planflow.config import Config
from planflow.guidance import GuidanceSpec
from planflow.numerics import ContractError, Rng, Tensor, backward, fd_gradient, no_grad
from planflow.planner import (
    EmbeddingDecoder,
    PlannerConfig,
    PlannerModel,
    ToyVit,
    cross_entropy_rows,
    decode_embedding,
    decoder_condition,
    decoder_forward,
    losses_from_hidden,
    plan,
    planner_forward,
)
from planflow.schedules import masked_count_trace
from planflow.sequence import TARGET, apply_target_mask, build_mask, serialize
from planflow.toydata import VOCAB
from util import gelu_np, layernorm_np, rel_err


CFG = PlannerConfig(hidden_dim=16, blocks=2, heads=2, embed_dim=8, segment_phases=False, decoder_dim=24,
                    decoder_blocks=2)

# the configured embedding-decoder guidance weights
GUIDE = {"g_text": Config().get_float("infer.g_text"), "g_image": Config().get_float("infer.g_image")}

# guidance condition subsets of a planner sequence with sources and text
UNCOND, IMG, TXT, FULL = frozenset(), frozenset({"img"}), frozenset({"txt"}), frozenset({"img", "txt"})


def guidance_spec(g_text=1.0, g_image=1.0, present=("img", "txt")):
    return GuidanceSpec({"img": g_image, "txt": g_text}, present)


UNIT = guidance_spec()  # all-unit weights: the chain is the full subset alone


def stage_losses(model, decoder, seq, rng):
    """The planner losses of a masked sequence, as the training loop takes them."""
    return losses_from_hidden(model, decoder, seq, planner_forward(model, seq), rng)


def make_models(seed=5):
    rng = Rng(seed)
    return PlannerModel(CFG, rng.child(1)), EmbeddingDecoder(CFG, rng.child(2))


def make_seq(text_len=3, sources=((1, 1, 2),), target=(1, 2, 2), seed=7):
    rng = Rng(seed)
    seq = serialize(text_len, list(sources), target)
    if text_len:
        seq.text_ids = rng.integers(1, len(VOCAB), (text_len,))
    seq.embeddings = rng.normal((len(seq), CFG.embed_dim))
    if text_len:
        seq.embeddings[:text_len] = 0.0
    return seq


class TestPlannerForward:
    def test_output_shape(self):
        model, _ = make_models()
        seq = make_seq()
        z = planner_forward(model, seq)
        assert z.shape == (len(seq), CFG.hidden_dim)

    def test_banned_column_has_no_influence(self):
        """A token whose key column is banned everywhere cannot affect other
        tokens' outputs."""
        model, _ = make_models()
        seq = make_seq(text_len=0, sources=(), target=(1, 2, 2))
        mask = build_mask(seq)
        banned = 2
        mask[:, banned] = False
        mask[banned, banned] = True  # keep its own row well-formed
        z0 = planner_forward(model, seq, mask).data
        seq2 = seq.copy()
        seq2.embeddings[banned] += 7.5
        z1 = planner_forward(model, seq2, mask).data
        others = [i for i in range(len(seq)) if i != banned]
        assert np.abs(z1[others] - z0[others]).max() < 1e-10
        assert np.abs(z1[banned] - z0[banned]).max() > 1e-6

    def test_permutation_equivariance_within_segment(self):
        """Swapping two target tokens together with their phases swaps outputs."""
        model, _ = make_models()
        seq = make_seq(text_len=2, sources=(), target=(1, 1, 2))
        z = planner_forward(model, seq).data
        swapped = seq.copy()
        t0, t1 = seq.span_of(TARGET)
        swapped.embeddings[[t0, t0 + 1]] = seq.embeddings[[t0 + 1, t0]]
        swapped.positions[[t0, t0 + 1]] = seq.positions[[t0 + 1, t0]]
        z2 = planner_forward(model, swapped).data
        assert np.abs(z2[t0] - z[t0 + 1]).max() < 1e-10
        assert np.abs(z2[t0 + 1] - z[t0]).max() < 1e-10

    def test_single_token_text_matches_hand_oracle(self):
        model, _ = make_models()
        seq = serialize(1, [], None)
        seq.text_ids = np.array([4])
        z = planner_forward(model, seq).data
        p = {k: v.data for k, v in model.params.items()}
        x = p["text_embed"][4][None, :].copy()
        for i in range(CFG.blocks):
            pre = f"block{i}."
            h = layernorm_np(x, p[pre + "ln1.g"], p[pre + "ln1.b"])
            # single token: softmax over one logit is 1, so attention passes v through
            v = h @ p[pre + "wv"]
            x = x + v @ p[pre + "wo"]
            h2 = layernorm_np(x, p[pre + "ln2.g"], p[pre + "ln2.b"])
            x = x + gelu_np(h2 @ p[pre + "w1"] + p[pre + "b1"]) @ p[pre + "w2"] + p[pre + "b2"]
        expected = layernorm_np(x, p["ln_f.g"], p["ln_f.b"])
        assert np.abs(z - expected).max() < 1e-10

    def test_mask_embedding_substituted_and_trainable(self):
        model, decoder = make_models()
        seq = make_seq()
        masked = apply_target_mask(seq, 1.0, Rng(3))
        losses = stage_losses(model, decoder, masked, Rng(4))
        total = losses.ntp + losses.visual
        backward(total)
        assert model.params["mask_embed"].grad is not None
        assert np.abs(model.params["mask_embed"].grad).max() > 0


class TestTrainStep:
    def test_uniform_logits_give_log_vocab_ntp(self):
        model, decoder = make_models()
        model.params["text_head"].data[:] = 0.0
        model.params["text_head_b"].data[:] = 0.0
        seq = make_seq(text_len=5)
        masked = apply_target_mask(seq, 0.5, Rng(1))
        losses = stage_losses(model, decoder, masked, Rng(2))
        assert losses.ntp.item() == pytest.approx(math.log(len(VOCAB)), abs=1e-12)

    def test_zero_ratio_skips_visual_loss(self):
        model, decoder = make_models()
        seq = make_seq()
        masked = apply_target_mask(seq, 0.0, Rng(1))
        losses = stage_losses(model, decoder, masked, Rng(2))
        assert losses.visual.item() == 0.0 and not losses.visual.requires_grad

    def test_visual_loss_matches_direct_recomputation(self):
        model, decoder = make_models()
        seq = make_seq()
        masked = apply_target_mask(seq, 1.0, Rng(5))
        t0, t1 = masked.span_of(TARGET)
        tgt = seq.embeddings[t0:t1].copy()
        rng = Rng(6)
        losses = stage_losses(model, decoder, masked, rng)
        # replay the same stream to rebuild the expected loss independently
        rng2 = Rng(6)
        z = planner_forward(model, masked).data
        rel = np.where(masked.masked[t0:t1])[0]
        t = rng2.uniform((len(rel),))
        eps = rng2.normal((len(rel), CFG.embed_dim))
        x_t = t[:, None] * tgt[rel] + (1 - t[:, None]) * eps
        pred = decoder_forward(decoder, Tensor(x_t), t, z[t0 + rel]).data
        expected = ((pred - (tgt[rel] - eps)) ** 2).mean()
        assert losses.visual.item() == pytest.approx(expected, rel=1e-12)

    def test_weighted_total_recomposes(self):
        model, decoder = make_models()
        seq = make_seq(text_len=4)
        masked = apply_target_mask(seq, 0.75, Rng(9))
        losses = stage_losses(model, decoder, masked, Rng(10))
        total = 0.2 * losses.ntp + 1.0 * losses.visual
        assert total.item() == pytest.approx(0.2 * losses.ntp.item() + losses.visual.item(), rel=1e-15)

    def test_stage_loss_gradient_vs_finite_differences(self):
        model, decoder = make_models(seed=21)
        seq = make_seq(text_len=3, seed=22)
        masked = apply_target_mask(seq, 0.8, Rng(23))

        def loss():
            losses = stage_losses(model, decoder, masked, Rng(24))
            return 0.2 * losses.ntp + losses.visual

        grads = backward(loss())
        rng = Rng(25)
        for name in ("planner.mask_embed", "planner.block0.wq", "planner.src_proj",
                     "planner.text_head", "decoder.in_proj", "decoder.res0.w1", "decoder.out_proj"):
            prefix, key = name.split(".", 1)
            p = (model if prefix == "planner" else decoder).params[key]
            idx = [int(i) for i in rng.integers(0, p.size, (4,))]
            fd = fd_gradient(loss, p, indices=idx)
            ana = grads[p].reshape(-1)[idx]
            assert rel_err(ana, fd) < 1e-4, name


class TestCrossEntropy:
    def test_perfect_prediction_near_zero(self):
        logits = np.full((3, 5), -30.0)
        labels = np.array([1, 2, 0])
        for i, l in enumerate(labels):
            logits[i, l] = 30.0
        assert cross_entropy_rows(Tensor(logits), labels).item() < 1e-12

    def test_uniform_is_log_vocab(self):
        assert cross_entropy_rows(Tensor(np.zeros((4, 7))), np.zeros(4, dtype=int)).item() == pytest.approx(math.log(7))


class TestDecodeEmbedding:
    def test_constant_field_integrates_exactly(self, monkeypatch):
        _, decoder = make_models()
        target = Rng(1).normal((3, CFG.embed_dim))
        noise = Rng(2).normal((3, CFG.embed_dim))

        def const_velocity(dec, x, t, z):
            return Tensor(target - noise)

        monkeypatch.setattr(planner_mod, "decoder_forward", const_velocity)
        for steps in (1, 2, 5, 17):
            cond = decoder_condition(decoder, np.zeros((3, CFG.hidden_dim)))
            out = decode_embedding(decoder, cond, steps, UNIT, noise.copy())
            assert np.abs(out - target).max() < 1e-12

    def test_single_step_formula(self, monkeypatch):
        _, decoder = make_models()
        noise = Rng(3).normal((2, CFG.embed_dim))
        seen = {}

        def record_velocity(dec, x, t, z):
            seen["t"] = t
            return Tensor(x.data * 2.0)

        monkeypatch.setattr(planner_mod, "decoder_forward", record_velocity)
        out = decode_embedding(decoder, decoder_condition(decoder, np.zeros((2, CFG.hidden_dim))), 1, UNIT,
                               noise.copy())
        assert np.allclose(out, noise + noise * 2.0)
        assert seen["t"] == 0.0

    def test_unit_guidance_equals_conditional_path(self):
        """All-unit weights keep the full subset alone; a unit image weight
        drops the unconditional rows and still matches the three-subset sum."""
        _, decoder = make_models()
        rng = Rng(11)
        z_full = rng.normal((4, CFG.hidden_dim))
        z_img = rng.normal((4, CFG.hidden_dim))
        z_un = rng.normal((4, CFG.hidden_dim))
        noise = rng.normal((4, CFG.embed_dim))
        assert UNIT.subset_chain() == [FULL]
        unit = decode_embedding(decoder, decoder_condition(decoder, z_full), 4, UNIT, noise.copy())
        x = noise.copy()
        with no_grad():
            for s in range(4):
                x = x + 0.25 * decoder_forward(decoder, Tensor(x), s / 4, z_full).data
        assert np.abs(unit - x).max() < 1e-12

        spec = guidance_spec(g_text=1.5)
        assert spec.subset_chain() == [IMG, FULL]
        guided = decode_embedding(decoder, decoder_condition(decoder, np.concatenate([z_img, z_full])), 4, spec,
                                  noise.copy())
        x = noise.copy()
        with no_grad():
            for s in range(4):
                v_un, v_img, v_full = (decoder_forward(decoder, Tensor(x), s / 4, z).data
                                       for z in (z_un, z_img, z_full))
                x = x + 0.25 * (v_un + 1.0 * (v_img - v_un) + 1.5 * (v_full - v_img))
        assert np.abs(guided - x).max() < 1e-12

    def test_rejects_zero_steps(self):
        _, decoder = make_models()
        with pytest.raises(ContractError):
            decode_embedding(decoder, decoder_condition(decoder, np.zeros((1, CFG.hidden_dim))), 0, UNIT,
                             np.zeros((1, CFG.embed_dim)))


class TestPlan:
    def _masked_seq(self, **kw):
        seq = make_seq(**kw)
        t0, t1 = seq.span_of(TARGET)
        seq.embeddings[t0:t1] = 0.0
        seq.masked[t0:t1] = True
        return seq

    def test_single_step_reveals_all(self):
        model, decoder = make_models()
        seq = self._masked_seq()
        res = plan(model, decoder, seq, total_steps=1, decoder_steps=2, **GUIDE, rng=Rng(1))
        assert res.masked_counts == [0]

    def test_trace_k4_m10(self):
        # round-half-up of cos(pi/2 * (k+1)/4) * 10
        model, decoder = make_models()
        seq = self._masked_seq(text_len=2, sources=(), target=(1, 2, 5))
        res = plan(model, decoder, seq, total_steps=4, decoder_steps=1, **GUIDE, rng=Rng(2))
        assert res.masked_counts == [9, 7, 4, 0]
        assert res.masked_counts == masked_count_trace(4, 10)

    def test_schedule_conformance_with_model(self):
        model, decoder = make_models()
        for total, grid in ((3, (1, 2, 2)), (7, (1, 2, 3)), (5, (2, 2, 2))):
            seq = self._masked_seq(text_len=2, sources=(), target=grid)
            m = int(np.prod(grid))
            res = plan(model, decoder, seq, total_steps=total, decoder_steps=1, **GUIDE, rng=Rng(3))
            assert res.masked_counts == masked_count_trace(total, m)
            assert all(a >= b for a, b in zip(res.masked_counts, res.masked_counts[1:]))
            assert res.masked_counts[-1] == 0

    def test_deterministic_replay(self):
        model, decoder = make_models()
        a = plan(model, decoder, self._masked_seq(), 5, 2, **GUIDE, rng=Rng(9))
        b = plan(model, decoder, self._masked_seq(), 5, 2, **GUIDE, rng=Rng(9))
        assert np.array_equal(a.embeddings, b.embeddings)
        assert np.array_equal(a.hidden, b.hidden)
        assert a.masked_counts == b.masked_counts
        assert a.mean_pred_norm == b.mean_pred_norm

    def test_requires_fully_masked_target(self):
        model, decoder = make_models()
        seq = self._masked_seq()
        seq.masked[seq.span_of(TARGET)[0]] = False
        with pytest.raises(ContractError):
            plan(model, decoder, seq, 4, 1, **GUIDE, rng=Rng(1))

    def test_rejects_bad_arguments(self):
        model, decoder = make_models()
        with pytest.raises(ContractError):
            plan(model, decoder, self._masked_seq(), 0, 1, **GUIDE, rng=Rng(1))


class TestGuidanceVariants:
    def test_variant_masks_match_dropped_sequences(self):
        """The masks of the subsets {} and {img} reproduce the target rows of
        the text-and-source-dropped and the text-dropped sequences serialized
        on their own."""
        model, _ = make_models(seed=41)
        seq = make_seq(text_len=3, sources=((1, 2, 2), (1, 1, 2)), target=(1, 2, 2), seed=42)
        seq = apply_target_mask(seq, 0.5, Rng(43))
        subsets = [UNCOND, IMG, FULL]
        z = planner_forward(model, seq, planner_mod._variant_masks(seq, subsets)).data
        z = z.reshape(len(subsets), len(seq), -1)
        t0, t1 = seq.span_of(TARGET)
        sources = [d.grid for d in seq.layout if d.segment_index > 0]
        target = seq.layout[-1].grid
        for b, kept_sources in ((0, []), (1, sources), (2, None)):
            if kept_sources is None:
                ref = planner_forward(model, seq).data
                r0 = t0
            else:
                dropped = serialize(0, kept_sources, target)
                dropped.embeddings = np.zeros((len(dropped), CFG.embed_dim))
                for desc, start, stop in dropped.spans():
                    o0, o1 = seq.span_of(desc.segment_index)
                    dropped.embeddings[start:stop] = seq.embeddings[o0:o1]
                    dropped.masked[start:stop] = seq.masked[o0:o1]
                ref = planner_forward(model, dropped).data
                r0, _ = dropped.span_of(TARGET)
            assert np.abs(z[b, t0:t1] - ref[r0 : r0 + t1 - t0]).max() < 1e-12, sorted(subsets[b])
        assert np.abs(z[0, t0:t1] - z[2, t0:t1]).max() > 1e-6

    @pytest.mark.parametrize("sources", [((1, 1, 2),), ()], ids=["with-sources", "text-only"])
    def test_one_forward_per_revealing_step(self, monkeypatch, sources):
        model, decoder = make_models()
        calls = {"planner": [], "decoder": []}
        real_planner, real_decoder = planner_mod.planner_forward, planner_mod.decoder_forward

        def count_planner(model, seq, mask=None, *args, **kwargs):
            calls["planner"].append(1 if mask is None or mask.ndim == 2 else mask.shape[0])
            return real_planner(model, seq, mask, *args, **kwargs)

        def count_decoder(decoder, x, t, z):
            calls["decoder"].append(z.state_terms[0].shape[0])
            return real_decoder(decoder, x, t, z)

        monkeypatch.setattr(planner_mod, "planner_forward", count_planner)
        monkeypatch.setattr(planner_mod, "decoder_forward", count_decoder)
        seq = make_seq(text_len=3, sources=sources, target=(1, 2, 3))
        t0, t1 = seq.span_of(TARGET)
        seq.embeddings[t0:t1] = 0.0
        seq.masked[t0:t1] = True
        total, decoder_steps = 8, 3
        for g_image in (1.2, 1.0):
            calls["planner"].clear()
            calls["decoder"].clear()
            res = plan(model, decoder, seq, total, decoder_steps, g_text=1.5, g_image=g_image, rng=Rng(44))
            trace = [6] + res.masked_counts
            revealing = [(a, b) for a, b in zip(trace, trace[1:]) if b < a]
            assert len(revealing) < total  # the cosine trace holds steps that reveal nothing
            # a unit image weight telescopes the unconditional copy away
            copies = 3 if sources and g_image != 1.0 else 2
            # one prefix pass and one pass per revealing step, each with one
            # entry per subset of the chain, then one plain final pass
            assert calls["planner"] == [copies] * (len(revealing) + 1) + [1]
            # decoder_steps Euler forwards per revealing step, then one terminal
            # forward to rank the rows, except on the last step, which reveals
            # every masked row
            assert revealing[-1][1] == 0 and all(b > 0 for _, b in revealing[:-1])
            assert calls["decoder"] == [copies * a for a, b in revealing for _ in range(decoder_steps + (b > 0))]


def reference_plan(model, decoder, seq, total_steps, decoder_steps, g_text, g_image, rng):
    """plan() without any cache, stacking or telescoping: every revealing
    step runs planner_forward on the whole sequence under the full chain of
    condition subsets, from the unconditional one on, runs the decoder once
    per subset on raw states and sums the weighted increments itself.
    Returns (embeddings, hidden, masked counts, the target's masked flags
    before every revealing step and before the final pass)."""
    seq = seq.copy()
    t0, t1 = seq.span_of(TARGET)
    trace = masked_count_trace(total_steps, t1 - t0)
    weights = {"img": g_image, "txt": g_text}
    present = [b for b, has in (("img", any(d.segment_index > 0 for d in seq.layout)),
                                ("txt", seq.text_len > 0)) if has]
    chain = [frozenset(present[:i]) for i in range(len(present) + 1)]
    mask = planner_mod._variant_masks(seq, chain)

    def velocity(x, t, zs):
        v = [decoder_forward(decoder, Tensor(x), t, z).data for z in zs]
        out = v[0]
        for branch, prev, cur in zip(present, v, v[1:]):
            out = out + weights[branch] * (cur - prev)
        return out

    counts, flags = [], []
    with no_grad():
        for keep in trace:
            masked_rel = np.where(seq.masked[t0:t1])[0]
            n_reveal = len(masked_rel) - keep
            counts.append(min(keep, len(masked_rel)))
            if n_reveal <= 0:
                continue
            flags.append(seq.masked[t0:t1].copy())
            z = planner_forward(model, seq, mask).data.reshape(len(chain), len(seq), -1)
            zs = [z[b, t0 + masked_rel] for b in range(len(chain))]
            pred = rng.normal((len(masked_rel), CFG.embed_dim))
            for s in range(decoder_steps):
                pred = pred + (1.0 / decoder_steps) * velocity(pred, s / decoder_steps, zs)
            term = velocity(pred, 1.0, zs)
            order = np.argsort(np.linalg.norm(term, axis=1), kind="stable")
            chosen = masked_rel[order[:n_reveal]]
            seq.embeddings[t0 + chosen] = pred[order[:n_reveal]]
            seq.masked[t0 + chosen] = False
        flags.append(seq.masked[t0:t1].copy())
        hidden = planner_forward(model, seq).data
    return seq.embeddings[t0:t1], hidden, counts, flags


LAYOUTS = {
    "target-only": dict(text_len=0, sources=()),
    "text-only": dict(text_len=3, sources=()),
    "one-source": dict(text_len=3, sources=((1, 2, 2),)),
    "two-sources": dict(text_len=2, sources=((1, 2, 2), (1, 1, 2))),
}


class TestInferenceCaches:
    @settings(max_examples=60, deadline=None)
    @given(
        text_len=st.integers(0, 5),
        sources=st.lists(st.tuples(st.integers(1, 2), st.integers(1, 3), st.integers(1, 3)), max_size=2),
        target=st.tuples(st.integers(1, 2), st.integers(1, 3), st.integers(1, 3)),
    )
    def test_rows_before_the_target_never_see_it(self, text_len, sources, target):
        """The invariant the prefix cache rests on, for every guidance variant."""
        seq = serialize(text_len, sources, target)
        t0, t1 = seq.span_of(TARGET)
        masks = [build_mask(seq)[None]]
        masks += [planner_mod._variant_masks(seq, subsets)
                  for subsets in ([FULL], [UNCOND, TXT], [UNCOND, IMG, FULL])]
        for allow in masks:
            assert not allow[:, :t0, t0:t1].any()
            assert allow[:, t0:t1, t0:t1].all()

    @pytest.mark.parametrize("guidance", [(1.0, 1.0), (1.5, 1.2), (1.5, 1.0)], ids=["unguided", "guided", "unit-image"])
    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_cached_plan_matches_uncached_reference(self, monkeypatch, layout, guidance):
        model, decoder = make_models(seed=51)
        seq = make_seq(target=(1, 2, 3), seed=52, **LAYOUTS[layout])
        t0, t1 = seq.span_of(TARGET)
        seq.embeddings[t0:t1] = 0.0
        seq.masked[t0:t1] = True
        flags = []
        real = planner_mod.planner_forward

        def spy(model, seq, mask=None, past=None, keep=None):
            if len(seq) > t0:  # a revealing step or the final pass, not the prefix
                flags.append(seq.masked[t0:t1].copy())
            return real(model, seq, mask, past, keep)

        monkeypatch.setattr(planner_mod, "planner_forward", spy)
        res = plan(model, decoder, seq, 6, 3, *guidance, rng=Rng(53))
        monkeypatch.undo()
        emb, hidden, counts, ref_flags = reference_plan(model, decoder, seq, 6, 3, *guidance, Rng(53))
        assert res.masked_counts == counts
        assert len(flags) == len(ref_flags) and all(np.array_equal(a, b) for a, b in zip(flags, ref_flags))
        assert np.abs(res.embeddings - emb).max() < 1e-12
        assert res.hidden.shape == hidden.shape and np.abs(res.hidden - hidden).max() < 1e-12

    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_hidden_is_one_forward_over_the_finished_sequence(self, layout):
        """The conditioning states are the plain forward stage III training
        makes, over the input with the plan written in and nothing masked."""
        model, decoder = make_models(seed=51)
        seq = make_seq(target=(1, 2, 3), seed=52, **LAYOUTS[layout])
        t0, t1 = seq.span_of(TARGET)
        seq.embeddings[t0:t1] = 0.0
        seq.masked[t0:t1] = True
        res = plan(model, decoder, seq, 6, 3, g_text=1.5, g_image=1.2, rng=Rng(53))
        finished = seq.copy()
        finished.embeddings[t0:t1] = res.embeddings
        finished.masked[:] = False
        assert np.array_equal(res.hidden, planner_forward(model, finished).data)

    def test_target_rows_against_cache_match_full_forward(self):
        model, _ = make_models(seed=54)
        seq = make_seq(text_len=3, sources=((1, 2, 2), (1, 1, 2)), target=(1, 2, 2), seed=55)
        seq = apply_target_mask(seq, 0.5, Rng(56))
        mask = planner_mod._variant_masks(seq, [UNCOND, IMG, FULL])
        t0, _ = seq.span_of(TARGET)
        past = planner_mod.prefix_cache(model, seq, mask, t0)
        full = planner_forward(model, seq, mask).data.reshape(3, len(seq), -1)
        tail = planner_forward(model, seq, mask, past).data.reshape(3, len(seq) - t0, -1)
        assert np.abs(tail - full[:, t0:]).max() < 1e-12

    def test_prefix_runs_one_entry_per_mask(self, monkeypatch):
        """The prefix forward gets one entry per subset, also for the subsets
        {} and {img}, which agree on every row before the target, and the
        cache equals the one built from each subset's mask on its own."""
        model, _ = make_models(seed=57)
        seq = make_seq(text_len=3, sources=((1, 2, 2), (1, 1, 2)), target=(1, 2, 2), seed=58)
        subsets = [UNCOND, IMG, FULL]
        mask = planner_mod._variant_masks(seq, subsets)
        t0, _ = seq.span_of(TARGET)
        entries = []
        real = planner_mod.planner_forward

        def counting(model, seq, mask=None, *args, **kwargs):
            entries.append(mask.shape[0])
            return real(model, seq, mask, *args, **kwargs)

        monkeypatch.setattr(planner_mod, "planner_forward", counting)
        with no_grad():
            past = planner_mod.prefix_cache(model, seq, mask, t0)
        assert entries == [3]
        monkeypatch.undo()
        with no_grad():
            for b, subset in enumerate(subsets):
                own = planner_mod.prefix_cache(model, seq, planner_mod._variant_masks(seq, [subset]), t0)
                for (k, v), (k1, v1) in zip(past.kv, own.kv):
                    assert np.array_equal(k.data[b * t0 : (b + 1) * t0], k1.data)
                    assert np.array_equal(v.data[b * t0 : (b + 1) * t0], v1.data)

    def test_cache_refuses_a_prefix_that_sees_later_rows(self):
        model, _ = make_models()
        seq = make_seq()
        t0, _ = seq.span_of(TARGET)
        allow = build_mask(seq).copy()
        allow[0, t0] = True
        with pytest.raises(ContractError):
            planner_mod.prefix_cache(model, seq, allow, t0)

    def test_time_terms_once_per_distinct_t(self, monkeypatch):
        model, decoder = make_models()
        seq = make_seq(target=(1, 2, 3))
        t0, t1 = seq.span_of(TARGET)
        seq.embeddings[t0:t1] = 0.0
        seq.masked[t0:t1] = True
        times = []
        real = planner_mod.nets.time_embedding

        def counting(params, prefix, t):
            times.append(float(t))
            return real(params, prefix, t)

        monkeypatch.setattr(planner_mod.nets, "time_embedding", counting)
        decoder_steps = 4
        plan(model, decoder, seq, 6, decoder_steps, g_text=1.5, g_image=1.2, rng=Rng(57))
        assert sorted(times) == [s / decoder_steps for s in range(decoder_steps)] + [1.0]

    def test_decoder_matches_concatenated_input_oracle(self):
        """The split first layer equals the layer on [ln(h), time embedding,
        planner state] written out in numpy."""
        _, decoder = make_models(seed=60)
        p = {k: v.data for k, v in decoder.params.items()}
        rng = Rng(61)
        z, x = rng.normal((4, CFG.hidden_dim)), rng.normal((4, CFG.embed_dim))
        for t in (0.3, rng.uniform((4,))):
            feats = planner_mod.nets.time_features(np.broadcast_to(t, (4,)), planner_mod.nets.TIME_FEATURES)
            temb = gelu_np(feats @ p["time.w1"] + p["time.b1"]) @ p["time.w2"] + p["time.b2"]
            h = x @ p["in_proj"] + p["in_bias"]
            for i in range(CFG.decoder_blocks):
                pre = f"res{i}."
                inner = np.concatenate([layernorm_np(h, p[pre + "ln.g"], p[pre + "ln.b"]), temb, z], axis=1)
                h = h + gelu_np(inner @ p[pre + "w1"] + p[pre + "b1"]) @ p[pre + "w2"] + p[pre + "b2"]
            expected = layernorm_np(h, p["out_ln.g"], p["out_ln.b"]) @ p["out_proj"] + p["out_bias"]
            assert np.abs(decoder_forward(decoder, Tensor(x), t, z).data - expected).max() < 1e-12

    def test_prepared_condition_matches_raw_states(self):
        _, decoder = make_models(seed=58)
        rng = Rng(59)
        z, x = rng.normal((5, CFG.hidden_dim)), rng.normal((5, CFG.embed_dim))
        cond = planner_mod.decoder_condition(decoder, z)
        for t in (0.25, 0.25, np.full(5, 0.6)):
            raw = decoder_forward(decoder, Tensor(x), t, z).data
            assert np.array_equal(decoder_forward(decoder, Tensor(x), t, cond).data, raw)
        assert list(cond.time_terms) == [0.25]


def test_the_sequence_is_the_one_record():
    """Roles are segment indices, the ground truth stays in the rows and a
    plan's states come from one forward, so nothing beside the sequence
    restates them."""
    assert not hasattr(sequence, "VISUAL_SOURCE") and not hasattr(sequence, "VISUAL_TARGET")
    assert not hasattr(sequence.SegmentDesc, "kind")
    assert list(inspect.signature(sequence.TokenSequence.span_of).parameters) == ["self", "segment_index"]
    assert list(inspect.signature(losses_from_hidden).parameters) == ["model", "decoder", "seq", "z", "rng"]
    assert "states" not in {f.name for f in dataclasses.fields(planner_mod.PrefixCache)}


class TestToyVit:
    def test_shapes_and_determinism(self):
        vit = ToyVit(patch=(1, 2, 2), embed_dim=8, seed=3)
        frames = Rng(1).uniform((2, 4, 4))
        grid, emb = vit.encode(frames)
        assert grid == (2, 2, 2)
        assert emb.shape == (8, 8)
        grid2, emb2 = ToyVit(patch=(1, 2, 2), embed_dim=8, seed=3).encode(frames)
        assert np.array_equal(emb, emb2)

    def test_indivisible_grid_rejected(self):
        vit = ToyVit(patch=(1, 2, 2), embed_dim=8, seed=3)
        with pytest.raises(Exception):
            vit.encode(Rng(1).uniform((2, 5, 4)))
