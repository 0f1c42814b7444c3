"""Programmatic invariant suite behind the `check` CLI subcommand.

Each check returns (name, ok, detail) and runs in at most a few seconds; the
full pytest suite is the authoritative verification, this is the fast runtime
smoke layer.
"""

from __future__ import annotations

import numpy as np

from . import guidance, numerics, posenc, schedules, sequence, toydata
from .config import Config
from .numerics import Rng, Tensor


def _check(name, fn):
    try:
        detail = fn()
        return (name, True, detail or "")
    except AssertionError as exc:
        return (name, False, str(exc))
    except Exception as exc:  # noqa: BLE001 - a crash is a failed invariant
        return (name, False, f"{type(exc).__name__}: {exc}")


def _rng_determinism():
    a = Rng(7).normal((32,))
    b = Rng(7).normal((32,))
    assert np.array_equal(a, b), "identical (seed, counter) must replay bit-identically"


def _gradient_spot():
    rng = Rng(3)
    w = Tensor(rng.normal((4, 3)), requires_grad=True)
    x = Tensor(rng.normal((5, 4)))

    def loss():
        h = numerics.gelu(numerics.matmul(x, w))
        return numerics.tmean(numerics.mul(h, h))

    grads = numerics.backward(loss())
    fd = numerics.fd_gradient(loss, w)
    ana = grads[w].reshape(-1)
    err = np.abs(ana - fd) / np.maximum(np.maximum(np.abs(ana), np.abs(fd)), 1e-6)
    assert err.max() < 1e-4, f"max relative gradient error {err.max():.2e}"


def _softmax_layernorm():
    rng = Rng(5)
    x = Tensor(rng.normal((8, 16)) * 2)
    s = numerics.softmax_rows(x).data
    assert np.abs(s.sum(axis=-1) - 1).max() < 1e-12, "softmax rows must sum to 1"
    g, b = Tensor(np.ones((1, 16))), Tensor(np.zeros((1, 16)))
    y = numerics.layernorm(x, g, b).data
    assert np.abs(y.mean(axis=-1)).max() < 1e-10, "layernorm rows must be centered"
    assert np.abs(y.var(axis=-1) - 1).max() < 1e-8, "layernorm rows must have unit variance"


def _sequence_rules():
    seq = sequence.serialize(2, [(1, 2, 1)], (1, 2, 1))
    mask = sequence.build_mask(seq)
    assert mask[0, 1] == False and mask[1, 0] == True, "text block must be causal"  # noqa: E712
    assert mask[2:4, 2:4].all() and not mask[2:4, 4:].any(), "sources see text+self only"
    assert mask[4:, :].all(), "target sees everything earlier plus itself"


def _mask_counts():
    seq = sequence.serialize(0, [], (2, 2, 2))
    seq.embeddings = np.zeros((8, 4))
    for ratio, expect in ((0.0, 0), (1.0, 8), (0.5, 4)):
        out = sequence.apply_target_mask(seq, ratio, Rng(1))
        assert out.masked.sum() == expect, f"ratio {ratio}: {out.masked.sum()} != {expect}"


def _rope_properties():
    cfg = posenc.RopeConfig(head_dim=8)
    seq = sequence.serialize(2, [(1, 2, 2), (2, 2, 2)], (2, 2, 2))
    on, off = (posenc.token_angles(cfg, seq, phases) for phases in (True, False))
    x = Rng(11).normal((len(seq), 8))
    y = numerics.rotate_pairs(Tensor(x), on).data
    assert np.abs(np.linalg.norm(y, axis=1) - np.linalg.norm(x, axis=1)).max() < 1e-12, "norms"
    plain = seq.segment_indices <= 0  # text and target rows
    assert np.array_equal(on[plain], off[plain]), "text and segment 0 must carry no segment phase"
    origin = on[seq.span_of(sequence.VISUAL_SOURCE, 2)[0]]  # (0, 0, 0) of segment 2: no spatial phase
    assert np.array_equal(origin, 2 * cfg.segment_frequencies()), "segment phase = index * frequency"
    assert origin[0] == 2.0, "pair 0 phase must equal the raw index"


def _schedule_shapes():
    for total in range(1, 51):
        vals = [schedules.inference_mask_ratio(k, total) for k in range(total)]
        assert vals[-1] == 0.0, "final mask ratio must be 0"
        assert all(a > b for a, b in zip(vals, vals[1:])), "mask ratio must strictly decrease"
    assert schedules.timestep_map_mode(0.0, 1.29) == 1.0
    assert schedules.timestep_map_mode(1.0, 1.29) == 0.0
    assert schedules.timestep_map_mode(0.5, 1.29) == 0.5
    assert schedules.apply_shift(0.5, 3.0) == 0.75
    d = schedules.timestep_density_logit_normal(0.5, 0.5, 1.0)
    assert abs(d - 1.40833) < 1e-4, f"density at the midpoint: {d}"


def _beta_quick():
    rng = Rng(23)
    draws = rng.beta(5.0, 1.1, (20000,))
    assert abs(draws.mean() - 5.0 / 6.1) < 0.02, f"Beta(5, 1.1) mean {draws.mean():.4f}"


def _guidance_algebra():
    rng = Rng(31)
    spec = guidance.GuidanceSpec(
        weights={"vid": 1.0, "img": 1.0, "txt": 1.0, "tgt": 1.0},
        present=("vid", "img", "txt", "tgt"),
    )
    for _ in range(50):
        forwards = {s: rng.normal((6,)) for s in spec.subset_chain()}
        out = guidance.compose(spec, forwards)
        full = forwards[spec.subset_chain()[-1]]
        assert np.abs(out - full).max() < 1e-12, "unit weights must telescope"
    dspec = guidance.DualBranchSpec(0.3, 0.7, (3.0, 1.5, 0.5), (2.0, 0.75, 0.25))
    p = rng.normal((5,))
    out = guidance.compose_dual_branch(dspec, {k: p for k in guidance.DUAL_BRANCH_KEYS})
    assert np.array_equal(out, p), "identical inputs must map to exactly that input"


def _vae_roundtrip():
    from .renderer import ToyVae

    vae = ToyVae()
    rng = Rng(41)
    x = rng.uniform((2, 4, 4))
    err = np.abs(vae.decode(vae.encode(x)) - x).max()
    assert err < 1e-10, f"round-trip error {err:.2e}"


def _flow_endpoints():
    from .renderer import FlowSample

    rng = Rng(43)
    data, noise = rng.normal((2, 2, 2, 4)), rng.normal((2, 2, 2, 4))
    assert np.array_equal(FlowSample(data, noise, 0.0).x_t, noise), "t=0 is pure noise"
    assert np.array_equal(FlowSample(data, noise, 1.0).x_t, data), "t=1 is clean data"


def _trace_conformance():
    for total in range(1, 21):
        for m in range(1, 33):
            trace = schedules.masked_count_trace(total, m)
            assert trace[-1] == 0, "trace must end at 0"
            assert all(a >= b for a, b in zip(trace, trace[1:])), "trace must be non-increasing"


def _zero_init_conditioning():
    from .renderer import RendererConfig, RendererModel, build_cond_tokens, renderer_forward

    rng = Rng(47)
    model = RendererModel(RendererConfig(hidden_dim=16, blocks=1, heads=2, patch=(1, 2, 2), segment_phases=True,
                                         planner_dim=16), rng)
    x_t = rng.normal((1, 4, 4, 4))
    ids = np.array([1, 3], dtype=np.intp)
    out_a = renderer_forward(model, x_t, 0.3, build_cond_tokens(model, ids, rng.normal((5, 16)))).data
    out_b = renderer_forward(model, x_t, 0.3, build_cond_tokens(model, ids, rng.normal((5, 16)))).data
    assert np.abs(out_a - out_b).max() < 1e-12, "zero-initialized projector must ignore planner states"


def _ragged_guidance_batch():
    from .renderer import (LATENT_CHANNELS, CondInputs, RendererConfig, RendererModel, build_cond_tokens,
                           euler_integrate, patchify, render, renderer_forward, unpatchify)

    rng = Rng(59)
    cfg = RendererConfig(hidden_dim=16, blocks=2, heads=2, patch=(1, 2, 2), segment_phases=True, planner_dim=16)
    model = RendererModel(cfg, rng.child(0))
    model.params["cond_proj"].data[:] = rng.normal((16, 16)) * 0.3  # let the planner states count
    cond_in = CondInputs(text_ids=np.array([1, 3], dtype=np.intp), planner_states=rng.normal((4, 16)),
                         source_latents=[rng.normal((2, 4, 4, 4)), rng.normal((1, 4, 4, 4))],
                         source_roles=["vid", "img"])
    scales = {"txt": 4.0, "vid": 1.25, "img": 2.5, "tgt": 1.5}
    spec = guidance.GuidanceSpec(scales, cond_in.branches())

    def per_subset(x, t):
        grid, _ = patchify(x, cfg.patch)
        forwards = {}
        for subset in spec.subset_chain():
            cond = build_cond_tokens(model, cond_in.text_ids if "txt" in subset else None,
                                     cond_in.planner_states if "tgt" in subset else None)
            held = [lat for lat, role in zip(cond_in.source_latents, cond_in.source_roles) if role in subset]
            forwards[subset] = unpatchify(renderer_forward(model, x, t, cond, held).data, grid, cfg.patch,
                                         LATENT_CHANNELS)
        return guidance.compose(spec, forwards)

    with numerics.no_grad():
        out = render(model, cond_in, 2, scales, 3.0, Rng(60), (2, 4, 4))
        expected = euler_integrate(per_subset, Rng(60).normal((2, 4, 4, LATENT_CHANNELS)), 2, 3.0)
    err = np.abs(out - expected).max()
    assert err < 1e-12, f"batched render departs from per-subset forwards by {err:.2e}"


def _generator_oracle():
    cfg = Config()
    rng = Rng(53)
    for i in range(20):
        case = toydata.gen_edit_case(rng.child(i), schedules.TaskKind.V2V, cfg.get_ints("data.grid"))
        truth = toydata.oracle_scores(case, case.target.rasterize())
        assert toydata.oracle_passes(truth), f"{case.family}: ground truth must pass"
        if case.source is not None and case.source.grid == case.target.grid:
            unedited = toydata.oracle_scores(case, case.source.rasterize())
            assert not toydata.oracle_passes(unedited), f"{case.family}: unedited source must fail"


def run_all(quick: bool = False) -> list[tuple[str, bool, str]]:
    checks = [
        ("rng-determinism", _rng_determinism),
        ("gradient-vs-finite-differences", _gradient_spot),
        ("softmax-and-layernorm-moments", _softmax_layernorm),
        ("hybrid-attention-mask-rules", _sequence_rules),
        ("target-mask-counts", _mask_counts),
        ("rotary-phase-properties", _rope_properties),
        ("schedule-identities", _schedule_shapes),
        ("guidance-algebra", _guidance_algebra),
        ("toy-vae-roundtrip", _vae_roundtrip),
        ("flow-sample-endpoints", _flow_endpoints),
        ("mask-count-trace", _trace_conformance),
        ("zero-init-conditioning", _zero_init_conditioning),
        ("ragged-guidance-batch", _ragged_guidance_batch),
    ]
    if not quick:
        checks += [
            ("beta-sampler-mean", _beta_quick),
            ("generator-oracle-soundness", _generator_oracle),
        ]
    return [_check(name, fn) for name, fn in checks]
