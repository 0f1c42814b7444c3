"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The end-to-end learning
criterion is marked `slow` (several minutes); deselect with `-m "not slow"`.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

from planflow import tensorio
from planflow.checkpoint import Checkpoint
from planflow.config import Config
from planflow.guidance import (
    DUAL_BRANCH_KEYS,
    DualBranchSpec,
    GuidanceSpec,
    compose,
    compose_dual_branch,
    validate,
)
from planflow.harness import (
    ModelBundle,
    RunConfig,
    StageConfig,
    dataset_counts,
    evaluate,
    run_stage,
)
from planflow.numerics import Rng, Tensor, backward, fd_gradient, rotate_pairs
from planflow.nets import rotary
from planflow.posenc import RopeConfig, token_angles
from planflow.renderer import RendererConfig, RendererModel, build_cond_tokens, renderer_forward, train_step_renderer
from planflow.schedules import (
    MASK_RATIO_BETA,
    inference_mask_ratio,
    masked_count_trace,
    timestep_density_logit_normal,
    timestep_map_mode,
    sample_timestep_logit_normal,
)
from planflow.sequence import apply_target_mask, serialize
from planflow.planner import losses_from_hidden, plan, planner_forward
from planflow.toydata import Dataset, generate_dataset
from util import rel_err, row_at, write_config


def _report(num: int, detail: str):
    print(f"\n[criterion {num}] PASS  {detail}")


# -------------------------------------------------------------------------
# 1. guidance algebra
# -------------------------------------------------------------------------

def test_criterion_1_guidance_algebra():
    t0 = time.monotonic()
    rng = Rng(1001)
    spec = GuidanceSpec(weights={b: 1.0 for b in ("vid", "img", "txt", "tgt")},
                        present=("vid", "img", "txt", "tgt"))
    chain = spec.subset_chain()
    worst = 0.0
    for _ in range(1000):
        forwards = np.stack([rng.normal((8,)) for _ in chain])
        out = compose(spec, forwards)
        worst = max(worst, float(np.abs(out - forwards[-1]).max()))
    assert worst < 1e-12, f"telescoping residual {worst:.2e}"

    for _ in range(200):
        alpha = float(rng.uniform())
        w_t, w_i = float(rng.uniform() * 3), float(rng.uniform() * 3)
        v_t, v_v = float(rng.uniform() * 3), float(rng.uniform() * 3)
        spec2 = DualBranchSpec(alpha, 1.0 - alpha,
                               (1.0 + w_t + w_i, w_t, w_i), (1.0 + v_t + v_v, v_t, v_v))
        if validate(spec2):
            continue
        p = rng.normal((6,))
        out = compose_dual_branch(spec2, {k: p for k in DUAL_BRANCH_KEYS})
        assert np.array_equal(out, p), "identical inputs must map to exactly that input"
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s"
    _report(1, f"telescoping residual {worst:.1e} over 1000 maps; dual-branch exact ({elapsed:.2f}s)")


# -------------------------------------------------------------------------
# 2. schedule identities
# -------------------------------------------------------------------------

def test_criterion_2_schedule_identities():
    t0 = time.monotonic()
    for s in (0.0, 1.29, 2.0):
        assert timestep_map_mode(0.0, s) == 1.0
        assert timestep_map_mode(1.0, s) == 0.0
    assert timestep_map_mode(0.5, 1.29) == 0.5

    total_mass, _ = integrate.quad(
        lambda t: timestep_density_logit_normal(t, 0.5, 1.0), 1e-12, 1 - 1e-12
    )
    assert abs(total_mass - 1.0) < 1e-6

    samples = sample_timestep_logit_normal(Rng(2002), 0.5, 1.0, (100_000,))
    edges = np.linspace(0.0, 1.0, 21)
    observed, _ = np.histogram(samples, bins=edges)
    expected = np.array([
        integrate.quad(lambda t: timestep_density_logit_normal(t, 0.5, 1.0),
                       max(lo, 1e-12), min(hi, 1 - 1e-12))[0]
        for lo, hi in zip(edges[:-1], edges[1:])
    ]) * len(samples)
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    p_value = float(stats.chi2.sf(chi2, df=len(observed) - 1))
    assert p_value > 0.001, f"chi-square {chi2:.1f}, p={p_value:.2e}"

    for total in range(1, 51):
        vals = [inference_mask_ratio(k, total) for k in range(total)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] == 0.0
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s"
    _report(2, f"mode endpoints exact; density mass {total_mass:.8f}; chi2 p={p_value:.3f} ({elapsed:.1f}s)")


# -------------------------------------------------------------------------
# 3. Beta mask-ratio sampling against the analytic means
# -------------------------------------------------------------------------

def test_criterion_3_beta_mask_ratio_means():
    t0 = time.monotonic()
    rng = Rng(3003)
    details = []
    for task, (a, b) in MASK_RATIO_BETA.items():
        draws = rng.beta(a, b, (100_000,))
        mean = a / (a + b)
        err = abs(float(draws.mean()) - mean)
        assert err < 0.01, f"{task.value}: |{draws.mean():.4f} - {mean:.4f}| = {err:.4f}"
        details.append(f"{task.value}:{err:.4f}")
    assert abs(5.0 / 6.1 - 0.819672131147541) < 1e-12
    assert abs(12.0 / 12.9 - 0.9302325581395349) < 1e-12
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s"
    _report(3, f"mean errors at 1e5 draws: {' '.join(details)} ({elapsed:.1f}s)")


# -------------------------------------------------------------------------
# 4. segment-aware rotary phases
# -------------------------------------------------------------------------

def test_criterion_4_segment_aware_rotary():
    """On the angles both models use, `token_angles` of a serialized layout,
    rotated by `rotate_pairs` as `nets.self_attention` does."""
    t0 = time.monotonic()
    cfg = RopeConfig(head_dim=16)
    rng = Rng(4004)
    # text, a large source 1, sources 2..7, then the target (segment 0)
    seq = serialize(4, [(8, 7, 6)] + [(1, 2, 2)] * 6, (2, 3, 3))
    on, off = (token_angles(cfg, seq, phases) for phases in (True, False))

    heads = 2
    x = rng.normal((len(seq), heads * 16))
    rotated = rotate_pairs(Tensor(x), rotary(on, heads)).data
    per_head = [np.linalg.norm(a.reshape(len(seq), heads, 16), axis=-1) for a in (rotated, x)]
    norm_err = float(np.abs(per_head[0] - per_head[1]).max())
    assert norm_err < 1e-12

    # relative-offset invariance of q.k within a segment, segment phase included
    q, k = rng.normal((16,)), rng.normal((16,))
    worst_rel = 0.0
    for delta in ((1, 0, 0), (0, 1, 2), (2, 2, 1)):
        dots = []
        for shift in ((0, 0, 0), (1, 1, 1), (3, 0, 2), (5, 4, 3)):
            rq = rotate_pairs(Tensor(q[None, :]), on[row_at(seq, 1, shift)]).data[0]
            rk = rotate_pairs(Tensor(k[None, :]), on[row_at(seq, 1, np.add(shift, delta))]).data[0]
            dots.append(float(rq @ rk))
        worst_rel = max(worst_rel, max(dots) - min(dots))
    assert worst_rel < 1e-10

    # exact per-pair segment phase at each segment's origin, where the spatial
    # phase is 0; segment 0 and the text reduce to the plain rotation
    freqs = cfg.segment_frequencies()
    origin = (0, 0, 0)
    for i in (1, 2, 4, 7):
        assert np.array_equal(on[row_at(seq, i, origin)] - on[row_at(seq, 0, origin)], i * freqs)
        assert np.array_equal(off[row_at(seq, i, origin)], np.zeros(8))
    plain = seq.segment_indices <= 0
    assert np.array_equal(on[plain], off[plain])
    assert np.allclose(on[row_at(seq, 5, origin)] - on[row_at(seq, 2, origin)], 3 * freqs, rtol=4e-16, atol=0)

    # two-source swap: detectable with segment phases, invisible without
    for phases, detectable in ((True, True), (False, False)):
        model = RendererModel(
            RendererConfig(hidden_dim=16, blocks=1, heads=2, patch=(1, 2, 2), segment_phases=phases,
                           planner_dim=16),
            Rng(4104),
        )
        cond = build_cond_tokens(model, np.array([3], dtype=np.intp), None)
        x_t = rng.normal((1, 4, 4, 4))
        a, b = rng.normal((1, 4, 4, 4)), rng.normal((1, 4, 4, 4))
        out_ab = renderer_forward(model, x_t, 0.5, cond, [a, b]).data
        out_ba = renderer_forward(model, x_t, 0.5, cond, [b, a]).data
        diff = float(np.abs(out_ab - out_ba).max())
        if detectable:
            assert diff > 1e-6, f"swap undetected under segment phases (diff {diff:.2e})"
        else:
            assert diff < 1e-10, f"plain rotation leaked segment identity (diff {diff:.2e})"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s"
    _report(4, f"norm {norm_err:.1e}; rel-offset {worst_rel:.1e}; swap ablation both ways ({elapsed:.1f}s)")


# -------------------------------------------------------------------------
# 5. gradient integrity on 2-block, width-32 models
# -------------------------------------------------------------------------

def test_criterion_5_gradient_integrity():
    t0 = time.monotonic()
    cfg = Config({
        "planner.hidden_dim": "32", "planner.blocks": "2", "planner.heads": "2",
        "planner.decoder_dim": "32", "planner.decoder_blocks": "2",
        "renderer.hidden_dim": "32", "renderer.blocks": "2", "renderer.heads": "2",
        "vit.embed_dim": "16",
    })
    bundle = ModelBundle(cfg)
    rng = Rng(5005)

    # stage I loss: weighted NTP + masked-embedding flow matching
    seq = serialize(4, [(1, 2, 2)], (1, 2, 2))
    seq.text_ids = rng.integers(1, 50, (4,))
    seq.embeddings = rng.normal((len(seq), 16))
    seq.embeddings[:4] = 0.0
    seq = apply_target_mask(seq, 0.8, Rng(5105))

    def stage1_loss():
        z = planner_forward(bundle.planner, seq)
        losses = losses_from_hidden(bundle.planner, bundle.decoder, seq, z, Rng(5205))
        return 0.2 * losses.ntp + 1.0 * losses.visual

    grads = backward(stage1_loss())
    checked = 0
    worst = 0.0
    coord_rng = Rng(5305)
    for name, p in {**{f"planner.{k}": v for k, v in bundle.planner.params.items()},
                    **{f"decoder.{k}": v for k, v in bundle.decoder.params.items()}}.items():
        idx = sorted({int(i) for i in coord_rng.integers(0, p.size, (2,))})
        fd = fd_gradient(stage1_loss, p, indices=idx)
        ana = grads.get(p)
        ana = np.zeros(len(idx)) if ana is None else ana.reshape(-1)[idx]
        err = rel_err(ana, fd)
        worst = max(worst, err)
        assert err < 1e-4, f"stage I adjoint mismatch at {name}: {err:.2e}"
        checked += len(idx)

    # stage II loss: velocity MSE with source conditioning
    target = rng.normal((1, 4, 4, 4)) * 0.5
    src = rng.normal((1, 4, 4, 4)) * 0.5
    ids = np.array([2, 7, 9], dtype=np.intp)

    def stage2_loss():
        cond = build_cond_tokens(bundle.renderer, ids, None)
        loss, _ = train_step_renderer(
            bundle.renderer, target, cond, [src], "v2v", Rng(5405),
        )
        return loss

    grads2 = backward(stage2_loss())
    for name, p in bundle.renderer.params.items():
        if name.startswith("cond_"):
            continue  # unused without planner states: no gradient path
        idx = sorted({int(i) for i in coord_rng.integers(0, p.size, (2,))})
        fd = fd_gradient(stage2_loss, p, indices=idx)
        ana = grads2.get(p)
        ana = np.zeros(len(idx)) if ana is None else ana.reshape(-1)[idx]
        err = rel_err(ana, fd)
        worst = max(worst, err)
        assert err < 1e-4, f"stage II adjoint mismatch at {name}: {err:.2e}"
        checked += len(idx)

    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"runtime {elapsed:.2f}s"
    _report(5, f"{checked} coordinates across every parameter tensor, worst rel err {worst:.2e} ({elapsed:.1f}s)")


# -------------------------------------------------------------------------
# 6. determinism and checkpointing
# -------------------------------------------------------------------------

def test_criterion_6_determinism_and_checkpointing(tmp_path):
    t0 = time.monotonic()
    from planflow import cli

    overrides = {
        "data.grid": "2,6,6", "data.cases_per_stage": "60", "data.eval_cases": "3",
        "planner.hidden_dim": "16", "planner.blocks": "1", "planner.heads": "2",
        "planner.decoder_dim": "16", "planner.decoder_blocks": "1",
        "renderer.hidden_dim": "16", "renderer.blocks": "1", "renderer.heads": "2",
        "vit.embed_dim": "8",
        "stage.I.steps": "100", "stage.I.batch": "1",
        "infer.plan_steps": "4", "infer.decoder_steps": "2",
        "guidance.steps.t2v": "3", "guidance.steps.s2v": "3",
        "guidance.steps.v2v": "3", "guidance.steps.rv2v": "3",
    }
    cfg = Config(dict(overrides))
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path, overrides)

    data_dir = tmp_path / "data"
    assert cli.main(["gen-data", "--config", str(cfg_path), "--stage", "I", "--out", str(data_dir)]) == 0
    assert cli.main(["gen-data", "--config", str(cfg_path), "--stage", "eval", "--out", str(data_dir)]) == 0

    # split-resume over 100 steps equals uninterrupted training bit-exactly
    run = RunConfig.from_config(cfg)
    stage = StageConfig.from_config(cfg, "I")
    data = Dataset(data_dir / "stage_I")
    straight = ModelBundle(cfg)
    _, final_a = run_stage(straight, stage, data, run, seed=13,
                           checkpoint_dir=tmp_path / "ck", checkpoint_every=50)
    mid = Checkpoint.load(tmp_path / "ck" / "stage_I_step000050.ckpt")
    resumed = ModelBundle(cfg)
    _, final_b = run_stage(resumed, stage, data, run, seed=13, resume=mid)
    for name in final_a.params:
        assert np.array_equal(final_a.params[name], final_b.params[name]), name
    for name in final_a.ema:
        assert np.array_equal(final_a.ema[name], final_b.ema[name]), name
    assert final_a.rng_states == final_b.rng_states
    final_a.save(tmp_path / "trained.ckpt")

    # end-to-end edit replay is byte-identical under a fixed seed
    case = str(data_dir / "eval" / "cases" / "case_00000.json")
    blobs = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        rc = cli.main(["edit", "--case", case, "--seed", "7", "--ckpt", str(tmp_path / "trained.ckpt"),
                       "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        blobs.append((out / "frames.pft").read_bytes() + (out / "report.txt").read_bytes())
    assert blobs[0] == blobs[1]
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"runtime {elapsed:.2f}s"
    _report(6, f"split-resume bit-exact over 100 steps; edit replay byte-identical ({elapsed:.1f}s)")


# -------------------------------------------------------------------------
# 8. planner schedule conformance (fast; runs before the slow criterion 7)
# -------------------------------------------------------------------------

def test_criterion_8_schedule_conformance():
    t0 = time.monotonic()
    for total in range(1, 51):
        ratios = [inference_mask_ratio(k, total) for k in range(total)]
        for m in range(1, 65):
            trace = masked_count_trace(total, m)
            expected = [int(math.floor(r * m + 0.5)) for r in ratios]
            assert trace == expected
            assert all(a >= b for a, b in zip(trace, trace[1:]))
            assert trace[-1] == 0
    # the configured default horizon, and live conformance through plan()
    cfg = Config()
    total_steps = cfg.get_int("infer.plan_steps")
    assert masked_count_trace(total_steps, 64)[-1] == 0
    from planflow.planner import EmbeddingDecoder, PlannerConfig, PlannerModel

    pcfg = PlannerConfig(hidden_dim=16, blocks=1, heads=2, embed_dim=8,
                         segment_phases=cfg.get_bool("planner.segment_phases"), decoder_dim=16, decoder_blocks=1)
    model, decoder = PlannerModel(pcfg, Rng(88)), EmbeddingDecoder(pcfg, Rng(89))
    seq = serialize(2, [], (1, 2, 2))
    seq.text_ids = np.array([1, 2])
    seq.embeddings = np.zeros((len(seq), 8))
    seq.masked[2:] = True
    res = plan(model, decoder, seq, total_steps=total_steps, decoder_steps=1, g_text=cfg.get_float("infer.g_text"),
               g_image=cfg.get_float("infer.g_image"), rng=Rng(90))
    assert res.masked_counts == masked_count_trace(total_steps, 4)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s"
    _report(8, f"all (K, M) in 1..50 x 1..64 conform; {total_steps}-step default verified live ({elapsed:.1f}s)")


# -------------------------------------------------------------------------
# 7. toy end-to-end learning (slow)
# -------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_7_end_to_end_learning(tmp_path):
    t_start = time.monotonic()
    cfg = Config()
    run = RunConfig.from_config(cfg)
    grid = cfg.get_ints("data.grid")
    assert grid <= (8, 16, 16)
    for key in ("planner.blocks", "renderer.blocks"):
        assert cfg.get_int(key) <= 4

    data_dirs = {}
    fams = cfg.get_strs("data.train_families")
    for stage in ("I", "II", "III"):
        counts = dataset_counts(cfg, stage)
        assert sum(counts.values()) >= 2000, f"stage {stage} dataset too small: {counts}"
        path = tmp_path / f"stage_{stage}"
        generate_dataset(path, seed=100 + ord(stage[-1]), counts=counts, grid=grid, v2v_families=fams)
        data_dirs[stage] = Dataset(path)
    eval_path = tmp_path / "eval"
    generate_dataset(eval_path, seed=990_001,
                     counts={"v2v": cfg.get_int("data.eval_cases")}, grid=grid,
                     v2v_families=cfg.get_strs("data.eval_families"))
    eval_data = Dataset(eval_path)

    untrained = ModelBundle(cfg)
    baseline = evaluate(untrained, eval_data, run, seed=77, ema=None)
    chance = evaluate(untrained, eval_data, run, seed=78, random_baseline=True)

    bundle = ModelBundle(cfg)
    _, ck1 = run_stage(bundle, StageConfig.from_config(cfg, "I"), data_dirs["I"], run, seed=41, log_every=1000)
    _, ck2 = run_stage(bundle, StageConfig.from_config(cfg, "II"), data_dirs["II"], run, seed=42, resume=ck1, log_every=2000)
    _, ck3 = run_stage(bundle, StageConfig.from_config(cfg, "III"), data_dirs["III"], run, seed=43, resume=ck2, log_every=1000)

    report = evaluate(bundle, eval_data, run, seed=77, ema=ck3.ema)
    elapsed = time.monotonic() - t_start

    success = report.per_task_success["v2v"]
    untrained_success = baseline.per_task_success["v2v"]
    chance_success = chance.per_task_success["v2v"]
    families = " ".join(f"{k}={v:.3f}" for k, v in sorted(report.per_family_success.items()))
    print(f"\n[criterion 7] trained success={success:.3f} ({families}) untouched={report.untouched_exactness:.3f} "
          f"edited={report.edited_accuracy:.3f}; untrained={untrained_success:.3f} "
          f"random-output={chance_success:.3f}; runtime {elapsed/60:.1f} min")

    assert success >= 0.80, f"oracle edit success {success:.3f} < 0.80 (per family: {families})"
    assert report.untouched_exactness >= 0.90, f"untouched exactness {report.untouched_exactness:.3f} < 0.90"
    assert untrained_success <= chance_success + 0.05, (
        f"untrained baseline {untrained_success:.3f} is above chance {chance_success:.3f}"
    )
    assert elapsed < 45 * 60, f"runtime {elapsed/60:.1f} min exceeds the 45-minute budget"
    _report(7, f"success {success:.3f}, untouched {report.untouched_exactness:.3f}, "
               f"baseline at chance ({elapsed/60:.1f} min)")
