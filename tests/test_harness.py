import ast
import dataclasses
import inspect
import hashlib
import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from planflow.checkpoint import Checkpoint, CheckpointError
from planflow.config import DEFAULTS, KEYS, Config, ConfigError, load_config, parse_config_text
from planflow import harness, planner as planner_mod, posenc, schedules, toydata
from planflow.harness import (
    GUIDANCE_KEY,
    MEANING_KEYS,
    Adam,
    EvalReport,
    ModelBundle,
    NonFiniteError,
    RunConfig,
    StageConfig,
    StartupError,
    TrainState,
    _effective_mixture,
    _sample_mixture,
    check_config_snapshot,
    dataset_counts,
    edit_case,
    ema_update,
    ema_weights,
    evaluate,
    plan_case,
    planner_sequence,
    render_case,
    renderer_sources,
    run_stage,
    run_pipeline,
    state_to_checkpoint,
)
from planflow.numerics import Rng, Tensor
from planflow import renderer as renderer_mod
from planflow.planner import PlannerConfig
from planflow.renderer import CondInputs, RendererConfig, ToyVae, conditioning_rows
from planflow.schedules import TaskKind, pair_decay_weight
from planflow.sequence import apply_target_mask
from planflow.toydata import Dataset, gen_edit_case, generate_dataset
from planflow import tensorio
from util import read_tensor, write_config


TINY_OVERRIDES = {
    "data.grid": "2,6,6",
    "planner.hidden_dim": "16",
    "planner.blocks": "1",
    "planner.heads": "2",
    "planner.decoder_dim": "16",
    "planner.decoder_blocks": "1",
    "renderer.hidden_dim": "16",
    "renderer.blocks": "1",
    "renderer.heads": "2",
    "vit.embed_dim": "8",
    "stage.I.steps": "6",
    "stage.II.steps": "6",
    "stage.III.steps": "4",
    "stage.I.batch": "1",
    "stage.II.batch": "1",
    "stage.III.batch": "1",
    "infer.plan_steps": "3",
    "infer.decoder_steps": "2",
    "guidance.steps.t2v": "2",
    "guidance.steps.s2v": "2",
    "guidance.steps.v2v": "2",
    "guidance.steps.rv2v": "2",
}


def tiny_config() -> Config:
    return Config(dict(TINY_OVERRIDES))


# per key family, values that change what the weights compute but not their
# shapes at the tiny config
MEANING_CHANGES = {
    "heads": {"planner.heads": "4", "renderer.heads": "4"},
    "segment_phases": {"planner.segment_phases": "true", "renderer.segment_phases": "false"},
    "patch": {"renderer.patch": "2,1,2", "vit.patch": "2,1,2"},
    "vit.seed": {"vit.seed": "7102"},
}


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    counts = {"v2v": 8, "t2v": 4, "t2i": 4, "i2i": 4, "i2v": 4, "iv2v": 4, "text": 4, "pair": 4}
    generate_dataset(root, seed=5, counts=counts, grid=(2, 6, 6))
    return Dataset(root)


def stage_config(name: str, **changes) -> StageConfig:
    """The configured stage `name` with `changes` applied."""
    return dataclasses.replace(StageConfig.from_config(Config(), name), **changes)


class TestStageConfig:
    def test_mixture_normalized(self):
        cfg = stage_config("I", steps=10, mixture={"v2v": 2.0, "t2v": 2.0})
        assert cfg.mixture == {"v2v": 0.5, "t2v": 0.5}

    @pytest.mark.parametrize("stage, task", [("I", "pair"), ("II", "text")])
    def test_mixture_task_without_a_loss_refused(self, stage, task):
        """Stage I trains no renderer and stage II no planner, so neither
        samples the records only the other model learns from."""
        with pytest.raises(ConfigError, match=f"^stage.{stage}.mixture: .*{task} records"):
            Config({f"stage.{stage}.mixture": f"v2v:1.0,{task}:1.0"})

    def test_negative_mixture_rejected(self):
        with pytest.raises(ConfigError):
            Config({"stage.I.mixture": "v2v:-1.0"})


class TestOptimizersAndEma:
    def test_zero_learning_rate_is_fixed_point(self):
        p = {"w": Tensor(np.ones((2, 2)), requires_grad=True)}
        p["w"].grad = np.full((2, 2), 3.0)
        before = p["w"].data.copy()
        Adam(lr=0.0).step(p)
        assert np.array_equal(p["w"].data, before)

    def test_adam_moves_against_gradient(self):
        p = {"w": Tensor(np.zeros(3), requires_grad=True)}
        p["w"].grad = np.array([1.0, -1.0, 0.0])
        Adam(lr=0.1).step(p)
        assert p["w"].data[0] < 0 < p["w"].data[1] and p["w"].data[2] == 0

    def test_ema_geometric_recursion(self):
        # constant parameters: shadow error decays as decay**n
        p = {"w": Tensor(np.full(4, 2.0), requires_grad=True)}
        shadow = {"w": np.zeros(4)}
        decay = 0.9
        for n in range(1, 12):
            ema_update(shadow, p, decay)
            expected_gap = decay ** n * 2.0
            assert np.allclose(2.0 - shadow["w"], expected_gap, rtol=1e-12)

    def test_adam_matches_reference_bit_for_bit(self):
        b1, b2, eps = 0.9, 0.999, 1e-8
        rng = Rng(5)
        params = {"a": Tensor(rng.normal((3, 4)), requires_grad=True),
                  "b": Tensor(rng.normal((5,)), requires_grad=True)}
        ref = {k: p.data.copy() for k, p in params.items()}
        m = {k: np.zeros_like(v) for k, v in ref.items()}
        v = {k: np.zeros_like(x) for k, x in ref.items()}
        opt = Adam(lr=0.0)
        for t in range(1, 6):
            opt.lr = 0.01 * t
            for k, p in params.items():
                p.grad = None if (k, t) == ("b", 3) else rng.normal(p.data.shape)
            opt.step(params)
            b1c, b2c = 1.0 - b1 ** t, 1.0 - b2 ** t
            for k, p in params.items():
                if p.grad is None:
                    continue
                m[k] = b1 * m[k] + (1.0 - b1) * p.grad
                v[k] = b2 * v[k] + (1.0 - b2) * p.grad * p.grad
                ref[k] = ref[k] - opt.lr * (m[k] / b1c) / (np.sqrt(v[k] / b2c) + eps)
            for k, p in params.items():
                assert p.data.tobytes() == ref[k].tobytes()
                assert opt.m[k].tobytes() == m[k].tobytes() and opt.v[k].tobytes() == v[k].tobytes()

    def test_ema_matches_reference_bit_for_bit(self):
        decay, rng = 0.9995, Rng(6)
        params = {"w": Tensor(rng.normal((4, 3)), requires_grad=True)}
        shadow: dict[str, np.ndarray] = {}
        ref = None
        for _ in range(5):
            ema_update(shadow, params, decay)
            ref = params["w"].data.copy() if ref is None else decay * ref + (1.0 - decay) * params["w"].data
            assert shadow["w"].tobytes() == ref.tobytes()
            params["w"].data = params["w"].data + rng.normal((4, 3))

    def test_checkpoint_does_not_alias_live_state(self):
        cfg = tiny_config()
        bundle = ModelBundle(cfg)
        trainable = bundle.trainable("II")
        state = TrainState(0, Adam(lr=0.01), {}, {}, [])
        rng = Rng(8)

        def train_step():
            for p in trainable.values():
                p.grad = rng.normal(p.data.shape)
            state.opt.step(trainable)
            ema_update(state.ema, trainable, 0.9)

        train_step()
        train_step()
        ck = state_to_checkpoint(bundle, state, "II", RunConfig.from_config(cfg))
        groups = (ck.params, ck.ema, ck.opt_m, ck.opt_v)
        before = [{k: a.tobytes() for k, a in g.items()} for g in groups]
        train_step()
        for p in trainable.values():
            p.data += 1.0
        for k in state.ema:
            state.ema[k] += 1.0
            state.opt.m[k] += 1.0
            state.opt.v[k] += 1.0
        assert [{k: a.tobytes() for k, a in g.items()} for g in groups] == before

    def test_ema_swap_restores(self):
        cfg = tiny_config()
        bundle = ModelBundle(cfg)
        name = "planner.text_embed"
        orig = bundle.named_params()[name].data.copy()
        shadow = {name: np.zeros_like(orig)}
        with ema_weights(bundle, shadow):
            assert np.array_equal(bundle.named_params()[name].data, np.zeros_like(orig))
        assert np.array_equal(bundle.named_params()[name].data, orig)


class TestMixtureSampling:
    def test_frequencies_match_weights(self):
        weights = {"a": 0.5, "b": 0.3, "c": 0.2}
        rng = Rng(77)
        counts = {k: 0 for k in weights}
        n = 100_000
        for _ in range(n):
            counts[_sample_mixture(weights, rng)] += 1
        for k, w in weights.items():
            assert abs(counts[k] / n - w) < 0.01

    def test_pair_weight_decays_linearly(self):
        cfg = stage_config("II", steps=100, mixture={"v2v": 0.6, "t2v": 0.2, "pair": 0.2})
        for step in (0, 25, 50, 99, 100):
            mix = _effective_mixture(cfg, step)
            expected_pair = pair_decay_weight(step, 100, 0.2)
            assert mix.get("pair", 0.0) == pytest.approx(expected_pair)
            assert sum(mix.values()) == pytest.approx(1.0)
            # non-pair proportions stay 3:1
            assert mix["v2v"] / mix["t2v"] == pytest.approx(3.0)


class TestConfigSnapshot:
    def test_families_cover_the_compared_keys(self):
        assert {k for changes in MEANING_CHANGES.values() for k in changes} == set(MEANING_KEYS)

    @pytest.mark.parametrize("family", MEANING_CHANGES)
    def test_resume_refuses_weights_of_another_meaning(self, tiny_dataset, family):
        cfg = tiny_config()
        bundle = ModelBundle(cfg)
        shapes = {k: v.shape for k, v in bundle.param_values().items()}
        for key, value in MEANING_CHANGES[family].items():
            saved = Config({**TINY_OVERRIDES, key: value})
            params = ModelBundle(saved).param_values()
            assert {k: v.shape for k, v in params.items()} == shapes  # the shape check cannot catch it
            ck = Checkpoint(stage="I", step=6, stages_done=["I"], params=params, config_snapshot=saved.snapshot())
            with pytest.raises(ConfigError, match=f"^{re.escape(key)}: .*'{re.escape(value)}'"):
                run_stage(bundle, StageConfig.from_config(cfg, "II"), tiny_dataset, RunConfig.from_config(cfg), 0,
                          resume=ck)

    def test_same_meaning_accepted(self):
        """Saved values are read with their keys' getters, so another spelling
        of the same value is accepted; a saved value that does not parse is
        refused as the checkpoint's, not as this config's."""
        cfg = tiny_config()
        check_config_snapshot({}, cfg)  # unknown: a hand-made checkpoint
        check_config_snapshot(cfg.snapshot(), cfg)
        check_config_snapshot({"planner.rope_base": "1e4", "vit.patch": "1, 2, 2", "renderer.segment_phases": "yes",
                               "stage.I.lr": "0.5", "renderer.drop_text": "0.0", "old.key": "1"}, cfg)
        with pytest.raises(ConfigError, match="^the checkpoint's saved config: planner.heads: .*'two'$"):
            check_config_snapshot({**cfg.snapshot(), "planner.heads": "two"}, cfg)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = Rng(3)
        ck = Checkpoint(
            stage="I", step=7, stages_done=["I"],
            params={"a.w": rng.normal((3, 4)), "b.v": rng.normal((2,))},
            ema={"a.w": rng.normal((3, 4))},
            opt_m={"a.w": rng.normal((3, 4))},
            opt_v={"a.w": rng.uniform((3, 4))},
            opt_meta={"kind": "adam", "t": 7, "lr": 0.003},
            rng_states={"task": (123, 456)},
            config_snapshot={"run.seed": "0"},
        )
        path = tmp_path / "x.ckpt"
        ck.save(path)
        back = Checkpoint.load(path)
        assert back.stage == "I" and back.step == 7 and back.stages_done == ["I"]
        for group in ("params", "ema", "opt_m", "opt_v"):
            a, b = getattr(ck, group), getattr(back, group)
            assert set(a) == set(b)
            for k in a:
                assert np.array_equal(a[k], b[k]) and a[k].dtype == b[k].dtype
        assert back.rng_states == {"task": (123, 456)}
        assert back.opt_meta["t"] == 7

    def test_older_version_refused(self, tmp_path):
        """A version-1 file holds an ordinal-latent renderer without text positions."""
        path = tmp_path / "old.ckpt"
        Checkpoint(stage="I", step=1, stages_done=["I"], params={"a.w": np.zeros((2, 2))}).save(path)
        buf = bytearray(path.read_bytes())
        struct.pack_into("<I", buf, 4, 1)
        path.write_bytes(bytes(buf))
        with pytest.raises(CheckpointError, match="version 1"):
            Checkpoint.load(path)

    def _saved_bytes(self, tmp_path):
        rng = Rng(4)
        ck = Checkpoint(stage="I", step=2, stages_done=["I"], params={"a.w": rng.normal((2, 3))},
                        ema={"a.w": rng.normal((2, 3))}, rng_states={"task": (1, 2)})
        ck.save(tmp_path / "full.ckpt")
        return (tmp_path / "full.ckpt").read_bytes()

    def test_truncated_file_refused(self, tmp_path):
        buf = self._saved_bytes(tmp_path)
        (meta_len,) = struct.unpack_from("<Q", buf, 8)
        blocks = 16 + meta_len  # block count, then per block: name length, name, tensor
        (name_len,) = struct.unpack_from("<H", buf, blocks + 8)
        tensor = blocks + 10 + name_len
        boundaries = [0, 4, 8, 16, 12 + meta_len // 2, blocks, blocks + 8, blocks + 10,
                      tensor, tensor + 4, tensor + 6, tensor + 6 + 16, tensor + 6 + 16 + 8]
        path = tmp_path / "cut.ckpt"
        for cut in sorted({20, len(buf) - 10, len(buf) - 1, *boundaries}):
            path.write_bytes(buf[:cut])
            with pytest.raises(CheckpointError):
                Checkpoint.load(path)

    def test_garbled_file_refused(self, tmp_path):
        buf = self._saved_bytes(tmp_path)
        (meta_len,) = struct.unpack_from("<Q", buf, 8)
        path = tmp_path / "bad.ckpt"
        for garbled in (
            buf[:16] + b"}" * meta_len + buf[16 + meta_len :],                       # metadata not JSON
            buf[:8] + struct.pack("<Q", meta_len + 10**6) + buf[16:],                 # metadata past the end
            buf[:16 + meta_len] + struct.pack("<Q", 5) + buf[24 + meta_len :],        # too many blocks
            buf[:16 + meta_len + 10] + b"xxxxxx" + buf[16 + meta_len + 16 :],         # unknown block group
            buf + b"\0",                                                             # trailing bytes
        ):
            path.write_bytes(garbled)
            with pytest.raises(CheckpointError):
                Checkpoint.load(path)

    def test_tensorio_roundtrip(self, tmp_path):
        arr = Rng(9).normal((2, 3, 4))
        tensorio.write_tensor(tmp_path / "t.pft", arr)
        assert np.array_equal(read_tensor(tmp_path / "t.pft"), arr)

    def test_tensorio_bad_magic(self, tmp_path):
        (tmp_path / "bad.pft").write_bytes(b"nope" + b"\0" * 32)
        with pytest.raises(Exception):
            read_tensor(tmp_path / "bad.pft")


class TestModelBundle:
    def test_partial_parameter_set_refused(self):
        bundle = ModelBundle(tiny_config())
        values = bundle.param_values()
        del values["renderer.text_pos"]
        values["planner.block0.wq"] = values["planner.block0.wq"] + 1.0
        before = bundle.named_params()["planner.block0.wq"].data.copy()
        with pytest.raises(ConfigError, match="renderer.text_pos"):
            bundle.load_param_values(values)
        # nothing is loaded from a refused set
        assert np.array_equal(bundle.named_params()["planner.block0.wq"].data, before)

    def test_complete_parameter_set_loads(self):
        bundle = ModelBundle(tiny_config())
        values = {k: v + 1.0 for k, v in bundle.param_values().items()}
        bundle.load_param_values(values)
        assert all(np.array_equal(bundle.param_values()[k], v) for k, v in values.items())


class TestTraining:
    def test_stage_three_requires_prior_checkpoints(self, tiny_dataset):
        cfg = tiny_config()
        bundle = ModelBundle(cfg)
        run = RunConfig.from_config(cfg)
        stage3 = StageConfig.from_config(cfg, "III")
        with pytest.raises(StartupError):
            run_stage(bundle, stage3, tiny_dataset, run, seed=0, resume=None)

    def test_missing_mixture_task_detected(self, tmp_path):
        generate_dataset(tmp_path / "d", seed=1, counts={"v2v": 3}, grid=(2, 6, 6))
        data = Dataset(tmp_path / "d")
        cfg = tiny_config()
        bundle = ModelBundle(cfg)
        run = RunConfig.from_config(cfg)
        stage1 = StageConfig.from_config(cfg, "I")
        with pytest.raises(StartupError):
            run_stage(bundle, stage1, data, run, seed=0)

    def test_stage_one_trains_and_changes_params(self, tiny_dataset):
        cfg = tiny_config()
        bundle = ModelBundle(cfg)
        run = RunConfig.from_config(cfg)
        before = bundle.named_params()["planner.block0.wq"].data.copy()
        state, final = run_stage(bundle, StageConfig.from_config(cfg, "I"), tiny_dataset, run, seed=3)
        assert state.step == 6 and final.stages_done == ["I"]
        assert not np.array_equal(before, bundle.named_params()["planner.block0.wq"].data)
        # renderer untouched in stage I
        assert "renderer.patch_proj" not in final.opt_m

    def test_split_resume_is_bit_identical(self, tiny_dataset, tmp_path):
        cfg = tiny_config()
        run = RunConfig.from_config(cfg)
        stage = StageConfig.from_config(cfg, "I")

        straight = ModelBundle(cfg)
        _, final_a = run_stage(straight, stage, tiny_dataset, run, seed=11,
                               checkpoint_dir=tmp_path, checkpoint_every=3)
        mid = Checkpoint.load(tmp_path / "stage_I_step000003.ckpt")

        resumed = ModelBundle(cfg)
        _, final_b = run_stage(resumed, stage, tiny_dataset, run, seed=11, resume=mid)

        assert set(final_a.params) == set(final_b.params)
        for name in final_a.params:
            assert np.array_equal(final_a.params[name], final_b.params[name]), name
        for name in final_a.ema:
            assert np.array_equal(final_a.ema[name], final_b.ema[name]), name
        assert final_a.rng_states == final_b.rng_states

    def test_non_finite_loss_refused(self, tiny_dataset, tmp_path):
        cfg = tiny_config()
        bundle = ModelBundle(cfg)
        bundle.named_params()["planner.ln_f.g"].data[:] = np.nan
        run = RunConfig.from_config(cfg)
        with pytest.raises(NonFiniteError, match="step 1: loss is nan"):
            run_stage(bundle, StageConfig.from_config(cfg, "I"), tiny_dataset, run, seed=3,
                      checkpoint_dir=tmp_path, checkpoint_every=1)
        assert not list(tmp_path.iterdir())

    def test_non_finite_weights_not_checkpointed(self, tiny_dataset, tmp_path):
        """A finite loss whose update overflows the weights stops at the
        checkpoint, before the file is written."""
        cfg = tiny_config()
        bundle = ModelBundle(cfg)
        run = RunConfig.from_config(cfg)
        stage = StageConfig.from_config(cfg, "I")
        stage.lr, stage.steps = float("inf"), 1
        with pytest.raises(NonFiniteError, match="no checkpoint written"):
            run_stage(bundle, stage, tiny_dataset, run, seed=3, checkpoint_dir=tmp_path)
        assert not list(tmp_path.iterdir())

    def test_full_pipeline_smoke(self, tiny_dataset, tmp_path):
        cfg = tiny_config()
        run = RunConfig.from_config(cfg)
        bundle = ModelBundle(cfg)
        _, ck1 = run_stage(bundle, StageConfig.from_config(cfg, "I"), tiny_dataset, run, seed=4)
        _, ck2 = run_stage(bundle, StageConfig.from_config(cfg, "II"), tiny_dataset, run, seed=4, resume=ck1)
        assert set(ck2.stages_done) == {"I", "II"}
        _, ck3 = run_stage(bundle, StageConfig.from_config(cfg, "III"), tiny_dataset, run, seed=4, resume=ck2)
        assert set(ck3.stages_done) == {"I", "II", "III"}
        # stage III optimizes everything
        assert any(k.startswith("planner.") for k in ck3.opt_m)
        assert any(k.startswith("renderer.") for k in ck3.opt_m)

    def test_three_stage_chain_pinned(self, tiny_dataset, monkeypatch):
        """The exact params, EMA and Adam moments a fixed seed trains through
        stages I -> II -> III, with text and pair records among the draws."""
        cfg = tiny_config()
        for key, value in {
            "stage.I.mixture": "text:1,t2i:1,i2v:1,iv2v:1",
            "stage.II.mixture": "t2v:1,i2i:1,v2v:1,pair:2",
            "stage.III.mixture": "text:1,t2i:1,v2v:1,iv2v:1",
            "stage.I.batch": "2", "stage.II.batch": "2", "stage.III.batch": "2",
            "renderer.drop_text": "0.3", "renderer.drop_target": "0.3", "renderer.drop_source": "0.3",
        }.items():
            cfg.set(key, value)
        run = RunConfig.from_config(cfg)
        bundle = ModelBundle(cfg)
        drawn = set()
        sample = harness._sample_mixture

        def recording(weights, rng):
            name = sample(weights, rng)
            drawn.add(name)
            return name

        monkeypatch.setattr(harness, "_sample_mixture", recording)
        ck = None
        for stage in ("I", "II", "III"):
            _, ck = run_stage(bundle, StageConfig.from_config(cfg, stage), tiny_dataset, run, seed=8, resume=ck)
        assert {"text", "pair"} <= drawn

        def digest(arrays):
            h = hashlib.sha256()
            for name in sorted(arrays):
                h.update(name.encode())
                h.update(arrays[name].tobytes())
            return h.hexdigest()

        assert {"params": digest(ck.params), "ema": digest(ck.ema),
                "adam.m": digest(ck.opt_m), "adam.v": digest(ck.opt_v)} == {
            "params": "7b963a413d4617dd87f0d3529fd8e4316ab169c8412a0debf2a24a888858f7b7",
            "ema": "f99ea5b784b6e1e501c1d90b327f264b0341f461889f1a6092a23d5acb85b08c",
            "adam.m": "3c061c0d8abfba3c3037fbcb99cacc09ce3e8637ab1b1952aea8118e9fea4091",
            "adam.v": "1edba2aa49ae3eb3a821c9127daeade24c8f95cab4415646df4f9df06e895a7a",
        }


class TestConditioningRows:
    @pytest.mark.parametrize("task", list(TaskKind), ids=[t.value for t in TaskKind])
    def test_training_and_inference_select_the_same_rows(self, task, monkeypatch):
        """Training keeps every row but the masked target rows; a finished
        plan has none masked, so inference keeps every row."""
        cfg = tiny_config()
        bundle = ModelBundle(cfg)
        case = gen_edit_case(Rng(17), task, grid=(2, 6, 6))
        seq, _ = planner_sequence(case, bundle.vit)
        masked = apply_target_mask(seq, 0.5, Rng(18))
        k = int(masked.masked.sum())
        assert k > 0
        rows = conditioning_rows(masked)
        assert len(rows) == len(seq) - k and not masked.masked[rows].any()

        chosen = []

        def recording(final_seq):
            chosen.append(conditioning_rows(final_seq))
            return chosen[-1]

        monkeypatch.setattr(planner_mod, "conditioning_rows", recording)
        result = plan_case(bundle, RunConfig.from_config(cfg), case, Rng(19))
        assert len(chosen) == 1 and np.array_equal(chosen[0], np.arange(len(seq)))
        assert len(result.hidden) == len(seq)


class TestEvaluation:
    def test_pipeline_produces_valid_frames(self, tiny_dataset):
        cfg = tiny_config()
        bundle = ModelBundle(cfg)
        run = RunConfig.from_config(cfg)
        case = gen_edit_case(Rng(31), TaskKind.V2V, grid=(2, 6, 6))
        ids, planned = run_pipeline(bundle, run, case, Rng(32))
        assert ids.shape == case.target.grid
        assert ids.min() >= 0 and ids.max() <= 5
        assert planned.embeddings.shape == (case.target.grid[0] * 9, 8)

    @pytest.mark.parametrize("task", list(TaskKind))
    def test_vit_decode_inverts_ground_truth(self, task):
        vit = ModelBundle(Config()).vit
        case = gen_edit_case(Rng(51), task, grid=(2, 8, 8))
        _, target = planner_sequence(case, vit)
        ids = toydata.frames_to_ids(vit.decode(target, case.target.grid))
        assert np.array_equal(ids, case.target.rasterize())

    def test_report_scores_the_plan_alone(self, tiny_dataset, monkeypatch):
        cfg = tiny_config()
        bundle = ModelBundle(cfg)
        run = RunConfig.from_config(cfg)
        rep = evaluate(bundle, tiny_dataset, run, seed=5, max_cases=6)
        assert set(rep.plan_only_by_family) == set(rep.per_family_success)
        for family, scores in rep.plan_only_by_family.items():
            assert len(scores) == 3 and all(0.0 <= x <= 1.0 for x in scores)
            for name, value in zip(("success", "edited_accuracy", "untouched"), scores):
                assert f"plan_only.{name}.family.{family} {value:.4f}" in rep.to_text()
        # the plan-only decode draws no RNG and moves no other field
        monkeypatch.setattr(planner_mod.ToyVit, "decode", lambda self, emb, grid: np.zeros(grid))
        blind = evaluate(bundle, tiny_dataset, run, seed=5, max_cases=6)
        assert dataclasses.replace(blind, plan_only_by_family={}) == dataclasses.replace(rep, plan_only_by_family={})
        assert evaluate(bundle, tiny_dataset, run, seed=6, random_baseline=True, max_cases=2).plan_only_by_family == {}

    def test_report_deterministic(self, tiny_dataset):
        cfg = tiny_config()
        bundle = ModelBundle(cfg)
        run = RunConfig.from_config(cfg)
        a = evaluate(bundle, tiny_dataset, run, seed=5, max_cases=3)
        b = evaluate(bundle, tiny_dataset, run, seed=5, max_cases=3)
        assert a == b  # runtime field is excluded from comparison

    def test_report_times_plan_and_render(self, tiny_dataset):
        cfg = tiny_config()
        bundle = ModelBundle(cfg)
        run = RunConfig.from_config(cfg)
        a = evaluate(bundle, tiny_dataset, run, seed=5, max_cases=3)
        b = evaluate(bundle, tiny_dataset, run, seed=5, max_cases=3)
        for rep in (a, b):
            assert rep.plan_seconds > 0 and rep.render_seconds > 0
            assert rep.plan_seconds + rep.render_seconds <= rep.runtime_seconds
        assert a == b  # the phase times are excluded from comparison, like the runtime

    def test_random_baseline_reported_on_same_oracles(self, tiny_dataset):
        cfg = tiny_config()
        bundle = ModelBundle(cfg)
        run = RunConfig.from_config(cfg)
        rep = evaluate(bundle, tiny_dataset, run, seed=6, random_baseline=True, max_cases=6)
        assert set(rep.per_task_count) and sum(rep.per_task_count.values()) == 6
        assert 0.0 <= rep.untouched_exactness <= 1.0

    def test_report_text_format(self):
        rep = EvalReport({"v2v": 0.5}, {"v2v": 10}, 0.4, 0.9, True, 12.0)
        text = rep.to_text()
        assert "success.v2v 0.5000" in text
        assert "untouched_exactness 0.9000" in text
        assert "12.0" not in text  # runtime never lands in the deterministic report
        assert "success.family" not in text

    def test_report_per_family_success(self, tiny_dataset):
        cfg = tiny_config()
        run = RunConfig.from_config(cfg)
        rep = evaluate(ModelBundle(cfg), tiny_dataset, run, seed=6, random_baseline=True, max_cases=6)
        families = {r["family"] for r in tiny_dataset.records if r["kind"] == "case"}
        assert set(rep.per_family_success) <= families and rep.per_family_success
        assert all(0.0 <= v <= 1.0 for v in rep.per_family_success.values())
        for family, value in rep.per_family_success.items():
            assert f"success.family.{family} {value:.4f}" in rep.to_text()

    def test_edit_case_deterministic(self, tiny_dataset):
        cfg = tiny_config()
        bundle = ModelBundle(cfg)
        run = RunConfig.from_config(cfg)
        case = gen_edit_case(Rng(41), TaskKind.V2V, grid=(2, 6, 6))
        ids1, rep1 = edit_case(bundle, run, case, seed=7)
        ids2, rep2 = edit_case(bundle, run, case, seed=7)
        assert np.array_equal(ids1, ids2) and rep1 == rep2
        ids3, _ = edit_case(bundle, run, case, seed=8)
        assert not np.array_equal(ids1, ids3)

    def test_edit_case_pinned(self):
        """The exact frames and report edit_case gives one case of each task
        at a fixed seed on the initial weights of the tiny config."""
        cfg = tiny_config()
        bundle, run = ModelBundle(cfg), RunConfig.from_config(cfg)
        digests = {}
        for task in TaskKind:
            ids, report = edit_case(bundle, run, gen_edit_case(Rng(41), task, grid=(2, 6, 6)), seed=7)
            h = hashlib.sha256(f"{ids.dtype}{ids.shape}".encode())
            h.update(ids.tobytes())
            h.update(json.dumps(report, sort_keys=True).encode())
            digests[task.value] = h.hexdigest()
        assert digests == {
            "t2i": "811bc6264421f5b13d2b324d2ed1d2d0560c607449d7fac41d5167cd34267e0d",
            "t2v": "fdb8c5739010b41a40ea52c3ca40b445570ec0659122eb9007fbb994251f5ba4",
            "i2i": "6daa8778f7479f89a221ae11fd234adb5b5b9d40c5cac4daf725e7dd2a9b11bc",
            "i2v": "9870d597ea839c59a4417cb61b922cceffe886c6f4257b0f09f3338430f8fb9d",
            "v2v": "4915d38d7a9289084128c50b7d2d8a37555ca08d79ac6632590a792ffe1eaabc",
            "iv2v": "46fb88bee570e6eaa5faa72b9463ace95eca840b309f6f1489d9cc8248e0e600",
        }

    def test_edit_case_does_not_decode_the_plan(self, monkeypatch):
        cfg = tiny_config()
        bundle = ModelBundle(cfg)
        case = gen_edit_case(Rng(41), TaskKind.V2V, grid=(2, 6, 6))

        def refuse(*args):
            raise AssertionError("edit_case decoded the plan")

        monkeypatch.setattr(planner_mod.ToyVit, "decode", refuse)
        edit_case(bundle, RunConfig.from_config(cfg), case, seed=7)


class TestConfigFile:
    def test_defaults_parse(self):
        cfg = Config()
        assert cfg.get_weighted("guidance.v2v") == {"txt": 4.0, "vid": 1.25, "img": 1.25, "tgt": 0.5}
        assert cfg.get_int("guidance.steps.t2v") == 15
        assert cfg.get_int("infer.plan_steps") == 8
        assert cfg.get_int("infer.decoder_steps") == 5
        assert cfg.get_float("infer.g_text") == 1.2
        assert cfg.get_float("infer.g_image") == 1.0
        assert cfg.get_float("infer.flow_shift") == 5.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            Config({"run.sneed": "1"})

    def test_every_key_has_a_reader(self):
        """Every config key is named by a string literal in a program module
        other than config.py. A field of an f-string stands for one dotted
        segment (`f"stage.{name}.lr"`); an f-string with no literal name text
        names no key."""
        patterns = []
        for path in Path(harness.__file__).parent.glob("*.py"):
            if path.name == "config.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    patterns.append(re.escape(node.value))
                elif isinstance(node, ast.JoinedStr):
                    parts = [re.escape(v.value) if isinstance(v, ast.Constant) else "[^.]+" for v in node.values]
                    if any(isinstance(v, ast.Constant) and v.value.strip(".") for v in node.values):
                        patterns.append("".join(parts))
        unread = [key for key in DEFAULTS if not any(re.fullmatch(p, key) for p in patterns)]
        assert unread == []

    def test_constant_settings_are_not_keys(self):
        """Values that no run varies are constants of the code: a config
        that sets one is refused."""
        keys = ["planner.reveal", "planner.time_features", "renderer.time_features", "planner.rope_base",
                "renderer.rope_base", "planner.segment_base", "renderer.segment_base", "renderer.channels",
                *(f"schedules.{name}.{task.value}" for name in ("mask_ratio", "timestep") for task in TaskKind),
                "eval.edit_threshold", "eval.keep_threshold",
                *(f"stage.{stage}.{name}" for stage in ("I", "II", "III")
                  for name in ("lr_final", "lambda_text", "lambda_visual", "lambda_dit"))]
        for key in keys:
            with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
                Config({key: "1"})

    def test_config_backed_settings_have_no_default(self):
        """Settings that the config supplies take no default of their own, so
        no second value can drift from the config's."""
        fields = {
            PlannerConfig: ("hidden_dim", "blocks", "heads", "embed_dim", "segment_phases", "decoder_dim",
                            "decoder_blocks"),
            RendererConfig: ("hidden_dim", "blocks", "heads", "patch", "segment_phases", "planner_dim"),
            StageConfig: ("steps", "lr", "ema_decay", "batch_size", "mixture"),
        }
        for cls, names in fields.items():
            defaulted = {f.name for f in dataclasses.fields(cls)
                         if f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING}
            assert defaulted.isdisjoint(names), (cls.__name__, defaulted & set(names))
        params = {
            planner_mod.plan: ("total_steps", "decoder_steps", "g_text", "g_image"),
            planner_mod.ToyVit: ("patch", "embed_dim", "seed"),
            toydata.gen_edit_case: ("grid",),
            toydata.generate_dataset: ("grid",),
        }
        for fn, names in params.items():
            signature = inspect.signature(fn)
            defaulted = [n for n in names if signature.parameters[n].default is not inspect.Parameter.empty]
            assert defaulted == [], (fn.__name__, defaulted)

    def test_fixed_numbers_are_not_parameters(self):
        """Numbers with one value in use are named constants, not parameters
        or fields that a caller could set to a second value."""
        fields = {RendererConfig: ("channels",), posenc.RopeConfig: ("base", "segment_base")}
        for cls, names in fields.items():
            present = {f.name for f in dataclasses.fields(cls)} & set(names)
            assert present == set(), (cls.__name__, present)
        params = {
            ToyVae: ("channels",),
            toydata.mine_pairs: ("band", "per_origin_cap"),
            toydata.gen_pair_pool: ("n_base", "variants"),
            toydata._sample_object: ("retries",),
            toydata._gen_edit: ("retries",),
            toydata._gen_reference_replace: ("retries",),
            schedules.sample_timestep: ("shape",),
            harness.Adam: ("beta1", "beta2", "eps"),
        }
        for fn, names in params.items():
            present = set(inspect.signature(fn).parameters) & set(names)
            assert present == set(), (fn.__name__, present)

    @pytest.mark.parametrize("overrides, message", [
        ({"renderer.heads": "5"}, "not divisible"),
        ({"planner.hidden_dim": "12", "planner.heads": "4"}, "must be even"),
        ({"renderer.blocks": "0"}, "positive"),
        ({"vit.patch": "1,0,2"}, "positive"),
        ({"renderer.hidden_dim": "48", "renderer.heads": "16"}, "even"),
        ({"planner.heads": "two"}, "integers"),
        ({"data.grid": "0,8,8"}, "positive"),
        *(pytest.param({key: value}, f"^{re.escape(key)}: {re.escape(rule)}, got '{value}'$", id=f"{key} = {value}")
          for key, value, rule in (("stage.I.ema", "1.5", "must be in [0, 1)"),
                                   ("stage.II.ema", "-0.1", "must be in [0, 1)"),
                                   ("stage.I.lr", "-0.003", "must be positive"),
                                   ("stage.III.lr", "0", "must be positive"),
                                   ("renderer.drop_text", "1.7", "must be in [0, 1]"),
                                   ("renderer.drop_source", "-0.2", "must be in [0, 1]"))),
        *(pytest.param({key: value}, f"^{re.escape(key)}: ", id=f"{key} = {value}")
          for key, value in (("stage.II.steps", "0"), ("stage.II.steps", "-5"), ("data.eval_cases", "0"),
                             ("data.cases_per_stage", "-3"), ("data.eval_families", ""),
                             ("stage.I.mixture", "v2v:-1"), ("stage.I.mixture", ""))),
    ])
    def test_inconsistent_model_sizes_refused(self, overrides, message):
        with pytest.raises(ConfigError, match=message):
            Config(overrides)
        cfg = Config()
        with pytest.raises(ConfigError, match=message):
            for key, value in overrides.items():
                cfg.set(key, value)

    @pytest.mark.parametrize("key, value, getter, bad", [
        ("train.checkpoint_every", "abc", "get_int", "'abc'"),
        ("infer.g_text", "1.2x", "get_float", "'1.2x'"),
        ("data.grid", "2,x,8", "get_ints", "'2,x,8'"),
        ("guidance.v2v", "txt:4.0,vid:lots", "get_weighted", "'vid:lots'"),
    ])
    def test_malformed_value_names_key_and_value(self, key, value, getter, bad):
        """The key's getter, the one its row names, refuses the value at load."""
        assert KEYS[key].read is getattr(Config, getter)
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: .*{re.escape(bad)}"):
            Config({key: value})

    @pytest.mark.parametrize("key, value, name", [
        ("guidance.v2v", "txt:4.0,vdi:1.25", "vdi"),
        ("guidance.t2v", "foo:1.0", "foo"),
    ])
    def test_unknown_guidance_branch_refused_at_load(self, key, value, name):
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: .*'{name}'"):
            Config({key: value})

    def test_mixtures_take_task_names(self):
        cfg = Config({"stage.I.mixture": "text:0.5,v2v:0.25,iv2v:0.25"})
        assert cfg.get_weighted("stage.I.mixture") == {"text": 0.5, "v2v": 0.25, "iv2v": 0.25}

    def test_set_validates(self):
        cfg = Config()
        with pytest.raises(ConfigError, match="renderer.heads"):
            cfg.set("renderer.heads", 5)

    def test_parse_text(self):
        parsed = parse_config_text("# comment\nrun.seed = 42  # trailing\n\nstage.I.steps = 3\n")
        assert parsed == {"run.seed": "42", "stage.I.steps": "3"}

    def test_write_then_load_roundtrip(self, tmp_path):
        path = tmp_path / "run.cfg"
        cfg = tiny_config()
        write_config(path, cfg.values)
        again = load_config(path)
        assert again.snapshot() == cfg.snapshot()

    def test_dataset_counts_cover_mixture(self):
        cfg = Config()
        counts = dataset_counts(cfg, "II")
        mixture = cfg.get_weighted("stage.II.mixture")
        assert set(counts) == set(mixture)
        assert all(v >= 40 for v in counts.values())

    def test_guidance_key_covers_tasks(self):
        assert set(GUIDANCE_KEY) == set(TaskKind)

    @staticmethod
    def _supplied_branches(task):
        """The guidance branches render_case's conditions hold for a case of
        `task` rendered with planner states."""
        case = gen_edit_case(Rng(3), task, Config().get_ints("data.grid"))
        latents, roles = renderer_sources(case, ToyVae())
        return CondInputs(np.asarray(case.instruction), np.zeros((1, 1)), latents, roles).branches()

    def test_default_guidance_rows_name_supplied_branches(self):
        """A row weights only branches that one of the tasks it serves has."""
        run = RunConfig.from_config(Config())
        supplied = {key: set() for key in run.guidance_scales}
        for task, key in GUIDANCE_KEY.items():
            supplied[key] |= set(self._supplied_branches(task))
        for key, scales in run.guidance_scales.items():
            assert set(scales) <= supplied[key], key

    def test_default_render_chains_are_full(self, monkeypatch):
        """No default table starts with a unit weight, so every task's render
        composes its full chain, from the unconditional subset on."""
        cfg = Config()
        bundle, run = ModelBundle(cfg), RunConfig.from_config(cfg)
        specs = []

        class FirstStep(Exception):
            pass

        def record(spec, forwards):
            specs.append(spec)
            raise FirstStep

        monkeypatch.setattr(renderer_mod, "compose", record)
        for task in TaskKind:
            case = gen_edit_case(Rng(3), task, cfg.get_ints("data.grid"))
            with pytest.raises(FirstStep):
                render_case(bundle, run, case, np.zeros((4, cfg.get_int("planner.hidden_dim"))), Rng(0))
            spec = specs[-1]
            assert spec.present == self._supplied_branches(task)
            assert spec.subset_chain() == [frozenset(spec.present[:i]) for i in range(len(spec.present) + 1)], task
