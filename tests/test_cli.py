import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from planflow import cli
from planflow.checkpoint import Checkpoint
from planflow.config import write_config, Config

from test_harness import MEANING_CHANGES, TINY_OVERRIDES
from util import read_tensor


SMOKE_OVERRIDES = dict(TINY_OVERRIDES)
SMOKE_OVERRIDES.update({
    "data.cases_per_stage": "60",
    "data.eval_cases": "4",
    "stage.I.steps": "4",
})


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliws")
    cfg_path = root / "tiny.cfg"
    write_config(cfg_path, Config(dict(SMOKE_OVERRIDES)))
    return root


@pytest.fixture(scope="module")
def generated(workdir):
    data_dir = workdir / "data"
    rc = cli.main(["gen-data", "--config", str(workdir / "tiny.cfg"), "--stage", "I",
                   "--out", str(data_dir), "--seed", "0"])
    assert rc == 0
    rc = cli.main(["gen-data", "--config", str(workdir / "tiny.cfg"), "--stage", "eval",
                   "--out", str(data_dir), "--seed", "0"])
    assert rc == 0
    return data_dir


@pytest.fixture(scope="module")
def trained_ckpt(workdir, generated):
    out = workdir / "runs"
    rc = cli.main(["train", "--stage", "I", "--data", str(generated / "stage_I"),
                   "--config", str(workdir / "tiny.cfg"), "--out", str(out),
                   "--seed", "0", "--log-every", "0"])
    assert rc == 0
    ckpt = out / "stage_I_final.ckpt"
    assert ckpt.exists()
    return ckpt


class TestUsage:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["transmogrify"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "--frobnicate"])
        assert exc.value.code == 2

    def test_cli_import_loads_no_scipy(self):
        """scipy is a test dependency only: the program runs on numpy."""
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = "import sys, planflow.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_check_green_path(self, capsys):
        assert cli.main(["check"]) == 0
        out = capsys.readouterr().out
        assert "invariants hold" in out


class TestGenData:
    def test_dataset_layout(self, generated):
        manifest = json.loads((generated / "stage_I" / "manifest.json").read_text())
        assert manifest["total"] == sum(manifest["counts"].values())
        assert (generated / "stage_I" / "records.jsonl").exists()
        assert (generated / "eval" / "cases" / "case_00000.json").exists()


class TestTrainErrors:
    def test_stage_three_without_prereqs_exits_1(self, workdir, generated):
        rc = cli.main(["train", "--stage", "III", "--data", str(generated / "stage_I"),
                       "--config", str(workdir / "tiny.cfg"), "--out", str(workdir / "x"),
                       "--seed", "0"])
        assert rc == 1

    def test_resume_with_foreign_optimizer_state_exits_1(self, workdir, generated, trained_ckpt, capsys):
        ck = Checkpoint.load(trained_ckpt)
        ck.stages_done = []  # a mid-stage checkpoint, so its optimizer state is resumed
        ck.opt_meta = {**ck.opt_meta, "kind": "sgd"}
        ck.save(workdir / "sgd.ckpt")
        rc = cli.main(["train", "--stage", "I", "--data", str(generated / "stage_I"),
                       "--config", str(workdir / "tiny.cfg"), "--out", str(workdir / "sgd_out"),
                       "--resume", str(workdir / "sgd.ckpt"), "--log-every", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "'sgd'" in err

    def test_non_numeric_config_value_exits_1(self, workdir, generated, capsys):
        bad = workdir / "bad_steps.cfg"
        bad.write_text("infer.plan_steps = abc\n")
        rc = cli.main(["eval", "--data", str(generated / "eval"), "--config", str(bad),
                       "--out", str(workdir / "bad_steps"), "--max-cases", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "infer.plan_steps" in err and "'abc'" in err

    def test_check_refuses_unknown_timestep_weighting(self, workdir, capsys):
        bad = workdir / "check_bad_timestep.cfg"
        bad.write_text("schedules.timestep.t2i = bogus,0.5,1.0,3.0\n")
        assert cli.main(["check", "--config", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "invariants hold" not in captured.out
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1 and "bogus" in captured.err


    @pytest.mark.parametrize("line", ["data.grid = 2,8", "renderer.patch = 1,2"])
    def test_check_refuses_grid_without_three_values(self, workdir, capsys, line):
        bad = workdir / "check_bad_triple.cfg"
        bad.write_text(line + "\n")
        assert cli.main(["check", "--config", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "invariants hold" not in captured.out
        key = line.split(" ")[0]
        assert captured.err.startswith(f"error: {key}:") and captured.err.count("\n") == 1
        assert "three values" in captured.err

    @pytest.mark.parametrize("line", ["infer.g_text = nan", "infer.g_image = inf",
                                      "guidance.v2v = txt:4.0,vid:nan,img:1.25,tgt:0.5",
                                      "guidance.rv2v = txt:-inf,vid:1.25,img:3.0,tgt:1.5"])
    def test_check_refuses_non_finite_guidance_weight(self, workdir, capsys, line):
        bad = workdir / "check_non_finite.cfg"
        bad.write_text(line + "\n")
        assert cli.main(["check", "--config", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "invariants hold" not in captured.out
        key = line.split(" ")[0]
        assert captured.err.startswith(f"error: {key}:") and captured.err.count("\n") == 1
        assert "finite" in captured.err

    @pytest.mark.parametrize("line", ["stage.I.lr = inf", "stage.II.lr_final = nan", "stage.III.ema = -inf",
                                      "stage.I.lambda_visual = nan", "stage.II.mixture = t2i:0.5,v2v:inf"])
    def test_check_refuses_non_finite_stage_setting(self, workdir, capsys, line):
        bad = workdir / "check_non_finite_stage.cfg"
        bad.write_text(line + "\n")
        assert cli.main(["check", "--config", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "invariants hold" not in captured.out
        key = line.split(" ")[0]
        assert captured.err.startswith(f"error: {key}:") and captured.err.count("\n") == 1
        assert "finite" in captured.err

    def test_check_refuses_non_positive_grid(self, workdir, capsys):
        bad = workdir / "check_bad_grid.cfg"
        bad.write_text("data.grid = 0,8,8\n")
        assert cli.main(["check", "--config", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "invariants hold" not in captured.out
        assert captured.err.startswith("error: data.grid:") and captured.err.count("\n") == 1
        assert "positive" in captured.err and "'0,8,8'" in captured.err

    @pytest.mark.parametrize("key", ["stage.I.batch", "stage.II.batch", "stage.III.batch",
                                     "infer.plan_steps", "infer.decoder_steps", "guidance.steps.t2v",
                                     "guidance.steps.s2v", "guidance.steps.v2v", "guidance.steps.rv2v"])
    def test_zero_count_exits_1(self, workdir, generated, trained_ckpt, capsys, key):
        """A zero batch size or step count is refused, naming its key, by
        `check` and by the command that reads it: `train` for a batch size,
        `edit` otherwise."""
        bad = workdir / "zero_count.cfg"
        bad.write_text(f"{key} = 0\n")
        stage = key.split(".")[1]
        crashed = (["train", "--stage", stage, "--data", str(generated / "stage_I"), "--log-every", "0"]
                   if key.endswith(".batch") else
                   ["edit", "--case", str(generated / "eval" / "cases" / "case_00000.json"),
                    "--ckpt", str(trained_ckpt)])
        for argv in (["check"], crashed):
            assert cli.main([*argv, "--config", str(bad), "--out", str(workdir / "zero_count")]) == 1
            captured = capsys.readouterr()
            assert "invariants hold" not in captured.out
            assert captured.err.startswith(f"error: {key}:") and captured.err.count("\n") == 1
            assert "positive" in captured.err


class TestEditDeterminism:
    def test_edit_twice_byte_identical(self, workdir, generated, trained_ckpt):
        case = str(generated / "eval" / "cases" / "case_00000.json")
        outs = []
        for name in ("e1", "e2"):
            out = workdir / name
            rc = cli.main(["edit", "--task", "v2v", "--case", case, "--seed", "7",
                           "--ckpt", str(trained_ckpt), "--config", str(workdir / "tiny.cfg"),
                           "--out", str(out)])
            assert rc == 0
            outs.append((out / "frames.pft").read_bytes() + (out / "report.txt").read_bytes())
        assert outs[0] == outs[1]

    def test_edit_task_mismatch(self, workdir, generated, trained_ckpt):
        case = str(generated / "eval" / "cases" / "case_00000.json")
        rc = cli.main(["edit", "--task", "t2i", "--case", case, "--seed", "7",
                       "--ckpt", str(trained_ckpt), "--config", str(workdir / "tiny.cfg"),
                       "--out", str(workdir / "em")])
        assert rc == 1

    def test_older_checkpoint_version_exits_1(self, workdir, generated, trained_ckpt, capsys):
        old = workdir / "old.ckpt"
        buf = bytearray(trained_ckpt.read_bytes())
        buf[4:8] = (1).to_bytes(4, "little")
        old.write_bytes(bytes(buf))
        case = str(generated / "eval" / "cases" / "case_00000.json")
        rc = cli.main(["edit", "--case", case, "--seed", "7", "--ckpt", str(old),
                       "--config", str(workdir / "tiny.cfg"), "--out", str(workdir / "eold")])
        assert rc == 1
        assert "unsupported version 1" in capsys.readouterr().err

    def test_truncated_checkpoint_exits_1(self, workdir, generated, trained_ckpt, capsys):
        cut = workdir / "cut.ckpt"
        cut.write_bytes(trained_ckpt.read_bytes()[:-10])
        case = str(generated / "eval" / "cases" / "case_00000.json")
        rc = cli.main(["edit", "--case", case, "--seed", "7", "--ckpt", str(cut),
                       "--config", str(workdir / "tiny.cfg"), "--out", str(workdir / "ecut")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "truncated" in err

    @pytest.mark.parametrize("family", MEANING_CHANGES)
    def test_checkpoint_of_another_meaning_exits_1(self, workdir, generated, trained_ckpt, capsys, family):
        """Weights saved under one value of a key that changes their meaning,
        not their shapes, are refused under another."""
        case = str(generated / "eval" / "cases" / "case_00000.json")
        for key, value in MEANING_CHANGES[family].items():
            changed = workdir / f"meaning_{key}.cfg"
            write_config(changed, Config({**SMOKE_OVERRIDES, key: value}))
            for argv in (["plan", "--case", case, "--ckpt", str(trained_ckpt)],
                         ["train", "--stage", "I", "--data", str(generated / "stage_I"),
                          "--resume", str(trained_ckpt), "--log-every", "0"]):
                assert cli.main([*argv, "--config", str(changed), "--out", str(workdir / "meaning")]) == 1
                err = capsys.readouterr().err
                assert err.startswith(f"error: {key}:") and err.count("\n") == 1

    @pytest.mark.parametrize("line", ["infer.g_text = nan", "guidance.v2v = txt:nan,vid:1.25,img:1.25,tgt:0.5"])
    def test_non_finite_guidance_weight_exits_1(self, workdir, generated, trained_ckpt, capsys, line):
        bad = workdir / "nan_guidance.cfg"
        bad.write_text("\n".join(f"{k} = {v}" for k, v in SMOKE_OVERRIDES.items()) + "\n" + line + "\n")
        case = str(generated / "eval" / "cases" / "case_00000.json")
        rc = cli.main(["edit", "--case", case, "--ckpt", str(trained_ckpt), "--config", str(bad),
                       "--out", str(workdir / "nan_guidance")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "finite" in err

    def test_inconsistent_config_exits_1(self, workdir, generated, trained_ckpt, capsys):
        bad = workdir / "bad_heads.cfg"
        bad.write_text("renderer.heads = 5\n")
        case = str(generated / "eval" / "cases" / "case_00000.json")
        for argv in (["check"], ["edit", "--case", case, "--ckpt", str(trained_ckpt),
                                 "--out", str(workdir / "ebad")]):
            assert cli.main([*argv, "--config", str(bad)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1 and "renderer.heads" in err

    @pytest.mark.parametrize("command", ["plan", "edit"])
    def test_case_without_family_exits_1(self, workdir, generated, trained_ckpt, capsys, command):
        record = json.loads((generated / "eval" / "cases" / "case_00000.json").read_text())
        del record["family"]
        case = workdir / "no_family.json"
        case.write_text(json.dumps(record))
        rc = cli.main([command, "--case", str(case), "--seed", "7", "--ckpt", str(trained_ckpt),
                       "--config", str(workdir / "tiny.cfg"), "--out", str(workdir / "nofam")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "'family'" in err

    def test_garbled_case_exits_1(self, workdir, generated, trained_ckpt, capsys):
        case = workdir / "garbled.json"
        case.write_text('{"task": "v2v", "family": ')
        records = str(generated / "eval" / "records.jsonl")
        for spec, message in ((str(case), "malformed"), (records + ":abc", "INDEX >= 0")):
            rc = cli.main(["edit", "--case", spec, "--ckpt", str(trained_ckpt),
                           "--config", str(workdir / "tiny.cfg"), "--out", str(workdir / "garbled")])
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1 and message in err

    def test_unknown_timestep_weighting_exits_1(self, workdir, generated, capsys):
        bad = workdir / "bad_timestep.cfg"
        bad.write_text("schedules.timestep.t2i = bogus,0.5,1.0,3.0\n")
        rc = cli.main(["train", "--stage", "I", "--data", str(generated / "stage_I"),
                       "--config", str(bad), "--out", str(workdir / "bad_ts"), "--log-every", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "bogus" in err

    def test_diverging_training_exits_1(self, workdir, generated, capsys):
        cfg = Config(dict(SMOKE_OVERRIDES))
        cfg.set("stage.I.lr", "1e300")
        write_config(workdir / "diverge.cfg", cfg)
        out = workdir / "diverge"
        argv = ["train", "--stage", "I", "--data", str(generated / "stage_I"),
                "--config", str(workdir / "diverge.cfg"), "--out", str(out), "--log-every", "0"]
        rc = cli.main(argv)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "step 2: loss is nan" in err
        assert not list(out.glob("*.ckpt"))
        # outside pytest, which captures warnings, no numpy RuntimeWarning precedes the error line
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "planflow.cli", *argv], env=env, capture_output=True, text=True)
        assert proc.returncode == 1 and proc.stderr == "error: stage I step 2: loss is nan\n"
        assert not list(out.glob("*.ckpt"))

    def test_case_by_jsonl_index(self, workdir, generated, trained_ckpt):
        records = str(generated / "eval" / "records.jsonl") + ":0"
        rc = cli.main(["edit", "--case", records, "--seed", "3",
                       "--ckpt", str(trained_ckpt), "--config", str(workdir / "tiny.cfg"),
                       "--out", str(workdir / "e3")])
        assert rc == 0


class TestPlanRenderEval:
    def test_plan_outputs(self, workdir, generated, trained_ckpt):
        case = str(generated / "eval" / "cases" / "case_00000.json")
        out = workdir / "p1"
        rc = cli.main(["plan", "--case", case, "--ckpt", str(trained_ckpt),
                       "--config", str(workdir / "tiny.cfg"), "--seed", "1", "--out", str(out)])
        assert rc == 0
        emb = read_tensor(out / "embeddings.pft")
        assert emb.shape[0] > 0 and np.isfinite(emb).all()
        assert (out / "plan_report.txt").exists()

    def test_render_outputs(self, workdir, generated, trained_ckpt):
        case = str(generated / "eval" / "cases" / "case_00000.json")
        out = workdir / "r1"
        rc = cli.main(["render", "--case", case, "--ckpt", str(trained_ckpt),
                       "--config", str(workdir / "tiny.cfg"), "--seed", "1", "--out", str(out)])
        assert rc == 0
        frames = read_tensor(out / "frames.pft")
        assert frames.min() >= 0 and frames.max() <= 5

    def test_eval_writes_reports(self, workdir, generated, trained_ckpt):
        out = workdir / "ev1"
        rc = cli.main(["eval", "--data", str(generated / "eval"), "--ckpt", str(trained_ckpt),
                       "--config", str(workdir / "tiny.cfg"), "--seed", "1",
                       "--out", str(out), "--max-cases", "2"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert "per_task_success" in report and "runtime_seconds" in report
        assert (out / "report.txt").read_text().startswith("success.")
