import json

import numpy as np
import pytest

from planflow import cli
from planflow.checkpoint import Checkpoint
from planflow.config import write_config, Config

from test_harness import TINY_OVERRIDES


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
        cfg.set("stage.I.lr", "inf")
        write_config(workdir / "diverge.cfg", cfg)
        out = workdir / "diverge"
        rc = cli.main(["train", "--stage", "I", "--data", str(generated / "stage_I"),
                       "--config", str(workdir / "diverge.cfg"), "--out", str(out), "--log-every", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "step 2: loss is nan" in err
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
        from planflow import tensorio

        emb = tensorio.read_tensor(out / "embeddings.pft")
        assert emb.shape[0] > 0 and np.isfinite(emb).all()
        assert (out / "plan_report.txt").exists()

    def test_render_outputs(self, workdir, generated, trained_ckpt):
        case = str(generated / "eval" / "cases" / "case_00000.json")
        out = workdir / "r1"
        rc = cli.main(["render", "--case", case, "--ckpt", str(trained_ckpt),
                       "--config", str(workdir / "tiny.cfg"), "--seed", "1", "--out", str(out)])
        assert rc == 0
        from planflow import tensorio

        frames = tensorio.read_tensor(out / "frames.pft")
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
