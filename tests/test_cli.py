import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from planflow import cli
from planflow.checkpoint import Checkpoint
from planflow.config import DEFAULTS

from test_harness import MEANING_CHANGES, TINY_OVERRIDES
from util import read_tensor, write_config


def _numbers(value: str) -> list[str]:
    """The parts of a config value that are numbers."""
    numbers = []
    for part in value.replace(":", ",").split(","):
        try:
            float(part)
        except ValueError:
            continue
        numbers.append(part)
    return numbers


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
    write_config(cfg_path, SMOKE_OVERRIDES)
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
        """The timestep weightings are constants: a config that sets one is refused."""
        bad = workdir / "check_bad_timestep.cfg"
        bad.write_text("schedules.timestep.t2i = bogus,0.5,1.0,3.0\n")
        assert cli.main(["check", "--config", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "invariants hold" not in captured.out
        assert captured.err == "error: unknown config key 'schedules.timestep.t2i'\n"


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

    @pytest.mark.parametrize("line", ["stage.I.lr = inf", "stage.II.lr = nan", "stage.III.ema = -inf",
                                      "stage.I.ema = nan", "stage.II.mixture = t2i:0.5,v2v:inf"])
    def test_check_refuses_non_finite_stage_setting(self, workdir, capsys, line):
        bad = workdir / "check_non_finite_stage.cfg"
        bad.write_text(line + "\n")
        assert cli.main(["check", "--config", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "invariants hold" not in captured.out
        key = line.split(" ")[0]
        assert captured.err.startswith(f"error: {key}:") and captured.err.count("\n") == 1
        assert "finite" in captured.err

    @pytest.mark.parametrize("key", [key for key, value in DEFAULTS.items() if _numbers(value)])
    def test_check_refuses_nan_in_every_numeric_key(self, workdir, capsys, key):
        """Each number of each value must be finite: NaN in place of a key's
        first number is refused at load, naming the key."""
        first = _numbers(DEFAULTS[key])[0]
        bad = workdir / "check_nan.cfg"
        bad.write_text(f"{key} = {DEFAULTS[key].replace(first, 'nan', 1)}\n")
        assert cli.main(["check", "--config", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "invariants hold" not in captured.out
        assert captured.err.startswith(f"error: {key}:") and captured.err.count("\n") == 1
        assert "finite" in captured.err

    def test_check_refuses_flow_shift_below_one(self, workdir, capsys):
        bad = workdir / "check_low_shift.cfg"
        bad.write_text("infer.flow_shift = 0.5\n")
        assert cli.main(["check", "--config", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "invariants hold" not in captured.out
        assert captured.err == "error: infer.flow_shift: must be >= 1, got '0.5'\n"

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

    @pytest.mark.parametrize("line", ["stage.II.steps = 0", "stage.II.steps = -5", "data.eval_cases = 0",
                                      "data.cases_per_stage = -3", "data.eval_families = ", "stage.I.mixture = "])
    def test_value_refused_at_load_exits_1(self, workdir, generated, capsys, line):
        """A value that breaks its key's rule is refused, naming the key, by
        `check` and by `train`, whatever stage `train` runs."""
        bad = workdir / "refused_at_load.cfg"
        bad.write_text("".join(f"{k} = {v}\n" for k, v in SMOKE_OVERRIDES.items()) + line + "\n")
        out = workdir / "refused_at_load"
        train = ["train", "--stage", "I", "--data", str(generated / "stage_I"), "--log-every", "0"]
        for argv in (["check"], train):
            assert cli.main([*argv, "--config", str(bad), "--out", str(out)]) == 1
            captured = capsys.readouterr()
            assert "invariants hold" not in captured.out
            key = line.split(" ")[0]
            assert captured.err.startswith(f"error: {key}: ") and captured.err.count("\n") == 1
        assert not list(out.glob("*.ckpt"))

    @pytest.mark.parametrize("source", ["config", "flag"])
    def test_negative_checkpoint_interval_exits_1(self, workdir, generated, capsys, source):
        """A negative checkpoint interval, from the config file or from
        `train --checkpoint-every`, is refused naming its key before any
        checkpoint is written."""
        bad = workdir / f"negative_interval_{source}.cfg"
        line = "train.checkpoint_every = -1\n" if source == "config" else ""
        bad.write_text("".join(f"{k} = {v}\n" for k, v in SMOKE_OVERRIDES.items()) + line)
        out = workdir / f"negative_interval_{source}"
        train = ["train", "--stage", "I", "--data", str(generated / "stage_I"), "--log-every", "0"]
        runs = [["check"], train] if source == "config" else [[*train, "--checkpoint-every", "-1"]]
        for argv in runs:
            assert cli.main([*argv, "--config", str(bad), "--out", str(out)]) == 1
            captured = capsys.readouterr()
            assert "invariants hold" not in captured.out
            assert captured.err.startswith("error: train.checkpoint_every:") and captured.err.count("\n") == 1
            assert "'-1'" in captured.err
        assert not list(out.glob("*.ckpt"))

    @pytest.mark.parametrize("value", ["-1", "-200"])
    def test_negative_log_interval_exits_1(self, workdir, generated, capsys, value):
        """A negative `train --log-every` is refused before training starts;
        0 stays the way to print no loss lines."""
        out = workdir / "negative_log"
        assert cli.main(["train", "--stage", "I", "--data", str(generated / "stage_I"),
                         "--config", str(workdir / "tiny.cfg"), "--out", str(out), "--log-every", value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --log-every: expected an integer >= 0, got {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("line, stage", [("data.eval_families = bogus", "eval"),
                                             ("data.train_families = recolor,bogus", "I"),
                                             ("data.train_families = recolor,bogus:2", "I"),
                                             ("stage.I.mixture = bogus:1.0", "I")])
    def test_unknown_data_name_exits_1(self, workdir, capsys, line, stage):
        """An edit family or task that no generator knows is refused, naming
        its key, by `check` and by `gen-data`."""
        bad = workdir / "unknown_name.cfg"
        bad.write_text("".join(f"{k} = {v}\n" for k, v in SMOKE_OVERRIDES.items()) + line + "\n")
        out = workdir / "unknown_name"
        for argv in (["check"], ["gen-data", "--stage", stage]):
            assert cli.main([*argv, "--config", str(bad), "--out", str(out)]) == 1
            captured = capsys.readouterr()
            assert "invariants hold" not in captured.out
            key = line.split(" ")[0]
            assert captured.err.startswith(f"error: {key}:") and captured.err.count("\n") == 1
            assert "unknown" in captured.err and "'bogus" in captured.err
        assert not list(out.rglob("records.jsonl"))


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
            write_config(changed, {**SMOKE_OVERRIDES, key: value})
            for argv in (["plan", "--case", case, "--ckpt", str(trained_ckpt)],
                         ["train", "--stage", "I", "--data", str(generated / "stage_I"),
                          "--resume", str(trained_ckpt), "--log-every", "0"]):
                assert cli.main([*argv, "--config", str(changed), "--out", str(workdir / "meaning")]) == 1
                err = capsys.readouterr().err
                assert err.startswith(f"error: {key}:") and err.count("\n") == 1

    @pytest.mark.parametrize("line", ["infer.g_text = nan", "guidance.v2v = txt:nan,vid:1.25,img:1.25,tgt:0.5",
                                      "infer.flow_shift = nan", "infer.g_image = nan"])
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

    @pytest.mark.parametrize("command", ["edit", "eval"])
    @pytest.mark.parametrize("change, words", [
        (lambda r: r.update(instruction=[1] * 17), "instruction has 17 tokens, more than 16"),
        (lambda r: r["instruction"].append(56), "token id outside [0, 56)"),
        (lambda r: r["instruction"].append(-1), "token id outside [0, 56)"),
        (lambda r: r["source"]["objects"][0].update(start=[40, 0]), "at [40, 0] leaves the grid [2, 6, 6]"),
        (lambda r: r.update(family="bogus"), "unknown family 'bogus'"),
        (lambda r: r["target"].update(grid=[2, 6]), "grid [2, 6] is not three positive sizes"),
        (lambda r: r["target"].update(grid=[2, 7, 7]), "vit.patch = 1,2,2 does not divide the grid [2, 7, 7]"),
        (lambda r: r.update(family="recolor", edit={"old": r["edit"]["old"]}), "the edit of a recolor case lacks 'new'"),
        (lambda r: r.update(family="remove", source=None), "a remove case has no source"),
        (lambda r: r["source"]["objects"][0].update(color=9), "object color 9 is not one of"),
        (lambda r: r["source"]["objects"][0].update(shape="blob"), "unknown shape 'blob'"),
        (lambda r: r["source"]["objects"][0].update(orient="d"), "orient 'd' is neither 'h' nor 'v'"),
        (lambda r: r["source"]["objects"][0].update(size=-1), "object size -1 is not a positive integer"),
        (lambda r: r["target"].update(background=7), "background 7 is outside the palette [0, 5]"),
        (lambda r: (r.update(family="remove"), r["source"].update(grid=[1, 6, 6])),
         "the source grid [1, 6, 6] of a remove case is not its target grid [2, 6, 6]"),
        (lambda r: r["source"]["objects"][0].update(start=[1.5, 2]), "object start [1.5, 2] is not two integers"),
        (lambda r: r["source"]["objects"][0].update(velocity=[0]), "object velocity [0] is not two integers"),
    ], ids=["long-instruction", "token-above-vocab", "negative-token", "object-outside-grid", "unknown-family",
            "two-value-grid", "grid-patches-do-not-divide", "edit-without-field", "source-missing",
            "color-outside-palette", "unknown-shape", "unknown-orient", "size-below-one", "background-outside-palette",
            "source-grid-differs", "fractional-start", "short-velocity"])
    def test_malformed_case_content_exits_1(self, workdir, generated, trained_ckpt, capsys, command, change, words):
        """A case whose content the models cannot take, in a case file given
        to `edit` or a records line read by `eval`, ends in one `error:` line
        that names the file."""
        data = workdir / "bad_content"
        shutil.copytree(generated / "eval", data, dirs_exist_ok=True)
        lines = (data / "records.jsonl").read_text().splitlines(keepends=True)
        record = json.loads(lines[0])
        change(record)
        lines[0] = json.dumps(record) + "\n"
        (data / "records.jsonl").write_text("".join(lines))
        case = data / "bad_case.json"
        case.write_text(lines[0])
        argv = (["edit", "--case", str(case)] if command == "edit" else
                ["eval", "--data", str(data), "--max-cases", "1"])
        rc = cli.main([*argv, "--ckpt", str(trained_ckpt), "--config", str(workdir / "tiny.cfg"),
                       "--out", str(workdir / "bad_content_out")])
        assert rc == 1
        err = capsys.readouterr().err
        where = f"case {case}" if command == "edit" else f"{data / 'records.jsonl'} line 1"
        assert err.startswith(f"error: {where} is malformed: ") and err.count("\n") == 1 and words in err

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
        """The timestep weightings are constants: a config that sets one is refused."""
        bad = workdir / "bad_timestep.cfg"
        bad.write_text("schedules.timestep.t2i = bogus,0.5,1.0,3.0\n")
        rc = cli.main(["train", "--stage", "I", "--data", str(generated / "stage_I"),
                       "--config", str(bad), "--out", str(workdir / "bad_ts"), "--log-every", "0"])
        assert rc == 1
        assert capsys.readouterr().err == "error: unknown config key 'schedules.timestep.t2i'\n"

    def test_diverging_training_exits_1(self, workdir, generated, capsys):
        write_config(workdir / "diverge.cfg", {**SMOKE_OVERRIDES, "stage.I.lr": "1e300"})
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


class TestMalformedDataset:
    """A dataset file that is not JSON, a records line that is not a JSON
    object or lacks `kind`, or a case record that lacks a field, ends in one
    `error:` line that names the file and line, and exit code 1."""

    @staticmethod
    def _copy(generated, workdir, stage, name):
        data = workdir / name
        shutil.copytree(generated / stage, data, dirs_exist_ok=True)
        return data

    def _fails(self, argv, workdir, capsys, where):
        rc = cli.main([*argv, "--config", str(workdir / "tiny.cfg"), "--out", str(workdir / "malformed_out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}") and err.count("\n") == 1
        return err

    def test_records_line_not_json_exits_1(self, workdir, generated, capsys):
        data = self._copy(generated, workdir, "eval", "not_json")
        lines = (data / "records.jsonl").read_text().splitlines(keepends=True)
        lines[1] = lines[1][: len(lines[1]) // 2] + "\n"
        (data / "records.jsonl").write_text("".join(lines))
        err = self._fails(["eval", "--data", str(data)], workdir, capsys, f"{data / 'records.jsonl'} line 2 ")
        assert "malformed" in err

    def test_case_record_without_family_exits_1(self, workdir, generated, capsys):
        data = self._copy(generated, workdir, "eval", "no_family")
        lines = (data / "records.jsonl").read_text().splitlines(keepends=True)
        record = json.loads(lines[0])
        del record["family"]
        lines[0] = json.dumps(record) + "\n"
        (data / "records.jsonl").write_text("".join(lines))
        err = self._fails(["eval", "--data", str(data)], workdir, capsys, f"{data / 'records.jsonl'} line 1 ")
        assert "'family'" in err

    @pytest.mark.parametrize("line, words", [("5", "not a JSON object"), ('{"index": 0}', "'kind'")],
                             ids=["not-an-object", "without-kind"])
    def test_records_line_not_a_record_exits_1(self, workdir, generated, capsys, line, words):
        data = self._copy(generated, workdir, "eval", "not_a_record")
        lines = (data / "records.jsonl").read_text().splitlines(keepends=True)
        lines[2] = line + "\n"
        (data / "records.jsonl").write_text("".join(lines))
        err = self._fails(["eval", "--data", str(data)], workdir, capsys, f"{data / 'records.jsonl'} line 3 ")
        assert words in err

    @pytest.mark.parametrize("stage, kind, field", [("II", "pair", "a"), ("I", "text", "instruction")])
    def test_training_record_without_field_exits_1(self, workdir, capsys, stage, kind, field):
        """Training reads pair and text records as checked as case records."""
        config = workdir / f"only_{kind}.cfg"
        write_config(config, {**SMOKE_OVERRIDES, f"stage.{stage}.mixture": f"{kind}:1"})
        data = workdir / f"only_{kind}"
        assert cli.main(["gen-data", "--config", str(config), "--stage", stage, "--out", str(data)]) == 0
        data = data / f"stage_{stage}"
        lines = [json.loads(line) for line in (data / "records.jsonl").read_text().splitlines()]
        assert {record["kind"] for record in lines} == {kind}
        for record in lines:
            del record[field]
        (data / "records.jsonl").write_text("".join(json.dumps(record) + "\n" for record in lines))
        capsys.readouterr()
        rc = cli.main(["train", "--stage", stage, "--data", str(data), "--config", str(config),
                       "--out", str(workdir / "malformed_out"), "--log-every", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data / 'records.jsonl'} line ") and err.count("\n") == 1
        assert f"lacks the field '{field}'" in err

    def test_manifest_not_json_exits_1(self, workdir, generated, capsys):
        data = self._copy(generated, workdir, "stage_I", "bad_manifest")
        (data / "manifest.json").write_text('{"version": 1, "seed": ')
        err = self._fails(["train", "--stage", "I", "--data", str(data), "--log-every", "0"], workdir, capsys,
                          f"{data / 'manifest.json'} ")
        assert "malformed" in err


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

    def test_eval_writes_reports(self, workdir, generated, trained_ckpt, capsys):
        out = workdir / "ev1"
        rc = cli.main(["eval", "--data", str(generated / "eval"), "--ckpt", str(trained_ckpt),
                       "--config", str(workdir / "tiny.cfg"), "--seed", "1",
                       "--out", str(out), "--max-cases", "2"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert "per_task_success" in report and "runtime_seconds" in report
        assert report["plan_seconds"] > 0 and report["render_seconds"] > 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.startswith("(runtime ") and "s: plan " in last and "s, render " in last
        assert (out / "report.txt").read_text().startswith("success.")

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_eval_refuses_max_cases_below_one(self, workdir, generated, capsys, value):
        """`eval --max-cases` below 1 would score no case; it is refused
        before any report is written."""
        out = workdir / "no_cases"
        assert cli.main(["eval", "--data", str(generated / "eval"), "--config", str(workdir / "tiny.cfg"),
                         "--out", str(out), "--max-cases", value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --max-cases: expected an integer >= 1, got {value}\n"
        assert not out.exists()
