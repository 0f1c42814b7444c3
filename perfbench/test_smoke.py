"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs one pass with shrunken step counts, untraced and traced. The test checks that every metric BENCHMARK.json names is reported
with its unit, and that a forced bad output is counted as a failed operation.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads  # noqa: E402
from planflow import harness  # noqa: E402
from planflow.toydata import PALETTE_SIZE  # noqa: E402

MEASURED = sorted(workloads.WORKLOADS)
TINY_STEPS = {
    "guidance.steps.t2v": "2",
    "guidance.steps.s2v": "2",
    "guidance.steps.v2v": "2",
    "guidance.steps.rv2v": "2",
    "infer.plan_steps": "2",
    "infer.decoder_steps": "1",
}
TINY = {
    "edit_small": workloads.Workload(workloads.run_edit, TINY_STEPS),
    "train": workloads.Workload(workloads.run_train, {
        "data.cases_per_stage": "10",
        "stage.I.steps": "2",
        "stage.II.steps": "2",
        "stage.III.steps": "2",
        "train.checkpoint_every": "1",
    }),
}


@pytest.fixture(autouse=True)
def tiny_workloads(monkeypatch):
    monkeypatch.setattr(workloads, "WORKLOADS", TINY)
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)


def declared_units(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_declared_workloads_exist():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == MEASURED == sorted(TINY)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_is_reported_with_its_unit(workload, trace, tmp_path):
    record = bench.run(workload, seed=3, seconds=0, trace=trace, runs_dir=tmp_path)
    result = record["result"]
    assert result["correct"], record["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == declared_units("per_layer" if trace else "end_to_end")


def test_traced_counts_fit_the_code(tmp_path):
    edit = bench.run("edit_small", seed=3, seconds=0, trace=True, runs_dir=tmp_path)
    assert edit["result"]["metrics"]["numerics.backward.calls"]["value"] == 0
    # every render runs one forward per guidance subset per step (2 steps here)
    per_task = {name.rsplit(".", 1)[1]: value for name, value, _, _ in edit["report"]
                if name.startswith("renderer.forwards_per_render.")}
    assert per_task == {"t2i": 6, "t2v": 6, "i2i": 8, "i2v": 8, "v2v": 8, "iv2v": 10}
    train = bench.run("train", seed=3, seconds=0, trace=True, runs_dir=tmp_path)["result"]["metrics"]
    assert train["harness.II.planner_forwards_per_step"]["value"] == 0
    assert train["harness.I.renderer_forwards_per_step"]["value"] == 0
    assert train["numerics.backward.calls"]["value"] == 1


def test_out_of_palette_output_fails_the_run(monkeypatch, tmp_path, capsys):
    real = harness.edit_case

    def off_palette(*args, **kwargs):
        ids, report = real(*args, **kwargs)
        ids = ids.copy()
        ids.flat[0] = PALETTE_SIZE
        return ids, report

    monkeypatch.setattr(harness, "edit_case", off_palette)
    monkeypatch.setattr(bench, "RUNS_DIR", tmp_path)
    code = bench.main(["--workload", "edit_small", "--seed", "3", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"]
    # every call of the one pass returns an off-palette id
    assert result["failed"] >= len(workloads.EDIT_BLOCK)


def test_missing_sources_exit_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bench, "SRC", tmp_path / "src")
    code = bench.main(["--workload", "edit_small", "--seed", "3", "--seconds", "0"])
    assert code == 2
    assert capsys.readouterr().out == ""
