"""The benchmark's workloads: seeded inputs, closed-loop measurement, output checks.

edit_small  sequential `harness.edit_case` calls on a seeded set of cases of
            all six task kinds at the default config (grid 2,8,8).
train       `harness.run_stage` for stages I -> II -> III, each stage resuming
            from the checkpoint file the previous one saved.

Each workload is a closed loop with one client: the next operation starts when
the previous one returns. The workload seed makes the inputs (the generated
datasets); everything else comes from the config, so weights are the config's
fixed init seed. Plan and render cost do not depend on weight values: the
cosine reveal schedule fixes the masked counts and the step counts are fixed.

A run repeats the same work in passes (edit_small: every case once, at a fixed
seed; train: one cycle of the three stages) until the time is up. Repeats do
identical work, so they must give byte-identical outputs, and the fastest
repeat of an operation is its cost with the least interference from other
load on the host.

A traced run alternates every operation (edit_small) or cycle (train)
between untraced and traced, on the same inputs, so host-speed drift hits
both sides alike and their difference is the tracing overhead.
"""

from __future__ import annotations

import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from planflow import harness, toydata
from planflow.checkpoint import Checkpoint
from planflow.config import Config
from planflow.toydata import PALETTE_SIZE, Dataset

from tracing import PRIMITIVES, Tracer

SETUP_REPEATS = 5

# The cases of one edit pass: every task kind, weighted toward v2v as in the
# stage mixtures. Three iv2v cases (the slowest kind) keep at least eleven
# iv2v calls in a run of four or more passes, so the tail (the 11th-slowest
# call) always falls on an iv2v case and the median on a v2v case, never on a
# cost step between task kinds.
EDIT_BLOCK = ("t2i", "t2v", "i2i", "i2v", "v2v", "v2v", "v2v", "v2v", "v2v", "iv2v", "iv2v", "iv2v")


# Config overrides of the train workload: small datasets and short stages, so
# that a 40-s run holds about six cycles.
TRAIN_CONFIG = {
    "data.cases_per_stage": "100",
    "stage.I.steps": "100",
    "stage.II.steps": "100",
    "stage.III.steps": "100",
    "train.checkpoint_every": "50",
}


@dataclass
class Outcome:
    """What one run measured and checked."""

    setup_s: list[float] = field(default_factory=list)
    # untraced wall seconds per operation, one list per pass, same order in each
    passes: list[list[float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    report: list[tuple[str, float, str, str]] = field(default_factory=list)  # name, value, unit, note
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)

    def check(self, ok: bool, what: str, ops: int = 1) -> None:
        """Count `ops` operations as attempted, and as failed unless `ok`."""
        self.attempted += ops
        if not ok:
            self.failed += ops
            self.failures.append(what)

    @property
    def op_s(self) -> list[float]:
        return [t for p in self.passes for t in p]

    @property
    def best_s(self) -> list[float]:
        """Each operation's fastest repeat."""
        return [min(ts) for ts in zip(*self.passes)]


def _set_up(out: Outcome, make, workdir: Path, tracer: Tracer | None):
    """Run `make(dir)` SETUP_REPEATS times (once, traced, in a traced run); keep the last."""
    for i in range(1 if tracer else SETUP_REPEATS):
        t0 = time.perf_counter()
        if tracer:
            with tracer:
                inputs = make(workdir / f"setup{i}")
        else:
            inputs = make(workdir / f"setup{i}")
        out.setup_s.append(time.perf_counter() - t0)
    return inputs


def _initial_checkpoint(bundle: harness.ModelBundle, path: Path) -> Checkpoint:
    """Write the untrained weights (EMA = live copy) and load them back."""
    params = bundle.param_values()
    Checkpoint(stage="init", step=0, stages_done=[], params=params,
               ema={k: v.copy() for k, v in params.items()}).save(path)
    ck = Checkpoint.load(path)
    bundle.load_param_values(ck.params)
    return ck


def _same_arrays(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> bool:
    return a.keys() == b.keys() and all(a[k].tobytes() == b[k].tobytes() for k in a)


def _all_finite(*groups: dict[str, np.ndarray]) -> bool:
    return all(np.isfinite(v).all() for g in groups for v in g.values())


def per_op_tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    That is the 11th-slowest sample; with ten or fewer samples it is the
    slowest one and fewer than ten lie beyond it.
    """
    ordered = sorted(times)
    idx = max(0, len(ordered) - 11)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def _overhead(traced: list[float], untraced: list[float]) -> dict[str, tuple[float, str]]:
    """Traced minus untraced mean seconds per operation over the same work."""
    t, u = statistics.fmean(traced), statistics.fmean(untraced)
    return {
        "trace.overhead_s_per_op": (t - u, "s"),
        "trace.overhead_pct": (100.0 * (t - u) / u, "%"),
    }


# ---------------------------------------------------------------------------
# edit_small
# ---------------------------------------------------------------------------

@dataclass
class EditInputs:
    bundle: harness.ModelBundle
    run: harness.RunConfig
    ema: dict[str, np.ndarray]
    cases: list  # one EditCase per EDIT_BLOCK entry, in that order


def _edit_setup(config: dict[str, str], seed: int, workdir: Path) -> EditInputs:
    cfg = Config(config)
    # called through the module so that a traced set-up sees the call
    toydata.generate_dataset(workdir / "cases", seed, Counter(EDIT_BLOCK), cfg.get_ints("data.grid"))
    data = Dataset(workdir / "cases")
    used = Counter()
    cases = []
    for task in EDIT_BLOCK:
        cases.append(data.case(data.by_task[task][used[task]]))
        used[task] += 1
    bundle = harness.ModelBundle(cfg)
    ck = _initial_checkpoint(bundle, workdir / "init.ckpt")
    return EditInputs(bundle, harness.RunConfig.from_config(cfg), ck.ema, cases)


def _edit_op(inp: EditInputs, c: int, out: Outcome, first: dict) -> float:
    """One timed edit_case call on case c at seed c, with its output checks.

    The first call of each case is stored in `first`; every later call must
    reproduce it byte for byte. Returns the call's wall seconds.
    """
    case = inp.cases[c]
    tag = f"edit case {c} ({case.task.value})"
    t0 = time.perf_counter()
    try:
        ids, report = harness.edit_case(inp.bundle, inp.run, case, c, inp.ema)
    except Exception as exc:  # a failed operation is counted, the loop goes on
        dt = time.perf_counter() - t0
        out.check(False, f"{tag}: {type(exc).__name__}: {exc}")
        return dt
    dt = time.perf_counter() - t0
    ids = np.asarray(ids)
    if ids.shape != tuple(case.target.grid):
        out.check(False, f"{tag}: ids shape {ids.shape} != grid {case.target.grid}")
    elif not np.issubdtype(ids.dtype, np.integer) or ids.min() < 0 or ids.max() >= PALETTE_SIZE:
        out.check(False, f"{tag}: ids outside [0, {PALETTE_SIZE})")
    else:
        out.check(True, "")
    if c not in first:
        first[c] = (ids.tobytes(), report)
    else:
        out.check(first[c] == (ids.tobytes(), report), f"{tag}: repeat at the same seed is not byte-identical")
    return dt


def run_edit(config: dict[str, str], seed: int, seconds: float, workdir: Path,
             tracer: Tracer | None = None) -> Outcome:
    out = Outcome()
    inp = _set_up(out, lambda d: _edit_setup(config, seed, d), workdir, tracer)
    first: dict = {}
    traced = []
    start = time.perf_counter()
    while True:
        times = []
        for c, task in enumerate(EDIT_BLOCK):
            times.append(_edit_op(inp, c, out, first))
            if tracer:
                tracer.group, tracer.request = f"edit/{task}", f"{len(out.passes)}:{c}"
                with tracer:
                    traced.append(_edit_op(inp, c, out, first))
        out.passes.append(times)
        if time.perf_counter() - start >= seconds:
            break
    if tracer:
        out.layers = edit_layers(tracer, len(traced))
        out.layers.update(_overhead(traced, out.op_s))

    op_s, best = out.op_s, out.best_s
    tail, pct = per_op_tail(op_s)
    out.report += [
        ("edit_s.p50", statistics.median(op_s), "s", f"median of {len(op_s)} edit_case calls"),
        ("edit_s.tail", tail, "s", f"p{pct:.1f}: 11th-slowest of {len(op_s)} calls"),
    ]
    for task in dict.fromkeys(EDIT_BLOCK):
        cols = [c for c, t in enumerate(EDIT_BLOCK) if t == task]
        out.report.append((f"edit_s.best.{task}", statistics.median(best[c] for c in cols), "s",
                           f"median over {len(cols)} cases of the fastest of {len(out.passes)} calls"))
    return out


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

@dataclass
class TrainInputs:
    cfg: Config
    run: harness.RunConfig
    data: dict[str, Dataset]
    bundle: harness.ModelBundle
    init: Checkpoint
    ckpt_dir: Path


def _train_setup(config: dict[str, str], seed: int, workdir: Path) -> TrainInputs:
    cfg = Config(config)
    grid = cfg.get_ints("data.grid")
    data = {}
    for i, stage in enumerate(harness.STAGES):
        root = workdir / f"data_{stage}"
        toydata.generate_dataset(root, seed * len(harness.STAGES) + i, harness.dataset_counts(cfg, stage), grid)
        data[stage] = Dataset(root)
    bundle = harness.ModelBundle(cfg)
    init = _initial_checkpoint(bundle, workdir / "init.ckpt")
    return TrainInputs(cfg, harness.RunConfig.from_config(cfg), data, bundle, init, workdir / "ckpt")


class StepClock:
    """Timestamps training steps from outside `run_stage`.

    `run_stage` calls `StageConfig.lr_at` once per step, after backward and
    before the optimizer update; the clock records the time of each call. One
    step's time is the interval between consecutive ticks (the first from the
    stage start, the last up to the stage's end), so the intervals add up to
    the stage's wall time. The clock also names the tracer's request.
    """

    def __init__(self, tracer: Tracer | None = None):
        self.ticks: list[float] = []
        self.tracer = tracer
        self._original = None

    def __enter__(self):
        original = self._original = harness.StageConfig.lr_at
        clock = self

        def lr_at(cfg, step):
            clock.ticks.append(time.perf_counter())
            if clock.tracer is not None:
                clock.tracer.request = f"{cfg.name}:{step}"
            return original(cfg, step)

        harness.StageConfig.lr_at = lr_at
        return self

    def __exit__(self, *exc):
        harness.StageConfig.lr_at = self._original
        return False

    def split(self, start: float, end: float, steps: int) -> list[float] | None:
        """Per-step seconds, or None when the ticks do not match the steps."""
        ticks, self.ticks = self.ticks, []
        if len(ticks) != steps:
            return None
        edges = [start, *ticks[1:], end]
        return [b - a for a, b in zip(edges, edges[1:])]


def _train_cycle(inp: TrainInputs, out: Outcome, clock: StepClock, tracer: Tracer | None,
                 reference: list):
    """Stages I -> II -> III from the initial checkpoint.

    Every cycle trains from the same checkpoint with the same streams, so its
    final params must be byte-identical to the first cycle's (`reference`).
    Returns ({stage: (steps, wall seconds)}, per-step seconds), or None when a
    stage raised.
    """
    stages: dict[str, tuple[int, float]] = {}
    step_s: list[float] = []
    resume = inp.init
    for i, stage in enumerate(harness.STAGES):
        stage_cfg = harness.StageConfig.from_config(inp.cfg, stage)
        if tracer is not None:
            tracer.group = stage
        t0 = time.perf_counter()
        try:
            state, final = harness.run_stage(
                inp.bundle, stage_cfg, inp.data[stage], inp.run, inp.cfg.get_int("run.seed"),
                resume=resume, checkpoint_dir=inp.ckpt_dir,
                checkpoint_every=inp.cfg.get_int("train.checkpoint_every"),
            )
        except Exception as exc:  # the stage and every stage after it fail
            rest = sum(harness.StageConfig.from_config(inp.cfg, s).steps for s in harness.STAGES[i:])
            out.check(False, f"stage {stage}: {type(exc).__name__}: {exc}", ops=rest)
            clock.ticks.clear()
            return None
        steps = stage_cfg.steps
        # resume the next stage from the file, as `planflow train --resume` does
        resume = Checkpoint.load(inp.ckpt_dir / f"stage_{stage}_final.ckpt")
        t1 = time.perf_counter()
        stages[stage] = (steps, t1 - t0)
        split = clock.split(t0, t1, steps)
        if split is None:
            split = [(t1 - t0) / steps] * steps
            out.report.append(("note", 0.0, "", f"stage {stage}: step clock missed steps; "
                                                "per-step times are the stage mean"))
        step_s += split
        out.check(_all_finite(final.params, state.ema), f"stage {stage}: non-finite params or EMA", ops=steps)
        out.check(_same_arrays(resume.params, final.params),
                  f"stage {stage}: final checkpoint does not reload bit-identical params")
    if not reference:
        reference.append(final.params)
    else:
        out.check(_same_arrays(final.params, reference[0]), "training cycle is not bit-identical to the first")
    return stages, step_s


def run_train(config: dict[str, str], seed: int, seconds: float, workdir: Path,
              tracer: Tracer | None = None) -> Outcome:
    out = Outcome()
    inp = _set_up(out, lambda d: _train_setup(config, seed, d), workdir, tracer)

    reference: list = []
    walls, traced_walls, traced_steps = [], [], []
    start = time.perf_counter()
    with StepClock(tracer) as clock:
        while True:
            result = _train_cycle(inp, out, clock, None, reference)
            if result is None:
                break
            walls.append(result[0])
            out.passes.append(result[1])
            if tracer:
                with tracer:
                    result = _train_cycle(inp, out, clock, tracer, reference)
                if result is None:
                    break
                traced_walls.append(result[0])
                traced_steps += result[1]
            if time.perf_counter() - start >= seconds:
                break
    if not walls:
        return out
    if traced_walls:
        out.layers = train_layers(tracer, traced_walls)
        out.layers.update(_overhead(traced_steps, out.op_s[: len(traced_steps)]))

    best = out.best_s
    offset = 0
    for stage in harness.STAGES:
        steps = walls[0][stage][0]
        per_cycle = [1000.0 * w[stage][1] / steps for w in walls]
        out.report += [
            (f"train.{stage}.ms_per_step", statistics.median(per_cycle), "ms",
             f"median over {len(walls)} cycles of {steps} steps"),
            (f"train.{stage}.best_ms_per_step", 1000.0 * statistics.fmean(best[offset:offset + steps]), "ms",
             f"mean over {steps} steps of the fastest of {len(walls)} cycles"),
        ]
        offset += steps
    return out


# ---------------------------------------------------------------------------
# per-layer metrics from the traced operations
# ---------------------------------------------------------------------------

def _common_layers(tracer: Tracer, groups: list[str], ops: int, steps: int) -> dict[str, tuple[float, str]]:
    """Per-operation counts and self times for the layers both workloads reach."""
    m: dict[str, tuple[float, str]] = {}

    def calls_and_self(metric: str) -> None:
        calls, _, own = tracer.total(groups, metric)
        m[f"{metric}.calls"] = (calls / ops, "calls/op")
        m[f"{metric}.self_s"] = (own / ops, "s/op")

    for p in PRIMITIVES:
        calls_and_self(f"numerics.{p}")
    m["numerics.matmul.flops"] = (tracer.extra_total(groups, "numerics.matmul") / ops, "flop/op")
    calls, _, own = tracer.total(groups, "numerics.backward")
    _, _, tape_s = tracer.total(groups, "numerics.Graph.trace")
    m["numerics.backward.calls"] = (calls / ops, "calls/op")
    m["numerics.backward.self_s"] = ((own + tape_s) / ops, "s/op")
    nodes = tracer.extra_total(groups, "numerics.Graph.trace")
    m["numerics.tape_nodes_per_step"] = (nodes / steps if steps else 0.0, "nodes/step")
    for metric in ("nets.self_attention", "nets.cross_attention", "nets.mlp",
                   "posenc.spatial_angles", "sequence.serialize", "sequence.apply_target_mask"):
        calls_and_self(metric)

    n_plan, plan_s, _ = tracer.total(groups, "planner.plan")
    n_render, render_s, _ = tracer.total(groups, "renderer.render")
    m["planner.plan.s_per_case"] = (plan_s / ops if n_plan else 0.0, "s")
    calls_and_self("planner.planner_forward")
    calls_and_self("planner.decoder_forward")
    n_pf = tracer.total(groups, "planner.planner_forward")[0]
    n_df = tracer.total(groups, "planner.decoder_forward")[0]
    m["planner.forwards_per_plan"] = (n_pf / n_plan if n_plan else 0.0, "count")
    m["planner.decoder_forwards_per_plan"] = (n_df / n_plan if n_plan else 0.0, "count")
    m["renderer.render.s_per_case"] = (render_s / ops if n_render else 0.0, "s")
    calls_and_self("renderer.renderer_forward")
    n_rf = tracer.total(groups, "renderer.renderer_forward")[0]
    m["renderer.forwards_per_render"] = (n_rf / n_render if n_render else 0.0, "count")
    for metric in ("renderer.ToyVae.encode", "renderer.ToyVae.decode"):
        m[f"{metric}.self_s"] = (tracer.total(groups, metric)[2] / ops, "s/op")
    calls_and_self("guidance.compose")
    n_edit, edit_s, _ = tracer.total(groups, "harness.edit_case")
    m["harness.edit_case.other_s_per_case"] = ((edit_s - plan_s - render_s) / ops if n_edit else 0.0, "s")
    m["harness.ema_weights.self_s"] = (tracer.total(groups, "harness.ema_weights")[2] / ops, "s/op")

    # set-up and checkpoint layers: mean seconds per call over the whole run
    everything = sorted(tracer.groups())
    for metric, name in (("toydata.generate_dataset", "toydata.generate_dataset.s"),
                         ("toydata.Dataset.load", "toydata.Dataset.load_s")):
        n, tot, _ = tracer.total(["setup"], metric)
        m[name] = (tot / n if n else 0.0, "s")
    m["toydata.oracle_scores.self_s"] = (tracer.total(groups, "toydata.oracle_scores")[2] / ops, "s/op")
    n_save, save_s, _ = tracer.total(everything, "checkpoint.save")
    n_load, load_s, _ = tracer.total(everything, "checkpoint.load")
    saved = tracer.extra_total(everything, "checkpoint.save")
    m["checkpoint.save.s"] = (save_s / n_save if n_save else 0.0, "s")
    m["checkpoint.save.bytes"] = (saved / n_save if n_save else 0.0, "bytes")
    m["checkpoint.load.s"] = (load_s / n_load if n_load else 0.0, "s")
    return m


def _stage_layers(tracer: Tracer, stage_walls: dict[str, tuple[int, float]]) -> dict[str, tuple[float, str]]:
    """harness.<stage>.* breakdown of a training step; zeros for stages not run.

    forward_ms_per_step is the remainder: stage wall time minus data, backward,
    Adam, EMA and checkpoint saves and loads (so it also holds the tracing
    overhead).
    """
    m: dict[str, tuple[float, str]] = {}
    for stage in harness.STAGES:
        steps, wall = stage_walls.get(stage, (0, 0.0))
        g = [stage]
        per_step = 1.0 / steps if steps else 0.0
        data = sum(tracer.total(g, x)[1] for x in
                   ("toydata.EditCase.from_dict", "harness.planner_sequence", "harness.renderer_sources"))
        backward = tracer.total(g, "numerics.backward")[1]
        adam = tracer.total(g, "harness.Adam.step")[1]
        ema = tracer.total(g, "harness.ema_update")[1]
        io = tracer.total(g, "checkpoint.save")[1] + tracer.total(g, "checkpoint.load")[1]
        forward = wall - data - backward - adam - ema - io
        for part, seconds in (("data", data), ("forward", forward), ("backward", backward),
                              ("adam", adam), ("ema", ema)):
            m[f"harness.{stage}.{part}_ms_per_step"] = (1000.0 * seconds * per_step, "ms")
        for layer, metric in (("planner", "planner.planner_forward"), ("renderer", "renderer.renderer_forward")):
            m[f"harness.{stage}.{layer}_forwards_per_step"] = (tracer.total(g, metric)[0] * per_step, "count")
    return m


def edit_layers(tracer: Tracer, cases: int) -> dict[str, tuple[float, str]]:
    groups = [g for g in sorted(tracer.groups()) if g.startswith("edit/")]
    m = _common_layers(tracer, groups, cases, 0)
    m.update(_stage_layers(tracer, {}))
    return m


def train_layers(tracer: Tracer, walls: list[dict[str, tuple[int, float]]]) -> dict[str, tuple[float, str]]:
    stage_walls = {s: (sum(w[s][0] for w in walls), sum(w[s][1] for w in walls)) for s in harness.STAGES}
    steps = sum(n for n, _ in stage_walls.values())
    m = _common_layers(tracer, list(harness.STAGES), steps, steps)
    m.update(_stage_layers(tracer, stage_walls))
    return m


def forwards_per_render_by_task(tracer: Tracer) -> dict[str, float]:
    """renderer_forward calls per render, for each task kind the run edited."""
    out = {}
    for g in sorted(tracer.groups()):
        if g.startswith("edit/"):
            n_render = tracer.total([g], "renderer.render")[0]
            if n_render:
                out[g[len("edit/"):]] = tracer.total([g], "renderer.renderer_forward")[0] / n_render
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload(NamedTuple):
    run: Callable[..., Outcome]  # run(config, seed, seconds, workdir, tracer)
    config: dict[str, str]       # overrides of planflow's default config


WORKLOADS = {
    "edit_small": Workload(run_edit, {}),
    "train": Workload(run_train, TRAIN_CONFIG),
}
