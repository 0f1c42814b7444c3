"""Command-line interface.

Subcommands: gen-data, train, plan, render, edit, eval, check. Every command
accepts --config / --seed / --out; outputs under a fixed seed are byte-stable.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import harness, tensorio
from .checkpoint import Checkpoint, CheckpointError
from .config import Config, ConfigError, load_config
from .guidance import GuidanceValidationError
from .numerics import Rng
from .schedules import DomainError
from .toydata import MALFORMED, Dataset, EditCase, frames_to_ids, generate_dataset, malformed


def _common(sub):
    sub.add_argument("--config", type=str, default=None, help="config file (defaults built in)")
    sub.add_argument("--seed", type=int, default=None, help="override run.seed")
    sub.add_argument("--out", type=str, default=None, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="planflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate procedural datasets")
    _common(p)
    p.add_argument("--stage", default="all", choices=["I", "II", "III", "eval", "all"])

    p = sub.add_parser("train", help="train one pipeline stage")
    _common(p)
    p.add_argument("--stage", required=True, choices=["I", "II", "III"])
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--resume", default=None, help="checkpoint to start from")
    p.add_argument("--checkpoint-every", type=int, default=None)
    p.add_argument("--log-every", type=int, default=200, help="steps between loss lines; 0 prints none")

    p = sub.add_parser("plan", help="run masked-infilling planning for one case")
    _common(p)
    p.add_argument("--case", required=True)
    p.add_argument("--ckpt", required=True)

    p = sub.add_parser("render", help="render one case from text/source conditioning")
    _common(p)
    p.add_argument("--case", required=True)
    p.add_argument("--ckpt", required=True)

    p = sub.add_parser("edit", help="plan + render end-to-end for one case")
    _common(p)
    p.add_argument("--case", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--task", default=None, help="validate the case against this task kind")

    p = sub.add_parser("eval", help="oracle evaluation over a dataset")
    _common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", default=None, help="omit to evaluate untrained models")
    p.add_argument("--baseline", default="model", choices=["model", "random"])
    p.add_argument("--max-cases", type=int, default=None, help="evaluate only the first N cases")

    p = sub.add_parser("check", help="run the invariant suite")
    _common(p)
    return parser


def _load(args) -> tuple[Config, int]:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.set("run.seed", args.seed)
    return cfg, cfg.get_int("run.seed")


def _out_dir(args, default: str) -> Path:
    out = Path(args.out) if args.out else Path(default)
    out.mkdir(parents=True, exist_ok=True)
    return out


def load_case(path: str, bundle: harness.ModelBundle) -> EditCase:
    """A standalone case file, or 'records.jsonl:INDEX'; refuses a malformed
    case, or one that `bundle` cannot take, with ConfigError."""
    file, _, idx = path.rpartition(":")
    indexed = ":" in path and not Path(path).exists()
    if indexed and not idx.isdigit():
        raise ConfigError(f"case {path}: expected FILE or FILE:INDEX with INDEX >= 0")
    with open(file if indexed else path) as fh:
        text = next(itertools.islice(fh, int(idx), None), None) if indexed else fh.read()
    if text is None:
        raise ConfigError(f"record {idx} not found in {file}")
    try:
        return bundle.admit(EditCase.from_dict(json.loads(text)))
    except MALFORMED as exc:
        raise malformed(f"case {path}", exc) from None


def _bundle_from_ckpt(cfg: Config, ckpt_path: str | None):
    bundle = harness.ModelBundle(cfg)
    ema = None
    if ckpt_path:
        ck = Checkpoint.load(ckpt_path)
        harness.check_config_snapshot(ck.config_snapshot, cfg)
        bundle.load_param_values(ck.params)
        bundle.check_fit(ck.ema, "EMA entry")
        ema = ck.ema or None
    return bundle, ema


def cmd_gen_data(args) -> int:
    cfg, seed = _load(args)
    out = _out_dir(args, "data")
    grid = cfg.get_ints("data.grid")
    stages = ["I", "II", "III", "eval"] if args.stage == "all" else [args.stage]
    for stage in stages:
        if stage == "eval":
            counts = {"v2v": cfg.get_int("data.eval_cases")}
            fams = cfg.get_strs("data.eval_families")
            manifest = generate_dataset(out / "eval", seed + 90001, counts, grid, v2v_families=fams)
            _emit_cases(out / "eval", limit=20)
        else:
            counts = harness.dataset_counts(cfg, stage)
            manifest = generate_dataset(out / f"stage_{stage}", seed + harness.STAGES.index(stage) + 1,
                                        counts, grid, v2v_families=cfg.get_strs("data.train_families"))
        print(f"wrote {manifest['total']} records for {stage} under {out}")
    return 0


def _emit_cases(dataset_dir: Path, limit: int) -> None:
    case_dir = dataset_dir / "cases"
    case_dir.mkdir(exist_ok=True)
    cases = (rec for rec in Dataset(dataset_dir).records if rec["kind"] == "case")
    for rec in itertools.islice(cases, limit):
        with open(case_dir / f"case_{rec['index']:05d}.json", "w") as fh:
            json.dump(rec, fh, sort_keys=True)


def _require_at_least(flag: str, value: int | None, low: int) -> None:
    if value is not None and value < low:
        raise ConfigError(f"{flag}: expected an integer >= {low}, got {value}")


def cmd_train(args) -> int:
    _require_at_least("--log-every", args.log_every, 0)
    cfg, seed = _load(args)
    if args.checkpoint_every is not None:
        cfg.set("train.checkpoint_every", args.checkpoint_every)
    out = _out_dir(args, "runs")
    data = Dataset(args.data)
    run = harness.RunConfig.from_config(cfg)
    bundle = harness.ModelBundle(cfg)
    resume = Checkpoint.load(args.resume) if args.resume else None
    stage_cfg = harness.StageConfig.from_config(cfg, args.stage)
    _, final = harness.run_stage(
        bundle, stage_cfg, data, run, seed, resume=resume, checkpoint_dir=out,
        checkpoint_every=cfg.get_int("train.checkpoint_every"), log_every=args.log_every,
    )
    print(f"stage {args.stage} complete at step {final.step}; checkpoint in {out}")
    return 0


def _one_case(args, default_out: str):
    """What `plan`, `render` and `edit` start from: run config, seed, output directory,
    bundle, the EMA weights to run with (None unless `infer.use_ema`) and the case."""
    cfg, seed = _load(args)
    out = _out_dir(args, default_out)
    bundle, ema = _bundle_from_ckpt(cfg, args.ckpt)
    case = load_case(args.case, bundle)
    run = harness.RunConfig.from_config(cfg)
    return run, seed, out, bundle, ema if run.use_ema else None, case


def cmd_plan(args) -> int:
    run, seed, out, bundle, ema, case = _one_case(args, "plan_out")
    with harness.ema_weights(bundle, ema):
        result = harness.plan_case(bundle, run, case, Rng(seed).child(0xED17))
    tensorio.write_tensor(out / "embeddings.pft", result.embeddings)
    tensorio.write_tensor(out / "hidden.pft", result.hidden)
    report = {
        "masked_counts": result.masked_counts,
        "mean_pred_norm": [round(x, 6) for x in result.mean_pred_norm],
        "seed": seed,
    }
    (out / "plan_report.txt").write_text(
        "".join(f"{k} {v}\n" for k, v in sorted(report.items()))
    )
    print(f"plan written to {out}")
    return 0


def cmd_render(args) -> int:
    run, seed, out, bundle, ema, case = _one_case(args, "render_out")
    with harness.ema_weights(bundle, ema):
        latent = harness.render_case(bundle, run, case, None, Rng(seed).child(0xD1))
    tensorio.write_tensor(out / "latent.pft", latent)
    tensorio.write_tensor(out / "frames.pft", frames_to_ids(bundle.vae.decode(latent)).astype(np.float64))
    print(f"render written to {out}")
    return 0


def cmd_edit(args) -> int:
    run, seed, out, bundle, ema, case = _one_case(args, "edit_out")
    if args.task is not None and case.task.value != args.task.lower():
        raise ConfigError(f"case is {case.task.value!r}, not {args.task!r}")
    ids, report = harness.edit_case(bundle, run, case, seed, ema)
    tensorio.write_tensor(out / "frames.pft", ids.astype(np.float64))
    (out / "report.txt").write_text("".join(f"{k} {report[k]}\n" for k in sorted(report)))
    print(f"edit written to {out}: pass={report['oracle_pass']}")
    return 0


def cmd_eval(args) -> int:
    _require_at_least("--max-cases", args.max_cases, 1)
    cfg, seed = _load(args)
    out = _out_dir(args, "eval_out")
    data = Dataset(args.data)
    bundle, ema = _bundle_from_ckpt(cfg, args.ckpt)
    run = harness.RunConfig.from_config(cfg)
    report = harness.evaluate(
        bundle, data, run, seed, ema=ema,
        random_baseline=args.baseline == "random",
        max_cases=args.max_cases, with_invariants=True,
    )
    (out / "report.txt").write_text(report.to_text())
    with open(out / "report.json", "w") as fh:
        json.dump(dataclasses.asdict(report), fh, indent=2, sort_keys=True)
    print(report.to_text(), end="")
    print(f"(runtime {report.runtime_seconds:.1f}s: plan {report.plan_seconds:.1f}s, "
          f"render {report.render_seconds:.1f}s; details in {out})")
    return 0


def cmd_check(args) -> int:
    _load(args)
    results = harness.invariant_suite()
    for name, ok, detail in results:
        mark = "ok  " if ok else "FAIL"
        line = f"{mark} {name}"
        if detail and not ok:
            line += f": {detail}"
        print(line)
    failed = sum(1 for _, ok, _ in results if not ok)
    print(f"{len(results) - failed}/{len(results)} invariants hold")
    return 1 if failed else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "gen-data": cmd_gen_data,
        "train": cmd_train,
        "plan": cmd_plan,
        "render": cmd_render,
        "edit": cmd_edit,
        "eval": cmd_eval,
        "check": cmd_check,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, CheckpointError, DomainError, GuidanceValidationError, harness.StartupError,
            harness.NonFiniteError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
