"""planflow benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload edit_small --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout; it imports planflow from `src/`
there and exits with code 2, printing no result, when that is missing.
`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
(see README.md in this directory). The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Any failed output
check makes the exit code 1.
"""

import os

# one BLAS thread, set before numpy is first imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench_runs"


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "commit": _commit(),
    }


def end_to_end(out) -> dict[str, tuple[float, str]]:
    """The gated metrics: each operation's time is its fastest repeat in the run."""
    import workloads

    best = out.best_s
    tail, _ = workloads.per_op_tail(best * len(out.passes))
    return {
        "setup_s": (statistics.median(out.setup_s), "s"),
        "best_op_ms.p50": (1000.0 * statistics.median(best), "ms"),
        "best_op_ms.tail": (1000.0 * tail, "ms"),
        "best_ops_per_s": (len(best) / sum(best), "1/s"),
        "peak_rss_mb": (workloads.peak_rss_mb(), "MB"),
    }


def raw_timings(out) -> list[tuple[str, float, str, str]]:
    """Every call's own time, for the report: what one pass through the work sees."""
    import workloads

    op_s = out.op_s
    tail, pct = workloads.per_op_tail(op_s)
    n = f"{len(op_s)} calls"
    return [
        ("op_ms.p50", 1000.0 * statistics.median(op_s), "ms", f"median of {n}"),
        ("op_ms.tail", 1000.0 * tail, "ms", f"p{pct:.2f}: 11th-slowest of {n}"),
        ("ops_per_s", len(op_s) / sum(op_s), "1/s", ""),
    ]


def run(workload: str, seed: int, seconds: float, trace: bool, runs_dir: Path) -> dict:
    """Run one workload and return the result record (also written under `runs_dir`)."""
    import workloads
    from planflow import harness
    from tracing import Tracer

    spec = workloads.WORKLOADS[workload]
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    workdir = runs_dir / f"{tag}-pid{os.getpid()}"
    tracer = Tracer() if trace else None
    try:
        out = spec.run(spec.config, seed, seconds, workdir, tracer)
        # once per run: the package's own invariant suite
        for name, ok, detail in harness.invariant_suite(quick=True):
            out.check(ok, f"invariant {name}: {detail}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = end_to_end(out) if out.passes else {}
    report = list(out.report)
    if out.passes:
        report += raw_timings(out)
    report += [(name, value, unit, "untraced" if trace else "") for name, (value, unit) in e2e.items()]
    if trace:
        metrics = out.layers
        report += [(name, value, unit, "") for name, (value, unit) in metrics.items()]
        report += [(f"renderer.forwards_per_render.{task}", n, "count", "renderer_forward calls per render")
                   for task, n in workloads.forwards_per_render_by_task(tracer).items()]
    else:
        metrics = e2e
    report += [("ops.attempted", out.attempted, "count", ""), ("ops.failed", out.failed, "count", "")]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(),
        "report": report,
        "failures": out.failures,
        "passes": out.passes,
        "result": {
            "correct": out.failed == 0 and bool(out.passes),
            "attempted": out.attempted,
            "failed": out.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        },
    }
    runs_dir.mkdir(parents=True, exist_ok=True)
    (runs_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        tracer.write_spans(runs_dir / f"{tag}.spans.jsonl")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "planflow" / "__init__.py").is_file():
        print(f"error: no planflow sources at {SRC}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import planflow
    import workloads

    if not Path(planflow.__file__).resolve().is_relative_to(SRC):
        print(f"error: planflow imported from {planflow.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    record = run(args.workload, args.seed, args.seconds, bool(args.trace), RUNS_DIR)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# environment {json.dumps(record['environment'], sort_keys=True)}")
    for name, value, unit, note in record["report"]:
        print(f"{name:44s} {value:>14.6g} {unit:8s} {note}")
    for failure in record["failures"]:
        print(f"FAILED: {failure}")
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
