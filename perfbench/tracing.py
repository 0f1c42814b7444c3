"""Span tracer that times calls into planflow's modules from outside the package.

`Tracer.install()` replaces selected functions and methods of the planflow
modules with timing wrappers, wherever the function object is bound (so
`from .numerics import matmul` in another module is wrapped too);
`uninstall()` puts the originals back. Nothing under `src/` changes.

Every wrapped call adds its duration and its self time (duration minus the
time of wrapped calls made inside it) to counters keyed by the tracer's
current group ("setup", "edit/<task>", or a training stage). Calls into layer
functions also become spans: name, start, end, parent span and request id,
kept in memory and written out by `write_spans`. The numerics primitives are
only counted, never kept as spans, so memory stays bounded on long runs.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

PRIMITIVES = ("matmul", "softmax_rows", "layernorm", "gelu", "rotate_pairs",
              "add", "mul", "narrow", "concat", "embedding")


def _matmul_flops(args, out) -> float:
    """2*m*k*n from the operand shapes; counts forward products only."""
    m, k = args[0].shape
    return 2.0 * m * k * args[1].shape[1]


def _tape_nodes(args, out) -> float:
    return float(len(out.nodes))


def _saved_bytes(args, out) -> float:
    return float(os.path.getsize(args[1]))


# (module, attribute path, metric name, keep spans, extra quantity)
TARGETS = [
    *[("numerics", p, f"numerics.{p}", False, _matmul_flops if p == "matmul" else None)
      for p in PRIMITIVES],
    ("numerics", "backward", "numerics.backward", True, None),
    ("numerics", "Graph.trace", "numerics.Graph.trace", False, _tape_nodes),
    ("nets", "self_attention", "nets.self_attention", True, None),
    ("nets", "cross_attention", "nets.cross_attention", True, None),
    ("nets", "mlp", "nets.mlp", True, None),
    ("posenc", "spatial_angles", "posenc.spatial_angles", True, None),
    ("sequence", "serialize", "sequence.serialize", True, None),
    ("sequence", "apply_target_mask", "sequence.apply_target_mask", True, None),
    ("planner", "plan", "planner.plan", True, None),
    ("planner", "planner_forward", "planner.planner_forward", True, None),
    ("planner", "decoder_forward", "planner.decoder_forward", True, None),
    ("renderer", "render", "renderer.render", True, None),
    ("renderer", "renderer_forward", "renderer.renderer_forward", True, None),
    ("renderer", "ToyVae.encode", "renderer.ToyVae.encode", True, None),
    ("renderer", "ToyVae.decode", "renderer.ToyVae.decode", True, None),
    ("guidance", "compose", "guidance.compose", True, None),
    ("harness", "edit_case", "harness.edit_case", True, None),
    ("harness", "run_stage", "harness.run_stage", True, None),
    ("harness", "planner_sequence", "harness.planner_sequence", True, None),
    ("harness", "renderer_sources", "harness.renderer_sources", True, None),
    ("harness", "Adam.step", "harness.Adam.step", True, None),
    ("harness", "ema_update", "harness.ema_update", True, None),
    ("harness", "ema_weights.__enter__", "harness.ema_weights", True, None),
    ("harness", "ema_weights.__exit__", "harness.ema_weights", True, None),
    ("toydata", "generate_dataset", "toydata.generate_dataset", True, None),
    ("toydata", "Dataset.__init__", "toydata.Dataset.load", True, None),
    ("toydata", "oracle_scores", "toydata.oracle_scores", True, None),
    ("toydata", "EditCase.from_dict", "toydata.EditCase.from_dict", True, None),
    ("checkpoint", "Checkpoint.save", "checkpoint.save", True, _saved_bytes),
    ("checkpoint", "Checkpoint.load", "checkpoint.load", True, None),
]


class Tracer:
    def __init__(self):
        self.group = "setup"
        self.request: object = None
        # (group, name) -> [calls, total seconds, self seconds]
        self.stats: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        # (group, name) -> summed extra quantity (flops, tape nodes, bytes)
        self.extra: dict[tuple[str, str], float] = defaultdict(float)
        self.spans: list[list] = []  # [name, start, end, parent index, request]
        self._stack: list[list] = []  # [child seconds, index of nearest span]
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "planflow" or name.startswith("planflow.")]
        for mod_name, attr, metric, keep_span, extra in TARGETS:
            mod = importlib.import_module(f"planflow.{mod_name}")
            owner_name, _, member = attr.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name)
                raw = owner.__dict__[member]
                is_cm = isinstance(raw, classmethod)
                fn = raw.__func__ if is_cm else raw
                wrapped = self._wrap(fn, metric, keep_span, extra)
                setattr(owner, member, classmethod(wrapped) if is_cm else wrapped)
                self._undo.append((owner, member, raw))
                continue
            fn = getattr(mod, member)
            wrapped = self._wrap(fn, metric, keep_span, extra)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, name, wrapped)
                        self._undo.append((m, name, fn))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    def _wrap(self, fn, metric: str, keep_span: bool, extra):
        stats, extras, stack, spans = self.stats, self.extra, self._stack, self.spans
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            frame = [0.0, parent]
            if keep_span:
                frame[1] = len(spans)
                spans.append([metric, 0.0, 0.0, parent, tracer.request])
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                st = stats[(tracer.group, metric)]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if keep_span:
                    span = spans[frame[1]]
                    span[1], span[2] = t0, t1
            if extra is not None:
                extras[(tracer.group, metric)] += extra(args, out)
            return out

        return wrapper

    # -- queries ------------------------------------------------------------

    def total(self, groups, metric: str) -> tuple[int, float, float]:
        """(calls, total seconds, self seconds) summed over `groups`."""
        calls, tot, own = 0, 0.0, 0.0
        for g in groups:
            st = self.stats.get((g, metric))
            if st:
                calls += st[0]
                tot += st[1]
                own += st[2]
        return calls, tot, own

    def extra_total(self, groups, metric: str) -> float:
        return sum(self.extra.get((g, metric), 0.0) for g in groups)

    def groups(self) -> set[str]:
        return {g for g, _ in self.stats}

    def write_spans(self, path: Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps([name, start - origin, end - origin, parent, request]) + "\n")
