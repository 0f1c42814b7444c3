"""Procedural toy scenes, edit cases with programmatic oracles, and pair mining.

A scene is a (T, H, W) grid over a small palette, rasterized deterministically
from a list of moving objects. Edit cases pair a source scene with an edited
target plus a token instruction in a fixed grammar
("OP COLOR SHAPE [TO COLOR|SHAPE] [AT CELL]"); the oracle for each family is a
pixel predicate that checks the edited attribute and untouched-object identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .numerics import Rng
from .schedules import TaskKind

PALETTE_SIZE = 6  # background 0 + five object colors
BACKGROUND = 0

SHAPES = ("square", "circle", "bar")
COLOR_TOKENS = {1: "red", 2: "green", 3: "blue", 4: "yellow", 5: "white"}
DIRECTIONS = {"up": (-1, 0), "down": (1, 0), "left": (0, -1), "right": (0, 1), "stay": (0, 0)}

MAX_COORD = 16

VOCAB: tuple[str, ...] = (
    "<pad>", "<bos>", "<eos>",
    "recolor", "add", "remove", "replace", "move", "palette",
    "to", "at",
    *SHAPES,
    *COLOR_TOKENS.values(),
    *DIRECTIONS.keys(),
    *[f"y{i}" for i in range(MAX_COORD)],
    *[f"x{i}" for i in range(MAX_COORD)],
)
TOK = {name: i for i, name in enumerate(VOCAB)}
assert len(VOCAB) <= 64


class GenerationError(RuntimeError):
    pass


def encode(*names: str) -> list[int]:
    return [TOK[n] for n in names]


def decode_tokens(ids: Iterable[int]) -> list[str]:
    return [VOCAB[i] for i in ids]


@dataclass(frozen=True)
class ObjectSpec:
    shape: str
    color: int
    size: int
    start: tuple[int, int]       # (row, col) anchor
    velocity: tuple[int, int] = (0, 0)
    orient: str = "h"            # bars only

    def cells_at(self, t: int) -> list[tuple[int, int]]:
        r = self.start[0] + t * self.velocity[0]
        c = self.start[1] + t * self.velocity[1]
        if self.shape == "square":
            return [(r + i, c + j) for i in range(self.size) for j in range(self.size)]
        if self.shape == "circle":
            rad = self.size
            return [
                (r + i, c + j)
                for i in range(-rad, rad + 1)
                for j in range(-rad, rad + 1)
                if i * i + j * j <= rad * rad
            ]
        length = self.size + 2
        if self.orient == "h":
            return [(r, c + j) for j in range(length)]
        return [(r + i, c) for i in range(length)]

    def to_dict(self) -> dict:
        return {
            "shape": self.shape, "color": self.color, "size": self.size,
            "start": list(self.start), "velocity": list(self.velocity), "orient": self.orient,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ObjectSpec":
        return cls(d["shape"], d["color"], d["size"], tuple(d["start"]), tuple(d["velocity"]), d.get("orient", "h"))


@dataclass
class Scene:
    grid: tuple[int, int, int]
    objects: list[ObjectSpec] = field(default_factory=list)
    background: int = BACKGROUND

    def rasterize(self) -> np.ndarray:
        t_len, h, w = self.grid
        frames = np.full((t_len, h, w), self.background, dtype=np.int64)
        for obj in self.objects:
            for t in range(t_len):
                for r, c in obj.cells_at(t):
                    frames[t, r, c] = obj.color
        return frames

    def normalized(self) -> np.ndarray:
        return self.rasterize().astype(np.float64) / (PALETTE_SIZE - 1)

    def in_bounds(self, obj: ObjectSpec) -> bool:
        t_len, h, w = self.grid
        for t in range(t_len):
            for r, c in obj.cells_at(t):
                if not (0 <= r < h and 0 <= c < w):
                    return False
        return True

    def occupied(self, skip: int | None = None) -> set[tuple[int, int, int]]:
        cells = set()
        for i, obj in enumerate(self.objects):
            if i == skip:
                continue
            for t in range(self.grid[0]):
                for r, c in obj.cells_at(t):
                    cells.add((t, r, c))
        return cells

    def to_dict(self) -> dict:
        return {
            "grid": list(self.grid),
            "background": self.background,
            "objects": [o.to_dict() for o in self.objects],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Scene":
        return cls(tuple(d["grid"]), [ObjectSpec.from_dict(o) for o in d["objects"]], d["background"])


def frames_to_ids(frames: np.ndarray) -> np.ndarray:
    """Nearest-palette decode of real-valued normalized frames."""
    return np.clip(np.round(np.asarray(frames) * (PALETTE_SIZE - 1)), 0, PALETTE_SIZE - 1).astype(np.int64)


def _object_cells_mask(scene: Scene, obj: ObjectSpec) -> np.ndarray:
    t_len, h, w = scene.grid
    mask = np.zeros((t_len, h, w), dtype=bool)
    for t in range(t_len):
        for r, c in obj.cells_at(t):
            if 0 <= r < h and 0 <= c < w:
                mask[t, r, c] = True
    return mask


def _sample_object(rng: Rng, scene: Scene, *, moving: bool, occupied: set, retries: int = 200,
                   used_identities: set | None = None) -> ObjectSpec:
    t_len, h, w = scene.grid
    for _ in range(retries):
        shape = SHAPES[rng.integers(0, len(SHAPES))]
        color = int(rng.integers(1, PALETTE_SIZE))
        if used_identities is not None and (color, shape) in used_identities:
            continue
        size = 2 if shape == "square" else 1
        orient = "h" if rng.uniform() < 0.5 else "v"
        if moving and t_len > 1:
            vel = list(DIRECTIONS.values())[rng.integers(0, len(DIRECTIONS))]
        else:
            vel = (0, 0)
        start = (int(rng.integers(0, h)), int(rng.integers(0, w)))
        obj = ObjectSpec(shape, color, size, start, vel, orient)
        if not scene.in_bounds(obj):
            continue
        cells = {(t, r, c) for t in range(t_len) for r, c in obj.cells_at(t)}
        if cells & occupied:
            continue
        return obj
    raise GenerationError("could not place a non-overlapping object within the retry budget")


def gen_scene(rng: Rng, grid: tuple[int, int, int], n_objects: int, moving: bool = True) -> Scene:
    """Deterministic scene with non-overlapping objects and unique (color, shape) ids."""
    if n_objects < 0:
        raise GenerationError(f"n_objects must be >= 0, got {n_objects}")
    scene = Scene(grid=tuple(int(d) for d in grid))
    used: set[tuple[int, str]] = set()
    occupied: set[tuple[int, int, int]] = set()
    for _ in range(n_objects):
        obj = _sample_object(rng, scene, moving=moving, occupied=occupied, used_identities=used)
        scene.objects.append(obj)
        used.add((obj.color, obj.shape))
        occupied |= {(t, r, c) for t in range(grid[0]) for r, c in obj.cells_at(t)}
    return scene


@dataclass
class EditCase:
    task: TaskKind
    family: str
    instruction: list[int]
    target: Scene
    source: Scene | None = None
    reference: Scene | None = None
    edit: dict = field(default_factory=dict)  # family-specific oracle parameters

    def to_dict(self) -> dict:
        return {
            "task": self.task.value,
            "family": self.family,
            "instruction": list(self.instruction),
            "target": self.target.to_dict(),
            "source": self.source.to_dict() if self.source else None,
            "reference": self.reference.to_dict() if self.reference else None,
            "edit": self.edit,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EditCase":
        return cls(
            task=TaskKind(d["task"]),
            family=d["family"],
            instruction=list(d["instruction"]),
            target=Scene.from_dict(d["target"]),
            source=Scene.from_dict(d["source"]) if d.get("source") else None,
            reference=Scene.from_dict(d["reference"]) if d.get("reference") else None,
            edit=d.get("edit", {}),
        )


def _coord_tokens(r: int, c: int) -> list[str]:
    return [f"y{r}", f"x{c}"]


def _direction_name(vel: tuple[int, int]) -> str:
    for name, v in DIRECTIONS.items():
        if tuple(v) == tuple(vel):
            return name
    return "stay"


def edited_mask(case: EditCase) -> np.ndarray:
    """Cells whose value the edit is responsible for (union of old and new)."""
    target = case.target
    kind = case.family
    if kind in ("generate", "animate"):
        obj = ObjectSpec.from_dict(case.edit["object"])
        return _object_cells_mask(target, obj)
    if kind == "recolor":
        return _object_cells_mask(target, ObjectSpec.from_dict(case.edit["new"]))
    if kind == "remove":
        assert case.source is not None
        return _object_cells_mask(case.source, ObjectSpec.from_dict(case.edit["old"]))
    if kind == "add":
        return _object_cells_mask(target, ObjectSpec.from_dict(case.edit["new"]))
    if kind in ("replace", "move"):
        assert case.source is not None
        old = _object_cells_mask(case.source, ObjectSpec.from_dict(case.edit["old"]))
        new = _object_cells_mask(target, ObjectSpec.from_dict(case.edit["new"]))
        return old | new
    if kind == "palette":
        assert case.source is not None
        return case.source.rasterize() == case.edit["color_a"]
    raise ValueError(f"unknown edit family {kind!r}")


def comparison_frames(case: EditCase) -> np.ndarray:
    """Ground truth for the untouched region: the source when its grid matches
    the target's, the target itself otherwise (pure generation tasks)."""
    if case.source is not None and case.source.grid == case.target.grid:
        return case.source.rasterize()
    return case.target.rasterize()


def oracle_scores(case: EditCase, frames_ids: np.ndarray) -> tuple[float, float]:
    """(edited-region accuracy, untouched-region agreement) of candidate frames."""
    mask = edited_mask(case)
    target = case.target.rasterize()
    keep_ref = comparison_frames(case)
    edited_acc = float((frames_ids[mask] == target[mask]).mean()) if mask.any() else 1.0
    keep = ~mask
    keep_acc = float((frames_ids[keep] == keep_ref[keep]).mean()) if keep.any() else 1.0
    return edited_acc, keep_acc


def oracle_passes(case: EditCase, frames_ids: np.ndarray,
                  edit_threshold: float = 0.8, keep_threshold: float = 0.8) -> bool:
    edited_acc, keep_acc = oracle_scores(case, frames_ids)
    return edited_acc >= edit_threshold and keep_acc >= keep_threshold


def _pick_color(rng: Rng, exclude: set[int]) -> int:
    choices = [c for c in COLOR_TOKENS if c not in exclude]
    return choices[rng.integers(0, len(choices))]


def gen_edit_case(rng: Rng, task: TaskKind, grid: tuple[int, int, int] = (2, 8, 8),
                  families: tuple[str, ...] | None = None) -> EditCase:
    """One procedurally generated task instance with oracle ground truth."""
    task = TaskKind(task)
    image_grid = (1, grid[1], grid[2])
    if task in (TaskKind.T2I, TaskKind.T2V):
        g = image_grid if task == TaskKind.T2I else grid
        target = gen_scene(rng, g, 1, moving=task == TaskKind.T2V)
        obj = target.objects[0]
        toks = ["<bos>", "add", COLOR_TOKENS[obj.color], obj.shape, "at",
                *_coord_tokens(*obj.start)]
        if task == TaskKind.T2V:
            toks.append(_direction_name(obj.velocity))
        toks.append("<eos>")
        return EditCase(task, "generate", encode(*toks), target,
                        edit={"object": obj.to_dict()})
    if task == TaskKind.I2V:
        scene = gen_scene(rng, grid, 1, moving=True)
        obj = scene.objects[0]
        first = Scene(image_grid, [ObjectSpec(obj.shape, obj.color, obj.size, obj.start, (0, 0), obj.orient)])
        toks = ["<bos>", "move", COLOR_TOKENS[obj.color], obj.shape, _direction_name(obj.velocity), "<eos>"]
        return EditCase(task, "animate", encode(*toks), scene, source=first,
                        edit={"object": obj.to_dict()})
    if task == TaskKind.IV2V:
        return _gen_reference_replace(rng, grid)
    # editing families on matching grids
    g = image_grid if task == TaskKind.I2I else grid
    fams = families or ("recolor", "remove", "add", "replace", "move", "palette")
    family = fams[rng.integers(0, len(fams))]
    return _gen_edit(rng, task, g, family)


def _gen_edit(rng: Rng, task: TaskKind, grid, family: str, retries: int = 100) -> EditCase:
    for _ in range(retries):
        n_obj = 1 + (1 if rng.uniform() < 0.35 else 0)
        source = gen_scene(rng, grid, n_obj, moving=grid[0] > 1)
        idx = int(rng.integers(0, len(source.objects)))
        obj = source.objects[idx]
        others = [o for i, o in enumerate(source.objects) if i != idx]
        cname, sname = COLOR_TOKENS[obj.color], obj.shape

        if family == "recolor":
            new_color = _pick_color(rng, {obj.color})
            new_obj = ObjectSpec(obj.shape, new_color, obj.size, obj.start, obj.velocity, obj.orient)
            target = Scene(source.grid, others + [new_obj])
            toks = ["<bos>", "recolor", cname, sname, "to", COLOR_TOKENS[new_color], "<eos>"]
            return EditCase(task, family, encode(*toks), target, source=source,
                            edit={"old": obj.to_dict(), "new": new_obj.to_dict()})

        if family == "remove":
            target = Scene(source.grid, list(others))
            toks = ["<bos>", "remove", cname, sname, "<eos>"]
            return EditCase(task, family, encode(*toks), target, source=source,
                            edit={"old": obj.to_dict()})

        if family == "add":
            target = Scene(source.grid, list(source.objects))
            try:
                new_obj = _sample_object(
                    rng, target, moving=False, occupied=source.occupied(),
                    used_identities={(o.color, o.shape) for o in source.objects},
                )
            except GenerationError:
                continue
            target.objects.append(new_obj)
            toks = ["<bos>", "add", COLOR_TOKENS[new_obj.color], new_obj.shape, "at",
                    *_coord_tokens(*new_obj.start), "<eos>"]
            return EditCase(task, family, encode(*toks), target, source=source,
                            edit={"new": new_obj.to_dict()})

        if family == "replace":
            new_shape = SHAPES[rng.integers(0, len(SHAPES))]
            if new_shape == obj.shape:
                continue
            new_color = _pick_color(rng, {o.color for o in source.objects})
            size = 2 if new_shape == "square" else 1
            new_obj = ObjectSpec(new_shape, new_color, size, obj.start, obj.velocity, obj.orient)
            target = Scene(source.grid, others + [new_obj])
            if not target.in_bounds(new_obj):
                continue
            new_cells = {(t, r, c) for t in range(grid[0]) for r, c in new_obj.cells_at(t)}
            if new_cells & Scene(source.grid, others).occupied():
                continue
            toks = ["<bos>", "replace", cname, sname, "to", COLOR_TOKENS[new_color], new_shape, "<eos>"]
            return EditCase(task, family, encode(*toks), target, source=source,
                            edit={"old": obj.to_dict(), "new": new_obj.to_dict()})

        if family == "move":
            still = ObjectSpec(obj.shape, obj.color, obj.size, obj.start, (0, 0), obj.orient)
            src_static = Scene(source.grid, others + [still])
            dest = (int(rng.integers(0, grid[1])), int(rng.integers(0, grid[2])))
            if max(abs(dest[0] - obj.start[0]), abs(dest[1] - obj.start[1])) < 3:
                continue
            new_obj = ObjectSpec(obj.shape, obj.color, obj.size, dest, (0, 0), obj.orient)
            target = Scene(source.grid, others + [new_obj])
            if not target.in_bounds(new_obj):
                continue
            old_cells = {(t, r, c) for t in range(grid[0]) for r, c in still.cells_at(t)}
            new_cells = {(t, r, c) for t in range(grid[0]) for r, c in new_obj.cells_at(t)}
            if new_cells & (Scene(source.grid, others).occupied() | old_cells):
                continue
            toks = ["<bos>", "move", cname, sname, "to", *_coord_tokens(*dest), "<eos>"]
            return EditCase(task, family, encode(*toks), target, source=src_static,
                            edit={"old": still.to_dict(), "new": new_obj.to_dict()})

        if family == "palette":
            color_b = _pick_color(rng, {o.color for o in source.objects})
            new_objs = [
                ObjectSpec(o.shape, color_b if o.color == obj.color else o.color,
                           o.size, o.start, o.velocity, o.orient)
                for o in source.objects
            ]
            target = Scene(source.grid, new_objs)
            toks = ["<bos>", "palette", cname, "to", COLOR_TOKENS[color_b], "<eos>"]
            return EditCase(task, family, encode(*toks), target, source=source,
                            edit={"color_a": obj.color, "color_b": color_b})

        raise ValueError(f"unknown edit family {family!r}")
    raise GenerationError(f"could not generate a {family} case within the retry budget")


def _gen_reference_replace(rng: Rng, grid, retries: int = 100) -> EditCase:
    image_grid = (1, grid[1], grid[2])
    for _ in range(retries):
        source = gen_scene(rng, grid, 1, moving=True)
        obj = source.objects[0]
        new_shape = SHAPES[rng.integers(0, len(SHAPES))]
        new_color = _pick_color(rng, {obj.color})
        size = 2 if new_shape == "square" else 1
        new_obj = ObjectSpec(new_shape, new_color, size, obj.start, obj.velocity, obj.orient)
        target = Scene(source.grid, [new_obj])
        if not target.in_bounds(new_obj) or (new_shape == obj.shape and new_color == obj.color):
            continue
        ref_scene = Scene(image_grid)
        try:
            anchor = _sample_object(rng, ref_scene, moving=False, occupied=set())
        except GenerationError:
            continue
        ref_scene.objects.append(ObjectSpec(new_shape, new_color, size, anchor.start, (0, 0), new_obj.orient))
        if not ref_scene.in_bounds(ref_scene.objects[0]):
            continue
        toks = ["<bos>", "replace", COLOR_TOKENS[obj.color], obj.shape, "<eos>"]
        return EditCase(TaskKind.IV2V, "replace", encode(*toks), target, source=source,
                        reference=ref_scene,
                        edit={"old": obj.to_dict(), "new": new_obj.to_dict()})
    raise GenerationError("could not generate a reference-replace case")


# ---------------------------------------------------------------------------
# pair mining
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairRecord:
    clip_a: Scene
    clip_b: Scene
    similarity: float


def clip_similarity(a: Scene, b: Scene) -> float:
    """Normalized cross-correlation of temporally averaged frames, in [0, 1]."""
    fa = a.normalized().mean(axis=0).ravel()
    fb = b.normalized().mean(axis=0).ravel()
    if np.array_equal(fa, fb):
        return 1.0
    fa = fa - fa.mean()
    fb = fb - fb.mean()
    na, nb = np.linalg.norm(fa), np.linalg.norm(fb)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.clip(np.dot(fa, fb) / (na * nb), 0.0, 1.0))


def mine_pairs(pool: list[Scene], rng: Rng, band: tuple[float, float] = (0.65, 0.95),
               per_origin_cap: int = 100) -> list[PairRecord]:
    """Retain pairs inside the similarity band, at most `per_origin_cap` per origin."""
    records: list[PairRecord] = []
    for i in range(len(pool)):
        kept = 0
        order = i + 1 + rng.permutation(len(pool) - i - 1)
        for j in order:
            sim = clip_similarity(pool[i], pool[int(j)])
            if band[0] <= sim <= band[1]:
                records.append(PairRecord(pool[i], pool[int(j)], sim))
                kept += 1
                if kept >= per_origin_cap:
                    break
    return records


def gen_pair_pool(rng: Rng, grid, n_base: int, variants: int = 4) -> list[Scene]:
    """Clusters of perturbed variants of base scenes; pairs inside a cluster
    land across the whole similarity range."""
    pool: list[Scene] = []
    for _ in range(n_base):
        base = gen_scene(rng, grid, 2, moving=grid[0] > 1)
        pool.append(base)
        for _ in range(variants):
            variant = Scene(base.grid, list(base.objects))
            k = int(rng.integers(0, len(base.objects)))
            obj = variant.objects[k]
            if rng.uniform() < 0.5:
                moved = ObjectSpec(obj.shape, obj.color, obj.size,
                                   (obj.start[0], obj.start[1]), obj.velocity, obj.orient)
                for _ in range(20):
                    dr, dc = int(rng.integers(-2, 3)), int(rng.integers(-2, 3))
                    cand = ObjectSpec(obj.shape, obj.color, obj.size,
                                      (obj.start[0] + dr, obj.start[1] + dc), obj.velocity, obj.orient)
                    if variant.in_bounds(cand):
                        moved = cand
                        break
                variant.objects[k] = moved
            else:
                variant.objects[k] = ObjectSpec(obj.shape, _pick_color(rng, {obj.color}),
                                                obj.size, obj.start, obj.velocity, obj.orient)
            pool.append(variant)
    return pool


# ---------------------------------------------------------------------------
# dataset files
# ---------------------------------------------------------------------------

TEXT_TASK = "text"
PAIR_TASK = "pair"


def gen_text_record(rng: Rng, grid) -> dict:
    """Instruction-only sample for next-token-prediction training."""
    task = [TaskKind.T2V, TaskKind.V2V, TaskKind.I2I, TaskKind.T2I][rng.integers(0, 4)]
    case = gen_edit_case(rng, task, grid)
    return {"kind": TEXT_TASK, "instruction": list(case.instruction)}


def generate_dataset(out_dir: str | Path, seed: int, counts: dict[str, int],
                     grid: tuple[int, int, int] = (2, 8, 8),
                     v2v_families: tuple[str, ...] | None = None) -> dict:
    """Write records.jsonl + manifest.json; returns the manifest. Frames are
    rasterized from the records, so no pixel data is stored."""
    import json

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    root = Rng(seed)
    records = []
    index = 0
    for task_name in sorted(counts):
        n = counts[task_name]
        for k in range(n):
            rng = root.child(index)
            if task_name == TEXT_TASK:
                rec = gen_text_record(rng, grid)
            elif task_name == PAIR_TASK:
                pool = gen_pair_pool(rng, grid, 2, variants=3)
                pairs = mine_pairs(pool, rng)
                if not pairs:
                    a = gen_scene(rng, grid, 2)
                    pairs = [PairRecord(a, a, 0.9)]
                pair = pairs[rng.integers(0, len(pairs))]
                rec = {
                    "kind": PAIR_TASK,
                    "a": pair.clip_a.to_dict(),
                    "b": pair.clip_b.to_dict(),
                    "similarity": pair.similarity,
                }
            else:
                task = TaskKind(task_name)
                fams = v2v_families if task in (TaskKind.V2V, TaskKind.I2I) else None
                case = gen_edit_case(rng, task, grid, families=fams)
                rec = {"kind": "case", **case.to_dict()}
            rec["index"] = index
            records.append(rec)
            index += 1
    with open(out_dir / "records.jsonl", "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    manifest = {
        "version": 1,
        "seed": seed,
        "grid": list(grid),
        "counts": {k: counts[k] for k in sorted(counts)},
        "total": index,
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return manifest


class Dataset:
    """In-memory view over a generated dataset directory."""

    def __init__(self, root: str | Path):
        import json

        self.root = Path(root)
        with open(self.root / "manifest.json") as fh:
            self.manifest = json.load(fh)
        self.records: list[dict] = []
        with open(self.root / "records.jsonl") as fh:
            for line in fh:
                self.records.append(json.loads(line))
        self.by_task: dict[str, list[int]] = {}
        for i, rec in enumerate(self.records):
            key = rec.get("task", rec["kind"])
            self.by_task.setdefault(key, []).append(i)

    def __len__(self) -> int:
        return len(self.records)

    def case(self, i: int) -> EditCase:
        rec = self.records[i]
        if rec["kind"] != "case":
            raise ValueError(f"record {i} is a {rec['kind']} record, not a case")
        return EditCase.from_dict(rec)
