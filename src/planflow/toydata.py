"""Procedural toy scenes, edit cases with programmatic oracles, and pair mining.

A scene is a (T, H, W) grid over a small palette, rasterized deterministically
from a list of moving objects. Edit cases pair a source scene with an edited
target plus a token instruction in a fixed grammar
("OP COLOR SHAPE [TO COLOR|SHAPE] [AT CELL]"); the oracle for each family is a
pixel predicate that checks the edited attribute and untouched-object identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .config import ConfigError
from .numerics import Rng
from .schedules import TaskKind

PALETTE_SIZE = 6  # background 0 + five object colors
BACKGROUND = 0

SHAPES = ("square", "circle", "bar")
COLOR_TOKENS = {1: "red", 2: "green", 3: "blue", 4: "yellow", 5: "white"}
DIRECTIONS = {"up": (-1, 0), "down": (1, 0), "left": (0, -1), "right": (0, 1), "stay": (0, 0)}
EDIT_FAMILIES = ("recolor", "remove", "add", "replace", "move", "palette")
# every family the oracle scores -> the edit fields it reads; it reads "old" and "color_a" in the source
ORACLE_FIELDS = {"generate": ("object",), "animate": ("object",), "recolor": ("new",), "remove": ("old",),
                 "add": ("new",), "replace": ("old", "new"), "move": ("old", "new"), "palette": ("color_a",)}
SOURCE_FAMILIES = {family for family, names in ORACLE_FIELDS.items() if {"old", "color_a"} & set(names)}

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
# longest instruction, one learned renderer text position each; the grammar's longest has 9 tokens
MAX_TEXT_TOKENS = 16


class GenerationError(RuntimeError):
    pass


def encode(*names: str) -> list[int]:
    return [TOK[n] for n in names]


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

    def cells(self, t_len: int) -> set[tuple[int, int, int]]:
        """The (t, r, c) cells the object covers over `t_len` frames."""
        return {(t, r, c) for t in range(t_len) for r, c in self.cells_at(t)}

    def to_dict(self) -> dict:
        return {
            "shape": self.shape, "color": self.color, "size": self.size,
            "start": list(self.start), "velocity": list(self.velocity), "orient": self.orient,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ObjectSpec":
        """An object record; refuses an unknown shape, orient or colour, a
        size below 1 and a start or velocity that is not two integers."""
        obj = cls(d["shape"], d["color"], d["size"], tuple(d["start"]), tuple(d["velocity"]), d.get("orient", "h"))
        for name, pair in (("start", obj.start), ("velocity", obj.velocity)):
            if len(pair) != 2 or not all(isinstance(n, int) for n in pair):
                raise ValueError(f"object {name} {list(pair)} is not two integers")
        if obj.shape not in SHAPES:
            raise ValueError(f"unknown shape {obj.shape!r}; expected one of {', '.join(SHAPES)}")
        if obj.orient not in ("h", "v"):
            raise ValueError(f"orient {obj.orient!r} is neither 'h' nor 'v'")
        if obj.color not in COLOR_TOKENS:
            raise ValueError(f"object color {obj.color!r} is not one of the object colors 1-5")
        if not (isinstance(obj.size, int) and obj.size >= 1):
            raise ValueError(f"object size {obj.size!r} is not a positive integer")
        return obj


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

    def occupied(self) -> set[tuple[int, int, int]]:
        return set().union(*(obj.cells(self.grid[0]) for obj in self.objects))

    def to_dict(self) -> dict:
        return {
            "grid": list(self.grid),
            "background": self.background,
            "objects": [o.to_dict() for o in self.objects],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Scene":
        """A scene record; refuses a grid that is not three positive sizes, a
        background outside the palette and an object that leaves the grid."""
        grid = tuple(d["grid"])
        if len(grid) != 3 or not all(isinstance(n, int) and n > 0 for n in grid):
            raise ValueError(f"grid {list(grid)} is not three positive sizes")
        if not (isinstance(d["background"], int) and 0 <= d["background"] < PALETTE_SIZE):
            raise ValueError(f"background {d['background']!r} is outside the palette [0, {PALETTE_SIZE - 1}]")
        scene = cls(grid, [ObjectSpec.from_dict(o) for o in d["objects"]], d["background"])
        for obj in scene.objects:
            if not scene.in_bounds(obj):
                raise ValueError(f"a {obj.shape} at {list(obj.start)} leaves the grid {list(grid)}")
        return scene


def frames_to_ids(frames: np.ndarray) -> np.ndarray:
    """Nearest-palette decode of real-valued normalized frames."""
    return np.clip(np.round(np.asarray(frames) * (PALETTE_SIZE - 1)), 0, PALETTE_SIZE - 1).astype(np.int64)


def _object_cells_mask(scene: Scene, obj: ObjectSpec) -> np.ndarray:
    t_len, h, w = scene.grid
    mask = np.zeros((t_len, h, w), dtype=bool)
    for t, r, c in obj.cells(t_len):
        if 0 <= r < h and 0 <= c < w:
            mask[t, r, c] = True
    return mask


OBJECT_RETRIES, CASE_RETRIES = 200, 100  # draws before generation gives up on placing an object, on a case


def _sample_object(rng: Rng, scene: Scene, *, moving: bool, occupied: set,
                   used_identities: set | None = None) -> ObjectSpec:
    t_len, h, w = scene.grid
    for _ in range(OBJECT_RETRIES):
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
        if obj.cells(t_len) & occupied:
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
        occupied |= obj.cells(grid[0])
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
        """A case record; refuses a family the oracle does not score, a case
        without an edit field or the source that its family's oracle reads,
        and what `instruction_ids` and the `from_dict` of scenes and objects refuse."""
        family = d["family"]
        if family not in ORACLE_FIELDS:
            raise ValueError(f"unknown family {family!r}; expected one of {', '.join(ORACLE_FIELDS)}")
        case = cls(
            task=TaskKind(d["task"]),
            family=family,
            instruction=instruction_ids(d["instruction"]),
            target=Scene.from_dict(d["target"]),
            source=Scene.from_dict(d["source"]) if d.get("source") else None,
            reference=Scene.from_dict(d["reference"]) if d.get("reference") else None,
            edit=d.get("edit", {}),
        )
        for name in ORACLE_FIELDS[family]:
            if name not in case.edit:
                raise ValueError(f"the edit of a {family} case lacks {name!r}")
            if name != "color_a":
                ObjectSpec.from_dict(case.edit[name])
        if family in SOURCE_FAMILIES and case.source is None:
            raise ValueError(f"a {family} case has no source")
        return case


def instruction_ids(ids) -> list[int]:
    """The token ids of an instruction record; refuses more than
    MAX_TEXT_TOKENS of them and an id outside the vocabulary."""
    ids = list(ids)
    if len(ids) > MAX_TEXT_TOKENS:
        raise ValueError(f"instruction has {len(ids)} tokens, more than {MAX_TEXT_TOKENS}")
    if not all(isinstance(i, int) and 0 <= i < len(VOCAB) for i in ids):
        raise ValueError(f"instruction holds a token id outside [0, {len(VOCAB)}): {ids}")
    return ids


def _coord_tokens(r: int, c: int) -> list[str]:
    return [f"y{r}", f"x{c}"]


def _direction_name(vel: tuple[int, int]) -> str:
    for name, v in DIRECTIONS.items():
        if tuple(v) == tuple(vel):
            return name
    return "stay"


def edited_mask(case: EditCase) -> np.ndarray:
    """Cells whose value the edit is responsible for: the source cells of the
    palette colour that changes, or the union of the old object's cells in
    the source and the new (or generated) object's cells in the target."""
    if case.family == "palette":
        return case.source.rasterize() == case.edit["color_a"]
    masks = [_object_cells_mask(case.source if name == "old" else case.target, ObjectSpec.from_dict(case.edit[name]))
             for name in ORACLE_FIELDS[case.family]]
    return np.logical_or.reduce(masks)


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


# the oracle's bar: least edited-region accuracy and untouched-region agreement
EDIT_THRESHOLD = 0.8
KEEP_THRESHOLD = 0.8


def oracle_passes(scores: tuple[float, float]) -> bool:
    """Whether `oracle_scores` clear both thresholds."""
    edited_acc, keep_acc = scores
    return edited_acc >= EDIT_THRESHOLD and keep_acc >= KEEP_THRESHOLD


def _pick_color(rng: Rng, exclude: set[int]) -> int:
    choices = [c for c in COLOR_TOKENS if c not in exclude]
    return choices[rng.integers(0, len(choices))]


def gen_edit_case(rng: Rng, task: TaskKind, grid: tuple[int, int, int],
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
        first = Scene(image_grid, [replace(obj, velocity=(0, 0))])
        toks = ["<bos>", "move", COLOR_TOKENS[obj.color], obj.shape, _direction_name(obj.velocity), "<eos>"]
        return EditCase(task, "animate", encode(*toks), scene, source=first,
                        edit={"object": obj.to_dict()})
    if task == TaskKind.IV2V:
        return _gen_reference_replace(rng, grid)
    # editing families on matching grids
    g = image_grid if task == TaskKind.I2I else grid
    fams = families or EDIT_FAMILIES
    family = fams[rng.integers(0, len(fams))]
    return _gen_edit(rng, task, g, family)


def _gen_edit(rng: Rng, task: TaskKind, grid, family: str) -> EditCase:
    for _ in range(CASE_RETRIES):
        n_obj = 1 + (1 if rng.uniform() < 0.35 else 0)
        source = gen_scene(rng, grid, n_obj, moving=grid[0] > 1)
        idx = int(rng.integers(0, len(source.objects)))
        obj = source.objects[idx]
        others = [o for i, o in enumerate(source.objects) if i != idx]
        cname, sname = COLOR_TOKENS[obj.color], obj.shape

        if family == "recolor":
            new_color = _pick_color(rng, {obj.color})
            new_obj = replace(obj, color=new_color)
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
            new_obj = replace(obj, shape=new_shape, color=new_color, size=size)
            target = Scene(source.grid, others + [new_obj])
            if not target.in_bounds(new_obj):
                continue
            if new_obj.cells(grid[0]) & Scene(source.grid, others).occupied():
                continue
            toks = ["<bos>", "replace", cname, sname, "to", COLOR_TOKENS[new_color], new_shape, "<eos>"]
            return EditCase(task, family, encode(*toks), target, source=source,
                            edit={"old": obj.to_dict(), "new": new_obj.to_dict()})

        if family == "move":
            still = replace(obj, velocity=(0, 0))
            src_static = Scene(source.grid, others + [still])
            dest = (int(rng.integers(0, grid[1])), int(rng.integers(0, grid[2])))
            if max(abs(dest[0] - obj.start[0]), abs(dest[1] - obj.start[1])) < 3:
                continue
            new_obj = replace(still, start=dest)
            target = Scene(source.grid, others + [new_obj])
            if not target.in_bounds(new_obj):
                continue
            if new_obj.cells(grid[0]) & (Scene(source.grid, others).occupied() | still.cells(grid[0])):
                continue
            toks = ["<bos>", "move", cname, sname, "to", *_coord_tokens(*dest), "<eos>"]
            return EditCase(task, family, encode(*toks), target, source=src_static,
                            edit={"old": still.to_dict(), "new": new_obj.to_dict()})

        if family == "palette":
            color_b = _pick_color(rng, {o.color for o in source.objects})
            new_objs = [replace(o, color=color_b) if o.color == obj.color else o for o in source.objects]
            target = Scene(source.grid, new_objs)
            toks = ["<bos>", "palette", cname, "to", COLOR_TOKENS[color_b], "<eos>"]
            return EditCase(task, family, encode(*toks), target, source=source,
                            edit={"color_a": obj.color, "color_b": color_b})

        raise ValueError(f"unknown edit family {family!r}")
    raise GenerationError(f"could not generate a {family} case within the retry budget")


def _gen_reference_replace(rng: Rng, grid) -> EditCase:
    image_grid = (1, grid[1], grid[2])
    for _ in range(CASE_RETRIES):
        source = gen_scene(rng, grid, 1, moving=True)
        obj = source.objects[0]
        new_shape = SHAPES[rng.integers(0, len(SHAPES))]
        new_color = _pick_color(rng, {obj.color})
        size = 2 if new_shape == "square" else 1
        new_obj = replace(obj, shape=new_shape, color=new_color, size=size)
        target = Scene(source.grid, [new_obj])
        if not target.in_bounds(new_obj) or (new_shape == obj.shape and new_color == obj.color):
            continue
        ref_scene = Scene(image_grid)
        try:
            anchor = _sample_object(rng, ref_scene, moving=False, occupied=set())
        except GenerationError:
            continue
        ref_scene.objects.append(replace(new_obj, start=anchor.start, velocity=(0, 0)))
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


def _clip_feature(scene: Scene) -> tuple[np.ndarray, np.ndarray, float]:
    """A scene's temporally averaged frame, that frame centred, and the centred norm."""
    frame = scene.normalized().mean(axis=0).ravel()
    centred = frame - frame.mean()
    return frame, centred, np.linalg.norm(centred)


def _feature_similarity(a: tuple, b: tuple) -> float:
    (fa, ca, na), (fb, cb, nb) = a, b
    if np.array_equal(fa, fb):
        return 1.0
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.clip(np.dot(ca, cb) / (na * nb), 0.0, 1.0))


# the pair recipe: base scenes per pool, perturbed variants per base scene,
# the similarity band a mined pair lies in and the most pairs kept per origin
PAIR_BASE_SCENES = 2
PAIR_VARIANTS = 3
PAIR_BAND = (0.65, 0.95)
PAIR_PER_ORIGIN_CAP = 100


def mine_pairs(pool: list[Scene], rng: Rng) -> list[PairRecord]:
    """Retain pairs inside PAIR_BAND, at most PAIR_PER_ORIGIN_CAP per origin."""
    features = [_clip_feature(scene) for scene in pool]
    records: list[PairRecord] = []
    for i in range(len(pool)):
        kept = 0
        order = i + 1 + rng.permutation(len(pool) - i - 1)
        for j in order:
            sim = _feature_similarity(features[i], features[j])
            if PAIR_BAND[0] <= sim <= PAIR_BAND[1]:
                records.append(PairRecord(pool[i], pool[int(j)], sim))
                kept += 1
                if kept >= PAIR_PER_ORIGIN_CAP:
                    break
    return records


def gen_pair_pool(rng: Rng, grid) -> list[Scene]:
    """Clusters of PAIR_VARIANTS perturbed variants of PAIR_BASE_SCENES base
    scenes; pairs inside a cluster land across the whole similarity range."""
    pool: list[Scene] = []
    for _ in range(PAIR_BASE_SCENES):
        base = gen_scene(rng, grid, 2, moving=grid[0] > 1)
        pool.append(base)
        for _ in range(PAIR_VARIANTS):
            variant = Scene(base.grid, list(base.objects))
            k = int(rng.integers(0, len(base.objects)))
            obj = variant.objects[k]
            if rng.uniform() < 0.5:
                for _ in range(20):
                    dr, dc = int(rng.integers(-2, 3)), int(rng.integers(-2, 3))
                    cand = replace(obj, start=(obj.start[0] + dr, obj.start[1] + dc))
                    if variant.in_bounds(cand):
                        variant.objects[k] = cand
                        break
            else:
                variant.objects[k] = replace(obj, color=_pick_color(rng, {obj.color}))
            pool.append(variant)
    return pool


# ---------------------------------------------------------------------------
# dataset files
# ---------------------------------------------------------------------------

TEXT_TASK = "text"
PAIR_TASK = "pair"
TASK_NAMES = (*(t.value for t in TaskKind), TEXT_TASK, PAIR_TASK)  # every task a dataset can hold


def gen_text_record(rng: Rng, grid) -> dict:
    """Instruction-only sample for next-token-prediction training."""
    task = [TaskKind.T2V, TaskKind.V2V, TaskKind.I2I, TaskKind.T2I][rng.integers(0, 4)]
    case = gen_edit_case(rng, task, grid)
    return {"kind": TEXT_TASK, "instruction": list(case.instruction)}


def generate_dataset(out_dir: str | Path, seed: int, counts: dict[str, int],
                     grid: tuple[int, int, int],
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
                pool = gen_pair_pool(rng, grid)
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


# what reading a record that is not JSON, lacks a field or holds a malformed one raises
MALFORMED = (KeyError, TypeError, ValueError)


def malformed(where: str, exc: Exception) -> ConfigError:
    """The one-line error for the malformed file or record at `where`, from
    the MALFORMED exception `exc` that reading it raised."""
    if isinstance(exc, KeyError):
        return ConfigError(f"{where} lacks the field {exc}")
    return ConfigError(f"{where} is malformed: {exc}")


def _pair_case(record: dict) -> EditCase:
    """A mined pair record as the instruction-free v2v edit of its clip `a`
    into its clip `b`."""
    return EditCase(task=TaskKind.V2V, family=PAIR_TASK, instruction=encode("<bos>", "<eos>"),
                    target=Scene.from_dict(record["b"]), source=Scene.from_dict(record["a"]), edit={})


class Dataset:
    """In-memory view over a generated dataset directory."""

    def __init__(self, root: str | Path):
        import json

        self.root = Path(root)
        path = self.root / "manifest.json"
        with open(path) as fh:
            try:
                self.manifest = json.load(fh)
            except ValueError as exc:
                raise malformed(str(path), exc) from None
        self.records: list[dict] = []
        path = self.root / "records.jsonl"
        with open(path) as fh:
            try:
                for line in fh:
                    self.records.append(json.loads(line))
            except ValueError as exc:
                raise malformed(f"{path} line {len(self.records) + 1}", exc) from None
        self.by_task: dict[str, list[int]] = {}
        for i, rec in enumerate(self.records):
            try:
                if not isinstance(rec, dict):
                    raise TypeError("not a JSON object")
                key = rec.get("task", rec["kind"])
            except MALFORMED as exc:
                raise malformed(f"{path} line {i + 1}", exc) from None
            self.by_task.setdefault(key, []).append(i)

    def _read(self, i: int, parse):
        """`parse` applied to record `i`; a malformed record's error names its line."""
        try:
            return parse(self.records[i])
        except MALFORMED as exc:
            raise malformed(f"{self.root / 'records.jsonl'} line {i + 1}", exc) from None

    def case(self, i: int, admit=None) -> EditCase:
        """Record `i` as an edit case, a mined pair included, passed through
        `admit`, a check that refuses a case with ValueError, when given."""
        kind = self.records[i]["kind"]
        if kind not in ("case", PAIR_TASK):
            raise ValueError(f"record {i} is a {kind} record, not a case")
        parse = EditCase.from_dict if kind == "case" else _pair_case
        return self._read(i, parse if admit is None else lambda record: admit(parse(record)))

    def instruction(self, i: int) -> list[int]:
        """The token ids of text record `i`."""
        return self._read(i, lambda rec: instruction_ids(rec["instruction"]))
