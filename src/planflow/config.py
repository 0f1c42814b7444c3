"""Flat, human-editable run configuration: one `section.key = value` per line.

`DEFAULTS` is the single source of truth for the toy run; a config file
passed on the CLI overrides individual keys. Settings that no run varies are
constants of the code that reads them, not keys. Values are stored as strings
with typed accessors.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

from .guidance import BRANCHES


class ConfigError(ValueError):
    pass


# key -> default, in the order a config file lists them
DEFAULTS: dict[str, str] = {
    "run.seed": "0",  # master seed; all streams derive from it
    "data.grid": "2,8,8",  # toy video grid (frames, height, width)
    "data.cases_per_stage": "2200",  # generated cases per training stage
    "data.eval_cases": "200",  # held-out primary eval cases
    "data.eval_families": "recolor,remove",  # edit families for the primary eval set
    # editing-family sampling pool for train sets (repeating a family weights it)
    "data.train_families": "recolor,recolor,recolor,remove,remove,add,replace,move,palette",

    "vit.patch": "1,2,2",  # frozen patch encoder: patch size over (t, h, w)
    "vit.embed_dim": "16",  # target embedding space width
    "vit.seed": "7101",  # frozen encoder init seed

    "planner.hidden_dim": "32",
    "planner.blocks": "2",
    "planner.heads": "2",
    "planner.decoder_dim": "64",  # embedding decoder width
    "planner.decoder_blocks": "2",
    "planner.segment_phases": "false",  # segment-aware phases in the planner (ablation knob)

    "renderer.hidden_dim": "48",
    "renderer.blocks": "2",
    "renderer.heads": "3",
    "renderer.patch": "1,2,2",
    "renderer.segment_phases": "true",  # segment-aware rotary phases (ablation knob)
    "renderer.drop_text": "0.1",  # training-time condition dropout rates
    "renderer.drop_target": "0.1",
    "renderer.drop_source": "0.1",

    "guidance.t2v": "txt:4.0,tgt:1.0",  # per-task guidance scales at inference
    "guidance.s2v": "txt:4.0,img:2.5,tgt:1.5",
    "guidance.v2v": "txt:4.0,vid:1.25,img:1.25,tgt:0.5",
    "guidance.rv2v": "txt:4.0,vid:1.25,img:3.0,tgt:1.5",
    "guidance.steps.t2v": "15",  # renderer Euler steps per guidance table
    "guidance.steps.s2v": "5",
    "guidance.steps.v2v": "10",
    "guidance.steps.rv2v": "5",

    "infer.plan_steps": "8",  # iterative planning steps
    "infer.decoder_steps": "5",  # embedding-decoder denoising steps
    "infer.g_text": "1.2",  # embedding-decoder text guidance
    "infer.g_image": "1.0",  # embedding-decoder image guidance
    "infer.flow_shift": "5.0",  # renderer sampling-time shift, at least 1
    "infer.use_ema": "true",  # evaluate with EMA weights

    "stage.I.steps": "2600",
    "stage.I.lr": "0.003",  # constant over the stage; scaled for toy dimensionality
    "stage.I.ema": "0.999",
    "stage.I.batch": "2",
    "stage.I.mixture": "text:0.15,t2i:0.08,t2v:0.12,i2i:0.1,i2v:0.1,v2v:0.33,iv2v:0.12",

    "stage.II.steps": "3200",
    "stage.II.lr": "0.003",
    "stage.II.ema": "0.9995",
    "stage.II.batch": "2",
    # the pair weight is the linear-decay start fraction
    "stage.II.mixture": "t2i:0.07,t2v:0.1,i2i:0.1,i2v:0.1,v2v:0.41,iv2v:0.12,pair:0.1",

    "stage.III.steps": "1400",
    "stage.III.lr": "0.001",
    "stage.III.ema": "0.9995",
    "stage.III.batch": "2",
    "stage.III.mixture": "text:0.12,t2i:0.06,t2v:0.1,i2i:0.1,i2v:0.1,v2v:0.38,iv2v:0.14",

    "train.checkpoint_every": "500",  # 0 disables periodic checkpoints
}

# model sizes, batch sizes and step counts that must be positive integers
_POSITIVE_INTS = (
    "vit.embed_dim", "vit.patch",
    "planner.hidden_dim", "planner.blocks", "planner.heads", "planner.decoder_dim",
    "planner.decoder_blocks",
    "renderer.hidden_dim", "renderer.blocks", "renderer.heads", "renderer.patch",
    "stage.I.batch", "stage.II.batch", "stage.III.batch", "infer.plan_steps", "infer.decoder_steps",
    "guidance.steps.t2v", "guidance.steps.s2v", "guidance.steps.v2v", "guidance.steps.rv2v",
)

# (frames, height, width) triples
_TRIPLES = ("data.grid", "vit.patch", "renderer.patch")

# per-task guidance scales, `branch:weight` lists
_GUIDANCE_SCALES = ("guidance.t2v", "guidance.s2v", "guidance.v2v", "guidance.rv2v")

# per-stage task mixtures, `task:weight` lists
_MIXTURES = ("stage.I.mixture", "stage.II.mixture", "stage.III.mixture")

# numbers that must lie in a range: key -> (whether a value does, the rule)
_RANGES = {
    "infer.flow_shift": (lambda x: x >= 1.0, "must be >= 1"),
    **{f"stage.{s}.lr": (lambda x: x > 0.0, "must be positive") for s in ("I", "II", "III")},
    **{f"stage.{s}.ema": (lambda x: 0.0 <= x < 1.0, "must be in [0, 1)") for s in ("I", "II", "III")},
    **{f"renderer.drop_{c}": (lambda x: 0.0 <= x <= 1.0, "must be in [0, 1]") for c in ("text", "target", "source")},
}


class Config:
    def __init__(self, overrides: dict[str, str] | None = None):
        self.values: dict[str, str] = dict(DEFAULTS)
        for k, v in (overrides or {}).items():
            if k not in self.values:
                raise ConfigError(f"unknown config key {k!r}")
            self.values[k] = v
        self.validate()

    def validate(self) -> None:
        """Refuse model sizes the networks cannot be built with, batch sizes
        and step counts below 1, grids that are not triples of positive
        sizes, a negative checkpoint interval, a sampling shift below 1, a
        learning rate that is not positive, an EMA decay outside [0, 1), a
        dropout rate outside [0, 1], unknown guidance branches, tasks or edit
        families, and any number that is not finite."""
        for key, value in self.values.items():
            for number in re.split("[,:]", value):
                try:
                    finite = math.isfinite(float(number))
                except ValueError:  # a name, or a malformed value that the typed getters name
                    continue
                if not finite:
                    raise ConfigError(f"{key}: values must be finite, got {number.strip()!r}")
        for key in _TRIPLES:
            if len(self.get(key).split(",")) != 3:
                raise ConfigError(f"{key}: expected three values (frames, height, width), got {self.values[key]!r}")
        for key, least, rule in (("data.grid", 1, "dimensions must be positive"),
                                 ("train.checkpoint_every", 0, "must be 0 (no periodic checkpoints) or more")):
            for part in self.get(key).split(","):
                try:
                    enough = int(part) >= least
                except ValueError:  # the typed getters name the malformed entry
                    continue
                if not enough:
                    raise ConfigError(f"{key}: {rule}, got {self.values[key]!r}")
        from .toydata import EDIT_FAMILIES, TASK_NAMES  # read at call time: toydata imports this module
        for key in ("data.eval_families", "data.train_families"):
            for name in self.get_strs(key):
                if name not in EDIT_FAMILIES:
                    raise ConfigError(f"{key}: unknown edit family {name!r}; expected one of {', '.join(EDIT_FAMILIES)}")
        names = {**dict.fromkeys(_GUIDANCE_SCALES, ("guidance branch", BRANCHES)),
                 **dict.fromkeys(_MIXTURES, ("task", TASK_NAMES))}
        for key, (noun, known) in names.items():
            for part in self.get(key).split(","):
                name = part.partition(":")[0].strip()
                if name and name not in known:
                    raise ConfigError(f"{key}: unknown {noun} {name!r}; expected one of {', '.join(known)}")
        for key, (within, rule) in _RANGES.items():
            if not within(self.get_float(key)):
                raise ConfigError(f"{key}: {rule}, got {self.values[key]!r}")
        for key in _POSITIVE_INTS:
            if min(self.get_ints(key)) < 1:
                raise ConfigError(f"{key}: values must be positive integers, got {self.values[key]!r}")
        for model in ("planner", "renderer"):
            width, heads = self.get_int(f"{model}.hidden_dim"), self.get_int(f"{model}.heads")
            if width % heads:
                raise ConfigError(f"{model}.hidden_dim = {width} is not divisible by {model}.heads = {heads}")
            if (width // heads) % 2:
                raise ConfigError(f"{model}: head width hidden_dim / heads = {width // heads} must be even")

    def get(self, key: str) -> str:
        try:
            return self.values[key]
        except KeyError:
            raise ConfigError(f"unknown config key {key!r}") from None

    def _parse(self, key: str, kind: type, many: bool):
        """The value as one `kind`, or as a tuple of comma-separated ones."""
        raw = self.get(key)
        try:
            return tuple(kind(x) for x in raw.split(",")) if many else kind(raw)
        except ValueError:
            noun = "integer" if kind is int else "number"
            raise ConfigError(f"{key}: expected {noun}{'s' if many else ''}, got {raw!r}") from None

    def get_int(self, key: str) -> int:
        return self._parse(key, int, many=False)

    def get_float(self, key: str) -> float:
        return self._parse(key, float, many=False)

    def get_bool(self, key: str) -> bool:
        v = self.get(key).strip().lower()
        if v in ("true", "1", "yes"):
            return True
        if v in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {v!r}")

    def get_ints(self, key: str) -> tuple[int, ...]:
        return self._parse(key, int, many=True)

    def get_strs(self, key: str) -> tuple[str, ...]:
        return tuple(x.strip() for x in self.get(key).split(",") if x.strip())

    def get_weighted(self, key: str) -> dict[str, float]:
        """Parse 'name:weight,name:weight' lists."""
        out: dict[str, float] = {}
        for part in self.get(key).split(","):
            part = part.strip()
            if not part:
                continue
            name, sep, w = part.partition(":")
            try:
                if not sep:
                    raise ValueError
                out[name.strip()] = float(w)
            except ValueError:
                raise ConfigError(f"{key}: expected name:weight entries, got {part!r}") from None
        return out

    def set(self, key: str, value) -> None:
        if key not in self.values:
            raise ConfigError(f"unknown config key {key!r}")
        self.values[key] = str(value)
        self.validate()

    def snapshot(self) -> dict[str, str]:
        return dict(self.values)


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "#" in line:
            line = line.split("#", 1)[0].strip()
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        out[key.strip()] = value.strip()
    return out


def load_config(path: str | Path | None) -> Config:
    if path is None:
        return Config()
    return Config(parse_config_text(Path(path).read_text()))

