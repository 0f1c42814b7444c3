"""Flat, human-editable run configuration: one `section.key = value` per line.

`KEYS` is the single source of truth for the toy run: each key's row holds its
default, the typed getter that reads it and its rule. A config file passed on
the CLI overrides individual keys; every value is checked once, when it is
loaded or set. Settings that no run varies are constants of the code that
reads them, not keys.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable, NamedTuple

from .guidance import BRANCHES


class ConfigError(ValueError):
    pass


class Config:
    def __init__(self, overrides: dict[str, str] | None = None):
        self.values: dict[str, str] = dict(DEFAULTS)
        for k, v in (overrides or {}).items():
            self.get(k)  # refuses an unknown key
            self.values[k] = v
        self.validate()

    def validate(self) -> None:
        """Read every value with its row's getter, which refuses one that is
        malformed or not finite, refuse a value that breaks its row's rule,
        then head widths the attention layers cannot use."""
        for key, row in KEYS.items():
            value = row.read(self, key)
            fault = row.rule and row.rule(value)
            if fault:
                raise ConfigError(f"{key}: {fault}, got {self.values[key]!r}")
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
        """The value as one `kind`, or as a tuple of comma-separated ones;
        refuses a number that is not finite."""
        raw = self.get(key)
        texts = raw.split(",") if many else [raw]
        try:
            finite = all(math.isfinite(float(x)) for x in texts)
            values = tuple(kind(x) for x in texts) if finite else ()
        except ValueError:
            noun = "integers" if kind is int else "numbers"
            raise ConfigError(f"{key}: values must be {noun}, got {raw!r}") from None
        if not finite:
            raise ConfigError(f"{key}: values must be finite, got {raw!r}")
        return values if many else values[0]

    def get_int(self, key: str) -> int:
        return self._parse(key, int, many=False)

    def get_float(self, key: str) -> float:
        return self._parse(key, float, many=False)

    def get_bool(self, key: str) -> bool:
        v = self.get(key).strip().lower()
        if v not in ("true", "1", "yes", "false", "0", "no"):
            raise ConfigError(f"{key}: expected a boolean, got {v!r}")
        return v in ("true", "1", "yes")

    def get_ints(self, key: str) -> tuple[int, ...]:
        return self._parse(key, int, many=True)

    def get_strs(self, key: str) -> tuple[str, ...]:
        return tuple(x.strip() for x in self.get(key).split(",") if x.strip())

    def get_weighted(self, key: str) -> dict[str, float]:
        """Parse 'name:weight,name:weight' lists; refuses a weight that is not finite."""
        out: dict[str, float] = {}
        for part in self.get(key).split(","):
            part = part.strip()
            if not part:
                continue
            name, sep, w = part.partition(":")
            try:
                if not sep:
                    raise ValueError
                weight = float(w)
            except ValueError:
                raise ConfigError(f"{key}: expected name:weight entries, got {part!r}") from None
            if not math.isfinite(weight):
                raise ConfigError(f"{key}: values must be finite, got {part!r}")
            out[name.strip()] = weight
        return out

    def set(self, key: str, value) -> None:
        self.get(key)  # refuses an unknown key
        self.values[key] = str(value)
        self.validate()

    def snapshot(self) -> dict[str, str]:
        return dict(self.values)


# A rule takes the value that its row's getter read and returns what is wrong with it, or None.
def _rule(holds: Callable[[object], bool], fault: str) -> Callable:
    return lambda value: None if holds(value) else fault


def _toydata():
    from . import toydata  # at call time: toydata imports this module
    return toydata


def _known(noun: str, names: Callable[[], tuple[str, ...]], least: int = 0) -> Callable:
    """Names (a tuple, or the names of name:weight entries), each one of
    `names()`, and at least `least` of them."""
    def fault(value):
        known = names()
        unknown = [name for name in value if name not in known]
        if unknown:
            return f"unknown {noun} {unknown[0]!r}; expected one of {', '.join(known)}"
        return None if len(value) >= least else f"must name at least {least} {noun}"
    return fault


def _mixture(stage: str) -> Callable:
    """Known tasks with nonnegative weights of a positive sum, without the
    records that no model the stage trains has a loss on."""
    def fault(weights):
        from .harness import STAGE_MODELS  # at call time: harness imports this module
        for idle, model in ((_toydata().TEXT_TASK, "planner"), (_toydata().PAIR_TASK, "renderer")):
            if idle in weights and model not in STAGE_MODELS[stage]:
                return f"stage {stage} has no loss on {idle} records"
        if min(weights.values(), default=0.0) < 0.0 or sum(weights.values()) <= 0.0:
            return "weights must be nonnegative with a positive sum"
        return _known("task", lambda: _toydata().TASK_NAMES)(weights)
    return fault


POSITIVE = _rule(lambda n: n >= 1, "must be a positive integer")
TRIPLE = _rule(lambda v: len(v) == 3 and min(v) >= 1, "must be three values (frames, height, width), each positive")
RATE = _rule(lambda x: x > 0.0, "must be positive")
DECAY = _rule(lambda x: 0.0 <= x < 1.0, "must be in [0, 1)")
FRACTION = _rule(lambda x: 0.0 <= x <= 1.0, "must be in [0, 1]")
FAMILIES = _known("edit family", lambda: _toydata().EDIT_FAMILIES, least=1)
GUIDANCE = _known("guidance branch", lambda: BRANCHES)


class Key(NamedTuple):
    default: str
    read: Callable  # the typed getter, a method of Config
    rule: Callable | None = None


# key -> row, in the order a config file lists them
KEYS: dict[str, Key] = {
    "run.seed": Key("0", Config.get_int),  # master seed; all streams derive from it
    "data.grid": Key("2,8,8", Config.get_ints, TRIPLE),  # toy video grid (frames, height, width)
    "data.cases_per_stage": Key("2200", Config.get_int, POSITIVE),  # generated cases per training stage
    "data.eval_cases": Key("200", Config.get_int, POSITIVE),  # held-out primary eval cases
    "data.eval_families": Key("recolor,remove", Config.get_strs, FAMILIES),  # edit families of the primary eval set
    # editing-family sampling pool for train sets (repeating a family weights it)
    "data.train_families": Key("recolor,recolor,recolor,remove,remove,add,replace,move,palette",
                               Config.get_strs, FAMILIES),

    "vit.patch": Key("1,2,2", Config.get_ints, TRIPLE),  # frozen patch encoder: patch size over (t, h, w)
    "vit.embed_dim": Key("16", Config.get_int, POSITIVE),  # target embedding space width
    "vit.seed": Key("7101", Config.get_int),  # frozen encoder init seed

    "planner.hidden_dim": Key("32", Config.get_int, POSITIVE),
    "planner.blocks": Key("2", Config.get_int, POSITIVE),
    "planner.heads": Key("2", Config.get_int, POSITIVE),
    "planner.decoder_dim": Key("64", Config.get_int, POSITIVE),  # embedding decoder width
    "planner.decoder_blocks": Key("2", Config.get_int, POSITIVE),
    "planner.segment_phases": Key("false", Config.get_bool),  # segment-aware phases in the planner (ablation knob)

    "renderer.hidden_dim": Key("48", Config.get_int, POSITIVE),
    "renderer.blocks": Key("2", Config.get_int, POSITIVE),
    "renderer.heads": Key("3", Config.get_int, POSITIVE),
    "renderer.patch": Key("1,2,2", Config.get_ints, TRIPLE),
    "renderer.segment_phases": Key("true", Config.get_bool),  # segment-aware rotary phases (ablation knob)
    "renderer.drop_text": Key("0.1", Config.get_float, FRACTION),  # training-time condition dropout rates
    "renderer.drop_target": Key("0.1", Config.get_float, FRACTION),
    "renderer.drop_source": Key("0.1", Config.get_float, FRACTION),

    "guidance.t2v": Key("txt:4.0,tgt:1.0", Config.get_weighted, GUIDANCE),  # per-task guidance scales at inference
    "guidance.s2v": Key("txt:4.0,img:2.5,tgt:1.5", Config.get_weighted, GUIDANCE),
    "guidance.v2v": Key("txt:4.0,vid:1.25,img:1.25,tgt:0.5", Config.get_weighted, GUIDANCE),
    "guidance.rv2v": Key("txt:4.0,vid:1.25,img:3.0,tgt:1.5", Config.get_weighted, GUIDANCE),
    "guidance.steps.t2v": Key("15", Config.get_int, POSITIVE),  # renderer Euler steps per guidance table
    "guidance.steps.s2v": Key("5", Config.get_int, POSITIVE),
    "guidance.steps.v2v": Key("10", Config.get_int, POSITIVE),
    "guidance.steps.rv2v": Key("5", Config.get_int, POSITIVE),

    "infer.plan_steps": Key("8", Config.get_int, POSITIVE),  # iterative planning steps
    "infer.decoder_steps": Key("5", Config.get_int, POSITIVE),  # embedding-decoder denoising steps
    "infer.g_text": Key("1.2", Config.get_float),  # embedding-decoder text guidance
    "infer.g_image": Key("1.0", Config.get_float),  # embedding-decoder image guidance
    "infer.flow_shift": Key("5.0", Config.get_float, _rule(lambda x: x >= 1.0, "must be >= 1")),  # sampling-time shift
    "infer.use_ema": Key("true", Config.get_bool),  # evaluate with EMA weights

    "stage.I.steps": Key("2600", Config.get_int, POSITIVE),
    "stage.I.lr": Key("0.003", Config.get_float, RATE),  # constant over the stage; scaled for toy dimensionality
    "stage.I.ema": Key("0.999", Config.get_float, DECAY),
    "stage.I.batch": Key("2", Config.get_int, POSITIVE),
    "stage.I.mixture": Key("text:0.15,t2i:0.08,t2v:0.12,i2i:0.1,i2v:0.1,v2v:0.33,iv2v:0.12",
                           Config.get_weighted, _mixture("I")),

    "stage.II.steps": Key("3200", Config.get_int, POSITIVE),
    "stage.II.lr": Key("0.003", Config.get_float, RATE),
    "stage.II.ema": Key("0.9995", Config.get_float, DECAY),
    "stage.II.batch": Key("2", Config.get_int, POSITIVE),
    # the pair weight is the linear-decay start fraction
    "stage.II.mixture": Key("t2i:0.07,t2v:0.1,i2i:0.1,i2v:0.1,v2v:0.41,iv2v:0.12,pair:0.1",
                            Config.get_weighted, _mixture("II")),

    "stage.III.steps": Key("1400", Config.get_int, POSITIVE),
    "stage.III.lr": Key("0.001", Config.get_float, RATE),
    "stage.III.ema": Key("0.9995", Config.get_float, DECAY),
    "stage.III.batch": Key("2", Config.get_int, POSITIVE),
    "stage.III.mixture": Key("text:0.12,t2i:0.06,t2v:0.1,i2i:0.1,i2v:0.1,v2v:0.38,iv2v:0.14",
                             Config.get_weighted, _mixture("III")),

    "train.checkpoint_every": Key("500", Config.get_int,  # 0 disables periodic checkpoints
                                  _rule(lambda n: n >= 0, "must be 0 (no periodic checkpoints) or more")),
}

DEFAULTS: dict[str, str] = {key: row.default for key, row in KEYS.items()}  # key -> default


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
