"""Flat, human-editable run configuration: one `section.key = value` per line.

`default_config()` is the single source of truth for the toy run; a config file
passed on the CLI overrides individual keys. Values are stored as strings with
typed accessors.
"""

from __future__ import annotations

import math
from pathlib import Path

from .guidance import BRANCHES


class ConfigError(ValueError):
    pass


# (key, default, comment) -- ordered; comments land in the written file.
DEFAULTS: list[tuple[str, str, str]] = [
    ("run.seed", "0", "master seed; all streams derive from it"),
    ("data.grid", "2,8,8", "toy video grid (frames, height, width)"),
    ("data.cases_per_stage", "2200", "generated cases per training stage"),
    ("data.eval_cases", "200", "held-out primary eval cases"),
    ("data.eval_families", "recolor,remove", "edit families for the primary eval set"),
    ("data.train_families", "recolor,recolor,recolor,remove,remove,add,replace,move,palette",
     "editing-family sampling pool for train sets (repeating a family weights it)"),

    ("vit.patch", "1,2,2", "frozen patch encoder: patch size over (t, h, w)"),
    ("vit.embed_dim", "16", "target embedding space width"),
    ("vit.seed", "7101", "frozen encoder init seed"),

    ("planner.hidden_dim", "32", ""),
    ("planner.blocks", "2", ""),
    ("planner.heads", "2", ""),
    ("planner.decoder_dim", "64", "embedding decoder width"),
    ("planner.decoder_blocks", "2", ""),
    ("planner.time_features", "16", ""),
    ("planner.rope_base", "10000.0", ""),
    ("planner.segment_base", "10000.0", ""),
    ("planner.segment_phases", "false", "segment-aware phases in the planner (ablation knob)"),
    ("planner.reveal", "confidence", "reveal rule at inference: confidence | random"),

    ("renderer.hidden_dim", "48", ""),
    ("renderer.blocks", "2", ""),
    ("renderer.heads", "3", ""),
    ("renderer.patch", "1,2,2", ""),
    ("renderer.channels", "4", "toy latent channels"),
    ("renderer.rope_base", "10000.0", ""),
    ("renderer.segment_base", "10000.0", ""),
    ("renderer.segment_phases", "true", "segment-aware rotary phases (ablation knob)"),
    ("renderer.time_features", "16", ""),
    ("renderer.drop_text", "0.1", "training-time condition dropout rates"),
    ("renderer.drop_target", "0.1", ""),
    ("renderer.drop_source", "0.1", ""),

    ("schedules.mask_ratio.t2i", "5.0,1.1", "per-task Beta(alpha, beta) for the training mask ratio"),
    ("schedules.mask_ratio.t2v", "8.0,1.05", ""),
    ("schedules.mask_ratio.i2i", "8.0,1.05", ""),
    ("schedules.mask_ratio.i2v", "10.0,1.0", ""),
    ("schedules.mask_ratio.v2v", "12.0,0.9", ""),
    ("schedules.mask_ratio.iv2v", "12.0,0.9", ""),
    ("schedules.timestep.t2i", "logit-normal,0.5,1.0,3.0", "weighting kind, params, shift"),
    ("schedules.timestep.i2i", "logit-normal,0.5,1.0,4.0", ""),
    ("schedules.timestep.t2v", "mode,1.29,3.0", ""),
    ("schedules.timestep.i2v", "mode,1.29,5.0", ""),
    ("schedules.timestep.v2v", "mode,1.29,5.0", ""),
    ("schedules.timestep.iv2v", "mode,1.29,5.0", ""),

    ("guidance.t2v", "txt:4.0,tgt:1.0", "per-task guidance scales at inference"),
    ("guidance.s2v", "txt:4.0,img:2.5,tgt:1.5", ""),
    ("guidance.v2v", "txt:4.0,vid:1.25,img:1.25,tgt:0.5", ""),
    ("guidance.rv2v", "txt:4.0,vid:1.25,img:3.0,tgt:1.5", ""),
    ("guidance.steps.t2v", "60", "denoising steps per task family"),
    ("guidance.steps.s2v", "40", ""),
    ("guidance.steps.v2v", "40", ""),
    ("guidance.steps.rv2v", "40", ""),

    ("infer.plan_steps", "25", "iterative planning steps"),
    ("infer.decoder_steps", "5", "embedding-decoder denoising steps"),
    ("infer.g_text", "1.2", "embedding-decoder text guidance"),
    ("infer.g_image", "1.0", "embedding-decoder image guidance"),
    ("infer.flow_shift", "5.0", "renderer sampling-time shift"),
    ("infer.use_ema", "true", "evaluate with EMA weights"),

    ("stage.I.steps", "2600", ""),
    ("stage.I.lr", "0.003", "scaled for toy dimensionality"),
    ("stage.I.lr_final", "none", "linear decay target; none keeps lr constant"),
    ("stage.I.ema", "0.999", ""),
    ("stage.I.batch", "2", ""),
    ("stage.I.lambda_text", "0.2", "loss weights (text, visual, renderer)"),
    ("stage.I.lambda_visual", "1.0", ""),
    ("stage.I.lambda_dit", "0.0", ""),
    ("stage.I.mixture", "text:0.15,t2i:0.08,t2v:0.12,i2i:0.1,i2v:0.1,v2v:0.33,iv2v:0.12", ""),

    ("stage.II.steps", "3200", ""),
    ("stage.II.lr", "0.003", ""),
    ("stage.II.lr_final", "none", "linear decay target; none keeps lr constant"),
    ("stage.II.ema", "0.9995", ""),
    ("stage.II.batch", "2", ""),
    ("stage.II.lambda_text", "0.0", ""),
    ("stage.II.lambda_visual", "0.0", ""),
    ("stage.II.lambda_dit", "1.0", ""),
    ("stage.II.mixture", "t2i:0.07,t2v:0.1,i2i:0.1,i2v:0.1,v2v:0.41,iv2v:0.12,pair:0.1", "pair weight is the linear-decay start fraction"),

    ("stage.III.steps", "1400", ""),
    ("stage.III.lr", "0.001", ""),
    ("stage.III.lr_final", "none", "linear decay target; none keeps lr constant"),
    ("stage.III.ema", "0.9995", ""),
    ("stage.III.batch", "2", ""),
    ("stage.III.lambda_text", "0.2", ""),
    ("stage.III.lambda_visual", "1.0", ""),
    ("stage.III.lambda_dit", "1.0", ""),
    ("stage.III.mixture", "text:0.12,t2i:0.06,t2v:0.1,i2i:0.1,i2v:0.1,v2v:0.38,iv2v:0.14", ""),

    ("train.checkpoint_every", "500", "0 disables periodic checkpoints"),
    ("eval.edit_threshold", "0.8", "oracle: min edited-region accuracy"),
    ("eval.keep_threshold", "0.8", "oracle: min untouched-region agreement"),
]

_DEFAULT_MAP = {k: v for k, v, _ in DEFAULTS}

# model sizes, batch sizes and step counts that must be positive integers
_POSITIVE_INTS = (
    "vit.embed_dim", "vit.patch",
    "planner.hidden_dim", "planner.blocks", "planner.heads", "planner.decoder_dim",
    "planner.decoder_blocks", "planner.time_features",
    "renderer.hidden_dim", "renderer.blocks", "renderer.heads", "renderer.patch",
    "renderer.channels", "renderer.time_features",
    "stage.I.batch", "stage.II.batch", "stage.III.batch", "infer.plan_steps", "infer.decoder_steps",
    "guidance.steps.t2v", "guidance.steps.s2v", "guidance.steps.v2v", "guidance.steps.rv2v",
)

# (frames, height, width) triples
_TRIPLES = ("data.grid", "vit.patch", "renderer.patch")

# per-task guidance scales, `branch:weight` lists
_GUIDANCE_SCALES = ("guidance.t2v", "guidance.s2v", "guidance.v2v", "guidance.rv2v")

# numbers that must be finite: inference guidance and each stage's settings;
# `lr_final` may also be `none`, and mixtures are `task:weight` lists
_STAGES = ("I", "II", "III")
_FINITE = ("infer.g_text", "infer.g_image", *(f"stage.{s}.{k}" for s in _STAGES
           for k in ("lr", "lr_final", "ema", "lambda_text", "lambda_visual", "lambda_dit")))
_MIXTURES = tuple(f"stage.{s}.mixture" for s in _STAGES)


class Config:
    def __init__(self, overrides: dict[str, str] | None = None):
        self.values: dict[str, str] = dict(_DEFAULT_MAP)
        for k, v in (overrides or {}).items():
            if k not in self.values:
                raise ConfigError(f"unknown config key {k!r}")
            self.values[k] = v
        self.validate()

    def validate(self) -> None:
        """Refuse model sizes the networks cannot be built with, batch sizes
        and step counts below 1, grids that are not triples of positive
        sizes, unknown guidance branches and non-finite guidance weights or
        stage settings."""
        for key in _TRIPLES:
            if len(self.get(key).split(",")) != 3:
                raise ConfigError(f"{key}: expected three values (frames, height, width), got {self.values[key]!r}")
        for part in self.get("data.grid").split(","):
            try:
                positive = int(part) >= 1
            except ValueError:  # get_ints names the malformed entry
                continue
            if not positive:
                raise ConfigError(f"data.grid: dimensions must be positive, got {self.values['data.grid']!r}")
        numbers = [(key, self.get(key)) for key in _FINITE]
        for key in _GUIDANCE_SCALES + _MIXTURES:
            for part in self.get(key).split(","):
                name, _, weight = part.partition(":")
                if key in _GUIDANCE_SCALES and part.strip() and name.strip() not in BRANCHES:
                    raise ConfigError(f"{key}: unknown guidance branch {name.strip()!r}; expected one of {', '.join(BRANCHES)}")
                numbers.append((key, weight))
        for key, number in numbers:
            try:
                finite = math.isfinite(float(number))
            except ValueError:  # `none`, or a malformed value that the typed getters name
                continue
            if not finite:
                raise ConfigError(f"{key}: values must be finite, got {number.strip()!r}")
        for key in _POSITIVE_INTS:
            if min(self.get_ints(key)) < 1:
                raise ConfigError(f"{key}: values must be positive integers, got {self.values[key]!r}")
        for model in ("planner", "renderer"):
            width, heads = self.get_int(f"{model}.hidden_dim"), self.get_int(f"{model}.heads")
            if width % heads:
                raise ConfigError(f"{model}.hidden_dim = {width} is not divisible by {model}.heads = {heads}")
            if (width // heads) % 2:
                raise ConfigError(f"{model}: head width hidden_dim / heads = {width // heads} must be even")
            if self.get_int(f"{model}.time_features") % 2:
                raise ConfigError(f"{model}.time_features must be even (sine and cosine pairs)")

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


def default_config() -> Config:
    return Config()


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
        return default_config()
    return Config(parse_config_text(Path(path).read_text()))


def write_config(path: str | Path, cfg: Config | None = None) -> None:
    cfg = cfg or default_config()
    lines = []
    section = None
    for key, _, comment in DEFAULTS:
        sec = key.split(".", 1)[0]
        if sec != section:
            if section is not None:
                lines.append("")
            section = sec
        entry = f"{key} = {cfg.values[key]}"
        if comment:
            entry += f"  # {comment}"
        lines.append(entry)
    Path(path).write_text("\n".join(lines) + "\n")
