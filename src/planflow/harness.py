"""Three-stage training pipeline, evaluation, and the runtime invariant suite.

Stage I trains the planner + embedding decoder (text NTP + masked-embedding
flow matching), stage II the renderer (+ its text embedder) with velocity MSE
and linearly decaying pair data, stage III co-trains everything with the
planner's hidden states wired into the renderer's conditioning. All randomness
flows through named counter-based streams whose states live in checkpoints, so
split-resume training is bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import Checkpoint, CheckpointError
from .config import KEYS, Config, ConfigError
from .numerics import Rng, Tensor, backward
from .numerics import embedding as gather_rows
from .planner import (
    EmbeddingDecoder,
    PlanResult,
    PlannerConfig,
    PlannerModel,
    ToyVit,
    losses_from_hidden,
    plan,
    planner_forward,
)
from .renderer import (
    LATENT_CHANNELS,
    CondInputs,
    RendererConfig,
    RendererModel,
    ToyVae,
    build_cond_tokens,
    conditioning_rows,
    render,
    train_step_renderer,
)
from .schedules import TaskKind, pair_decay_weight, sample_mask_ratio
from .sequence import TARGET, apply_target_mask, serialize
from .toydata import (
    PAIR_TASK,
    SOURCE_FAMILIES,
    TEXT_TASK,
    Dataset,
    EditCase,
    frames_to_ids,
    oracle_passes,
    oracle_scores,
)


class StartupError(RuntimeError):
    pass


class NonFiniteError(RuntimeError):
    """Training produced a non-finite loss, weight or EMA value."""


# the models each stage trains, which fix its losses: text records train the planner, pair records
# the renderer, case records every model of the stage (the renderer on the planner's states if both)
STAGE_MODELS = {"I": ("planner", "decoder"), "II": ("renderer",), "III": ("planner", "decoder", "renderer")}
STAGES = tuple(STAGE_MODELS)

# guidance table row serving each task kind
GUIDANCE_KEY = {
    TaskKind.T2I: "t2v",
    TaskKind.T2V: "t2v",
    TaskKind.I2I: "v2v",
    TaskKind.I2V: "s2v",
    TaskKind.V2V: "v2v",
    TaskKind.IV2V: "rv2v",
}


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    config: Config
    guidance_scales: dict[str, dict[str, float]]
    guidance_steps: dict[str, int]
    plan_steps: int
    decoder_steps: int
    g_text: float
    g_image: float
    flow_shift: float
    use_ema: bool
    drop_text: float
    drop_target: float
    drop_source: float

    @classmethod
    def from_config(cls, cfg: Config) -> "RunConfig":
        scales = {key: cfg.get_weighted(f"guidance.{key}") for key in ("t2v", "s2v", "v2v", "rv2v")}
        steps = {key: cfg.get_int(f"guidance.steps.{key}") for key in ("t2v", "s2v", "v2v", "rv2v")}
        return cls(
            config=cfg,
            guidance_scales=scales,
            guidance_steps=steps,
            plan_steps=cfg.get_int("infer.plan_steps"),
            decoder_steps=cfg.get_int("infer.decoder_steps"),
            g_text=cfg.get_float("infer.g_text"),
            g_image=cfg.get_float("infer.g_image"),
            flow_shift=cfg.get_float("infer.flow_shift"),
            use_ema=cfg.get_bool("infer.use_ema"),
            drop_text=cfg.get_float("renderer.drop_text"),
            drop_target=cfg.get_float("renderer.drop_target"),
            drop_source=cfg.get_float("renderer.drop_source"),
        )


# ---------------------------------------------------------------------------
# model bundle
# ---------------------------------------------------------------------------

# keys that change what the weights compute without changing their shapes
MEANING_KEYS = ("planner.heads", "renderer.heads", "planner.segment_phases", "renderer.segment_phases",
                "renderer.patch", "vit.patch", "vit.seed")


def check_config_snapshot(snapshot: dict[str, str], cfg: Config) -> None:
    """Refuse checkpoint weights whose saved config `snapshot` gives them
    another meaning than `cfg` does; keys the snapshot lacks are not compared."""
    saved = Config()
    saved.values.update(snapshot)
    for key in (key for key in MEANING_KEYS if key in snapshot):
        read = KEYS[key].read
        try:
            value = read(saved, key)
        except ConfigError as exc:
            raise ConfigError(f"the checkpoint's saved config: {exc}") from None
        if value != read(cfg, key):
            raise ConfigError(f"{key}: the checkpoint was trained with {snapshot[key]!r}, "
                              f"this config has {cfg.get(key)!r}")


class ModelBundle:
    def __init__(self, cfg: Config):
        self.config = cfg
        seed = cfg.get_int("run.seed")
        init = Rng(seed).child(0xBEEF)
        pcfg = PlannerConfig(
            hidden_dim=cfg.get_int("planner.hidden_dim"),
            blocks=cfg.get_int("planner.blocks"),
            heads=cfg.get_int("planner.heads"),
            embed_dim=cfg.get_int("vit.embed_dim"),
            segment_phases=cfg.get_bool("planner.segment_phases"),
            decoder_dim=cfg.get_int("planner.decoder_dim"),
            decoder_blocks=cfg.get_int("planner.decoder_blocks"),
        )
        rcfg = RendererConfig(
            hidden_dim=cfg.get_int("renderer.hidden_dim"),
            blocks=cfg.get_int("renderer.blocks"),
            heads=cfg.get_int("renderer.heads"),
            patch=cfg.get_ints("renderer.patch"),
            segment_phases=cfg.get_bool("renderer.segment_phases"),
            planner_dim=cfg.get_int("planner.hidden_dim"),
        )
        self.planner = PlannerModel(pcfg, init.child(1))
        self.decoder = EmbeddingDecoder(pcfg, init.child(2))
        self.renderer = RendererModel(rcfg, init.child(3))
        self.vit = ToyVit(
            patch=cfg.get_ints("vit.patch"),
            embed_dim=cfg.get_int("vit.embed_dim"),
            seed=cfg.get_int("vit.seed"),
        )
        self.vae = ToyVae()

    def admit(self, case: EditCase) -> EditCase:
        """The case, refused if `vit.patch` or `renderer.patch` does not
        divide one of its grids, if its family's oracle reads a source whose
        grid is not the target's, or if its reference is not one image."""
        for key, patch in (("vit.patch", self.vit.patch), ("renderer.patch", self.renderer.cfg.patch)):
            for scene in (case.target, case.source, case.reference):
                if scene is not None and any(n % p for n, p in zip(scene.grid, patch)):
                    raise ConfigError(f"{key} = {self.config.get(key)} does not divide the grid {list(scene.grid)}")
        if case.family in SOURCE_FAMILIES and case.source.grid != case.target.grid:
            raise ValueError(f"the source grid {list(case.source.grid)} of a {case.family} case "
                             f"is not its target grid {list(case.target.grid)}")
        if case.reference is not None and case.reference.grid[0] > 1:
            raise ValueError(f"the reference grid {list(case.reference.grid)} has {case.reference.grid[0]} frames; "
                             f"a reference is one image")
        return case

    def named_params(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for prefix, model in (("planner", self.planner), ("decoder", self.decoder), ("renderer", self.renderer)):
            for name, p in model.params.items():
                out[f"{prefix}.{name}"] = p
        return out

    def trainable(self, stage: str) -> dict[str, Tensor]:
        return {k: v for k, v in self.named_params().items() if k.partition(".")[0] in STAGE_MODELS[stage]}

    def check_fit(self, values: dict[str, np.ndarray], what: str = "parameter") -> None:
        """Refuse checkpoint `values` holding a name this config lacks or a shape other than its own."""
        named = self.named_params()
        for name, arr in values.items():
            if name not in named:
                raise ConfigError(f"checkpoint {what} {name!r} does not match this config")
            if named[name].data.shape != arr.shape:
                raise ConfigError(f"shape mismatch for {what} {name}: {named[name].data.shape} vs {arr.shape}")

    def load_param_values(self, values: dict[str, np.ndarray]) -> None:
        """Replace every parameter; refuses a set that is not exactly this config's."""
        self.check_fit(values)
        named = self.named_params()
        missing = sorted(set(named) - set(values))
        if missing:
            raise ConfigError(f"checkpoint lacks {len(missing)} parameter(s) of this config: {', '.join(missing)}")
        for name, arr in values.items():
            named[name].data = arr.copy()

    def param_values(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self.named_params().items()}


# ---------------------------------------------------------------------------
# optimizer / EMA
# ---------------------------------------------------------------------------

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


class Adam:
    def __init__(self, lr: float):
        self.lr = lr
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, params: dict[str, Tensor]) -> None:
        self.t += 1
        b1c = 1.0 - ADAM_BETA1 ** self.t
        b2c = 1.0 - ADAM_BETA2 ** self.t
        for name in sorted(params):
            p = params[name]
            if p.grad is None:
                continue
            m = self.m.get(name)
            if m is None:
                m = self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            v = self.v[name]
            # in place, bit-identical to m = b1 * m + (1 - b1) * g and v = b2 * v + (1 - b2) * g * g
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * p.grad
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * p.grad * p.grad
            p.data -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + ADAM_EPS)

    def meta(self) -> dict:
        return {"kind": "adam", "t": self.t, "lr": self.lr}


def ema_update(shadow: dict[str, np.ndarray], params: dict[str, Tensor], decay: float) -> None:
    """shadow = decay * shadow + (1 - decay) * params, updated in place;
    `shadow` holds every name of `params`."""
    for name, p in params.items():
        s = shadow[name]
        s *= decay
        s += (1.0 - decay) * p.data


class ema_weights:
    """Context manager: temporarily swap EMA values into the live parameters.
    An empty or missing `shadow` keeps the live weights; its names and shapes
    must fit the bundle (`ModelBundle.check_fit`)."""

    def __init__(self, bundle: ModelBundle, shadow: dict[str, np.ndarray] | None):
        self.bundle, self.shadow = bundle, shadow or {}
        self._saved: dict[str, np.ndarray] = {}

    def __enter__(self):
        named = self.bundle.named_params()
        for name, arr in self.shadow.items():
            self._saved[name] = named[name].data
            named[name].data = arr.copy()
        return self

    def __exit__(self, *exc):
        named = self.bundle.named_params()
        for name, arr in self._saved.items():
            named[name].data = arr
        self._saved.clear()
        return False


# ---------------------------------------------------------------------------
# stage configuration
# ---------------------------------------------------------------------------

# Each stage's losses are fixed by the models it trains: stages I and III add
# TEXT_LOSS_WEIGHT * L_ntp + L_visual on planner records, stages II and III
# add L_dit on renderer records.
TEXT_LOSS_WEIGHT = 0.2

@dataclass
class StageConfig:
    name: str
    steps: int
    lr: float
    ema_decay: float
    batch_size: int
    mixture: dict[str, float]

    def lr_at(self, step: int) -> float:
        """The learning rate of `step`, constant over the stage; `run_stage`
        asks once per step, after backward and before the update."""
        return self.lr

    def __post_init__(self):
        if self.name not in STAGES:
            raise ConfigError(f"stage must be one of {STAGES}, got {self.name!r}")
        total = sum(self.mixture.values())
        self.mixture = {k: w / total for k, w in self.mixture.items()}

    @classmethod
    def from_config(cls, cfg: Config, name: str) -> "StageConfig":
        return cls(
            name=name,
            steps=cfg.get_int(f"stage.{name}.steps"),
            lr=cfg.get_float(f"stage.{name}.lr"),
            ema_decay=cfg.get_float(f"stage.{name}.ema"),
            batch_size=cfg.get_int(f"stage.{name}.batch"),
            mixture=cfg.get_weighted(f"stage.{name}.mixture"),
        )


# ---------------------------------------------------------------------------
# case materialization
# ---------------------------------------------------------------------------

def planner_sequence(case: EditCase, vit: ToyVit):
    """Canonical sequence for a case, its rows holding the ground-truth
    embeddings: zeros for the text, then the sources', then the target's
    (training masks set flags only, inference zeroes the target)."""
    text_ids = np.asarray(case.instruction, dtype=np.intp)
    grids, embs = zip(*(vit.encode(scene.normalized()) for scene in (case.source, case.reference, case.target)
                        if scene is not None))
    seq = serialize(len(text_ids), list(grids[:-1]), grids[-1])
    seq.text_ids = text_ids
    seq.embeddings = np.concatenate([np.zeros((len(text_ids), vit.embed_dim)), *embs])
    return seq


def renderer_sources(case: EditCase, vae: ToyVae) -> list[np.ndarray]:
    return [vae.encode(scene.normalized()) for scene in (case.source, case.reference) if scene is not None]


def text_sequence(instruction: list[int]):
    seq = serialize(len(instruction), [], None)
    seq.text_ids = np.asarray(instruction, dtype=np.intp)
    return seq


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class TrainState:
    step: int
    opt: Adam
    ema: dict[str, np.ndarray]
    rngs: dict[str, Rng]
    stages_done: list[str]


_STREAMS = ("task", "case", "mask", "noise", "drop")


def _fresh_streams(seed: int, stage: str) -> dict[str, Rng]:
    base = Rng(seed).child(101 + STAGES.index(stage))
    return {name: base.child(i) for i, name in enumerate(_STREAMS)}


def _sample_mixture(weights: dict[str, float], rng: Rng) -> str:
    names = sorted(weights)
    total = sum(weights[n] for n in names)
    u = rng.uniform() * total
    acc = 0.0
    for n in names:
        acc += weights[n]
        if u <= acc:
            return n
    return names[-1]


def _effective_mixture(cfg: StageConfig, step: int) -> dict[str, float]:
    if PAIR_TASK not in cfg.mixture:
        return cfg.mixture
    w_pair = pair_decay_weight(step, cfg.steps, cfg.mixture[PAIR_TASK])
    rest = {k: v for k, v in cfg.mixture.items() if k != PAIR_TASK}
    rest_total = sum(rest.values())
    scale = (1.0 - w_pair) / rest_total if rest_total > 0 else 0.0
    out = {k: v * scale for k, v in rest.items()}
    if w_pair > 0:
        out[PAIR_TASK] = w_pair
    return out


def _planner_case_loss(bundle: ModelBundle, run: RunConfig, case: EditCase, with_renderer: bool, rngs) -> Tensor:
    """The planner's loss on one case, plus, `with_renderer`, the renderer's,
    conditioned on the planner states of the sequence's conditioning rows."""
    seq = planner_sequence(case, bundle.vit)
    ratio = sample_mask_ratio(case.task, rngs["mask"])
    seq = apply_target_mask(seq, ratio, rngs["mask"])
    z = planner_forward(bundle.planner, seq)
    losses = losses_from_hidden(bundle.planner, bundle.decoder, seq, z, rngs["noise"])
    loss = TEXT_LOSS_WEIGHT * losses.ntp + losses.visual
    if with_renderer:
        loss = loss + _renderer_loss(bundle, run, case, gather_rows(z, conditioning_rows(seq)), rngs)
    return loss


def _renderer_loss(bundle: ModelBundle, run: RunConfig, case: EditCase, states: Tensor | None, rngs) -> Tensor:
    """Velocity loss of the renderer on one case, conditioned on the case's
    text, its source latents and the planner states `states` if given, each
    dropped at its rate in `run`."""
    if states is not None and rngs["drop"].uniform() < run.drop_target:
        states = None
    text = None if rngs["drop"].uniform() < run.drop_text else np.asarray(case.instruction, dtype=np.intp)
    kept = [lat for lat in renderer_sources(case, bundle.vae) if rngs["drop"].uniform() >= run.drop_source]
    cond = build_cond_tokens(bundle.renderer, text, states)
    l_dit, _ = train_step_renderer(bundle.renderer, bundle.vae.encode(case.target.normalized()), cond, kept,
                                   case.task, rngs["noise"])
    return l_dit


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # a diverging step is refused below
def run_stage(
    bundle: ModelBundle,
    stage_cfg: StageConfig,
    data: Dataset,
    run: RunConfig,
    seed: int,
    resume: Checkpoint | None = None,
    checkpoint_dir: str | Path | None = None,
    checkpoint_every: int = 0,
    log_every: int = 0,
) -> tuple[TrainState, Checkpoint]:
    """Train one stage to its step budget; returns the final state + checkpoint."""
    stage = stage_cfg.name
    stages_done: list[str] = []
    if resume is not None:
        check_config_snapshot(resume.config_snapshot, bundle.config)
        bundle.load_param_values(resume.params)
        stages_done = list(resume.stages_done)
    if stage == "III" and not {"I", "II"}.issubset(stages_done):
        raise StartupError(
            f"stage III requires checkpoints through stages I and II, have {stages_done or 'none'}"
        )
    for task_name in stage_cfg.mixture:
        if task_name not in data.by_task:
            raise StartupError(f"mixture task {task_name!r} missing from dataset {data.root}")

    trainable = bundle.trainable(stage)
    models = STAGE_MODELS[stage]
    mid_resume = (
        resume is not None
        and resume.stage == stage
        and stage not in resume.stages_done
        and resume.step > 0
    )
    if mid_resume:
        kind = resume.opt_meta.get("kind", "adam")
        if kind != "adam":
            raise CheckpointError(f"checkpoint holds {kind!r} optimizer state; training resumes Adam state only")
        _check_mid_stage_state(resume, trainable)
        opt = Adam(stage_cfg.lr)
        opt.t = int(resume.opt_meta.get("t", 0))
        opt.m = {k: v.copy() for k, v in resume.opt_m.items()}
        opt.v = {k: v.copy() for k, v in resume.opt_v.items()}
        ema = {k: v.copy() for k, v in resume.ema.items()}
        rngs = {k: Rng.from_state(s) for k, s in resume.rng_states.items()}
        state = TrainState(resume.step, opt, ema, rngs, stages_done)
    else:
        ema = {} if resume is None else {k: v.copy() for k, v in resume.ema.items()}
        for name, p in trainable.items():
            ema.setdefault(name, p.data.copy())
        state = TrainState(0, Adam(stage_cfg.lr), ema, _fresh_streams(seed, stage), stages_done)
    bundle.check_fit(state.ema, "EMA entry")

    while state.step < stage_cfg.steps:
        mixture = _effective_mixture(stage_cfg, state.step)
        batch_losses = []
        for _ in range(stage_cfg.batch_size):
            task_name = _sample_mixture(mixture, state.rngs["task"])
            indices = data.by_task[task_name]
            idx = indices[state.rngs["case"].integers(0, len(indices))]
            if task_name == TEXT_TASK:
                seq = text_sequence(data.instruction(idx))
                z = planner_forward(bundle.planner, seq)
                loss = TEXT_LOSS_WEIGHT * losses_from_hidden(
                    bundle.planner, bundle.decoder, seq, z, state.rngs["noise"]).ntp
            elif task_name == PAIR_TASK or "planner" not in models:
                loss = _renderer_loss(bundle, run, data.case(idx, bundle.admit), None, state.rngs)
            else:
                loss = _planner_case_loss(bundle, run, data.case(idx, bundle.admit), "renderer" in models, state.rngs)
            batch_losses.append(loss)
        batch_loss = (1.0 / stage_cfg.batch_size) * sum(batch_losses[1:], batch_losses[0])
        last_loss = batch_loss.item()
        if not np.isfinite(last_loss):
            raise NonFiniteError(f"stage {stage} step {state.step + 1}: loss is {last_loss}")
        for p in trainable.values():
            p.grad = None
        backward(batch_loss)
        state.opt.lr = stage_cfg.lr_at(state.step)
        state.opt.step(trainable)
        ema_update(state.ema, trainable, stage_cfg.ema_decay)
        state.step += 1
        if log_every and state.step % log_every == 0:
            print(f"[stage {stage}] step {state.step}/{stage_cfg.steps} loss {last_loss:.5f}")
        if checkpoint_every and checkpoint_dir and state.step % checkpoint_every == 0 and state.step < stage_cfg.steps:
            _require_finite(bundle, state, stage)
            ck = state_to_checkpoint(bundle, state, stage, run)
            ck.save(Path(checkpoint_dir) / f"stage_{stage}_step{state.step:06d}.ckpt")

    _require_finite(bundle, state, stage)
    if stage not in state.stages_done:
        state.stages_done.append(stage)
    final = state_to_checkpoint(bundle, state, stage, run)
    if checkpoint_dir:
        final.save(Path(checkpoint_dir) / f"stage_{stage}_final.ckpt")
    return state, final


def _check_mid_stage_state(resume: Checkpoint, trainable: dict[str, Tensor]) -> None:
    """Refuse mid-stage state that does not fit the stage: RNG streams other
    than the stage's, Adam moments m and v over different parameters or over
    one the stage does not train at its shape, or an EMA that lacks one."""
    if set(resume.rng_states) != set(_STREAMS):
        raise CheckpointError(f"checkpoint RNG streams {sorted(resume.rng_states)} are not the stage's "
                              f"{sorted(_STREAMS)}")
    if set(resume.opt_m) != set(resume.opt_v):
        raise CheckpointError(f"checkpoint Adam moments m and v differ on "
                              f"{', '.join(sorted(set(resume.opt_m) ^ set(resume.opt_v)))}")
    shapes = {name: p.data.shape for name, p in trainable.items()}
    for name in sorted(resume.opt_m):
        if not shapes.get(name) == resume.opt_m[name].shape == resume.opt_v[name].shape:
            raise CheckpointError(f"checkpoint Adam moments of {name!r} do not fit a parameter the stage trains")
    for name, shape in shapes.items():
        if name not in resume.ema or resume.ema[name].shape != shape:
            raise CheckpointError(f"checkpoint EMA lacks {name!r} at its shape {shape}")


def _require_finite(bundle: ModelBundle, state: TrainState, stage: str) -> None:
    """Refuse to checkpoint non-finite weights or EMA values."""
    bad = [name for name, p in bundle.named_params().items() if not np.isfinite(p.data).all()]
    bad += [f"ema {name}" for name, arr in state.ema.items() if not np.isfinite(arr).all()]
    if bad:
        names = ", ".join(sorted(bad)[:3]) + (", ..." if len(bad) > 3 else "")
        raise NonFiniteError(f"stage {stage} step {state.step}: {len(bad)} tensor(s) hold non-finite values "
                             f"({names}); no checkpoint written")


def state_to_checkpoint(bundle: ModelBundle, state: TrainState, stage: str, run: RunConfig) -> Checkpoint:
    return Checkpoint(
        stage=stage,
        step=state.step,
        stages_done=list(state.stages_done),
        params=bundle.param_values(),
        ema={k: v.copy() for k, v in state.ema.items()},
        opt_m={k: v.copy() for k, v in state.opt.m.items()},
        opt_v={k: v.copy() for k, v in state.opt.v.items()},
        opt_meta=state.opt.meta(),
        rng_states={k: r.state() for k, r in state.rngs.items()},
        config_snapshot=run.config.snapshot(),
    )


def dataset_counts(cfg: Config, stage: str) -> dict[str, int]:
    """Per-task record counts for one stage's dataset, proportional to its
    mixture with a floor so every sampled task has material."""
    n = cfg.get_int("data.cases_per_stage")
    mixture = cfg.get_weighted(f"stage.{stage}.mixture")
    total = sum(mixture.values())
    return {name: max(40, round(n * w / total)) for name, w in mixture.items()}


# ---------------------------------------------------------------------------
# inference pipeline and evaluation
# ---------------------------------------------------------------------------

def plan_case(bundle: ModelBundle, run: RunConfig, case: EditCase, rng: Rng) -> PlanResult:
    """Plan one case with every target token masked."""
    seq = planner_sequence(case, bundle.vit)
    t0, t1 = seq.span_of(TARGET)
    seq.embeddings[t0:t1] = 0.0
    seq.masked[t0:t1] = True
    return plan(
        bundle.planner, bundle.decoder, seq,
        total_steps=run.plan_steps, decoder_steps=run.decoder_steps,
        g_text=run.g_text, g_image=run.g_image, rng=rng,
    )


def render_case(bundle: ModelBundle, run: RunConfig, case: EditCase, states: np.ndarray | None,
                rng: Rng) -> np.ndarray:
    """Guided render of one case's target latent, conditioned on the planner
    hidden states `states` when given."""
    key = GUIDANCE_KEY[case.task]
    cond = CondInputs(np.asarray(case.instruction, dtype=np.intp), states, renderer_sources(case, bundle.vae))
    return render(
        bundle.renderer, cond, steps=run.guidance_steps[key], scales=run.guidance_scales[key],
        shift=run.flow_shift, rng=rng, target_grid=case.target.grid,
    )


def run_pipeline(bundle: ModelBundle, run: RunConfig, case: EditCase, rng: Rng,
                 seconds: list[float] | None = None) -> tuple[np.ndarray, PlanResult]:
    """plan -> render for one case: (decoded palette frames, the plan); adds
    the plan and render wall seconds to `seconds[0]` and `seconds[1]` when
    given."""
    t0 = time.monotonic()
    planned = plan_case(bundle, run, case, rng.child(1))
    t1 = time.monotonic()
    latent = render_case(bundle, run, case, planned.hidden, rng.child(2))
    if seconds is not None:
        seconds[0] += t1 - t0
        seconds[1] += time.monotonic() - t1
    return frames_to_ids(bundle.vae.decode(latent)), planned


@dataclass
class EvalReport:
    per_task_success: dict[str, float]
    per_task_count: dict[str, int]
    edited_accuracy: float
    untouched_exactness: float
    invariants_ok: bool | None = None
    runtime_seconds: float = field(default=0.0, compare=False)
    plan_seconds: float = field(default=0.0, compare=False)
    render_seconds: float = field(default=0.0, compare=False)
    per_family_success: dict[str, float] = field(default_factory=dict)
    # family -> (success, edited accuracy, untouched agreement) of the plan
    # alone, its embeddings decoded through the frozen ViT; empty for the
    # random baseline, which makes no plan
    plan_only_by_family: dict[str, tuple[float, float, float]] = field(default_factory=dict)

    def to_text(self) -> str:
        lines = []
        for task in sorted(self.per_task_success):
            lines.append(f"success.{task} {self.per_task_success[task]:.4f}")
            lines.append(f"cases.{task} {self.per_task_count[task]}")
        for family in sorted(self.per_family_success):
            lines.append(f"success.family.{family} {self.per_family_success[family]:.4f}")
        for family in sorted(self.plan_only_by_family):
            for name, value in zip(("success", "edited_accuracy", "untouched"), self.plan_only_by_family[family]):
                lines.append(f"plan_only.{name}.family.{family} {value:.4f}")
        lines.append(f"edited_accuracy {self.edited_accuracy:.4f}")
        lines.append(f"untouched_exactness {self.untouched_exactness:.4f}")
        if self.invariants_ok is not None:
            lines.append(f"invariants_pass {int(self.invariants_ok)}")
        return "\n".join(lines) + "\n"


def evaluate(
    bundle: ModelBundle,
    data: Dataset,
    run: RunConfig,
    seed: int,
    ema: dict[str, np.ndarray] | None = None,
    random_baseline: bool = False,
    max_cases: int | None = None,
    with_invariants: bool = False,
) -> EvalReport:
    """Oracle-scored plan->render over every case record in the dataset.

    `random_baseline=True` replaces the model output with decoded noise, which
    is the chance-level reference for the same oracles.
    """
    t_start = time.monotonic()
    rng_root = Rng(seed).child(0xEA1)
    succ: dict[str, list[bool]] = {}
    fam_succ: dict[str, list[bool]] = {}
    edited: list[float] = []
    kept: list[float] = []
    plan_only: dict[str, list[tuple[bool, float, float]]] = {}
    phase_seconds = [0.0, 0.0]  # plan, render
    n_done = 0
    with ema_weights(bundle, ema if run.use_ema else None):
        for i, record in enumerate(data.records):
            if record["kind"] != "case":
                continue
            if max_cases is not None and n_done >= max_cases:
                break
            case = data.case(i, bundle.admit)
            rng = rng_root.child(i)
            if random_baseline:
                noise = rng.normal((*case.target.grid, LATENT_CHANNELS))
                ids = frames_to_ids(bundle.vae.decode(noise))
            else:
                ids, planned = run_pipeline(bundle, run, case, rng, phase_seconds)
                plan_ids = frames_to_ids(bundle.vit.decode(planned.embeddings, case.target.grid))
                scores = oracle_scores(case, plan_ids)
                passed = oracle_passes(scores)
                plan_only.setdefault(case.family, []).append((passed, *scores))
            e_acc, k_acc = oracle_scores(case, ids)
            ok = oracle_passes((e_acc, k_acc))
            succ.setdefault(case.task.value, []).append(ok)
            fam_succ.setdefault(case.family, []).append(ok)
            edited.append(e_acc)
            kept.append(k_acc)
            n_done += 1
    inv_ok = None
    if with_invariants:
        inv_ok = all(ok for _, ok, _ in invariant_suite(quick=True))
    return EvalReport(
        per_task_success={k: float(np.mean(v)) for k, v in succ.items()},
        per_task_count={k: len(v) for k, v in succ.items()},
        edited_accuracy=float(np.mean(edited)) if edited else 0.0,
        untouched_exactness=float(np.mean(kept)) if kept else 0.0,
        invariants_ok=inv_ok,
        runtime_seconds=time.monotonic() - t_start,
        plan_seconds=phase_seconds[0],
        render_seconds=phase_seconds[1],
        per_family_success={k: float(np.mean(v)) for k, v in fam_succ.items()},
        plan_only_by_family={k: tuple(float(x) for x in np.mean(v, axis=0)) for k, v in plan_only.items()},
    )


def edit_case(bundle: ModelBundle, run: RunConfig, case: EditCase, seed: int,
              ema: dict[str, np.ndarray] | None = None) -> tuple[np.ndarray, dict]:
    """Single-case plan+render; returns (frames ids, deterministic report dict)."""
    with ema_weights(bundle, ema if run.use_ema else None):
        ids, _ = run_pipeline(bundle, run, case, Rng(seed).child(0xED17))
    e_acc, k_acc = oracle_scores(case, ids)
    report = {
        "task": case.task.value,
        "family": case.family,
        "edited_accuracy": round(e_acc, 6),
        "untouched_agreement": round(k_acc, 6),
        "oracle_pass": oracle_passes((e_acc, k_acc)),
        "seed": seed,
    }
    return ids, report


# ---------------------------------------------------------------------------
# invariant suite
# ---------------------------------------------------------------------------

def invariant_suite(quick: bool = False) -> list[tuple[str, bool, str]]:
    """Fast self-checks over the module invariants; (name, ok, detail) triples."""
    from . import checks

    return checks.run_all(quick=quick)
