"""Flow-matching renderer over toy latents.

The toy VAE maps each pixel value onto a polyline through six well-separated
palette codewords, exactly invertible on every value in [0, 1]. The renderer
patchifies the noisy target latent plus any source latents into one visual
token stream, laid out and rotated exactly as the planner's visual segments
(sources 1..N with their segment phases, then the target as segment 0). It
runs self-attention + cross-attention blocks over text features that carry
learned word positions and reads a velocity field off the target tokens.
Sampling is plain Euler from noise at t=0 to data at t=1 on a shift-warped
time grid. Every guidance condition subset is one entry of a batched forward,
so each step makes a single forward whose per-subset slices the guidance
module composes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import nets
from .guidance import BRANCHES, GuidanceSpec, compose
from .numerics import DimensionError, ContractError, Rng, Rotation, Run, Tensor, add, concat, embedding, matmul, mul, narrow, no_grad, sub, tmean
from .posenc import RopeConfig, token_angles
from .schedules import DomainError, sample_timestep, shift_toward_noise
from .sequence import TokenSequence, serialize
from .toydata import MAX_TEXT_TOKENS, VOCAB


# ---------------------------------------------------------------------------
# toy VAE: palette polyline, exactly invertible on [0, 1]
# ---------------------------------------------------------------------------

# Distance of each palette codeword from the origin; noise has unit variance.
PALETTE_SCALE = 3.0

# Width of the toy latent; the palette polyline uses three of its axes.
LATENT_CHANNELS = 4


class ToyVae:
    """Pixel value x in [0, 1] -> point at fractional palette index u = 5x on
    the polyline through PALETTE_SCALE * (+e1, +e2, +e3, -e1, -e2, -e3).

    Consecutive codewords are never antipodal, so the polyline runs along
    edges of the cross-polytope and never crosses itself. Palette values sit
    on the codewords, at least PALETTE_SCALE * sqrt(2) apart. `decode`
    projects a latent onto the nearest segment and returns u / 5, which is
    exact on every encoded value. `offset` is the background codeword (x = 0).
    """

    def __init__(self):
        eye = np.eye(LATENT_CHANNELS)[:3]
        self.codewords = PALETTE_SCALE * np.concatenate([eye, -eye])  # (6, LATENT_CHANNELS)
        self.offset = self.codewords[0]

    def encode(self, frames: np.ndarray) -> np.ndarray:
        frames = np.asarray(frames, dtype=np.float64)
        if frames.min() < -1e-9 or frames.max() > 1.0 + 1e-9:
            raise DomainError(
                f"frame values must lie in [0, 1], got [{frames.min():.3g}, {frames.max():.3g}]"
            )
        n_seg = len(self.codewords) - 1
        u = np.clip(frames, 0.0, 1.0) * n_seg
        k = np.minimum(np.floor(u), n_seg - 1).astype(np.intp)
        frac = (u - k)[..., None]
        return (1.0 - frac) * self.codewords[k] + frac * self.codewords[k + 1]

    def decode(self, latent: np.ndarray) -> np.ndarray:
        latent = np.asarray(latent, dtype=np.float64)
        starts, dirs = self.codewords[:-1], np.diff(self.codewords, axis=0)  # (S, C)
        rel = latent[..., None, :] - starts  # (..., S, C)
        s = np.clip((rel * dirs).sum(-1) / (dirs * dirs).sum(-1), 0.0, 1.0)
        resid = rel - s[..., None] * dirs
        seg = np.argmin((resid * resid).sum(-1), axis=-1)
        u = seg + np.take_along_axis(s, seg[..., None], axis=-1)[..., 0]
        return u / len(dirs)


# ---------------------------------------------------------------------------
# latent <-> token helpers
# ---------------------------------------------------------------------------

def patchify(latent: np.ndarray, patch: tuple[int, int, int]) -> tuple[tuple[int, int, int], np.ndarray]:
    t, h, w, c = latent.shape
    pt, ph, pw = patch
    if t % pt or h % ph or w % pw:
        raise DimensionError(f"latent grid {(t, h, w)} not divisible by patch {patch}")
    gt, gh, gw = t // pt, h // ph, w // pw
    tokens = (
        latent.reshape(gt, pt, gh, ph, gw, pw, c)
        .transpose(0, 2, 4, 1, 3, 5, 6)
        .reshape(gt * gh * gw, pt * ph * pw * c)
    )
    return (gt, gh, gw), tokens


def unpatchify(tokens: np.ndarray, grid: tuple[int, int, int], patch: tuple[int, int, int], channels: int) -> np.ndarray:
    gt, gh, gw = grid
    pt, ph, pw = patch
    return (
        tokens.reshape(gt, gh, gw, pt, ph, pw, channels)
        .transpose(0, 3, 1, 4, 2, 5, 6)
        .reshape(gt * pt, gh * ph, gw * pw, channels)
    )


# ---------------------------------------------------------------------------
# flow sample
# ---------------------------------------------------------------------------

@dataclass
class FlowSample:
    """Straight-line interpolant: x_t = t*data + (1-t)*noise, v = data - noise."""

    data: np.ndarray
    noise: np.ndarray
    t: float
    x_t: np.ndarray = field(init=False)
    v_target: np.ndarray = field(init=False)

    def __post_init__(self):
        self.x_t = self.t * self.data + (1.0 - self.t) * self.noise
        self.v_target = self.data - self.noise


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

@dataclass
class RendererConfig:
    hidden_dim: int
    blocks: int
    heads: int
    patch: tuple[int, int, int]
    segment_phases: bool
    planner_dim: int              # width of the planner states fed to the projector

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.heads

    @property
    def patch_dim(self) -> int:
        return int(np.prod(self.patch)) * LATENT_CHANNELS

    def rope(self) -> RopeConfig:
        return RopeConfig(head_dim=self.head_dim)


class RendererModel:
    def __init__(self, cfg: RendererConfig, rng: Rng):
        self.cfg = cfg
        d, pd = cfg.hidden_dim, cfg.patch_dim
        p: dict[str, Tensor] = {}
        p["patch_proj"] = nets.weight(rng.child(1), pd, d)
        p["patch_bias"] = nets.zeros_param(1, d)
        p["time.w1"] = nets.weight(rng.child(2), nets.TIME_FEATURES, d)
        p["time.b1"] = nets.zeros_param(1, d)
        p["time.w2"] = nets.weight(rng.child(3), d, d)
        p["time.b2"] = nets.zeros_param(1, d)
        p["text_embed"] = nets.normal_param(rng.child(4), (len(VOCAB), d), 0.5)
        p["null_cond"] = nets.normal_param(rng.child(5), (1, d), 0.5)
        p["text_pos"] = nets.normal_param(rng.child(6), (MAX_TEXT_TOKENS, d), 0.5)
        # zero-initialized projector: planner states contribute nothing until trained
        p["cond_proj"] = nets.zeros_param(cfg.planner_dim, d)
        p["cond_bias"] = nets.zeros_param(1, d)
        for i in range(cfg.blocks):
            nets.block_params(p, f"block{i}.", rng.child(10 + i), d, cross=True)
        p["ln_f.g"], p["ln_f.b"] = nets.ones_param(1, d), nets.zeros_param(1, d)
        p["out_proj"] = nets.weight(rng.child(90), d, pd, gain=0.5)
        p["out_bias"] = nets.zeros_param(1, pd)
        self.params = p


def build_cond_tokens(model: RendererModel, text_ids: np.ndarray | None, planner_states) -> Tensor:
    """Conditioning stream: learned null token, text features plus learned
    word positions, projected planner states."""
    p = model.params
    parts: list[Tensor] = [p["null_cond"]]
    if text_ids is not None and len(text_ids):
        n = len(text_ids)
        if n > MAX_TEXT_TOKENS:
            raise DimensionError(f"instruction has {n} tokens; the renderer holds at most {MAX_TEXT_TOKENS}")
        words = embedding(p["text_embed"], np.asarray(text_ids, dtype=np.intp))
        parts.append(add(words, narrow(p["text_pos"], 0, 0, n)))
    if planner_states is not None:
        states = planner_states if isinstance(planner_states, Tensor) else Tensor(planner_states)
        parts.append(add(matmul(states, p["cond_proj"]), p["cond_bias"]))
    return parts[0] if len(parts) == 1 else concat(parts, axis=0)


def conditioning_rows(seq: TokenSequence) -> np.ndarray:
    """Rows of a planner sequence whose hidden states condition the renderer,
    in training and inference alike: every row not masked. Only target rows
    are ever masked, and a finished plan has none left, so inference keeps
    every row."""
    return np.flatnonzero(~seq.masked)


@dataclass(frozen=True)
class VisualStream:
    """Layout of the visual token stream: clean source tokens, then the target.

    Built once per render; only the noisy target tokens change between steps.
    """

    sources: np.ndarray  # (n_src, patch_dim) source tokens
    seq: TokenSequence   # canonical layout: sources 1..N, then the target
    angles: np.ndarray   # (n_src + n_target, head_dim // 2)


def visual_stream(cfg: RendererConfig, source_latents: list[np.ndarray], target_shape) -> VisualStream:
    """Patchify the sources; lay out and rotate sources + target as the planner does."""
    grids, rows = [], []
    for latent in source_latents:
        grid, toks = patchify(np.asarray(latent, dtype=np.float64), cfg.patch)
        grids.append(grid)
        rows.append(toks)
    tgt_grid = tuple(d // q for d, q in zip(target_shape, cfg.patch))  # patchify checks divisibility
    seq = serialize(0, grids, tgt_grid)
    sources = np.concatenate(rows, axis=0) if rows else np.zeros((0, cfg.patch_dim))
    return VisualStream(sources, seq, token_angles(cfg.rope(), seq, cfg.segment_phases))


class Stacking(NamedTuple):
    """Copies of the visual stream stacked row-wise, each holding some of the
    sources and then the target. An index of None means every row once, in
    order; pairs are indexed by whether only the target rows are queries."""

    rows: np.ndarray | None                  # row of [sources, target] behind each stacked row
    targets: np.ndarray | None               # stacked rows of the target tokens
    runs: tuple[list[Run], list[Run]]        # self-attention over each copy's own rows
    rotation: Rotation                       # rotary cos/sin per stacked row, tiled over heads


def _gather(x: Tensor, index: np.ndarray | None) -> Tensor:
    return x if index is None else embedding(x, index)


def _runs(shapes: list[tuple[int, int]]) -> list[Run]:
    """One run per stretch of consecutive entries of equal (query rows, key rows)."""
    runs: list[Run] = []
    for nq, nk in shapes:
        if runs and (runs[-1].nq, runs[-1].nk) == (nq, nk):
            runs[-1] = runs[-1]._replace(batch=runs[-1].batch + 1)
        else:
            runs.append(Run(1, nq, nk))
    return runs


def _stacking(stream: VisualStream, copies: list[np.ndarray], heads: int) -> Stacking:
    """Stack `copies`, each a list of stream rows: its sources in stream
    order, then the target rows."""
    n_tgt = len(stream.angles) - len(stream.sources)
    sizes = [len(c) for c in copies]
    rows = np.concatenate(copies)
    targets = np.concatenate([np.arange(end - n_tgt, end) for end in np.cumsum(sizes)])
    runs = _runs([(n, n) for n in sizes])
    return Stacking(None if len(copies) == 1 and len(rows) == len(stream.angles) else rows,
                    None if len(targets) == len(rows) else targets,
                    (runs, [r._replace(nq=n_tgt) for r in runs]), nets.rotary(stream.angles[rows], heads))


@dataclass(frozen=True)
class RenderConstants:
    """Everything in renderer_forward that depends on neither x_t nor t.

    Built once per render (and per call in training); only valid for the
    weights it was built with. Entries that hold the same sources have equal
    inputs, so block 0's self-attention runs once per run of such entries
    (`groups`). Pairs are indexed by whether only target rows are queries.
    """

    sources: Tensor                                          # (n_src, hidden_dim) patch projection of the sources
    groups: Stacking                                         # block 0: one copy per group
    entries: Stacking                                        # later blocks: one copy per entry
    to_entries: tuple[np.ndarray | None, np.ndarray | None]  # row of `groups` behind each entry row
    cross_kv: list[tuple[Tensor, Tensor]]                    # per block: keys and values of the stacked conds
    cross_runs: tuple[list[Run], list[Run]]                  # entries against their own conditioning rows


def render_constants(model: RendererModel, stream: VisualStream, conds: list[Tensor],
                     held: tuple[tuple[int, ...], ...]) -> RenderConstants:
    """Prepare the constants of a batch of entries of `stream`: entry e holds
    the sources `held[e]` (ascending indices) and the target, and
    cross-attends to the conditioning tokens `conds[e]`."""
    p = model.params
    cfg = model.cfg
    cond = conds[0] if len(conds) == 1 else concat(conds, axis=0)
    # an entry sees its own sources (segments 1..N), in stream order, then the target (segment 0)
    seg = stream.seq.segment_indices
    target = np.flatnonzero(seg == 0)
    copies = [np.concatenate([np.flatnonzero(seg == i + 1) for i in h] + [target]) for h in held]
    firsts = [e for e in range(len(held)) if e == 0 or held[e] != held[e - 1]]
    entries = groups = _stacking(stream, copies, cfg.heads)
    to_entries = (None, None)
    if len(firsts) < len(held):
        groups = _stacking(stream, [copies[e] for e in firsts], cfg.heads)
        group = np.cumsum([e in firsts for e in range(len(held))]) - 1

        def per_entry(sizes):  # rows of the group stacking behind each entry's rows
            starts = np.cumsum([0, *sizes[:-1]])
            return np.concatenate([starts[g] + np.arange(sizes[g]) for g in group])

        to_entries = (per_entry([len(copies[e]) for e in firsts]), per_entry([len(target)] * len(firsts)))
    runs = _runs([(len(rows), c.shape[0]) for rows, c in zip(copies, conds)])
    return RenderConstants(
        sources=add(matmul(Tensor(stream.sources), p["patch_proj"]), p["patch_bias"]),
        groups=groups,
        entries=entries,
        to_entries=to_entries,
        cross_kv=[nets.cross_kv(p, f"block{i}.", cond) for i in range(cfg.blocks)],
        cross_runs=(runs, [r._replace(nq=len(target)) for r in runs]),
    )


def renderer_forward(
    model: RendererModel,
    x_t: np.ndarray,
    t: float,
    cond: Tensor | None = None,
    source_latents: list[np.ndarray] | None = None,
    consts: RenderConstants | None = None,
) -> Tensor:
    """Velocity prediction on the target tokens, shape (entries * n_target, patch_dim).

    Evaluates the entries of `consts`, the work prepared from the entries'
    conditioning, held sources and the weights by `render_constants`. They
    share x_t, t and the sources; each sees only its own sources and the
    target, placed and rotated as in the full stream (sources first, target
    last). Without `consts` that work is done here for one entry that holds
    every source of `source_latents` and cross-attends to `cond`.
    """
    cfg = model.cfg
    p = model.params
    x_t = np.asarray(x_t, dtype=np.float64)
    if consts is None:
        sources = source_latents or []
        consts = render_constants(model, visual_stream(cfg, sources, x_t.shape), [cond],
                                  (tuple(range(len(sources))),))
    _, tgt_tokens = patchify(x_t, cfg.patch)
    target = add(matmul(Tensor(tgt_tokens), p["patch_proj"]), p["patch_bias"])
    # time conditioning applies to the noisy target tokens; sources are clean
    target = add(target, nets.time_embedding(p, "time.", float(t)))
    rows = consts.groups
    x = _gather(concat([consts.sources, target], axis=0), rows.rows)
    for i in range(cfg.blocks):
        pre = f"block{i}."
        # only target rows are read out, and the layers after the last
        # self-attention act row by row: there only target rows are queries
        last = i == cfg.blocks - 1
        queries = rows.targets if last else None
        attn = nets.self_attention(p, pre, nets.ln(p, pre + "ln1.", x), cfg.heads, None, rows.rotation,
                                   rows.runs[last], queries=queries)
        x = add(_gather(x, queries), attn)
        if i == 0:
            x = _gather(x, consts.to_entries[last])
            rows = consts.entries
        x = add(x, nets.cross_attention(p, pre, nets.ln(p, pre + "lnc.", x), consts.cross_kv[i], cfg.heads,
                                        consts.cross_runs[last]))
        x = add(x, nets.mlp(p, pre, nets.ln(p, pre + "ln2.", x)))
    return add(matmul(nets.ln(p, "ln_f.", x), p["out_proj"]), p["out_bias"])


def train_step_renderer(model: RendererModel, target_latent: np.ndarray, cond: Tensor,
                        source_latents: list[np.ndarray], task, rng: Rng) -> tuple[Tensor, FlowSample]:
    """Velocity-MSE flow-matching loss on one target latent, conditioned on
    `cond` and the source latents, at a task-weighted timestep."""
    t = sample_timestep(task, rng)
    noise = rng.normal(target_latent.shape)
    fs = FlowSample(target_latent, noise, t)
    pred = renderer_forward(model, fs.x_t, t, cond, source_latents)
    _, v_tok = patchify(fs.v_target, model.cfg.patch)
    resid = sub(pred, Tensor(v_tok))
    return tmean(mul(resid, resid)), fs


def euler_integrate(velocity_fn, x0: np.ndarray, steps: int, shift: float = 1.0) -> np.ndarray:
    """Euler steps on the shift-warped grid, fine near the noise end, 0 -> 1."""
    if steps < 1:
        raise ContractError(f"steps must be >= 1, got {steps}")
    grid = [float(shift_toward_noise(i / steps, shift)) for i in range(steps + 1)]
    x = np.array(x0, dtype=np.float64, copy=True)
    for i in range(steps):
        dt = grid[i + 1] - grid[i]
        x = x + dt * np.asarray(velocity_fn(x, grid[i]))
    return x


def source_role(latent: np.ndarray) -> str:
    """The guidance branch a source latent conditions: a source of more than
    one frame is a video, a one-frame source an image."""
    return "vid" if len(latent) > 1 else "img"


@dataclass
class CondInputs:
    """Raw conditions available for one render; subsets are derived from these."""

    text_ids: np.ndarray | None = None
    planner_states: np.ndarray | None = None
    source_latents: list[np.ndarray] = field(default_factory=list)

    def branches(self) -> tuple[str, ...]:
        """The guidance branches these conditions supply, in canonical order."""
        roles = {source_role(latent) for latent in self.source_latents}
        have = {
            "vid": "vid" in roles,
            "img": "img" in roles,
            "txt": self.text_ids is not None and len(self.text_ids) > 0,
            "tgt": self.planner_states is not None,
        }
        return tuple(b for b in BRANCHES if have[b])


def render(
    model: RendererModel,
    cond_inputs: CondInputs,
    steps: int,
    scales: dict[str, float],
    shift: float,
    rng: Rng,
    target_grid: tuple[int, int, int],
) -> np.ndarray:
    """Sample a target latent by guided Euler integration from pure noise.

    The guidance branches are those `cond_inputs` supplies, each weighted by
    its entry of `scales` (1.0 when absent). Subset i of the spec's chain is
    entry i of a ragged batch (`render_constants`): it holds only the sources
    of its subset and the target, and cross-attends to that subset's
    conditioning tokens. Every step makes one batched forward, composes the
    entries' token rows into the guided velocity and unpatchifies it.
    """
    cfg = model.cfg
    branches = cond_inputs.branches()
    spec = GuidanceSpec({b: float(scales.get(b, 1.0)) for b in branches}, branches)
    chain = spec.subset_chain()
    t_len, h, w = target_grid
    with no_grad():
        stream = visual_stream(cfg, cond_inputs.source_latents, (t_len, h, w))
        conds = [build_cond_tokens(model, cond_inputs.text_ids if "txt" in subset else None,
                                   cond_inputs.planner_states if "tgt" in subset else None) for subset in chain]
        held = tuple(tuple(i for i, latent in enumerate(cond_inputs.source_latents) if source_role(latent) in subset)
                     for subset in chain)
        consts = render_constants(model, stream, conds, held)
        noise = rng.normal((t_len, h, w, LATENT_CHANNELS))
        grid = stream.seq.layout[-1].grid  # the target's patch grid

        def velocity(x, t):
            tok = renderer_forward(model, x, t, consts=consts).data
            return unpatchify(compose(spec, tok.reshape(len(chain), -1, cfg.patch_dim)), grid, cfg.patch,
                              LATENT_CHANNELS)

        return euler_integrate(velocity, noise, steps, shift)
