"""Masked semantic planner.

A bidirectional-over-visual transformer encodes the unified token sequence
under the hybrid attention mask and returns one contextual hidden state per
token. A small residual decoder head, conditioned on those hidden states and a
flow-matching timestep, predicts ground-truth target embeddings at masked
positions; at inference the target is filled in over K steps of the cosine
reveal schedule, feeding predictions back into the sequence between steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import nets
from .numerics import (
    ContractError,
    DimensionError,
    Rng,
    Tensor,
    add,
    concat,
    embedding,
    matmul,
    mul,
    narrow,
    no_grad,
    sub,
    tmean,
    tsum,
    logsumexp_rows,
)
from .posenc import RopeConfig, token_angles
from .schedules import masked_count_trace
from .sequence import (
    TEXT,
    VISUAL_SOURCE,
    VISUAL_TARGET,
    AttentionMask,
    TokenSequence,
    build_mask,
)
from .toydata import VOCAB, Scene


# ---------------------------------------------------------------------------
# frozen toy ViT: fixed random patch encoder standing in for the target space
# ---------------------------------------------------------------------------

class ToyVit:
    """Frozen random patch encoder; its output space is what the planner predicts."""

    def __init__(self, patch: tuple[int, int, int] = (1, 2, 2), embed_dim: int = 16, seed: int = 7101):
        self.patch = tuple(patch)
        self.embed_dim = embed_dim
        rng = Rng(seed)
        pd = int(np.prod(patch))
        self.weight = rng.normal((pd, embed_dim)) / math.sqrt(pd)
        self.bias = rng.normal((embed_dim,)) * 0.1

    def token_grid(self, grid: tuple[int, int, int]) -> tuple[int, int, int]:
        t, h, w = grid
        pt, ph, pw = self.patch
        if t % pt or h % ph or w % pw:
            raise DimensionError(f"grid {grid} not divisible by patch {self.patch}")
        return (t // pt, h // ph, w // pw)

    def encode(self, frames: np.ndarray) -> tuple[tuple[int, int, int], np.ndarray]:
        """(token grid, (n, embed_dim) embeddings) for normalized frames."""
        t, h, w = frames.shape
        gt, gh, gw = self.token_grid((t, h, w))
        pt, ph, pw = self.patch
        patches = (
            frames.reshape(gt, pt, gh, ph, gw, pw)
            .transpose(0, 2, 4, 1, 3, 5)
            .reshape(gt * gh * gw, pt * ph * pw)
        )
        return (gt, gh, gw), patches @ self.weight + self.bias

    def encode_scene(self, scene: Scene) -> tuple[tuple[int, int, int], np.ndarray]:
        return self.encode(scene.normalized())


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

@dataclass
class PlannerConfig:
    hidden_dim: int = 32
    blocks: int = 2
    heads: int = 2
    embed_dim: int = 16           # target embedding space dim
    vocab_size: int = len(VOCAB)
    mlp_ratio: int = 4
    rope_base: float = 10000.0
    segment_base: float = 10000.0
    segment_phases: bool = False  # standard 3D rotation by default in the planner
    decoder_dim: int = 64
    decoder_blocks: int = 2
    time_features: int = 16

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.heads

    def rope(self) -> RopeConfig:
        return RopeConfig(head_dim=self.head_dim, base=self.rope_base, segment_base=self.segment_base)


class PlannerModel:
    def __init__(self, cfg: PlannerConfig, rng: Rng):
        self.cfg = cfg
        d, de = cfg.hidden_dim, cfg.embed_dim
        hidden = cfg.mlp_ratio * d
        p: dict[str, Tensor] = {}
        p["text_embed"] = nets.normal_param(rng.child(1), (cfg.vocab_size, d), 0.5)
        p["src_proj"] = nets.weight(rng.child(2), de, d)
        p["src_bias"] = nets.zeros_param(1, d)
        p["tgt_proj"] = nets.weight(rng.child(3), de, d)
        p["tgt_bias"] = nets.zeros_param(1, d)
        p["mask_embed"] = nets.normal_param(rng.child(4), (1, de), 0.5)
        for i in range(cfg.blocks):
            r = rng.child(10 + i)
            pre = f"block{i}."
            p[pre + "ln1.g"], p[pre + "ln1.b"] = nets.ones_param(1, d), nets.zeros_param(1, d)
            p[pre + "wq"] = nets.weight(r.child(0), d, d)
            p[pre + "wk"] = nets.weight(r.child(1), d, d)
            p[pre + "wv"] = nets.weight(r.child(2), d, d)
            p[pre + "wo"] = nets.weight(r.child(3), d, d, gain=0.5)
            p[pre + "ln2.g"], p[pre + "ln2.b"] = nets.ones_param(1, d), nets.zeros_param(1, d)
            p[pre + "w1"] = nets.weight(r.child(4), d, hidden)
            p[pre + "b1"] = nets.zeros_param(1, hidden)
            p[pre + "w2"] = nets.weight(r.child(5), hidden, d, gain=0.5)
            p[pre + "b2"] = nets.zeros_param(1, d)
        p["ln_f.g"], p["ln_f.b"] = nets.ones_param(1, d), nets.zeros_param(1, d)
        p["text_head"] = nets.weight(rng.child(90), d, cfg.vocab_size)
        p["text_head_b"] = nets.zeros_param(1, cfg.vocab_size)
        self.params = p

    @property
    def mask_embedding(self) -> Tensor:
        return self.params["mask_embed"]


class EmbeddingDecoder:
    """MLP input projection plus a residual block stack; the conditioning hidden
    state is concatenated to the time embedding at every block."""

    def __init__(self, cfg: PlannerConfig, rng: Rng):
        self.cfg = cfg
        dd, de, dp = cfg.decoder_dim, cfg.embed_dim, cfg.hidden_dim
        cond = dd + dp  # time embedding + planner state
        p: dict[str, Tensor] = {}
        p["time.w1"] = nets.weight(rng.child(1), cfg.time_features, dd)
        p["time.b1"] = nets.zeros_param(1, dd)
        p["time.w2"] = nets.weight(rng.child(2), dd, dd)
        p["time.b2"] = nets.zeros_param(1, dd)
        p["in_proj"] = nets.weight(rng.child(3), de, dd)
        p["in_bias"] = nets.zeros_param(1, dd)
        for i in range(cfg.decoder_blocks):
            r = rng.child(10 + i)
            pre = f"res{i}."
            p[pre + "ln.g"], p[pre + "ln.b"] = nets.ones_param(1, dd), nets.zeros_param(1, dd)
            p[pre + "w1"] = nets.weight(r.child(0), dd + cond, 2 * dd)
            p[pre + "b1"] = nets.zeros_param(1, 2 * dd)
            p[pre + "w2"] = nets.weight(r.child(1), 2 * dd, dd, gain=0.5)
            p[pre + "b2"] = nets.zeros_param(1, dd)
        p["out_ln.g"], p["out_ln.b"] = nets.ones_param(1, dd), nets.zeros_param(1, dd)
        p["out_proj"] = nets.weight(rng.child(90), dd, de)
        p["out_bias"] = nets.zeros_param(1, de)
        self.params = p


def decoder_forward(decoder: EmbeddingDecoder, x, t, z) -> Tensor:
    """Velocity prediction in the target embedding space.

    x: (m, embed_dim) noisy embeddings; t: scalar or (m,) timesteps;
    z: (m, hidden_dim) conditioning states (Tensor or constant).
    """
    p = decoder.params
    m = x.shape[0] if isinstance(x, Tensor) else np.asarray(x).shape[0]
    t_arr = np.broadcast_to(np.atleast_1d(np.asarray(t, dtype=np.float64)), (m,))
    temb = nets.time_embedding(p, "time.", t_arr, decoder.cfg.time_features)
    z = z if isinstance(z, Tensor) else Tensor(z)
    cond = concat([temb, z], axis=1)
    h = add(matmul(x if isinstance(x, Tensor) else Tensor(x), p["in_proj"]), p["in_bias"])
    for i in range(decoder.cfg.decoder_blocks):
        pre = f"res{i}."
        inner = concat([nets.ln(p, pre + "ln.", h), cond], axis=1)
        h = add(h, nets.mlp(p, pre, inner))
    return add(matmul(nets.ln(p, "out_ln.", h), p["out_proj"]), p["out_bias"])


# ---------------------------------------------------------------------------
# forward pass over the unified sequence
# ---------------------------------------------------------------------------

def _assemble_inputs(model: PlannerModel, seq: TokenSequence) -> Tensor:
    p = model.params
    parts: list[Tensor] = []
    for desc, start, stop in seq.spans():
        if desc.kind == TEXT:
            if seq.text_ids is None:
                raise DimensionError("sequence has a text segment but no text ids")
            parts.append(embedding(p["text_embed"], seq.text_ids))
            continue
        if seq.embeddings is None:
            raise DimensionError("sequence has visual segments but no embeddings")
        rows = Tensor(seq.embeddings[start:stop])
        if desc.kind == VISUAL_SOURCE:
            parts.append(add(matmul(rows, p["src_proj"]), p["src_bias"]))
        else:
            flags = seq.masked[start:stop].astype(np.float64)[:, None]
            content = add(mul(Tensor(flags), p["mask_embed"]), Tensor((1.0 - flags) * seq.embeddings[start:stop]))
            parts.append(add(matmul(content, p["tgt_proj"]), p["tgt_bias"]))
    return parts[0] if len(parts) == 1 else concat(parts, axis=0)


def planner_forward(model: PlannerModel, seq: TokenSequence, mask: AttentionMask | None = None) -> Tensor:
    """Contextual hidden states, one per token, under the hybrid attention mask.

    A mask whose `allow` has shape (batch, n, n) runs one copy of the
    sequence per mask and stacks the states row-wise: (batch * n, hidden_dim).
    """
    cfg = model.cfg
    if mask is None:
        mask = build_mask(seq)
    bias = mask.additive_bias()
    batch = 1 if bias.ndim == 2 else bias.shape[0]
    bias = bias.reshape(batch, 1, len(seq), len(seq))  # shared by all heads
    angles = token_angles(cfg.rope(), seq, cfg.segment_phases)
    x = _assemble_inputs(model, seq)
    if batch > 1:
        x = concat([x] * batch, axis=0)
    p = model.params
    for i in range(cfg.blocks):
        pre = f"block{i}."
        x = add(x, nets.self_attention(p, pre, nets.ln(p, pre + "ln1.", x), cfg.heads, bias, angles, batch))
        x = add(x, nets.mlp(p, pre, nets.ln(p, pre + "ln2.", x)))
    return nets.ln(p, "ln_f.", x)


def cross_entropy_rows(logits: Tensor, labels: np.ndarray) -> Tensor:
    n, v = logits.shape
    onehot = np.zeros((n, v))
    onehot[np.arange(n), np.asarray(labels, dtype=np.intp)] = 1.0
    lse = logsumexp_rows(logits)
    correct = tsum(mul(logits, onehot), axis=-1, keepdims=True)
    return tmean(sub(lse, correct))


@dataclass
class PlannerLosses:
    ntp: Tensor
    visual: Tensor
    masked_count: int
    visual_skipped: bool


def train_step_planner(
    model: PlannerModel,
    decoder: EmbeddingDecoder,
    seq: TokenSequence,
    target_embeddings: np.ndarray,
    rng: Rng,
) -> PlannerLosses:
    """Joint text NTP + masked-embedding flow-matching losses for one sequence.

    `seq` already carries its mask flags (the harness samples the task-dependent
    ratio); `target_embeddings` are the ground-truth rows for the target segment.
    """
    z = planner_forward(model, seq)
    return losses_from_hidden(model, decoder, seq, z, target_embeddings, rng)


def losses_from_hidden(
    model: PlannerModel,
    decoder: EmbeddingDecoder,
    seq: TokenSequence,
    z: Tensor,
    target_embeddings: np.ndarray,
    rng: Rng,
) -> PlannerLosses:
    """Loss assembly on precomputed hidden states (shared with joint training)."""
    p = model.params

    if seq.text_len >= 2:
        t0, t1 = seq.span_of(TEXT)
        # position l predicts token l+1
        z_text = narrow(z, 0, t0, seq.text_len - 1)
        logits = add(matmul(z_text, p["text_head"]), p["text_head_b"])
        l_ntp = cross_entropy_rows(logits, seq.text_ids[1:])
    else:
        l_ntp = Tensor(0.0)

    start, stop = seq.span_of(VISUAL_TARGET)
    masked_rel = np.where(seq.masked[start:stop])[0]
    if masked_rel.size == 0:
        return PlannerLosses(l_ntp, Tensor(0.0), 0, True)
    rows = (start + masked_rel).astype(np.intp)
    z_masked = embedding(z, rows)
    gt = target_embeddings[masked_rel]
    m = len(masked_rel)
    t = rng.uniform((m,))
    eps = rng.normal(gt.shape)
    x_t = t[:, None] * gt + (1.0 - t[:, None]) * eps
    v_target = gt - eps
    pred = decoder_forward(decoder, Tensor(x_t), t, z_masked)
    resid = sub(pred, Tensor(v_target))
    l_visual = tmean(mul(resid, resid))
    return PlannerLosses(l_ntp, l_visual, m, False)


# ---------------------------------------------------------------------------
# guided embedding decoding and the iterative planning loop
# ---------------------------------------------------------------------------

# guided decoding's condition chain: none -> image -> full
GUIDANCE_VARIANTS = ("uncond", "img", "full")


def _composed_velocity(decoder, x: np.ndarray, t, z_branches: dict[str, np.ndarray], g_text: float, g_image: float) -> np.ndarray:
    """Incremental two-branch guidance over the condition chain, with the
    rows of every branch stacked into one decoder forward."""
    names = [name for name in GUIDANCE_VARIANTS if name in z_branches]
    z = np.concatenate([z_branches[name] for name in names], axis=0)
    v = decoder_forward(decoder, Tensor(np.tile(x, (len(names), 1))), t, z).data
    v = dict(zip(names, v.reshape(len(names), x.shape[0], -1)))
    if names == ["full"]:
        return v["full"]
    v_prev = v["uncond"]
    out = v_prev.copy()
    if "img" in v:
        out += g_image * (v["img"] - v_prev)
        v_prev = v["img"]
    out += g_text * (v["full"] - v_prev)
    return out


def decode_embedding(
    decoder: EmbeddingDecoder,
    z_at_position,
    steps: int,
    g_text: float = 1.2,
    g_image: float = 1.0,
    rng: Rng | None = None,
    noise: np.ndarray | None = None,
) -> np.ndarray:
    """Euler-integrate the decoder's velocity field from noise (t=0) to t=1.

    `z_at_position` is either a single (m, hidden) array (pure conditional) or a
    mapping with keys "full" and optionally "uncond" / "img" for guidance.
    """
    if steps < 1:
        raise ContractError(f"steps must be >= 1, got {steps}")
    branches = z_at_position if isinstance(z_at_position, dict) else {"full": z_at_position}
    branches = {k: (v.data if isinstance(v, Tensor) else np.asarray(v)) for k, v in branches.items()}
    m = branches["full"].shape[0]
    if noise is None:
        if rng is None:
            raise ContractError("decode_embedding needs either rng or explicit noise")
        noise = rng.normal((m, decoder.cfg.embed_dim))
    x = noise.copy()
    dt = 1.0 / steps
    with no_grad():
        for s in range(steps):
            t = s * dt
            x = x + dt * _composed_velocity(decoder, x, t, branches, g_text, g_image)
    return x


@dataclass
class PlanResult:
    embeddings: np.ndarray            # (M, embed_dim) completed target embeddings
    hidden: np.ndarray                # (n, hidden_dim) conditioning states
    masked_counts: list[int]          # remaining masked tokens after each step
    mean_pred_norm: list[float]
    text_len: int = 0


def _variant_masks(seq: TokenSequence, names: list[str]) -> AttentionMask:
    """One hybrid mask per guidance variant, stacked on a leading batch axis.

    All variants share the sequence's layout: "img" hides the text from
    visual rows, and "uncond" also hides the sources from target rows.
    """
    text = seq.kinds == TEXT
    allow = np.repeat(build_mask(seq).allow[None], len(names), axis=0)
    for b, name in enumerate(names):
        if name != "full":
            allow[b][np.ix_(~text, text)] = False
        if name == "uncond":
            allow[b][np.ix_(seq.kinds == VISUAL_TARGET, seq.kinds == VISUAL_SOURCE)] = False
    return AttentionMask(allow)


def plan(
    model: PlannerModel,
    decoder: EmbeddingDecoder,
    seq: TokenSequence,
    total_steps: int = 25,
    decoder_steps: int = 5,
    g_text: float = 1.2,
    g_image: float = 1.0,
    rng: Rng | None = None,
    reveal: str = "confidence",
) -> PlanResult:
    """Iterative masked-generative inference over a fully masked target.

    At step k exactly round(cos(pi/2*(k+1)/K) * M) tokens remain masked; newly
    revealed tokens are chosen by decoder self-consistency (smallest terminal
    velocity norm) or uniformly at random. Predictions are written back into
    the sequence between steps; a final encoder pass over the completed
    sequence yields the conditioning states. With guidance on, the
    text-dropped and unconditional variants are masks over the same sequence,
    so every revealing step makes one batched planner forward.
    """
    if total_steps < 1:
        raise ContractError(f"total_steps must be >= 1, got {total_steps}")
    if reveal not in ("confidence", "random"):
        raise ContractError(f"unknown reveal rule {reveal!r}")
    rng = rng or Rng(0)
    seq = seq.copy()
    t0, t1 = seq.span_of(VISUAL_TARGET)
    if not seq.masked[t0:t1].all():
        raise ContractError("plan() expects a fully masked target segment")
    n_target = t1 - t0
    trace = masked_count_trace(total_steps, n_target)

    guided = not (g_text == 1.0 and g_image == 1.0)
    has_sources = any(d.kind == VISUAL_SOURCE for d in seq.layout)
    names = ["full"]
    if guided and has_sources:
        names = ["uncond", "img", "full"]
    elif guided and seq.text_len > 0:
        names = ["uncond", "full"]
    mask = _variant_masks(seq, names)

    masked_counts: list[int] = []
    norms: list[float] = []
    with no_grad():
        for k in range(total_steps):
            keep = trace[k]
            masked_rel = np.where(seq.masked[t0:t1])[0]
            n_reveal = len(masked_rel) - keep
            if n_reveal <= 0:
                masked_counts.append(len(masked_rel))
                norms.append(0.0)
                continue
            z = planner_forward(model, seq, mask).data.reshape(len(names), len(seq), -1)
            z_branches = {name: z[b, t0 + masked_rel] for b, name in enumerate(names)}
            noise = rng.normal((len(masked_rel), decoder.cfg.embed_dim))
            pred = decode_embedding(
                decoder, z_branches, decoder_steps, g_text, g_image, noise=noise
            )
            term = _composed_velocity(decoder, pred, 1.0, z_branches, g_text, g_image)
            conf = np.linalg.norm(term, axis=1)
            if reveal == "confidence":
                order = np.argsort(conf, kind="stable")
            else:
                order = rng.permutation(len(masked_rel))
            chosen = masked_rel[order[:n_reveal]]
            seq.embeddings[t0 + chosen] = pred[order[:n_reveal]]
            seq.masked[t0 + chosen] = False
            masked_counts.append(keep)
            norms.append(float(np.linalg.norm(pred, axis=1).mean()))
        z_final = planner_forward(model, seq).data
    return PlanResult(
        embeddings=seq.embeddings[t0:t1].copy(),
        hidden=z_final,
        masked_counts=masked_counts,
        mean_pred_norm=norms,
        text_len=seq.text_len,
    )
