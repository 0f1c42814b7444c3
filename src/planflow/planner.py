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
from dataclasses import dataclass

import numpy as np

from . import nets
from .guidance import GuidanceSpec, compose
from .numerics import (
    ContractError,
    DimensionError,
    Rng,
    Rotation,
    Tensor,
    add,
    concat,
    embedding,
    gelu,
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
from .renderer import conditioning_rows, euler_integrate, patchify, unpatchify
from .schedules import masked_count_trace
from .sequence import (
    NEG_BIAS,
    TEXT,
    VISUAL_SOURCE,
    VISUAL_TARGET,
    TokenSequence,
    build_mask,
)
from .toydata import VOCAB


# ---------------------------------------------------------------------------
# frozen toy ViT: fixed random patch encoder standing in for the target space
# ---------------------------------------------------------------------------

class ToyVit:
    """Frozen random patch encoder; its output space is what the planner predicts."""

    def __init__(self, patch: tuple[int, int, int], embed_dim: int, seed: int):
        self.patch = tuple(patch)
        self.embed_dim = embed_dim
        rng = Rng(seed)
        pd = int(math.prod(patch))
        self.weight = rng.normal((pd, embed_dim)) / math.sqrt(pd)
        self.bias = rng.normal((embed_dim,)) * 0.1

    def encode(self, frames: np.ndarray) -> tuple[tuple[int, int, int], np.ndarray]:
        """(token grid, (n, embed_dim) embeddings) for normalized frames."""
        grid, patches = patchify(frames[..., None], self.patch)
        return grid, patches @ self.weight + self.bias

    def decode(self, embeddings: np.ndarray, frame_grid: tuple[int, int, int]) -> np.ndarray:
        """Normalized frames of shape `frame_grid` whose encoding is nearest
        to `embeddings` in least squares. Where a patch has no more values
        than an embedding (4 against 16 by default), this inverts `encode` exactly."""
        grid = tuple(n // p for n, p in zip(frame_grid, self.patch))
        patches = (embeddings - self.bias) @ np.linalg.pinv(self.weight)
        return unpatchify(patches, grid, self.patch, 1)[..., 0]


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

@dataclass
class PlannerConfig:
    hidden_dim: int
    blocks: int
    heads: int
    embed_dim: int        # target embedding space dim
    segment_phases: bool
    decoder_dim: int
    decoder_blocks: int

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.heads

    def rope(self) -> RopeConfig:
        return RopeConfig(head_dim=self.head_dim)


class PlannerModel:
    def __init__(self, cfg: PlannerConfig, rng: Rng):
        self.cfg = cfg
        d, de = cfg.hidden_dim, cfg.embed_dim
        p: dict[str, Tensor] = {}
        p["text_embed"] = nets.normal_param(rng.child(1), (len(VOCAB), d), 0.5)
        p["src_proj"] = nets.weight(rng.child(2), de, d)
        p["src_bias"] = nets.zeros_param(1, d)
        p["tgt_proj"] = nets.weight(rng.child(3), de, d)
        p["tgt_bias"] = nets.zeros_param(1, d)
        p["mask_embed"] = nets.normal_param(rng.child(4), (1, de), 0.5)
        for i in range(cfg.blocks):
            nets.block_params(p, f"block{i}.", rng.child(10 + i), d)
        p["ln_f.g"], p["ln_f.b"] = nets.ones_param(1, d), nets.zeros_param(1, d)
        p["text_head"] = nets.weight(rng.child(90), d, len(VOCAB))
        p["text_head_b"] = nets.zeros_param(1, len(VOCAB))
        self.params = p


class EmbeddingDecoder:
    """MLP input projection plus a residual block stack; the conditioning hidden
    state is concatenated to the time embedding at every block."""

    def __init__(self, cfg: PlannerConfig, rng: Rng):
        self.cfg = cfg
        dd, de, dp = cfg.decoder_dim, cfg.embed_dim, cfg.hidden_dim
        cond = dd + dp  # time embedding + planner state
        p: dict[str, Tensor] = {}
        p["time.w1"] = nets.weight(rng.child(1), nets.TIME_FEATURES, dd)
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


@dataclass
class DecoderCondition:
    """Conditioning states prepared for decoder_forward.

    Every residual block's first layer acts on [ln(h), time embedding,
    planner state], so its weight splits into three row blocks. The
    planner-state term is computed once per condition and the time term once
    per scalar t, memoised in `time_terms`, which the conditions of one plan
    share. A guided condition stacks one block of rows per subset of the
    guidance chain, in chain order.
    """

    state_terms: list[Tensor]  # per block: the states times their rows of w1
    time_terms: dict[float, list[Tensor]]


def decoder_condition(decoder: EmbeddingDecoder, z, time_terms: dict | None = None) -> DecoderCondition:
    """Prepare conditioning states z (m, hidden_dim), sharing the time-term
    memo `time_terms` of earlier conditions of the same weights if given."""
    p, dd, dp = decoder.params, decoder.cfg.decoder_dim, decoder.cfg.hidden_dim
    z = z if isinstance(z, Tensor) else Tensor(z)
    terms = [matmul(z, narrow(p[f"res{i}.w1"], 0, 2 * dd, dp)) for i in range(decoder.cfg.decoder_blocks)]
    return DecoderCondition(terms, {} if time_terms is None else time_terms)


def _time_terms(decoder: EmbeddingDecoder, cond: DecoderCondition, t) -> list[Tensor]:
    """Per block: time embedding times its rows of w1, plus b1; one row for a
    scalar t (memoised), one per row for an array."""
    t = np.asarray(t, dtype=np.float64)
    key = float(t) if t.ndim == 0 else None
    if key in cond.time_terms:
        return cond.time_terms[key]
    p, dd = decoder.params, decoder.cfg.decoder_dim
    temb = nets.time_embedding(p, "time.", t)
    terms = [
        add(matmul(temb, narrow(p[f"res{i}.w1"], 0, dd, dd)), p[f"res{i}.b1"])
        for i in range(decoder.cfg.decoder_blocks)
    ]
    if key is not None:
        cond.time_terms[key] = terms
    return terms


def decoder_forward(decoder: EmbeddingDecoder, x, t, z) -> Tensor:
    """Velocity prediction in the target embedding space.

    x: (m, embed_dim) noisy embeddings; t: scalar or (m,) timesteps;
    z: (m, hidden_dim) conditioning states (Tensor or constant), or a
    `DecoderCondition` prepared from them.
    """
    p = decoder.params
    cond = z if isinstance(z, DecoderCondition) else decoder_condition(decoder, z)
    times = _time_terms(decoder, cond, t)
    h = add(matmul(x if isinstance(x, Tensor) else Tensor(x), p["in_proj"]), p["in_bias"])
    dd = decoder.cfg.decoder_dim
    for i, (time_term, state_term) in enumerate(zip(times, cond.state_terms)):
        pre = f"res{i}."
        u = add(add(matmul(nets.ln(p, pre + "ln.", h), narrow(p[pre + "w1"], 0, 0, dd)), time_term), state_term)
        h = add(h, add(matmul(gelu(u), p[pre + "w2"]), p[pre + "b2"]))
    return add(matmul(nets.ln(p, "out_ln.", h), p["out_proj"]), p["out_bias"])


# ---------------------------------------------------------------------------
# forward pass over the unified sequence
# ---------------------------------------------------------------------------

def _assemble_inputs(model: PlannerModel, seq: TokenSequence, start: int = 0) -> Tensor:
    """Input rows of the segments from token `start` (a segment boundary) on."""
    p = model.params
    parts: list[Tensor] = []
    for desc, s0, s1 in seq.spans():
        if s0 < start:
            continue
        if desc.kind == TEXT:
            if seq.text_ids is None:
                raise DimensionError("sequence has a text segment but no text ids")
            parts.append(embedding(p["text_embed"], seq.text_ids))
            continue
        if seq.embeddings is None:
            raise DimensionError("sequence has visual segments but no embeddings")
        rows = Tensor(seq.embeddings[s0:s1])
        if desc.kind == VISUAL_SOURCE:
            parts.append(add(matmul(rows, p["src_proj"]), p["src_bias"]))
        else:
            flags = seq.masked[s0:s1].astype(np.float64)[:, None]
            content = add(mul(Tensor(flags), p["mask_embed"]), Tensor((1.0 - flags) * seq.embeddings[s0:s1]))
            parts.append(add(matmul(content, p["tgt_proj"]), p["tgt_bias"]))
    return parts[0] if len(parts) == 1 else concat(parts, axis=0)


@dataclass(frozen=True)
class PrefixCache:
    """The first `length` rows of a sequence, run once: each block's rotated
    keys and values and the final states, one copy per batch entry
    (batch-major rows), plus the rotary tables of the rows after them.

    Valid while the layout, those rows and the weights stay fixed and no row
    before `length` may attend to a later one, so later rows cannot change
    them.
    """

    length: int
    kv: list[tuple[Tensor, Tensor]]  # per block, each (batch * length, hidden_dim)
    states: np.ndarray               # (batch, length, hidden_dim)
    rotation: Rotation               # rows after the prefix, tiled over batch and heads


def prefix_cache(model: PlannerModel, seq: TokenSequence, mask: np.ndarray, length: int) -> PrefixCache:
    """Run the first `length` rows of `seq` once under `mask` (one copy per
    mask of a batched mask) and keep what later rows need from them."""
    if mask[..., :length, length:].any():
        raise ContractError(f"rows before {length} attend to later rows; their states are not fixed")
    cfg = model.cfg
    allow = mask[..., :length, :length].reshape(-1, length, length)
    kv: list[tuple[Tensor, Tensor]] = []
    states = planner_forward(model, seq.head(length), allow, keep=kv).data
    angles = token_angles(cfg.rope(), seq, cfg.segment_phases)[length:]
    batch = len(allow)
    return PrefixCache(length, kv, states.reshape(batch, length, -1), nets.rotary(angles, cfg.heads, batch))


def planner_forward(
    model: PlannerModel,
    seq: TokenSequence,
    mask: np.ndarray | None = None,
    past: PrefixCache | None = None,
    keep: list | None = None,
) -> Tensor:
    """Contextual hidden states, one per token, under the hybrid attention mask.

    `mask` is a bool array, True where a query row may attend a key column
    (`build_mask` by default). A mask of shape (batch, n, n) runs one copy of
    the sequence per mask and stacks the states row-wise: (batch * n, hidden_dim).
    With `past`, a `PrefixCache` of the same layout and batch, only the rows
    from `past.length` on are run, against the cached rows: the states then
    have shape (batch * (n - past.length), hidden_dim). `keep`, a list,
    receives each block's rotated keys and values.
    """
    cfg = model.cfg
    if mask is None:
        mask = build_mask(seq)
    n, start = len(seq), 0 if past is None else past.length
    bias = np.where(mask, 0.0, NEG_BIAS)
    batch = 1 if bias.ndim == 2 else bias.shape[0]
    bias = bias.reshape(batch, 1, n, n)[:, :, start:]  # shared by all heads
    if past is None:
        rotation = nets.rotary(token_angles(cfg.rope(), seq, cfg.segment_phases), cfg.heads, batch)
    else:
        rotation = past.rotation
    x = _assemble_inputs(model, seq, start)
    if batch > 1:
        x = concat([x] * batch, axis=0)
    p = model.params
    for i in range(cfg.blocks):
        pre = f"block{i}."
        h = nets.ln(p, pre + "ln1.", x)
        kv = None if past is None else past.kv[i]
        x = add(x, nets.self_attention(p, pre, h, cfg.heads, bias, rotation, batch, kv, keep))
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


def losses_from_hidden(
    model: PlannerModel,
    decoder: EmbeddingDecoder,
    seq: TokenSequence,
    z: Tensor,
    target_embeddings: np.ndarray | None,
    rng: Rng,
) -> PlannerLosses:
    """Joint text NTP + masked-embedding flow-matching losses of a sequence
    with its mask flags set, from its planner states `z`; `target_embeddings`
    are the target segment's ground-truth rows, None without a target. A
    sequence with no masked rows, such as a text-only one, has no visual loss."""
    p = model.params

    if seq.text_len >= 2:
        t0, t1 = seq.span_of(TEXT)
        # position l predicts token l+1
        z_text = narrow(z, 0, t0, seq.text_len - 1)
        logits = add(matmul(z_text, p["text_head"]), p["text_head_b"])
        l_ntp = cross_entropy_rows(logits, seq.text_ids[1:])
    else:
        l_ntp = Tensor(0.0)

    rows = np.flatnonzero(seq.masked)  # only target rows are ever masked
    if rows.size == 0:
        return PlannerLosses(l_ntp, Tensor(0.0))
    masked_rel = rows - seq.span_of(VISUAL_TARGET)[0]
    z_masked = embedding(z, rows)
    gt = target_embeddings[masked_rel]
    t = rng.uniform((len(masked_rel),))
    eps = rng.normal(gt.shape)
    x_t = t[:, None] * gt + (1.0 - t[:, None]) * eps
    v_target = gt - eps
    pred = decoder_forward(decoder, Tensor(x_t), t, z_masked)
    resid = sub(pred, Tensor(v_target))
    l_visual = tmean(mul(resid, resid))
    return PlannerLosses(l_ntp, l_visual)


# ---------------------------------------------------------------------------
# guided embedding decoding and the iterative planning loop
# ---------------------------------------------------------------------------

def _composed_velocity(decoder, x: np.ndarray, t, cond: DecoderCondition, spec: GuidanceSpec) -> np.ndarray:
    """The guided velocity: one decoder forward over the rows of every
    subset of the spec's chain, stacked as in `cond`, then `compose`."""
    chain = spec.subset_chain()
    v = decoder_forward(decoder, Tensor(np.tile(x, (len(chain), 1))), t, cond).data
    return compose(spec, dict(zip(chain, v.reshape(len(chain), x.shape[0], -1))))


def decode_embedding(decoder: EmbeddingDecoder, cond: DecoderCondition, steps: int, spec: GuidanceSpec,
                     noise: np.ndarray) -> np.ndarray:
    """Euler-integrate the decoder's guided velocity field under `cond` from
    `noise` (t=0) to t=1."""
    with no_grad():
        return euler_integrate(lambda x, t: _composed_velocity(decoder, x, t, cond, spec), noise, steps)


@dataclass
class PlanResult:
    embeddings: np.ndarray            # (M, embed_dim) completed target embeddings
    hidden: np.ndarray                # (len(conditioning_rows(seq)), hidden_dim) renderer conditioning states
    masked_counts: list[int]          # remaining masked tokens after each step
    mean_pred_norm: list[float]


def _variant_masks(seq: TokenSequence, subsets: list[frozenset]) -> np.ndarray:
    """One hybrid mask per guidance condition subset, stacked on a leading
    batch axis: without "txt" the visual rows do not see the text, and
    without "img" the target rows do not see the sources."""
    text = seq.segment_indices < 0
    allow = np.repeat(build_mask(seq)[None], len(subsets), axis=0)
    for b, subset in enumerate(subsets):
        if "txt" not in subset:
            allow[b][np.ix_(~text, text)] = False
        if "img" not in subset:
            allow[b][np.ix_(seq.segment_indices == 0, seq.segment_indices > 0)] = False
    return allow


def plan(
    model: PlannerModel,
    decoder: EmbeddingDecoder,
    seq: TokenSequence,
    total_steps: int,
    decoder_steps: int,
    g_text: float,
    g_image: float,
    rng: Rng,
) -> PlanResult:
    """Iterative masked-generative inference over a fully masked target.

    At step k exactly round(cos(pi/2*(k+1)/K) * M) tokens remain masked; newly
    revealed tokens are chosen by decoder self-consistency (smallest terminal
    velocity norm). Predictions are written back into the sequence between
    steps; a final encoder pass over the completed sequence yields the
    conditioning states. Guidance runs over the `GuidanceSpec` of the sources
    ("img", weight g_image) and the text ("txt", weight g_text) the sequence
    has; each subset of its chain is a mask over the same sequence, so every
    revealing step makes one batched planner forward.

    Text and source rows never attend to the target, so they are run once
    per call (`prefix_cache`) and each step runs only the target rows. The
    decoder's planner-state terms are prepared once per revealing step and
    its time terms once per distinct t.
    """
    if total_steps < 1:
        raise ContractError(f"total_steps must be >= 1, got {total_steps}")
    seq = seq.copy()
    t0, t1 = seq.span_of(VISUAL_TARGET)
    if not seq.masked[t0:t1].all():
        raise ContractError("plan() expects a fully masked target segment")
    n_target = t1 - t0
    trace = masked_count_trace(total_steps, n_target)

    has = {"img": any(d.kind == VISUAL_SOURCE for d in seq.layout), "txt": seq.text_len > 0}
    spec = GuidanceSpec({"img": g_image, "txt": g_text}, tuple(b for b in has if has[b]))
    chain = spec.subset_chain()
    mask = _variant_masks(seq, chain)

    masked_counts: list[int] = []
    norms: list[float] = []
    time_terms: dict = {}  # the decoder's time terms, shared by every revealing step
    with no_grad():
        past = prefix_cache(model, seq, mask, t0) if t0 else None
        for k in range(total_steps):
            keep = trace[k]
            masked_rel = np.where(seq.masked[t0:t1])[0]
            n_reveal = len(masked_rel) - keep
            if n_reveal <= 0:
                masked_counts.append(len(masked_rel))
                norms.append(0.0)
                continue
            # rows of the target segment only (it is last), one block per subset
            z = planner_forward(model, seq, mask, past).data.reshape(len(chain), n_target, -1)
            cond = decoder_condition(decoder, z[:, masked_rel].reshape(-1, z.shape[2]), time_terms)
            noise = rng.normal((len(masked_rel), decoder.cfg.embed_dim))
            pred = decode_embedding(decoder, cond, decoder_steps, spec, noise)
            if keep:
                term = _composed_velocity(decoder, pred, 1.0, cond, spec)
                order = np.argsort(np.linalg.norm(term, axis=1), kind="stable")[:n_reveal]
            else:  # every masked row is revealed, so no ranking can change the result
                order = np.arange(n_reveal)
            chosen = masked_rel[order]
            seq.embeddings[t0 + chosen] = pred[order]
            seq.masked[t0 + chosen] = False
            masked_counts.append(keep)
            norms.append(float(np.linalg.norm(pred, axis=1).mean()))
        # the full subset is the plain hybrid mask and always comes last
        z_final = planner_forward(model, seq, mask, past).data.reshape(len(chain), n_target, -1)[-1]
        if past is not None:
            z_final = np.concatenate([past.states[-1], z_final])
    return PlanResult(
        embeddings=seq.embeddings[t0:t1].copy(),
        hidden=z_final[conditioning_rows(seq)],
        masked_counts=masked_counts,
        mean_pred_norm=norms,
    )
