import math
from pathlib import Path

import numpy as np

from planflow.sequence import VISUAL_SOURCE, VISUAL_TARGET, TokenSequence
from planflow.tensorio import tensor_from_bytes
from planflow.toydata import VOCAB


def write_config(path: Path, values: dict[str, str]) -> None:
    """A config file setting each key of `values`, one `key = value` line each."""
    Path(path).write_text("".join(f"{key} = {value}\n" for key, value in values.items()))


def rel_err(analytic: np.ndarray, reference: np.ndarray, floor: float = 1e-6) -> float:
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    r = np.asarray(reference, dtype=np.float64).reshape(-1)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(r)), floor)
    return float((np.abs(a - r) / denom).max())


def decode_tokens(ids) -> list[str]:
    """The vocabulary words of token ids."""
    return [VOCAB[i] for i in ids]


def read_tensor(path: Path) -> np.ndarray:
    """The array in one tensor file."""
    return tensor_from_bytes(Path(path).read_bytes())[0]


def gelu_np(a: np.ndarray) -> np.ndarray:
    """Reference tanh-form GELU, written out as the formula reads."""
    return 0.5 * a * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (a + 0.044715 * a**3)))


def layernorm_np(x: np.ndarray, g: np.ndarray, b: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Reference LayerNorm over the last axis."""
    xc = x - x.mean(-1, keepdims=True)
    return xc / np.sqrt((xc * xc).mean(-1, keepdims=True) + eps) * g + b


def row_at(seq: TokenSequence, segment_index: int, position) -> int:
    """Row of the token at (t, h, w) `position` of a visual segment of `seq`."""
    kind = VISUAL_TARGET if segment_index == 0 else VISUAL_SOURCE
    start, stop = seq.span_of(kind, segment_index)
    return start + int(np.flatnonzero((seq.positions[start:stop] == position).all(axis=1))[0])
