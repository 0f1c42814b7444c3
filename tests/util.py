import numpy as np

from planflow.toydata import VOCAB


def rel_err(analytic: np.ndarray, reference: np.ndarray, floor: float = 1e-6) -> float:
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    r = np.asarray(reference, dtype=np.float64).reshape(-1)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(r)), floor)
    return float((np.abs(a - r) / denom).max())


def decode_tokens(ids) -> list[str]:
    """The vocabulary words of token ids."""
    return [VOCAB[i] for i in ids]
