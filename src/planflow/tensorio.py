"""Raw binary tensor files: magic, dtype code, rank, dims, then row-major float64.

Header layout (little-endian): 4-byte magic b"PFT0", uint8 dtype code
(0 = float64), uint8 rank, then rank uint64 dims. The body is the flattened
array in C order.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"PFT0"
DTYPE_F64 = 0


class TensorFormatError(ValueError):
    pass


def tensor_bytes(arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    header = MAGIC + struct.pack("<BB", DTYPE_F64, arr.ndim)
    header += struct.pack(f"<{arr.ndim}Q", *arr.shape)
    return header + arr.astype("<f8").tobytes()


def tensor_from_bytes(buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Decode one tensor; returns (array, next_offset). Truncated input raises
    TensorFormatError."""
    if buf[offset : offset + 4] != MAGIC:
        raise TensorFormatError("bad magic")
    if len(buf) < offset + 6:
        raise TensorFormatError("truncated header")
    dtype_code, rank = struct.unpack_from("<BB", buf, offset + 4)
    if dtype_code != DTYPE_F64:
        raise TensorFormatError(f"unsupported dtype code {dtype_code}")
    body_start = offset + 6 + 8 * rank
    if len(buf) < body_start:
        raise TensorFormatError("truncated header")
    dims = struct.unpack_from(f"<{rank}Q", buf, offset + 6)
    count = math.prod(dims)
    if len(buf) - body_start < 8 * count:
        raise TensorFormatError(f"truncated body: {dims} needs {8 * count} bytes, {len(buf) - body_start} left")
    arr = np.frombuffer(buf, dtype="<f8", count=count, offset=body_start).astype(np.float64)
    return arr.reshape(dims), body_start + 8 * count


def write_tensor(path: str | Path, arr: np.ndarray) -> None:
    Path(path).write_bytes(tensor_bytes(arr))
