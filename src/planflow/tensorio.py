"""Raw binary tensor blocks: magic, dtype code, rank, dims, then row-major float64.

Header layout (little-endian): 4-byte magic b"PFT0", uint8 dtype code
(0 = float64), uint8 rank, then rank uint64 dims. The body is the flattened
array in C order. Blocks stream through an open file: the writer writes the
array's own buffer after the header, and the reader reads the body straight
into a freshly allocated array, so neither holds a second copy of it.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path
from typing import BinaryIO

import numpy as np

MAGIC = b"PFT0"
DTYPE_F64 = 0


class TensorFormatError(ValueError):
    pass


def write_block(fh: BinaryIO, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    fh.write(MAGIC + struct.pack(f"<BB{arr.ndim}Q", DTYPE_F64, arr.ndim, *arr.shape))
    fh.write(arr.data)


def write_tensor(path: str | Path, arr: np.ndarray) -> None:
    with open(path, "wb") as fh:
        write_block(fh, arr)


class BlockReader:
    """Bounds-checked reads from an open binary file: every length read from
    the file is checked against the bytes left in it before anything is
    allocated. Truncated or garbled input raises TensorFormatError."""

    def __init__(self, fh: BinaryIO):
        self.fh = fh
        self.left = os.fstat(fh.fileno()).st_size - fh.tell()

    def take(self, n: int, what: str) -> bytes:
        if n > self.left:
            raise TensorFormatError(f"truncated: {what} needs {n} bytes, {self.left} left")
        out = self.fh.read(n)
        if len(out) != n:
            raise TensorFormatError(f"truncated: {what} needs {n} bytes, read {len(out)}")
        self.left -= n
        return out

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def block(self) -> np.ndarray:
        """The next tensor block."""
        if self.take(4, "magic") != MAGIC:
            raise TensorFormatError("bad magic")
        dtype_code, rank = self.unpack("<BB", "header")
        if dtype_code != DTYPE_F64:
            raise TensorFormatError(f"unsupported dtype code {dtype_code}")
        dims = self.unpack(f"<{rank}Q", "dims")
        size = 8 * math.prod(dims)
        if size > self.left:
            raise TensorFormatError(f"truncated body: {dims} needs {size} bytes, {self.left} left")
        try:
            arr = np.empty(dims, dtype="<f8")
        except (ValueError, OverflowError) as exc:
            raise TensorFormatError(f"dims {dims} do not make an array ({exc})") from None
        if self.fh.readinto(arr) != size:
            raise TensorFormatError(f"truncated body: {dims} needs {size} bytes")
        self.left -= size
        return arr
