"""Versioned binary checkpoints: magic, version, JSON metadata, then
name-indexed tensor blocks in the raw tensor layout. Writes are atomic
(temp file + rename); save/load round-trips training bit-exactly.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .tensorio import TensorFormatError, tensor_bytes, tensor_from_bytes

MAGIC = b"PFCK"
VERSION = 2  # 2: palette-latent renderer with learned text positions


class CheckpointError(ValueError):
    pass


@dataclass
class Checkpoint:
    stage: str
    step: int
    stages_done: list[str]
    params: dict[str, np.ndarray]
    ema: dict[str, np.ndarray] = field(default_factory=dict)
    opt_m: dict[str, np.ndarray] = field(default_factory=dict)
    opt_v: dict[str, np.ndarray] = field(default_factory=dict)
    opt_meta: dict = field(default_factory=dict)
    rng_states: dict[str, tuple[int, int]] = field(default_factory=dict)
    config_snapshot: dict[str, str] = field(default_factory=dict)

    def save(self, path: str | Path) -> None:
        path = Path(path)
        meta = {
            "stage": self.stage,
            "step": self.step,
            "stages_done": self.stages_done,
            "opt_meta": self.opt_meta,
            "rng_states": {k: list(v) for k, v in self.rng_states.items()},
            "config": self.config_snapshot,
        }
        meta_bytes = json.dumps(meta, sort_keys=True).encode()
        blocks: list[tuple[str, np.ndarray]] = []
        for group, tensors in (
            ("params", self.params), ("ema", self.ema), ("opt_m", self.opt_m), ("opt_v", self.opt_v)
        ):
            for name in sorted(tensors):
                blocks.append((f"{group}/{name}", tensors[name]))
        payload = bytearray()
        payload += MAGIC
        payload += struct.pack("<I", VERSION)
        payload += struct.pack("<Q", len(meta_bytes)) + meta_bytes
        payload += struct.pack("<Q", len(blocks))
        for name, arr in blocks:
            nb = name.encode()
            payload += struct.pack("<H", len(nb)) + nb
            payload += tensor_bytes(arr)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(bytes(payload))
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path: str | Path) -> "Checkpoint":
        """Parse a checkpoint; a truncated or garbled file raises CheckpointError."""
        reader = _Reader(Path(path).read_bytes(), path)
        if reader.take(4, "magic") != MAGIC:
            raise CheckpointError(f"{path}: bad magic")
        version = reader.unpack("<I", "version")
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported version {version} (this build reads version {VERSION})")
        meta_len = reader.unpack("<Q", "metadata length")
        try:
            meta = json.loads(reader.take(meta_len, "metadata").decode())
        except (UnicodeDecodeError, ValueError) as exc:
            raise CheckpointError(f"{path}: metadata is not JSON ({exc})") from None
        groups: dict[str, dict[str, np.ndarray]] = {"params": {}, "ema": {}, "opt_m": {}, "opt_v": {}}
        for _ in range(reader.unpack("<Q", "block count")):
            name = reader.take(reader.unpack("<H", "block name length"), "block name").decode(errors="replace")
            group, _, key = name.partition("/")
            if group not in groups:
                raise CheckpointError(f"{path}: unknown tensor block {name!r}")
            try:
                groups[group][key], reader.offset = tensor_from_bytes(reader.buf, reader.offset)
            except TensorFormatError as exc:
                raise CheckpointError(f"{path}: tensor {name!r} is truncated or malformed ({exc})") from None
        if reader.offset != len(reader.buf):
            raise CheckpointError(f"{path}: {len(reader.buf) - reader.offset} trailing bytes after the last tensor")
        try:
            return cls(
                stage=meta["stage"],
                step=int(meta["step"]),
                stages_done=list(meta["stages_done"]),
                opt_meta=meta["opt_meta"],
                rng_states={k: (int(v[0]), int(v[1])) for k, v in meta["rng_states"].items()},
                config_snapshot=meta.get("config", {}),
                **groups,
            )
        except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
            raise CheckpointError(f"{path}: malformed metadata ({type(exc).__name__}: {exc})") from None


class _Reader:
    """Bounds-checked cursor over a checkpoint's bytes."""

    def __init__(self, buf: bytes, path):
        self.buf, self.path, self.offset = buf, path, 0

    def take(self, n: int, what: str) -> bytes:
        if n > len(self.buf) - self.offset:
            raise CheckpointError(
                f"{self.path}: truncated at byte {len(self.buf)}: {what} needs {n} bytes at offset {self.offset}"
            )
        out = self.buf[self.offset : self.offset + n]
        self.offset += n
        return out

    def unpack(self, fmt: str, what: str) -> int:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))[0]
