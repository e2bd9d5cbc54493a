"""Bit-exact checkpoint serialization.

Layout (all integers little-endian):

    magic   8 bytes  b"EVEMBCKP"
    u32     format version
    u32     CRC-32 of the body
    u64     body length in bytes
    body:
      u32 header length, then UTF-8 JSON header
          {"config": {...}, "epoch": int, "rng_state": {...}, "vocab": [...]}
      u32 array count
      per array:
        u32 name length, name bytes
        u32 ndim, u64 * ndim dims
        float64 little-endian data, C order

Any truncation or in-place corruption fails the length or CRC check, and
an invalid config or a non-finite array is rejected too; a checkpoint
either loads losslessly or raises CheckpointError.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .data import UNKNOWN_TOKEN, Vocabulary

MAGIC = b"EVEMBCKP"
VERSION = 2


class CheckpointError(ValueError):
    pass


@dataclass
class Checkpoint:
    config: "TrainingConfig"  # noqa: F821 - imported lazily to avoid a cycle
    vocab_words: list[str]
    arrays: dict[str, np.ndarray]
    rng_state: dict
    epoch: int


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _serialized_parts(ckpt: Checkpoint) -> list:
    """Head and body as byte buffers; a C-ordered float64 array is a view, not a copy."""
    header = json.dumps(
        {
            "config": ckpt.config.to_dict(),
            "epoch": ckpt.epoch,
            "rng_state": ckpt.rng_state,
            "vocab": ckpt.vocab_words,
        },
        sort_keys=True,
        separators=(",", ":"),
        default=_json_default,
    ).encode("utf-8")
    parts = [struct.pack("<I", len(header)), header, struct.pack("<I", len(ckpt.arrays))]
    for name, arr in ckpt.arrays.items():
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<I", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        parts.append(np.ascontiguousarray(arr, dtype="<f8").reshape(-1).view(np.uint8))
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    head = MAGIC + struct.pack("<IIQ", VERSION, crc, sum(len(part) for part in parts))
    return [head, *parts]


def checkpoint_bytes(ckpt: Checkpoint) -> bytes:
    return b"".join(_serialized_parts(ckpt))


def save_checkpoint(path: str, ckpt: Checkpoint) -> None:
    """Atomic write: the file appears complete or not at all."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.writelines(_serialized_parts(ckpt))
    os.replace(tmp, path)


class _Cursor:
    def __init__(self, data: bytes, path: str) -> None:
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, size: int) -> bytes:
        if self.pos + size > len(self.data):
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        chunk = self.data[self.pos : self.pos + size]
        self.pos += size
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]


def parse_checkpoint(data: bytes, path: str = "<bytes>") -> Checkpoint:
    from .trainer import TrainingConfig

    if len(data) < len(MAGIC) + 16:
        raise CheckpointError(f"{path}: truncated checkpoint")
    if data[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    version, crc = struct.unpack_from("<II", data, len(MAGIC))
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    (body_len,) = struct.unpack_from("<Q", data, len(MAGIC) + 8)
    body = data[len(MAGIC) + 16 :]
    if len(body) != body_len:
        raise CheckpointError(
            f"{path}: body has {len(body)} bytes, header declares {body_len}"
        )
    if zlib.crc32(body) != crc:
        raise CheckpointError(f"{path}: checksum mismatch (corrupted checkpoint)")

    cur = _Cursor(body, path)
    try:
        header = json.loads(cur.take(cur.u32()).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: bad checkpoint header: {exc}") from exc
    for key in ("config", "epoch", "rng_state", "vocab"):
        if key not in header:
            raise CheckpointError(f"{path}: checkpoint header lacks '{key}'")
    try:
        config = TrainingConfig.from_dict(header["config"])
        config.validate()
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad checkpoint config: {exc}") from exc

    arrays: dict[str, np.ndarray] = {}
    count = cur.u32()
    for _ in range(count):
        name = cur.take(cur.u32()).decode("utf-8")
        ndim = cur.u32()
        shape = tuple(cur.u64() for _ in range(ndim))
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        raw = cur.take(8 * size)
        array = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
        if not np.isfinite(array).all():
            raise CheckpointError(f"{path}: array '{name}' holds non-finite values")
        arrays[name] = array
    if cur.pos != len(body):
        raise CheckpointError(f"{path}: {len(body) - cur.pos} trailing bytes in body")
    return Checkpoint(
        config=config,
        vocab_words=list(header["vocab"]),
        arrays=arrays,
        rng_state=header["rng_state"],
        epoch=int(header["epoch"]),
    )


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as fh:
        data = fh.read()
    return parse_checkpoint(data, path)


def build_model(ckpt: Checkpoint):
    """Reconstruct a JointModel from a checkpoint.

    Any array whose shape disagrees with the stored config raises
    CheckpointError naming the array.
    """
    from .model import JointModel

    cfg = ckpt.config
    if not ckpt.vocab_words or ckpt.vocab_words[0] != UNKNOWN_TOKEN:
        raise CheckpointError(
            f"checkpoint vocabulary must start with the {UNKNOWN_TOKEN!r} entry"
        )
    vocab = Vocabulary(ckpt.vocab_words[1:])
    if len(vocab) != len(ckpt.vocab_words):
        raise CheckpointError("checkpoint vocabulary contains duplicate words")
    embeddings = ckpt.arrays.get("embeddings")
    if embeddings is None:
        raise CheckpointError("checkpoint lacks the 'embeddings' array")
    if embeddings.shape != (len(vocab), cfg.d):
        raise CheckpointError(
            f"array 'embeddings' has shape {embeddings.shape}, "
            f"expected {(len(vocab), cfg.d)}"
        )
    model = JointModel(
        vocab, embeddings, cfg.d, cfg.k, cfg.n, np.random.default_rng(0)
    )
    try:
        model.load_arrays(ckpt.arrays)
    except ValueError as exc:
        raise CheckpointError(str(exc)) from exc
    return model
