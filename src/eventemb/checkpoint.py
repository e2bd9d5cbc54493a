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
a config that lacks a field or is not valid when built, a malformed header
field or array record, or a non-finite array is rejected too; a checkpoint
either loads losslessly or raises CheckpointError.

Loading reads the file once into one buffer and parses it in place: the
arrays are views of that buffer, not copies.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import dataclass, fields

import numpy as np

from .data import Vocabulary
from .params import TABLE

MAGIC = b"EVEMBCKP"
VERSION = 3
HEAD = struct.Struct("<8sIIQ")  # magic, version, CRC of the body, body length


class CheckpointError(ValueError):
    pass


@dataclass
class Checkpoint:
    config: "TrainingConfig"  # noqa: F821 - imported lazily to avoid a cycle
    vocab_words: list[str]
    arrays: dict[str, np.ndarray]
    rng_state: dict
    epoch: int


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
    head = HEAD.pack(MAGIC, VERSION, crc, sum(len(part) for part in parts))
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
    """Reads the body of a checkpoint at increasing offsets of one buffer."""

    def __init__(self, view: memoryview, pos: int, path: str) -> None:
        self.view = view
        self.pos = pos
        self.path = path

    def take(self, size: int) -> int:
        """Offset of the next `size` bytes, which the cursor then moves past."""
        if size > len(self.view) - self.pos:
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        self.pos += size
        return self.pos - size

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.view, self.take(struct.calcsize(fmt)))

    def text(self) -> str:
        (size,) = self.unpack("<I")
        start = self.take(size)
        return str(self.view[start : start + size], "utf-8")


def _header_fields(header, path: str) -> tuple:
    """The config, vocabulary, RNG state and epoch of a decoded JSON header."""
    from .trainer import TrainingConfig

    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: checkpoint header is not a JSON object")
    for key in ("config", "epoch", "rng_state", "vocab"):
        if key not in header:
            raise CheckpointError(f"{path}: checkpoint header lacks '{key}'")
    try:
        config = TrainingConfig.from_dict(header["config"])
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad checkpoint config: {exc}") from exc
    # a field the header omits would take its default: resuming needs them all
    missing = [f.name for f in fields(config) if f.name not in header["config"]]
    if missing:
        raise CheckpointError(f"{path}: bad checkpoint config: missing {', '.join(missing)}")
    # JSON decodes to exact types, and `type(...) is int` rejects a bool
    vocab, epoch, rng_state = header["vocab"], header["epoch"], header["rng_state"]
    if type(vocab) is not list or set(map(type, vocab)) - {str}:
        raise CheckpointError(f"{path}: checkpoint field 'vocab' is not a list of strings")
    if type(epoch) is not int:
        raise CheckpointError(f"{path}: checkpoint field 'epoch' is not an integer: {epoch!r}")
    if type(rng_state) is not dict:
        raise CheckpointError(f"{path}: checkpoint field 'rng_state' is not a JSON object")
    return config, vocab, rng_state, epoch


def parse_checkpoint(data, path: str = "<bytes>") -> Checkpoint:
    """Check and parse checkpoint bytes without copying the arrays.

    `data` is any bytes-like object. Each array is a view of it: read-only
    over `bytes`, writable over a writable buffer such as the one
    `load_checkpoint` reads into.
    """
    view = memoryview(data).cast("B")
    if len(view) < HEAD.size:
        raise CheckpointError(f"{path}: truncated checkpoint")
    magic, version, crc, body_len = HEAD.unpack_from(view)
    if magic != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    if len(view) - HEAD.size != body_len:
        raise CheckpointError(
            f"{path}: body has {len(view) - HEAD.size} bytes, header declares {body_len}"
        )
    if zlib.crc32(view[HEAD.size :]) != crc:
        raise CheckpointError(f"{path}: checksum mismatch (corrupted checkpoint)")

    cur = _Cursor(view, HEAD.size, path)
    try:
        header = json.loads(cur.text())
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CheckpointError(f"{path}: bad checkpoint header: {exc}") from exc
    config, vocab, rng_state, epoch = _header_fields(header, path)

    arrays: dict[str, np.ndarray] = {}
    (count,) = cur.unpack("<I")
    for _ in range(count):
        try:
            name = cur.text()
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: bad array name: {exc}") from exc
        if name in arrays:
            raise CheckpointError(f"{path}: array '{name}' appears twice")
        (ndim,) = cur.unpack("<I")
        shape = cur.unpack(f"<{ndim}Q")
        # Python integers: a product of u64 dims cannot overflow here
        size = math.prod(shape)
        if 8 * size > len(view) - cur.pos:
            raise CheckpointError(
                f"{path}: array '{name}' of shape {shape} overruns the checkpoint body"
            )
        array = np.frombuffer(view, "<f8", size, cur.take(8 * size)).reshape(shape)
        # max propagates NaN and min and max reach any infinity: the check
        # needs no temporary the size of the array
        if size and not (np.isfinite(array.max()) and np.isfinite(array.min())):
            raise CheckpointError(f"{path}: array '{name}' holds non-finite values")
        arrays[name] = array
    if cur.pos != len(view):
        raise CheckpointError(f"{path}: {len(view) - cur.pos} trailing bytes in body")
    return Checkpoint(
        config=config, vocab_words=vocab, arrays=arrays, rng_state=rng_state, epoch=epoch
    )


def load_checkpoint(path: str) -> Checkpoint:
    """Read `path` once into a buffer that only the returned arrays view.

    The arrays are writable, and no other object shares their memory, so
    `build_model` can hand the table to the model without a copy.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        # uninitialised, unlike bytearray(size): the read fills every byte
        buffer = np.empty(size, dtype=np.uint8)
        read = fh.readinto(buffer)
    if read != size:
        raise CheckpointError(f"{path}: read {read} of the file's {size} bytes")
    return parse_checkpoint(buffer, path)


def build_model(ckpt: Checkpoint):
    """Reconstruct a JointModel from a checkpoint.

    When the 'embeddings' array is at least half of the checkpoint's array
    bytes, it becomes the model's table without a copy (the store copies it
    only if it is read-only), so training the model changes that array too.
    A smaller table, and every other array, is copied in. Any array whose
    shape disagrees with the stored config raises CheckpointError naming
    the array.
    """
    from .model import JointModel

    cfg = ckpt.config
    try:
        vocab = Vocabulary.from_entries(ckpt.vocab_words)
    except ValueError as exc:
        raise CheckpointError(f"checkpoint {exc}") from exc
    arrays = dict(ckpt.arrays)
    table = arrays.get(TABLE)
    # A view pins the whole read buffer. When the table is most of it (a
    # GloVe-sized vocabulary) that saves copying the table; otherwise the
    # pinned buffer would hold the other arrays, which are copied in, twice.
    if table is not None and 2 * table.nbytes < sum(a.nbytes for a in arrays.values()):
        arrays[TABLE] = table.copy()
    try:
        return JointModel(vocab, cfg.d, cfg.k, cfg.n, arrays)
    except ValueError as exc:
        raise CheckpointError(str(exc)) from exc
