"""Bit-exact checkpoint serialization.

Layout (all integers little-endian):

    magic   8 bytes  b"EVEMBCKP"
    u32     format version
    u32     CRC-32 of the body
    u64     body length in bytes
    body:
      u32 header length, then UTF-8 JSON header
          {"config": {...}, "epoch": int, "rng_state": {...}, "vocab": [...]}
          and 0-7 spaces, so that the arrays start at a multiple of 8 bytes
      the (|V|, d) word table, then the model's flat buffer: the arrays of
      `model.layout(d, k, n)` back to back; float64 little-endian, C order

The header's vocabulary and config fix both parts' shapes and the name and
shape of every array in the flat buffer, so the body names none.
Truncation or in-place corruption fails the length or CRC check; a config
that lacks a field or is not valid when built, a malformed header field, a
vocabulary that repeats a word or lacks its leading "<unk>", a body of the
wrong size for its header or a non-finite array is rejected too. A
checkpoint either loads losslessly or raises CheckpointError.

Loading maps the file copy-on-write and parses the mapping in place: the
table and the flat buffer are views of the mapping, not copies, and writes
to them go to private pages, never to the file. The mapping stays backed by
the file, so the file must not be truncated or written in place while a
loaded model lives (see `load_checkpoint`).
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import mmap
import os
import struct
import traceback
import weakref
import zlib
from dataclasses import dataclass, fields

import numpy as np

from .data import Vocabulary
from .model import JointModel, layout
from .params import TABLE, flat_size

MAGIC = b"EVEMBCKP"
VERSION = 5
HEAD = struct.Struct("<8sIIQ")  # magic, version, CRC of the body, body length


class CheckpointError(ValueError):
    pass


@dataclass
class Checkpoint:
    config: "TrainingConfig"  # noqa: F821 - imported lazily to avoid a cycle
    vocab: Vocabulary
    table: np.ndarray  # (|V|, d)
    flat: np.ndarray  # the arrays of `model.layout(d, k, n)` back to back
    rng_state: dict
    epoch: int


def _shapes(vocab_size: int, config) -> tuple:
    """The table's and the flat buffer's shapes that a header fixes."""
    return (vocab_size, config.d), (flat_size(layout(config.d, config.k, config.n)),)


# Each live Vocabulary's `,"vocab":[...]}`, encoded at its first save: a
# vocabulary does not change once built, and every save of a run passes the
# same one. Keys are compared by identity and drop out with their vocabulary.
_VOCAB_TAILS: "weakref.WeakKeyDictionary[Vocabulary, bytes]" = weakref.WeakKeyDictionary()


def _vocab_tail(vocab: Vocabulary) -> bytes:
    tail = _VOCAB_TAILS.get(vocab)
    if tail is None:
        words = json.dumps(vocab.words, separators=(",", ":"))
        tail = _VOCAB_TAILS[vocab] = f',"vocab":{words}}}'.encode("utf-8")
    return tail


# Table bytes per chunk whose CRC-32 a run keeps, rounded down to whole rows.
CRC_CHUNK = 8192
_UNIT = np.uint32(1) << np.arange(32, dtype=np.uint32)  # each bit of a CRC
_BYTE_BITS = (np.arange(256, dtype=np.uint32)[:, None] >> np.arange(8, dtype=np.uint32)) & 1


def _apply(t, crc):
    """`crc`, an int or a uint32 array, through the map whose byte tables are `t`."""
    return t[0][crc & 255] ^ t[1][crc >> 8 & 255] ^ t[2][crc >> 16 & 255] ^ t[3][crc >> 24]


@functools.lru_cache(maxsize=1024)
def _shift(n: int) -> tuple:
    """Byte tables, as an array and as row views (faster on an int), of crc -> CRC-32 `crc`
    advanced over n zero bytes, a GF(2)-linear map built by squaring the one-byte one:
    zlib.crc32(a + b) == _apply(_shift(len(b))[1], zlib.crc32(a)) ^ zlib.crc32(b)."""
    if n < 2:
        cols = [zlib.crc32(bytes(n), int(bit) ^ 0xFFFFFFFF) ^ 0xFFFFFFFF for bit in _UNIT]
    else:
        cols = _apply(_shift(n // 2)[0], _apply(_shift(n // 2)[0], _UNIT))
        cols = _apply(_shift(1)[0], cols) if n % 2 else cols
    tables = np.bitwise_xor.reduce(_BYTE_BITS * np.reshape(cols, (4, 1, 8)).astype(np.uint32), 2)
    return tables, [memoryview(row) for row in tables]


class TableCRCs:
    """The CRC-32 of each CRC_CHUNK bytes of whole rows (one row at least) of
    a table, the last chunk perhaps shorter. A run keeps one across its
    saves, so that a save re-reads only the chunks holding a row written
    since the last; a new one, or one given another table shape, reads all."""

    def __init__(self) -> None:
        self.shape = self.crcs = None

    def extend(self, crc: int, table: np.ndarray, changed=()) -> int:
        """zlib.crc32(table, crc), given the ids of the rows changed since the last call."""
        rows = max(1, CRC_CHUNK // (8 * table.shape[1]))
        size, count, full = 8 * rows * table.shape[1], -(-len(table) // rows), len(table) // rows
        dirty = np.full(count, self.shape != table.shape)
        if self.shape != table.shape:  # crcs[0]: the bytes before the table, crcs[1 + i]: chunk i
            self.shape, self.crcs = table.shape, np.zeros(1 + count, np.uint32)
        dirty[np.concatenate([np.zeros(0, np.int64), *changed]) // rows] = True
        dirty = dirty.nonzero()[0]
        view = memoryview(table.reshape(-1).view(np.uint8))
        parts = [zlib.crc32(view[i * size : (i + 1) * size]) for i in dirty.tolist()]
        self.crcs[0], self.crcs[1:][dirty], tail = crc, parts, len(view) % size
        # join pairs while many (a leading 0, an empty part, evens the count), then one by one
        crcs = self.crcs[: 1 + full]
        while len(crcs) > 32:
            crcs = np.concatenate((np.zeros(len(crcs) % 2, np.uint32), crcs))
            crcs, size = _apply(_shift(size)[0], crcs[0::2]) ^ crcs[1::2], 2 * size
        crc, tables = 0, _shift(size)[1]
        for part in crcs.tolist():
            crc = _apply(tables, crc) ^ part
        return _apply(_shift(tail)[1], crc) ^ int(self.crcs[-1]) if tail else crc


def _serialized_parts(ckpt: Checkpoint, crcs: TableCRCs | None = None, changed=()) -> list:
    """Head and body as byte buffers; a C-ordered float64 array is a view, not a copy.

    The body CRC joins the header's CRC, the table's from `crcs` (new when None) and
    the flat buffer's. The body names no array, so the table and flat buffer must have
    the shapes that the config and vocabulary fix; otherwise this raises ValueError.
    """
    shapes = (np.shape(ckpt.table), np.shape(ckpt.flat))
    if shapes != (want := _shapes(len(ckpt.vocab), ckpt.config)):
        raise ValueError(f"table and flat buffer have shapes {shapes}, the header needs {want}")
    # the bytes of json.dumps(header, sort_keys=True, separators=(",", ":")):
    # "vocab" sorts last, so its cached encoding closes the object
    header = json.dumps(
        {"config": ckpt.config.to_dict(), "epoch": ckpt.epoch, "rng_state": ckpt.rng_state},
        sort_keys=True,
        separators=(",", ":"),
    )[:-1].encode("utf-8") + _vocab_tail(ckpt.vocab)
    # spaces after the JSON, which the reader skips, start the array data at
    # a multiple of 8 bytes, so that a loaded array is an aligned view
    header += b" " * (-(HEAD.size + 4 + len(header)) % 8)
    parts = [struct.pack("<I", len(header)), header]
    table, flat = (np.ascontiguousarray(arr, dtype="<f8") for arr in (ckpt.table, ckpt.flat))
    parts += [table.reshape(-1).view(np.uint8), flat.view(np.uint8)]
    crc = (crcs or TableCRCs()).extend(zlib.crc32(header, zlib.crc32(parts[0])), table, changed)
    crc = zlib.crc32(parts[3], crc)
    head = HEAD.pack(MAGIC, VERSION, crc, sum(len(part) for part in parts))
    return [head, *parts]


def save_checkpoint(path: str, ckpt: Checkpoint, crcs: TableCRCs | None = None, changed=()):
    """Write `ckpt` to `path`, atomically against a process that fails.

    The bytes go to `path + ".tmp"`, which is then renamed onto `path`,
    replacing a file already there. A write or rename that raises removes
    the temp file before the error propagates, so a full disk leaves no
    partial file behind and an existing `path` keeps its bytes. Nothing is
    fsync'd: after a power loss `path` may be short or zero-filled, and the
    reader's length and CRC checks reject it. A run passes its `TableCRCs`
    and the ids of the table rows written since its last save.
    """
    parts = _serialized_parts(ckpt, crcs, changed)
    tmp = path + ".tmp"
    # opened outside the try: a temp file this call could not open is not its to remove
    fh = open(tmp, "wb")
    try:
        with fh:
            fh.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


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
    try:
        vocab = Vocabulary.from_entries(vocab)
    except ValueError as exc:
        raise CheckpointError(f"{path}: checkpoint {exc}") from exc
    if type(epoch) is not int:
        raise CheckpointError(f"{path}: checkpoint field 'epoch' is not an integer: {epoch!r}")
    if type(rng_state) is not dict:
        raise CheckpointError(f"{path}: checkpoint field 'rng_state' is not a JSON object")
    return config, vocab, rng_state, epoch


def parse_checkpoint(data, path: str = "<bytes>") -> Checkpoint:
    """Check and parse checkpoint bytes without copying the arrays.

    `data` is any bytes-like object. The table and the flat buffer are views
    of it: read-only over `bytes`, writable over a writable buffer such as
    the copy-on-write mapping that `load_checkpoint` makes.
    """
    view = memoryview(data).cast("B")
    start = HEAD.size + 4  # the JSON header, after the head and its u32 length
    if len(view) < start:
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

    (header_len,) = struct.unpack_from("<I", view, HEAD.size)
    if header_len > len(view) - start:
        raise CheckpointError(f"{path}: truncated checkpoint")
    try:
        header = json.loads(str(view[start : start + header_len], "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CheckpointError(f"{path}: bad checkpoint header: {exc}") from exc
    config, vocab, rng_state, epoch = _header_fields(header, path)

    table_shape, (size,) = _shapes(len(vocab), config)
    # Python integers: no config's sizes can overflow, and none is allocated
    split = math.prod(table_shape)
    total = split + size
    offset = start + header_len
    if len(view) - offset != 8 * total:
        raise CheckpointError(
            f"{path}: body holds {len(view) - offset} array bytes, "
            f"the header's config and vocabulary need {8 * total}"
        )
    values = np.frombuffer(view, "<f8", total, offset)
    # one pass with no temporary the size of the arrays: a NaN or an infinity
    # makes the sum non-finite, so a finite sum clears every entry; finite
    # entries whose sum overflows fall through to the exact scan and load
    with np.errstate(over="ignore", invalid="ignore"):
        total_sum = np.add.reduce(values)
    if not np.isfinite(total_sum) and not np.isfinite(values).all():
        # the array whose entries end past the first non-finite entry
        arrays = layout(config.d, config.k, config.n)
        ends = np.cumsum([split, *(math.prod(shape) for shape, _ in arrays.values())])
        first = np.argmin(np.isfinite(values))
        bad = [TABLE, *arrays][np.searchsorted(ends, first, side="right")]
        raise CheckpointError(f"{path}: array '{bad}' holds non-finite values")
    table = values[:split].reshape(table_shape)
    return Checkpoint(config, vocab, table, values[split:], rng_state, epoch)


def load_checkpoint(path: str) -> Checkpoint:
    """Map `path` copy-on-write and parse the mapping in place.

    The returned table and flat buffer are writable views of a private
    mapping (`mmap.ACCESS_COPY`) that nothing else holds, so `build_model`
    hands them to the model without a copy. The checks read every page
    through the mapping, and a write to a page copies it first: training a
    loaded model never changes the file.

    The mapping stays backed by the file until the last view is dropped, so
    nothing may change the file in place meanwhile:

    - if another process truncates it (`cp` onto it, say), the next touch of
      any page past the new end, copied or not, raises SIGBUS and ends the
      process;
    - a write in place can show through pages that have not been copied,
      after the checks have passed.

    This program's own writers do neither: a save writes a temp file and
    renames it onto `path`, and a run unlinks old files, which leaves the
    mapped inode alone. The mapping also holds a duplicate of the file
    descriptor, one per loaded checkpoint, until it is dropped; a rejected
    file's mapping and descriptor are closed before its error is raised.
    """
    with open(path, "rb") as fh:
        try:
            data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
        except ValueError:  # mmap refuses an empty file
            raise CheckpointError(f"{path}: truncated checkpoint") from None
    try:
        return parse_checkpoint(data, path)
    except CheckpointError as exc:
        # the traceback's parse frame holds views of the mapping; close() needs them gone
        traceback.clear_frames(exc.__traceback__)
        data.close()
        raise


def build_model(ckpt: Checkpoint) -> JointModel:
    """Reconstruct a JointModel from a checkpoint.

    The model takes the checkpoint's table and flat buffer without a copy
    (the store copies them only if they are read-only), so training the
    model changes those arrays too.
    """
    cfg = ckpt.config
    return JointModel(ckpt.vocab, cfg.d, cfg.k, cfg.n, ckpt.table, ckpt.flat)
