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
loaded model lives (see `load_checkpoint`). The load reads the body once,
each LOAD_BLOCK's CRC then its finite sum. Every CRC is `crc32`: zlib's
values, through libdeflate where the system has it; no file byte depends on it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import mmap
import os
import stat
import struct
import traceback
import zlib
from dataclasses import dataclass, fields

import numpy as np

from .data import Vocabulary
from .model import JointModel, layout
from .params import TABLE, flat_size

MAGIC = b"EVEMBCKP"
VERSION = 5
HEAD = struct.Struct("<8sIIQ")  # magic, version, CRC of the body, body length

# zlib below: 8 KiB took 2.7 us against libdeflate's 2.8 us, 16 KiB 5.1 against 3.3 us
CRC_FAST_MIN = 16384
# array bytes per CRC-and-sum step of a load: a glove load took 43 ms, 48 at 64 KiB, 49-63 at 1 MiB
LOAD_BLOCK = 262144
try:  # libdeflate's CRC-32 folds with carry-less multiplies: 2.2x zlib's on the glove body
    import ctypes
    _LIBDEFLATE = ctypes.CDLL("libdeflate.so.0").libdeflate_crc32
    _LIBDEFLATE.restype = ctypes.c_uint32
    _LIBDEFLATE.argtypes = (ctypes.c_uint32, ctypes.c_void_p, ctypes.c_size_t)
except (ImportError, OSError, AttributeError):
    _LIBDEFLATE = None


def crc32(data, value: int = 0) -> int:
    """zlib.crc32(data, value), through libdeflate from CRC_FAST_MIN bytes where it is."""
    view = memoryview(data)
    if _LIBDEFLATE is None or view.nbytes < CRC_FAST_MIN:
        return zlib.crc32(view, value)
    return _LIBDEFLATE(value, np.frombuffer(view, np.uint8).ctypes.data, view.nbytes)


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


class SaveState:
    """What a run's saves share: the `,"vocab":[...]}` that closes each header,
    encoded again only for another `Vocabulary` object, and the CRC-32 of each
    CRC_CHUNK bytes of whole rows (one row at least) of the table, the last chunk
    perhaps shorter, so that a save re-reads only the chunks holding a row written
    since the last. A new one, or one given another table shape, reads all."""

    def __init__(self) -> None:
        self.vocab = self.tail = self.shape = self.crcs = None

    def vocab_tail(self, vocab: Vocabulary) -> bytes:
        """`,"vocab":[...]}` of `vocab`: a vocabulary does not change once built."""
        if vocab is not self.vocab:
            words = json.dumps(vocab.words, separators=(",", ":"))
            self.vocab, self.tail = vocab, f',"vocab":{words}}}'.encode("utf-8")
        return self.tail

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


def _serialized_parts(ckpt: Checkpoint, state: SaveState | None = None, changed=()) -> list:
    """Head and body as byte buffers; a C-ordered float64 array is a view, not a copy.

    `state` (new when None) encodes the header's vocabulary and gives the table's CRC,
    which the body CRC joins to the header's and the flat buffer's. The body names no
    array, so the table and flat buffer must have the shapes that the config and
    vocabulary fix; otherwise this raises ValueError.
    """
    shapes = (np.shape(ckpt.table), np.shape(ckpt.flat))
    if shapes != (want := _shapes(len(ckpt.vocab), ckpt.config)):
        raise ValueError(f"table and flat buffer have shapes {shapes}, the header needs {want}")
    # the bytes of json.dumps(header, sort_keys=True, separators=(",", ":")):
    # "vocab" sorts last, so the state's encoding of it closes the object
    state = SaveState() if state is None else state
    header = json.dumps(
        {"config": ckpt.config.to_dict(), "epoch": ckpt.epoch, "rng_state": ckpt.rng_state},
        sort_keys=True,
        separators=(",", ":"),
    )[:-1].encode("utf-8") + state.vocab_tail(ckpt.vocab)
    # spaces after the JSON, which the reader skips, start the array data at
    # a multiple of 8 bytes, so that a loaded array is an aligned view
    header += b" " * (-(HEAD.size + 4 + len(header)) % 8)
    parts = [struct.pack("<I", len(header)), header]
    table, flat = (np.ascontiguousarray(arr, dtype="<f8") for arr in (ckpt.table, ckpt.flat))
    parts += [table.reshape(-1).view(np.uint8), flat.view(np.uint8)]
    crc = crc32(parts[3], state.extend(crc32(header, crc32(parts[0])), table, changed))
    head = HEAD.pack(MAGIC, VERSION, crc, sum(len(part) for part in parts))
    return [head, *parts]


def save_checkpoint(path: str, ckpt: Checkpoint, state: SaveState | None = None, changed=()):
    """Write `ckpt` to `path`, atomically against a process that fails.

    The bytes go to `path + ".tmp"`, which is then renamed onto `path`,
    replacing a file already there. A write or rename that raises removes
    the temp file before the error propagates, so a full disk leaves no
    partial file behind and an existing `path` keeps its bytes. Nothing is
    fsync'd: after a power loss `path` may be short or zero-filled, and the
    reader's length and CRC checks reject it. A run passes its `SaveState`
    and the ids of the table rows written since its last save.
    """
    parts = _serialized_parts(ckpt, state, changed)
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
    (header_len,) = struct.unpack_from("<I", view, HEAD.size)
    # one pass: each LOAD_BLOCK of the arrays is summed just after its CRC, in cache; the
    # header length that places them is unchecked, so the sums wait for the CRC and sizes
    offset = min(start + header_len, len(view))
    values = np.frombuffer(view, "<f8", (len(view) - offset) // 8, offset)
    body_crc, sums = crc32(view[HEAD.size : offset]), []
    with np.errstate(over="ignore", invalid="ignore"):
        for at in range(0, len(view) - offset, LOAD_BLOCK):
            body_crc = crc32(view[offset + at : offset + at + LOAD_BLOCK], body_crc)
            sums.append(np.add.reduce(values[at // 8 : (at + LOAD_BLOCK) // 8]))
    if body_crc != crc:
        raise CheckpointError(f"{path}: checksum mismatch (corrupted checkpoint)")

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
    if len(view) - offset != 8 * total:
        raise CheckpointError(
            f"{path}: body holds {len(view) - offset} array bytes, "
            f"the header's config and vocabulary need {8 * total}"
        )
    # a NaN or an infinity makes its block's sum non-finite, so finite sums clear
    # every entry; finite entries whose sums overflow fall through to the exact scan
    if not np.isfinite(sums).all() and not np.isfinite(values).all():
        # the array whose entries end past the first non-finite entry
        arrays = layout(config.d, config.k, config.n)
        ends = np.cumsum([split, *(math.prod(shape) for shape, _ in arrays.values())])
        first = np.argmin(np.isfinite(values))
        bad = [TABLE, *arrays][np.searchsorted(ends, first, side="right")]
        raise CheckpointError(f"{path}: array '{bad}' holds non-finite values")
    table = values[:split].reshape(table_shape)
    return Checkpoint(config, vocab, table, values[split:], rng_state, epoch)


def load_checkpoint(path: str) -> Checkpoint:
    """Map `path`, which must be a regular file, copy-on-write and parse the mapping in place.

    The file is opened without blocking and rejected unread if it is not
    regular, so a FIFO with no writer fails at once. The returned table and
    flat buffer are writable views of a private mapping (`mmap.ACCESS_COPY`)
    that nothing else holds, so `build_model` hands them to the model without
    a copy. The checks read the body once, each block's CRC then its finite
    sum, and a write to a page copies it first: training a loaded model
    never changes the file.

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
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)  # opening a FIFO would wait for a writer
    try:
        if not stat.S_ISREG(os.fstat(fd).st_mode):
            reason = "not a regular file: a checkpoint is mapped, so it cannot come from a pipe"
            raise CheckpointError(f"{path}: {reason}")
        try:
            data = mmap.mmap(fd, 0, access=mmap.ACCESS_COPY)
        except ValueError:  # mmap refuses an empty file
            raise CheckpointError(f"{path}: truncated checkpoint") from None
    finally:
        os.close(fd)
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
