"""Corpus, annotation, lexicon and word-vector ingestion.

All on-disk formats are line-oriented UTF-8 text, read by `records`:
`#`-prefixed lines are comments, blank lines are ignored and a leading
byte-order mark is dropped. See the README for the exact grammar of each
file type. Parsed structures are immutable and freely shareable.
"""

from __future__ import annotations

import io
import itertools
import mmap
import os
import signal
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

UNKNOWN_TOKEN = "<unk>"
UNKNOWN_INDEX = 0
# Half-width of the uniform initialisation of a word that has no vector.
NEW_ROW_RANGE = 0.1
# Records per block that the word-vector reader hands to np.loadtxt: a
# block's text is freed once parsed, and a generator resumed once per record
# instead made a small file's parse about 5% slower.
VECTOR_BLOCK = 1024
# Two ranges broke even with one at a file of about 4 MiB (2 MiB per range):
# below it, the fork and the pipe transfer of the rows cost more than the
# second CPU saves. A range holds at least twice that.
VECTOR_RANGE_MIN = 4 << 20


class DataError(ValueError):
    """Malformed input file; message carries file path and line number."""

    def __init__(self, path: str, line: int, message: str) -> None:
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


def tokenize(text: str) -> tuple[str, ...]:
    """Lowercase and split on whitespace; placeholder tokens stay whole."""
    return tuple(text.lower().split())


@dataclass(frozen=True)
class EventTuple:
    """(actor, predicate, object) as word lists."""

    actor: tuple[str, ...]
    predicate: tuple[str, ...]
    object: tuple[str, ...]

    def __post_init__(self) -> None:
        for field in ("actor", "predicate", "object"):
            if not getattr(self, field):
                raise ValueError(f"event tuple: empty {field}")

    def words(self) -> tuple[str, ...]:
        return self.actor + self.predicate + self.object


@dataclass(frozen=True)
class AnnotatedExample:
    """An event plus optional intent sentence and emotion words; either, if
    present, holds at least one word."""

    event: EventTuple
    intent: tuple[str, ...] | None = None
    emotion_words: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        for field in ("intent", "emotion_words"):
            words = getattr(self, field)
            if words is not None and not words:
                raise ValueError(f"annotated example: empty {field}")


@dataclass(frozen=True)
class HardSimInstance:
    similar: tuple[EventTuple, EventTuple]
    dissimilar: tuple[EventTuple, EventTuple]


@dataclass(frozen=True)
class TransitiveSimInstance:
    pair: tuple[EventTuple, EventTuple]
    gold: float


class Vocabulary:
    """Dense word index with a reserved unknown entry at index 0."""

    def __init__(self) -> None:
        # insertion-ordered: word i is the i-th key, and maps to i
        self._index: dict[str, int] = {UNKNOWN_TOKEN: UNKNOWN_INDEX}

    def index(self, word: str) -> int:
        return self._index.get(word, UNKNOWN_INDEX)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def __len__(self) -> int:
        return len(self._index)

    @property
    def words(self) -> list[str]:
        return list(self._index)

    @classmethod
    def from_entries(cls, entries: list[str]) -> "Vocabulary":
        """The vocabulary whose index i holds entries[i], built in bulk.

        `entries` must start with the unknown token; a repeated entry is a
        ValueError.
        """
        if not entries or entries[0] != UNKNOWN_TOKEN:
            raise ValueError(f"vocabulary must start with the {UNKNOWN_TOKEN!r} entry")
        vocab = cls()
        vocab._index = dict(zip(entries, range(len(entries))))
        if len(vocab._index) != len(entries):
            raise ValueError("vocabulary contains duplicate words")
        return vocab

    def extended(self, tokens: Iterable[str]) -> "Vocabulary":
        """New vocabulary with unseen tokens appended in first-appearance order."""
        vocab = Vocabulary()
        vocab._index = dict(self._index)
        for w in tokens:
            vocab._index.setdefault(w, len(vocab._index))
        return vocab


def ascii_number(kind: type) -> Callable[[str], int | float]:
    """A parser of `kind` (int or float) that takes plain ASCII text only.

    Python's int() and float() also take underscores (`1_0`) and non-ASCII
    digits (`٣`); the vectors reader rejects both, and so does this parser.
    Otherwise it parses as `kind` does: `1e-3`, `.5` and `5.` are floats.
    """

    def parse(text: str) -> int | float:
        if not text.isascii() or "_" in text:
            raise ValueError(f"not a plain ASCII {kind.__name__}: {text!r}")
        return kind(text)

    parse.__name__ = kind.__name__  # the type argparse names in a usage error
    return parse


class _ByteRange(io.FileIO):
    """The bytes [start, stop) of a file, as a raw binary stream."""

    def __init__(self, path: str, start: int, stop: int | None) -> None:
        super().__init__(path, "rb")
        if start:  # a pipe cannot seek, even to 0
            self.seek(start)
        self._left = sys.maxsize if stop is None else stop - start

    def readinto(self, buffer) -> int:
        count = super().readinto(memoryview(buffer)[: self._left])
        self._left -= count
        return count


def records(path: str, start: int = 0, stop: int | None = None) -> Iterator[tuple[int, str]]:
    """(line number, line) of each line that is neither blank nor a comment;
    a leading UTF-8 byte-order mark is dropped.

    With `stop`, only the bytes [start, stop) are read, and lines are
    numbered from `start`; both must lie at 0 or just after a newline, and
    only a range from 0 drops a byte-order mark. A line that is not UTF-8
    raises DataError after the records before it.
    """
    lineno, encoding = 0, "utf-8-sig" if start == 0 else "utf-8"
    with io.TextIOWrapper(io.BufferedReader(_ByteRange(path, start, stop)), encoding) as fh:
        lines = enumerate(fh, start=1)
        while True:
            try:
                for lineno, raw in lines:
                    line = raw.rstrip("\n")
                    if line.strip() and not line.lstrip().startswith("#"):
                        yield lineno, line
                return
            except UnicodeDecodeError:  # the decoder reads ahead of the bad line
                lines = _lines_after(path, start, stop, lineno)


def _lines_after(path: str, start: int, stop: int | None, skip: int) -> Iterator[tuple[int, str]]:
    """`records`' lines after its first `skip`, each decoded alone: DataError
    at the first that is not UTF-8. Latin-1 maps a byte to a character, and
    no UTF-8 character holds a \\r or \\n byte, so the lines end alike."""
    with io.TextIOWrapper(io.BufferedReader(_ByteRange(path, start, stop)), "latin-1") as fh:
        for lineno, raw in enumerate(itertools.islice(fh, skip, None), start=skip + 1):
            sig = "-sig" if start == 0 and lineno == 1 else ""
            try:
                yield lineno, raw.encode("latin-1").decode("utf-8" + sig)
            except UnicodeDecodeError as exc:
                bad = exc.object[exc.start]
                raise DataError(path, lineno, f"invalid UTF-8 byte {bad:#04x}") from None


def _fields(path: str, count: int, need: str) -> Iterable[tuple[int, list[str]]]:
    """The tab-separated fields of each record, which must number `count`."""
    for lineno, line in records(path):
        fields = line.split("\t")
        if len(fields) != count:
            raise DataError(path, lineno, f"{need}, got {len(fields)}")
        yield lineno, fields


def load_word_vectors(path: str) -> tuple[Vocabulary, np.ndarray]:
    """Parse `word v1 ... vd` lines into a vocabulary and embedding table.

    The dimension is inferred from the first record; every later record must
    match it, every entry must be finite, and no word may repeat once
    lowercased. The unknown row (index 0) is the mean of all loaded rows,
    taken over pre-scaled entries in a column whose plain sum would overflow.
    The bulk parse splits a file of at least two VECTOR_RANGE_MIN into byte
    ranges, up to one per usable CPU, and parses each but the first in a
    forked worker. Any failure of it hands over to `_walk_vectors`, which
    names the file:line of the first bad record.
    """
    try:
        parsed = _parse_in_workers(path, _range_bounds(path))
    except OSError:
        parsed = None  # no pipe or fork, or an error of the file, which the walk raises
    words, table = parsed or ([], None)
    try:
        vocab = Vocabulary.from_entries([UNKNOWN_TOKEN, *words]) if parsed else None
    except ValueError:
        vocab = None  # a repeated word, which the walk names
    # max propagates NaN and min and max reach any infinity: the check needs
    # no temporary the size of the table
    if vocab is None or not (np.isfinite(table[1:].max()) and np.isfinite(table[1:].min())):
        words, table = _walk_vectors(path, table)
        vocab = Vocabulary.from_entries([UNKNOWN_TOKEN, *words])
    loaded = table[1:]
    with np.errstate(over="ignore"):
        table[UNKNOWN_INDEX] = loaded.mean(axis=0)
    # where a column's sum overflows, sum its entries divided by the row
    # count first: that sum cannot pass the largest entry
    over = ~np.isfinite(table[UNKNOWN_INDEX])
    table[UNKNOWN_INDEX, over] = (loaded[:, over] / len(loaded)).sum(axis=0)
    return vocab, table


def _range_bounds(path: str) -> list[int | None]:
    """[0, ..., None]: the offsets that split `path` into the byte ranges
    `load_word_vectors` parses, each but the last ending just after a newline."""
    size = os.path.getsize(path)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    count = min(cpus or 1, size // VECTOR_RANGE_MIN)
    bounds = [0]
    if count > 1:
        with open(path, "rb") as fh, mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mm:
            for i in range(1, count):
                end = mm.find(b"\n", max(size * i // count, bounds[-1])) + 1
                if end in (0, size):
                    break
                bounds.append(end)
    return bounds + [None]


def _parse_range(path: str, start: int, stop: int | None) -> tuple[list, np.ndarray] | None:
    """The words and table of the records in bytes [start, stop) of `path`,
    or None if the range holds none or the bulk parse rejects one of them.

    Row 0 of the table repeats the first record, so that the unknown row is
    part of the one table loadtxt allocates.
    """
    words: list[str] = []

    def blocks() -> Iterator[list[str]]:
        values: list[str] = []
        for _, line in records(path, start, stop):
            parts = line.split(None, 1)
            if len(parts) < 2:
                raise ValueError("a record without values")
            words.append(parts[0].lower())
            values.append(parts[1])
            if len(values) == VECTOR_BLOCK:
                yield values
                values = []
        yield values

    stream = itertools.chain.from_iterable(blocks())
    try:
        # loadtxt warns on input with no records: such a range stops here
        first = next(stream, None)
        if first is None:
            return None
        table = np.loadtxt(
            itertools.chain((first, first), stream), comments=None, quotechar=None, ndmin=2
        )
    except ValueError:
        return None  # the caller names the first bad record of the file
    return words, table


def _parse_in_workers(path: str, bounds: list[int | None]) -> tuple[list, np.ndarray] | None:
    """`_parse_range` of the whole file, parsing the first range here and each
    other range in a forked worker. None if any range fails or holds no
    record, or a worker dies; every worker is reaped before this returns or
    raises."""
    pipes, pids = [], []
    done = False
    try:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            read_end, write_end = os.pipe()
            pipes.append(open(read_end, "rb"))
            with open(write_end, "wb") as out:
                pid = os.fork()
                if pid == 0:
                    _send_range(path, start, stop, out)
            pids.append(pid)
        parsed = _parse_range(path, bounds[0], bounds[1])
        if parsed is None:
            return None
        words, table = parsed
        counts = []
        for pipe in pipes:
            # (rows, dim, bytes of words), then the words, then the rows
            head = np.zeros(3, np.int64)
            if pipe.readinto(head) != head.nbytes:
                return None
            rows, dim, size = (int(x) for x in head)
            text = pipe.read(size)
            if len(text) != size or dim != table.shape[1]:
                return None
            words += text.decode("utf-8").split("\n")
            counts.append(rows)
        offset = len(table)
        # a realloc: a large table's pages are remapped, not copied
        table.resize((offset + sum(counts), table.shape[1]), refcheck=False)
        for pipe, rows in zip(pipes, counts):
            view = table[offset : offset + rows]
            if pipe.readinto(view) != view.nbytes:
                return None
            offset += rows
        done = True
        return words, table
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            if not done:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _send_range(path: str, start: int, stop: int | None, out: io.BufferedWriter) -> None:
    """A worker's body: parse bytes [start, stop) of `path`, write the result
    to `out` as `_parse_in_workers` reads it, and leave the process; a failed
    parse writes nothing."""
    status = 1
    try:
        parsed = _parse_range(path, start, stop)
        if parsed is not None:
            rows, text = parsed[1][1:], "\n".join(parsed[0]).encode("utf-8")
            out.write(np.array([len(rows), rows.shape[1], len(text)], np.int64).tobytes())
            out.write(text)
            out.write(rows)
            out.flush()
            status = 0
    finally:
        os._exit(status)


def _walk_vectors(path: str, table: np.ndarray | None) -> tuple[list[str], np.ndarray]:
    """The words and table of `path` from one more read, which raises
    DataError at the first bad record: first one that does not parse, then a
    repeated word, then a non-finite entry. The rows of a good bulk parse,
    `table`, are taken as they are. Row 0 is the caller's to set."""
    words, blocks, first_seen, late = [], [], {UNKNOWN_TOKEN: 0}, {}
    lines, error = records(path), None
    while not error:
        block: list[tuple[int, str]] = []
        try:  # extend keeps the records read before an error
            block.extend(itertools.islice(lines, VECTOR_BLOCK))
        except DataError as exc:  # not UTF-8: a bad record before it is named first
            error = exc
        if not block:
            break
        if table is None:
            blocks.append(_parse_block(path, block, blocks[0].shape[1] if blocks else None))
        rows = blocks[-1] if table is None else table[1 + len(words) :][: len(block)]
        for (lineno, line), finite in zip(block, np.isfinite(rows).all(axis=1)):
            words.append(line.split(None, 1)[0].lower())
            seen = first_seen.setdefault(words[-1], lineno)
            if seen != lineno:
                where = f"line {seen}" if seen else "the reserved unknown word"
                late.setdefault(1, DataError(path, lineno, f"word {words[-1]!r} repeats {where}"))
            if not finite:
                late.setdefault(2, DataError(path, lineno, "non-finite vector entry"))
    if error or late or not words:
        raise error or (late[min(late)] if late else DataError(path, 0, "no word vectors found"))
    return words, np.concatenate([blocks[0][:1], *blocks]) if table is None else table


def _parse_block(path: str, block: list[tuple[int, str]], dim: int | None) -> np.ndarray:
    """The rows of a block of records from one np.loadtxt call, each `dim`
    wide (or as wide as the first). A block that the call rejects is parsed
    one record at a time, to name its first bad record."""
    try:
        values = [line.split(None, 1)[1] for _, line in block]
        rows = np.loadtxt(values, comments=None, quotechar=None, ndmin=2)
        if rows.shape[1] == (dim or rows.shape[1]):
            return rows
        bad = f"vector has {rows.shape[1]} entries, expected {dim}"
    except IndexError:
        bad = "expected a word followed by vector entries"
    except ValueError as exc:
        bad = f"bad vector entry: {exc}"
    if len(block) == 1:
        raise DataError(path, block[0][0], bad)
    rows = [_parse_block(path, block[:1], dim)]
    rows += [_parse_block(path, [record], rows[0].shape[1]) for record in block[1:]]
    return np.concatenate(rows)


def extend_embeddings(
    vocab: Vocabulary, table: np.ndarray, tokens: Iterable[str], rng: np.random.Generator
) -> tuple[Vocabulary, np.ndarray]:
    """Grow (vocab, table) to cover `tokens`; new rows init uniform in [-r, r],
    r = NEW_ROW_RANGE.

    The returned table is always a new array, never `table` itself: the
    model's store trains the table it is given in place, and `np.vstack`
    copies even when there are no new rows (and then draws nothing).
    """
    extended = vocab.extended(tokens)
    n_new = len(extended) - len(vocab)
    fresh = rng.uniform(-NEW_ROW_RANGE, NEW_ROW_RANGE, size=(n_new, table.shape[1]))
    return extended, np.vstack([table, fresh])


def derive_polarity(
    emotion_words: Sequence[str], lexicon: dict[str, int]
) -> int | None:
    """Sign of the summed lexicon polarities; None on an exact zero sum.

    Words absent from the lexicon contribute 0; duplicates contribute once
    per occurrence.
    """
    total = sum(lexicon.get(w, 0) for w in emotion_words)
    if total > 0:
        return 1
    if total < 0:
        return -1
    return None


def parse_event(text: str, path: str = "<string>", lineno: int = 0) -> EventTuple:
    parts = text.split("|")
    if len(parts) != 3:
        raise DataError(
            path, lineno, f"event needs 3 pipe-delimited arguments, got {len(parts)}"
        )
    args = [tokenize(p) for p in parts]
    for name, arg in zip(("actor", "predicate", "object"), args):
        if not arg:
            raise DataError(path, lineno, f"event has an empty {name}")
    return EventTuple(*args)


def format_event(event: EventTuple) -> str:
    return "|".join(
        " ".join(arg) for arg in (event.actor, event.predicate, event.object)
    )


def load_corpus(path: str) -> list[EventTuple]:
    """One event per line: `actor words|predicate words|object words`."""
    return [parse_event(line, path, lineno) for lineno, line in records(path)]


def load_annotations(path: str) -> list[AnnotatedExample]:
    """`event<TAB>intent or -<TAB>comma-separated emotion words or -` lines."""
    examples = []
    for lineno, fields in _fields(path, 3, "annotation needs 3 tab-separated fields"):
        event = parse_event(fields[0], path, lineno)
        intent = None if fields[1].strip() == "-" else tokenize(fields[1])
        if intent == ():
            raise DataError(path, lineno, "annotation has an empty intent field")
        emotions: tuple[str, ...] | None
        if fields[2].strip() == "-":
            emotions = None
        else:
            emotions = tuple(
                w for item in fields[2].split(",") for w in tokenize(item)
            )
            if not emotions:
                raise DataError(path, lineno, "annotation has an empty emotion field")
        if intent is None and emotions is None:
            raise DataError(
                path, lineno, "annotation carries neither an intent nor emotion words"
            )
        examples.append(AnnotatedExample(event, intent, emotions))
    return examples


def load_hardsim(path: str) -> list[HardSimInstance]:
    """Four tab-separated events per line: similar pair, then dissimilar pair."""
    instances = []
    for lineno, fields in _fields(path, 4, "hard-similarity record needs 4 events"):
        e1, e2, e3, e4 = (parse_event(f, path, lineno) for f in fields)
        instances.append(HardSimInstance(similar=(e1, e2), dissimilar=(e3, e4)))
    return instances


def load_transitive(path: str) -> list[TransitiveSimInstance]:
    """Two tab-separated events plus a gold score in [1, 7] per line."""
    instances = []
    need = "transitive record needs 3 tab-separated fields (2 events and a gold score)"
    for lineno, fields in _fields(path, 3, need):
        e1 = parse_event(fields[0], path, lineno)
        e2 = parse_event(fields[1], path, lineno)
        try:
            gold = ascii_number(float)(fields[2])
        except ValueError as exc:
            raise DataError(path, lineno, f"bad gold score: {fields[2]!r}") from exc
        if not (1.0 <= gold <= 7.0):
            raise DataError(path, lineno, f"gold score {gold} outside [1, 7]")
        instances.append(TransitiveSimInstance(pair=(e1, e2), gold=gold))
    return instances


def load_lexicon(path: str) -> dict[str, int]:
    """`word<TAB>+1|-1` lines, each word one token; later duplicates override earlier ones."""
    lexicon: dict[str, int] = {}
    for lineno, fields in _fields(path, 2, "lexicon record needs 2 tab-separated fields"):
        word = fields[0].strip().lower()
        value = fields[1].strip()
        if value in ("+1", "1"):
            polarity = 1
        elif value == "-1":
            polarity = -1
        else:
            raise DataError(path, lineno, f"lexicon polarity must be +1 or -1, got {value!r}")
        if not word:
            raise DataError(path, lineno, "lexicon record has an empty word")
        if len(word.split()) > 1:
            raise DataError(path, lineno, f"lexicon word {word!r} is not a single token")
        lexicon[word] = polarity
    return lexicon
