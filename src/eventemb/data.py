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
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

UNKNOWN_TOKEN = "<unk>"
UNKNOWN_INDEX = 0
# Half-width of the uniform initialisation of a word that has no vector.
NEW_ROW_RANGE = 0.1
# Records per block that the word-vector reader hands to np.loadtxt: a
# block's text is freed once parsed, and a generator resumed once per record
# instead made a small file's parse about 5% slower. A file of at least two
# VECTOR_RANGE_MIN is split into up to min(usable CPUs, size //
# VECTOR_RANGE_MIN) byte ranges, each ending just after a newline; the
# calling process parses the first and one forked worker parses each other
# range, streaming its blocks the same way. The output and errors are those
# of a one-range parse, workers run no BLAS call, and every worker is reaped
# before the load returns or raises.
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

    def __init__(self, words: Iterable[str] = ()) -> None:
        # insertion-ordered: word i is the i-th key, and maps to i
        self._index: dict[str, int] = {UNKNOWN_TOKEN: UNKNOWN_INDEX}
        self._insert(words)

    def _insert(self, words: Iterable[str]) -> None:
        """Append each unseen word, in first-appearance order."""
        for w in words:
            self._index.setdefault(w, len(self._index))

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
        vocab._insert(tokens)
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

    def __init__(self, path: str, start: int, stop: int) -> None:
        super().__init__(path, "rb")
        self.seek(start)
        self._left = stop - start

    def readinto(self, buffer) -> int:
        count = super().readinto(memoryview(buffer)[: self._left])
        self._left -= count
        return count


def records(path: str, start: int = 0, stop: int | None = None) -> Iterable[tuple[int, str]]:
    """(line number, line) of each line that is neither blank nor a comment;
    a leading UTF-8 byte-order mark is dropped.

    With `stop`, only the bytes [start, stop) are read, and lines are
    numbered from `start`; both must lie at 0 or just after a newline, and
    only a range from 0 drops a byte-order mark.
    """
    encoding = "utf-8-sig" if start == 0 else "utf-8"
    if stop is None:
        fh = open(path, "r", encoding=encoding)
    else:
        fh = io.TextIOWrapper(io.BufferedReader(_ByteRange(path, start, stop)), encoding)
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            yield lineno, line


def _fields(path: str, count: int, need: str) -> Iterable[tuple[int, list[str]]]:
    """The tab-separated fields of each record, which must number `count`."""
    for lineno, line in records(path):
        fields = line.split("\t")
        if len(fields) != count:
            raise DataError(path, lineno, f"{need}, got {len(fields)}")
        yield lineno, fields


def load_word_vectors(path: str) -> tuple[Vocabulary, np.ndarray]:
    """Parse `word v1 ... vd` lines into a vocabulary and embedding table.

    `np.loadtxt` parses the value fields of the records in bulk, fed
    VECTOR_BLOCK records at a time as the file is read, so no block's text
    outlives its parse. A file of at least two VECTOR_RANGE_MIN is split
    into up to min(usable CPUs, size // VECTOR_RANGE_MIN) byte ranges, each
    ending just after a newline. This process parses the first range and
    one forked worker parses each other range; the workers run no BLAS call
    and send their words and rows through a pipe straight into the one
    table. On any failure every worker is reaped and the file is parsed
    again as one range, so the output and every error are those of a
    one-range parse, and no worker outlives the call.

    The dimension is inferred from the first record; every later record must
    match it, every entry must be finite, and no word may repeat once
    lowercased. The unknown row (index 0) is the mean of all loaded rows,
    taken over pre-scaled entries in a column whose plain sum would
    overflow. Only when a check fails is the file read again, to name the
    file:line of the first bad record.
    """
    bounds = _range_bounds(path)
    parsed = None
    if len(bounds) > 2:
        try:
            parsed = _parse_in_workers(path, bounds)
        except OSError:
            pass  # no pipe or no fork: parse as one range
    parsed = parsed or _parse_range(path)
    if parsed is None:
        raise _locate_bad_vector(path)
    words, table = parsed
    if table is None:
        raise DataError(path, 0, "no word vectors found")
    try:
        vocab = Vocabulary.from_entries([UNKNOWN_TOKEN, *words])
    except ValueError:
        linenos = [0] + [lineno for lineno, _ in records(path)]
        first_seen = {UNKNOWN_TOKEN: 0}
        for i, word in enumerate(words, start=1):
            if word in first_seen:
                seen = first_seen[word]
                where = f"line {linenos[seen]}" if seen else "the reserved unknown word"
                raise DataError(path, linenos[i], f"word {word!r} repeats {where}") from None
            first_seen[word] = i
    # max propagates NaN and min and max reach any infinity: the check needs
    # no temporary the size of the table
    loaded = table[1:]
    if not (np.isfinite(loaded.max()) and np.isfinite(loaded.min())):
        first_bad = int(np.argmin(np.isfinite(loaded).all(axis=1)))
        lineno = next(itertools.islice(records(path), first_bad, None))[0]
        raise DataError(path, lineno, "non-finite vector entry")
    with np.errstate(over="ignore"):
        table[UNKNOWN_INDEX] = loaded.mean(axis=0)
    # where a column's sum overflows, sum its entries divided by the row
    # count first: that sum cannot pass the largest entry
    over = ~np.isfinite(table[UNKNOWN_INDEX])
    table[UNKNOWN_INDEX, over] = (loaded[:, over] / len(loaded)).sum(axis=0)
    return vocab, table


def _range_bounds(path: str) -> list[int]:
    """[0, ..., size]: the offsets that split `path` into the byte ranges
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
    return bounds + [size]


def _parse_range(
    path: str, start: int = 0, stop: int | None = None
) -> tuple[list[str], np.ndarray | None] | None:
    """The words and table of the records in bytes [start, stop) of `path`,
    or None if the bulk parse rejects one of them.

    Row 0 of the table repeats the first record, so that the unknown row is
    part of the one table loadtxt allocates; the table is None for a range
    that holds no record.
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
            return words, None
        table = np.loadtxt(
            itertools.chain((first, first), stream), comments=None, quotechar=None, ndmin=2
        )
    except ValueError:
        return None  # the caller names the first bad record of the file
    return words, table


def _parse_in_workers(path: str, bounds: list[int]) -> tuple[list[str], np.ndarray] | None:
    """`_parse_range` of the whole file, parsing the first range here and each
    other range in a forked worker. None if any range fails, the first holds
    no record or a worker dies; every worker is reaped before this returns or
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
        if parsed is None or parsed[1] is None:
            return None  # a bad record, or a first range without one
        words, table = parsed
        counts = []
        for pipe in pipes:
            # (rows, dim, bytes of words), then the words, then the rows
            head = np.zeros(3, np.int64)
            if pipe.readinto(head) != head.nbytes:
                return None
            rows, dim, size = (int(x) for x in head)
            text = pipe.read(size)
            if len(text) != size:
                return None
            if rows:
                if dim != table.shape[1]:
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


def _send_range(path: str, start: int, stop: int, out: io.BufferedWriter) -> None:
    """A worker's body: parse bytes [start, stop) of `path`, write the result
    to `out` as `_parse_in_workers` reads it, and leave the process; a failed
    parse writes nothing."""
    status = 1
    try:
        parsed = _parse_range(path, start, stop)
        if parsed is not None:
            words, table = parsed
            rows = np.empty((0, 0)) if table is None else table[1:]
            text = "\n".join(words).encode("utf-8")
            out.write(np.array([len(rows), rows.shape[1], len(text)], np.int64).tobytes())
            out.write(text)
            out.write(rows)
            out.flush()
            status = 0
    finally:
        os._exit(status)


def _locate_bad_vector(path: str) -> DataError:
    """The error for the first record of `path` that the bulk parse rejects,
    found by reading the file again and parsing one record at a time."""
    dim = None
    for lineno, line in records(path):
        parts = line.split(None, 1)
        if len(parts) < 2:
            return DataError(path, lineno, "expected a word followed by vector entries")
        try:
            np.loadtxt([parts[1]], comments=None, quotechar=None)
        except ValueError as exc:
            return DataError(path, lineno, f"bad vector entry: {exc}")
        count = len(parts[1].split())
        dim = dim or count
        if count != dim:
            return DataError(path, lineno, f"vector has {count} entries, expected {dim}")
    return DataError(path, 0, "bulk parse failed on records that parse one at a time")


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
