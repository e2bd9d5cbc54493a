"""Corpus, annotation, lexicon and word-vector ingestion.

All on-disk formats are line-oriented UTF-8 text, read by `records`:
`#`-prefixed lines are comments, blank lines are ignored and a leading
byte-order mark is dropped. See the README for the exact grammar of each
file type. Parsed structures are immutable and freely shareable.
"""

from __future__ import annotations

import itertools
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


def records(path: str) -> Iterable[tuple[int, str]]:
    """(line number, line) of each line that is neither blank nor a comment;
    a leading UTF-8 byte-order mark is dropped."""
    with open(path, "r", encoding="utf-8-sig") as fh:
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

    One `np.loadtxt` parses the value fields of all records in bulk, fed
    VECTOR_BLOCK records at a time as the file is read, so no block's text
    outlives its parse. The dimension is inferred from the first record;
    every later record must match it, every entry must be finite, and no
    word may repeat once lowercased. The unknown row (index 0) is the mean
    of all loaded rows, taken over pre-scaled entries in a column whose plain
    sum would overflow. Only when a check fails is the file read again, to
    name the file:line of the first bad record.
    """
    words: list[str] = []

    def blocks() -> Iterator[list[str]]:
        values: list[str] = []
        for lineno, line in records(path):
            parts = line.split(None, 1)
            if len(parts) < 2:
                raise DataError(path, lineno, "expected a word followed by vector entries")
            words.append(parts[0].lower())
            values.append(parts[1])
            if len(values) == VECTOR_BLOCK:
                yield values
                values = []
        yield values

    stream = itertools.chain.from_iterable(blocks())
    # loadtxt warns on input with no records: an empty file stops here
    first = next(stream, None)
    if first is None:
        raise DataError(path, 0, "no word vectors found")
    try:
        # the first record is parsed twice, so that row 0, the unknown
        # entry, is part of the one table loadtxt allocates
        table = np.loadtxt(
            itertools.chain((first, first), stream), comments=None, quotechar=None, ndmin=2
        )
    except DataError:
        raise  # a record without values, raised by `blocks` with its line
    except ValueError as exc:
        raise _locate_bad_vector(path) from exc
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


def _locate_bad_vector(path: str) -> DataError:
    """The error for the first record of `path` whose values the bulk parse
    rejects, found by reading the file again and parsing one record at a time."""
    dim = None
    for lineno, line in records(path):
        fields = line.split(None, 1)[1]
        try:
            np.loadtxt([fields], comments=None, quotechar=None)
        except ValueError as exc:
            return DataError(path, lineno, f"bad vector entry: {exc}")
        count = len(fields.split())
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
