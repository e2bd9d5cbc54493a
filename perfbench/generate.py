"""Deterministic input generator for the `paper` and `glove` workloads.

    python3 perfbench/generate.py --workload paper --seed 3 --out DIR

writes every file the workload feeds to eventemb into DIR, plus
`manifest.json` with the sha256 of each file. The same workload and seed
always give the same bytes. Nothing here imports eventemb: the program only
ever sees the generated files.

The vocabulary has a cluster structure so that the evaluation sets have a
right answer. Each of `groups` topics owns `group_words` content words whose
vectors are the topic centroid plus small noise; the remaining rows are
filler words that no event uses, as most rows of a pretrained table are for
any one corpus. Events of a topic draw 1-2 words per argument from the
topic's actor, predicate and object pools, and intents of 3-8 tokens from
its intent pool plus shared function words.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

D = 100
CENTROID_SCALE = 0.35
WORD_NOISE = 0.12
FUNCTION_WORDS = ("to", "be", "get", "make", "a", "the", "some", "more")

# Sizes per workload. `rows` counts the lines of the vectors file.
SHAPES = {
    "paper": dict(
        rows=2_000, groups=40, group_words=40, corpus=64, annotations=64,
        nn_events=2_000, hardsim=200, transitive=150, lexicon=160,
        epochs=4, preset="ntn+int+senti",
    ),
    "glove": dict(
        rows=100_000, groups=40, group_words=40, corpus=96, annotations=32,
        nn_events=300, hardsim=100, transitive=80, lexicon=160,
        epochs=4, preset="ntn",
    ),
}

# Share of annotations whose emotion words sum to zero polarity, which
# leaves them out of the sentiment loss.
ZERO_POLARITY_SHARE = 0.15


def _event_text(actor, predicate, obj) -> str:
    return "|".join(" ".join(arg) for arg in (actor, predicate, obj))


class _Topics:
    """Word pools of each topic and the events drawn from them."""

    def __init__(self, words: list[str], shape: dict, rng: np.random.Generator) -> None:
        self.rng = rng
        per = shape["group_words"]
        quarter = per // 4
        self.pools = []
        for g in range(shape["groups"]):
            own = words[g * per : (g + 1) * per]
            self.pools.append(
                {
                    "actor": own[:quarter],
                    "predicate": own[quarter : 2 * quarter],
                    "object": own[2 * quarter : 3 * quarter],
                    "intent": own[3 * quarter :],
                }
            )

    def argument(self, group: int, role: str, exclude=()) -> tuple[str, ...]:
        pool = [w for w in self.pools[group][role] if w not in exclude]
        size = 1 + int(self.rng.random() < 0.3)
        picks = self.rng.choice(len(pool), size=size, replace=False)
        return tuple(pool[int(i)] for i in picks)

    def event(self, group: int, exclude=()) -> tuple:
        roles = ("actor", "predicate", "object")
        return tuple(self.argument(group, role, exclude) for role in roles)

    def intent(self, group: int, length: int) -> str:
        pool = list(self.pools[group]["intent"]) + list(FUNCTION_WORDS)
        return " ".join(pool[int(i)] for i in self.rng.integers(0, len(pool), size=length))


def _distinct_events(topics: _Topics, count: int, groups: int, seen: set) -> list[str]:
    events = []
    while len(events) < count:
        text = _event_text(*topics.event(int(topics.rng.integers(groups))))
        if text not in seen:
            seen.add(text)
            events.append(text)
    return events


def _pair_disjoint(topics: _Topics, group: int) -> tuple[str, str]:
    first = topics.event(group)
    used = {w for arg in first for w in arg}
    return _event_text(*first), _event_text(*topics.event(group, exclude=used))


def _pair_overlapping(topics: _Topics, groups: int) -> tuple[str, str]:
    """Same actor and predicate, objects from two different topics."""
    g1, g2 = topics.rng.choice(groups, size=2, replace=False)
    actor, predicate, obj = topics.event(int(g1))
    other = topics.argument(int(g2), "object")
    return _event_text(actor, predicate, obj), _event_text(actor, predicate, other)


def _write_vectors(path: str, words: list[str], table: np.ndarray) -> None:
    line = "%s" + " %.5f" * table.shape[1] + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(words), 4096):
            block = table[start : start + 4096].tolist()
            fh.write("".join(line % (w, *row) for w, row in zip(words[start:], block)))


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{line}\n" for line in lines)


def generate(workload: str, seed: int, out: str) -> dict:
    """Write the workload's inputs into `out`; return the manifest."""
    shape = SHAPES[workload]
    rng = np.random.default_rng([seed, len(workload), sum(map(ord, workload))])
    groups = shape["groups"]
    content = groups * shape["group_words"]
    n_lex = shape["lexicon"]
    rows = shape["rows"]
    if content + n_lex + len(FUNCTION_WORDS) > rows:
        raise ValueError(f"{workload}: {rows} rows cannot hold the content words")

    words = [f"w{i:06d}" for i in range(rows)]
    order = rng.permutation(rows - len(FUNCTION_WORDS))
    content_words = [words[i] for i in order[:content]]
    lexicon_words = [words[i] for i in order[content : content + n_lex]]
    words[rows - len(FUNCTION_WORDS) :] = FUNCTION_WORDS

    table = rng.normal(0.0, CENTROID_SCALE, size=(rows, D))
    index = {w: i for i, w in enumerate(words)}
    centroids = rng.normal(0.0, CENTROID_SCALE, size=(groups, D))
    for g in range(groups):
        own = content_words[g * shape["group_words"] : (g + 1) * shape["group_words"]]
        idx = [index[w] for w in own]
        table[idx] = centroids[g] + rng.normal(0.0, WORD_NOISE, size=(len(idx), D))

    topics = _Topics(content_words, shape, rng)
    positive, negative = lexicon_words[: n_lex // 2], lexicon_words[n_lex // 2 :]
    group_sign = rng.choice((-1, 1), size=groups)

    corpus_groups = rng.integers(groups, size=shape["corpus"])
    corpus, seen = [], set()
    for g in corpus_groups:
        text = _event_text(*topics.event(int(g)))
        while text in seen:
            text = _event_text(*topics.event(int(g)))
        seen.add(text)
        corpus.append(text)
    # one intent of each length 3..8 per topic, used in turn, so the
    # intent-token count (LSTM work) is the same for every seed
    lengths = range(3, 9)
    intents = [[topics.intent(g, n) for n in lengths] for g in range(groups)]

    annotations = []
    for i in range(shape["annotations"]):
        j = i % len(corpus)
        g = int(corpus_groups[j])
        intent = intents[g][i % len(lengths)]
        if rng.random() < ZERO_POLARITY_SHARE:
            emotions = [str(rng.choice(positive)), str(rng.choice(negative))]
        else:
            side = positive if group_sign[g] > 0 else negative
            emotions = [str(w) for w in rng.choice(side, size=int(rng.integers(1, 4)))]
        annotations.append(f"{corpus[j]}\t{intent}\t{','.join(emotions)}")

    nn_events = _distinct_events(topics, shape["nn_events"], groups, set())
    queries = [nn_events[int(i)] for i in rng.choice(len(nn_events), size=8, replace=False)]

    hardsim = []
    for _ in range(shape["hardsim"]):
        similar = _pair_disjoint(topics, int(rng.integers(groups)))
        hardsim.append("\t".join(similar + _pair_overlapping(topics, groups)))

    # gold scores follow what the vectors can tell apart: same topic above
    # shared actor and predicate above unrelated topics
    transitive = []
    for i in range(shape["transitive"]):
        kind = i % 3
        if kind == 0:
            pair, gold = _pair_disjoint(topics, int(rng.integers(groups))), 6.0
        elif kind == 1:
            pair, gold = _pair_overlapping(topics, groups), 3.5
        else:
            g1, g2 = rng.choice(groups, size=2, replace=False)
            pair = (_event_text(*topics.event(int(g1))), _event_text(*topics.event(int(g2))))
            gold = 1.5
        gold += float(rng.uniform(-0.4, 0.4))
        transitive.append(f"{pair[0]}\t{pair[1]}\t{gold:.2f}")

    files = {
        "vectors.txt": lambda p: _write_vectors(p, words, table),
        "corpus.txt": lambda p: _write_lines(p, corpus),
        "annotations.txt": lambda p: _write_lines(p, annotations),
        "lexicon.tsv": lambda p: _write_lines(
            p, [f"{w}\t+1" for w in positive] + [f"{w}\t-1" for w in negative]
        ),
        "config.txt": lambda p: _write_lines(
            p,
            [
                f"d = {D}", f"k = {D}", "n = 10", "batch_size = 128",
                f"epochs = {shape['epochs']}", "learning_rate = 0.001",
                "lambda_l2 = 0.0001", f"seed = {seed}", "corruption_target = actor",
            ],
        ),
        "nn_corpus.txt": lambda p: _write_lines(p, nn_events),
        "hardsim.txt": lambda p: _write_lines(p, hardsim),
        "transitive.txt": lambda p: _write_lines(p, transitive),
    }
    sha256 = {}
    for name, write in files.items():
        path = os.path.join(out, name)
        write(path)
        sha256[name] = file_sha256(path)
    manifest = {"workload": workload, "seed": seed, "preset": shape["preset"],
                "queries": queries, "sha256": sha256}
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return manifest


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, help="existing empty directory")
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
