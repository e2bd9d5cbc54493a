"""Deterministic desk-scale dataset for tests, demos and the acceptance suite.

Twelve event groups form six "trap" families: the two groups of a family
share surface words (e.g. "person_x threw bomb" / "person_x threw ball")
but have different intents and opposite sentiment, while events inside a
group share intent and sentiment yet no words. Random word vectors carry no
semantic signal, so the margin objective alone cannot untangle the traps;
the intent and sentiment annotations can. Fillers pad the corpus to ~60
events.

Regenerate the committed copy with:  python tests/synthetic.py data/synthetic
"""

from __future__ import annotations

import os
import sys

import numpy as np

VECTOR_DIM = 10
VECTOR_SEED = 7161

# (events "a|p|o", intent, emotion words); first event of each group is the
# trap event that lexically collides with the partner group's trap event.
GROUPS: list[tuple[list[str], str, list[str]]] = [
    (
        ["person_x|threw|bomb", "soldier|attacked|embassy", "rebel|bombed|convoy"],
        "to cause bloodshed",
        ["angry", "hateful"],
    ),
    (
        ["person_x|threw|ball", "child|kicked|football", "boy|tossed|frisbee"],
        "to enjoy playtime",
        ["happy", "joyful"],
    ),
    (
        ["person_y|broke|record", "athlete|won|medal", "runner|smashed|milestone"],
        "to win glory",
        ["proud", "delighted"],
    ),
    (
        ["person_y|broke|vase", "toddler|dropped|plate", "cat|shattered|glass"],
        "acted with clumsiness",
        ["sad", "regretful"],
    ),
    (
        ["chef|cooked|pasta", "cook|prepared|dinner", "grandma|baked|bread"],
        "to feed guests",
        ["satisfied", "pleased"],
    ),
    (
        ["chef|cooked|books", "clerk|forged|ledger", "banker|faked|figures"],
        "to hide losses",
        ["guilty", "anxious"],
    ),
    (
        ["man|passed|exam", "student|cleared|test", "pupil|aced|quiz"],
        "to earn diploma",
        ["relieved", "glad"],
    ),
    (
        ["man|passed|car", "driver|overtook|truck", "rider|outpaced|van"],
        "to beat traffic",
        ["impatient", "annoyed"],
    ),
    (
        ["she|carried|team", "captain|led|squad", "star|saved|match"],
        "to claim trophy",
        ["excited", "confident"],
    ),
    (
        ["she|carried|bread", "porter|hauled|sack", "maid|lifted|basket"],
        "to finish errands",
        ["tired", "weary"],
    ),
    (
        ["he|grind|corn", "miller|milled|wheat", "baker|crushed|grain"],
        "to make flour",
        ["content", "cheerful"],
    ),
    (
        ["he|grind|teeth", "sleeper|clenched|jaw", "patient|gnashed|molars"],
        "to vent frustration",
        ["stressed", "nervous"],
    ),
]

FILLER_EVENTS = [
    "farmer|planted|seeds",
    "nurse|helped|patients",
    "dog|chased|squirrel",
    "teacher|graded|essays",
    "pilot|flew|plane",
    "singer|recorded|album",
    "mayor|opened|bridge",
    "crowd|watched|parade",
    "scientist|mixed|chemicals",
    "waiter|served|coffee",
    "painter|primed|canvas",
    "librarian|sorted|novels",
    "plumber|fixed|pipe",
    "gardener|watered|roses",
    "barber|trimmed|beard",
    "judge|reviewed|case",
    "tailor|stitched|jacket",
    "monkey|climbed|tree",
    "tourist|photographed|castle",
    "vendor|sold|newspapers",
    "carpenter|sanded|door",
    "skier|descended|slope",
    "author|revised|draft",
    "coach|planned|drills",
]

POSITIVE_WORDS = [
    "happy", "joyful", "proud", "delighted", "satisfied", "pleased", "relieved",
    "glad", "excited", "confident", "content", "cheerful", "eager", "calm",
    "hopeful", "grateful", "amused", "merry", "upbeat", "blissful",
]
NEGATIVE_WORDS = [
    "angry", "hateful", "sad", "regretful", "guilty", "anxious", "impatient",
    "annoyed", "tired", "weary", "stressed", "nervous", "sorry", "afraid",
    "gloomy", "miserable", "bitter", "ashamed", "fearful", "upset",
]

# (event1, event2, gold in [1, 7]) for the transitive-similarity demo set.
TRANSITIVE_PAIRS = [
    ("soldier|attacked|embassy", "rebel|bombed|convoy", 6.6),
    ("athlete|won|medal", "runner|smashed|milestone", 6.4),
    ("cook|prepared|dinner", "grandma|baked|bread", 6.2),
    ("student|cleared|test", "pupil|aced|quiz", 6.5),
    ("captain|led|squad", "star|saved|match", 6.1),
    ("miller|milled|wheat", "baker|crushed|grain", 6.3),
    ("person_x|threw|bomb", "person_x|threw|ball", 1.2),
    ("person_y|broke|record", "person_y|broke|vase", 1.4),
    ("chef|cooked|pasta", "chef|cooked|books", 1.3),
    ("man|passed|exam", "man|passed|car", 1.6),
    ("child|kicked|football", "pupil|aced|quiz", 3.6),
    ("clerk|forged|ledger", "sleeper|clenched|jaw", 3.2),
]

CONFIG_TEXT = """\
# Desk-scale configuration matched to the bundled synthetic dataset.
d = 10
k = 8
n = 2
epochs = 150
learning_rate = 0.05
batch_size = 10
lambda_l2 = 0.0001
seed = 7
corruption_target = actor
"""


def corpus_events() -> list[str]:
    return [e for events, _, _ in GROUPS for e in events] + FILLER_EVENTS


def annotation_lines() -> list[str]:
    lines = []
    for events, intent, emotions in GROUPS:
        for event in events:
            lines.append(f"{event}\t{intent}\t{','.join(emotions)}")
    return lines


def hardsim_lines() -> list[str]:
    """Four instances per trap family, mirrored across its two groups."""
    lines = []
    for gi in range(0, len(GROUPS), 2):
        a, b = GROUPS[gi][0], GROUPS[gi + 1][0]
        trap = f"{a[0]}\t{b[0]}"
        lines.append(f"{a[0]}\t{a[1]}\t{trap}")
        lines.append(f"{b[0]}\t{b[1]}\t{trap}")
        lines.append(f"{a[1]}\t{a[2]}\t{trap}")
        lines.append(f"{b[1]}\t{b[2]}\t{trap}")
    return lines


def vocabulary_words() -> list[str]:
    """Every token of every bundled file, in first-appearance order."""
    seen: dict[str, None] = {}
    for event in corpus_events():
        for part in event.split("|"):
            for token in part.split():
                seen.setdefault(token, None)
    for _, intent, emotions in GROUPS:
        for token in intent.split():
            seen.setdefault(token, None)
        for token in emotions:
            seen.setdefault(token, None)
    return list(seen)


def write_all(out_dir: str, seed: int = VECTOR_SEED) -> dict[str, str]:
    """Write every dataset file into `out_dir`; returns name -> path."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        name: os.path.join(out_dir, filename)
        for name, filename in (
            ("vectors", "vectors.txt"),
            ("corpus", "corpus.txt"),
            ("annotations", "annotations.txt"),
            ("lexicon", "lexicon.tsv"),
            ("hardsim", "hardsim.txt"),
            ("transitive", "transitive.txt"),
            ("config", "config.txt"),
        )
    }

    rng = np.random.default_rng(seed)
    with open(paths["vectors"], "w", encoding="utf-8") as fh:
        for word in vocabulary_words():
            row = rng.uniform(-0.5, 0.5, VECTOR_DIM)
            fh.write(word + " " + " ".join(f"{x:.17g}" for x in row) + "\n")

    with open(paths["corpus"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(corpus_events()) + "\n")

    with open(paths["annotations"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(annotation_lines()) + "\n")

    with open(paths["lexicon"], "w", encoding="utf-8") as fh:
        for word in POSITIVE_WORDS:
            fh.write(f"{word}\t+1\n")
        for word in NEGATIVE_WORDS:
            fh.write(f"{word}\t-1\n")

    with open(paths["hardsim"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(hardsim_lines()) + "\n")

    with open(paths["transitive"], "w", encoding="utf-8") as fh:
        for e1, e2, gold in TRANSITIVE_PAIRS:
            fh.write(f"{e1}\t{e2}\t{gold:g}\n")

    with open(paths["config"], "w", encoding="utf-8") as fh:
        fh.write(CONFIG_TEXT)
    return paths


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python tests/synthetic.py OUT_DIR", file=sys.stderr)
        return 2
    paths = write_all(args[0])
    for name in sorted(paths):
        print(f"wrote {paths[name]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
