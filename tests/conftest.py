from pathlib import Path

import numpy as np
import pytest

from eventemb.data import EventTuple, Vocabulary
from eventemb.model import JointModel, layout
from eventemb.params import TABLE, ParameterStore, initial_arrays

REPO_ROOT = Path(__file__).resolve().parent.parent
SYNTHETIC_DIR = REPO_ROOT / "data" / "synthetic"

WORDS = [
    "alice", "bob", "carol", "dave", "threw", "caught", "built", "ball",
    "bomb", "house", "cake", "to", "have", "fun", "run", "fast",
]


def make_model(seed=0, n_words=12, d=6, k=4, n=2, scale=1.0):
    """Small joint model over a fixed word list with random embeddings."""
    rng = np.random.default_rng(seed)
    vocab = Vocabulary(WORDS[:n_words])
    table = rng.uniform(-scale, scale, (len(vocab), d))
    model = JointModel(vocab, d, k, n, {TABLE: table, **initial_arrays(layout(d, k, n), rng)})
    return model, vocab, rng


def make_store(component_layout, rng, **extra):
    """A store of the `extra` arrays (such as the table), then of the arrays of
    `component_layout`, drawn from `rng` as a new model draws them."""
    return ParameterStore({**extra, **initial_arrays(component_layout, rng)})


def random_event(vocab, rng, max_words=2):
    words = vocab.words[1:]
    pick = lambda: [words[int(rng.integers(len(words)))] for _ in range(int(rng.integers(1, max_words + 1)))]
    return EventTuple(tuple(pick()), tuple(pick()), tuple(pick()))


@pytest.fixture
def synthetic_dir():
    assert SYNTHETIC_DIR.is_dir(), "bundled synthetic dataset missing"
    return SYNTHETIC_DIR
