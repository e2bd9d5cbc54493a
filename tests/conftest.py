import os
from pathlib import Path

import numpy as np
import pytest

from eventemb.composer import code_events
from eventemb.data import EventTuple, Vocabulary
from eventemb.model import JointModel, layout
from eventemb.params import ParameterStore, initial_flat
from eventemb.trainer import CodedExample

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"
SYNTHETIC_DIR = REPO_ROOT / "data" / "synthetic"

WORDS = [
    "alice", "bob", "carol", "dave", "threw", "caught", "built", "ball",
    "bomb", "house", "cake", "to", "have", "fun", "run", "fast",
]


def make_model(seed=0, n_words=12, d=6, k=4, n=2, scale=1.0):
    """Small joint model over a fixed word list with random embeddings."""
    rng = np.random.default_rng(seed)
    vocab = Vocabulary().extended(WORDS[:n_words])
    table = rng.uniform(-scale, scale, (len(vocab), d))
    model = JointModel(vocab, d, k, n, table, initial_flat(layout(d, k, n), rng))
    return model, vocab, rng


def make_store(component_layout, rng, table=None):
    """A store of `table` (a 1 x 1 zero table if none is given) and of the
    arrays of `component_layout`, drawn from `rng` as a new model draws them."""
    table = np.zeros((1, 1)) if table is None else table
    return ParameterStore(component_layout, initial_flat(component_layout, rng), table)


def random_event(vocab, rng, max_words=2):
    words = vocab.words[1:]
    pick = lambda: [words[int(rng.integers(len(words)))] for _ in range(int(rng.integers(1, max_words + 1)))]
    return EventTuple(tuple(pick()), tuple(pick()), tuple(pick()))


def word_ids(vocab, words):
    """Words as the vocabulary ids that the intent encoder and negative
    sampling take."""
    return tuple(vocab.index(w) for w in words)


def coded(vocab, event, intent=None, polarity=None):
    """A training example as `joint_loss` takes it: the event's ids and sizes,
    the intent's ids and the polarity."""
    intent_ids = None if intent is None else word_ids(vocab, intent)
    return CodedExample(*code_events(vocab, [event]), intent_ids, polarity)


def decode(vocab, ids):
    """The words of a sequence of vocabulary ids."""
    words = vocab.words
    return tuple(words[i] for i in ids)


@pytest.fixture
def synthetic_dir():
    assert SYNTHETIC_DIR.is_dir(), "bundled synthetic dataset missing"
    return SYNTHETIC_DIR


@pytest.fixture(autouse=True)
def no_child_process_left_behind():
    """Fail any test that leaves a child process behind, running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left behind ({f'pid {pid}' if pid else 'still running'})")
