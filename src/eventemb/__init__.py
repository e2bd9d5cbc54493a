"""Commonsense-supervised event embeddings: low-rank tensor composition of
(actor, predicate, object) tuples, jointly trained with intent and sentiment
objectives, plus similarity-evaluation protocols."""

from .data import (
    AnnotatedExample,
    EventTuple,
    HardSimInstance,
    TransitiveSimInstance,
    load_annotations,
    load_corpus,
    load_hardsim,
    load_lexicon,
    load_transitive,
    load_word_vectors,
)
from .evaluate import evaluate_transitive, hard_similarity_accuracy
from .model import JointModel
from .trainer import PRESETS, TrainingConfig, train

__version__ = "0.1.0"

__all__ = [
    "AnnotatedExample",
    "EventTuple",
    "HardSimInstance",
    "JointModel",
    "PRESETS",
    "TrainingConfig",
    "TransitiveSimInstance",
    "evaluate_transitive",
    "hard_similarity_accuracy",
    "load_annotations",
    "load_corpus",
    "load_hardsim",
    "load_lexicon",
    "load_transitive",
    "load_word_vectors",
    "train",
]
