import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventemb.data import EventTuple, HardSimInstance, TransitiveSimInstance
from eventemb.evaluate import (
    average_ranks,
    evaluate_transitive,
    format_report,
    hard_similarity_accuracy,
    spearman_rho,
)
from eventemb.ops import cosine
from oracles import counting_ranks, hard_sim_by_counting, spearman_bruteforce
from oracles import cosine as scalar_cosine


def ev(tag):
    return EventTuple((tag,), ("does",), ("thing",))


def table_embedder(mapping):
    """An embed function over a list of events: one row per event, by actor."""
    return lambda events: np.array([mapping[e.actor[0]] for e in events], dtype=np.float64)


class TestCosine:
    """Row-block cosine on one-row blocks."""

    def test_self_similarity(self):
        v = np.array([[3.0, 4.0]])
        assert cosine(v, v) == pytest.approx([1.0], abs=1e-9)

    def test_orthogonal(self):
        assert np.array_equal(cosine(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])), [0.0])

    def test_opposite(self):
        # the epsilon guard in the denominator costs ~1e-8 on unit vectors
        assert cosine(np.array([[1.0, 0.0]]), np.array([[-1.0, 0.0]])) == pytest.approx(
            [-1.0], abs=1e-7
        )

    def test_zero_vector_rule(self):
        assert np.array_equal(cosine(np.zeros((1, 2)), np.array([[1.0, 2.0]])), [0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            cosine(np.zeros((1, 2)), np.zeros((1, 3)))
        with pytest.raises(ValueError, match="shape mismatch"):
            cosine(np.zeros(2), np.zeros(2))


class TestHardSimilarity:
    def test_single_correct_instance(self):
        embed = table_embedder({
            "a": [1.0, 0.0], "b": [0.9, 0.1], "c": [1.0, 0.0], "d": [0.0, 1.0],
        })
        inst = HardSimInstance((ev("a"), ev("b")), (ev("c"), ev("d")))
        assert hard_similarity_accuracy([inst], embed) == 1.0

    def test_exact_tie_counts_as_failure(self):
        embed = table_embedder({"a": [1.0, 0.0], "b": [1.0, 0.0]})
        inst = HardSimInstance((ev("a"), ev("b")), (ev("a"), ev("b")))
        assert hard_similarity_accuracy([inst], embed) == 0.0

    def test_three_of_four(self):
        embed = table_embedder({
            "x": [1.0, 0.0], "y": [0.8, 0.6], "z": [0.0, 1.0], "w": [-1.0, 0.0],
        })
        good = HardSimInstance((ev("x"), ev("x")), (ev("x"), ev("z")))
        bad = HardSimInstance((ev("x"), ev("w")), (ev("x"), ev("y")))
        assert hard_similarity_accuracy([good, good, good, bad], embed) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty instance list"):
            hard_similarity_accuracy([], lambda events: np.zeros((len(events), 2)))

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        vectors = {f"t{i}": rng.standard_normal(4) for i in range(12)}
        instances = [
            HardSimInstance(
                (ev(f"t{4 * i}"), ev(f"t{4 * i + 1}")),
                (ev(f"t{4 * i + 2}"), ev(f"t{4 * i + 3}")),
            )
            for i in range(3)
        ]
        base = hard_similarity_accuracy(instances, table_embedder(vectors))
        scaled = {k: 37.0 * v for k, v in vectors.items()}
        assert hard_similarity_accuracy(instances, table_embedder(scaled)) == base

    def test_matches_counting_oracle_on_random_miniatures(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            count = int(rng.integers(1, 8))
            vectors = {f"t{i}": rng.standard_normal(3) for i in range(4 * count)}
            embed = table_embedder(vectors)
            instances = []
            sims, dissims = [], []
            for i in range(count):
                a, b, c, d = (ev(f"t{4 * i + j}") for j in range(4))
                instances.append(HardSimInstance((a, b), (c, d)))
                sims.append(scalar_cosine(*embed([a, b])))
                dissims.append(scalar_cosine(*embed([c, d])))
            expected = hard_sim_by_counting(sims, dissims)
            assert hard_similarity_accuracy(instances, embed) == expected


class TestSpearman:
    def test_identical_ranking(self):
        assert spearman_rho([1.0, 2.0, 3.0, 4.0], [10.0, 20.0, 30.0, 40.0]) == 1.0

    def test_reversed_ranking(self):
        assert spearman_rho([1.0, 2.0, 3.0], [5.0, 4.0, 3.0]) == -1.0

    def test_matches_bruteforce_with_ties(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            size = int(rng.integers(3, 16))
            # quantized draws produce plenty of ties
            pred = np.round(rng.standard_normal(size), 1)
            gold = np.round(rng.standard_normal(size), 1)
            if np.unique(pred).size < 2 or np.unique(gold).size < 2:
                continue
            assert spearman_rho(pred, gold) == pytest.approx(
                spearman_bruteforce(pred, gold), abs=1e-12
            )

    def test_constant_vector_rejected(self):
        with pytest.raises(ValueError, match="constant input"):
            spearman_rho([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_short_input_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            spearman_rho([1.0, 2.0], [2.0, 1.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            spearman_rho([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(6)
        pred = rng.standard_normal(15)
        gold = rng.standard_normal(15)
        base = spearman_rho(pred, gold)
        assert spearman_rho(np.exp(pred), gold) == pytest.approx(base, abs=1e-12)
        assert spearman_rho(3.0 * pred + 7.0, gold) == pytest.approx(base, abs=1e-12)

    def test_average_ranks_with_ties(self):
        assert average_ranks([10.0, 20.0, 20.0, 30.0]) == pytest.approx(
            [1.0, 2.5, 2.5, 4.0]
        )

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0]) | st.floats(
        allow_nan=False, allow_infinity=False
    ), max_size=40))
    def test_average_ranks_equal_counting_oracle(self, values):
        # few distinct values force ties, and -0.0 ties with 0.0
        assert np.array_equal(average_ranks(values), counting_ranks(values))


class TestTransitive:
    def instances(self, tags_scores):
        return [
            TransitiveSimInstance((ev(a), ev(b)), gold) for (a, b), gold in tags_scores
        ]

    def test_identical_embeddings_are_degenerate(self):
        instances = self.instances(
            [(("a", "b"), 1.0), (("c", "d"), 4.0), (("e", "f"), 7.0)]
        )
        with pytest.raises(ValueError, match="constant input"):
            evaluate_transitive(instances, lambda events: np.ones((len(events), 2)))

    def test_gold_aligned_model_scores_one(self):
        vectors = {
            "a": [1.0, 0.0], "b": [1.0, 0.0],      # cosine 1.0, gold 7
            "c": [1.0, 0.0], "d": [1.0, 1.0],      # cosine ~0.707, gold 4
            "e": [1.0, 0.0], "f": [0.0, 1.0],      # cosine 0.0, gold 1
        }
        instances = self.instances(
            [(("a", "b"), 7.0), (("c", "d"), 4.0), (("e", "f"), 1.0)]
        )
        assert evaluate_transitive(instances, table_embedder(vectors)) == 1.0

    def test_five_instances_match_oracle(self):
        rng = np.random.default_rng(7)
        vectors = {f"t{i}": rng.standard_normal(3) for i in range(10)}
        embed = table_embedder(vectors)
        golds = [1.0, 2.5, 4.0, 5.5, 7.0]
        instances = self.instances(
            [((f"t{2 * i}", f"t{2 * i + 1}"), golds[i]) for i in range(5)]
        )
        pred = [scalar_cosine(*embed(list(inst.pair))) for inst in instances]
        assert evaluate_transitive(instances, embed) == pytest.approx(
            spearman_bruteforce(pred, golds), abs=1e-12
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty instance list"):
            evaluate_transitive([], lambda events: np.zeros((len(events), 2)))


class TestReport:
    def test_format(self):
        line = format_report("hard_similarity_accuracy", "data/h.txt", 0.9375, 16)
        assert line == "hard_similarity_accuracy\tdata/h.txt\t0.937500\t16"
