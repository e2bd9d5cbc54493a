import numpy as np
import pytest

from eventemb.sentiment import SentimentHead, softmax
from eventemb.trainer import Negatives, TrainingConfig, joint_loss
from conftest import coded, make_model, make_store, random_event
from gradcheck import grad_check
from oracles import snapshot_grads, softmax_scalar, zero_grads


def make_head(seed=0, k=4):
    store = make_store(SentimentHead.layout(k), np.random.default_rng(seed))
    head = SentimentHead(store)
    return head, store


class TestForward:
    def test_zero_parameters_give_uniform(self):
        head, store = make_head()
        store.params["sentiment.w"][...] = 0.0
        assert np.array_equal(head.forward(np.ones((2, 4))), [[0.5, 0.5], [0.5, 0.5]])

    def test_saturated_logits(self):
        head, _ = make_head(k=2)
        head.w[...] = 0.0
        head.b[...] = [20.0, -20.0]
        (probs,) = head.forward(np.zeros((1, 2)))
        assert abs(probs[0] - 1.0) < 1e-8
        assert abs(probs[1]) < 1e-8

    def test_matches_scalar_oracle(self):
        head, _ = make_head(seed=2, k=4)
        rng = np.random.default_rng(5)
        v = rng.standard_normal(4)
        logits = head.w @ v + head.b
        expected = softmax_scalar(list(logits))
        assert head.forward(v[None])[0] == pytest.approx(expected, abs=1e-14)

    def test_probabilities_sum_to_one(self):
        head, _ = make_head(seed=3, k=4)
        rng = np.random.default_rng(6)
        probs = head.forward(rng.standard_normal((50, 4)) * 10)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-12)

    def test_softmax_shift_invariance(self):
        logits = np.array([1.0, 3.0])
        assert softmax(logits) == pytest.approx(softmax(logits + 1000.0), abs=1e-12)


def row_loss(head, v_e, polarity):
    """The cross-entropy loss of one row, from the batched loss_backward."""
    return float(head.loss_backward(v_e[None], [polarity])[0][0])


class TestLoss:
    def test_saturated_correct_class_loses_nothing(self):
        head, _ = make_head(k=2)
        head.w[...] = 0.0
        head.b[...] = [-30.0, 30.0]
        assert row_loss(head, np.zeros(2), 1) < 1e-12

    def test_uniform_gives_ln2(self):
        head, _ = make_head(k=3)
        head.w[...] = 0.0
        head.b[...] = 0.0
        assert row_loss(head, np.zeros(3), 1) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_point_one_gives_ln_ten(self):
        head, _ = make_head(k=2)
        head.w[...] = 0.0
        head.b[...] = [np.log(0.9), np.log(0.1)]
        assert row_loss(head, np.zeros(2), 1) == pytest.approx(-np.log(0.1), abs=1e-12)
        # polarity -1 is class 0, the negative one
        head.b[...] = [np.log(0.1), np.log(0.9)]
        assert row_loss(head, np.zeros(2), -1) == pytest.approx(-np.log(0.1), abs=1e-12)

    def test_loss_nonnegative(self):
        head, _ = make_head(seed=4, k=4)
        rng = np.random.default_rng(7)
        losses, _ = head.loss_backward(rng.standard_normal((100, 4)), [1, -1] * 50)
        assert np.all(losses >= 0.0)


class TestSentimentGradients:
    @pytest.mark.parametrize("seed", range(5))
    def test_head_gradients(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 6))
        head, store = make_head(seed=seed, k=k)
        # three rows with mixed classes; the scalar is the weighted sum
        v = rng.standard_normal((3, k))
        polarities = [1, -1, 1] if seed % 2 else [-1, -1, 1]
        params = dict(store.params) | {"v": v}

        def fn():
            zero_grads(store)
            losses, dv = head.loss_backward(v, polarities, 0.5)
            grads = snapshot_grads(store)
            grads["v"] = dv
            return 0.5 * float(losses.sum()), grads

        assert grad_check(fn, params) < 1e-4

    def test_through_composer_end_to_end(self):
        model, vocab, rng = make_model(seed=10, d=6, k=4, n=2)
        example = coded(vocab, random_event(vocab, rng), polarity=-1)
        cfg = TrainingConfig(alpha=0.0, beta=0.0, gamma=1.0, d=6, k=4, n=2)
        negatives = Negatives(None, None)

        def fn():
            zero_grads(model.store)
            parts = joint_loss(model, [example], [negatives], cfg)
            return parts.total, snapshot_grads(model.store)

        def value_only():
            return joint_loss(model, [example], [negatives], cfg).total

        assert grad_check(fn, model.store.params, value_fn=value_only) < 1e-4
