import numpy as np
import pytest

from eventemb.composer import EventComposer, LowRankLayer, code_events, corrupt_event
from eventemb.data import EventTuple, Vocabulary
from eventemb.model import EMBED_BLOCK
from eventemb.trainer import Negatives, TrainingConfig, joint_loss
from conftest import WORDS, coded, decode, make_model, make_store, random_event
from gradcheck import grad_check, random_projection
from oracles import (
    average_argument,
    bilinear_lowrank,
    dense_compose,
    dense_slice_matrix,
    dense_table_grad,
    layer_slice,
    snapshot_grads,
    zero_grads,
)


def make_composer(seed=0, d=4, k=3, n=2, n_words=8, scale=1.0):
    rng = np.random.default_rng(seed)
    vocab = Vocabulary(WORDS[:n_words])
    table = rng.uniform(-scale, scale, (len(vocab), d))
    store = make_store(EventComposer.layout(d, k, n), rng, table)
    composer = EventComposer(store)
    return composer, vocab, store, rng


def event_loss(model, vocab, event, corrupted, lambda_l2):
    """The event margin loss of two events with equal argument sizes:
    joint_loss under the `ntn` weights (1, 0, 0).

    Gradients accumulate into the model's store, as for every joint_loss call.
    """
    config = TrainingConfig(lambda_l2=lambda_l2).with_preset("ntn")
    negatives = Negatives(coded(vocab, corrupted).ids)
    return joint_loss(model, [coded(vocab, event)], [negatives], config).total


def corrupt(vocab, event, rng, target="actor"):
    """`corrupt_event` on one event's words: the corrupted event's words."""
    ids, sizes = code_events(vocab, [event])
    words = decode(vocab, corrupt_event(ids, sizes, len(vocab), rng, target))
    split = np.cumsum(sizes)
    return EventTuple(words[: split[0]], words[split[0] : split[1]], words[split[1] :])


def zero_params(store):
    for arr in store.params.values():
        arr[...] = 0.0


EVENT = EventTuple(("alice",), ("threw",), ("ball",))


def embed_one(composer, vocab, event):
    """One event's embedding: the one-row case of the batched composer."""
    return composer.embed(*code_events(vocab, [event]))[0][0]


def score(composer, vocab, events):
    """Plausibility scores as joint_loss computes them: C @ u over one call."""
    return composer.embed(*code_events(vocab, events))[0] @ composer.u


class TestComposePair:
    def test_zero_params_give_zero_vector(self):
        composer, _, store, _ = make_composer()
        zero_params(store)
        out = composer.layer1.forward(np.ones((2, 4)), np.ones((2, 4)))[0]
        assert np.array_equal(out, np.zeros((2, 3)))

    def test_hand_computed_single_slice(self):
        composer, _, store, _ = make_composer(d=2, k=1, n=1)
        layer = composer.layer1
        layer.left[...] = [[2.0], [0.0]]
        layer.right[...] = [[1.0, 3.0]]
        layer.diag[...] = [0.5, -1.0]
        layer.w[...] = [[0.1, 0.2, 0.3, 0.4]]
        layer.b[...] = [-0.5]
        x = np.array([[1.0, 2.0]])
        y = np.array([[3.0, -1.0]])
        # bilinear: x' ([[2.5, 6], [0, -1]]) y = 3.5; affine: 1.0; bias -0.5
        assert layer.forward(x, y)[0][0] == pytest.approx([np.tanh(4.0)], abs=1e-15)

    def test_outputs_in_open_unit_interval(self):
        composer, _, _, rng = make_composer(seed=3)
        x, y = rng.standard_normal((2, 5, 4))
        out = composer.layer1.forward(x, y)[0]
        assert np.all(out > -1.0) and np.all(out < 1.0)

    def test_rank_bound_enforced(self):
        with pytest.raises(ValueError, match="rank n=5"):
            make_model(d=4, k=6, n=5)


class TestDenseEquivalence:
    def test_factored_layer_matches_dense_oracle(self):
        # left = M, right = I, diag = 0 reconstructs any dense slice
        rng = np.random.default_rng(21)
        for _ in range(10):
            d = int(rng.integers(2, 9))
            k = int(rng.integers(1, 5))
            layer = LowRankLayer(make_store(LowRankLayer.layout("layer", d, k, d), rng), "layer")
            mats = rng.standard_normal((k, d, d))
            layer.left[...] = mats
            layer.right[...] = np.broadcast_to(np.eye(d), (k, d, d))
            layer.diag[...] = 0.0
            x = rng.standard_normal(d)
            y = rng.standard_normal(d)
            expected = dense_compose(x, y, mats, layer.w, layer.b)
            assert layer.forward(x[None], y[None])[0][0] == pytest.approx(expected, abs=1e-12)


class TestEmbedEvent:
    def test_zero_model_embeds_to_zero(self):
        composer, vocab, store, _ = make_composer()
        zero_params(store)
        assert np.array_equal(embed_one(composer, vocab, EVENT), np.zeros(3))

    def test_deterministic(self):
        composer, vocab, _, _ = make_composer(seed=5)
        a = embed_one(composer, vocab, EVENT)
        b = embed_one(composer, vocab, EVENT)
        assert np.array_equal(a, b)

    def test_matches_chained_ops(self):
        composer, vocab, _, _ = make_composer(seed=7, d=4, k=3, n=2)
        event = EventTuple(("alice", "bob"), ("threw",), ("ball", "bomb"))
        table = composer.embeddings
        a = average_argument(event.actor, table, vocab)[None]
        p = average_argument(event.predicate, table, vocab)[None]
        o = average_argument(event.object, table, vocab)[None]
        s1 = composer.layer1.forward(a, p)[0]
        s2 = composer.layer2.forward(p, o)[0]
        expected = composer.layer3.forward(s1, s2)[0][0]
        assert np.array_equal(embed_one(composer, vocab, event), expected)

    def test_layer_bilinear_matches_per_slice_op(self):
        # the vectorized layer and the single-slice oracle agree slice by slice
        composer, _, _, rng = make_composer(seed=13, d=5, k=4, n=2)
        layer = composer.layer1
        x = rng.standard_normal(5)
        y = rng.standard_normal(5)
        out = layer.forward(x[None], y[None])[0][0]
        per_slice = np.array(
            [bilinear_lowrank(x, y, layer_slice(layer, i)) for i in range(4)]
        )
        affine = layer.w @ np.concatenate((x, y)) + layer.b
        assert out == pytest.approx(np.tanh(per_slice + affine), abs=1e-14)

    def test_permutation_sensitivity(self):
        # swapping actor and object must move the embedding
        for seed in range(5):
            composer, vocab, _, rng = make_composer(seed=seed, d=6, k=4, n=2)
            event = random_event(vocab, rng)
            swapped = EventTuple(event.object, event.predicate, event.actor)
            delta = embed_one(composer, vocab, event) - embed_one(composer, vocab, swapped)
            assert np.linalg.norm(delta) >= 1e-3


class TestEmbedEvents:
    def test_blocks_match_row_by_row_in_input_order(self):
        # 2 full blocks and a partial third: two block boundaries
        model, vocab, rng = make_model(seed=31)
        events = [random_event(vocab, rng) for _ in range(2 * EMBED_BLOCK + 45)]
        batched = model.embed_events(events)
        assert batched.shape == (len(events), model.k)
        rows = np.array([model.embed_event(e) for e in events])
        assert np.max(np.abs(batched - rows)) < 1e-12

    def test_no_events_give_no_rows_without_composing(self, monkeypatch):
        model, _, _ = make_model()

        def refuse(ids, sizes):
            raise AssertionError("composer.embed called with no events")

        monkeypatch.setattr(model.composer, "embed", refuse)
        assert model.embed_events([]).shape == (0, model.k)


class TestScoreEvent:
    def test_zero_head_scores_zero(self):
        composer, vocab, _, _ = make_composer(seed=2)
        composer.u[...] = 0.0
        assert score(composer, vocab, [EVENT])[0] == 0.0

    def test_one_hot_head_picks_coordinate(self):
        composer, vocab, _, _ = make_composer(seed=2, k=3)
        c = embed_one(composer, vocab, EVENT)
        for j in range(3):
            composer.u[...] = 0.0
            composer.u[j] = 1.0
            assert score(composer, vocab, [EVENT])[0] == pytest.approx(c[j], abs=1e-15)

    def test_matches_dot_product(self):
        composer, vocab, _, _ = make_composer(seed=4)
        c = embed_one(composer, vocab, EVENT)
        assert score(composer, vocab, [EVENT])[0] == pytest.approx(float(composer.u @ c), abs=1e-15)


class TestCorruptEvent:
    # ids of the vocabulary ["a", "b", "p", "o"]: a=1, b=2, p=3, o=4
    def test_redraw_rule_and_untouched_arguments(self):
        rng = np.random.default_rng(0)
        ids, sizes = np.array([1, 3, 4]), np.array([1, 1, 1])
        for _ in range(200):
            corrupted = corrupt_event(ids, sizes, 5, rng)
            assert corrupted[0] in {2, 3, 4}
            assert corrupted[1:].tolist() == [3, 4]
        assert ids.tolist() == [1, 3, 4]

    def test_multiword_arguments(self):
        # "a b | p | o a": only the words of the target argument are replaced,
        # each one redrawn against the id at its own position
        rng = np.random.default_rng(3)
        ids, sizes = np.array([1, 2, 3, 4, 1]), np.array([2, 1, 2])
        for target, span in (("actor", slice(0, 2)), ("object", slice(3, 5))):
            for _ in range(100):
                corrupted = corrupt_event(ids, sizes, 5, rng, target)
                assert np.all(corrupted[span] != ids[span])
                assert np.all((corrupted[span] >= 1) & (corrupted[span] <= 4))
                rest = np.ones(5, dtype=bool)
                rest[span] = False
                assert np.array_equal(corrupted[rest], ids[rest])

    def test_object_target(self):
        rng = np.random.default_rng(0)
        corrupted = corrupt_event(np.array([1, 3, 4]), np.array([1, 1, 1]), 5, rng, "object")
        assert corrupted[:2].tolist() == [1, 3]
        assert corrupted[2] != 4

    def test_same_draws_as_the_word_rule(self):
        # ids are equal exactly when words are, and the unknown id 0 is never
        # drawn: the rule on ids takes the same draws as the rule on words did
        vocab = Vocabulary(WORDS)
        words_rng, ids_rng = np.random.default_rng(12), np.random.default_rng(12)
        for _ in range(100):
            event = random_event(vocab, words_rng)
            ids_rng.bit_generator.state = words_rng.bit_generator.state
            replaced = []
            for word in event.actor:
                while True:
                    candidate = vocab.words[int(words_rng.integers(1, len(vocab)))]
                    if candidate != word:
                        break
                replaced.append(candidate)
            ids, sizes = code_events(vocab, [event])
            corrupted = corrupt_event(ids, sizes, len(vocab), ids_rng)
            assert decode(vocab, corrupted) == tuple(replaced) + event.predicate + event.object
            assert ids_rng.bit_generator.state == words_rng.bit_generator.state

    def test_replacement_frequencies_near_uniform(self):
        # ids 1..10 are w0..w9, an 11-entry vocabulary with the unknown entry
        rng = np.random.default_rng(99)
        ids, sizes = np.array([1, 2, 3]), np.array([1, 1, 1])
        counts = {i: 0 for i in range(2, 11)}
        draws = 10000
        for _ in range(draws):
            counts[int(corrupt_event(ids, sizes, 11, rng)[0])] += 1
        p = 1.0 / 9.0
        sigma = np.sqrt(draws * p * (1 - p))
        for i, count in counts.items():
            assert abs(count - draws * p) <= 3 * sigma, (i, count)


class TestMarginLoss:
    def corrupted(self):
        return EventTuple(("bob",), ("threw",), ("ball",))

    def test_zero_model_sits_exactly_on_margin(self):
        model, vocab, _ = make_model()
        zero_params(model.store)
        assert event_loss(model, vocab, EVENT, self.corrupted(), 0.0) == 1.0

    def test_satisfied_margin_gives_zero(self):
        # pick U with g(E) = 2.0 and g(E_r) = 0.5 via a 2x2 Gram solve
        model, vocab, _ = make_model(seed=6, k=4)
        composer = model.composer
        c_e = embed_one(composer, vocab, EVENT)
        c_r = embed_one(composer, vocab, self.corrupted())
        gram = np.array([[c_e @ c_e, c_e @ c_r], [c_r @ c_e, c_r @ c_r]])
        coeffs = np.linalg.solve(gram, np.array([2.0, 0.5]))
        composer.u[...] = coeffs[0] * c_e + coeffs[1] * c_r
        scores = score(composer, vocab, [EVENT, self.corrupted()])
        assert scores == pytest.approx([2.0, 0.5], abs=1e-9)
        assert event_loss(model, vocab, EVENT, self.corrupted(), 0.0) == 0.0

    def test_regularizer_counts_all_ones_matrix(self):
        model, vocab, _ = make_model(d=1, k=2, n=1)
        composer = model.composer
        zero_params(model.store)
        composer.layer1.w[...] = 1.0  # 2 x 2 matrix of ones
        assert composer.regularization(0.0001) == pytest.approx(0.0004, abs=1e-18)
        loss = event_loss(model, vocab, EVENT, self.corrupted(), 0.0001)
        assert loss == pytest.approx(1.0004, abs=1e-15)

    def test_loss_never_below_regularizer(self):
        for seed in range(5):
            model, vocab, rng = make_model(seed=seed)
            composer = model.composer
            e = random_event(vocab, rng)
            e_r = corrupt(vocab, e, rng)
            lam = 0.0001
            loss = event_loss(model, vocab, e, e_r, lam)
            reg = composer.regularization(lam)
            assert loss >= reg
            hinge_zero = loss - reg == 0.0
            g_e, g_r = score(composer, vocab, [e, e_r])
            satisfied = g_e >= g_r + 1.0
            assert hinge_zero == satisfied

    def test_margin_excludes_embeddings_and_u_from_regularizer(self):
        composer, _, store, _ = make_composer()
        zero_params(store)
        composer.u[...] = 3.0
        composer.embeddings[...] = 2.0
        assert composer.regularization(1.0) == 0.0


class TestComposerGradients:
    def params_subset(self, store):
        return dict(store.params)

    @pytest.mark.parametrize("seed", (8, 18, 28, 38, 48))
    def test_margin_loss_end_to_end(self, seed):
        model, vocab, rng = make_model(seed=seed, d=6, k=4, n=2)
        event = random_event(vocab, rng)
        corrupted = corrupt(vocab, event, rng)
        lam = 0.001
        params = {
            name: arr
            for name, arr in model.store.params.items()
            if name.startswith(("embeddings", "layer", "u"))
        }

        def fn():
            zero_grads(model.store)
            loss = event_loss(model, vocab, event, corrupted, lam)
            return loss, snapshot_grads(model.store)

        error = grad_check(
            fn, params, value_fn=lambda: event_loss(model, vocab, event, corrupted, lam)
        )
        assert error < 1e-4

    def test_inactive_hinge_leaves_only_regularizer_gradient(self):
        model, vocab, rng = make_model(seed=9, d=6, k=4, n=2)
        composer = model.composer
        event = random_event(vocab, rng)
        corrupted = corrupt(vocab, event, rng)
        c_e = embed_one(composer, vocab, event)
        c_r = embed_one(composer, vocab, corrupted)
        diff = c_e - c_r
        composer.u[...] = 2.0 * diff / (diff @ diff)  # g(E) - g(E_r) = 2 > 1
        lam = 0.01
        loss = event_loss(model, vocab, event, corrupted, lam)
        assert loss == composer.regularization(lam)

        zero_grads(model.store)
        event_loss(model, vocab, event, corrupted, lam)
        assert np.array_equal(model.store.grads["u"], np.zeros(4))
        assert np.array_equal(
            dense_table_grad(model.store), np.zeros_like(composer.embeddings)
        )
        assert np.allclose(
            model.store.grads["layer1.w"], 2 * lam * composer.layer1.w, atol=1e-15
        )

        params = {
            name: arr
            for name, arr in model.store.params.items()
            if name.startswith(("embeddings", "layer", "u"))
        }

        def fn():
            zero_grads(model.store)
            loss = event_loss(model, vocab, event, corrupted, lam)
            return loss, snapshot_grads(model.store)

        assert grad_check(fn, params) < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_layer_forward_gradients_random_instances(self, seed):
        # scalarize the (3, k) output of three rows through a fixed random
        # projection; parameter gradients are sums over the rows
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 9))
        k = int(rng.integers(1, 6))
        n = int(rng.integers(1, min(d, 3) + 1))
        store = make_store(LowRankLayer.layout("layer", d, k, n), rng)
        layer = LowRankLayer(store, "layer")
        x = rng.standard_normal((3, d))
        y = rng.standard_normal((3, d))
        proj = random_projection(3 * k, rng).reshape(3, k)
        params = dict(store.params) | {"x": x, "y": y}

        def fn():
            zero_grads(store)
            out, cache = layer.forward(x, y)
            dx, dy = layer.backward(proj, cache)
            grads = snapshot_grads(store)
            grads["x"] = dx
            grads["y"] = dy
            return float(np.sum(proj * out)), grads

        assert grad_check(fn, params) < 1e-4
