import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventemb.data import Vocabulary
from eventemb.intent import (
    BiLstmEncoder, intent_hinge, lstm_step, lstm_step_backward,
)
from eventemb.params import initial_flat
from eventemb.trainer import TrainingConfig, joint_loss
from conftest import WORDS, coded, make_model, make_store, random_event, word_ids
from gradcheck import grad_check, random_projection
from oracles import (
    dense_table_grad, intent_loss, per_direction_encode, per_direction_encode_backward,
    record_table_grad, scalar_lstm_step, snapshot_grads, zero_grads,
)


def make_encoder(seed=0, d=4, h=3, n_words=8, scale=1.0):
    rng = np.random.default_rng(seed)
    vocab = Vocabulary().extended(WORDS[:n_words])
    table = rng.uniform(-scale, scale, (len(vocab), d))
    store = make_store(BiLstmEncoder.layout(d, h), rng, table)
    encoder = BiLstmEncoder(store)
    return encoder, vocab, store, rng


def encode_words(encoder, vocab, words):
    """The intent vector of one sentence given as words."""
    return encoder.encode([word_ids(vocab, words)])[0][0]


def zero_cell(d=2, h=3):
    """One direction's all-zero weight (4h, d+h) and bias (4h,)."""
    return np.zeros((4 * h, d + h)), np.zeros(4 * h)


class TestLstmStep:
    def test_all_zero_gives_zero_hidden(self):
        w, b = zero_cell()
        h, c, _ = lstm_step(w, b, np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 3)))
        assert np.array_equal(h, np.zeros((2, 3)))
        assert np.array_equal(c, np.zeros((2, 3)))

    def test_saturated_gates_carry_cell_state(self):
        w, b = zero_cell(d=2, h=2)
        b[2:4] = 20.0  # forget gate open
        b[0:2] = -20.0  # input gate shut
        c_prev = np.array([[1.0, 1.0], [-0.5, 2.0]])
        _, c, _ = lstm_step(w, b, np.zeros((2, 2)), np.zeros((2, 2)), c_prev)
        assert np.all(np.abs(c - c_prev) < 1e-6)

    def test_saturated_output_gate_exposes_or_hides_cell_state(self):
        w, b = zero_cell(d=2, h=2)
        b[0:2] = -20.0  # input gate shut
        b[2:4] = 20.0  # forget gate open
        b[6:8] = 20.0  # candidate saturated, so a wrong gate order shows
        c_prev = np.array([[0.5, -1.0], [2.0, 0.25]])
        b[4:6] = 20.0  # output gate open
        h, _, _ = lstm_step(w, b, np.zeros((2, 2)), np.zeros((2, 2)), c_prev)
        assert np.all(np.abs(h - np.tanh(c_prev)) < 1e-6)
        b[4:6] = -20.0  # output gate shut
        h, c, _ = lstm_step(w, b, np.zeros((2, 2)), np.zeros((2, 2)), c_prev)
        assert np.all(np.abs(h) < 1e-6)
        assert np.all(np.abs(c - c_prev) < 1e-6)

    def test_matches_scalar_oracle(self):
        # direction 0 of a new encoder's stacked arrays
        store = make_store(BiLstmEncoder.layout(2, 3), np.random.default_rng(3))
        w, b = store.params["lstm.w"][0], store.params["lstm.b"][0]
        rng = np.random.default_rng(30)
        x = rng.standard_normal((4, 2))
        h_prev = rng.standard_normal((4, 3))
        c_prev = rng.standard_normal((4, 3))
        h, c, _ = lstm_step(w, b, x, h_prev, c_prev)
        for row in range(4):
            h_ref, c_ref = scalar_lstm_step(x[row], h_prev[row], c_prev[row], w, b)
            assert h[row] == pytest.approx(h_ref, abs=1e-14)
            assert c[row] == pytest.approx(c_ref, abs=1e-14)

    def test_stacked_layout_draws_the_directions_one_after_the_other(self):
        # biases are zeros and draw nothing, so the stacked weight is the two
        # directions' (4h, d+h) draws in turn, and the generator ends where
        # those two draws leave it
        d, h = 5, 2
        rng, want = np.random.default_rng(9), np.random.default_rng(9)
        flat = initial_flat(BiLstmEncoder.layout(d, h), rng)
        r = 1.0 / np.sqrt(d + h)
        directions = [want.uniform(-r, r, (4 * h, d + h)) for _ in range(2)]
        assert list(BiLstmEncoder.layout(d, h)) == ["lstm.w", "lstm.b"]
        assert np.array_equal(flat[: 8 * h * (d + h)], np.stack(directions).reshape(-1))
        assert np.array_equal(flat[8 * h * (d + h) :], np.zeros(8 * h))
        assert rng.bit_generator.state == want.bit_generator.state


class TestEncodeIntent:
    def test_single_word_zero_weights(self):
        encoder, vocab, store, _ = make_encoder()
        for name, arr in store.params.items():
            if name != "embeddings":
                arr[...] = 0.0
        out = encode_words(encoder, vocab, ["alice"])
        assert np.array_equal(out, np.zeros(6))

    def test_empty_input_rejected(self):
        encoder, _, _, _ = make_encoder()
        with pytest.raises(ValueError, match="empty word list"):
            encoder.encode([()])

    def test_palindrome_with_tied_cells(self):
        encoder, vocab, _, _ = make_encoder(seed=5)
        encoder.w[1] = encoder.w[0]
        encoder.b[1] = encoder.b[0]
        out = encode_words(encoder, vocab, ["to", "have", "to"])
        assert np.array_equal(out[:3], out[3:])

    def test_reversal_swaps_direction_roles(self):
        enc_a, vocab, _, _ = make_encoder(seed=6)
        enc_b, _, _, _ = make_encoder(seed=6)
        # enc_b carries enc_a's weights with directions exchanged
        enc_b.w[...] = enc_a.w[::-1]
        enc_b.b[...] = enc_a.b[::-1]
        words = ["alice", "threw", "ball"]
        reversed_out = encode_words(enc_a, vocab, words[::-1])
        swapped_out = encode_words(enc_b, vocab, words)
        assert np.array_equal(reversed_out[:3], swapped_out[3:])
        assert np.array_equal(reversed_out[3:], swapped_out[:3])

    def test_empty_sentence_anywhere_in_a_batch_rejected(self):
        encoder, _, _, _ = make_encoder()
        for batch in ([[], [1]], [[1], [2, 3], []], [[1], [], [3]]):
            with pytest.raises(ValueError, match="empty word list"):
                encoder.encode(batch)

    def test_no_sentences_give_no_rows(self):
        encoder, _, store, _ = make_encoder(h=3)
        vectors, cache = encoder.encode([])
        assert vectors.shape == (0, 6)
        encoder.encode_backward(vectors, cache)
        assert not dense_table_grad(store).any()

    def test_batch_matches_scalar_chains_in_input_order(self):
        encoder, vocab, _, _ = make_encoder(seed=8, d=4, h=3, n_words=16)
        words = vocab.words[1:]
        rng = np.random.default_rng(80)
        sentences = [
            [words[int(i)] for i in rng.integers(len(words), size=length)]
            for length in (3, 1, 8, 2, 3, 5, 1, 4, 6, 7, 2, 8)
        ]
        sentences.insert(5, sentences[2])  # a repeated sentence
        sentences.append(["to", "zebra", "fun"])  # "zebra" is out of vocabulary
        vectors, _ = encoder.encode([word_ids(vocab, sentence) for sentence in sentences])
        assert vectors.shape == (len(sentences), 6)
        for row, sentence in enumerate(sentences):
            ids = [vocab.index(w) for w in sentence]
            halves = []
            for r, order in enumerate((ids, ids[::-1])):
                h, c = np.zeros(3), np.zeros(3)
                for i in order:
                    h, c = scalar_lstm_step(encoder.embeddings[i], h, c, encoder.w[r], encoder.b[r])
                halves.append(h)
            assert vectors[row] == pytest.approx(np.concatenate(halves), abs=1e-12)

    def test_deterministic_and_length_covariant(self):
        encoder, vocab, _, _ = make_encoder(seed=7)
        full = encode_words(encoder, vocab, ["to", "have", "fun"])
        again = encode_words(encoder, vocab, ["to", "have", "fun"])
        prefix = encode_words(encoder, vocab, ["to", "have"])
        assert np.array_equal(full, again)
        assert not np.array_equal(full, prefix)


class TestStackedDirections:
    """The encoder steps both directions as one stack; the oracle steps each
    on its own, as one (B, d+h) GEMM per direction and step."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 3),
        # ids into an 11-entry vocabulary: words repeat within and across sentences
        st.lists(st.lists(st.integers(0, 10), min_size=1, max_size=6), min_size=1, max_size=12),
        st.integers(0, 2**32 - 1),
    )
    def test_vectors_and_gradients_bit_equal_the_per_direction_oracle(self, d, h, ids, seed):
        runs = []
        for encode, backward in (
            (BiLstmEncoder.encode, BiLstmEncoder.encode_backward),
            (per_direction_encode, per_direction_encode_backward),
        ):
            encoder, _, store, rng = make_encoder(seed=seed, d=d, h=h, n_words=10)
            # gradients already hold values, as after an earlier backward
            for g in store.grads.values():
                g[...] = rng.standard_normal(g.shape)
            record_table_grad(store, rng.standard_normal(store.params["embeddings"].shape))
            vectors, cache = encode(encoder, ids)
            backward(encoder, rng.standard_normal(vectors.shape), cache)
            runs.append((vectors, snapshot_grads(store)))
        (vectors, grads), (want_vectors, want_grads) = runs
        assert np.array_equal(vectors, want_vectors)
        assert grads.keys() == want_grads.keys()
        for name, g in grads.items():
            assert np.array_equal(g, want_grads[name]), name


def hinge(v_e, v_i, v_in):
    """The production intent hinge on one-row blocks, checked bit for bit
    against the oracle."""
    loss = intent_hinge(v_e[None], v_i[None], v_in[None])[0]
    assert loss.shape == (1,)
    assert loss[0] == intent_loss(v_e, v_i, v_in)
    return loss[0]


class TestIntentLoss:
    def test_perfect_separation(self):
        v_e = np.array([1.0, 0.0])
        assert hinge(v_e, np.array([2.0, 0.0]), np.array([-3.0, 0.0])) == 0.0

    def test_identical_negative_gives_exactly_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            v_e = rng.standard_normal(4)
            v_i = rng.standard_normal(4)
            assert hinge(v_e, v_i, v_i) == 1.0

    def test_hand_arithmetic(self):
        v_e = np.array([1.0, 0.0])
        v_i = np.array([0.2, np.sqrt(1 - 0.04)])
        v_in = np.array([0.5, np.sqrt(1 - 0.25)])
        assert hinge(v_e, v_i, v_in) == pytest.approx(1.3, abs=1e-7)

    def test_bounded_in_zero_three(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            loss = hinge(
                rng.standard_normal(5), rng.standard_normal(5), rng.standard_normal(5)
            )
            assert 0.0 <= loss <= 3.0

    def test_scale_invariance_of_event_vector(self):
        rng = np.random.default_rng(3)
        v_e = rng.standard_normal(6)
        v_i = rng.standard_normal(6)
        v_in = rng.standard_normal(6)
        base = hinge(v_e, v_i, v_in)
        for scale in (0.01, 0.5, 3.0, 1000.0):
            assert hinge(scale * v_e, v_i, v_in) == pytest.approx(base, abs=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_vector_gradients(self, seed):
        rng = np.random.default_rng(seed)
        v_e = rng.standard_normal(5)[None]
        v_i = rng.standard_normal(5)[None]
        v_in = rng.standard_normal(5)[None]
        params = {"v_e": v_e, "v_i": v_i, "v_in": v_in}

        def fn():
            loss, d_e, d_i, d_in = intent_hinge(v_e, v_i, v_in)
            return float(loss.sum()), {"v_e": d_e, "v_i": d_i, "v_in": d_in}

        assert grad_check(fn, params) < 1e-4

    def test_rows_match_oracle(self):
        rng = np.random.default_rng(8)
        v_e, v_i, v_in = rng.standard_normal((3, 40, 6))
        v_in[:10] = v_i[:10]
        v_e[10:15] = 0.0
        losses = intent_hinge(v_e, v_i, v_in)[0]
        assert np.array_equal(losses[:10], np.ones(10))
        for r in range(40):
            assert losses[r] == intent_loss(v_e[r], v_i[r], v_in[r])

    def test_block_gradients_with_inactive_and_zero_rows(self):
        # row 0 active, row 1 inactive (loss -1 before the clamp), row 2 an
        # all-zero event row: active at loss 1 with zero gradients
        rng = np.random.default_rng(11)
        v_e = np.vstack((rng.standard_normal(4), [1.0, 0.0, 0.0, 0.0], np.zeros(4)))
        v_i = np.vstack((rng.standard_normal(4), [2.0, 0.0, 0.0, 0.0], rng.standard_normal(4)))
        v_in = np.vstack((v_e[0] + 0.1 * rng.standard_normal(4), [-1.0, 0.0, 0.0, 0.0],
                          rng.standard_normal(4)))
        losses, d_e, d_i, d_in = intent_hinge(v_e, v_i, v_in)
        assert losses[0] > 0.0 and losses[1] == 0.0 and losses[2] == 1.0
        assert not np.any(d_e[1:]) and not np.any(d_i[1:]) and not np.any(d_in[1:])
        # the cosine has no derivative at a zero vector, so the zero event row
        # is held out of the finite differences on v_e
        params = {"v_e": v_e[:2], "v_i": v_i, "v_in": v_in}

        def fn():
            loss, d_e, d_i, d_in = intent_hinge(v_e, v_i, v_in)
            return float(loss.sum()), {"v_e": d_e[:2], "v_i": d_i, "v_in": d_in}

        assert grad_check(fn, params) < 1e-4


class TestLstmStepGradients:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_small_instances(self, seed):
        # scalarize (h, c) of three rows per direction through fixed random
        # projections; both directions step as one stack, as the encoder runs them
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        h = int(rng.integers(1, 5))
        rows = 3
        store = make_store(BiLstmEncoder.layout(d, h), rng)
        w, b = store.params["lstm.w"], store.params["lstm.b"]
        x = rng.standard_normal((2, rows, d))
        h_prev = rng.standard_normal((2, rows, h))
        c_prev = rng.standard_normal((2, rows, h))
        proj_h = random_projection(2 * rows * h, rng).reshape(2, rows, h)
        proj_c = random_projection(2 * rows * h, rng).reshape(2, rows, h)
        params = {"lstm.w": w, "lstm.b": b, "x": x, "h_prev": h_prev, "c_prev": c_prev}

        def fn():
            h_out, c_out, gates = lstm_step(w, b, x, h_prev, c_prev)
            dx, dh_prev, dc_prev, dw, db = lstm_step_backward(
                w, proj_h, proj_c, x, h_prev, c_prev, gates, c_out
            )
            grads = {"lstm.w": dw, "lstm.b": db, "x": dx, "h_prev": dh_prev, "c_prev": dc_prev}
            return float(np.sum(proj_h * h_out) + np.sum(proj_c * c_out)), grads

        assert grad_check(fn, params) < 1e-4


class TestIntentGradientsEndToEnd:
    @pytest.mark.parametrize("seed", (11, 12, 13))
    def test_through_encoder_and_composer(self, seed):
        # h=3 (k=6), d=4, sequence length 3; beta-only joint loss exercises
        # the full path: LSTM weights, word vectors and the upstream composer
        model, vocab, rng = make_model(seed=seed, n_words=12, d=4, k=6, n=2)
        example = coded(vocab, random_event(vocab, rng), intent=("to", "have", "fun"))
        negative_intent = word_ids(vocab, ("run", "fast", "bob"))
        cfg = TrainingConfig(alpha=0.0, beta=1.0, gamma=0.0, d=4, k=6, n=2)

        def fn():
            zero_grads(model.store)
            parts = joint_loss(model, [example], [], [negative_intent], cfg)
            return parts.total, snapshot_grads(model.store)

        def value_only():
            return joint_loss(model, [example], [], [negative_intent], cfg).total

        assert grad_check(fn, model.store.params, value_fn=value_only) < 1e-4
