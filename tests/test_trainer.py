import dataclasses
import errno
import os
import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventemb import checkpoint, trainer
from eventemb.checkpoint import CRC_CHUNK, load_checkpoint
from eventemb.cli import main
from eventemb.composer import corrupt_event
from eventemb.data import (
    AnnotatedExample,
    EventTuple,
    Vocabulary,
    load_annotations,
    load_corpus,
    load_lexicon,
    load_word_vectors,
)
from eventemb.model import layout
from eventemb.params import ParameterStore
from eventemb.trainer import (
    ADAGRAD_EPS,
    EpochMetrics,
    LossParts,
    PRESETS,
    Run,
    TrainingConfig,
    adagrad_step,
    code_examples,
    joint_loss,
    sample_negative_intent,
    train,
)
from conftest import coded, make_model, random_event, word_ids
from oracles import (
    accum_slices, checkpoint_bytes, dense_adagrad_step, dense_table_accums, intent_loss,
    margin_objective, record_table_grad,
)


def tiny_config(**overrides):
    base = dict(d=6, k=4, n=2, epochs=2, learning_rate=0.05, batch_size=4, seed=3)
    base.update(overrides)
    return TrainingConfig(**base)


class TestConfig:
    def test_weight_range_enforced(self):
        with pytest.raises(ValueError, match="alpha=1.5"):
            TrainingConfig(alpha=1.5)
        with pytest.raises(ValueError, match="gamma=-0.1"):
            TrainingConfig(gamma=-0.1)

    def test_structural_constraints(self):
        with pytest.raises(ValueError, match="batch_size"):
            TrainingConfig(batch_size=0)
        with pytest.raises(ValueError, match="must be even"):
            TrainingConfig(k=5, n=2)
        with pytest.raises(ValueError, match="n=20"):
            TrainingConfig(d=10, k=30, n=20)
        with pytest.raises(ValueError, match="seed=-1 must be >= 0"):
            TrainingConfig(seed=-1)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="alpha, beta and gamma are all 0"):
            TrainingConfig(alpha=0.0, beta=0.0, gamma=0.0)
        TrainingConfig(alpha=0.0, beta=0.0, gamma=0.5)

    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError, match="^epochs=0 must be >= 1$"):
            TrainingConfig(epochs=0)

    @pytest.mark.parametrize("sizes", [dict(d=0), dict(k=0, n=1), dict(n=0)],
                             ids=["d", "k", "n"])
    def test_zero_size_rejected(self, sizes):
        with pytest.raises(ValueError, match="^d, k and n must all be >= 1$"):
            TrainingConfig(**sizes)

    @pytest.mark.parametrize("field", ("learning_rate", "lambda_l2"))
    @pytest.mark.parametrize("value", (float("nan"), float("inf")))
    def test_non_finite_rate_and_l2_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field}={value} must be finite"):
            dataclasses.replace(TrainingConfig(), **{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("d", 6.0), ("batch_size", 1.5), ("epochs", 2.5), ("seed", "x"), ("n", True),
         ("alpha", False), ("learning_rate", "0.1"), ("corruption_target", 1)],
    )
    def test_wrong_typed_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field}={value!r} is not of type"):
            dataclasses.replace(TrainingConfig(), **{field: value})

    def test_float_fields_take_ints(self):
        TrainingConfig(alpha=1, learning_rate=1, lambda_l2=0)

    @pytest.mark.parametrize("field", ("learning_rate", "lambda_l2", "alpha"))
    def test_int_too_large_for_a_float_rejected(self, field):
        # a Python int passes `v < inf`, but training would raise OverflowError
        with pytest.raises(ValueError, match=f"^{field} is an integer too large for a float$"):
            dataclasses.replace(TrainingConfig(), **{field: 10**400})
        assert type(TrainingConfig(learning_rate=2**1000).learning_rate) is int

    def test_corruption_target_must_be_actor_or_object(self, capsys, tmp_path):
        # the predicate is an event argument but never a corruption target
        message = "corruption_target='predicate' must be one of ('actor', 'object')"
        with pytest.raises(ValueError, match=re.escape(message)):
            TrainingConfig(corruption_target="predicate")
        config = tmp_path / "run.conf"
        config.write_text("corruption_target = predicate\n")
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("a|b|c\n")
        out = tmp_path / "run"
        argv = ["train", "--corpus", str(corpus), "--config", str(config), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_train_rejects_a_float_dimension(self):
        with pytest.raises(ValueError, match="d=6.0 is not of type int"):
            train(tiny_config(d=6.0), [EventTuple(("a",), ("b",), ("c",))])

    def test_presets_match_ablation_rows(self):
        assert PRESETS["ntn"] == (1.0, 0.0, 0.0)
        assert PRESETS["ntn+int"] == (1.0, 1.0, 0.0)
        assert PRESETS["ntn+senti"] == (1.0, 0.0, 1.0)
        assert PRESETS["ntn+int+senti"] == (1.0, 1.0, 1.0)
        config = TrainingConfig().with_preset("ntn+senti")
        assert (config.alpha, config.beta, config.gamma) == (1.0, 0.0, 1.0)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            TrainingConfig().with_preset("everything")

    def test_round_trip_dict(self):
        config = tiny_config()
        assert TrainingConfig.from_dict(config.to_dict()) == config

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            TrainingConfig.from_dict({"momentum": 0.9})

    def test_no_way_of_building_returns_an_invalid_config(self):
        with pytest.raises(ValueError, match="alpha=2.0"):
            TrainingConfig(alpha=2.0)
        with pytest.raises(ValueError, match="k=5 must be even"):
            dataclasses.replace(TrainingConfig(), k=5)
        with pytest.raises(ValueError, match="d=6.0 is not of type int"):
            TrainingConfig.from_dict({"d": 6.0})

    def test_fields_cannot_be_assigned(self):
        config = TrainingConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.alpha = 5.0
        assert config.alpha == 1.0


class TestJointLoss:
    def test_ntn_preset_is_bit_identical_to_margin_loss(self):
        model, vocab, rng = make_model(seed=14, d=6, k=4, n=2)
        cfg = tiny_config(alpha=1.0, beta=0.0, gamma=0.0, lambda_l2=0.0001)
        for _ in range(25):
            example = coded(vocab, random_event(vocab, rng), intent=("to", "run"), polarity=1)
            corrupted = corrupt_event(example.ids, example.sizes, len(vocab), rng)
            parts = joint_loss(model, [example], [corrupted], [], cfg)
            direct = margin_objective(model.composer, example, corrupted, cfg.lambda_l2)
            assert parts.total == direct
            assert (parts.n_event, parts.n_intent, parts.n_sentiment) == (1, 0, 0)

    def test_intent_only_without_annotation_is_an_error(self):
        # checked once per run, when the examples are coded
        _, vocab, rng = make_model(seed=15)
        cfg = tiny_config(alpha=0.0, beta=1.0, gamma=0.0)
        annotated = AnnotatedExample(random_event(vocab, rng), intent=("to", "run"))
        bare = AnnotatedExample(random_event(vocab, rng))
        code_examples([annotated], vocab, None, cfg)
        with pytest.raises(ValueError, match="no loss term"):
            code_examples([annotated, bare], vocab, None, cfg)
        with pytest.raises(ValueError, match="no loss term"):
            train(cfg, [bare.event], [annotated])

    def test_matches_sum_of_independent_heads(self):
        model, vocab, rng = make_model(seed=16, d=6, k=4, n=2)
        event = random_event(vocab, rng)
        example = coded(vocab, event, intent=("to", "have", "fun"), polarity=-1)
        corrupted = corrupt_event(example.ids, example.sizes, len(vocab), rng)
        negative_intent = word_ids(vocab, ("run", "fast"))
        cfg = tiny_config(alpha=1.0, beta=1.0, gamma=1.0, lambda_l2=0.001)

        l_event = margin_objective(model.composer, example, corrupted, cfg.lambda_l2)
        # the positive's row of the same two-row composer call joint_loss makes
        ids = np.concatenate((example.ids, corrupted))
        v_e = model.composer.embed(ids, np.tile(example.sizes, 2))[0][0]
        l_intent = intent_loss(
            v_e,
            model.intent.encode([example.intent])[0][0],
            model.intent.encode([negative_intent])[0][0],
        )
        l_sentiment = model.sentiment.loss_backward(v_e[None], [-1])[0][0]

        parts = joint_loss(model, [example], [corrupted], [negative_intent], cfg)
        assert parts.total == pytest.approx(l_event + l_intent + l_sentiment, abs=1e-12)
        assert parts.event == l_event
        assert parts.intent == l_intent
        assert parts.sentiment == l_sentiment
        assert (parts.n_event, parts.n_intent, parts.n_sentiment) == (1, 1, 1)


class TestLossParts:
    def test_sum_adds_field_by_field(self):
        total = LossParts(1.5, 0.5, 0.25, 0.75, 4, 2, 1) + LossParts(2.0, 1.0, 0.5, 0.5, 3, 1, 0)
        assert total == LossParts(3.5, 1.5, 0.75, 1.25, 7, 3, 1)
        assert [type(v) for v in dataclasses.astuple(total)] == [float] * 4 + [int] * 3
        assert LossParts() + total == total


class TestAdagrad:
    def test_first_step(self):
        store = ParameterStore({"theta": ((1,), 0.0)}, np.zeros(1), np.zeros((1, 1)))
        theta = store.params["theta"]
        store.grads["theta"][...] = 1.0
        adagrad_step(store, 0.1, 1.0)
        assert theta[0] == pytest.approx(-0.1 * 1.0 / (1.0 + 1e-8), abs=1e-15)
        assert accum_slices(store)["theta"][0] == 1.0
        assert store.grads["theta"][0] == 0.0  # zeroed after the step

    def test_returns_the_sorted_ids_of_the_table_rows_it_updated(self):
        store = ParameterStore({"theta": ((1,), 0.0)}, np.zeros(1), np.zeros((6, 2)))
        store.table_grads += [(np.array([4, 1, 4]), np.ones((3, 2))), (np.array([2]), np.ones((1, 2)))]
        assert adagrad_step(store, 0.1, 1.0).tolist() == [1, 2, 4]
        rows = adagrad_step(store, 0.1, 1.0)  # no table gradient recorded
        assert rows.dtype == np.int64 and rows.size == 0

    def test_zero_gradient_changes_nothing(self):
        store = ParameterStore({"theta": ((3,), 0.0)}, np.full(3, 2.5), np.zeros((1, 1)))
        theta = store.params["theta"]
        adagrad_step(store, 0.1, 1.0)
        assert np.array_equal(theta, np.full(3, 2.5))
        assert np.array_equal(accum_slices(store)["theta"], np.zeros(3))

    def test_two_step_hand_trace(self):
        # g=3 then g=4 at lr=1: steps 3/sqrt(9) and 4/sqrt(25), total -1.8
        store = ParameterStore({"theta": ((1,), 0.0)}, np.zeros(1), np.zeros((1, 1)))
        theta = store.params["theta"]
        store.grads["theta"][...] = 3.0
        adagrad_step(store, 1.0, 1.0)
        assert accum_slices(store)["theta"][0] == 9.0
        store.grads["theta"][...] = 4.0
        adagrad_step(store, 1.0, 1.0)
        assert accum_slices(store)["theta"][0] == 25.0
        assert abs(theta[0] - (-1.8)) < 1e-8  # exact up to the 1e-8 epsilon guard

    def test_nonfinite_gradient_names_parameter(self):
        store = ParameterStore({"layer1.w": ((2,), 0.0)}, np.zeros(2), np.zeros((1, 1)))
        store.grads["layer1.w"][0] = np.nan
        with pytest.raises(FloatingPointError, match="layer1.w"):
            adagrad_step(store, 0.1, 1.0)

    @staticmethod
    def table_store(rng):
        table = rng.standard_normal((50, 4))
        table[[3, 7], 1:3] = -0.0
        table[11, 0] = -0.0
        flat = np.concatenate((rng.standard_normal(6), [0.5, -0.0, 0.0]))
        return ParameterStore({"layer1.w": ((3, 2), 0.0), "u": ((3,), 0.0)}, flat, table)

    @staticmethod
    def assert_bit_equal(sparse, dense, dense_accums, step):
        def named(store):
            return {"params": store.params, "accums": accum_slices(store), "grads": store.grads}

        for arrays, got_arrays in named(sparse).items():
            for name, got in got_arrays.items():
                want = named(dense)[arrays][name]
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (
                    step, arrays, name
                )
        got = dense_table_accums(sparse)
        assert np.array_equal(got.view(np.uint64), dense_accums.view(np.uint64)), step
        assert not sparse.table_grads and not dense.table_grads

    def test_sparse_table_step_bit_equals_dense_oracle(self):
        rng = np.random.default_rng(3)
        sparse, dense = self.table_store(rng), self.table_store(np.random.default_rng(3))
        dense_accums = np.zeros((50, 4))
        for step in range(10):
            grads = {name: rng.standard_normal(g.shape) for name, g in sparse.grads.items()}
            grads["u"][1] = 0.0
            # untouched rows, and a new set of touched rows each step
            rows = np.setdiff1d(np.flatnonzero(rng.random(50) < 0.2), [3, 7, 11])
            cancel = rng.standard_normal(4)
            contributions = [
                (rows, rng.standard_normal((len(rows), 4))),
                # a touched row whose gradient sums to exactly zero
                (np.array([3, 3]), np.stack((cancel, -cancel))),
                # -0.0 parameters under a partly zero gradient
                (np.array([7]), np.array([[0.0, 0.0, 1.5, -2.0]])),
                # -0.0 once scaled: turns theta's -0.0 into +0.0
                (np.array([11]), np.array([[-5e-324, 0.0, 0.0, 0.0]])),
            ]
            for store in (sparse, dense):
                for name, g in grads.items():
                    store.grads[name][...] = g
                store.table_grads.extend(contributions)
            adagrad_step(sparse, 0.1, 1.0 / 3.0)
            dense_adagrad_step(dense, dense_accums, 0.1, 1.0 / 3.0, ADAGRAD_EPS)
            self.assert_bit_equal(sparse, dense, dense_accums, step)
        assert np.signbit(sparse.params["embeddings"][[3, 7], 1]).all()
        assert np.signbit(sparse.params["u"][1])
        assert not np.signbit(sparse.params["embeddings"][11, 0])

    def test_touched_row_summing_to_zero_keeps_a_negative_zero(self):
        sparse, dense = (self.table_store(np.random.default_rng(4)) for _ in range(2))
        dense_accums = np.zeros((50, 4))
        x = np.array([[0.75, -1.25, 3.0, 1e-300]])
        for store in (sparse, dense):
            store.table_grads += [(np.array([3]), x), (np.array([3]), -x)]
        adagrad_step(sparse, 0.1, 1.0 / 3.0)
        dense_adagrad_step(dense, dense_accums, 0.1, 1.0 / 3.0, ADAGRAD_EPS)
        self.assert_bit_equal(sparse, dense, dense_accums, 0)
        assert np.signbit(sparse.params["embeddings"][3, 1:3]).all()
        assert sparse.table_rows.tolist() == [3]
        assert np.array_equal(sparse.table_accums, np.zeros((1, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_table_gradient_names_embeddings(self, bad):
        store = self.table_store(np.random.default_rng(0))
        g = np.zeros((1, 4))
        g[0, 2] = bad
        store.table_grads.append((np.array([17]), g))
        with pytest.raises(FloatingPointError, match="'embeddings'"):
            adagrad_step(store, 0.1, 0.5)

    def test_flat_step_bit_equals_the_per_array_oracle(self):
        flat, per_array = make_model(seed=5)[0].store, make_model(seed=5)[0].store
        dense_accums = np.zeros(per_array.params["embeddings"].shape)
        rng = np.random.default_rng(6)
        for step in range(5):
            for name, g in flat.grads.items():
                g[...] = per_array.grads[name][...] = rng.standard_normal(g.shape)
            value = rng.standard_normal(dense_accums.shape)
            value[rng.random(len(value)) < 0.5] = 0.0
            for store in (flat, per_array):
                record_table_grad(store, value)
            adagrad_step(flat, 0.1, 0.25)
            dense_adagrad_step(per_array, dense_accums, 0.1, 0.25, ADAGRAD_EPS)
            self.assert_bit_equal(flat, per_array, dense_accums, step)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from(["composer", "intent", "cancel"]),
                    # ids into a 12-row table: rows repeat within a call, across
                    # calls and across steps, and many are first touched late
                    st.lists(st.integers(0, 11), min_size=1, max_size=8),
                ),
                max_size=4,
            ),
            min_size=1, max_size=5,
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_touched_rows_bit_equal_a_dense_oracle_over_steps(self, steps, seed):
        rng = np.random.default_rng(seed)
        table = rng.standard_normal((12, 3))
        table[rng.random(table.shape) < 0.2] = -0.0
        flat = rng.standard_normal(3)
        sparse, dense = (
            ParameterStore({"u": ((3,), 0.0)}, flat.copy(), table.copy()) for _ in range(2)
        )
        dense_accums = np.zeros(table.shape)
        for step, calls in enumerate(steps):
            contributions = []
            for kind, ids in calls:
                ids = np.array(ids)
                values = rng.standard_normal((len(ids), 3))
                if kind == "intent":
                    # both directions' tokens, direction-major, as the encoder records them
                    contributions.append(
                        (np.concatenate((ids, ids[::-1])), np.concatenate((values, values[::-1])))
                    )
                elif kind == "cancel":
                    contributions += [(ids, values), (ids, -values)]
                else:
                    contributions.append((ids, values))
            g = rng.standard_normal(3)
            for store in (sparse, dense):
                store.grads["u"][...] = g
                store.table_grads.extend(contributions)
            adagrad_step(sparse, 0.1, 0.5)
            dense_adagrad_step(dense, dense_accums, 0.1, 0.5, ADAGRAD_EPS)
            self.assert_bit_equal(sparse, dense, dense_accums, step)
            assert np.all(np.diff(sparse.table_rows) > 0)

    @pytest.mark.parametrize("name", ["layer1.left", "layer3.b", "u", "lstm.w", "sentiment.b"])
    def test_nonfinite_flat_gradient_names_its_array(self, name):
        store = make_model(seed=2)[0].store
        store.grads[name].reshape(-1)[-1] = np.inf
        with pytest.raises(FloatingPointError, match=f"'{name}'"):
            adagrad_step(store, 0.1, 1.0)

    def test_accumulators_never_decrease(self):
        store = ParameterStore({"theta": ((4,), 0.0)}, np.zeros(4), np.zeros((1, 1)))
        rng = np.random.default_rng(0)
        previous = accum_slices(store)["theta"].copy()
        for _ in range(10):
            store.grads["theta"][...] = rng.standard_normal(4)
            adagrad_step(store, 0.01, 1.0)
            assert np.all(accum_slices(store)["theta"] >= previous)
            previous = accum_slices(store)["theta"].copy()


def address(array):
    return array.__array_interface__["data"][0]


class TestFlatStore:
    def test_dense_arrays_are_views_of_the_flat_buffers_in_registration_order(self):
        store = make_model(d=6, k=4, n=2)[0].store
        names = list(store.params)
        assert names == ["embeddings", *layout(6, 4, 2)] and len(names) == 21
        for arrays, flat in (
            (store.params, store.flat_params),
            (store.grads, store.flat_grads),
            (accum_slices(store), store.flat_accums),
        ):
            offset = 0
            for name, (shape, _) in layout(6, 4, 2).items():
                assert arrays[name].shape == shape, name
                assert address(arrays[name]) == address(flat) + 8 * offset, name
                assert np.shares_memory(arrays[name], flat), name
                offset += arrays[name].size
            # the buffers hold nothing else, and the table lives outside them
            assert offset == flat.size
            assert not np.shares_memory(store.params["embeddings"], flat)
        # the table's gradient and accumulator are not dense arrays
        assert list(store.grads) == list(layout(6, 4, 2))

    def test_l2_slice_holds_exactly_the_fifteen_layer_arrays(self):
        composer = make_model(d=6, k=4, n=2)[0].composer
        layers = (composer.layer1, composer.layer2, composer.layer3)
        names = ("left", "right", "diag", "w", "b")
        for l2, prefix in ((composer.l2_params, ""), (composer.l2_grads, "g_")):
            arrays = [getattr(layer, prefix + name) for layer in layers for name in names]
            assert l2.size == sum(a.size for a in arrays)
            assert address(l2) == address(arrays[0])
            assert all(np.shares_memory(l2, a) for a in arrays)
            assert not np.shares_memory(l2, getattr(composer, prefix + "u"))
        values = [getattr(layer, name).reshape(-1) for layer in layers for name in names]
        assert np.array_equal(composer.l2_params, np.concatenate(values))


class TestNegativeSampling:
    # intents as id tuples: (5, 1) is "to win", (5, 2) "to rest"
    def test_resamples_on_textual_identity(self):
        pool = [(5, 1), (5, 2)]
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert sample_negative_intent(pool, (5, 1), rng) == (5, 2)

    def test_skewed_pool_draws_until_it_finds_the_one_distinct_intent(self):
        # `train` accepts a pool with two distinct intents, however skewed;
        # seed 0 takes more than 10,000 draws to reach the one "to rest"
        pool = [(5, 1)] * 20_000 + [(5, 2)]
        assert sample_negative_intent(pool, (5, 1), np.random.default_rng(0)) == (5, 2)


class TestResolvePolarities:
    """Coding an example resolves its polarity from its emotion words."""

    VOCAB = Vocabulary().extended(["a", "b", "c", "to", "win"])

    def test_polarity_derivation(self):
        lexicon = {"happy": 1, "sad": -1}
        event = EventTuple(("a",), ("b",), ("c",))
        examples = [
            AnnotatedExample(event, emotion_words=("happy",)),
            AnnotatedExample(event, emotion_words=("sad", "sad")),
            AnnotatedExample(event, emotion_words=("happy", "sad")),
            AnnotatedExample(event, intent=("to", "win")),
        ]
        resolved = code_examples(examples, self.VOCAB, lexicon, TrainingConfig())
        assert [ex.polarity for ex in resolved] == [1, -1, None, None]
        assert [ex.intent for ex in resolved] == [None, None, None, (4, 5)]
        assert all(ex.ids.tolist() == [1, 2, 3] for ex in resolved)

    def test_no_lexicon_means_no_polarity(self):
        event = EventTuple(("a",), ("b",), ("c",))
        (resolved,) = code_examples(
            [AnnotatedExample(event, emotion_words=("happy",))], self.VOCAB, None,
            TrainingConfig(),
        )
        assert resolved.polarity is None

    def test_annotations_of_zero_weight_terms_are_not_coded(self):
        event = EventTuple(("a",), ("b",), ("c",))
        example = AnnotatedExample(event, intent=("to", "win"), emotion_words=("happy",))
        (resolved,) = code_examples(
            [example], self.VOCAB, {"happy": 1}, TrainingConfig().with_preset("ntn")
        )
        assert resolved.intent is None and resolved.polarity is None

    def test_polarity_is_not_an_annotation_field(self):
        # a polarity comes only from emotion words and the lexicon
        with pytest.raises(TypeError):
            AnnotatedExample(EventTuple(("a",), ("b",), ("c",)), polarity=1)


def synthetic_inputs(synthetic_dir):
    return dict(
        corpus=load_corpus(str(synthetic_dir / "corpus.txt")),
        annotations=load_annotations(str(synthetic_dir / "annotations.txt")),
        word_vectors=load_word_vectors(str(synthetic_dir / "vectors.txt")),
        lexicon=load_lexicon(str(synthetic_dir / "lexicon.tsv")),
    )


class TestTrainLoop:
    def test_deterministic_runs(self, synthetic_dir, tmp_path):
        inputs = synthetic_inputs(synthetic_dir)
        cfg = TrainingConfig(d=10, k=8, n=2, epochs=3, learning_rate=0.05,
                             batch_size=10, seed=11)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        _, hist_a = train(cfg, out_dir=str(out_a), **inputs)
        _, hist_b = train(cfg, out_dir=str(out_b), **inputs)
        assert hist_a == hist_b
        assert (out_a / "final.ckpt").read_bytes() == (out_b / "final.ckpt").read_bytes()

    def test_each_visit_draws_its_corrupted_event_then_its_negative_intent(
        self, synthetic_dir, monkeypatch
    ):
        # both draws come from the run's one RNG, so their order fixes every
        # checkpoint byte; identities name the example, so no value is compared
        examples, draws = [], []

        def recording_code_examples(*args):
            examples.extend(code_examples(*args))
            return examples

        def recording_corrupt_event(ids, *args):
            draws.append(("event", ids))
            return corrupt_event(ids, *args)

        def recording_sample_negative_intent(pool, intent, rng):
            draws.append(("intent", intent))
            return sample_negative_intent(pool, intent, rng)

        monkeypatch.setattr(trainer, "code_examples", recording_code_examples)
        monkeypatch.setattr(trainer, "corrupt_event", recording_corrupt_event)
        monkeypatch.setattr(trainer, "sample_negative_intent", recording_sample_negative_intent)
        cfg = TrainingConfig(d=10, k=8, n=2, epochs=1, learning_rate=0.05, batch_size=10,
                             seed=7).with_preset("ntn+int+senti")
        train(cfg, **synthetic_inputs(synthetic_dir))

        assert {ex.intent is None for ex in examples} == {True, False}
        by_ids = {id(ex.ids): ex for ex in examples}
        visits = [by_ids[id(arg)] for kind, arg in draws if kind == "event"]
        assert sorted(map(id, visits)) == sorted(map(id, examples))
        expected = []
        for ex in visits:
            expected.append(("event", id(ex.ids)))
            if ex.intent is not None:
                expected.append(("intent", id(ex.intent)))
        assert [(kind, id(arg)) for kind, arg in draws] == expected

    def test_shared_word_vectors_are_not_trained_in_place(self, synthetic_dir, tmp_path):
        # every corpus word has a vector, so extend_embeddings adds no row;
        # the model must still train a copy of the caller's table
        vectors = load_word_vectors(str(synthetic_dir / "vectors.txt"))
        corpus = load_corpus(str(synthetic_dir / "corpus.txt"))
        assert all(word in vectors[0] for event in corpus for word in event.words())
        table = vectors[1].copy()
        cfg = TrainingConfig(d=10, k=8, n=2, epochs=2, learning_rate=0.05,
                             batch_size=10, seed=5).with_preset("ntn")
        for run in ("a", "b"):
            train(cfg, corpus, word_vectors=vectors, out_dir=str(tmp_path / run))
            assert np.array_equal(vectors[1], table)
        for name in ("epoch-0001.ckpt", "epoch-0002.ckpt", "final.ckpt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_margin_loss_decreases_on_separable_events(self):
        rng = np.random.default_rng(1)
        events = [
            EventTuple((f"s{i}",), (f"p{i}",), (f"o{i}",)) for i in range(10)
        ]
        cfg = TrainingConfig(alpha=1.0, beta=0.0, gamma=0.0, d=6, k=4, n=2,
                             epochs=50, learning_rate=0.1, batch_size=5, seed=2)
        _, history = train(cfg, events)
        assert history[-1].event < history[0].event

    def test_oversized_batch_clamps_to_one_batch(self, synthetic_dir):
        # an oversized batch trains exactly like one batch holding everything
        inputs = synthetic_inputs(synthetic_dir)
        cfg_big = TrainingConfig(d=10, k=8, n=2, epochs=2, learning_rate=0.05,
                                 batch_size=10 ** 6, seed=5)
        cfg_exact = dataclasses.replace(
            cfg_big, batch_size=len(inputs["corpus"]) + len(inputs["annotations"])
        )
        model_big, _ = train(cfg_big, **inputs)
        model_exact, _ = train(cfg_exact, **inputs)
        for name, arr in model_big.store.params.items():
            assert np.array_equal(arr, model_exact.store.params[name]), name

    def test_training_allocates_no_table_sized_gradient_or_accumulator(self, synthetic_dir):
        # the desk data over a table padded to 100k rows: a step touches a few
        # dozen rows, so the table's gradient and accumulator stay small
        inputs = synthetic_inputs(synthetic_dir)
        vocab, table = inputs["word_vectors"]
        pad = [f"pad{i}" for i in range(100_000 - len(vocab))]
        rng = np.random.default_rng(0)
        table = np.vstack([table, rng.standard_normal((len(pad), table.shape[1]))])
        inputs["word_vectors"] = Vocabulary().extended(vocab.words[1:] + pad), table
        cfg = TrainingConfig(d=10, k=8, n=2, epochs=2, learning_rate=0.05,
                             batch_size=10, seed=7)
        tracemalloc.start()
        try:
            model, _ = train(cfg, **inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the extended table training writes to is one table's worth
        assert peak < 2 * table.nbytes
        assert 0 < len(model.store.table_rows) < 1000

    def test_inactive_terms_leave_parameters_untouched(self, synthetic_dir, tmp_path):
        # with beta = gamma = 0 the LSTM cells and sentiment head must stay at
        # their init across any number of epochs
        from eventemb.checkpoint import build_model

        inputs = synthetic_inputs(synthetic_dir)
        runs = {}
        for name, epochs in (("one", 1), ("three", 3)):
            cfg = TrainingConfig(alpha=1.0, beta=0.0, gamma=0.0, d=10, k=8, n=2,
                                 epochs=epochs, learning_rate=0.05, batch_size=10, seed=9)
            out = tmp_path / name
            train(cfg, out_dir=str(out), **inputs)
            runs[name] = build_model(load_checkpoint(str(out / "final.ckpt"))).store.params
        untouched = [k for k in runs["one"] if k.startswith(("lstm.", "sentiment."))]
        touched = [k for k in runs["one"] if k.startswith(("layer", "embeddings", "u"))]
        assert untouched and touched
        for key in untouched:
            assert np.array_equal(runs["one"][key], runs["three"][key]), key
        assert any(
            not np.array_equal(runs["one"][key], runs["three"][key]) for key in touched
        )

    def test_window_means_non_increasing(self, synthetic_dir):
        inputs = synthetic_inputs(synthetic_dir)
        cfg = TrainingConfig(d=10, k=8, n=2, epochs=20, learning_rate=0.05,
                             batch_size=10, seed=13)
        _, history = train(cfg, **inputs)
        totals = [m.total for m in history]
        windows = [np.mean(totals[i : i + 5]) for i in range(0, 20, 5)]
        for earlier, later in zip(windows, windows[1:]):
            assert later <= earlier + 1e-9

    def test_empty_training_data_rejected(self):
        with pytest.raises(ValueError, match="empty training data"):
            train(tiny_config(), [], [])

    def test_vector_dimension_mismatch_rejected(self, synthetic_dir):
        inputs = synthetic_inputs(synthetic_dir)
        cfg = TrainingConfig(d=20, k=8, n=2, epochs=1)
        with pytest.raises(ValueError, match="dimension 10, config d=20"):
            train(cfg, inputs["corpus"], word_vectors=inputs["word_vectors"])

    def test_metrics_line_format(self):
        metrics = EpochMetrics(epoch=3, event=0.1, intent=0.25, sentiment=0.0, total=0.35)
        assert metrics.line() == "3\t0.100000\t0.250000\t0.000000\t0.350000"

    def test_metrics_log_one_line_per_epoch(self, synthetic_dir, tmp_path):
        inputs = synthetic_inputs(synthetic_dir)
        cfg = TrainingConfig(d=10, k=8, n=2, epochs=4, learning_rate=0.05,
                             batch_size=10, seed=1)
        out = tmp_path / "run"
        train(cfg, out_dir=str(out), **inputs)
        lines = (out / "metrics.tsv").read_text().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("1\t")
        assert len((out / "metrics.tsv").read_text().splitlines()[0].split("\t")) == 5
        for epoch in range(1, 5):
            assert (out / f"epoch-{epoch:04d}.ckpt").exists()

    def test_final_checkpoint_links_the_last_epoch_checkpoint(self, synthetic_dir, tmp_path):
        # a temp file left by an interrupted run does not stop the link, and a
        # second run into the same directory leaves the same bytes
        inputs = synthetic_inputs(synthetic_dir)
        cfg = TrainingConfig(d=10, k=8, n=2, epochs=2, learning_rate=0.05,
                             batch_size=10, seed=4)
        out = tmp_path / "run"
        out.mkdir()
        (out / "final.ckpt.tmp").write_bytes(b"partial")
        train(cfg, out_dir=str(out), **inputs)
        assert os.path.samefile(out / "final.ckpt", out / "epoch-0002.ckpt")
        first = {path.name: path.read_bytes() for path in out.iterdir()}
        assert sorted(first) == ["epoch-0001.ckpt", "epoch-0002.ckpt", "final.ckpt", "metrics.tsv"]
        train(cfg, out_dir=str(out), **inputs)
        assert {path.name: path.read_bytes() for path in out.iterdir()} == first

    def test_a_shorter_rerun_leaves_only_its_own_checkpoints(self, synthetic_dir, tmp_path):
        # the re-run removes the 5-epoch run's checkpoints and temp files,
        # and no file of another name
        inputs = synthetic_inputs(synthetic_dir)
        cfg = TrainingConfig(d=10, k=8, n=2, epochs=5, learning_rate=0.05,
                             batch_size=10, seed=4)
        out = tmp_path / "run"
        train(cfg, out_dir=str(out), **inputs)
        (out / "epoch-0005.ckpt.tmp").write_bytes(b"partial")
        (out / "final.ckpt.tmp").write_bytes(b"partial")
        others = {"notes.txt": b"a note", "epoch-1.ckpt": b"x", "final.ckpt.bak": b"y"}
        for name, data in others.items():
            (out / name).write_bytes(data)
        train(dataclasses.replace(cfg, epochs=3), out_dir=str(out), **inputs)
        assert sorted(path.name for path in out.iterdir()) == sorted([
            "epoch-0001.ckpt", "epoch-0002.ckpt", "epoch-0003.ckpt", "final.ckpt",
            "metrics.tsv", *others,
        ])
        assert os.path.samefile(out / "final.ckpt", out / "epoch-0003.ckpt")
        assert len((out / "metrics.tsv").read_text().splitlines()) == 3
        assert {name: (out / name).read_bytes() for name in others} == others

    @pytest.mark.parametrize("link", ["linked", "refused"])
    def test_a_rerun_renames_over_no_file(self, synthetic_dir, tmp_path, monkeypatch, link):
        # renaming over the previous run's checkpoint is what made a re-run's
        # saves slow; the second run's renames and its link must all land on
        # free names
        inputs = synthetic_inputs(synthetic_dir)
        cfg = TrainingConfig(d=10, k=8, n=2, epochs=3, learning_rate=0.05,
                             batch_size=10, seed=4)
        out = tmp_path / "run"
        if link == "refused":
            def refuse(src, dst):
                raise OSError(errno.EPERM, "hard links not supported", dst)

            monkeypatch.setattr(os, "link", refuse)
        train(cfg, out_dir=str(out), **inputs)
        first = {path.name: path.read_bytes() for path in out.iterdir()}
        replaced, linked = [], []
        real_replace, real_link = os.replace, os.link

        def recording_replace(src, dst):
            replaced.append((os.path.basename(dst), os.path.lexists(dst)))
            real_replace(src, dst)

        def recording_link(src, dst):
            linked.append((os.path.basename(dst), os.path.lexists(dst)))
            real_link(src, dst)

        monkeypatch.setattr(os, "replace", recording_replace)
        monkeypatch.setattr(os, "link", recording_link)
        train(cfg, out_dir=str(out), **inputs)
        names = [f"epoch-{epoch:04d}.ckpt" for epoch in range(1, 4)]
        # a refused link falls back to saving final.ckpt, which renames
        names += ["final.ckpt"] * (link == "refused")
        assert replaced == [(name, False) for name in names]
        assert linked == [("final.ckpt", False)]
        assert {path.name: path.read_bytes() for path in out.iterdir()} == first

    def test_rejected_run_leaves_the_previous_run_untouched(self, synthetic_dir, tmp_path):
        # the corpus events carry no intent, so an intent-only run is rejected,
        # and so are a run whose annotations share one intent, an event run
        # whose vocabulary has one word to corrupt with and an annotation
        # with an empty intent, before any creates or writes anything in its
        # output directory
        inputs = synthetic_inputs(synthetic_dir)
        cfg = TrainingConfig(d=10, k=8, n=2, epochs=2, learning_rate=0.05,
                             batch_size=10, seed=4)
        out = tmp_path / "run"
        train(cfg, out_dir=str(out), **inputs)
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert len(before["metrics.tsv"].splitlines()) == 2
        intent_only = dataclasses.replace(cfg, alpha=0.0, beta=1.0, gamma=0.0)
        # a pool of one distinct intent leaves no negative intent to sample
        won = AnnotatedExample(EventTuple(("he",), ("won",), ("game",)), intent=("to", "win"))
        for target in (out, tmp_path / "new"):
            with pytest.raises(ValueError, match="activates no loss term"):
                train(intent_only, out_dir=str(target), **inputs)
            with pytest.raises(ValueError, match="every annotated intent is 'to win'"):
                train(cfg, [], [won, won], out_dir=str(target))
            with pytest.raises(ValueError, match="vocabulary has 1 usable words"):
                train(cfg.with_preset("ntn"), [EventTuple(("a",), ("a",), ("a",))],
                      out_dir=str(target))
            with pytest.raises(ValueError, match="annotated example: empty intent"):
                train(cfg, inputs["corpus"], [won, AnnotatedExample(won.event, intent=())],
                      out_dir=str(target))
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        assert not (tmp_path / "new").exists()

    def test_final_checkpoint_is_written_where_links_are_refused(
        self, synthetic_dir, tmp_path, monkeypatch
    ):
        def refuse(src, dst):
            raise OSError(errno.EPERM, "hard links not supported", dst)

        monkeypatch.setattr(os, "link", refuse)
        inputs = synthetic_inputs(synthetic_dir)
        cfg = TrainingConfig(d=10, k=8, n=2, epochs=2, learning_rate=0.05,
                             batch_size=10, seed=4)
        out = tmp_path / "run"
        train(cfg, out_dir=str(out), **inputs)
        assert not os.path.samefile(out / "final.ckpt", out / "epoch-0002.ckpt")
        assert (out / "final.ckpt").read_bytes() == (out / "epoch-0002.ckpt").read_bytes()
        assert not (out / "final.ckpt.tmp").exists()

    def test_final_checkpoint_is_the_last_epoch_checkpoint(self, synthetic_dir, tmp_path):
        inputs = synthetic_inputs(synthetic_dir)
        cfg = TrainingConfig(d=10, k=8, n=2, epochs=2, learning_rate=0.05,
                             batch_size=10, seed=4)
        out = tmp_path / "run"
        train(cfg, out_dir=str(out), **inputs)
        final = (out / "final.ckpt").read_bytes()
        assert final == (out / f"epoch-{cfg.epochs:04d}.ckpt").read_bytes()
        assert final != (out / "epoch-0001.ckpt").read_bytes()

    def test_checkpoints_record_their_epoch_and_the_generator_left_by_the_loop(
        self, synthetic_dir, tmp_path
    ):
        # train is this build followed by this loop; epoch e's file records
        # e, and final.ckpt the generator state the last epoch left
        cfg = TrainingConfig(d=10, k=8, n=2, epochs=3, learning_rate=0.05,
                             batch_size=10, seed=4)
        run = Run(cfg, **synthetic_inputs(synthetic_dir))
        run.run_epochs(str(tmp_path))
        for epoch in range(1, cfg.epochs + 1):
            assert load_checkpoint(str(tmp_path / f"epoch-{epoch:04d}.ckpt")).epoch == epoch
        final = load_checkpoint(str(tmp_path / "final.ckpt"))
        assert final.epoch == cfg.epochs
        assert final.rng_state == run.rng.bit_generator.state


def many_chunk_inputs(synthetic_dir):
    """The synthetic data over a table of d = 10 that the run grows to 20,218
    rows, 199 chunks: the unknown row and every other vectors-file word first,
    then 20,000 filler words; the run appends the words left out as new rows.
    So one epoch's rows, its events' words and its corrupted actors drawn
    from the whole vocabulary, lie in a minority of the chunks."""
    inputs = synthetic_inputs(synthetic_dir)
    vocab, table = inputs["word_vectors"]
    kept = [0, *range(1, len(vocab), 2)]
    filler = [f"filler{i}" for i in range(20_000)]
    rows = np.random.default_rng(0).uniform(-0.5, 0.5, (len(filler), table.shape[1]))
    inputs["word_vectors"] = (
        Vocabulary.from_entries([vocab.words[i] for i in kept] + filler),
        np.vstack([table[kept], rows]),
    )
    return inputs


class TestEpochSaves:
    """An epoch save re-reads only the table chunks that its epoch's steps
    changed, and writes the bytes a whole serialization gives."""

    CONFIG = TrainingConfig(d=10, k=8, n=2, epochs=3, learning_rate=0.05, batch_size=10, seed=5)

    def test_each_epoch_file_loads_and_equals_its_whole_serialization(
        self, synthetic_dir, tmp_path
    ):
        train(self.CONFIG, out_dir=str(tmp_path), **many_chunk_inputs(synthetic_dir))
        for epoch in range(1, self.CONFIG.epochs + 1):
            path = tmp_path / f"epoch-{epoch:04d}.ckpt"
            assert path.read_bytes() == checkpoint_bytes(load_checkpoint(str(path)))

    def test_a_run_encodes_its_vocabulary_once_and_a_fallback_final_reads_no_chunk(
        self, synthetic_dir, tmp_path, monkeypatch
    ):
        def refuse(src, dst):
            raise OSError(errno.EPERM, "hard links not supported", dst)

        crc32, save, words = zlib.crc32, checkpoint.save_checkpoint, Vocabulary.words
        read, reads, saves = [], [], []

        def counting_crc32(data, value=0):
            read.append(memoryview(data).nbytes)
            return crc32(data, value)

        def recording_save(path, *args):
            read.clear()
            save(path, *args)
            saves.append((os.path.basename(path), sum(read)))

        run = Run(self.CONFIG, **many_chunk_inputs(synthetic_dir))
        monkeypatch.setattr(os, "link", refuse)
        monkeypatch.setattr(checkpoint.zlib, "crc32", counting_crc32)
        monkeypatch.setattr(checkpoint, "_LIBDEFLATE", None)  # so every CRC is counted
        monkeypatch.setattr(checkpoint, "save_checkpoint", recording_save)
        monkeypatch.setattr(Vocabulary, "words", property(lambda v: reads.append(v) or words.fget(v)))
        run.run_epochs(str(tmp_path))
        assert [name for name, _ in saves] == [
            "epoch-0001.ckpt", "epoch-0002.ckpt", "epoch-0003.ckpt", "final.ckpt"]
        assert reads == [run.model.vocab]
        final = tmp_path / "final.ckpt"
        assert final.read_bytes() == (tmp_path / "epoch-0003.ckpt").read_bytes()
        with open(final, "rb") as fh:
            head = fh.read(checkpoint.HEAD.size + 4)
        (header_len,) = struct.unpack_from("<I", head, checkpoint.HEAD.size)
        # the length prefix, the header and the flat buffer: no table chunk
        assert saves[-1][1] == 4 + header_len + run.model.store.flat_params.nbytes

    def test_a_save_after_the_first_crcs_only_what_its_epoch_changed(
        self, synthetic_dir, tmp_path, monkeypatch
    ):
        crc32, step, save = zlib.crc32, trainer.adagrad_step, checkpoint.save_checkpoint
        read, steps, saves = [], [], []

        def counting_crc32(data, value=0):
            read.append(memoryview(data).nbytes)
            return crc32(data, value)

        def recording_step(*args):
            steps.append(step(*args))
            return steps[-1]

        def recording_save(path, ckpt, *args):
            read.clear()
            save(path, ckpt, *args)
            saves.append((sum(read), np.unique(np.concatenate(steps)), path, ckpt))
            steps.clear()

        monkeypatch.setattr(checkpoint.zlib, "crc32", counting_crc32)
        monkeypatch.setattr(checkpoint, "_LIBDEFLATE", None)  # so every CRC is counted
        monkeypatch.setattr(trainer, "adagrad_step", recording_step)
        monkeypatch.setattr(checkpoint, "save_checkpoint", recording_save)
        inputs = many_chunk_inputs(synthetic_dir)
        train(self.CONFIG, out_dir=str(tmp_path), **inputs)
        assert len(saves) == self.CONFIG.epochs
        table_rows = CRC_CHUNK // (8 * self.CONFIG.d)
        chunk_bytes = 8 * self.CONFIG.d * table_rows
        for read_bytes, rows, path, ckpt in saves[1:]:
            table, flat = ckpt.table, ckpt.flat
            n_chunks = -(-len(table) // table_rows)
            chunks = np.unique(rows // table_rows)
            assert len(chunks) < n_chunks / 2  # the run leaves most chunks alone
            assert rows.max() >= len(inputs["word_vectors"][0])  # new-word rows are trained
            with open(path, "rb") as fh:
                head = fh.read(checkpoint.HEAD.size + 4)
            (header_len,) = struct.unpack_from("<I", head, checkpoint.HEAD.size)
            changed = sum(min(chunk_bytes, table.nbytes - c * chunk_bytes) for c in chunks)
            assert read_bytes <= 4 + header_len + changed + flat.nbytes
