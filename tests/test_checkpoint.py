import dataclasses
import struct

import numpy as np
import pytest

from eventemb.checkpoint import (
    VERSION,
    Checkpoint,
    CheckpointError,
    build_model,
    checkpoint_bytes,
    load_checkpoint,
    parse_checkpoint,
    save_checkpoint,
)
from eventemb.data import EventTuple
from eventemb.trainer import TrainingConfig
from conftest import make_model, random_event


def make_checkpoint(seed=0, d=6, k=4, n=2):
    model, vocab, rng = make_model(seed=seed, d=d, k=k, n=n)
    cfg = TrainingConfig(d=d, k=k, n=n, epochs=3, seed=seed)
    return (
        Checkpoint(
            config=cfg,
            vocab_words=vocab.words,
            arrays=model.store.params,
            rng_state=rng.bit_generator.state,
            epoch=3,
        ),
        model,
    )


class TestRoundTrip:
    def test_arrays_bit_exact(self, tmp_path):
        ckpt, model = make_checkpoint()
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), ckpt)
        loaded = load_checkpoint(str(path))
        assert loaded.epoch == 3
        assert loaded.config == ckpt.config
        assert loaded.vocab_words == ckpt.vocab_words
        assert loaded.rng_state == ckpt.rng_state
        assert set(loaded.arrays) == set(ckpt.arrays)
        for name, arr in ckpt.arrays.items():
            assert np.array_equal(loaded.arrays[name], arr), name

    def test_save_load_save_is_byte_identical(self, tmp_path):
        ckpt, _ = make_checkpoint()
        first = checkpoint_bytes(ckpt)
        loaded = parse_checkpoint(first)
        assert checkpoint_bytes(loaded) == first

    def test_rebuilt_model_embeds_identically(self, tmp_path):
        ckpt, model = make_checkpoint(seed=4)
        rebuilt = build_model(parse_checkpoint(checkpoint_bytes(ckpt)))
        rng = np.random.default_rng(0)
        for _ in range(5):
            event = random_event(model.vocab, rng)
            assert np.array_equal(rebuilt.embed_event(event), model.embed_event(event))

    def test_rng_state_restores_the_generator(self):
        ckpt, _ = make_checkpoint(seed=9)
        restored = np.random.default_rng(0)
        restored.bit_generator.state = parse_checkpoint(checkpoint_bytes(ckpt)).rng_state
        reference = np.random.default_rng(0)
        reference.bit_generator.state = ckpt.rng_state
        assert np.array_equal(restored.standard_normal(8), reference.standard_normal(8))


class TestStreamedSave:
    @pytest.mark.parametrize("shape", [(6, 4, 2), (100, 100, 10)])
    def test_file_holds_checkpoint_bytes(self, tmp_path, shape):
        ckpt, _ = make_checkpoint(d=shape[0], k=shape[1], n=shape[2])
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), ckpt)
        assert path.read_bytes() == checkpoint_bytes(ckpt)
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_saving_over_a_larger_checkpoint_replaces_it_whole(self, tmp_path):
        big, _ = make_checkpoint(d=100, k=100, n=10)
        small, _ = make_checkpoint(seed=1)
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), big)
        save_checkpoint(str(path), small)
        assert path.read_bytes() == checkpoint_bytes(small)
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


class TestCorruptionDetection:
    def test_truncation_by_one_byte(self, tmp_path):
        ckpt, _ = make_checkpoint()
        data = checkpoint_bytes(ckpt)
        with pytest.raises(CheckpointError, match="body has"):
            parse_checkpoint(data[:-1])

    def test_heavy_truncation(self):
        ckpt, _ = make_checkpoint()
        data = checkpoint_bytes(ckpt)
        with pytest.raises(CheckpointError, match="truncated"):
            parse_checkpoint(data[:10])

    def test_flipped_byte_fails_checksum(self):
        ckpt, _ = make_checkpoint()
        data = bytearray(checkpoint_bytes(ckpt))
        data[len(data) // 2] ^= 0xFF
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            parse_checkpoint(bytes(data))

    def test_bad_magic(self):
        ckpt, _ = make_checkpoint()
        data = b"NOTMAGIC" + checkpoint_bytes(ckpt)[8:]
        with pytest.raises(CheckpointError, match="bad magic"):
            parse_checkpoint(data)

    def test_unsupported_version(self):
        ckpt, _ = make_checkpoint()
        data = bytearray(checkpoint_bytes(ckpt))
        data[8] = 99
        # version change invalidates nothing else, so patch is pre-CRC
        with pytest.raises(CheckpointError, match="version 99"):
            parse_checkpoint(bytes(data))

    def test_version_1_rejected(self):
        ckpt, _ = make_checkpoint()
        data = bytearray(checkpoint_bytes(ckpt))
        data[8] = 1  # the per-gate LSTM layout, before the gates were fused
        with pytest.raises(CheckpointError, match="version 1$"):
            parse_checkpoint(bytes(data))

    def test_invalid_config_rejected(self):
        ckpt, _ = make_checkpoint()
        bad = dataclasses.replace(ckpt, config=dataclasses.replace(ckpt.config, alpha=5.0))
        with pytest.raises(CheckpointError, match="bad checkpoint config: alpha=5.0"):
            parse_checkpoint(checkpoint_bytes(bad))

    def test_non_finite_config_rejected(self):
        ckpt, _ = make_checkpoint()
        config = dataclasses.replace(ckpt.config, learning_rate=np.nan)
        bad = dataclasses.replace(ckpt, config=config)
        with pytest.raises(CheckpointError, match="bad checkpoint config: learning_rate=nan"):
            parse_checkpoint(checkpoint_bytes(bad))

    @pytest.mark.parametrize("value", (np.nan, np.inf, -np.inf))
    def test_non_finite_array_rejected(self, value):
        ckpt, _ = make_checkpoint()
        arrays = {name: arr.copy() for name, arr in ckpt.arrays.items()}
        arrays["layer2.diag"][1, 3] = value
        bad = dataclasses.replace(ckpt, arrays=arrays)
        with pytest.raises(CheckpointError, match="'layer2.diag' holds non-finite"):
            parse_checkpoint(checkpoint_bytes(bad))

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_checkpoint(str(tmp_path / "nope.ckpt"))


class TestLayout:
    def test_version_2_parameter_names_and_shapes(self):
        # d=5, k=4, n=2, so h=2 and each LSTM direction is one (4h, d+h) block
        ckpt, _ = make_checkpoint(d=5, k=4, n=2)
        expected = [("embeddings", (13, 5))]
        for prefix, d_in in (("layer1", 5), ("layer2", 5), ("layer3", 4)):
            expected += [
                (f"{prefix}.left", (4, d_in, 2)),
                (f"{prefix}.right", (4, 2, d_in)),
                (f"{prefix}.diag", (4, d_in)),
                (f"{prefix}.w", (4, 2 * d_in)),
                (f"{prefix}.b", (4,)),
            ]
        expected += [
            ("u", (4,)),
            ("lstm_fwd.w", (8, 7)),
            ("lstm_fwd.b", (8,)),
            ("lstm_bwd.w", (8, 7)),
            ("lstm_bwd.b", (8,)),
            ("sentiment.w", (2, 4)),
            ("sentiment.b", (2,)),
        ]
        data = checkpoint_bytes(ckpt)
        assert struct.unpack_from("<I", data, 8)[0] == VERSION == 2
        loaded = parse_checkpoint(data).arrays
        assert [(name, arr.shape) for name, arr in loaded.items()] == expected
        assert len(loaded) == 23


class TestShapeValidation:
    def test_dimension_mismatch_names_array(self):
        ckpt, _ = make_checkpoint(d=6, k=4, n=2)
        mismatched = dataclasses.replace(ckpt, config=TrainingConfig(d=6, k=8, n=2))
        with pytest.raises(CheckpointError, match="layer1.left"):
            build_model(parse_checkpoint(checkpoint_bytes(mismatched)))

    def test_missing_array_rejected(self):
        ckpt, _ = make_checkpoint()
        del ckpt.arrays["u"]
        with pytest.raises(CheckpointError, match="missing parameter arrays.*u"):
            build_model(ckpt)

    def test_vocabulary_must_start_with_unknown(self):
        ckpt, _ = make_checkpoint()
        ckpt.vocab_words = ckpt.vocab_words[1:]
        with pytest.raises(CheckpointError, match="must start with"):
            build_model(ckpt)
