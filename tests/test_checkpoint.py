import dataclasses
import errno
import gc
import hashlib
import io
import json
import math
import os
import signal
import struct
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventemb import checkpoint, cli
from eventemb.checkpoint import (
    CRC_CHUNK,
    MAGIC,
    VERSION,
    Checkpoint,
    CheckpointError,
    TableCRCs,
    _apply,
    _shift,
    build_model,
    load_checkpoint,
    parse_checkpoint,
    save_checkpoint,
)
from eventemb.data import EventTuple, Vocabulary
from eventemb.model import JointModel, layout
from eventemb.params import TABLE, ParameterStore, flat_size, initial_flat
from eventemb.trainer import TrainingConfig, adagrad_step, train
from conftest import SRC_DIR, SYNTHETIC_DIR, make_model, random_event
from oracles import checkpoint_bytes, record_table_grad


def make_checkpoint(seed=0, d=6, k=4, n=2):
    model, vocab, rng = make_model(seed=seed, d=d, k=k, n=n)
    cfg = TrainingConfig(d=d, k=k, n=n, epochs=3, seed=seed)
    return (
        Checkpoint(
            config=cfg,
            vocab=vocab,
            table=model.embeddings,
            flat=model.store.flat_params,
            rng_state=rng.bit_generator.state,
            epoch=3,
        ),
        model,
    )


# entries of the flat buffer at d=6, k=4, n=2
FLAT = flat_size(layout(6, 4, 2))


class TestRoundTrip:
    def test_arrays_bit_exact(self, tmp_path):
        ckpt, model = make_checkpoint()
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), ckpt)
        loaded = load_checkpoint(str(path))
        assert loaded.epoch == 3
        assert loaded.config == ckpt.config
        assert loaded.vocab.words == ckpt.vocab.words
        assert loaded.rng_state == ckpt.rng_state
        assert np.array_equal(loaded.table, model.embeddings)
        assert np.array_equal(loaded.flat, model.store.flat_params)

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

    @pytest.mark.parametrize("failing", ["write", "rename"])
    def test_a_failed_save_leaves_no_temp_file(self, tmp_path, monkeypatch, failing):
        # a disk that fills after the first 100 bytes, or a rename refused
        def full_disk(file, mode):
            class Full(io.BufferedWriter):
                def writelines(self, parts):
                    self.write(b"".join(parts)[:100])
                    self.flush()
                    raise OSError(errno.ENOSPC, "No space left on device", file)

            return Full(io.FileIO(file, mode))

        def refuse(src, dst):
            raise OSError(errno.EACCES, "Permission denied", dst)

        path = tmp_path / "m.ckpt"
        old, new = make_checkpoint()[0], make_checkpoint(seed=1)[0]
        save_checkpoint(str(path), old)
        if failing == "write":
            monkeypatch.setattr(checkpoint, "open", full_disk, raising=False)
        else:
            monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="No space left|Permission denied"):
            save_checkpoint(str(path), new)
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]
        assert path.read_bytes() == checkpoint_bytes(old)


def combined(crc_a, crc_b, len_b):
    """zlib.crc32(a + b) from the CRCs of a and b, by the writer's shift tables."""
    return _apply(_shift(len_b)[1], crc_a) ^ crc_b


class TestChunkCRCs:
    """The writer joins CRCs by zlib's crc32_combine rule and keeps one CRC
    per chunk of table rows; both must equal zlib.crc32 of the whole bytes."""

    @given(st.binary(max_size=300), st.binary(max_size=300), st.integers(0, 200_000))
    def test_two_crcs_join_to_the_crc_of_both(self, a, b, zeros):
        b += bytes(zeros)
        assert combined(zlib.crc32(a), zlib.crc32(b), len(b)) == zlib.crc32(a + b)
        # the array form of the tables maps many CRCs at once, as the int form does
        crcs = np.array([zlib.crc32(a), zlib.crc32(b), 0, 0xFFFFFFFF], np.uint32)
        assert _apply(_shift(len(b))[0], crcs).tolist() == [
            _apply(_shift(len(b))[1], int(crc)) for crc in crcs]

    @pytest.mark.parametrize("rows, d, steps", [
        (1, 3, [[0]]),  # a 1-row table
        (10, 4, [[0], [9, 3]]),  # a table smaller than one chunk
        (1000, 100, [[0]]),  # the first row, in whole chunks only
        (1001, 100, [[1000]]),  # the last, 1-row chunk
        (1001, 100, [[]]),  # a step that changes no row
        (1001, 100, []),  # a save after no step
        (5000, 16, [[3, 4999], [64, 65, 4000], [3]]),
    ])
    def test_chunk_state_follows_named_row_edits(self, rows, d, steps):
        table = np.random.default_rng(rows + d).standard_normal((rows, d))
        crcs, before = TableCRCs(), zlib.crc32(b"header")
        assert crcs.extend(before, table) == zlib.crc32(table, before)
        changed = [np.array(ids, dtype=np.int64) for ids in steps]
        for ids in changed:
            table[ids] += 1.0
        assert crcs.extend(before, table, changed) == zlib.crc32(table, before)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(1, 700), st.integers(1, 40), st.binary(max_size=40))
    def test_chunk_state_follows_random_row_edits(self, data, rows, d, prefix):
        # up to 28 chunks (d = 40), or less than one (d = 1)
        table = np.random.default_rng(rows * 41 + d).standard_normal((rows, d))
        crcs, before = TableCRCs(), zlib.crc32(prefix)
        assert crcs.extend(before, table) == zlib.crc32(table, before)
        for _ in range(data.draw(st.integers(1, 3))):
            steps = data.draw(st.lists(
                st.lists(st.integers(0, rows - 1), unique=True).map(sorted), max_size=3))
            changed = [np.array(ids, dtype=np.int64) for ids in steps]
            for ids in changed:
                table[ids] *= -0.5
            assert crcs.extend(before, table, changed) == zlib.crc32(table, before)

    def test_a_state_given_another_table_shape_reads_every_chunk(self):
        crcs = TableCRCs()
        crcs.extend(0, np.zeros((300, 100)))
        table = np.ones((301, 100))
        assert crcs.extend(0, table) == zlib.crc32(table)
        assert len(crcs.crcs) == 1 + -(-301 // (CRC_CHUNK // 800))


class TestWriterFollowsTheLayout:
    """The file names no array: the writer refuses a table or flat buffer
    that the header does not fix, and places both where they load aligned."""

    def test_body_is_the_table_then_the_flat_buffer(self, tmp_path):
        config = TrainingConfig(d=10, k=8, n=2, epochs=1, batch_size=10, learning_rate=0.05)
        corpus = [
            EventTuple(("alice",), ("threw",), ("ball",)),
            EventTuple(("bob",), ("built",), ("house",)),
        ]
        model, _ = train(config, corpus, out_dir=str(tmp_path))
        data = (tmp_path / "final.ckpt").read_bytes()
        body = data[28 + struct.unpack_from("<I", data, 24)[0] :]
        assert body == model.embeddings.tobytes() + model.store.flat_params.tobytes()

    @pytest.mark.parametrize("epoch", [10**j for j in range(8)])
    def test_array_data_starts_at_a_multiple_of_8(self, tmp_path, epoch):
        # the epoch's digits move the JSON's length through every remainder mod 8
        ckpt = dataclasses.replace(make_checkpoint()[0], epoch=epoch)
        data = checkpoint_bytes(ckpt)
        assert (28 + struct.unpack_from("<I", data, 24)[0]) % 8 == 0
        path = tmp_path / "m.ckpt"
        path.write_bytes(data)
        loaded = load_checkpoint(str(path))
        assert loaded.epoch == epoch
        assert loaded.table.flags.aligned and loaded.flat.flags.aligned

    @pytest.mark.parametrize(
        "edit, got",
        [
            (lambda c: dataclasses.replace(c, table=c.flat, flat=c.table),
             rf"\(\({FLAT},\), \(13, 6\)\)"),
            (lambda c: dataclasses.replace(c, table=c.table[:-1]),
             rf"\(\(12, 6\), \({FLAT},\)\)"),
            (lambda c: dataclasses.replace(c, flat=c.flat[:-2]),
             rf"\(\(13, 6\), \({FLAT - 2},\)\)"),
        ],
        ids=["swapped", "table", "flat"],
    )
    def test_arrays_off_the_layout_raise_before_anything_is_written(self, tmp_path, edit, got):
        ckpt, _ = make_checkpoint()
        bad = edit(ckpt)
        match = rf"have shapes {got}, the header needs \(\(13, 6\), \({FLAT},\)\)$"
        with pytest.raises(ValueError, match=match):
            checkpoint_bytes(bad)
        with pytest.raises(ValueError, match=match):
            save_checkpoint(str(tmp_path / "m.ckpt"), bad)
        assert list(tmp_path.iterdir()) == []


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

    @pytest.mark.parametrize(
        "version",
        (
            1,  # the per-gate LSTM layout, before the gates were fused
            2,  # each LSTM direction as its own arrays, before they were stacked
            3,  # a name, ndim and dims record per array, before the body dropped them
            4,  # factors stored slice-major
        ),
    )
    def test_old_version_rejected(self, version):
        ckpt, _ = make_checkpoint()
        data = bytearray(checkpoint_bytes(ckpt))
        data[8] = version
        with pytest.raises(CheckpointError, match=f"version {version}$"):
            parse_checkpoint(bytes(data))

    @pytest.mark.parametrize("value", (np.nan, np.inf, -np.inf))
    def test_non_finite_array_rejected(self, value):
        ckpt, model = make_checkpoint()
        model.store.params["layer2.diag"][1, 3] = value
        bad = dataclasses.replace(ckpt, table=model.embeddings, flat=model.store.flat_params)
        with pytest.raises(CheckpointError, match="'layer2.diag' holds non-finite"):
            parse_checkpoint(checkpoint_bytes(bad))

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_checkpoint(str(tmp_path / "nope.ckpt"))

    # an empty file, which mmap refuses, and files shorter than the head
    @pytest.mark.parametrize("size", (0, 1, 10, 27))
    def test_empty_and_short_files_are_truncated(self, tmp_path, capsys, size):
        path = tmp_path / "m.ckpt"
        path.write_bytes(checkpoint_bytes(make_checkpoint()[0])[:size])
        with pytest.raises(CheckpointError, match="truncated checkpoint$"):
            load_checkpoint(str(path))
        capsys.readouterr()
        code = cli.main(["nn", "--checkpoint", str(path), "--query", "a|b|c",
                         "--corpus", str(SYNTHETIC_DIR / "corpus.txt")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: truncated checkpoint\n"


class TestLayout:
    def test_version_5_parameter_names_and_shapes(self):
        # The file no longer names its arrays: the reader takes every name and
        # shape from the layout. Changing the layout without bumping VERSION
        # would load old files scrambled, so this pins both together.
        # d=5, k=4, n=2, so h=2 and the LSTM directions stack as (2, 4h, d+h)
        ckpt, _ = make_checkpoint(d=5, k=4, n=2)
        expected = [
            ("embeddings", (13, 5)),
            ("layer1.left", (5, 2, 4)),
            ("layer1.right", (2, 4, 5)),
            ("layer1.diag", (4, 5)),
            ("layer1.w", (4, 10)),
            ("layer1.b", (4,)),
            ("layer2.left", (5, 2, 4)),
            ("layer2.right", (2, 4, 5)),
            ("layer2.diag", (4, 5)),
            ("layer2.w", (4, 10)),
            ("layer2.b", (4,)),
            ("layer3.left", (4, 2, 4)),
            ("layer3.right", (2, 4, 4)),
            ("layer3.diag", (4, 4)),
            ("layer3.w", (4, 8)),
            ("layer3.b", (4,)),
            ("u", (4,)),
            ("lstm.w", (2, 8, 7)),
            ("lstm.b", (2, 8)),
            ("sentiment.w", (2, 4)),
            ("sentiment.b", (2,)),
        ]
        data = checkpoint_bytes(ckpt)
        assert struct.unpack_from("<I", data, 8)[0] == VERSION == 5
        assert [(name, s) for name, (s, _) in layout(5, 4, 2).items()] == expected[1:]
        loaded = parse_checkpoint(data)
        assert loaded.table.shape == (13, 5)
        assert loaded.flat.shape == (sum(math.prod(s) for _, s in expected[1:]),)
        params = build_model(loaded).store.params
        assert [(name, arr.shape) for name, arr in params.items()] == expected
        assert len(params) == 21


class TestShapeValidation:
    """A file's config and vocabulary fix its arrays' shapes, so a mismatch is
    a body of the wrong size; a checkpoint edited in memory meets JointModel
    and ParameterStore."""

    def test_dimension_mismatch_names_array(self):
        ckpt, _ = make_checkpoint(d=6, k=4, n=2)
        header = header_of(ckpt)
        header["config"] = TrainingConfig(d=6, k=8, n=2).to_dict()
        need = 8 * (13 * 6 + flat_size(layout(6, 8, 2)))
        body = array_bytes(ckpt)
        match = f"body holds {len(body)} array bytes, .* vocabulary need {need}$"
        with pytest.raises(CheckpointError, match=match):
            parse_checkpoint(craft(header, body))

    def test_missing_array_rejected(self):
        ckpt, _ = make_checkpoint()
        # without the last array, `sentiment.b` of shape (2,)
        ckpt.flat = ckpt.flat[:-2]
        match = rf"flat buffer has shape \({FLAT - 2},\), the layout needs \({FLAT},\)$"
        with pytest.raises(ValueError, match=match):
            build_model(ckpt)

    @pytest.mark.parametrize(
        "name, array, match",
        [
            ("layer4.w", np.zeros((4, 12)),
             rf"flat buffer has shape \({FLAT + 48},\), the layout needs \({FLAT},\)$"),
            # one row short of the 13-word vocabulary
            ("embeddings", np.zeros((12, 6)),
             r"word table has shape \(12, 6\), expected \(13, 6\)$"),
        ],
    )
    def test_unknown_array_or_wrong_table_shape_rejected(self, name, array, match):
        ckpt, _ = make_checkpoint(d=6)
        if name == TABLE:
            ckpt = dataclasses.replace(ckpt, table=array)
        else:
            ckpt = dataclasses.replace(ckpt, flat=np.concatenate((ckpt.flat, array.ravel())))
        with pytest.raises(ValueError, match=match):
            build_model(ckpt)

    def test_build_model_draws_nothing(self, monkeypatch):
        ckpt, model = make_checkpoint()
        data = checkpoint_bytes(ckpt)

        def no_generator(*args):
            raise AssertionError("build_model made a random generator")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        rebuilt = build_model(parse_checkpoint(data))
        for name, array in model.store.params.items():
            assert np.array_equal(rebuilt.store.params[name], array), name

    def test_vocabulary_must_start_with_unknown(self):
        header = valid_header()
        header["vocab"] = header["vocab"][1:]
        data = craft(header, bytes(8 * (12 * 6 + FLAT)))
        match = r"^m\.ckpt: checkpoint vocabulary must start with the '<unk>' entry$"
        with pytest.raises(CheckpointError, match=match):
            parse_checkpoint(data, "m.ckpt")


SMALL = checkpoint_bytes(make_checkpoint()[0])


class TestDamagedBytes:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, len(SMALL) - 1))
    def test_any_truncation_raises_checkpoint_error(self, size):
        with pytest.raises(CheckpointError):
            parse_checkpoint(SMALL[:size])

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, len(SMALL) - 1), st.integers(1, 255))
    def test_any_single_byte_flip_raises_checkpoint_error(self, pos, xor):
        data = bytearray(SMALL)
        data[pos] ^= xor
        with pytest.raises(CheckpointError):
            parse_checkpoint(bytes(data))

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 7),
        st.sampled_from([2, 4, 6]),
        st.integers(1, 2),
        st.integers(0, 10**6),
    )
    def test_save_load_save_is_byte_identical(self, seed, d, k, n, epoch):
        model, vocab, rng = make_model(seed=seed % 1000, d=d, k=k, n=n)
        ckpt = Checkpoint(
            config=TrainingConfig(d=d, k=k, n=n, seed=seed),
            vocab=vocab,
            table=model.embeddings,
            flat=model.store.flat_params,
            rng_state=rng.bit_generator.state,
            epoch=epoch,
        )
        first = checkpoint_bytes(ckpt)
        assert checkpoint_bytes(parse_checkpoint(first)) == first


def craft(header, body):
    """Checkpoint bytes with a valid CRC around any JSON header (or raw
    header bytes) followed by any array bytes."""
    head = header if isinstance(header, bytes) else json.dumps(header).encode("utf-8")
    body = struct.pack("<I", len(head)) + head + body
    return MAGIC + struct.pack("<IIQ", VERSION, zlib.crc32(body), len(body)) + body


def header_of(ckpt):
    return {
        "config": ckpt.config.to_dict(),
        "epoch": ckpt.epoch,
        "rng_state": ckpt.rng_state,
        "vocab": ckpt.vocab.words,
    }


def array_bytes(ckpt):
    return ckpt.table.astype("<f8").tobytes() + ckpt.flat.astype("<f8").tobytes()


def valid_header():
    return header_of(make_checkpoint()[0])


CONFIG = valid_header()["config"]
# the arrays of valid_header(): a 13-word vocabulary at d=6, k=4, n=2
ZEROS = bytes(8 * (13 * 6 + FLAT))


# words the JSON encoder escapes: quote, backslash, control characters,
# non-ASCII letters, a line separator and a character outside the BMP
ESCAPED_WORDS = ['say"hi', "back\\slash", "tab\tword", "nul\x00", "bell\x07", "café",
                 "日本", "line\u2028sep", "emoji\U0001f600"]


def with_vocab(ckpt, words):
    """`ckpt` over a vocabulary of `words`, with a table of matching size."""
    vocab = Vocabulary().extended(words)
    table = np.arange(len(vocab) * ckpt.config.d, dtype=float).reshape(len(vocab), -1)
    return dataclasses.replace(ckpt, vocab=vocab, table=table)


def header_bytes(data):
    """The JSON header of checkpoint bytes, with its padding."""
    return data[28 : 28 + struct.unpack_from("<I", data, 24)[0]]


def dumped_header(ckpt):
    """The header as one json.dumps of all four fields, padded as the writer pads."""
    header = json.dumps(
        header_of(ckpt), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return header + b" " * (-(28 + len(header)) % 8)


class TestHeaderEncoding:
    """The writer encodes a vocabulary once and appends it to each header;
    the bytes must be those of one json.dumps of the whole header."""

    @pytest.mark.parametrize("words", [[], ESCAPED_WORDS, ["alice", *ESCAPED_WORDS[::-1]]])
    def test_header_equals_one_json_dump(self, words):
        ckpt = with_vocab(make_checkpoint()[0], words)
        data = checkpoint_bytes(ckpt)
        assert header_bytes(data) == dumped_header(ckpt)
        assert parse_checkpoint(data).vocab.words == ckpt.vocab.words

    def test_another_vocabulary_of_the_same_length_is_encoded_afresh(self):
        base = make_checkpoint()[0]
        first = with_vocab(base, ESCAPED_WORDS)
        second = with_vocab(base, [w + "x" for w in ESCAPED_WORDS])
        # equal words in a new object encode the same as the first
        again = with_vocab(base, ESCAPED_WORDS)
        for ckpt in (first, second, first, again, second):
            assert header_bytes(checkpoint_bytes(ckpt)) == dumped_header(ckpt)

    def test_each_save_encodes_its_config_epoch_and_rng_state(self):
        ckpt = with_vocab(make_checkpoint()[0], ESCAPED_WORDS)
        later = dataclasses.replace(
            ckpt,
            config=dataclasses.replace(ckpt.config, epochs=9),
            epoch=4,
            rng_state=np.random.default_rng(5).bit_generator.state,
        )
        for c in (ckpt, later, ckpt):
            assert header_bytes(checkpoint_bytes(c)) == dumped_header(c)

    def test_a_vocabulary_is_encoded_once(self, monkeypatch):
        ckpt = with_vocab(make_checkpoint()[0], ESCAPED_WORDS)
        reads = []
        words = Vocabulary.words
        counted = property(lambda vocab: reads.append(vocab) or words.fget(vocab))
        monkeypatch.setattr(Vocabulary, "words", counted)
        for epoch in range(4):
            checkpoint_bytes(dataclasses.replace(ckpt, epoch=epoch))
        assert len(reads) == 1


class TestCraftedCheckpoints:
    """Bodies with a valid CRC that a writer never produces."""

    def test_crafted_baseline_parses(self):
        ckpt = parse_checkpoint(craft(valid_header(), ZEROS))
        assert ckpt.epoch == 3
        assert ckpt.table.shape == (13, 6) and ckpt.flat.shape == (FLAT,)
        assert not ckpt.table.any() and not ckpt.flat.any()

    @pytest.mark.parametrize("body", [ZEROS[:-8], ZEROS + bytes(8)], ids=["short", "long"])
    def test_body_one_float_off_is_rejected(self, body):
        match = f"body holds {len(body)} array bytes, .* need {len(ZEROS)}$"
        with pytest.raises(CheckpointError, match=match):
            parse_checkpoint(craft(valid_header(), body))

    def test_vocabulary_longer_than_the_body_is_rejected(self):
        header = valid_header()
        header["vocab"] = header["vocab"] + ["extra"]
        # one more table row of d=6 floats
        with pytest.raises(CheckpointError, match=f"need {len(ZEROS) + 48}$"):
            parse_checkpoint(craft(header, ZEROS))

    def test_repeated_vocabulary_word_is_rejected_naming_the_file(self, tmp_path, capsys):
        header = valid_header()
        header["vocab"][2] = header["vocab"][1]
        path = tmp_path / "repeated.ckpt"
        path.write_bytes(craft(header, ZEROS))
        want = f"{path}: checkpoint vocabulary contains duplicate words"
        for read in (lambda: parse_checkpoint(path.read_bytes(), str(path)),
                     lambda: load_checkpoint(str(path))):
            with pytest.raises(CheckpointError) as info:
                read()
            assert str(info.value) == want
        code = cli.main(["nn", "--checkpoint", str(path), "--query", "a|b|c",
                         "--corpus", str(path)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {want}\n"

    def test_crafted_header_without_an_epoch_is_rejected(self):
        header = valid_header()
        del header["epoch"]
        with pytest.raises(CheckpointError, match="header lacks 'epoch'$"):
            parse_checkpoint(craft(header, ZEROS))

    def test_header_length_past_the_end_of_the_body_is_rejected(self):
        # the body's first field, the JSON header's length, claims the whole
        # body; the CRC and body length are made to match
        data = bytearray(craft(valid_header(), ZEROS))
        body = data[len(MAGIC) + 16 :]
        struct.pack_into("<I", body, 0, len(body))
        data[len(MAGIC) :] = struct.pack("<IIQ", VERSION, zlib.crc32(body), len(body)) + body
        with pytest.raises(CheckpointError, match="truncated checkpoint$"):
            parse_checkpoint(bytes(data))

    def test_huge_dimension_is_rejected_without_allocating(self):
        header = valid_header()
        header["config"]["d"] = 2**40
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="the header's config and vocabulary need"):
                parse_checkpoint(craft(header, ZEROS))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("vocab", 5, "field 'vocab' is not a list of strings"),
            ("vocab", ["<unk>", 7], "field 'vocab' is not a list of strings"),
            ("epoch", "x", "field 'epoch' is not an integer: 'x'"),
            ("epoch", 2.5, "field 'epoch' is not an integer"),
            ("epoch", True, "field 'epoch' is not an integer"),
            ("rng_state", [1], "field 'rng_state' is not a JSON object"),
            ("config", 5, "bad checkpoint config"),
            ("config", dict(CONFIG, d=6.0), "bad checkpoint config: d=6.0 is not of type int"),
            ("config", dict(CONFIG, batch_size=1.5), "bad checkpoint config: batch_size=1.5"),
            ("config", dict(CONFIG, epochs=2.5), "bad checkpoint config: epochs=2.5"),
            ("config", dict(CONFIG, seed="x"), "bad checkpoint config: seed='x'"),
            ("config", dict(CONFIG, n=True), "bad checkpoint config: n=True"),
            ("config", dict(CONFIG, alpha=False), "bad checkpoint config: alpha=False"),
            ("config", dict(CONFIG, corruption_target=1), "bad checkpoint config"),
            ("config", dict(CONFIG, seed=-1), "bad checkpoint config: seed=-1 must be >= 0"),
            ("config", dict(CONFIG, alpha=5.0), "bad checkpoint config: alpha=5.0"),
            ("config", dict(CONFIG, learning_rate=np.nan),
             "bad checkpoint config: learning_rate=nan"),
            ("config", {k: v for k, v in CONFIG.items() if k not in ("seed", "learning_rate")},
             "bad checkpoint config: missing learning_rate, seed$"),
            ("config", {}, f"bad checkpoint config: missing {', '.join(CONFIG)}$"),
            # a Python int that passes `v < inf`, but no float holds
            ("config", dict(CONFIG, learning_rate=10**400),
             "bad checkpoint config: learning_rate is an integer too large for a float$"),
        ],
    )
    def test_bad_header_field_is_named(self, field, value, match):
        header = valid_header()
        header[field] = value
        with pytest.raises(CheckpointError, match=match):
            parse_checkpoint(craft(header, ZEROS))

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from([(1, 1, 2, 1), (2, 5, 2, 2), (13, 6, 4, 2), (4, 3, 8, 3)]),
        st.sampled_from([np.nan, np.inf, -np.inf]),
        st.data(),
    )
    def test_non_finite_entry_names_the_array_that_holds_it(self, sizes, value, data):
        n_words, d, k, n = sizes
        header = valid_header()
        header["config"] = dict(CONFIG, d=d, k=k, n=n)
        header["vocab"] = header["vocab"][:n_words]
        sizes = [(TABLE, n_words * d)]
        sizes += [(name, math.prod(shape)) for name, (shape, _) in layout(d, k, n).items()]
        total = sum(size for _, size in sizes)
        entries = data.draw(st.sets(st.integers(0, total - 1), min_size=1, max_size=3))
        values = np.zeros(total)
        values[list(entries)] = value
        # the array whose entries hold the first non-finite one
        start = 0
        for holder, size in sizes:
            if start + size > min(entries):
                break
            start += size
        with pytest.raises(CheckpointError, match=f"array '{holder}' holds non-finite values$"):
            parse_checkpoint(craft(header, values.tobytes()))

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([(1, 1, 2, 1), (2, 5, 2, 2), (13, 6, 4, 2), (4, 3, 8, 3)]),
        st.sampled_from([np.nan, np.inf, -np.inf]),
        st.booleans(),
        st.data(),
    )
    def test_one_non_finite_entry_at_any_index_names_its_array(self, sizes, value, huge, data):
        n_words, d, k, n = sizes
        header = valid_header()
        header["config"] = dict(CONFIG, d=d, k=k, n=n)
        header["vocab"] = header["vocab"][:n_words]
        bounds = [(TABLE, 0, n_words * d)]
        for name, (shape, _) in layout(d, k, n).items():
            start = bounds[-1][2]
            bounds.append((name, start, start + math.prod(shape)))
        total = bounds[-1][2]
        # each array's first and last entries, or any entry
        edges = sorted({i for _, start, stop in bounds for i in (start, stop - 1)})
        index = data.draw(st.one_of(st.sampled_from(edges), st.integers(0, total - 1)))
        values = np.zeros(total)
        if huge:
            # finite entries near the largest float, whose sum alone overflows
            values[:] = np.where(np.arange(total) % 3, 1.7e308, -1.7e308)
        values[index] = value
        holder = next(name for name, start, stop in bounds if start <= index < stop)
        with pytest.raises(CheckpointError, match=f"array '{holder}' holds non-finite values$"):
            parse_checkpoint(bytearray(craft(header, values.tobytes())))

    @settings(max_examples=50, deadline=None)
    @given(
        st.sampled_from([(2, 5, 2, 2), (13, 6, 4, 2), (4, 3, 8, 3)]),
        st.sampled_from([1.0, -1.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_finite_entries_whose_sum_overflows_load_and_round_trip(self, sizes, sign, seed):
        n_words, d, k, n = sizes
        config = TrainingConfig(d=d, k=k, n=n)
        vocab = Vocabulary().extended([f"w{i}" for i in range(1, n_words)])
        total = n_words * d + flat_size(layout(d, k, n))
        rng = np.random.default_rng(seed)
        # two in three entries of one sign, all near the largest float
        values = rng.uniform(1.5e308, np.finfo(np.float64).max, total)
        values *= np.where(rng.random(total) < 2 / 3, sign, -sign)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(np.add.reduce(values))
        ckpt = Checkpoint(config, vocab, values[: n_words * d].reshape(n_words, d),
                          values[n_words * d :], {}, 1)
        blob = checkpoint_bytes(ckpt)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.ckpt")
            with open(path, "wb") as fh:
                fh.write(blob)
            loaded = load_checkpoint(path)
            assert checkpoint_bytes(loaded) == blob
            assert np.array_equal(loaded.flat, ckpt.flat)

    def test_header_that_is_not_an_object(self):
        with pytest.raises(CheckpointError, match="header is not a JSON object"):
            parse_checkpoint(craft([1, 2], ZEROS))

    def test_header_nested_past_the_recursion_limit(self):
        deep = b"[" * 100_000 + b"]" * 100_000
        with pytest.raises(CheckpointError, match="bad checkpoint header"):
            parse_checkpoint(craft(deep, ZEROS))

    def test_cli_reports_a_crafted_checkpoint_without_a_traceback(self, tmp_path, capsys):
        header = valid_header()
        header["vocab"] = 5
        path = tmp_path / "crafted.ckpt"
        path.write_bytes(craft(header, ZEROS))
        code = cli.main(["embed", "--checkpoint", str(path), "--events", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'vocab'" in err and "Traceback" not in err

    def test_cli_reports_a_wrong_typed_config_field_without_a_traceback(self, tmp_path, capsys):
        header = valid_header()
        header["config"]["d"] = 6.0
        path = tmp_path / "crafted.ckpt"
        path.write_bytes(craft(header, ZEROS))
        code = cli.main(["embed", "--checkpoint", str(path), "--events", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "d=6.0" in err and "Traceback" not in err


def large_table_checkpoint(seed=0):
    """A checkpoint whose table is most of its array bytes."""
    rng = np.random.default_rng(seed)
    vocab = Vocabulary().extended([f"w{i}" for i in range(299)])
    table = rng.standard_normal((300, 6))
    model = JointModel(vocab, 6, 4, 2, table, initial_flat(layout(6, 4, 2), rng))
    config = TrainingConfig(d=6, k=4, n=2)
    return Checkpoint(
        config, vocab, model.embeddings, model.store.flat_params,
        rng.bit_generator.state, 1,
    )


def read_buffer(ckpt):
    """The one buffer that a parsed checkpoint's table and flat buffer view."""
    base = ckpt.table
    while isinstance(base, np.ndarray):
        base = base.base
    return np.asarray(base)


class TestOwnership:
    """The store takes the arrays it is given; nothing trains into memory
    that someone else holds."""

    def test_store_takes_a_writable_array_without_a_copy(self):
        table, flat = np.arange(6.0).reshape(3, 2), np.arange(4.0)
        store = ParameterStore({"w": ((2, 2), 0.0)}, flat, table)
        assert store.params["embeddings"] is table and store.flat_params is flat
        assert np.shares_memory(store.params["w"], flat)

    def test_store_copies_a_read_only_array(self):
        data = np.arange(10.0).tobytes()
        table = np.frombuffer(data, dtype=np.float64, count=6).reshape(3, 2)
        flat = np.frombuffer(data, dtype=np.float64, offset=48)
        store = ParameterStore({"w": ((2, 2), 0.0)}, flat, table)
        for owned, view in ((store.params["embeddings"], table), (store.flat_params, flat)):
            assert owned.flags.writeable and not np.shares_memory(owned, view)
            assert np.array_equal(owned, view)

    def test_a_large_loaded_table_becomes_the_model_table(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), large_table_checkpoint())
        loaded = load_checkpoint(str(path))
        assert loaded.table.flags.writeable and loaded.flat.flags.writeable
        rebuilt = build_model(loaded)
        assert rebuilt.embeddings is loaded.table
        assert rebuilt.store.flat_params is loaded.flat

    @pytest.mark.parametrize("ckpt", [make_checkpoint()[0], large_table_checkpoint()],
                             ids=["small", "large"])
    def test_a_loaded_model_views_the_read_buffer(self, tmp_path, ckpt):
        # the buffer holds the header and the two parts, nothing else to copy out
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), ckpt)
        loaded = load_checkpoint(str(path))
        model = build_model(loaded)
        buffer = read_buffer(loaded)
        assert buffer.size == path.stat().st_size
        assert np.shares_memory(model.embeddings, buffer)
        assert np.shares_memory(model.store.flat_params, buffer)
        assert buffer[-model.store.flat_params.nbytes :].tobytes() == ckpt.flat.tobytes()

    def test_training_a_loaded_model_leaves_the_file_alone(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), large_table_checkpoint())
        on_disk = path.read_bytes()
        loaded = load_checkpoint(str(path))
        model = build_model(loaded)
        assert model.embeddings is loaded.table and model.store.flat_params is loaded.flat
        before = model.embeddings.copy(), model.store.flat_params.copy()
        for grad in model.store.grads.values():
            grad[...] = 1.0
        record_table_grad(model.store, np.ones(model.embeddings.shape))
        adagrad_step(model.store, 0.1, 1.0)
        assert not np.array_equal(model.embeddings, before[0])
        assert not np.array_equal(model.store.flat_params, before[1])
        assert path.read_bytes() == on_disk
        assert checkpoint_bytes(load_checkpoint(str(path))) == on_disk

    def test_model_from_immutable_bytes_trains_on_its_own_copy(self):
        for ckpt in (make_checkpoint()[0], large_table_checkpoint()):
            data = checkpoint_bytes(ckpt)
            parsed = parse_checkpoint(data)
            assert not parsed.table.flags.writeable and not parsed.flat.flags.writeable
            model = build_model(parsed)
            assert not np.shares_memory(model.embeddings, parsed.table)
            assert not np.shares_memory(model.store.flat_params, parsed.flat)
            for grad in model.store.grads.values():
                grad[...] = 1.0
            record_table_grad(model.store, np.ones(model.embeddings.shape))
            adagrad_step(model.store, 0.1, 1.0)
            assert checkpoint_bytes(parse_checkpoint(data)) == data
            assert checkpoint_bytes(parsed) == data


def child(script, *args):
    """Run `script` in a fresh interpreter that imports this checkout."""
    path = os.pathsep.join(filter(None, (str(SRC_DIR), os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)


# loads OUT/final.ckpt, lets the program's own writers replace, remove and
# re-create that name, then checks that the model still embeds the same bits
# and prints the sha256 of its table and flat buffer
OWN_WRITERS = """
import hashlib, os, sys
import numpy as np
from eventemb import cli
from eventemb.checkpoint import build_model, load_checkpoint, save_checkpoint
from eventemb.data import load_corpus

out, corpus, *train = sys.argv[1:]
path = os.path.join(out, "final.ckpt")
model = build_model(load_checkpoint(path))
events = load_corpus(corpus)
before = model.embed_events(events)
save_checkpoint(path, load_checkpoint(os.path.join(out, "epoch-0001.ckpt")))
os.remove(path)
assert cli.main([*train, "--out", out]) == 0
assert np.array_equal(model.embed_events(events).view(np.uint64), before.view(np.uint64))
print(hashlib.sha256(model.embeddings.tobytes() + model.store.flat_params.tobytes()).hexdigest())
"""

# loads a checkpoint, truncates its file as another process could, then
# touches the loaded arrays
TRUNCATED = """
import os, sys
from eventemb.checkpoint import build_model, load_checkpoint

model = build_model(load_checkpoint(sys.argv[1]))
print("loaded", flush=True)
os.truncate(sys.argv[1], 0)
print(model.embeddings.sum() + model.store.flat_params.sum())
"""


class TestMappedLoad:
    """A loaded checkpoint is a copy-on-write mapping of its file; these tests
    pin what the mapping requires of the file while a model lives."""

    def test_the_programs_own_writers_leave_a_loaded_model_intact(self, tmp_path):
        data = [SYNTHETIC_DIR / name for name in ("corpus.txt", "annotations.txt")]
        train = ["train", "--corpus", data[0], "--annotations", data[1],
                 "--d", "6", "--k", "4", "--n", "2", "--epochs", "2", "--batch-size", "16"]
        out = tmp_path / "run"
        assert cli.main([*map(str, train), "--seed", "1", "--out", str(out)]) == 0
        on_disk = parse_checkpoint((out / "final.ckpt").read_bytes())
        # a retraining with another seed writes other bytes under every name
        run = child(OWN_WRITERS, out, data[0], *train, "--seed", "2")
        assert run.returncode == 0, run.stderr
        assert parse_checkpoint((out / "final.ckpt").read_bytes()).flat.tobytes() \
            != on_disk.flat.tobytes()
        assert run.stdout.split()[-1] == hashlib.sha256(
            on_disk.table.tobytes() + on_disk.flat.tobytes()).hexdigest()

    @pytest.mark.skipif(not hasattr(signal, "SIGBUS"), reason="no SIGBUS on this platform")
    def test_truncating_a_loaded_file_ends_the_process_with_sigbus(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), large_table_checkpoint())
        run = child(TRUNCATED, path)
        assert run.stdout == "loaded\n"
        assert run.returncode == -signal.SIGBUS

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
    def test_a_loaded_model_holds_one_descriptor_until_dropped(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), large_table_checkpoint())
        gc.collect()
        before = len(os.listdir("/proc/self/fd"))
        model = build_model(load_checkpoint(str(path)))
        assert len(os.listdir("/proc/self/fd")) <= before + 1
        del model
        gc.collect()
        assert len(os.listdir("/proc/self/fd")) == before

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
    def test_a_rejected_file_holds_no_descriptor_while_its_error_lives(self, tmp_path):
        data = bytearray(checkpoint_bytes(make_checkpoint()[0]))
        data[len(data) // 2] ^= 0xFF
        paths = [tmp_path / f"bad-{i}.ckpt" for i in range(3)]
        for path in paths:
            path.write_bytes(data)
        gc.collect()
        before = len(os.listdir("/proc/self/fd"))
        errors = []
        for path in paths:
            with pytest.raises(CheckpointError, match="checksum mismatch") as info:
                load_checkpoint(str(path))
            errors.append(info.value)
        assert len(os.listdir("/proc/self/fd")) == before
        assert [str(error) for error in errors] == [
            f"{path}: checksum mismatch (corrupted checkpoint)" for path in paths
        ]


class TestFrozenInferenceThreads:
    def test_four_threads_embed_bit_equal_to_a_serial_call(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), large_table_checkpoint(seed=5))
        model = build_model(load_checkpoint(str(path)))
        rng = np.random.default_rng(1)
        # more than one 256-event block per call
        events = [random_event(model.vocab, rng, max_words=3) for _ in range(600)]
        serial = model.embed_events(events)
        results = [None] * 4
        barrier = threading.Barrier(4)

        def work(slot):
            barrier.wait()
            results[slot] = [model.embed_events(events) for _ in range(3)]

        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for runs in results:
            for got in runs:
                assert np.array_equal(got.view(np.uint64), serial.view(np.uint64))
