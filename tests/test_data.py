import contextlib
import io
import os
import tempfile
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import eventemb.data as data_module
from eventemb.data import (
    UNKNOWN_TOKEN,
    VECTOR_BLOCK,
    AnnotatedExample,
    DataError,
    EventTuple,
    HardSimInstance,
    TransitiveSimInstance,
    Vocabulary,
    ascii_number,
    derive_polarity,
    extend_embeddings,
    format_event,
    load_annotations,
    load_corpus,
    load_hardsim,
    load_lexicon,
    load_transitive,
    load_word_vectors,
    parse_event,
    tokenize,
)
from eventemb.cli import parse_config_file
from conftest import SYNTHETIC_DIR
from oracles import (
    average_argument,
    format_annotation,
    load_word_vectors_by_line,
    polarity_by_counting,
    save_annotations,
    save_corpus,
    save_hardsim,
    save_lexicon,
    save_transitive,
    scalar_mean_rows,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestWordVectors:
    def test_two_line_file(self, tmp_path):
        path = write(tmp_path, "vec.txt", "a 1 0\nb 0 1\n")
        vocab, table = load_word_vectors(path)
        assert len(vocab) == 3
        assert table.shape == (3, 2)
        assert np.array_equal(table[0], [0.5, 0.5])  # unknown row = mean

    def test_unknown_row_mean_of_huge_entries_stays_finite(self, tmp_path):
        # 1e308 + 1e308 overflows; the mean of the column does not
        path = write(tmp_path, "vec.txt", "a 1e308 1\nb 1e308 2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, table = load_word_vectors(path)
        assert np.array_equal(table[0], [1e308, 1.5])

    def test_lookup_round_trip(self, tmp_path):
        path = write(tmp_path, "vec.txt", "a 1 0\nb 0 1\n")
        vocab, table = load_word_vectors(path)
        assert np.array_equal(table[vocab.index("a")], [1.0, 0.0])

    def test_inconsistent_dimension_reports_line(self, tmp_path):
        path = write(tmp_path, "vec.txt", "a 1 0\nb 0 1\nc 1 2 3\n")
        with pytest.raises(DataError, match=r"vec\.txt:3: vector has 3 entries"):
            load_word_vectors(path)

    def test_empty_file_rejected(self, tmp_path):
        path = write(tmp_path, "vec.txt", "# nothing here\n")
        with pytest.raises(DataError, match="no word vectors"):
            load_word_vectors(path)

    @pytest.mark.parametrize("text", ("", "\n  \n", "# only\n# comments\n", "\ufeff"))
    def test_a_file_without_records_raises_and_warns_nothing(self, tmp_path, text):
        path = write(tmp_path, "vec.txt", text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError) as caught:
                load_word_vectors(path)
        assert str(caught.value) == f"{path}:0: no word vectors found"
        assert caught.value.line == 0

    @pytest.mark.parametrize(
        "record, message, at",
        [("lonely", "expected a word followed by vector entries", at) for at in (0, 1, 1030)]
        + [("z 1 zap", "bad vector entry", at) for at in (0, 1, 1030)]
        + [("z 1 2 3", "vector has 3 entries, expected 2", at) for at in (1, 1030)],
    )
    def test_a_bad_record_in_any_block_names_its_line(self, tmp_path, record, message, at):
        # line 1032, record 1031, lies in the second block of VECTOR_BLOCK records
        assert VECTOR_BLOCK < 1030
        lines = [f"w{i} {i} 1" for i in range(VECTOR_BLOCK + 10)]
        lines[at] = record
        path = write(tmp_path, "vec.txt", "# header\n" + "\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError) as caught:
                load_word_vectors(path)
        assert str(caught.value).startswith(f"{path}:{at + 2}: {message}")
        if record == "lonely":
            # raised while loadtxt reads the records: it comes out unchanged
            assert caught.value.__cause__ is None and caught.value.__context__ is None

    @pytest.mark.parametrize(
        "text, message",
        [("a 1 2\nb 1 zap\nc\n", "2: bad vector entry"),
         ("a 1 2\nb 1 2 3\nc\n", "2: vector has 3 entries, expected 2")],
    )
    def test_a_later_record_without_values_does_not_hide_the_first_bad_one(
        self, tmp_path, text, message
    ):
        path = write(tmp_path, "vec.txt", text)
        with pytest.raises(DataError, match=rf"vec\.txt:{message}"):
            load_word_vectors(path)

    def test_bad_float_rejected(self, tmp_path):
        path = write(tmp_path, "vec.txt", "a 1 zap\n")
        with pytest.raises(DataError, match=r"vec\.txt:1"):
            load_word_vectors(path)

    @pytest.mark.parametrize("entry", ("nan", "inf", "-inf", "NaN", "Infinity"))
    def test_non_finite_entry_reports_line(self, tmp_path, entry):
        path = write(tmp_path, "vec.txt", f"a 1 0\n# comment\nb 0 {entry}\nc 1 1\n")
        with pytest.raises(DataError, match=r"vec\.txt:3: non-finite"):
            load_word_vectors(path)

    def test_case_folded_repeat_names_both_lines(self, tmp_path):
        path = write(tmp_path, "vec.txt", "a 1 2\nb 3 4\nA 5 6\n")
        with pytest.raises(DataError, match=r"vec\.txt:3: word 'a' repeats line 1"):
            load_word_vectors(path)

    def test_exact_repeat_names_both_lines(self, tmp_path):
        path = write(tmp_path, "vec.txt", "a 1 2\n# comment\nb 3 4\nb 5 6\n")
        with pytest.raises(DataError, match=r"vec\.txt:4: word 'b' repeats line 3"):
            load_word_vectors(path)

    def test_unknown_token_is_reserved(self, tmp_path):
        path = write(tmp_path, "vec.txt", "a 1 2\n<UNK> 3 4\n")
        with pytest.raises(DataError, match=r"vec\.txt:2: word '<unk>' repeats the reserved"):
            load_word_vectors(path)

    def test_hash_inside_a_word_is_kept(self, tmp_path):
        path = write(tmp_path, "vec.txt", "# comment\nc# 1 2\n  # indented comment\na#b 3 4\n")
        vocab, table = load_word_vectors(path)
        assert vocab.words == [UNKNOWN_TOKEN, "c#", "a#b"]
        assert np.array_equal(table[vocab.index("a#b")], [3.0, 4.0])

    def test_any_whitespace_between_fields(self, tmp_path):
        path = write(tmp_path, "vec.txt", "a\t1  2 \t\nb \x0b3\x0c4\r\n")
        vocab, table = load_word_vectors(path)
        assert np.array_equal(table[1:], [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("entry", ("1_0", "0x1", "\u0661", "1,5"))
    def test_only_plain_ascii_numbers(self, tmp_path, entry):
        # float() accepts the first and the third (an Arabic-Indic one);
        # the bulk parser does not
        path = write(tmp_path, "vec.txt", f"a 1 0\nb 0 {entry}\n")
        with pytest.raises(DataError, match=r"vec\.txt:2: bad vector entry"):
            load_word_vectors(path)

    def test_record_without_values(self, tmp_path):
        path = write(tmp_path, "vec.txt", "a 1 0\nlonely   \n")
        with pytest.raises(DataError, match=r"vec\.txt:2: expected a word followed"):
            load_word_vectors(path)

    def test_parse_holds_no_copy_of_the_file_text(self, tmp_path):
        # 20k x 50 entries: 8 MB as a table, ~10 MB as text
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((20_000, 50))
        path = tmp_path / "vec.txt"
        with open(path, "w", encoding="utf-8") as fh:
            for i, row in enumerate(rows):
                fh.write(f"w{i} " + " ".join(f"{x:.6f}" for x in row) + "\n")
        tracemalloc.start()
        try:
            vocab, table = load_word_vectors(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.shape == (20_001, 50)
        assert peak < 2 * table.nbytes

    def test_one_dimensional_vectors(self, tmp_path):
        path = write(tmp_path, "vec.txt", "a 1\nb 3\n")
        vocab, table = load_word_vectors(path)
        assert table.shape == (3, 1) and np.array_equal(table[:, 0], [2.0, 1.0, 3.0])

    def test_extend_embeddings_returns_a_fresh_table(self, tmp_path):
        path = write(tmp_path, "vec.txt", "a 1 0\nb 0 1\n")
        vocab, table = load_word_vectors(path)
        rng = np.random.default_rng(0)
        vocab2, table2 = extend_embeddings(vocab, table, ["a", "b"], rng)
        assert len(vocab2) == len(vocab)
        assert np.array_equal(table2, table) and not np.shares_memory(table2, table)
        assert table2.dtype == np.float64 and table2.flags.c_contiguous
        # with no new rows nothing is drawn: the generator's stream is unchanged
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    def test_extend_embeddings_adds_rows_in_range(self, tmp_path):
        path = write(tmp_path, "vec.txt", "a 1 0\nb 0 1\n")
        vocab, table = load_word_vectors(path)
        rng = np.random.default_rng(0)
        vocab2, table2 = extend_embeddings(vocab, table, ["b", "c", "d"], rng)
        assert len(vocab2) == 5 and table2.shape == (5, 2)
        assert np.array_equal(table2[:3], table)
        assert np.all(np.abs(table2[3:]) <= 0.1)


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize("PersonX threw  Bomb") == ("personx", "threw", "bomb")

    def test_placeholder_stays_single_token(self):
        assert tokenize("person_x") == ("person_x",)


class TestAverageArgument:
    def test_singleton(self, tmp_path):
        path = write(tmp_path, "vec.txt", "a 1 0\nb 0 1\n")
        vocab, table = load_word_vectors(path)
        assert np.array_equal(average_argument(["a"], table, vocab), [1.0, 0.0])

    def test_two_words(self, tmp_path):
        path = write(tmp_path, "vec.txt", "a 1 0\nb 0 1\n")
        vocab, table = load_word_vectors(path)
        assert np.array_equal(average_argument(["a", "b"], table, vocab), [0.5, 0.5])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(9)
        vocab = Vocabulary().extended(["u", "v", "w"])
        table = rng.standard_normal((4, 5))
        words = ["w", "u", "v"]
        expected = scalar_mean_rows([table[vocab.index(w)] for w in words])
        assert average_argument(words, table, vocab) == pytest.approx(expected, abs=1e-15)

    def test_oov_uses_unknown_row(self):
        vocab = Vocabulary().extended(["u"])
        table = np.array([[7.0], [1.0]])
        assert average_argument(["zzz"], table, vocab) == pytest.approx([7.0])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="empty word list"):
            average_argument([], np.zeros((1, 2)), Vocabulary())


class TestDerivePolarity:
    LEXICON = {"sad": -1, "regretful": -1, "sorry": -1, "afraid": -1, "happy": 1}

    def test_all_negative_exemplar(self):
        words = ["sad", "regretful", "sorry", "afraid"]
        assert derive_polarity(words, self.LEXICON) == -1

    def test_single_positive(self):
        assert derive_polarity(["happy"], self.LEXICON) == 1

    def test_exact_cancellation_is_none(self):
        assert derive_polarity(["happy", "sad"], self.LEXICON) is None

    def test_absent_words_are_neutral(self):
        assert derive_polarity(["be", "regretful"], self.LEXICON) == -1

    def test_order_invariance_and_duplicates(self):
        rng = np.random.default_rng(1)
        lexicon = {f"w{i}": (1 if i % 2 else -1) for i in range(10)}
        for _ in range(50):
            words = [f"w{int(rng.integers(12))}" for _ in range(int(rng.integers(1, 8)))]
            shuffled = list(words)
            rng.shuffle(shuffled)
            assert derive_polarity(words, lexicon) == derive_polarity(shuffled, lexicon)
            assert derive_polarity(words, lexicon) == polarity_by_counting(words, lexicon)


class TestEventParsing:
    def test_basic_event(self):
        event = parse_event("person_x|threw|bomb")
        assert event == EventTuple(("person_x",), ("threw",), ("bomb",))

    def test_multiword_arguments(self):
        event = parse_event("the tall man|quickly built|a small house")
        assert event.actor == ("the", "tall", "man")
        assert event.object == ("a", "small", "house")

    def test_wrong_field_count(self):
        with pytest.raises(DataError, match="needs 3 pipe-delimited"):
            parse_event("a|b", "f.txt", 4)
        with pytest.raises(DataError, match="needs 3 pipe-delimited"):
            parse_event("a|b|c|d", "f.txt", 4)

    def test_empty_argument(self):
        with pytest.raises(DataError, match="empty predicate"):
            parse_event("a||c", "f.txt", 2)


class TestCorpusRoundTrip:
    def test_round_trip(self, tmp_path):
        path = write(tmp_path, "c.txt", "# comment\na|b|c\n\nperson_x|threw|bomb\n")
        events = load_corpus(path)
        assert len(events) == 2
        out = tmp_path / "c2.txt"
        save_corpus(str(out), events)
        assert load_corpus(str(out)) == events


class TestAnnotations:
    def test_intent_and_emotions(self, tmp_path):
        path = write(tmp_path, "a.txt", "person_x|threw|bomb\tto bloodshed\tangry,hateful\n")
        (example,) = load_annotations(path)
        assert example.intent == ("to", "bloodshed")
        assert example.emotion_words == ("angry", "hateful")

    def test_multiword_emotion_items_flatten(self, tmp_path):
        path = write(tmp_path, "a.txt", "a|b|c\t-\tsad, be regretful, feel sorry, afraid\n")
        (example,) = load_annotations(path)
        assert example.emotion_words == ("sad", "be", "regretful", "feel", "sorry", "afraid")

    def test_dash_fields(self, tmp_path):
        path = write(tmp_path, "a.txt", "a|b|c\tto win\t-\n")
        (example,) = load_annotations(path)
        assert example.intent == ("to", "win")
        assert example.emotion_words is None

    def test_both_missing_rejected(self, tmp_path):
        path = write(tmp_path, "a.txt", "a|b|c\t-\t-\n")
        with pytest.raises(DataError, match="neither an intent nor emotion"):
            load_annotations(path)

    def test_blank_intent_rejected(self, tmp_path):
        path = write(tmp_path, "a.txt", "a|b|c\tto win\t-\na|b|c\t  \tsad\n")
        with pytest.raises(DataError, match=r"a\.txt:2: annotation has an empty intent field$"):
            load_annotations(path)

    def test_emotion_field_of_only_commas_rejected(self, tmp_path):
        path = write(tmp_path, "a.txt", "a|b|c\tto win\t , ,\n")
        with pytest.raises(DataError, match=r"a\.txt:1: annotation has an empty emotion field$"):
            load_annotations(path)

    def test_wrong_field_count_rejected(self, tmp_path):
        path = write(tmp_path, "a.txt", "a|b|c\tto win\tx\textra\n")
        with pytest.raises(DataError, match=r"a\.txt:1: annotation needs 3"):
            load_annotations(path)

    def test_round_trip(self, tmp_path):
        lines = [
            "a|b|c\tto win glory\tproud,happy",
            "d|e|f\t-\tsad",
            "g|h|i\tto rest\t-",
        ]
        path = write(tmp_path, "a.txt", "\n".join(lines) + "\n")
        examples = load_annotations(path)
        out = tmp_path / "a2.txt"
        save_annotations(str(out), examples)
        assert load_annotations(str(out)) == examples
        assert format_annotation(examples[0]) == lines[0]


class TestHardSim:
    def test_parse_and_round_trip(self, tmp_path):
        line = "a|b|c\td|e|f\tg|h|i\tj|k|l\n"
        path = write(tmp_path, "h.txt", line)
        (inst,) = load_hardsim(path)
        assert inst.similar[0] == EventTuple(("a",), ("b",), ("c",))
        assert inst.dissimilar[1] == EventTuple(("j",), ("k",), ("l",))
        out = tmp_path / "h2.txt"
        save_hardsim(str(out), [inst])
        assert load_hardsim(str(out)) == [inst]

    def test_wrong_count(self, tmp_path):
        path = write(tmp_path, "h.txt", "a|b|c\td|e|f\n")
        with pytest.raises(DataError, match="needs 4 events"):
            load_hardsim(path)


class TestTransitive:
    def test_parse_and_range(self, tmp_path):
        path = write(tmp_path, "t.txt", "a|b|c\td|e|f\t7.0\n")
        (inst,) = load_transitive(path)
        assert inst.gold == 7.0

    def test_out_of_range_rejected(self, tmp_path):
        path = write(tmp_path, "t.txt", "a|b|c\td|e|f\t7.5\n")
        with pytest.raises(DataError, match=r"7\.5 outside \[1, 7\]"):
            load_transitive(path)

    @pytest.mark.parametrize("gold", ["٥", "1.2_5"])
    def test_gold_must_be_plain_ascii(self, tmp_path, gold):
        path = write(tmp_path, "t.txt", f"a|b|c\td|e|f\t3\ng|h|i\tj|k|l\t{gold}\n")
        with pytest.raises(DataError, match=rf"t\.txt:2: bad gold score: '{gold}'"):
            load_transitive(path)

    def test_round_trip(self, tmp_path):
        path = write(tmp_path, "t.txt", "a|b|c\td|e|f\t3.5\ng|h|i\tj|k|l\t1\n")
        instances = load_transitive(path)
        out = tmp_path / "t2.txt"
        save_transitive(str(out), instances)
        assert load_transitive(str(out)) == instances


class TestAsciiNumber:
    @pytest.mark.parametrize(
        "text, value", [("1e-3", 1e-3), (".5", 0.5), ("5.", 5.0), ("-2", -2.0), (" 3 ", 3.0)]
    )
    def test_plain_ascii_floats_parse(self, text, value):
        assert ascii_number(float)(text) == value

    def test_ints_parse_as_int(self):
        assert type(ascii_number(int)("12")) is int and ascii_number(int)("12") == 12
        with pytest.raises(ValueError):
            ascii_number(int)("1.5")

    # all of these pass Python's int() or float()
    @pytest.mark.parametrize("text", ["1_0", "٣", "１", "1.2_5", "1e-0_3"])
    def test_underscores_and_non_ascii_digits_rejected(self, text):
        with pytest.raises(ValueError, match="not a plain ASCII float"):
            ascii_number(float)(text)
        with pytest.raises(ValueError, match="not a plain ASCII int"):
            ascii_number(int)(text)


class TestLexicon:
    def test_parse(self, tmp_path):
        path = write(tmp_path, "l.tsv", "happy\t+1\nsad\t-1\ncalm\t1\n")
        assert load_lexicon(path) == {"happy": 1, "sad": -1, "calm": 1}

    def test_bad_polarity(self, tmp_path):
        path = write(tmp_path, "l.tsv", "happy\t+2\n")
        with pytest.raises(DataError, match="polarity must be"):
            load_lexicon(path)

    def test_empty_word_rejected(self, tmp_path):
        path = write(tmp_path, "l.tsv", "happy\t+1\n \t-1\n")
        with pytest.raises(DataError, match=r"l\.tsv:2: lexicon record has an empty word$"):
            load_lexicon(path)

    @pytest.mark.parametrize("word", ["very good", "very\u00a0good"])
    def test_a_word_holding_whitespace_rejected(self, tmp_path, word):
        # emotion words are split on whitespace, so no emotion word could match it
        assert derive_polarity(tokenize(word), {word: 1}) is None
        path = write(tmp_path, "l.tsv", f"happy\t+1\n{word}\t+1\n")
        with pytest.raises(DataError, match=r"l\.tsv:2: lexicon word .* is not a single token"):
            load_lexicon(path)

    def test_round_trip(self, tmp_path):
        lexicon = {"happy": 1, "sad": -1}
        out = tmp_path / "l.tsv"
        save_lexicon(str(out), lexicon)
        assert load_lexicon(str(out)) == lexicon


class TestVocabulary:
    def test_unknown_at_index_zero(self):
        vocab = Vocabulary().extended(["a", "b"])
        assert vocab.index("a") == 1
        assert vocab.index("nope") == 0
        assert len(vocab) == 3

    def test_extended_preserves_existing_indices(self):
        vocab = Vocabulary().extended(["a", "b"])
        bigger = vocab.extended(["c", "a", "d"])
        assert bigger.index("a") == vocab.index("a")
        assert bigger.index("c") == 3
        assert len(bigger) == 5

    def test_extended_leaves_the_original_unchanged(self):
        vocab = Vocabulary().extended(["a", "b"])
        bigger = vocab.extended(["c", "b", "d", "c"])
        assert vocab.words == ["<unk>", "a", "b"]
        assert "c" not in vocab and vocab.index("d") == 0
        assert bigger.words == ["<unk>", "a", "b", "c", "d"]

    def test_covers_all_training_tokens(self, synthetic_dir):
        # vocabulary built from corpus + annotations + vectors leaves no
        # unknown training token
        vocab, _ = load_word_vectors(str(synthetic_dir / "vectors.txt"))
        corpus = load_corpus(str(synthetic_dir / "corpus.txt"))
        annotations = load_annotations(str(synthetic_dir / "annotations.txt"))
        tokens = set()
        for event in corpus:
            tokens.update(event.words())
        for ex in annotations:
            tokens.update(ex.event.words())
            tokens.update(ex.intent or ())
            tokens.update(ex.emotion_words or ())
        assert all(t in vocab for t in tokens)


class TestEventTupleInvariants:
    def test_empty_argument_rejected(self):
        with pytest.raises(ValueError, match="empty actor"):
            EventTuple((), ("p",), ("o",))

    def test_format_event(self):
        event = EventTuple(("a", "b"), ("p",), ("o",))
        assert format_event(event) == "a b|p|o"

    def test_annotated_example_defaults(self):
        ex = AnnotatedExample(EventTuple(("a",), ("p",), ("o",)))
        assert ex.intent is None and ex.emotion_words is None

    @pytest.mark.parametrize("field", ("intent", "emotion_words"))
    def test_annotated_example_rejects_an_empty_annotation(self, field):
        with pytest.raises(ValueError, match=f"empty {field}"):
            AnnotatedExample(EventTuple(("a",), ("p",), ("o",)), **{field: ()})


def _vectors_as_lists(path):
    vocab, table = load_word_vectors(path)
    return vocab.words, table.tolist()


class TestByteOrderMark:
    @pytest.mark.parametrize(
        "name, load",
        [("vectors.txt", _vectors_as_lists), ("corpus.txt", load_corpus),
         ("annotations.txt", load_annotations), ("lexicon.tsv", load_lexicon),
         ("hardsim.txt", load_hardsim), ("transitive.txt", load_transitive),
         ("config.txt", parse_config_file)],
    )
    def test_a_leading_bom_is_ignored(self, synthetic_dir, tmp_path, name, load):
        original = synthetic_dir / name
        marked = tmp_path / name
        marked.write_bytes(b"\xef\xbb\xbf" + original.read_bytes())
        assert load(str(marked)) == load(str(original))

    def test_first_word_of_a_marked_vectors_file_is_the_word(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_bytes("\ufeffalice 0.5 1.0\nbob 1.5 2.0\n".encode("utf-8"))
        vocab, table = load_word_vectors(str(path))
        assert vocab.words == [UNKNOWN_TOKEN, "alice", "bob"]
        assert table[vocab.index("alice")].tolist() == [0.5, 1.0]


LOADERS = {
    "vectors.txt": load_word_vectors, "corpus.txt": load_corpus,
    "annotations.txt": load_annotations, "lexicon.tsv": load_lexicon,
    "hardsim.txt": load_hardsim, "transitive.txt": load_transitive,
    "config.txt": parse_config_file,
}


def _line_count(data):
    """The lines of `data` as `records` numbers them: split at \\n, \\r\\n and
    a bare \\r, as a text reader splits them."""
    return len(io.TextIOWrapper(io.BytesIO(data), "latin-1").readlines())


class TestInvalidUtf8:
    @pytest.mark.parametrize("newline", (b"\n", b"\r\n", b"\r"))
    def test_the_records_before_a_bad_line_come_first(self, tmp_path, newline):
        # the text reader decodes 8 KB ahead, so all 100 lines before the bad
        # one lie in the chunk it fails on
        lines = [b"w%d 1" % i for i in range(100)] + [b"bad \xe2\x82", b"after"]
        lines[0] = b"\xef\xbb\xbf" + lines[0]
        lines[50] = b"\xef\xbb\xbf" + lines[50]
        path = tmp_path / "f.txt"
        path.write_bytes(newline.join(lines) + newline)
        want = [(i + 1, f"w{i} 1") for i in range(100)]
        want[50] = (51, "\ufeffw50 1")  # a mark that does not start the file is kept
        got = []
        with pytest.raises(DataError, match=r"f\.txt:101: invalid UTF-8 byte 0xe2$"):
            got.extend(data_module.records(str(path)))
        assert got == want
        # a range that starts later numbers its lines from its start
        start = len(newline.join(lines[:50]) + newline)
        got = []
        with pytest.raises(DataError, match=r"f\.txt:51: invalid UTF-8 byte 0xe2$"):
            got.extend(data_module.records(str(path), start, None))
        assert got == [(n - 50, line) for n, line in want[50:]]

    @pytest.mark.parametrize("name", sorted(LOADERS))
    @pytest.mark.parametrize("earlier_bad_record", (False, True))
    def test_a_loader_names_the_line_after_any_bad_record_before_it(
        self, tmp_path, name, earlier_bad_record
    ):
        # lines 2 and 3 lie in the first 8 KB that the text reader decodes
        lines = (SYNTHETIC_DIR / name).read_bytes().split(b"\n")
        lines[2] += b" \xff"
        if earlier_bad_record:
            lines[1] = b"x"  # one field: a bad record in every format
        path = tmp_path / name
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(DataError) as caught:
            LOADERS[name](str(path))
        want = "2: " if earlier_bad_record else "3: invalid UTF-8 byte 0xff"
        assert str(caught.value).startswith(f"{path}:{want}")


@st.composite
def loader_inputs(draw):
    """(file name, bytes): arbitrary bytes, or the bundled file of that name
    with a few runs of bytes replaced, inserted or deleted."""
    name = draw(st.sampled_from(sorted(LOADERS)))
    if draw(st.booleans()):
        return name, draw(st.binary(max_size=300))
    data = bytearray((SYNTHETIC_DIR / name).read_bytes())
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        data[at : at + draw(st.integers(0, 4))] = draw(st.binary(max_size=4))
    return name, bytes(data)


class TestLoaderProperties:
    @settings(max_examples=1000, deadline=None)
    @given(loader_inputs())
    def test_a_loader_returns_or_names_a_line_of_the_file(self, case):
        name, data = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, name)
            with open(path, "wb") as fh:
                fh.write(data)
            try:
                LOADERS[name](path)
            except DataError as exc:
                assert str(exc).startswith(f"{path}:{exc.line}: ")
                assert 0 <= exc.line <= _line_count(data)


# --- property tests of the readers ---------------------------------------------

WORD_CHARS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJ0123456789_-'.<>#éßΣ"
FIELD_SPACE = st.text(" \t\x0b\x0c", min_size=1, max_size=3)
FLOAT_FORMATS = (repr, "{:.17g}".format, "{:e}".format, "{:.4f}".format)


def _word():
    # a leading '#' would make the line a comment
    return st.text(WORD_CHARS, min_size=1, max_size=6).filter(lambda w: w[0] != "#")


@st.composite
def vector_files(draw):
    """(file bytes, 1-based line of each record) of a valid vectors file."""
    dim = draw(st.integers(1, 5))
    words = draw(
        st.lists(_word(), min_size=1, max_size=15, unique_by=str.lower).filter(
            lambda ws: UNKNOWN_TOKEN not in {w.lower() for w in ws}
        )
    )
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    filler = st.sampled_from(["", "   ", "\t", "# a comment", "  #indented 1 2", "#"])
    lines, linenos = [], []
    for word in words:
        lines += draw(st.lists(filler, max_size=2))
        values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                               min_size=dim, max_size=dim))
        fmt = draw(st.sampled_from(FLOAT_FORMATS))
        record = draw(st.sampled_from(["", " ", "\t"])) + word
        for value in values:
            record += draw(FIELD_SPACE) + fmt(value)
        record += draw(st.sampled_from(["", " ", "\t "]))
        lines.append(record)
        linenos.append(len(lines))
    lines += draw(st.lists(filler, max_size=2))
    tail = draw(st.sampled_from(["", newline]))
    return (newline.join(lines) + tail).encode("utf-8"), linenos


@contextlib.contextmanager
def split_into_ranges(cpus=4):
    """Split every vectors file into up to `cpus` byte ranges, however small."""
    with mock.patch.object(data_module, "VECTOR_RANGE_MIN", 1), mock.patch.object(
        os, "sched_getaffinity", lambda pid: set(range(cpus)), create=True
    ):
        yield


def _load_both(data, loader, split=False):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "vec.txt")
        with open(path, "wb") as fh:
            fh.write(data)
        results = []
        with split_into_ranges() if split else contextlib.nullcontext():
            if split:
                # a file whose line breaks all lie early stays one range
                assume(len(data_module._range_bounds(path)) > 2)
            for load in (loader, load_word_vectors_by_line):
                try:
                    results.append(load(path))
                except DataError as exc:
                    results.append(str(exc).replace(path, "vec.txt"))
        return results


def _assert_bit_equal_to_the_per_line_parser(file, split=False):
    (vocab, table), (ref_vocab, ref_table) = _load_both(file[0], load_word_vectors, split)
    assert vocab.words == ref_vocab.words
    assert table.shape == ref_table.shape
    assert np.array_equal(table.view(np.uint64), ref_table.view(np.uint64))


# the order in which the reader's checks name a bad record: a record it cannot
# parse first, then a repeated word, then a non-finite entry
CHECK_ORDER = {"lonely": 0, "entry": 0, "count": 0, "repeat": 1, "nonfinite": 2}


def _corrupt(lines, linenos, i, kind, data):
    """Make record `i` of `lines` bad in the way `kind` names."""
    record = lines[linenos[i] - 1].rstrip("\r")
    if kind == "lonely":
        record = record.split()[0]
    elif kind == "entry":
        record += " " + data.draw(st.sampled_from(["zap", "1_0", "0x1", "1,5", "--1"]))
    elif kind == "nonfinite":
        fields = record.split()
        fields[data.draw(st.integers(1, len(fields) - 1))] = data.draw(
            st.sampled_from(["nan", "inf", "-Infinity", "NaN"])
        )
        record = " ".join(fields)
    elif kind == "count":
        record += " 1.5"
    else:
        earlier = lines[linenos[data.draw(st.integers(0, i - 1))] - 1].split()[0]
        if earlier.upper().lower() == earlier.lower():  # not so for 'ß'
            earlier = earlier.upper()
        record = " ".join([earlier, *record.split()[1:]])
    lines[linenos[i] - 1] = record


def _assert_a_malformed_record_is_named(file, data, split=False):
    text, linenos = file
    lines = text.decode("utf-8").split("\n")
    i = data.draw(st.integers(0, len(linenos) - 1))
    kind = data.draw(st.sampled_from(sorted(CHECK_ORDER)))
    if kind in ("count", "repeat") and i == 0:
        i = len(linenos) - 1
        if i == 0:
            kind = "entry"
    _corrupt(lines, linenos, i, kind, data)
    if i + 1 < len(linenos) and data.draw(st.booleans()):
        # a later bad record that the reader checks no earlier changes nothing
        j = data.draw(st.integers(i + 1, len(linenos) - 1))
        later = [k for k, order in CHECK_ORDER.items() if order >= CHECK_ORDER[kind]]
        _corrupt(lines, linenos, j, data.draw(st.sampled_from(sorted(later))), data)
    got, want = _load_both("\n".join(lines).encode("utf-8"), load_word_vectors, split)
    assert isinstance(got, str), "a malformed record was accepted"
    assert got.startswith(f"vec.txt:{linenos[i]}: ")
    if kind == "entry":
        assert "bad vector entry" in got
    else:
        # the dimension, finite and repeat checks keep their messages
        assert got == want


class TestWordVectorProperties:
    @settings(max_examples=200, deadline=None)
    @given(vector_files())
    def test_bulk_parse_bit_equals_the_per_line_parser(self, file):
        _assert_bit_equal_to_the_per_line_parser(file)

    @settings(max_examples=200, deadline=None)
    @given(vector_files(), st.data())
    def test_a_malformed_record_names_its_line(self, file, data):
        _assert_a_malformed_record_is_named(file, data)

    @settings(max_examples=100, deadline=None)
    @given(vector_files())
    def test_a_parse_split_into_ranges_bit_equals_the_per_line_parser(self, file):
        _assert_bit_equal_to_the_per_line_parser(file, split=True)

    @settings(max_examples=100, deadline=None)
    @given(vector_files(), st.data())
    def test_a_malformed_record_in_any_range_names_its_line(self, file, data):
        _assert_a_malformed_record_is_named(file, data, split=True)


def _ranges(path):
    """The byte ranges a split load parses, as the text of each."""
    bounds = data_module._range_bounds(path)
    with open(path, "rb") as fh:
        text = fh.read()
    return [text[a:b] for a, b in zip(bounds, bounds[1:])]


def _same_load(path):
    """Whether a split load of `path` gives what a one-range load gives: the
    same words and table bits, or the same error."""
    def load():
        try:
            vocab, table = load_word_vectors(path)
            return vocab.words, table.tobytes()
        except DataError as exc:
            return str(exc)

    with split_into_ranges():
        split = load()
    return split == load()


class TestWordVectorRanges:
    def test_a_marked_file_drops_the_mark_in_its_first_range_only(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_bytes("\ufeffa 1 2\nb 3 4\nc 5 6\n\ufeffd 7 8\n".encode("utf-8"))
        with split_into_ranges(cpus=2):
            assert [r[:3] for r in _ranges(path)] == [b"\xef\xbb\xbf"] * 2
            vocab, _ = load_word_vectors(str(path))
        # a mark that starts a later range is no byte-order mark: it is kept
        assert vocab.words == [UNKNOWN_TOKEN, "a", "b", "c", "\ufeffd"]
        assert _same_load(str(path))

    def test_crlf_line_ends(self, tmp_path):
        path = write(tmp_path, "vec.txt", "a 1 2\r\nb 3 4\r\nc 5 6\r\nd 7 8\r\n")
        with split_into_ranges():
            assert all(r.endswith(b"\r\n") for r in _ranges(path))
            vocab, table = load_word_vectors(path)
        assert vocab.words == [UNKNOWN_TOKEN, "a", "b", "c", "d"]
        assert np.array_equal(table[1:], [[1, 2], [3, 4], [5, 6], [7, 8]])
        assert _same_load(path)

    def test_a_bare_cr_file_has_no_newline_and_stays_one_range(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_bytes(b"a 1 2\rb 3 4\rc 5 6\rd 7 8\r")
        with split_into_ranges():
            assert len(_ranges(path)) == 1
            vocab, _ = load_word_vectors(str(path))
        assert vocab.words == [UNKNOWN_TOKEN, "a", "b", "c", "d"]
        assert _same_load(str(path))

    @pytest.mark.parametrize("where", ("first", "middle"))
    def test_a_range_of_only_comments_and_blank_lines(self, tmp_path, where):
        filler = "# a comment\n\n   \n" * 10
        text = filler + "a 1 2\nb 3 4\n" if where == "first" else "a 1 2\n" + filler + "b 3 4\n"
        path = write(tmp_path, "vec.txt", text)
        with split_into_ranges():
            bounds = data_module._range_bounds(path)
            ranges = zip(bounds, bounds[1:])
            assert any(not list(data_module.records(path, a, b)) for a, b in ranges)
            vocab, table = load_word_vectors(path)
        assert vocab.words == [UNKNOWN_TOKEN, "a", "b"]
        assert np.array_equal(table, [[2, 3], [1, 2], [3, 4]])
        assert _same_load(path)

    def test_a_word_repeated_across_two_ranges(self, tmp_path):
        path = write(tmp_path, "vec.txt", "a 1 2\nb 3 4\nc 5 6\nA 7 8\n")
        with split_into_ranges(cpus=2):
            first, second = _ranges(path)
            assert b"a 1 2" in first and b"A 7 8" in second
            with pytest.raises(DataError, match=r"vec\.txt:4: word 'a' repeats line 1"):
                load_word_vectors(path)
        assert _same_load(path)

    def test_a_dimension_change_between_ranges_names_its_line(self, tmp_path):
        path = write(tmp_path, "vec.txt", "a 1 2\nb 3 4\nc 5 6 7\nd 7 8 9\n")
        with split_into_ranges(cpus=2):
            with pytest.raises(DataError, match=r"vec\.txt:3: vector has 3 entries"):
                load_word_vectors(path)

    def test_a_bad_record_in_this_process_range_reaps_a_running_worker(
        self, tmp_path, monkeypatch
    ):
        # every worker sleeps before it parses, so it still runs when the
        # range this process parses fails
        parent, parse_range, fork, forked = os.getpid(), data_module._parse_range, os.fork, []

        def sleep_in_a_worker(*args):
            if os.getpid() != parent:
                time.sleep(60)
            return parse_range(*args)

        def recording_fork():
            pid = fork()
            forked.extend([pid] if pid else [])
            return pid

        monkeypatch.setattr(data_module, "_parse_range", sleep_in_a_worker)
        monkeypatch.setattr(os, "fork", recording_fork)
        path = write(tmp_path, "vec.txt", "a 1 2\nb 1 zap\n" + "w 3 4\n" * 5)
        start = time.monotonic()
        with split_into_ranges(cpus=2), pytest.raises(DataError, match=r"vec\.txt:2: bad vector"):
            load_word_vectors(path)
        assert time.monotonic() - start < 30
        assert len(forked) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(forked[0], os.WNOHANG)

    @pytest.mark.parametrize("failure", ("worker dies", "no fork"))
    def test_a_failed_worker_leaves_the_result_unchanged(self, tmp_path, monkeypatch, failure):
        parent, parse_range = os.getpid(), data_module._parse_range

        def die_in_a_worker(*args):
            if os.getpid() != parent:
                os._exit(3)
            return parse_range(*args)

        def no_fork():
            raise OSError("no fork")

        if failure == "worker dies":
            monkeypatch.setattr(data_module, "_parse_range", die_in_a_worker)
        else:
            monkeypatch.setattr(os, "fork", no_fork)
        path = write(tmp_path, "vec.txt", "".join(f"w{i} {i} 1\n" for i in range(40)))
        with split_into_ranges():
            vocab, table = load_word_vectors(path)
        want_vocab, want_table = load_word_vectors(path)
        assert vocab.words == want_vocab.words
        assert np.array_equal(table.view(np.uint64), want_table.view(np.uint64))


TOKEN = st.text("abcdefghijklmnopqrstuvwxyz0123456789_'", min_size=1, max_size=5)
ARGUMENT = st.lists(TOKEN, min_size=1, max_size=3).map(tuple)
EVENT = st.builds(EventTuple, ARGUMENT, ARGUMENT, ARGUMENT)


def _round_trip(save, load, records):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "file.txt")
        save(path, records)
        return load(path)


class TestRoundTripProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(EVENT, max_size=8))
    def test_corpus(self, events):
        assert _round_trip(save_corpus, load_corpus, events) == events

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.builds(
                AnnotatedExample,
                EVENT,
                st.none() | ARGUMENT.filter(lambda words: words != ("-",)),
                st.none() | ARGUMENT,
            ).filter(lambda ex: ex.intent is not None or ex.emotion_words is not None),
            max_size=8,
        )
    )
    def test_annotations(self, examples):
        assert _round_trip(save_annotations, load_annotations, examples) == examples

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.builds(HardSimInstance, st.tuples(EVENT, EVENT), st.tuples(EVENT, EVENT)),
                    max_size=6))
    def test_hardsim(self, instances):
        assert _round_trip(save_hardsim, load_hardsim, instances) == instances

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.builds(TransitiveSimInstance, st.tuples(EVENT, EVENT),
                              st.integers(100, 700).map(lambda g: g / 100)), max_size=6))
    def test_transitive(self, instances):
        assert _round_trip(save_transitive, load_transitive, instances) == instances

    @settings(max_examples=50, deadline=None)
    @given(st.dictionaries(TOKEN, st.sampled_from([1, -1]), max_size=8))
    def test_lexicon(self, lexicon):
        assert _round_trip(save_lexicon, load_lexicon, lexicon) == lexicon
