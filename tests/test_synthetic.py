import filecmp

from eventemb.data import (
    load_annotations,
    load_corpus,
    load_hardsim,
    load_lexicon,
    load_transitive,
    load_word_vectors,
)
import synthetic


class TestGenerator:
    def test_committed_files_match_generator(self, synthetic_dir, tmp_path):
        # the checked-in dataset must stay reproducible from the generator
        regenerated = synthetic.write_all(str(tmp_path))
        for name, path in regenerated.items():
            committed = synthetic_dir / path.split("/")[-1]
            assert filecmp.cmp(path, committed, shallow=False), name

    def test_dataset_shape(self, synthetic_dir):
        corpus = load_corpus(str(synthetic_dir / "corpus.txt"))
        annotations = load_annotations(str(synthetic_dir / "annotations.txt"))
        hardsim = load_hardsim(str(synthetic_dir / "hardsim.txt"))
        transitive = load_transitive(str(synthetic_dir / "transitive.txt"))
        lexicon = load_lexicon(str(synthetic_dir / "lexicon.tsv"))
        vocab, table = load_word_vectors(str(synthetic_dir / "vectors.txt"))
        assert len(corpus) == 60
        assert len(annotations) == 36
        assert len(hardsim) == 24
        assert len(transitive) == 12
        assert len(lexicon) == 40
        assert table.shape[1] == 10
        assert all(ex.intent and ex.emotion_words for ex in annotations)

    def test_similar_pairs_are_lexically_disjoint(self, synthetic_dir):
        for inst in load_hardsim(str(synthetic_dir / "hardsim.txt")):
            a, b = inst.similar
            assert not set(a.words()) & set(b.words())

    def test_dissimilar_pairs_overlap_lexically(self, synthetic_dir):
        for inst in load_hardsim(str(synthetic_dir / "hardsim.txt")):
            a, b = inst.dissimilar
            assert set(a.words()) & set(b.words())

    def test_trap_groups_carry_opposite_polarity(self, synthetic_dir):
        lexicon = load_lexicon(str(synthetic_dir / "lexicon.tsv"))
        for first, second in zip(synthetic.GROUPS[::2], synthetic.GROUPS[1::2]):
            polarities = []
            for _, _, emotions in (first, second):
                polarities.append(sum(lexicon[w] for w in emotions))
            assert polarities[0] * polarities[1] < 0

    def test_every_emotion_word_is_in_the_lexicon(self, synthetic_dir):
        lexicon = load_lexicon(str(synthetic_dir / "lexicon.tsv"))
        for _, _, emotions in synthetic.GROUPS:
            assert all(w in lexicon for w in emotions)
