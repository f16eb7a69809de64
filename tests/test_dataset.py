import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperproj.dataset import (
    BUCKETS,
    RelationDataset,
    RelationPair,
    build_dataset,
    lexical_split,
    load_relations,
    negative_index,
    read_split_dir,
    sample_negative,
    sample_negatives,
    write_split,
)
from hyperproj.embeddings import EmbeddingTable
from hyperproj.errors import InputError


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def table_for(words, dim=2, seed=0):
    rng = np.random.default_rng(seed)
    return EmbeddingTable(list(words), rng.normal(size=(len(words), dim)))


class TestLoadRelations:
    def test_single_row(self, tmp_path):
        path = write(tmp_path / "r.tsv", "dog\tanimal\thypernym\n")
        pairs = load_relations(path)
        assert pairs == [RelationPair("dog", "animal", "hypernym")]

    def test_duplicates_dropped_with_count(self, tmp_path, caplog):
        path = write(tmp_path / "r.tsv", "dog\tanimal\thypernym\ndog\tanimal\thypernym\n")
        with caplog.at_level(logging.WARNING):
            pairs = load_relations(path)
        assert len(pairs) == 1
        assert "1 duplicate" in caplog.text

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path / "r.tsv", "# header\n\ndog\tanimal\thypernym\n")
        assert len(load_relations(path)) == 1

    def test_source_equals_target_rejected(self, tmp_path):
        path = write(tmp_path / "r.tsv", "dog\tdog\tsynonym\n")
        with pytest.raises(InputError, match=":1"):
            load_relations(path)

    def test_unknown_relation_names_line(self, tmp_path):
        path = write(tmp_path / "r.tsv", "dog\tanimal\thypernym\ndog\tcat\tantonym\n")
        with pytest.raises(InputError, match=":2"):
            load_relations(path)

    def test_too_few_columns_names_line(self, tmp_path):
        path = write(tmp_path / "r.tsv", "dog animal hypernym\n")
        with pytest.raises(InputError, match=":1"):
            load_relations(path)


def hyp(a, b):
    return RelationPair(a, b, "hypernym")


class TestLexicalSplit:
    def test_two_components_land_apart(self):
        pairs = [hyp("a", "b"), hyp("c", "d")]
        assignment = lexical_split(pairs, (0.5, 0.25, 0.25), seed=1)
        assert len(set(assignment)) == 2  # separate components, separate buckets

    def test_shared_word_merges_components(self):
        pairs = [hyp("a", "b"), hyp("b", "c")]
        assignment = lexical_split(pairs, (0.5, 0.25, 0.25), seed=5)
        assert assignment[0] == assignment[1]

    def test_fractions_reached_on_disjoint_pairs(self):
        pairs = [hyp(f"x{i}", f"y{i}") for i in range(1000)]
        assignment = lexical_split(pairs, (0.8, 0.1, 0.1), seed=42)
        counts = {b: assignment.count(b) for b in BUCKETS}
        assert abs(counts["train"] - 800) <= 20
        assert abs(counts["validation"] - 100) <= 20
        assert abs(counts["test"] - 100) <= 20

    def test_determinism(self):
        pairs = [hyp(f"x{i}", f"y{i}") for i in range(200)]
        a = lexical_split(pairs, (0.6, 0.2, 0.2), seed=9)
        b = lexical_split(pairs, (0.6, 0.2, 0.2), seed=9)
        assert a == b
        c = lexical_split(pairs, (0.6, 0.2, 0.2), seed=10)
        assert a != c

    def test_oversized_component_warns_but_assigns(self, caplog):
        chain = [hyp(f"w{i}", f"w{i + 1}") for i in range(10)]
        extra = [hyp("p", "q"), hyp("r", "s")]
        with caplog.at_level(logging.WARNING):
            assignment = lexical_split(chain + extra, (0.5, 0.25, 0.25), seed=0)
        assert "exceeds" in caplog.text
        assert all(a in BUCKETS for a in assignment)
        assert len(set(assignment[:10])) == 1

    @pytest.mark.parametrize("fractions", [(0.5, 0.4, 0.0), (0.5, 0.25, 0.15), (-0.2, 0.6, 0.6)])
    def test_bad_fractions_rejected(self, fractions):
        with pytest.raises(InputError):
            lexical_split([hyp("a", "b")], fractions, seed=0)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.integers(min_value=5, max_value=60))
    @settings(max_examples=30, deadline=None)
    def test_vocabulary_disjointness(self, seed, n):
        rng = np.random.default_rng(seed)
        words = [f"w{i}" for i in range(n * 2)]
        pairs = []
        for _ in range(n):
            a, b = rng.choice(len(words), size=2, replace=False)
            pairs.append(hyp(words[a], words[b]))
        pairs = list(dict.fromkeys(pairs))
        assignment = lexical_split(pairs, (0.6, 0.2, 0.2), seed=seed)
        data = RelationDataset(pairs, assignment, [])
        vocabs = [data.vocabulary(b) for b in BUCKETS]
        assert not (vocabs[0] & vocabs[1])
        assert not (vocabs[0] & vocabs[2])
        assert not (vocabs[1] & vocabs[2])


class TestBuildDataset:
    def test_unresolvable_pairs_dropped(self):
        table = table_for(["a", "b", "c"])
        pairs = [hyp("a", "b"), hyp("a", "zzz"), RelationPair("c", "qqq", "synonym")]
        data = build_dataset(pairs, table)
        assert len(data.positives) == 1
        assert data.dropped_positives == 1
        assert data.dropped_negatives == 1

    def test_negatives_map_built(self):
        table = table_for(["a", "b", "c", "d"])
        pairs = [hyp("a", "b"),
                 RelationPair("a", "c", "synonym"),
                 RelationPair("a", "d", "cohyponym")]
        data = build_dataset(pairs, table)
        assert data.negatives == {"a": ["c", "d"]}


class TestSampleNegative:
    def _dataset(self, negatives, positives=None, assignment=None):
        positives = positives or [hyp("dog", "animal")]
        assignment = assignment or ["train"] * len(positives)
        return RelationDataset(positives, assignment, negatives)

    def test_single_candidate(self):
        data = self._dataset([RelationPair("dog", "hound", "synonym")])
        rng = np.random.default_rng(0)
        assert sample_negative(data, "dog", rng) == "hound"

    def test_fallback_to_source(self):
        data = self._dataset([])
        rng = np.random.default_rng(0)
        assert sample_negative(data, "dog", rng) == "dog"

    def test_heldout_words_excluded(self):
        # "feline" appears in a test-bucket pair, so it cannot be sampled
        positives = [hyp("dog", "animal"), hyp("feline", "creature")]
        data = RelationDataset(positives, ["train", "test"],
                               [RelationPair("dog", "feline", "synonym")])
        rng = np.random.default_rng(0)
        assert sample_negative(data, "dog", rng) == "dog"

    def test_uniform_over_two_candidates(self):
        data = self._dataset([RelationPair("dog", "hound", "synonym"),
                              RelationPair("dog", "puppy", "synonym")])
        rng = np.random.default_rng(123)
        draws = [sample_negative(data, "dog", rng) for _ in range(10_000)]
        freq = draws.count("hound") / len(draws)
        assert abs(freq - 0.5) < 0.02

    def test_never_out_of_vocabulary(self):
        table = table_for(["a", "b", "c"])
        pairs = [hyp("a", "b"), RelationPair("a", "c", "synonym"),
                 RelationPair("a", "zz", "synonym")]
        data = build_dataset(pairs, table)
        rng = np.random.default_rng(7)
        for _ in range(200):
            assert sample_negative(data, "a", rng) in table


class TestSampleNegatives:
    """The one-call sampler against a loop of the one-word reference form."""

    @pytest.fixture
    def fixture(self):
        sources = ["dog", "cat", "fox", "owl", "eel"]
        table = table_for(sources + ["animal", "held", "creature",
                                     "hound", "puppy", "kitten", "vixen"])
        positives = [hyp(w, "animal") for w in sources] + [hyp("held", "creature")]
        negatives = [
            RelationPair("dog", "hound", "synonym"),
            RelationPair("dog", "held", "cohyponym"),  # test-bucket word: excluded
            RelationPair("dog", "puppy", "synonym"),
            RelationPair("cat", "kitten", "synonym"),  # single candidate
            RelationPair("fox", "held", "cohyponym"),  # only candidate held out: falls back
            RelationPair("owl", "vixen", "cohyponym"),
            RelationPair("owl", "dog", "cohyponym"),
            RelationPair("owl", "cat", "cohyponym"),
        ]  # eel has no negative at all: falls back
        data = RelationDataset(positives, ["train"] * 5 + ["test"], negatives)
        return data, table, [table.lookup(w) for w in sources]

    def test_index_keeps_candidate_order(self, fixture):
        data, table, _ = fixture
        indptr, indices = negative_index(data, table)
        assert indptr.shape == (len(table) + 1,)
        cands = {w: [table.vocab[i] for i in indices[indptr[s]:indptr[s + 1]]]
                 for s, w in enumerate(table.vocab)}
        assert cands["dog"] == ["hound", "puppy"]
        assert cands["owl"] == ["vixen", "dog", "cat"]
        assert cands["cat"] == ["kitten"]
        assert cands["fox"] == cands["eel"] == cands["hound"] == []

    def test_index_rejects_candidate_outside_table(self):
        data = RelationDataset([hyp("a", "b")], ["train"], [RelationPair("a", "zz", "synonym")])
        with pytest.raises(InputError, match="'zz' of 'a'"):
            negative_index(data, table_for(["a", "b"]))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_same_draws_and_stream_as_the_loop(self, fixture, seed):
        data, table, rows = fixture
        order = np.random.default_rng(100 + seed).choice(rows, size=300)
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_negatives(*negative_index(data, table), order, fast)
        want = [table.lookup(sample_negative(data, table.vocab[s], slow)) for s in order]
        assert got.tolist() == want
        assert table.lookup("held") not in want
        assert np.array_equal(fast.permutation(50), slow.permutation(50))

    @pytest.mark.parametrize("words", [[], ["fox", "eel", "eel"]], ids=["empty", "fallbacks"])
    def test_fallbacks_draw_nothing(self, fixture, words):
        data, table, _ = fixture
        order = np.array([table.lookup(w) for w in words], dtype=np.int64)
        rng = np.random.default_rng(5)
        assert sample_negatives(*negative_index(data, table), order, rng).tolist() == \
            order.tolist()
        assert np.array_equal(rng.permutation(50), np.random.default_rng(5).permutation(50))


class TestSplitRoundTrip:
    def test_write_then_read(self, tmp_path):
        table = table_for([f"w{i}" for i in range(40)])
        pairs = [hyp(f"w{i}", f"w{i + 20}") for i in range(15)]
        pairs += [RelationPair("w0", "w19", "synonym")]
        data = build_dataset(pairs, table, fractions=(0.6, 0.2, 0.2), seed=4)
        write_split(data, tmp_path)
        again = read_split_dir(tmp_path, table)
        # bucket files group pairs by bucket; the pair -> bucket mapping survives
        assert dict(zip(again.positives, again.assignment)) == dict(
            zip(data.positives, data.assignment))
        assert again.negatives == data.negatives

    def test_deterministic_bytes(self, tmp_path):
        table = table_for([f"w{i}" for i in range(20)])
        pairs = [hyp(f"w{i}", f"w{i + 10}") for i in range(8)]
        d1, d2 = tmp_path / "one", tmp_path / "two"
        write_split(build_dataset(pairs, table, seed=3), d1)
        write_split(build_dataset(pairs, table, seed=3), d2)
        for name in ("train.tsv", "validation.tsv", "test.tsv", "negatives.tsv",
                     "split_manifest.tsv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_missing_bucket_file(self, tmp_path):
        with pytest.raises(InputError, match="missing"):
            read_split_dir(tmp_path, table_for(["a"]))
