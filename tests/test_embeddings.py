import logging
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperproj.embeddings import (
    EmbeddingTable,
    load_embeddings,
    nearest_neighbors,
    save_embeddings_text,
    vocab_hash,
)
from hyperproj.errors import InputError


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadText:
    def test_identity_readback(self, tmp_path):
        path = write(tmp_path / "e.txt", "a 1 0\nb 0 1\n")
        table = load_embeddings(path)
        assert table.dim == 2
        assert len(table) == 2
        assert np.array_equal(table.vector("a"), [1.0, 0.0])
        assert table.lookup("b") == 1
        assert table.lookup("zzz") is None
        assert not table.normalized

    def test_unit_rows_unchanged_by_normalize(self, tmp_path):
        path = write(tmp_path / "e.txt", "a 1 0\nb 0 1\n")
        table = load_embeddings(path, normalize=True)
        assert np.array_equal(table.vector("a"), [1.0, 0.0])
        assert np.array_equal(table.vector("b"), [0.0, 1.0])
        assert table.normalized

    def test_normalization_three_four_five(self, tmp_path):
        # hand oracle: norm of (3, 4) is 5 = sqrt(9 + 16)
        path = write(tmp_path / "e.txt", "c 3 4\n")
        table = load_embeddings(path, normalize=True)
        assert np.array_equal(table.vector("c"), np.array([3.0, 4.0]) / 5.0)

    def test_header_line_skipped(self, tmp_path):
        path = write(tmp_path / "e.txt", "2 3\na 1 0 0\nb 0 1 0\n")
        table = load_embeddings(path)
        assert len(table) == 2
        assert table.dim == 3

    def test_duplicates_keep_first(self, tmp_path, caplog):
        path = write(tmp_path / "e.txt", "a 1 0\na 5 5\nb 0 1\n")
        with caplog.at_level(logging.WARNING):
            table = load_embeddings(path)
        assert np.array_equal(table.vector("a"), [1.0, 0.0])
        assert len(table) == 2
        assert "duplicate" in caplog.text

    def test_dimension_mismatch_names_line(self, tmp_path):
        path = write(tmp_path / "e.txt", "a 1 0\nb 0 1 7\n")
        with pytest.raises(InputError, match=":2"):
            load_embeddings(path)

    def test_nonfinite_rejected(self, tmp_path):
        path = write(tmp_path / "e.txt", "a 1 nan\n")
        with pytest.raises(InputError, match="non-finite"):
            load_embeddings(path)

    def test_empty_file_rejected(self, tmp_path):
        path = write(tmp_path / "e.txt", "")
        with pytest.raises(InputError, match="no embedding rows"):
            load_embeddings(path)

    def test_zero_vector_rejected_when_normalizing(self, tmp_path):
        path = write(tmp_path / "e.txt", "a 0 0\n")
        with pytest.raises(InputError, match="zero vector"):
            load_embeddings(path, normalize=True)
        # fine without normalization
        assert len(load_embeddings(path)) == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="not found"):
            load_embeddings(tmp_path / "absent.txt")


class TestLoadBinary:
    @staticmethod
    def _binary_bytes(entries, dim, newline_after_vector=True):
        out = [f"{len(entries)} {dim}\n".encode()]
        for word, vec in entries:
            out.append(word.encode("utf-8") + b" ")
            out.append(struct.pack(f"<{dim}f", *vec))
            if newline_after_vector:
                out.append(b"\n")
        return b"".join(out)

    @pytest.mark.parametrize("trailing_newline", [True, False])
    def test_roundtrip(self, tmp_path, trailing_newline):
        entries = [("alpha", [1.0, -2.5]), ("beta", [0.25, 4.0])]
        path = tmp_path / "e.bin"
        path.write_bytes(self._binary_bytes(entries, 2, trailing_newline))
        table = load_embeddings(path, format="binary")
        assert table.vocab == ["alpha", "beta"]
        # values are exactly representable in float32
        assert np.array_equal(table.vector("alpha"), [1.0, -2.5])
        assert table.vectors.dtype == np.float64

    def test_truncated(self, tmp_path):
        entries = [("alpha", [1.0, 2.0])]
        blob = self._binary_bytes(entries, 2)[:-5]
        path = tmp_path / "e.bin"
        path.write_bytes(blob.replace(b"1 2", b"2 2", 1))
        with pytest.raises(InputError, match="truncated"):
            load_embeddings(path, format="binary")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "e.bin"
        path.write_bytes(b"hello world\n")
        with pytest.raises(InputError, match="header"):
            load_embeddings(path, format="binary")


class TestSaveText:
    def test_roundtrip_is_bitwise(self, tmp_path):
        # values written with 9 significant digits parse back to the same doubles
        rng = np.random.default_rng(3)
        lines = ["w%d %s" % (i, " ".join(f"{v:.9g}" for v in rng.normal(size=4)))
                 for i in range(20)]
        src = write(tmp_path / "src.txt", "\n".join(lines) + "\n")
        table = load_embeddings(src)
        out = tmp_path / "copy.txt"
        save_embeddings_text(table, out)
        again = load_embeddings(out)
        assert again.vocab == table.vocab
        assert np.array_equal(again.vectors, table.vectors)


class TestNearestNeighbors:
    def test_hand_cosine(self, tiny_table):
        # cosines with (1,0): a=1, b=0, c=-1
        nn = nearest_neighbors(tiny_table, np.array([1.0, 0.0]), 2)
        assert nn.entries == [("a", 1.0), ("b", 0.0)]

    def test_exclusion(self, tiny_table):
        nn = nearest_neighbors(tiny_table, np.array([1.0, 0.0]), 2, exclude="a")
        assert nn.entries == [("b", 0.0), ("c", -1.0)]

    def test_l_larger_than_vocab(self, tiny_table):
        nn = nearest_neighbors(tiny_table, np.array([1.0, 0.0]), 5)
        assert len(nn.entries) == 3

    def test_zero_query_rejected(self, tiny_table):
        with pytest.raises(InputError, match="zero query"):
            nearest_neighbors(tiny_table, np.zeros(2), 1)

    def test_tie_broken_by_vocab_index(self):
        table = EmbeddingTable(["x", "y"], np.array([[0.0, 1.0], [0.0, 1.0]]))
        nn = nearest_neighbors(table, np.array([0.0, 2.0]), 2)
        assert nn.words() == ["x", "y"]

    def test_zero_rows_unusable_under_cosine(self):
        table = EmbeddingTable(["z", "a"], np.array([[0.0, 0.0], [1.0, 0.0]]))
        nn = nearest_neighbors(table, np.array([1.0, 0.0]), 5)
        assert nn.words() == ["a"]

    def test_every_word_is_its_own_neighbor(self, tiny_table):
        for word in tiny_table.vocab:
            nn = nearest_neighbors(tiny_table, tiny_table.vector(word), 1)
            assert nn.entries[0][0] == word

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(17)
        vocab = [f"w{i}" for i in range(400)]
        table = EmbeddingTable(vocab, rng.normal(size=(400, 5)))
        for _ in range(10):
            q = rng.normal(size=5)
            got = nearest_neighbors(table, q, 7)
            # independent scan in plain python
            import math

            scored = []
            for i, w in enumerate(vocab):
                v = table.vectors[i]
                dot = sum(float(a) * float(b) for a, b in zip(q, v))
                norm = math.sqrt(sum(float(a) ** 2 for a in v)) * math.sqrt(
                    sum(float(b) ** 2 for b in q))
                scored.append((w, dot / norm))
            scored.sort(key=lambda t: -t[1])
            assert got.words() == [w for w, _ in scored[:7]]
            np.testing.assert_allclose(
                [s for _, s in got.entries], [s for _, s in scored[:7]], atol=1e-12)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_scores_non_increasing(self, seed):
        rng = np.random.default_rng(seed)
        table = EmbeddingTable([f"w{i}" for i in range(30)], rng.normal(size=(30, 4)))
        nn = nearest_neighbors(table, rng.normal(size=4), 10)
        scores = [s for _, s in nn.entries]
        assert all(a >= b for a, b in zip(scores, scores[1:]))
        assert len(set(nn.words())) == len(nn.words())


def test_duplicate_vocab_rejected_in_table():
    with pytest.raises(InputError, match="duplicate"):
        EmbeddingTable(["a", "a"], np.eye(2))


def test_vocab_hash_changes_with_vocab(tiny_table):
    other = EmbeddingTable(["a", "b", "d"], tiny_table.vectors.copy())
    assert vocab_hash(tiny_table) != vocab_hash(other)
    assert vocab_hash(tiny_table) == vocab_hash(tiny_table)
