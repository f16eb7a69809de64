import hashlib
import logging
import os
import struct
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperproj import embeddings
from hyperproj.embeddings import (
    TEXT_PRECISION,
    EmbeddingTable,
    _is_int,
    _normalize_rows,
    load_embeddings,
    nearest_neighbors,
    save_embeddings_text,
    vocab_hash,
)
from hyperproj.errors import InputError, utf8_lines

from conftest import TILINGS, exact_cosines, set_tiling, top_indices


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
        assert np.array_equal(table.vector("b"), [0.0, 1.0])  # the rows after a duplicate move up
        assert len(table) == 2
        assert "dropped 1 duplicate" in caplog.text

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


BOM = "\ufeff".encode()  # the UTF-8 byte-order mark, EF BB BF


@pytest.mark.parametrize("cached", [False, True], ids=["parse", "cache"])
class TestTextHeaderAndByteOrderMark:
    """A leading byte-order mark is dropped, and a `count dim` header must match the rows."""

    @staticmethod
    def load(path, cached, tmp_path):
        return load_embeddings(path, cache=tmp_path / "cache" if cached else None)

    def test_mark_before_a_header(self, tmp_path, cached):
        path = tmp_path / "e.txt"
        path.write_bytes(BOM + b"3 2\nhypo 1 0\nhyper 0 1\nother 1 1\n")
        table = self.load(path, cached, tmp_path)
        assert table.vocab == ["hypo", "hyper", "other"] and table.dim == 2

    def test_mark_without_a_header(self, tmp_path, cached):
        path = tmp_path / "e.txt"
        path.write_bytes(BOM + b"hypo 1 0\nhyper 0 1\n")
        assert self.load(path, cached, tmp_path).vocab == ["hypo", "hyper"]

    @pytest.mark.parametrize("data", [b"\xef", b"\xef\xbb", b"\xef\xbbhypo 1 0\n"])
    def test_cut_mark_is_not_utf8(self, tmp_path, cached, data):
        path = tmp_path / "e.txt"
        path.write_bytes(data)
        with pytest.raises(InputError, match=":1: not valid UTF-8"):
            self.load(path, cached, tmp_path)

    def test_only_one_mark_is_dropped(self, tmp_path, cached):
        path = tmp_path / "e.txt"
        path.write_bytes(BOM + BOM + b"hypo 1 0\n")
        assert self.load(path, cached, tmp_path).vocab == ["\ufeffhypo"]

    @pytest.mark.parametrize("text, expected", [
        ("5 2\na 1 0\nb 0 1\n", "e.txt: header declares 5 rows, the file holds 2"),
        ("1 2\na 1 0\nb 0 1\n", "e.txt: header declares 1 rows, the file holds 2"),
        ("2 3\na 1 0\nb 0 1\n", "e.txt:2: dimension mismatch (got 2, expected 3)"),
        ("3 0\na 1 0\nb 0 1\n", "e.txt: header declares count=3 dim=0"),
        ("2 -3\na 1 0\nb 0 1\n", "e.txt: header declares count=2 dim=-3"),
        ("0 2\n", "e.txt: header declares count=0 dim=2"),
        ("2 3\na x 0\nb 0 1\n", "e.txt:2: unparsable vector component"),  # before the mismatch
        ("2 2\na 1 0\nb 0 1 2\n", "e.txt:3: dimension mismatch (got 3, expected 2)"),
        ("2 2\n", "e.txt: no embedding rows found"),
    ], ids=["count-above", "count-below", "dim", "dim-0", "dim-negative", "count-0",
            "unparsable-first", "later-row", "no-rows"])
    def test_header_must_match_the_rows(self, tmp_path, cached, text, expected):
        path = write(tmp_path / "e.txt", text)
        with pytest.raises(InputError) as exc:
            self.load(path, cached, tmp_path)
        assert str(exc.value).startswith(f"{tmp_path}/{expected}")
        assert not (tmp_path / "cache").exists() or not entries(tmp_path / "cache")

    def test_header_counts_duplicate_rows(self, tmp_path, cached):
        path = write(tmp_path / "e.txt", "3 2\na 1 0\na 5 5\nb 0 1\n")
        assert self.load(path, cached, tmp_path).vocab == ["a", "b"]


def test_an_entry_of_the_old_rules_is_not_served(tmp_path):
    # before headers were checked, and a byte-order mark dropped, this file loaded
    # and its entry was stored as version 2; that entry must be a miss now
    path = write(tmp_path / "e.txt", "5 2\na 1 0\nb 0 1\n")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    name = entry_name(path)  # at this version's name, so the header's version is checked
    with mock.patch.object(embeddings, "CACHE_VERSION", 2):
        embeddings._write_entry(tmp_path / "cache" / name, digest, ["a", "b"], np.eye(2))
    with pytest.raises(InputError, match="header declares 5 rows"):
        load_embeddings(path, cache=tmp_path / "cache")


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

    def test_payload_one_byte_short_is_truncated(self, tmp_path):
        path = tmp_path / "e.bin"
        path.write_bytes(self._binary_bytes([("ab", [1.0, 2.0])], 2, False)[:-1])
        with pytest.raises(InputError, match="truncated at word 1 of 1"):
            load_embeddings(path, format="binary")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "e.bin"
        path.write_bytes(b"hello world\n")
        with pytest.raises(InputError, match="header"):
            load_embeddings(path, format="binary")


# ---------------------------------------------------------------------------
# reference loaders: the row-by-row readers the block parsers must agree with
# ---------------------------------------------------------------------------


def _reference_finish(words, rows, normalize, path):
    if not words:
        raise InputError(f"{path}: no embedding rows found")
    vectors = np.vstack(rows)
    if normalize:
        vectors = _normalize_rows(vectors, path)
    return EmbeddingTable(words, vectors, normalized=normalize)


def reference_load_text(path: Path, normalize: bool) -> EmbeddingTable:
    words, rows, seen, dim, count, n_rows = [], [], set(), None, None, 0
    for lineno, line in utf8_lines(path):
        line = line.rstrip("\n")
        if not line:
            continue
        tokens = line.split(" ")
        if tokens and tokens[-1] == "":
            tokens.pop()
        if lineno == 1 and len(tokens) == 2 and _is_int(tokens[0]) and _is_int(tokens[1]):
            count, dim = int(tokens[0]), int(tokens[1])  # the rows must match both
            if count < 1 or dim < 1:
                raise InputError(f"{path}: header declares count={count} dim={dim}")
            continue
        if len(tokens) < 2:
            raise InputError(f"{path}:{lineno}: expected `word v1 ... vd`")
        word = tokens[0]
        try:
            vec = np.array([float(t) for t in tokens[1:]], dtype=np.float64)
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: unparsable vector component ({exc})") from None
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise InputError(
                f"{path}:{lineno}: dimension mismatch (got {vec.size}, expected {dim})")
        if not np.isfinite(vec).all():
            raise InputError(f"{path}:{lineno}: non-finite vector component")
        n_rows += 1
        if word in seen:
            continue
        seen.add(word)
        words.append(word)
        rows.append(vec)
    if words and count is not None and count != n_rows:
        raise InputError(f"{path}: header declares {count} rows, the file holds {n_rows}")
    return _reference_finish(words, rows, normalize, str(path))


def reference_load_binary(path: Path, normalize: bool) -> EmbeddingTable:
    data = path.read_bytes()
    if not data:
        raise InputError(f"{path}: empty file")
    nl = data.find(b"\n")
    if nl < 0:
        raise InputError(f"{path}: missing `count dim` header")
    header = data[:nl].split()
    if len(header) != 2 or not all(_is_int(t.decode("ascii", "replace")) for t in header):
        raise InputError(f"{path}: malformed header {data[:nl]!r}")
    count, dim = int(header[0]), int(header[1])
    if count < 1 or dim < 1:
        raise InputError(f"{path}: header declares count={count} dim={dim}")
    vec_bytes = 4 * dim
    pos = nl + 1
    words, rows, seen = [], [], set()
    for i in range(count):
        while pos < len(data) and data[pos : pos + 1] in (b"\n", b" "):
            pos += 1
        end = data.find(b" ", pos)
        if end < 0 or end + 1 + vec_bytes > len(data):  # the parent checked `end + vec_bytes`
            raise InputError(f"{path}: truncated at word {i + 1} of {count}")
        try:
            word = data[pos:end].decode("utf-8")
        except UnicodeDecodeError:
            raise InputError(
                f"{path}: word {i + 1} of {count} is not valid UTF-8 ({data[pos:end]!r})"
            ) from None
        vec = np.frombuffer(data, dtype="<f4", count=dim, offset=end + 1).astype(np.float64)
        pos = end + 1 + vec_bytes
        if not np.isfinite(vec).all():
            raise InputError(f"{path}: non-finite value in vector for {word!r}")
        if word in seen:
            continue
        seen.add(word)
        words.append(word)
        rows.append(vec)
    return _reference_finish(words, rows, normalize, str(path))


def outcome(load, path, normalize):
    """What a loader makes of a file: its table's bytes or its InputError message.

    Any other exception propagates and fails the test.
    """
    try:
        table = load(path, normalize)
    except InputError as exc:
        return "error", str(exc)
    return "table", table.vocab, table.vectors.shape, table.vectors.tobytes(), table.normalized


# components that float() treats in every way it can: special values,
# underscores, surrounding whitespace, non-ASCII digits, garbage
ODD_COMPONENTS = ["nan", "-inf", "Infinity", "1e999", "-1e-400", "1_000", "1__0", "_1",
                  "\t2 ", "\u0663", "\u0661\u066b5", "\u00b2", "0x10", "+.5", "-0", "",
                  "x", "1,5", "\x0c3", "\u20077"]
WORD = st.text(alphabet="ab\u00e9\u65e5%\t", min_size=1, max_size=3)


@st.composite
def text_files(draw):
    """A text embedding file, valid or broken by a few mutations."""
    dim = draw(st.integers(1, 4))
    value = st.floats(width=64)
    lines = [[draw(WORD)] + [draw(st.sampled_from([repr, "{:.9g}".format]))(draw(value))
                             for _ in range(dim)]
             for _ in range(draw(st.integers(0, 7)))]
    if draw(st.booleans()):
        lines.insert(0, [str(len(lines)), str(dim)])
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        line = draw(st.sampled_from(lines))
        if not line:
            continue
        kind = draw(st.sampled_from(["replace", "drop", "add", "blank", "repeat"]))
        at = draw(st.integers(0, len(line) - 1))
        if kind == "replace":
            line[at] = draw(st.sampled_from(ODD_COMPONENTS) | st.text(max_size=3))
        elif kind == "drop":
            del line[at]
        elif kind == "add":
            line.insert(at, draw(st.sampled_from(ODD_COMPONENTS)))
        else:
            lines.insert(draw(st.integers(0, len(lines))), [] if kind == "blank" else list(line))
    data = "".join(" ".join(line) + draw(st.sampled_from(["\n", " \n", "\r\n"]))
                   for line in lines).encode("utf-8")
    if data and draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"", b"\n"]))
    return data


@st.composite
def binary_files(draw):
    """A word2vec binary file, valid or broken by a few mutations."""
    dim = draw(st.integers(1, 3))
    entries = draw(st.lists(st.tuples(WORD,
                                      st.lists(st.floats(width=32), min_size=dim,
                                               max_size=dim)),
                            min_size=1, max_size=6))
    count = draw(st.sampled_from([len(entries), len(entries) + 1, max(1, len(entries) - 1)]))
    data = bytearray(f"{count} {dim}\n".encode())
    for word, values in entries:
        data += word.encode("utf-8") + b" " + struct.pack(f"<{dim}f", *values)
        if draw(st.booleans()):
            data += b"\n"
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data) - 1))
        data[at] = draw(st.integers(0, 255))
    if draw(st.booleans()):
        data = data[:draw(st.integers(0, len(data)))]
    return bytes(data)


def load_text(path, normalize):
    return load_embeddings(path, "text", normalize)


def load_binary(path, normalize):
    return load_embeddings(path, "binary", normalize)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "emb"


# a block holds max(1, PARSE_TOKENS // dim) rows: one row, a few rows, the whole file
BLOCK_SIZES = pytest.mark.parametrize("parse_tokens", [1, 4, embeddings.PARSE_TOKENS])


# norms of rows near 1e308 overflow; float32 signalling NaNs warn when cast
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered in cast:RuntimeWarning")
class TestLoadersMatchReference:
    @BLOCK_SIZES
    @given(data=text_files() | st.binary(max_size=200), normalize=st.booleans())
    @settings(deadline=None)
    def test_text(self, fuzz_file, parse_tokens, data, normalize):
        fuzz_file.write_bytes(data)
        with mock.patch.object(embeddings, "PARSE_TOKENS", parse_tokens):
            got = outcome(load_text, fuzz_file, normalize)
        assert got == outcome(reference_load_text, fuzz_file, normalize)

    @given(data=binary_files() | st.binary(max_size=200), normalize=st.booleans())
    @settings(deadline=None)
    def test_binary(self, fuzz_file, data, normalize):
        fuzz_file.write_bytes(data)
        assert (outcome(load_binary, fuzz_file, normalize)
                == outcome(reference_load_binary, fuzz_file, normalize))

    @BLOCK_SIZES
    @pytest.mark.parametrize("lines, expected", [
        (["a 1 2", "b nan 2", "c x 2"], ":2: non-finite"),
        (["a 1 2", "b 1 2", "c nan 2", "d inf 1"], ":3: non-finite"),
        (["a 1 2", "b nan 2", "c 1"], ":2: non-finite"),
        (["a 1 2", "b nan 2", "c"], ":2: non-finite"),
        (["a 1 2", "b 1 2", "c x"], ":3: unparsable"),
        (["a 1 2", "b 1 2", "c 1 nan 3"], ":3: dimension mismatch"),
        (["a 1 2", "b 1 x", "c 1 nan"], ":2: unparsable"),
        (["a 1 2", "b 1 inf", "\udcff 1 2"], ":2: non-finite"),
    ])
    def test_first_failing_line_is_reported(self, tmp_path, parse_tokens, lines, expected):
        path = tmp_path / "e.txt"
        path.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape") + b"\n")
        with mock.patch.object(embeddings, "PARSE_TOKENS", parse_tokens):
            with pytest.raises(InputError, match=expected) as got:
                load_embeddings(path)
        with pytest.raises(InputError) as want:
            reference_load_text(path, False)
        assert str(got.value) == str(want.value)


def _fstring_writer(table, path):
    """The per-value writer save_embeddings_text must match byte for byte."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(table)} {table.dim}\n")
        for word, row in zip(table.vocab, table.vectors):
            comps = " ".join(f"{v:.{TEXT_PRECISION}g}" for v in row)
            fh.write(f"{word} {comps}\n")


# four rows of four, none with an L2 norm above the float64 maximum
EXTREMES = [1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324, -0.0, 1.7976931348623157e308,
            1e308, -1e308, 0.0, 2.2250738585072014e-308,
            1 / 3, 123456789.0, 1e16, -2.5]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # norms of 1e308 rows
class TestSaveText:
    def test_extremes_match_fstring_writer_and_roundtrip(self, tmp_path):
        table = EmbeddingTable(["a", "%s", "\u65e5\u672c", "n\u00e9"],
                               np.array(EXTREMES).reshape(4, 4))
        save_embeddings_text(table, tmp_path / "new.txt")
        _fstring_writer(table, tmp_path / "old.txt")
        first = (tmp_path / "new.txt").read_bytes()
        assert first == (tmp_path / "old.txt").read_bytes()
        # what was written once reads back and rewrites bit for bit
        again = load_embeddings(tmp_path / "new.txt")
        save_embeddings_text(again, tmp_path / "again.txt")
        assert (tmp_path / "again.txt").read_bytes() == first
        assert load_embeddings(tmp_path / "again.txt").vectors.tobytes() == again.vectors.tobytes()

    # three components of at most 1e308 keep a row's norm finite
    @given(st.lists(st.floats(min_value=-1e308, max_value=1e308),
                    min_size=3, max_size=30).map(lambda v: v[:len(v) // 3 * 3]))
    @settings(deadline=None)
    def test_matches_fstring_writer(self, fuzz_file, values):
        table = EmbeddingTable([f"w{i}" for i in range(len(values) // 3)],
                               np.array(values).reshape(-1, 3))
        save_embeddings_text(table, fuzz_file)
        new = fuzz_file.read_bytes()
        _fstring_writer(table, fuzz_file)
        assert new == fuzz_file.read_bytes()

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

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_words=st.integers(1, 30),
           dim=st.sampled_from([1, 2, 3, 10]), copies=st.integers(0, 6), zeros=st.integers(0, 3),
           l=st.integers(1, 35), exclude=st.sampled_from(["none", "present", "missing"]),
           power=st.sampled_from([-1060, -300, 0, 300, 1000]),
           tiling=st.sampled_from(list(TILINGS)))
    def test_property_equals_the_exact_scan(self, seed, n_words, dim, copies, zeros, l,
                                            exclude, power, tiling):
        # duplicate rows tie exactly, l may exceed the usable vocabulary, and queries
        # near the float64 limits have subnormal entries or overflowing squares
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(n_words, dim))
        for _ in range(copies):
            src, dst = rng.integers(n_words, size=2)
            vectors[dst] = vectors[src]
        vectors[rng.integers(n_words, size=zeros)] = 0.0
        table = EmbeddingTable([f"w{i}" for i in range(n_words)], vectors)
        query = rng.normal(size=dim) * 2.0 ** power
        word = {"none": None, "present": f"w{rng.integers(n_words)}", "missing": "absent"}[exclude]
        row = table.lookup(word) if word is not None else None
        scores = exact_cosines(table, query[None, :], [-1 if row is None else row])[0]
        want = top_indices(scores, l)
        with pytest.MonkeyPatch.context() as mp:
            set_tiling(mp, tiling)
            if not query.any():  # every entry fell below the subnormals
                with pytest.raises(InputError, match="zero query"):
                    nearest_neighbors(table, query, l, exclude=word)
                return
            nn = nearest_neighbors(table, query, l, exclude=word)
        assert nn.words() == [table.vocab[i] for i in want]
        assert np.array([s for _, s in nn.entries]).tobytes() == scores[want].tobytes()
        with pytest.raises(InputError, match="zero query"):
            nearest_neighbors(table, np.zeros(dim), l, exclude=word)

    def test_top_cosines_without_an_exclusion_keeps_the_last_row(self):
        table = EmbeddingTable(["a", "b", "c"], np.array([[0.0, 1.0], [1.0, 1.0], [1.0, 0.0]]))
        rows, scores = embeddings.top_cosines(table, np.array([[2.0, 0.0]]), 2, None)
        assert rows.tolist() == [2, 1] and scores.tolist() == pytest.approx([1.0, 0.5 ** 0.5])
        assert nearest_neighbors(table, np.array([2.0, 0.0]), 1).words() == ["c"]


class TestExtremeRowNorms:
    # a plain L2 norm overflows on row a and underflows on rows d and e
    TEXT = "a 1e200 1\nb 1 0\nc 0 1\nd 1e-200 0\ne 3e-200 4e-200\n"
    # the exact cosines of the rows with the queries (1, 0) and (0, 1)
    EXACT = [[1.0, 1.0, 0.0, 1.0, 0.6], [1e-200, 0.0, 1.0, 0.0, 0.8]]

    @pytest.mark.parametrize("normalize", [False, True], ids=["raw", "normalize"])
    def test_cosines_are_exact(self, tmp_path, normalize):
        table = load_embeddings(write(tmp_path / "e.txt", self.TEXT), normalize=normalize)
        S = exact_cosines(table, np.eye(2))
        np.testing.assert_allclose(S, self.EXACT, rtol=1e-14, atol=0)

    # a plain query norm overflows on the first query and underflows on the others;
    # their exact cosines with the rows (1, 0), (0, 1) and (1, 1)
    QUERIES = [[1e200, 0.0], [1e-200, 0.0], [3e-170, 4e-170]]
    QUERY_EXACT = [[1.0, 0.0, 0.5 ** 0.5], [1.0, 0.0, 0.5 ** 0.5], [0.6, 0.8, 1.4 * 0.5 ** 0.5]]

    def test_query_cosines_are_exact(self):
        table = EmbeddingTable(["b", "c", "f"], np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        queries = np.array(self.QUERIES)
        with np.errstate(all="raise"):  # the product must not overflow either
            S = exact_cosines(table, queries)
        np.testing.assert_allclose(S, self.QUERY_EXACT, rtol=1e-14, atol=0)
        assert queries.tolist() == self.QUERIES  # the caller's array is not modified
        for query, exact in zip(self.QUERIES, self.QUERY_EXACT):
            got = dict(nearest_neighbors(table, np.array(query), 3).entries)
            np.testing.assert_allclose([got[w] for w in ("b", "c", "f")], exact,
                                       rtol=1e-14, atol=0)

    # the query norms are plain, but times the norm of row g, 1e200, they overflow;
    # the exact cosines with the rows g, (1, 0) and (0, 1)
    BIG_ROW_QUERIES = [[1e154, 0.0], [0.0, 1e154], [1e108, 1e108], [1.0, 0.0]]
    BIG_ROW_EXACT = [[1.0, 1.0, 0.0], [1e-200, 0.0, 1.0],
                     [0.5 ** 0.5, 0.5 ** 0.5, 0.5 ** 0.5], [1.0, 1.0, 0.0]]

    def test_product_with_a_large_row_is_exact(self):
        table = EmbeddingTable(["g", "b", "c"], np.array([[1e200, 1.0], [1.0, 0.0], [0.0, 1.0]]))
        queries = np.array(self.BIG_ROW_QUERIES)
        with np.errstate(all="raise"):
            S = exact_cosines(table, queries)
            neighbors = [dict(nearest_neighbors(table, q, 3).entries) for q in queries]
        np.testing.assert_allclose(S, self.BIG_ROW_EXACT, rtol=1e-14, atol=0)
        for got, exact in zip(neighbors, self.BIG_ROW_EXACT):
            np.testing.assert_allclose([got[w] for w in ("g", "b", "c")], exact,
                                       rtol=1e-14, atol=0)
        assert queries.tolist() == self.BIG_ROW_QUERIES  # the caller's array is not modified
        # a query whose product cannot overflow scores bitwise as it does alone
        plain = exact_cosines(table, queries[3:])
        assert S[3].tobytes() == plain[0].tobytes()

    # the query norms are plain, but times the norm of row h, 1e-200, they underflow;
    # the exact cosines with the rows h, (1, 0) and (0, 1). The last query is safe,
    # and its norm is not 1, so that dividing it by its norm would change its bits.
    TINY_ROW_QUERIES = [[1e-150, 0.0], [0.0, 1e-150], [1e-120, 1e-120], [0.37, 1.9]]
    TINY_ROW_EXACT = [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                      [0.5 ** 0.5, 0.5 ** 0.5, 0.5 ** 0.5],
                      [0.37 / np.hypot(0.37, 1.9), 0.37 / np.hypot(0.37, 1.9),
                       1.9 / np.hypot(0.37, 1.9)]]

    def test_product_with_a_tiny_row_is_exact(self):
        table = EmbeddingTable(["h", "b", "c"], np.array([[1e-200, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        queries = np.array(self.TINY_ROW_QUERIES)
        with np.errstate(all="raise"):
            S = exact_cosines(table, queries)
            neighbors = [dict(nearest_neighbors(table, q, 3).entries) for q in queries]
        np.testing.assert_allclose(S, self.TINY_ROW_EXACT, rtol=1e-14, atol=0)
        for got, exact in zip(neighbors, self.TINY_ROW_EXACT):
            np.testing.assert_allclose([got[w] for w in ("h", "b", "c")], exact,
                                       rtol=1e-14, atol=0)
        assert queries.tolist() == self.TINY_ROW_QUERIES  # the caller's array is not modified
        # a query whose product cannot underflow scores bitwise as it does alone
        plain = exact_cosines(table, queries[3:])
        assert S[3].tobytes() == plain[0].tobytes()
        unit = exact_cosines(table, queries[3:] / np.hypot(0.37, 1.9))
        assert S[3].tobytes() != unit[0].tobytes()  # which a unit query would not

    def test_rows_below_the_product_floor_score_queries_at_any_scale(self):
        # no query scale keeps every product with row t, 1e-300, out of the
        # subnormals; still each query scores bitwise as its copies times 2^±60
        # do, and the tiny query gets its exact cosine with t
        table = EmbeddingTable(["t", "b"], np.array([[1e-300, 0.0], [1.0, 0.0]]))
        queries = np.array([[3.0, 4.0], [0.37, 1.9], [1e-150, 0.0]])
        with np.errstate(all="raise"):
            S = exact_cosines(table, queries)
            for query, scores in zip(queries, S):
                for scale in (2.0 ** 60, 2.0 ** -60):
                    scaled = exact_cosines(table, query[None, :] * scale)
                    assert scaled[0].tobytes() == scores.tobytes()
        np.testing.assert_allclose(S[:2], [[0.6, 0.6], [0.37 / np.hypot(0.37, 1.9)] * 2],
                                   rtol=1e-14, atol=0)
        assert S[2].tolist() == [1.0, 1.0]

    def test_norm_above_the_float64_maximum_is_rejected(self, tmp_path):
        rows = np.array([[1.0, 0.0], [1.7e308, 1.7e308]])
        with pytest.raises(InputError, match=r"row 2 \('big'\) has an L2 norm above"):
            EmbeddingTable(["a", "big"], rows)
        path = write(tmp_path / "e.txt", "a 1 0\nbig 1.7e308 1.7e308\n")
        with pytest.raises(InputError, match=r"row 2 \('big'\)"):
            load_embeddings(path)
        with pytest.raises(InputError, match=r"e.txt: L2 norm above the float64 max\w+ \(row 2\)"):
            load_embeddings(path, normalize=True)


class TestPerRowProduct:
    @pytest.mark.parametrize("dim", [1, 2, 3, 10, 17, 100])
    def test_any_rows_score_bitwise_as_in_the_whole_table(self, dim):
        # a BLAS product of one query with a subset of rows can round differently
        # from the same product with the whole table; the per-row product cannot
        rng = np.random.default_rng(dim)
        n_words = 101
        vectors = rng.normal(size=(n_words, dim)) * rng.uniform(0.1, 10.0, size=(n_words, 1))
        table = EmbeddingTable([f"w{i}" for i in range(n_words)], vectors)
        queries = rng.normal(size=(5, dim))
        whole = exact_cosines(table, queries)
        scaled, qnorms = embeddings._scaled_queries(queries)
        subsets = [[0], [n_words - 1], [int(rng.integers(n_words))], list(range(n_words))]
        subsets += [rng.choice(n_words, size=rng.integers(1, n_words), replace=False)
                    for _ in range(40)]
        for rows in map(np.array, subsets):
            got = embeddings._per_row_cosines(table, rows, scaled, qnorms)
            assert got.tobytes() == whole[:, rows].tobytes()

    def test_rows_score_bitwise_as_their_copies_at_any_scale(self):
        # a row and its norm are scaled by a power of two before the per-row
        # product, and a subnormal norm is measured again once scaled: rows of
        # small integers times 2^-1070 (subnormal entries and norms) and normal
        # rows times 2^k score as the rows themselves, in both products
        rng = np.random.default_rng(11)
        integers = rng.integers(-3, 4, size=(40, 3)).astype(float)
        normal = rng.normal(size=(40, 3))
        queries = rng.normal(size=(5, 3))

        def scores(vectors):
            table = EmbeddingTable([f"w{i}" for i in range(len(vectors))], vectors)
            S = exact_cosines(table, queries)
            return S.tobytes(), table._unit_columns.tobytes()

        assert scores(integers * 2.0 ** -1070) == scores(integers)
        for k in (-1000, -60, 1, 60, 1000):
            assert scores(normal * 2.0 ** k) == scores(normal)


def two_step_quartered(vectors, norms):
    """Each row and its held norm times the power of two that brings the norm
    into [1/4, 1/2); a row of subnormal norm is measured again once scaled and
    scaled a second time, in two separate steps."""
    fraction, exponent = np.frexp(norms)
    vectors, norms = np.ldexp(vectors, -1 - exponent[:, None]), fraction / 2
    low = np.flatnonzero(exponent < -1021)
    if low.size:
        vectors[low], norms[low] = two_step_quartered(vectors[low],
                                                      np.linalg.norm(vectors[low], axis=1))
    return vectors, norms


class TestRowScaling:
    """The table keeps each row's power-of-two exponent and quartered norm."""

    def test_stored_exponents_give_the_two_step_scaling(self):
        rng = np.random.default_rng(5)
        integers = rng.integers(-3, 4, size=(30, 4)).astype(float)
        integers[integers.any(axis=1) == 0, 0] = 1.0
        rows = np.vstack([
            rng.normal(size=(20, 4)),
            integers * 2.0 ** -1060,  # subnormal entries and norms
            integers * 1e-310,
            rng.normal(size=(10, 4)) * 2.0 ** -1000,
            rng.normal(size=(10, 4)) * 2.0 ** 1000,
            np.zeros((3, 4)),
            [[1.0, 0.0, 0.0, 0.0], [3.0, 1.0, 0.0, 0.0],
             # norms of about 3.61 and 7.81 times 2^-1074, held as 4 and 8 times it:
             # the first power of two leaves them below 1/4, the second doubles them
             [2.0, 3.0, 0.0, 0.0], [5.0, 6.0, 0.0, 0.0]] * np.array(2.0 ** -1074),
        ])
        table = EmbeddingTable([f"w{i}" for i in range(len(rows))], rows)
        assert (table._row_norms[20:80] < 2.0 ** -1022).all()  # the subnormal norms
        first = -1 - np.frexp(table._row_norms)[1]
        assert (table._shifts[-2:] == first[-2:] + 1).all()  # one exponent for both steps
        want, want_norms = two_step_quartered(table.vectors, table._row_norms)
        got = np.ldexp(table.vectors, table._shifts[:, None])
        assert got.tobytes() == want.tobytes()
        assert table._quarter_norms.tobytes() == want_norms.tobytes()
        live = want_norms > 0.0
        assert ((want_norms[live] >= 0.25) & (want_norms[live] < 0.5)).all()
        assert (want_norms[~live] == 0.0).all() and not want[~live].any()
        with np.errstate(invalid="ignore"):
            units = want / want_norms[:, None]
        units[~live] = 0.0
        assert table._unit_columns.tobytes() == np.ascontiguousarray(units.T).tobytes()
        targets = embeddings.gold_targets(table, np.arange(len(rows)), np.full(len(rows), -1))
        np.testing.assert_array_equal(targets.units[live], units[live])
        assert np.isnan(targets.units[~live]).all()


def below_one_route(queries):
    """``_scaled_queries`` as it is without its fast path: every query through
    ``_below_one`` first."""
    with np.errstate(under="ignore"):
        return embeddings._quartered(embeddings._below_one(queries)[0])


class TestScaledQueries:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 8), dim=st.integers(1, 100),
           # half the draws from the range where the fast path can apply
           power=st.integers(-1074, 1023) | st.integers(-255, 253),
           spread=st.sampled_from([0, 10, 400, 600, 1100]),
           zeros=st.sampled_from([0.0, 0.3, 1.0]), zero_query=st.booleans(),
           strided=st.booleans())
    def test_bytes_equal_the_below_one_route(self, seed, k, dim, power, spread, zeros,
                                             zero_query, strided):
        # entries below 2^power by up to 2^spread, so that a query can mix
        # entries more than 2^500 apart; every |entry| stays below 2^1023
        rng = np.random.default_rng(seed)
        queries = np.ldexp(rng.uniform(-1.0, 1.0, size=(k, dim)),
                           power - rng.integers(0, spread + 1, size=(k, dim)))
        queries[rng.random((k, dim)) < zeros] = 0.0
        if zero_query:
            queries[rng.integers(k)] = 0.0
        if strided:  # a view the fast path must measure as the copy is measured
            queries = np.repeat(queries, 2, axis=1)[:, ::2]
        before = queries.copy()
        got, got_norms = embeddings._scaled_queries(queries)
        want, want_norms = below_one_route(queries)
        assert got.tobytes() == want.tobytes()
        assert got_norms.tobytes() == want_norms.tobytes()
        assert queries.tobytes() == before.tobytes()  # the caller's array is kept

    @pytest.mark.parametrize("scale", [1.0, 2.0 ** -200, 2.0 ** 200, 1e-30, 1e30])
    def test_ordinary_queries_skip_below_one(self, monkeypatch, scale):
        rng = np.random.default_rng(7)
        queries = rng.normal(size=(4, 10)) * scale
        queries[0, 3] = 0.0
        want = below_one_route(queries)
        monkeypatch.setattr(embeddings, "_below_one", None)  # the fast path must not call it
        got = embeddings._scaled_queries(queries)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    @pytest.mark.parametrize("entry", [2.0 ** -256, 2.0 ** 254, 1e-300, 1e300])
    def test_queries_near_the_limits_take_below_one(self, monkeypatch, entry):
        calls = []
        below_one = embeddings._below_one
        monkeypatch.setattr(embeddings, "_below_one", lambda A: calls.append(A) or below_one(A))
        embeddings._scaled_queries(np.array([[1.0, entry], [0.5, 0.25]]))
        assert len(calls) == 1


def test_duplicate_vocab_rejected_in_table():
    with pytest.raises(InputError, match="duplicate"):
        EmbeddingTable(["a", "a"], np.eye(2))


@pytest.mark.parametrize("vocab", [[], ["a"], ["na\u00efve", "\u65e5\u672c\u8a9e", "a%b", "\U0001f600"]])
def test_vocab_hash_is_the_per_word_digest(vocab):
    h = hashlib.sha256()
    for word in vocab:
        h.update(word.encode("utf-8"))
        h.update(b"\n")
    assert vocab_hash(EmbeddingTable(vocab, np.ones((len(vocab), 1)))) == h.hexdigest()


def test_vocab_hash_changes_with_vocab(tiny_table):
    other = EmbeddingTable(["a", "b", "d"], tiny_table.vectors.copy())
    assert vocab_hash(tiny_table) != vocab_hash(other)
    assert vocab_hash(tiny_table) == vocab_hash(tiny_table)


def test_vocab_hash_is_computed_once_per_table():
    table = EmbeddingTable(["a", "b"], np.eye(2))
    with mock.patch.object(embeddings.hashlib, "sha256", wraps=hashlib.sha256) as sha256:
        first = vocab_hash(table)
        assert vocab_hash(table) == first and sha256.call_count == 1
        assert vocab_hash(EmbeddingTable(["a", "b"], np.eye(2))) == first
        assert sha256.call_count == 2


@pytest.mark.parametrize("vocab, names_it", [
    (["a", "b\nc"], False), (["a\nb", "c"], False), (["a", "b c", "\r"], True), ([], True)])
def test_vocab_hash_names_a_vocabulary_without_newlines(vocab, names_it):
    table = EmbeddingTable(vocab, np.ones((len(vocab), 1)))
    assert table._vocab_digest == (vocab_hash(table), names_it)


# ---------------------------------------------------------------------------
# the parsed-table cache
# ---------------------------------------------------------------------------

CACHE_ROWS = [("a", [1.0, 2.0, 2.0]), ("b", [1e-30, 0.0, 0.0]), ("c", [0.1, -3.5, 1e30]),
              ("a", [9.0, 9.0, 9.0])]  # a duplicate, which the first row wins


def write_cache_file(path, format, rows=CACHE_ROWS):
    if format == "text":
        path.write_text("".join(f"{w} {' '.join(map(repr, v))}\n" for w, v in rows))
    else:
        path.write_bytes(f"{len(rows)} {len(rows[0][1])}\n".encode() + b"".join(
            w.encode() + b" " + struct.pack(f"<{len(v)}f", *v) for w, v in rows))
    return path


def assert_same_table(got, want):
    assert got.vocab == want.vocab
    assert got.vectors.tobytes() == want.vectors.tobytes()
    assert got._row_norms.tobytes() == want._row_norms.tobytes()
    assert vocab_hash(got) == vocab_hash(want)
    assert got.normalized == want.normalized


def entries(cache):
    return sorted(cache.glob("*.hptab"))


def entry_name(path):
    """The name of the cache entry of the text file ``path`` at this CACHE_VERSION."""
    return f"{hashlib.sha256(path.read_bytes()).hexdigest()}-{embeddings.CACHE_VERSION}.hptab"


class TestCache:
    @pytest.mark.parametrize("normalize", [False, True], ids=["raw", "normalize"])
    def test_hit_is_bitwise_a_parse(self, tmp_path, normalize):
        path = write_cache_file(tmp_path / "e", "text")
        parsed = load_embeddings(path, "text", normalize)
        cold = load_embeddings(path, "text", normalize, cache=tmp_path / "cache")
        assert len(entries(tmp_path / "cache")) == 1
        with mock.patch.object(embeddings, "_parse_text", side_effect=AssertionError):
            warm = load_embeddings(path, "text", normalize, cache=tmp_path / "cache")
            # the entry holds the raw parse, so the other setting of normalize hits it too
            other = load_embeddings(path, "text", not normalize, cache=tmp_path / "cache")
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert [t.source_sha256 for t in (parsed, cold, warm, other)] == [digest] * 4
        assert_same_table(cold, parsed)
        assert_same_table(warm, parsed)
        assert_same_table(other, load_embeddings(path, "text", not normalize))

    def test_text_loads_stream_the_file(self, tmp_path):
        path = write_cache_file(tmp_path / "e.txt", "text")
        parsed = load_embeddings(path)
        with mock.patch.object(Path, "read_bytes", side_effect=AssertionError):
            for cache in (None, tmp_path / "cache", tmp_path / "cache"):  # uncached, cold, warm
                assert_same_table(load_embeddings(path, cache=cache), parsed)
        assert len(entries(tmp_path / "cache")) == 1

    @pytest.mark.parametrize("format", embeddings.FORMATS)
    def test_every_table_carries_the_file_digest(self, tmp_path, format):
        path = write_cache_file(tmp_path / "e", format)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        for cache in (None, tmp_path / "cache", tmp_path / "cache"):  # uncached, cold, warm
            assert load_embeddings(path, format, cache=cache).source_sha256 == digest

    @pytest.mark.parametrize("format", embeddings.FORMATS)
    @pytest.mark.parametrize("cached", [False, True], ids=["parse", "cache"])
    def test_file_changed_while_read_fails_with_no_entry(self, tmp_path, format, cached):
        path = write_cache_file(tmp_path / "e", format)
        name = f"_parse_{format}"
        real_parse = getattr(embeddings, name)

        def parse_then_append(p):
            parsed = real_parse(p)
            with open(p, "ab") as fh:
                fh.write(b"\n")
            return parsed

        with mock.patch.object(embeddings, name, parse_then_append), \
                pytest.raises(InputError) as exc:
            load_embeddings(path, format, cache=tmp_path / "cache" if cached else None)
        assert str(exc.value) == f"{path}: changed while it was read"
        assert not (tmp_path / "cache").exists()

    def test_versions_sharing_a_directory_keep_their_own_entries(self, tmp_path):
        path = write_cache_file(tmp_path / "e.txt", "text")
        parsed, parses = load_embeddings(path), []
        real_parse = embeddings._parse_text
        with mock.patch.object(embeddings, "_parse_text",
                               lambda p: parses.append(embeddings.CACHE_VERSION) or real_parse(p)):
            for version in (3, 4, 3, 4, 3, 4):
                with mock.patch.object(embeddings, "CACHE_VERSION", version):
                    assert_same_table(load_embeddings(path, cache=tmp_path / "cache"), parsed)
        assert parses == [3, 4]  # one parse per version, then hits only
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert [e.name for e in entries(tmp_path / "cache")] == [f"{digest}-3.hptab",
                                                                 f"{digest}-4.hptab"]

    def test_rows_of_a_hit_are_aligned_and_writable(self, tmp_path):
        for n in range(1, 9):  # entry headers of every length modulo 8
            path = write(tmp_path / f"e{n}.txt", f"{'w' * n} 1 2\n")
            load_embeddings(path, cache=tmp_path / "cache")
            with mock.patch.object(embeddings, "_parse_text", side_effect=AssertionError):
                flags = load_embeddings(path, cache=tmp_path / "cache").vectors.flags
            assert flags.aligned and flags.writeable

    @pytest.mark.parametrize("normalize", [False, True], ids=["raw", "normalize"])
    def test_binary_is_hashed_not_cached(self, tmp_path, normalize):
        path = write_cache_file(tmp_path / "e", "binary")
        for _ in range(2):
            table = load_embeddings(path, "binary", normalize, cache=tmp_path / "cache")
            assert_same_table(table, load_embeddings(path, "binary", normalize))
            assert table.source_sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
        assert not (tmp_path / "cache").exists()

    def test_duplicate_words_warn_on_a_hit(self, tmp_path, caplog):
        path = write_cache_file(tmp_path / "e.txt", "text")
        for _ in range(2):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="hyperproj.embeddings"):
                table = load_embeddings(path, cache=tmp_path / "cache")
            assert table.vocab == ["a", "b", "c"]
            assert "dropped 1 duplicate word(s)" in caplog.text

    def test_file_edited_in_place_misses(self, tmp_path):
        path = write(tmp_path / "e.txt", "a 1 2\nb 3 4\n")
        load_embeddings(path, cache=tmp_path / "cache")
        write(path, "a 1 2\nb 3 5\n")  # the same size and name
        table = load_embeddings(path, cache=tmp_path / "cache")
        assert table.vectors.tolist() == [[1.0, 2.0], [3.0, 5.0]]
        assert len(entries(tmp_path / "cache")) == 2
        # the same bytes read as binary are parsed as such, not looked up
        with pytest.raises(InputError):
            load_embeddings(path, "binary", cache=tmp_path / "cache")

    @pytest.mark.parametrize("cache", ["file", "file/below", "dir"])
    def test_unwritable_cache_still_loads(self, tmp_path, cache):
        path = write_cache_file(tmp_path / "e.txt", "text")
        write(tmp_path / "file", "not a directory")
        (tmp_path / "dir" / entry_name(path)).mkdir(parents=True)  # where the entry goes
        for _ in range(2):
            assert_same_table(load_embeddings(path, cache=tmp_path / cache), load_embeddings(path))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "e.txt", "file"]
        assert [p.name for p in (tmp_path / "dir").iterdir()] == [entry_name(path)]

    @pytest.mark.parametrize("text, normalize", [
        ("a 1 2\nb x 3\n", False), ("a 1 2\nb 1\n", False), ("a 0 0\n", True),
        ("a 1.7e308 1.7e308\n", False),
    ], ids=["unparsable", "dimension", "zero-row", "norm-overflow"])
    def test_file_that_fails_to_load_gets_no_entry(self, tmp_path, text, normalize):
        path = write(tmp_path / "e.txt", text)
        with pytest.raises(InputError) as plain:
            load_embeddings(path, normalize=normalize)
        for _ in range(2):
            with pytest.raises(InputError) as cached:
                load_embeddings(path, normalize=normalize, cache=tmp_path / "cache")
            assert str(cached.value) == str(plain.value)
        assert entries(tmp_path / "cache") == []

    def test_least_recently_used_entries_are_evicted(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        paths = [write(tmp_path / f"e{i}.txt", f"w{i} {i} 1\n") for i in range(3)]
        for path in paths[:2]:
            load_embeddings(path, cache=cache)
        first, second = (cache / entry_name(p) for p in paths[:2])
        os.utime(first, ns=(0, 10**9))
        os.utime(second, ns=(0, 2 * 10**9))  # the first is the least recently written
        size = first.stat().st_size
        monkeypatch.setattr(embeddings, "CACHE_MAX_BYTES", 2 * size)  # room for two
        with mock.patch.object(embeddings, "_parse_text", side_effect=AssertionError):
            load_embeddings(paths[0], cache=cache)  # a hit: now the most recently used
        load_embeddings(paths[2], cache=cache)  # a third entry evicts the second
        assert first.exists() and not second.exists() and len(entries(cache)) == 2
        # a load after eviction parses again and is bitwise a cold load
        assert_same_table(load_embeddings(paths[1], cache=cache), load_embeddings(paths[1]))
        assert second.exists() and len(entries(cache)) == 2

    def test_the_entry_just_written_is_never_evicted(self, tmp_path, monkeypatch):
        monkeypatch.setattr(embeddings, "CACHE_MAX_BYTES", 0)
        for i in range(3):
            path = write(tmp_path / f"e{i}.txt", f"w {i} 1\n")
            load_embeddings(path, cache=tmp_path / "cache")
            assert [e.name for e in entries(tmp_path / "cache")] == [entry_name(path)]

    def test_entries_named_by_the_digest_alone_are_deleted(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        digest = "ab" * 32
        old, other = cache / f"{digest}.hptab", cache / f"{digest}-2.hptab"
        old.write_bytes(b"no version reads this name")
        other.write_bytes(b"another version's entry")
        path = write_cache_file(tmp_path / "e.txt", "text")
        load_embeddings(path, cache=cache)
        assert [e.name for e in entries(cache)] == sorted([entry_name(path), other.name])

    def test_failed_touch_and_delete_are_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setattr(embeddings, "CACHE_MAX_BYTES", 0)
        paths = [write(tmp_path / f"e{i}.txt", f"w {i} 1\n") for i in range(2)]
        load_embeddings(paths[0], cache=tmp_path / "cache")
        with mock.patch.object(embeddings.os, "utime", side_effect=OSError("read-only")), \
                mock.patch.object(Path, "unlink", side_effect=OSError("busy")):
            for path in paths:  # a hit and a miss
                assert_same_table(load_embeddings(path, cache=tmp_path / "cache"),
                                  load_embeddings(path))
        assert len(entries(tmp_path / "cache")) == 2

    @pytest.fixture(scope="class")
    def valid_entry(self, tmp_path_factory):
        """A table file, its parse, and its cache entry's path and bytes."""
        tmp = tmp_path_factory.mktemp("entry")
        path = write_cache_file(tmp / "e.txt", "text")
        load_embeddings(path, cache=tmp / "cache")
        [entry] = entries(tmp / "cache")
        return path, load_embeddings(path), entry, entry.read_bytes()

    @staticmethod
    @st.composite
    def damaged(draw, valid):
        kind = draw(st.sampled_from(["arbitrary", "truncated", "flipped", "appended"]))
        if kind == "arbitrary":
            return draw(st.binary(max_size=300) | st.just(embeddings.CACHE_MAGIC))
        if kind == "truncated":
            return valid[:draw(st.integers(0, len(valid) - 1))]
        if kind == "appended":
            return valid + draw(st.binary(min_size=1, max_size=8))
        data = bytearray(valid)
        for _ in range(draw(st.integers(1, 3))):
            data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
        return bytes(data)

    @given(data=st.data())
    @settings(deadline=None)
    def test_damaged_entry_falls_back_to_the_parse(self, valid_entry, data):
        path, parsed, entry, valid = valid_entry
        entry.write_bytes(data.draw(self.damaged(valid)))
        assert_same_table(load_embeddings(path, cache=entry.parent), parsed)
        assert entry.read_bytes() == valid  # a miss rewrites the entry
