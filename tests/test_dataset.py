import hashlib
import logging
import os
import re
import subprocess
import sys
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperproj import cli, dataset
from hyperproj.clustering import offsets
from hyperproj.dataset import (
    BUCKETS,
    DEFAULT_FRACTIONS,
    HYPERNYM,
    RELATIONS,
    RelationDataset,
    RelationPair,
    Relations,
    build_dataset,
    lexical_split,
    load_relations,
    negative_index,
    read_relations,
    read_split_dir,
    sample_negative,
    split_relations,
    validate_fractions,
    write_split,
)
from hyperproj.embeddings import EmbeddingTable, load_embeddings
from hyperproj.errors import InputError, read_container, utf8_lines, write_container
from hyperproj.evaluation import evaluate, hit_at
from hyperproj.projection import Regularizer
from hyperproj.synth import SynthConfig, make_fixture, write_fixture
from hyperproj.training import TrainConfig, train

from conftest import (assignment_of, dataset_of, exact_cosines, gold_rank, make_model, pairs_of,
                      relations_of, vocabulary)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def views(data):
    """A dataset's positives, their bucket names and its negatives, word by word."""
    return pairs_of(data.hypernyms), assignment_of(data), pairs_of(data.negatives)


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

    def test_leading_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_bytes("\ufeffhypo\thyper\thypernym\n\ufeffx\ty\tsynonym\n".encode())
        # only the file's first character is a mark; one inside the file is part of a word
        assert load_relations(path) == [RelationPair("hypo", "hyper", "hypernym"),
                                         RelationPair("\ufeffx", "y", "synonym")]
        assert load_relations(path) == reference_load_relations(path)

    @pytest.mark.parametrize("data", [b"\xef", b"\xef\xbb", b"\xef\xbba\tb\thypernym\n"])
    def test_cut_byte_order_mark_is_not_utf8(self, tmp_path, data):
        path = tmp_path / "r.tsv"
        path.write_bytes(data)
        with pytest.raises(InputError, match=":1: not valid UTF-8"):
            load_relations(path)


# ---------------------------------------------------------------------------
# reference reader: the row-by-row load_relations the one-pass reader must agree with
# ---------------------------------------------------------------------------


def reference_load_relations(path):
    pairs, seen, dupes = [], set(), 0
    for lineno, line in utf8_lines(path):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) < 3:
            raise InputError(f"{path}:{lineno}: expected 3 tab-separated columns")
        source, target, relation = cols[0], cols[1], cols[2]
        if relation not in RELATIONS:
            raise InputError(
                f"{path}:{lineno}: unknown relation {relation!r} "
                f"(expected one of {', '.join(RELATIONS)})"
            )
        if source == target:
            raise InputError(f"{path}:{lineno}: source equals target ({source!r})")
        key = (source, target, relation)
        if key in seen:
            dupes += 1
            continue
        seen.add(key)
        pairs.append(key)
    if dupes:
        dataset.log.warning("%s: dropped %d duplicate row(s)", path, dupes)
    return pairs


def relations_outcome(load, path):
    """What a reader makes of a file: its pairs and warnings, or its InputError message.

    Any other exception propagates and fails the test.
    """
    with mock.patch.object(dataset.log, "warning") as warn:
        try:
            pairs = load(path)
        except InputError as exc:
            return "error", str(exc)
    return "pairs", [tuple(p) for p in pairs], [c.args[0] % c.args[1:] for c in warn.call_args_list]


# few letters, so that duplicates and source == target occur; \x0c, \x85 and
# \u2028 end a line for str.splitlines() but not for a text file
REL_WORD = st.text(alphabet="ab\u00e9# \x0c\x85\u2028", min_size=1, max_size=3)
UNKNOWN_RELATION = st.sampled_from(["antonym", "Hypernym", "hypernym ", ""])


@st.composite
def relations_files(draw, relations=RELATIONS, word=REL_WORD, valid=False):
    """A relations TSV of valid rows of ``relations``, or one broken by a few mutations;
    ``valid`` keeps to the mutations that leave it valid."""
    row = st.tuples(word, word, st.sampled_from(relations))
    rows = draw(st.lists(row.filter(lambda r: r[0] != r[1]) if valid else row, max_size=8))
    lines = [list(row) for row in rows]
    kinds = ["comment", "blank", "repeat", "extra"] + ([] if valid else ["drop", "self",
                                                                          "unknown"])
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(kinds))
        at = draw(st.integers(0, len(lines)))
        if kind == "comment":
            lines.insert(at, ["#" + draw(REL_WORD)])
        elif kind == "blank":
            lines.insert(at, [])
        elif lines:
            line = lines[min(at, len(lines) - 1)]
            if kind == "repeat":
                lines.insert(at, list(line))
            elif kind == "extra":
                line.append(draw(REL_WORD))
            elif kind == "drop" and line:
                line.pop()
            elif kind == "self" and len(line) > 1:
                line[1] = line[0]
            elif kind == "unknown" and len(line) > 2:
                line[2] = draw(UNKNOWN_RELATION)
    data = "".join("\t".join(line) + draw(st.sampled_from(["\n", "\r\n", "\r"]))
                   for line in lines).encode("utf-8")
    if data and not valid and draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        splice = draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\r", b"\n", b"\t"]))
        data = data[:at] + splice + data[at:]
    if data and draw(st.booleans()):
        data = data[:-1]  # no line end after the last row
    return data


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "r.tsv"


# the split files' words: mostly the table's, whose last row is in no file, and some
# outside it; few, so that rows repeat and buckets share words
SPLIT_TABLE = table_for(["a", "b", "c", "d", "\u00e9", "a b", "sink"])
SPLIT_WORD = st.sampled_from(SPLIT_TABLE.vocab[:-1] * 3 + ["#", "x\x85", "oov"])


@st.composite
def split_files(draw):
    """The bytes of a split directory's files (None: no such file). At most one file
    is missing, broken as relations_files breaks a file, or holds other relations."""
    broken = draw(st.sampled_from([None, None, *BUCKETS, "negatives"]))
    files = {}
    for name in (*BUCKETS, "negatives"):
        holds = ("hypernym",) if name in BUCKETS else ("synonym", "cohyponym")
        files[name] = draw(relations_files(holds, SPLIT_WORD, valid=True)) if name != broken \
            else draw(st.none() | relations_files(holds, SPLIT_WORD)
                      | relations_files(RELATIONS, SPLIT_WORD, valid=True))
    return files


@pytest.fixture(scope="module")
def fuzz_split(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz-split")


@pytest.fixture(scope="module")
def fuzz_cache(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz-cache")


def reference_check_positive(path, pairs, positive):
    """The relation check read_split_dir ran on each file's pairs before it read columns."""
    for pair in pairs:
        relation = pair[2]
        if (relation == "hypernym") is not positive:
            holds = "only hypernym rows" if positive else "no hypernym rows"
            raise InputError(f"{path}: row {tuple(pair)} is a {relation} pair, "
                             f"but {path.name} holds {holds}")
    return pairs


def reference_read_split_dir(split_dir, table):
    """read_split_dir row by row: each file through reference_load_relations and the
    relation check, then the row-by-row filter of bind."""
    positives, assignment = [], []
    for bucket in BUCKETS:
        path = split_dir / f"{bucket}.tsv"
        if not path.is_file():
            raise InputError(f"split directory is missing {path.name}")
        pairs = reference_check_positive(path, reference_load_relations(path), True)
        positives += pairs
        assignment += [bucket] * len(pairs)
    path = split_dir / "negatives.tsv"
    negatives = (reference_check_positive(path, reference_load_relations(path), False)
                 if path.is_file() else [])
    found = oracle_found([RelationPair(*p) for p in positives], table)
    kept = kept_by_oracle([RelationPair(*p) for p in negatives], table)
    return ([p for p, f in zip(positives, found) if f], [b for b, f in zip(assignment, found) if f],
            [tuple(p) for p in kept], found.count(False), len(negatives) - len(kept))


def split_outcome(read, split_dir):
    """What a split reader makes of a directory: its bound rows and warnings, or its
    InputError message."""
    with mock.patch.object(dataset.log, "warning") as warn:
        try:
            got = read(split_dir, SPLIT_TABLE)
        except InputError as exc:
            return "error", str(exc)
    if isinstance(got, RelationDataset):
        positives, assignment, negatives = views(got)
        got = ([tuple(p) for p in positives], assignment, [tuple(p) for p in negatives],
               got.dropped_positives, got.dropped_negatives)
    return "dataset", got, [c.args[0] % c.args[1:] for c in warn.call_args_list]


class TestLoadRelationsMatchesReference:
    @given(data=relations_files() | st.binary(max_size=120))
    @example(data=b"a\tb\thypernym\textra\r\na\tb\thypernym\n")  # extra column, duplicate
    @example(data=b"a\tb\thypernym\n \x0c\n")  # a line of whitespace is a row
    @example(data="a\u2028\tb\x85\tsynonym\rb\tc\tcohyponym".encode("utf-8"))
    @settings(deadline=None)
    def test_same_outcome(self, fuzz_file, data):
        fuzz_file.write_bytes(data)
        assert (relations_outcome(load_relations, fuzz_file)
                == relations_outcome(reference_load_relations, fuzz_file))

    @pytest.mark.parametrize("data, expected", [
        (b"a\tb\thypernym\nc\td\n\xff\te\thypernym\n", ":2: expected 3"),
        (b"a\tb\thypernym\n\xff\te\thypernym\nc\td\n", ":2: not valid UTF-8"),
        (b"a\tb\tantonym\nc\tc\thypernym\n", ":1: unknown relation"),
        (b"a\tb\thypernym\nc\tc\tx\n", ":2: unknown relation"),
        (b"# \xff\na\ta\thypernym\n", ":1: not valid UTF-8"),
        (b"a\tb\thypernym\rc\tc\thypernym\r", ":2: source equals target"),
        (b"a\tb\thypernym\r\n\r\nc\xc2\x85\tc\xc2\x85\tsynonym", ":3: source equals target"),
    ], ids=["columns-before-utf8", "utf8-before-columns", "relation", "relation-before-equal",
            "utf8-in-comment", "cr", "crlf-and-nel"])
    def test_first_failing_line_is_reported(self, tmp_path, data, expected):
        path = tmp_path / "r.tsv"
        path.write_bytes(data)
        with pytest.raises(InputError, match=expected) as got:
            load_relations(path)
        assert relations_outcome(reference_load_relations, path) == ("error", str(got.value))

    @given(files=split_files())
    @example(files={"train": b"a\tb\thypernym\na\tb\thypernym\n", "validation": b"",
                    "test": b"\xc3\xa9\ta\thypernym\n", "negatives": b"a\t#\tsynonym\n"})
    @example(files={"train": b"a\tb\thypernym\n", "validation": b"b\tc\tsynonym\n",
                    "test": b"a\ta\thypernym\n", "negatives": None})
    @settings(deadline=None)
    def test_read_split_dir(self, fuzz_split, fuzz_cache, files):
        """Bucket order, bound rows, drop counts, warnings and the first error all match
        the row-by-row reader plus the row-by-row filter; so does negative_index. Read
        through a cache, cold or warm, the outcome is the same, and an error writes
        no entry."""
        for name, content in files.items():
            path = fuzz_split / f"{name}.tsv"
            path.unlink(missing_ok=True)
            if content is not None:
                path.write_bytes(content)
        got = split_outcome(read_split_dir, fuzz_split)
        assert got == split_outcome(reference_read_split_dir, fuzz_split)
        before = sorted(fuzz_cache.iterdir())
        for _ in range(2):  # a miss or a hit, then a hit
            assert split_outcome(partial(read_split_dir, cache=fuzz_cache), fuzz_split) == got
        if got[0] == "error":
            assert sorted(fuzz_cache.iterdir()) == before
            return
        data = read_split_dir(fuzz_split, SPLIT_TABLE)
        assert data.words is SPLIT_TABLE.vocab
        assert data.hypernyms.ids.tolist() == [[SPLIT_TABLE.lookup(w) for w in p[:2]]
                                               for p in got[1][0]]
        assert data.source_sha256 == {
            fuzz_split / f"{name}.tsv": hashlib.sha256(content).hexdigest()
            for name, content in files.items() if content is not None}
        got_index = [a.tolist() for a in negative_index(data, SPLIT_TABLE)]
        assert got_index == oracle_negative_index(data, SPLIT_TABLE)
        # unbound, from the rows as read: a candidate missing from the table is an error
        positives, assignment, negatives = [], [], []
        for name in (*BUCKETS, "negatives"):
            path = fuzz_split / f"{name}.tsv"
            pairs = [RelationPair(*p) for p in reference_load_relations(path)] \
                if path.is_file() else []
            if name == "negatives":
                negatives = pairs
            else:
                positives += pairs
                assignment += [name] * len(pairs)
        unbound = dataset_of(positives, assignment, negatives)
        try:
            got_index = [a.tolist() for a in negative_index(unbound, SPLIT_TABLE)]
        except InputError as exc:
            got_index = str(exc)
        assert got_index == oracle_negative_index(unbound, SPLIT_TABLE)


def hyp(a, b):
    return RelationPair(a, b, "hypernym")


def split_names(pairs, fractions, seed):
    """lexical_split of word-level pairs, each row's bucket by name."""
    return [BUCKETS[b] for b in lexical_split(relations_of(pairs), fractions, seed).tolist()]


class TestLexicalSplit:
    def test_two_components_land_apart(self):
        pairs = [hyp("a", "b"), hyp("c", "d")]
        buckets = lexical_split(relations_of(pairs), (0.5, 0.25, 0.25), seed=1)
        assert buckets.dtype == np.int8 and buckets.shape == (2,)
        assert len(set(buckets.tolist())) == 2  # separate components, separate buckets

    def test_no_rows(self):
        buckets = lexical_split(relations_of([]), (0.5, 0.25, 0.25), seed=1)
        assert buckets.dtype == np.int8 and buckets.shape == (0,)

    def test_shared_word_merges_components(self):
        pairs = [hyp("a", "b"), hyp("b", "c")]
        assignment = split_names(pairs, (0.5, 0.25, 0.25), seed=5)
        assert assignment[0] == assignment[1]

    def test_fractions_reached_on_disjoint_pairs(self):
        pairs = [hyp(f"x{i}", f"y{i}") for i in range(1000)]
        assignment = split_names(pairs, (0.8, 0.1, 0.1), seed=42)
        counts = {b: assignment.count(b) for b in BUCKETS}
        assert abs(counts["train"] - 800) <= 20
        assert abs(counts["validation"] - 100) <= 20
        assert abs(counts["test"] - 100) <= 20

    def test_determinism(self):
        pairs = [hyp(f"x{i}", f"y{i}") for i in range(200)]
        a = split_names(pairs, (0.6, 0.2, 0.2), seed=9)
        b = split_names(pairs, (0.6, 0.2, 0.2), seed=9)
        assert a == b
        c = split_names(pairs, (0.6, 0.2, 0.2), seed=10)
        assert a != c

    def test_oversized_component_warns_but_assigns(self, caplog):
        chain = [hyp(f"w{i}", f"w{i + 1}") for i in range(10)]
        extra = [hyp("p", "q"), hyp("r", "s")]
        with caplog.at_level(logging.WARNING):
            assignment = split_names(chain + extra, (0.5, 0.25, 0.25), seed=0)
        assert "exceeds" in caplog.text
        assert all(a in BUCKETS for a in assignment)
        assert len(set(assignment[:10])) == 1

    @pytest.mark.parametrize("fractions", [(0.5, 0.4, 0.0), (0.5, 0.25, 0.15), (-0.2, 0.6, 0.6)])
    def test_bad_fractions_rejected(self, fractions):
        with pytest.raises(InputError):
            lexical_split(relations_of([hyp("a", "b")]), fractions, seed=0)

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
        assignment = split_names(pairs, (0.6, 0.2, 0.2), seed=seed)
        data = dataset_of(pairs, assignment, [])
        vocabs = [vocabulary(data, b) for b in BUCKETS]
        assert not (vocabs[0] & vocabs[1])
        assert not (vocabs[0] & vocabs[2])
        assert not (vocabs[1] & vocabs[2])


def oracle_lexical_split(pairs, fractions, seed):
    """The lexical_split that ran union-find over words and placed with numpy scalars."""
    validate_fractions(fractions)
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    if not pairs:
        return []
    parent = {}

    def find(w):
        root = w
        while parent[root] != root:
            root = parent[root]
        while parent[w] != root:
            parent[w], w = root, parent[w]
        return root

    for pair in pairs:
        for w in (pair.source, pair.target):
            parent.setdefault(w, w)
        ra, rb = find(pair.source), find(pair.target)
        if ra != rb:
            parent[rb] = ra

    by_root = {}
    for i, pair in enumerate(pairs):
        by_root.setdefault(find(pair.source), []).append(i)
    components = sorted(by_root.values(), key=lambda idxs: idxs[0])
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(components))

    targets = np.array(fractions, dtype=np.float64) * len(pairs)
    counts = np.zeros(3, dtype=np.float64)
    assignment = [""] * len(pairs)
    for ci in order:
        comp = components[ci]
        if len(comp) > targets.max():
            dataset.log.warning(
                "component with %d pairs exceeds the largest bucket target (%.1f); "
                "assigning anyway, fractions will be approximate", len(comp), targets.max(),
            )
        bucket = int(np.argmax(targets - counts))
        counts[bucket] += len(comp)
        for i in comp:
            assignment[i] = BUCKETS[bucket]
    return assignment


def split_and_warnings(split, pairs, fractions, seed):
    with mock.patch.object(dataset.log, "warning") as warn:
        assignment = split(pairs, fractions, seed)
    return assignment, [c.args[0] % c.args[1:] for c in warn.call_args_list]


SPLIT_FRACTIONS = [DEFAULT_FRACTIONS, (0.5, 0.25, 0.25), (0.6, 0.2, 0.2), (1 / 3, 1 / 3, 1 / 3),
                   (0.98, 0.01, 0.01)]


class TestLexicalSplitMatchesOracle:
    """The split over word ids assigns what the split over words did, warnings included."""

    @pytest.fixture(scope="class")
    def desk_positives(self):
        _, relations = make_fixture(SynthConfig(dim=10, n_pairs=1000, noise=0.05, distractors=5,
                                                hyper_angle_deg=25, seed=1))
        return relations.take(relations.codes == HYPERNYM)

    @pytest.mark.parametrize("seed", [0, 1, 901, 12345])
    def test_desk_fixture(self, desk_positives, seed):
        pairs = pairs_of(desk_positives)
        want = oracle_lexical_split(pairs, DEFAULT_FRACTIONS, seed)
        # ids of the table's rows, and of the words in first-seen order
        got = lexical_split(desk_positives, DEFAULT_FRACTIONS, seed)
        assert [BUCKETS[b] for b in got.tolist()] == want
        assert split_names(pairs, DEFAULT_FRACTIONS, seed) == want

    @given(edges=st.lists(st.tuples(st.integers(0, 14), st.integers(0, 14)), max_size=40),
           fractions=st.sampled_from(SPLIT_FRACTIONS), seed=st.integers(0, 2 ** 32 - 1))
    @example(edges=[(i, i + 1) for i in range(10)] + [(20, 21), (22, 23)],
             fractions=(0.5, 0.25, 0.25), seed=0)  # a component above every target
    def test_word_graphs(self, edges, fractions, seed):
        pairs = list(dict.fromkeys(hyp(f"w{a}", f"w{b}") for a, b in edges if a != b))
        assert (split_and_warnings(split_names, pairs, fractions, seed)
                == split_and_warnings(oracle_lexical_split, pairs, fractions, seed))


FEW_PAIRS = SynthConfig(dim=4, n_pairs=120, noise=0.05, distractors=2, planted_clusters=2, seed=3)


class TestNoRelationPairPerRow:
    """The command-line pipeline and the library flow read, split, bind, train and
    rank without one."""

    @pytest.fixture
    def fixture_files(self, tmp_path):
        write_fixture(*make_fixture(FEW_PAIRS), tmp_path / "fix")
        return tmp_path / "fix"

    @pytest.fixture
    def refused(self):
        def refuse(*args, **kwargs):
            raise AssertionError("a RelationPair was built")

        with mock.patch.object(RelationPair, "_make", side_effect=refuse), \
                mock.patch.object(RelationPair, "__new__", side_effect=refuse):
            yield

    def test_the_patch_catches_the_word_level_edge(self, fixture_files, refused):
        with pytest.raises(AssertionError, match="RelationPair"):
            load_relations(fixture_files / "relations.tsv")
        with pytest.raises(AssertionError, match="RelationPair"):
            RelationPair("a", "b", "hypernym")

    def test_read_split_dir_and_the_commands(self, tmp_path, fixture_files, refused):
        emb, split = fixture_files / "embeddings.txt", tmp_path / "split"

        def run(*argv):
            return cli.main([str(a) for a in argv])

        assert run("split", "--relations", fixture_files / "relations.tsv", "--seed", 3,
                   "--out", split) == 0
        data = read_split_dir(split, load_embeddings(emb))
        assert len(data.hypernyms) == 120 and len(data.negatives) == 240
        assert run("cluster", "--embeddings", emb, "--split-dir", split, "--k", 2,
                   "--out", tmp_path / "c.json") == 0
        for reg in ("none", "neighbor"):
            assert run("train", "--embeddings", emb, "--split-dir", split, "--k", 2,
                       "--clusters", tmp_path / "c.json", "--epochs", 10, "--reg", reg,
                       "--select-on", "best_validation_hit10",
                       "--out", tmp_path / f"{reg}.hprj") == 0
        assert run("eval", "--model", tmp_path / "neighbor.hprj", "--embeddings", emb,
                   "--test", split / "test.tsv", "--out", tmp_path / "r.json") == 0

    def test_the_library_flow(self, refused):
        table, relations = make_fixture(FEW_PAIRS)
        data = build_dataset(relations, table, seed=3)
        assert len(data.hypernyms) == 120 and len(data.negatives) == 240
        cfg = TrainConfig(k=2, epochs=10, regularizer=Regularizer.NEIGHBOR_PLAIN,
                          select_on="best_validation_hit10")
        report = evaluate(train(data, table, cfg), table, data.relations_in("test"))
        assert report.n_pairs == len(data.relations_in("test")) > 0


class TestBuildDataset:
    def test_unresolvable_pairs_dropped(self):
        table = table_for(["a", "b", "c"])
        pairs = [hyp("a", "b"), hyp("a", "zzz"), RelationPair("c", "qqq", "synonym")]
        data = build_dataset(relations_of(pairs), table)
        assert len(data.hypernyms) == 1
        assert data.dropped_positives == 1
        assert data.dropped_negatives == 1

    def test_negatives_map_built(self):
        table = table_for(["a", "b", "c", "d"])
        pairs = [hyp("a", "b"),
                 RelationPair("a", "c", "synonym"),
                 RelationPair("a", "d", "cohyponym")]
        data = build_dataset(relations_of(pairs), table)
        assert data.train_negatives == {"a": ["c", "d"]}

    def test_train_negatives_leave_numpy_ma_unimported(self):
        # plain np.unique imports numpy.ma on its first call; a process that
        # splits, trains and evaluates should not pay for that import
        code = "\n".join([
            "import sys",
            "import numpy as np",
            "from hyperproj.dataset import RelationDataset, Relations",
            "words = list('abcdefg')",
            "hyp = Relations(words, np.array([[0, 1], [2, 3], [4, 5]]), np.zeros(3, np.int8))",
            "neg = Relations(words, np.array([[0, 3], [0, 6], [0, 5]]),",
            "                np.array([1, 2, 1], np.int8))",
            "data = RelationDataset(hyp, np.array([0, 1, 2], np.int8), neg)",
            "assert data.train_negatives == {'a': ['g']}, data.train_negatives",
            "assert 'numpy.ma' not in sys.modules",
        ])
        env = {**os.environ, "PYTHONPATH": str(Path(dataset.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_equals_split_then_read(self, tmp_path):
        # the pairs with an out-of-vocabulary word are split too, then dropped
        words = [f"w{i}" for i in range(60)]
        pairs = [hyp(f"w{i}", f"w{i + 30}") for i in range(30)]
        pairs += [hyp(f"w{i}", f"oov{i}") for i in range(0, 30, 3)]
        pairs += [RelationPair(f"w{i}", f"w{59 - i}", "synonym") for i in range(0, 30, 2)]
        pairs += [RelationPair(f"w{i}", f"oov{i}", "cohyponym") for i in range(1, 30, 4)]
        table = table_for(words)
        fractions = (0.6, 0.2, 0.2)
        data = build_dataset(relations_of(pairs), table, fractions, 4)
        write_split(split_relations(relations_of(pairs), fractions, 4), tmp_path)
        again = read_split_dir(tmp_path, table)
        (positives, assignment, negatives), want = views(again), views(data)
        assert dict(zip(positives, assignment)) == dict(zip(*want[:2]))
        assert len(data.hypernyms) == 30
        assert negatives == want[2]
        assert (again.dropped_positives, again.dropped_negatives) == (10, 8)
        assert (data.dropped_positives, data.dropped_negatives) == (10, 8)
        assert again.train_negatives == data.train_negatives


class TestSampleNegative:
    def _dataset(self, negatives, positives=None, assignment=None):
        positives = positives or [hyp("dog", "animal")]
        assignment = assignment or ["train"] * len(positives)
        return dataset_of(positives, assignment, negatives)

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
        data = dataset_of(positives, ["train", "test"], [RelationPair("dog", "feline", "synonym")])
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
        data = build_dataset(relations_of(pairs), table)
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
        data = dataset_of(positives, ["train"] * 5 + ["test"], negatives)
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
        data = dataset_of([hyp("a", "b")], ["train"], [RelationPair("a", "zz", "synonym")])
        with pytest.raises(InputError, match="'zz' of 'a'"):
            negative_index(data, table_for(["a", "b"]))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_same_draws_and_stream_as_the_loop(self, fixture, seed):
        data, table, rows = fixture
        order = np.random.default_rng(100 + seed).choice(rows, size=300)
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        got = dataset._negative_sampler(*negative_index(data, table), order)(fast)
        want = [table.lookup(sample_negative(data, table.vocab[s], slow)) for s in order]
        assert got.tolist() == want
        assert table.lookup("held") not in want
        assert np.array_equal(fast.permutation(50), slow.permutation(50))

    @pytest.mark.parametrize("words", [[], ["fox", "eel", "eel"]], ids=["empty", "fallbacks"])
    def test_fallbacks_draw_nothing(self, fixture, words):
        data, table, _ = fixture
        order = np.array([table.lookup(w) for w in words], dtype=np.int64)
        rng = np.random.default_rng(5)
        assert dataset._negative_sampler(*negative_index(data, table), order)(rng).tolist() \
            == order.tolist()
        assert np.array_equal(rng.permutation(50), np.random.default_rng(5).permutation(50))


# ---------------------------------------------------------------------------
# pair_rows against the row-by-row lookups it replaced
# ---------------------------------------------------------------------------

IN_VOCAB = [f"w{i}" for i in range(6)]
OOV = ["oov-a", "oov-b"]
SINK = "sink"  # the table's last row, in no pair: a -1 row that leaked would read it


def sink_table(seed):
    rng = np.random.default_rng(seed)
    return EmbeddingTable(IN_VOCAB + [SINK], rng.normal(size=(len(IN_VOCAB) + 1, 3)))


def oracle_found(pairs, table):
    """The row-by-row filter ``bind`` and evaluation's skips applied before ``pair_rows``."""
    return [p.source in table and p.target in table for p in pairs]


def kept_by_oracle(pairs, table):
    return [p for p, found in zip(pairs, oracle_found(pairs, table)) if found]


def oracle_negative_index(data, table):
    """The loop ``negative_index`` ran before ``pair_rows``, as lists, or its error message."""
    cand_rows = {}
    for source, cands in data.train_negatives.items():
        s = table.lookup(source)
        if s is None:
            continue
        rows = [table.lookup(w) for w in cands]
        if None in rows:
            return f"negative {cands[rows.index(None)]!r} of {source!r} is not in the embedding table"
        cand_rows[s] = rows
    counts = [len(cand_rows.get(s, [])) for s in range(len(table))]
    return [[0, *np.cumsum(counts).tolist()], [r for s in sorted(cand_rows) for r in cand_rows[s]]]


SIDES = ("neither", "source", "target", "both")


@st.composite
def pairs_with_oov(draw, relation="hypernym"):
    """Pairs of in-vocabulary words, with out-of-vocabulary words planted on either side
    or both of the first pair, the last pair and a few others."""
    word = st.sampled_from(IN_VOCAB)
    pairs = draw(st.lists(st.tuples(word, word), min_size=2, max_size=10))
    at = [0, len(pairs) - 1] + draw(st.lists(st.integers(0, len(pairs) - 1), max_size=3))
    for i in at:
        side = draw(st.sampled_from(SIDES))
        source, target = pairs[i]
        pairs[i] = (draw(st.sampled_from(OOV)) if side in ("source", "both") else source,
                    draw(st.sampled_from(OOV)) if side in ("target", "both") else target)
    return [RelationPair(source, target, relation) for source, target in pairs]


class TestPairRows:
    """Every caller of ``pair_rows`` keeps or refuses the pairs the row-by-row filter did."""

    def test_no_pairs(self):
        rows, found = dataset.pair_rows(relations_of([]), sink_table(0))
        assert rows.shape == (0, 2) and found.shape == (0,)

    @given(pairs=pairs_with_oov(), seed=st.integers(0, 3))
    def test_rows_are_the_lookups(self, pairs, seed):
        table = sink_table(seed)
        rows, found = dataset.pair_rows(relations_of(pairs), table)
        assert found.tolist() == oracle_found(pairs, table)
        assert rows.tolist() == [[table.lookup(w) if w in table else -1 for w in p[:2]]
                                 for p in pairs]

    @given(positives=pairs_with_oov(), negatives=pairs_with_oov("synonym"),
           seed=st.integers(0, 3))
    def test_bind(self, positives, negatives, seed):
        table = sink_table(seed)
        assignment = [BUCKETS[i % 3] for i in range(len(positives))]
        got = dataset.bind(dataset_of(positives, assignment, negatives, 1, 2), table)
        keep = oracle_found(positives, table)
        got_positives, got_assignment, got_negatives = views(got)
        assert got_positives == kept_by_oracle(positives, table)
        assert got_assignment == [b for b, k in zip(assignment, keep) if k]
        assert got_negatives == kept_by_oracle(negatives, table)
        assert got.dropped_positives == 1 + keep.count(False)
        assert got.dropped_negatives == 2 + len(negatives) - len(got_negatives)

    def test_bound_rows_are_read_only(self):
        """Bound rows are the columns' own ids, so no caller may write through them."""
        table = table_for(["a", "b", "c"])
        ids = np.array([[0, 1], [1, 2]])
        relations = Relations(table.vocab, ids, np.zeros(2, np.int8))
        rows, found = dataset.pair_rows(relations, table)
        assert rows is relations.ids and found.all()
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 2
        with pytest.raises(ValueError, match="read-only"):
            relations.codes[0] = 1
        ids[0, 0] = 2  # the caller's own array stays writable

    @given(pairs=pairs_with_oov(), seed=st.integers(0, 3))
    def test_offsets_and_training_refuse_what_the_filter_drops(self, pairs, seed):
        table = sink_table(seed)
        kept = kept_by_oracle(pairs, table)
        want = [table.vector(p.target) - table.vector(p.source) for p in kept]
        assert offsets(relations_of(kept), table).tolist() == np.array(want).reshape(-1, 3).tolist()
        if len(kept) == len(pairs):
            return
        first = next(p for p in pairs if p not in kept)
        message = re.escape(f"unresolvable pair ({first.source!r}, {first.target!r})")
        with pytest.raises(InputError, match=message):
            offsets(relations_of(pairs), table)
        data = dataset_of(pairs, ["train"] * len(pairs), [])
        with pytest.raises(InputError, match=message):
            train(data, table, TrainConfig(epochs=1))

    @given(pairs=pairs_with_oov(), seed=st.integers(0, 3))
    @settings(deadline=None)
    def test_evaluation_skips_what_the_filter_drops(self, pairs, seed):
        table = sink_table(seed)
        model = make_model(np.random.default_rng(seed + 10).normal(size=(3, 3)))
        kept = kept_by_oracle(pairs, table)
        if not kept:
            with pytest.raises(InputError, match="no evaluable"):
                evaluate(model, table, relations_of(pairs))
            return
        report = evaluate(model, table, relations_of(pairs), l_max=len(table))
        assert report.skips == len(pairs) - len(kept)
        # each kept pair ranked on its own, from its words, by the exact scan
        X = np.array([table.vector(p.source) for p in kept])
        queries = (X[:, None, :] @ model.matrices[0]).reshape(-1, 3)
        S = exact_cosines(table, queries, [table.lookup(p.source) for p in kept])
        want = [(p.source, p.target, gold_rank(row, table.lookup(p.target)) or None)
                for p, row in zip(kept, S)]
        assert [(r.hyponym, r.gold, r.rank) for r in report.per_pair] == want
        hits = sum(rank == 1 for *_, rank in want) / len(kept)
        assert hit_at(model, table, relations_of(pairs), 1) == report.hits[0] == hits

    @given(negatives=pairs_with_oov("synonym"), seed=st.integers(0, 3))
    def test_negative_index(self, negatives, seed):
        table = sink_table(seed)
        data = dataset_of([], [], negatives)
        try:
            got = [a.tolist() for a in negative_index(data, table)]
        except InputError as exc:
            got = str(exc)
        assert got == oracle_negative_index(data, table)


class TestSplitRoundTrip:
    def test_write_then_read(self, tmp_path):
        table = table_for([f"w{i}" for i in range(40)])
        pairs = [hyp(f"w{i}", f"w{i + 20}") for i in range(15)]
        pairs += [RelationPair("w0", "w19", "synonym")]
        data = build_dataset(relations_of(pairs), table, fractions=(0.6, 0.2, 0.2), seed=4)
        write_split(data, tmp_path)
        again = read_split_dir(tmp_path, table)
        # bucket files group pairs by bucket; the pair -> bucket mapping survives
        assert dict(zip(*views(again)[:2])) == dict(zip(*views(data)[:2]))
        assert again.train_negatives == data.train_negatives

    def test_columns_and_pairs_give_the_same_dataset(self, tmp_path):
        table = table_for([f"w{i}" for i in range(40)])
        pairs = [hyp(f"w{i}", f"w{(7 * i + 1) % 40}") for i in range(30)]
        pairs += [RelationPair(f"w{i}", f"oov{i}", "synonym") for i in range(5)]
        pairs += [RelationPair(f"w{i}", f"w{i + 1}", "cohyponym") for i in range(0, 20, 3)]
        path = tmp_path / "r.tsv"
        dataset.write_relations(relations_of(pairs), path)
        columns = read_relations(path)
        assert pairs_of(columns) == load_relations(path) == pairs
        assert columns.source_sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
        a = build_dataset(relations_of(pairs), table, seed=5)
        b = build_dataset(columns, table, seed=5)
        for data in (a, b):
            assert data.words is table.vocab
        assert views(a) == views(b)
        assert np.array_equal(a.hypernyms.ids, b.hypernyms.ids)
        model = make_model(np.random.default_rng(5).normal(size=(2, 2)))
        for bucket in BUCKETS:  # unbound columns of the words, and the bound rows
            want = evaluate(model, table, relations_of(pairs_of(a.relations_in(bucket))))
            got = evaluate(model, table, a.relations_in(bucket))
            assert (got.hits, got.per_pair, got.skips) == (want.hits, want.per_pair, want.skips)

    def test_deterministic_bytes(self, tmp_path):
        table = table_for([f"w{i}" for i in range(20)])
        pairs = [hyp(f"w{i}", f"w{i + 10}") for i in range(8)]
        d1, d2 = tmp_path / "one", tmp_path / "two"
        write_split(build_dataset(relations_of(pairs), table, seed=3), d1)
        write_split(build_dataset(relations_of(pairs), table, seed=3), d2)
        names = sorted(p.name for p in d1.iterdir())
        assert names == ["negatives.tsv", "test.tsv", "train.tsv", "validation.tsv"]
        for name in names:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_missing_bucket_file(self, tmp_path):
        with pytest.raises(InputError, match="missing"):
            read_split_dir(tmp_path, table_for(["a"]))

    @pytest.mark.parametrize("name, rows, expected", [
        ("validation", "c\td\tsynonym\ne\tf\tcohyponym\n",
         "row ('c', 'd', 'synonym') is a synonym pair, "
         "but validation.tsv holds only hypernym rows"),
        ("negatives", "c\td\thypernym\ne\tf\thypernym\n",
         "row ('c', 'd', 'hypernym') is a hypernym pair, "
         "but negatives.tsv holds no hypernym rows"),
    ], ids=["bucket-non-hypernym", "negatives-hypernym"])
    def test_wrong_relation_names_first_row(self, tmp_path, name, rows, expected):
        for bucket in BUCKETS:
            write(tmp_path / f"{bucket}.tsv", "a\tb\thypernym\n" if bucket == "train" else "")
        write(tmp_path / "negatives.tsv", "a\tg\tsynonym\n")
        path = tmp_path / f"{name}.tsv"
        path.write_text(path.read_text() + rows, encoding="utf-8")
        with pytest.raises(InputError) as err:
            read_split_dir(tmp_path, table_for("abcdefg"))
        assert str(err.value) == f"{path}: {expected}"


# ---------------------------------------------------------------------------
# the bound split cache
# ---------------------------------------------------------------------------

CACHE_SPLIT = {  # a duplicate train row, one positive and one negative out of vocabulary
    "train": "a\tb\thypernym\nc\td\thypernym\na\tb\thypernym\nc\toov\thypernym\n",
    "validation": "e\tf\thypernym\n",
    "test": "g\th\thypernym\n",
    "negatives": "a\tc\tsynonym\na\tg\tcohyponym\nb\toov\tsynonym\nb\td\tsynonym\n",
}
CACHE_TABLE = table_for("abcdefgh")


def write_split_files(split_dir, files=CACHE_SPLIT):
    split_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        write(split_dir / f"{name}.tsv", text)
    return split_dir


def split_entries(cache):
    return sorted(cache.glob("*.hpsplit")) if cache.is_dir() else []


def read_logged(caplog, split_dir, table=CACHE_TABLE, cache=None):
    """A read's dataset and its log records, as (level, message)."""
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="hyperproj.dataset"):
        data = read_split_dir(split_dir, table, cache=cache)
    return data, [(r.levelname, r.getMessage()) for r in caplog.records]


def assert_same_split(got, want):
    assert got.words is want.words
    for name in ("hypernyms", "negatives"):
        for column in ("ids", "codes"):
            a, b = getattr(getattr(got, name), column), getattr(getattr(want, name), column)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            assert not a.flags.writeable
    assert got.buckets.dtype == want.buckets.dtype
    assert got.buckets.tobytes() == want.buckets.tobytes()
    assert (got.dropped_positives, got.dropped_negatives) == (
        want.dropped_positives, want.dropped_negatives)
    assert got.source_sha256 == want.source_sha256


class TestSplitCache:
    def test_a_warm_read_is_a_cold_one(self, tmp_path, caplog):
        split, cache = write_split_files(tmp_path / "split"), tmp_path / "cache"
        plain, plain_log = read_logged(caplog, split)
        assert [level for level, _ in plain_log] == ["WARNING", "INFO"]  # both replayed below
        cold, cold_log = read_logged(caplog, split, cache=cache)
        with mock.patch.object(dataset, "_parse", side_effect=AssertionError):
            warm, warm_log = read_logged(caplog, split, cache=cache)
        assert [d.cache_status for d in (plain, cold, warm)] == [None, "miss", "hit"]
        for data in (cold, warm):
            assert_same_split(data, plain)
        assert cold_log == warm_log == plain_log
        assert len(split_entries(cache)) == 1
        assert [a.tolist() for a in negative_index(warm, CACHE_TABLE)] == [
            a.tolist() for a in negative_index(plain, CACHE_TABLE)]

    def test_a_hit_names_the_paths_of_its_own_call(self, tmp_path, caplog):
        cache = tmp_path / "cache"
        read_split_dir(write_split_files(tmp_path / "one"), CACHE_TABLE, cache=cache)
        other = write_split_files(tmp_path / "two")
        plain, plain_log = read_logged(caplog, other)
        warm, warm_log = read_logged(caplog, other, cache=cache)
        assert warm.cache_status == "hit" and len(split_entries(cache)) == 1
        assert_same_split(warm, plain)
        assert warm_log == plain_log and str(other / "train.tsv") in warm_log[0][1]
        assert set(warm.source_sha256) == {other / f"{name}.tsv" for name in CACHE_SPLIT}

    def test_a_missing_negatives_file_is_its_own_key(self, tmp_path):
        cache, split = tmp_path / "cache", write_split_files(tmp_path / "split")
        read_split_dir(split, CACHE_TABLE, cache=cache)
        (split / "negatives.tsv").unlink()
        for status in ("miss", "hit"):
            data = read_split_dir(split, CACHE_TABLE, cache=cache)
            assert data.cache_status == status
            assert_same_split(data, read_split_dir(split, CACHE_TABLE))
        assert len(data.negatives) == 0 and len(split_entries(cache)) == 2

    @pytest.mark.parametrize("name, text", [
        ("negatives", "a\tc\thypernym\n"), ("validation", "e\tf\tsynonym\n"),
        ("test", "g\tg\thypernym\n"), ("train", None)],
        ids=["negatives-hypernym", "bucket-synonym", "unparsable", "missing-bucket"])
    def test_a_failing_split_writes_no_entry(self, tmp_path, capsys, name, text):
        fixture, split = tmp_path / "fixture", write_split_files(tmp_path / "split")
        assert cli.main(["synth", "--d", "2", "--n", "4", "--distractors", "1",
                         "--out", str(fixture)]) == 0
        path = split / f"{name}.tsv"
        path.unlink()
        if text is not None:
            write(path, text)
        with pytest.raises(InputError) as plain:
            read_split_dir(split, CACHE_TABLE)
        capsys.readouterr()
        for cache in (None, tmp_path / "cache", tmp_path / "cache"):
            with mock.patch("hyperproj.cache.directory", return_value=cache):
                code = cli.main(["cluster", "--embeddings", str(fixture / "embeddings.txt"),
                                 "--split-dir", str(split), "--k", "1",
                                 "--out", str(tmp_path / "c.json")])
            assert (code, capsys.readouterr().err) == (2, f"error: {plain.value}\n")
        assert split_entries(tmp_path / "cache") == []

    @pytest.mark.parametrize("damage", [
        "truncated", "flipped", "appended", "not-a-container", "another-key", "another-version",
        "counts", "row-outside-the-table", "fractional-row", "negative-code",
        "duplicates-not-a-list"])
    def test_an_unsound_entry_is_a_miss_and_rewritten(self, tmp_path, caplog, damage):
        split, cache = write_split_files(tmp_path / "split"), tmp_path / "cache"
        plain, plain_log = read_logged(caplog, split)
        read_split_dir(split, CACHE_TABLE, cache=cache)
        [entry] = split_entries(cache)
        valid = entry.read_bytes()
        header, payload = read_container(entry, dataset.SPLIT_MAGIC)
        payload = payload.copy()
        n = header["positives"]
        if damage == "truncated":
            entry.write_bytes(valid[:len(valid) // 2])
        elif damage == "flipped":
            entry.write_bytes(valid[:-20] + bytes([valid[-20] ^ 1]) + valid[-19:])
        elif damage == "appended":
            entry.write_bytes(valid + b"\0" * 8)
        elif damage == "not-a-container":
            entry.write_bytes(b"HPTAB1 a table's magic")
        else:
            if damage == "another-key":
                header["key"][0] = "0" * 64
            elif damage == "another-version":
                header["version"] += 1
            elif damage == "counts":
                header["positives"], header["negatives"] = n - 1, header["negatives"] + 1
            elif damage == "row-outside-the-table":
                payload[0] = len(CACHE_TABLE)
            elif damage == "fractional-row":
                payload[0] += 0.5
            elif damage == "negative-code":  # a positive row's relation code
                payload[2 * n] = 1
            else:
                header["duplicates"] = 1
            write_container(entry, dataset.SPLIT_MAGIC, header, payload)
        data, log = read_logged(caplog, split, cache=cache)
        assert data.cache_status == "miss"
        assert_same_split(data, plain)
        assert log == plain_log
        assert entry.read_bytes() == valid  # rewritten
        assert read_split_dir(split, CACHE_TABLE, cache=cache).cache_status == "hit"

    @pytest.mark.parametrize("cache", ["file", "file/below", "dir"])
    def test_an_unwritable_directory_parses_every_time(self, tmp_path, cache):
        split = write_split_files(tmp_path / "split")
        plain = read_split_dir(split, CACHE_TABLE)
        write(tmp_path / "file", "not a directory")
        key = dataset._split_key(dataset._read_ahead(
            [split / f"{name}.tsv" for name in dataset.SPLIT_FILES]), CACHE_TABLE)
        name = hashlib.sha256(" ".join(key).encode()).hexdigest()
        # where the entry goes
        (tmp_path / "dir" / f"{name}-{dataset.SPLIT_CACHE_VERSION}.hpsplit").mkdir(parents=True)
        parse = mock.Mock(wraps=dataset._parse)
        with mock.patch.object(dataset, "_parse", parse):
            for _ in range(2):
                data = read_split_dir(split, CACHE_TABLE, cache=tmp_path / cache)
                assert data.cache_status == "miss"
                assert_same_split(data, plain)
        assert parse.call_count == 2 * len(dataset.SPLIT_FILES)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file", "split"]

    def test_another_vocabulary_misses(self, tmp_path):
        split, cache = write_split_files(tmp_path / "split"), tmp_path / "cache"
        # the same words in another order, and one word fewer: other rows, other drops
        tables = [CACHE_TABLE, table_for("hgfedcba"), table_for("abcdefg"), CACHE_TABLE]
        statuses = []
        for table in tables:
            data = read_split_dir(split, table, cache=cache)
            assert_same_split(data, read_split_dir(split, table))
            statuses.append(data.cache_status)
        assert statuses == ["miss", "miss", "miss", "hit"]
        assert len(split_entries(cache)) == 3

    def test_a_word_with_a_newline_is_never_cached(self, tmp_path):
        # ["a", "b\nc"] and ["a\nb", "c"] join alike, so vocab_hash cannot tell them apart
        split, cache = write_split_files(tmp_path / "split"), tmp_path / "cache"
        table = table_for([*"abdefgh", "c\nx"])
        for _ in range(2):
            data = read_split_dir(split, table, cache=cache)
            assert data.cache_status is None
            assert_same_split(data, read_split_dir(split, table))
        assert not cache.exists()

    def test_eviction_counts_both_entry_kinds(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        # tables of 20 columns: each entry is larger than the split's
        emb = [write(tmp_path / f"e{i}.txt", "".join(f"{w}{f' {i}' * 20}\n" for w in "abcdefgh"))
               for i in range(2)]
        split = write_split_files(tmp_path / "split")
        load_embeddings(emb[0], cache=cache)
        read_split_dir(split, CACHE_TABLE, cache=cache)
        [table_entry] = cache.glob("*.hptab")
        [split_entry] = split_entries(cache)
        os.utime(split_entry, ns=(0, 10**9))  # the least recently used
        os.utime(table_entry, ns=(0, 2 * 10**9))
        # room for two tables, not for two tables and a split
        assert split_entry.stat().st_size < table_entry.stat().st_size
        monkeypatch.setattr("hyperproj.cache.MAX_BYTES", 2 * table_entry.stat().st_size)
        load_embeddings(emb[1], cache=cache)  # a table entry evicts the split's
        assert table_entry.exists() and not split_entry.exists()
        assert len(list(cache.iterdir())) == 2
        # and a split entry evicts the least recently used table's
        os.utime(table_entry, ns=(0, 10**9))
        read_split_dir(split, CACHE_TABLE, cache=cache)
        assert split_entry.exists() and not table_entry.exists()
        assert len(list(cache.iterdir())) == 2
