import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperproj.dataset import RelationPair, read_relations
from hyperproj.errors import InputError
from hyperproj.synth import (
    MIXER_SCALE,
    SynthConfig,
    _random_rotation,
    _unit_rows,
    make_fixture,
    write_fixture,
)

from conftest import pairs_of


def reference_fixture(cfg):
    """make_fixture with its distractors built row by row, one at a time."""
    rng = np.random.default_rng(cfg.seed)
    d, n = cfg.dim, cfg.n_pairs
    raw = rng.normal(size=(n, d))
    a = np.deg2rad(cfg.hyper_angle_deg)
    mixers = [MIXER_SCALE * (np.cos(a) * np.eye(d) + np.sin(a) * _random_rotation(d, rng))
              for _ in range(cfg.planted_clusters)]
    groups = rng.integers(cfg.planted_clusters, size=n)
    if cfg.planted_clusters == 1:
        X = _unit_rows(raw)
    else:
        centers = _unit_rows(rng.normal(size=(cfg.planted_clusters, d)))
        X = _unit_rows(centers[groups] + 0.8 * _unit_rows(raw))
    Y = np.empty_like(X)
    for g, A in enumerate(mixers):
        members = groups == g
        Y[members] = X[members] @ A
    if cfg.noise > 0:
        Y = Y + cfg.noise * rng.normal(size=(n, d))

    width = len(str(n - 1))
    hypo_words = [f"hypo{i:0{width}d}" for i in range(n)]
    hyper_words = [f"hyper{i:0{width}d}" for i in range(n)]
    vocab = hypo_words + hyper_words
    vectors = [X, Y]
    relations = [RelationPair(hypo_words[i], hyper_words[i], "hypernym") for i in range(n)]
    if cfg.distractors > 0:
        theta = np.deg2rad(cfg.distractor_angle_deg)
        syn_rows = np.empty((n * cfg.distractors, d))
        for i in range(n):
            for j in range(cfg.distractors):
                ang = rng.uniform(0.0, theta)
                rnd = rng.normal(size=d)
                perp = rnd - (rnd @ X[i]) * X[i]
                perp /= np.linalg.norm(perp)
                syn_rows[i * cfg.distractors + j] = np.cos(ang) * X[i] + np.sin(ang) * perp
                word = f"syn{i:0{width}d}_{j}"
                vocab.append(word)
                relations.append(RelationPair(hypo_words[i], word, "synonym"))
        vectors.append(syn_rows)
    return vocab, np.vstack(vectors), relations


def assert_matches_reference(cfg):
    table, relations = make_fixture(cfg)
    vocab, vectors, ref_relations = reference_fixture(cfg)
    assert np.array_equal(table.vectors, vectors)
    assert table.vocab == vocab
    assert relations.words is table.vocab
    assert pairs_of(relations) == ref_relations


class TestMatchesRowByRowReference:
    """The distractors are the bits of the row-by-row loop, draw for draw."""

    @pytest.mark.parametrize("clusters, distractors, dim, noise",
                             itertools.product([1, 3], [0, 1, 5], [2, 10], [0.0, 0.05]))
    def test_grid(self, clusters, distractors, dim, noise):
        for seed in (0, 1, 7):
            assert_matches_reference(SynthConfig(
                dim=dim, n_pairs=40, noise=noise, distractors=distractors, seed=seed,
                planted_clusters=clusters, hyper_angle_deg=25.0))

    @settings(max_examples=50, deadline=None)
    @given(dim=st.integers(2, 12), n=st.integers(1, 30), distractors=st.integers(0, 6),
           clusters=st.integers(1, 3), noise=st.sampled_from([0.0, 0.05]),
           angle=st.floats(0.0, 180.0), seed=st.integers(0, 2**32))
    def test_sweep(self, dim, n, distractors, clusters, noise, angle, seed):
        assert_matches_reference(SynthConfig(
            dim=dim, n_pairs=n, noise=noise, distractors=distractors, seed=seed,
            planted_clusters=clusters, distractor_angle_deg=angle))


class TestMakeFixture:
    def test_deterministic(self, tmp_path):
        cfg = SynthConfig(dim=6, n_pairs=20, distractors=2, seed=9)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        write_fixture(*make_fixture(cfg), d1)
        write_fixture(*make_fixture(cfg), d2)
        for name in ("embeddings.txt", "relations.tsv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_relations_are_table_rows_and_read_back_equal(self, tmp_path):
        n, k = 7, 3
        table, relations = make_fixture(SynthConfig(dim=4, n_pairs=n, distractors=k, seed=8))
        assert relations.words is table.vocab
        hypernyms = [[i, n + i] for i in range(n)]
        synonyms = [[r // k, 2 * n + r] for r in range(n * k)]
        assert relations.ids.tolist() == hypernyms + synonyms
        assert relations.codes.tolist() == [0] * n + [1] * (n * k)
        again = read_relations(write_fixture(table, relations, tmp_path)["relations"])
        assert pairs_of(again) == pairs_of(relations)

    def test_no_distractors_means_only_hypernym_rows(self):
        _, relations = make_fixture(SynthConfig(dim=5, n_pairs=10, seed=1))
        assert all(p.relation == "hypernym" for p in pairs_of(relations))
        assert len(relations) == 10

    def test_distractor_rows_and_words(self):
        table, relations = make_fixture(SynthConfig(dim=5, n_pairs=10, distractors=3, seed=2))
        synonyms = [p for p in pairs_of(relations) if p.relation == "synonym"]
        assert len(synonyms) == 30
        assert len(table) == 10 * 2 + 30

    def test_distractors_inside_cone(self):
        cfg = SynthConfig(dim=8, n_pairs=15, distractors=4, seed=3,
                          distractor_angle_deg=15.0)
        table, relations = make_fixture(cfg)
        for pair in pairs_of(relations):
            if pair.relation != "synonym":
                continue
            x = table.vector(pair.source)
            z = table.vector(pair.target)
            cos = float(x @ z) / (np.linalg.norm(x) * np.linalg.norm(z))
            assert np.degrees(np.arccos(np.clip(cos, -1, 1))) <= 15.0 + 1e-9

    def test_noise_zero_is_exactly_linear(self):
        cfg = SynthConfig(dim=6, n_pairs=50, noise=0.0, seed=4)
        table, relations = make_fixture(cfg)
        X, Y = table.vectors[relations.ids.T]
        A, residuals, *_ = np.linalg.lstsq(X, Y, rcond=None)
        assert np.abs(X @ A - Y).max() < 1e-12

    def test_hyper_angle_honored(self):
        cfg = SynthConfig(dim=10, n_pairs=200, seed=5, hyper_angle_deg=25.0)
        table, relations = make_fixture(cfg)
        angles = []
        for p in pairs_of(relations):
            x, y = table.vector(p.source), table.vector(p.target)
            cos = float(x @ y) / (np.linalg.norm(x) * np.linalg.norm(y))
            angles.append(np.degrees(np.arccos(np.clip(cos, -1, 1))))
        assert 20.0 < float(np.mean(angles)) < 30.0

    def test_planted_clusters_distinct_mixers(self):
        cfg = SynthConfig(dim=6, n_pairs=100, seed=6, planted_clusters=2)
        table, relations = make_fixture(cfg)
        X, Y = table.vectors[relations.ids.T]
        # a single linear map cannot explain two different mixers
        A, *_ = np.linalg.lstsq(X, Y, rcond=None)
        assert np.abs(X @ A - Y).max() > 1e-3

    def test_validation(self):
        with pytest.raises(InputError):
            SynthConfig(dim=1).validate()
        with pytest.raises(InputError):
            SynthConfig(noise=-1.0).validate()
        with pytest.raises(InputError):
            SynthConfig(distractors=-1).validate()
        with pytest.raises(InputError, match="cannot be addressed"):
            SynthConfig(n_pairs=1000, distractors=10**18).validate()
        with pytest.raises(InputError, match="cannot be addressed"):
            SynthConfig(dim=10**11).validate()
