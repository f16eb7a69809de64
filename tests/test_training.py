import logging

import numpy as np
import pytest

from hyperproj import training
from hyperproj.clustering import ClusterModel, assign_clusters, fit_kmeans, offsets
from hyperproj.dataset import (
    RelationPair,
    _negative_sampler,
    build_dataset,
    negative_index,
    sample_negative,
)
from hyperproj.embeddings import EmbeddingTable, vocab_hash
from hyperproj.errors import InputError, TrainingError
from hyperproj.evaluation import hit_at
from hyperproj.projection import (
    ProjectionModel,
    Regularizer,
    TrainingMeta,
    loss_terms_and_gradient,
    save_model,
)
from hyperproj.training import (
    AdamState,
    TrainConfig,
    adam_step,
    train,
    write_trace_csv,
)

from conftest import dataset_of, oracle_rank_pairs, pairs_of, relations_of


def hyp(a, b):
    return RelationPair(a, b, "hypernym")


def init_matrix(d, seed, cid=0):
    """The matrix a cluster starts training from."""
    cfg = TrainConfig(seed=seed)
    return training._Cluster(cid, np.zeros(0, np.int64), cfg, d, None).phi0


class TestInitMatrix:
    def test_moments(self):
        # 2500 draws: sample mean ~ N(0, std/50), sample std concentrates at 0.1
        assert training.INIT_STD == 0.1
        m = init_matrix(50, seed=0)
        assert abs(m.mean()) < 0.01
        assert abs(m.std() - 0.1) < 0.01

    def test_same_seed_same_matrix(self):
        assert np.array_equal(init_matrix(8, seed=5), init_matrix(8, seed=5))

    def test_different_seed_differs(self):
        assert not np.array_equal(init_matrix(8, seed=5), init_matrix(8, seed=6))
        assert not np.array_equal(init_matrix(8, seed=5), init_matrix(8, seed=5, cid=1))


class TestAdamStep:
    def test_zero_gradient_leaves_matrix_unchanged(self):
        phi = np.array([[1.0, 2.0], [3.0, 4.0]])
        state = AdamState.zeros_like(phi)
        new_phi, state = adam_step(phi, np.zeros_like(phi), state, 0.001)
        assert np.array_equal(new_phi, phi)
        assert state.t == 1

    def test_first_step_magnitude_is_alpha(self):
        # with constant g=1, bias correction gives m_hat/sqrt(v_hat) = 1
        phi = np.zeros((1, 1))
        new_phi, _ = adam_step(phi, np.ones((1, 1)), AdamState.zeros_like(phi), 0.001)
        assert new_phi[0, 0] == pytest.approx(-0.001, rel=1e-6)

    def test_quadratic_convergence(self):
        # minimize (phi - 3)^2 by its exact gradient 2 (phi - 3); the step
        # size must be large enough that 2000 steps can cover the distance
        # (per-step movement is bounded by alpha)
        phi = np.zeros((1, 1))
        state = AdamState.zeros_like(phi)
        for _ in range(2000):
            grad = 2.0 * (phi - 3.0)
            phi, state = adam_step(phi, grad, state, 0.01)
        assert abs(phi[0, 0] - 3.0) < 1e-2

    def test_shape_mismatch_rejected(self):
        phi = np.zeros((2, 2))
        with pytest.raises(InputError, match="shapes"):
            adam_step(phi, np.zeros((3, 3)), AdamState.zeros_like(phi), 0.001)

    def test_stack_with_unequal_step_counts_matches_separate_steps(self):
        rng = np.random.default_rng(2)
        phi, grad, m = (rng.normal(size=(3, 4, 4)) for _ in range(3))
        v = rng.random(size=(3, 4, 4))
        counts = [0, 5, 12]
        stacked_phi, stacked = adam_step(phi, grad, AdamState(m, v, np.array(counts)), 0.01)
        for i, t in enumerate(counts):
            alone_phi, alone = adam_step(phi[i], grad[i], AdamState(m[i], v[i], t), 0.01)
            assert np.array_equal(stacked_phi[i], alone_phi)
            assert np.array_equal(stacked.m[i], alone.m) and np.array_equal(stacked.v[i], alone.v)
            assert stacked.t[i] == alone.t
        assert stacked.t.tolist() == [1, 6, 13]

    def test_second_moment_stays_non_negative(self):
        rng = np.random.default_rng(0)
        phi = rng.normal(size=(3, 3))
        state = AdamState.zeros_like(phi)
        for _ in range(50):
            phi, state = adam_step(phi, rng.normal(size=(3, 3)), state, 0.001)
        assert (state.v >= 0).all()


def planted_fixture(n=1000, d=10, seed=13):
    """y = x A exactly for a random orthogonal A; all pairs in the train bucket."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    X /= np.linalg.norm(X, axis=1)[:, None]
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    A = q * np.sign(np.diag(r))
    Y = X @ A
    vocab = [f"x{i}" for i in range(n)] + [f"y{i}" for i in range(n)]
    table = EmbeddingTable(vocab, np.vstack([X, Y]))
    pairs = [hyp(f"x{i}", f"y{i}") for i in range(n)]
    data = dataset_of(pairs, ["train"] * n, [])
    return table, data, A


class TestTrain:
    def test_planted_orthogonal_recovery(self):
        # 700 epochs at batch 128 drive the exact-fit residual below 1e-3
        table, data, _ = planted_fixture()
        cfg = TrainConfig(epochs=700, batch_size=128, k=1, seed=13)
        model = train(data, table, cfg)
        assert model.meta.final_losses[0] < 1e-3

    def test_epochs_zero_rejected(self):
        table, data, _ = planted_fixture(n=20)
        with pytest.raises(InputError, match="epochs"):
            train(data, table, TrainConfig(epochs=0, k=1))

    def test_step_accounting_single_epoch(self):
        table, data, _ = planted_fixture(n=100)
        cfg = TrainConfig(epochs=1, batch_size=32, k=1, seed=0)
        model = train(data, table, cfg)
        assert model.meta.steps == [int(np.ceil(100 / 32))]

    def test_same_seed_byte_identical_model_files(self, tmp_path):
        table, data, _ = planted_fixture(n=60)
        cfg = TrainConfig(epochs=5, batch_size=16, k=2, seed=21,
                          regularizer=Regularizer.ASYMMETRIC_REPROJ, lam=0.1)
        p1, p2 = tmp_path / "a.hprj", tmp_path / "b.hprj"
        save_model(train(data, table, cfg), p1)
        save_model(train(data, table, cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_cluster_stays_at_init(self, caplog):
        # both offsets coincide, so the second centroid never receives points
        table = EmbeddingTable(["x1", "y1", "x2", "y2"],
                               np.array([[1.0, 0.0], [2.0, 0.0],
                                         [0.0, 1.0], [1.0, 1.0]]))
        data = dataset_of([hyp("x1", "y1"), hyp("x2", "y2")], ["train", "train"], [])
        cfg = TrainConfig(epochs=2, batch_size=8, k=2, seed=3)
        with caplog.at_level(logging.WARNING):
            model = train(data, table, cfg)
        assert "no training pairs" in caplog.text
        assert model.meta.steps[1] == 0
        assert model.meta.final_losses[1] is None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # fixture overflows by design
    def test_non_finite_gradient_aborts_with_location(self):
        big = 1e200
        table = EmbeddingTable(["x1", "y1"], np.array([[big, 0.0], [0.0, big]]))
        data = dataset_of([hyp("x1", "y1")], ["train"], [])
        cfg = TrainConfig(epochs=3, batch_size=4, k=1, seed=0)
        with pytest.raises(TrainingError, match="cluster 0 at epoch 1"):
            train(data, table, cfg)

    def test_neighbor_training_uses_negatives(self):
        rng = np.random.default_rng(4)
        words = [f"w{i}" for i in range(30)]
        table = EmbeddingTable(words, rng.normal(size=(30, 4)))
        pairs = [hyp(words[i], words[i + 10]) for i in range(10)]
        negatives = [RelationPair(words[i], words[i + 20], "synonym") for i in range(10)]
        data = build_dataset(relations_of(pairs + negatives), table, fractions=(0.8, 0.1, 0.1),
                             seed=0)
        cfg = TrainConfig(epochs=3, batch_size=8, k=1, seed=5,
                          regularizer=Regularizer.NEIGHBOR_REPROJ, lam=0.5)
        model = train(data, table, cfg)
        assert np.isfinite(model.matrices).all()
        assert any(row[3] > 0 for row in model.meta.trace)  # regularizer term active

    @pytest.mark.parametrize("batch_size", [1024, 8])
    @pytest.mark.parametrize("kind", [Regularizer.NEIGHBOR_PLAIN, Regularizer.NEIGHBOR_REPROJ])
    def test_one_call_negatives_match_per_example_loop(self, tmp_path, monkeypatch,
                                                       kind, batch_size):
        rng = np.random.default_rng(8)
        words = [f"w{i}" for i in range(90)]
        table = EmbeddingTable(words, rng.normal(size=(90, 4)))
        pairs = [hyp(words[i], words[i + 30]) for i in range(30)]
        # 0-3 candidates per hyponym, some of them held-out words
        negatives = [RelationPair(words[i], words[j], "synonym")
                     for i in range(30) for j in rng.choice(90, size=i % 4, replace=False)
                     if j != i]
        data = build_dataset(relations_of(pairs + negatives), table, fractions=(0.7, 0.15, 0.15),
                             seed=2)
        cfg = TrainConfig(epochs=4, batch_size=batch_size, k=2, seed=9, regularizer=kind,
                          lam=0.5)

        def artifacts(name):
            model = train(data, table, cfg)
            save_model(model, tmp_path / f"{name}.hprj")
            write_trace_csv(model, tmp_path / f"{name}.csv")
            return [(tmp_path / f"{name}.{ext}").read_bytes() for ext in ("hprj", "csv")]

        fast = artifacts("fast")
        calls = []

        def per_example(indptr, indices, sources):
            def draw(rng):
                calls.append(len(sources))
                return np.array([table.lookup(sample_negative(data, words[s], rng))
                                 for s in sources], dtype=np.int64)
            return draw

        monkeypatch.setattr(training, "_negative_sampler", per_example)
        assert artifacts("slow") == fast
        assert len(calls) == 2 * cfg.epochs and sum(calls) == 4 * len(data.relations_in("train"))

    def test_validation_selection_smoke(self):
        table, data, _ = planted_fixture(n=80)
        # move a fifth of the pairs to the validation bucket
        assignment = ["validation" if i % 5 == 0 else "train" for i in range(80)]
        data = dataset_of(pairs_of(data.hypernyms), assignment, [])
        cfg = TrainConfig(epochs=5, batch_size=32, k=1, seed=6,
                          select_on="best_validation_hit10")
        final_cfg = TrainConfig(epochs=5, batch_size=32, k=1, seed=6, select_on="final")
        selected = train(data, table, cfg)
        final = train(data, table, final_cfg)
        # with epochs < 10 the only checkpoint is the final epoch
        assert np.array_equal(selected.matrices, final.matrices)
        hit10 = hit_at(final, table, data.relations_in("validation"), 10)
        assert selected.meta.validation == {"every": 10, "hit10": [[5, hit10]],
                                            "selected_epoch": 5}
        assert final.meta.validation is None

    def test_empty_train_bucket_rejected(self):
        table = EmbeddingTable(["a", "b"], np.eye(2))
        data = dataset_of([hyp("a", "b")], ["test"], [])
        with pytest.raises(InputError, match="training bucket"):
            train(data, table, TrainConfig(epochs=1, k=1))

    def test_loss_trace_is_finite_and_complete(self):
        table, data, _ = planted_fixture(n=50)
        cfg = TrainConfig(epochs=6, batch_size=16, k=1, seed=7)
        model = train(data, table, cfg)
        assert len(model.meta.trace) == 6
        for epoch, cid, base, reg, total in model.meta.trace:
            assert np.isfinite(base) and np.isfinite(reg) and np.isfinite(total)


class ReferenceCluster:
    """One cluster trained alone, as before clusters stepped together: its own
    matrix and Adam state, single-matrix steps, one negative draw call per epoch."""

    def __init__(self, cid, pairs, table, cfg):
        self.cid = cid
        self.rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(cid,)))
        self.phi = self.rng.normal(0.0, training.INIT_STD, size=(table.dim, table.dim))
        self.state = AdamState.zeros_like(self.phi)
        self.sources = np.array([table.lookup(p.source) for p in pairs], dtype=np.int64)
        self.X = table.vectors[self.sources]
        self.Y = table.rows([p.target for p in pairs]) if pairs else np.zeros((0, table.dim))
        self.trace = []

    def epoch(self, epoch, cfg, negatives, table):
        n = len(self.sources)
        perm = self.rng.permutation(n)
        Z = None
        if negatives is not None:
            Z = table.vectors[_negative_sampler(*negatives, self.sources)(self.rng)[perm]]
        X, Y = self.X[perm], self.Y[perm]
        base_sum = reg_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            stop = min(start + cfg.batch_size, n)
            base, reg, grad = loss_terms_and_gradient(
                self.phi, X[start:stop], Y[start:stop],
                None if Z is None else Z[start:stop], cfg.regularizer, cfg.lam)
            self.phi, self.state = adam_step(self.phi, grad, self.state, cfg.alpha)
            base_sum += base * (stop - start)
            reg_sum += reg * (stop - start)
        self.trace.append((epoch, self.cid, base_sum / n, reg_sum / n,
                           base_sum / n + cfg.lam * (reg_sum / n)))


def reference_train(data, table, cfg, clusters):
    """train() as a cluster-by-cluster loop: each cluster runs its whole epoch in turn."""
    train_pairs = pairs_of(data.relations_in("train"))
    assign = assign_clusters(clusters, offsets(data.relations_in("train"), table))
    negatives = negative_index(data, table) if cfg.regularizer.needs_negatives else None
    ref = [ReferenceCluster(cid, [p for p, a in zip(train_pairs, assign) if a == cid], table, cfg)
           for cid in range(cfg.k)]
    meta = TrainingMeta(seed=cfg.seed, epochs=cfg.epochs, batch_size=cfg.batch_size)
    validation = pairs_of(data.relations_in("validation"))
    best_hit, best, best_epoch, checks = -1.0, None, None, []
    for epoch in range(1, cfg.epochs + 1):
        for c in ref:
            if len(c.sources):
                c.epoch(epoch, cfg, negatives, table)
        if cfg.select_on == "best_validation_hit10" and (epoch % 10 == 0 or epoch == cfg.epochs):
            snapshot = np.stack([c.phi for c in ref])
            model = ProjectionModel(snapshot, clusters, cfg.regularizer, cfg.lam, meta,
                                    vocab_hash(table))
            _, ranks = oracle_rank_pairs(model, table, validation)
            hit = int(np.count_nonzero((ranks >= 1) & (ranks <= 10))) / len(ranks)
            checks.append([epoch, hit])
            if hit > best_hit:
                best_hit, best, best_epoch = hit, snapshot, epoch
    if checks:
        meta.validation = {"every": 10, "hit10": checks, "selected_epoch": best_epoch}
    meta.final_losses = [c.trace[-1][4] if c.trace else None for c in ref]
    meta.steps = [int(c.state.t) for c in ref]
    meta.trace = sorted(row for c in ref for row in c.trace)
    lam = 0.0 if cfg.regularizer is Regularizer.NONE else cfg.lam
    matrices = best if best is not None else np.stack([c.phi for c in ref])
    return ProjectionModel(matrices, clusters, cfg.regularizer, lam, meta, vocab_hash(table))


class TestLockstep:
    """train() steps the clusters together; every output equals the cluster-by-cluster loop's."""

    @pytest.fixture(scope="class")
    def setup(self):
        rng = np.random.default_rng(11)
        words = [f"w{i}" for i in range(150)]
        table = EmbeddingTable(words, rng.normal(size=(150, 4)))
        pairs = [hyp(words[i], words[i + 50]) for i in range(50)]
        negatives = [RelationPair(words[i], words[100 + (7 * i + j) % 50], "cohyponym")
                     for i in range(50) for j in range(i % 3)]
        data = build_dataset(relations_of(pairs + negatives), table, fractions=(0.7, 0.15, 0.15),
                             seed=1)
        two = fit_kmeans(offsets(data.relations_in("train"), table), 2, seed=5)  # 25 and 10 pairs
        # a third centroid far from every offset: cluster 2 gets no training pair
        clusters = ClusterModel(np.vstack([two.centroids, np.full(4, 1e3)]), two.inertia)
        return data, table, clusters

    @staticmethod
    def assert_same_bytes(data, table, cfg, clusters, tmp_path):
        """train() and the per-cluster loop write the same model and trace bytes."""
        got = train(data, table, cfg, clusters=clusters)
        want = reference_train(data, table, cfg, clusters)
        assert got.meta.steps == want.meta.steps
        assert got.meta.final_losses == want.meta.final_losses
        assert got.meta.validation == want.meta.validation
        for name, model in (("got", got), ("want", want)):
            save_model(model, tmp_path / f"{name}.hprj")
            write_trace_csv(model, tmp_path / f"{name}.csv")
        for ext in ("hprj", "csv"):
            assert (tmp_path / f"got.{ext}").read_bytes() == (tmp_path / f"want.{ext}").read_bytes()
        return got

    @pytest.mark.parametrize("select_on", training.SELECT_ON)
    @pytest.mark.parametrize("kind", list(Regularizer))
    def test_outputs_equal_the_per_cluster_loop(self, setup, tmp_path, kind, select_on):
        data, table, clusters = setup
        cfg = TrainConfig(epochs=20, batch_size=8, k=3, seed=5, alpha=0.01, lam=0.5,
                          regularizer=kind, select_on=select_on)
        got = self.assert_same_bytes(data, table, cfg, clusters, tmp_path)
        sizes = got.meta.data["train_pairs"]
        assert sizes[2] == 0 and len({-(-n // 8) for n in sizes[:2]}) == 2  # uneven batch counts

    @pytest.mark.parametrize("kind", [Regularizer.NONE, Regularizer.NEIGHBOR_PLAIN])
    def test_validation_selection_with_four_clusters_one_empty(self, setup, tmp_path, kind):
        # every check ranks the same bound validation pairs; cluster 3 has no pair at all
        data, table, _ = setup
        three = fit_kmeans(offsets(data.relations_in("train"), table), 3, seed=5)
        clusters = ClusterModel(np.vstack([three.centroids, np.full(4, 1e3)]), three.inertia)
        cfg = TrainConfig(epochs=45, batch_size=8, k=4, seed=3, alpha=0.05, lam=0.5,
                          regularizer=kind, select_on="best_validation_hit10")
        got = self.assert_same_bytes(data, table, cfg, clusters, tmp_path)
        assert got.meta.data["train_pairs"][3] == 0
        record = got.meta.validation
        assert [epoch for epoch, _ in record["hit10"]] == [10, 20, 30, 40, 45]
        hits = [hit for _, hit in record["hit10"]]
        assert record["selected_epoch"] == record["hit10"][hits.index(max(hits))][0]
        validation = data.relations_in("validation")
        assert set(assign_clusters(clusters, offsets(validation, table))) <= {0, 1, 2}

    @staticmethod
    def fixture_d10(sizes, big=()):
        """d = 10 data whose training pairs fall in clusters of exactly ``sizes``.

        Cluster c's offsets lie near 4 e_(c+1). The first hyponym of each
        cluster in ``big`` has 1e160 as its first entry, as has its
        hypernym, so its offset stays small and its gradient overflows.
        Every third hyponym has no training negative; the others have two
        co-hyponyms. Six validation pairs let validation-based selection run.
        """
        d = 10
        rng = np.random.default_rng(17)
        words, vectors, pairs, buckets, negatives = [], [], [], [], []
        for c, n in enumerate(sizes):
            for i in range(n):
                x = rng.normal(size=d)
                if c in big and i == 0:
                    x[0] = 1e160
                offset = 4.0 * np.eye(d)[c + 1] + 0.1 * rng.normal(size=d) * (np.arange(d) > 0)
                words += [f"x{c}.{i}", f"y{c}.{i}"]
                vectors += [x, x + offset]
                pairs.append(hyp(f"x{c}.{i}", f"y{c}.{i}"))
                buckets.append("train")
                if i % 3:
                    negatives += [RelationPair(f"x{c}.{i}", f"x{c}.{j % n}", "cohyponym")
                                  for j in (i + 1, i + 2)]
        for i in range(6):  # validation pairs of cluster 0's direction
            x = rng.normal(size=d)
            words += [f"v{i}", f"w{i}"]
            vectors += [x, x + 4.0 * np.eye(d)[1]]
            pairs.append(hyp(f"v{i}", f"w{i}"))
            buckets.append("validation")
        table = EmbeddingTable(words, np.array(vectors))
        clusters = ClusterModel(4.0 * np.eye(d)[1:len(sizes) + 1], 0.0)
        return dataset_of(pairs, buckets, negatives), table, clusters

    @pytest.mark.parametrize("select_on", training.SELECT_ON)
    @pytest.mark.parametrize("kind", list(Regularizer))
    def test_d10_every_cluster_in_one_batch(self, tmp_path, kind, select_on):
        # the desk case: each cluster's whole epoch is one batch, of three uneven sizes
        data, table, clusters = self.fixture_d10((23, 17, 30))
        cfg = TrainConfig(epochs=15, batch_size=64, k=3, seed=2, alpha=0.01, lam=0.5,
                          regularizer=kind, select_on=select_on)
        got = self.assert_same_bytes(data, table, cfg, clusters, tmp_path)
        assert got.meta.data["train_pairs"] == [23, 17, 30]
        assert got.meta.steps == [15, 15, 15]

    @pytest.mark.parametrize("kind", list(Regularizer))
    def test_d10_one_row_batch_beside_a_longer_one(self, tmp_path, kind):
        # batches of 8: the last batch index holds 1 row of cluster 0 and 5 of cluster 1
        data, table, clusters = self.fixture_d10((17, 21))
        cfg = TrainConfig(epochs=10, batch_size=8, k=2, seed=4, alpha=0.01, lam=0.5,
                          regularizer=kind)
        got = self.assert_same_bytes(data, table, cfg, clusters, tmp_path)
        assert [n - 16 for n in got.meta.data["train_pairs"]] == [1, 5]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # fixture overflows by design
    @pytest.mark.parametrize("big,named", [((1,), 1), ((0, 1), 0)])
    def test_d10_overflow_in_an_uneven_stack_names_the_lowest_cluster(self, big, named):
        # one batch each, of 4 and 2 rows, taken in one call where zero rows keep the bits
        data, table, clusters = self.fixture_d10((4, 2), big=big)
        cfg = TrainConfig(epochs=3, batch_size=4, k=2, seed=0)
        with pytest.raises(TrainingError, match=f"cluster {named} at epoch 1"):
            train(data, table, cfg, clusters=clusters)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # fixture overflows by design
    def test_non_finite_gradient_names_the_cluster_a_per_cluster_loop_meets_first(self):
        # cluster 1's only pair overflows at batch 0; cluster 0's overflowing pair
        # comes second in its shuffled order, so its gradient overflows at batch 1
        big = 1e160
        table = EmbeddingTable(["a", "A", "b", "B", "c", "C"],
                               np.array([[1.0, 0.0], [1.0, 1.0], [big, 0.0], [big, 1.0],
                                         [big, 0.0], [big, -1.0]]))
        data = dataset_of([hyp("a", "A"), hyp("b", "B"), hyp("c", "C")], ["train"] * 3, [])
        clusters = ClusterModel(np.array([[0.0, 1.0], [0.0, -1.0]]), 0.0)

        def big_pair_second(seed):  # cluster 0's stream: initial matrix, then the shuffle
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
            rng.normal(size=(2, 2))
            return rng.permutation(2)[1] == 1

        seed = next(s for s in range(100) if big_pair_second(s))
        cfg = TrainConfig(epochs=2, batch_size=1, k=2, seed=seed)
        with pytest.raises(TrainingError, match="cluster 0 at epoch 1"):
            train(data, table, cfg, clusters=clusters)
