import logging

import numpy as np
import pytest

from hyperproj import training
from hyperproj.dataset import RelationDataset, RelationPair, build_dataset, sample_negative
from hyperproj.embeddings import EmbeddingTable
from hyperproj.errors import InputError, TrainingError
from hyperproj.projection import Regularizer, save_model
from hyperproj.training import (
    AdamState,
    TrainConfig,
    adam_step,
    train,
    write_trace_csv,
)


def hyp(a, b):
    return RelationPair(a, b, "hypernym")


def init_matrix(d, seed, std, cid=0):
    """The matrix a fresh cluster worker starts training from."""
    cfg = TrainConfig(seed=seed, init_std=std)
    return training._ClusterWorker(cid, np.zeros((0, d)), np.zeros((0, d)),
                                   np.zeros(0, np.int64), cfg, d).phi


class TestInitMatrix:
    def test_moments(self):
        # 2500 draws: sample mean ~ N(0, std/50), sample std concentrates at 0.1
        m = init_matrix(50, seed=0, std=0.1)
        assert abs(m.mean()) < 0.01
        assert abs(m.std() - 0.1) < 0.01

    def test_same_seed_same_matrix(self):
        assert np.array_equal(init_matrix(8, seed=5, std=0.1), init_matrix(8, seed=5, std=0.1))

    def test_different_seed_differs(self):
        assert not np.array_equal(init_matrix(8, seed=5, std=0.1),
                                  init_matrix(8, seed=6, std=0.1))
        assert not np.array_equal(init_matrix(8, seed=5, std=0.1),
                                  init_matrix(8, seed=5, std=0.1, cid=1))


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
    data = RelationDataset(pairs, ["train"] * n, [])
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
        data = RelationDataset([hyp("x1", "y1"), hyp("x2", "y2")], ["train", "train"], [])
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
        data = RelationDataset([hyp("x1", "y1")], ["train"], [])
        cfg = TrainConfig(epochs=3, batch_size=4, k=1, seed=0)
        with pytest.raises(TrainingError, match="cluster 0 at epoch 1"):
            train(data, table, cfg)

    def test_neighbor_training_uses_negatives(self):
        rng = np.random.default_rng(4)
        words = [f"w{i}" for i in range(30)]
        table = EmbeddingTable(words, rng.normal(size=(30, 4)))
        pairs = [hyp(words[i], words[i + 10]) for i in range(10)]
        negatives = [RelationPair(words[i], words[i + 20], "synonym") for i in range(10)]
        data = build_dataset(pairs + negatives, table, fractions=(0.8, 0.1, 0.1), seed=0)
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
        data = build_dataset(pairs + negatives, table, fractions=(0.7, 0.15, 0.15), seed=2)
        cfg = TrainConfig(epochs=4, batch_size=batch_size, k=2, seed=9, regularizer=kind,
                          lam=0.5)

        def artifacts(name):
            model = train(data, table, cfg)
            save_model(model, tmp_path / f"{name}.hprj")
            write_trace_csv(model, tmp_path / f"{name}.csv")
            return [(tmp_path / f"{name}.{ext}").read_bytes() for ext in ("hprj", "csv")]

        fast = artifacts("fast")
        calls = []

        def per_example(indptr, indices, sources, rng):
            calls.append(len(sources))
            return np.array([table.lookup(sample_negative(data, words[s], rng))
                             for s in sources], dtype=np.int64)

        monkeypatch.setattr(training, "sample_negatives", per_example)
        assert artifacts("slow") == fast
        assert len(calls) == 2 * cfg.epochs and sum(calls) == 4 * len(data.pairs_in("train"))

    def test_validation_selection_smoke(self):
        table, data, _ = planted_fixture(n=80)
        # move a fifth of the pairs to the validation bucket
        assignment = ["validation" if i % 5 == 0 else "train" for i in range(80)]
        data = RelationDataset(data.positives, assignment, [])
        cfg = TrainConfig(epochs=5, batch_size=32, k=1, seed=6,
                          select_on="best_validation_hit10")
        final_cfg = TrainConfig(epochs=5, batch_size=32, k=1, seed=6, select_on="final")
        selected = train(data, table, cfg)
        final = train(data, table, final_cfg)
        # with epochs < 10 the only checkpoint is the final epoch
        assert np.array_equal(selected.matrices, final.matrices)

    def test_empty_train_bucket_rejected(self):
        table = EmbeddingTable(["a", "b"], np.eye(2))
        data = RelationDataset([hyp("a", "b")], ["test"], [])
        with pytest.raises(InputError, match="training bucket"):
            train(data, table, TrainConfig(epochs=1, k=1))

    def test_loss_trace_is_finite_and_complete(self):
        table, data, _ = planted_fixture(n=50)
        cfg = TrainConfig(epochs=6, batch_size=16, k=1, seed=7)
        model = train(data, table, cfg)
        assert len(model.meta.trace) == 6
        for epoch, cid, base, reg, total in model.meta.trace:
            assert np.isfinite(base) and np.isfinite(reg) and np.isfinite(total)
