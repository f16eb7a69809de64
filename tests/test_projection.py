import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperproj.embeddings import EmbeddingTable
from hyperproj.errors import InputError, read_container, write_container
from hyperproj.evaluation import predict_candidates
from hyperproj.projection import (
    MODEL_MAGIC,
    Regularizer,
    load_model,
    loss_terms_and_gradient,
    save_model,
)

from conftest import central_difference, make_model, package_loss, reference_terms

ALL_KINDS = list(Regularizer)
NONE = Regularizer.NONE


def fit_term(phi, X, Y):
    return loss_terms_and_gradient(phi, X, Y, None, NONE, 0.0)[0]


def reg_term(phi, X, Z, kind):
    """The regularizer term of ``kind``; the fit term is taken against Y = X."""
    return loss_terms_and_gradient(phi, X, X, Z, kind, 1.0)[1]


def gradient(phi, X, Y, Z, kind, lam):
    return loss_terms_and_gradient(phi, X, Y, Z, kind, lam)[2]


class TestPredict:
    """A word's projection x @ phi as ``predict_candidates`` applies it."""

    def test_identity(self, tiny_table):
        # a=(1,0) projects onto itself, which takes no part: b scores 0, c scores -1
        model = make_model(np.eye(2))
        assert predict_candidates(model, tiny_table, "a", 3) == [("b", 0.0), ("c", -1.0)]

    def test_zero_matrix(self, tiny_table):
        # a zero projection scores no word
        model = make_model(np.zeros((2, 2)))
        assert predict_candidates(model, tiny_table, "a", 3) == []

    def test_hand_swap(self):
        # (1,2) @ [[0,1],[1,0]] = (2,1), the vector of t
        table = EmbeddingTable(["x", "t", "u"],
                               np.array([[1.0, 2.0], [2.0, 1.0], [-2.0, -1.0]]))
        model = make_model(np.array([[0.0, 1.0], [1.0, 0.0]]))
        got = predict_candidates(model, table, "x", 2)
        assert [w for w, _ in got] == ["t", "u"]
        assert [s for _, s in got] == [pytest.approx(1.0, abs=1e-15),
                                       pytest.approx(-1.0, abs=1e-15)]

    def test_dimension_mismatch(self, tiny_table):
        model = make_model(np.eye(3))
        with pytest.raises(InputError, match="dimension"):
            predict_candidates(model, tiny_table, "a", 1)


class TestLossBaseline:
    def test_exact_fit_is_zero(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(5, 3))
        assert fit_term(np.eye(3), X, X) == 0.0

    def test_hand_single_pair(self):
        # x phi - y = (1,0) - (0,1) = (1,-1), squared norm 2
        X = np.array([[1.0, 0.0]])
        Y = np.array([[0.0, 1.0]])
        assert fit_term(np.eye(2), X, Y) == 2.0

    def test_zero_iff_every_row_fits(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(5, 3))
        Y = X.copy()
        assert fit_term(np.eye(3), X, Y) == 0.0
        Y[2, 1] += 1e-6  # one perturbed row forces a positive loss
        assert fit_term(np.eye(3), X, Y) > 0.0

    def test_zero_matrix_collapses_to_target_norms(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(7, 4))
        Y = rng.normal(size=(7, 4))
        expected = float((Y * Y).sum() / 7)
        assert fit_term(np.zeros((4, 4)), X, Y) == pytest.approx(expected, rel=1e-15)

    def test_empty_batch_rejected(self):
        with pytest.raises(InputError, match="nonempty"):
            fit_term(np.eye(2), np.zeros((0, 2)), np.zeros((0, 2)))


class TestRegularizers:
    def test_zero_matrix_gives_zero(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(4, 3))
        assert reg_term(np.zeros((3, 3)), X, None, Regularizer.ASYMMETRIC_REPROJ) == 0.0
        assert reg_term(np.zeros((3, 3)), X, None, Regularizer.ASYMMETRIC_PLAIN) == 0.0

    def test_identity_on_unit_rows(self):
        X = np.eye(3)  # three unit vectors
        assert reg_term(np.eye(3), X, None, Regularizer.ASYMMETRIC_REPROJ) == 1.0

    def test_quarter_rotation_reprojects_to_reflection(self):
        # phi rotates (1,0) -> (0,1); phi phi = 180 degrees, so
        # (x phi phi . x)^2 = (-1)^2 = 1
        phi = np.array([[0.0, 1.0], [-1.0, 0.0]])
        X = np.array([[1.0, 0.0]])
        assert reg_term(phi, X, None, Regularizer.ASYMMETRIC_REPROJ) == 1.0
        # without re-projection the rotated vector is orthogonal to x
        assert reg_term(phi, X, None, Regularizer.ASYMMETRIC_PLAIN) == 0.0

    def test_orthogonal_negative_contributes_zero(self):
        X = np.array([[1.0, 0.0]])
        Z = np.array([[0.0, 1.0]])
        assert reg_term(np.eye(2), X, Z, Regularizer.NEIGHBOR_REPROJ) == 0.0

    def test_hand_shear_no_reproject(self):
        # x phi = (1,1); (x phi . z)^2 = 1
        phi = np.array([[1.0, 1.0], [0.0, 1.0]])
        X = np.array([[1.0, 0.0]])
        Z = np.array([[0.0, 1.0]])
        assert reg_term(phi, X, Z, Regularizer.NEIGHBOR_PLAIN) == 1.0

    @pytest.mark.parametrize("reproject", [True, False])
    def test_neighbor_reduces_to_asymmetric_bitwise(self, reproject):
        neighbor, asym = ((Regularizer.NEIGHBOR_REPROJ, Regularizer.ASYMMETRIC_REPROJ) if reproject
                          else (Regularizer.NEIGHBOR_PLAIN, Regularizer.ASYMMETRIC_PLAIN))
        rng = np.random.default_rng(3)
        for _ in range(25):
            phi = rng.normal(size=(4, 4))
            X, Y = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
            _, reg_n, grad_n = loss_terms_and_gradient(phi, X, Y, X.copy(), neighbor, 0.3)
            _, reg_a, grad_a = loss_terms_and_gradient(phi, X, Y, None, asym, 0.3)
            assert reg_n == reg_a
            assert np.array_equal(grad_n, grad_a)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_losses_non_negative(self, seed):
        rng = np.random.default_rng(seed)
        phi = rng.normal(size=(3, 3))
        X, Y, Z = (rng.normal(size=(5, 3)) for _ in range(3))
        for kind in ALL_KINDS:
            fit, reg, _ = loss_terms_and_gradient(phi, X, Y, Z, kind, 0.7)
            assert fit >= 0.0 and reg >= 0.0
            assert package_loss(phi, X, Y, Z, kind, 0.7) >= 0.0


class TestTotalLoss:
    def test_lambda_zero_equals_baseline(self):
        rng = np.random.default_rng(4)
        phi = rng.normal(size=(3, 3))
        X, Y, Z = (rng.normal(size=(5, 3)) for _ in range(3))
        fit, _ = reference_terms(phi, X, Y, None, NONE)
        for kind in ALL_KINDS:
            assert package_loss(phi, X, Y, Z, kind, 0.0) == fit

    def test_kind_none_ignores_lambda(self):
        rng = np.random.default_rng(5)
        phi = rng.normal(size=(3, 3))
        X, Y = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        fit, _ = reference_terms(phi, X, Y, None, NONE)
        for lam in (0.0, 0.1, 5.0):
            assert package_loss(phi, X, Y, None, NONE, lam) == fit

    def test_linear_combination(self):
        # baseline 2.0 (hand case above), regularizer (x . x)^2 = 1 with z = x
        X = np.array([[1.0, 0.0]])
        Y = np.array([[0.0, 1.0]])
        Z = X.copy()
        got = package_loss(np.eye(2), X, Y, Z, Regularizer.NEIGHBOR_PLAIN, 0.1)
        assert got == pytest.approx(2.1, abs=1e-15)

    def test_neighbor_without_negatives_rejected(self):
        X = np.array([[1.0, 0.0]])
        with pytest.raises(InputError, match="negatives"):
            loss_terms_and_gradient(np.eye(2), X, X, None, Regularizer.NEIGHBOR_REPROJ, 0.1)


class TestGradient:
    def test_zero_at_baseline_minimum(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(4, 3))
        g = gradient(np.eye(3), X, X, None, NONE, 0.0)
        assert np.array_equal(g, np.zeros((3, 3)))

    def test_lambda_zero_bitwise_baseline_gradient(self):
        rng = np.random.default_rng(7)
        phi = rng.normal(size=(3, 3))
        X, Y, Z = (rng.normal(size=(5, 3)) for _ in range(3))
        base_grad = gradient(phi, X, Y, None, NONE, 0.0)
        for kind in ALL_KINDS:
            assert np.array_equal(gradient(phi, X, Y, Z, kind, 0.0), base_grad)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=[k.value for k in ALL_KINDS])
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(8)
        for _ in range(10):
            phi = rng.normal(size=(3, 3))
            X, Y, Z = (rng.normal(size=(4, 3)) for _ in range(3))
            analytic = gradient(phi, X, Y, Z, kind, 0.4)
            numeric = central_difference(phi, X, Y, Z, kind, 0.4)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-8)

    def test_terms_match_loss_functions(self):
        rng = np.random.default_rng(9)
        phi = rng.normal(size=(4, 4))
        X, Y, Z = (rng.normal(size=(6, 4)) for _ in range(3))
        for kind in ALL_KINDS:
            base, reg, _ = loss_terms_and_gradient(phi, X, Y, Z, kind, 0.3)
            assert (base, reg) == reference_terms(phi, X, Y, Z, kind)


class TestModelFile:
    def _model(self):
        rng = np.random.default_rng(10)
        return make_model(rng.normal(size=(3, 4, 4)), centroids=rng.normal(size=(3, 4)),
                          regularizer=Regularizer.NEIGHBOR_REPROJ, lam=0.25)

    def test_roundtrip(self, tmp_path):
        model = self._model()
        model.vocab_hash = "abc123"
        path = tmp_path / "m.hprj"
        save_model(model, path)
        again = load_model(path)
        assert np.array_equal(again.matrices, model.matrices)
        assert np.array_equal(again.clusters.centroids, model.clusters.centroids)
        assert again.regularizer == model.regularizer
        assert again.lam == model.lam
        assert again.dim == model.dim
        assert again.vocab_hash == "abc123"

    def test_magic_validated(self, tmp_path):
        path = tmp_path / "bogus.hprj"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(InputError, match="magic"):
            load_model(path)

    def test_truncated_payload_rejected(self, tmp_path):
        model = self._model()
        path = tmp_path / "m.hprj"
        save_model(model, path)
        header, payload = read_container(path, MODEL_MAGIC)
        write_container(path, MODEL_MAGIC, header, payload[:-1])  # one value short, checksummed
        with pytest.raises(InputError, match="payload is 472 bytes, header implies 480"):
            load_model(path)

    def test_save_is_deterministic(self, tmp_path):
        model = self._model()
        p1, p2 = tmp_path / "a.hprj", tmp_path / "b.hprj"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()
