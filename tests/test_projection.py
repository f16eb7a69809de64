import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperproj.errors import InputError
from hyperproj.projection import (
    Regularizer,
    gradient,
    load_model,
    loss_baseline,
    loss_terms_and_gradient,
    predict,
    reg_asymmetric,
    reg_neighbor,
    save_model,
    total_loss,
)

from conftest import make_model

ALL_KINDS = list(Regularizer)


def finite_difference(phi, X, Y, Z, kind, lam, h=1e-5):
    num = np.zeros_like(phi)
    for i in range(phi.shape[0]):
        for j in range(phi.shape[1]):
            e = np.zeros_like(phi)
            e[i, j] = h
            up = total_loss(phi + e, X, Y, Z, kind, lam)
            dn = total_loss(phi - e, X, Y, Z, kind, lam)
            num[i, j] = (up - dn) / (2 * h)
    return num


class TestPredict:
    def test_identity(self):
        model = make_model(np.eye(3))
        x = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(predict(model, x, 0), x)

    def test_zero_matrix(self):
        model = make_model(np.zeros((2, 2)))
        assert np.array_equal(predict(model, np.array([5.0, -1.0]), 0), [0.0, 0.0])

    def test_hand_swap(self):
        # (1,2) @ [[0,1],[1,0]] = (2,1)
        model = make_model(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.array_equal(predict(model, np.array([1.0, 2.0]), 0), [2.0, 1.0])

    def test_dimension_mismatch(self):
        model = make_model(np.eye(2))
        with pytest.raises(InputError, match="dimension"):
            predict(model, np.zeros(3), 0)

    def test_cluster_out_of_range(self):
        model = make_model(np.eye(2))
        with pytest.raises(InputError, match="cluster"):
            predict(model, np.zeros(2), 1)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, seed, a, b):
        rng = np.random.default_rng(seed)
        model = make_model(rng.normal(size=(4, 4)))
        x1, x2 = rng.normal(size=4), rng.normal(size=4)
        lhs = predict(model, a * x1 + b * x2, 0)
        rhs = a * predict(model, x1, 0) + b * predict(model, x2, 0)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestLossBaseline:
    def test_exact_fit_is_zero(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(5, 3))
        assert loss_baseline(np.eye(3), X, X) == 0.0

    def test_hand_single_pair(self):
        # x phi - y = (1,0) - (0,1) = (1,-1), squared norm 2
        X = np.array([[1.0, 0.0]])
        Y = np.array([[0.0, 1.0]])
        assert loss_baseline(np.eye(2), X, Y) == 2.0

    def test_zero_iff_every_row_fits(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(5, 3))
        Y = X.copy()
        assert loss_baseline(np.eye(3), X, Y) == 0.0
        Y[2, 1] += 1e-6  # one perturbed row forces a positive loss
        assert loss_baseline(np.eye(3), X, Y) > 0.0

    def test_zero_matrix_collapses_to_target_norms(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(7, 4))
        Y = rng.normal(size=(7, 4))
        expected = float((Y * Y).sum() / 7)
        assert loss_baseline(np.zeros((4, 4)), X, Y) == pytest.approx(expected, rel=1e-15)

    def test_empty_batch_rejected(self):
        with pytest.raises(InputError, match="nonempty"):
            loss_baseline(np.eye(2), np.zeros((0, 2)), np.zeros((0, 2)))


class TestRegularizers:
    def test_zero_matrix_gives_zero(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(4, 3))
        assert reg_asymmetric(np.zeros((3, 3)), X, reproject=True) == 0.0
        assert reg_asymmetric(np.zeros((3, 3)), X, reproject=False) == 0.0

    def test_identity_on_unit_rows(self):
        X = np.eye(3)  # three unit vectors
        assert reg_asymmetric(np.eye(3), X, reproject=True) == 1.0

    def test_quarter_rotation_reprojects_to_reflection(self):
        # phi rotates (1,0) -> (0,1); phi phi = 180 degrees, so
        # (x phi phi . x)^2 = (-1)^2 = 1
        phi = np.array([[0.0, 1.0], [-1.0, 0.0]])
        X = np.array([[1.0, 0.0]])
        assert reg_asymmetric(phi, X, reproject=True) == 1.0
        # without re-projection the rotated vector is orthogonal to x
        assert reg_asymmetric(phi, X, reproject=False) == 0.0

    def test_orthogonal_negative_contributes_zero(self):
        X = np.array([[1.0, 0.0]])
        Z = np.array([[0.0, 1.0]])
        assert reg_neighbor(np.eye(2), X, Z, reproject=True) == 0.0

    def test_hand_shear_no_reproject(self):
        # x phi = (1,1); (x phi . z)^2 = 1
        phi = np.array([[1.0, 1.0], [0.0, 1.0]])
        X = np.array([[1.0, 0.0]])
        Z = np.array([[0.0, 1.0]])
        assert reg_neighbor(phi, X, Z, reproject=False) == 1.0

    @pytest.mark.parametrize("reproject", [True, False])
    def test_neighbor_reduces_to_asymmetric_bitwise(self, reproject):
        rng = np.random.default_rng(3)
        for _ in range(25):
            phi = rng.normal(size=(4, 4))
            X = rng.normal(size=(6, 4))
            assert reg_neighbor(phi, X, X, reproject=reproject) == reg_asymmetric(
                phi, X, reproject=reproject)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_losses_non_negative(self, seed):
        rng = np.random.default_rng(seed)
        phi = rng.normal(size=(3, 3))
        X, Y, Z = (rng.normal(size=(5, 3)) for _ in range(3))
        assert loss_baseline(phi, X, Y) >= 0.0
        for kind in ALL_KINDS:
            assert total_loss(phi, X, Y, Z, kind, 0.7) >= 0.0


class TestTotalLoss:
    def test_lambda_zero_equals_baseline(self):
        rng = np.random.default_rng(4)
        phi = rng.normal(size=(3, 3))
        X, Y, Z = (rng.normal(size=(5, 3)) for _ in range(3))
        for kind in ALL_KINDS:
            assert total_loss(phi, X, Y, Z, kind, 0.0) == loss_baseline(phi, X, Y)

    def test_kind_none_ignores_lambda(self):
        rng = np.random.default_rng(5)
        phi = rng.normal(size=(3, 3))
        X, Y = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        base = loss_baseline(phi, X, Y)
        for lam in (0.0, 0.1, 5.0):
            assert total_loss(phi, X, Y, None, Regularizer.NONE, lam) == base

    def test_linear_combination(self):
        # baseline 2.0 (hand case above), regularizer (x . x)^2 = 1 with z = x
        X = np.array([[1.0, 0.0]])
        Y = np.array([[0.0, 1.0]])
        Z = X.copy()
        got = total_loss(np.eye(2), X, Y, Z, Regularizer.NEIGHBOR_PLAIN, 0.1)
        assert got == pytest.approx(2.1, abs=1e-15)

    def test_neighbor_without_negatives_rejected(self):
        X = np.array([[1.0, 0.0]])
        with pytest.raises(InputError, match="negatives"):
            total_loss(np.eye(2), X, X, None, Regularizer.NEIGHBOR_REPROJ, 0.1)


class TestGradient:
    def test_zero_at_baseline_minimum(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(4, 3))
        g = gradient(np.eye(3), X, X, None, Regularizer.NONE, 0.0)
        assert np.array_equal(g, np.zeros((3, 3)))

    def test_lambda_zero_bitwise_baseline_gradient(self):
        rng = np.random.default_rng(7)
        phi = rng.normal(size=(3, 3))
        X, Y, Z = (rng.normal(size=(5, 3)) for _ in range(3))
        base_grad = gradient(phi, X, Y, None, Regularizer.NONE, 0.0)
        for kind in ALL_KINDS:
            assert np.array_equal(gradient(phi, X, Y, Z, kind, 0.0), base_grad)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=[k.value for k in ALL_KINDS])
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(8)
        for _ in range(10):
            phi = rng.normal(size=(3, 3))
            X, Y, Z = (rng.normal(size=(4, 3)) for _ in range(3))
            analytic = gradient(phi, X, Y, Z, kind, 0.4)
            numeric = finite_difference(phi, X, Y, Z, kind, 0.4)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-8)

    def test_terms_match_loss_functions(self):
        rng = np.random.default_rng(9)
        phi = rng.normal(size=(4, 4))
        X, Y, Z = (rng.normal(size=(6, 4)) for _ in range(3))
        for kind in ALL_KINDS:
            base, reg, _ = loss_terms_and_gradient(phi, X, Y, Z, kind, 0.3)
            assert base == loss_baseline(phi, X, Y)
            if kind is Regularizer.NONE:
                assert reg == 0.0
            elif kind.needs_negatives:
                assert reg == reg_neighbor(phi, X, Z, reproject=kind.reprojects)
            else:
                assert reg == reg_asymmetric(phi, X, reproject=kind.reprojects)


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
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(InputError, match="payload"):
            load_model(path)

    def test_save_is_deterministic(self, tmp_path):
        model = self._model()
        p1, p2 = tmp_path / "a.hprj", tmp_path / "b.hprj"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()
