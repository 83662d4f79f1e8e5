import numpy as np
import pytest

from kfpls import (
    DegenerateProblemError,
    KernelSpec,
    first_pc,
    fit_pls,
    gen_circles,
    predict_pls,
)
from kfpls.kernels import center_train, gram_train
from kfpls.pls import PlsModel, coef_path, fit_pls_stack

from oracles import jacobi_dominant_right_singular_vector, least_squares_prediction


class TestFirstPc:
    def test_axis_aligned(self):
        np.testing.assert_allclose(first_pc(np.array([[2.0, 0.0]])), [1.0, 0.0])

    def test_symmetric_direction(self):
        w = first_pc(np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(w, [1.0 / np.sqrt(2)] * 2, rtol=1e-15)

    def test_matches_jacobi_svd_oracle(self):
        rng = np.random.default_rng(7)
        C = rng.normal(size=(3, 4))
        w = first_pc(C)
        v = jacobi_dominant_right_singular_vector(C)
        assert abs(abs(w @ v) - 1.0) < 1e-10

    def test_unit_norm_and_sign_convention(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            w = first_pc(rng.normal(size=(2, 5)))
            assert abs(np.linalg.norm(w) - 1.0) < 1e-12
            assert w[np.argmax(np.abs(w))] > 0

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(3)
        C = rng.normal(size=(4, 6))
        w1 = first_pc(C)
        w2 = first_pc(C.copy())
        assert np.array_equal(w1, w2)

    def test_zero_matrix_signals_rank_exhaustion(self):
        with pytest.raises(DegenerateProblemError):
            first_pc(np.zeros((2, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            first_pc(np.array([[1.0, np.nan]]))


class TestFitPls:
    def test_identity_single_column(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=(12, 1))
        model = fit_pls(y, y, 1)
        np.testing.assert_allclose(predict_pls(model, y), y, atol=1e-12)

    def test_full_rank_matches_least_squares(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(20, 3))
        Y = rng.normal(size=(20, 2))
        model = fit_pls(X, Y, 3)
        expected = least_squares_prediction(X, Y)
        np.testing.assert_allclose(predict_pls(model, X), expected, rtol=1e-8)

    def test_first_weight_is_dominant_covariance_direction(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(6, 2))
        Y = rng.normal(size=(6, 1))
        model = fit_pls(X, Y, 1)
        C = (Y.T @ X).ravel()
        v = C / np.linalg.norm(C)  # dominant right singular direction of a 1 x 2 matrix
        assert abs(abs(model.weights[:, 0] @ v) - 1.0) < 1e-10

    def test_deflation_removes_loading_span(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(15, 6))
        Y = rng.normal(size=(15, 2))
        model = fit_pls(X, Y, 4)
        C = Y.T @ X
        scale = np.linalg.norm(C)
        for i in range(1, model.n_lv + 1):
            P = model.x_loadings[:, :i]
            C = C - (C @ P) @ np.linalg.solve(P.T @ P, P.T)
            assert np.linalg.norm(C @ P) <= 1e-8 * scale

    def test_more_factors_never_increase_calibration_rss(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(25, 6))
        Y = rng.normal(size=(25, 1))
        rss = []
        for a in range(1, 7):
            model = fit_pls(X, Y, a)
            rss.append(float(np.sum((Y - predict_pls(model, X)) ** 2)))
        assert all(rss[i + 1] <= rss[i] + 1e-10 for i in range(len(rss) - 1))

    def test_coefficient_identity_holds(self):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(18, 5))
        Y = rng.normal(size=(18, 2))
        model = fit_pls(X, Y, 3)
        B = model.weights @ np.linalg.solve(
            model.x_loadings.T @ model.weights, model.y_loadings.T
        )
        np.testing.assert_allclose(model.coef, B, rtol=1e-12)

    def test_requested_factor_count_clamped_with_warning(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(10, 3))
        Y = rng.normal(size=(10, 1))
        with pytest.warns(UserWarning, match="clamp"):
            model = fit_pls(X, Y, 7)
        assert model.n_lv <= 3

    def test_rank_deficient_data_stops_early(self):
        rng = np.random.default_rng(2)
        base = rng.normal(size=(12, 2))
        X = np.hstack([base, base @ rng.normal(size=(2, 3))])  # rank 2 in 5 columns
        Y = rng.normal(size=(12, 1))
        model = fit_pls(X, Y, 5)
        assert model.n_lv <= 2
        assert model.weights.shape[1] == model.n_lv

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            fit_pls(np.zeros((4, 2)), np.zeros((5, 1)), 1)

    def test_nonfinite_rejected(self):
        X = np.ones((5, 2))
        X[0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            fit_pls(X, np.ones((5, 1)), 1)

    def test_vector_response_accepted(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(10, 3))
        y = rng.normal(size=10)
        model = fit_pls(X, y, 2)
        assert model.coef.shape == (3, 1)


class TestFitPlsStack:
    def test_one_member_stack_is_fit_pls(self):
        rng = np.random.default_rng(29)
        X = rng.normal(size=(20, 5))
        Y = rng.normal(size=(20, 2))
        coef = fit_pls_stack(X[None], Y[None], 3)
        np.testing.assert_array_equal(coef[0], fit_pls(X, Y, 3).coef)

    def test_members_match_separate_fits(self):
        rng = np.random.default_rng(30)
        X = rng.normal(size=(4, 15, 6))
        Y = rng.normal(size=(4, 15, 3))
        coef = fit_pls_stack(X, Y, 4)
        for s in range(4):
            np.testing.assert_allclose(coef[s], fit_pls(X[s], Y[s], 4).coef,
                                       rtol=1e-12, atol=1e-12)

    def test_member_that_stops_early_is_refit_alone(self):
        # The rank-2 member stops while the others go on; its coefficients
        # come from its own factors at that point, with no separate refit.
        rng = np.random.default_rng(2)
        base = rng.normal(size=(12, 2))
        X = np.stack([
            rng.normal(size=(12, 5)),
            np.hstack([base, base @ rng.normal(size=(2, 3))]),  # rank 2
            rng.normal(size=(12, 5)),
        ])
        Y = rng.normal(size=(3, 12, 1))
        models = [fit_pls(X[s], Y[s], 4) for s in range(3)]
        assert models[0].n_lv == 4 and models[1].n_lv <= 2
        coef = fit_pls_stack(X, Y, 4)
        for s in range(3):
            np.testing.assert_allclose(coef[s], models[s].coef, rtol=1e-12, atol=1e-12)

    def test_member_without_any_factor_raises(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(2, 10, 4))
        Y = np.stack([rng.normal(size=(10, 1)), np.zeros((10, 1))])
        with pytest.raises(DegenerateProblemError, match="rank exhausted"):
            fit_pls_stack(X, Y, 3)


class TestCoefPath:
    @pytest.mark.parametrize("gram", [False, True], ids=["plain", "gram"])
    @pytest.mark.parametrize("m", [1, 4])
    def test_prefixes_equal_separate_fits(self, gram, m):
        ds = gen_circles(15, 4, 0.1, seed=8)
        rng = np.random.default_rng(8)
        X = rng.normal(size=(48, 9))
        if gram:
            spec = KernelSpec.create("gaussian", sigma=0.7, delta=0.01)
            X = center_train(gram_train(spec, ds.X_cal))[0]
        Y = ds.Y_cal if m == 4 else rng.normal(size=(48, 1))
        Y = Y - Y.mean(axis=0)
        a_max = 12 if gram else 9
        path = coef_path(fit_pls(X, Y, a_max))
        assert path.shape == (a_max, X.shape[1], m)
        for a in range(1, a_max + 1):
            coef = fit_pls(X, Y, a).coef
            np.testing.assert_allclose(path[a - 1], coef, rtol=1e-12,
                                       atol=1e-12 * np.abs(coef).max())

    def test_rank_exhausted_fit_gives_its_factor_count(self):
        rng = np.random.default_rng(2)
        base = rng.normal(size=(12, 2))
        X = np.hstack([base, base @ rng.normal(size=(2, 3))])  # rank 2
        model = fit_pls(X, rng.normal(size=(12, 1)), 5)
        path = coef_path(model)
        assert len(path) == model.n_lv <= 2
        np.testing.assert_allclose(path[-1], model.coef, rtol=1e-12, atol=1e-12)

    def test_ends_before_ill_conditioned_prefix(self):
        # PᵀW = Pᵀ: its leading 2x2 block is singular, the 1x1 and 3x3 are not.
        P = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]]).T
        model = PlsModel(weights=np.eye(3), x_loadings=P, y_loadings=np.ones((2, 3)),
                         coef=np.zeros((3, 2)), n_lv=3)
        path = coef_path(model)
        assert path.shape == (1, 3, 2)
        np.testing.assert_array_equal(path[0], [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])


class TestPredictPls:
    def test_zero_rows_give_zero_rows(self):
        rng = np.random.default_rng(6)
        model = fit_pls(rng.normal(size=(8, 3)), rng.normal(size=(8, 1)), 2)
        out = predict_pls(model, np.empty((0, 3)))
        assert out.shape == (0, 1)

    def test_column_mismatch_rejected(self):
        rng = np.random.default_rng(6)
        model = fit_pls(rng.normal(size=(8, 3)), rng.normal(size=(8, 1)), 2)
        with pytest.raises(ValueError, match="columns"):
            predict_pls(model, np.zeros((2, 4)))
