import numpy as np
import pytest

from kfpls import DegenerateProblemError, KernelSpec, gen_circles
from kfpls.kernels import center_train, gram_train
from kfpls.pls import _directions, _simpls, coef_path

from oracles import jacobi_dominant_right_singular_vector, least_squares_prediction


def first_pc(C):
    """The SIMPLS direction of one covariance ``C`` (m, p), as a stack of one."""
    return _directions(C[None])[0][0]


def factors(X, Y, n_lv):
    """The factors ``(W, P, Q)`` of the SIMPLS fit of ``X`` on ``Y``."""
    W, P, Q, _ = _simpls(X[None], Y[None], n_lv)
    return W[0], P[0], Q[0]


def coef(X, Y, n_lv):
    """The coefficients of the SIMPLS fit of ``X`` on ``Y``, as a stack of one."""
    return _simpls(X[None], Y[None], n_lv)[3][0]


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


def directions_numpy(C):
    """`_directions` in the numpy form it replaced: ``np.linalg.norm``, then
    the sign of the largest-magnitude entry through ``argmax``,
    ``take_along_axis`` and two ``np.where``."""
    w = C[:, 0, :]
    v = np.ones((len(C), 1))
    eig = None
    if C.shape[1] > 1:
        eig = np.linalg.eigh(C @ np.swapaxes(C, 1, 2))
        v = eig[1][:, :, -1]
        w = np.einsum("smp,sm->sp", C, v)
    norm = np.linalg.norm(w, axis=1, keepdims=True)
    w = w / norm
    top = np.take_along_axis(w, np.argmax(np.abs(w), axis=1)[:, None], axis=1)
    return np.where(top < 0, -w, w), np.where(top < 0, -v, v), norm[:, 0], eig


class TestDirectionsBits:
    @pytest.mark.parametrize("m", [1, 4])
    def test_numpy_form_bitwise(self, m):
        # Each covariance and its negative: the two directions have opposite
        # raw signs, so half the members take the sign flip.
        C = np.random.default_rng(40 + m).normal(size=(12, m, 90))
        C = np.concatenate([C, -C])
        if m == 1:
            # Ties in |w|: the first of two largest-magnitude entries decides.
            C[0, 0, :2], C[1, 0, :2], C[2, 0, -2:] = (9.0, -9.0), (-9.0, 9.0), (-9.0, 9.0)
        got, want = _directions(C), directions_numpy(C)
        for g, w in zip(got[:3], want[:3]):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
        if m > 1:
            for g, w in zip(got[3], want[3]):
                assert g.tobytes() == w.tobytes()
        else:
            assert got[3] is None


class TestFitPls:
    def test_identity_single_column(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=(12, 1))
        np.testing.assert_allclose(y @ coef(y, y, 1), y, atol=1e-12)

    def test_full_rank_matches_least_squares(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(20, 3))
        Y = rng.normal(size=(20, 2))
        expected = least_squares_prediction(X, Y)
        np.testing.assert_allclose(X @ coef(X, Y, 3), expected, rtol=1e-8)

    def test_first_weight_is_dominant_covariance_direction(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(6, 2))
        Y = rng.normal(size=(6, 1))
        W = factors(X, Y, 1)[0]
        C = (Y.T @ X).ravel()
        v = C / np.linalg.norm(C)  # dominant right singular direction of a 1 x 2 matrix
        assert abs(abs(W[:, 0] @ v) - 1.0) < 1e-10

    def test_deflation_removes_loading_span(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(15, 6))
        Y = rng.normal(size=(15, 2))
        P_all = factors(X, Y, 4)[1]
        C = Y.T @ X
        scale = np.linalg.norm(C)
        for i in range(1, P_all.shape[1] + 1):
            P = P_all[:, :i]
            C = C - (C @ P) @ np.linalg.solve(P.T @ P, P.T)
            assert np.linalg.norm(C @ P) <= 1e-8 * scale

    def test_more_factors_never_increase_calibration_rss(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(25, 6))
        Y = rng.normal(size=(25, 1))
        rss = []
        for a in range(1, 7):
            rss.append(float(np.sum((Y - X @ coef(X, Y, a)) ** 2)))
        assert all(rss[i + 1] <= rss[i] + 1e-10 for i in range(len(rss) - 1))

    def test_coefficient_identity_holds(self):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(18, 5))
        Y = rng.normal(size=(18, 2))
        W, P, Q = factors(X, Y, 3)
        B = W @ np.linalg.solve(P.T @ W, Q.T)
        np.testing.assert_allclose(coef(X, Y, 3), B, rtol=1e-12)

    def test_requested_factor_count_clamped(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(10, 3))
        Y = rng.normal(size=(10, 1))
        assert factors(X, Y, 7)[0].shape[1] <= 3

    def test_rank_deficient_data_stops_early(self):
        rng = np.random.default_rng(2)
        base = rng.normal(size=(12, 2))
        X = np.hstack([base, base @ rng.normal(size=(2, 3))])  # rank 2 in 5 columns
        Y = rng.normal(size=(12, 1))
        assert factors(X, Y, 5)[0].shape[1] <= 2


class TestFitPlsStack:
    """The stacked SIMPLS loop that `kpls.fit_grams` and the linear reference run."""

    def test_members_match_separate_fits(self):
        rng = np.random.default_rng(30)
        X = rng.normal(size=(4, 15, 6))
        Y = rng.normal(size=(4, 15, 3))
        B = _simpls(X, Y, 4)[3]
        for s in range(4):
            np.testing.assert_allclose(B[s], coef(X[s], Y[s], 4),
                                       rtol=1e-12, atol=1e-12)

    def test_member_that_stops_early_is_refit_alone(self):
        # The rank-2 member stops the whole stack at its factor count; every
        # member is then its separate fit at that count.
        rng = np.random.default_rng(2)
        base = rng.normal(size=(12, 2))
        X = np.stack([
            rng.normal(size=(12, 5)),
            np.hstack([base, base @ rng.normal(size=(2, 3))]),  # rank 2
            rng.normal(size=(12, 5)),
        ])
        Y = rng.normal(size=(3, 12, 1))
        counts = [factors(X[s], Y[s], 4)[0].shape[1] for s in range(3)]
        assert counts[0] == 4 and counts[1] <= 2
        W, _, _, B = _simpls(X, Y, 4)
        assert W.shape[2] == counts[1]
        for s in range(3):
            np.testing.assert_allclose(B[s], coef(X[s], Y[s], counts[1]),
                                       rtol=1e-12, atol=1e-12)

    def test_member_without_any_factor_raises(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(2, 10, 4))
        Y = np.stack([rng.normal(size=(10, 1)), np.zeros((10, 1))])
        with pytest.raises(DegenerateProblemError, match="rank exhausted"):
            _simpls(X, Y, 3)


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
        path = coef_path(*factors(X, Y, a_max), a_max)
        assert path.shape == (a_max, X.shape[1], m)
        for a in range(1, a_max + 1):
            B = coef(X, Y, a)
            np.testing.assert_allclose(path[a - 1], B, rtol=1e-12,
                                       atol=1e-12 * np.abs(B).max())

    def test_rank_exhausted_fit_gives_its_factor_count(self):
        rng = np.random.default_rng(2)
        base = rng.normal(size=(12, 2))
        X = np.hstack([base, base @ rng.normal(size=(2, 3))])  # rank 2
        Y = rng.normal(size=(12, 1))
        W, P, Q = factors(X, Y, 5)
        n_lv = W.shape[1]
        path = coef_path(W, P, Q, n_lv)
        assert len(path) == n_lv <= 2
        np.testing.assert_allclose(path[-1], coef(X, Y, 5), rtol=1e-12, atol=1e-12)
        # Past the rank, the path repeats the fit's last entry up to the bound.
        np.testing.assert_array_equal(coef_path(W, P, Q, 5)[n_lv - 1:],
                                      [path[-1]] * (6 - n_lv))

    def test_ends_before_ill_conditioned_prefix(self):
        # PᵀW = Pᵀ: its leading 2x2 block is singular, the 1x1 and 3x3 are not.
        P = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]]).T
        path = coef_path(np.eye(3), P, np.ones((2, 3)), 3)
        assert path.shape == (1, 3, 2)
        np.testing.assert_array_equal(path[0], [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])

