import math
from pathlib import Path

import numpy as np
import pytest

from kfpls import (
    DegenerateProblemError,
    KernelSpec,
    accuracy,
    classify,
    fit_kpls,
    gen_circles,
    gen_peaks,
    gram_train,
    load_calibrated_model,
    predict_kpls,
    save_calibrated_model,
)

from kfpls._serialize import read_array_archive, write_array_archive
from kfpls.kernels import kernel_matrix, pairwise_sq_dists
from kfpls.kpls import model_from_arrays
from oracles import center_test_literal, gram_literal, kernel_value, kpls_coef_literal

V1_ARCHIVE = Path(__file__).parent / "data" / "model_v1.kfpls"
V1_ONLY_MEMBERS = ("pls_x_scores", "pls_y_scores", "center_grand_mean", "center_n", "n_lv")


def gauss(sigma=1.0, delta=1e-3):
    return KernelSpec.create(["gaussian"], sigma=sigma, delta=delta)


def zero_ridge(sigma=1.0):
    # Direct construction bypasses create()'s positivity check; exp(-inf) == 0.
    return KernelSpec(
        families=("gaussian",),
        log_sigma=np.array([np.log(sigma)]),
        log_gamma=None,
        log_delta=-np.inf,
    )


class TestFitKpls:
    def test_coefficients_live_in_kernel_space(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(12, 3))
        Y = rng.normal(size=(12, 2))
        model = fit_kpls(X, Y, 3, gauss())
        assert model.pls.coef.shape == (12, 2)

    def test_full_factor_count_interpolates(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(10, 2))
        y = np.sin(X[:, 0]) + X[:, 1] ** 2
        model = fit_kpls(X, y, 10, zero_ridge(sigma=0.8))
        fitted = predict_kpls(model, X)
        assert np.abs(fitted[:, 0] - y).max() < 1e-8

    def test_matches_literal_algorithm_execution(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(10, 1))
        y = np.cos(X[:, 0]) + 0.1 * rng.normal(size=10)
        spec = gauss(sigma=1.2, delta=0.05)
        model = fit_kpls(X, y, 2, spec)
        B_ref, K_ref, y_means_ref = kpls_coef_literal(
            ["gaussian"], [1.2], [1.0], 0.05, X, y, 2
        )
        np.testing.assert_allclose(model.pls.coef, B_ref, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(model.y_means, y_means_ref, rtol=1e-15)
        fitted = predict_kpls(model, X)
        # Reference prediction needs the ridge removed from the cross rows,
        # which the literal centered train Gram carries on its diagonal.
        n = X.shape[0]
        H = np.eye(n) - np.ones((n, n)) / n
        ref_fit = (K_ref - H @ (0.05 * np.eye(n)) @ H) @ B_ref + y_means_ref
        np.testing.assert_allclose(fitted, ref_fit, atol=1e-10)

    def test_huge_length_scale_collapses_to_mean(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 2))
        y = X[:, 0] ** 2 - X[:, 1]
        model = fit_kpls(X, y, 3, gauss(sigma=1e6, delta=1e-3))
        preds = predict_kpls(model, rng.normal(size=(10, 2)))
        assert np.abs(preds - y.mean()).max() < 1e-3

    def test_identical_rows_signal_rank_exhaustion(self):
        X = np.ones((8, 2))
        y = np.arange(8.0)
        with pytest.raises(DegenerateProblemError):
            fit_kpls(X, y, 2, gauss())

    def test_too_many_factors_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match="n_lv"):
            fit_kpls(rng.normal(size=(6, 2)), rng.normal(size=6), 7, gauss())

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            fit_kpls(np.zeros((5, 2)), np.zeros((4, 1)), 1, gauss())


class TestPredictKpls:
    def test_training_rows_reproduce_in_sample_fit_without_ridge(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(12, 2))
        y = X[:, 0] * X[:, 1]
        spec = zero_ridge(sigma=1.1)
        model = fit_kpls(X, y, 4, spec)
        from kfpls.pls import predict_pls
        from kfpls.kernels import center_train, gram_train

        K_centered, _ = center_train(gram_train(spec, X))
        in_sample = predict_pls(model.pls, K_centered) + model.y_means
        np.testing.assert_allclose(predict_kpls(model, X), in_sample, atol=1e-10)

    def test_empty_query_gives_empty_output(self):
        rng = np.random.default_rng(6)
        model = fit_kpls(rng.normal(size=(8, 2)), rng.normal(size=8), 2, gauss())
        out = predict_kpls(model, np.empty((0, 2)))
        assert out.shape == (0, 1)

    def test_training_order_is_irrelevant(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(15, 2))
        y = np.sin(X).sum(axis=1)
        X_new = rng.normal(size=(4, 2))
        model = fit_kpls(X, y, 3, gauss(sigma=0.9, delta=0.01))
        perm = rng.permutation(15)
        model_p = fit_kpls(X[perm], y[perm], 3, gauss(sigma=0.9, delta=0.01))
        np.testing.assert_allclose(
            predict_kpls(model, X_new), predict_kpls(model_p, X_new), atol=1e-8
        )

    def test_more_factors_never_increase_in_sample_rss(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(20, 2))
        y = (X**2).sum(axis=1)[:, None]
        rss = []
        for a in range(1, 8):
            model = fit_kpls(X, y, a, gauss(sigma=1.0, delta=0.01))
            rss.append(float(np.sum((predict_kpls(model, X) - y) ** 2)))
        assert all(rss[i + 1] <= rss[i] + 1e-9 for i in range(len(rss) - 1))

    def test_feature_mismatch_rejected(self):
        rng = np.random.default_rng(9)
        model = fit_kpls(rng.normal(size=(8, 2)), rng.normal(size=8), 2, gauss())
        with pytest.raises(ValueError):
            predict_kpls(model, np.zeros((3, 5)))

    @pytest.mark.parametrize("case, sigma", [("peaks", 1.0), ("peaks", 5.0),
                                             ("peaks", 12.0), ("circles", 12.0)])
    def test_flat_kernel_matches_literal_test_centering(self, case, sigma):
        # A wide kernel with a small ridge: the cross kernel is nearly flat and
        # the coefficients are large, so the column sums of B, though tiny
        # relative to B, must still be projected out before the plain cross
        # kernel meets the coefficients.
        ds = gen_peaks(500, 0.05, seed=3) if case == "peaks" else gen_circles(120, 4, 0.1, 3)
        spec = gauss(sigma=sigma, delta=1e-3)
        model = fit_kpls(ds.X_cal, ds.Y_cal, 12, spec)
        K_cross = kernel_matrix(spec, pairwise_sq_dists(ds.X_test, ds.X_cal))
        expected = (center_test_literal(K_cross, gram_train(spec, ds.X_cal))
                    @ model.pls.coef + model.y_means)
        np.testing.assert_allclose(predict_kpls(model, ds.X_test), expected,
                                   rtol=0, atol=1e-9)


@pytest.fixture(scope="module")
def circles_model():
    ds = gen_circles(100, 4, 0.1, seed=2)
    model = fit_kpls(ds.X_cal, ds.Y_cal, 8, gauss(sigma=0.3, delta=0.01))
    return ds, model


class TestClassify:
    def test_labels_are_argmax_one_based(self, circles_model):
        ds, model = circles_model
        scores = predict_kpls(model, ds.X_test)
        labels = classify(model, ds.X_test)
        np.testing.assert_array_equal(labels, np.argmax(scores, axis=1) + 1)
        assert labels.min() >= 1 and labels.max() <= 4

    def test_single_column_model_rejected(self):
        rng = np.random.default_rng(10)
        model = fit_kpls(rng.normal(size=(8, 2)), rng.normal(size=8), 2, gauss())
        with pytest.raises(ValueError, match="one-hot"):
            classify(model, np.zeros((2, 2)))

    def test_unoptimized_unit_parameters_classify_poorly(self):
        # Default-parameter kernel PLS separates the rings only partially.
        ds = gen_circles(50, 4, 0.1, seed=2)
        model = fit_kpls(ds.X_cal, ds.Y_cal, 3, gauss(sigma=1.0, delta=1.0))
        acc = accuracy(ds.labels_test, classify(model, ds.X_test))
        assert 0.47 <= acc <= 0.67

    def test_well_scaled_kernel_separates_rings(self, circles_model):
        ds, model = circles_model
        acc = accuracy(ds.labels_test, classify(model, ds.X_test))
        assert acc >= 0.95


class TestArgmaxRule:
    def _one_hot_model(self):
        # Tiny hand-made classification fit; the decision rule is what matters.
        rng = np.random.default_rng(11)
        X = np.vstack([rng.normal(size=(6, 2)), rng.normal(size=(6, 2)) + 4.0])
        Y = np.zeros((12, 2))
        Y[:6, 0] = 1.0
        Y[6:, 1] = 1.0
        return fit_kpls(X, Y, 2, gauss())

    def test_tie_goes_to_lowest_class_index(self):
        scores = np.array([[0.5, 0.5], [0.2, 0.8]])
        assert list(np.argmax(scores, axis=1) + 1) == [1, 2]

    def test_invariant_under_monotone_rescaling(self):
        model = self._one_hot_model()
        rng = np.random.default_rng(12)
        X_new = rng.normal(size=(20, 2)) * 3.0
        scores = predict_kpls(model, X_new)
        base = np.argmax(scores, axis=1)
        for transform in (lambda s: 3.0 * s + 2.0, np.tanh, lambda s: s**3):
            np.testing.assert_array_equal(np.argmax(transform(scores), axis=1), base)


def peaks_model(seed, n_lv=2, spec=None):
    """A model fitted to the calibration rows of a small peaks dataset."""
    ds = gen_peaks(12, 0.05, seed)
    return fit_kpls(ds.X_cal, ds.Y_cal, n_lv, spec or gauss()), ds


class TestSerialization:
    def test_round_trip_is_bit_exact(self, tmp_path):
        ds = gen_circles(4, n_classes=3, seed=13)
        spec = KernelSpec.create(
            ["gaussian", "cauchy"], sigma=[0.7, 1.3], gamma=[0.4, 0.6], delta=0.02
        )
        model = fit_kpls(ds.X_cal, ds.Y_cal, 3, spec)
        path = tmp_path / "model.kfpls"
        save_calibrated_model(path, model, ds)
        loaded, _ = load_calibrated_model(path)
        assert loaded.spec.families == model.spec.families
        np.testing.assert_array_equal(loaded.spec.log_sigma, model.spec.log_sigma)
        np.testing.assert_array_equal(loaded.spec.log_gamma, model.spec.log_gamma)
        assert loaded.spec.log_delta == model.spec.log_delta
        np.testing.assert_array_equal(loaded.x_train, model.x_train)
        np.testing.assert_array_equal(loaded.col_means, model.col_means)
        np.testing.assert_array_equal(loaded.pls.coef, model.pls.coef)
        np.testing.assert_array_equal(loaded.y_means, model.y_means)
        assert loaded.pls.n_lv == model.pls.n_lv

    def test_loaded_model_predicts_identically(self, tmp_path):
        model, ds = peaks_model(14, spec=gauss(sigma=0.8))
        path = tmp_path / "model.kfpls"
        save_calibrated_model(path, model, ds)
        loaded, _ = load_calibrated_model(path)
        X_new = ds.X_test
        np.testing.assert_array_equal(
            predict_kpls(model, X_new), predict_kpls(loaded, X_new)
        )

    def test_equal_models_produce_identical_bytes(self, tmp_path):
        model, ds = peaks_model(15)
        p1 = tmp_path / "a.kfpls"
        p2 = tmp_path / "b.kfpls"
        save_calibrated_model(p1, model, ds)
        save_calibrated_model(p2, model, ds)
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_leaves_no_temp_file_and_failed_write_keeps_old_archive(self, tmp_path):
        model, ds = peaks_model(16)
        path = tmp_path / "model.kfpls"
        save_calibrated_model(path, model, ds)
        assert [p.name for p in tmp_path.iterdir()] == ["model.kfpls"]
        before = path.read_bytes()

        class Unwritable:
            def __array__(self, dtype=None, copy=None):
                raise RuntimeError("cannot convert")

        with pytest.raises(RuntimeError):
            write_array_archive(path, {"a": np.zeros(2), "b": Unwritable()})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.kfpls"]

    def test_writes_schema_2_without_scores(self, tmp_path):
        model, ds = peaks_model(17)
        path = tmp_path / "model.kfpls"
        save_calibrated_model(path, model, ds)
        data = read_array_archive(path)
        assert int(data["schema_version"]) == 2
        assert not set(V1_ONLY_MEMBERS) & set(data)
        for key in ("pls_coef", "y_means", "x_train", "center_col_means"):
            assert key in data

    def test_column_means_of_another_training_set_rejected(self, tmp_path):
        model, ds = peaks_model(18)
        path = tmp_path / "model.kfpls"
        save_calibrated_model(path, model, ds)
        data = read_array_archive(path)
        data["center_col_means"] = data["center_col_means"][:-1]
        write_array_archive(path, data)
        with pytest.raises(ValueError, match="center_col_means"):
            load_calibrated_model(path)


class TestVersion1Archive:
    """``tests/data/model_v1.kfpls`` was written by the schema-1 archive writer
    from ``fit_kpls`` on 12 rows (two features, two responses, three factors,
    a gaussian + matern32 kernel)."""

    def test_is_a_version_1_archive(self):
        data = read_array_archive(V1_ARCHIVE)
        assert int(data["schema_version"]) == 1
        assert set(V1_ONLY_MEMBERS) <= set(data)

    def test_predictions_match_oracle_from_raw_members(self):
        data = read_array_archive(V1_ARCHIVE)
        families = [str(f) for f in data["families"]]
        sigmas = np.exp(data["log_sigma"])
        gammas = np.exp(data["log_gamma"])
        delta = math.exp(float(data["log_delta"]))
        x_train = data["x_train"]
        X_new = np.random.default_rng(19).normal(size=(5, 2))
        K_train = gram_literal(families, sigmas, gammas, delta, x_train)
        K_cross = np.array([[kernel_value(families, sigmas, gammas, x, z)
                             for z in x_train] for x in X_new])
        expected = center_test_literal(K_cross, K_train) @ data["pls_coef"] + data["y_means"]

        model = model_from_arrays(read_array_archive(V1_ARCHIVE))
        assert model.pls.n_lv == 3
        np.testing.assert_allclose(predict_kpls(model, X_new), expected,
                                   rtol=0, atol=1e-12)
