import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

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

from kfpls import kpls
from kfpls._serialize import read_array_archive, write_array_archive
from kfpls.kernels import (FAMILY_NAMES, block_rows, gram_test, kernel_matrix,
                           pairwise_sq_dists)
from kfpls.kpls import _affine_predict, affine_coef, fit_grams, model_from_arrays
from kfpls.pipeline import _count_predictions
from kfpls.pls import coef_path
from oracles import center_test_literal, gram_literal, kernel_value, kpls_coef_literal

V1_ARCHIVE = Path(__file__).parent / "data" / "model_v1.kfpls"
V1_ONLY_MEMBERS = ("pls_x_scores", "pls_y_scores", "center_grand_mean", "center_n", "n_lv")
V2_ARCHIVE = Path(__file__).parent / "data" / "model_v2.kfpls"
FACTOR_MEMBERS = ("pls_weights", "pls_x_loadings", "pls_y_loadings")


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

    @pytest.mark.parametrize("bad, match", [
        ("nan_x", "finite"), ("inf_y", "finite"), ("3d_y", "2-D"), ("zero_n_lv", "n_lv"),
    ])
    def test_bad_input_rejected(self, bad, match):
        rng = np.random.default_rng(5)
        X, Y, n_lv = rng.normal(size=(8, 2)), rng.normal(size=(8, 1)), 2
        if bad == "nan_x":
            X[3, 1] = np.nan
        elif bad == "inf_y":
            Y[5, 0] = np.inf
        elif bad == "3d_y":
            Y = Y[:, :, None]
        else:
            n_lv = 0
        with pytest.raises(ValueError, match=match):
            fit_kpls(X, Y, n_lv, gauss())


class TestFitGrams:
    def test_members_match_separate_fits(self):
        # A stack of ridge Grams, as the kernel flow fits its sub-batches,
        # gives each member the model `fit_kpls` fits on its rows.
        rng = np.random.default_rng(7)
        spec = gauss(sigma=0.9, delta=0.02)
        X = rng.normal(size=(3, 15, 2))
        Y = rng.normal(size=(3, 15, 2))
        K = np.stack([gram_train(spec, x) for x in X])
        (W, P, Q, B), col_means, y_means, K_c = fit_grams(K, Y, 4)
        assert K_c is K
        for s in range(3):
            model = fit_kpls(X[s], Y[s], 4, spec)
            np.testing.assert_allclose(B[s], model.pls.coef, rtol=1e-10,
                                       atol=1e-10 * np.abs(model.pls.coef).max())
            np.testing.assert_array_equal(col_means[s], model.col_means)
            np.testing.assert_array_equal(y_means[s], model.y_means)


class TestPredictKpls:
    def test_training_rows_reproduce_in_sample_fit_without_ridge(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(12, 2))
        y = X[:, 0] * X[:, 1]
        spec = zero_ridge(sigma=1.1)
        model = fit_kpls(X, y, 4, spec)
        from kfpls.kernels import center_train, gram_train

        K_centered, _ = center_train(gram_train(spec, X))
        in_sample = K_centered @ model.pls.coef + model.y_means
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

    def test_feature_mismatch_rejected_with_no_rows(self):
        # With no rows no block runs, so the check must come before the blocks.
        rng = np.random.default_rng(9)
        model = fit_kpls(rng.normal(size=(8, 2)), rng.normal(size=8), 2, gauss())
        with pytest.raises(ValueError, match="feature mismatch"):
            predict_kpls(model, np.zeros((0, 5)))

    @pytest.mark.parametrize("shape", [(0,), (0, 2, 1), (3,)])
    def test_query_that_is_not_a_matrix_rejected(self, shape):
        rng = np.random.default_rng(9)
        model = fit_kpls(rng.normal(size=(8, 2)), rng.normal(size=8), 2, gauss())
        with pytest.raises(ValueError, match="2-D"):
            predict_kpls(model, np.zeros(shape))

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


BLOCK_ROWS = 8  # a power of two, so `_affine_predict` takes exactly this many
SLICE_ROWS = 4  # rows of each kernel slice within a block


class TestAffinePredict:
    """The streamed predictor against the one-shot product over all rows."""

    N_TRAIN = 20

    @staticmethod
    def one_shot(spec, x_train, C, b, X_new):
        return gram_test(spec, X_new, x_train) @ C + b

    @pytest.fixture
    def blocks(self, monkeypatch):
        """Block budget of `BLOCK_ROWS` rows, evaluated in kernel slices of
        `SLICE_ROWS` rows; the row count of each slice."""
        sizes = []

        def counting(spec, d2, d=None, out=None):
            sizes.append(d2.shape[0])
            return kernel_matrix(spec, d2, d, out=out)

        monkeypatch.setattr(kpls, "_BLOCK_ENTRIES", BLOCK_ROWS * self.N_TRAIN)
        monkeypatch.setattr(kpls, "_SLICE_ENTRIES", SLICE_ROWS * self.N_TRAIN)
        monkeypatch.setattr(kpls, "kernel_matrix", counting)
        return sizes

    @staticmethod
    def slices(q):
        """Slice rows: `SLICE_ROWS` at a time, restarting at each block."""
        sizes = []
        for start in range(0, q, BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, q)
            sizes += [min(SLICE_ROWS, stop - s) for s in range(start, stop, SLICE_ROWS)]
        return sizes

    def affine_map(self, rng, families, m):
        spec = KernelSpec.create(families, sigma=rng.uniform(0.5, 2.0, len(families)),
                                 delta=0.01)
        x_train = rng.normal(size=(self.N_TRAIN, 2))
        C, b = affine_coef(rng.normal(size=(self.N_TRAIN, m)),
                           rng.uniform(size=self.N_TRAIN), rng.normal(size=m))
        return spec, x_train, C, b

    @pytest.mark.parametrize("q", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                   3 * BLOCK_ROWS + 7])
    @pytest.mark.parametrize("m", [1, 4])
    @pytest.mark.parametrize("families", [*([f] for f in FAMILY_NAMES),
                                          ["matern52", "cauchy"]],
                             ids=[*FAMILY_NAMES, "combo"])
    def test_matches_one_shot_product(self, blocks, families, m, q):
        rng = np.random.default_rng(q + 10 * m)
        spec, x_train, C, b = self.affine_map(rng, families, m)
        X_new = rng.normal(size=(q, 2))
        got = _affine_predict(spec, x_train, C, b, X_new)
        assert got.shape == (q, m)
        assert blocks == self.slices(q)
        np.testing.assert_allclose(got, self.one_shot(spec, x_train, C, b, X_new),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("q", [0, 1, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 7])
    @pytest.mark.parametrize("m", [1, 4])
    def test_factor_search_stack_matches_one_shot_product(self, blocks, m, q):
        # `_count_predictions` applies the stacked (a, n, m) maps of counts 1..a.
        rng = np.random.default_rng(q + 10 * m)
        spec = KernelSpec.create(["gaussian", "cauchy"], sigma=[0.8, 1.5], delta=0.01)
        X, Y = rng.normal(size=(self.N_TRAIN, 2)), rng.normal(size=(self.N_TRAIN, m))
        X_new = rng.normal(size=(q, 2))
        got = _count_predictions(spec, X, Y, 6, X_new)
        (W, P, Q, _), col_means, y_means, _ = fit_grams(gram_train(spec, X)[None],
                                                       Y[None], 6)
        C, b = affine_coef(coef_path(W[0], P[0], Q[0], 6), col_means[0], y_means[0])
        assert got.shape == (6, q, m)
        np.testing.assert_allclose(got, self.one_shot(spec, X, C, b, X_new),
                                   rtol=1e-12, atol=1e-12)

    @staticmethod
    def whole_blocks(spec, x_train, C, b, X_new):
        """Each block of at most 2**18 cross-kernel values made whole and
        multiplied: the streamed predictor before its kernel was sliced."""
        rows = block_rows(2**18, x_train.shape[0])
        out = np.empty(C.shape[:-2] + (X_new.shape[0], C.shape[-1]))
        for start in range(0, X_new.shape[0], rows):
            block = slice(start, start + rows)
            out[..., block, :] = gram_test(spec, X_new[block], x_train) @ C + b
        return out

    @pytest.mark.parametrize("n", [20, 320, 800, 1000])
    @pytest.mark.parametrize("m", [1, 4])
    @pytest.mark.parametrize("families", [["gaussian"], ["matern32"],
                                          ["gaussian", "matern32", "cauchy"]],
                             ids=["gaussian", "matern32", "combo"])
    def test_slices_give_the_whole_blocks_bytes(self, families, m, n):
        # 600 rows are 3 blocks at n = 1000 and 800, 2 at 320 and 1 at 20.
        rng = np.random.default_rng(n + m)
        spec = KernelSpec.create(families, sigma=rng.uniform(0.5, 2.0, len(families)))
        x_train, X_new = rng.normal(size=(n, 2)), rng.normal(size=(600, 2))
        C, b = affine_coef(rng.normal(size=(n, m)), rng.uniform(size=n),
                           rng.normal(size=m))
        got = _affine_predict(spec, x_train, C, b, X_new)
        assert got.tobytes() == self.whole_blocks(spec, x_train, C, b, X_new).tobytes()
        # a stack of maps, as the factor searches apply
        C3, b3 = affine_coef(rng.normal(size=(3, n, m)), rng.uniform(size=(3, n)),
                             rng.normal(size=(3, m)))
        got = _affine_predict(spec, x_train, C3, b3, X_new)
        assert got.tobytes() == self.whole_blocks(spec, x_train, C3, b3, X_new).tobytes()

    # The 256-row block of 5,000 x 800 cross-kernel values is 1.64 MB and a
    # 64-row slice 0.41 MB: the Gaussian adds the slice's distances, the
    # Matern-3/2 its square roots and one temporary too (2.2 and 2.9 MB).
    # Making the block's distances, cross products and kernel afresh for
    # each block peaked at 3.3 and 6.6 MB.
    @pytest.mark.parametrize("family, bound", [("gaussian", 2.5e6), ("matern32", 3.3e6)])
    def test_buffers_are_made_once_per_call(self, family, bound):
        rng = np.random.default_rng(4)
        X = rng.uniform(-2.0, 2.0, size=(800, 2))
        model = fit_kpls(X, np.sin(X).sum(axis=1), 5, KernelSpec.create([family]))
        X_new = rng.uniform(-2.0, 2.0, size=(5_000, 2))
        tracemalloc.start()
        try:
            pred = predict_kpls(model, X_new)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pred.shape == (5_000, 1)
        assert peak < bound

    @pytest.mark.parametrize("family", ["gaussian", "matern32"])
    def test_memory_does_not_grow_with_rows_scored(self, family):
        # 20,000 x 500 cross kernel values are 80 MB; the blocks hold 2 MiB.
        rng = np.random.default_rng(4)
        X = rng.uniform(-2.0, 2.0, size=(500, 2))
        model = fit_kpls(X, np.sin(X).sum(axis=1), 5, KernelSpec.create([family]))
        X_new = rng.uniform(-2.0, 2.0, size=(20_000, 2))
        tracemalloc.start()
        try:
            pred = predict_kpls(model, X_new)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pred.shape == (20_000, 1)
        assert peak < 16e6


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

    def test_writes_schema_3_without_scores_or_factors(self, tmp_path):
        model, ds = peaks_model(17)
        path = tmp_path / "model.kfpls"
        save_calibrated_model(path, model, ds)
        data = read_array_archive(path)
        assert int(data["schema_version"]) == 3
        assert not set(V1_ONLY_MEMBERS) & set(data)
        assert not set(FACTOR_MEMBERS) & set(data)
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


def oracle_predictions(data, X_new):
    """Predictions of ``X_new`` from an archive's raw members: kernel values
    from `kernel_value` in pure-Python loops, test centering from
    `center_test_literal`, then ``pls_coef`` and ``y_means``."""
    families = [str(f) for f in data["families"]]
    sigmas = np.exp(data["log_sigma"])
    gammas = np.exp(data["log_gamma"])
    delta = math.exp(float(data["log_delta"]))
    x_train = data["x_train"]
    K_train = gram_literal(families, sigmas, gammas, delta, x_train)
    K_cross = np.array([[kernel_value(families, sigmas, gammas, x, z)
                         for z in x_train] for x in X_new])
    return center_test_literal(K_cross, K_train) @ data["pls_coef"] + data["y_means"]


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
        X_new = np.random.default_rng(19).normal(size=(5, 2))
        model = model_from_arrays(read_array_archive(V1_ARCHIVE))
        assert model.pls.n_lv == 3
        np.testing.assert_allclose(predict_kpls(model, X_new),
                                   oracle_predictions(data, X_new), rtol=0, atol=1e-12)


class TestVersion2Archive:
    """``tests/data/model_v2.kfpls`` was written by the schema-2 archive writer
    from ``fit_kpls`` on the 12 calibration rows of ``gen_peaks(15, 0.05, 21)``
    (two features, one response, three factors, a gaussian + matern32
    kernel), with that dataset's standardization."""

    def test_is_a_version_2_archive(self):
        data = read_array_archive(V2_ARCHIVE)
        assert int(data["schema_version"]) == 2
        assert set(FACTOR_MEMBERS) <= set(data)
        assert not set(V1_ONLY_MEMBERS) & set(data)

    def test_predictions_match_oracle_from_raw_members(self):
        data = read_array_archive(V2_ARCHIVE)
        X_new = np.random.default_rng(20).normal(size=(5, 2))
        model, meta = load_calibrated_model(V2_ARCHIVE)
        assert model.pls.n_lv == 3
        assert meta["task"] == "regression"
        np.testing.assert_allclose(predict_kpls(model, X_new),
                                   oracle_predictions(data, X_new), rtol=0, atol=1e-12)

    def test_resaved_as_version_3_predicts_bit_for_bit_alike(self, tmp_path):
        model, meta = load_calibrated_model(V2_ARCHIVE)
        path = tmp_path / "model.kfpls"
        save_calibrated_model(path, model, SimpleNamespace(**meta))
        data = read_array_archive(path)
        assert int(data["schema_version"]) == 3
        assert not set(FACTOR_MEMBERS) & set(data)
        resaved, resaved_meta = load_calibrated_model(path)
        X_new = np.random.default_rng(21).normal(size=(7, 2))
        np.testing.assert_array_equal(predict_kpls(resaved, X_new),
                                      predict_kpls(model, X_new))
        for key, value in meta.items():
            np.testing.assert_array_equal(resaved_meta[key], value)
