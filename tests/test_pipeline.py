import dataclasses
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from kfpls import (
    DegenerateProblemError,
    KernelSpec,
    fit_kpls,
    gen_circles,
    gen_peaks,
    gram_train,
    pipeline,
    predict_kpls,
)
from kfpls.kpls import _affine_predict
from kfpls.metrics import accuracy, rmse
from kfpls.pipeline import (
    _count_maps,
    _holdout_split,
    _score_counts,
    case_dataset,
    case_flow_config,
    case_spec,
    check_lv_max,
    evaluate_predictions,
    line_search_n_lv,
    plain_pls_lv,
    plain_pls_predictions,
    run_pipeline,
    sweep_n_lv,
    sweep_points,
)
from kfpls.pls import _simpls, coef_path


def refit_search(fit, X_val, Y_val, task, lv_max):
    """Reference factor search: a separate fit at every count. ``fit(lv)``
    returns the predictor of the ``lv``-factor model."""
    table, best_lv, best = [], None, None
    for lv in range(1, lv_max + 1):
        try:
            pred = fit(lv)(X_val)
        except DegenerateProblemError:
            break
        if task == "classification":
            score = accuracy(np.argmax(Y_val, axis=1) + 1, np.argmax(pred, axis=1) + 1)
            better = best is None or score > best
        else:
            score = rmse(Y_val, pred)
            better = best is None or score < best
        table.append((lv, float(score)))
        if better:
            best_lv, best = lv, score
    return best_lv, table


def refit_line_search(X, Y, spec, task, lv_max, seed):
    fit_idx, val_idx = _holdout_split(X.shape[0], seed)

    def fit(lv):
        model = fit_kpls(X[fit_idx], Y[fit_idx], lv, spec)
        return lambda X_new: predict_kpls(model, X_new)

    return refit_search(fit, X[val_idx], Y[val_idx], task, lv_max)


def refit_plain_pls_lv(ds, lv_max, seed):
    fit_idx, val_idx = _holdout_split(ds.X_cal.shape[0], seed)
    y_means = ds.Y_cal[fit_idx].mean(axis=0)

    def fit(lv):
        Y_fit = ds.Y_cal[fit_idx] - y_means
        B = _simpls(ds.X_cal[fit_idx][None], Y_fit[None], lv)[3][0]
        return lambda X_new: X_new @ B + y_means

    lv, _ = refit_search(fit, ds.X_cal[val_idx], ds.Y_cal[val_idx], ds.task,
                         min(ds.X_cal.shape[1], lv_max))
    return lv or 1


def few_points(ds, k=4):
    """The dataset with its calibration rows cycling through ``k`` points,
    which exhausts the kernel fit's rank within ``k - 1`` factors."""
    n = ds.X_cal.shape[0]
    rows = np.linspace(0, n - 1, k).astype(int)[np.arange(n) % k]
    return dataclasses.replace(ds, X_cal=ds.X_cal[rows], Y_cal=ds.Y_cal[rows])


FACTOR_SEARCH_CASES = {
    "peaks": (gen_peaks(120, 0.05, seed=4), 0.5, 14),
    "circles": (gen_circles(30, 4, 0.1, seed=3), 0.3, 20),
    "peaks_few_points": (few_points(gen_peaks(120, 0.05, seed=4)), 0.5, 8),
    "circles_few_points": (few_points(gen_circles(30, 4, 0.1, seed=5), k=6), 0.3, 8),
}


class TestEvaluatePredictions:
    def test_regression_scores_against_noiseless_reference(self):
        ds = gen_peaks(100, 0.2, seed=0)
        report = evaluate_predictions(ds, ds.Y_true_test)
        assert report.q2 == pytest.approx(1.0)
        assert report.rmse == 0.0
        assert report.accuracy is None
        assert report.n_test == 20 and report.n_cal == 80

    def test_classification_reports_accuracy(self):
        ds = gen_circles(25, 3, 0.1, seed=1)
        report = evaluate_predictions(ds, ds.Y_test)
        assert report.accuracy == 1.0

    def test_nrmse_uses_calibration_range(self):
        ds = gen_peaks(100, 0.1, seed=2)
        report = evaluate_predictions(ds, ds.Y_test)
        assert report.nrmse_percent == pytest.approx(
            100.0 * report.rmse / ds.y_range_cal
        )


class TestLineSearch:
    def test_prefers_smaller_count_on_ties(self):
        ds = gen_circles(40, 2, 0.0, seed=3)
        spec = KernelSpec.create(["gaussian"], sigma=0.5, delta=0.01)
        lv, table = line_search_n_lv(gram_train(spec, ds.X_cal), ds.X_cal, ds.Y_cal,
                                     "classification", 6, 0)
        scores = dict(table)
        assert scores[lv] == max(scores.values())
        assert all(scores[other] < scores[lv] for other in scores if other < lv)

    def test_regression_minimizes_holdout_rmse(self):
        ds = gen_peaks(120, 0.05, seed=4)
        spec = KernelSpec.create(["gaussian"], sigma=0.5, delta=0.01)
        lv, table = line_search_n_lv(gram_train(spec, ds.X_cal), ds.X_cal, ds.Y_cal,
                                     "regression", 8, 0)
        scores = dict(table)
        assert scores[lv] == min(scores.values())
        assert len(table) == 8


class TestOneFitFactorSearch:
    """The factor searches against separate fits at every count."""

    @pytest.mark.parametrize("case", FACTOR_SEARCH_CASES)
    def test_line_search_matches_refits(self, case):
        ds, sigma, lv_max = FACTOR_SEARCH_CASES[case]
        spec = KernelSpec.create("gaussian", sigma=sigma, delta=0.01)
        lv, table = line_search_n_lv(gram_train(spec, ds.X_cal), ds.X_cal, ds.Y_cal,
                                     ds.task, lv_max, 1)
        ref_lv, ref_table = refit_line_search(ds.X_cal, ds.Y_cal, spec, ds.task, lv_max, 1)
        assert lv == ref_lv
        assert [n for n, _ in table] == [n for n, _ in ref_table] == list(range(1, lv_max + 1))
        np.testing.assert_allclose([s for _, s in table], [s for _, s in ref_table],
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("case", ["peaks_few_points", "circles_few_points"])
    def test_rank_exhausted_rows_repeat_the_last_score(self, case):
        ds, sigma, lv_max = FACTOR_SEARCH_CASES[case]
        spec = KernelSpec.create("gaussian", sigma=sigma, delta=0.01)
        fit_idx, _ = _holdout_split(ds.X_cal.shape[0], 1)
        k = fit_kpls(ds.X_cal[fit_idx], ds.Y_cal[fit_idx], lv_max, spec).pls.n_lv
        assert k < lv_max
        _, table = line_search_n_lv(gram_train(spec, ds.X_cal), ds.X_cal, ds.Y_cal,
                                    ds.task, lv_max, 1)
        assert [s for _, s in table[k:]] == [table[k - 1][1]] * (lv_max - k)

    def test_path_ended_early_stops_the_search(self, monkeypatch):
        # As a refit loop stops at the first count whose fit raises.
        ds, sigma, _ = FACTOR_SEARCH_CASES["peaks"]
        spec = KernelSpec.create("gaussian", sigma=sigma, delta=0.01)
        monkeypatch.setattr(pipeline, "coef_path",
                            lambda W, P, Q, lv_max: coef_path(W, P, Q, lv_max)[:2])
        _, table = line_search_n_lv(gram_train(spec, ds.X_cal), ds.X_cal, ds.Y_cal,
                                    ds.task, 6, 1)
        assert [lv for lv, _ in table] == [1, 2]
        assert len(sweep_n_lv(ds, spec, [1, 2])) == 2
        with pytest.raises(DegenerateProblemError, match="ill-conditioned"):
            sweep_n_lv(ds, spec, [1, 3])

    def test_lv_max_above_fit_rows_rejected(self):
        ds = gen_peaks(20, 0.05, seed=4)
        spec = KernelSpec.create("gaussian", sigma=0.5, delta=0.01)
        with pytest.raises(ValueError, match="exceeds the number of training rows"):
            line_search_n_lv(gram_train(spec, ds.X_cal), ds.X_cal, ds.Y_cal,
                             ds.task, 14, 1)

    @pytest.mark.parametrize("case", ["eight_columns", "rank_deficient", "circles"])
    def test_plain_pls_lv_matches_refits(self, case):
        rng = np.random.default_rng(12)
        ds = gen_peaks(100, 0.05, seed=12)
        if case == "circles":
            ds = gen_circles(30, 4, 0.1, seed=12)
        else:
            X = rng.normal(size=(ds.X_cal.shape[0], 8))
            if case == "rank_deficient":
                X[:, 3:] = X[:, :3] @ rng.normal(size=(3, 5))
            ds = dataclasses.replace(ds, X_cal=X,
                                     Y_cal=X[:, :2] @ [[1.0], [-0.5]] + 0.3 * ds.Y_cal)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert plain_pls_lv(ds, 6, 3) == refit_plain_pls_lv(ds, 6, 3)

    @pytest.mark.parametrize("case", ["peaks", "circles", "peaks_few_points"])
    def test_sweep_matches_refits(self, case):
        ds, sigma, _ = FACTOR_SEARCH_CASES[case]
        spec = KernelSpec.create("gaussian", sigma=sigma, delta=0.01)
        grid = [1, 2, 5, 9, 12]
        rows = sweep_n_lv(ds, spec, grid)
        assert [lv for lv, _ in rows] == grid
        for lv, report in rows:
            expected = evaluate_predictions(
                ds, predict_kpls(fit_kpls(ds.X_cal, ds.Y_cal, lv, spec), ds.X_test))
            for name in ("rmse", "nrmse_percent", "q2", "accuracy"):
                got, want = getattr(report, name), getattr(expected, name)
                assert (got is None) == (want is None)
                if want is not None:
                    assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_sweep_rejects_count_below_one(self):
        ds = gen_peaks(40, 0.05, seed=4)
        spec = KernelSpec.create("gaussian", sigma=0.5, delta=0.01)
        with pytest.raises(ValueError, match="n_lv must be >= 1"):
            sweep_n_lv(ds, spec, [0, 3])


def seven_features(seed):
    """Case-1 data with five standardized noise features added: 7 features."""
    ds = case_dataset(1, seed)
    rng = np.random.default_rng(seed)
    noise = {part: rng.normal(size=(getattr(ds, part).shape[0], 5))
             for part in ("X_cal", "X_test")}
    return dataclasses.replace(ds, **{part: np.hstack([getattr(ds, part), extra])
                                      for part, extra in noise.items()})


class TestOneCalibrationGram:
    """`run_pipeline` takes the factor search's Grams and the final fit's from
    one calibration Gram; a reference fits each on its own rows."""

    @staticmethod
    def separate_fits(ds, spec0, spec, lv_max, seed):
        fit_idx, val_idx = _holdout_split(ds.X_cal.shape[0], seed)
        X_fit = ds.X_cal[fit_idx]
        C, b = _count_maps(gram_train(spec, X_fit), X_fit, ds.Y_cal[fit_idx], lv_max)
        preds = _affine_predict(spec, X_fit, C, b, ds.X_cal[val_idx])
        n_lv, table = _score_counts(preds, ds.Y_cal[val_idx], ds.task)
        model = fit_kpls(ds.X_cal, ds.Y_cal, n_lv, spec)
        default = fit_kpls(ds.X_cal, ds.Y_cal, pipeline.DEFAULT_BASELINE_LV,
                           KernelSpec.create(spec0.families, sigma=1.0, delta=1.0))
        return n_lv, table, model, {
            "kf_pls": ds.destandardize_y(predict_kpls(model, ds.X_test)),
            "kpls_default": ds.destandardize_y(predict_kpls(default, ds.X_test)),
        }

    # Exact on the paper's two cases; 7 features give the distance products
    # longer sums, which the GEMM may group otherwise for a block than for
    # the rows alone (the bits held here all the same).
    @pytest.mark.parametrize("case, exact", [(1, True), (2, True), ("seven", False)])
    def test_matches_separate_fits(self, case, exact):
        seed = 3
        ds = seven_features(seed) if case == "seven" else case_dataset(case, seed)
        case_id = 1 if case == "seven" else case
        spec0 = case_spec(case_id, families=["gaussian", "matern32"])
        lv_max = pipeline.CASE_DEFAULTS[case_id]["lv_max"]
        config = case_flow_config(case_id, seed, n_iter=5)
        result = run_pipeline(ds, spec0, config, lv_max, seed)
        n_lv, table, model, predictions = self.separate_fits(ds, spec0, result.spec_opt,
                                                             lv_max, seed)
        assert result.n_lv == n_lv
        assert [lv for lv, _ in result.lv_table] == [lv for lv, _ in table]
        pairs = [(np.array([s for _, s in result.lv_table]), np.array([s for _, s in table])),
                 (result.model.pls.coef, model.pls.coef),
                 (result.model.col_means, model.col_means),
                 (result.model.y_means, model.y_means),
                 *((result.predictions[k], predictions[k]) for k in predictions)]
        for got, want in pairs:
            if exact:
                assert got.tobytes() == want.tobytes()
            else:
                np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


class TestRunPipeline:
    def test_small_regression_end_to_end(self):
        ds = gen_peaks(80, 0.05, seed=5)
        spec0 = KernelSpec.create(["gaussian"], sigma=1.0, delta=1.0)
        config = case_flow_config(1, seed=5, n_iter=20, n_subsamples=3)
        result = run_pipeline(ds, spec0, config, 6, seed=5)
        assert set(result.reports) == {"kf_pls", "kpls_default", "pls"}
        assert result.predictions["kf_pls"].shape == (16, 1)
        assert "y_true" in result.predictions
        assert 1 <= result.n_lv <= 6
        assert result.trace.iterations_run <= 20

    def test_lv_max_checked_before_the_flow(self, monkeypatch):
        def no_flow(*args, **kwargs):
            raise AssertionError("the kernel flow ran")

        ds = gen_peaks(50, 0.05, seed=5)  # 40 calibration rows, 32 fitted
        check_lv_max(ds, 32)
        monkeypatch.setattr(pipeline, "run_kernel_flows", no_flow)
        config = case_flow_config(1, seed=5, n_iter=5)
        spec0 = KernelSpec.create(["gaussian"], sigma=1.0, delta=1.0)
        for lv_max in (0, 33):
            with pytest.raises(ValueError, match="lv_max must be between 1 and 32"):
                run_pipeline(ds, spec0, config, lv_max, seed=5)

    @pytest.mark.parametrize("n", [2, 9, 10, 41, 800])
    def test_lv_max_bound_is_the_fit_rows_without_a_draw(self, n, monkeypatch):
        n_fit = _holdout_split(n, 3)[0].size
        monkeypatch.setattr(np.random, "default_rng", None)
        ds = SimpleNamespace(X_cal=np.zeros((n, 1)))
        check_lv_max(ds, n_fit)
        for lv_max in (0, n_fit + 1):
            with pytest.raises(ValueError, match=f"between 1 and {n_fit}, the rows"):
                check_lv_max(ds, lv_max)

    # Inputs shaped like the `peaks_combo` benchmark: 800 calibration rows,
    # three families, 400-row minibatches. The peak was 16.3 MB here, with
    # one distance matrix of the calibration rows kept through the flow 21.8 MB.
    def test_memory_peak_of_a_run(self):
        ds = gen_peaks(1000, 0.05, seed=7)
        spec0 = KernelSpec.create(["gaussian", "matern32", "cauchy"], sigma=1.0, delta=1.0)
        config = case_flow_config(1, seed=7, n_iter=3, patience=10**6)
        tracemalloc.start()
        try:
            result = run_pipeline(ds, spec0, config, 12, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.trace.iterations_run == 3
        assert peak < 19e6

    def test_plain_pls_keeps_one_hot_intercept(self):
        ds = gen_circles(30, 4, 0.1, seed=6)
        pred = plain_pls_predictions(ds, 2)
        # With balanced one-hot columns the predictions average near 1/4.
        assert np.abs(pred.mean(axis=0) - 0.25).max() < 0.05


class TestCaseDataset:
    def test_case1_defaults(self):
        ds = case_dataset(1, seed=0)
        assert ds.task == "regression"
        assert ds.X_cal.shape == (160, 2)
        assert ds.Y_true_test is not None

    def test_case2_defaults(self):
        ds = case_dataset(2, seed=0)
        assert ds.task == "classification"
        assert ds.Y_cal.shape[1] == 4
        assert ds.X_cal.shape[0] == 320

    def test_cases_3_4_require_csv(self):
        with pytest.raises(ValueError, match="CSV"):
            case_dataset(3, seed=0)
        with pytest.raises(ValueError, match="CSV"):
            case_dataset(4, seed=0)

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError, match="unknown case"):
            case_dataset(9, seed=0)


def _never(*args, **kwargs):
    raise AssertionError("a dataset was built or a flow ran")


class TestSweepPoints:
    """Every run of a one-axis sweep is built, and checked, before any runs."""

    @pytest.mark.parametrize("axis, grid", [
        ("noise", [0.05, 0.2]),
        ("learning_rate", [0.1, 0.5]),
        ("n_subsamples", [2.0, 4.0]),
        ("init_theta", [0.5, 3.0]),
    ])
    def test_points_per_axis(self, axis, grid):
        spec0 = KernelSpec.create("gaussian,cauchy", sigma=2.0, delta=0.3)
        overrides = {"n_iter": 7, "momentum": 0.5}
        points = sweep_points(axis, grid, spec0, 11, 2, overrides)
        children = np.random.SeedSequence(11).spawn(len(grid))
        assert [value for value, *_ in points] == grid
        for (value, spec, config, noise), child in zip(points, children):
            assert (config.seed.entropy, config.seed.spawn_key) == (child.entropy,
                                                                  child.spawn_key)
            expected = dict(overrides)
            if axis in ("learning_rate", "n_subsamples"):
                expected[axis] = value
            assert dataclasses.replace(config, seed=None) == case_flow_config(
                2, None, **expected)
            assert type(config.n_subsamples) is int
            if axis == "init_theta":
                assert spec.families == spec0.families
                np.testing.assert_array_equal(
                    spec.theta(), KernelSpec.create(spec0.families, sigma=value,
                                                    delta=value).theta())
            else:
                assert spec is spec0
            assert noise == (value if axis == "noise" else None)

    @pytest.mark.parametrize("axis, grid, message", [
        ("n_subsamples", [2.0, 0.0], "n_subsamples must be >= 1"),
        ("n_subsamples", [1.5], "whole numbers"),
        ("learning_rate", [0.1, float("nan")], "learning_rate"),
        ("init_theta", [1.0, 0.0], "length-scales"),
        ("noise", [0.1, -1.0], "noise"),
        ("n_lv", [2.0], "unknown sweep axis"),
    ], ids=["n_subsamples-0", "n_subsamples-1.5", "learning_rate-nan",
            "init_theta-0", "noise-negative", "axis"])
    def test_bad_point_rejected_before_any_run(self, axis, grid, message, monkeypatch):
        monkeypatch.setattr(pipeline, "run_kernel_flows", _never)
        monkeypatch.setattr(pipeline, "case_dataset", _never)
        with pytest.raises(ValueError, match=message):
            sweep_points(axis, grid, pipeline.case_spec(1), 0, 1)
