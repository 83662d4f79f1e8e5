"""End-to-end case workflows: optimize, select factors, fit, evaluate.

The full recipe is: build (or load) a dataset, learn kernel parameters on
the calibration partition, pick the latent-variable count by a line
search on a held-out fifth of the calibration data, refit on the whole
calibration partition, and score the untouched test partition. Two
reference models are evaluated alongside: plain linear PLS, and kernel
PLS with untuned unit parameters. Sweep helpers rerun pieces of that
recipe over one axis at a time.

Each factor search (`line_search_n_lv`, `plain_pls_lv`, `sweep_n_lv`)
makes one SIMPLS fit at its largest count and takes every smaller count
from the prefix coefficients of that fit (`pls.coef_path`). The kernel
searches predict every count at once, through `kpls.affine_coef` of the
whole stack of coefficients. Both line searches score the counts with
`_score_counts`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .datasets import Dataset, gen_circles, gen_peaks, load_csv
from .exceptions import DegenerateProblemError
from .flows import FlowConfig, FlowTrace, run_kernel_flows
from .kernels import KernelSpec, gram_test
from .kpls import KplsModel, affine_coef, fit_kpls, predict_kpls
from .metrics import EvalReport, accuracy, nrmse, q2, rmse
from .pls import PlsModel, coef_path, fit_pls, predict_pls

# Factor count for the untuned reference model (and the flow default).
DEFAULT_BASELINE_LV = 3

CASE_DEFAULTS = {
    1: dict(task="regression", families="gaussian", n_samples=200, noise=0.05,
            n_iter=300, lv_max=12),
    2: dict(task="classification", families="gaussian", n_per_class=100,
            n_classes=4, radial_noise=0.1, n_iter=500, lv_max=20),
    3: dict(task="regression", families="cauchy", n_iter=300, lv_max=20),
    4: dict(task="regression", families="gaussian", n_iter=300, lv_max=30),
}


@dataclass
class PipelineResult:
    """Everything a case run produced, ready for reporting."""

    dataset: Dataset
    spec_init: KernelSpec
    spec_opt: KernelSpec
    trace: FlowTrace
    n_lv: int
    model: KplsModel
    lv_table: list
    reports: dict
    predictions: dict
    runtime_seconds: float
    config: FlowConfig = field(repr=False, default=None)


def evaluate_predictions(ds: Dataset, pred_std: np.ndarray) -> EvalReport:
    """Score standardized-space predictions on the test partition.

    Regression metrics are computed in original units against the
    noiseless reference when the dataset carries one (synthetic cases),
    otherwise against the observed test responses. Classification adds
    argmax accuracy on top of the one-hot residual metrics.
    """
    y_ref_std = ds.Y_true_test if ds.Y_true_test is not None else ds.Y_test
    y_ref = ds.destandardize_y(y_ref_std)
    pred = ds.destandardize_y(pred_std)
    y_cal = ds.destandardize_y(ds.Y_cal)

    acc = None
    if ds.task == "classification":
        labels_pred = np.argmax(pred, axis=1) + 1
        acc = accuracy(ds.labels_test, labels_pred)

    r = rmse(y_ref, pred)
    return EvalReport(
        rmse=r,
        nrmse_percent=nrmse(r, float(y_cal.min()), float(y_cal.max())),
        q2=q2(y_ref, pred, y_cal),
        accuracy=acc,
        n_test=ds.X_test.shape[0],
        n_cal=ds.X_cal.shape[0],
        y_range_cal=ds.y_range_cal,
    )


def _holdout_split(n: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Fifth of the calibration rows held out for factor selection."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_val = max(1, n // 5)
    return np.sort(perm[n_val:]), np.sort(perm[:n_val])


def check_lv_max(ds: Dataset, lv_max: int) -> None:
    """Reject (``ValueError``) a factor-search bound outside 1 and the number
    of calibration rows the line search fits on."""
    n_fit = _holdout_split(ds.X_cal.shape[0], 0)[0].size
    if not 1 <= lv_max <= n_fit:
        raise ValueError(f"lv_max must be between 1 and {n_fit}, the rows the "
                         f"factor line search fits on; got {lv_max}")


def _score_counts(preds: np.ndarray, Y_val: np.ndarray, task: str) -> tuple:
    """Held-out score of each factor count ``a``, predicting ``preds[a-1]``.

    The highest accuracy or the lowest RMSE wins, ties going to the smaller
    count. Returns the winning count and the (n_lv, score) table.
    """
    if task == "classification":
        truth = np.argmax(Y_val, axis=1) + 1
        scores = [float(accuracy(truth, np.argmax(p, axis=1) + 1)) for p in preds]
        loss = [-s for s in scores]
    else:
        scores = loss = [float(rmse(Y_val, p)) for p in preds]
    return int(np.argmin(loss)) + 1, list(enumerate(scores, start=1))


def _count_path(pls: PlsModel, lv_max: int) -> np.ndarray:
    """Coefficients of the fits at counts 1..lv_max, from one fit at ``lv_max``.

    A fit that ran out of rank at ``pls.n_lv`` factors is the fit at every
    larger count too, so its last entry repeats. A path that `coef_path`
    ended early stays short: a refit at the next count would raise.
    """
    path = coef_path(pls)
    if len(path) < pls.n_lv:
        return path
    return path[np.minimum(np.arange(lv_max), pls.n_lv - 1)]


def line_search_n_lv(
    X: np.ndarray,
    Y: np.ndarray,
    spec: KernelSpec,
    task: str,
    lv_max: int,
    seed,
) -> tuple[int, list]:
    """Pick the factor count by fitting on 4/5 and scoring the held-out 1/5.

    One fit at ``lv_max`` gives every count's coefficients. Classification
    picks the highest held-out accuracy, regression the lowest held-out
    RMSE; ties go to the smaller count. Returns the chosen count and the
    (n_lv, score) table.
    """
    fit_idx, val_idx = _holdout_split(X.shape[0], seed)
    model = fit_kpls(X[fit_idx], Y[fit_idx], lv_max, spec)
    C, b = affine_coef(_count_path(model.pls, lv_max), model.col_means, model.y_means)
    preds = gram_test(spec, X[val_idx], model.x_train) @ C + b
    return _score_counts(preds, Y[val_idx], task)


def plain_pls_predictions(ds: Dataset, n_lv: int) -> np.ndarray:
    """Linear PLS reference predictions (standardized space).

    Responses are column-centered around the calibration means and the
    means are added back, so one-hot classification responses keep their
    intercept.
    """
    y_means = ds.Y_cal.mean(axis=0)
    model = fit_pls(ds.X_cal, ds.Y_cal - y_means, n_lv)
    return predict_pls(model, ds.X_test) + y_means


def plain_pls_lv(ds: Dataset, lv_max: int, seed) -> int:
    """Factor count for the linear reference, line-searched the same way."""
    fit_idx, val_idx = _holdout_split(ds.X_cal.shape[0], seed)
    y_means = ds.Y_cal[fit_idx].mean(axis=0)
    try:
        model = fit_pls(ds.X_cal[fit_idx], ds.Y_cal[fit_idx] - y_means,
                        min(ds.X_cal.shape[1], lv_max))
    except DegenerateProblemError:
        return 1
    preds = ds.X_cal[val_idx] @ coef_path(model) + y_means
    return _score_counts(preds, ds.Y_cal[val_idx], ds.task)[0]


def run_pipeline(
    ds: Dataset,
    spec0: KernelSpec,
    config: FlowConfig,
    lv_max: int,
    seed,
) -> PipelineResult:
    """Optimize the kernel, select factors, fit, and evaluate baselines."""
    t0 = time.perf_counter()
    check_lv_max(ds, lv_max)
    spec_opt, trace = run_kernel_flows(ds.X_cal, ds.Y_cal, config, spec0)
    n_lv, lv_table = line_search_n_lv(
        ds.X_cal, ds.Y_cal, spec_opt, ds.task, lv_max, seed
    )
    model = fit_kpls(ds.X_cal, ds.Y_cal, n_lv, spec_opt)
    pred_kf = predict_kpls(model, ds.X_test)

    default_spec = KernelSpec.create(spec0.families, sigma=1.0, delta=1.0)
    baseline_lv = min(DEFAULT_BASELINE_LV, ds.X_cal.shape[0] - 1)
    kpls_default = fit_kpls(ds.X_cal, ds.Y_cal, baseline_lv, default_spec)
    pred_default = predict_kpls(kpls_default, ds.X_test)

    pls_lv = plain_pls_lv(ds, lv_max, seed)
    pred_pls = plain_pls_predictions(ds, pls_lv)

    reports = {
        "kf_pls": evaluate_predictions(ds, pred_kf),
        "kpls_default": evaluate_predictions(ds, pred_default),
        "pls": evaluate_predictions(ds, pred_pls),
    }
    predictions = {
        "kf_pls": ds.destandardize_y(pred_kf),
        "kpls_default": ds.destandardize_y(pred_default),
        "pls": ds.destandardize_y(pred_pls),
        "y_test": ds.destandardize_y(ds.Y_test),
    }
    if ds.Y_true_test is not None:
        predictions["y_true"] = ds.destandardize_y(ds.Y_true_test)

    return PipelineResult(
        dataset=ds,
        spec_init=spec0,
        spec_opt=spec_opt,
        trace=trace,
        n_lv=n_lv,
        model=model,
        lv_table=lv_table,
        reports=reports,
        predictions=predictions,
        runtime_seconds=time.perf_counter() - t0,
        config=config,
    )


def case_dataset(case_id: int, seed, noise: float | None = None,
                 csv_path=None, response=None) -> Dataset:
    """Dataset for one of the built-in case studies."""
    if case_id == 1:
        d = CASE_DEFAULTS[1]
        return gen_peaks(d["n_samples"], d["noise"] if noise is None else noise, seed)
    if case_id == 2:
        d = CASE_DEFAULTS[2]
        return gen_circles(
            d["n_per_class"], d["n_classes"],
            d["radial_noise"] if noise is None else noise, seed,
        )
    if case_id in (3, 4):
        if csv_path is None:
            raise ValueError(f"case {case_id} needs an external CSV file")
        if response is None:
            raise ValueError(f"case {case_id} needs the response column name")
        return load_csv(csv_path, response, "regression", seed)
    raise ValueError(f"unknown case id {case_id}")


def case_flow_config(case_id: int, seed, **overrides) -> FlowConfig:
    """Flow settings for a case, with keyword overrides."""
    d = CASE_DEFAULTS[case_id]
    base = dict(
        n_iter=d["n_iter"],
        n_subsamples=8,
        batch_fraction=0.5,
        sub_fraction=0.5,
        n_lv=DEFAULT_BASELINE_LV,
        learning_rate=0.25,
        update_rule="vanilla",
        seed=seed,
    )
    base.update(overrides)
    return FlowConfig(**base)


def case_spec(case_id: int, sigma: float = 1.0, delta: float = 1.0,
              families=None) -> KernelSpec:
    if families is None:
        families = CASE_DEFAULTS[case_id]["families"]
    return KernelSpec.create(families, sigma=sigma, delta=delta)


def run_case(case_id: int, seed, noise=None, csv_path=None, response=None,
             sigma0: float = 1.0, delta0: float = 1.0,
             flow_overrides: dict | None = None) -> PipelineResult:
    """The full pipeline for one case study."""
    ds = case_dataset(case_id, seed, noise=noise, csv_path=csv_path, response=response)
    spec0 = case_spec(case_id, sigma=sigma0, delta=delta0)
    config = case_flow_config(case_id, seed, **(flow_overrides or {}))
    return run_pipeline(ds, spec0, config, CASE_DEFAULTS[case_id]["lv_max"], seed)


def sweep_n_lv(ds: Dataset, spec: KernelSpec, grid) -> list:
    """Test-partition metrics by factor count, all from one fit at the largest."""
    grid = [int(lv) for lv in grid]
    if min(grid) < 1:
        raise ValueError(f"n_lv must be >= 1, got {min(grid)}")
    model = fit_kpls(ds.X_cal, ds.Y_cal, max(grid), spec)
    path = _count_path(model.pls, max(grid))
    if len(path) < max(grid):
        raise DegenerateProblemError("loadings-weights system is too ill-conditioned")
    C, b = affine_coef(path, model.col_means, model.y_means)
    preds = gram_test(spec, ds.X_test, model.x_train) @ C + b
    return [(lv, evaluate_predictions(ds, preds[lv - 1])) for lv in grid]


def sweep_noise(grid, seed, case_id: int = 1, flow_overrides=None) -> list:
    """Full reruns of the synthetic regression case at several noise levels.

    The dataset seed is shared across grid points so every level sees the
    same inputs and the same noise pattern scaled up, which isolates the
    noise effect; the optimizer stream is spawned per point.
    """
    rows = []
    children = np.random.SeedSequence(seed).spawn(len(grid))
    for level, child in zip(grid, children):
        ds = case_dataset(case_id, seed, noise=float(level))
        spec0 = case_spec(case_id)
        config = case_flow_config(case_id, child, **(flow_overrides or {}))
        result = run_pipeline(ds, spec0, config, CASE_DEFAULTS[case_id]["lv_max"], seed)
        pred = result.predictions["kf_pls"]
        y_true = result.predictions.get("y_true")
        y_noisy = result.predictions["y_test"]
        rows.append(
            (
                float(level),
                result.reports["kf_pls"],
                rmse(y_true, pred) if y_true is not None else float("nan"),
                rmse(y_noisy, pred),
            )
        )
    return rows


def sweep_flow_parameter(ds: Dataset, axis: str, grid, seed, case_id: int,
                         flow_overrides=None) -> list:
    """Rerun the pipeline varying one optimizer setting per grid point."""
    if axis not in ("learning_rate", "n_subsamples", "init_theta"):
        raise ValueError(f"unknown sweep axis {axis!r}")
    rows = []
    children = np.random.SeedSequence(seed).spawn(len(grid))
    lv_max = CASE_DEFAULTS[case_id]["lv_max"]
    for value, child in zip(grid, children):
        overrides = dict(flow_overrides or {})
        sigma0 = delta0 = 1.0
        if axis == "learning_rate":
            overrides["learning_rate"] = float(value)
        elif axis == "n_subsamples":
            overrides["n_subsamples"] = int(value)
        else:
            sigma0 = delta0 = float(value)
        spec0 = case_spec(case_id, sigma=sigma0, delta=delta0)
        config = case_flow_config(case_id, child, **overrides)
        result = run_pipeline(ds, spec0, config, lv_max, seed)
        rows.append((float(value), result))
    return rows
