"""End-to-end case workflows: optimize, select factors, fit, evaluate.

The full recipe is: build (or load) a dataset, learn kernel parameters on
the calibration partition, pick the latent-variable count by a line
search on a held-out fifth of the calibration data, refit on the whole
calibration partition, and score the untouched test partition. Two
reference models are evaluated alongside: plain linear PLS (`pls._simpls`
on the standardized predictors, with no model type of its own), and
kernel PLS with untuned unit parameters. A one-axis sweep reruns that
recipe once per grid point, from the runs `sweep_points` builds before
any of them starts. The factor-count axis runs only the flow and then
`sweep_n_lv` on the learned kernel: it needs no factor search, final fit
or reference model.

After the flow, `run_pipeline` builds the learned kernel's ridge Gram of
the calibration rows once: one distance product
(`kernels.pairwise_sq_dists`), then the Gram in cache-sized row blocks
(`kernels.gram_from_dists`), after which the distances are dropped. The
holdout factor search (`line_search_n_lv`) fits on that Gram's block on
the fit rows and predicts the held-out rows from its block on held-out
and fit rows, which lies off the diagonal and so holds no ridge; the
final fit then takes the whole Gram, centered in place. The untuned
reference's Gram is built the same way once the learned one is dropped,
so at most one Gram and one block of it are held through the factor
search and the fits. The run records the wall time of each stage
(`STAGES`).

Each factor search (`line_search_n_lv`, `plain_pls_lv`, `sweep_n_lv`)
makes one SIMPLS fit at its largest count (`kpls.fit_gram`, or
`pls._simpls` for the linear one) and takes every smaller count from the
factors' prefixes (`pls.coef_path`). The two kernel searches map every
count at once with `_count_maps`, `kpls.affine_coef` of the whole stack of
coefficients: the line search applies the maps to its held-out block,
and the sweep to the test rows through `kpls._affine_predict`. Both line
searches score the counts with `_score_counts`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .datasets import Dataset, check_noise, gen_circles, gen_peaks, labels, load_csv
from .exceptions import DegenerateProblemError
from .flows import FlowConfig, FlowTrace, run_kernel_flows
from .kernels import KernelSpec, gram_from_dists, gram_train, pairwise_sq_dists
from .kpls import (KplsModel, _affine_predict, affine_coef, fit_gram, model_from_gram,
                   predict_kpls)
from .metrics import EvalReport, accuracy, nrmse, q2, rmse
from .pls import _simpls, coef_path

# Factor count for the untuned reference model.
DEFAULT_BASELINE_LV = 3

# The stages of a run whose wall times `run_pipeline` records: the kernel
# flow; the calibration Gram and the factor search on it; the final fit and
# its test predictions; the untuned kernel and linear references.
STAGES = ("flow", "factor_search", "final_fit", "baselines")

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
    stage_seconds: dict = field(default_factory=dict)
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
        acc = accuracy(ds.labels_test, labels(pred))

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


def _holdout_size(n: int) -> int:
    """Rows of ``n`` calibration rows held out for factor selection: a fifth."""
    return max(1, n // 5)


def _holdout_split(n: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Fit and held-out rows of a seeded `_holdout_size` split of ``n`` rows."""
    perm = np.random.default_rng(seed).permutation(n)
    n_val = _holdout_size(n)
    return np.sort(perm[n_val:]), np.sort(perm[:n_val])


def check_lv_max(ds: Dataset, lv_max: int) -> None:
    """Reject (``ValueError``) a factor-search bound outside 1 and the number
    of calibration rows the line search fits on."""
    n_fit = ds.X_cal.shape[0] - _holdout_size(ds.X_cal.shape[0])
    if not 1 <= lv_max <= n_fit:
        raise ValueError(f"lv_max must be between 1 and {n_fit}, the rows the "
                         f"factor line search fits on; got {lv_max}")


def _score_counts(preds: np.ndarray, Y_val: np.ndarray, task: str) -> tuple:
    """Held-out score of each factor count ``a``, predicting ``preds[a-1]``.

    The highest accuracy or the lowest RMSE wins, ties going to the smaller
    count. Returns the winning count and the (n_lv, score) table.
    """
    if task == "classification":
        truth = labels(Y_val)
        scores = [float(accuracy(truth, labels(p))) for p in preds]
        loss = [-s for s in scores]
    else:
        scores = loss = [float(rmse(Y_val, p)) for p in preds]
    return int(np.argmin(loss)) + 1, list(enumerate(scores, start=1))


def _count_maps(K: np.ndarray, X_fit, Y_fit, lv_max: int) -> tuple:
    """`kpls.affine_coef` maps (a, n, m) and (a, 1, m) of the kernel-PLS fits
    of the ridge Gram ``K`` of the rows ``X_fit`` on ``Y_fit`` at counts 1..a,
    from one fit at ``lv_max`` (`kpls.fit_gram`, which centers ``K`` in
    place). ``a`` is ``lv_max`` unless `pls.coef_path` ended early, where a
    refit at count ``a + 1`` would raise. Errors: as `fit_kpls`.
    """
    (W, P, Q, _), col_means, y_means = fit_gram(K, X_fit, Y_fit, lv_max)
    return affine_coef(coef_path(W, P, Q, lv_max), col_means, y_means)


def line_search_n_lv(K: np.ndarray, X, Y, task: str, lv_max: int, seed) -> tuple:
    """Pick the factor count by fitting on 4/5 and scoring the held-out 1/5.

    ``K`` is the ridge Gram of the rows ``X``, made by the caller and only
    read: the fit Gram is its block on the fit rows, ridge and all, and the
    held-out cross kernel its block on held-out and fit rows, which holds
    no diagonal entry and so no ridge. One fit at ``lv_max`` gives every
    count's coefficients (`_count_maps`). Classification picks the highest
    held-out accuracy, regression the lowest held-out RMSE; ties go to the
    smaller count. Returns the chosen count and the (n_lv, score) table.
    """
    fit_idx, val_idx = _holdout_split(X.shape[0], seed)
    # Each block is gathered one axis at a time, which is cheaper than np.ix_.
    K_fit = K.take(fit_idx, axis=0).take(fit_idx, axis=1)
    C, b = _count_maps(K_fit, X[fit_idx], Y[fit_idx], lv_max)
    preds = K.take(val_idx, axis=0).take(fit_idx, axis=1) @ C + b
    return _score_counts(preds, Y[val_idx], task)


def plain_pls_predictions(ds: Dataset, n_lv: int) -> np.ndarray:
    """Linear PLS reference predictions (standardized space).

    Responses are column-centered around the calibration means and the
    means are added back, so one-hot classification responses keep their
    intercept.
    """
    y_means = ds.Y_cal.mean(axis=0)
    coef = _simpls(ds.X_cal[None], (ds.Y_cal - y_means)[None], n_lv)[3][0]
    return ds.X_test @ coef + y_means


def plain_pls_lv(ds: Dataset, lv_max: int, seed) -> int:
    """Factor count for the linear reference, line-searched the same way."""
    fit_idx, val_idx = _holdout_split(ds.X_cal.shape[0], seed)
    y_means = ds.Y_cal[fit_idx].mean(axis=0)
    lv_max = min(ds.X_cal.shape[1], lv_max)
    try:
        W, P, Q, *_ = _simpls(ds.X_cal[fit_idx][None],
                              (ds.Y_cal[fit_idx] - y_means)[None], lv_max)
    except DegenerateProblemError:
        return 1
    preds = ds.X_cal[val_idx] @ coef_path(W[0], P[0], Q[0], lv_max) + y_means
    return _score_counts(preds, ds.Y_cal[val_idx], ds.task)[0]


def run_pipeline(
    ds: Dataset,
    spec0: KernelSpec,
    config: FlowConfig,
    lv_max: int,
    seed,
) -> PipelineResult:
    """Optimize the kernel, select factors, fit, and evaluate baselines.

    After the flow, the learned kernel's Gram of the calibration rows gives
    the factor search its blocks and is then the final fit's Gram; the
    untuned kernel's Gram is built after it is dropped. Each Gram is built
    from its own distance product, dropped once the Gram is made, so no
    distance matrix is held through the factor search.
    """
    marks = [time.perf_counter()]
    check_lv_max(ds, lv_max)
    spec_opt, trace = run_kernel_flows(ds.X_cal, ds.Y_cal, config, spec0)
    marks.append(time.perf_counter())

    K = gram_from_dists(spec_opt, pairwise_sq_dists(ds.X_cal, ds.X_cal))
    n_lv, lv_table = line_search_n_lv(K, ds.X_cal, ds.Y_cal, ds.task, lv_max, seed)
    marks.append(time.perf_counter())

    model = model_from_gram(spec_opt, K, ds.X_cal, ds.Y_cal, n_lv)
    del K
    pred_kf = predict_kpls(model, ds.X_test)
    marks.append(time.perf_counter())

    default_spec = KernelSpec.create(spec0.families, sigma=1.0, delta=1.0)
    baseline_lv = min(DEFAULT_BASELINE_LV, ds.X_cal.shape[0] - 1)
    K = gram_from_dists(default_spec, pairwise_sq_dists(ds.X_cal, ds.X_cal))
    kpls_default = model_from_gram(default_spec, K, ds.X_cal, ds.Y_cal, baseline_lv)
    del K
    pred_default = predict_kpls(kpls_default, ds.X_test)

    pls_lv = plain_pls_lv(ds, lv_max, seed)
    pred_pls = plain_pls_predictions(ds, pls_lv)
    marks.append(time.perf_counter())

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
        runtime_seconds=time.perf_counter() - marks[0],
        stage_seconds=dict(zip(STAGES, np.diff(marks).tolist())),
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
    """Flow settings for a case, with keyword overrides: the `FlowConfig`
    defaults except the case's iteration count and 8 sub-batches."""
    base = dict(n_iter=CASE_DEFAULTS[case_id]["n_iter"], n_subsamples=8, seed=seed)
    return FlowConfig(**{**base, **overrides})


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
    """Test-partition metrics by factor count, all from one fit at the largest
    on the calibration Gram of ``spec`` (`_count_maps`), whose maps predict
    the test rows in row blocks (`kpls._affine_predict`)."""
    grid = [int(lv) for lv in grid]
    if min(grid) < 1:
        raise ValueError(f"n_lv must be >= 1, got {min(grid)}")
    C, b = _count_maps(gram_train(spec, ds.X_cal), ds.X_cal, ds.Y_cal, max(grid))
    if len(C) < max(grid):
        raise DegenerateProblemError("loadings-weights system is too ill-conditioned")
    preds = _affine_predict(spec, ds.X_cal, C, b, ds.X_test)
    return [(lv, evaluate_predictions(ds, preds[lv - 1])) for lv in grid]


def sweep_points(axis: str, grid, spec0: KernelSpec, seed, case_id: int,
                 flow_overrides=None) -> list:
    """The `run_pipeline` inputs of each grid point of a one-axis sweep.

    Returns ``(value, initial kernel, flow settings, noise level)`` per
    point: ``spec0`` and the case's flow settings with ``flow_overrides``,
    and one thing varied. ``learning_rate`` and ``n_subsamples`` set that
    flow setting; ``init_theta`` sets the length-scale and ridge of
    ``spec0``'s families; ``noise`` sets the noise of the case's dataset
    (``None`` elsewhere: the case default), whose seed stays ``seed`` so
    every level sees the same inputs and noise pattern. Each point's flow
    seed is spawned from ``seed``. Raises ``ValueError`` for an unknown axis
    or a point no run can use, before any point runs.
    """
    if axis not in ("noise", "learning_rate", "n_subsamples", "init_theta"):
        raise ValueError(f"unknown sweep axis {axis!r}")
    grid = [float(v) for v in grid]
    if axis == "n_subsamples" and not all(v.is_integer() for v in grid):
        raise ValueError("the n_subsamples grid takes whole numbers only")
    points = []
    children = np.random.SeedSequence(seed).spawn(len(grid))
    for value, child in zip(grid, children):
        overrides = dict(flow_overrides or {})
        spec, noise = spec0, None
        if axis == "noise":
            check_noise(value)
            noise = value
        elif axis == "init_theta":
            spec = KernelSpec.create(spec0.families, sigma=value, delta=value)
        else:
            overrides[axis] = int(value) if axis == "n_subsamples" else value
        points.append((value, spec, case_flow_config(case_id, child, **overrides), noise))
    return points
