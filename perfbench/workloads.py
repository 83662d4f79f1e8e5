"""The benchmark's workloads: inputs from a seed, one operation, output checks.

Each workload has ``setup(seed, tmp)`` (input generation, and for
``score_csv`` the model archive), ``warm(state)`` (a short run of the
operation before timing starts, so that the first timed one does not pay
for the allocator and caches filling: without it the first of three
peaks_combo operations took about 25% longer than the others),
``op(state)`` (the timed operation) and ``check(state, output)`` (a list
of failed checks, empty when the output is right). Operations go through
the public API and the ``kfpls`` CLI only, called through their modules
so that a traced run sees them.

Checks compare against computations made apart from the program
(``tests/oracles.py``, formulas written out here) or against properties
the method must have.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import os

import numpy as np

import oracles
from kfpls import FlowConfig, KernelSpec, cli, fit_kpls, gen_circles, gen_peaks
from kfpls import peaks_surface, pipeline, predict_kpls

# Tolerances pinned by tests/test_kpls.py for fit_kpls against the oracle.
COEF_RTOL = 1e-9
COEF_ATOL = 1e-12
ORACLE_ROWS = 24  # calibration rows in the oracle comparison (pure-Python loops)
WARM_ITERATIONS = 5


def _flow_config(n_iter, seed):
    # Paper case settings (pipeline.case_flow_config) with early stopping off,
    # so every operation runs exactly n_iter iterations.
    return FlowConfig(n_iter=n_iter, n_subsamples=8, batch_fraction=0.5,
                      sub_fraction=0.5, n_lv=3, learning_rate=0.25,
                      update_rule="vanilla", patience=10**6, seed=seed)


def _trace_failures(trace, n_iter):
    failed = []
    if trace.iterations_run != n_iter or len(trace.loss) != n_iter:
        failed.append(f"trace has {len(trace.loss)} of {n_iter} iterations")
    if not np.all(np.isfinite(trace.loss)):
        failed.append("trace has non-finite losses")
    return failed


def _oracle_failures(ds, spec, n_lv, seed):
    """fit_kpls at the learned kernel against the literal oracle, on a subset."""
    rows = np.sort(np.random.default_rng([seed, 1]).choice(
        ds.X_cal.shape[0], ORACLE_ROWS, replace=False))
    X, Y = ds.X_cal[rows], ds.Y_cal[rows]
    model = fit_kpls(X, Y, n_lv, spec)
    B_ref, _, y_means_ref = oracles.kpls_coef_literal(
        spec.families, spec.sigma, spec.gamma, spec.delta, X, Y, n_lv)
    ok = (np.allclose(model.pls.coef, B_ref, rtol=COEF_RTOL, atol=COEF_ATOL)
          and np.allclose(model.y_means, y_means_ref, rtol=1e-15, atol=0.0))
    return [] if ok else ["fit_kpls coefficients differ from kpls_coef_literal"]


def _accuracy(scores, onehot):
    return float(np.mean(np.argmax(scores, axis=1) == np.argmax(onehot, axis=1)))


def _q2(truth, pred):
    truth = np.ravel(truth)
    pred = np.ravel(pred)
    return 1.0 - float(np.sum((truth - pred) ** 2) / np.sum((truth - truth.mean()) ** 2))


class _FlowWorkload:
    """One operation is one complete `run_pipeline`."""

    def op(self, state):
        return pipeline.run_pipeline(state["ds"], state["spec0"], state["config"],
                                     self.lv_max, state["seed"])

    def warm(self, state):
        config = dataclasses.replace(state["config"], n_iter=WARM_ITERATIONS)
        pipeline.run_pipeline(state["ds"], state["spec0"], config, self.lv_max,
                              state["seed"])


class CirclesFixed500(_FlowWorkload):
    """Paper case 2: 4 rings, one-hot response, 320 calibration rows,
    Gaussian kernel, exactly 500 flow iterations.

    The data, the flow's sampling and the factor-selection holdout are
    pinned to the seed that acceptance criterion 4 uses, so the operation
    is the paper's case-2 run with early stopping off. On seed-drawn rings
    the line search sometimes keeps too few factors (test accuracy 0.9375
    at seed 802816757, 4 factors), a fault of the program that would make
    the check fail on some seeds and not others. The run's seed picks the
    rows of the oracle comparison.
    """

    n_iter = 500
    lv_max = 20
    case_seed = 2

    def setup(self, seed, tmp):
        return {
            "seed": self.case_seed,
            "oracle_seed": seed,
            "ds": gen_circles(100, 4, 0.1, self.case_seed),
            "spec0": KernelSpec.create("gaussian", sigma=1.0, delta=1.0),
            "config": _flow_config(self.n_iter, self.case_seed),
        }

    def check(self, state, result):
        ds = state["ds"]
        failed = _trace_failures(result.trace, self.n_iter)
        acc_kf = _accuracy(result.predictions["kf_pls"], ds.Y_test)
        acc_pls = _accuracy(result.predictions["pls"], ds.Y_test)
        untuned = fit_kpls(ds.X_cal, ds.Y_cal, pipeline.DEFAULT_BASELINE_LV,
                           state["spec0"])
        acc_untuned = _accuracy(predict_kpls(untuned, ds.X_test), ds.Y_test)
        # Acceptance criterion 4.
        if acc_kf != 1.0:
            failed.append(f"KF-PLS test accuracy {acc_kf} != 1.0")
        if acc_pls > 0.75:
            failed.append(f"PLS-DA test accuracy {acc_pls} > 0.75")
        if acc_untuned > 0.75:
            failed.append(f"untuned K-PLS accuracy {acc_untuned} > 0.75")
        return failed + _oracle_failures(ds, result.spec_opt, state["config"].n_lv,
                                         state["oracle_seed"])


class PeaksCombo(_FlowWorkload):
    """Peaks regression, 800 calibration rows, three-family kernel
    (7 parameters, 15 loss evaluations per iteration), 400-row minibatch."""

    n_iter = 10
    lv_max = 12

    def setup(self, seed, tmp):
        return {
            "seed": seed,
            "ds": gen_peaks(1000, 0.05, seed),
            "spec0": KernelSpec.create(("gaussian", "matern32", "cauchy"),
                                       sigma=1.0, delta=1.0),
            "config": _flow_config(self.n_iter, seed),
        }

    def check(self, state, result):
        ds = state["ds"]
        failed = _trace_failures(result.trace, self.n_iter)
        x_test = ds.X_test * ds.x_stds + ds.x_means
        q2 = _q2(peaks_surface(x_test[:, 0], x_test[:, 1]), result.predictions["kf_pls"])
        if not q2 >= 0.95:
            failed.append(f"test Q2 {q2} against the noiseless surface < 0.95")
        return failed + _oracle_failures(ds, result.spec_opt, state["config"].n_lv,
                                         state["seed"])


def _write_csv(path, header, columns):
    np.savetxt(path, np.column_stack(columns), delimiter=",", fmt="%.17g",
               header=",".join(header), comments="")


def _quiet_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class ScoreCsv:
    """Batch scoring: `kfpls predict` of a 5,000-row feature CSV with a model
    archive that `kfpls optimize` built from 1,000 peaks rows (800 training)."""

    n_train = 1000
    n_score = 5000
    n_sample = 16  # rows recomputed from the archive by the oracle
    optimize_iterations = 20

    def setup(self, seed, tmp):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-2.0, 2.0, size=(self.n_train, 2))
        y = peaks_surface(x[:, 0], x[:, 1]) + 0.05 * rng.standard_normal(self.n_train)
        train = os.path.join(tmp, "train.csv")
        _write_csv(train, ["x1", "x2", "y"], [x, y])
        model_dir = os.path.join(tmp, "model")
        rc = _quiet_cli(["optimize", train, "--response", "y", "--seed", str(seed),
                         "--iterations", str(self.optimize_iterations),
                         "--out-dir", model_dir])
        if rc != 0:
            raise RuntimeError(f"kfpls optimize exited with {rc}")
        x_score = rng.uniform(-2.0, 2.0, size=(self.n_score, 2))
        features = os.path.join(tmp, "features.csv")
        _write_csv(features, ["x1", "x2"], [x_score])
        archive = os.path.join(model_dir, "model.kfpls")
        return {
            "archive": archive,
            "archive_bytes": os.path.getsize(archive),
            "features": features,
            "out_dir": os.path.join(tmp, "scored"),
            "x_score": x_score,
            "sample": np.sort(rng.choice(self.n_score, self.n_sample, replace=False)),
        }

    def op(self, state):
        return _quiet_cli(["predict", state["archive"], state["features"],
                           "--out-dir", state["out_dir"]])

    warm = op

    def check(self, state, rc):
        if rc != 0:
            return [f"kfpls predict exited with {rc}"]
        pred = np.loadtxt(os.path.join(state["out_dir"], "predictions.csv"),
                          delimiter=",", skiprows=1, ndmin=1)
        if pred.shape != (self.n_score,):
            return [f"predictions have shape {pred.shape}"]
        failed = []
        if "expected" not in state:
            state["expected"] = self._recompute(state)
        got = pred[state["sample"]]
        if not np.allclose(got, state["expected"], rtol=1e-9, atol=1e-9):
            err = float(np.max(np.abs(got - state["expected"])))
            failed.append(f"sampled predictions differ from the oracle by {err}")
        x = state["x_score"]
        q2 = _q2(peaks_surface(x[:, 0], x[:, 1]), pred)
        if not q2 >= 0.95:
            failed.append(f"Q2 {q2} against the noiseless surface < 0.95")
        return failed

    def _recompute(self, state):
        """Predictions of the sampled rows from the archive's raw arrays.

        Kernel values come from oracles.kernel_value in pure-Python loops and
        test centering from oracles.center_test_literal; only the archived
        training rows, kernel parameters, coefficients and standardization
        are taken from the file.
        """
        with np.load(state["archive"], allow_pickle=False) as data:
            a = {key: data[key] for key in data.files}
        families = [str(f) for f in a["families"]]
        sigmas = np.exp(a["log_sigma"])
        gammas = np.exp(a["log_gamma"]) if bool(a["has_log_gamma"]) else [1.0]
        delta = math.exp(float(a["log_delta"]))
        x_train = a["x_train"]
        x = (state["x_score"][state["sample"]] - a["prep_x_means"]) / a["prep_x_stds"]
        K_train = oracles.gram_literal(families, sigmas, gammas, delta, x_train)
        K_test = np.array([[oracles.kernel_value(families, sigmas, gammas, xi, xj)
                            for xj in x_train] for xi in x])
        centered = oracles.center_test_literal(K_test, K_train)
        pred = centered @ a["pls_coef"] + a["y_means"]
        return (pred * a["prep_y_stds"] + a["prep_y_means"]).ravel()


WORKLOADS = {
    "circles_fixed500": CirclesFixed500,
    "peaks_combo": PeaksCombo,
    "score_csv": ScoreCsv,
}
