"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line per
criterion. Two clauses are known-red and documented as such: the Case-1
plain-PLS window (a linear model cannot reach it on this surface) and the
Case-1 factor-sweep peak location (the measured curve rises monotonically);
both print their measured values.

Criterion 9 needs the public concrete-strength and soil-moisture CSVs,
supplied via the KFPLS_CONCRETE_CSV / KFPLS_SOIL_CSV environment variables;
those tests skip when the files are absent.
"""

import csv
import os

import numpy as np
import pytest

from kfpls import KernelSpec, gen_peaks, loss_surface, run_kernel_flows
from kfpls.datasets import compute_stats, destandardize, standardize
from kfpls.flows import _batch_losses, _loss_gradient, _Workspace
from kfpls.kernels import FAMILY_NAMES, center_train, gram_train, kernel_matrix, train_sq_dists
from kfpls.metrics import rmse
from kfpls.pipeline import (
    CASE_DEFAULTS,
    case_dataset,
    case_flow_config,
    case_spec,
    evaluate_predictions,
    plain_pls_predictions,
    run_case,
    run_pipeline,
    sweep_n_lv,
    sweep_points,
)
from kfpls.pls import _simpls

from oracles import flow_loss_literal, least_squares_prediction, richardson_gradient


def _verdict(criterion: str, ok: bool, detail: str) -> bool:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def case1():
    return run_case(1, seed=1)


@pytest.fixture(scope="module")
def case2():
    return run_case(2, seed=2)


@pytest.fixture(scope="module")
def case2_init_runs():
    runs = {}
    for init in (0.8, 1.0, 2.0, 5.0):
        runs[init] = run_case(
            2, seed=2, sigma0=init, delta0=init,
            flow_overrides={"patience": 10**6},
        )
    return runs


class TestCriterion1Case1Regression:
    def test_kf_pls_quality_and_runtime(self, case1):
        rep = case1.reports["kf_pls"]
        ok = (
            rep.q2 >= 0.95
            and rep.nrmse_percent <= 2.5
            and case1.runtime_seconds <= 120.0
        )
        assert _verdict(
            "1 kf-pls regression",
            ok,
            f"Q2={rep.q2:.4f} (need >=0.95), NRMSE={rep.nrmse_percent:.2f}% "
            f"(need <=2.5), runtime={case1.runtime_seconds:.1f}s (need <=120)",
        )

    def test_plain_pls_baseline_window(self, case1):
        q2_baseline = case1.reports["pls"].q2
        ok = 0.75 <= q2_baseline <= 0.92
        assert _verdict(
            "1 plain-pls window",
            ok,
            f"baseline Q2={q2_baseline:.3f}, required [0.75, 0.92]; with 2 "
            "factors on 2 features the baseline is ordinary least squares, "
            "which also scores Q2=0.498 here, so the window is out of reach "
            "for any linear baseline",
        )


class TestCriterion2DenoisingProperty:
    def test_noise_sweep_shapes(self):
        rmse_true, rmse_noisy = [], []
        for _, spec, config, noise in sweep_points("noise", [0.05, 0.1, 0.15, 0.2],
                                                   case_spec(1), seed=1, case_id=1):
            result = run_pipeline(case_dataset(1, 1, noise), spec, config,
                                  CASE_DEFAULTS[1]["lv_max"], 1)
            pred = result.predictions["kf_pls"]
            rmse_true.append(rmse(result.predictions["y_true"], pred))
            rmse_noisy.append(rmse(result.predictions["y_test"], pred))
        band = max(rmse_true) - min(rmse_true)
        flat = band < 0.5 * rmse_true[0]
        monotone = all(b > a for a, b in zip(rmse_noisy, rmse_noisy[1:]))
        assert _verdict(
            "2 de-noising",
            flat and monotone,
            f"true-mapping RMSE {[f'{v:.3f}' for v in rmse_true]} varies by "
            f"{band:.4f} (< {0.5 * rmse_true[0]:.4f}); noisy-mapping RMSE "
            f"{[f'{v:.3f}' for v in rmse_noisy]} monotone={monotone}",
        )


@pytest.fixture(scope="module")
def lv_curve(case1):
    rows = sweep_n_lv(case1.dataset, case1.spec_opt, range(1, 9))
    return [(lv, rep.q2) for lv, rep in rows]


class TestCriterion3LvSweep:
    def test_margin_over_two_factor_pls(self, case1, lv_curve):
        best_q2 = max(q for _, q in lv_curve)
        pls2 = evaluate_predictions(
            case1.dataset, plain_pls_predictions(case1.dataset, 2)
        )
        ok = best_q2 >= pls2.q2 + 0.07
        assert _verdict(
            "3 margin over 2-LV PLS",
            ok,
            f"best kernel Q2={best_q2:.3f} vs 2-LV PLS Q2={pls2.q2:.3f} "
            f"(margin {best_q2 - pls2.q2:.3f}, need >=0.07)",
        )

    def test_peak_location(self, lv_curve):
        best_lv = max(lv_curve, key=lambda t: t[1])[0]
        ok = best_lv in (3, 4, 5)
        assert _verdict(
            "3 peak location",
            ok,
            f"Q2 by factor count {[(lv, round(q, 3)) for lv, q in lv_curve]}; "
            f"best at {best_lv}, required in {{3,4,5}}; the measured curve "
            "rises monotonically, with gains beyond 4 factors under 3%",
        )


class TestCriterion4CirclesClassification:
    def test_kf_pls_perfect_and_baselines_poor(self, case2):
        acc = case2.reports["kf_pls"].accuracy
        acc_pls = case2.reports["pls"].accuracy
        acc_default = case2.reports["kpls_default"].accuracy
        ok = (
            acc == 1.0
            and acc_pls <= 0.75
            and acc_default <= 0.75
            and case2.runtime_seconds <= 120.0
        )
        assert _verdict(
            "4 circles classification",
            ok,
            f"KF-PLS accuracy={acc:.3f} (need 1.0), PLS-DA={acc_pls:.3f} and "
            f"untuned K-PLS={acc_default:.3f} (both need <=0.75), "
            f"runtime={case2.runtime_seconds:.1f}s (need <=120)",
        )


class TestCriterion5InitializationRobustness:
    def test_all_inits_reach_high_accuracy(self, case2_init_runs):
        accs = {
            init: run.reports["kf_pls"].accuracy
            for init, run in case2_init_runs.items()
        }
        ok = all(a >= 0.95 for a in accs.values())
        assert _verdict(
            "5 accuracy from all inits",
            ok,
            "accuracy per initialization "
            + ", ".join(f"{k}: {v:.3f}" for k, v in accs.items())
            + " (each needs >=0.95)",
        )

    def test_converged_length_scales_agree(self, case2_init_runs):
        sigmas = np.array(
            [run.spec_opt.sigma[0] for run in case2_init_runs.values()]
        )
        spread = float((sigmas.max() - sigmas.min()) / sigmas.mean())
        ok = spread <= 0.25
        assert _verdict(
            "5 length-scale agreement",
            ok,
            f"converged sigma={np.round(sigmas, 4).tolist()}, relative spread "
            f"{spread:.4f} (need <=0.25)",
        )


class TestCriterion6SubsamplingStability:
    def test_more_subsamples_give_steadier_loss(self):
        ds = case_dataset(1, seed=1)
        spec0 = KernelSpec.create(["gaussian"], sigma=1.0, delta=1.0)
        stds = {}
        for n_s in (20, 1):
            config = case_flow_config(
                1, seed=9, n_subsamples=n_s, n_iter=250, patience=10**6
            )
            _, trace = run_kernel_flows(ds.X_cal, ds.Y_cal, config, spec0)
            stds[n_s] = float(np.std(trace.loss[-100:]))
        ok = stds[20] < stds[1]
        assert _verdict(
            "6 sub-sampling stability",
            ok,
            f"last-100-iteration loss std: n_s=20 gives {stds[20]:.5f}, "
            f"n_s=1 gives {stds[1]:.5f} (need strictly smaller)",
        )


class TestCriterion7OracleEquivalences:
    def test_simpls_full_rank_equals_least_squares(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(20, 3))
        Y = rng.normal(size=(20, 2))
        got = X @ _simpls(X[None], Y[None], 3)[3][0]
        expected = least_squares_prediction(X, Y)
        err = float(np.abs(got - expected).max() / np.abs(expected).max())
        ok = err <= 1e-8
        assert _verdict(
            "7a SIMPLS vs least squares", ok, f"max relative deviation {err:.2e}"
        )

    def test_flow_loss_matches_literal_algorithm(self):
        rng = np.random.default_rng(42)
        X_b = rng.normal(size=(16, 2))
        Y_b = (np.sin(X_b[:, 0]) + X_b[:, 1] ** 2)[:, None]
        idx = np.sort(rng.choice(16, 8, replace=False))
        spec = KernelSpec.create(["gaussian"], sigma=1.0, delta=0.01)
        ws = _Workspace().start(train_sq_dists(X_b), Y_b, idx[None])
        got = _batch_losses(ws, 2, spec, "norm_ratio")[0]
        ref = flow_loss_literal(
            ["gaussian"], [1.0], [1.0], 0.01, X_b, Y_b, X_b[idx], Y_b[idx], 2
        )
        ok = abs(got - ref) <= 1e-10
        assert _verdict(
            "7b flow loss vs literal script",
            ok,
            f"loss={got:.12f}, literal={ref:.12f}, diff={abs(got - ref):.2e}",
        )

    def test_gradient_matches_richardson_oracle(self):
        problems = [
            (0, ["gaussian"], 0.8, 0.05),
            (1, ["cauchy"], 1.2, 0.02),
            (2, ["gaussian", "matern32"], 0.6, 0.1),
        ]
        worst = 0.0
        for seed, families, sigma, delta in problems:
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(18, 2))
            Y = (np.sin(X[:, 0]) + 0.5 * X[:, 1] ** 2)[:, None]
            spec = KernelSpec.create(families, sigma=sigma, delta=delta)
            subs = np.array([np.sort(rng.choice(18, 9, replace=False)) for _ in range(4)])
            d2 = train_sq_dists(X)
            grad = _loss_gradient(_Workspace().start(d2, Y, subs), 2, spec,
                                  "norm_ratio")[1]

            def f(vec, d2=d2, Y=Y, subs=subs, spec=spec):
                ws = _Workspace().start(d2, Y, subs)
                return _batch_losses(ws, 2, spec.replace_theta(vec), "norm_ratio")[0]

            oracle = richardson_gradient(f, spec.theta())
            rel = np.abs(grad - oracle) / np.maximum(np.abs(oracle), 1e-12)
            worst = max(worst, float(rel.max()))
        ok = worst <= 1e-3
        assert _verdict(
            "7c gradient vs Richardson oracle",
            ok,
            f"worst per-coordinate relative deviation {worst:.2e} over 3 problems",
        )


class TestCriterion8InvariantSuites:
    def test_kernel_psd(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(20, 3))
        worst = np.inf
        for family in FAMILY_NAMES:
            spec = KernelSpec.create([family])
            K = kernel_matrix(spec, train_sq_dists(X))
            worst = min(worst, float(np.linalg.eigvalsh(K).min()))
        additive = KernelSpec.create(
            list(FAMILY_NAMES), sigma=rng.uniform(0.5, 2.0, 5),
            gamma=rng.uniform(0.1, 1.0, 5),
        )
        K = kernel_matrix(additive, train_sq_dists(X))
        worst = min(worst, float(np.linalg.eigvalsh(K).min()))
        ok = worst >= -1e-10
        assert _verdict(
            "8 kernel PSD", ok, f"smallest eigenvalue {worst:.2e} (need >= -1e-10)"
        )

    def test_centering_invariants(self):
        rng = np.random.default_rng(8)
        K = gram_train(KernelSpec.create(["gaussian"]), rng.normal(size=(12, 3)))
        once, _ = center_train(K)
        twice, _ = center_train(once)
        idem = float(np.abs(twice - once).max())
        row_sums = float(np.abs(once.sum(axis=1)).max())
        bound = 1e-10 * float(np.linalg.norm(K))
        ok = idem <= 1e-12 and row_sums <= bound
        assert _verdict(
            "8 centering",
            ok,
            f"idempotence deviation {idem:.2e} (<=1e-12), row sums {row_sums:.2e} "
            f"(<= {bound:.2e})",
        )

    def test_standardize_round_trip(self):
        rng = np.random.default_rng(9)
        M = rng.normal(size=(40, 5)) * 3 + 1
        means, stds = compute_stats(M)
        err = float(np.abs(destandardize(standardize(M, means, stds), means, stds) - M).max())
        ok = err < 1e-12
        assert _verdict("8 standardize round trip", ok, f"max deviation {err:.2e}")

    def test_trace_determinism(self):
        ds = gen_peaks(80, 0.05, seed=4)
        spec0 = KernelSpec.create(["gaussian"], sigma=1.0, delta=1.0)
        config = case_flow_config(1, seed=5, n_iter=15, n_subsamples=4)
        traces = [
            run_kernel_flows(ds.X_cal, ds.Y_cal, config, spec0)[1] for _ in range(2)
        ]
        ok = (
            np.array_equal(traces[0].theta, traces[1].theta)
            and np.array_equal(traces[0].loss, traces[1].loss)
            and np.array_equal(traces[0].gradients, traces[1].gradients)
        )
        assert _verdict("8 determinism", ok, "two equal-seed traces are bitwise equal")


def _external_case(case_id, env_var, q2_floor):
    path = os.environ.get(env_var)
    if not path or not os.path.exists(path):
        pytest.skip(f"{env_var} not set; external dataset not supplied")
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
    response = os.environ.get(env_var + "_RESPONSE", header[-1].strip())
    result = run_case(case_id, seed=0, csv_path=path, response=response)
    q2_test = result.reports["kf_pls"].q2
    ok = q2_test >= q2_floor
    assert _verdict(
        f"9 case {case_id} external data",
        ok,
        f"Q2={q2_test:.3f} (need >={q2_floor})",
    )


class TestCriterion9ExternalDatasets:
    def test_concrete_strength(self):
        _external_case(3, "KFPLS_CONCRETE_CSV", 0.93)

    def test_soil_moisture(self):
        _external_case(4, "KFPLS_SOIL_CSV", 0.95)


class TestLossSurfaceConsistency:
    def test_surface_minimum_matches_converged_kernel(self, case2):
        ds = case2.dataset
        sigmas = np.exp(np.linspace(np.log(0.1), np.log(2.0), 7))
        deltas = np.exp(np.linspace(np.log(1e-3), np.log(1.0), 4))
        specs = [
            KernelSpec.create(["gaussian"], sigma=s, delta=d)
            for s in sigmas for d in deltas
        ]
        config = case_flow_config(2, seed=2, n_subsamples=20, n_iter=5)
        rows = loss_surface(ds.X_cal, ds.Y_cal, specs, config)
        means = np.array([m for _, m, _ in rows]).reshape(len(sigmas), len(deltas))
        i_best = int(np.argmin(means.min(axis=1)))
        sigma_star = case2.spec_opt.sigma[0]
        step = np.log(sigmas[1]) - np.log(sigmas[0])
        distance = abs(np.log(sigmas[i_best]) - np.log(sigma_star))
        assert len(rows) == len(specs)
        assert distance <= step + 1e-9, (
            f"surface minimum at sigma={sigmas[i_best]:.3f} but the flow "
            f"converged to {sigma_star:.3f}"
        )
