import math

import numpy as np
import pytest

from kfpls import (
    DegenerateProblemError,
    FlowAbortError,
    FlowConfig,
    KernelSpec,
    gen_circles,
    gen_peaks,
    loss_surface,
    run_kernel_flows,
    update_theta,
)
from kfpls.flows import (
    _batch_losses,
    _fd_gradient,
    _sample_indices,
    _stratified_choice,
    _Workspace,
)
from kfpls.kernels import center_train, kernel_matrix, train_sq_dists
from kfpls.pls import fit_pls

from oracles import (
    center_test_literal,
    cv_loss_literal,
    flow_loss_literal,
    richardson_gradient,
)


def gauss(sigma=1.0, delta=0.01):
    return KernelSpec.create(["gaussian"], sigma=sigma, delta=delta)


def make_batch(seed, n=16, p=2):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] ** 2 + 0.05 * rng.normal(size=n)
    return X, y[:, None]


def norm_ratio(X, Y, subs, n_lv, spec):
    """The flow engine's norm-ratio loss on the minibatch ``X``, ``Y``."""
    return _batch_losses(train_sq_dists(X), Y, subs, n_lv, spec, "norm_ratio")[0]


def norm_ratio_gradient(X, Y, subs, spec, step=1e-4):
    """The flow's gradient of the norm-ratio loss at ``spec``, two factors."""
    ws = _Workspace().start(train_sq_dists(X))
    return _fd_gradient(ws, Y, subs, 2, spec, spec.theta(), step, "norm_ratio")


class TestKfLoss:
    def test_zero_when_subbatch_is_minibatch(self):
        X, Y = make_batch(0)
        assert norm_ratio(X, Y, [np.arange(16)], 2, gauss()) == 0.0

    def test_always_below_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            X, Y = make_batch(rng.integers(1 << 31), n=20)
            idx = np.sort(rng.choice(20, 10, replace=False))
            spec = gauss(sigma=float(rng.uniform(0.2, 3.0)), delta=float(rng.uniform(1e-3, 1.0)))
            assert norm_ratio(X, Y, [idx], 3, spec) < 1.0

    def test_constant_responses_degenerate(self):
        X, _ = make_batch(4)
        Y = np.ones((16, 1))
        with pytest.raises(DegenerateProblemError):
            norm_ratio(X, Y, [np.arange(8)], 2, gauss())


class TestLossEngineOracle:
    @pytest.mark.parametrize("response", ["single", "one_hot_3", "one_hot_4"])
    def test_both_objectives_match_literal_fits(self, response):
        import kfpls.flows as flows

        rng = np.random.default_rng(13)
        X = rng.normal(size=(18, 2))
        if response == "single":
            Y = (np.sin(X[:, 0]) + 0.5 * X[:, 1] ** 2)[:, None]
        else:
            k = int(response[-1])
            Y = np.eye(k)[np.arange(18) % k]
        families, sigmas, gammas = ["gaussian", "matern32"], [0.8, 1.3], [0.6, 0.4]
        delta = 0.05
        spec = KernelSpec.create(families, sigma=sigmas, gamma=gammas, delta=delta)
        subs = [np.sort(rng.choice(18, 9, replace=False)) for _ in range(3)]
        d2 = train_sq_dists(X)

        _, rhos = flows._batch_losses(d2, Y, subs, 2, spec, "cv")
        for idx, got in zip(subs, rhos):
            ref = cv_loss_literal(families, sigmas, gammas, delta, X, Y, idx, 2)
            assert got == pytest.approx(ref, abs=1e-10)

        _, rhos = flows._batch_losses(d2, Y, subs, 2, spec, "norm_ratio")
        for idx, got in zip(subs, rhos):
            ref = flow_loss_literal(
                families, sigmas, gammas, delta, X, Y, X[idx], Y[idx], 2
            )
            assert got == pytest.approx(ref, abs=1e-10)

    @pytest.mark.parametrize("case", ["peaks", "circles"])
    def test_cv_matches_literal_fits_on_flat_kernel(self, case):
        # A wide kernel with a small ridge: the Gram is nearly constant and the
        # coefficients are large, so the cross-kernel centering must not be
        # dropped or reordered into a cancellation.
        import kfpls.flows as flows

        ds = gen_peaks(60, 0.05, seed=5) if case == "peaks" else gen_circles(6, 4, 0.1, 5)
        X, Y = ds.X_cal[:18], ds.Y_cal[:18]
        spec = gauss(sigma=12.0, delta=1e-3)
        rng = np.random.default_rng(14)
        subs = [np.sort(rng.choice(18, 9, replace=False)) for _ in range(3)]

        _, rhos = flows._batch_losses(train_sq_dists(X), Y, subs, 2, spec, "cv")
        for idx, got in zip(subs, rhos):
            ref = cv_loss_literal(["gaussian"], [12.0], [1.0], 1e-3, X, Y, idx, 2)
            assert got == pytest.approx(ref, abs=1e-10)


def per_fit_losses(d2, Y, subsets, n_lv, spec, objective):
    """Per-subset losses with one `fit_pls` per index set: the loss engine
    written out fit by fit, cross kernels centered by `center_test_literal`."""
    K = kernel_matrix(spec, d2)

    def fit(idx):
        K_train = K[np.ix_(idx, idx)] + spec.delta * np.eye(idx.size)
        K_c, _ = center_train(K_train)
        y_means = Y[idx].mean(axis=0)
        return fit_pls(K_c, Y[idx] - y_means, n_lv).coef, K_train, y_means, K_c

    if objective == "norm_ratio":
        B, _, _, K_c = fit(np.arange(Y.shape[0]))
        norm_b = np.sum(B * (K_c @ B))
    out = []
    for idx in subsets:
        B, K_train, y_means, K_c = fit(idx)
        if objective == "norm_ratio":
            out.append(1.0 - np.sum(B * (K_c @ B)) / norm_b)
        else:
            pred = center_test_literal(K[:, idx], K_train) @ B + y_means
            out.append(np.sum((Y - pred) ** 2) / np.sum((Y - Y.mean(axis=0)) ** 2))
    return np.array(out)


class TestStackedLossEngine:
    """`_batch_losses` fits each size group of index sets as one stack."""

    BATCH48 = dict(rows=(120, 40), batch=48, n_lv=3, sigmas=(0.1, 1.0, 12.0),
                   delta=0.003, atol=1e-12)
    # A flat kernel with a small ridge: without the `K_mean` column shift in
    # `_cv_sse` the cv losses move by 2e-13 (peaks) to 1.4e-12 (circles).
    FLAT300 = dict(rows=(400, 100), batch=300, n_lv=12, sigmas=(12.0,), delta=1e-3,
                   atol=5e-14)

    @pytest.mark.parametrize("objective", ["cv", "norm_ratio"])
    @pytest.mark.parametrize("case, size", [
        pytest.param("peaks", BATCH48, id="peaks"),
        pytest.param("circles", BATCH48, id="circles"),
        pytest.param("peaks", FLAT300, id="peaks-flat300"),
        pytest.param("circles", FLAT300, id="circles-flat300"),
    ])
    def test_matches_per_fit_engine(self, case, objective, size):
        n_peaks, n_per_class = size["rows"]
        ds = (gen_peaks(n_peaks, 0.05, seed=8) if case == "peaks"
              else gen_circles(n_per_class, 4, 0.1, 8))
        n_batch, n_lv = size["batch"], size["n_lv"]
        rng = np.random.default_rng(31)
        for sigma in size["sigmas"]:
            batch = np.sort(rng.choice(ds.X_cal.shape[0], n_batch, replace=False))
            subs = [np.sort(rng.choice(n_batch, n_batch // 2, replace=False))
                    for _ in range(5)]
            d2, Y = train_sq_dists(ds.X_cal[batch]), ds.Y_cal[batch]
            spec = gauss(sigma=sigma, delta=size["delta"])
            _, rhos = _batch_losses(d2, Y, subs, n_lv, spec, objective)
            ref = per_fit_losses(d2, Y, subs, n_lv, spec, objective)
            np.testing.assert_allclose(rhos, ref, rtol=0, atol=size["atol"])

    @pytest.mark.parametrize("objective", ["cv", "norm_ratio"])
    @pytest.mark.parametrize("response", ["single", "one_hot_4"])
    def test_member_exhausting_its_rank_keeps_its_factor_count(self, response, objective):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(20, 2))
        X[1:4] = X[0]
        X[5:8] = X[4]  # rows 0-7 hold two distinct points
        if response == "single":
            Y = (np.sin(X[:, 0]) + X[:, 1] ** 2)[:, None]
        else:
            Y = np.eye(4)[np.r_[[0] * 4, [1] * 4, np.arange(12) % 4]]
        subs = [np.arange(8), np.arange(8, 16), np.arange(10, 18)]
        spec = gauss(sigma=0.9, delta=0.05)
        d2 = train_sq_dists(X)

        K = kernel_matrix(spec, d2)
        counts = []
        for idx in subs:
            K_c, _ = center_train(K[np.ix_(idx, idx)] + spec.delta * np.eye(8))
            counts.append(fit_pls(K_c, Y[idx] - Y[idx].mean(axis=0), 3).n_lv)
        assert counts == [1, 3, 3]

        _, rhos = _batch_losses(d2, Y, subs, 3, spec, objective)
        ref = per_fit_losses(d2, Y, subs, 3, spec, objective)
        np.testing.assert_allclose(rhos, ref, rtol=0, atol=1e-12)

    def test_ragged_index_sets(self):
        X, Y = make_batch(12, n=20)
        spec = gauss(sigma=0.8, delta=0.02)
        subs = [np.arange(8), np.arange(6, 12), np.arange(10, 18), np.arange(2, 12)]
        d2 = train_sq_dists(X)
        _, rhos = _batch_losses(d2, Y, subs, 2, spec, "norm_ratio")
        np.testing.assert_allclose(
            rhos, per_fit_losses(d2, Y, subs, 2, spec, "norm_ratio"), rtol=0, atol=1e-12
        )

        step = 1e-4
        theta = spec.theta()
        ref = np.empty_like(theta)
        for i in range(theta.size):
            f = []
            for sign in (1.0, -1.0):
                probe = theta.copy()
                probe[i] += sign * step
                f.append(np.mean(per_fit_losses(
                    d2, Y, subs, 2, spec.replace_theta(probe), "norm_ratio"
                )))
            ref[i] = (f[0] - f[1]) / (2.0 * step)
        grad = _fd_gradient(_Workspace().start(d2), Y, subs, 2, spec, theta, step,
                            "norm_ratio")
        np.testing.assert_allclose(grad, ref, rtol=0, atol=1e-8)


COMBO = ("gaussian", "matern32", "cauchy")


def combo_spec():
    return KernelSpec.create(COMBO, sigma=[0.8, 1.3, 0.6], gamma=[0.5, 0.3, 0.2],
                             delta=0.05)


def probes(spec, step=1e-4):
    """Specs at a ``log σ``, a ``log γ`` and the ``log δ`` probe of ``spec``."""
    theta = spec.theta()
    k = len(spec.families)
    for i, name in ((1, "sigma"), (k + 2, "gamma"), (theta.size - 1, "delta")):
        vec = theta.copy()
        vec[i] += step
        yield name, spec.replace_theta(vec)


class TestWorkspace:
    """All loss evaluations of one draw share one `_Workspace`; each must give
    the bytes a fresh evaluation gives."""

    def _batch(self, seed=3, n=40):
        ds = gen_peaks(n + 10, 0.05, seed)
        X, Y = ds.X_cal[:n], ds.Y_cal[:n]
        rng = np.random.default_rng(seed)
        subs = [np.sort(rng.choice(n, n // 2, replace=False)) for _ in range(4)]
        return train_sq_dists(X), Y, subs

    def test_gram_at_each_probe_is_kernel_matrix_bitwise(self):
        d2, _, _ = self._batch()
        spec = combo_spec()
        ws = _Workspace().start(d2)
        ws.hold(spec)
        for _, probe in [("centre", spec), *probes(spec)]:
            assert ws.gram(probe).tobytes() == kernel_matrix(probe, d2).tobytes()

    @pytest.mark.parametrize("objective", ["cv", "norm_ratio"])
    def test_shared_workspace_losses_bytewise(self, objective):
        d2, Y, subs = self._batch()
        spec = combo_spec()
        ws = _Workspace().start(d2)
        ws.hold(spec)
        for name, probe in [("centre", spec), *probes(spec)]:
            shared = _batch_losses(ws, Y, subs, 3, probe, objective)
            fresh = _batch_losses(d2, Y, subs, 3, probe, objective)
            assert shared == fresh, name

    def test_other_index_sets_on_one_workspace(self):
        d2, Y, subs = self._batch()
        spec = combo_spec()
        ws = _Workspace().start(d2)
        for sets in (subs, subs[::-1], [s[::-1].copy() for s in subs]):
            assert (_batch_losses(ws, Y, sets, 3, spec, "cv")
                    == _batch_losses(d2, Y, sets, 3, spec, "cv"))

    def test_holds_the_centre_terms_only(self):
        d2, Y, subs = self._batch()
        spec = combo_spec()
        ws = _Workspace().start(d2)
        _fd_gradient(ws, Y, subs, 3, spec, spec.theta(), 1e-4, "cv")
        assert sorted(ws._terms) == sorted(
            zip(spec.families, spec.log_sigma.tolist())
        )

    @pytest.mark.parametrize("families, per_iter", [(COMBO, 9), (("gaussian",), 3)])
    def test_family_evaluations_per_vanilla_iteration(self, families, per_iter,
                                                      monkeypatch):
        # Central differences make 2·dim + 1 loss evaluations per iteration:
        # 15 × 3 families on the combo kernel and 5 for one Gaussian when each
        # evaluation computes every family. Sharing the centre's terms leaves
        # the centre's families plus one family per length-scale probe.
        import kfpls.flows as flows

        counted = []

        def counting(spec, d2, d=None):
            counted.append(len(spec.families))
            return kernel_matrix(spec, d2, d)

        monkeypatch.setattr(flows, "kernel_matrix", counting)
        ds = gen_peaks(120, 0.05, 4)
        config = FlowConfig(n_iter=3, n_subsamples=4, n_lv=3, update_rule="vanilla",
                            patience=10**6, seed=4)
        spec0 = KernelSpec.create(families, sigma=1.0, delta=1.0)
        _, trace = run_kernel_flows(ds.X_cal, ds.Y_cal, config, spec0)
        assert trace.iterations_run == 3 and trace.n_skipped == 0
        assert sum(counted) == 3 * per_iter


class TestKfGradient:
    def test_negligible_family_has_flat_coordinate(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, 2))
        Y = (X[:, 0] ** 2)[:, None]
        spec = KernelSpec.create(
            ["gaussian", "cauchy"], sigma=[1.0, 1.0], gamma=[1.0, 1e-12], delta=0.01
        )
        subs = [np.arange(10), np.arange(5, 15)]
        grad = norm_ratio_gradient(X, Y, subs, spec)
        names = spec.param_names()
        flat = grad[names.index("log_sigma_cauchy")]
        assert abs(flat) < 1e-6

    def test_exact_on_injected_quadratic(self, monkeypatch):
        # Central differences are exact on quadratics up to round-off; swap the
        # loss engine for a known quadratic to verify the probe machinery.
        import kfpls.flows as flows

        A = np.array([[2.0, 0.3], [0.3, 1.0]])
        b = np.array([-0.5, 1.25])

        def fake_losses(d2, Y, subsets, n_lv, spec, objective):
            theta = spec.theta()
            value = 0.5 * theta @ A @ theta + b @ theta
            return value, [value]

        monkeypatch.setattr(flows, "_batch_losses", fake_losses)
        X, Y = make_batch(6)
        spec = gauss(sigma=0.7, delta=0.2)
        theta = spec.theta()
        grad = norm_ratio_gradient(X, Y, [np.arange(8)], spec)
        np.testing.assert_allclose(grad, A @ theta + b, atol=1e-8)

    def test_matches_richardson_oracle_on_1d_problem(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(18, 1))
        Y = np.cos(1.5 * X[:, 0])[:, None]
        spec = gauss(sigma=0.8, delta=0.05)
        subs = [np.sort(rng.choice(18, 9, replace=False)) for _ in range(4)]
        grad = norm_ratio_gradient(X, Y, subs, spec)

        d2 = train_sq_dists(X)

        def f(vec):
            return _batch_losses(d2, Y, subs, 2, spec.replace_theta(vec), "norm_ratio")[0]

        oracle = richardson_gradient(f, spec.theta())
        np.testing.assert_allclose(grad, oracle, rtol=1e-4)

    def test_probes_reuse_identical_subsample_sets(self, monkeypatch):
        import kfpls.flows as flows

        seen = []
        real = flows._batch_losses

        def recording(batch, Y, subsets, n_lv, spec, objective):
            seen.append([idx.copy() for idx in subsets])
            return real(batch, Y, subsets, n_lv, spec, objective)

        monkeypatch.setattr(flows, "_batch_losses", recording)
        X, Y = make_batch(8)
        spec = gauss()
        subs = [np.arange(8), np.arange(4, 12)]
        norm_ratio_gradient(X, Y, subs, spec)
        assert len(seen) == 2 * spec.theta().size
        for s in seen:
            assert len(s) == len(subs)
            for got, expected in zip(s, subs):
                np.testing.assert_array_equal(got, expected)


class TestUpdateTheta:
    def test_hand_computed_vanilla_step(self):
        new = update_theta(
            np.array([1.0, 2.0]), np.array([1.0, 2.0]), np.array([0.1, -0.2]),
            "vanilla", 0.5,
        )
        np.testing.assert_allclose(new, [0.95, 2.1])

    def test_polyak_without_momentum_equals_vanilla(self):
        theta = np.array([0.3, -1.0])
        prev = np.array([0.1, -0.6])
        grad = np.array([1.0, 0.5])
        a = update_theta(theta, prev, grad, "vanilla", 0.2)
        b = update_theta(theta, prev, grad, "polyak", 0.2, momentum=0.0)
        np.testing.assert_array_equal(a, b)

    def test_zero_gradient_zero_momentum_is_fixed_point(self):
        theta = np.array([0.5, 0.5])
        new = update_theta(theta, theta, np.zeros(2), "polyak", 0.7, momentum=0.0)
        np.testing.assert_array_equal(new, theta)

    def test_polyak_adds_previous_displacement(self):
        theta = np.array([1.0])
        prev = np.array([0.0])
        new = update_theta(theta, prev, np.array([0.0]), "polyak", 0.1, momentum=0.9)
        np.testing.assert_allclose(new, [1.9])

    def test_nesterov_steps_from_lookahead(self):
        new = update_theta(np.array([1.0]), np.array([0.5]), np.array([2.0]),
                           "nesterov", 0.2, momentum=0.5)
        np.testing.assert_allclose(new, [1.25 - 0.2 * 2.0])  # lookahead 1 + 0.5 * 0.5

    def test_nesterov_evaluates_gradient_at_lookahead(self, small_regression, monkeypatch):
        points, trace = gradient_points(small_regression, monkeypatch, "nesterov")
        assert len(points) == trace.iterations_run == len(trace.theta)
        prev = trace.theta[0]
        for k, theta in enumerate(trace.theta):
            np.testing.assert_array_equal(points[k], theta + 0.5 * (theta - prev))
            if k + 1 < len(trace.theta):
                np.testing.assert_allclose(trace.theta[k + 1], points[k] - 0.2 * 0.1)
            prev = theta

    @pytest.mark.parametrize("rule", ["vanilla", "polyak"])
    def test_gradient_at_current_parameters(self, rule, small_regression, monkeypatch):
        points, trace = gradient_points(small_regression, monkeypatch, rule)
        assert len(points) == trace.iterations_run == len(trace.theta)
        np.testing.assert_array_equal(np.asarray(points), trace.theta)

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown update rule"):
            update_theta(np.zeros(1), np.zeros(1), np.zeros(1), "sgdm", 0.1)


@pytest.fixture(scope="module")
def small_regression():
    return gen_peaks(60, 0.05, seed=3)


def gradient_points(ds, monkeypatch, rule):
    """Where each iteration of a short run under ``rule`` took its gradient
    (a constant 0.1 in every coordinate), and the run's trace."""
    import kfpls.flows as flows

    points = []

    def constant_gradient(ws, Y_b, subsets, n_lv, spec, theta, step, objective):
        points.append(theta.copy())
        return np.full(theta.shape, 0.1)

    monkeypatch.setattr(flows, "_fd_gradient", constant_gradient)
    cfg = FlowConfig(n_iter=4, n_subsamples=3, batch_fraction=0.6, n_lv=2,
                     learning_rate=0.2, momentum=0.5, update_rule=rule, seed=11,
                     patience=10**6)
    _, trace = run_kernel_flows(ds.X_cal, ds.Y_cal, cfg, gauss())
    return points, trace


class TestRunKernelFlows:
    def _config(self, **kw):
        base = dict(
            n_iter=12, n_subsamples=3, batch_fraction=0.6, sub_fraction=0.5,
            n_lv=2, learning_rate=0.2, seed=11, patience=10**6,
        )
        base.update(kw)
        return FlowConfig(**base)

    def test_deterministic_traces_bitwise(self, small_regression):
        ds = small_regression
        spec0 = gauss()
        _, t1 = run_kernel_flows(ds.X_cal, ds.Y_cal, self._config(), spec0)
        _, t2 = run_kernel_flows(ds.X_cal, ds.Y_cal, self._config(), spec0)
        assert np.array_equal(t1.theta, t2.theta)
        assert np.array_equal(t1.loss, t2.loss)
        assert np.array_equal(t1.gradients, t2.gradients)
        assert t1.best_smoothed_loss == t2.best_smoothed_loss

    def test_multi_response_runs_bitwise(self):
        ds = gen_circles(100, 4, 0.1, 2)
        cfg = self._config(n_iter=60, n_subsamples=8, batch_fraction=0.5, n_lv=3,
                           learning_rate=0.25, seed=2)
        _, t1 = run_kernel_flows(ds.X_cal, ds.Y_cal, cfg, gauss(delta=1.0))
        _, t2 = run_kernel_flows(ds.X_cal, ds.Y_cal, cfg, gauss(delta=1.0))
        assert t1.iterations_run == 60
        assert t1.theta.tobytes() == t2.theta.tobytes()
        assert t1.loss.tobytes() == t2.loss.tobytes()
        assert t1.gradients.tobytes() == t2.gradients.tobytes()

    def test_trace_shapes_consistent(self, small_regression):
        ds = small_regression
        spec, trace = run_kernel_flows(ds.X_cal, ds.Y_cal, self._config(), gauss())
        k = len(trace.loss)
        assert trace.theta.shape == (k, 2)
        assert trace.gradients.shape == (k, 2)
        assert trace.smoothed_loss.shape == (k,)
        assert trace.iterations_run == 12
        assert trace.param_names == ["log_sigma_gaussian", "log_delta"]
        assert spec.theta() == pytest.approx(trace.best_theta)

    def test_best_smoothed_loss_is_running_minimum(self, small_regression):
        ds = small_regression
        _, trace = run_kernel_flows(ds.X_cal, ds.Y_cal, self._config(n_iter=25), gauss())
        assert trace.best_smoothed_loss == pytest.approx(trace.smoothed_loss.min())
        running = np.minimum.accumulate(trace.smoothed_loss)
        assert np.all(np.diff(running) <= 1e-15)

    def test_best_theta_matches_best_smoothed_iteration(self, small_regression):
        ds = small_regression
        _, trace = run_kernel_flows(ds.X_cal, ds.Y_cal, self._config(n_iter=25), gauss())
        k = int(np.argmin(trace.smoothed_loss))
        np.testing.assert_array_equal(trace.best_theta, trace.theta[k])

    def test_early_stop_sets_converged_flag(self, small_regression):
        ds = small_regression
        cfg = self._config(n_iter=400, patience=5, tol=10.0, smoothing_window=3)
        _, trace = run_kernel_flows(ds.X_cal, ds.Y_cal, cfg, gauss())
        assert trace.converged
        assert trace.iterations_run < 400

    def test_all_rules_progress(self, small_regression):
        ds = small_regression
        for rule in ("vanilla", "polyak", "nesterov"):
            cfg = self._config(update_rule=rule, momentum=0.5)
            spec, trace = run_kernel_flows(ds.X_cal, ds.Y_cal, cfg, gauss())
            assert np.isfinite(trace.loss).all()
            assert np.isfinite(spec.theta()).all()

    def test_norm_ratio_objective_supported(self, small_regression):
        ds = small_regression
        cfg = self._config(objective="norm_ratio")
        spec, trace = run_kernel_flows(ds.X_cal, ds.Y_cal, cfg, gauss())
        assert np.all(trace.loss < 1.0)

    def test_subbatch_too_small_for_factors_rejected(self, small_regression):
        ds = small_regression
        cfg = self._config(batch_fraction=0.2, sub_fraction=0.3, n_lv=4)
        with pytest.raises(ValueError, match="sub-batch size"):
            run_kernel_flows(ds.X_cal, ds.Y_cal, cfg, gauss())

    def test_constant_responses_abort(self, small_regression):
        ds = small_regression
        Y = np.ones_like(ds.Y_cal)
        with pytest.raises(FlowAbortError, match="degenerate"):
            run_kernel_flows(ds.X_cal, Y, self._config(), gauss())

    def test_nesterov_steps_by_learning_rate(self, small_regression):
        ds = small_regression
        a, b = (
            run_kernel_flows(ds.X_cal, ds.Y_cal,
                             self._config(update_rule="nesterov", momentum=0.5,
                                          learning_rate=rate), gauss())[1]
            for rate in (0.1, 0.3)
        )
        np.testing.assert_array_equal(a.theta[0], b.theta[0])
        assert not np.array_equal(a.theta[1], b.theta[1])

    def test_lr_decay_supported(self, small_regression):
        ds = small_regression
        spec, _ = run_kernel_flows(
            ds.X_cal, ds.Y_cal, self._config(lr_decay=True), gauss()
        )
        assert np.isfinite(spec.theta()).all()


class TestStratifiedSampling:
    def test_proportional_class_counts(self):
        rng = np.random.default_rng(0)
        labels = np.repeat([0, 1, 2, 3], 25)
        picked = _stratified_choice(rng, labels, 20)
        counts = np.bincount(labels[picked], minlength=4)
        np.testing.assert_array_equal(counts, [5, 5, 5, 5])

    def test_remainders_distributed(self):
        rng = np.random.default_rng(1)
        labels = np.repeat([0, 1, 2], [30, 30, 40])
        picked = _stratified_choice(rng, labels, 10)
        counts = np.bincount(labels[picked], minlength=3)
        assert counts.sum() == 10
        assert counts[2] == 4

    def test_unstratified_sampling_sorted_without_replacement(self):
        rng = np.random.default_rng(2)
        idx = _sample_indices(rng, 50, 20, None)
        assert len(np.unique(idx)) == 20
        assert np.all(np.diff(idx) > 0)

    def test_stratified_run_keeps_classes_in_subbatches(self):
        ds = gen_circles(30, 3, 0.1, seed=4)
        cfg = FlowConfig(
            n_iter=5, n_subsamples=2, batch_fraction=0.5, sub_fraction=0.5,
            n_lv=2, learning_rate=0.1, seed=3, stratified=True, patience=10**6,
        )
        spec, trace = run_kernel_flows(ds.X_cal, ds.Y_cal, cfg, gauss())
        assert trace.n_skipped == 0


class TestLossSurface:
    def test_one_row_per_grid_point(self, small_regression):
        ds = small_regression
        specs = [gauss(sigma=s) for s in (0.5, 1.0, 2.0)]
        cfg = FlowConfig(n_iter=1, n_subsamples=3, n_lv=2, seed=5)
        rows = loss_surface(ds.X_cal, ds.Y_cal, specs, cfg, n_repeats=2)
        assert len(rows) == 3
        for spec, mean, std in rows:
            assert math.isfinite(mean) and math.isfinite(std)

    def test_forced_full_subbatch_gives_zero_norm_ratio_loss(self, small_regression):
        ds = small_regression
        # sub_fraction close to one makes every sub-batch the whole minibatch.
        cfg = FlowConfig(
            n_iter=1, n_subsamples=3, batch_fraction=0.3, sub_fraction=0.99,
            n_lv=2, seed=6, objective="norm_ratio",
        )
        rows = loss_surface(ds.X_cal, ds.Y_cal, [gauss()], cfg, n_repeats=3)
        assert rows[0][1] == 0.0
        assert rows[0][2] == 0.0

    def test_deterministic_for_fixed_seed(self, small_regression):
        ds = small_regression
        specs = [gauss(sigma=s) for s in (0.5, 1.5)]
        cfg = FlowConfig(n_iter=1, n_subsamples=4, n_lv=2, seed=12)
        a = loss_surface(ds.X_cal, ds.Y_cal, specs, cfg)
        b = loss_surface(ds.X_cal, ds.Y_cal, specs, cfg)
        assert a[0][1] == b[0][1] and a[1][1] == b[1][1]

    def test_empty_grid_rejected(self, small_regression):
        ds = small_regression
        with pytest.raises(ValueError, match="empty"):
            loss_surface(ds.X_cal, ds.Y_cal, [], FlowConfig(seed=0))


class TestFlowConfigValidation:
    def test_fraction_bounds(self):
        with pytest.raises(ValueError, match="batch_fraction"):
            FlowConfig(batch_fraction=0.0).validate(100)
        with pytest.raises(ValueError, match="sub_fraction"):
            FlowConfig(sub_fraction=1.0).validate(100)

    def test_momentum_range(self):
        with pytest.raises(ValueError, match="momentum"):
            FlowConfig(momentum=1.5).validate(100)

    def test_unknown_rule_and_objective(self):
        with pytest.raises(ValueError, match="update rule"):
            FlowConfig(update_rule="adam").validate(100)
        with pytest.raises(ValueError, match="objective"):
            FlowConfig(objective="mse").validate(100)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["batch_fraction", "sub_fraction", "learning_rate",
                                      "momentum", "tol", "fd_step"])
    def test_non_finite_float_settings_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            FlowConfig(**{name: value})

    def test_batch_sizes_returned(self):
        nb, ns = FlowConfig(batch_fraction=0.5, sub_fraction=0.5, n_lv=3).validate(100)
        assert nb == 50 and ns == 25
