import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfpls import KernelSpec, center_train, gram_test, gram_train, kernel_eval, kernels
from kfpls.kernels import (
    _FAMILIES,
    FAMILY_NAMES,
    kernel_matrix,
    pairwise_sq_dists,
    train_sq_dists,
)
from kfpls.kpls import affine_coef

from oracles import center_test_literal, gram_literal, kernel_value


def single(family, sigma=1.0, delta=1e-3):
    return KernelSpec.create([family], sigma=sigma, delta=delta)


def spectra(n, p=600, seed=0):
    """``n`` spectral-shaped rows of ``p`` channels: three Gaussian bands whose
    heights are latent concentrations in [0, 1], plus noise of 0.01."""
    rng = np.random.default_rng(seed)
    channels = np.linspace(0.0, 1.0, p)
    bands = np.exp(-0.5 * ((channels - np.array([[0.2], [0.5], [0.8]])) / 0.05) ** 2)
    return rng.uniform(size=(n, 3)) @ bands + 0.01 * rng.normal(size=(n, p))


class TestKernelSpec:
    def test_defaults(self):
        spec = KernelSpec.create(["gaussian", "cauchy"])
        np.testing.assert_allclose(spec.sigma, [1.0, 1.0])
        np.testing.assert_allclose(spec.gamma, [0.5, 0.5])
        assert spec.delta == pytest.approx(1e-3)

    def test_single_family_weight_is_implicit_one(self):
        spec = single("gaussian")
        assert spec.log_gamma is None
        np.testing.assert_allclose(spec.gamma, [1.0])

    def test_comma_string_accepted(self):
        spec = KernelSpec.create("gaussian, matern32")
        assert spec.families == ("gaussian", "matern32")

    def test_theta_round_trip(self):
        spec = KernelSpec.create(
            ["gaussian", "matern52"], sigma=[0.5, 2.0], gamma=[0.3, 0.7], delta=0.02
        )
        again = spec.replace_theta(spec.theta())
        np.testing.assert_array_equal(again.theta(), spec.theta())
        assert again.families == spec.families

    def test_param_names_align_with_theta(self):
        spec = KernelSpec.create(["matern12", "cauchy"])
        assert spec.param_names() == [
            "log_sigma_matern12",
            "log_sigma_cauchy",
            "log_weight_matern12",
            "log_weight_cauchy",
            "log_delta",
        ]
        assert len(spec.param_names()) == spec.theta().size == spec.n_params

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel family"):
            KernelSpec.create(["rbf"])

    def test_duplicate_family_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            KernelSpec.create(["gaussian", "gaussian"])

    def test_nonpositive_parameters_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec.create(["gaussian"], sigma=0.0)
        with pytest.raises(ValueError):
            KernelSpec.create(["gaussian"], delta=-1.0)

    @pytest.mark.parametrize("sigma", [1e-155, 1e-160])
    def test_length_scale_with_overflowing_reciprocal_square_rejected(self, sigma):
        # exp(d2 * (-0.5 / sigma^2)) would be 0 * inf = nan at zero distance
        with pytest.raises(ValueError, match="reciprocal square"):
            KernelSpec.create(["gaussian"], sigma=sigma)


class TestKernelEval:
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_unit_value_at_zero_distance(self, family):
        x = np.array([0.3, -1.2, 0.5])
        assert kernel_eval(single(family), x, x) == pytest.approx(1.0)

    def test_gaussian_characteristic_distance(self):
        sigma = 0.7
        x = np.array([0.0])
        y = np.array([np.sqrt(2.0) * sigma])  # squared distance 2 sigma^2
        assert kernel_eval(single("gaussian", sigma), x, y) == pytest.approx(
            np.exp(-1.0), rel=1e-12
        )

    def test_matern12_at_one_length_scale(self):
        sigma = 1.3
        assert kernel_eval(
            single("matern12", sigma), np.array([0.0]), np.array([sigma])
        ) == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_cauchy_at_one_length_scale(self):
        sigma = 2.5
        assert kernel_eval(
            single("cauchy", sigma), np.array([0.0]), np.array([sigma])
        ) == pytest.approx(0.5, rel=1e-12)

    def test_additive_weights_scale_contributions(self):
        spec = KernelSpec.create(
            ["gaussian", "cauchy"], sigma=[1.0, 2.0], gamma=[0.25, 0.75], delta=1e-3
        )
        x = np.array([0.1, 0.2])
        y = np.array([-0.4, 1.0])
        expected = kernel_value(
            ["gaussian", "cauchy"], [1.0, 2.0], [0.25, 0.75], x, y
        )
        assert kernel_eval(spec, x, y) == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            kernel_eval(single("gaussian"), np.zeros(2), np.zeros(3))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            kernel_eval(single("gaussian"), np.array([np.nan]), np.array([0.0]))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_symmetric_in_arguments(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=4)
        y = rng.normal(size=4)
        spec = KernelSpec.create(list(FAMILY_NAMES), sigma=rng.uniform(0.5, 2.0, 5))
        assert kernel_eval(spec, x, y) == kernel_eval(spec, y, x)

    @given(
        st.sampled_from(FAMILY_NAMES),
        st.floats(0.2, 5.0),
        st.floats(0.05, 20.0),
        st.floats(1.05, 1.8),
    )
    @settings(max_examples=60, deadline=None)
    def test_strictly_decreasing_in_distance(self, family, sigma, ratio, factor):
        # Distances scale with sigma so the values stay above float underflow.
        spec = single(family, sigma)
        r = ratio * sigma
        near = kernel_eval(spec, np.array([0.0]), np.array([r]))
        far = kernel_eval(spec, np.array([0.0]), np.array([r * factor]))
        assert far < near

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_depends_only_on_distance_under_coordinate_permutation(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=6)
        y = rng.normal(size=6)
        perm = rng.permutation(6)
        spec = KernelSpec.create(list(FAMILY_NAMES))
        a = kernel_eval(spec, x, y)
        b = kernel_eval(spec, x[perm], y[perm])
        assert a == pytest.approx(b, rel=1e-12)


class TestDistances:
    def test_buffers_give_the_same_bytes(self):
        X = np.random.default_rng(4).normal(size=(25, 3))
        out, work = np.empty((25, 25)), np.empty((25, 25))
        got = train_sq_dists(X, out=out, work=work)
        assert got is out
        assert got.tobytes() == train_sq_dists(X).tobytes()
        expected = pairwise_sq_dists(X, X)
        assert pairwise_sq_dists(X, X, out=out).tobytes() == expected.tobytes()

    @staticmethod
    def expansion(seed):
        rng = np.random.default_rng(seed)
        q, n, p = rng.integers(1, 70), rng.integers(1, 70), rng.integers(1, 12)
        scale = 10.0 ** rng.uniform(-6, 6)
        X, Z = scale * rng.normal(size=(q, p)), scale * rng.normal(size=(n, p))
        return X, Z, np.sum(X * X, axis=1), np.sum(Z * Z, axis=1)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_bits_of_the_quadratic_expansion(self, seed):
        # |x|^2 + |z|^2 - 2 x.z is one product of the rows [|x|^2, 1, x] and
        # the columns [1; |z|^2; -2 z'], clipped at zero. Both operands are
        # in C order: a one-row product's bits follow the layout.
        X, Z, x_sq, z_sq = self.expansion(seed)
        q, n = len(X), len(Z)
        rows = np.hstack([x_sq[:, None], np.ones((q, 1)), X])
        cols = np.ascontiguousarray(np.vstack([np.ones((1, n)), z_sq[None, :], -2.0 * Z.T]))
        literal = np.maximum(rows @ cols, 0.0)
        assert pairwise_sq_dists(X, Z).tobytes() == literal.tobytes()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_within_rounding_of_the_broadcast_expansion(self, seed):
        # Both sum the same norms and the p products x_k z_k: the product with
        # p + 2 terms is within 2 gamma_(p+2) (|x|^2 + |z|^2) of the exact value
        # (2 |x.z| <= |x|^2 + |z|^2), the broadcast form within
        # (gamma_p + 3u) (|x|^2 + |z|^2), and the clip widens neither. So they
        # differ by at most (3p + 8) u, (3p + 8) / 2 ulps of |x|^2 + |z|^2.
        X, Z, x_sq, z_sq = self.expansion(seed)
        old = np.maximum((x_sq[:, None] + z_sq[None, :]) - 2.0 * (X @ Z.T), 0.0)
        ulp = np.finfo(float).eps * (x_sq[:, None] + z_sq[None, :])
        bound = (3 * X.shape[1] + 8) / 2
        assert np.all(np.abs(pairwise_sq_dists(X, Z) - old) <= bound * ulp)

    def test_symmetric_with_zero_diagonal(self):
        d2 = train_sq_dists(np.random.default_rng(5).normal(size=(12, 2)))
        assert d2.tobytes() == d2.T.copy().tobytes()
        assert np.all(np.diag(d2) == 0.0)


class TestWideInputs:
    """Spectral-shaped rows, p = 600: the distance product's inner size is
    p + 2, where every workload has p = 2."""

    def test_distances_within_rounding_of_an_exact_sum(self):
        # Each rounded (x_k - z_k)^2 is within 3u of its value and fsum rounds
        # once, so the reference is within 4u d2 <= 8u (|x|^2 + |z|^2) of the
        # distance; the computed norms are within gamma_p and the product's
        # p + 2 terms within 2 gamma_(p+2) of |x|^2 + |z|^2 (see
        # TestDistances). So the bound is (3p + 12) / 2 ulps of |x|^2 + |z|^2.
        X, Z = spectra(40, seed=1), spectra(30, seed=2)
        Z[:3] = X[:3]  # some distances are exactly 0
        exact = np.array([[math.fsum((x - z) ** 2) for z in Z] for x in X])
        ulp = np.finfo(float).eps * (kernels.sq_norms(X)[:, None] + kernels.sq_norms(Z))
        bound = (3 * X.shape[1] + 12) / 2
        assert np.all(np.abs(pairwise_sq_dists(X, Z) - exact) <= bound * ulp)

    @pytest.mark.parametrize("families", [["gaussian"], ["matern32", "cauchy"]])
    def test_gram_is_symmetric_with_its_diagonal_exact(self, families):
        X = spectra(300, seed=3)
        d2 = train_sq_dists(X)
        assert d2.tobytes() == d2.T.copy().tobytes()
        assert np.all(np.diag(d2) == 0.0)
        # sigma about the root of the median squared distance, so the kernel
        # is not numerically flat
        spec = KernelSpec.create(families, sigma=math.sqrt(np.median(d2)), delta=0.01)
        K = gram_train(spec, X)
        assert K.tobytes() == K.T.copy().tobytes()
        assert np.all(np.diag(K) == spec.gamma.sum() + spec.delta)
        assert np.ptp(K[np.triu_indices(300, 1)]) > 0.5


# Run in a fresh interpreter per BLAS thread count: the distances, the
# symmetrized training distances and the predictions of a model of the
# arrays in argv[1], and the BLAS's own cross product, as sha256 digests.
_DIGESTS = """
import hashlib, json, sys
import numpy as np
from kfpls import KernelSpec
from kfpls.kernels import pairwise_sq_dists, train_sq_dists
from kfpls.kpls import KplsModel, PlsModel, predict_kpls
data = np.load(sys.argv[1])
digests = {}
for case in ("p2", "p600"):
    X, Z = data[case + "_X"], data[case + "_Z"]
    spec = KernelSpec.create(["gaussian", "matern32"], sigma=data[case + "_sigma"])
    model = KplsModel(spec, Z, data[case + "_col_means"],
                      PlsModel(data[case + "_coef"], 2), data[case + "_y_means"])
    for name, value in (("pairwise", pairwise_sq_dists(X, Z)),
                        ("train", train_sq_dists(Z)),
                        ("predict", predict_kpls(model, X)),
                        ("cross", X @ Z.T)):
        digests[case + "_" + name] = hashlib.sha256(value.tobytes()).hexdigest()
print(json.dumps(digests))
"""


class TestBlasThreadCount:
    def test_distances_and_predictions_have_the_same_bytes_at_1_and_2_threads(
            self, tmp_path):
        rng = np.random.default_rng(12)
        arrays = {}
        for case, X, Z, sigma in (
                ("p2", rng.uniform(-2, 2, (5000, 2)), rng.uniform(-2, 2, (800, 2)), 0.7),
                ("p600", spectra(300, seed=4), spectra(300, seed=5), 30.0)):
            n = len(Z)
            arrays.update({f"{case}_X": X, f"{case}_Z": Z, f"{case}_sigma": sigma,
                           f"{case}_col_means": rng.uniform(size=n),
                           f"{case}_coef": rng.normal(size=(n, 2)),
                           f"{case}_y_means": rng.normal(size=2)})
        np.savez(tmp_path / "inputs.npz", **arrays)
        src = str(Path(kernels.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            run = subprocess.run([sys.executable, "-c", _DIGESTS, str(tmp_path / "inputs.npz")],
                                 env=env, capture_output=True, text=True, timeout=120)
            assert run.returncode == 0, run.stderr
            digests.append(json.loads(run.stdout))
        one, two = digests
        assert len(one) == 8
        changed = {key for key in one if one[key] != two[key]}
        # At p = 2 (inner size 4) nothing may change. At p = 600 the BLAS's
        # own product X @ Z.T may sum in another order at 2 threads (with
        # OpenBLAS 0.3.31 every inner size from 12 up that was tried did);
        # the kernels' outputs may change only where it does.
        assert not any(key.startswith("p2_") for key in changed)
        if "p600_cross" not in changed:
            assert not changed


class TestKernelMatrix:
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_distance_flag_says_whether_family_reads_d(self, family):
        # `kernel_matrix` and the flow take the square root only for the
        # families flagged, so neither the kernel nor the slope of another
        # may read it.
        func, slope, reads_d = _FAMILIES[family]
        d2 = train_sq_dists(np.random.default_rng(7).normal(size=(6, 2)))
        no_d = np.full_like(d2, np.nan)
        blind = func(d2, no_d, 1.3)
        assert np.isnan(blind).any() == reads_d
        blind = slope(func(d2, np.sqrt(d2), 1.3), d2, no_d, 1.3, np.empty_like(d2))
        assert np.isnan(blind).any() == reads_d

    @pytest.mark.parametrize("families", [*([f] for f in FAMILY_NAMES),
                                          ["gaussian", "cauchy"], list(FAMILY_NAMES)])
    def test_distances_made_here_give_the_callers_bytes(self, families):
        d2 = train_sq_dists(np.random.default_rng(8).normal(size=(15, 3)))
        spec = KernelSpec.create(families, sigma=0.7)
        expected = kernel_matrix(spec, d2, np.sqrt(d2))
        assert kernel_matrix(spec, d2).tobytes() == expected.tobytes()


    @pytest.mark.parametrize("families", [*([f] for f in FAMILY_NAMES),
                                          ["gaussian", "matern32", "cauchy"]],
                             ids=[*FAMILY_NAMES, "combo"])
    def test_out_path_gives_the_allocating_paths_bytes(self, families):
        rng = np.random.default_rng(9)
        d2 = pairwise_sq_dists(rng.normal(size=(17, 3)), rng.normal(size=(11, 3)))
        spec = KernelSpec.create(families, sigma=rng.uniform(0.5, 2.0, len(families)))
        expected = kernel_matrix(spec, d2)
        for d in (None, np.sqrt(d2)):
            out = np.full_like(d2, np.nan)
            assert kernel_matrix(spec, d2, d, out=out) is out
            assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("sigma", [0.3, 1.7])
    def test_gaussian_has_the_bits_of_its_formula(self, sigma):
        # The length-scale is one multiply, d2 * (-0.5 / sigma^2), and the
        # implicit weight 1 of a single family is not multiplied in.
        d2 = train_sq_dists(np.random.default_rng(10).normal(size=(20, 2)))
        expected = np.exp(d2 * (-0.5 / (sigma * sigma))) * 1.0
        assert kernel_matrix(single("gaussian", sigma), d2).tobytes() == expected.tobytes()

    def test_explicit_weight_of_a_single_family_is_applied(self):
        d2 = train_sq_dists(np.random.default_rng(11).normal(size=(8, 2)))
        spec = KernelSpec(families=("cauchy",), log_sigma=np.zeros(1),
                          log_gamma=np.log([0.25]), log_delta=0.0)
        plain = kernel_matrix(single("cauchy"), d2)
        assert kernel_matrix(spec, d2).tobytes() == (plain * 0.25).tobytes()


class TestLogSigmaSlope:
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    @pytest.mark.parametrize("sigma", [0.3, 1.7])
    def test_matches_central_differences(self, family, sigma):
        d2 = train_sq_dists(np.random.default_rng(6).normal(size=(30, 2)))
        d = np.sqrt(d2)
        h = 1e-5

        def K(s):
            return kernel_matrix(single(family, sigma=s), d2)

        fd = (K(sigma * np.exp(h)) - K(sigma * np.exp(-h))) / (2.0 * h)
        out = np.empty_like(d2)
        slope = _FAMILIES[family][1](K(sigma), d2, d, sigma, out)
        assert slope is out
        np.testing.assert_allclose(slope, fd, rtol=0, atol=1e-9)


class TestGramTrain:
    def test_diagonal_is_weight_sum_plus_ridge(self):
        spec = KernelSpec.create(
            ["gaussian", "matern32", "cauchy"], gamma=[0.2, 0.3, 0.5], delta=0.05
        )
        rng = np.random.default_rng(0)
        K = gram_train(spec, rng.normal(size=(6, 3)))
        np.testing.assert_allclose(np.diag(K), 1.0 + 0.05, rtol=1e-15)

    def test_symmetry_bitwise(self):
        rng = np.random.default_rng(1)
        K = gram_train(single("matern52"), rng.normal(size=(9, 4)))
        assert np.array_equal(K, K.T)

    def test_gaussian_psd_before_and_after_ridge(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(5, 2))
        delta = 0.01
        spec = single("gaussian", delta=delta)
        K_plain = kernel_matrix(spec, train_sq_dists(X))
        assert np.linalg.eigvalsh(K_plain).min() >= -1e-10
        K_ridge = gram_train(spec, X)
        assert np.linalg.eigvalsh(K_ridge).min() >= delta - 1e-10

    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_every_family_psd_on_small_instances(self, family):
        rng = np.random.default_rng(99)
        for n in (5, 12, 20):
            X = rng.normal(size=(n, 3))
            K = kernel_matrix(single(family), train_sq_dists(X))
            assert np.linalg.eigvalsh(K).min() >= -1e-10

    def test_additive_family_psd(self):
        rng = np.random.default_rng(7)
        spec = KernelSpec.create(
            list(FAMILY_NAMES), sigma=rng.uniform(0.5, 2.0, 5), gamma=rng.uniform(0.1, 1.0, 5)
        )
        X = rng.normal(size=(15, 4))
        K = kernel_matrix(spec, train_sq_dists(X))
        assert np.linalg.eigvalsh(K).min() >= -1e-10

    def test_matches_literal_loop_construction(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(7, 3))
        spec = KernelSpec.create(
            ["gaussian", "matern12"], sigma=[0.8, 1.4], gamma=[0.6, 0.4], delta=0.02
        )
        K = gram_train(spec, X)
        K_ref = gram_literal(
            list(spec.families), spec.sigma, spec.gamma, spec.delta, X
        )
        np.testing.assert_allclose(K, K_ref, rtol=1e-12, atol=1e-14)

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError, match="two rows"):
            gram_train(single("gaussian"), np.zeros((1, 2)))


class TestBlockedGram:
    """`gram_train` and `gram_from_dists` build the Gram in row blocks."""

    @pytest.fixture
    def blocks(self, monkeypatch):
        """The shape of each block `kernel_matrix` sees."""
        shapes = []

        def counting(spec, d2, d=None, out=None):
            shapes.append(d2.shape)
            return kernel_matrix(spec, d2, d, out=out)

        monkeypatch.setattr(kernels, "kernel_matrix", counting)
        return shapes

    # 50 rows are one block of 2**15 values; 300 rows are blocks of 64 rows,
    # the last of 44.
    @pytest.mark.parametrize("n, rows", [(50, 50), (300, 64)])
    @pytest.mark.parametrize("families", [*([f] for f in FAMILY_NAMES),
                                          ["gaussian", "matern32", "cauchy"]],
                             ids=[*FAMILY_NAMES, "combo"])
    def test_equals_whole_matrix_bitwise(self, blocks, families, n, rows):
        rng = np.random.default_rng(n + len(families))
        spec = KernelSpec.create(families, sigma=rng.uniform(0.5, 2.0, len(families)),
                                 delta=0.01)
        X = rng.normal(size=(n, 3))
        K = gram_train(spec, X)
        assert blocks == [(min(rows, n - s), n) for s in range(0, n, rows)]
        assert all(r * n <= kernels._GRAM_BLOCK_ENTRIES for r, _ in blocks)
        expected = kernel_matrix(spec, train_sq_dists(X))
        expected[np.diag_indices_from(expected)] += spec.delta
        assert K.tobytes() == expected.tobytes()

    def test_reads_the_distances_without_changing_them(self):
        X = np.random.default_rng(4).normal(size=(130, 2))
        sq_dists = pairwise_sq_dists(X, X)
        before = sq_dists.copy()
        spec = single("matern52")
        K = kernels.gram_from_dists(spec, sq_dists)
        assert sq_dists.tobytes() == before.tobytes()
        assert K.tobytes() == gram_train(spec, X).tobytes()

    @pytest.mark.parametrize("n, rows", [(1, 2**15), (800, 32), (1024, 32), (2**15, 1),
                                         (2**16, 1)])
    def test_block_rows_is_largest_power_of_two_in_budget(self, n, rows):
        assert kernels.block_rows(kernels._GRAM_BLOCK_ENTRIES, n) == rows


class TestCentering:
    def test_constant_matrix_annihilated(self):
        K = np.full((6, 6), 3.7)
        centered, _ = center_train(K)
        assert np.abs(centered).max() <= 1e-12

    def test_row_sums_vanish(self):
        rng = np.random.default_rng(5)
        K = gram_train(single("gaussian"), rng.normal(size=(10, 3)))
        centered, _ = center_train(K)
        bound = 1e-10 * np.linalg.norm(K)
        assert np.abs(centered.sum(axis=0)).max() <= bound
        assert np.abs(centered.sum(axis=1)).max() <= bound

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        K = gram_train(single("cauchy"), rng.normal(size=(8, 2)))
        once, _ = center_train(K)
        twice, _ = center_train(once)
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_stats_reproduce_training_centering(self):
        # The stored column means, folded into coefficients by `affine_coef`,
        # must map the training rows' plain cross kernel exactly as the
        # centered training Gram maps them when no ridge is present, for any
        # coefficients.
        rng = np.random.default_rng(8)
        X = rng.normal(size=(9, 3))
        spec = KernelSpec(
            families=("gaussian",),
            log_sigma=np.zeros(1),
            log_gamma=None,
            log_delta=-np.inf,
        )
        # log_delta of -inf gives delta == 0 for this consistency check
        K = kernel_matrix(spec, train_sq_dists(X))
        centered, col_means = center_train(K)
        B = rng.normal(size=(9, 2))
        C, b = affine_coef(B, col_means, np.zeros(2))
        reproduced = gram_test(spec, X, X) @ C + b
        np.testing.assert_allclose(reproduced, centered @ B, atol=1e-12)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError, match="square"):
            center_train(np.zeros((3, 4)))

    @pytest.mark.parametrize("shape", [(37, 37), (5, 41, 41)], ids=["gram", "stack"])
    def test_numpy_means_bitwise(self, shape):
        # center_train against the form it replaced, ``K.mean`` on each axis.
        K = np.random.default_rng(9).normal(size=shape) * 1e3 + 7.0
        want_means = K.mean(axis=-2)
        want = K - want_means[..., None, :]
        want -= K.mean(axis=-1)[..., :, None]
        want += np.asarray(K.mean(axis=(-2, -1)))[..., None, None]
        centered, means = center_train(K)
        assert centered.tobytes() == want.tobytes()
        assert means.tobytes() == want_means.tobytes()
        in_place, _ = center_train(K, out=K)
        assert in_place is K and K.tobytes() == want.tobytes()


class TestGramTest:
    def test_single_training_point_row_recovered(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(8, 3))
        spec = KernelSpec(
            families=("matern32",),
            log_sigma=np.array([0.2]),
            log_gamma=None,
            log_delta=-np.inf,
        )
        K = kernel_matrix(spec, train_sq_dists(X))
        row = gram_test(spec, X[4:5], X)
        np.testing.assert_allclose(row[0], K[4], atol=1e-12)

    def test_matches_explicit_ones_vector_formula(self):
        # The plain cross kernel through `affine_coef` is the centered cross
        # kernel of the explicit ones-vector formula times the coefficients.
        rng = np.random.default_rng(10)
        X_train = rng.normal(size=(8, 3))
        X_test = rng.normal(size=(3, 3))
        spec = KernelSpec.create(["gaussian"], sigma=0.9, delta=0.03)
        K_train = gram_train(spec, X_train)
        _, col_means = center_train(K_train)
        B = rng.normal(size=(8, 2))
        y_means = np.array([0.4, -1.2])
        C, b = affine_coef(B, col_means, y_means)
        got = gram_test(spec, X_test, X_train) @ C + b
        K_cross = np.array([[kernel_value(["gaussian"], [0.9], [1.0], x, z)
                             for z in X_train] for x in X_test])
        expected = center_test_literal(K_cross, K_train) @ B + y_means
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_ridge_enters_through_training_means_only(self):
        # The cross kernel itself carries no ridge; only the stored training
        # column means feel it.
        rng = np.random.default_rng(11)
        X = rng.normal(size=(6, 2))
        spec_r = KernelSpec.create(["gaussian"], delta=0.5)
        K = gram_train(spec_r, X)
        np.testing.assert_allclose(gram_test(spec_r, X, X), K - 0.5 * np.eye(6),
                                   atol=1e-12)
        _, col_means = center_train(K)
        _, plain_means = center_train(K - 0.5 * np.eye(6))
        np.testing.assert_allclose(col_means - plain_means, 0.5 / 6, atol=1e-12)

    def test_feature_mismatch_rejected(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(5, 2))
        with pytest.raises(ValueError, match="feature mismatch"):
            gram_test(single("gaussian"), np.zeros((2, 3)), X)
