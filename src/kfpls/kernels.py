"""Stationary kernel families, Gram matrices, and training-Gram centering.

Five isotropic families are supported (all functions of the pairwise
Euclidean distance only): squared-exponential, the three half-integer
Matern kernels, and the rational Cauchy kernel. A spec may combine
several families as a weighted sum, plus a ridge term added to square
training Grams. All positive parameters are stored as logarithms so
unconstrained gradient steps always map back to a valid kernel.

`kernel_matrix` and the family functions write their result into an
``out`` array when the caller gives one, with the operations and bits of
the allocating path, so blocked callers evaluate a kernel in buffers they
own: a one-family Gaussian or Cauchy kernel then makes no array at all
(the Matern families make their temporaries, and a sum of families its
terms). `pairwise_sq_dists` likewise takes ``out`` and ``work`` buffers,
and the training rows' squared norms when the caller has them.

A square training Gram (`gram_train`, or `gram_from_dists` on a distance
matrix the caller keeps) is built one row block at a time: each block of
``pairwise_sq_dists(X, X)`` is symmetrized into one buffer, its diagonal
pinned to zero, and put through `kernel_matrix` straight into its rows of
the Gram. A block has a power of two of rows and at most
`_GRAM_BLOCK_ENTRIES` values, so the symmetrized distances and the family
temporaries are block-sized and stay in cache. `kfpls.pipeline` makes one
distance matrix of the calibration rows and builds each of its Grams from
it. Predictions (`kpls._affine_predict`) evaluate their cross kernels the
same way, in cache-sized slices of each row block.

`center_train` double-centers a training Gram and returns its column
means. Cross kernels (`gram_test`) stay plain: centering them on those
means is folded into the coefficients of the fitted model
(`kpls.affine_coef`), so no centered cross kernel is ever formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SQRT3 = math.sqrt(3.0)
_SQRT5 = math.sqrt(5.0)


# Each family builds its matrix in ``out`` when given, else on as few fresh
# arrays as it can (full-size temporaries set the peak memory of a flow),
# with its formula's operations in the formula's order, so the bits are the
# formula's. ``out`` must not overlap ``d2`` or ``d``.


def _gaussian(d2, d, sigma, out=None):
    # exp(-d2 / (2 sigma^2)); d2 / -(2 sigma^2) has the bits of -d2 / (2 sigma^2)
    out = np.divide(d2, -(2.0 * sigma * sigma), out=out)
    return np.exp(out, out=out)


def _matern12(d2, d, sigma, out=None):
    # exp(-d / sigma)
    out = np.negative(d, out=out)
    out /= sigma
    return np.exp(out, out=out)


def _matern32(d2, d, sigma, out=None):
    # (1 + a) exp(-a), a = sqrt(3) d / sigma
    a = np.multiply(_SQRT3, d, out=out)
    a /= sigma
    decay = np.negative(a)
    np.exp(decay, out=decay)
    a += 1.0
    a *= decay
    return a


def _matern52(d2, d, sigma, out=None):
    # (1 + a + 5 d2 / (3 sigma^2)) exp(-a), a = sqrt(5) d / sigma
    a = np.multiply(_SQRT5, d, out=out)
    a /= sigma
    decay = np.negative(a)
    np.exp(decay, out=decay)
    a += 1.0
    quad = np.multiply(5.0, d2)
    quad /= 3.0 * sigma * sigma
    a += quad
    a *= decay
    return a


def _cauchy(d2, d, sigma, out=None):
    # 1 / (1 + d2 / sigma^2)
    out = np.divide(d2, sigma * sigma, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


# Each family's derivative by its log length-scale, from its matrix ``K`` at
# that length-scale and the distances, written into ``out`` (the Matern
# ones make one array of its size).


def _gaussian_slope(K, d2, d, sigma, out):
    # K d2 / sigma^2
    np.multiply(K, d2, out=out)
    out /= sigma * sigma
    return out


def _matern12_slope(K, d2, d, sigma, out):
    # K d / sigma
    np.multiply(K, d, out=out)
    out /= sigma
    return out


def _matern32_slope(K, d2, d, sigma, out):
    # a^2 exp(-a) = K a^2 / (1 + a), a = sqrt(3) d / sigma
    a = np.multiply(_SQRT3, d)
    a /= sigma
    np.multiply(a, a, out=out)
    a += 1.0
    out /= a
    out *= K
    return out


def _matern52_slope(K, d2, d, sigma, out):
    # q (1 + a) exp(-a) = K q (1 + a) / (1 + a + q), a = sqrt(5) d / sigma,
    # q = a^2 / 3
    a = np.multiply(_SQRT5, d)
    a /= sigma
    q = np.multiply(a, a, out=out)
    q /= 3.0
    a += 1.0
    a += q
    q /= a  # q / (1 + a + q)
    np.multiply(_SQRT5, d, out=a)
    a /= sigma
    a += 1.0
    q *= a
    q *= K
    return q


def _cauchy_slope(K, d2, d, sigma, out):
    # 2 K^2 d2 / sigma^2
    np.multiply(K, K, out=out)
    out *= d2
    out *= 2.0 / (sigma * sigma)
    return out


# name -> (kernel, slope, whether it reads the distance d and not d2 alone)
_FAMILIES = {
    "gaussian": (_gaussian, _gaussian_slope, False),
    "matern12": (_matern12, _matern12_slope, True),
    "matern32": (_matern32, _matern32_slope, True),
    "matern52": (_matern52, _matern52_slope, True),
    "cauchy": (_cauchy, _cauchy_slope, False),
}
FAMILY_NAMES = tuple(_FAMILIES)

_DEFAULT_DELTA = 1e-3

# Values in one row block of a square training Gram: 2**15 floats are 256 KiB,
# so a block's distances and its family temporaries stay in L2 cache.
_GRAM_BLOCK_ENTRIES = 2**15


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """Kernel family selection and its log-space parameter vector.

    ``log_gamma`` is ``None`` for a single family, whose weight is an
    implicit 1. The flat parameter vector (``theta``) concatenates the
    per-family log length-scales, the per-family log weights when more
    than one family is active, and the log ridge.
    """

    families: tuple[str, ...]
    log_sigma: np.ndarray
    log_gamma: np.ndarray | None
    log_delta: float

    @classmethod
    def create(
        cls,
        families,
        sigma=None,
        gamma=None,
        delta: float | None = None,
    ) -> "KernelSpec":
        """Build a spec from positive parameters (scalars broadcast).

        Defaults: length-scale 1 everywhere, weights ``1/k`` for ``k``
        combined families, ridge 1e-3.
        """
        if isinstance(families, str):
            families = [s.strip() for s in families.split(",") if s.strip()]
        families = tuple(families)
        if not families:
            raise ValueError("at least one kernel family is required")
        for name in families:
            if name not in _FAMILIES:
                raise ValueError(
                    f"unknown kernel family {name!r}; choose from {FAMILY_NAMES}"
                )
        if len(set(families)) != len(families):
            raise ValueError("duplicate kernel families")
        k = len(families)

        sigma = np.full(k, 1.0) if sigma is None else np.broadcast_to(
            np.asarray(sigma, dtype=float), (k,)
        ).copy()
        if np.any(sigma <= 0) or not np.all(np.isfinite(sigma)):
            raise ValueError("length-scales must be positive and finite")

        if k == 1:
            log_gamma = None
            if gamma is not None and not np.allclose(gamma, 1.0):
                raise ValueError("a single-family spec has an implicit weight of 1")
        else:
            gamma = np.full(k, 1.0 / k) if gamma is None else np.broadcast_to(
                np.asarray(gamma, dtype=float), (k,)
            ).copy()
            if np.any(gamma <= 0) or not np.all(np.isfinite(gamma)):
                raise ValueError("kernel weights must be positive and finite")
            log_gamma = np.log(gamma)

        delta = _DEFAULT_DELTA if delta is None else float(delta)
        if delta <= 0 or not math.isfinite(delta):
            raise ValueError("ridge must be positive and finite")

        return cls(
            families=families,
            log_sigma=np.log(sigma),
            log_gamma=log_gamma,
            log_delta=math.log(delta),
        )

    @property
    def sigma(self) -> np.ndarray:
        return np.exp(self.log_sigma)

    @property
    def gamma(self) -> np.ndarray:
        if self.log_gamma is None:
            return np.ones(1)
        return np.exp(self.log_gamma)

    @property
    def delta(self) -> float:
        return math.exp(self.log_delta)

    @property
    def n_params(self) -> int:
        k = len(self.families)
        return k + (k if self.log_gamma is not None else 0) + 1

    def theta(self) -> np.ndarray:
        """Flat log-parameter vector (the optimizer's view of the spec)."""
        parts = [self.log_sigma]
        if self.log_gamma is not None:
            parts.append(self.log_gamma)
        parts.append(np.array([self.log_delta]))
        return np.concatenate(parts)

    def replace_theta(self, theta: np.ndarray) -> "KernelSpec":
        """New spec with the same families and the given log parameters."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_params,):
            raise ValueError(
                f"theta has shape {theta.shape}, expected ({self.n_params},)"
            )
        k = len(self.families)
        log_sigma = theta[:k].copy()
        log_gamma = theta[k : 2 * k].copy() if self.log_gamma is not None else None
        return KernelSpec(
            families=self.families,
            log_sigma=log_sigma,
            log_gamma=log_gamma,
            log_delta=float(theta[-1]),
        )

    def param_names(self) -> list[str]:
        names = [f"log_sigma_{f}" for f in self.families]
        if self.log_gamma is not None:
            names += [f"log_weight_{f}" for f in self.families]
        names.append("log_delta")
        return names


def pairwise_sq_dists(
    X: np.ndarray, Z: np.ndarray, out: np.ndarray | None = None,
    work: np.ndarray | None = None, z_sq: np.ndarray | None = None,
) -> np.ndarray:
    """Matrix of squared Euclidean distances, clipped at zero.

    The quadratic expansion can go slightly negative in floating point;
    the clip keeps the square roots used by the Matern families safe.
    ``out`` receives the result and ``work``, of the same shape, the cross
    products; each is made when not given. ``z_sq`` is ``sq_norms(Z)``,
    computed here unless the caller has it.
    """
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    x_sq = sq_norms(X)
    if z_sq is None:
        z_sq = sq_norms(Z)
    # x_sq[:, None] + z_sq[None, :] as the product of the columns [x_sq, 1] and
    # the rows [1, z_sq]: both of an entry's products are exact and their sum
    # is rounded once, so it has the bits of the sum, in one BLAS pass that is
    # faster than a broadcast add.
    d2 = np.matmul(np.stack([x_sq, np.ones_like(x_sq)], axis=1),
                   np.stack([np.ones_like(z_sq), z_sq]), out=out)
    cross = np.matmul(X, Z.T, out=work)
    cross *= 2.0
    d2 -= cross
    np.maximum(d2, 0.0, out=d2)
    return d2


def sq_norms(X: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row of ``X``."""
    return np.sum(X * X, axis=1)


def reads_d(spec: KernelSpec) -> bool:
    """Whether a family of ``spec`` reads the distance ``d`` (the Matern
    ones); the Gaussian and Cauchy kernels are functions of ``d2`` alone."""
    return any(_FAMILIES[name][2] for name in spec.families)


def kernel_matrix(
    spec: KernelSpec, d2: np.ndarray, d: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Weighted sum of family kernels evaluated on squared distances (no ridge).

    ``d`` is ``sqrt(d2)``. Unless the caller has it, it is computed here,
    and only when a family of the spec reads it (`reads_d`). ``out``, which
    must not overlap ``d2`` or ``d``, receives the result, with the bits of
    the result made without it; a one-family Gaussian or Cauchy spec then
    makes no array. The implicit weight 1 of a one-family spec is not
    multiplied in.
    """
    d2 = np.asarray(d2, dtype=float)
    funcs = [_FAMILIES[name][0] for name in spec.families]
    if d is None and reads_d(spec):
        d = np.sqrt(d2)
    sigma = spec.sigma
    gamma = spec.gamma
    out = funcs[0](d2, d, sigma[0], out)
    if spec.log_gamma is not None:
        out *= gamma[0]
    for i in range(1, len(funcs)):
        term = funcs[i](d2, d, sigma[i])
        term *= gamma[i]
        out += term
    return out


def kernel_eval(spec: KernelSpec, x: np.ndarray, y: np.ndarray) -> float:
    """Kernel value between two points."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("inputs must be finite")
    diff = x - y
    d2 = max(float(diff @ diff), 0.0)
    return float(kernel_matrix(spec, np.array([d2]))[0])


def train_sq_dists(
    X: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None
) -> np.ndarray:
    """Symmetrized squared-distance matrix with an exactly zero diagonal.

    ``out`` receives the result and ``work``, of the same shape, is
    overwritten; each is made when not given, so with both no matrix of
    the result's size is allocated.
    """
    half = pairwise_sq_dists(X, X, out=work, work=out)
    d2 = np.add(half, half.T, out=out)
    d2 *= 0.5
    np.fill_diagonal(d2, 0.0)
    return d2


def block_rows(budget: int, n: int) -> int:
    """Rows of ``n`` values in a row block of at most ``budget`` values: the
    largest power of two that fits, and at least 1. Block edges then fall on
    the row alignment of the BLAS kernels, so where the library groups rows
    by powers of two, a row is summed as in one product over all the rows."""
    return 1 << max(0, (budget // n).bit_length() - 1)


def gram_from_dists(spec: KernelSpec, sq_dists: np.ndarray) -> np.ndarray:
    """Training Gram matrix, ridge on the diagonal, of the rows ``X`` whose
    ``pairwise_sq_dists(X, X)`` is ``sq_dists`` (n, n), which is only read.

    The Gram is built one row block at a time (see the module docstring):
    its bits are those of ``kernel_matrix(spec, train_sq_dists(X))`` plus the
    ridge, it is bitwise symmetric, and its diagonal is exactly (sum of
    weights) + ridge.
    """
    n = sq_dists.shape[0]
    rows = block_rows(_GRAM_BLOCK_ENTRIES, n)
    K = np.empty((n, n))
    block = np.empty((min(rows, n), n))
    root = np.empty_like(block) if reads_d(spec) else None
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        d2 = np.add(sq_dists[start:stop], sq_dists[:, start:stop].T,
                    out=block[: stop - start])
        d2 *= 0.5
        np.fill_diagonal(d2[:, start:stop], 0.0)
        d = None if root is None else np.sqrt(d2, out=root[: stop - start])
        kernel_matrix(spec, d2, d, out=K[start:stop])
    K[np.diag_indices_from(K)] += spec.delta
    return K


def gram_train(spec: KernelSpec, X: np.ndarray) -> np.ndarray:
    """Training Gram matrix with the ridge added to the diagonal.

    The squared-distance matrix is symmetrized and its diagonal pinned to
    zero before the kernel transform, one row block at a time
    (`gram_from_dists`), so the result is bitwise symmetric and its
    diagonal is exactly (sum of weights) + ridge.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("X must be 2-D with at least two rows")
    if not np.all(np.isfinite(X)):
        raise ValueError("X must be finite")
    return gram_from_dists(spec, pairwise_sq_dists(X, X))


def center_train(
    K: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Double-center a square Gram; return ``(H K H, column means of K)``.

    H = I - (1/n) 11'. The column means are what a cross kernel needs to
    be centered consistently (see `kpls.affine_coef`). A stack of Grams
    (..., n, n) is centered member by member. ``out`` receives ``H K H``;
    it may be ``K`` itself, which is then centered in place.
    """
    K = np.asarray(K, dtype=float)
    if K.ndim < 2 or K.shape[-1] != K.shape[-2]:
        raise ValueError("K must be square")
    n = K.shape[-1]
    col_means = np.add.reduce(K, axis=-2)
    col_means /= n
    row_means = np.add.reduce(K, axis=-1)
    row_means /= n
    grand = np.add.reduce(K, axis=(-2, -1))
    grand /= n * n
    centered = np.subtract(K, col_means[..., None, :], out=out)  # then in place
    centered -= row_means[..., :, None]
    centered += grand[..., None, None]
    return centered, col_means


def gram_test(spec: KernelSpec, X_test: np.ndarray, X_train: np.ndarray) -> np.ndarray:
    """Plain cross Gram between test and training rows.

    No ridge is added and nothing is centered: the rectangular matrix only
    ever multiplies coefficients that carry the centering themselves.
    """
    X_test = np.asarray(X_test, dtype=float)
    X_train = np.asarray(X_train, dtype=float)
    if X_test.ndim != 2 or X_train.ndim != 2:
        raise ValueError("inputs must be 2-D")
    if X_test.shape[1] != X_train.shape[1]:
        raise ValueError(
            f"feature mismatch: test has {X_test.shape[1]} columns, "
            f"train has {X_train.shape[1]}"
        )
    return kernel_matrix(spec, pairwise_sq_dists(X_test, X_train))
