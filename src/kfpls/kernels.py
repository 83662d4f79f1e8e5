"""Stationary kernel families, Gram matrices, and training-Gram centering.

Five isotropic families are supported (all functions of the pairwise
Euclidean distance only): squared-exponential, the three half-integer
Matern kernels, and the rational Cauchy kernel. A spec may combine
several families as a weighted sum, plus a ridge term added to square
training Grams. All positive parameters are stored as logarithms so
unconstrained gradient steps always map back to a valid kernel.

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


def _gaussian(d2, d, sigma):
    return np.exp(-d2 / (2.0 * sigma * sigma))


def _matern12(d2, d, sigma):
    return np.exp(-d / sigma)


def _matern32(d2, d, sigma):
    a = _SQRT3 * d / sigma
    return (1.0 + a) * np.exp(-a)


def _matern52(d2, d, sigma):
    a = _SQRT5 * d / sigma
    return (1.0 + a + 5.0 * d2 / (3.0 * sigma * sigma)) * np.exp(-a)


def _cauchy(d2, d, sigma):
    return 1.0 / (1.0 + d2 / (sigma * sigma))


FAMILY_NAMES = ("gaussian", "matern12", "matern32", "matern52", "cauchy")
_FAMILY_FUNCS = {
    "gaussian": _gaussian,
    "matern12": _matern12,
    "matern32": _matern32,
    "matern52": _matern52,
    "cauchy": _cauchy,
}

_DEFAULT_DELTA = 1e-3


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
            if name not in _FAMILY_FUNCS:
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


def pairwise_sq_dists(X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Matrix of squared Euclidean distances, clipped at zero.

    The quadratic expansion can go slightly negative in floating point;
    the clip keeps the square roots used by the Matern families safe.
    """
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    d2 = (
        np.sum(X * X, axis=1)[:, None]
        + np.sum(Z * Z, axis=1)[None, :]
        - 2.0 * (X @ Z.T)
    )
    np.maximum(d2, 0.0, out=d2)
    return d2


def kernel_matrix(spec: KernelSpec, d2: np.ndarray) -> np.ndarray:
    """Weighted sum of family kernels evaluated on squared distances (no ridge)."""
    d = np.sqrt(d2)
    sigma = spec.sigma
    gamma = spec.gamma
    out = gamma[0] * _FAMILY_FUNCS[spec.families[0]](d2, d, sigma[0])
    for i in range(1, len(spec.families)):
        out += gamma[i] * _FAMILY_FUNCS[spec.families[i]](d2, d, sigma[i])
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
    return float(kernel_matrix(spec, np.asarray(d2)))


def train_sq_dists(X: np.ndarray) -> np.ndarray:
    """Symmetrized squared-distance matrix with an exactly zero diagonal."""
    d2 = pairwise_sq_dists(X, X)
    d2 = 0.5 * (d2 + d2.T)
    np.fill_diagonal(d2, 0.0)
    return d2


def gram_train(spec: KernelSpec, X: np.ndarray) -> np.ndarray:
    """Training Gram matrix with the ridge added to the diagonal.

    The squared-distance matrix is symmetrized and its diagonal pinned to
    zero before the kernel transform, so the result is bitwise symmetric
    and its diagonal is exactly (sum of weights) + ridge.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("X must be 2-D with at least two rows")
    if not np.all(np.isfinite(X)):
        raise ValueError("X must be finite")
    K = kernel_matrix(spec, train_sq_dists(X))
    K[np.diag_indices_from(K)] += spec.delta
    return K


def center_train(K: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Double-center a square Gram; return ``(H K H, column means of K)``.

    H = I - (1/n) 11'. The column means are what a cross kernel needs to
    be centered consistently (see `kpls.affine_coef`). A stack of Grams
    (..., n, n) is centered member by member.
    """
    K = np.asarray(K, dtype=float)
    if K.ndim < 2 or K.shape[-1] != K.shape[-2]:
        raise ValueError("K must be square")
    col_means = K.mean(axis=-2)
    row_means = K.mean(axis=-1)
    grand = K.mean(axis=(-2, -1))
    centered = K - col_means[..., None, :]  # then in place: fewer full-size temporaries
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
