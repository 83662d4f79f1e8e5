"""SIMPLS: partial least-squares by covariance deflation.

Latent variables are extracted one at a time from the cross-covariance
between predictors and responses. Each factor takes the dominant principal
direction of the current covariance, its X-scores give the loadings, and
the covariance is deflated by projecting out the span of the X-side
loadings before the next extraction. Scores are not kept: the X-scores of
a fit are ``X @ weights``.

One extraction loop, `_simpls`, runs over a leading stack axis: `fit_pls`
is that loop at stack size 1, and `fit_pls_stack` fits many same-sized
problems (the kernel-flow sub-batches) in one pass. The direction is
closed-form for one response, else from one batched m×m ``eigh``.
SIMPLS extracts one factor at a time, so the first ``a`` factors of a fit
are the ``a``-factor fit. `_coef` is the one coefficient formula: it gives
a stack member that stops early its coefficients from the factors it had
then, and `coef_path` the coefficients at every factor count of one fit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateProblemError

# Score-norm underflow guard: factors with t't below this (times n) are dropped.
_SCORE_NORM_FLOOR = 1e-12
# Relative Frobenius threshold under which the deflated covariance counts as exhausted.
_COV_EXHAUSTED_REL = 1e-14
# Condition-number ceiling for the loadings-weights system.
_MAX_CONDITION = 1e12


@dataclass(frozen=True)
class PlsModel:
    """Fitted SIMPLS factors and regression coefficients.

    Attributes
    ----------
    weights : ndarray, shape (p, a)
        Rotated X-side loadings, one column per latent variable.
    x_loadings : ndarray, shape (p, a)
    y_loadings : ndarray, shape (m, a)
    coef : ndarray, shape (p, m)
        Regression coefficients mapping predictors to responses.
    n_lv : int
        Number of latent variables actually extracted (may be fewer than
        requested when rank is exhausted).
    """

    weights: np.ndarray
    x_loadings: np.ndarray
    y_loadings: np.ndarray
    coef: np.ndarray
    n_lv: int


def _directions(C: np.ndarray) -> np.ndarray:
    """Dominant right singular direction of each covariance in a stack
    (S, m, p): ``C/‖C‖`` for one response, else ``Cᵀv`` normalized, for the
    top eigenvector ``v`` of ``C Cᵀ``. The sign makes the entry of largest
    magnitude positive, so the result is deterministic.
    """
    w = C[:, 0, :]
    if C.shape[1] > 1:
        v = np.linalg.eigh(C @ np.swapaxes(C, 1, 2))[1][:, :, -1]
        w = np.einsum("smp,sm->sp", C, v)
    w = w / np.linalg.norm(w, axis=1, keepdims=True)
    top = np.take_along_axis(w, np.argmax(np.abs(w), axis=1)[:, None], axis=1)
    return np.where(top < 0, -w, w)


def _simpls(X: np.ndarray, Y: np.ndarray, n_lv: int):
    """SIMPLS of each ``X[s]`` (n, p) on ``Y[s]`` (n, m), all members at once.

    A member stops when its covariance is exhausted or its score norm
    underflows. If all members still running stop at one factor, the loop
    ends there; a member that stops while others go on is dropped and takes
    its coefficients from the factors it has, which is what a separate fit
    of it gives. Returns ``(W, P, Q, B)``: the factors (one column per
    latent variable) of the members that ran to the end, and the
    coefficients (S, p, m) of every member.
    """
    S, n, p = X.shape
    a_max = min(n_lv, n, p)
    C = np.swapaxes(Y, 1, 2) @ X  # (S, m, p) cross-covariances
    c_norm0 = np.linalg.norm(C, axis=(1, 2))
    W, P, Q = (np.empty((S, d, a_max)) for d in (p, p, Y.shape[2]))
    B = np.empty((S, p, Y.shape[2]))
    running = np.arange(S)

    k = 0
    while k < a_max:
        live = np.linalg.norm(C, axis=(1, 2)) > _COV_EXHAUSTED_REL * c_norm0
        if live.all():
            w = _directions(C)
            t = (X @ w[:, :, None])[:, :, 0]
            tt = np.sum(t * t, axis=1)
            live = tt >= _SCORE_NORM_FLOOR * n
        if not live.all():
            if k == 0:
                raise DegenerateProblemError(
                    "rank exhausted before extracting any factor"
                )
            if not live.any():
                break
            done = ~live
            B[running[done]] = _coef(W[done, :, :k], P[done, :, :k], Q[done, :, :k])
            X, Y, C, c_norm0, running, W, P, Q = (
                v[live] for v in (X, Y, C, c_norm0, running, W, P, Q)
            )
            continue
        q = (np.swapaxes(Y, 1, 2) @ t[:, :, None])[:, :, 0] / tt[:, None]
        pv = (np.swapaxes(X, 1, 2) @ t[:, :, None])[:, :, 0] / tt[:, None]
        W[:, :, k], Q[:, :, k], P[:, :, k] = w, q, pv
        k += 1
        if k < a_max:
            # Deflate: remove the span of the accumulated X-loadings from the
            # covariance rows so the next direction is extracted from what is
            # left, C - C P (PᵀP)⁻¹ Pᵀ, with the solve on the small side.
            Pk = P[:, :, :k]
            Pkt = np.swapaxes(Pk, 1, 2)
            A = np.linalg.solve(Pkt @ Pk, np.swapaxes(C @ Pk, 1, 2))
            C = C - np.swapaxes(A, 1, 2) @ Pkt

    W, P, Q = (v[:, :, :k] for v in (W, P, Q))
    B[running] = _coef(W, P, Q)
    return W, P, Q, B


def _coef(W: np.ndarray, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Coefficients ``W (PᵀW)⁻¹ Qᵀ`` (..., p, m) of factor blocks W, P (..., p, a)
    and Q (..., m, a); raises `DegenerateProblemError` if a ``PᵀW`` is too
    ill-conditioned.
    """
    PtW = np.swapaxes(P, -1, -2) @ W
    if np.any(np.linalg.cond(PtW) > _MAX_CONDITION):
        raise DegenerateProblemError("loadings-weights system is too ill-conditioned")
    return W @ np.linalg.solve(PtW, np.swapaxes(Q, -1, -2))


def fit_pls(X: np.ndarray, Y: np.ndarray, n_lv: int) -> PlsModel:
    """Fit a SIMPLS model with up to ``n_lv`` latent variables.

    Parameters
    ----------
    X : ndarray, shape (n, p)
    Y : ndarray, shape (n, m)
        Response matrix; a 1-D vector is treated as a single column.
    n_lv : int
        Requested number of latent variables. Values above ``min(n, p)``
        are clamped with a warning. Extraction stops early if the score
        norm underflows or the deflated covariance is exhausted.

    Returns
    -------
    PlsModel
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    if X.ndim != 2 or Y.ndim != 2:
        raise ValueError("X and Y must be 2-D arrays")
    if X.shape[0] != Y.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but Y has {Y.shape[0]}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
        raise ValueError("X and Y must be finite")
    if n_lv < 1:
        raise ValueError(f"n_lv must be >= 1, got {n_lv}")
    if n_lv > min(X.shape):
        warnings.warn(f"n_lv={n_lv} exceeds min(n, p)={min(X.shape)}; clamping",
                      stacklevel=2)

    W, P, Q, B = _simpls(X[None], Y[None], n_lv)
    return PlsModel(W[0], P[0], Q[0], B[0], n_lv=W.shape[2])


def fit_pls_stack(X: np.ndarray, Y: np.ndarray, n_lv: int) -> np.ndarray:
    """Coefficients (S, p, m) of the SIMPLS fits of ``X[s]`` (n, p) on ``Y[s]``.

    A member that stops early while others go on keeps the coefficients of
    the factors it had, the fit `fit_pls` gives it. Inputs are not checked,
    and ``n_lv`` is clamped to ``min(n, p)`` silently.
    """
    return _simpls(X, Y, n_lv)[3]


def coef_path(model: PlsModel) -> np.ndarray:
    """Coefficients (a, p, m) of the fits with 1, 2, ..., ``model.n_lv`` factors.

    SIMPLS extracts one factor at a time, so the first ``a`` factors of a
    fit are the ``a``-factor fit: entry ``a-1`` is `_coef` of them, the
    formula `fit_pls` uses. The path ends before the first prefix whose
    ``PᵀW`` block is too ill-conditioned, where a fit at that count raises.
    """
    W, P, Q = model.weights, model.x_loadings, model.y_loadings
    path = []
    for a in range(1, model.n_lv + 1):
        try:
            path.append(_coef(W[:, :a], P[:, :a], Q[:, :a]))
        except DegenerateProblemError:
            break
    return np.array(path).reshape(len(path), *model.coef.shape)


def predict_pls(model: PlsModel, X_new: np.ndarray) -> np.ndarray:
    """Predict responses for new rows: ``X_new @ coef``."""
    X_new = np.asarray(X_new, dtype=float)
    if X_new.ndim != 2:
        raise ValueError("X_new must be 2-D")
    if X_new.shape[1] != model.coef.shape[0]:
        raise ValueError(
            f"X_new has {X_new.shape[1]} columns, model expects {model.coef.shape[0]}"
        )
    return X_new @ model.coef
