"""SIMPLS: partial least-squares by covariance deflation.

Latent variables are extracted one at a time from the cross-covariance
between predictors and responses. Each factor takes the dominant principal
direction of the current covariance, its X-scores give the loadings, and
the covariance is deflated by projecting out the span of the X-side
loadings before the next extraction.

This module is the engine only; it defines no model type. One extraction
loop, `_simpls`, runs over a leading stack axis: `kpls.fit_grams` runs it
on a stack of centered Grams (one kernel-PLS model, or the sub-batches
of one kernel-flow draw) in one pass, and the linear reference of
`pipeline` on a stack of one. The direction is closed-form for one
response, else from one batched m×m ``eigh``. The factors (W, P, Q) exist
only as what `_simpls` returns. A stack has one factor count: it stops
at the first factor where any member runs out of rank. SIMPLS extracts
one factor at a time, so the first ``a`` factors of a fit are the
``a``-factor fit, and each member of a stack that stopped at ``a`` is its
separate fit at ``a``. `_coef` is the one coefficient formula: `_simpls`
applies it to the whole stack, and `coef_path` to every factor count up
to a search bound from the factors of one fit.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DegenerateProblemError

# Score-norm underflow guard: factors with t't below this (times n) are dropped.
_SCORE_NORM_FLOOR = 1e-12
# Relative Frobenius threshold under which the deflated covariance counts as exhausted.
_COV_EXHAUSTED_REL = 1e-14
# Condition-number ceiling for the loadings-weights system.
_MAX_CONDITION = 1e12
# Relative floor for the top eigen-gap of C Cᵀ: below it the direction's
# derivative (inversely proportional to the gap) is not trusted.
_EIGEN_GAP_REL = 1e-10


def _directions(C: np.ndarray):
    """Dominant right singular direction of each covariance in a stack
    (S, m, p): ``C/‖C‖`` for one response, else ``Cᵀv`` normalized, for the
    top eigenvector ``v`` of ``C Cᵀ``. The sign makes the entry of largest
    magnitude positive, so the result is deterministic.

    Returns ``(w, v, norm, eig)``: the directions, with what the reverse
    pass needs: ``v`` (S, m) signed so that ``w = Cᵀv/norm`` (for one
    response, the sign alone), ``norm`` (S,) and, for m > 1, the
    eigenvalues and eigenvectors of ``C Cᵀ`` (else None).
    """
    w = C[:, 0, :]
    v = eig = None
    if C.shape[1] > 1:
        eig = np.linalg.eigh(C @ C.swapaxes(1, 2))
        v = eig[1][:, :, -1]
        w = np.einsum("smp,sm->sp", C, v)
    norm = np.sqrt(np.add.reduce(w * w, axis=1, keepdims=True))
    w = w / norm
    # ±1.0 by the sign of each largest-magnitude entry (the first of ties);
    # multiplying by it is exact. For one response, v is the sign itself.
    top = w[np.arange(len(w)), np.abs(w).argmax(1)]
    sign = np.where(top < 0, -1.0, 1.0)[:, None]
    w *= sign
    return w, sign if v is None else v * sign, norm[:, 0], eig


def _simpls(X: np.ndarray, Y: np.ndarray, n_lv: int, tape: dict | None = None):
    """SIMPLS of each ``X[s]`` (n, p) on ``Y[s]`` (n, m), all members at once,
    with one factor count for the whole stack.

    The stack stops at the first factor where any member's covariance is
    exhausted or its score norm underflows, so every member is the separate
    fit of it at that count; `DegenerateProblemError` if that is the first
    factor. Returns ``(W, P, Q, B)``: the factors (one column per latent
    variable) and the coefficients (S, p, m). A ``tape`` dict receives, for
    `_simpls_adjoint`, each factor's covariance, direction data, scores and
    factors, factor k of member s at entry [s, k] of each array.
    """
    S, n, p = X.shape
    m = Y.shape[2]
    a_max = min(n_lv, n, p)
    Xt, Yt = X.swapaxes(1, 2), Y.swapaxes(1, 2)
    C = Yt @ X  # (S, m, p) cross-covariances
    floor = _COV_EXHAUSTED_REL * np.sqrt(np.add.reduce(C * C, axis=(1, 2)))
    W, P, Q = (np.empty((S, d, a_max)) for d in (p, p, m))
    if tape is not None:
        shapes = dict(C=(m, p), v=(m,), norm=(), t=(n,), tt=(), w=(p,), p=(p,),
                      q=(m,))
        if m > 1:
            shapes.update(eig_values=(m,), eig_vectors=(m, m))
        tape.update({key: np.empty((S, a_max, *shape)) for key, shape in shapes.items()})

    k = 0
    while k < a_max:
        if not (np.sqrt(np.add.reduce(C * C, axis=(1, 2))) > floor).all():
            break
        w, v, norm, eig = _directions(C)
        t = (X @ w[:, :, None])[:, :, 0]
        tt = np.add.reduce(t * t, axis=1)
        if not (tt >= _SCORE_NORM_FLOOR * n).all():
            break
        q = (Yt @ t[:, :, None])[:, :, 0] / tt[:, None]
        pv = (Xt @ t[:, :, None])[:, :, 0] / tt[:, None]
        W[:, :, k], Q[:, :, k], P[:, :, k] = w, q, pv
        if tape is not None:
            step = dict(C=C, v=v, norm=norm, t=t, tt=tt, w=w, p=pv, q=q)
            if eig is not None:
                step.update(eig_values=eig[0], eig_vectors=eig[1])
            for key, value in step.items():
                tape[key][:, k] = value
        k += 1
        if k < a_max:
            # Deflate: remove the span of the accumulated X-loadings from the
            # covariance rows so the next direction is extracted from what is
            # left, C - C P (PᵀP)⁻¹ Pᵀ, with the solve on the small side.
            Pk = P[:, :, :k]
            Pkt = Pk.swapaxes(1, 2)
            A = np.linalg.solve(Pkt @ Pk, (C @ Pk).swapaxes(1, 2))
            C = C - A.swapaxes(1, 2) @ Pkt

    if k == 0:
        raise DegenerateProblemError("rank exhausted before extracting any factor")
    if tape is not None:
        tape.update({key: value[:, :k] for key, value in tape.items()})
    W, P, Q = (v[:, :, :k] for v in (W, P, Q))
    return W, P, Q, _coef(W, P, Q)


def _simpls_adjoint(X: np.ndarray, Y: np.ndarray, tape: dict, B_bar: np.ndarray):
    """Reverse pass of `_simpls` through the ``tape`` it recorded: the
    derivative of ``⟨B_bar, B⟩`` by each ``X[s]``, where ``B`` are the
    coefficients and ``B_bar`` (S, p, m) their adjoints.

    Returns it in low-rank form ``(A, G)``, ``X̄[s] = A[s] G[s]ᵀ`` with
    ``A`` (S, n, r) and ``G`` (S, p, r), ``r = 2·a + m`` for the stack's
    ``a`` factors: the columns pair each score ``t_k`` with ``p̄_k/tt_k``,
    each ``t̄_k`` with the direction ``w_k``, and ``Y`` with ``C̄₀ᵀ``. In
    exact arithmetic the scores are orthogonal, so ``PᵀW = I`` and the
    coefficients are ``Σ_k w_k q_kᵀ``; the deflation is
    ``C_{k+1} = C_k (I - Π_k)`` with ``Π_k`` the projector onto the first
    k + 1 loadings, and for m > 1 the direction's eigenvector is
    differentiated by the symmetric eigenvector adjoint (Magnus 1985).
    Raises `DegenerateProblemError` where that eigenvector's top gap is
    below ``_EIGEN_GAP_REL`` of its eigenvalue.
    """
    m = Y.shape[2]
    w, q, pv, t, tt = (tape[key] for key in ("w", "q", "p", "t", "tt"))
    w_bar = q @ B_bar.swapaxes(1, 2)  # row k: B̄ q_k
    q_bar = w @ B_bar  # row k: B̄ᵀ w_k
    p_bar = np.zeros_like(pv)
    t_bar = np.empty_like(t)
    C_bar = np.zeros_like(tape["C"][:, 0])  # adjoint of the next covariance
    a = w.shape[1]
    Xt = X.swapaxes(1, 2)
    for k in reversed(range(a)):
        C_k = tape["C"][:, k]
        if k + 1 < a:
            Pk = pv[:, : k + 1]  # loadings as rows
            Pkt = Pk.swapaxes(1, 2)
            Z = np.linalg.solve(Pk @ Pkt, Pk)  # (PᵀP)⁻¹Pᵀ
            Zt = Z.swapaxes(1, 2)
            CbZ = C_bar @ Zt
            M = -(CbZ.swapaxes(1, 2) @ C_k + (C_k @ Zt).swapaxes(1, 2) @ C_bar)
            p_bar[:, : k + 1] += M - (M @ Pkt) @ Z
            C_bar = C_bar - CbZ @ Pk
        ttk = tt[:, k, None]
        tt_bar = -(np.add.reduce(p_bar[:, k] * pv[:, k], axis=1, keepdims=True)
                   + np.add.reduce(q_bar[:, k] * q[:, k], axis=1, keepdims=True)) / ttk
        tb = ((X @ p_bar[:, k, :, None])[:, :, 0]
              + (Y @ q_bar[:, k, :, None])[:, :, 0]) / ttk + 2.0 * tt_bar * t[:, k]
        t_bar[:, k] = tb
        wb = w_bar[:, k] + (Xt @ tb[:, :, None])[:, :, 0]
        wk, vk, norm = w[:, k], tape["v"][:, k], tape["norm"][:, k, None]
        u_bar = (wb - wk * np.add.reduce(wk * wb, axis=1, keepdims=True)) / norm
        C_bar = C_bar + vk[:, :, None] * u_bar[:, None, :]
        if m > 1:
            # w = Cᵀv/‖Cᵀv‖, v the top eigenvector of C Cᵀ: v̄ = C ū, and
            # dv = Σ_j e_j e_jᵀ d(C Cᵀ) v / (λ_top - λ_j) over the other
            # eigenvectors e_j, so C̄ += (M̄ + M̄ᵀ) C for M̄ = a vᵀ, with
            # a = Σ_j e_j (e_jᵀ v̄) / (λ_top - λ_j).
            lam, E = tape["eig_values"][:, k], tape["eig_vectors"][:, k, :, :-1]
            gap = lam[:, -1:] - lam[:, :-1]
            if (gap <= _EIGEN_GAP_REL * np.abs(lam[:, -1:])).any():
                raise DegenerateProblemError(
                    "top eigenvalue of the covariance is not separated"
                )
            v_bar = np.einsum("smp,sp->sm", C_k, u_bar)
            a_vec = np.einsum("smj,sj->sm", E, np.einsum("smj,sm->sj", E, v_bar) / gap)
            C_bar = (C_bar + a_vec[:, :, None] * (norm * wk)[:, None, :]
                     + vk[:, :, None] * np.einsum("smp,sm->sp", C_k, a_vec)[:, None, :])
    A = np.concatenate([t.swapaxes(1, 2), t_bar.swapaxes(1, 2), Y], axis=2)
    G = np.concatenate([(p_bar / tt[:, :, None]).swapaxes(1, 2), w.swapaxes(1, 2),
                        C_bar.swapaxes(1, 2)], axis=2)
    return A, G


def _coef(W: np.ndarray, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Coefficients ``W (PᵀW)⁻¹ Qᵀ`` (..., p, m) of factor blocks W, P (..., p, a)
    and Q (..., m, a); raises `DegenerateProblemError` if a ``PᵀW`` is too
    ill-conditioned.
    """
    PtW = np.swapaxes(P, -1, -2) @ W
    if np.any(np.linalg.cond(PtW) > _MAX_CONDITION):
        raise DegenerateProblemError("loadings-weights system is too ill-conditioned")
    return W @ np.linalg.solve(PtW, np.swapaxes(Q, -1, -2))


def coef_path(W: np.ndarray, P: np.ndarray, Q: np.ndarray, lv_max: int) -> np.ndarray:
    """Coefficients (a, p, m) of the fits with 1, 2, ..., ``lv_max`` factors,
    from the factors W, P (p, k) and Q (m, k) of one `_simpls` fit at
    ``lv_max`` (one member of its stack).

    SIMPLS extracts one factor at a time, so the first ``a`` factors of a
    fit are the ``a``-factor fit: entry ``a-1`` is `_coef` of them, the
    formula `_simpls` uses. A fit that ran out of rank at ``k`` factors is
    the fit at every larger count too, so its last entry repeats. The path
    ends before the first prefix whose ``PᵀW`` block is too
    ill-conditioned, where a fit at that count raises.
    """
    k = W.shape[1]
    path = []
    for a in range(1, k + 1):
        try:
            path.append(_coef(W[:, :a], P[:, :a], Q[:, :a]))
        except DegenerateProblemError:
            return np.array(path).reshape(len(path), W.shape[0], Q.shape[0])
    return np.array(path)[np.minimum(np.arange(lv_max), k - 1)]
