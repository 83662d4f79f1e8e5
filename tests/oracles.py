"""Independent reference implementations used to pin expected test values.

Everything here is written as plain, loop-heavy transcriptions of the
underlying formulas, deliberately sharing no code with the package:
distances and kernels are evaluated pairwise in Python loops, centering
uses explicit ones-matrices, the factor extraction follows the algorithm
line by line, and the dominant singular direction comes from a hand-rolled
Jacobi eigensolver rather than LAPACK. Slow but trustworthy on the small
instances the tests use.
"""

import math

import numpy as np


def least_squares_prediction(X, Y):
    """Normal-equations least squares fit, predicting the training rows."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    coef = np.linalg.solve(X.T @ X, X.T @ Y)
    return X @ coef


def jacobi_dominant_right_singular_vector(C, sweeps=100, tol=1e-14):
    """Dominant right singular direction of C via Jacobi rotations on C'C."""
    C = np.asarray(C, dtype=float)
    A = C.T @ C
    p = A.shape[0]
    V = np.eye(p)
    for _ in range(sweeps):
        off = 0.0
        for i in range(p - 1):
            for j in range(i + 1, p):
                off = max(off, abs(A[i, j]))
                if abs(A[i, j]) < tol:
                    continue
                beta = (A[j, j] - A[i, i]) / (2.0 * A[i, j])
                t = math.copysign(1.0, beta) / (abs(beta) + math.hypot(1.0, beta))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                R = np.eye(p)
                R[i, i] = R[j, j] = c
                R[i, j] = s
                R[j, i] = -s
                A = R.T @ A @ R
                V = V @ R
        if off < tol:
            break
    k = int(np.argmax(np.diag(A)))
    v = V[:, k]
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    return v


def simpls_literal(X, Y, n_lv):
    """Line-by-line factor extraction; returns (W, P, Q, T, U, B)."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    C = Y.T @ X
    ws, ts, qs, us, ps = [], [], [], [], []
    for _ in range(n_lv):
        w = jacobi_dominant_right_singular_vector(C)
        t = X @ w
        tt = float(t @ t)
        q = Y.T @ t / tt
        u = Y @ q / float(q @ q)
        pv = X.T @ t / tt
        ws.append(w)
        ts.append(t)
        qs.append(q)
        us.append(u)
        ps.append(pv)
        P = np.column_stack(ps)
        C = C - (C @ P) @ np.linalg.inv(P.T @ P) @ P.T
    W = np.column_stack(ws)
    P = np.column_stack(ps)
    Q = np.column_stack(qs)
    T = np.column_stack(ts)
    U = np.column_stack(us)
    B = W @ np.linalg.inv(P.T @ W) @ Q.T
    return W, P, Q, T, U, B


def kernel_value(families, sigmas, gammas, x, y):
    """Pairwise kernel value from explicit scalar formulas."""
    d2 = 0.0
    for a, b in zip(x, y):
        d2 += (a - b) ** 2
    d = math.sqrt(d2)
    total = 0.0
    for name, sigma, gamma in zip(families, sigmas, gammas):
        if name == "gaussian":
            val = math.exp(-d2 / (2.0 * sigma**2))
        elif name == "matern12":
            val = math.exp(-d / sigma)
        elif name == "matern32":
            val = (1.0 + math.sqrt(3.0) * d / sigma) * math.exp(
                -math.sqrt(3.0) * d / sigma
            )
        elif name == "matern52":
            val = (
                1.0 + math.sqrt(5.0) * d / sigma + 5.0 * d2 / (3.0 * sigma**2)
            ) * math.exp(-math.sqrt(5.0) * d / sigma)
        elif name == "cauchy":
            val = 1.0 / (1.0 + d2 / sigma**2)
        else:
            raise ValueError(name)
        total += gamma * val
    return total


def gram_literal(families, sigmas, gammas, delta, X):
    """Training Gram from pairwise loops, ridge on the diagonal."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    K = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            K[i, j] = kernel_value(families, sigmas, gammas, X[i], X[j])
    return K + delta * np.eye(n)


def center_train_literal(K):
    """Double centering with the explicit projector matrix."""
    n = K.shape[0]
    H = np.eye(n) - np.ones((n, n)) / n
    return H @ K @ H


def center_test_literal(K_test, K_train):
    """Test-kernel centering from the explicit ones-vector formula."""
    n = K_train.shape[0]
    q = K_test.shape[0]
    ones_q = np.ones((q, 1))
    ones_n = np.ones((n, 1))
    H = np.eye(n) - (ones_n @ ones_n.T) / n
    return (K_test - (ones_q @ ones_n.T @ K_train) / n) @ H


def kpls_coef_literal(families, sigmas, gammas, delta, X, Y, n_lv):
    """Kernel-PLS coefficients: literal Gram, centering, factor extraction.

    Follows the package convention of column-centering Y before the fit.
    Returns (B, K_centered, y_means).
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    K = gram_literal(families, sigmas, gammas, delta, X)
    K_centered = center_train_literal(K)
    y_means = Y.mean(axis=0)
    _, _, _, _, _, B = simpls_literal(K_centered, Y - y_means, n_lv)
    return B, K_centered, y_means


def flow_loss_literal(families, sigmas, gammas, delta, X_b, Y_b, X_s, Y_s, n_lv):
    """Minibatch/sub-batch loss from two independent literal fits."""
    B_b, K_b, _ = kpls_coef_literal(families, sigmas, gammas, delta, X_b, Y_b, n_lv)
    B_s, K_s, _ = kpls_coef_literal(families, sigmas, gammas, delta, X_s, Y_s, n_lv)
    norm_b = float(np.trace(B_b.T @ K_b @ B_b))
    norm_s = float(np.trace(B_s.T @ K_s @ B_s))
    return 1.0 - norm_s / norm_b


def cv_loss_literal(families, sigmas, gammas, delta, X_b, Y_b, idx, n_lv):
    """Subset-validation loss: a literal fit on minibatch rows ``idx``
    predicts every minibatch row; squared residual over the variance baseline.
    """
    X_b = np.asarray(X_b, dtype=float)
    Y_b = np.asarray(Y_b, dtype=float)
    if Y_b.ndim == 1:
        Y_b = Y_b[:, None]
    X_s = X_b[idx]
    B, _, y_means = kpls_coef_literal(
        families, sigmas, gammas, delta, X_s, Y_b[idx], n_lv
    )
    K_train = gram_literal(families, sigmas, gammas, delta, X_s)
    K_cross = np.empty((X_b.shape[0], X_s.shape[0]))
    for i in range(X_b.shape[0]):
        for j in range(X_s.shape[0]):
            K_cross[i, j] = kernel_value(families, sigmas, gammas, X_b[i], X_s[j])
    pred = center_test_literal(K_cross, K_train) @ B + y_means
    baseline = Y_b - Y_b.mean(axis=0)
    return float(np.sum((Y_b - pred) ** 2) / np.sum(baseline**2))


def richardson_gradient(f, theta, h=1e-3):
    """Fourth-order finite-difference gradient by Richardson extrapolation."""
    theta = np.asarray(theta, dtype=float)
    grad = np.empty_like(theta)
    for i in range(theta.size):
        def diff(step):
            plus = theta.copy()
            minus = theta.copy()
            plus[i] += step
            minus[i] -= step
            return (f(plus) - f(minus)) / (2.0 * step)

        grad[i] = (4.0 * diff(h / 2.0) - diff(h)) / 3.0
    return grad
