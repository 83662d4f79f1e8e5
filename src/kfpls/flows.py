"""Kernel parameter learning by stochastic minibatch cross-validation.

Each iteration draws a random minibatch and several random sub-batches of
it, and refits kernel PLS on every sub-batch. A kernel under which the
sub-batch refits agree with the minibatch generalizes across subsets, so
the iteration loss measures that agreement and is driven toward zero by
gradient steps on the log kernel parameters. Each iteration takes one
gradient and one step of ``learning_rate`` (`update_theta`): vanilla and
Polyak take the gradient at the current parameters, Nesterov at the
lookahead point ``theta + momentum * (theta - prev_theta)``.

One engine, `_batch_losses`, computes both losses from one plain Gram of
the minibatch. A draw's sub-batches are one (S, n_sub) index array and
are fitted as one stack: their blocks are gathered at once, take the
ridge on their diagonals and go through `kpls.fit_grams`, the fit
`fit_kpls` makes, for the whole stack. A stack has one factor count:
where one sub-batch's fit runs out of rank, every fit of its stack stops
at that count. The default, ``cv``, scores each sub-batch model's
predictions of the whole minibatch against the minibatch responses,
relative to the variance baseline: nonnegative, near one for a kernel
that predicts nothing, small when models fitted on any subset predict
the rest. The predictions of all sub-batch models come from one product
of the plain Gram with their `kpls.affine_coef` coefficients scattered
onto their rows, plus each fit's bias, so no cross kernel is centered.
``norm_ratio`` also fits the whole minibatch, as a second stack, and is
one minus the ratio of each sub-batch model's squared norm to the
minibatch one, each norm a coefficient quadratic form in the centered
Gram of its own fit. That is the classical kernel-flow quantity for
full-rank kernel regression, where the sub-batch fit is a projection of
the full fit. PLS truncation breaks that identity, letting the norm
ratio go negative and reward degenerate kernels, so it is not the
default.

The gradient is exact: `_loss_gradient` runs `_batch_losses` once, then one
reverse pass back through the residuals (or the norms), the SIMPLS loop
(`pls._simpls_adjoint`, on each fit's step records), the centering and the
gather. The loss depends on the parameters only through the plain Gram
``K`` and the ridge ``δ``, so the pass yields ``K̄ = ∂L/∂K`` and ``δ̄``, and
then ``∂L/∂log γ_i = γ_i ⟨K̄, K_i⟩``, ``∂L/∂log σ_i = γ_i ⟨K̄, ∂K_i/∂log σ_i⟩``
(an elementwise map of ``K_i`` and the distances, per family) and
``∂L/∂log δ = δ δ̄``. Each fit's adjoint is kept in low-rank form
``A Bᵀ``, on its members' rows of the minibatch like the affine
coefficients. `_factor_pair` writes every such block once, in a fixed
order, into the columns of one zeroed ``U`` and one zeroed ``V``, so
``K̄ = U Vᵀ`` is one product of two thin matrices.

A flow iteration is hundreds of numpy calls on small arrays, so their
per-call cost is a large share of it. Sums, norms and means here and in
`pls` and `kpls` are therefore `np.add.reduce` calls (a norm is its
square root, a mean its quotient by the count): the very reductions
numpy's wrappers make, so the bits are theirs.

A minibatch draw is one `_Workspace`: the sampler starts it on the
minibatch's squared distances, its responses and the sub-batch index
sets. The loss evaluations and the gradient on the draw read all of it
from there. `_Workspace.gather` takes each sub-batch's Gram from the
minibatch Gram with two ``take`` calls, its rows into one buffer and then
their columns into its member of the stack, so no index as large as the
stack is built. The workspace's buffers, reused from draw to draw, hold
the squared distances, ``d = sqrt(d2)`` (taken on the draw's first Gram
of a spec with a Matern family; no other family reads it), the plain
Gram (then ``K̄``), the gathered rows of one sub-batch, the sub-batch
Grams and, under ``norm_ratio``, the minibatch Gram copied as a stack of
one, which take the ridge and are centered in place, and the scratch of
the derivative maps; it keeps the family matrices of its last Gram for
the gradient and counts the run's loss evaluations and fits. A run keeps
one workspace, and nothing outlives the run.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DegenerateProblemError, FlowAbortError
from .kernels import _FAMILIES, KernelSpec, reads_d, train_sq_dists
from .kpls import affine_coef, fit_grams
from .pls import _simpls_adjoint

logger = logging.getLogger(__name__)
# Skips are counted in the trace, and printed only where logging is configured.
logger.addHandler(logging.NullHandler())

_NORM_FLOOR = 1e-30
_UPDATE_RULES = ("vanilla", "polyak", "nesterov")
_OBJECTIVES = ("cv", "norm_ratio")


@dataclass
class FlowConfig:
    """Settings for a kernel-flow run.

    ``batch_fraction`` of the data forms each iteration's minibatch and
    ``sub_fraction`` of the minibatch forms each sub-batch, so the
    sub-batch must still hold at least ``n_lv + 1`` rows. ``n_subsamples``
    sub-batches are averaged per iteration; more of them stabilizes the
    loss at the cost of proportionally more refits. Early stopping
    triggers after ``patience`` consecutive iterations in which the
    ``smoothing_window``-wide moving average of the loss improves by less
    than ``tol``. ``learning_rate`` is the step size of every update rule
    (``lr_decay`` scales it by ``1/sqrt(k + 1)`` at iteration ``k``), and
    ``momentum`` weighs the previous displacement under ``polyak`` and
    ``nesterov``. ``stratified`` samples batches proportionally per class
    (one-hot responses) to keep rare classes represented. Building a
    config checks every setting that does not depend on the data (a
    comparison that NaN fails rejects it); `validate` checks the rest
    against the dataset size.
    """

    n_iter: int = 300
    n_subsamples: int = 10
    batch_fraction: float = 0.5
    sub_fraction: float = 0.5
    n_lv: int = 3
    learning_rate: float = 0.25
    momentum: float = 0.9
    update_rule: str = "vanilla"
    seed: int | None = None
    smoothing_window: int = 20
    tol: float = 1e-5
    patience: int = 50
    stratified: bool = False
    lr_decay: bool = False
    objective: str = "cv"

    def __post_init__(self):
        """Reject settings that are invalid for any dataset (``ValueError``)."""
        if self.n_iter < 1:
            raise ValueError("n_iter must be >= 1")
        if self.n_subsamples < 1:
            raise ValueError("n_subsamples must be >= 1")
        if self.n_lv < 1:
            raise ValueError("n_lv must be >= 1")
        if not 0.0 < self.batch_fraction <= 1.0:
            raise ValueError("batch_fraction must be in (0, 1]")
        if not 0.0 < self.sub_fraction < 1.0:
            raise ValueError("sub_fraction must be in (0, 1)")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not 0.0 <= self.momentum <= 1.0:
            raise ValueError("momentum must be in [0, 1]")
        if self.update_rule not in _UPDATE_RULES:
            raise ValueError(
                f"unknown update rule {self.update_rule!r}; choose from {_UPDATE_RULES}"
            )
        if self.objective not in _OBJECTIVES:
            raise ValueError(
                f"unknown objective {self.objective!r}; choose from {_OBJECTIVES}"
            )
        if self.smoothing_window < 1:
            raise ValueError("smoothing_window must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if not 0.0 <= self.tol < math.inf:
            raise ValueError("tol must be nonnegative and finite")

    def validate(self, n_rows: int) -> tuple[int, int]:
        """Check settings against the dataset size; return batch sizes."""
        n_batch = math.ceil(self.batch_fraction * n_rows)
        n_sub = math.ceil(self.sub_fraction * n_batch)
        if n_batch < 2:
            raise ValueError("minibatch would have fewer than 2 rows")
        if n_sub < self.n_lv + 1:
            raise ValueError(
                f"sub-batch size {n_sub} cannot support n_lv={self.n_lv}; "
                "need at least n_lv + 1 rows"
            )
        return n_batch, n_sub


@dataclass
class FlowTrace:
    """Per-iteration history of a kernel-flow run."""

    iterations: np.ndarray
    theta: np.ndarray
    loss: np.ndarray
    smoothed_loss: np.ndarray
    gradients: np.ndarray
    grad_norms: np.ndarray
    best_theta: np.ndarray
    best_smoothed_loss: float
    iterations_run: int
    n_skipped: int
    n_resampled: int  # draws made again after a degenerate first attempt
    n_loss_evals: int  # `_batch_losses` evaluations, degenerate ones included
    n_fits: int  # stack members fitted by those evaluations
    converged: bool
    param_names: list = field(default_factory=list)

    def to_table(self) -> tuple[list, list]:
        """Header and rows for a flat tabular export; each row is the
        iteration (an int) and that iteration's floats."""
        header = ["iteration", "loss", *self.param_names, "grad_norm"]
        values = np.column_stack([self.loss, self.theta, self.grad_norms])
        return header, [(int(it), *row) for it, row in zip(self.iterations, values)]


class _Workspace:
    """One minibatch draw: its squared distances ``d2``, responses ``Y`` and
    sub-batch index sets ``subsets`` (S, n_sub), plus the buffers its loss
    evaluations and gradient share (see the module docstring). The buffers
    pass from draw to draw, so they are not allocated and paged in again
    for each one; so do the counts ``n_loss_evals`` and ``n_fits`` that
    `_batch_losses` keeps of the run's work.
    """

    def __init__(self):
        self._full = {}  # name -> reused buffer
        self.d2 = self.d = self.Y = self.subsets = None
        self.terms = []  # the family matrices of the last `gram`
        self.n_loss_evals = self.n_fits = 0  # counted by `_batch_losses`

    def start(self, d2, Y, subsets):
        """Begin a draw on the minibatch's squared distances ``d2``, its
        responses ``Y`` and the sorted index sets ``subsets`` (S, n_sub);
        ``d`` is taken by the first `gram` that reads it."""
        self.terms = []
        self.d2, self.d, self.Y, self.subsets = d2, None, Y, subsets
        return self

    def buffer(self, name, shape=None):
        """The reused buffer ``name`` of ``shape`` (default: the minibatch's)."""
        shape = self.d2.shape if shape is None else shape
        buf = self._full.get(name)
        if buf is None or buf.shape != shape:
            buf = self._full[name] = np.empty(shape)
        return buf

    def gram(self, spec):
        """Plain Gram of ``spec`` in its buffer: each family's matrix made by
        its `kernels._FAMILIES` function, as `kernel_matrix` makes that of a
        one-family spec, and kept in ``terms``; then weighted and summed with
        `kernel_matrix`'s products in its order, so bit for bit its result.
        The first Gram on the draw of a spec with a family that reads ``d``
        takes it into its buffer."""
        if self.d is None and reads_d(spec):
            self.d = np.sqrt(self.d2, out=self.buffer("d"))
        sigma, gamma = spec.sigma, spec.gamma
        self.terms = []  # the last evaluation's matrices go before these come
        self.terms = [_FAMILIES[name][0](self.d2, self.d, sigma[i])
                      for i, name in enumerate(spec.families)]
        out = np.multiply(gamma[0], self.terms[0], out=self.buffer("gram"))
        scratch = self.buffer("scratch")
        for i in range(1, len(spec.families)):
            out += np.multiply(gamma[i], self.terms[i], out=scratch)
        return out

    def gather(self, K_plain):
        """The sub-batch Grams (S, n_sub, n_sub) of ``K_plain``, in their
        buffer: each member's rows into one reused buffer, then their columns
        into its Gram."""
        S, n_sub = self.subsets.shape
        stack = self.buffer("stack", (S, n_sub, n_sub))
        rows = self.buffer("rows", (n_sub, len(K_plain)))
        # The indices are in range; "clip" lets take write straight into the buffers.
        for idx, K in zip(self.subsets, stack):
            K_plain.take(idx, axis=0, out=rows, mode="clip")
            rows.take(idx, axis=1, out=K, mode="clip")
        return stack

    def theta_gradient(self, spec, K_bar, delta_bar):
        """``∂L/∂θ`` of ``spec`` from the adjoint ``K_bar`` of the plain Gram
        that the last `gram` built and the ridge adjoint ``delta_bar``:
        ``⟨K_bar, γ_i ∂K_i/∂θ_j⟩`` per family parameter, ``δ δ̄`` for the
        ridge."""
        k = len(spec.families)
        grad = np.empty(spec.n_params)
        gamma, sigma = spec.gamma, spec.sigma
        out = self.buffer("scratch")
        for i, (name, term) in enumerate(zip(spec.families, self.terms)):
            slope = _FAMILIES[name][1](term, self.d2, self.d, sigma[i], out)
            grad[i] = gamma[i] * np.vdot(K_bar, slope)
            if k > 1:
                grad[k + i] = gamma[i] * np.vdot(K_bar, term)
        grad[-1] = spec.delta * delta_bar
        return grad


def _model_norms(coef, K_centered) -> np.ndarray:
    """Squared model norms: coefficient quadratic forms in each fit's centered Gram."""
    values = np.add.reduce(coef * (K_centered @ coef), axis=(1, 2))
    if not np.isfinite(values).all():
        raise DegenerateProblemError("model norm is not finite")
    return values


def _cv_residuals(K_plain, idx, coef, col_means, y_means, Y):
    """Residuals (n_rows, S, m) of each fit's predictions of every minibatch
    row, and the fits' affine coefficients scattered onto their rows,
    ``G`` (n_rows, S, m): `affine_coef` for all fits in one product of the
    plain Gram with ``G``, plus each fit's bias."""
    n_rows, m = Y.shape
    n_sets = idx.shape[0]
    # A constant shift of each Gram column cancels exactly; the column means
    # spare the product cancellation when the kernel is flat and B is large.
    K_mean = np.add.reduce(K_plain, axis=0)
    K_mean /= n_rows
    C, b = affine_coef(coef, col_means - K_mean[idx], y_means)
    G = np.zeros((n_rows, n_sets, m))
    G[idx, np.arange(n_sets)[:, None]] = C
    KG = ((K_plain - K_mean) @ G.reshape(n_rows, -1)).reshape(n_rows, n_sets, m)
    return Y[:, None, :] - KG - b[:, 0, :], G


def _batch_losses(ws, n_lv, spec, objective):
    """``(loss, rhos, fits, scale)``: the average iteration loss over the
    sub-batches of the draw ``ws`` and the per-subset losses in row order
    (objectives: see the module docstring), then, for `_loss_gradient`, each
    fitted stack's ``(idx, factors, col_means, y_means, K_c, R, G)``
    (`kpls.fit_grams`; `_cv_residuals` under ``cv``, else None) and the
    loss's scale. The sub-batches are one stack, with one factor count, and
    ``norm_ratio`` fits the minibatch as a second.
    """
    ws.n_loss_evals += 1
    K_plain = ws.gram(spec)
    Y = ws.Y
    stacks = [(ws.subsets, ws.gather(K_plain))]
    if objective == "norm_ratio":
        whole = ws.buffer("whole", (1, *K_plain.shape))
        whole[0] = K_plain
        stacks.append((np.arange(len(Y))[None], whole))
    else:
        denom = float(np.add.reduce((Y - np.add.reduce(Y, axis=0) / len(Y)) ** 2,
                                    axis=None))
        if denom < _NORM_FLOOR:
            raise DegenerateProblemError("minibatch responses are constant")
    values, fits = [], []
    for idx, K in stacks:
        ws.n_fits += len(K)
        K.reshape(len(K), -1)[:, :: K.shape[1] + 1] += spec.delta  # each diagonal
        factors, means, y_means, K_c = fit_grams(K, Y[idx], n_lv)
        R = G = None
        if objective == "norm_ratio":
            values.append(_model_norms(factors[3], K_c))
        else:
            R, G = _cv_residuals(K_plain, idx, factors[3], means, y_means, Y)
            values.append(np.add.reduce(R ** 2, axis=(0, 2)))
        fits.append((idx, factors, means, y_means, K_c, R, G))
    if objective == "norm_ratio":
        norm_b = values[1][0]
        if abs(norm_b) < _NORM_FLOOR:
            raise DegenerateProblemError("minibatch norm is zero; loss undefined")
        rhos = 1.0 - values[0] / norm_b
    else:
        rhos = values[0] / denom
    if not np.isfinite(rhos).all():
        raise DegenerateProblemError("loss is not finite")
    loss = float(np.add.reduce(rhos) / len(rhos))
    return loss, rhos.tolist(), fits, norm_b if objective == "norm_ratio" else denom


def _factor_pair(blocks, n_rows):
    """``(U, V)`` (n_rows, width) of ``∂L/∂K_plain = U Vᵀ`` from the reverse
    pass's low-rank blocks, in their order. A block ``(idx, A, B)`` is either
    a pair of (n_rows, S, r) factors (``idx`` None) or a fit stack's
    (S, n, r) pair on its (S, n) rows ``idx``, zero on every other row. Each
    block is written once, through an (n_rows, S, r) view of its columns.
    """
    shapes = [A.shape[1:] if idx is None else (A.shape[0], A.shape[2])
              for idx, A, _ in blocks]  # (S, r) of each block
    U, V = (np.zeros((n_rows, sum(S * r for S, r in shapes))) for _ in range(2))
    lo = 0
    for (idx, *factors), (S, r) in zip(blocks, shapes):
        for factor, out in zip(factors, (U, V)):
            view = out[:, lo : lo + S * r].reshape(n_rows, S, r)
            if idx is None:
                view[...] = factor
            else:
                view[idx, np.arange(S)[:, None]] = factor
        lo += S * r
    return U, V


def _loss_gradient(ws, n_lv, spec, objective):
    """``(loss, gradient)``: the iteration loss of `_batch_losses` on the draw
    ``ws`` and its exact gradient in ``spec.theta()``, from one reverse pass
    through that evaluation (see the module docstring). ``K̄`` is one product
    of the `_factor_pair` of the pass's blocks, written into the plain
    Gram's buffer. Raises `DegenerateProblemError` where the loss or the
    gradient is not finite.
    """
    loss, _, fits, scale = _batch_losses(ws, n_lv, spec, objective)
    K_plain = ws.buffer("gram")  # the plain Gram that evaluation built
    n_rows, n_sets = ws.Y.shape[0], ws.subsets.shape[0]
    blocks = []  # ∂L/∂K_plain = U Vᵀ, see `_factor_pair`
    delta_bar = 0.0
    for pos, (idx, factors, col_means, y_means, K_c, R, G) in enumerate(fits):
        coef = factors[3]
        S, n = idx.shape
        if objective == "norm_ratio":
            # loss = mean over subsets of 1 - values / the minibatch's value
            nu = (1.0 - loss) / scale if pos else -1.0 / (n_sets * scale)
            coef_bar = 2.0 * nu * (K_c @ coef)
            direct = (nu * coef, coef)  # the quadratic form's own term
        else:
            # Each prediction is K_plain[:, idx] C + 1 (y_means - col_meansᵀ C),
            # col_means the mean of K_plain's block plus δ/n: the affine
            # coefficients C = H coef meet K_plain in both.
            rows = (idx, np.arange(S)[:, None])  # member s's rows of an (n_rows, S, ·)
            R_bar = R * (-2.0 / (scale * n_sets))
            r_sum = np.add.reduce(R_bar, axis=0)
            KR = (K_plain @ R_bar.reshape(n_rows, -1)).reshape(R_bar.shape)
            C_bar = KR[rows] - col_means[:, :, None] * r_sum[:, None, :]
            c_mean = np.add.reduce(C_bar, axis=1, keepdims=True)
            c_mean /= n
            coef_bar = C_bar - c_mean
            R_bar[rows] -= r_sum[:, None, :] / n
            blocks.append((None, R_bar, G))
            direct = None
        Y_c = ws.Y[idx] - y_means[:, None, :]
        A, B = _simpls_adjoint(K_c, Y_c, factors, coef_bar)
        if direct is not None:
            A, B = (np.concatenate([x, y], axis=2) for x, y in zip((A, B), direct))
        # The centered Gram is H K H: its adjoint H A Bᵀ H goes to the block
        # of K_plain on the member's rows, and its trace to the ridge.
        for F in (A, B):
            F_mean = np.add.reduce(F, axis=1, keepdims=True)
            F_mean /= n
            F -= F_mean
        delta_bar += float(np.add.reduce(A * B, axis=None))
        blocks.append((idx, A, B))
    U, V = _factor_pair(blocks, n_rows)
    # Nothing reads the plain Gram any more, so K̄ takes its buffer.
    K_bar = np.matmul(U, V.T, out=K_plain)
    grad = ws.theta_gradient(spec, K_bar, delta_bar)
    if not np.isfinite(grad).all():
        raise DegenerateProblemError("gradient is not finite")
    return loss, grad


def update_theta(
    theta: np.ndarray,
    prev_theta: np.ndarray,
    grad: np.ndarray,
    rule: str,
    learning_rate: float,
    momentum: float = 0.0,
) -> np.ndarray:
    """One parameter update step.

    vanilla:   theta - lr * grad
    polyak:    theta - lr * grad + momentum * (theta - prev_theta)
    nesterov:  theta + momentum * (theta - prev_theta) - lr * grad

    For nesterov, ``grad`` is the gradient at the lookahead point
    ``theta + momentum * (theta - prev_theta)``; the caller evaluates it there.
    """
    theta = np.asarray(theta, dtype=float)
    prev_theta = np.asarray(prev_theta, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if theta.shape != prev_theta.shape:
        raise ValueError("theta and prev_theta shapes differ")
    if rule == "vanilla":
        return theta - learning_rate * grad
    if rule == "polyak":
        return theta - learning_rate * grad + momentum * (theta - prev_theta)
    if rule == "nesterov":
        return theta + momentum * (theta - prev_theta) - learning_rate * grad
    raise ValueError(f"unknown update rule {rule!r}; choose from {_UPDATE_RULES}")


def _stratified_choice(
    rng: np.random.Generator, labels: np.ndarray, size: int
) -> np.ndarray:
    """Proportional per-class sample of ``size`` indices, largest remainders
    first. No class is asked for more rows than it has: its exact share is
    at most its count, a whole number, so rounding up stays within it."""
    classes, counts = np.unique(labels, return_counts=True)
    exact = size * counts / labels.size
    base = np.floor(exact).astype(int)
    shortfall = size - int(base.sum())
    order = np.argsort(-(exact - base), kind="stable")
    base[order[:shortfall]] += 1
    picks = []
    for cls, take in zip(classes, base):
        if take:
            picks.append(rng.choice(np.flatnonzero(labels == cls), size=take,
                                    replace=False))
    return np.sort(np.concatenate(picks))


def _sample_indices(
    rng: np.random.Generator, n: int, size: int, labels: np.ndarray | None
) -> np.ndarray:
    """``size`` distinct sorted indices below ``n``, per class of ``labels``
    (one per index) if given."""
    if labels is None:
        return np.sort(rng.choice(n, size=size, replace=False))
    return _stratified_choice(rng, labels, size)


def _batch_sampler(X, Y, config: FlowConfig):
    """Check ``config`` against the data; return ``draw(rng)``, which samples
    one minibatch and ``config.n_subsamples`` sorted index sets of ``n_sub``
    rows into it and returns the run's `_Workspace` started on that draw.
    """
    X = np.asarray(X, dtype=float)
    Y = np.atleast_2d(np.asarray(Y, dtype=float).T).T
    if X.shape[0] != Y.shape[0]:
        raise ValueError("X and Y row counts differ")
    n_batch, n_sub = config.validate(X.shape[0])
    labels = np.argmax(Y, axis=1) if config.stratified else None
    ws = _Workspace()

    def draw(rng: np.random.Generator):
        batch_idx = _sample_indices(rng, X.shape[0], n_batch, labels)
        batch_labels = labels[batch_idx] if labels is not None else None
        subsets = np.stack([
            _sample_indices(rng, n_batch, n_sub, batch_labels)
            for _ in range(config.n_subsamples)
        ])
        shape = (batch_idx.size, batch_idx.size)
        d2 = train_sq_dists(X[batch_idx], out=ws.buffer("d2", shape),
                            work=ws.buffer("d", shape))
        return ws.start(d2, Y[batch_idx], subsets)

    return draw


def run_kernel_flows(
    X: np.ndarray,
    Y: np.ndarray,
    config: FlowConfig,
    spec0: KernelSpec,
) -> tuple[KernelSpec, FlowTrace]:
    """Learn kernel parameters by stochastic minibatch descent.

    Returns the spec whose smoothed loss was lowest along the run, plus the
    full trace. Deterministic for a fixed seed. Iterations whose loss or
    gradient is degenerate (for example a sub-batch that drew a single
    class, or a covariance whose top eigenvalue is not separated) are
    resampled once and then skipped; a run with more than half of its
    iterations skipped aborts. The trace counts both: ``n_resampled``
    draws made again and ``n_skipped`` iterations skipped. It also counts
    the run's work, those draws' included: ``n_loss_evals`` evaluations of
    `_batch_losses` (two per Nesterov iteration) and ``n_fits`` stack
    members fitted by them (under ``norm_ratio``, the minibatch fit too).
    """
    draw = _batch_sampler(X, Y, config)
    rng = np.random.default_rng(config.seed)
    theta = spec0.theta()
    prev_theta = theta.copy()

    it_rec, theta_rec, loss_rec, smooth_rec, grad_rec, gnorm_rec = [], [], [], [], [], []
    best_smoothed = math.inf
    best_theta = theta.copy()
    stall = 0
    n_skipped = n_resampled = 0
    converged = False
    iterations_run = 0

    for it in range(config.n_iter):
        iterations_run = it + 1
        result = None
        for attempt in range(2):
            ws = draw(rng)
            spec_now = spec0.replace_theta(theta)
            try:
                if config.update_rule == "nesterov":
                    rho_bar = _batch_losses(ws, config.n_lv, spec_now, config.objective)[0]
                    lookahead = spec0.replace_theta(
                        theta + config.momentum * (theta - prev_theta)
                    )
                    _, grad = _loss_gradient(ws, config.n_lv, lookahead, config.objective)
                else:
                    rho_bar, grad = _loss_gradient(ws, config.n_lv, spec_now,
                                                   config.objective)
                rate = config.learning_rate
                if config.lr_decay:
                    rate *= 1.0 / math.sqrt(it + 1)
                new_theta = update_theta(
                    theta, prev_theta, grad, config.update_rule, rate, config.momentum
                )
                result = (rho_bar, grad, new_theta)
                break
            except DegenerateProblemError as exc:
                if attempt == 0:
                    n_resampled += 1
                    logger.debug("iteration %d degenerate (%s); resampling", it, exc)
                else:
                    logger.warning("iteration %d skipped: %s", it, exc)
        if result is None:
            n_skipped += 1
            continue

        rho_bar, grad, new_theta = result
        it_rec.append(it)
        theta_rec.append(theta.copy())
        loss_rec.append(rho_bar)
        grad_rec.append(grad)
        gnorm_rec.append(float(np.linalg.norm(grad)))

        window = loss_rec[-config.smoothing_window :]
        smoothed = float(np.mean(window))
        smooth_rec.append(smoothed)
        if smoothed < best_smoothed - config.tol:
            stall = 0
        else:
            stall += 1
        if smoothed < best_smoothed:
            best_smoothed = smoothed
            best_theta = theta.copy()

        prev_theta, theta = theta, new_theta

        if stall >= config.patience:
            converged = True
            break

    if n_skipped > 0.5 * iterations_run:
        raise FlowAbortError(
            f"{n_skipped} of {iterations_run} iterations were degenerate; "
            "the kernel family or batch settings do not suit this data"
        )

    dim = theta.size
    trace = FlowTrace(
        iterations=np.asarray(it_rec, dtype=int),
        theta=np.asarray(theta_rec).reshape(len(theta_rec), dim),
        loss=np.asarray(loss_rec),
        smoothed_loss=np.asarray(smooth_rec),
        gradients=np.asarray(grad_rec).reshape(len(grad_rec), dim),
        grad_norms=np.asarray(gnorm_rec),
        best_theta=best_theta,
        best_smoothed_loss=best_smoothed,
        iterations_run=iterations_run,
        n_skipped=n_skipped,
        n_resampled=n_resampled,
        n_loss_evals=ws.n_loss_evals,
        n_fits=ws.n_fits,
        converged=converged,
        param_names=spec0.param_names(),
    )
    return spec0.replace_theta(best_theta), trace


def loss_surface(
    X: np.ndarray,
    Y: np.ndarray,
    specs: list,
    config: FlowConfig,
    n_repeats: int = 5,
) -> list:
    """Averaged loss at fixed parameter settings, for mapping the loss landscape.

    Every spec in ``specs`` is evaluated on the same ``n_repeats`` sampled
    minibatch/sub-batch draws (so points are comparable), each draw
    averaging ``config.n_subsamples`` sub-batches. Returns one
    ``(spec, mean, std)`` row per grid point; degenerate evaluations
    contribute NaN.
    """
    if not specs:
        raise ValueError("empty parameter grid")
    draw = _batch_sampler(X, Y, config)
    values = np.full((len(specs), n_repeats), math.nan)
    for j, child in enumerate(np.random.SeedSequence(config.seed).spawn(n_repeats)):
        ws = draw(np.random.default_rng(child))
        for s, spec in enumerate(specs):
            try:
                values[s, j] = _batch_losses(ws, config.n_lv, spec, config.objective)[0]
            except DegenerateProblemError:
                pass

    rows = []
    for spec, row in zip(specs, values):
        good = row[np.isfinite(row)]
        if good.size:
            rows.append((spec, float(good.mean()), float(good.std())))
        else:
            rows.append((spec, math.nan, math.nan))
    return rows
