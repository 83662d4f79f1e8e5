"""Kernel parameter learning by stochastic minibatch cross-validation.

Each iteration draws a random minibatch and several random sub-batches of
it, and refits kernel PLS on every sub-batch. A kernel under which the
sub-batch refits agree with the minibatch generalizes across subsets, so
the iteration loss measures that agreement and is driven toward zero by
gradient steps on the log kernel parameters. Gradients come from central
finite differences; the parameter dimension is small enough that this
costs only a handful of refits per step. Each iteration takes one gradient
and one step of ``learning_rate`` (`update_theta`): vanilla and Polyak
take the gradient at the current parameters, Nesterov at the lookahead
point ``theta + momentum * (theta - prev_theta)``.

One engine, `_batch_losses`, computes both losses from one plain Gram of
the minibatch. The sub-batches of one size are fitted as one stack: their
ridge blocks are gathered at once, double-centered by
`kernels.center_train` and fitted by `pls.fit_pls_stack`, which runs the
SIMPLS loop of `fit_kpls` over the whole stack. The default, ``cv``,
scores each sub-batch model's predictions of the whole minibatch against
the minibatch responses, relative to the variance baseline: nonnegative,
near one for a kernel that predicts nothing, small when models fitted on
any subset predict the rest. The predictions of all sub-batch models come
from one product of the plain Gram with their `kpls.affine_coef`
coefficients scattered onto their rows, plus each fit's bias, so no
cross kernel is centered. ``norm_ratio`` also fits the whole minibatch
and is one minus the ratio of each sub-batch model's squared norm to the
minibatch one, each norm a coefficient quadratic form in the centered
Gram of its own fit. That is the classical kernel-flow quantity for
full-rank kernel regression, where the sub-batch fit is a projection of
the full fit. PLS truncation breaks that identity, letting the norm ratio
go negative and reward degenerate kernels, so it is not the default.

Every loss evaluation on one minibatch draw (the iteration loss and each
finite-difference probe) reads one `_Workspace`, started when the draw is
made. It takes ``d = sqrt(d2)`` once and holds each family's matrix at the
probe centre, keyed by family and log length-scale: a probe of a weight or
of the ridge computes no kernel, a probe of length-scale ``i`` computes
family ``i`` only and uses that term once. The terms are weighted and
summed with `kernel_matrix`'s products in its order, so every Gram is the
one a fresh evaluation gives, bit for bit. The plain Gram and each size
group's gathered sub-batch stack (and its gather index) live in buffers
that every evaluation reuses; the stack takes the ridge and is centered
in place. A run keeps one workspace, so the buffers pass from draw to
draw, and nothing outlives the run.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DegenerateProblemError, FlowAbortError
from .kernels import KernelSpec, center_train, kernel_matrix, train_sq_dists
from .kpls import affine_coef
from .pls import fit_pls_stack

logger = logging.getLogger(__name__)

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
    fd_step: float = 1e-4
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
        if not 0.0 < self.fd_step < math.inf:
            raise ValueError("fd_step must be positive and finite")

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
    converged: bool
    param_names: list = field(default_factory=list)

    def to_table(self) -> tuple[list, np.ndarray]:
        """Header and row matrix for a flat tabular export."""
        header = ["iteration", "loss", *self.param_names, "grad_norm"]
        rows = np.column_stack(
            [self.iterations, self.loss, self.theta, self.grad_norms]
        )
        return header, rows


class _Workspace:
    """What the loss evaluations on one minibatch draw share (see the module
    docstring). `start` begins a draw and `hold` sets the probe centre; the
    buffers pass from draw to draw, so they are not allocated and paged in
    again for each one.
    """

    def __init__(self):
        self._full = {}  # name -> reused buffer of the minibatch's shape
        self._stacks = {}  # (n, S, size) -> (index sets, flat index, stack buffer)
        self.clear()

    def clear(self):
        """Drop the draw's distances and family matrices; keep the buffers."""
        self.d2 = self.d = None
        self._terms = {}  # (family, log sigma) -> its matrix at the held point

    def start(self, d2):
        """Begin a draw on the minibatch's squared distances ``d2``."""
        self.clear()
        self.d2 = d2
        self.d = np.sqrt(d2, out=self._buffer("d"))
        return self

    def _buffer(self, name):
        buf = self._full.get(name)
        if buf is None or buf.shape != self.d2.shape:
            buf = self._full[name] = np.empty_like(self.d2)
        return buf

    def _term(self, spec, i):
        term = self._terms.get((spec.families[i], float(spec.log_sigma[i])))
        return kernel_matrix(spec.member(i), self.d2, self.d) if term is None else term

    def hold(self, spec):
        """Keep the family matrices at ``spec``'s length-scales, and only those."""
        self._terms = {
            (name, float(spec.log_sigma[i])): self._term(spec, i)
            for i, name in enumerate(spec.families)
        }

    def gram(self, spec):
        """Plain Gram of ``spec`` in its buffer: the family terms weighted and
        summed with `kernel_matrix`'s products in its order, so bit for bit
        its result."""
        gamma = spec.gamma
        out = np.multiply(gamma[0], self._term(spec, 0), out=self._buffer("gram"))
        scratch = self._buffer("scratch")
        for i in range(1, len(spec.families)):
            out += np.multiply(gamma[i], self._term(spec, i), out=scratch)
        return out

    def stack(self, K_plain, idx):
        """The Grams (S, n, n) of the row sets ``idx`` (S, n) of ``K_plain``, in
        the buffer of that shape."""
        key = (K_plain.shape[1], *idx.shape)
        sets, flat, buf = self._stacks.get(key, (None, None, None))
        if sets is None:
            flat = np.empty((*idx.shape, idx.shape[1]), dtype=np.intp)
            buf = np.empty(flat.shape)
        if sets is None or not np.array_equal(sets, idx):
            np.add(idx[:, :, None] * K_plain.shape[1], idx[:, None, :], out=flat)
            self._stacks[key] = (idx, flat, buf)
        # The indices are in range; "clip" lets take write straight into `buf`.
        return np.take(K_plain, flat, out=buf, mode="clip")


def _fit_stack(K, Y_sets, n_lv, delta):
    """Kernel-PLS fits of a stack of plain Grams ``K`` (S, n, n) on ``Y_sets``
    (S, n, m). ``K`` takes the ridge and is centered in place. Returns
    ``(coef, col_means, y_means, K_centered)``, stacked."""
    K.reshape(len(K), -1)[:, :: K.shape[1] + 1] += delta  # each diagonal
    K_centered, col_means = center_train(K, out=K)
    y_means = Y_sets.mean(axis=1)
    coef = fit_pls_stack(K_centered, Y_sets - y_means[:, None, :], n_lv)
    return coef, col_means, y_means, K_centered


def _model_norms(coef, K_centered) -> np.ndarray:
    """Squared model norms: coefficient quadratic forms in each fit's centered Gram."""
    values = np.sum(coef * (K_centered @ coef), axis=(1, 2))
    if not np.all(np.isfinite(values)):
        raise DegenerateProblemError("model norm is not finite")
    return values


def _cv_sse(K_plain, idx, coef, col_means, y_means, Y) -> np.ndarray:
    """Squared residual sum of each fit's predictions of every minibatch row:
    `affine_coef` for all fits in one product of the plain Gram with their
    affine coefficients scattered onto their rows, plus each fit's bias."""
    n_rows, m = Y.shape
    n_sets = idx.shape[0]
    # A constant shift of each Gram column cancels exactly; the column means
    # spare the product cancellation when the kernel is flat and B is large.
    K_mean = K_plain.mean(axis=0)
    C, b = affine_coef(coef, col_means - K_mean[idx], y_means)
    G = np.zeros((n_rows, n_sets, m))
    np.add.at(G, (idx, np.arange(n_sets)[:, None]), C)
    KG = ((K_plain - K_mean) @ G.reshape(n_rows, -1)).reshape(n_rows, n_sets, m)
    return np.sum((Y[:, None, :] - KG - b[:, 0, :]) ** 2, axis=(0, 2))


def _batch_losses(batch, Y_batch, subsets, n_lv, spec, objective):
    """Average iteration loss over fixed sub-batch index sets, plus the
    per-subset losses in list order (objectives: see the module docstring).
    ``batch`` is the minibatch's squared distances or the `_Workspace` of
    its draw. Index sets of one size are fitted as one stack.
    """
    ws = batch if isinstance(batch, _Workspace) else _Workspace().start(batch)
    K_plain = ws.gram(spec)
    sets = list(subsets)
    if objective == "norm_ratio":
        sets.append(np.arange(Y_batch.shape[0]))
    else:
        denom = float(np.sum((Y_batch - Y_batch.mean(axis=0)) ** 2))
        if denom < _NORM_FLOOR:
            raise DegenerateProblemError("minibatch responses are constant")
    sizes = [idx.size for idx in sets]
    values = np.empty(len(sets))
    for size in sorted(set(sizes)):  # np.unique would import numpy.ma (~1 MB)
        members = [i for i, s in enumerate(sizes) if s == size]
        idx = np.stack([sets[i] for i in members])
        coef, means, y_means, K_c = _fit_stack(
            ws.stack(K_plain, idx), Y_batch[idx], n_lv, spec.delta
        )
        values[members] = (
            _model_norms(coef, K_c) if objective == "norm_ratio"
            else _cv_sse(K_plain, idx, coef, means, y_means, Y_batch)
        )
    if objective == "norm_ratio":
        norm_b = values[-1]
        if abs(norm_b) < _NORM_FLOOR:
            raise DegenerateProblemError("minibatch norm is zero; loss undefined")
        rhos = 1.0 - values[:-1] / norm_b
    else:
        rhos = values / denom
    if not np.all(np.isfinite(rhos)):
        raise DegenerateProblemError("loss is not finite")
    return float(np.mean(rhos)), rhos.tolist()


def _fd_gradient(
    ws: _Workspace,
    Y_batch,
    subsets,
    n_lv: int,
    spec: KernelSpec,
    theta: np.ndarray,
    step: float,
    objective: str,
) -> np.ndarray:
    """Central-difference gradient of the averaged loss in log-parameter space.

    The sub-batch index sets are held fixed across every probe evaluation,
    so the differences see one realization of the stochastic loss. The
    draw's workspace ``ws`` holds the family matrices at ``theta`` for every
    probe. A probe that fails or goes non-finite is retried once with half
    the step.
    """
    ws.hold(spec.replace_theta(theta))

    def avg_at(vec: np.ndarray) -> float:
        value, _ = _batch_losses(
            ws, Y_batch, subsets, n_lv, spec.replace_theta(vec), objective
        )
        return value

    grad = np.empty_like(theta)
    for i in range(theta.size):
        h = step
        for attempt in range(2):
            probe = theta.copy()
            try:
                probe[i] = theta[i] + h
                f_plus = avg_at(probe)
                probe[i] = theta[i] - h
                f_minus = avg_at(probe)
            except DegenerateProblemError:
                f_plus = f_minus = math.nan
            if math.isfinite(f_plus) and math.isfinite(f_minus):
                grad[i] = (f_plus - f_minus) / (2.0 * h)
                break
            if attempt == 0:
                h *= 0.5
            else:
                raise DegenerateProblemError(
                    f"loss not finite while probing parameter {i}, even at half step"
                )
    return grad


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
    """Proportional per-class sample of ``size`` indices, largest remainders first."""
    classes, counts = np.unique(labels, return_counts=True)
    exact = size * counts / labels.size
    base = np.floor(exact).astype(int)
    shortfall = size - int(base.sum())
    order = np.argsort(-(exact - base), kind="stable")
    base[order[:shortfall]] += 1
    picks = []
    for cls, take in zip(classes, base):
        pool = np.flatnonzero(labels == cls)
        take = min(take, pool.size)
        if take:
            picks.append(rng.choice(pool, size=take, replace=False))
    return np.sort(np.concatenate(picks))


def _sample_indices(
    rng: np.random.Generator, n: int, size: int, labels: np.ndarray | None
) -> np.ndarray:
    if labels is None:
        return np.sort(rng.choice(n, size=size, replace=False))
    return _stratified_choice(rng, labels, size)


def _batch_sampler(X, Y, config: FlowConfig):
    """Check ``config`` against the data; return ``draw(rng)``, which samples
    one minibatch and ``config.n_subsamples`` sorted index sets into its rows
    and returns ``(the run's _Workspace started on the minibatch, minibatch
    Y, index sets)``.
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
        subsets = [
            _sample_indices(rng, n_batch, n_sub, batch_labels)
            for _ in range(config.n_subsamples)
        ]
        ws.clear()  # the last draw's matrices go before the next distances come
        return ws.start(train_sq_dists(X[batch_idx])), Y[batch_idx], subsets

    return draw


def run_kernel_flows(
    X: np.ndarray,
    Y: np.ndarray,
    config: FlowConfig,
    spec0: KernelSpec,
) -> tuple[KernelSpec, FlowTrace]:
    """Learn kernel parameters by stochastic minibatch descent.

    Returns the spec whose smoothed loss was lowest along the run, plus the
    full trace. Deterministic for a fixed seed. Iterations whose loss is
    degenerate (for example a sub-batch that drew a single class) are
    resampled once and then skipped; a run with more than half of its
    iterations skipped aborts.
    """
    draw = _batch_sampler(X, Y, config)
    rng = np.random.default_rng(config.seed)
    theta = spec0.theta()
    prev_theta = theta.copy()

    it_rec, theta_rec, loss_rec, smooth_rec, grad_rec, gnorm_rec = [], [], [], [], [], []
    best_smoothed = math.inf
    best_theta = theta.copy()
    stall = 0
    n_skipped = 0
    converged = False
    iterations_run = 0

    for it in range(config.n_iter):
        iterations_run = it + 1
        result = None
        for attempt in range(2):
            ws, Y_b, subsets = draw(rng)
            spec_now = spec0.replace_theta(theta)
            try:
                ws.hold(spec_now)
                rho_bar, _ = _batch_losses(
                    ws, Y_b, subsets, config.n_lv, spec_now, config.objective
                )
                point = theta
                if config.update_rule == "nesterov":
                    point = theta + config.momentum * (theta - prev_theta)
                grad = _fd_gradient(
                    ws, Y_b, subsets, config.n_lv, spec0, point,
                    config.fd_step, config.objective,
                )
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
        ws, Y_b, subsets = draw(np.random.default_rng(child))
        for s, spec in enumerate(specs):
            try:
                ws.hold(spec)
                values[s, j], _ = _batch_losses(
                    ws, Y_b, subsets, config.n_lv, spec, config.objective
                )
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
