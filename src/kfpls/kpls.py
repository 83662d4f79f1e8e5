"""Kernel PLS: SIMPLS regression between a centered Gram matrix and Y.

Fitting maps the training rows through the kernel, double-centers the
ridge Gram, and runs SIMPLS against column-centered responses. One
function, `fit_grams`, does that for a stack of ridge Grams: the kernel
flow's sub-batches, and the stack of one of `fit_gram`, the one fit of a
single Gram that the caller made and whose inputs it checks. `fit_kpls`
and the factor-count sweep (on `gram_train`), and the pipeline's factor
line search and final fit (on blocks of one calibration Gram) all go
through `fit_gram`. A new row's cross
kernel must be centered on the Gram's column means before it meets the
coefficients, and the response means added back; `affine_coef` folds
both into one affine map on the plain cross kernel, which is how every
kernel-PLS prediction in the package is made. `_affine_predict` applies
that map one block of new rows at a time, each block's cross kernel
holding at most `_BLOCK_ENTRIES` values, so the memory of a prediction
does not grow with the rows scored. A block's kernel is evaluated in
slices of at most `_SLICE_ENTRIES` values, each slice's distances and
kernel written into buffers made once per prediction, so they stay in
cache. A slice's distances are one BLAS product of its rows of the
`kernels.pairwise_sq_dists` operands, built once per prediction for the
training rows and once per block for the new rows. The product with the
map is made once per block, whose size fixes the bits of each prediction.
A `KplsModel` holds what that map reads and no SIMPLS factor: its
`PlsModel` is the coefficients and the factor count.

A model archive holds the model and the standardization of the dataset it
was fitted on: `save_calibrated_model` writes it and
`load_calibrated_model` reads it back, checking each member against its
dtype kinds and shape in one table, `_MEMBERS`, then the values. Archives
are written at schema version 3; versions 2 (plus the factors) and 1
(plus the factors and the scores) are still read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._serialize import read_array_archive, write_array_archive
from .datasets import Dataset, labels
from .exceptions import DegenerateProblemError
from .kernels import (KernelSpec, block_rows, center_train, dist_cols, dist_rows,
                      gram_train, kernel_matrix, reads_d)
from .pls import _simpls

_SCHEMA_VERSION = 3

# Cross-kernel values in one prediction block: 2**18 floats are 2 MiB. Up to
# 256 rows against up to 1,024 training rows, the size of the case studies'
# holdouts and test partitions, are one block: the one product they always were.
# A smaller product can sum a row's dot products in another order (128-row
# products moved bits with 1,000 training rows and 4 responses).
_BLOCK_ENTRIES = 2**18
# Values in one kernel slice of a block: 2**16 floats are 512 KiB, so a slice's
# distances and kernel stay in a 2 MB L2 cache between passes. On 5,000 x 800
# Gaussian predictions, 2**16 was faster than 2**15 and 2**17.
_SLICE_ENTRIES = 2**16


@dataclass(frozen=True)
class PlsModel:
    """SIMPLS coefficients of a kernel-PLS fit.

    Attributes
    ----------
    coef : ndarray, shape (n, m)
        Regression coefficients mapping the centered Gram to the centered
        responses.
    n_lv : int
        Number of latent variables actually extracted (may be fewer than
        requested when rank is exhausted).
    """

    coef: np.ndarray
    n_lv: int


@dataclass(frozen=True)
class KplsModel:
    """Fitted kernel-PLS model. Immutable; safe to share across threads."""

    spec: KernelSpec
    x_train: np.ndarray
    col_means: np.ndarray
    pls: PlsModel
    y_means: np.ndarray


def affine_coef(coef: np.ndarray, col_means: np.ndarray, y_means: np.ndarray):
    """``(C, b)`` such that a plain cross kernel ``K_cross`` (q, n) predicts
    ``K_cross @ C + b == (K_cross - 1 col_meansᵀ) H coef + y_means``.

    ``coef`` (..., n, m) was fitted on a Gram with column means ``col_means``
    (..., n) and responses with means ``y_means`` (..., m); H = I - (1/n) 11'.
    ``C = H coef`` is ``coef`` less its column means and ``b`` (..., 1, m) is
    ``y_means - col_meansᵀ C``. A stack of coefficients gives a stack of maps.
    """
    mean = np.add.reduce(coef, axis=-2, keepdims=True)
    mean /= coef.shape[-2]
    C = coef - mean
    b = y_means[..., None, :] - col_means[..., None, :] @ C
    return C, b


def fit_grams(K: np.ndarray, Y: np.ndarray, n_lv: int, tape: dict | None = None):
    """Kernel-PLS fits of a stack of ridge Grams ``K`` (S, n, n) on ``Y``
    (S, n, m), in one pass of `pls._simpls`.

    ``K`` is double-centered in place. Returns ``((W, P, Q, B), col_means,
    y_means, K)``: the SIMPLS factors and coefficients of the stack, the
    Grams' column means (S, n), the response means (S, m), and the centered
    stack, which the flow's norm-ratio loss and reverse pass read. The
    stack has one factor count: at most ``n_lv``, fewer for all of it if
    one member runs out of rank first. Inputs are not checked (see
    `check_fit_inputs`), and ``n_lv`` is clamped to ``n`` silently.
    ``tape``: see `pls._simpls`.
    """
    K_centered, col_means = center_train(K, out=K)
    y_means = np.add.reduce(Y, axis=1)
    y_means /= Y.shape[1]
    factors = _simpls(K_centered, Y - y_means[:, None, :], n_lv, tape)
    return factors, col_means, y_means, K_centered


def check_fit_inputs(X, Y, n_lv: int) -> tuple[np.ndarray, np.ndarray]:
    """Training rows ``X`` (n, p) and responses ``Y`` (n, m) or (n,) as float
    arrays, ``Y`` as a matrix, for a kernel-PLS fit with ``n_lv`` factors.

    Raises ``ValueError`` for a non-finite Y, a Y of more than two
    dimensions, row counts that differ or are below 2, or an ``n_lv``
    outside 1 and the row count, and `DegenerateProblemError` if all rows are identical (the
    centered Gram would carry ridge structure only).
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    if Y.ndim != 2:
        raise ValueError("Y must be 1-D or 2-D")
    if not np.all(np.isfinite(Y)):
        raise ValueError("Y must be finite")
    if X.shape[0] != Y.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but Y has {Y.shape[0]}")
    if X.shape[0] < 2:
        raise ValueError("at least two training rows are required")
    if n_lv < 1:
        raise ValueError(f"n_lv must be >= 1, got {n_lv}")
    if n_lv > X.shape[0]:
        raise ValueError(f"n_lv={n_lv} exceeds the number of training rows")
    if np.ptp(X, axis=0).max() == 0.0:
        raise DegenerateProblemError("all training rows are identical")
    return X, Y


def fit_gram(K: np.ndarray, X, Y, n_lv: int):
    """The kernel-PLS fit at ``n_lv`` factors of the ridge Gram ``K`` (n, n)
    that the caller made of the rows ``X`` (n, p), on ``Y``: the one fit of
    `fit_kpls`, the factor searches and the pipeline. Checks the inputs
    (`check_fit_inputs`), then centers ``K`` in place. Returns ``((W, P, Q,
    B), col_means, y_means)``: the SIMPLS factors and coefficients of the
    fit, the Gram's column means and the response means."""
    X, Y = check_fit_inputs(X, Y, n_lv)
    factors, col_means, y_means, _ = fit_grams(K[None], Y[None], n_lv)
    return tuple(f[0] for f in factors), col_means[0], y_means[0]


def model_from_gram(spec: KernelSpec, K: np.ndarray, X, Y, n_lv: int) -> KplsModel:
    """The model of `fit_gram` on the ridge Gram ``K`` of kernel ``spec`` on
    the rows ``X``, which it keeps a copy of; ``K`` is centered in place."""
    (W, _, _, B), col_means, y_means = fit_gram(K, X, Y, n_lv)
    return KplsModel(spec=spec, x_train=np.array(X, dtype=float), col_means=col_means,
                     pls=PlsModel(B, n_lv=W.shape[1]), y_means=y_means)


def fit_kpls(X: np.ndarray, Y: np.ndarray, n_lv: int, spec: KernelSpec) -> KplsModel:
    """Fit kernel PLS on the centered Gram of kernel ``spec`` with ``n_lv``
    latent variables. See `check_fit_inputs` for the inputs and errors; a
    non-finite X is a ``ValueError`` too (`gram_train`)."""
    return model_from_gram(spec, gram_train(spec, X), X, Y, n_lv)


def _affine_predict(spec: KernelSpec, x_train: np.ndarray, C: np.ndarray,
                    b: np.ndarray, X_new) -> np.ndarray:
    """``gram_test(spec, X_new, x_train) @ C + b``, one row block at a time.

    ``C`` (..., n, m) and ``b`` (..., 1, m) are an `affine_coef` map, or a
    stack of them; the result is (..., q, m) for the q rows of ``X_new``.
    A block holds at most ``_BLOCK_ENTRIES`` cross-kernel values, so memory
    does not grow with q, and each output row is the same dot products as
    with the whole cross kernel. The block's kernel is evaluated in slices
    of at most ``_SLICE_ENTRIES`` values. The operands of
    `pairwise_sq_dists` are built once per call for ``x_train``
    (`dist_cols`) and once per block for its rows (`dist_rows`); a slice's
    distances are one product of its rows of them into one buffer, clipped
    at zero, and its kernel is written into its rows of the block, in
    buffers made once per call. Raises ``ValueError`` for an ``X_new``
    that is not 2-D or whose feature count is not ``x_train``'s, even when
    q = 0.
    """
    X_new = np.asarray(X_new, dtype=float)
    if X_new.ndim != 2:
        raise ValueError("X_new must be 2-D")
    if X_new.shape[1] != x_train.shape[1]:
        raise ValueError(f"feature mismatch: X_new has {X_new.shape[1]} columns, "
                         f"the training rows have {x_train.shape[1]}")
    n = x_train.shape[0]
    rows = block_rows(_BLOCK_ENTRIES, n)
    step = block_rows(_SLICE_ENTRIES, n)
    q = X_new.shape[0]
    out = np.empty(C.shape[:-2] + (q, C.shape[-1]))
    K = np.empty((min(rows, q), n))
    sq = np.empty((min(step, q), n))
    root = np.empty_like(sq) if reads_d(spec) else None
    right = dist_cols(x_train)
    for start in range(0, q, rows):
        stop = min(start + rows, q)
        left = dist_rows(X_new[start:stop])
        for lo in range(0, stop - start, step):
            hi = min(lo + step, stop - start)
            d2 = np.matmul(left[lo:hi], right, out=sq[: hi - lo])
            np.maximum(d2, 0.0, out=d2)
            d = None if root is None else np.sqrt(d2, out=root[: hi - lo])
            kernel_matrix(spec, d2, d, out=K[lo:hi])
        pred = out[..., start:stop, :]
        np.matmul(K[: stop - start], C, out=pred)
        pred += b
    return out


def predict_kpls(model: KplsModel, X_new: np.ndarray) -> np.ndarray:
    """Predict responses for new rows: the plain cross kernel through
    `affine_coef` of the model, in row blocks (`_affine_predict`)."""
    C, b = affine_coef(model.pls.coef, model.col_means, model.y_means)
    return _affine_predict(model.spec, model.x_train, C, b, X_new)


def classify(model: KplsModel, X_new: np.ndarray) -> np.ndarray:
    """Class labels (1-based, `datasets.labels`) of the predictions of a
    model fitted on one-hot responses."""
    if model.y_means.shape[0] < 2:
        raise ValueError("classification requires a model fitted on one-hot Y")
    return labels(predict_kpls(model, X_new))


def save_calibrated_model(path, model: KplsModel, ds: Dataset) -> None:
    """Write a model and the standardization of its dataset ``ds`` to one
    archive (schema v3). Equal inputs give byte-identical files, and all
    float payloads round-trip bit-exact."""
    spec = model.spec
    write_array_archive(path, {
        "schema_version": np.array(_SCHEMA_VERSION),
        "families": np.array(list(spec.families)),
        "log_sigma": spec.log_sigma,
        "log_gamma": spec.log_gamma if spec.log_gamma is not None else np.zeros(0),
        "has_log_gamma": np.array(spec.log_gamma is not None),
        "log_delta": np.array(spec.log_delta),
        "x_train": model.x_train,
        "center_col_means": model.col_means,
        "pls_coef": model.pls.coef,
        "pls_n_lv": np.array(model.pls.n_lv),
        "y_means": model.y_means,
        "prep_x_means": ds.x_means,
        "prep_x_stds": ds.x_stds,
        "prep_has_y_stats": np.array(ds.y_means is not None),
        "prep_y_means": ds.y_means if ds.y_means is not None else np.zeros(0),
        "prep_y_stds": ds.y_stds if ds.y_stds is not None else np.zeros(0),
        "prep_task": np.array(ds.task),
        "prep_x_names": np.array(ds.x_names),
        "prep_y_names": np.array(ds.y_names),
    })


# Each archive member's dtype kinds and shape in the model's sizes (n training
# rows, p features, m responses, k kernel families; () is a scalar), which the
# first member checked with a size fixes. A third entry is the flag without
# which the shape is not checked: weights and response statistics are optional.
_MEMBERS = {
    "schema_version": ("iu", ()),
    "has_log_gamma": ("b", ()),
    "log_delta": ("f", ()),
    "pls_n_lv": ("iu", ()),
    "families": ("U", ("k",)),
    "log_sigma": ("f", ("k",)),
    "log_gamma": ("f", ("k",), "has_log_gamma"),
    "x_train": ("f", ("n", "p")),
    "center_col_means": ("f", ("n",)),
    "y_means": ("f", ("m",)),
    "pls_coef": ("f", ("n", "m")),
    "prep_has_y_stats": ("b", ()),
    "prep_task": ("U", ()),
    "prep_x_names": ("U", ("p",)),
    "prep_x_means": ("f", ("p",)),
    "prep_x_stds": ("f", ("p",)),
    "prep_y_names": ("U", ("m",)),
    "prep_y_means": ("f", ("m",), "prep_has_y_stats"),
    "prep_y_stds": ("f", ("m",), "prep_has_y_stats"),
}
_KINDS = {"f": "real floats", "U": "strings", "iu": "integers", "b": "booleans"}


def _check_members(data: dict, sizes: dict, prep: bool) -> None:
    """Reject (``ValueError``) a member of ``data`` that is missing or whose
    dtype kind or shape is not its `_MEMBERS` entry's: the ``prep_*``
    members if ``prep``, else the model's. Shapes are read in ``sizes``,
    which gains each size a member fixes."""
    for key, (kinds, shape, *flag) in _MEMBERS.items():
        if key.startswith("prep_") != prep:
            continue
        value = data[key]
        if value.dtype.kind not in kinds:
            raise ValueError(f"archive member {key!r} does not hold {_KINDS[kinds]}")
        if flag and not data[flag[0]]:
            continue
        if value.ndim != len(shape) or any(sizes.setdefault(size, d) != d
                                           for size, d in zip(shape, value.shape)):
            raise ValueError(f"archive member {key!r} has shape {value.shape}, the model "
                             f"needs {tuple(sizes.get(size, size) for size in shape)}")


def model_from_arrays(data: dict) -> KplsModel:
    """The model in the members of an archive, version 3, 2 or 1; other
    members, such as the ``prep_*`` arrays or the factors and scores only
    versions 2 and 1 wrote, are left for the caller.

    Raises ``ValueError`` for a model member that is missing or of another
    kind or shape than `_MEMBERS` gives, another schema version, a
    non-finite float member (of any name), a kernel parameter whose square
    (``exp`` of twice the stored log) or its reciprocal overflows, kernel
    families that are unknown or repeated, or several of them without
    weights, fewer than 2 training rows, or a factor count outside 1 and the
    training rows.
    """
    _check_members(data, {}, prep=False)
    version = int(data["schema_version"])
    if version not in (1, 2, _SCHEMA_VERSION):
        raise ValueError(f"unsupported model schema version {version}")
    for key, value in data.items():
        if value.dtype.kind == "f" and not np.isfinite(value).all():
            raise ValueError(f"archive member {key!r} holds non-finite values")
    for key in ("log_sigma", "log_gamma", "log_delta"):
        # The kernels multiply by the reciprocal of the squared length-scale,
        # so the square and its reciprocal must be finite (the larger of the
        # two is exp |2 log|); one bound serves the weights and the ridge too.
        with np.errstate(over="ignore"):
            larger = np.exp(np.abs(2.0 * data[key]))
        if not np.all(larger < np.inf):
            raise ValueError(f"archive member {key!r} holds a parameter out of range")
    families = KernelSpec.create([str(f) for f in data["families"]]).families
    log_gamma = data["log_gamma"] if bool(data["has_log_gamma"]) else None
    if log_gamma is None and len(families) > 1:
        raise ValueError(f"the kernel has {len(families)} families and no weights")
    n_train = data["x_train"].shape[0]
    if n_train < 2:
        raise ValueError(f"x_train has {n_train} rows, a fit needs at least 2")
    n_lv = int(data["pls_n_lv"])
    if not 1 <= n_lv <= n_train:
        raise ValueError(f"pls_n_lv is {n_lv}, outside 1 and the {n_train} training rows")
    spec = KernelSpec(families=families, log_sigma=data["log_sigma"], log_gamma=log_gamma,
                      log_delta=float(data["log_delta"]))
    return KplsModel(spec=spec, x_train=data["x_train"], col_means=data["center_col_means"],
                     pls=PlsModel(data["pls_coef"], n_lv=n_lv), y_means=data["y_means"])


def load_calibrated_model(path) -> tuple[KplsModel, dict]:
    """Model and standardization from one read of an archive that
    `save_calibrated_model` wrote.

    Raises ``OSError`` if the file cannot be read and ``ValueError`` when
    the archive is malformed: see `model_from_arrays`, plus ``prep_*``
    members that are missing or of another kind or shape than `_MEMBERS`
    gives, a task other than ``regression`` and ``classification``, a
    classification model with fewer than 2 responses, response statistics
    missing from a regression archive or present in a classification one,
    or a standard deviation that is not positive or whose reciprocal
    overflows.
    """
    data = read_array_archive(path)
    model = model_from_arrays(data)
    n_y = model.y_means.shape[0]
    _check_members(data, {"p": model.x_train.shape[1], "m": n_y}, prep=True)
    has_y_stats = bool(data["prep_has_y_stats"])
    meta = {
        "x_means": data["prep_x_means"],
        "x_stds": data["prep_x_stds"],
        "y_means": data["prep_y_means"] if has_y_stats else None,
        "y_stds": data["prep_y_stds"] if has_y_stats else None,
        "task": str(data["prep_task"]),
        "x_names": [str(s) for s in data["prep_x_names"]],
        "y_names": [str(s) for s in data["prep_y_names"]],
    }
    if meta["task"] not in ("regression", "classification"):
        raise ValueError(f"unknown task {meta['task']!r}")
    if meta["task"] == "classification" and n_y < 2:
        raise ValueError(f"a classification model has {n_y} response, it needs "
                         "one per class and at least 2")
    if has_y_stats != (meta["task"] == "regression"):
        raise ValueError(f"a {meta['task']} archive "
                         f"{'carries' if has_y_stats else 'lacks'} response statistics")
    for key in ("prep_x_stds", "prep_y_stds") if has_y_stats else ("prep_x_stds",):
        # finite already (`model_from_arrays`); standardizing divides by it
        if not np.all(data[key] > 1.0 / np.finfo(float).max):
            raise ValueError(f"{key} holds a scale that is not positive or whose "
                             "reciprocal overflows")
    return model, meta
