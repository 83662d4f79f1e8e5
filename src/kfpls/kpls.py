"""Kernel PLS: SIMPLS regression between a centered Gram matrix and Y.

Fitting maps the training rows through the kernel, double-centers the
ridge Gram, and runs SIMPLS against column-centered responses. A new
row's cross kernel must be centered on the Gram's column means before it
meets the coefficients, and the response means added back; `affine_coef`
folds both into one affine map on the plain cross kernel, which is how
every prediction in the package is made.

A model archive holds the model and the standardization of the dataset it
was fitted on: `save_calibrated_model` writes it and
`load_calibrated_model` reads it back, checking every member. Archives
are written at schema version 2; version 1, which also held scores, is
still read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._serialize import read_array_archive, write_array_archive
from .datasets import Dataset
from .exceptions import DegenerateProblemError
from .kernels import KernelSpec, center_train, gram_test, gram_train
from .pls import PlsModel, fit_pls

_SCHEMA_VERSION = 2


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
    C = coef - coef.mean(axis=-2, keepdims=True)
    b = y_means[..., None, :] - col_means[..., None, :] @ C
    return C, b


def fit_kpls(
    X: np.ndarray, Y: np.ndarray, n_lv: int, spec: KernelSpec
) -> KplsModel:
    """Fit kernel PLS on training data.

    Parameters
    ----------
    X : ndarray, shape (n, p)
    Y : ndarray, shape (n, m) or (n,)
    n_lv : int
        Latent variables for the SIMPLS fit on the centered Gram.
    spec : KernelSpec

    Raises
    ------
    DegenerateProblemError
        If the centered Gram carries no usable covariance with Y, e.g.
        when all training rows are identical.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    if X.shape[0] != Y.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but Y has {Y.shape[0]}")
    if X.shape[0] < 2:
        raise ValueError("at least two training rows are required")
    if n_lv > X.shape[0]:
        raise ValueError(f"n_lv={n_lv} exceeds the number of training rows")

    if np.ptp(X, axis=0).max() == 0.0:
        # Identical rows give a constant kernel block; the centered Gram
        # would carry ridge structure only.
        raise DegenerateProblemError("all training rows are identical")
    K_centered, col_means = center_train(gram_train(spec, X))
    y_means = Y.mean(axis=0)
    pls = fit_pls(K_centered, Y - y_means, n_lv)
    return KplsModel(
        spec=spec, x_train=X.copy(), col_means=col_means, pls=pls, y_means=y_means
    )


def predict_kpls(model: KplsModel, X_new: np.ndarray) -> np.ndarray:
    """Predict responses for new rows: the plain cross kernel through
    `affine_coef` of the model."""
    X_new = np.asarray(X_new, dtype=float)
    if X_new.ndim != 2:
        raise ValueError("X_new must be 2-D")
    C, b = affine_coef(model.pls.coef, model.col_means, model.y_means)
    return gram_test(model.spec, X_new, model.x_train) @ C + b


def classify(model: KplsModel, X_new: np.ndarray) -> np.ndarray:
    """Class labels (1-based) from a model fitted on one-hot responses.

    The label is the argmax over predicted response columns; exact ties go
    to the lowest class index.
    """
    if model.y_means.shape[0] < 2:
        raise ValueError("classification requires a model fitted on one-hot Y")
    scores = predict_kpls(model, X_new)
    return np.argmax(scores, axis=1) + 1


def save_calibrated_model(path, model: KplsModel, ds: Dataset) -> None:
    """Write a model and the standardization of its dataset ``ds`` to one
    archive (schema v2). Equal inputs give byte-identical files, and all
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
        "pls_weights": model.pls.weights,
        "pls_x_loadings": model.pls.x_loadings,
        "pls_y_loadings": model.pls.y_loadings,
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


def model_from_arrays(data: dict) -> KplsModel:
    """The model in the members of an archive, version 2 or 1; other
    members, such as the ``prep_*`` arrays or the ones only version 1
    wrote, are left for the caller.

    Raises ``ValueError`` for a scalar or list member of another shape,
    another schema version, a non-finite float member (of any name), a
    kernel whose families are unknown or repeated or whose parameters do
    not have one entry per family, or prediction arrays whose shapes
    disagree with ``x_train``.
    """
    for key, ndim in (("schema_version", 0), ("families", 1), ("has_log_gamma", 0),
                      ("log_delta", 0), ("pls_n_lv", 0)):
        if data[key].ndim != ndim:
            raise ValueError(f"archive member {key!r} is not {ndim}-dimensional")
    version = int(data["schema_version"])
    if version not in (1, _SCHEMA_VERSION):
        raise ValueError(f"unsupported model schema version {version}")
    for key, value in data.items():
        if value.dtype.kind == "f" and not np.isfinite(value).all():
            raise ValueError(f"archive member {key!r} holds non-finite values")
    families = KernelSpec.create([str(f) for f in data["families"]]).families
    log_gamma = data["log_gamma"] if bool(data["has_log_gamma"]) else None
    k = len(families)
    shapes = {"log_sigma": data["log_sigma"].shape}
    if k > 1 or log_gamma is not None:
        shapes["log_gamma"] = np.shape(log_gamma)
    for key, shape in shapes.items():
        if shape != (k,):
            raise ValueError(f"{key} has shape {shape}, the kernel has {k} families")
    n_train = data["x_train"].shape[0]
    coef_shape = (n_train, data["y_means"].shape[0])
    if data["pls_coef"].shape != coef_shape:
        raise ValueError(
            f"pls_coef has shape {data['pls_coef'].shape}, expected {coef_shape}"
        )
    if data["center_col_means"].shape != (n_train,):
        raise ValueError(f"center_col_means does not have {n_train} entries")
    spec = KernelSpec(
        families=families,
        log_sigma=data["log_sigma"],
        log_gamma=log_gamma,
        log_delta=float(data["log_delta"]),
    )
    pls = PlsModel(
        weights=data["pls_weights"],
        x_loadings=data["pls_x_loadings"],
        y_loadings=data["pls_y_loadings"],
        coef=data["pls_coef"],
        n_lv=int(data["pls_n_lv"]),
    )
    return KplsModel(
        spec=spec,
        x_train=data["x_train"],
        col_means=data["center_col_means"],
        pls=pls,
        y_means=data["y_means"],
    )


def load_calibrated_model(path) -> tuple[KplsModel, dict]:
    """Model and standardization from one read of an archive that
    `save_calibrated_model` wrote.

    Raises ``OSError`` if the file cannot be read and ``ValueError`` when
    the archive is malformed: see `model_from_arrays`, plus missing
    standardization members, or standardization arrays and names whose
    lengths disagree with the model.
    """
    data = read_array_archive(path)
    if "prep_task" not in data:
        raise ValueError("model file lacks preprocessing metadata")
    model = model_from_arrays(data)
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
    n_x, n_y = model.x_train.shape[1], model.y_means.shape[0]
    expected = {"prep_x_names": n_x, "prep_x_means": n_x, "prep_x_stds": n_x,
                "prep_y_names": n_y}
    if has_y_stats:
        expected.update(prep_y_means=n_y, prep_y_stds=n_y)
    for key, n in expected.items():
        if data[key].shape != (n,):
            raise ValueError(f"{key} has shape {data[key].shape}, the model needs ({n},)")
    return model, meta
