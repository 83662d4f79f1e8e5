"""Kernel PLS: SIMPLS regression between a centered Gram matrix and Y.

Fitting maps the training rows through the kernel, double-centers the
ridge Gram, and runs SIMPLS against column-centered responses. The model
keeps the training rows and the Gram centering statistics so new data can
be mapped and centered consistently at prediction time. Response column
means are stored separately and added back to predictions, which restores
the intercept that centering removes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._serialize import read_array_archive, write_array_archive
from .exceptions import DegenerateProblemError
from .kernels import CenteringStats, KernelSpec, center_train, gram_test, gram_train
from .pls import PlsModel, fit_pls, predict_pls

_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class KplsModel:
    """Fitted kernel-PLS model. Immutable; safe to share across threads."""

    spec: KernelSpec
    x_train: np.ndarray
    stats: CenteringStats
    pls: PlsModel
    n_lv: int
    y_means: np.ndarray


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
    K_centered, stats = center_train(gram_train(spec, X))
    y_means = Y.mean(axis=0)
    pls = fit_pls(K_centered, Y - y_means, n_lv)
    return KplsModel(
        spec=spec,
        x_train=X.copy(),
        stats=stats,
        pls=pls,
        n_lv=pls.n_lv,
        y_means=y_means,
    )


def predict_kpls(model: KplsModel, X_new: np.ndarray) -> np.ndarray:
    """Predict responses for new rows via the centered test kernel."""
    X_new = np.asarray(X_new, dtype=float)
    if X_new.ndim != 2:
        raise ValueError("X_new must be 2-D")
    K_test = gram_test(model.spec, X_new, model.x_train, model.stats)
    return predict_pls(model.pls, K_test) + model.y_means


def classify(model: KplsModel, X_new: np.ndarray) -> np.ndarray:
    """Class labels (1-based) from a model fitted on one-hot responses.

    The label is the argmax over predicted response columns; exact ties go
    to the lowest class index.
    """
    if model.y_means.shape[0] < 2:
        raise ValueError("classification requires a model fitted on one-hot Y")
    scores = predict_kpls(model, X_new)
    return np.argmax(scores, axis=1) + 1


def model_to_arrays(model: KplsModel) -> dict:
    """Archive members of a model, keyed by member name (schema v1)."""
    spec = model.spec
    return {
        "schema_version": np.array(_SCHEMA_VERSION),
        "families": np.array(list(spec.families)),
        "log_sigma": spec.log_sigma,
        "log_gamma": spec.log_gamma if spec.log_gamma is not None else np.zeros(0),
        "has_log_gamma": np.array(spec.log_gamma is not None),
        "log_delta": np.array(spec.log_delta),
        "x_train": model.x_train,
        "center_n": np.array(model.stats.n),
        "center_col_means": model.stats.col_means,
        "center_grand_mean": np.array(model.stats.grand_mean),
        "pls_weights": model.pls.weights,
        "pls_x_loadings": model.pls.x_loadings,
        "pls_y_loadings": model.pls.y_loadings,
        "pls_x_scores": model.pls.x_scores,
        "pls_y_scores": model.pls.y_scores,
        "pls_coef": model.pls.coef,
        "pls_n_lv": np.array(model.pls.n_lv),
        "n_lv": np.array(model.n_lv),
        "y_means": model.y_means,
    }


def model_from_arrays(data: dict) -> KplsModel:
    """Inverse of `model_to_arrays`; other members, such as a calibrated
    archive's ``prep_*`` arrays, are left for the caller.

    Raises ``ValueError`` for another schema version, a non-finite float
    member (of any name), or prediction arrays whose shapes disagree with
    ``x_train``.
    """
    version = int(data["schema_version"])
    if version != _SCHEMA_VERSION:
        raise ValueError(f"unsupported model schema version {version}")
    for key, value in data.items():
        if value.dtype.kind == "f" and not np.isfinite(value).all():
            raise ValueError(f"archive member {key!r} holds non-finite values")
    n_train = data["x_train"].shape[0]
    coef_shape = (n_train, data["y_means"].shape[0])
    if data["pls_coef"].shape != coef_shape:
        raise ValueError(
            f"pls_coef has shape {data['pls_coef'].shape}, expected {coef_shape}"
        )
    if data["center_col_means"].shape != (n_train,):
        raise ValueError(f"center_col_means does not have {n_train} entries")
    spec = KernelSpec(
        families=tuple(str(f) for f in data["families"]),
        log_sigma=data["log_sigma"],
        log_gamma=data["log_gamma"] if bool(data["has_log_gamma"]) else None,
        log_delta=float(data["log_delta"]),
    )
    stats = CenteringStats(
        n=int(data["center_n"]),
        col_means=data["center_col_means"],
        grand_mean=float(data["center_grand_mean"]),
    )
    pls = PlsModel(
        weights=data["pls_weights"],
        x_loadings=data["pls_x_loadings"],
        y_loadings=data["pls_y_loadings"],
        x_scores=data["pls_x_scores"],
        y_scores=data["pls_y_scores"],
        coef=data["pls_coef"],
        n_lv=int(data["pls_n_lv"]),
    )
    return KplsModel(
        spec=spec,
        x_train=data["x_train"],
        stats=stats,
        pls=pls,
        n_lv=int(data["n_lv"]),
        y_means=data["y_means"],
    )


def save_model(model: KplsModel, path) -> None:
    """Write a model to a single self-describing archive.

    Equal models produce byte-identical files, and all float payloads
    round-trip bit-exact.
    """
    write_array_archive(path, model_to_arrays(model))


def load_model(path) -> KplsModel:
    return model_from_arrays(read_array_archive(path))
