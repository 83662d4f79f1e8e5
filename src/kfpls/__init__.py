"""Kernel partial least-squares with cross-validation-driven kernel learning."""

from .datasets import (
    Dataset,
    destandardize,
    gen_circles,
    gen_peaks,
    load_csv,
    peaks_surface,
    standardize,
)
from .exceptions import DegenerateProblemError, FlowAbortError
from .flows import (
    FlowConfig,
    FlowTrace,
    kf_gradient,
    kf_loss,
    loss_surface,
    run_kernel_flows,
    update_theta,
)
from .kernels import (
    KernelSpec,
    center_train,
    gram_test,
    gram_train,
    kernel_eval,
)
from .kpls import KplsModel, classify, fit_kpls, load_model, predict_kpls, save_model
from .metrics import EvalReport, accuracy, nrmse, q2, rmse
from .pls import PlsModel, fit_pls, predict_pls

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "DegenerateProblemError",
    "EvalReport",
    "FlowAbortError",
    "FlowConfig",
    "FlowTrace",
    "KernelSpec",
    "KplsModel",
    "PlsModel",
    "accuracy",
    "center_train",
    "classify",
    "destandardize",
    "fit_kpls",
    "fit_pls",
    "gen_circles",
    "gen_peaks",
    "gram_test",
    "gram_train",
    "kernel_eval",
    "kf_gradient",
    "kf_loss",
    "load_csv",
    "load_model",
    "loss_surface",
    "nrmse",
    "peaks_surface",
    "predict_kpls",
    "predict_pls",
    "q2",
    "rmse",
    "run_kernel_flows",
    "save_model",
    "standardize",
    "update_theta",
]
