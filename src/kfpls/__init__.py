"""Kernel partial least-squares with cross-validation-driven kernel learning."""

from .datasets import (
    Dataset,
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
    loss_surface,
    run_kernel_flows,
)
from .kernels import (
    KernelSpec,
    center_train,
    gram_test,
    gram_train,
    kernel_eval,
)
from .kpls import (
    KplsModel,
    PlsModel,
    classify,
    fit_kpls,
    load_calibrated_model,
    predict_kpls,
    save_calibrated_model,
)
from .metrics import EvalReport, accuracy, q2, rmse

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
    "fit_kpls",
    "gen_circles",
    "gen_peaks",
    "gram_test",
    "gram_train",
    "kernel_eval",
    "load_calibrated_model",
    "load_csv",
    "loss_surface",
    "peaks_surface",
    "predict_kpls",
    "q2",
    "rmse",
    "run_kernel_flows",
    "save_calibrated_model",
    "standardize",
]
