"""Evaluation metrics for regression and classification."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np


def rmse(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Root mean square error over all entries."""
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    if y_true.size == 0:
        raise ValueError("empty input")
    return float(np.sqrt(np.mean((y_true - y_pred) ** 2)))


def nrmse(rmse_value: float, y_cal_min: float, y_cal_max: float) -> float:
    """RMSE as a percentage of the calibration response range."""
    if not y_cal_max > y_cal_min:
        raise ValueError("calibration range must be positive")
    return 100.0 * rmse_value / (y_cal_max - y_cal_min)


def q2(
    y_test: np.ndarray,
    y_pred: np.ndarray,
    y_cal: np.ndarray,
) -> float:
    """Goodness of prediction on held-out data; 1 means perfect.

    One minus the ratio of test residuals to test deviations from the
    calibration mean.
    """
    y_test = np.asarray(y_test, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    y_cal = np.asarray(y_cal, dtype=float)
    if y_test.shape != y_pred.shape:
        raise ValueError(f"shape mismatch: {y_test.shape} vs {y_pred.shape}")
    if y_test.ndim == 1:
        y_test = y_test[:, None]
        y_pred = y_pred[:, None]
    if y_cal.ndim == 1:
        y_cal = y_cal[:, None]

    cal_means = y_cal.mean(axis=0)
    cal_dev = float(np.sum((y_cal - cal_means) ** 2))
    if cal_dev <= 0:
        raise ValueError("calibration responses have zero variance")

    press = float(np.sum((y_test - y_pred) ** 2))
    test_dev = float(np.sum((y_test - cal_means) ** 2))
    if test_dev <= 0:
        raise ValueError("test responses do not deviate from the calibration mean")
    return 1.0 - press / test_dev


def accuracy(labels_true: np.ndarray, labels_pred: np.ndarray) -> float:
    """Fraction of exact label matches."""
    labels_true = np.asarray(labels_true)
    labels_pred = np.asarray(labels_pred)
    if labels_true.shape != labels_pred.shape:
        raise ValueError(
            f"length mismatch: {labels_true.shape} vs {labels_pred.shape}"
        )
    if labels_true.size == 0:
        raise ValueError("empty input")
    return float(np.mean(labels_true == labels_pred))


@dataclass
class EvalReport:
    """Test-partition metrics plus the calibration context they depend on."""

    rmse: float
    nrmse_percent: float
    q2: float
    accuracy: float | None
    n_test: int
    n_cal: int
    y_range_cal: float

    def to_dict(self) -> dict:
        return asdict(self)
