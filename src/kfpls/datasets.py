"""Dataset construction: synthetic generators, CSV ingestion, standardization.

Every dataset is split 80/20 into calibration and test partitions by a
seeded shuffle, then standardized column-wise using calibration statistics
only. Regression responses are standardized too; classification responses
must be one-hot (`check_one_hot`) and are kept as 0/1, so that `labels`,
the one decoder of responses and predictions into class labels, stays
meaningful.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

_STD_FLOOR_REL = 1e-12


def compute_stats(M: np.ndarray, names=None) -> tuple[np.ndarray, np.ndarray]:
    """Column means and standard deviations, rejecting (``ValueError``, naming
    the column) a column whose mean or standard deviation overflows and a
    constant column."""
    M = np.asarray(M, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        means = M.mean(axis=0)
        stds = M.std(axis=0)
    for bad, problem in (
        (~(np.isfinite(means) & np.isfinite(stds)),
         "column whose mean or standard deviation overflows"),
        (stds <= _STD_FLOOR_REL * np.maximum(1.0, np.abs(means)), "zero-variance column"),
    ):
        if np.any(bad):
            j = int(np.argmax(bad))
            label = names[j] if names is not None else f"column {j}"
            raise ValueError(f"{problem}: {label}")
    return means, stds


def standardize(M: np.ndarray, means: np.ndarray, stds: np.ndarray) -> np.ndarray:
    return (np.asarray(M, dtype=float) - means) / stds


def destandardize(M: np.ndarray, means: np.ndarray, stds: np.ndarray) -> np.ndarray:
    return np.asarray(M, dtype=float) * stds + means


def check_one_hot(Y: np.ndarray, names) -> None:
    """Reject (``ValueError``) classification responses ``Y`` (n, m) that are
    not one-hot: at least 2 columns, named by ``names``, of 0/1 values with
    exactly one 1 per row. The message names the offending column or row
    (data rows count from 1, the header not included)."""
    if Y.shape[1] < 2:
        raise ValueError(f"a classification response needs one 0/1 column per "
                         f"class, at least 2; got {', '.join(map(repr, names))}")
    bad = np.argwhere((Y != 0.0) & (Y != 1.0))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"classification response column {names[j]!r} holds "
                         f"{float(Y[i, j])!r} at data row {i + 1}; one-hot columns "
                         f"hold 0 and 1 only")
    ones = Y.sum(axis=1)
    if np.any(ones != 1.0):
        i = int(np.argmax(ones != 1.0))
        raise ValueError(f"classification response data row {i + 1} has "
                         f"{int(ones[i])} ones; a one-hot row has exactly one")


def labels(Y: np.ndarray) -> np.ndarray:
    """1-based class labels of one-hot responses or of their predictions
    ``Y`` (n, m): the argmax of each row, ties going to the lowest column."""
    return np.argmax(Y, axis=1) + 1


@dataclass
class Dataset:
    """Standardized calibration/test partitions plus the statistics behind them.

    ``y_means``/``y_stds`` are ``None`` for classification tasks, where the
    response is one-hot and left untouched. ``Y_true_test`` holds a noiseless
    reference for the test rows when the generator knows one, standardized
    with the same calibration statistics as ``Y_test``.
    """

    X_cal: np.ndarray
    Y_cal: np.ndarray
    X_test: np.ndarray
    Y_test: np.ndarray
    x_means: np.ndarray
    x_stds: np.ndarray
    y_means: np.ndarray | None
    y_stds: np.ndarray | None
    task: str
    cal_idx: np.ndarray
    test_idx: np.ndarray
    Y_true_test: np.ndarray | None = None
    x_names: list = field(default_factory=list)
    y_names: list = field(default_factory=list)

    def destandardize_y(self, Y: np.ndarray) -> np.ndarray:
        """Map responses (or predictions) back to original units."""
        if self.task == "classification":
            return np.asarray(Y, dtype=float)
        return destandardize(Y, self.y_means, self.y_stds)

    @property
    def labels_test(self) -> np.ndarray:
        """1-based class labels for the test rows (classification only)."""
        if self.task != "classification":
            raise ValueError("labels are only defined for classification tasks")
        return labels(self.Y_test)

    @property
    def y_range_cal(self) -> float:
        """Calibration response range in original units."""
        y = self.destandardize_y(self.Y_cal)
        return float(y.max() - y.min())


def _split_indices(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    perm = rng.permutation(n)
    n_cal = int(round(0.8 * n))
    return np.sort(perm[:n_cal]), np.sort(perm[n_cal:])


def _assemble(
    X_raw: np.ndarray,
    Y_raw: np.ndarray,
    task: str,
    seed,
    y_true=None,
    x_names=None,
    y_names=None,
) -> Dataset:
    if task not in ("regression", "classification"):
        raise ValueError(f"unknown task {task!r}")
    n = X_raw.shape[0]
    if n < 5:
        raise ValueError("too few rows to split 80/20")
    rng = np.random.default_rng(seed)
    cal_idx, test_idx = _split_indices(n, rng)

    x_names = x_names or [f"x{j + 1}" for j in range(X_raw.shape[1])]
    y_names = y_names or [f"y{j + 1}" for j in range(Y_raw.shape[1])]

    x_means, x_stds = compute_stats(X_raw[cal_idx], x_names)
    X_cal = standardize(X_raw[cal_idx], x_means, x_stds)
    X_test = standardize(X_raw[test_idx], x_means, x_stds)

    if task == "regression":
        y_means, y_stds = compute_stats(Y_raw[cal_idx], y_names)
        Y_cal = standardize(Y_raw[cal_idx], y_means, y_stds)
        Y_test = standardize(Y_raw[test_idx], y_means, y_stds)
        Y_true_test = (
            standardize(y_true[test_idx], y_means, y_stds) if y_true is not None else None
        )
    else:
        check_one_hot(Y_raw, y_names)
        y_means = y_stds = None
        Y_cal = Y_raw[cal_idx].copy()
        Y_test = Y_raw[test_idx].copy()
        Y_true_test = y_true[test_idx].copy() if y_true is not None else None

    return Dataset(
        X_cal=X_cal,
        Y_cal=Y_cal,
        X_test=X_test,
        Y_test=Y_test,
        x_means=x_means,
        x_stds=x_stds,
        y_means=y_means,
        y_stds=y_stds,
        task=task,
        cal_idx=cal_idx,
        test_idx=test_idx,
        Y_true_test=Y_true_test,
        x_names=list(x_names),
        y_names=list(y_names),
    )


def peaks_surface(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Two-peak exponential test surface on [-2, 2] x [-2, 2]."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    return (
        3.0 * (1.0 - x1) ** 2 * np.exp(-(x1**2) - (x2 + 1.0) ** 2)
        - 10.0 * (x1 / 5.0 - x1**3 - x2**5) * np.exp(-(x1**2) - x2**2)
        - (1.0 / 3.0) * np.exp(-((x1 + 1.0) ** 2) - x2**2)
    )


def check_noise(level: float, name: str = "noise") -> None:
    """Reject (``ValueError``) a noise level that is NaN, infinite or negative."""
    if not 0.0 <= level < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {level!r}")


def gen_peaks(n: int, noise_delta: float, seed) -> Dataset:
    """Noisy samples of the peaks surface for nonlinear regression.

    Inputs are uniform on [-2, 2]; Gaussian noise scaled by ``noise_delta``
    is added to the response. The noiseless surface values for the test
    rows are retained so predictions can be scored against the true
    mapping as well as the noisy one.
    """
    if n < 10:
        raise ValueError("need at least 10 samples")
    check_noise(noise_delta, "noise_delta")
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, size=(n, 2))
    f = peaks_surface(X[:, 0], X[:, 1])
    y = f + noise_delta * rng.standard_normal(n)
    return _assemble(
        X,
        y[:, None],
        "regression",
        seed,
        y_true=f[:, None],
        x_names=["x1", "x2"],
        y_names=["y"],
    )


def gen_circles(
    n_per_class: int,
    n_classes: int = 4,
    radial_noise: float = 0.1,
    seed=None,
) -> Dataset:
    """Concentric rings in the plane, one ring per class, one-hot responses.

    Class ``c`` sits at radius ``c`` with Gaussian radial jitter; angles
    are uniform. The rings are not linearly separable in the plane, which
    is the point of the exercise.
    """
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    if n_per_class < 2:
        raise ValueError("need at least 2 samples per class")
    check_noise(radial_noise, "radial_noise")
    rng = np.random.default_rng(seed)
    n = n_per_class * n_classes
    X = np.empty((n, 2))
    Y = np.zeros((n, n_classes))
    for c in range(n_classes):
        sl = slice(c * n_per_class, (c + 1) * n_per_class)
        angles = rng.uniform(0.0, 2.0 * np.pi, n_per_class)
        radii = (c + 1) + radial_noise * rng.standard_normal(n_per_class)
        X[sl, 0] = radii * np.cos(angles)
        X[sl, 1] = radii * np.sin(angles)
        Y[sl, c] = 1.0
    return _assemble(
        X,
        Y,
        "classification",
        seed,
        x_names=["x1", "x2"],
        y_names=[f"class{c + 1}" for c in range(n_classes)],
    )


def _parse_cells(path, header, rows) -> np.ndarray:
    """``rows`` parsed cell by cell, each stripped and then cast with
    ``float``; the first ragged row or missing or non-numeric cell, in file
    order, raises the ``ValueError`` of `read_csv`."""
    data = np.empty((len(rows), len(header)))
    for i, row in enumerate(rows):
        line_no = i + 2  # header is line 1
        if len(row) != len(header):
            raise ValueError(
                f"{path}: row {line_no} has {len(row)} cells, expected {len(header)}"
            )
        for j, cell in enumerate(row):
            cell = cell.strip()
            if cell == "":
                raise ValueError(
                    f"{path}: missing value at row {line_no}, column {header[j]!r}"
                )
            try:
                data[i, j] = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric value {cell!r} at row {line_no}, "
                    f"column {header[j]!r}"
                ) from None
    return data


def read_csv(path) -> tuple[list, np.ndarray]:
    """Parse a numeric CSV with a header row into ``(header, data)``.

    Header names and cells are stripped of surrounding whitespace, and a
    UTF-8 byte-order mark before the header is dropped. Empty files, a
    column name given twice, ragged rows and missing, non-numeric or
    non-finite cells raise ``ValueError`` naming the file row (the header
    is row 1) and column, and a cell over the ``csv`` field limit its line.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
            rows = list(reader)
        except StopIteration:
            raise ValueError(f"{path}: file is empty") from None
        except csv.Error as exc:  # a cell longer than the reader's field limit
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    for j, name in enumerate(header):
        if name in header[:j]:
            raise ValueError(f"{path}: duplicate column name {name!r} in the header")
    if not rows:
        raise ValueError(f"{path}: no data rows after the header")

    data = None
    if all(len(row) == len(header) for row in rows):
        # One cast of all cells; numpy casts each with ``float``, which
        # also strips whitespace, though not every character ``str.strip``
        # does. A cell it rejects, or a ragged row, sends the parse to the
        # cell loop, which strips each cell first and names a bad one.
        try:
            data = np.array(list(itertools.chain.from_iterable(rows)), dtype=float)
        except ValueError:
            pass
    if data is None:
        data = _parse_cells(path, header, rows)
    data = data.reshape(len(rows), len(header))
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        i, j = bad[0]
        raise ValueError(
            f"{path}: non-finite value {rows[i][j].strip()!r} at row {i + 2}, "
            f"column {header[j]!r}"
        )
    return header, data


def load_csv(path, response_columns, task: str, seed) -> Dataset:
    """Load a numeric CSV with a header row and split/standardize it.

    ``response_columns`` is a list of header names or 0-based column
    indices (a single name/index is also accepted); an empty list is a
    ``ValueError``. All remaining columns become predictors. Cells are
    parsed by `read_csv`.
    """
    if isinstance(response_columns, (str, int)):
        response_columns = [response_columns]
    if len(response_columns) == 0:
        raise ValueError("no response column given")
    header, data = read_csv(path)

    resp_idx = []
    for col in response_columns:
        if isinstance(col, int):
            if not 0 <= col < len(header):
                raise ValueError(f"response column index {col} out of range")
            resp_idx.append(col)
        else:
            if col not in header:
                raise ValueError(f"response column {col!r} not found in header")
            resp_idx.append(header.index(col))
    if len(set(resp_idx)) != len(resp_idx):
        raise ValueError("duplicate response columns")
    pred_idx = [j for j in range(len(header)) if j not in resp_idx]
    if not pred_idx:
        raise ValueError("no predictor columns left after removing responses")

    return _assemble(
        data[:, pred_idx],
        data[:, resp_idx],
        task,
        seed,
        x_names=[header[j] for j in pred_idx],
        y_names=[header[j] for j in resp_idx],
    )
