"""Command-line front end.

Subcommands: ``case`` (built-in case studies), ``optimize`` (fit a model
on a CSV), ``predict`` (apply a saved model to a CSV), ``sweep``
(one-axis sensitivity studies), and ``loss-surface`` (loss values on a
kernel-parameter grid). Every command is reproducible: the same config
and seed produce byte-identical output files.

Each subcommand takes only the flags it reads. Options may also come from
a flat key-value config file (``key = value``, ``#`` comments; keys only
other subcommands read are ignored); flags take precedence. Errors exit
nonzero with a single ``error:<category>: <message>`` line on stderr.

A command runs in phases: checks (``usage``, ``config``: flags, settings
and every grid point of a sweep), data (``io``, ``data``: read or build
the dataset, then the ``config`` checks that need it, such as
``--lv-max``), compute (create the output directory, then ``compute``)
and write. So a command that stops before compute leaves no output
directory behind. ``predict`` scores its rows before it creates the
directory, because a prediction that is not finite is a ``data`` error.
A file or directory that cannot be read or written, in any phase, is an
``io`` error. ``model.kfpls`` is written and read by
`kpls.save_calibrated_model` and `kpls.load_calibrated_model`.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .datasets import Dataset, check_noise, labels, load_csv, read_csv, standardize
from .exceptions import DegenerateProblemError, FlowAbortError
from .flows import _OBJECTIVES, _UPDATE_RULES, FlowConfig, loss_surface, run_kernel_flows
from .kernels import KernelSpec
from .kpls import load_calibrated_model, predict_kpls, save_calibrated_model
from .metrics import rmse
from .pipeline import (
    CASE_DEFAULTS,
    case_dataset,
    case_flow_config,
    check_lv_max,
    run_pipeline,
    sweep_n_lv,
    sweep_points,
)


class CliError(Exception):
    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


@contextlib.contextmanager
def _phase(category: str):
    """Report a ``ValueError``, or a fit or flow that failed, raised in the
    block as ``error:<category>``."""
    try:
        yield
    except (DegenerateProblemError, FlowAbortError, ValueError) as exc:
        raise CliError(category, str(exc)) from exc


def load_config(path) -> dict:
    """Parse a flat ``key = value`` config file; unknown keys are rejected."""
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError("io", f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError("config", f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise CliError("config", f"line {lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def _bool(value) -> bool:
    if str(value).lower() in ("1", "true", "yes", "on"):
        return True
    if str(value).lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


# Config key -> (FlowConfig field, cast), one entry per field but ``seed``,
# which is a common setting; each key is also a flag (``n_subsamples`` ->
# ``--n-subsamples``).
_FLOW_SETTINGS = {
    "iterations" if f.name == "n_iter" else f.name:
        (f.name, _bool if isinstance(f.default, bool) else type(f.default))
    for f in dataclasses.fields(FlowConfig) if f.name != "seed"
}
_FLOW_CHOICES = {"update_rule": _UPDATE_RULES, "objective": _OBJECTIVES}

# Options of several subcommands: key -> `add_argument` keywords. The flag
# is the key with dashes (``lv_max`` -> ``--lv-max``).
_OPTIONS = {
    "config": dict(help="flat key = value config file"),
    "out_dir": dict(help="directory for the output files"),
    "seed": dict(type=int),
    "kernel": dict(help="comma-separated kernel families"),
    "sigma": dict(type=float, help="initial length-scale"),
    "delta": dict(type=float, help="initial ridge"),
    "lv_max": dict(type=int, help="upper bound for the factor line search"),
    **{key: dict(type=cast, choices=_FLOW_CHOICES.get(key),
                 help=f"flow setting FlowConfig.{name}")
       for key, (name, cast) in _FLOW_SETTINGS.items()},
}
# The flow settings `loss_surface` reads; it takes no descent step.
_SAMPLING_SETTINGS = ("n_subsamples", "batch_fraction", "sub_fraction", "n_lv",
                      "stratified", "objective")

_CONFIG_KEYS = {*_OPTIONS, "noise", "csv", "response", "task"} - {"config"}


def _setting(args, config, key, default=None, cast=None):
    """Flag value if given, else config-file value, else the default. A
    command without the flag ignores the config key and takes the default."""
    if not hasattr(args, key):
        return default
    flag = getattr(args, key)
    if flag is not None:
        return flag
    if key in config:
        raw = config[key]
        try:
            return cast(raw) if cast else raw
        except ValueError as exc:
            raise CliError("config", f"bad value for {key!r}: {raw!r}") from exc
    return default


def _flow_overrides(args, config) -> dict:
    """Flow settings the user gave explicitly (flags or config file)."""
    overrides = {}
    for key, (name, cast) in _FLOW_SETTINGS.items():
        value = _setting(args, config, key, cast=cast)
        if value is not None:
            overrides[name] = value
    return overrides


def _seed(args, config) -> int:
    """The run seed (default 0); a negative one is a ``config`` error."""
    seed = int(_setting(args, config, "seed", default=0, cast=int))
    if seed < 0:
        raise CliError("config", f"seed must be a non-negative integer, got {seed}")
    return seed


def _lv_max(args, config, ds: Dataset, default: int) -> int:
    """The factor-search bound, checked against the dataset (``ValueError``)."""
    lv_max = int(_setting(args, config, "lv_max", default=default, cast=int))
    check_lv_max(ds, lv_max)
    return lv_max


def _kernel_spec(args, config, default_families="gaussian") -> KernelSpec:
    families = _setting(args, config, "kernel", default=default_families)
    sigma = _setting(args, config, "sigma", default=1.0, cast=float)
    delta = _setting(args, config, "delta", default=1.0, cast=float)
    return KernelSpec.create(families, sigma=float(sigma), delta=float(delta))


def _read(load, *args, what=None):
    """``load(*args)``, mapping ``OSError`` to ``io`` and ``ValueError`` to
    ``data``; the message starts ``cannot load <what>:`` if ``what`` is given."""
    prefix = f"cannot load {what}: " if what else ""
    try:
        return load(*args)
    except OSError as exc:
        raise CliError("io", f"{prefix}{exc}") from exc
    except ValueError as exc:
        raise CliError("data", f"{prefix}{exc}") from exc


def _case_source(args, config) -> tuple:
    """``(noise, csv_path, response)``, the `case_dataset` arguments after
    the seed for case ``args.case``. A bad noise level raises ``ValueError``;
    cases 3 and 4 need ``--csv`` and ``--response``."""
    case_id = args.case
    if case_id not in CASE_DEFAULTS:
        raise CliError("usage", f"unknown case id {case_id}")
    noise = _setting(args, config, "noise", cast=float)
    if noise is not None:
        check_noise(noise)
    csv_path = _setting(args, config, "csv")
    response = _setting(args, config, "response")
    if case_id in (3, 4):
        if csv_path is None:
            raise CliError("usage", f"case {case_id} requires --csv with the dataset")
        if response is None:
            raise CliError("usage", f"case {case_id} requires --response")
        response = _parse_response(response)
    return noise, csv_path, response


def _grid(raw, flag) -> list:
    """A non-empty comma-separated list of numbers."""
    try:
        grid = [float(v) for v in str(raw).split(",") if v.strip()]
    except ValueError as exc:
        raise CliError("usage", f"{flag} takes comma-separated numbers: {exc}") from exc
    if not grid:
        raise CliError("usage", f"empty {flag}")
    return grid


def _out_dir(args, config) -> Path:
    out = Path(_setting(args, config, "out_dir", default="."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_table(path, header, rows) -> None:
    """CSV with full-precision floats; identical inputs give identical bytes.

    ``rows`` is a 2-D array, converted to Python numbers in one `tolist`
    and formatted by `repr` (``%r``), as `_fmt` formats a float, in one
    format of its repeated line; or a list of rows whose cells, numpy
    scalars among them, go through `_fmt`. The repr of a number holds no
    comma or quote, so an array's cells need none of the `csv` writer's
    quoting checks.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        if isinstance(rows, np.ndarray):
            line = ",".join(["%r"] * rows.shape[1]) + "\n"
            fh.write(line * rows.shape[0] % tuple(rows.ravel().tolist()))
        else:
            writer.writerows([_fmt(v) for v in row] for row in rows)


def write_report(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _spec_dict(spec: KernelSpec) -> dict:
    return {
        "families": list(spec.families),
        "sigma": [float(s) for s in spec.sigma],
        "weights": [float(g) for g in spec.gamma],
        "delta": float(spec.delta),
    }


def _write_trace(path, trace) -> None:
    header, rows = trace.to_table()
    write_table(path, header, rows)


def _with_labels(values: np.ndarray, label_columns) -> list:
    """Rows of the float table ``values``, each followed by its cells of the
    1-based ``label_columns``, which are written as integers."""
    return [row + cells for row, cells in
            zip(values.tolist(), np.column_stack(label_columns).tolist())]


def _write_predictions(path, ds: Dataset, predictions: dict) -> None:
    names = []
    blocks = []
    for key in ("y_test", "y_true", "kf_pls", "kpls_default", "pls"):
        if key not in predictions:
            continue
        block = np.atleast_2d(predictions[key])
        for j in range(block.shape[1]):
            suffix = f"_{ds.y_names[j]}" if block.shape[1] > 1 else ""
            names.append(f"{key}{suffix}")
        blocks.append(block)
    data = np.hstack(blocks)
    if ds.task == "classification":
        keys = ("kf_pls", "kpls_default", "pls")
        names += ["label_true", *(f"label_{key}" for key in keys)]
        data = _with_labels(data, [ds.labels_test, *(labels(predictions[k]) for k in keys)])
    write_table(path, names, data)


def _numeric_env() -> dict:
    """What a run's bits depend on beyond the code: the numpy version, its
    BLAS name and version (null where numpy cannot say), and the BLAS
    thread settings seen in the environment (null where unset)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 takes no mode
        blas = {}
    return {
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def _case_report(result, case_id, seed, command) -> dict:
    return {
        "artifact_version": __version__,
        "command": command,
        "case": case_id,
        "seed": seed,
        "flow_config": dataclasses.asdict(result.config),
        "kernel_initial": _spec_dict(result.spec_init),
        "kernel_optimized": _spec_dict(result.spec_opt),
        "n_lv": result.n_lv,
        "iterations_run": result.trace.iterations_run,
        "n_skipped": result.trace.n_skipped,
        "n_resampled": result.trace.n_resampled,
        "n_loss_evals": result.trace.n_loss_evals,
        "n_fits": result.trace.n_fits,
        "numeric_env": _numeric_env(),
        "converged": result.trace.converged,
        "best_smoothed_loss": result.trace.best_smoothed_loss,
        "runtime_seconds": result.runtime_seconds,
        "stage_seconds": result.stage_seconds,
        "results": {name: report.to_dict() for name, report in result.reports.items()},
    }


def cmd_case(args, config) -> int:
    case_id = args.case
    with _phase("config"):
        source = _case_source(args, config)
        seed = _seed(args, config)
        spec0 = _kernel_spec(args, config, CASE_DEFAULTS[case_id]["families"])
        flow = case_flow_config(case_id, seed, **_flow_overrides(args, config))
    ds = _read(case_dataset, case_id, seed, *source)
    with _phase("config"):
        lv_max = _lv_max(args, config, ds, CASE_DEFAULTS[case_id]["lv_max"])
    out = _out_dir(args, config)
    with _phase("compute"):
        result = run_pipeline(ds, spec0, flow, lv_max, seed)

    write_report(out / "report.json", _case_report(result, case_id, seed, "case"))
    _write_trace(out / "trace.csv", result.trace)
    _write_predictions(out / "predictions.csv", ds, result.predictions)
    write_table(out / "lv_search.csv", ["n_lv", "holdout_score"], result.lv_table)
    save_calibrated_model(out / "model.kfpls", result.model, ds)
    print(f"case {case_id} done: report.json, trace.csv, predictions.csv in {out}")
    return 0


def cmd_optimize(args, config) -> int:
    response = _setting(args, config, "response")
    if response is None:
        raise CliError("usage", "optimize requires --response")
    response = _parse_response(response)
    seed = _seed(args, config)
    task = _setting(args, config, "task", default="regression")
    if task not in ("regression", "classification"):
        raise CliError("config", f"unknown task {task!r}")
    with _phase("config"):
        spec0 = _kernel_spec(args, config)
        flow = FlowConfig(seed=seed, **_flow_overrides(args, config))

    ds = _read(load_csv, args.csv, response, task, seed)
    with _phase("config"):
        lv_max = _lv_max(args, config, ds, 20)
    out = _out_dir(args, config)
    with _phase("compute"):
        result = run_pipeline(ds, spec0, flow, lv_max, seed)

    save_calibrated_model(out / "model.kfpls", result.model, ds)
    _write_trace(out / "trace.csv", result.trace)
    write_report(out / "report.json", _case_report(result, None, seed, "optimize"))
    print(f"optimized model written to {out / 'model.kfpls'}")
    return 0


def _parse_response(raw) -> list:
    """Response columns from ``name,name`` or 0-based ``index,index``; a
    list that names no column is a ``usage`` error."""
    parts = [p.strip() for p in str(raw).split(",") if p.strip()]
    if not parts:
        raise CliError("usage", f"--response names no column: {raw!r}")
    return [int(p) if p.lstrip("-").isdigit() else p for p in parts]


def cmd_predict(args, config) -> int:
    model, meta = _read(load_calibrated_model, args.model, what="model")

    header, rows = _read(read_csv, args.csv)

    missing = [name for name in meta["x_names"] if name not in header]
    if missing:
        raise CliError("data", f"feature columns missing from CSV: {missing}")
    cols = [header.index(name) for name in meta["x_names"]]
    # Cells or archive values far from the training scale can overflow into
    # non-finite predictions; those are reported below, not warned about.
    with np.errstate(all="ignore"):
        pred = predict_kpls(model, standardize(rows[:, cols], meta["x_means"],
                                               meta["x_stds"]))
        if meta["task"] == "regression":
            pred = pred * meta["y_stds"] + meta["y_means"]
    bad = np.flatnonzero(~np.isfinite(pred).all(axis=1))
    if bad.size:
        raise CliError("data", f"the prediction of data row {bad[0] + 1} (row "
                       f"{bad[0] + 2} of the CSV) is not finite")

    out = _out_dir(args, config)
    names = [f"pred_{n}" for n in meta["y_names"]]
    data = pred
    if meta["task"] == "classification":
        names.append("label")
        data = _with_labels(pred, [labels(pred)])
    write_table(out / "predictions.csv", names, data)
    print(f"predictions written to {out / 'predictions.csv'}")
    return 0


_SWEEP_AXES = ("n_lv", "noise", "learning_rate", "n_subsamples", "init_theta")


def cmd_sweep(args, config) -> int:
    grid = _grid(args.grid, "sweep grid")
    case_id = args.case
    if args.axis == "noise" and case_id != 1:
        raise CliError("usage", "the noise axis applies to case 1 only")
    with _phase("config"):
        source = None if args.axis == "noise" else _case_source(args, config)
        seed = _seed(args, config)
        spec0 = _kernel_spec(args, config, CASE_DEFAULTS[case_id]["families"])
        overrides = _flow_overrides(args, config)
        flow = case_flow_config(case_id, seed, **overrides)
        if args.axis == "n_lv":
            if not all(v.is_integer() for v in grid):
                raise ValueError("the n_lv grid takes whole numbers only")
            if min(grid) < 1:
                raise ValueError(f"the n_lv grid takes counts >= 1, got {min(grid):g}")
        else:
            points = sweep_points(args.axis, grid, spec0, seed, case_id, overrides)
    ds = None if source is None else _read(case_dataset, case_id, seed, *source)
    lv_max = CASE_DEFAULTS[case_id]["lv_max"]
    if ds is not None:
        with _phase("config"):
            check_lv_max(ds, lv_max)
    if args.axis == "n_lv" and max(grid) > ds.X_cal.shape[0]:
        raise CliError("config", f"the n_lv grid exceeds the "
                       f"{ds.X_cal.shape[0]} calibration rows")
    out = _out_dir(args, config)

    with _phase("compute"):
        if args.axis == "n_lv":
            spec_opt, _ = run_kernel_flows(ds.X_cal, ds.Y_cal, flow, spec0)
            rows = sweep_n_lv(ds, spec_opt, grid)
        else:
            rows = []
            for value, spec, point_flow, noise in points:
                point_ds = ds if noise is None else case_dataset(case_id, seed, noise)
                rows.append((value, run_pipeline(point_ds, spec, point_flow, lv_max, seed)))
    if args.axis == "noise":
        header = ["noise", "rmse", "nrmse_percent", "q2", "rmse_true", "rmse_noisy"]
        table = []
        for level, result in rows:
            rep, pred = result.reports["kf_pls"], result.predictions["kf_pls"]
            table.append((level, rep.rmse, rep.nrmse_percent, rep.q2,
                          rmse(result.predictions["y_true"], pred),
                          rmse(result.predictions["y_test"], pred)))
    elif args.axis == "n_lv":
        header = ["n_lv", "rmse", "nrmse_percent", "q2", "accuracy"]
        table = [
            (lv, rep.rmse, rep.nrmse_percent, rep.q2,
             rep.accuracy if rep.accuracy is not None else "")
            for lv, rep in rows
        ]
    else:
        header = [
            args.axis, "rmse", "q2", "accuracy", "sigma_opt", "delta_opt",
            "iterations_run", "converged", "loss_std_last100",
        ]
        table = []
        for value, result in rows:
            rep = result.reports["kf_pls"]
            tail = result.trace.loss[-100:]
            table.append(
                (
                    value, rep.rmse, rep.q2,
                    rep.accuracy if rep.accuracy is not None else "",
                    float(result.spec_opt.sigma.mean()),
                    result.spec_opt.delta,
                    result.trace.iterations_run,
                    int(result.trace.converged),
                    float(np.std(tail)),
                )
            )

    write_table(out / "sweep.csv", header, table)
    print(f"sweep table written to {out / 'sweep.csv'}")
    return 0


def cmd_loss_surface(args, config) -> int:
    sigmas = _grid(args.sigma_grid, "sigma grid")
    deltas = _grid(args.delta_grid, "delta grid")
    grid = list(itertools.product(sigmas, deltas))
    with _phase("config"):
        source = _case_source(args, config)
        seed = _seed(args, config)
        families = _setting(args, config, "kernel",
                            default=CASE_DEFAULTS[args.case]["families"])
        flow = case_flow_config(args.case, seed, **_flow_overrides(args, config))
        specs = [KernelSpec.create(families, sigma=s, delta=d) for s, d in grid]
    ds = _read(case_dataset, args.case, seed, *source)
    out = _out_dir(args, config)
    with _phase("compute"):
        rows = loss_surface(ds.X_cal, ds.Y_cal, specs, flow)

    table = [(s, d, mean, std) for (s, d), (_, mean, std) in zip(grid, rows)]
    write_table(out / "loss_surface.csv", ["sigma", "delta", "mean_loss", "std_loss"], table)
    print(f"loss surface written to {out / 'loss_surface.csv'}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``kfpls`` parser, built on the first call and shared by every
    later one: parsing reads it and changes nothing in it."""
    parser = argparse.ArgumentParser(
        prog="kfpls",
        description="Kernel PLS with cross-validation-driven kernel learning.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def options(p, *keys):
        """``--config``, ``--out-dir`` and the given `_OPTIONS` keys."""
        for key in ("config", "out_dir", *keys):
            p.add_argument("--" + key.replace("_", "-"), dest=key, **_OPTIONS[key])

    run = ("seed", "kernel", "sigma", "delta", *_FLOW_SETTINGS)

    p_case = sub.add_parser("case", help="run a built-in case study")
    p_case.add_argument("case", type=int)
    p_case.add_argument("--csv", help="external dataset for cases 3 and 4")
    p_case.add_argument("--response", help="response column name(s) or indices")
    p_case.add_argument("--noise", type=float, help="synthetic noise level")
    options(p_case, *run, "lv_max")
    p_case.set_defaults(func=cmd_case)

    p_opt = sub.add_parser("optimize", help="optimize a model on a CSV dataset")
    p_opt.add_argument("csv")
    p_opt.add_argument("--response", help="response column name(s) or indices")
    p_opt.add_argument("--task", choices=["regression", "classification"])
    options(p_opt, *run, "lv_max")
    p_opt.set_defaults(func=cmd_optimize)

    p_pred = sub.add_parser("predict", help="apply a saved model to a CSV")
    p_pred.add_argument("model")
    p_pred.add_argument("csv")
    options(p_pred)
    p_pred.set_defaults(func=cmd_predict)

    p_sweep = sub.add_parser("sweep", help="sensitivity study over one axis")
    p_sweep.add_argument("--axis", required=True, choices=_SWEEP_AXES)
    p_sweep.add_argument("--grid", required=True,
                         help="comma-separated grid values")
    p_sweep.add_argument("--case", type=int, default=1, help="built-in case id")
    p_sweep.add_argument("--csv")
    p_sweep.add_argument("--response")
    options(p_sweep, *run)
    p_sweep.set_defaults(func=cmd_sweep)

    p_surface = sub.add_parser("loss-surface", help="loss on a sigma/delta grid")
    p_surface.add_argument("--sigma-grid", dest="sigma_grid", required=True)
    p_surface.add_argument("--delta-grid", dest="delta_grid", required=True)
    p_surface.add_argument("--case", type=int, default=2, help="built-in case id")
    p_surface.add_argument("--csv")
    p_surface.add_argument("--response")
    options(p_surface, "seed", "kernel", *_SAMPLING_SETTINGS)
    p_surface.set_defaults(func=cmd_loss_surface)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, load_config(args.config) if args.config else {})
    except CliError as exc:
        print(f"error:{exc.category}: {exc}", file=sys.stderr)
        return 2 if exc.category in ("usage", "config") else 1
    except OSError as exc:  # an output directory or file that cannot be written
        print(f"error:io: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - last-resort CLI boundary
        print(f"error:internal: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
