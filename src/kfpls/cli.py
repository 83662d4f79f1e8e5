"""Command-line front end.

Subcommands: ``case`` (built-in case studies), ``optimize`` (fit a model
on a CSV), ``predict`` (apply a saved model to a CSV), ``sweep``
(one-axis sensitivity studies), and ``loss-surface`` (loss values on a
kernel-parameter grid). Every command is reproducible: the same config
and seed produce byte-identical output files.

Options may come from a flat key-value config file (``key = value``, ``#``
comments); command-line flags take precedence. Errors exit nonzero with a
single ``error:<category>: <message>`` line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from ._serialize import read_array_archive, write_array_archive
from .datasets import Dataset, load_csv, read_csv, standardize
from .exceptions import DegenerateProblemError, FlowAbortError
from .flows import _OBJECTIVES, _UPDATE_RULES, FlowConfig, loss_surface
from .kernels import KernelSpec
from .kpls import KplsModel, model_from_arrays, model_to_arrays, predict_kpls
from .pipeline import (
    CASE_DEFAULTS,
    case_dataset,
    case_flow_config,
    case_spec,
    run_pipeline,
    sweep_flow_parameter,
    sweep_n_lv,
    sweep_noise,
)


class CliError(Exception):
    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


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


# Config key -> (FlowConfig field, cast), one entry per settable field; each
# key is also a flag (``n_subsamples`` -> ``--n-subsamples``). ``seed`` is a
# common setting and ``fd_step`` is recorded in reports but not settable.
_FLOW_SETTINGS = {
    "iterations" if f.name == "n_iter" else f.name:
        (f.name, _bool if isinstance(f.default, bool) else type(f.default))
    for f in dataclasses.fields(FlowConfig) if f.name not in ("seed", "fd_step")
}
_FLOW_CHOICES = {"update_rule": _UPDATE_RULES, "objective": _OBJECTIVES}

_CONFIG_KEYS = {
    "seed", "out_dir", "kernel", "sigma", "delta", "lv_max", "noise", "csv",
    "response", "task", *_FLOW_SETTINGS,
}


def _setting(args, config, key, default=None, cast=None):
    """Flag value if given, else config-file value, else the default."""
    flag = getattr(args, key, None)
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


def _flow_config(overrides, seed, case_id=None) -> FlowConfig:
    """Flow settings with the user's overrides, on a case's defaults if given."""
    try:
        if case_id is None:
            return FlowConfig(seed=seed, **overrides)
        return case_flow_config(case_id, seed, **overrides)
    except ValueError as exc:
        raise CliError("config", str(exc)) from exc


def _kernel_spec(args, config, default_families="gaussian") -> KernelSpec:
    families = _setting(args, config, "kernel", default=default_families)
    sigma = _setting(args, config, "sigma", default=1.0, cast=float)
    delta = _setting(args, config, "delta", default=1.0, cast=float)
    try:
        return KernelSpec.create(families, sigma=float(sigma), delta=float(delta))
    except ValueError as exc:
        raise CliError("config", str(exc)) from exc


def _out_dir(args, config) -> Path:
    out = Path(_setting(args, config, "out_dir", default="."))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError("io", f"cannot create output directory: {exc}") from exc
    return out


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_table(path, header, rows) -> None:
    """CSV with full-precision floats; identical inputs give identical bytes."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


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
        names.append("label_true")
        blocks = [data, ds.labels_test[:, None]]
        for key in ("kf_pls", "kpls_default", "pls"):
            names.append(f"label_{key}")
            blocks.append((np.argmax(predictions[key], axis=1) + 1)[:, None])
        data = np.hstack(blocks)
    write_table(path, names, data)


def save_calibrated_model(path, model: KplsModel, ds: Dataset) -> None:
    """Model archive that also carries the dataset standardization."""
    arrays = model_to_arrays(model)
    arrays.update(
        {
            "prep_x_means": ds.x_means,
            "prep_x_stds": ds.x_stds,
            "prep_has_y_stats": np.array(ds.y_means is not None),
            "prep_y_means": ds.y_means if ds.y_means is not None else np.zeros(0),
            "prep_y_stds": ds.y_stds if ds.y_stds is not None else np.zeros(0),
            "prep_task": np.array(ds.task),
            "prep_x_names": np.array(ds.x_names),
            "prep_y_names": np.array(ds.y_names),
        }
    )
    write_array_archive(path, arrays)


def load_calibrated_model(path) -> tuple[KplsModel, dict]:
    """Model and standardization from one read of a calibrated archive.

    Raises ``ValueError`` when the archive is malformed: see
    `model_from_arrays`, plus standardization arrays and names whose
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
        "converged": result.trace.converged,
        "best_smoothed_loss": result.trace.best_smoothed_loss,
        "runtime_seconds": result.runtime_seconds,
        "results": {name: report.to_dict() for name, report in result.reports.items()},
    }


def cmd_case(args) -> int:
    config = load_config(args.config) if args.config else {}
    case_id = args.case_id
    if case_id not in (1, 2, 3, 4):
        raise CliError("usage", f"unknown case id {case_id}")
    seed = int(_setting(args, config, "seed", default=0, cast=int))
    out = _out_dir(args, config)
    csv_path = _setting(args, config, "csv")
    response = _setting(args, config, "response")
    noise = _setting(args, config, "noise", cast=float)
    if case_id in (3, 4) and csv_path is None:
        raise CliError("usage", f"case {case_id} requires --csv with the dataset")
    if case_id in (3, 4) and response is None:
        raise CliError("usage", f"case {case_id} requires --response")

    try:
        ds = case_dataset(case_id, seed, noise=noise, csv_path=csv_path,
                          response=response)
    except (ValueError, OSError) as exc:
        raise CliError("data", str(exc)) from exc

    spec0 = _kernel_spec(args, config, CASE_DEFAULTS[case_id]["families"])
    flow = _flow_config(_flow_overrides(args, config), seed, case_id)
    lv_max = int(_setting(args, config, "lv_max",
                          default=CASE_DEFAULTS[case_id]["lv_max"], cast=int))
    try:
        result = run_pipeline(ds, spec0, flow, lv_max, seed)
    except (DegenerateProblemError, FlowAbortError, ValueError) as exc:
        raise CliError("compute", str(exc)) from exc

    write_report(out / "report.json", _case_report(result, case_id, seed, "case"))
    _write_trace(out / "trace.csv", result.trace)
    _write_predictions(out / "predictions.csv", ds, result.predictions)
    write_table(out / "lv_search.csv", ["n_lv", "holdout_score"], result.lv_table)
    save_calibrated_model(out / "model.kfpls", result.model, ds)
    print(f"case {case_id} done: report.json, trace.csv, predictions.csv in {out}")
    return 0


def cmd_optimize(args) -> int:
    config = load_config(args.config) if args.config else {}
    seed = int(_setting(args, config, "seed", default=0, cast=int))
    out = _out_dir(args, config)
    response = _setting(args, config, "response")
    if response is None:
        raise CliError("usage", "optimize requires --response")
    task = _setting(args, config, "task", default="regression")
    if task not in ("regression", "classification"):
        raise CliError("config", f"unknown task {task!r}")

    try:
        ds = load_csv(args.csv, _parse_response(response), task, seed)
    except (ValueError, OSError) as exc:
        raise CliError("data", str(exc)) from exc

    spec0 = _kernel_spec(args, config)
    flow = _flow_config(_flow_overrides(args, config), seed)
    lv_max = int(_setting(args, config, "lv_max", default=20, cast=int))
    try:
        result = run_pipeline(ds, spec0, flow, lv_max, seed)
    except (DegenerateProblemError, FlowAbortError, ValueError) as exc:
        raise CliError("compute", str(exc)) from exc

    save_calibrated_model(out / "model.kfpls", result.model, ds)
    _write_trace(out / "trace.csv", result.trace)
    write_report(out / "report.json", _case_report(result, None, seed, "optimize"))
    print(f"optimized model written to {out / 'model.kfpls'}")
    return 0


def _parse_response(raw) -> list:
    if isinstance(raw, list):
        return raw
    parts = [p.strip() for p in str(raw).split(",") if p.strip()]
    return [int(p) if p.lstrip("-").isdigit() else p for p in parts]


def cmd_predict(args) -> int:
    config = load_config(args.config) if args.config else {}
    out = _out_dir(args, config)
    try:
        model, meta = load_calibrated_model(args.model)
    except (OSError, ValueError, KeyError) as exc:
        raise CliError("data", f"cannot load model: {exc}") from exc

    try:
        header, rows = read_csv(args.csv)
    except OSError as exc:
        raise CliError("io", str(exc)) from exc
    except ValueError as exc:
        raise CliError("data", str(exc)) from exc

    missing = [name for name in meta["x_names"] if name not in header]
    if missing:
        raise CliError("data", f"feature columns missing from CSV: {missing}")
    cols = [header.index(name) for name in meta["x_names"]]
    X_raw = rows[:, cols]
    X = standardize(X_raw, meta["x_means"], meta["x_stds"])
    pred = predict_kpls(model, X)
    if meta["y_stds"] is not None:
        pred = pred * meta["y_stds"] + meta["y_means"]

    names = [f"pred_{n}" for n in meta["y_names"]]
    data = pred
    if meta["task"] == "classification":
        names.append("label")
        data = np.hstack([pred, (np.argmax(pred, axis=1) + 1)[:, None]])
    write_table(out / "predictions.csv", names, data)
    print(f"predictions written to {out / 'predictions.csv'}")
    return 0


_SWEEP_AXES = ("n_lv", "noise", "learning_rate", "n_subsamples", "init_theta")


def cmd_sweep(args) -> int:
    config = load_config(args.config) if args.config else {}
    if args.axis not in _SWEEP_AXES:
        raise CliError("usage", f"unknown sweep axis {args.axis!r}")
    grid = [float(v) for v in str(args.grid).split(",") if v.strip()]
    if not grid:
        raise CliError("usage", "empty sweep grid")
    seed = int(_setting(args, config, "seed", default=0, cast=int))
    out = _out_dir(args, config)
    case_id = args.case if args.case is not None else 1
    if case_id not in CASE_DEFAULTS:
        raise CliError("usage", f"unknown case id {case_id}")

    csv_path = _setting(args, config, "csv")
    response = _setting(args, config, "response")
    overrides = _flow_overrides(args, config)
    flow = _flow_config(overrides, seed, case_id)
    if args.axis in ("n_lv", "n_subsamples") and not all(v.is_integer() for v in grid):
        raise CliError("config", f"the {args.axis} grid takes whole numbers only")
    if args.axis == "n_lv" and min(grid) < 1:
        raise CliError("config", f"the n_lv grid takes counts >= 1, got {min(grid):g}")
    if args.axis in ("learning_rate", "n_subsamples"):
        cast = int if args.axis == "n_subsamples" else float
        for value in grid:
            _flow_config({**overrides, args.axis: cast(value)}, seed, case_id)
    if args.axis == "init_theta":
        for value in grid:
            try:
                case_spec(case_id, sigma=value, delta=value)
            except ValueError as exc:
                raise CliError("config", str(exc)) from exc

    try:
        if args.axis == "noise":
            if case_id != 1:
                raise CliError("usage", "the noise axis applies to case 1 only")
            rows = sweep_noise(grid, seed, case_id, overrides)
            header = ["noise", "rmse", "nrmse_percent", "q2", "rmse_true", "rmse_noisy"]
            table = [
                (level, rep.rmse, rep.nrmse_percent, rep.q2, r_true, r_noisy)
                for level, rep, r_true, r_noisy in rows
            ]
        elif args.axis == "n_lv":
            ds = case_dataset(case_id, seed, csv_path=csv_path,
                              response=_parse_response(response) if response else None)
            spec0 = _kernel_spec(args, config, CASE_DEFAULTS[case_id]["families"])
            result = run_pipeline(ds, spec0, flow, CASE_DEFAULTS[case_id]["lv_max"], seed)
            rows = sweep_n_lv(ds, result.spec_opt, [int(v) for v in grid])
            header = ["n_lv", "rmse", "nrmse_percent", "q2", "accuracy"]
            table = [
                (lv, rep.rmse, rep.nrmse_percent, rep.q2,
                 rep.accuracy if rep.accuracy is not None else "")
                for lv, rep in rows
            ]
        else:
            ds = case_dataset(case_id, seed, csv_path=csv_path,
                              response=_parse_response(response) if response else None)
            rows = sweep_flow_parameter(ds, args.axis, grid, seed, case_id, overrides)
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
    except (DegenerateProblemError, FlowAbortError, ValueError) as exc:
        raise CliError("compute", str(exc)) from exc

    write_table(out / "sweep.csv", header, table)
    print(f"sweep table written to {out / 'sweep.csv'}")
    return 0


def cmd_loss_surface(args) -> int:
    config = load_config(args.config) if args.config else {}
    seed = int(_setting(args, config, "seed", default=0, cast=int))
    out = _out_dir(args, config)
    sigmas = [float(v) for v in str(args.sigma_grid).split(",") if v.strip()]
    deltas = [float(v) for v in str(args.delta_grid).split(",") if v.strip()]
    if not sigmas or not deltas:
        raise CliError("usage", "sigma and delta grids must be non-empty")
    case_id = args.case if args.case is not None else 2
    if case_id not in CASE_DEFAULTS:
        raise CliError("usage", f"unknown case id {case_id}")
    csv_path = _setting(args, config, "csv")
    response = _setting(args, config, "response")
    families = _setting(args, config, "kernel",
                        default=CASE_DEFAULTS[case_id]["families"])
    flow = _flow_config(_flow_overrides(args, config), seed, case_id)

    try:
        ds = case_dataset(case_id, seed, csv_path=csv_path,
                          response=_parse_response(response) if response else None)
        specs = [
            KernelSpec.create(families, sigma=s, delta=d)
            for s in sigmas for d in deltas
        ]
        rows = loss_surface(ds.X_cal, ds.Y_cal, specs, flow)
    except (DegenerateProblemError, FlowAbortError, ValueError) as exc:
        raise CliError("compute", str(exc)) from exc

    table = []
    k = 0
    for s in sigmas:
        for d in deltas:
            _, mean, std = rows[k]
            table.append((s, d, mean, std))
            k += 1
    write_table(out / "loss_surface.csv", ["sigma", "delta", "mean_loss", "std_loss"], table)
    print(f"loss surface written to {out / 'loss_surface.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kfpls",
        description="Kernel PLS with cross-validation-driven kernel learning.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--seed", type=int)
        p.add_argument("--out-dir", dest="out_dir")
        p.add_argument("--kernel", help="comma-separated kernel families")
        p.add_argument("--sigma", type=float, help="initial length-scale")
        p.add_argument("--delta", type=float, help="initial ridge")
        p.add_argument("--lv-max", dest="lv_max", type=int,
                       help="upper bound for the factor line search")
        for key, (name, cast) in _FLOW_SETTINGS.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=cast,
                           choices=_FLOW_CHOICES.get(key),
                           help=f"flow setting FlowConfig.{name}")

    p_case = sub.add_parser("case", help="run a built-in case study")
    p_case.add_argument("case_id", type=int)
    p_case.add_argument("--csv", help="external dataset for cases 3 and 4")
    p_case.add_argument("--response", help="response column name(s)")
    p_case.add_argument("--noise", type=float, help="synthetic noise level")
    common(p_case)
    p_case.set_defaults(func=cmd_case)

    p_opt = sub.add_parser("optimize", help="optimize a model on a CSV dataset")
    p_opt.add_argument("csv")
    p_opt.add_argument("--response", help="response column name(s) or indices")
    p_opt.add_argument("--task", choices=["regression", "classification"])
    common(p_opt)
    p_opt.set_defaults(func=cmd_optimize)

    p_pred = sub.add_parser("predict", help="apply a saved model to a CSV")
    p_pred.add_argument("model")
    p_pred.add_argument("csv")
    common(p_pred)
    p_pred.set_defaults(func=cmd_predict)

    p_sweep = sub.add_parser("sweep", help="sensitivity study over one axis")
    p_sweep.add_argument("--axis", required=True, choices=_SWEEP_AXES)
    p_sweep.add_argument("--grid", required=True,
                         help="comma-separated grid values")
    p_sweep.add_argument("--case", type=int, help="built-in case id")
    p_sweep.add_argument("--csv")
    p_sweep.add_argument("--response")
    common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_surface = sub.add_parser("loss-surface", help="loss on a sigma/delta grid")
    p_surface.add_argument("--sigma-grid", dest="sigma_grid", required=True)
    p_surface.add_argument("--delta-grid", dest="delta_grid", required=True)
    p_surface.add_argument("--case", type=int)
    p_surface.add_argument("--csv")
    p_surface.add_argument("--response")
    common(p_surface)
    p_surface.set_defaults(func=cmd_loss_surface)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error:{exc.category}: {exc}", file=sys.stderr)
        return 2 if exc.category in ("usage", "config") else 1
    except Exception as exc:  # noqa: BLE001 - last-resort CLI boundary
        print(f"error:internal: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
