"""The tabular-data workflow: CSV in, optimized model out, predictions back.

Builds a small synthetic CSV, fits an optimized model through the same
pipeline the command line uses, saves the model archive, reloads it, and
predicts. The archive round-trips bit-exactly and equal runs produce
byte-identical files.

Run:  python3 demos/csv_workflow.py
"""

import tempfile
from pathlib import Path

import numpy as np

from kfpls import load_calibrated_model, load_csv, predict_kpls, save_calibrated_model
from kfpls.pipeline import case_flow_config, run_pipeline
from kfpls.kernels import KernelSpec
from kfpls.datasets import standardize

with tempfile.TemporaryDirectory(prefix="kfpls_demo_") as tmp:
    workdir = Path(tmp)
    csv_path = workdir / "sensor.csv"

    rng = np.random.default_rng(0)
    X = rng.uniform(-1, 1, size=(80, 3))
    y = np.sin(2 * X[:, 0]) + X[:, 1] ** 2 - 0.5 * X[:, 2] + 0.05 * rng.normal(size=80)
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("temp,flow,pressure,target\n")
        for row, t in zip(X, y):
            fh.write(",".join(str(v) for v in row) + f",{t}\n")
    print(f"wrote a toy sensor table to {csv_path}")

    ds = load_csv(csv_path, ["target"], "regression", seed=3)
    print(f"loaded: {ds.X_cal.shape[0]} calibration rows, "
          f"{ds.X_test.shape[0]} test rows, predictors {ds.x_names}")

    spec0 = KernelSpec.create("gaussian", sigma=1.0, delta=1.0)
    result = run_pipeline(ds, spec0, case_flow_config(1, seed=3, n_iter=80), 10, seed=3)
    rep = result.reports["kf_pls"]
    print(f"optimized model: sigma={result.spec_opt.sigma[0]:.3f}, "
          f"delta={result.spec_opt.delta:.4f}, factors={result.n_lv}")
    print(f"test RMSE {rep.rmse:.4f}, Q2 {rep.q2:.3f}\n")

    model_path = workdir / "model.kfpls"
    save_calibrated_model(model_path, result.model, ds)
    model, meta = load_calibrated_model(model_path)
    print(f"saved and reloaded {model_path.name}; "
          f"model expects columns {meta['x_names']}")

    X_new_raw = rng.uniform(-1, 1, size=(5, 3))
    X_new = standardize(X_new_raw, meta["x_means"], meta["x_stds"])
    pred = predict_kpls(model, X_new) * meta["y_stds"] + meta["y_means"]
    truth = np.sin(2 * X_new_raw[:, 0]) + X_new_raw[:, 1] ** 2 - 0.5 * X_new_raw[:, 2]
    print("\npredictions on five fresh rows (vs noiseless generator):")
    for p, t in zip(pred[:, 0], truth):
        print(f"  predicted {p:+7.3f}   true {t:+7.3f}")
