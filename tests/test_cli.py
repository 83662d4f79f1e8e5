import contextlib
import csv
import dataclasses
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kfpls import (FlowConfig, KernelSpec, cli, kernels, load_calibrated_model, pipeline,
                   predict_kpls)
from kfpls._serialize import read_array_archive, write_array_archive
from kfpls.cli import build_parser, main
from kfpls.datasets import read_csv, standardize
from kfpls.pipeline import case_flow_config


def write_toy_csv(path, n=50, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 3))
    y = np.sin(2 * X[:, 0]) + X[:, 1] ** 2 - 0.5 * X[:, 2]
    y = y + 0.05 * rng.normal(size=n)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("f1,f2,f3,target\n")
        for row, t in zip(X, y):
            fh.write(",".join(str(v) for v in row) + f",{t}\n")
    return path


@pytest.fixture()
def toy_csv(tmp_path):
    return write_toy_csv(tmp_path / "toy.csv")


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def xy_files(tmp_path_factory):
    """Training CSV with features x1, x2 and the archive optimized on it, made
    once per module; a test changes a copy of the archive (`xy_model`)."""
    tmp = tmp_path_factory.mktemp("xy")
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, size=(40, 2))
    y = np.sin(2 * x[:, 0]) + x[:, 1]
    train = tmp / "train.csv"
    train.write_text("x1,x2,y\n" + "".join(f"{a},{b},{c}\n" for (a, b), c in zip(x, y)),
                     encoding="utf-8")
    out = tmp / "opt"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli("optimize", train, "--response", "y", "--seed", "1",
                       "--iterations", "5", "--out-dir", out) == 0
    return train, out / "model.kfpls"


@pytest.fixture(scope="module")
def two_family_files(tmp_path_factory, xy_files):
    """The `xy_files` training CSV and an archive of a weighted two-family
    kernel optimized on it."""
    train = xy_files[0]
    out = tmp_path_factory.mktemp("two_family") / "opt"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli("optimize", train, "--response", "y", "--kernel", "gaussian,cauchy",
                       "--seed", "1", "--iterations", "5", "--out-dir", out) == 0
    return train, out / "model.kfpls"


@pytest.fixture(scope="module")
def classification_files(tmp_path_factory):
    """A two-ring training CSV with one-hot responses and the classification
    archive optimized on it; its features are x1 and x2 too."""
    tmp = tmp_path_factory.mktemp("rings")
    rng = np.random.default_rng(5)
    radius = np.repeat([1.0, 2.0], 30) + 0.05 * rng.normal(size=60)
    angle = rng.uniform(0.0, 2.0 * np.pi, size=60)
    train = tmp / "rings.csv"
    train.write_text("x1,x2,inner,outer\n" + "".join(
        f"{r * np.cos(a)},{r * np.sin(a)},{int(r < 1.5)},{int(r >= 1.5)}\n"
        for r, a in zip(radius, angle)), encoding="utf-8")
    out = tmp / "opt"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli("optimize", train, "--response", "inner,outer",
                       "--task", "classification", "--seed", "1",
                       "--iterations", "5", "--out-dir", out) == 0
    return train, out / "model.kfpls"


# The archives besides `xy_files`'s one-family regression model that the
# archive damage tests run on.
OTHER_ARCHIVES = ("two_family", "classification")


@pytest.fixture()
def xy_model(tmp_path, xy_files):
    """The `xy_files` training CSV and a copy of its archive."""
    train, archive = xy_files
    copy = tmp_path / "opt" / "model.kfpls"
    copy.parent.mkdir()
    copy.write_bytes(archive.read_bytes())
    return train, copy


class TestWriteTable:
    @staticmethod
    def per_cell(header, rows):
        # The reference: every cell formatted alone, floats by repr(float(v)).
        def fmt(v):
            return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
        return "".join(",".join(map(fmt, row)) + "\n" for row in [header, *rows])

    @pytest.mark.parametrize("rows", [
        np.array([[-0.0, 5e-324, 0.1], [1.0 / 3.0, 2.0, 1e300]]),
        np.array([[1, -2, 3], [40, 0, 7]]),
        [(np.int64(3), np.float64(-0.0), np.float64(5e-324)),
         (4, np.float64(1.0 / 3.0), 1e300)],
        np.array([[-0.0], [5e-324], [0.1], [-1e300], [np.inf], [np.nan]]),
        # 5,000 predictions of every magnitude, as `kfpls predict` writes them
        np.random.default_rng(3).normal(size=(5000, 1))
        * 10.0 ** np.random.default_rng(4).integers(-20, 20, size=(5000, 1)),
    ], ids=["float_array", "int_array", "list_of_scalars", "one_column", "rows_5000"])
    def test_bytes_match_per_cell_formatting(self, tmp_path, rows):
        path = tmp_path / "table.csv"
        cli.write_table(path, ["a", "b", "c"], rows)
        assert path.read_bytes() == self.per_cell(["a", "b", "c"], rows).encode()


class TestCaseCommand:
    def test_case1_writes_reports(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("case", "1", "--seed", "1", "--iterations", "25",
                       "--out-dir", out)
        assert code == 0
        for name in ("report.json", "trace.csv", "predictions.csv",
                     "lv_search.csv", "model.kfpls"):
            assert (out / name).exists()
        report = json.loads((out / "report.json").read_text())
        assert report["case"] == 1
        assert report["seed"] == 1
        assert report["artifact_version"]
        assert set(report["results"]) == {"kf_pls", "kpls_default", "pls"}
        assert report["flow_config"] == dataclasses.asdict(case_flow_config(1, 1, n_iter=25))
        assert set(report["flow_config"]) == {f.name for f in dataclasses.fields(FlowConfig)}
        assert report["n_skipped"] >= 0
        assert report["n_resampled"] >= report["n_skipped"]  # a skip was resampled first
        stages = report["stage_seconds"]
        assert set(stages) == {"flow", "factor_search", "final_fit", "baselines"}
        assert all(t >= 0.0 for t in stages.values())
        assert sum(stages.values()) <= report["runtime_seconds"]

    def test_unknown_case_is_usage_error(self, capsys):
        assert run_cli("case", "9") == 2
        assert "error:usage" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--update-rule", "--objective"])
    def test_unknown_flow_choice_is_usage_error(self, flag):
        with pytest.raises(SystemExit) as exc:
            run_cli("case", "1", flag, "bogus")
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--iterations", "--n-lv"])
    def test_rejected_flow_setting_is_config_error(self, flag, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("case", "1", flag, "0", "--out-dir", out) == 2
        assert "error:config" in capsys.readouterr().err
        assert not out.exists()

    def test_case3_without_csv_is_usage_error(self, capsys):
        assert run_cli("case", "3") == 2
        assert "error:usage" in capsys.readouterr().err

    def test_classification_labels_are_integers(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("case", "2", "--seed", "2", "--iterations", "5",
                       "--out-dir", out) == 0
        with open(out / "predictions.csv", newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        label_cols = [j for j, name in enumerate(header) if name.startswith("label_")]
        assert [header[j] for j in label_cols] == [
            "label_true", "label_kf_pls", "label_kpls_default", "label_pls"]
        cells = {row[j] for row in rows for j in label_cols}
        assert cells and cells <= {"1", "2", "3", "4"}
        assert all("." in row[0] for row in rows)  # the one-hot responses stay floats

    def test_trace_row_count_bounded_by_iterations(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("case", "1", "--seed", "0", "--iterations", "10",
                       "--out-dir", out) == 0
        lines = (out / "trace.csv").read_text().strip().splitlines()
        assert 2 <= len(lines) <= 11  # header plus at most 10 rows
        header = lines[0].split(",")
        assert header[:2] == ["iteration", "loss"]
        assert header[-1] == "grad_norm"
        for line in lines[1:]:
            assert line.split(",")[0].isdigit()  # the iteration, written as an int
            assert np.isfinite(float(line.split(",")[1]))


class TestRunReport:
    """`case` and `optimize` reports count the flow's work and record the
    numeric environment their bits depend on."""

    @pytest.mark.parametrize("command", ["case", "optimize"])
    def test_counts_and_numeric_env(self, command, tmp_path, toy_csv, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        source = ["case", "1"] if command == "case" else [
            "optimize", toy_csv, "--response", "target"]
        out = tmp_path / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_cli(*source, "--seed", "1", "--iterations", "6",
                           "--out-dir", out) == 0
        report = json.loads((out / "report.json").read_text())
        evals = report["iterations_run"] + report["n_resampled"]
        # Vanilla cv: one evaluation per draw, each fitting every sub-batch.
        assert report["n_loss_evals"] == evals
        assert report["n_fits"] == evals * report["flow_config"]["n_subsamples"]
        env = report["numeric_env"]
        assert set(env) == {"numpy", "blas_name", "blas_version",
                            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}
        assert env["numpy"] == np.__version__
        assert all(env[k] is None or isinstance(env[k], str)
                   for k in ("blas_name", "blas_version"))
        assert (env["OPENBLAS_NUM_THREADS"], env["OMP_NUM_THREADS"]) == (None, "3")


class TestOptimizeAndPredict:
    def test_round_trip(self, tmp_path, toy_csv):
        out = tmp_path / "opt"
        code = run_cli("optimize", toy_csv, "--response", "target",
                       "--seed", "3", "--iterations", "15", "--out-dir", out)
        assert code == 0
        pred_dir = tmp_path / "pred"
        code = run_cli("predict", out / "model.kfpls", toy_csv,
                       "--out-dir", pred_dir)
        assert code == 0
        lines = (pred_dir / "predictions.csv").read_text().strip().splitlines()
        assert lines[0] == "pred_target"
        assert len(lines) == 51

    def test_same_seed_gives_identical_model_files(self, tmp_path, toy_csv):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("optimize", toy_csv, "--response", "target",
                           "--seed", "3", "--iterations", "15",
                           "--out-dir", out) == 0
            outs.append(out)
        assert (outs[0] / "model.kfpls").read_bytes() == (outs[1] / "model.kfpls").read_bytes()
        assert (outs[0] / "trace.csv").read_bytes() == (outs[1] / "trace.csv").read_bytes()
        reports = [json.loads((o / "report.json").read_text()) for o in outs]
        for r in reports:
            r.pop("runtime_seconds")  # wall times are the one legitimate difference
            r.pop("stage_seconds")
        assert reports[0] == reports[1]

    def test_missing_response_is_usage_error(self, tmp_path, toy_csv, capsys):
        assert run_cli("optimize", toy_csv, "--out-dir", tmp_path / "x") == 2
        assert "error:usage" in capsys.readouterr().err

    def test_classification_round_trip_labels(self, tmp_path):
        rng = np.random.default_rng(4)
        path = tmp_path / "rings.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x1,x2,inner,outer\n")
            for c in (1, 2):
                for _ in range(40):
                    a = rng.uniform(0, 2 * np.pi)
                    r = c + 0.05 * rng.normal()
                    fh.write(f"{r*np.cos(a)},{r*np.sin(a)},{int(c==1)},{int(c==2)}\n")
        out = tmp_path / "opt"
        assert run_cli("optimize", path, "--response", "inner,outer",
                       "--task", "classification", "--seed", "1",
                       "--iterations", "30", "--out-dir", out) == 0
        pred_dir = tmp_path / "pred"
        assert run_cli("predict", out / "model.kfpls", path,
                       "--out-dir", pred_dir) == 0
        lines = (pred_dir / "predictions.csv").read_text().strip().splitlines()
        assert lines[0] == "pred_inner,pred_outer,label"
        labels = [line.split(",")[-1] for line in lines[1:]]
        assert set(labels) <= {"1", "2"}  # integers, not "1.0"

    def test_classification_archive_with_response_statistics(self, tmp_path, capsys):
        path = tmp_path / "cls.csv"
        path.write_text("x1,x2,a,b\n" + "".join(
            f"{i},{(i * 7) % 5},{i % 2},{1 - i % 2}\n" for i in range(30)),
            encoding="utf-8")
        out = tmp_path / "opt"
        assert run_cli("optimize", path, "--response", "a,b", "--task",
                       "classification", "--iterations", "3", "--lv-max", "4",
                       "--out-dir", out) == 0
        arrays = read_array_archive(out / "model.kfpls")
        arrays.update(prep_has_y_stats=np.array(True), prep_y_means=np.zeros(2),
                      prep_y_stds=np.ones(2))
        write_array_archive(out / "model.kfpls", arrays)
        pred_dir = tmp_path / "pred"
        capsys.readouterr()
        assert run_cli("predict", out / "model.kfpls", path, "--out-dir", pred_dir) == 1
        assert capsys.readouterr().err.startswith("error:data: cannot load model")
        assert not (pred_dir / "predictions.csv").exists()

    def test_classification_response_must_be_one_hot(self, tmp_path, capsys):
        path = tmp_path / "cls.csv"
        path.write_text("x1,x2,label\n" + "".join(f"{i},{i % 3},{1 + i % 2}\n"
                                                  for i in range(20)), encoding="utf-8")
        out = tmp_path / "opt"
        assert run_cli("optimize", path, "--response", "label",
                       "--task", "classification", "--out-dir", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:data:") and "'label'" in err
        assert not out.exists()

    def test_predict_reads_byte_order_marked_csv(self, tmp_path, xy_model):
        train, archive = xy_model
        marked = tmp_path / "marked.csv"
        marked.write_text("\ufeff" + train.read_text(encoding="utf-8"), encoding="utf-8")
        for name, csv_path in (("plain", train), ("marked", marked)):
            assert run_cli("predict", archive, csv_path, "--out-dir", tmp_path / name) == 0
        assert ((tmp_path / "marked" / "predictions.csv").read_bytes()
                == (tmp_path / "plain" / "predictions.csv").read_bytes())

    def test_predict_rejects_csv_without_model_features(self, tmp_path, toy_csv, capsys):
        out = tmp_path / "opt"
        assert run_cli("optimize", toy_csv, "--response", "target", "--seed", "1",
                       "--iterations", "10", "--out-dir", out) == 0
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n", encoding="utf-8")
        assert run_cli("predict", out / "model.kfpls", bad,
                       "--out-dir", tmp_path / "p") == 1
        assert "error:data" in capsys.readouterr().err


    def test_predict_rejects_non_finite_cells(self, tmp_path, xy_model, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2\n0.1,0.2\nnan,0.3\ninf,0.1\n", encoding="utf-8")
        pred_dir = tmp_path / "pred"
        assert run_cli("predict", xy_model[1], bad, "--out-dir", pred_dir) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:data:")
        assert "row 3, column 'x1'" in err
        assert not (pred_dir / "predictions.csv").exists()

    def test_optimize_rejects_duplicate_column_names(self, tmp_path, toy_csv, capsys):
        text = toy_csv.read_text(encoding="utf-8")
        toy_csv.write_text(text.replace("f1,f2,", "f1,f1,", 1), encoding="utf-8")
        out = tmp_path / "opt"
        assert run_cli("optimize", toy_csv, "--response", "target", "--seed", "1",
                       "--iterations", "3", "--out-dir", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:data:") and "'f1'" in err[0]
        assert not out.exists()

    def test_predict_rejects_duplicate_column_names(self, tmp_path, xy_model, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x1,x2\n0.1,0.5,0.2\n0.3,0.7,0.4\n", encoding="utf-8")
        pred_dir = tmp_path / "pred"
        assert run_cli("predict", xy_model[1], bad, "--out-dir", pred_dir) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:data:") and "'x1'" in err[0]
        assert not (pred_dir / "predictions.csv").exists()

    def test_optimize_rejects_nan_cell(self, tmp_path, toy_csv, capsys):
        lines = toy_csv.read_text(encoding="utf-8").splitlines()
        cells = lines[4].split(",")
        cells[1] = "nan"
        lines[4] = ",".join(cells)
        toy_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run_cli("optimize", toy_csv, "--response", "target",
                       "--out-dir", tmp_path / "opt") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:data:")
        assert "row 5, column 'f2'" in err


# Small regression tables: 20-40 rows of two features and a response, every
# cell distinct, so no column is constant and no two rows coincide.
regression_tables = st.integers(20, 40).flatmap(lambda n: hnp.arrays(
    np.float64, (n, 3), unique=True,
    elements=st.integers(-10**4, 10**4).map(lambda v: v / 997)))


class TestCsvModelPredictProperty:
    @given(regression_tables)
    @settings(max_examples=5, deadline=None)
    def test_predict_output_is_archived_model_prediction(self, table):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            train = tmp / "train.csv"
            train.write_text("a,b,y\n" + "".join(",".join(map(repr, row)) + "\n"
                                                  for row in table.tolist()),
                             encoding="utf-8")
            with contextlib.redirect_stdout(io.StringIO()):
                assert run_cli("optimize", train, "--response", "y", "--seed", "1",
                               "--iterations", "3", "--lv-max", "4",
                               "--out-dir", tmp / "opt") == 0
                assert run_cli("predict", tmp / "opt" / "model.kfpls", train,
                               "--out-dir", tmp / "pred") == 0
            header, got = read_csv(tmp / "pred" / "predictions.csv")
            model, meta = load_calibrated_model(tmp / "opt" / "model.kfpls")
            X = standardize(table[:, :2], meta["x_means"], meta["x_stds"])
            expected = predict_kpls(model, X) * meta["y_stds"] + meta["y_means"]
            assert header == ["pred_y"]
            np.testing.assert_array_equal(got, expected)


def _cut_coef(arrays):
    arrays["pls_coef"] = arrays["pls_coef"][:-3]


def _nan_coef(arrays):
    arrays["pls_coef"] = arrays["pls_coef"].copy()
    arrays["pls_coef"][0, 0] = np.nan


def _one_feature_name(arrays):
    arrays["prep_x_names"] = arrays["prep_x_names"][:1]


def _no_schema_version(arrays):
    del arrays["schema_version"]


def _unknown_family(arrays):
    arrays["families"] = np.array(["bogus"])


def _no_length_scale(arrays):
    arrays["log_sigma"] = np.zeros(0)


def _no_weight(arrays):
    arrays["has_log_gamma"] = np.array(True)
    arrays["log_gamma"] = np.zeros(0)


def _two_families_no_weights(arrays):
    arrays["families"] = np.array(["gaussian", "cauchy"])
    arrays["log_sigma"] = np.zeros(2)


def _vector_ridge(arrays):
    arrays["log_delta"] = np.zeros(2)


def _duplicate_family(arrays):
    arrays["families"] = np.array(["gaussian", "gaussian"])
    arrays["log_sigma"] = np.zeros(2)
    arrays["has_log_gamma"] = np.array(True)
    arrays["log_gamma"] = np.zeros(2)


def _zero_x_std(arrays):
    arrays["prep_x_stds"] = np.zeros_like(arrays["prep_x_stds"])


def _negative_y_std(arrays):
    arrays["prep_y_stds"] = -arrays["prep_y_stds"]


def _one_d_x_train(arrays):
    arrays["x_train"] = arrays["x_train"][:, 0]


def _matrix_y_means(arrays):
    arrays["y_means"] = arrays["y_means"][:, None]


def _no_training_rows(arrays):
    for key in ("x_train", "pls_coef", "center_col_means"):
        arrays[key] = arrays[key][:0]


def _more_factors_than_rows(arrays):
    arrays["pls_n_lv"] = np.array(arrays["x_train"].shape[0] + 1)


def _unknown_task(arrays):
    arrays["prep_task"] = np.array("bogus")


def _no_y_stats(arrays):
    arrays["prep_has_y_stats"] = np.array(False)


def _one_response_classification(arrays):
    arrays["prep_task"] = np.array("classification")
    arrays["prep_has_y_stats"] = np.array(False)


def _subnormal_x_std(arrays):
    # 1 / 5e-324 overflows, so every standardized cell would be infinite.
    arrays["prep_x_stds"] = np.full_like(arrays["prep_x_stds"], 5e-324)


def _complex_y_means(arrays):
    arrays["prep_y_means"] = arrays["prep_y_means"].astype(complex)


def _complex_coef(arrays):
    arrays["pls_coef"] = arrays["pls_coef"].astype(complex)


def _string_length_scale(arrays):
    arrays["log_sigma"] = arrays["log_sigma"].astype(str)


def _vanishing_length_scale(arrays):
    arrays["log_sigma"] = arrays["log_sigma"] - 800.0


def _overflowing_length_scale(arrays):
    arrays["log_sigma"] = arrays["log_sigma"] + 800.0


def _subnormal_square_length_scale(arrays):
    # sigma^2 = exp(-720) is subnormal: its reciprocal, which the kernels
    # multiply by, overflows.
    arrays["log_sigma"] = np.full_like(arrays["log_sigma"], -360.0)


def _numeric_feature_names(arrays):
    arrays["prep_x_names"] = np.arange(arrays["prep_x_names"].size)


CORRUPTIONS = [_cut_coef, _nan_coef, _one_feature_name, _no_schema_version,
               _unknown_family, _no_length_scale, _no_weight, _two_families_no_weights,
               _duplicate_family, _vector_ridge, _zero_x_std, _negative_y_std,
               _one_d_x_train, _matrix_y_means, _no_training_rows,
               _more_factors_than_rows, _unknown_task, _no_y_stats,
               _one_response_classification, _subnormal_x_std, _complex_y_means,
               _complex_coef, _string_length_scale, _vanishing_length_scale,
               _overflowing_length_scale, _subnormal_square_length_scale,
               _numeric_feature_names]

# Corruptions of a one-family regression archive that leave another kind of
# archive valid: a classification archive has no response statistics to
# damage and is a classification one already, and a two-family archive
# keeps the weights that `_two_families_no_weights` leaves out.
VALID_AFTER = {
    "classification": (_negative_y_std, _no_y_stats, _one_response_classification),
    "two_family": (_two_families_no_weights,),
}


def _predict_rejects(corrupt, train, archive, pred_dir, capsys):
    arrays = read_array_archive(archive)
    corrupt(arrays)
    write_array_archive(archive, arrays)
    assert run_cli("predict", archive, train, "--out-dir", pred_dir) == 1
    assert capsys.readouterr().err.startswith("error:data: cannot load model")
    assert not (pred_dir / "predictions.csv").exists()


class TestCorruptArchive:
    @pytest.mark.parametrize("corrupt", CORRUPTIONS)
    def test_predict_rejects_corrupt_archive(self, tmp_path, xy_model, capsys, corrupt):
        _predict_rejects(corrupt, *xy_model, tmp_path / "pred", capsys)

    @pytest.mark.parametrize("kind, corrupt", [
        pytest.param(kind, c, id=f"{kind}-{c.__name__}")
        for kind in OTHER_ARCHIVES for c in CORRUPTIONS if c not in VALID_AFTER[kind]])
    def test_predict_rejects_corrupt_archive_of_another_kind(self, kind, corrupt, tmp_path,
                                                             request, capsys):
        train, original = request.getfixturevalue(f"{kind}_files")
        archive = tmp_path / "model.kfpls"
        archive.write_bytes(original.read_bytes())
        _predict_rejects(corrupt, train, archive, tmp_path / "pred", capsys)

    @pytest.mark.parametrize("damage", [
        lambda data: data[: len(data) // 2],
        lambda data: b"",
        lambda data: b"x1,x2\n0.1,0.2\n",
    ], ids=["truncated", "empty", "not-an-archive"])
    def test_predict_rejects_damaged_file(self, tmp_path, xy_model, capsys, damage):
        train, archive = xy_model
        archive.write_bytes(damage(archive.read_bytes()))
        pred_dir = tmp_path / "pred"
        assert run_cli("predict", archive, train, "--out-dir", pred_dir) == 1
        assert capsys.readouterr().err.startswith("error:data: cannot load model")
        assert not (pred_dir / "predictions.csv").exists()

    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_unreadable_archive_is_io_error(self, tmp_path, xy_model, capsys, where):
        train = xy_model[0]
        archive = tmp_path / "model.kfpls"
        if where == "directory":
            archive.mkdir()
        pred_dir = tmp_path / "pred"
        assert run_cli("predict", archive, train, "--out-dir", pred_dir) == 1
        assert capsys.readouterr().err.startswith("error:io: cannot load model")
        assert not (pred_dir / "predictions.csv").exists()


class TestNonFinitePredictions:
    """Values so large that a prediction overflows are ``error:data``, with
    one line on stderr (no numpy warning) and no output directory."""

    @staticmethod
    def rejected_row(code, err, pred_dir) -> int:
        """The data row an ``error:data`` line names as not finite."""
        lines = err.splitlines()
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error:data:")
        assert not pred_dir.exists()
        return int(re.search(r"data row (\d+) ", lines[0]).group(1))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("cell", ["1e308", "-1e308"])
    def test_huge_csv_cell(self, cell, tmp_path, xy_model, capsys):
        features = tmp_path / "features.csv"
        features.write_text(f"x1,x2\n0.1,0.2\n{cell},0.3\n0.4,0.5\n", encoding="utf-8")
        pred_dir = tmp_path / "pred"
        code = run_cli("predict", xy_model[1], features, "--out-dir", pred_dir)
        assert self.rejected_row(code, capsys.readouterr().err, pred_dir) == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [1e308, -1e308])
    @pytest.mark.parametrize("member", ["pls_coef", "x_train", "prep_x_means"])
    def test_huge_archive_member(self, member, value, tmp_path, xy_model, capsys):
        train, archive = xy_model
        arrays = read_array_archive(archive)
        arrays[member] = np.full_like(arrays[member], value)
        write_array_archive(archive, arrays)
        pred_dir = tmp_path / "pred"
        code = run_cli("predict", archive, train, "--out-dir", pred_dir)
        self.rejected_row(code, capsys.readouterr().err, pred_dir)


ARCHIVE_MEMBERS = (
    "schema_version", "families", "log_sigma", "log_gamma", "has_log_gamma",
    "log_delta", "x_train", "center_col_means", "pls_coef", "pls_n_lv", "y_means",
    "prep_x_means", "prep_x_stds", "prep_has_y_stats", "prep_y_means", "prep_y_stds",
    "prep_task", "prep_x_names", "prep_y_names",
)


def _member_mutations(value):
    """Damaged versions of an archive member by its kind, ``None`` dropping it:
    float members filled with edge values, cast, given a dimension or
    emptied; integer and flag members cast, made negative or huge,
    replaced by a string or given a dimension; string members emptied,
    replaced by floats or given a dimension."""
    if value.dtype.kind == "f":
        return [None, *(np.full_like(value, v) for v in
                        (np.nan, np.inf, 1e308, -1e308, 0.0, -0.0, 5e-324)),
                value.astype(int), value.astype(bool), value[None],
                np.empty((0,) * max(value.ndim, 1))]
    if value.dtype.kind in "iub":
        return [None, value.astype(float), np.full(value.shape, -3),
                np.full(value.shape, 10**12), np.full(value.shape, "x"), value[None]]
    assert value.dtype.kind == "U"
    return [None, value[:0] if value.ndim else np.array(""), np.ones(value.shape),
            value[None]]


# Count and flag members: each of their mutations is of the wrong kind or
# shape or out of range, so every one must be ``error:data``.
STRICT_MEMBERS = ("schema_version", "has_log_gamma", "pls_n_lv", "prep_has_y_stats")


class TestArchiveMutations:
    """Every damaged member of a model archive either predicts finite values
    or is one ``error:`` line (exit 1 or 2, no output), never ``error:internal``;
    a damaged count or flag member is always ``error:data``."""

    def test_members_are_the_archive_members(self, xy_files):
        assert sorted(read_array_archive(xy_files[1])) == sorted(ARCHIVE_MEMBERS)

    @staticmethod
    def failures(member, train, original, tmp_path, capsys):
        """The mutations of ``member`` (by index) whose verdict breaks the rule
        above. A member that the archive's model never reads (its optional
        shape's flag is off) must predict the undamaged archive's bytes when
        it exits 0."""
        archive = tmp_path / "model.kfpls"
        arrays = read_array_archive(original)
        unread = member in ("log_gamma", "prep_y_means", "prep_y_stds") and not arrays[
            "has_log_gamma" if member == "log_gamma" else "prep_has_y_stats"]
        if unread:
            assert run_cli("predict", original, train, "--out-dir", tmp_path / "base") == 0
            capsys.readouterr()
            base = (tmp_path / "base" / "predictions.csv").read_bytes()
        failures = []
        for i, mutated in enumerate(_member_mutations(arrays[member])):
            arrays = read_array_archive(original)
            if mutated is None:
                del arrays[member]
            else:
                arrays[member] = mutated
            write_array_archive(archive, arrays)
            pred_dir = tmp_path / f"pred{i}"
            code = run_cli("predict", archive, train, "--out-dir", pred_dir)
            err = capsys.readouterr().err.splitlines()
            written = pred_dir / "predictions.csv"
            if member in STRICT_MEMBERS:
                ok = (code == 1 and len(err) == 1 and err[0].startswith("error:data")
                      and not pred_dir.exists())
            elif code == 0:
                ok = not err and np.isfinite(read_csv(written)[1]).all()
                ok = ok and (not unread or written.read_bytes() == base)
            else:
                ok = (code in (1, 2) and len(err) == 1 and err[0].startswith("error:")
                      and not err[0].startswith("error:internal")
                      and not pred_dir.exists())
            if not ok:
                failures.append((i, code, err))
        return failures

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("member", ARCHIVE_MEMBERS)
    def test_predict_on_damaged_member(self, member, tmp_path, xy_files, capsys):
        assert self.failures(member, *xy_files, tmp_path, capsys) == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("member", ARCHIVE_MEMBERS)
    @pytest.mark.parametrize("kind", OTHER_ARCHIVES)
    def test_predict_on_damaged_member_of_another_kind(self, kind, member, tmp_path,
                                                       request, capsys):
        files = request.getfixturevalue(f"{kind}_files")
        assert self.failures(member, *files, tmp_path, capsys) == []


# A third of the generated files have no fault (None).
_FAULTS = (None, None, None, "missing", "renamed", "duplicate", "ragged", "cell",
           "no rows")


@st.composite
def feature_csvs(draw):
    """Text of a feature CSV for the `xy_files` archive (features x1, x2):
    a header and 1 to 4 rows of numbers, with at most one fault of
    `_FAULTS`, cells padded with whitespace or not, CRLF line ends or not,
    and a BOM or not."""
    header = draw(st.sampled_from([["x1", "x2"], ["x2", "x1"], ["x1", "x2", "y"]]))
    rows = draw(st.lists(st.lists(st.floats(-3.0, 3.0).map(repr), min_size=len(header),
                                  max_size=len(header)), min_size=1, max_size=4))
    fault = draw(st.sampled_from(_FAULTS))
    if fault == "missing":
        header, rows = header[1:], [row[1:] for row in rows]
    elif fault == "renamed":
        header[0] = header[0].upper()
    elif fault == "duplicate":
        header[-1] = header[0]
    elif fault == "ragged":
        row = draw(st.sampled_from(rows))
        if draw(st.booleans()):
            row.append("0.5")
        else:
            row.pop()
    elif fault == "cell":
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(
            ["", "x", "nan", "inf", "-inf", "1e308", "-1e308", "1e-320"]))
    elif fault == "no rows":
        rows = []
    pad = draw(st.sampled_from(["", " ", "\t "]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = "".join(",".join(pad + cell + pad for cell in row) + end
                   for row in [header, *rows])
    return ("\ufeff" if draw(st.booleans()) else "") + text


class TestPredictOnGeneratedCsv:
    """`kfpls predict` on any feature file either writes finite predictions,
    one per data row, or prints one ``error:`` line, exits 1 or 2 and writes
    no output directory; it never gives ``error:internal``."""

    @staticmethod
    def predict(archive, text, tmp):
        features = tmp / "features.csv"
        features.write_text(text, encoding="utf-8", newline="")
        pred_dir = tmp / "pred"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run_cli("predict", archive, features, "--out-dir", pred_dir)
        return code, err.getvalue().splitlines(), pred_dir

    @given(feature_csvs())
    @settings(max_examples=80, deadline=None)
    def test_exit_0_with_finite_predictions_or_one_error_line(self, xy_files, text):
        with tempfile.TemporaryDirectory() as tmp:
            code, err, pred_dir = self.predict(xy_files[1], text, Path(tmp))
            if code == 0:
                header, pred = read_csv(pred_dir / "predictions.csv")
                assert not err and header == ["pred_y"]
                assert pred.shape[0] == text.count("\n") - 1 and np.isfinite(pred).all()
            else:
                assert code in (1, 2) and len(err) == 1, err
                assert err[0].startswith("error:") and not err[0].startswith("error:internal")
                assert not pred_dir.exists()

    def test_cell_over_the_csv_field_limit(self, xy_files, tmp_path):
        code, err, pred_dir = self.predict(xy_files[1], "x1,x2\n0.1," + "1" * 200_000 + "\n",
                                           tmp_path)
        assert code == 1 and len(err) == 1, err
        assert err[0].startswith("error:data:") and "field limit" in err[0]
        assert not pred_dir.exists()


class TestUnwritableOutput:
    """An output file that cannot be written is an ``io`` error."""

    def test_case_report(self, tmp_path, capsys):
        (tmp_path / "report.json").mkdir()
        assert run_cli("case", "1", "--iterations", "3", "--out-dir", tmp_path) == 1
        assert capsys.readouterr().err.startswith("error:io:")

    def test_predict_predictions(self, tmp_path, xy_model, capsys):
        train, archive = xy_model
        pred_dir = tmp_path / "pred"
        (pred_dir / "predictions.csv").mkdir(parents=True)
        assert run_cli("predict", archive, train, "--out-dir", pred_dir) == 1
        assert capsys.readouterr().err.startswith("error:io:")


def _no_flow(*args, **kwargs):
    raise AssertionError("the kernel flow ran")


def _forbid_flows(monkeypatch):
    """Fail any kernel flow: a pipeline's, or the n_lv sweep's own."""
    for module in (cli, pipeline):
        monkeypatch.setattr(module, "run_kernel_flows", _no_flow)


def _no_pipeline(*args, **kwargs):
    raise AssertionError("a whole pipeline ran")


def _no_dataset(*args, **kwargs):
    raise AssertionError("a dataset was built")


class TestLvMaxBeforeFlow:
    """A factor-search bound that cannot be fitted is a configuration error,
    found before any kernel flow runs."""

    @pytest.mark.parametrize("lv_max", ["0", "100"])
    def test_optimize(self, lv_max, tmp_path, toy_csv, capsys, monkeypatch):
        _forbid_flows(monkeypatch)
        out = tmp_path / "out"
        assert run_cli("optimize", toy_csv, "--response", "target",
                       "--lv-max", lv_max, "--out-dir", out) == 2
        assert capsys.readouterr().err.startswith("error:config: lv_max")
        assert not out.exists()

    @pytest.mark.parametrize("lv_max", ["0", "500"])
    def test_case(self, lv_max, tmp_path, capsys, monkeypatch):
        _forbid_flows(monkeypatch)
        out = tmp_path / "out"
        assert run_cli("case", "1", "--lv-max", lv_max, "--out-dir", out) == 2
        assert capsys.readouterr().err.startswith("error:config: lv_max")
        assert not out.exists()

    def test_sweep_n_lv_grid_above_calibration_rows(self, tmp_path, capsys, monkeypatch):
        _forbid_flows(monkeypatch)
        out = tmp_path / "out"
        assert run_cli("sweep", "--axis", "n_lv", "--grid", "1,500", "--case", "1",
                       "--out-dir", out) == 2
        assert "error:config" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("axis, grid", [("learning_rate", "0.1"), ("n_lv", "1,2")])
    def test_sweep_case_lv_max_above_fit_rows(self, axis, grid, tmp_path, capsys,
                                               monkeypatch):
        # Case 3 searches up to 20 factors; 20 rows leave fewer to fit on.
        _forbid_flows(monkeypatch)
        small = write_toy_csv(tmp_path / "small.csv", n=20)
        out = tmp_path / "out"
        assert run_cli("sweep", "--axis", axis, "--grid", grid, "--case", "3",
                       "--csv", small, "--response", "target", "--out-dir", out) == 2
        assert capsys.readouterr().err.startswith("error:config: lv_max")
        assert not out.exists()


class TestConfigErrorsBeforeCompute:
    """Settings no run can use are configuration errors (exit 2), found before
    any flow or loss is computed."""

    @pytest.mark.parametrize("argv", [
        ["case", "1", "--learning-rate", "nan", "--iterations", "3"],
        ["sweep", "--axis", "learning_rate", "--grid", "nan"],
    ], ids=["case", "sweep"])
    def test_nan_flow_setting(self, argv, tmp_path, capsys, monkeypatch):
        _forbid_flows(monkeypatch)
        out = tmp_path / "out"
        assert run_cli(*argv, "--out-dir", out) == 2
        assert capsys.readouterr().err.startswith("error:config: learning_rate")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["case", "1", "--noise", "nan"],
        ["case", "1", "--noise", "inf"],
        ["case", "1", "--noise", "-1"],
        ["case", "2", "--noise", "nan"],
        ["case", "2", "--noise", "inf"],
        ["sweep", "--axis", "noise", "--grid", "0.1,nan"],
        ["sweep", "--axis", "noise", "--grid", "-1"],
    ], ids=["case1-nan", "case1-inf", "case1-negative", "case2-nan", "case2-inf",
            "sweep-nan", "sweep-negative"])
    def test_bad_noise_level(self, argv, tmp_path, capsys, monkeypatch):
        for module in (cli, pipeline):
            monkeypatch.setattr(module, "case_dataset", _no_dataset)
        _forbid_flows(monkeypatch)
        out = tmp_path / "out"
        assert run_cli(*argv, "--out-dir", out) == 2
        assert capsys.readouterr().err.startswith("error:config: noise")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["case", "1", "--seed", "-1"],
        ["optimize", "TRAIN", "--response", "target", "--seed", "-1"],
        ["sweep", "--axis", "n_lv", "--grid", "1,2", "--seed", "-1"],
        ["loss-surface", "--sigma-grid", "1", "--delta-grid", "1", "--seed", "-1"],
        ["case", "1", "--config", "CONFIG"],
    ], ids=["case", "optimize", "sweep", "loss-surface", "config-file"])
    def test_negative_seed(self, argv, tmp_path, capsys, monkeypatch):
        for module in (cli, pipeline):
            monkeypatch.setattr(module, "case_dataset", _no_dataset)
        monkeypatch.setattr(cli, "load_csv", _no_dataset)
        _forbid_flows(monkeypatch)
        monkeypatch.setattr(cli, "loss_surface", _no_flow)
        config = tmp_path / "run.cfg"
        config.write_text("seed = -1\n", encoding="utf-8")
        paths = {"TRAIN": str(write_toy_csv(tmp_path / "toy.csv")), "CONFIG": str(config)}
        out = tmp_path / "out"
        assert run_cli(*[paths.get(a, a) for a in argv], "--out-dir", out) == 2
        assert capsys.readouterr().err.startswith("error:config: seed")
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--kernel", "bogus"], "unknown kernel family"),
        (["--sigma-grid", "0"], "length-scales"),
        (["--sigma-grid", "nan"], "length-scales"),
        (["--delta-grid", "nan"], "ridge"),
    ], ids=["kernel", "sigma-zero", "sigma-nan", "delta-nan"])
    def test_loss_surface_kernel_parameters(self, flags, message, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.setattr(cli, "loss_surface", _no_flow)
        grids = {"--sigma-grid": "1", "--delta-grid": "1"}
        grids.update(zip(flags[::2], flags[1::2]))
        argv = [a for pair in grids.items() for a in pair]
        out = tmp_path / "out"
        assert run_cli("loss-surface", *argv, "--out-dir", out) == 2
        assert capsys.readouterr().err.startswith(f"error:config: {message}")
        assert not out.exists()


class TestSweepCommand:
    def test_single_point_grid_single_row(self, tmp_path):
        out = tmp_path / "sweep"
        assert run_cli("sweep", "--axis", "n_lv", "--grid", "3", "--case", "1",
                       "--seed", "2", "--iterations", "12", "--out-dir", out) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 2

    def test_n_lv_axis_runs_the_flow_and_one_count_sweep(self, tmp_path, monkeypatch):
        # The learned calibration Gram is built once, by `sweep_n_lv`; no
        # factor search, final fit or reference model runs.
        grams = []
        gram_from_dists = kernels.gram_from_dists

        def counted(spec, sq_dists):
            grams.append(spec)
            return gram_from_dists(spec, sq_dists)

        for module in (kernels, pipeline):
            monkeypatch.setattr(module, "gram_from_dists", counted)
        for module in (cli, pipeline):
            monkeypatch.setattr(module, "run_pipeline", _no_pipeline)
        assert run_cli("sweep", "--axis", "n_lv", "--grid", "1,3", "--case", "1",
                       "--seed", "2", "--iterations", "3", "--out-dir", tmp_path) == 0
        assert len(grams) == 1
        assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 3

    def test_invalid_axis_is_usage_error(self, capsys):
        assert run_cli("sweep", "--axis", "n_lv", "--grid", "") == 2
        err = capsys.readouterr().err
        assert "error:usage" in err

    def test_invalid_flow_grid_point_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("sweep", "--axis", "n_subsamples", "--grid", "2,0",
                       "--case", "1", "--out-dir", out) == 2
        assert "error:config" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("axis", ["n_lv", "init_theta"])
    def test_invalid_grid_point_is_config_error(self, axis, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("sweep", "--axis", axis, "--grid", "2,0", "--case", "1",
                       "--out-dir", out) == 2
        assert "error:config" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("axis", ["n_subsamples", "n_lv"])
    def test_fractional_count_grid_is_config_error(self, axis, tmp_path, capsys):
        assert run_cli("sweep", "--axis", axis, "--grid", "1.5", "--case", "1",
                       "--out-dir", tmp_path) == 2
        assert "error:config" in capsys.readouterr().err

    def test_reruns_are_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("sweep", "--axis", "learning_rate", "--grid", "0.1,0.3",
                           "--case", "1", "--seed", "5", "--iterations", "10",
                           "--out-dir", out) == 0
            outs.append(out)
        assert (outs[0] / "sweep.csv").read_bytes() == (outs[1] / "sweep.csv").read_bytes()


class TestGridValues:
    @pytest.mark.parametrize("argv", [
        ["sweep", "--axis", "learning_rate", "--grid", "1,a"],
        ["loss-surface", "--sigma-grid", "x", "--delta-grid", "1"],
        ["loss-surface", "--sigma-grid", "1", "--delta-grid", "x"],
    ], ids=["sweep", "sigma-grid", "delta-grid"])
    def test_non_numeric_grid_value_is_usage_error(self, argv, tmp_path, capsys):
        assert run_cli(*argv, "--out-dir", tmp_path) == 2
        assert capsys.readouterr().err.startswith("error:usage:")


class TestErrorContract:
    """A bad input gives the same ``error:<category>`` line on every command
    that reads it."""

    @pytest.mark.parametrize("argv", [
        ["case", "3", "--csv", "{missing}", "--response", "y"],
        ["optimize", "{missing}", "--response", "y"],
        ["predict", "{model}", "{missing}"],
        ["sweep", "--axis", "n_lv", "--grid", "2", "--case", "3",
         "--csv", "{missing}", "--response", "y"],
        ["loss-surface", "--sigma-grid", "1", "--delta-grid", "1", "--case", "3",
         "--csv", "{missing}", "--response", "y"],
    ], ids=["case", "optimize", "predict", "sweep", "loss-surface"])
    def test_missing_csv_is_io_error(self, argv, tmp_path, xy_model, capsys):
        fill = dict(missing=tmp_path / "missing.csv", model=xy_model[1])
        out = tmp_path / "out"
        assert run_cli(*[a.format(**fill) for a in argv], "--out-dir", out) == 1
        assert capsys.readouterr().err.startswith("error:io:")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["case", "3"],
        ["sweep", "--axis", "learning_rate", "--grid", "0.1", "--case", "3"],
        ["loss-surface", "--sigma-grid", "1", "--delta-grid", "1", "--case", "3"],
    ], ids=["case", "sweep", "loss-surface"])
    def test_case3_without_csv_is_usage_error(self, argv, tmp_path, capsys):
        assert run_cli(*argv, "--response", "target", "--out-dir", tmp_path) == 2
        assert capsys.readouterr().err.startswith("error:usage: case 3 requires --csv")

    @pytest.mark.parametrize("argv", [
        ["optimize", "{csv}", "--response", ","],
        ["case", "3", "--csv", "{csv}", "--response", " "],
    ], ids=["optimize", "case"])
    def test_empty_response_is_usage_error(self, argv, tmp_path, toy_csv, capsys,
                                           monkeypatch):
        _forbid_flows(monkeypatch)
        out = tmp_path / "out"
        assert run_cli(*[a.format(csv=toy_csv) for a in argv], "--out-dir", out) == 2
        assert capsys.readouterr().err.startswith("error:usage: --response names no")
        assert not out.exists()

    @pytest.mark.parametrize("scales", [(1e300, 1.0), (1e200, 1e200)],
                             ids=["one_feature_1e300", "both_features_1e200"])
    def test_feature_too_large_to_standardize_is_data_error(self, scales, tmp_path,
                                                            capsys):
        # The squared deviations overflow: one such feature used to be archived
        # with a standard deviation of inf (exit 0), and two standardized to
        # zeros and failed as identical training rows (error:compute).
        _, data = read_csv(write_toy_csv(tmp_path / "toy.csv"))
        data = data[:, [0, 1, 3]] * (*scales, 1.0)
        path = tmp_path / "large.csv"
        path.write_text("f1,f2,target\n"
                        + "".join(",".join(map(repr, row)) + "\n" for row in data.tolist()),
                        encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli("optimize", path, "--response", "target", "--iterations", "2",
                       "--out-dir", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:data:") and err.count("\n") == 1
        assert "overflows: f1" in err
        assert not out.exists()

    @pytest.mark.parametrize("response", ["3", "f3,target", "0,target"])
    def test_case3_response_selects_the_columns_optimize_does(self, response, tmp_path,
                                                              toy_csv):
        names = []
        for argv in (["case", "3", "--csv", toy_csv], ["optimize", toy_csv]):
            out = tmp_path / argv[0]
            assert run_cli(*argv, "--response", response, "--iterations", "2",
                           "--lv-max", "4", "--out-dir", out) == 0
            meta = load_calibrated_model(out / "model.kfpls")[1]
            names.append((meta["x_names"], meta["y_names"]))
        assert names[0] == names[1]
        assert names[0][1] == {"3": ["target"], "f3,target": ["f3", "target"],
                               "0,target": ["f1", "target"]}[response]


_FLOW_FLAGS = {
    "iterations", "n_subsamples", "batch_fraction", "sub_fraction", "n_lv",
    "learning_rate", "momentum", "update_rule",
    "smoothing_window", "tol", "patience", "stratified", "lr_decay", "objective",
}
_RUN_FLAGS = {"config", "out_dir", "seed", "kernel", "sigma", "delta", *_FLOW_FLAGS}


class TestFlagSets:
    """Each subcommand takes exactly the options it reads."""

    EXPECTED = {
        "case": {*_RUN_FLAGS, "lv_max", "csv", "response", "noise"},
        "optimize": {*_RUN_FLAGS, "lv_max", "response", "task"},
        "predict": {"config", "out_dir"},
        "sweep": {*_RUN_FLAGS, "axis", "grid", "case", "csv", "response"},
        "loss-surface": {
            "config", "out_dir", "seed", "kernel", "n_subsamples", "batch_fraction",
            "sub_fraction", "n_lv", "stratified", "objective",
            "sigma_grid", "delta_grid", "case", "csv", "response",
        },
    }

    def test_option_dests_per_subcommand(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if a.dest == "command")
        got = {
            name: {a.dest for a in p._actions if a.option_strings and a.dest != "help"}
            for name, p in sub.choices.items()
        }
        assert got == self.EXPECTED
        assert [len(got[n]) for n in got] == [24, 23, 2, 25, 15]

    def test_main_builds_the_parser_once(self, tmp_path, capsys, monkeypatch):
        parser = build_parser()
        assert build_parser() is parser

        def no_parser(*args, **kwargs):
            raise AssertionError("a parser was built")

        monkeypatch.setattr(cli.argparse, "ArgumentParser", no_parser)
        assert run_cli("predict", tmp_path / "missing.kfpls", tmp_path / "x.csv") == 1
        assert capsys.readouterr().err.startswith("error:io: cannot load model")

    def test_predict_rejects_flags_it_does_not_read(self, xy_model):
        with pytest.raises(SystemExit) as exc:
            run_cli("predict", xy_model[1], xy_model[0], "--iterations", "5")
        assert exc.value.code == 2

    def test_config_keys_of_other_commands_are_ignored(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("iterations = 0\nsigma = -1\nlv_max = 9999\nnoise = 9\n",
                       encoding="utf-8")
        out = tmp_path / "surface"
        assert run_cli("loss-surface", "--sigma-grid", "1", "--delta-grid", "1",
                       "--case", "1", "--config", cfg, "--out-dir", out) == 0
        ref = tmp_path / "ref"
        assert run_cli("loss-surface", "--sigma-grid", "1", "--delta-grid", "1",
                       "--case", "1", "--out-dir", ref) == 0
        assert ((out / "loss_surface.csv").read_bytes()
                == (ref / "loss_surface.csv").read_bytes())


class _Reached(Exception):
    pass


class TestSweepInitialKernel:
    @pytest.mark.parametrize("axis, value", [
        ("n_lv", "2"), ("noise", "0.1"), ("learning_rate", "0.1"),
        ("n_subsamples", "2"), ("init_theta", "0.5"),
    ])
    def test_kernel_flags_reach_every_axis(self, axis, value, tmp_path, monkeypatch):
        seen = []

        def record(spec0):
            seen.append(spec0)
            raise _Reached

        for module in (cli, pipeline):
            monkeypatch.setattr(module, "run_pipeline", lambda ds, spec0, *a: record(spec0))
        # The n_lv axis runs the flow itself, not a pipeline.
        monkeypatch.setattr(cli, "run_kernel_flows", lambda X, Y, flow, spec0: record(spec0))
        assert run_cli("sweep", "--axis", axis, "--grid", value, "--case", "1",
                       "--kernel", "matern32", "--sigma", "2", "--delta", "0.3",
                       "--out-dir", tmp_path) == 1
        theta = 0.5 if axis == "init_theta" else None
        expected = KernelSpec.create("matern32", sigma=theta or 2.0, delta=theta or 0.3)
        assert len(seen) == 1
        assert seen[0].families == expected.families == ("matern32",)
        np.testing.assert_array_equal(seen[0].theta(), expected.theta())


class TestLossSurfaceCommand:
    def test_long_format_rows(self, tmp_path):
        out = tmp_path / "surface"
        assert run_cli("loss-surface", "--case", "1", "--sigma-grid", "0.5,1.0",
                       "--delta-grid", "0.01,0.1", "--seed", "4",
                       "--out-dir", out) == 0
        lines = (out / "loss_surface.csv").read_text().strip().splitlines()
        assert lines[0] == "sigma,delta,mean_loss,std_loss"
        assert len(lines) == 5

    def test_empty_grid_is_usage_error(self, capsys):
        assert run_cli("loss-surface", "--sigma-grid", "", "--delta-grid", "1") == 2
        assert "error:usage" in capsys.readouterr().err

    def test_unknown_case_is_usage_error(self, capsys):
        assert run_cli("loss-surface", "--case", "9", "--sigma-grid", "1",
                       "--delta-grid", "1") == 2
        assert "error:usage" in capsys.readouterr().err


class TestConfigFile:
    def test_config_values_used_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# run settings\nseed = 7\niterations = 12\nlearning_rate = 0.2\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert run_cli("case", "1", "--config", cfg, "--iterations", "8",
                       "--patience", "4", "--lr-decay", "yes", "--out-dir", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 7  # from config
        assert report["flow_config"]["n_iter"] == 8  # flag wins
        assert report["flow_config"]["learning_rate"] == 0.2
        assert report["flow_config"]["patience"] == 4
        assert report["flow_config"]["lr_decay"] is True

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("learning_rte = 0.2\n", encoding="utf-8")
        assert run_cli("case", "1", "--config", cfg) == 2
        assert "error:config" in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n", encoding="utf-8")
        assert run_cli("case", "1", "--config", cfg) == 2
        assert "error:config" in capsys.readouterr().err
