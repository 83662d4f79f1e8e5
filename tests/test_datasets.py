import csv
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kfpls import gen_circles, gen_peaks, load_csv, peaks_surface
from kfpls.datasets import compute_stats, destandardize, read_csv, standardize

finite_tables = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
    elements=st.floats(allow_nan=False, allow_infinity=False),
)


# CSV cells: numbers as the float formats, underscores and Unicode digits
# write them, the special values, tokens float() rejects and arbitrary text,
# each padded with whitespace that float() or str.strip() drop (not always
# both: str.strip() also drops \x1c-\x1f).
_any_float = st.floats()
csv_cells = st.tuples(
    st.text(" \t\n\x0b\x0c\x1c\x1f\x85\xa0\u2003", max_size=2),
    st.one_of(
        _any_float.map(repr),
        _any_float.map(lambda v: "%.17g" % v),
        _any_float.map(lambda v: "%.6g" % v),
        st.integers(-10**7, 10**7).map(lambda i: f"{i:_}"),
        st.sampled_from(["nan", "-inf", "Infinity", "1e500", "-1e-400", "\u0661\u0662",
                         "\uff11.5", "1__0", "_1", "0x10", "1 2", "1j", "nan(1)", ""]),
        st.text("0123456789.eE+-_ ", max_size=8),
        st.text(max_size=5),
    ),
    st.text(" \t\r\x1c\x85\u3000", max_size=2),
).map("".join)


def write_table(directory, cells) -> Path:
    path = Path(directory) / "table.csv"
    lines = [",".join(f"c{j}" for j in range(len(cells[0])))]
    lines += [",".join(row) for row in cells]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestPeaksSurface:
    def test_origin_value(self):
        # At the origin only the two pure-exponential terms survive.
        expected = (8.0 / 3.0) * np.exp(-1.0)
        assert peaks_surface(0.0, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_independent_term_by_term_evaluation(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x1, x2 = rng.uniform(-2, 2, size=2)
            t1 = 3 * (1 - x1) ** 2 * np.exp(-x1**2 - (x2 + 1) ** 2)
            t2 = -10 * (x1 / 5 - x1**3 - x2**5) * np.exp(-x1**2 - x2**2)
            t3 = -np.exp(-((x1 + 1) ** 2) - x2**2) / 3
            assert peaks_surface(x1, x2) == pytest.approx(t1 + t2 + t3, rel=1e-12)


class TestGenPeaks:
    def test_inputs_within_bounds(self):
        ds = gen_peaks(100, 0.1, seed=0)
        for X in (ds.X_cal, ds.X_test):
            raw = destandardize(X, ds.x_means, ds.x_stds)
            assert raw.min() >= -2.0 and raw.max() <= 2.0

    def test_zero_noise_makes_test_equal_truth(self):
        ds = gen_peaks(50, 0.0, seed=1)
        np.testing.assert_array_equal(ds.Y_test, ds.Y_true_test)

    def test_noise_only_perturbs_response(self):
        a = gen_peaks(50, 0.0, seed=2)
        b = gen_peaks(50, 0.2, seed=2)
        np.testing.assert_array_equal(a.cal_idx, b.cal_idx)
        assert not np.array_equal(a.Y_test, b.Y_test)
        # Standardization statistics differ with the noise level, so compare
        # the noiseless references back in original units.
        np.testing.assert_allclose(
            destandardize(a.Y_true_test, a.y_means, a.y_stds),
            destandardize(b.Y_true_test, b.y_means, b.y_stds),
            atol=1e-10,
        )

    def test_split_sizes(self):
        ds = gen_peaks(200, 0.05, seed=3)
        assert ds.X_cal.shape[0] == 160
        assert ds.X_test.shape[0] == 40

    def test_calibration_standardized(self):
        ds = gen_peaks(150, 0.05, seed=4)
        assert np.abs(ds.X_cal.mean(axis=0)).max() < 1e-10
        assert np.abs(ds.X_cal.std(axis=0) - 1.0).max() < 1e-10
        assert abs(ds.Y_cal.mean()) < 1e-10

    def test_test_partition_uses_calibration_statistics(self):
        ds = gen_peaks(150, 0.05, seed=5)
        # Test columns are standardized with calibration stats, so their own
        # means generally do not vanish.
        assert np.abs(ds.X_test.mean(axis=0)).max() > 1e-6

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="10"):
            gen_peaks(5, 0.1, seed=0)

    @pytest.mark.parametrize("noise", [math.nan, math.inf, -0.1])
    def test_bad_noise_rejected(self, noise):
        with pytest.raises(ValueError, match="noise_delta"):
            gen_peaks(50, noise, seed=0)


class TestGenCircles:
    def test_one_hot_rows_sum_to_one(self):
        ds = gen_circles(30, 4, 0.1, seed=0)
        np.testing.assert_allclose(ds.Y_cal.sum(axis=1), 1.0)
        np.testing.assert_allclose(ds.Y_test.sum(axis=1), 1.0)

    def test_default_is_four_classes(self):
        ds = gen_circles(20, seed=1)
        assert ds.Y_cal.shape[1] == 4

    def test_radii_match_class_index(self):
        ds = gen_circles(40, 3, 0.0, seed=2)
        raw = destandardize(ds.X_cal, ds.x_means, ds.x_stds)
        radii = np.hypot(raw[:, 0], raw[:, 1])
        labels = np.argmax(ds.Y_cal, axis=1) + 1
        np.testing.assert_allclose(radii, labels.astype(float), atol=1e-9)

    def test_zero_noise_classes_separable_by_radius(self):
        ds = gen_circles(40, 2, 0.0, seed=3)
        raw = destandardize(ds.X_test, ds.x_means, ds.x_stds)
        radii = np.hypot(raw[:, 0], raw[:, 1])
        labels = ds.labels_test
        assert radii[labels == 1].max() < radii[labels == 2].min()

    def test_split_determinism(self):
        a = gen_circles(25, 4, 0.1, seed=7)
        b = gen_circles(25, 4, 0.1, seed=7)
        np.testing.assert_array_equal(a.cal_idx, b.cal_idx)
        np.testing.assert_array_equal(a.X_cal, b.X_cal)

    def test_partitions_disjoint_and_exhaustive(self):
        ds = gen_circles(25, 4, 0.1, seed=8)
        combined = np.sort(np.concatenate([ds.cal_idx, ds.test_idx]))
        np.testing.assert_array_equal(combined, np.arange(100))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="classes"):
            gen_circles(20, 1, 0.1, seed=0)

    @pytest.mark.parametrize("noise", [math.nan, math.inf, -0.1])
    def test_bad_noise_rejected(self, noise):
        with pytest.raises(ValueError, match="radial_noise"):
            gen_circles(20, 4, noise, seed=0)


class TestSplitArithmetic:
    def test_published_table_row_count(self):
        # 1030 rows split 80/20 must give the 824/206 partition.
        from kfpls.datasets import _split_indices

        cal, test = _split_indices(1030, np.random.default_rng(0))
        assert len(cal) == 824
        assert len(test) == 206

    @pytest.mark.parametrize("n", [10, 37, 101, 200])
    def test_partition_sizes_round_to_eighty_percent(self, n):
        from kfpls.datasets import _split_indices

        cal, test = _split_indices(n, np.random.default_rng(1))
        assert len(cal) == int(round(0.8 * n))
        assert len(cal) + len(test) == n


class TestStandardize:
    def test_round_trip_identity(self):
        rng = np.random.default_rng(9)
        M = rng.normal(size=(30, 4)) * 5 + 3
        means, stds = compute_stats(M)
        back = destandardize(standardize(M, means, stds), means, stds)
        assert np.abs(back - M).max() < 1e-12

    def test_already_standardized_unchanged(self):
        rng = np.random.default_rng(10)
        M = rng.normal(size=(200, 3))
        means, stds = compute_stats(M)
        Z = standardize(M, means, stds)
        z_means, z_stds = compute_stats(Z)
        again = standardize(Z, z_means, z_stds)
        assert np.abs(again - Z).max() < 1e-10

    def test_constant_column_error_names_column(self):
        M = np.ones((10, 2))
        M[:, 0] = np.arange(10.0)
        with pytest.raises(ValueError, match="second"):
            compute_stats(M, names=["first", "second"])

    @pytest.mark.parametrize("scale", [1e300, 1e200, np.finfo(float).max])
    def test_overflowing_column_error_names_column(self, scale):
        M = np.random.default_rng(11).uniform(-1.0, 1.0, size=(20, 2))
        M[:, 1] *= scale
        with pytest.raises(ValueError, match="overflows: second"):
            compute_stats(M, names=["first", "second"])


class TestLoadCsv:
    def _write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_small_file_standardized(self, tmp_path):
        rng = np.random.default_rng(11)
        rows = ["a,b,target"]
        for _ in range(10):
            rows.append(",".join(f"{v:.6f}" for v in rng.normal(size=3)))
        path = self._write(tmp_path, "\n".join(rows) + "\n")
        ds = load_csv(path, ["target"], "regression", seed=0)
        assert ds.X_cal.shape == (8, 2)
        assert np.abs(ds.X_cal.mean(axis=0)).max() < 1e-10
        assert ds.x_names == ["a", "b"]
        assert ds.y_names == ["target"]

    def test_response_by_index(self, tmp_path):
        path = self._write(
            tmp_path, "a,b,c\n" + "\n".join("1,2,3" if i % 2 else f"{i},5,{i*2}" for i in range(10))
        )
        ds = load_csv(path, [2], "regression", seed=0)
        assert ds.y_names == ["c"]

    def test_empty_response_list_rejected(self, tmp_path):
        path = self._write(tmp_path, "a,b,y\n" + "".join(f"{i},{i % 3},{i}\n"
                                                        for i in range(10)))
        with pytest.raises(ValueError, match="no response column"):
            load_csv(path, [], "regression", seed=0)

    def test_header_only_rejected(self, tmp_path):
        path = self._write(tmp_path, "a,b,y\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(path, ["y"], "regression", seed=0)

    def test_missing_response_column_rejected(self, tmp_path):
        path = self._write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(ValueError, match="'y' not found"):
            load_csv(path, ["y"], "regression", seed=0)

    def test_non_numeric_cell_reported_with_position(self, tmp_path):
        path = self._write(tmp_path, "a,y\n1,2\nfoo,3\n")
        with pytest.raises(ValueError, match=r"row 3, column 'a'"):
            load_csv(path, ["y"], "regression", seed=0)

    def test_missing_value_reported_with_position(self, tmp_path):
        path = self._write(tmp_path, "a,y\n1,2\n,3\n")
        with pytest.raises(ValueError, match=r"missing value at row 3, column 'a'"):
            load_csv(path, ["y"], "regression", seed=0)

    def test_ragged_row_rejected(self, tmp_path):
        path = self._write(tmp_path, "a,b,y\n1,2,3\n1,2\n")
        with pytest.raises(ValueError, match="row 3 has 2 cells"):
            load_csv(path, ["y"], "regression", seed=0)


    def test_non_finite_cell_reported_with_position(self, tmp_path):
        path = self._write(tmp_path, "a,y\n1,2\n3,inf\n")
        with pytest.raises(ValueError, match=r"non-finite value 'inf' at row 3, column 'y'"):
            load_csv(path, ["y"], "regression", seed=0)

    @pytest.mark.parametrize("names, row, message", [
        ("label", lambda i: str(1 + i % 2), r"at least 2; got 'label'"),
        ("c1,c2", lambda i: "2,0" if i == 3 else ("1,0" if i % 2 else "0,1"),
         r"column 'c1' holds 2\.0 at data row 4"),
        ("c1,c2", lambda i: "1,1" if i == 5 else ("1,0" if i % 2 else "0,1"),
         r"data row 6 has 2 ones"),
    ], ids=["one_column", "value_two", "two_ones"])
    def test_classification_response_not_one_hot_rejected(self, tmp_path, names, row,
                                                          message):
        path = self._write(tmp_path, f"x,{names}\n"
                           + "".join(f"{i},{row(i)}\n" for i in range(10)))
        with pytest.raises(ValueError, match=message):
            load_csv(path, names.split(","), "classification", seed=0)


class TestReadCsv:
    @given(finite_tables)
    @settings(max_examples=60, deadline=None)
    def test_repr_written_floats_read_back_bit_exact(self, table):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_table(tmp, [[repr(float(v)) for v in row] for row in table])
            header, data = read_csv(path)
        assert header == [f"c{j}" for j in range(table.shape[1])]
        assert data.dtype == np.float64
        assert data.shape == table.shape
        assert data.tobytes() == table.tobytes()

    @given(finite_tables, st.sampled_from(["nan", "inf", "-inf", "NaN"]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_one_non_finite_cell_rejected_at_its_position(self, table, token, data):
        i = data.draw(st.integers(0, table.shape[0] - 1))
        j = data.draw(st.integers(0, table.shape[1] - 1))
        cells = [[repr(float(v)) for v in row] for row in table]
        cells[i][j] = token
        with tempfile.TemporaryDirectory() as tmp:
            path = write_table(tmp, cells)
            with pytest.raises(ValueError, match=rf"at row {i + 2}, column 'c{j}'"):
                read_csv(path)

    @given(st.lists(st.lists(csv_cells, min_size=3, max_size=3), min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_generated_cells_parse_as_float_or_name_their_cell(self, rows):
        # Either every cell reads as float() of the stripped cell, bit for
        # bit, or the first bad cell (missing or non-numeric first, then
        # non-finite) is a ValueError naming its row and column.
        header = ["a", "b", "c"]
        expected, bad = np.empty((len(rows), 3)), None
        for i, j in np.ndindex(expected.shape):
            try:
                expected[i, j] = float(rows[i][j].strip() or "missing")
            except ValueError:
                bad = (i, j)
                break
        if bad is None and not np.isfinite(expected).all():
            bad = tuple(np.argwhere(~np.isfinite(expected))[0])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows([header, *rows])
            with open(path, newline="", encoding="utf-8") as fh:
                assume(list(csv.reader(fh))[1:] == rows)  # the cells survive CSV quoting
            if bad is None:
                assert read_csv(path)[1].tobytes() == expected.tobytes()
            else:
                i, j = bad
                with pytest.raises(ValueError,
                                   match=re.escape(f"at row {i + 2}, column {header[j]!r}")):
                    read_csv(path)

    def test_cells_and_header_are_stripped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(" a , b\n 1.5 ,2 \n", encoding="utf-8")
        header, data = read_csv(path)
        assert header == ["a", "b"]
        np.testing.assert_array_equal(data, [[1.5, 2.0]])

    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("\ufeffa,b\n1.5,2\n", encoding="utf-8")
        assert read_csv(path)[0] == ["a", "b"]
