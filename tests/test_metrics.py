import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfpls import EvalReport, accuracy, q2, rmse
from kfpls.metrics import nrmse


class TestRmse:
    def test_identical_vectors_give_zero(self):
        y = np.array([1.0, -2.0, 3.5])
        assert rmse(y, y) == 0.0

    def test_hand_computed_value(self):
        assert rmse(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(
            np.sqrt(25.0 / 2.0)
        )

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=50)
        b = rng.normal(size=50)
        total = 0.0
        for x, y in zip(a, b):
            total += (x - y) ** 2
        assert rmse(a, b) == pytest.approx(np.sqrt(total / 50), rel=1e-12)

    def test_multicolumn_uses_all_entries(self):
        a = np.zeros((2, 2))
        b = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert rmse(a, b) == pytest.approx(1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            rmse(np.zeros(3), np.zeros(4))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            rmse(np.zeros(0), np.zeros(0))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_nonnegative_and_zero_only_on_equality(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=10)
        b = rng.normal(size=10)
        value = rmse(a, b)
        assert value >= 0.0
        if not np.array_equal(a, b):
            assert value > 0.0


class TestNrmse:
    def test_zero_rmse_gives_zero(self):
        assert nrmse(0.0, 0.0, 10.0) == 0.0

    def test_hand_computed_percent(self):
        assert nrmse(0.5, 0.0, 10.0) == pytest.approx(5.0)

    def test_zero_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            nrmse(1.0, 2.0, 2.0)

    def test_invariant_under_response_shift(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=30)
        yhat = y + 0.1 * rng.normal(size=30)
        r = rmse(y, yhat)
        assert nrmse(r, y.min(), y.max()) == pytest.approx(
            nrmse(r, (y + 7.0).min(), (y + 7.0).max())
        )


class TestQ2:
    def test_perfect_prediction_is_one(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=20)
        y_cal = rng.normal(size=40)
        assert q2(y, y, y_cal) == pytest.approx(1.0)

    def test_mean_predictor_scores_near_zero(self):
        rng = np.random.default_rng(3)
        y_cal = rng.normal(size=2000)
        y_test = rng.normal(size=2000)
        pred = np.full_like(y_test, y_cal.mean())
        assert abs(q2(y_test, pred, y_cal)) < 0.05

    def test_constant_calibration_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            q2(np.array([1.0, 2.0]), np.array([1.0, 2.0]), np.full(5, 3.0))


class TestAccuracy:
    def test_all_correct(self):
        labels = np.array([1, 2, 3, 4])
        assert accuracy(labels, labels) == 1.0

    def test_half_correct(self):
        assert accuracy(np.array([1, 1, 2, 2]), np.array([1, 1, 1, 1])) == 0.5

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            accuracy(np.array([1]), np.array([1, 2]))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_invariant_under_relabeling_bijection(self, seed):
        rng = np.random.default_rng(seed)
        true = rng.integers(1, 5, size=30)
        pred = rng.integers(1, 5, size=30)
        mapping = 1 + rng.permutation(4)
        assert accuracy(true, pred) == accuracy(mapping[true - 1], mapping[pred - 1])


class TestEvalReport:
    def test_round_trips_through_dict(self):
        report = EvalReport(
            rmse=0.3,
            nrmse_percent=2.1,
            q2=0.97,
            accuracy=None,
            n_test=40,
            n_cal=160,
            y_range_cal=14.2,
        )
        assert report.to_dict() == {
            "rmse": 0.3,
            "nrmse_percent": 2.1,
            "q2": 0.97,
            "accuracy": None,
            "n_test": 40,
            "n_cal": 160,
            "y_range_cal": 14.2,
        }

    def test_nrmse_consistent_with_fields(self):
        report = EvalReport(
            rmse=0.5,
            nrmse_percent=nrmse(0.5, 0.0, 10.0),
            q2=0.9,
            accuracy=0.75,
            n_test=10,
            n_cal=40,
            y_range_cal=10.0,
        )
        assert report.nrmse_percent == pytest.approx(
            100.0 * report.rmse / report.y_range_cal
        )
