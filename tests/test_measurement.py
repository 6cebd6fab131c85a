"""CSV ingestion contract and the line-width stability gate."""

import numpy as np
import pytest

from dqwitness.errors import (
    InsufficientRows,
    MalformedHeader,
    MalformedRow,
    NegativeValue,
    NonFiniteValue,
    NonMonotonicTime,
)
from dqwitness.measurement import (
    MeasurementSeries,
    ingest,
    ingest_text,
    stability_gate,
)


def make_series(t2_values, f_dq=None, mt=None):
    n = len(t2_values)
    return MeasurementSeries(
        times=np.arange(n, dtype=float),
        f_dq=np.array(f_dq if f_dq is not None else [0.02] * n),
        t2_star=np.array(t2_values, dtype=float),
        mt_ratio=None if mt is None else np.array(mt, dtype=float),
    )


class TestIngest:
    def test_happy_path(self):
        series = ingest_text(
            "time_s,f_dq,t2_star_s\n0.0,0.01,0.045\n0.1,0.02,0.046\n0.2,0.15,0.044\n"
        )
        assert len(series) == 3
        np.testing.assert_allclose(series.times, [0.0, 0.1, 0.2])
        np.testing.assert_allclose(series.f_dq, [0.01, 0.02, 0.15])
        assert series.mt_ratio is None
        assert series.skipped == ()

    def test_optional_mt_column(self):
        series = ingest_text(
            "time_s,f_dq,t2_star_s,mt_ratio\n0,0.01,0.045,0.30\n1,0.02,0.046,0.31\n"
        )
        np.testing.assert_allclose(series.mt_ratio, [0.30, 0.31])

    def test_missing_column_is_malformed(self):
        with pytest.raises(MalformedHeader):
            ingest_text("time_s,f_dq\n0,0.01\n")

    def test_wrong_fourth_column_is_malformed(self):
        with pytest.raises(MalformedHeader):
            ingest_text("time_s,f_dq,t2_star_s,bogus\n0,0.01,0.045,1\n")

    def test_empty_input_is_malformed(self):
        with pytest.raises(MalformedHeader):
            ingest_text("")

    def test_zero_t2_names_the_line(self):
        with pytest.raises(NegativeValue) as err:
            ingest_text("time_s,f_dq,t2_star_s\n0,0.01,0.045\n1,0.01,0.0\n")
        assert "line 3" in str(err.value)

    def test_negative_f_dq_rejected(self):
        with pytest.raises(NegativeValue) as err:
            ingest_text("time_s,f_dq,t2_star_s\n0,-0.01,0.045\n")
        assert "line 2" in str(err.value)

    def test_mt_out_of_range_rejected(self):
        with pytest.raises(NegativeValue):
            ingest_text("time_s,f_dq,t2_star_s,mt_ratio\n0,0.01,0.045,1.2\n")

    def test_shuffled_rows_rejected_not_reordered(self):
        with pytest.raises(NonMonotonicTime) as err:
            ingest_text(
                "time_s,f_dq,t2_star_s\n0,0.01,0.045\n2,0.01,0.045\n1,0.01,0.045\n"
            )
        assert "line 4" in str(err.value)

    def test_blank_and_mangled_rows_are_skipped_with_diagnostics(self):
        series = ingest_text(
            "time_s,f_dq,t2_star_s\n0,0.01,0.045\n\nnot,a,number\n1,0.02,0.046\n"
        )
        assert len(series) == 2
        assert len(series.skipped) == 2
        assert any("line 3" in msg for msg in series.skipped)
        assert any("line 4" in msg for msg in series.skipped)

    @pytest.mark.parametrize("line", [1, 3])
    def test_oversized_field_names_the_line(self, line):
        rows = ["time_s,f_dq,t2_star_s", "0.0,0.01,0.045", "0.1,0.02,0.045"]
        rows[line - 1] += "0" * 131072
        with pytest.raises(MalformedRow, match=f"line {line}:"):
            ingest_text("\n".join(rows) + "\n")

    def test_path_input(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("time_s,f_dq,t2_star_s\n0,0.01,0.045\n1,0.01,0.045\n")
        assert len(ingest(path)) == 2


class TestStabilityGate:
    def test_constant_series_is_stable_with_zero_cv(self):
        gate = stability_gate(make_series([0.045] * 10))
        assert gate.status == "stable"
        assert gate.t2_cv == 0.0
        assert gate.max_rel_deviation == 0.0
        assert gate.mt_cv is None

    def test_single_drop_flips_unstable(self):
        t2 = [0.045] * 10
        t2[6] = 0.0225  # 50 percent drop
        gate = stability_gate(make_series(t2))
        assert gate.status == "unstable"
        assert gate.max_rel_deviation == pytest.approx(0.5, abs=1e-12)

    def test_two_rows_insufficient(self):
        with pytest.raises(InsufficientRows):
            stability_gate(make_series([0.045, 0.045]))

    def test_mild_jitter_stays_stable(self):
        rng = np.random.default_rng(5)
        t2 = 0.045 * (1.0 + 0.01 * rng.standard_normal(20))
        gate = stability_gate(make_series(t2))
        assert gate.status == "stable"
        assert gate.t2_cv <= 0.05

    def test_mt_column_participates_in_gate(self):
        stable = stability_gate(make_series([0.045] * 6, mt=[0.3] * 6))
        assert stable.status == "stable"
        assert stable.mt_cv == 0.0
        jumpy = stability_gate(
            make_series([0.045] * 6, mt=[0.3, 0.3, 0.8, 0.3, 0.3, 0.3])
        )
        assert jumpy.status == "unstable"
        assert jumpy.mt_cv > 0.05

    def test_thresholds_are_echoed_and_adjustable(self):
        t2 = [0.045] * 10
        t2[6] = 0.040
        tight = stability_gate(make_series(t2), cv_threshold=0.001)
        assert tight.status == "unstable"
        assert tight.cv_threshold == 0.001
        loose = stability_gate(make_series(t2), cv_threshold=0.5, dev_threshold=0.5)
        assert loose.status == "stable"

    @pytest.mark.parametrize("name", ["cv_threshold", "dev_threshold"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_threshold_rejected(self, name, value):
        # An infinite threshold would pass any series, certifying an unstable one.
        with pytest.raises(NonFiniteValue, match=name):
            stability_gate(make_series([0.045] * 10), **{name: value})

    def test_overflowing_statistic_is_named(self):
        # The mean of three values near the float maximum overflows; no
        # RuntimeWarning may escape (the suite turns warnings into errors).
        with pytest.raises(NonFiniteValue, match="t2_cv"):
            stability_gate(make_series([1.7e308] * 3))

    @pytest.mark.parametrize("name", ["cv_threshold", "dev_threshold"])
    def test_negative_threshold_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            stability_gate(make_series([0.045] * 10), **{name: -0.01})
        assert stability_gate(make_series([0.045] * 10), **{name: 0.0}).status == "stable"


class TestNonFiniteFields:
    @pytest.mark.parametrize("column", [0, 1, 2, 3])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_field_names_the_line(self, column, cell):
        row = ["0.1", "0.02", "0.045", "0.5"]
        row[column] = cell
        text = "time_s,f_dq,t2_star_s,mt_ratio\n0.0,0.01,0.045,0.5\n" + ",".join(row) + "\n"
        with pytest.raises(NonFiniteValue, match="line 3"):
            ingest_text(text)


class TestSeriesConstructorValidation:
    """A series built in code is held to the same value contract as ingest."""

    @pytest.mark.parametrize("column", ["times", "f_dq", "t2_star", "mt_ratio"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_value_names_the_column(self, column, value):
        columns = {
            "times": [0.0, 1.0, 2.0],
            "f_dq": [0.02, 0.15, 0.02],
            "t2_star": [0.04, 0.04, 0.04],
            "mt_ratio": [0.5, 0.5, 0.5],
        }
        columns[column][1] = value
        with pytest.raises(NonFiniteValue, match=column):
            MeasurementSeries(**{k: np.array(v) for k, v in columns.items()})

    def test_negative_f_dq_rejected(self):
        with pytest.raises(NegativeValue, match="f_dq"):
            make_series([0.04] * 3, f_dq=[0.02, -0.01, 0.02])

    @pytest.mark.parametrize("t2", [0.0, -0.04])
    def test_non_positive_t2_rejected(self, t2):
        with pytest.raises(NegativeValue, match="t2_star"):
            make_series([t2] * 3)

    @pytest.mark.parametrize("mt", [-5.0, 1.5])
    def test_mt_ratio_outside_unit_interval_rejected(self, mt):
        with pytest.raises(NegativeValue, match="mt_ratio"):
            make_series([0.04] * 3, mt=[mt] * 3)
