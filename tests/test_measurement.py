"""CSV ingestion contract and the line-width stability gate."""

import copy
import csv
import io
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dqwitness.bounds import PhysicalParams
from dqwitness.errors import (
    DqwitnessError,
    InsufficientRows,
    MalformedHeader,
    MalformedRow,
    NegativeValue,
    NonFiniteValue,
    NonMonotonicTime,
)
from dqwitness.measurement import (
    MeasurementSeries,
    _median,
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
        assert series.times == (0.0, 0.1, 0.2)
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

    def test_lines_are_counted_past_a_multi_line_field(self):
        # the quoted field spans lines 2-3, so the bad row sits on physical line 4
        text = 'time_s,f_dq,t2_star_s\n0,"0.02\n",0.045\n1,-1,0.045\n'
        with pytest.raises(NegativeValue, match="^line 4: f_dq must be >= 0"):
            ingest_text(text)
        rows = 'time_s,f_dq,t2_star_s\n0,"0.02\n",0.045\n\n1,x,0.045\n2,0.02,0.045\n'
        assert ingest_text(rows).skipped == ("line 4: blank", "line 5: non-numeric field")

    def test_path_input(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("time_s,f_dq,t2_star_s\n0,0.01,0.045\n1,0.01,0.045\n")
        assert len(ingest(path)) == 2

    def test_byte_order_mark_is_accepted(self, tmp_path):
        # Spreadsheet exports often start UTF-8 CSV files with a BOM.
        path = tmp_path / "series.csv"
        path.write_bytes(b"\xef\xbb\xbftime_s,f_dq,t2_star_s\n0,0.01,0.045\n1,0.01,0.045\n")
        assert ingest(path).t2_star == (0.045, 0.045)

    def test_undecodable_byte_names_the_line(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_bytes(b"\xef\xbb\xbftime_s,f_dq,t2_star_s\n0,0.01,0.045\n1,0.01,0.04\xff5\n")
        with pytest.raises(MalformedRow, match="line 3: byte 0xff is not UTF-8"):
            ingest(path)

    @pytest.mark.parametrize(
        "text",
        [
            "\ufefftime_s,f_dq,t2_star_s\n0,0.01,0.045\n1,0.02,0.046\n",
            "time_s,f_dq,t2_star_s\r0,0.01,0.045\r1,0.02,0.046\r",
        ],
        ids=["byte_order_mark", "cr_line_endings"],
    )
    def test_text_and_file_ingest_agree(self, tmp_path, text):
        path = tmp_path / "series.csv"
        path.write_bytes(text.encode("utf-8"))
        series = ingest_text(text)
        assert series == ingest(path)
        assert series.times == (0.0, 1.0) and series.t2_star == (0.045, 0.046)
        assert series.skipped == ()


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


def _exact_cv(values):
    """std(ddof=0) / mean in exact rational arithmetic, then one rounding per step."""
    exact = [Fraction(v) for v in values]
    mean = sum(exact) / len(exact)
    variance = sum((v - mean) ** 2 for v in exact) / len(exact)
    return math.sqrt(variance / mean**2)


positive_series = st.lists(st.floats(min_value=1e-9, max_value=1e9), min_size=3, max_size=60)


class TestGateStatisticsAgainstNumpy:
    """The gate sums with math.fsum; numpy's pairwise sums differ only in rounding.

    The CV is held to the rounding error of its own formula: 8 units of
    roundoff relative to the exact value, plus 4 units absolute, which is
    how far a mean rounded from a correctly rounded sum can move the standard
    deviation of a near-constant series.  numpy's pairwise sums are off by
    more (a few ulp in the benchmark's reports), so the numpy comparison is
    a looser cross-check.  The median and the worst deviation take no sums
    and match numpy bit for bit.
    """

    @given(values=positive_series)
    @settings(max_examples=300, deadline=None)
    def test_cv_is_correctly_rounded_up_to_its_formula(self, values):
        gate = stability_gate(make_series(values))
        exact = _exact_cv(values)
        assert abs(gate.t2_cv - exact) <= 2**-50 * exact + 2**-51
        t2 = np.array(values)
        reference = float(t2.std(ddof=0)) / float(t2.mean())
        assert math.isclose(gate.t2_cv, reference, rel_tol=1e-13, abs_tol=1e-14)

    @given(values=positive_series)
    @settings(max_examples=300, deadline=None)
    def test_median_and_worst_deviation_equal_numpy(self, values):
        t2 = np.array(values)
        median = float(np.median(t2))
        assert _median(values) == median
        gate = stability_gate(make_series(values))
        assert gate.max_rel_deviation == float(np.abs(t2 - median).max() / median)


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


def _reference_series(times, f_dq, t2_star, mt_ratio):
    """The series contract checked value by value, in the constructor's order."""
    columns = {"times": times, "f_dq": f_dq, "t2_star": t2_star, "mt_ratio": mt_ratio}
    for name, column in columns.items():
        for value in column or ():
            if not math.isfinite(value):
                raise NonFiniteValue(f"{name} must be finite, got {value}")
    n = len(times)
    if len(f_dq) != n or len(t2_star) != n or (mt_ratio is not None and len(mt_ratio) != n):
        raise ValueError("column lengths differ")
    if any(v < 0 for v in f_dq):
        raise NegativeValue(f"f_dq must be >= 0, got {min(f_dq)}")
    if any(v <= 0 for v in t2_star):
        raise NegativeValue(f"t2_star must be > 0, got {min(t2_star)}")
    if mt_ratio is not None and not all(0 <= v <= 1 for v in mt_ratio):
        raise NegativeValue("mt_ratio must lie in [0, 1]")
    if not all(a < b for a, b in zip(times, times[1:])):
        raise NonMonotonicTime("times must be strictly increasing")
    mt_ratio = None if mt_ratio is None else tuple(mt_ratio)
    return tuple(times), tuple(f_dq), tuple(t2_star), mt_ratio, ()


SERIES_VALUES = [0.5, 1.0] * 12 + [0.0, -0.0, -1.0, 1.5, math.nan, math.inf, -math.inf]


@st.composite
def series_columns(draw):
    """Columns of mostly equal length and mostly valid values; times mostly increasing."""
    n = draw(st.integers(0, 6))

    def column():
        size = draw(st.sampled_from([n] * 8 + [n + 1]))
        return draw(st.lists(st.sampled_from(SERIES_VALUES), min_size=size, max_size=size))

    times = [float(i) for i in range(n)]
    if times and draw(st.booleans()):
        times[draw(st.integers(0, n - 1))] = draw(st.sampled_from(SERIES_VALUES))
    mt_ratio = column() if draw(st.booleans()) else None
    return {"times": times, "f_dq": column(), "t2_star": column(), "mt_ratio": mt_ratio}


class TestSeriesConstructorAgainstReference:
    @given(columns=series_columns())
    @settings(max_examples=300, deadline=None)
    def test_same_columns_or_same_error(self, columns):
        want = _outcome(lambda c: _reference_series(**c), columns)
        assert _outcome(lambda c: MeasurementSeries(**c), columns) == want


class TestRecords:
    """The validated records are immutable values: equal, hashable and picklable by field."""

    RECORDS = [
        PhysicalParams.tissue_defaults,
        lambda: MeasurementSeries([0.0, 1.0], [0.02, 0.15], [0.04, 0.04], [0.5, 0.5], ("line 3: blank",)),
    ]

    @pytest.mark.parametrize("build", RECORDS, ids=["PhysicalParams", "MeasurementSeries"])
    def test_value_semantics(self, build):
        record = build()
        assert record == build() and hash(record) == hash(build())
        assert pickle.loads(pickle.dumps(record)) == record == copy.deepcopy(record)
        assert eval(repr(record)) == record
        name = record.__slots__[0]
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 1.0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1.0
        assert record != tuple(getattr(record, field) for field in record.__slots__)

    def test_fields_are_compared(self):
        series = make_series([0.04, 0.04, 0.04])
        assert series != make_series([0.04, 0.04, 0.05])
        assert series != make_series([0.04, 0.04, 0.04], mt=[0.5, 0.5, 0.5])


def _reference_ingest(text):
    """Independent row loop: a generator hop per row, per-cell parsing and blank test.

    Returns the columns and skip diagnostics that `ingest_text` should hold.
    """
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff"), newline=""))

    def rows_of(reader):
        try:
            yield from reader
        except csv.Error as exc:
            raise MalformedRow(f"line {reader.line_num}: {exc}") from None

    rows = rows_of(reader)
    try:
        header = next(rows)
    except StopIteration:
        raise MalformedHeader("empty input, expected a header line") from None
    header = [h.strip() for h in header]
    if tuple(header[:3]) != ("time_s", "f_dq", "t2_star_s") or len(header) > 4:
        raise MalformedHeader(
            f"line 1: expected header time_s,f_dq,t2_star_s[,mt_ratio], got {','.join(header)!r}"
        )
    has_mt = len(header) == 4
    if has_mt and header[3] != "mt_ratio":
        raise MalformedHeader(f"line 1: fourth column must be 'mt_ratio', got {header[3]!r}")
    n_fields = 4 if has_mt else 3
    times, fdqs, t2s, mts, skipped = [], [], [], [], []
    for row in rows:
        line_no = reader.line_num  # physical line the record ends on
        if not row or all(not cell.strip() for cell in row):
            skipped.append(f"line {line_no}: blank")
            continue
        if len(row) != n_fields:
            skipped.append(f"line {line_no}: expected {n_fields} fields, got {len(row)}")
            continue
        try:
            values = [float(cell) for cell in row]
        except ValueError:
            skipped.append(f"line {line_no}: non-numeric field")
            continue
        for name, value in zip(header, values):
            if not math.isfinite(value):
                raise NonFiniteValue(f"line {line_no}: {name} must be finite, got {value}")
        t, f_dq, t2 = values[:3]
        if f_dq < 0:
            raise NegativeValue(f"line {line_no}: f_dq must be >= 0, got {f_dq}")
        if t2 <= 0:
            raise NegativeValue(f"line {line_no}: t2_star_s must be > 0, got {t2}")
        if has_mt:
            if not 0.0 <= values[3] <= 1.0:
                raise NegativeValue(f"line {line_no}: mt_ratio must lie in [0, 1], got {values[3]}")
            mts.append(values[3])
        if times and t <= times[-1]:
            raise NonMonotonicTime(f"line {line_no}: time {t} does not increase past {times[-1]}")
        times.append(t)
        fdqs.append(f_dq)
        t2s.append(t2)
    return tuple(times), tuple(fdqs), tuple(t2s), tuple(mts) if has_mt else None, tuple(skipped)


def _outcome(parse, source):
    """The parsed columns and diagnostics, or the exception's type and message."""
    try:
        result = parse(source)
    except (DqwitnessError, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(result, MeasurementSeries):
        return result.times, result.f_dq, result.t2_star, result.mt_ratio, result.skipped
    return result


# Mostly valid cells, each with a few contract breakers mixed in.
F_DQ_CELLS = ["0.02"] * 40 + ["0.15", "0", "-0.0", "-0.01", "1e308"]
T2_CELLS = ["0.045"] * 40 + ["0.044", "1e-300", "0", "-0.045"]
MT_CELLS = ["0.3"] * 40 + ["0", "1", "1.2", "-0.1"]
TIME_STEPS = [1] * 40 + [2, 0, -1]
ROW_EDITS = [None] * 24 + [
    "blank", "spaces", "junk", "short", "long", "non_finite", "quoted",
    "quoted_cr", "quoted_newline", "bare_cr", "open_quote", "huge",
]


@st.composite
def csv_texts(draw):
    """CSV text with blank, junk, quoted, CR-split, non-finite, negative,
    out-of-range and non-monotonic rows under a valid or broken header."""
    has_mt = draw(st.booleans())
    columns = "time_s,f_dq,t2_star_s" + (",mt_ratio" if has_mt else "")
    header = draw(st.sampled_from([
        *[columns] * 8, "\ufeff" + columns, " " + columns.replace(",", " , "),
        '"time_s","f_dq","t2_star_s"', "time_s,f_dq", "time_s,f_dq,t2_star_s,bogus", "",
    ]))
    lines, t = [header], draw(st.integers(-2, 2))
    for _ in range(draw(st.integers(0, 16))):
        t += draw(st.sampled_from(TIME_STEPS))
        cells = [str(t), draw(st.sampled_from(F_DQ_CELLS)), draw(st.sampled_from(T2_CELLS))]
        if has_mt:
            cells.append(draw(st.sampled_from(MT_CELLS)))
        edit = draw(st.sampled_from(ROW_EDITS))
        at = draw(st.integers(0, len(cells) - 1))
        if edit == "blank":
            cells = [""]
        elif edit == "spaces":
            cells = [" "] * len(cells)
        elif edit == "junk":
            cells[at] = draw(st.sampled_from(["x", "1.0.0", "0x1", "--1"]))
        elif edit == "short":
            cells.pop()
        elif edit == "long":
            cells.append("0")
        elif edit == "non_finite":
            cells[at] = draw(st.sampled_from(["nan", "NaN", "inf", "-inf", "1e999"]))
        elif edit == "quoted":
            cells = [f'"{cell}"' for cell in cells]
        elif edit == "quoted_cr":
            cells[at] = f'"{cells[at]}\r"'
        elif edit == "quoted_newline":
            cells[at] = f'"{cells[at]}\n1"'
        elif edit == "bare_cr":
            cells[at] += "\r5"
        elif edit == "open_quote":
            cells[at] = '"' + cells[at]
        elif edit == "huge":
            cells[at] = "0" * 131073
        lines.append(",".join(cells))
    newlines = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                             max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, newlines))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


class TestIngestAgainstReferenceLoop:
    @given(text=csv_texts())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_series_or_same_error(self, tmp_path, text):
        want = _outcome(_reference_ingest, text)
        assert _outcome(ingest_text, text) == want
        path = tmp_path / "series.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(ingest, path) == want
        if not isinstance(want[0], type):
            assert ingest(path) == ingest_text(text)
