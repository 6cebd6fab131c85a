"""Measurement-series ingestion and the empirical stability gate.

The CSV contract is `time_s,f_dq,t2_star_s[,mt_ratio]` with '.' decimals and
comma delimiters.  A stable line width across the series is what certifies
that the dipolar network stayed stationary and motionally narrowed while the
pair signal was recorded; the gate quantifies stability as a coefficient of
variation plus a worst single-sample deviation from the window median, with
the optional magnetization-transfer column held to the same CV threshold.
Both run on the standard library alone: a series is a few thousand scalars.
"""

from __future__ import annotations

import csv
import io
from math import fsum, inf, isfinite, sqrt
from operator import lt
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .bounds import GateStatus, _Record
from .errors import (
    InsufficientRows,
    MalformedHeader,
    MalformedRow,
    NegativeValue,
    NonFiniteValue,
    NonMonotonicTime,
)

REQUIRED_COLUMNS = ("time_s", "f_dq", "t2_star_s")
OPTIONAL_COLUMN = "mt_ratio"

DEFAULT_CV_THRESHOLD = 0.05
DEFAULT_DEV_THRESHOLD = 0.10


class MeasurementSeries(_Record):
    """Validated time series of fractional amplitude and stability observables.

    Each column is held as a tuple of floats; any sequence of numbers (a
    list, a numpy array) is accepted and converted.  Every value must be
    finite (NonFiniteValue otherwise, naming the column); f_dq >= 0,
    t2_star > 0 and mt_ratio in [0, 1] (NegativeValue otherwise).
    """

    __slots__ = ("times", "f_dq", "t2_star", "mt_ratio", "skipped")

    def __init__(
        self,
        times: Sequence[float],
        f_dq: Sequence[float],
        t2_star: Sequence[float],
        mt_ratio: Sequence[float] | None = None,
        skipped: tuple[str, ...] = (),
    ):
        columns = {"times": times, "f_dq": f_dq, "t2_star": t2_star, "mt_ratio": mt_ratio}
        for name, column in columns.items():
            if column is None:
                continue
            column = columns[name] = tuple(map(float, column))
            if not all(map(isfinite, column)):
                bad = next(v for v in column if not isfinite(v))
                raise NonFiniteValue(f"{name} must be finite, got {bad}")
        times, f_dq, t2_star, mt_ratio = columns.values()
        n = len(times)
        if len(f_dq) != n or len(t2_star) != n:
            raise ValueError("column lengths differ")
        if mt_ratio is not None and len(mt_ratio) != n:
            raise ValueError("column lengths differ")
        if min(f_dq, default=0.0) < 0:
            raise NegativeValue(f"f_dq must be >= 0, got {min(f_dq)}")
        if min(t2_star, default=1.0) <= 0:
            raise NegativeValue(f"t2_star must be > 0, got {min(t2_star)}")
        if mt_ratio and not 0 <= min(mt_ratio) <= max(mt_ratio) <= 1:
            raise NegativeValue("mt_ratio must lie in [0, 1]")
        if not all(map(lt, times, times[1:])):
            raise NonMonotonicTime("times must be strictly increasing")
        self._assign(skipped=skipped, **columns)

    def __len__(self) -> int:
        return len(self.times)


def ingest(path: str | Path) -> MeasurementSeries:
    """Parse and validate a measurement CSV file of UTF-8 text.

    A byte that is not UTF-8 raises MalformedRow naming its line; the
    decoded text is parsed by `ingest_text`, under the same contract.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise MalformedRow(
            f"line {line}: byte 0x{data[exc.start]:02x} is not UTF-8 text ({exc.reason})"
        ) from None
    return ingest_text(text)


def ingest_text(text: str) -> MeasurementSeries:
    """Parse and validate measurement CSV content.

    A leading byte-order mark (as spreadsheet exports write) is dropped.
    Blank lines and rows that do not parse as the right number of floats are
    skipped and recorded in the series diagnostics; sign/range violations,
    out-of-order time stamps and lines that cannot be read (a field over the
    csv module's size limit: MalformedRow) are hard errors naming the
    offending line.  Every message counts physical lines, so a record whose
    quoted field spans lines is named by the line it ends on.
    """
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff"), newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise MalformedHeader("empty input, expected a header line")
        header = [h.strip() for h in header]
        if tuple(header[: len(REQUIRED_COLUMNS)]) != REQUIRED_COLUMNS or len(header) > 4:
            raise MalformedHeader(
                "line 1: expected header time_s,f_dq,t2_star_s[,mt_ratio], "
                f"got {','.join(header)!r}"
            )
        has_mt = len(header) == 4
        if has_mt and header[3] != OPTIONAL_COLUMN:
            raise MalformedHeader(
                f"line 1: fourth column must be {OPTIONAL_COLUMN!r}, got {header[3]!r}"
            )
        n_fields = 4 if has_mt else 3

        times, fdqs, t2s, mts = [], [], [], []
        skipped: list[str] = []
        for row in reader:
            line_no = reader.line_num
            if not "".join(row).strip():
                skipped.append(f"line {line_no}: blank")
                continue
            if len(row) != n_fields:
                skipped.append(f"line {line_no}: expected {n_fields} fields, got {len(row)}")
                continue
            try:
                values = list(map(float, row))
            except ValueError:
                skipped.append(f"line {line_no}: non-numeric field")
                continue
            if not all(map(isfinite, values)):
                name, value = next((n, v) for n, v in zip(header, values) if not isfinite(v))
                raise NonFiniteValue(f"line {line_no}: {name} must be finite, got {value}")
            t, f_dq, t2 = values[:3]
            if f_dq < 0:
                raise NegativeValue(f"line {line_no}: f_dq must be >= 0, got {f_dq}")
            if t2 <= 0:
                raise NegativeValue(f"line {line_no}: t2_star_s must be > 0, got {t2}")
            if has_mt:
                mt = values[3]
                if not 0.0 <= mt <= 1.0:
                    raise NegativeValue(
                        f"line {line_no}: mt_ratio must lie in [0, 1], got {mt}"
                    )
                mts.append(mt)
            if times and t <= times[-1]:
                raise NonMonotonicTime(
                    f"line {line_no}: time {t} does not increase past {times[-1]}"
                )
            times.append(t)
            fdqs.append(f_dq)
            t2s.append(t2)
    except csv.Error as exc:
        raise MalformedRow(f"line {reader.line_num}: {exc}") from None
    return MeasurementSeries(
        times=times,
        f_dq=fdqs,
        t2_star=t2s,
        mt_ratio=mts if has_mt else None,
        skipped=tuple(skipped),
    )


class GateResult(NamedTuple):
    """Outcome of the line-width stability gate."""

    status: GateStatus
    t2_cv: float
    max_rel_deviation: float
    mt_cv: float | None
    cv_threshold: float
    dev_threshold: float


def _sum(values: Iterable[float]) -> float:
    """Correctly rounded sum of non-negative floats; inf where it overflows."""
    try:
        return fsum(values)
    except OverflowError:
        return inf


def _coefficient_of_variation(values: Sequence[float]) -> float:
    """Population standard deviation over mean; NaN where the mean overflows.

    Both sums are correctly rounded (`math.fsum`), so the result can differ
    from numpy's pairwise-summed `std(ddof=0) / mean` in the last few ulp.
    """
    n = len(values)
    mean = _sum(values) / n
    std = sqrt(_sum((v - mean) * (v - mean) for v in values) / n)
    if mean == 0.0:
        return 0.0 if std == 0.0 else inf
    return std / mean


def _median(values: Sequence[float]) -> float:
    """Middle value, or the mean of the middle two, as numpy.median computes it."""
    ordered = sorted(values)
    half = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[half]
    return (ordered[half - 1] + ordered[half]) / 2


def stability_gate(
    series: MeasurementSeries,
    cv_threshold: float = DEFAULT_CV_THRESHOLD,
    dev_threshold: float = DEFAULT_DEV_THRESHOLD,
) -> GateResult:
    """Evaluate line-width (and optional MT) stability over the series.

    Stable means: CV of t2_star at or below `cv_threshold`, worst relative
    deviation from the window median at or below `dev_threshold`, and, when
    the MT column is present, its CV also within `cv_threshold`.  Needs at
    least three rows.  A threshold must be finite (NonFiniteValue) and
    non-negative (ValueError): an infinite one would pass any series.  A
    statistic that is not finite, such as a CV whose mean overflows at
    t2_star near the float maximum, raises NonFiniteValue naming it.
    """
    for name, value in (("cv_threshold", cv_threshold), ("dev_threshold", dev_threshold)):
        if not isfinite(value):
            raise NonFiniteValue(f"{name} must be finite, got {value}")
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    if len(series) < 3:
        raise InsufficientRows(f"gate needs >= 3 rows, got {len(series)}")
    t2 = series.t2_star
    t2_cv = _coefficient_of_variation(t2)
    median = _median(t2)
    max_rel_deviation = max(abs(v - median) for v in t2) / median
    mt_cv = None if series.mt_ratio is None else _coefficient_of_variation(series.mt_ratio)
    statistics = {"t2_cv": t2_cv, "max_rel_deviation": max_rel_deviation, "mt_cv": mt_cv}
    for name, value in statistics.items():
        if value is not None and not isfinite(value):
            raise NonFiniteValue(f"gate statistic {name} is not finite ({value})")
    mt_ok = mt_cv is None or mt_cv <= cv_threshold
    stable = t2_cv <= cv_threshold and max_rel_deviation <= dev_threshold and mt_ok
    return GateResult(
        status="stable" if stable else "unstable",
        t2_cv=t2_cv,
        max_rel_deviation=max_rel_deviation,
        mt_cv=mt_cv,
        cv_threshold=cv_threshold,
        dev_threshold=dev_threshold,
    )
