"""Measurement-series ingestion and the empirical stability gate.

The CSV contract is `time_s,f_dq,t2_star_s[,mt_ratio]` with '.' decimals and
comma delimiters.  A stable line width across the series is what certifies
that the dipolar network stayed stationary and motionally narrowed while the
pair signal was recorded; the gate quantifies stability as a coefficient of
variation plus a worst single-sample deviation from the window median, with
the optional magnetization-transfer column held to the same CV threshold.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from math import isfinite
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from .bounds import GateStatus
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


@dataclass(frozen=True)
class MeasurementSeries:
    """Validated time series of fractional amplitude and stability observables.

    Every value must be finite (NonFiniteValue otherwise, naming the column);
    f_dq >= 0, t2_star > 0 and mt_ratio in [0, 1] (NegativeValue otherwise).
    """

    times: np.ndarray
    f_dq: np.ndarray
    t2_star: np.ndarray
    mt_ratio: np.ndarray | None = None
    skipped: tuple[str, ...] = ()

    def __post_init__(self):
        for name in ("times", "f_dq", "t2_star", "mt_ratio"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.array(arr, dtype=float)
            if not np.isfinite(arr).all():
                bad = arr[~np.isfinite(arr)][0]
                raise NonFiniteValue(f"{name} must be finite, got {bad}")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        n = self.times.size
        if self.f_dq.size != n or self.t2_star.size != n:
            raise ValueError("column lengths differ")
        if self.mt_ratio is not None and self.mt_ratio.size != n:
            raise ValueError("column lengths differ")
        if np.any(self.f_dq < 0):
            raise NegativeValue(f"f_dq must be >= 0, got {self.f_dq.min()}")
        if np.any(self.t2_star <= 0):
            raise NegativeValue(f"t2_star must be > 0, got {self.t2_star.min()}")
        if self.mt_ratio is not None and np.any((self.mt_ratio < 0) | (self.mt_ratio > 1)):
            raise NegativeValue("mt_ratio must lie in [0, 1]")
        if n > 1 and not np.all(np.diff(self.times) > 0):
            raise NonMonotonicTime("times must be strictly increasing")

    def __len__(self) -> int:
        return int(self.times.size)


def ingest(path: str | Path) -> MeasurementSeries:
    """Parse and validate a measurement CSV file.

    Blank lines and rows that do not parse as the right number of floats are
    skipped and recorded in the series diagnostics; sign/range violations,
    out-of-order time stamps and lines the csv module cannot read (a field
    over its size limit, MalformedRow) are hard errors naming the offending
    line.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return _ingest_stream(handle)


def _rows(reader) -> Iterator[list[str]]:
    """The reader's rows; a line the csv module cannot read raises MalformedRow naming it."""
    try:
        yield from reader
    except csv.Error as exc:
        raise MalformedRow(f"line {reader.line_num}: {exc}") from None


def _ingest_stream(stream: TextIO) -> MeasurementSeries:
    reader = csv.reader(stream)
    rows = _rows(reader)
    try:
        header = next(rows)
    except StopIteration:
        raise MalformedHeader("empty input, expected a header line") from None
    header = [h.strip() for h in header]
    if tuple(header[: len(REQUIRED_COLUMNS)]) != REQUIRED_COLUMNS or len(header) > 4:
        raise MalformedHeader(
            f"line 1: expected header time_s,f_dq,t2_star_s[,mt_ratio], got {','.join(header)}"
        )
    has_mt = len(header) == 4
    if has_mt and header[3] != OPTIONAL_COLUMN:
        raise MalformedHeader(
            f"line 1: fourth column must be {OPTIONAL_COLUMN!r}, got {header[3]!r}"
        )
    n_fields = 4 if has_mt else 3

    times, fdqs, t2s, mts = [], [], [], []
    skipped: list[str] = []
    for line_no, row in enumerate(rows, start=2):
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
    return MeasurementSeries(
        times=np.array(times),
        f_dq=np.array(fdqs),
        t2_star=np.array(t2s),
        mt_ratio=np.array(mts) if has_mt else None,
        skipped=tuple(skipped),
    )


def ingest_text(text: str) -> MeasurementSeries:
    """`ingest` for in-memory CSV content."""
    return _ingest_stream(io.StringIO(text))


@dataclass(frozen=True)
class GateResult:
    """Outcome of the line-width stability gate."""

    status: GateStatus
    t2_cv: float
    max_rel_deviation: float
    mt_cv: float | None
    cv_threshold: float
    dev_threshold: float


def _coefficient_of_variation(values: np.ndarray) -> float:
    mean = float(values.mean())
    std = float(values.std(ddof=0))
    if mean == 0.0:
        return 0.0 if std == 0.0 else float("inf")
    return std / mean


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
    with np.errstate(over="ignore", invalid="ignore"):
        t2_cv = _coefficient_of_variation(t2)
        median = float(np.median(t2))
        max_rel_deviation = float(np.abs(t2 - median).max() / median)
        mt_cv = None
        if series.mt_ratio is not None:
            mt_cv = _coefficient_of_variation(series.mt_ratio)
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
