"""Benchmark metrics, error curves, summary statistics, and comparison.

All metrics treat predictions and targets as aligned 1-D arrays.
Percentage errors are reported on the 0-100 scale. Error curves bucket
rows by target size on a log-spaced grid because option midpoints span
several orders of magnitude; distribution summaries use the
linear-interpolation quantile convention and sample (n-1) deviations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .core import FINITE, POSITIVE, check_fields, integer_rule
from .errors import ValidationError
from .ingest import write_file, write_rows

_BIN_RULES = {"n_bins": integer_rule(1)}


def _aligned(predictions, targets) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.ndim != 1 or t.ndim != 1 or p.shape != t.shape:
        raise ValidationError(
            f"predictions/targets: expected matching 1-D arrays, got {p.shape} vs {t.shape}"
        )
    if p.shape[0] == 0:
        raise ValidationError("predictions: need at least one row")
    check_fields({"predictions": FINITE, "targets": FINITE}, predictions=p, targets=t)
    return p, t


def mae(predictions, targets) -> float:
    """Mean absolute error."""
    p, t = _aligned(predictions, targets)
    return float(np.mean(np.abs(p - t)))


def mape(predictions, targets) -> float:
    """Mean absolute percentage error on the 0-100 scale.

    Requires strictly positive targets; option midpoints always are.
    """
    p, t = _aligned(predictions, targets)
    check_fields({"targets": POSITIVE}, targets=t)
    return float(100.0 * np.mean(np.abs(p - t) / t))


class BinStat(NamedTuple):
    lower: float
    upper: float
    count: int
    mae: float | None  # None when the bin is empty
    mape: float | None


def binned_errors(predictions, targets, n_bins: int = 20) -> list[BinStat]:
    """Per-bin MAE/MAPE over a log-spaced grid of target values.

    Bins are geometric between the smallest and largest target, with
    each row assigned to the bin containing its target (the top edge is
    inclusive). Empty bins are emitted with count 0 and None metrics.
    With one bin this reduces to the global MAE/MAPE.
    """
    p, t = _aligned(predictions, targets)
    check_fields({**_BIN_RULES, "targets": POSITIVE}, n_bins=n_bins, targets=t)
    lo, hi = float(t.min()), float(t.max())
    if lo == hi:
        edges = np.array([lo, hi])
        n_bins = 1
    else:
        edges = np.geomspace(lo, hi, n_bins + 1)
    idx = np.clip(np.searchsorted(edges, t, side="left") - 1, 0, n_bins - 1)
    abs_err = np.abs(p - t)
    pct_err = 100.0 * abs_err / t
    counts = np.bincount(idx, minlength=n_bins)
    sums_abs = np.bincount(idx, weights=abs_err, minlength=n_bins)
    sums_pct = np.bincount(idx, weights=pct_err, minlength=n_bins)
    out: list[BinStat] = []
    for b in range(n_bins):
        c = int(counts[b])
        out.append(
            BinStat(
                lower=float(edges[b]),
                upper=float(edges[b + 1]),
                count=c,
                mae=float(sums_abs[b] / c) if c else None,
                mape=float(sums_pct[b] / c) if c else None,
            )
        )
    return out


class SummaryStats(NamedTuple):
    count: int
    mean: float
    std: float
    minimum: float
    q25: float
    median: float
    q75: float
    maximum: float


def _check_values(values) -> np.ndarray:
    """A non-empty 1-D array of finite values, as float64."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] == 0:
        raise ValidationError(f"values: expected a non-empty 1-D array, got shape {v.shape}")
    check_fields({"values": FINITE}, values=v)
    return v


def summary_stats(values) -> SummaryStats:
    """Distribution summary: sample (n-1) deviation, linear quantiles."""
    v = _check_values(values)
    n = v.shape[0]
    std = float(np.std(v, ddof=1)) if n > 1 else 0.0
    q25, q50, q75 = (float(q) for q in np.quantile(v, [0.25, 0.5, 0.75]))
    return SummaryStats(
        count=n,
        mean=float(np.mean(v)),
        std=std,
        minimum=float(v.min()),
        q25=q25,
        median=q50,
        q75=q75,
        maximum=float(v.max()),
    )


class HistogramBin(NamedTuple):
    lower: float
    upper: float
    count: int


def histogram(values, n_bins: int = 30) -> list[HistogramBin]:
    """Equal-width histogram; bin counts always sum to len(values)."""
    v = _check_values(values)
    check_fields(_BIN_RULES, n_bins=n_bins)
    counts, edges = np.histogram(v, bins=n_bins)
    return [
        HistogramBin(float(edges[b]), float(edges[b + 1]), int(counts[b]))
        for b in range(n_bins)
    ]


@dataclass(frozen=True)
class ModelResult:
    """One model's predictions on the shared evaluation rows."""

    name: str
    predictions: np.ndarray
    training_seconds: float | None = None


# A model name is one CSV cell of the report table and part of a curve
# file name, so it holds no separator, quote, newline or path character.
NAME_PATTERN = re.compile(r"[A-Za-z0-9_.-]+")


REPORT_HEADER = ("model", "mae", "mape_pct", "training_seconds")


class ReportRow(NamedTuple):
    name: str
    mae: float
    mape: float
    training_seconds: float | None


@dataclass(frozen=True)
class EvalReport:
    rows: tuple[ReportRow, ...]
    curves: dict[str, list[BinStat]]
    n_rows: int

    def to_text(self) -> str:
        """Fixed-width comparison table, best model first."""
        cells = [REPORT_HEADER]
        for row in self.rows:
            cells.append(
                (
                    row.name,
                    f"{row.mae:.6f}",
                    f"{row.mape:.4f}",
                    "n/a" if row.training_seconds is None else f"{row.training_seconds:.1f}",
                )
            )
        widths = [max(len(r[c]) for r in cells) for c in range(len(REPORT_HEADER))]
        lines = [
            "  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip()
            for row in cells
        ]
        lines.insert(1, "  ".join("-" * w for w in widths))
        lines.append(f"rows evaluated: {self.n_rows}")
        return "\n".join(lines) + "\n"


def compare_models(
    targets, results: Sequence[ModelResult], curve_bins: int = 20
) -> EvalReport:
    """Score every result against the one target vector and rank by MAE.

    Each name must fully match NAME_PATTERN and be unique; rows are
    sorted ascending by MAE with name as the tie-break.
    """
    if not results:
        raise ValidationError("results: need at least one model result")
    names = [r.name for r in results]
    for name in names:
        if not (isinstance(name, str) and NAME_PATTERN.fullmatch(name)):
            raise ValidationError(
                f"results: a model name must fully match {NAME_PATTERN.pattern}, got {name!r}"
            )
    if len(set(names)) != len(names):
        raise ValidationError(f"results: duplicate model names in {names!r}")
    rows = []
    curves: dict[str, list[BinStat]] = {}
    for r in results:
        rows.append(
            ReportRow(
                name=r.name,
                mae=mae(r.predictions, targets),
                mape=mape(r.predictions, targets),
                training_seconds=r.training_seconds,
            )
        )
        curves[r.name] = binned_errors(r.predictions, targets, curve_bins)
    rows.sort(key=lambda row: (row.mae, row.name))
    return EvalReport(rows=tuple(rows), curves=curves, n_rows=len(targets))


def write_report(report: EvalReport, out_dir: str | Path) -> list[Path]:
    """Write report.txt, report_table.csv, and one curve CSV per model."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = [write_file(out / "report.txt", [report.to_text().encode("utf-8")])]
    written.append(write_rows(out / "report_table.csv", REPORT_HEADER, report.rows))
    curve_header = ("lower", "upper", "count", "mae", "mape_pct")
    for name, curve in report.curves.items():
        written.append(write_rows(out / f"curve_{name}.csv", curve_header, curve))
    return written


def write_summary_csv(
    stats_by_column: dict[str, SummaryStats], path: str | Path
) -> Path:
    """One row of distribution summary per named column."""
    return write_rows(
        path,
        ("column", "count", "mean", "std", "min", "q25", "median", "q75", "max"),
        ((name, *s) for name, s in stats_by_column.items()),
    )
