"""Aggregate statistics over experiment sweeps.

Benchmarks and examples usually report a single deterministic run per
parameter point; for randomized adversaries it is often more informative to
aggregate several seeds.  These helpers compute the usual summary statistics
(numpy-backed) and confidence-style spreads over a collection of dict rows
(such as :meth:`repro.api.RunReport.as_row`) or plain numbers, grouped by
arbitrary parameter keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

__all__ = ["SeriesSummary", "summarise", "group_by", "aggregate_rows", "linear_fit"]


@dataclass(frozen=True)
class SeriesSummary:
    """Summary statistics of one numeric series."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    median: float
    p95: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": round(self.mean, 3),
            "std": round(self.std, 3),
            "min": self.minimum,
            "max": self.maximum,
            "median": self.median,
            "p95": round(self.p95, 3),
        }


def summarise(values: Iterable[float]) -> SeriesSummary:
    """Summary statistics of a numeric series (empty series -> all zeros)."""
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        return SeriesSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return SeriesSummary(
        count=int(array.size),
        mean=float(array.mean()),
        std=float(array.std(ddof=0)),
        minimum=float(array.min()),
        maximum=float(array.max()),
        median=float(np.median(array)),
        p95=float(np.percentile(array, 95)),
    )


def group_by(
    rows: Iterable[Mapping[str, object]],
    keys: Sequence[str],
) -> Dict[Tuple, List[Mapping[str, object]]]:
    """Group dict rows by the given keys (missing keys group under ``None``)."""
    groups: Dict[Tuple, List[Mapping[str, object]]] = {}
    for row in rows:
        group_key = tuple(row.get(key) for key in keys)
        groups.setdefault(group_key, []).append(row)
    return groups


def aggregate_rows(
    rows: Iterable[Mapping[str, object]],
    group_keys: Sequence[str],
    value_key: str,
    *,
    extractor: Callable[[Mapping[str, object]], float] = None,
) -> List[Dict[str, object]]:
    """Aggregate a value column over groups of rows.

    Returns one output row per group, carrying the group keys plus the summary
    statistics of ``value_key`` (or of ``extractor(row)`` when given).
    """
    result: List[Dict[str, object]] = []
    for group_key, members in sorted(
        group_by(rows, group_keys).items(), key=lambda item: str(item[0])
    ):
        if extractor is not None:
            values = [extractor(row) for row in members]
        else:
            values = [float(row[value_key]) for row in members if row.get(value_key) is not None]
        summary = summarise(values)
        output: Dict[str, object] = dict(zip(group_keys, group_key))
        output.update({f"{value_key}_{k}": v for k, v in summary.as_dict().items()})
        result.append(output)
    return result


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float]:
    """Least-squares slope and intercept of ``ys`` against ``xs``.

    Used by shape checks that assert a measured series grows (near-)linearly —
    e.g. the E2 occupancy-vs-destinations curve.
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    if len(xs) < 2:
        raise ValueError("need at least two points to fit a line")
    slope, intercept = np.polyfit(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float), 1)
    return float(slope), float(intercept)
