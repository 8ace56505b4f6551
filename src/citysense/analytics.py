"""Statistical comparison of measurement populations.

Empirical PMFs, population means, and the relative error between two
population means, plus the proximity rule that associates mobile samples
with their nearest fixed station.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path as FsPath
from typing import Iterable, Mapping, Sequence

import numpy as np

from .domain import (
    EXCLUDED_FLAGS,
    Flag,
    GeoPoint,
    Measurement,
    NodeDescriptor,
    Quantity,
    haversine_distance,
    mean,
)
from .store import OutputSet

DEFAULT_ASSOCIATION_RADIUS_M = 500.0
DEFAULT_BIN_COUNT = 30


class EmptySampleError(ValueError):
    """PMF estimation needs at least one sample inside the bin range."""


class NoOverlapError(ValueError):
    """The two populations share no quantity with usable samples."""


@dataclass(frozen=True)
class Pmf:
    """A normalized histogram: probability mass per bin."""

    quantity: Quantity | None
    bin_edges: tuple[float, ...]
    probabilities: tuple[float, ...]
    n_samples: int

    def bin_centers(self) -> tuple[float, ...]:
        return tuple(
            (a + b) / 2.0 for a, b in zip(self.bin_edges, self.bin_edges[1:])
        )


def estimate_pmf(
    samples: Sequence[float],
    bins: Sequence[float] | tuple[int, float, float] | int = DEFAULT_BIN_COUNT,
    quantity: Quantity | None = None,
) -> Pmf:
    """Estimate the empirical PMF of ``samples``.

    ``bins`` is either explicit ascending edges, a ``(count, min, max)``
    triple, or a bare bin count spanning the sample range. Probabilities are
    normalized over the samples that fall inside the edges, so they always
    sum to 1.
    """
    if len(samples) == 0:
        raise EmptySampleError("no samples")
    data = np.asarray(samples, dtype=float)
    if isinstance(bins, int):
        lo, hi = float(data.min()), float(data.max())
        edges = _safe_edges(bins, lo, hi)
    elif isinstance(bins, tuple) and len(bins) == 3 and isinstance(bins[0], int):
        edges = _safe_edges(bins[0], float(bins[1]), float(bins[2]))
    else:
        edges = np.asarray(bins, dtype=float)
        if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0):
            raise ValueError("bin edges must be ascending with at least two entries")
    counts, edges = np.histogram(data, bins=edges)
    total = int(counts.sum())
    if total == 0:
        raise EmptySampleError("no samples inside the bin range")
    probs = counts / total
    return Pmf(quantity, tuple(edges.tolist()), tuple(probs.tolist()), total)


def _safe_edges(count: int, lo: float, hi: float) -> np.ndarray:
    if count < 1:
        raise ValueError("bin count must be >= 1")
    if lo == hi:
        # Degenerate span (all samples identical): one unit-wide bin.
        return np.array([lo - 0.5, hi + 0.5])
    return np.linspace(lo, hi, count + 1)


def relative_error(m_a: float, m_b: float) -> float:
    """Relative error between two population means: ``|1 - m_a / m_b|``.

    Unit-scale invariant; raises ZeroDivisionError when the reference mean
    ``m_b`` is zero.
    """
    if m_b == 0.0:
        raise ZeroDivisionError("reference mean is zero")
    return abs(1.0 - m_a / m_b)


@dataclass(frozen=True)
class Association:
    """Partition of mobile samples by nearest fixed station within a radius."""

    by_station: Mapping[str, tuple[Measurement, ...]]
    unassociated: tuple[Measurement, ...]
    radius_m: float


def associate_mobile_to_fixed(
    mobile: Iterable[Measurement],
    fixed_stations: Sequence[NodeDescriptor] | Sequence[tuple[str, GeoPoint]],
    radius_m: float = DEFAULT_ASSOCIATION_RADIUS_M,
) -> Association:
    """Assign each mobile sample to the nearest fixed station within
    ``radius_m`` meters; equidistant candidates go to the lower station id.

    Deterministic and idempotent: every sample lands in exactly one cell.
    Samples at one position (every quantity of a tick, a node standing
    still) share one result, so the stations are scanned once per distinct
    position, not once per sample.
    """
    stations: list[tuple[str, GeoPoint]] = []
    for s in fixed_stations:
        if isinstance(s, NodeDescriptor):
            stations.append((s.node_id, s.home_position))
        else:
            stations.append((s[0], s[1]))
    stations.sort(key=lambda s: s[0])
    by_station: dict[str, list[Measurement]] = {}
    unassociated: list[Measurement] = []
    nearest: dict[GeoPoint, tuple[str | None, float]] = {}
    for m in mobile:
        best = nearest.get(m.position)
        if best is None:
            best_id, best_d = None, math.inf
            for sid, pos in stations:
                d = haversine_distance(m.position, pos)
                if d < best_d:  # ties keep the earlier (lower) id
                    best_id, best_d = sid, d
            best = nearest[m.position] = (best_id, best_d)
        best_id, best_d = best
        if best_id is not None and best_d <= radius_m:
            by_station.setdefault(best_id, []).append(m)
        else:
            unassociated.append(m)
    return Association(
        by_station={k: tuple(v) for k, v in sorted(by_station.items())},
        unassociated=tuple(unassociated),
        radius_m=radius_m,
    )


@dataclass(frozen=True)
class ComparisonRow:
    quantity: Quantity
    mean_a: float
    mean_b: float
    eta: float
    pmf_a: Pmf
    pmf_b: Pmf
    n_a: int
    n_b: int
    below_lod_rate_a: float
    below_lod_rate_b: float


@dataclass(frozen=True)
class ComparisonReport:
    labels: tuple[str, str]
    rows: tuple[ComparisonRow, ...]
    incomparable: tuple[Quantity, ...]


def _clean_values(ms: Iterable[Measurement]) -> dict[Quantity, list[float]]:
    out: dict[Quantity, list[float]] = {}
    for m in ms:
        if not (m.flags & EXCLUDED_FLAGS):
            out.setdefault(m.quantity, []).append(m.value)
    return out


def _below_lod_rates(ms: Iterable[Measurement]) -> dict[Quantity, float]:
    """Share of each quantity's readings flagged below LoD, in one pass."""
    totals: dict[Quantity, int] = {}
    flagged: dict[Quantity, int] = {}
    for m in ms:
        totals[m.quantity] = totals.get(m.quantity, 0) + 1
        if Flag.BELOW_LOD in m.flags:
            flagged[m.quantity] = flagged.get(m.quantity, 0) + 1
    return {q: flagged.get(q, 0) / n for q, n in totals.items()}


def compare_populations(
    a: Sequence[Measurement],
    b: Sequence[Measurement],
    bin_count: int = DEFAULT_BIN_COUNT,
    labels: tuple[str, str] = ("a", "b"),
) -> ComparisonReport:
    """Per-quantity means, relative error, and PMFs for two populations.

    Both PMFs of a quantity share one set of equal-width edges spanning the
    pooled range, so they are directly comparable. Quantities with usable
    samples in only one population are listed as incomparable.
    """
    values_a = _clean_values(a)
    values_b = _clean_values(b)
    shared = sorted(set(values_a) & set(values_b), key=lambda q: q.value)
    only = sorted(set(values_a) ^ set(values_b), key=lambda q: q.value)
    if not shared:
        raise NoOverlapError("populations share no quantity with usable samples")
    lod_rates_a = _below_lod_rates(a)
    lod_rates_b = _below_lod_rates(b)
    rows = []
    for q in shared:
        va, vb = values_a[q], values_b[q]
        lo = min(min(va), min(vb))
        hi = max(max(va), max(vb))
        edges = _safe_edges(bin_count, lo, hi)
        mean_a = mean(va)
        mean_b = mean(vb)
        rows.append(
            ComparisonRow(
                quantity=q,
                mean_a=mean_a,
                mean_b=mean_b,
                eta=relative_error(mean_a, mean_b) if mean_b != 0.0 else math.nan,
                pmf_a=estimate_pmf(va, tuple(edges.tolist()), q),
                pmf_b=estimate_pmf(vb, tuple(edges.tolist()), q),
                n_a=len(va),
                n_b=len(vb),
                below_lod_rate_a=lod_rates_a[q],
                below_lod_rate_b=lod_rates_b[q],
            )
        )
    return ComparisonReport(labels=labels, rows=tuple(rows), incomparable=tuple(only))


def _round_sig(x: float, sig: int = 3) -> float:
    if x == 0.0:
        return x
    return round(x, sig - 1 - int(math.floor(math.log10(abs(x)))))


def write_comparison_report(report: ComparisonReport, out_dir: str | FsPath) -> list[FsPath]:
    """Emit ``comparison.json`` plus one two-column PMF data file per
    (quantity, population), ready for any plotting tool, as one
    ``store.OutputSet``: old ``pmf_*.dat`` files it does not rewrite go.

    Relative errors are rounded to three significant figures, or ``null``
    where eta is undefined (zero reference mean); the full-precision means
    are stored alongside, so eta stays recomputable. The JSON is strict.
    """
    label_a, label_b = report.labels
    doc = {
        "labels": list(report.labels),
        "incomparable": [q.value for q in report.incomparable],
        "rows": {
            row.quantity.value: {
                f"mean_{label_a}": row.mean_a,
                f"mean_{label_b}": row.mean_b,
                "relative_error": _round_sig(row.eta) if math.isfinite(row.eta) else None,
                f"n_{label_a}": row.n_a,
                f"n_{label_b}": row.n_b,
                f"below_lod_rate_{label_a}": row.below_lod_rate_a,
                f"below_lod_rate_{label_b}": row.below_lod_rate_b,
            }
            for row in report.rows
        },
    }
    with OutputSet(out_dir, "pmf_*.dat") as files:
        with files.open("comparison.json") as f:
            f.write(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")
        for row in report.rows:
            for label, pmf in ((label_a, row.pmf_a), (label_b, row.pmf_b)):
                with files.open(f"pmf_{row.quantity.value}_{label}.dat") as f:
                    f.writelines(
                        f"{center!r} {p!r}\n"
                        for center, p in zip(pmf.bin_centers(), pmf.probabilities)
                    )
    return files.paths
