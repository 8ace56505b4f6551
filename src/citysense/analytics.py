"""Statistical comparison of measurement populations.

Empirical PMFs over explicit bin edges, population means, and the relative
error between two population means, plus the two rules that form
populations from a store's channels (``store.Channels``); a population is
channels too. The paths rule takes the fixed nodes of each of two path
tags. The mobile-fixed rule sends each distinct mobile position to its
nearest fixed station within a radius; the fixed population is every
reading of the stations that received one.
"""

from __future__ import annotations

import json
import math
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from pathlib import Path as FsPath
from typing import Collection, Mapping, Sequence

import numpy as np

from .domain import (
    FLAG_SETS, Flag, GeoPoint, NodeKind, Quantity, SiteGrid, haversine_distance, mean, usable_mask,
)
from .store import Channel, Channels, OutputSet

# The flag codes (``domain.FLAG_SETS``) of the sets holding ``Flag.BELOW_LOD``.
_BELOW_LOD_CODES = [code for code, flags in enumerate(FLAG_SETS) if Flag.BELOW_LOD in flags]

DEFAULT_ASSOCIATION_RADIUS_M = 500.0
BIN_COUNT = 30  # equal-width PMF bins per compared quantity


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
            (a + b) / 2.0 if abs(a + b) < math.inf else a / 2.0 + b / 2.0
            for a, b in zip(self.bin_edges, self.bin_edges[1:])
        )


def estimate_pmf(
    samples: Sequence[float],
    edges: Sequence[float] | np.ndarray,
    quantity: Quantity | None = None,
) -> Pmf:
    """Estimate the empirical PMF of ``samples`` over the ascending bin
    ``edges``. Probabilities are normalized over the samples that fall
    inside the edges, so they always sum to 1.
    """
    if len(samples) == 0:
        raise EmptySampleError("no samples")
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("bin edges must be ascending with at least two entries")
    counts, edges = np.histogram(np.asarray(samples, dtype=float), bins=edges)
    total = int(counts.sum())
    if total == 0:
        raise EmptySampleError("no samples inside the bin range")
    probs = counts / total
    return Pmf(quantity, tuple(edges.tolist()), tuple(probs.tolist()), total)


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
    """Partition of mobile positions by nearest fixed station within a radius."""

    by_station: Mapping[str, tuple[GeoPoint, ...]]
    unassociated: tuple[GeoPoint, ...]


def associate_mobile_to_fixed(
    positions: Sequence[GeoPoint],
    fixed_stations: Sequence[tuple[str, GeoPoint]],
    radius_m: float = DEFAULT_ASSOCIATION_RADIUS_M,
) -> Association:
    """Assign each of the distinct mobile sample ``positions`` to the nearest
    fixed station within ``radius_m`` meters; equidistant candidates go to
    the lower station id. Deterministic and idempotent: every position
    lands in exactly one cell, measured in id order against the stations a
    ``domain.SiteGrid`` finds near it, which gives the full scan's answer.
    """
    grid = SiteGrid(sorted(fixed_stations, key=lambda s: s[0]), radius_m)
    by_station: dict[str, list[GeoPoint]] = {}
    unassociated: list[GeoPoint] = []
    for p in positions:
        best_id, best_d = None, math.inf
        for sid, pos in grid.near(p):
            d = haversine_distance(p, pos)
            if d < best_d:  # ties keep the earlier (lower) id
                best_id, best_d = sid, d
        if best_id is not None and best_d <= radius_m:
            by_station.setdefault(best_id, []).append(p)
        else:
            unassociated.append(p)
    return Association(
        by_station={k: tuple(v) for k, v in sorted(by_station.items())},
        unassociated=tuple(unassociated),
    )


# A node table row: kind, path tag, home position (None for a mobile node).
NodeRow = tuple[NodeKind, str | None, GeoPoint | None]


def _of_nodes(channels: Channels, node_ids: Collection[str]) -> Channels:
    return {key: channel for key, channel in channels.items() if key[0] in node_ids}


def nodes_compared(mode: str, nodes: Mapping[str, NodeRow]) -> set[str]:
    """The ids of the nodes whose readings a compare ``mode`` reads: for
    ``paths`` the fixed nodes with a path tag, for ``mobile-fixed`` the
    fixed and the mobile nodes."""
    if mode == "paths":
        return {nid for nid, (kind, path, _) in nodes.items() if kind is NodeKind.FIXED and path}
    if mode == "mobile-fixed":
        return {nid for nid, (kind, _, _) in nodes.items()
                if kind in (NodeKind.FIXED, NodeKind.MOBILE)}
    raise ValueError(f"unknown compare mode {mode!r}")


def path_populations(
    channels: Channels, nodes: Mapping[str, NodeRow],
) -> tuple[Channels, Channels, tuple[str, str]]:
    """The readings of the fixed nodes of each of exactly two path tags (else
    a ValueError), with the tags as labels: the alphabetically first is
    population a, the second the reference population b."""
    tags: dict[str, set[str]] = {}
    for nid in nodes_compared("paths", nodes):
        tags.setdefault(nodes[nid][1], set()).add(nid)
    if len(tags) != 2:
        raise ValueError(f"paths mode needs exactly two path tags, found {sorted(tags)}")
    tag_a, tag_b = sorted(tags)
    return _of_nodes(channels, tags[tag_a]), _of_nodes(channels, tags[tag_b]), (tag_a, tag_b)


def mobile_fixed_populations(
    channels: Channels,
    nodes: Mapping[str, NodeRow],
    radius_m: float = DEFAULT_ASSOCIATION_RADIUS_M,
) -> tuple[Channels, Channels, Association, int]:
    """The mobile and fixed populations the paper compares, the association
    of the distinct mobile positions that formed them, and the number of
    mobile samples left out.

    ``nodes`` maps node id to (kind, path tag, home position), as
    ``citysense simulate`` writes ``nodes.json``. The mobile population is
    every mobile sample within ``radius_m`` of a fixed station (see
    :func:`associate_mobile_to_fixed`); the fixed population is every
    reading of the stations that received one.
    """
    compared = nodes_compared("mobile-fixed", nodes)
    fixed = [(nid, home) for nid, (kind, _, home) in nodes.items()
             if nid in compared and kind is NodeKind.FIXED]
    mobile = _of_nodes(channels, {nid for nid in compared if nodes[nid][0] is NodeKind.MOBILE})
    positions = dict.fromkeys(p for channel in mobile.values() for p in channel.positions)
    association = associate_mobile_to_fixed(list(positions), fixed, radius_m)
    inside = {p for ps in association.by_station.values() for p in ps}
    pop_mobile, unassociated = {}, 0
    for key, (timestamps, values, codes, places) in mobile.items():
        if len(places) < len(values):  # every reading at one place
            places = places * len(values)
        near = bytes(map(inside.__contains__, places))
        unassociated += near.count(0)
        if 1 in near:
            pop_mobile[key] = Channel(array("q", compress(timestamps, near)),
                                      array("d", compress(values, near)),
                                      bytearray(compress(codes, near)), list(compress(places, near)))
    return pop_mobile, _of_nodes(channels, association.by_station), association, unassociated


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


# A quantity's channels in a population: the values and usable mask of each.
_Pieces = list[tuple[np.ndarray, np.ndarray]]


def _split_by_quantity(population: Channels) -> tuple[dict[Quantity, _Pieces], dict[Quantity, float]]:
    """Each quantity's channels with usable values, as views of their
    columns, and the share of its readings flagged below LoD."""
    pieces: dict[Quantity, _Pieces] = {}
    totals: Counter[Quantity] = Counter()
    flagged: Counter[Quantity] = Counter()
    for (_, q), channel in population.items():
        codes = channel.flags
        totals[q] += len(codes)
        flagged[q] += sum(map(codes.count, _BELOW_LOD_CODES))
        usable = np.frombuffer(usable_mask(codes), dtype=bool)
        if usable.any():
            pieces.setdefault(q, []).append((np.frombuffer(channel.values), usable))
    return pieces, {q: flagged[q] / n for q, n in totals.items()}


def _usable_values(pieces: _Pieces) -> np.ndarray:
    return np.concatenate([values[usable] for values, usable in pieces])


def _widen(v: float, by: float) -> float:
    """``v + by``; where that does not move ``v`` (its magnitude is 2**53 or
    more), the next float past ``v`` that way, or ``v`` itself at the end of
    the finite floats."""
    w = v + by
    if w == v:
        w = math.nextafter(v, math.copysign(math.inf, by))
    return w if math.isfinite(w) else v


def compare_populations(
    a: Channels,
    b: Channels,
    labels: tuple[str, str] = ("a", "b"),
) -> ComparisonReport:
    """Per-quantity means, relative error, and PMFs for two populations,
    each given as channels (``store.Channels``).

    Both PMFs of a quantity share one set of ``BIN_COUNT`` equal-width edges
    spanning the pooled range (one unit-wide bin if every sample is equal,
    narrowed to the neighbouring floats where a value is too large for that),
    so they are directly comparable; a range wider than the largest float
    is split at half scale. Quantities with usable samples in only
    one population are listed as incomparable.
    """
    values_a, lod_rates_a = _split_by_quantity(a)
    values_b, lod_rates_b = _split_by_quantity(b)
    shared = sorted(set(values_a) & set(values_b), key=lambda q: q.value)
    only = sorted(set(values_a) ^ set(values_b), key=lambda q: q.value)
    if not shared:
        raise NoOverlapError("populations share no quantity with usable samples")
    rows = []
    for q in shared:
        va, vb = _usable_values(values_a[q]), _usable_values(values_b[q])  # one quantity at a time
        lo = float(min(va.min(), vb.min()))
        hi = float(max(va.max(), vb.max()))
        scale = 1.0 if hi - lo < math.inf else 2.0  # halving such wide bounds is exact
        edges = (np.linspace(lo / scale, hi / scale, BIN_COUNT + 1) * scale if lo < hi
                 else np.array([_widen(lo, -0.5), _widen(hi, 0.5)]))
        mean_a = mean(va.tolist())
        mean_b = mean(vb.tolist())
        rows.append(
            ComparisonRow(
                quantity=q,
                mean_a=mean_a,
                mean_b=mean_b,
                eta=relative_error(mean_a, mean_b) if mean_b != 0.0 else math.nan,
                pmf_a=estimate_pmf(va, edges, q),
                pmf_b=estimate_pmf(vb, edges, q),
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
