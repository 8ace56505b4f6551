"""Environmental indexes: two air-quality sub-indexes, a thermal comfort
index, and a traffic index, each classified into color bands.

All band tables are left-closed, right-open: a value exactly on a threshold
belongs to the band above it.

``compute_indexes`` recomputes the air-quality and thermal indexes on a
reporting grid from a store's channels (``store.Channel``: the columns of
one node and quantity, in timestamp order), one day file at a time
(``store.read_days``). The value at a grid point ``t`` reads only readings
stamped before ``t``, so each series keeps only what later points read.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from itertools import compress
from typing import Iterable, Iterator, Sequence

from .domain import VALUE_RANGE, Quantity, format_utc, mean, usable_mask
from .store import Channels, Day

HOUR_S = 3600
O3_WINDOW_S = 8 * HOUR_S
PM_WINDOW_S = 24 * HOUR_S


class IndexKind(str, Enum):
    AQI_O3 = "aqi_o3"
    AQI_PM = "aqi_pm"
    TCI = "tci"
    TI = "ti"


class IndexColor(str, Enum):
    GREEN = "green"
    YELLOW = "yellow"
    ORANGE = "orange"
    RED = "red"
    DARK_RED = "dark_red"
    BLUE = "blue"
    DARK_BLUE = "dark_blue"
    UNKNOWN = "unknown"


# (lower, upper, color), left-closed right-open, ascending.
O3_BANDS = (
    (-math.inf, 100.0, IndexColor.GREEN),
    (100.0, 180.0, IndexColor.YELLOW),
    (180.0, 240.0, IndexColor.ORANGE),
    (240.0, math.inf, IndexColor.RED),
)
PM_BANDS = (
    (-math.inf, 10.0, IndexColor.GREEN),
    (10.0, 25.0, IndexColor.YELLOW),
    (25.0, 60.0, IndexColor.ORANGE),
    (60.0, math.inf, IndexColor.RED),
)
# Comfort bands cover [-13, 46) degC only; anything outside is Unknown
# rather than extrapolated.
TCI_BANDS = (
    (-13.0, 0.0, IndexColor.DARK_BLUE),
    (0.0, 9.0, IndexColor.BLUE),
    (9.0, 26.0, IndexColor.GREEN),
    (26.0, 32.0, IndexColor.ORANGE),
    (32.0, 38.0, IndexColor.RED),
    (38.0, 46.0, IndexColor.DARK_RED),
)


def classify(value: float, bands) -> IndexColor:
    for lower, upper, color in bands:
        if lower <= value < upper:
            return color
    return IndexColor.UNKNOWN


@dataclass(frozen=True)
class IndexValue:
    kind: IndexKind
    station_id: str
    window_end: int
    value: float
    color: IndexColor


def _mean_index(
    kind: IndexKind, bands, values: Sequence[float], station_id: str, window_end: int
) -> IndexValue:
    if not values:
        return IndexValue(kind, station_id, window_end, math.nan, IndexColor.UNKNOWN)
    value = mean(values)
    return IndexValue(kind, station_id, window_end, value, classify(value, bands))


def aqi_o3(values: Sequence[float], station_id: str = "", window_end: int = 0) -> IndexValue:
    """Ozone sub-index: arithmetic mean of the trailing 8 h of readings
    (ug/m3), classified green/yellow/orange/red. Empty window -> Unknown."""
    return _mean_index(IndexKind.AQI_O3, O3_BANDS, values, station_id, window_end)


def aqi_pm(values: Sequence[float], station_id: str = "", window_end: int = 0) -> IndexValue:
    """PM 2.5 sub-index over a trailing 24 h window (ug/m3)."""
    return _mean_index(IndexKind.AQI_PM, PM_BANDS, values, station_id, window_end)


def _vapor_pressure_hpa(air: float, rh: float) -> float:
    # Magnus form over water; it has no value at or below -237.7 degC (NaN,
    # so the TCI is Unknown).
    if air <= -237.7:
        return math.nan
    return (rh / 100.0) * 6.105 * math.exp(17.27 * air / (237.7 + air))


def apparent_temperature_model(air: float, radiant: float, wind: float, rh: float) -> float:
    """Simple perceived-temperature blend of all four inputs.

    Air and radiant temperature are combined into an operative temperature
    (radiant weight shrinking as wind rises), then adjusted with the usual
    vapor-pressure and wind terms of the apparent-temperature family.
    """
    if wind < 0.2:
        radiant_weight = 0.5
    elif wind < 0.6:
        radiant_weight = 0.4
    elif wind < 1.0:
        radiant_weight = 0.3
    else:
        radiant_weight = 0.2
    operative = (1.0 - radiant_weight) * air + radiant_weight * radiant
    return operative + 0.33 * _vapor_pressure_hpa(air, rh) - 0.70 * wind - 4.00


def tci(
    air_temp: float,
    radiant_temp: float,
    wind: float,
    rh: float,
    station_id: str = "",
    window_end: int = 0,
) -> IndexValue:
    """Thermal comfort index: the apparent temperature of air temperature,
    mean radiant temperature (degC), wind (m/s) and relative humidity (%),
    banded.

    Inputs must be finite and rh within its ``VALUE_RANGE``. Apparent
    temperatures outside [-13, 46) map to Unknown.
    """
    for name, v in (("air_temp", air_temp), ("radiant_temp", radiant_temp), ("wind", wind), ("rh", rh)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite")
    low, high = VALUE_RANGE[Quantity.RELATIVE_HUMIDITY]
    if not low <= rh <= high:
        raise ValueError(f"rh {rh} outside [{low:g}, {high:g}]")
    value = apparent_temperature_model(air_temp, radiant_temp, wind, rh)
    return IndexValue(IndexKind.TCI, station_id, window_end, value, classify(value, TCI_BANDS))


# ---------------------------------------------------------------------------
# Traffic index

# Passenger-car equivalents per vehicle class (national road regulations).
VEHICLE_EQUIVALENTS: dict[str, float] = {
    "bicycles": 0.2,
    "motorcycles": 0.33,
    "cars": 1.0,
    "trucks": 1.75,
    "buses": 2.25,
    "trams": 2.5,
}

# Position of the measured access inside the urban fabric.
LOCALIZATION_FACTORS: dict[str, float] = {
    "residential": 1.0,
    "commercial": 0.98,
    "industrial": 0.93,
    "business": 0.85,
}

# Interference weights per maneuver. Turning weights are quoted as ranges
# (right 1-1.25, left 1-1.75); the defaults sit at the conservative upper
# bound and are configurable per access.
DEFAULT_MANEUVER_EQUIVALENTS: dict[str, float] = {
    "straight": 1.0,
    "turning_right": 1.25,
    "turning_left": 1.75,
}

BASE_CONGESTION_FACTOR = 1800.0


class DegenerateCompositionError(ValueError):
    """Composition or maneuver weights collapse a TI denominator to zero."""


@dataclass(frozen=True)
class TrafficAccessConfig:
    """Everything needed to evaluate the traffic index at one access point."""

    composition: dict[str, float]  # vehicle class -> share, sums to 1
    maneuver_shares: dict[str, float] = field(
        default_factory=lambda: {"straight": 1.0}
    )
    steepness_pct: float = 0.0  # absolute grade, percent
    grade: str = "flat"  # flat | uphill | downhill
    localization: str = "residential"
    s_b: float = BASE_CONGESTION_FACTOR
    maneuver_equivalents: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_MANEUVER_EQUIVALENTS)
    )

    def __post_init__(self):
        for label, shares, table in (
            ("composition", self.composition, VEHICLE_EQUIVALENTS),
            ("maneuver_shares", self.maneuver_shares, self.maneuver_equivalents),
        ):
            unknown = set(shares) - set(table)
            if unknown:
                raise ValueError(f"{label}: unknown keys {sorted(unknown)}")
            if not all(0.0 <= v < math.inf for v in (*shares.values(), *table.values())):
                raise ValueError(f"{label}: a share or equivalent is negative or not finite")
            if abs(sum(shares.values()) - 1.0) > 1e-9:
                raise ValueError(f"{label}: shares must sum to 1")
        if self.grade not in ("flat", "uphill", "downhill"):
            raise ValueError(f"grade {self.grade!r} not flat/uphill/downhill")
        if not 0.0 <= self.steepness_pct < math.inf:
            raise ValueError("steepness_pct must be a finite absolute percentage")
        if self.grade == "uphill" and self.steepness_pct >= 100.0 / 3.0:
            raise ValueError(f"uphill steepness_pct must be below 100/3 (K2 > 0), got {self.steepness_pct}")
        if not 0.0 < self.s_b < math.inf:
            raise ValueError(f"s_b must be positive and finite, got {self.s_b}")
        if self.localization not in LOCALIZATION_FACTORS:
            raise ValueError(f"unknown localization {self.localization!r}")

    def factors(self) -> tuple[float, float, float, float]:
        """The four adjustment factors (composition, steepness, localization,
        maneuvering) multiplying the base congestion factor."""
        denom1 = sum(a * VEHICLE_EQUIVALENTS[c] for c, a in self.composition.items())
        denom4 = sum(
            b * self.maneuver_equivalents[m] for m, b in self.maneuver_shares.items()
        )
        if denom1 == 0.0 or denom4 == 0.0:
            raise DegenerateCompositionError("zero-weight composition or maneuver mix")
        k1 = 1.0 / denom1
        if self.grade == "uphill":
            k2 = 1.0 - 0.03 * self.steepness_pct
        elif self.grade == "downhill":
            k2 = 1.0 + 0.03 * self.steepness_pct
        else:
            k2 = 1.0
        k3 = LOCALIZATION_FACTORS[self.localization]
        k4 = 1.0 / denom4
        return k1, k2, k3, k4


def traffic_index(
    cfg: TrafficAccessConfig, access_id: str = "access", at_time: int = 0
) -> IndexValue:
    """Expected traffic flow at an access, in equivalent vehicles.

    No color table is defined for this index, so the band is Unknown.
    """
    k1, k2, k3, k4 = cfg.factors()
    value = cfg.s_b * k1 * k2 * k3 * k4
    return IndexValue(IndexKind.TI, access_id, at_time, value, IndexColor.UNKNOWN)


# ---------------------------------------------------------------------------
# Recomputation from stored readings

_TCI_INPUTS = (
    Quantity.TEMPERATURE,
    Quantity.RADIANT_TEMPERATURE,
    Quantity.WIND_SPEED,
    Quantity.RELATIVE_HUMIDITY,
)
INDEX_INPUTS = frozenset({Quantity.O3, Quantity.PM25, *_TCI_INPUTS})
_AQI = ((Quantity.O3, O3_WINDOW_S, aqi_o3), (Quantity.PM25, PM_WINDOW_S, aqi_pm))
# How far before a grid point an index reads each input: its AQI window, or
# nothing for a thermal input, which needs only its latest reading.
_REACH_S = {Quantity.O3: O3_WINDOW_S, Quantity.PM25: PM_WINDOW_S, **dict.fromkeys(_TCI_INPUTS, 0)}
_NO_SERIES = ((), ())


class IndexComputer:
    """Holds per-station series and recomputes indexes from them.

    :meth:`ingest` takes a store's channels. :meth:`update` at ``t`` reads
    only readings stamped before ``t``, so its result does not depend on
    what else was ingested. A station's index is emitted at ``t`` once the
    station has a usable reading stamped before ``t`` for it (for the
    thermal index, one of each input).

    Each (station, quantity) series is the usable part of its channels: two
    parallel arrays, timestamps and values, in timestamp order, so each
    window is a slice between two binary searches. :meth:`trim` drops what
    no later update reads.
    """

    def __init__(self):
        # station -> quantity -> (timestamps, values), sorted by timestamp
        self._series: dict[str, dict[Quantity, tuple[array, array]]] = {}

    def ingest(self, channels: Channels) -> None:
        """Append the usable part of each index input's channel to its
        series. Raises ValueError, naming the station and quantity, for one
        whose usable readings do not all follow those it holds; nothing of
        ``channels`` is then kept."""
        taken = []
        for (station, q), channel in channels.items():
            if q not in INDEX_INPUTS:
                continue
            usable = usable_mask(channel.flags)
            first = usable.find(1)
            if first >= 0:
                held = self._series.get(station, {}).get(q)
                if held and channel.timestamps[first] <= held[0][-1]:
                    raise ValueError(f"station {station!r} already holds {q.value} readings "
                                     f"up to {format_utc(held[0][-1])}")
                taken.append((station, q, channel, usable))
        for station, q, channel, usable in taken:
            timestamps, values = self._series.setdefault(station, {}).setdefault(
                q, (array("q"), array("d")))
            if 0 in usable:
                timestamps.extend(compress(channel.timestamps, usable))
                values.extend(compress(channel.values, usable))
            else:  # every reading usable: a copy of the columns
                timestamps.extend(channel.timestamps)
                values.extend(channel.values)

    def trim(self, t: int) -> None:
        """Drop the readings no update at ``t`` or later reads: those before
        each AQI window, and those before each thermal input's latest reading
        stamped before ``t``. The last reading before each cut stays, so that
        a station's indexes appear at the same grid points as untrimmed."""
        for series in self._series.values():
            for q, (ts, vs) in series.items():
                cut = bisect_left(ts, t - _REACH_S[q]) - 1
                if cut > 0:
                    del ts[:cut]
                    del vs[:cut]

    def update(self, t: int) -> list[IndexValue]:
        """Recompute every index from the readings stamped before ``t``: the
        AQI windows end at ``t`` (exclusive), and the thermal index takes
        each input's latest reading stamped before ``t``."""
        out: list[IndexValue] = []
        for station in sorted(self._series):
            series = self._series[station]
            for q, window_s, index in _AQI:
                ts, vs = series.get(q, _NO_SERIES)
                end = bisect_left(ts, t)
                if end:
                    # as floats once, not once for each of the mean's passes
                    window = vs[bisect_left(ts, t - window_s, 0, end):end].tolist()
                    out.append(index(window, station, t))
            latest = []
            for q in _TCI_INPUTS:
                ts, vs = series.get(q, _NO_SERIES)
                i = bisect_left(ts, t)
                if i == 0:
                    break
                latest.append(vs[i - 1])
            else:
                out.append(tci(*latest, station, t))
        return out


def compute_indexes(days: Iterable[Day], period_s: int) -> Iterator[IndexValue]:
    """Every index on a reporting grid of ``period_s``, from the days of
    stored readings (``store.read_days``), in time order.

    The grid holds each multiple of ``period_s`` after the first reading of
    any quantity, through the first multiple after the last one. At each
    grid point ``t`` every index is recomputed from the readings stamped
    before ``t``. Once a day is ingested, the points its readings have
    passed are computed, and so is the first point after its last reading
    if it falls within the day's ``end``. The series are then trimmed to
    what later points read, so what is held does not grow with the days.
    """
    computer = IndexComputer()
    t = after = None  # the next grid point; the first after the last reading
    for channels, first, last, end in days:
        if t is None:
            t = (first // period_s + 1) * period_s
        computer.ingest(channels)
        del channels  # held as series now, so the next day's load can reuse its memory
        after = (last // period_s + 1) * period_s  # on the grid, whatever follows
        while t <= (after if after <= end else last):  # each reading stamped before t is in
            yield from computer.update(t)
            t += period_s
        computer.trim(t)
    if t is not None and t <= after:
        yield from computer.update(t)


def index_record_line(iv: IndexValue) -> str:
    """Line format: kind,station,window-end ISO-8601,value,color"""
    return f"{iv.kind.value},{iv.station_id},{format_utc(iv.window_end)},{iv.value!r},{iv.color.value}"
