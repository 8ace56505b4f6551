"""Core value types shared across the sensing pipeline: quantities with
their units and physical ranges, WGS84 positions, measurements and their
one record order, node ticks, node descriptors, and report batches.

Everything in this module is a value that is not changed once built;
instances can be shared freely between concurrent contexts.
"""

from __future__ import annotations

import calendar
import math
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from operator import attrgetter
from typing import Sequence


class Quantity(str, Enum):
    """Measured environmental quantities. The string value doubles as the
    wire/file code, so it must never change once data has been written."""

    TEMPERATURE = "temperature"
    RELATIVE_HUMIDITY = "relative_humidity"
    DEW_POINT = "dew_point"
    WIND_SPEED = "wind_speed"
    RADIANT_TEMPERATURE = "radiant_temperature"
    PM25 = "pm25"
    HC = "hc"
    CO2 = "co2"
    CO = "co"
    O3 = "o3"
    PRESSURE = "pressure"
    SOLAR_RADIATION = "solar_radiation"
    RAIN = "rain"


# Quantity -> its file code. A dict lookup costs a fraction of the
# ``.value`` descriptor call, which matters where it runs once per record.
QUANTITY_CODES: dict[Quantity, str] = {q: q.value for q in Quantity}

# Single source of truth for units. Total over Quantity (tested).
UNITS: dict[Quantity, str] = {
    Quantity.TEMPERATURE: "degC",
    Quantity.RELATIVE_HUMIDITY: "%",
    Quantity.DEW_POINT: "degC",
    Quantity.WIND_SPEED: "m/s",
    Quantity.RADIANT_TEMPERATURE: "degC",
    Quantity.PM25: "ug/m3",
    Quantity.HC: "ppmV",
    Quantity.CO2: "ppmV",
    Quantity.CO: "mg/m3",
    Quantity.O3: "ug/m3",
    Quantity.PRESSURE: "hPa",
    Quantity.SOLAR_RADIATION: "W/m2",
    Quantity.RAIN: "mm",
}

# Single source of truth for the physical range [low, high] of each quantity:
# the synthetic field and the sensor chain clamp to it, and
# ``validate_value`` checks it. Total over Quantity (tested).
_UNBOUNDED = (-math.inf, math.inf)
_NON_NEGATIVE = (0.0, math.inf)
VALUE_RANGE: dict[Quantity, tuple[float, float]] = {
    Quantity.TEMPERATURE: _UNBOUNDED,
    Quantity.RELATIVE_HUMIDITY: (0.0, 100.0),
    Quantity.DEW_POINT: _UNBOUNDED,
    Quantity.WIND_SPEED: _NON_NEGATIVE,
    Quantity.RADIANT_TEMPERATURE: _UNBOUNDED,
    Quantity.PM25: _NON_NEGATIVE,
    Quantity.HC: _NON_NEGATIVE,
    Quantity.CO2: _NON_NEGATIVE,
    Quantity.CO: _NON_NEGATIVE,
    Quantity.O3: _NON_NEGATIVE,
    Quantity.PRESSURE: _UNBOUNDED,
    Quantity.SOLAR_RADIATION: _UNBOUNDED,
    Quantity.RAIN: _UNBOUNDED,
}

# Channels served by the NDIR multi-gas sensor: slow warm-up, detection
# limit, and 1 ppm quantization all apply to these three.
GAS_QUANTITIES: frozenset[Quantity] = frozenset(
    {Quantity.HC, Quantity.CO2, Quantity.CO}
)


# CO readings are stored in mg/m3 while the sensor datasheet expresses its
# detection limit and resolution in ppm. The conversion is fixed at 25 degC
# and 1013 hPa; both functions below use the ideal-gas molar volume at that
# reference state.
CO_MOLAR_MASS_G_PER_MOL = 28.010
_GAS_CONSTANT = 8.314462618  # J/(mol K)
_REFERENCE_TEMPERATURE_K = 298.15
_REFERENCE_PRESSURE_PA = 101300.0
_MOLAR_VOLUME_L_PER_MOL = (
    1000.0 * _GAS_CONSTANT * _REFERENCE_TEMPERATURE_K / _REFERENCE_PRESSURE_PA
)


def co_ppm_to_mg_m3(ppm: float) -> float:
    """Convert a CO mixing ratio (ppmV) to mg/m3 at 25 degC, 1013 hPa."""
    return ppm * CO_MOLAR_MASS_G_PER_MOL / _MOLAR_VOLUME_L_PER_MOL


class Flag(str, Enum):
    """Quality flags carried by a measurement."""

    BELOW_LOD = "below_lod"
    WARMING_UP = "warming_up"
    QUANTIZED = "quantized"


# Flags that keep a stored reading out of index windows, means and PMFs:
# below-LoD readings are zero-clamped placeholders, warm-up ones untrusted.
EXCLUDED_FLAGS = frozenset({Flag.BELOW_LOD, Flag.WARMING_UP})


# Every flag set, indexed by its one-byte code: bit i of a code stands for
# the i-th ``Flag``. A reading's set travels as its code, from the sensor
# chain's ticks to the stored channels.
FLAG_SETS = tuple(frozenset(f for i, f in enumerate(Flag) if code >> i & 1)
                  for code in range(1 << len(Flag)))
FLAG_CODES = {flags: code for code, flags in enumerate(FLAG_SETS)}
# Flag code -> 1 where its set is free of ``EXCLUDED_FLAGS``, else 0.
_USABLE = bytes(EXCLUDED_FLAGS.isdisjoint(flags) for flags in FLAG_SETS).ljust(256, b"\0")


def usable_mask(codes: bytes | bytearray) -> bytes:
    """Per reading of a column of flag codes (``FLAG_SETS``), 1 where its set
    is free of ``EXCLUDED_FLAGS``, else 0."""
    return codes.translate(_USABLE)


class NodeKind(str, Enum):
    FIXED = "fixed"
    MOBILE = "mobile"
    COORDINATOR = "coordinator"
    WEATHER_STATION = "weather_station"


class Radio(str, Enum):
    SHORT_RANGE_FIXED = "short_range_fixed"
    SHORT_RANGE_MOBILE = "short_range_mobile"
    WIDE_AREA = "wide_area"


class ConfigError(ValueError):
    """The scenario references something that does not resolve, or makes
    a reading overflow the sensor chain."""


class ValidationError(ValueError):
    """A value failed a domain invariant. Carries the offending field."""

    def __init__(self, field_name: str, reason: str):
        self.field_name = field_name
        self.reason = reason
        super().__init__(f"{field_name}: {reason}")


EARTH_RADIUS_M = 6371000.0


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """A WGS84 position in decimal degrees."""

    lat: float
    lon: float

    def __post_init__(self):
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise ValidationError("position", "coordinates must be finite")
        if not -90.0 <= self.lat <= 90.0:
            raise ValidationError("position", f"latitude {self.lat} out of range")
        if not -180.0 <= self.lon <= 180.0:
            raise ValidationError("position", f"longitude {self.lon} out of range")


def haversine_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in meters on a spherical earth (R = 6371 km).

    Symmetric, non-negative, and zero iff ``a == b``. At city scale the
    spherical approximation is well below sensor-placement uncertainty.
    """
    phi1, phi2 = math.radians(a.lat), math.radians(b.lat)
    dphi = phi2 - phi1
    dlmb = math.radians(b.lon - a.lon)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlmb / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


class SiteGrid:
    """Bentley and Friedman's fixed grid over ``sites``, (id, position) pairs.
    ``near(p)`` is the subsequence of ``sites`` holding every site within
    ``radius_m`` of ``p`` by ``haversine_distance``: cells are ``radius_m``
    tall (|dphi| <= d / R) and wide at the band's highest latitude, inflated
    so rounding only adds sites, and a site is filed under its cell's 3x3
    block. It is every site for a radius of 0 or not finite, a band reaching
    a pole, or cells touching the antimeridian."""

    def __init__(self, sites: Sequence[tuple[str, GeoPoint]], radius_m: float):
        self.sites = tuple(sites)
        self._cells: dict[tuple[int, int], list[tuple[str, GeoPoint]]] | None = None
        if 0.0 < radius_m < math.inf and self.sites:
            self._dlat = math.degrees(radius_m / EARTH_RADIUS_M) * (1.0 + 1e-6) + 1e-9
            top = min(90.0, max(abs(p.lat) for _, p in self.sites) + self._dlat)  # 90: too wide
            half = math.sin(radius_m / (2.0 * EARTH_RADIUS_M)) / math.cos(math.radians(top))
            self._dlon = math.degrees(2.0 * math.asin(min(1.0, half))) * (1.0 + 1e-6) + 1e-9
            if max(abs(p.lon) for _, p in self.sites) + self._dlon < 180.0:
                self._cells = {}
                for site in self.sites:
                    i, j = self._cell(site[1])
                    for key in [(i + di, j + dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)]:
                        self._cells.setdefault(key, []).append(site)

    def _cell(self, p: GeoPoint) -> tuple[int, int]:
        return math.floor(p.lat / self._dlat), math.floor(p.lon / self._dlon)

    def near(self, p: GeoPoint) -> Sequence[tuple[str, GeoPoint]]:
        return self.sites if self._cells is None else self._cells.get(self._cell(p), ())


UTC_FORMAT = "%Y-%m-%dT%H:%M:%SZ"
SECONDS_PER_DAY = 86400
LAST_STAMP = 253402300799  # 9999-12-31T23:59:59Z, the last second UTC_FORMAT writes

# Epoch second -> its ``UTC_FORMAT`` text. A run formats each of a few
# hundred or thousand distinct stamps hundreds of times. A pure cache:
# cleared when full, so it stays small however many stamps a process formats.
_STAMPS: dict[int, str] = {}
_MAX_STAMPS = 16384


def format_utc(ts: int) -> str:
    """Render epoch seconds as ``YYYY-MM-DDTHH:MM:SSZ`` (UTC).

    Equal to ``datetime.fromtimestamp(ts, timezone.utc).strftime(UTC_FORMAT)``
    with the year written in four digits (the C library's ``%Y`` writes the
    year 999 as ``999``), which runs once per distinct stamp held in the cache.
    """
    stamp = _STAMPS.get(ts)
    if stamp is None:
        if len(_STAMPS) >= _MAX_STAMPS:
            _STAMPS.clear()
        moment = datetime.fromtimestamp(ts, tz=timezone.utc)
        stamp = _STAMPS[ts] = moment.strftime(UTC_FORMAT.replace("%Y", f"{moment.year:04d}"))
    return stamp


def parse_utc(text: str) -> int:
    """Inverse of :func:`format_utc`. Raises ValueError, naming ``text`` by
    its repr, on anything ``format_utc`` does not write: what ``strptime``
    rejects for ``UTC_FORMAT``, and what it accepts beyond it (a space-padded
    field, non-ASCII digits). The fields are read by position, loosely, and
    only a text that ``format_utc`` writes back unchanged is taken."""
    try:
        ts = calendar.timegm((int(text[:4]), int(text[5:7]), int(text[8:10]),
                              int(text[11:13]), int(text[14:16]), int(text[17:19])))
        if format_utc(ts) == text:
            return ts
    except (ValueError, OverflowError, OSError):  # a field, or a year, out of range
        pass
    raise ValueError(f"timestamp {text!r} is not {UTC_FORMAT}")


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean of a non-empty sequence of finite values; finite too.

    The deviations from the smallest value are summed exactly with
    ``math.fsum``, so the result does not depend on the order of ``values``,
    and a sequence holding one repeated value has exactly that value as its
    mean (``fsum(values) / len(values)`` can miss it by an ulp). Where the
    deviations could overflow, each value is divided by the count first.
    """
    lo, n = min(values), len(values)
    if (max(values) - lo) * n < math.inf:
        return lo + math.fsum(v - lo for v in values) / n
    return math.fsum(v / n for v in values)


@dataclass(frozen=True, slots=True)
class Measurement:
    """One geo-referenced, timestamped sensor reading.

    ``timestamp`` is integer seconds since the Unix epoch (UTC); the 5-minute
    sampling cadence makes sub-second resolution pointless.
    """

    node_id: str
    timestamp: int
    position: GeoPoint
    quantity: Quantity
    value: float
    flags: frozenset[Flag] = field(default_factory=frozenset)


def validate_value(quantity: Quantity, value: float) -> float:
    """Return ``value`` unchanged iff it is finite and in ``VALUE_RANGE[quantity]``."""
    if not math.isfinite(value):
        raise ValidationError("value", f"not finite: {value!r}")
    low, high = VALUE_RANGE[quantity]
    if not low <= value <= high:
        raise ValidationError("value", f"{quantity.value} {value} outside [{low:g}, {high:g}]")
    return value


# A record's sort key: (timestamp, node_id, quantity code). It is the one
# order of records: the store's day files and every coordinator batch.
RecordKey = tuple[int, str, str]


@dataclass(slots=True)
class NodeTick:
    """One node's readings at one stamp and position, as parallel columns;
    ``len`` counts them. ``quantities`` rises in code order, and one tuple
    is shared by every tick of a node. ``flags`` holds each reading's
    one-byte flag code (``FLAG_SETS``)."""

    node_id: str
    timestamp: int
    position: GeoPoint
    quantities: tuple[Quantity, ...]
    values: list[float]
    flags: bytes

    def __len__(self) -> int:
        return len(self.values)

    def rows(self) -> list[Measurement]:
        """The tick's readings as ``Measurement`` rows, in column order,
        each flag code as its set."""
        return [Measurement(self.node_id, self.timestamp, self.position, q, value, FLAG_SETS[code])
                for q, value, code in zip(self.quantities, self.values, self.flags)]


# A tick's sort key: ticks in this order give their records in RecordKey order.
tick_key = attrgetter("timestamp", "node_id")


# Sensor suites allowed per node kind, mirroring the deployed hardware:
# wind/rain/radiation instruments never ride on a bicycle node, particulate
# and radiant-temperature sensors are fixed-site only.
_MOBILE_QUANTITIES = frozenset(
    {
        Quantity.TEMPERATURE,
        Quantity.RELATIVE_HUMIDITY,
        Quantity.DEW_POINT,
        Quantity.HC,
        Quantity.CO2,
        Quantity.CO,
        Quantity.O3,
        Quantity.PRESSURE,
    }
)
_FIXED_QUANTITIES = _MOBILE_QUANTITIES | frozenset(
    {Quantity.WIND_SPEED, Quantity.PM25, Quantity.RADIANT_TEMPERATURE}
)
_WEATHER_QUANTITIES = frozenset(
    {
        Quantity.TEMPERATURE,
        Quantity.RELATIVE_HUMIDITY,
        Quantity.DEW_POINT,
        Quantity.WIND_SPEED,
        Quantity.RAIN,
        Quantity.SOLAR_RADIATION,
        Quantity.PRESSURE,
    }
)

ALLOWED_QUANTITIES: dict[NodeKind, frozenset[Quantity]] = {
    NodeKind.FIXED: _FIXED_QUANTITIES,
    NodeKind.MOBILE: _MOBILE_QUANTITIES,
    NodeKind.COORDINATOR: _FIXED_QUANTITIES,
    NodeKind.WEATHER_STATION: _WEATHER_QUANTITIES,
}

# Node identifiers, as the store's record format and the per-station output
# file names need them.
NODE_ID = re.compile(r"[A-Za-z0-9_-]+")


def validate_node_id(node_id: str) -> str:
    """Return ``node_id`` unchanged iff it is a whole match of ``NODE_ID``."""
    if not NODE_ID.fullmatch(node_id):
        raise ValidationError("node_id", f"bad identifier {node_id!r}")
    return node_id


@dataclass(frozen=True)
class NodeDescriptor:
    """Identity and capabilities of one network node."""

    node_id: str
    kind: NodeKind
    sensor_suite: frozenset[Quantity]
    home_position: GeoPoint | None = None

    def __post_init__(self):
        validate_node_id(self.node_id)
        forbidden = self.sensor_suite - ALLOWED_QUANTITIES[self.kind]
        if forbidden:
            raise ValidationError(
                "sensor_suite",
                f"{sorted(q.value for q in forbidden)} not allowed on a {self.kind.value} node",
            )
        if self.kind is NodeKind.MOBILE:
            if self.home_position is not None:
                raise ValidationError("home_position", "mobile nodes have no home position")
        elif self.home_position is None:
            raise ValidationError(
                "home_position", f"{self.kind.value} node {self.node_id} needs one"
            )


@dataclass(frozen=True)
class ReportBatch:
    """The node ticks a coordinator uplinks in one reporting slot."""

    coordinator_id: str
    uplink_time: int
    ticks: tuple[NodeTick, ...]

    def __post_init__(self):
        for tick in self.ticks:
            if tick.timestamp > self.uplink_time:
                raise ValidationError("ticks", f"timestamp {tick.timestamp} "
                                      f"after uplink time {self.uplink_time}")

    @property
    def measurements(self) -> tuple[Measurement, ...]:
        """The batch's readings as rows, in order, built on each access."""
        return tuple(m for tick in self.ticks for m in tick.rows())
