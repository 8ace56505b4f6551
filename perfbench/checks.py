"""Checks of every output the four benchmark steps write.

Each check recomputes what it can from the scenario the benchmark generated
and from the stored readings, with code of its own (units, sensor datasheet
figures, haversine, band tables, the apparent-temperature formula), or
tests a property the method must have. Nothing here compares against a
stored copy or digest of a previous run. The README derives every
tolerance used below.

Every ``check_*`` function returns a list of problems; an empty list means
the output passed.
"""

from __future__ import annotations

import calendar
import json
import math
import re
import time
from bisect import bisect_left
from pathlib import Path

# ---------------------------------------------------------------------------
# Reference tables, written out independently of the program

UNITS = {
    "temperature": "degC", "relative_humidity": "%", "dew_point": "degC",
    "wind_speed": "m/s", "radiant_temperature": "degC", "pm25": "ug/m3",
    "hc": "ppmV", "co2": "ppmV", "co": "mg/m3", "o3": "ug/m3",
    "pressure": "hPa", "solar_radiation": "W/m2", "rain": "mm",
}
NON_NEGATIVE = {"pm25", "hc", "co2", "co", "o3", "wind_speed"}
FLAGS = {"below_lod", "warming_up", "quantized"}
EXCLUDED_FLAGS = {"below_lod", "warming_up"}
OUTCOMES = {"delivered_to_coordinator", "delivered_to_server", "lost"}

# NDIR multi-gas sensor datasheet: 900 s warm-up, 90 s t90, 5 ppm LoD and
# 1 ppm resolution (CO2: 10 ppm LoD); every other channel has t90 90 s and
# no warm-up, LoD or quantisation. CO is stored in mg/m3 at 25 degC and
# 1013 hPa, where one mole of gas fills R*T/P litres.
_MOLAR_VOLUME_L = 1000.0 * 8.314462618 * 298.15 / 101300.0
CO_MG_M3_PER_PPM = 28.010 / _MOLAR_VOLUME_L
SENSOR_T90_S = 90.0
GAS_WARMUP_S = 900.0
DATASHEET = {  # quantity -> (lod, resolution) in the storage unit
    "hc": (5.0, 1.0),
    "co2": (10.0, 1.0),
    "co": (5.0 * CO_MG_M3_PER_PPM, CO_MG_M3_PER_PPM),
}

# Left-closed colour bands.
O3_BANDS = ((-math.inf, 100.0, "green"), (100.0, 180.0, "yellow"),
            (180.0, 240.0, "orange"), (240.0, math.inf, "red"))
PM_BANDS = ((-math.inf, 10.0, "green"), (10.0, 25.0, "yellow"),
            (25.0, 60.0, "orange"), (60.0, math.inf, "red"))
TCI_BANDS = ((-13.0, 0.0, "dark_blue"), (0.0, 9.0, "blue"), (9.0, 26.0, "green"),
             (26.0, 32.0, "orange"), (32.0, 38.0, "red"), (38.0, 46.0, "dark_red"))
BANDS = {"aqi_o3": O3_BANDS, "aqi_pm": PM_BANDS, "tci": TCI_BANDS}
WINDOWS_S = {"aqi_o3": ("o3", 8 * 3600), "aqi_pm": ("pm25", 24 * 3600)}
TCI_INPUTS = ("temperature", "radiant_temperature", "wind_speed", "relative_humidity")

EARTH_RADIUS_M = 6371000.0
ASSOCIATION_RADIUS_M = 500.0
PMF_BINS = 30

REL_TOL = 1e-9  # recomputed means and indexes
SIGMA_READING = 6.0  # per-reading residual bound, in noise sigmas
SIGMA_MEAN = 5.0  # per-quantity mean residual bound, in standard errors
SIGMA_LOSS = 5.0  # lost share, in binomial standard deviations
MOBILE_OFF_ROUTE_M = 1.0

_ISO = "%Y-%m-%dT%H:%M:%SZ"
_RECORD = re.compile(
    r"(\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ),([A-Za-z0-9_-]+),([^,]+),([^,]+),"
    r"([a-z0-9_]+),([^,]+),([^,]+),([a-z_;]*)"
)
_DAY_FILE = re.compile(r"measurements-(\d{4}-\d\d-\d\d)\.txt")
MAX_REPORTED = 8


class Problems(list):
    """Problem messages; keeps the first few and counts the rest."""

    def __init__(self):
        super().__init__()
        self.dropped = 0

    def add(self, msg: str) -> None:
        if len(self) < MAX_REPORTED:
            self.append(msg)
        else:
            self.dropped += 1

    def summary(self) -> list[str]:
        return list(self) + ([f"... and {self.dropped} more"] if self.dropped else [])


_epoch_cache: dict[str, int] = {}


def epoch(text: str) -> int:
    t = _epoch_cache.get(text)
    if t is None:
        t = _epoch_cache[text] = calendar.timegm(time.strptime(text, _ISO))
    return t


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    p1, p2 = math.radians(lat1), math.radians(lat2)
    h = (math.sin((p2 - p1) / 2.0) ** 2
         + math.cos(p1) * math.cos(p2) * math.sin(math.radians(lon2 - lon1) / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def _shortest_float(text: str) -> float | None:
    """The value of ``text`` if it is the shortest round-trip form, else None."""
    try:
        v = float(text)
    except ValueError:
        return None
    return v if repr(v) == text else None


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def half_unit(x: float, figures: int = 3) -> float:
    """Half a unit in the last of ``figures`` significant figures of ``x``."""
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - figures + 1) if x else 0.0


def classify(value: float, bands) -> str:
    for lower, upper, color in bands:
        if lower <= value < upper:
            return color
    return "unknown"


def apparent_temperature(air: float, radiant: float, wind: float, rh: float) -> float:
    """Operative temperature (radiant weight falling with wind) plus the
    apparent-temperature vapour-pressure and wind terms."""
    if wind < 0.2:
        w = 0.5
    elif wind < 0.6:
        w = 0.4
    elif wind < 1.0:
        w = 0.3
    else:
        w = 0.2
    vapour_hpa = rh / 100.0 * 6.105 * math.exp(17.27 * air / (237.7 + air))
    return (1.0 - w) * air + w * radiant + 0.33 * vapour_hpa - 0.70 * wind - 4.00


# ---------------------------------------------------------------------------
# Scenario facts the checks need


class Scenario:
    """The generated scenario document, reduced to what the checks use."""

    def __init__(self, doc: dict):
        field = doc["field"]
        if field.get("plumes") or field.get("traffic_coupling"):
            raise ValueError("truth checks need a field without plumes or traffic coupling")
        if any(n.get("bias") for n in doc["nodes"]):
            raise ValueError("truth checks need nodes without bias hooks")
        self.start = epoch(doc["start_time"])
        self.duration = int(doc["duration_s"])
        self.period = int(doc.get("sample_period_s", 300))
        self.uplink_period = int(doc.get("uplink_period_s", 900))
        self.baseline = {q: float(v) for q, v in field["baseline"].items()}
        self.amplitude = {q: float(v) for q, v in (field.get("diurnal_amplitude") or {}).items()}
        self.sigma = {q: float(v) for q, v in (field.get("noise_sigma") or {}).items()}
        self.nodes = {str(n["id"]): n for n in doc["nodes"]}
        self.paths = doc["paths"]
        self.loss = {radio: float(cfg.get("loss_prob", 0.0)) for radio, cfg in doc["links"].items()}
        overrides = doc.get("sensors") or {}
        self.lod, self.resolution, self.warmup = {}, {}, {}
        for q in UNITS:
            lod, res = DATASHEET.get(q, (0.0, 0.0))
            self.lod[q] = float((overrides.get(q) or {}).get("lod", lod))
            self.resolution[q] = float((overrides.get(q) or {}).get("resolution", res))
            self.warmup[q] = float((overrides.get(q) or {}).get(
                "warmup_s", GAS_WARMUP_S if q in DATASHEET else 0.0))
            if "t90_s" in (overrides.get(q) or {}):
                raise ValueError("truth checks assume the datasheet t90")

    def truth(self, q: str, t: int) -> float:
        v = self.baseline[q]
        amp = self.amplitude.get(q, 0.0)
        if amp:
            v += amp * math.sin(2.0 * math.pi * (t % 86400 - 6 * 3600.0) / 86400.0)
        if q in NON_NEGATIVE:
            v = max(0.0, v)
        elif q == "relative_humidity":
            v = min(100.0, max(0.0, v))
        return v

    def tolerances(self, q: str) -> tuple[float, float]:
        """(per-reading bound excluding the noise term, lag part of the mean bound)."""
        f = 10.0 ** (-self.period / SENSOR_T90_S)
        step = abs(self.amplitude.get(q, 0.0)) * 2.0 * math.pi * self.period / 86400.0
        lag = f * step / (1.0 - f)
        return lag + self.resolution[q] / 2.0, lag


# ---------------------------------------------------------------------------
# simulate

# Record tuple fields.
TS, NODE, LAT, LON, QTY, VALUE, FLAGS_FIELD = range(7)


def read_store(sim_dir: Path, p: Problems) -> list[tuple]:
    """Parse the day files by the README grammar; report order, duplicate,
    unit and partition faults."""
    records: list[tuple] = []
    seen: set[tuple] = set()
    files = sorted(sim_dir.glob("measurements-*.txt"))
    if not files:
        p.add(f"no day files in {sim_dir}")
    for f in files:
        m = _DAY_FILE.fullmatch(f.name)
        if not m:
            p.add(f"{f.name}: bad day-file name")
            continue
        day = m.group(1)
        prev_key = None
        for lineno, line in enumerate(f.read_text().splitlines(), 1):
            where = f"{f.name}:{lineno}"
            r = _RECORD.fullmatch(line)
            if not r:
                p.add(f"{where}: does not match the record grammar: {line!r}")
                continue
            ts_text, node, lat_t, lon_t, q, value_t, unit, flags_t = r.groups()
            lat, lon, value = (_shortest_float(x) for x in (lat_t, lon_t, value_t))
            if lat is None or lon is None or value is None:
                p.add(f"{where}: number not in shortest round-trip form")
                continue
            if q not in UNITS:
                p.add(f"{where}: unknown quantity {q}")
                continue
            if unit != UNITS[q]:
                p.add(f"{where}: unit {unit} does not match {q}")
            flags = tuple(flags_t.split(";")) if flags_t else ()
            if list(flags) != sorted(set(flags)) or not set(flags) <= FLAGS:
                p.add(f"{where}: flags {flags_t!r} not sorted, unique and known")
            if not ts_text.startswith(day):
                p.add(f"{where}: timestamp {ts_text} outside the file's day")
            ts = epoch(ts_text)
            key = (ts, node, q)
            if prev_key is not None and key <= prev_key:
                p.add(f"{where}: not sorted by (timestamp, node, quantity) or duplicate")
            prev_key = key
            if key in seen:
                p.add(f"{where}: duplicate (timestamp, node, quantity)")
            seen.add(key)
            records.append((ts, node, lat, lon, q, value, frozenset(flags)))
    return records


def _dist_to_segment_m(lat, lon, a, b) -> float:
    # Equirectangular projection around the point; exact enough for
    # segments of a few kilometres and a 1 m bound.
    kx = math.radians(1.0) * EARTH_RADIUS_M * math.cos(math.radians(lat))
    ky = math.radians(1.0) * EARTH_RADIUS_M
    ax, ay = (a[1] - lon) * kx, (a[0] - lat) * ky
    bx, by = (b[1] - lon) * kx, (b[0] - lat) * ky
    dx, dy = bx - ax, by - ay
    seg2 = dx * dx + dy * dy
    u = 0.0 if seg2 == 0.0 else min(1.0, max(0.0, -(ax * dx + ay * dy) / seg2))
    return math.hypot(ax + u * dx, ay + u * dy)


def _check_delivery_log(scn: Scenario, sim_dir: Path, stored: set, p: Problems) -> None:
    path = sim_dir / "delivery-log.txt"
    if not path.is_file():
        p.add("delivery-log.txt missing")
        return
    lines = path.read_text().splitlines()
    ticks = scn.duration // scn.period
    expected = sum(len(n.get("quantities") or []) for n in scn.nodes.values()) * ticks
    if len(lines) != expected:
        p.add(f"delivery log has {len(lines)} lines, expected {expected} "
              f"(suite sizes x {ticks} samples)")
    delivered: set[tuple] = set()
    emitted: set[tuple] = set()
    lost = 0
    lost_mean = lost_var = 0.0
    for lineno, line in enumerate(lines, 1):
        where = f"delivery-log.txt:{lineno}"
        parts = line.split(",")
        if len(parts) != 6:
            p.add(f"{where}: expected 6 fields: {line!r}")
            continue
        ts_text, node, q, outcome, link, arrival = parts
        try:
            ts = epoch(ts_text)
        except ValueError:
            p.add(f"{where}: bad timestamp {ts_text!r}")
            continue
        key = (ts, node, q)
        if key in emitted:
            p.add(f"{where}: measurement logged twice")
        emitted.add(key)
        n = scn.nodes.get(node)
        if n is None or q not in (n.get("quantities") or []):
            p.add(f"{where}: {node} does not sense {q}")
        if outcome not in OUTCOMES:
            p.add(f"{where}: outcome {outcome!r} is neither delivered nor lost")
            continue
        if link:
            if link not in scn.loss:
                p.add(f"{where}: unknown link {link!r}")
                continue
            lp = scn.loss[link]
            lost_mean += lp
            lost_var += lp * (1.0 - lp)
        elif n is None or n["kind"] != "coordinator":
            p.add(f"{where}: only the coordinator's own readings travel without a link")
        if outcome == "lost":
            lost += 1
            if arrival:
                p.add(f"{where}: a lost message has an arrival time")
        else:
            try:
                if epoch(arrival) < ts:
                    p.add(f"{where}: arrives before it was emitted")
            except ValueError:
                p.add(f"{where}: bad arrival time {arrival!r}")
            delivered.add(key)
    if len(stored) != len(delivered):
        p.add(f"{len(stored)} stored records but {len(delivered)} delivered log lines")
    elif stored != delivered:
        p.add("stored records are not the delivered log lines")
    bound = SIGMA_LOSS * math.sqrt(lost_var)
    if abs(lost - lost_mean) > bound + 1e-9:
        p.add(f"{lost} lost, expected {lost_mean:.1f} +- {bound:.1f} from the link loss probabilities")


def _check_nodes_json(scn: Scenario, sim_dir: Path, p: Problems) -> None:
    try:
        doc = json.loads((sim_dir / "nodes.json").read_text())
    except (OSError, ValueError) as e:
        p.add(f"nodes.json unreadable: {e}")
        return
    if set(doc) != set(scn.nodes):
        p.add("nodes.json does not list exactly the scenario's nodes")
        return
    for nid, n in scn.nodes.items():
        mobile = n["kind"] == "mobile"
        want = {
            "kind": n["kind"],
            "lat": None if mobile else n["lat"],
            "lon": None if mobile else n["lon"],
            "path": n.get("path"),
            "quantities": sorted(n.get("quantities") or []),
        }
        got = {k: doc[nid].get(k) for k in want}
        if got != want:
            p.add(f"nodes.json entry {nid}: {got} != {want}")


def check_simulate(scn: Scenario, sim_dir: Path) -> tuple[list[str], list[tuple]]:
    """Day files, delivery log and nodes.json of ``citysense simulate``.
    Returns the problems and the parsed records for the later checks."""
    p = Problems()
    records = read_store(sim_dir, p)
    stored = {(r[TS], r[NODE], r[QTY]) for r in records}
    _check_delivery_log(scn, sim_dir, stored, p)
    _check_nodes_json(scn, sim_dir, p)

    end = scn.start + scn.duration
    tol = {q: scn.tolerances(q) for q in UNITS}
    residual_sum: dict[str, list[float]] = {}
    for r in records:
        ts, node, lat, lon, q, value, flags = r
        n = scn.nodes.get(node)
        where = f"{node} {q} @{ts}"
        if n is None or q not in (n.get("quantities") or []):
            p.add(f"{where}: node does not sense this quantity")
            continue
        if not scn.start <= ts < end or (ts - scn.start) % scn.period:
            p.add(f"{where}: timestamp off the sampling grid")
        if n["kind"] == "mobile":
            route = scn.paths[n["route"]]
            d = min(_dist_to_segment_m(lat, lon, a, b) for a, b in zip(route, route[1:]))
            if d > MOBILE_OFF_ROUTE_M:
                p.add(f"{where}: mobile position {d:.2f} m off its route")
        elif lat != n["lat"] or lon != n["lon"]:
            p.add(f"{where}: position ({lat}, {lon}) is not the configured one")
        if ("warming_up" in flags) != (ts - scn.start < scn.warmup[q]):
            p.add(f"{where}: warming_up flag disagrees with the {scn.warmup[q]:.0f} s warm-up")
        if "below_lod" in flags and (value != 0.0 or scn.lod[q] == 0.0):
            p.add(f"{where}: below_lod flag on {value} with detection limit {scn.lod[q]}")
        res = scn.resolution[q]
        if res > 0.0 and abs(value / res - round(value / res)) > 1e-6:
            p.add(f"{where}: {value} is not a multiple of the resolution {res}")
        if flags & EXCLUDED_FLAGS:
            continue
        truth = scn.truth(q, ts)
        err = value - truth
        bound = SIGMA_READING * scn.sigma.get(q, 0.0) + tol[q][0] + 1e-9 * (1.0 + abs(truth))
        if abs(err) > bound:
            p.add(f"{where}: {value} is {err:+.4g} from truth {truth:.6g} (bound {bound:.4g})")
        residual_sum.setdefault(q, []).append(err)
    for q, errs in sorted(residual_sum.items()):
        mean = math.fsum(errs) / len(errs)
        bound = (SIGMA_MEAN * scn.sigma.get(q, 0.0) / math.sqrt(len(errs))
                 + tol[q][1] + scn.resolution[q] / 2.0 + 1e-9)
        if abs(mean) > bound:
            p.add(f"{q}: mean residual {mean:+.4g} over {len(errs)} readings exceeds {bound:.4g}")
    return p.summary(), records


# ---------------------------------------------------------------------------
# indexes


def _clean_series(records, quantities) -> dict[tuple[str, str], tuple[list[int], list[float]]]:
    series: dict[tuple[str, str], list[tuple[int, float]]] = {}
    for r in records:
        if r[QTY] in quantities and not (r[FLAGS_FIELD] & EXCLUDED_FLAGS):
            series.setdefault((r[NODE], r[QTY]), []).append((r[TS], r[VALUE]))
    out = {}
    for key, pairs in series.items():
        pairs.sort(key=lambda tv: tv[0])
        out[key] = ([t for t, _ in pairs], [v for _, v in pairs])
    return out


def expected_indexes(scn: Scenario, records: list[tuple]) -> dict[tuple[str, str, int], float]:
    """(kind, station, grid point) -> index value recomputed from the
    stored readings; nan marks an empty window."""
    series = _clean_series(records, {"o3", "pm25", *TCI_INPUTS})
    stations = sorted({s for s, _ in series})
    t_lo = min(r[TS] for r in records)
    t_hi = max(r[TS] for r in records)
    period = scn.uplink_period
    expected: dict[tuple[str, str, int], float] = {}
    # Reporting grid: every uplink boundary after the first stored reading,
    # through the first boundary after the last one.
    for t in range((t_lo // period + 1) * period, t_hi + period + 1, period):
        for s in stations:
            for kind, (q, width) in WINDOWS_S.items():
                if (s, q) not in series:
                    continue
                ts, vs = series[(s, q)]
                hi = bisect_left(ts, t)
                if hi == 0:
                    continue  # no usable reading yet: no line
                lo = bisect_left(ts, t - width)
                window = vs[lo:hi]
                expected[(kind, s, t)] = math.fsum(window) / len(window) if window else math.nan
            latest = []
            for q in TCI_INPUTS:
                ts, vs = series.get((s, q), ((), ()))
                hi = bisect_left(ts, t)
                if hi == 0:
                    break
                latest.append(vs[hi - 1])
            else:
                expected[("tci", s, t)] = apparent_temperature(*latest)
    return expected


def check_indexes(scn: Scenario, records: list[tuple], idx_dir: Path) -> list[str]:
    p = Problems()
    if not records:
        return ["no stored records to recompute indexes from"]
    expected = expected_indexes(scn, records)
    got: dict[tuple[str, str, int], tuple[float, str]] = {}
    for f in sorted(idx_dir.glob("indexes_*.txt")):
        station = f.name[len("indexes_"):-len(".txt")]
        prev_t = None
        for lineno, line in enumerate(f.read_text().splitlines(), 1):
            where = f"{f.name}:{lineno}"
            parts = line.split(",")
            if len(parts) != 5:
                p.add(f"{where}: expected 5 fields: {line!r}")
                continue
            kind, st, ts_text, value_t, color = parts
            if st != station or kind not in BANDS:
                p.add(f"{where}: station or kind wrong: {line!r}")
                continue
            try:
                t, value = epoch(ts_text), float(value_t)
            except ValueError:
                p.add(f"{where}: bad timestamp or value: {line!r}")
                continue
            if prev_t is not None and t < prev_t:
                p.add(f"{where}: grid points out of order")
            prev_t = t
            key = (kind, st, t)
            if key in got:
                p.add(f"{where}: second line for {kind} at {ts_text}")
            got[key] = (value, color)
    missing = expected.keys() - got.keys()
    extra = got.keys() - expected.keys()
    if missing:
        p.add(f"{len(missing)} expected index lines missing, e.g. {sorted(missing)[0]}")
    if extra:
        p.add(f"{len(extra)} unexpected index lines, e.g. {sorted(extra)[0]}")
    for key in sorted(expected.keys() & got.keys()):
        want = expected[key]
        value, color = got[key]
        if math.isnan(want):
            if not (math.isnan(value) and color == "unknown"):
                p.add(f"{key}: empty window must give nan/unknown, got {value}/{color}")
            continue
        if not _close(value, want):
            p.add(f"{key}: value {value!r} but recomputed {want!r}")
        if color != classify(value, BANDS[key[0]]):
            p.add(f"{key}: colour {color} does not band {value!r}")
    return p.summary()


# ---------------------------------------------------------------------------
# compare


def _clean_values(pop) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for r in pop:
        if not (r[FLAGS_FIELD] & EXCLUDED_FLAGS):
            out.setdefault(r[QTY], []).append(r[VALUE])
    return out


def _check_pmf(path: Path, values: list[float], lo: float, hi: float, p: Problems) -> None:
    try:
        rows = [tuple(map(float, line.split(" "))) for line in path.read_text().splitlines()]
    except (OSError, ValueError) as e:
        p.add(f"{path.name}: unreadable: {e}")
        return
    bins = PMF_BINS if hi > lo else 1
    if len(rows) != bins or any(len(r) != 2 for r in rows):
        p.add(f"{path.name}: expected {bins} lines of (centre, probability)")
        return
    centres = [c for c, _ in rows]
    probs = [q for _, q in rows]
    if any(b <= a for a, b in zip(centres, centres[1:])):
        p.add(f"{path.name}: bin centres not ascending")
    if any(not lo <= c <= hi for c in centres):
        p.add(f"{path.name}: bin centre outside the pooled range [{lo}, {hi}]")
    if abs(math.fsum(probs) - 1.0) > 1e-9:
        p.add(f"{path.name}: probabilities sum to {math.fsum(probs)!r}")
    n = len(values)
    if any(q < 0.0 or abs(q * n - round(q * n)) > 1e-6 for q in probs):
        p.add(f"{path.name}: a probability is not a whole count over {n} samples")
    # Every sample sits within half a bin width of its bin's centre.
    width = (hi - lo) / PMF_BINS if hi > lo else 0.0
    pmf_mean = math.fsum(c * q for c, q in rows)
    mean = math.fsum(values) / n
    if abs(pmf_mean - mean) > width / 2.0 + 1e-9 * (1.0 + abs(mean)):
        p.add(f"{path.name}: PMF mean {pmf_mean!r} further than half a bin from {mean!r}")


def _check_report(cmp_dir: Path, pop_a, pop_b, labels: tuple[str, str]) -> list[str]:
    p = Problems()
    try:
        doc = json.loads((cmp_dir / "comparison.json").read_text())
    except (OSError, ValueError) as e:
        return [f"comparison.json unreadable: {e}"]
    la, lb = labels
    if doc.get("labels") != [la, lb]:
        p.add(f"labels {doc.get('labels')} != {[la, lb]}")
    va_by_q, vb_by_q = _clean_values(pop_a), _clean_values(pop_b)
    shared = sorted(va_by_q.keys() & vb_by_q.keys())
    only = sorted(va_by_q.keys() ^ vb_by_q.keys())
    if doc.get("incomparable") != only:
        p.add(f"incomparable {doc.get('incomparable')} != {only}")
    rows = doc.get("rows") or {}
    if sorted(rows) != shared:
        p.add(f"rows {sorted(rows)} != shared quantities {shared}")
    expected_pmfs = set()
    for q in shared:
        row = rows.get(q)
        if row is None:
            continue
        va, vb = va_by_q[q], vb_by_q[q]
        ma, mb = math.fsum(va) / len(va), math.fsum(vb) / len(vb)
        for label, pop, values, mean in ((la, pop_a, va, ma), (lb, pop_b, vb, mb)):
            if row.get(f"n_{label}") != len(values):
                p.add(f"{q}: n_{label} {row.get(f'n_{label}')} != {len(values)} clean readings")
            got = row.get(f"mean_{label}")
            if not _is_number(got) or not _close(got, mean):
                p.add(f"{q}: mean_{label} {got!r} but fsum mean {mean!r}")
            total = sum(1 for r in pop if r[QTY] == q)
            below = sum(1 for r in pop if r[QTY] == q and "below_lod" in r[FLAGS_FIELD])
            rate = row.get(f"below_lod_rate_{label}")
            if not _is_number(rate) or not _close(rate, below / total):
                p.add(f"{q}: below_lod_rate_{label} {rate!r} != {below}/{total}")
        eta = row.get("relative_error")
        if mb != 0.0:
            want = abs(1.0 - ma / mb)
            # Three significant figures: within half a unit of the third
            # digit, plus what means that agree to REL_TOL can move a/b by.
            slack = half_unit(want) + 2.1 * REL_TOL * abs(ma / mb)
            if not _is_number(eta) or abs(eta - want) > slack:
                p.add(f"{q}: relative_error {eta!r} is not |1 - a/b| = {want!r} to 3 figures")
        lo, hi = min(min(va), min(vb)), max(max(va), max(vb))
        for label, values in ((la, va), (lb, vb)):
            name = f"pmf_{q}_{label}.dat"
            expected_pmfs.add(name)
            if not (cmp_dir / name).is_file():
                p.add(f"{name} missing")
                continue
            _check_pmf(cmp_dir / name, values, lo, hi, p)
    present = {f.name for f in cmp_dir.glob("pmf_*.dat")}
    if present != expected_pmfs:
        p.add(f"PMF files differ from the rows: extra {sorted(present - expected_pmfs)}, "
              f"missing {sorted(expected_pmfs - present)}")
    return p.summary()


def check_compare_paths(scn: Scenario, records: list[tuple], cmp_dir: Path) -> list[str]:
    tags: dict[str, set[str]] = {}
    for nid, n in scn.nodes.items():
        if n["kind"] == "fixed" and n.get("path"):
            tags.setdefault(n["path"], set()).add(nid)
    if len(tags) != 2:
        return [f"scenario needs exactly two path tags, has {sorted(tags)}"]
    tag_a, tag_b = sorted(tags)
    pop_a = [r for r in records if r[NODE] in tags[tag_a]]
    pop_b = [r for r in records if r[NODE] in tags[tag_b]]
    return _check_report(cmp_dir, pop_a, pop_b, (tag_a, tag_b))


def associate(scn: Scenario, records: list[tuple], radius_m: float = ASSOCIATION_RADIUS_M):
    """Mobile samples paired with the nearest fixed station within the
    radius (ties to the lower id), and the stations that received any."""
    stations = sorted((nid, n["lat"], n["lon"]) for nid, n in scn.nodes.items()
                      if n["kind"] == "fixed")
    mobile_ids = {nid for nid, n in scn.nodes.items() if n["kind"] == "mobile"}
    pop_a, used = [], set()
    for r in records:
        if r[NODE] not in mobile_ids:
            continue
        best_id, best_d = None, math.inf
        for sid, lat, lon in stations:
            d = haversine_m(r[LAT], r[LON], lat, lon)
            if d < best_d:
                best_id, best_d = sid, d
        if best_id is not None and best_d <= radius_m:
            pop_a.append(r)
            used.add(best_id)
    return pop_a, used


def check_compare_mobile(scn: Scenario, records: list[tuple], cmp_dir: Path) -> list[str]:
    pop_a, used = associate(scn, records)
    pop_b = [r for r in records if r[NODE] in used]
    return _check_report(cmp_dir, pop_a, pop_b, ("mobile", "fixed"))
