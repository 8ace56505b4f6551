"""Command line surface: run scenarios, recompute indexes, compare
populations, evaluate the traffic index.

Exit codes: 0 success, 1 configuration error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import ExitStack
from pathlib import Path as FsPath
from typing import Iterable, Iterator, TextIO

from .analytics import (
    DEFAULT_ASSOCIATION_RADIUS_M,
    NodeRow,
    compare_populations,
    mobile_fixed_populations,
    nodes_compared,
    path_populations,
    write_comparison_report,
)
from .domain import (
    LAST_STAMP, NODE_ID, QUANTITY_CODES, ConfigError, GeoPoint, NodeKind, format_utc,
)
from .indexes import (
    INDEX_INPUTS, IndexColor, IndexKind, IndexValue, compute_indexes, index_record_line,
    traffic_index,
)
from .netsim import DeliveryOutcome, RunSink, Tallies, Tally, run
from .scenario import ScenarioConfig, load_access, load_scenario, with_seed
from .store import (
    Day, DayFiles, MeasurementStore, OutputSet, StorageError, count_readings, read_days,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are configuration errors, not data errors.
    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _radius(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="citysense", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario and persist its outputs")
    p_sim.add_argument("--scenario", required=True, help="scenario YAML path or bundled name")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--seed", type=int, default=None, help="override the scenario seed")

    p_idx = sub.add_parser("indexes", help="recompute index records from stored data")
    p_idx.add_argument("data_dir", help="directory holding measurement files")
    p_idx.add_argument("--out", required=True, help="output directory")
    p_idx.add_argument("--uplink-period-s", type=_positive_int, default=900)

    p_cmp = sub.add_parser("compare", help="compare two measurement populations")
    p_cmp.add_argument("data_dir", help="directory holding measurement files + nodes.json")
    p_cmp.add_argument("--mode", choices=("paths", "mobile-fixed"), required=True)
    p_cmp.add_argument("--out", required=True, help="output directory")
    p_cmp.add_argument(
        "--radius-m", type=_radius, default=DEFAULT_ASSOCIATION_RADIUS_M,
        help="association radius for mobile-fixed mode",
    )

    p_tr = sub.add_parser("traffic", help="evaluate the traffic index for an access")
    p_tr.add_argument("config", help="access configuration YAML")
    return parser


# ---------------------------------------------------------------------------
# simulate


class _LogSink(RunSink):
    """Writes the delivery log as the run routes each node tick, and streams
    the ticks the server receives into the day files, one watermark at a
    time. The log has one line per emitted reading,

        emitted-ts,node_id,quantity,outcome,link,arrival-ts

    with link empty for the coordinator's own readings and arrival-ts empty
    for a lost one."""

    def __init__(self, log: TextIO, days: DayFiles):
        self._write = log.write
        self._days = days

    def tick(self, tick, choice, lost, arrival_t) -> None:
        # The readings share their stamp, node and link, so the line start
        # and each outcome's line end are formatted once, and written in one go.
        head = f"{format_utc(tick.timestamp)},{tick.node_id},"
        link = choice.link.kind.value if choice.link else ""
        end = f",{choice.outcome.value},{link},{format_utc(arrival_t)}\n"
        codes = map(QUANTITY_CODES.__getitem__, tick.quantities)
        if lost is None:
            self._write(f"{head}{(end + head).join(codes)}{end}")
        else:
            lost_end = f",{DeliveryOutcome.LOST.value},{link},\n"
            self._write("".join([f"{head}{code}{lost_end if gone else end}"
                                 for code, gone in zip(codes, lost)]))

    def arrivals(self, t, ticks) -> None:
        self._days.add(ticks)

    def watermark(self, t: int) -> None:
        self._days.write_before(t)


def simulate(cfg: ScenarioConfig, out: str | FsPath) -> tuple[Tallies, int]:
    """Run ``cfg`` and replace the output set under ``out`` with its
    delivery log, day files and ``nodes.json``. Returns the run's tallies
    and the number of readings the server received. A run that fails
    part-way leaves every earlier output as it was."""
    nodes_doc = {
        n.descriptor.node_id: {
            "kind": n.descriptor.kind.value,
            "lat": n.descriptor.home_position.lat if n.descriptor.home_position else None,
            "lon": n.descriptor.home_position.lon if n.descriptor.home_position else None,
            "path": n.path_tag,
            "quantities": sorted(q.value for q in n.descriptor.sensor_suite),
        }
        for n in cfg.nodes
    }
    with OutputSet(out, "measurements-*.txt") as files:
        with files.open("delivery-log.txt") as log, DayFiles(files) as days:
            tallies = run(cfg, _LogSink(log, days))
        with files.open("nodes.json") as f:
            f.write(json.dumps(nodes_doc, indent=2, sort_keys=True) + "\n")
    return tallies, days.written


def _cmd_simulate(args) -> int:
    cfg = load_scenario(args.scenario)
    if args.seed is not None:
        cfg = with_seed(cfg, args.seed)
    tallies, received = simulate(cfg, args.out)

    print(f"scenario {cfg.name!r} seed {cfg.seed}: {cfg.duration_s} s simulated")
    per_node: dict[str, Tally] = {}
    for (node_id, _), t in tallies.items():
        per_node.setdefault(node_id, Tally()).add(t)
    total_emitted = total_undelivered = 0
    for node in cfg.nodes:
        tally = per_node.get(node.descriptor.node_id)
        if tally is None or not tally.emitted:  # no sensors, or no sample ticks
            continue
        total_emitted += tally.emitted
        total_undelivered += tally.lost + tally.dropped
        print(
            f"  {node.descriptor.node_id}: emitted {tally.emitted}, "
            f"to coordinator {tally.to_coordinator}, direct {tally.to_server}, "
            f"lost {tally.lost}, dropped {tally.dropped}"
        )
    rate = total_undelivered / total_emitted if total_emitted else 0.0
    print(f"  server received {received} measurements, "
          f"loss rate {rate:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# indexes


def _write_indexes(
    files: OutputSet, values: Iterable[IndexValue],
) -> dict[tuple[str, IndexKind], IndexColor]:
    """Write ``values`` into one ``indexes_<station>.txt`` per station, each
    line as it comes, every station's file open until the last with a small
    buffer, so that the open files hold little while later days are read.
    Returns the latest color of each (station, index kind)."""
    latest: dict[tuple[str, IndexKind], IndexColor] = {}
    with ExitStack() as stack:
        out: dict[str, TextIO] = {}
        for iv in values:
            if iv.window_end > LAST_STAMP:  # only the grid's last point can be
                raise ValueError(f"the index grid ends {iv.window_end - LAST_STAMP} s "
                                 f"past {format_utc(LAST_STAMP)}")
            f = out.get(iv.station_id)
            if f is None:
                f = out[iv.station_id] = stack.enter_context(
                    files.open(f"indexes_{iv.station_id}.txt", buffer=512))
            f.write(f"{index_record_line(iv)}\n")
            latest[iv.station_id, iv.kind] = iv.color
    return latest


def _handed_on(first: list[Day], rest: Iterator[Day]) -> Iterator[Day]:
    """The day in ``first``, taken out of it, then ``rest``: nothing here
    keeps a day once handed on, so its channels go once they are ingested."""
    yield first.pop()
    yield from rest


def _cmd_indexes(args) -> int:
    try:
        days = read_days(args.data_dir, lambda _, q: q in INDEX_INPUTS)
        first = [next(days, None)]
        if first[0] is None:
            raise ValueError(f"no measurements under {args.data_dir}")
        values = compute_indexes(_handed_on(first, days), args.uplink_period_s)
        with OutputSet(args.out, "indexes_*.txt") as files:
            latest = _write_indexes(files, values)
    except (StorageError, ValueError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    for (station, kind), color in sorted(latest.items()):  # kinds sort as their str values
        print(f"{station} {kind.value}: {color.value}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """A JSON object as a dict; a ValueError if it repeats a key."""
    seen: set[str] = set()
    for key, _ in pairs:
        if key in seen:
            raise ValueError(f"repeated key {key!r}")
        seen.add(key)
    return dict(pairs)


def _load_nodes(data_dir: FsPath) -> dict[str, NodeRow]:
    """Read ``nodes.json`` as node id -> (kind, path tag, home position).
    Raises ValueError, naming the file (and the node at fault, if one is),
    on a file ``simulate`` would not write, such as one repeating a key."""
    nodes_path = data_dir / "nodes.json"
    if not nodes_path.is_file():
        raise StorageError(f"missing {nodes_path}; run `citysense simulate` first")
    try:
        doc = json.loads(nodes_path.read_bytes().decode("utf-8"), object_pairs_hook=_unique_keys)
    except OSError as e:
        raise StorageError(f"cannot read {nodes_path}: {e}") from e
    except ValueError as e:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise ValueError(f"{nodes_path}: {e}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{nodes_path}: expected an object of nodes, got {type(doc).__name__}")
    nodes = {}
    for nid, meta in doc.items():
        where = f"{nodes_path}: node {nid!r}"
        if not isinstance(meta, dict):
            raise ValueError(f"{where}: expected an object, got {type(meta).__name__}")
        try:
            kind = NodeKind(meta.get("kind"))
        except ValueError:
            raise ValueError(f"{where}: unknown kind {meta.get('kind')!r}") from None
        path, lat, lon = meta.get("path"), meta.get("lat"), meta.get("lon")
        if path is not None and not isinstance(path, str):
            raise ValueError(f"{where}: path must be a string or null")
        if path is not None and not NODE_ID.fullmatch(path):  # it names output files
            raise ValueError(f"{where}: path {path!r} does not match {NODE_ID.pattern}")
        position = None
        if kind is NodeKind.FIXED or lat is not None or lon is not None:
            if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (lat, lon)):
                raise ValueError(f"{where}: lat and lon must be numbers")
            try:
                position = GeoPoint(lat, lon)
            except ValueError as e:
                raise ValueError(f"{where}: {e}") from None
        nodes[nid] = (kind, path, position)
    return nodes


def _cmd_compare(args) -> int:
    data_dir = FsPath(args.data_dir)
    try:
        try:
            nodes = _load_nodes(data_dir)
        except (StorageError, ValueError):
            MeasurementStore(data_dir, lambda *_: False)  # a data error in a day file comes first
            raise
        kept = nodes_compared(args.mode, nodes)
        unknown: set[str] = set()  # the node ids of the store that nodes.json lacks

        def keep(node_id: str, _) -> bool:
            if node_id not in nodes:
                unknown.add(node_id)
            return node_id in kept

        store = MeasurementStore(data_dir, keep, timestamps=False)
        if unknown:
            raise ValueError(f"{data_dir / 'nodes.json'} has no entry for {', '.join(sorted(unknown))}")
        if args.mode == "paths":
            pop_a, pop_b, labels = path_populations(store.channels, nodes)
        else:
            pop_a, pop_b, association, unassociated = mobile_fixed_populations(
                store.channels, nodes, args.radius_m)
            labels = ("mobile", "fixed")
            print(f"associated {count_readings(pop_a)} mobile samples to "
                  f"{len(association.by_station)} stations within {args.radius_m:.0f} m "
                  f"({unassociated} unassociated)")
        report = compare_populations(pop_a, pop_b, labels=labels)
    except (StorageError, ValueError) as e:  # NoOverlapError is a ValueError
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA

    write_comparison_report(report, args.out)
    print(f"{'quantity':22s} {'mean_' + labels[0]:>14s} {'mean_' + labels[1]:>14s} {'rel_err':>8s}")
    for row in report.rows:
        print(
            f"{row.quantity.value:22s} {row.mean_a:14.4f} {row.mean_b:14.4f} {row.eta:8.3f}"
        )
    if report.incomparable:
        print("incomparable:", ", ".join(q.value for q in report.incomparable))
    return EXIT_OK


# ---------------------------------------------------------------------------
# traffic


def _cmd_traffic(args) -> int:
    cfg = load_access(args.config)
    k1, k2, k3, k4 = cfg.factors()
    iv = traffic_index(cfg)
    print(f"composition factor  K1 = {k1:.6f}")
    print(f"steepness factor    K2 = {k2:.6f}")
    print(f"localization factor K3 = {k3:.6f}")
    print(f"maneuvering factor  K4 = {k4:.6f}")
    print(f"base factor         s_b = {cfg.s_b:.1f}")
    print(f"TI = {iv.value:.4f} EV/s")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "indexes": _cmd_indexes,
        "compare": _cmd_compare,
        "traffic": _cmd_traffic,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except StorageError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
