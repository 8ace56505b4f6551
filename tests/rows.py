"""Row forms of records, for tests: the package hands readings on as node
ticks and keeps them at rest as channels, and these helpers give the same
readings as ``Measurement`` rows to check both against a plain reference."""

from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter

from citysense.domain import (
    FLAG_CODES, FLAG_SETS, GAS_QUANTITIES, QUANTITY_CODES, SECONDS_PER_DAY, Measurement, NodeTick,
    Radio, RecordKey,
)
from citysense.netsim import DeliveryOutcome, RunSink, run
from citysense.store import Channel, Channels, Day, _RecordParser, format_tick


def record_key(m: Measurement) -> RecordKey:
    """The key the day files and coordinator batches order records by."""
    return (m.timestamp, m.node_id, QUANTITY_CODES[m.quantity])


def serialize_measurement(m: Measurement) -> str:
    """The record line of ``m``, without its line end."""
    return format_tick(*one_reading_ticks([m]))[:-1]


def parse_measurement(line: str) -> Measurement:
    """The checked record of one line, as the store's loader checks it."""
    (timestamp, node_id, _), quantity, position, value, code = _RecordParser()(line.rstrip("\n"))
    return Measurement(node_id, timestamp, position, quantity, value, FLAG_SETS[code])


def one_reading_ticks(records):
    """Each of ``records`` as a tick of its own, in the order given."""
    return [NodeTick(m.node_id, m.timestamp, m.position, (m.quantity,), [m.value],
                     bytes([FLAG_CODES[m.flags]])) for m in records]


def node_ticks(records):
    """``records`` in ``record_key`` order as ticks, one per run of readings
    that share a stamp, node and position: one tick per (node, stamp) where
    a node has one position per stamp, as ``run`` makes them."""
    ticks = []
    rows = sorted(records, key=record_key)
    for (timestamp, node_id, position), run_ in groupby(
            rows, attrgetter("timestamp", "node_id", "position")):
        run_ = list(run_)
        ticks.append(NodeTick(node_id, timestamp, position, tuple(m.quantity for m in run_),
                              [m.value for m in run_], bytes(FLAG_CODES[m.flags] for m in run_)))
    return ticks


def append(channel: Channel, timestamp: int, value: float, code: int, position) -> None:
    """Add one reading to ``channel`` as the store's loader does."""
    channel.timestamps.append(timestamp)
    channel.values.append(value)
    channel.flags.append(code)
    if len(channel.positions) > 1:
        channel.positions.append(position)
    elif channel.positions[0] is not position:
        channel.place(position)


def channels_from(records) -> Channels:
    """The channels of ``records``, given in any order, as a load of their
    day files would make them (without its checks)."""
    channels: Channels = {}
    for m in sorted(records, key=attrgetter("timestamp")):  # equal stamps keep their order
        channel = channels.get((m.node_id, m.quantity))
        if channel is None:
            channel = channels[m.node_id, m.quantity] = Channel.at(m.position)
        append(channel, m.timestamp, m.value, FLAG_CODES[m.flags], m.position)
    return channels


def days_from(records, by_day: bool = False) -> list[Day]:
    """``records`` as the days ``compute_indexes`` takes: one for them all,
    or with ``by_day`` one per UTC day, as ``store.read_days`` gives them."""
    groups: dict[int, list[Measurement]] = {}
    for m in records:
        groups.setdefault(m.timestamp // SECONDS_PER_DAY if by_day else 0, []).append(m)
    days = []
    for _, group in sorted(groups.items()):
        last = max(m.timestamp for m in group)
        days.append(Day(channels_from(group), min(m.timestamp for m in group), last,
                        (last // SECONDS_PER_DAY + 1) * SECONDS_PER_DAY))
    return days


def readings(channel: Channel):
    """Each reading of ``channel`` as (timestamp, value, flags, position),
    its flag code as the set and its position repeated where it shares one."""
    timestamps, values, codes, positions = channel
    if len(positions) < len(values):
        positions = positions * len(values)
    return zip(timestamps, values, map(FLAG_SETS.__getitem__, codes), positions, strict=True)


def store_rows(store):
    """Every record of ``store``, in ``record_key`` order: the row view of
    its channels."""
    return sorted((Measurement(node_id, t, position, q, value, flags)
                   for (node_id, q), channel in store.channels.items()
                   for t, value, flags, position in readings(channel)), key=record_key)


@dataclass(frozen=True, slots=True)
class DeliveryRecord:
    """One reading's fate, as ``RowRecorder.deliveries`` lists it."""

    measurement: Measurement
    outcome: DeliveryOutcome
    link: Radio | None
    arrival_t: int | None  # None when lost


class RowRecorder(RunSink):
    """A sink that keeps everything a run hands over, in order, with each
    reading as a ``Measurement`` row: every reading's fate, every reading
    the server receives with its arrival time, and every batch. ``tallies``
    holds what ``run`` returned, once ``record`` has run it."""

    def __init__(self):
        self.deliveries: list[DeliveryRecord] = []
        self.server_measurements: list[tuple[int, Measurement]] = []
        self.batches = []
        self.tallies = {}

    def tick(self, tick, choice, lost, arrival_t) -> None:
        link = choice.link.kind if choice.link else None
        self.deliveries.extend(
            DeliveryRecord(m, DeliveryOutcome.LOST, link, None) if gone
            else DeliveryRecord(m, choice.outcome, link, arrival_t)
            for m, gone in zip(tick.rows(), lost or [False] * len(tick))
        )

    def arrivals(self, t, ticks) -> None:
        self.server_measurements.extend((t, m) for tick in ticks for m in tick.rows())

    def batch(self, batch) -> None:
        self.batches.append(batch)

    def gas_reports_per_window(self, t_i: int, start_epoch: int) -> dict[int, int]:
        """Distinct (node, tick) gas reports the server holds per uplink
        window, keyed by 1-based window number."""
        seen: dict[int, set[tuple[str, int]]] = {}
        for _, m in self.server_measurements:
            if m.quantity in GAS_QUANTITIES:
                window = (m.timestamp - start_epoch) // t_i + 1
                seen.setdefault(window, set()).add((m.node_id, m.timestamp))
        return {w: len(s) for w, s in sorted(seen.items())}


def record(scenario) -> RowRecorder:
    """Run ``scenario`` into a ``RowRecorder`` and return it, tallies and all."""
    recorder = RowRecorder()
    recorder.tallies = run(scenario, recorder)
    return recorder
