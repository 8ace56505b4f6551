"""Network simulation on the sampling grid: sampling, link-level delivery,
coordinator batching, and server ingestion.

Topology is a star: fixed-site nodes always reach the coordinator over the
sub-GHz short-range link (subject to Bernoulli per-message loss); a mobile
node uses its short-range radio when some fixed-site node is inside radio
range and otherwise falls back to the wide-area uplink straight to the
server. Every reading of one sample tick shares the node's position, so
the link is chosen once per tick (``choose_link``, the only anchor scan)
and each reading then takes only its own loss draw (``route_measurement``),
from the node's loss stream, which ``run`` reads in blocks
(``field.BlockDraws``) and which is drawn only over a lossy link.
The coordinator batches everything it heard and uplinks on a fixed
reporting grid. A reading that reaches the coordinator after its window was
uplinked can join no later batch: it is dropped and counted, so every
emitted reading ends delivered to the server, lost on a link, or dropped.

Every node samples on one shared grid, and ``ScenarioConfig.validate``
requires the uplink period to be a multiple of the sample period, so every
uplink lies on that grid. Every link has a fixed latency, so a reading's
fate is known when it is routed and ``run`` walks the grid with no event
queue: a coordinator-bound reading joins its window's list if it arrives
before the window ends, and is dropped otherwise (``run`` alone decides a
reading's window; ``coordinator_uplink`` only sorts and batches the list).
Direct wide-area readings and batches share one latency, so each is handed
over when it is sent, in order of arrival. At each grid time every node is sampled in node order,
then the window that just closed is uplinked. Equal seeds give
byte-identical results. Each result goes to a ``RunSink`` as it is
produced: every reading's fate when it is routed, every server arrival and
every batch the server receives. At each uplink grid time, with or without
a coordinator, the sink also gets a low watermark: every server reading
stamped before it has been handed over, so a sink can write out and forget
what precedes it (the last one is the run's end). The default sink, the
``SimulationResult`` itself, keeps everything; a sink that writes results
out as they come keeps a run's memory from growing with them. Each node's
tallies are looked up once, at its first tick, as a list in the order of
its readings.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .domain import (
    GAS_QUANTITIES,
    GeoPoint,
    Measurement,
    NodeDescriptor,
    NodeKind,
    Quantity,
    Radio,
    ReportBatch,
    SECONDS_PER_DAY,
    ValidationError,
    haversine_distance,
    record_key,
)
from .field import BlockDraws, loss_generator
from .nodes import sample

if TYPE_CHECKING:
    from .scenario import ScenarioConfig

logger = logging.getLogger(__name__)


class ConfigError(ValueError):
    """The scenario references something that does not resolve."""


@dataclass(frozen=True)
class LinkModel:
    """Delivery contract of one radio technology; no PHY modelling."""

    kind: Radio
    range_m: float
    loss_prob: float
    latency_s: float

    def __post_init__(self):
        if not 0.0 <= self.loss_prob <= 1.0:
            raise ValueError("loss_prob must be within [0, 1]")
        if self.range_m <= 0.0:
            raise ValueError("range_m must be positive")
        if not 0.0 <= self.latency_s <= SECONDS_PER_DAY:
            raise ValueError(f"latency_s must be within [0, {SECONDS_PER_DAY}] s")


DEFAULT_LINKS: dict[Radio, LinkModel] = {
    Radio.SHORT_RANGE_FIXED: LinkModel(Radio.SHORT_RANGE_FIXED, 500.0, 0.0, 1.0),
    Radio.SHORT_RANGE_MOBILE: LinkModel(Radio.SHORT_RANGE_MOBILE, 300.0, 0.0, 1.0),
    Radio.WIDE_AREA: LinkModel(Radio.WIDE_AREA, math.inf, 0.0, 2.0),
}


class DeliveryOutcome(str, Enum):
    DELIVERED_TO_COORDINATOR = "delivered_to_coordinator"
    DELIVERED_TO_SERVER = "delivered_to_server"
    LOST = "lost"


@dataclass(frozen=True, slots=True)
class DeliveryRecord:
    measurement: Measurement
    outcome: DeliveryOutcome
    link: Radio | None
    arrival_t: int | None  # None when lost


@dataclass(frozen=True)
class NetworkTopology:
    """Static routing context: who anchors the short-range mesh and which
    link parameters apply."""

    coordinator_id: str | None
    anchors: tuple[tuple[str, GeoPoint], ...]  # static nodes a mobile can reach
    links: dict[Radio, LinkModel]


@dataclass(frozen=True)
class LinkChoice:
    """How every reading of one sample tick travels: over ``link`` (None for
    the coordinator's own readings, which take no radio hop), to ``outcome``
    unless the link loses it."""

    link: LinkModel | None
    outcome: DeliveryOutcome


def choose_link(node: NodeDescriptor, position: GeoPoint, topo: NetworkTopology) -> LinkChoice:
    """Decide the link for the readings ``node`` takes at ``position``.

    Fixed-site kinds go to the coordinator over the short-range link; a
    mobile checks whether any static node is within its short-range radio
    range and otherwise uplinks directly over the wide area network. Every
    reading of one tick shares a position, so this runs once per tick.
    """
    if node.kind is NodeKind.COORDINATOR:
        return LinkChoice(None, DeliveryOutcome.DELIVERED_TO_COORDINATOR)
    if topo.coordinator_id is not None:
        if node.kind is not NodeKind.MOBILE:
            return LinkChoice(topo.links[Radio.SHORT_RANGE_FIXED],
                              DeliveryOutcome.DELIVERED_TO_COORDINATOR)
        mobile_link = topo.links[Radio.SHORT_RANGE_MOBILE]
        if any(
            haversine_distance(position, pos) <= mobile_link.range_m
            for _, pos in topo.anchors
        ):
            return LinkChoice(mobile_link, DeliveryOutcome.DELIVERED_TO_COORDINATOR)
    return LinkChoice(topo.links[Radio.WIDE_AREA], DeliveryOutcome.DELIVERED_TO_SERVER)


def route_measurement(
    m: Measurement, choice: LinkChoice, rng: np.random.Generator
) -> DeliveryRecord:
    """Send one freshly sampled measurement the way ``choice`` says.

    Loss is Bernoulli per message with the chosen link's probability, drawn
    by ``rng.random()`` (a Generator, or a ``BlockDraws`` over one) only
    when that probability is above 0; a lost message is an outcome, not an
    error, and is never retried.
    """
    link = choice.link
    if link is None:
        # Local readings enter the coordinator buffer without a radio hop.
        return DeliveryRecord(m, choice.outcome, None, m.timestamp)
    if link.loss_prob > 0.0 and rng.random() < link.loss_prob:
        return DeliveryRecord(m, DeliveryOutcome.LOST, link.kind, None)
    return DeliveryRecord(m, choice.outcome, link.kind, int(m.timestamp + link.latency_s))


def coordinator_uplink(
    coordinator_id: str,
    window_start: int,
    window_end: int,
    buffer: list[Measurement],
) -> ReportBatch:
    """Assemble the reporting batch for the window [window_start, window_end)
    from ``buffer``, the readings ``run`` decided belong to that window, in
    record order (``domain.record_key``). The buffer is left as it is. An
    empty batch is legal and merely signalled in the log.
    """
    picked = tuple(sorted(buffer, key=record_key))
    if not picked:
        logger.warning("empty uplink batch at t=%d", window_end)
    return ReportBatch(coordinator_id, window_end, picked)


@dataclass
class Tally:
    emitted: int = 0
    to_coordinator: int = 0
    to_server: int = 0
    lost: int = 0
    dropped: int = 0  # reached the coordinator too late for any batch

    def add(self, other: Tally) -> None:
        """Add each of ``other``'s counts to this tally's."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    @property
    def delivered(self) -> int:
        return self.to_coordinator + self.to_server


class RunSink:
    """Receives the results of ``run`` as its loop produces them.
    Each method does nothing here; a sink overrides what it needs."""

    def delivery(self, record: DeliveryRecord) -> None:
        """The fate of one emitted reading, when it is routed."""

    def arrival(self, t: int, m: Measurement) -> None:
        """One reading sent to the server, stamped with the time ``t`` it
        arrives. Called when it is sent, so ``t`` never decreases."""

    def batch(self, batch: ReportBatch) -> None:
        """One coordinator batch sent to the server, when it is sent; each
        of its readings then arrives on its own, stamped with the batch's
        arrival time."""

    def watermark(self, t: int) -> None:
        """Every reading the server receives that is stamped before ``t``
        has been handed to ``arrival``. Called at each uplink grid time
        after the start, after that time's batch, so the last call is at
        the run's end."""


@dataclass
class SimulationResult(RunSink):
    """Everything a run produced, in deterministic order. It is the sink
    ``run`` records into when it is given none; with another sink, only the
    tallies are filled."""

    scenario_name: str
    seed: int
    server_measurements: list[tuple[int, Measurement]] = field(default_factory=list)
    batches: list[ReportBatch] = field(default_factory=list)
    deliveries: list[DeliveryRecord] = field(default_factory=list)
    tallies: dict[tuple[str, Quantity], Tally] = field(default_factory=dict)

    def gas_reports_per_window(self, t_i: int, start_epoch: int) -> dict[int, int]:
        """Distinct (node, tick) gas reports the server holds per uplink
        window, keyed by 1-based window number."""
        seen: dict[int, set[tuple[str, int]]] = {}
        for _, m in self.server_measurements:
            if m.quantity in GAS_QUANTITIES:
                window = (m.timestamp - start_epoch) // t_i + 1
                seen.setdefault(window, set()).add((m.node_id, m.timestamp))
        return {w: len(s) for w, s in sorted(seen.items())}

    def delivery(self, record: DeliveryRecord) -> None:
        self.deliveries.append(record)

    def arrival(self, t: int, m: Measurement) -> None:
        self.server_measurements.append((t, m))

    def batch(self, batch: ReportBatch) -> None:
        self.batches.append(batch)


def run(scenario: "ScenarioConfig", sink: RunSink | None = None) -> SimulationResult:
    """Execute the scenario, handing each result to ``sink`` as it is
    produced, and return the tallies; with no sink, the returned result
    holds the full, deterministic output as well."""
    scenario.validate()
    states = scenario.build_node_states()
    field_model = scenario.field
    start, period = scenario.start_epoch, scenario.sample_period_s
    uplink_period = scenario.uplink_period_s

    coordinator = next(
        (s.descriptor.node_id for s in states if s.descriptor.kind is NodeKind.COORDINATOR),
        None,
    )
    anchors = tuple(
        (s.descriptor.node_id, s.descriptor.home_position)
        for s in states
        if s.descriptor.kind is not NodeKind.MOBILE
    )
    topo = NetworkTopology(coordinator_id=coordinator, anchors=anchors, links=scenario.links)
    # [node, loss stream, the node's tallies in the order of its readings]
    sampled: list[list] = [
        [s, BlockDraws(loss_generator(scenario.seed, s.descriptor.node_id).random), None]
        for s in states
        if s.descriptor.sensor_suite
    ]

    result = SimulationResult(scenario_name=scenario.name, seed=scenario.seed)
    tallies = result.tallies
    if sink is None:
        sink = result
    on_delivery, on_arrival = sink.delivery, sink.arrival
    window: list[Measurement] = []  # coordinator-bound readings of the open window
    n_ticks = scenario.duration_s // period
    ticks_per_uplink = uplink_period // period
    wa_latency = scenario.links[Radio.WIDE_AREA].latency_s
    # ``validate`` makes the duration whole uplink periods: no window stays open.
    for k in range(n_ticks + 1):
        t = start + k * period
        window_closes = k > 0 and k % ticks_per_uplink == 0
        uplink = window_closes and coordinator is not None
        if uplink:
            closed, window = window, []
        if k < n_ticks:
            window_end = start + (k // ticks_per_uplink + 1) * uplink_period
            for entry in sampled:
                node, rng, node_tallies = entry
                try:
                    readings = sample(node, field_model, t)
                except ValidationError as e:  # the scenario overflowed the sensor chain
                    raise ConfigError(f"node {node.descriptor.node_id}: {e}") from e
                if node_tallies is None:
                    node_tallies = entry[2] = [
                        tallies.setdefault((m.node_id, m.quantity), Tally()) for m in readings
                    ]
                choice = choose_link(node.descriptor, readings[0].position, topo)
                to_coordinator = choice.outcome is DeliveryOutcome.DELIVERED_TO_COORDINATOR
                for m, tally in zip(readings, node_tallies):
                    record = route_measurement(m, choice, rng)
                    on_delivery(record)
                    tally.emitted += 1
                    if record.outcome is DeliveryOutcome.LOST:
                        tally.lost += 1
                    elif not to_coordinator:
                        tally.to_server += 1
                        on_arrival(record.arrival_t, m)
                    else:
                        tally.to_coordinator += 1
                        if record.arrival_t < window_end:
                            window.append(m)
                        else:  # arrives after its window was uplinked
                            tally.dropped += 1
        if uplink:
            batch = coordinator_uplink(coordinator, t - uplink_period, t, closed)
            sink.batch(batch)
            arrival_t = int(t + wa_latency)
            for m in batch.measurements:
                on_arrival(arrival_t, m)
        if window_closes:
            sink.watermark(t)
    return result
