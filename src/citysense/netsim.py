"""Network simulation on the sampling grid: sampling, link-level delivery,
coordinator batching, and server ingestion, one grid time at a time.

Topology is a star: fixed-site nodes reach the coordinator over the
short-range link; a mobile node does so while a fixed-site node is in its
radio range, and otherwise uplinks to the server over the wide area. At
each grid time ``nodes.SensorChain`` samples every sensing node, and ``run``
hands on each node's tick (``domain.NodeTick``): its readings share a
position, so the link is chosen once per tick (``choose_link``, against the
anchors near it on a grid), or once per run for a node that stays put. Over
a lossy link each reading takes a Bernoulli loss draw from the node's loss
stream (``field.BlockDraws``): the tick's lost mask. A tick that lost
readings goes on as a new tick of the rest.

``ScenarioConfig.validate`` puts every uplink on the shared sample grid,
and links have fixed latencies, so a fate is known when routed and ``run``
walks the grid with no event queue. The sensor chain, each node's link
choice and loss stream are built before the walk. At each grid time every
node is sampled and routed in node order, then the window that just closed
is uplinked. A coordinator-bound tick joins its window's list if it arrives
before the window ends; otherwise its readings are dropped and counted, so
every emitted reading ends delivered to the server, lost on a link, or
dropped. ``coordinator_uplink`` only sorts and batches that list. Direct
ticks and batches share one latency, so each is handed over when sent, in
order of arrival. Equal seeds give byte-identical results.

A ``RunSink`` gets one ``tick`` call per (node, tick), one ``arrivals``
call per group the server receives (a direct tick, or a batch's ticks),
every batch, and at each uplink grid time a low watermark: every server
reading stamped before it has been handed over, so a sink can write out and
forget what precedes it. ``run`` itself counts ticks per node and lost
readings per channel, and returns them as tallies.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from itertools import compress
from typing import TYPE_CHECKING, Sequence

from .domain import (
    SECONDS_PER_DAY, GeoPoint, NodeDescriptor, NodeKind, NodeTick, Quantity, Radio,
    ReportBatch, SiteGrid, haversine_distance, tick_key,
)
from .field import BlockDraws, loss_generator
from .nodes import SensorChain

if TYPE_CHECKING:
    from .scenario import ScenarioConfig

logger = logging.getLogger(__name__)


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


@dataclass(frozen=True)
class NetworkTopology:
    """Static routing context: who anchors the short-range mesh and which
    link parameters apply."""

    coordinator_id: str | None
    anchors: tuple[tuple[str, GeoPoint], ...]  # static nodes a mobile can reach
    links: dict[Radio, LinkModel]

    @cached_property
    def anchor_grid(self) -> SiteGrid:  # the anchors, on cells of the mobile radio's range
        return SiteGrid(self.anchors, self.links[Radio.SHORT_RANGE_MOBILE].range_m)


@dataclass(frozen=True)
class LinkChoice:
    """How every reading of one node tick travels: over ``link`` (None for
    the coordinator's own readings, which take no radio hop), to ``outcome``
    unless the link loses it."""

    link: LinkModel | None
    outcome: DeliveryOutcome

    def arrival(self, t: int) -> int:
        """When a reading sent at ``t`` this way arrives, if not lost."""
        return t if self.link is None else int(t + self.link.latency_s)


def choose_link(node: NodeDescriptor, position: GeoPoint, topo: NetworkTopology) -> LinkChoice:
    """Decide the link for the readings ``node`` takes at ``position``.

    Fixed-site kinds go to the coordinator over the short-range link; a
    mobile checks whether any anchor near it (``topo.anchor_grid``) is in its
    short-range radio range, else uplinks directly over the wide area
    network. Every reading of one tick shares a position: one call per tick.
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
            for _, pos in topo.anchor_grid.near(position)
        ):
            return LinkChoice(mobile_link, DeliveryOutcome.DELIVERED_TO_COORDINATOR)
    return LinkChoice(topo.links[Radio.WIDE_AREA], DeliveryOutcome.DELIVERED_TO_SERVER)


def coordinator_uplink(coordinator_id: str, window_start: int, window_end: int,
                       buffer: list[NodeTick]) -> ReportBatch:
    """Assemble the reporting batch for the window [window_start, window_end)
    from ``buffer``, the ticks ``run`` decided belong to that window, in
    ``domain.tick_key`` order, which puts its readings in record order. The
    buffer is left as it is; an empty batch is legal and only logged."""
    picked = tuple(sorted(buffer, key=tick_key))
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


# (node id, quantity) -> the tally of its readings; what ``run`` returns.
Tallies = dict[tuple[str, Quantity], Tally]


class RunSink:
    """Receives the results of ``run`` as its loop produces them.
    Each method does nothing here; a sink overrides what it needs."""

    def tick(self, tick: NodeTick, choice: LinkChoice, lost: list[bool] | None,
             arrival_t: int) -> None:
        """One node tick, when routed: the way its readings were sent, which
        of them the link lost (None when it lost none) and when those not
        lost arrive where their link leads."""

    def arrivals(self, t: int, ticks: Sequence[NodeTick]) -> None:
        """Ticks the server receives at ``t``, when sent (so ``t`` never
        decreases): one direct tick, or one batch's ticks, each of at least
        one reading, and of only those that got through."""

    def batch(self, batch: ReportBatch) -> None:
        """One coordinator batch sent to the server, when it is sent, just
        before its ticks go to ``arrivals``."""

    def watermark(self, t: int) -> None:
        """Every reading the server receives that is stamped before ``t``
        has been handed to ``arrivals``. Called at each uplink grid time
        after the start, after that time's batch, so the last call is at
        the run's end."""


def run(scenario: "ScenarioConfig", sink: RunSink) -> Tallies:
    """Execute the scenario, handing each result to ``sink`` as it is
    produced, and return the tallies of each (node id, quantity)."""
    scenario.validate()
    states = scenario.build_node_states()
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
    chain = SensorChain(states, period)
    # Per sensing node: its descriptor, its link choice if it stays put (None
    # if it moves), its loss stream, its counts of direct, on-time and late
    # coordinator-bound ticks, and its channels' lost readings per count.
    routes = [
        (s.descriptor,
         None if s.descriptor.kind is NodeKind.MOBILE
         else choose_link(s.descriptor, s.descriptor.home_position, topo),
         BlockDraws(loss_generator(scenario.seed, s.descriptor.node_id).random),
         [0, 0, 0], [[0] * len(s.channels) for _ in range(3)])
        for s in chain.nodes
    ]
    window: list[NodeTick] = []  # coordinator-bound ticks of the open window
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
            for tick, (descriptor, choice, draws, counts, lost_counts) in zip(
                    chain.sample(t), routes):
                if choice is None:
                    choice = choose_link(descriptor, tick.position, topo)
                arrival_t = choice.arrival(t)
                link, lost = choice.link, None
                if link is not None and link.loss_prob > 0.0:
                    lost = [draw < link.loss_prob for draw in draws.take(len(tick.values))]
                    if True not in lost:
                        lost = None
                sink.tick(tick, choice, lost, arrival_t)
                direct = choice.outcome is DeliveryOutcome.DELIVERED_TO_SERVER
                late = not direct and arrival_t >= window_end  # after its window was uplinked
                fate = 0 if direct else 2 if late else 1
                counts[fate] += 1
                if lost is not None:  # the readings that got through go on as a tick of their own
                    lost_now = lost_counts[fate]
                    for i in compress(range(len(lost)), lost):
                        lost_now[i] += 1
                    kept = [not x for x in lost]
                    tick = NodeTick(tick.node_id, t, tick.position,
                                    tuple(compress(tick.quantities, kept)),
                                    list(compress(tick.values, kept)),
                                    bytes(compress(tick.flags, kept)))
                if tick.values and direct:
                    sink.arrivals(arrival_t, [tick])
                elif tick.values and not late:
                    window.append(tick)
        if uplink:
            batch = coordinator_uplink(coordinator, t - uplink_period, t, closed)
            sink.batch(batch)
            sink.arrivals(int(t + wa_latency), batch.ticks)
        if window_closes:
            sink.watermark(t)
    tallies: Tallies = {}
    for node, (*_, (direct, on_time, late), lost) in zip(chain.nodes, routes):
        for q, lost_direct, lost_on_time, lost_late in zip(node.quantities, *lost):
            tallies[node.descriptor.node_id, q] = Tally(
                emitted=direct + on_time + late, lost=lost_direct + lost_on_time + lost_late,
                to_coordinator=on_time + late - lost_on_time - lost_late,
                to_server=direct - lost_direct, dropped=late - lost_late)
    return tallies
