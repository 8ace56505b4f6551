import dataclasses
import heapq
import itertools
import math
from datetime import datetime, timezone
from importlib import resources

import numpy as np
import pytest
import yaml
from hypothesis import given, settings

from citysense import cli, netsim
from citysense.domain import (
    GAS_QUANTITIES,
    GeoPoint,
    Measurement,
    NodeDescriptor,
    NodeKind,
    Quantity,
    Radio,
)
from citysense.netsim import (
    DEFAULT_LINKS,
    DeliveryOutcome,
    LinkModel,
    NetworkTopology,
    RunSink,
    Tally,
    choose_link,
    coordinator_uplink,
    run,
)
from citysense.domain import haversine_distance
from citysense.field import loss_generator
from citysense.scenario import load_scenario, with_seed
from citysense.store import DayFiles, OutputSet
from tests.geo import grid_cases
from tests.rows import (
    DeliveryRecord, RowRecorder, one_reading_ticks, record, record_key, serialize_measurement,
)
from tests.scalar_chain import ScalarNode, route_measurement

P = GeoPoint(43.716, 10.3966)
FAR = GeoPoint(43.76, 10.3966)  # ~4.9 km north of everything

TOPO = NetworkTopology(
    coordinator_id="C0",
    anchors=(("C0", P),),
    links=dict(DEFAULT_LINKS),
)


def meas(node_id="T1", position=P, quantity=Quantity.CO2, timestamp=300, value=420.0):
    return Measurement(node_id, timestamp, position, quantity, value)


def fixed_descriptor(node_id="T1"):
    return NodeDescriptor(
        node_id, NodeKind.FIXED, frozenset({Quantity.CO2}),
        home_position=P,
    )


def mobile_descriptor(node_id="M1"):
    return NodeDescriptor(
        node_id, NodeKind.MOBILE, frozenset({Quantity.CO2}),
    )


def route(m, node, topo, rng):
    """Route ``m`` as the per-reading reference does: the link chosen at its
    position. Returns its fate, the link's radio (None without a radio hop)
    and its arrival."""
    fate = route_measurement(choose_link(node, m.position, topo), rng)
    lost = fate.outcome is DeliveryOutcome.LOST
    return fate, fate.link.kind if fate.link else None, None if lost else fate.arrival(m.timestamp)


def _stamp(t):
    return datetime.fromtimestamp(t, timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _log_line(d):
    """One delivery-log line rendered from one ``DeliveryRecord``, as the log
    was written one reading at a time."""
    m = d.measurement
    arrival = _stamp(d.arrival_t) if d.arrival_t is not None else ""
    link = d.link.value if d.link else ""
    return (f"{_stamp(m.timestamp)},{m.node_id},{m.quantity.value},"
            f"{d.outcome.value},{link},{arrival}")


class TestRouteMeasurement:
    def test_fixed_lossless_reaches_coordinator(self):
        r, link, arrival_t = route(meas(), fixed_descriptor(), TOPO, np.random.default_rng(0))
        assert r.outcome is DeliveryOutcome.DELIVERED_TO_COORDINATOR
        assert link is Radio.SHORT_RANGE_FIXED
        assert arrival_t == 300 + 1

    def test_mobile_out_of_range_falls_back_to_wide_area(self):
        # 4.9 km from every anchor, short-range radio reaches 300 m
        r, link, arrival_t = route(
            meas("M1", position=FAR), mobile_descriptor(), TOPO, np.random.default_rng(0))
        assert r.outcome is DeliveryOutcome.DELIVERED_TO_SERVER
        assert link is Radio.WIDE_AREA and arrival_t == 300 + 2

    def test_mobile_in_range_uses_short_range(self):
        r, link, arrival_t = route(
            meas("M1", position=P), mobile_descriptor(), TOPO, np.random.default_rng(0))
        assert r.outcome is DeliveryOutcome.DELIVERED_TO_COORDINATOR
        assert link is Radio.SHORT_RANGE_MOBILE and arrival_t == 300 + 1

    def test_no_coordinator_sends_everything_over_the_wide_area(self):
        topo = dataclasses.replace(TOPO, coordinator_id=None)
        for m, node in ((meas(), fixed_descriptor()), (meas("M1"), mobile_descriptor())):
            r, link, arrival_t = route(m, node, topo, np.random.default_rng(0))
            assert r.outcome is DeliveryOutcome.DELIVERED_TO_SERVER
            assert link is Radio.WIDE_AREA and arrival_t == 300 + 2

    @settings(max_examples=300)
    @given(grid_cases())
    def test_the_anchor_grid_chooses_as_a_scan_of_every_anchor(self, case):
        anchors, positions, radius = case
        links = {**DEFAULT_LINKS, Radio.SHORT_RANGE_MOBILE: LinkModel(
            Radio.SHORT_RANGE_MOBILE, radius or 5e-324, 0.0, 1.0)}
        topo = NetworkTopology("C0", tuple(anchors), links)
        for p in positions:
            in_range = any(haversine_distance(p, pos) <= links[Radio.SHORT_RANGE_MOBILE].range_m
                           for _, pos in anchors)
            expected = Radio.SHORT_RANGE_MOBILE if in_range else Radio.WIDE_AREA
            assert choose_link(mobile_descriptor(), p, topo).link.kind is expected

    def test_certain_loss_is_lost(self):
        links = dict(DEFAULT_LINKS)
        links[Radio.SHORT_RANGE_FIXED] = LinkModel(Radio.SHORT_RANGE_FIXED, 500.0, 1.0, 1.0)
        topo = dataclasses.replace(TOPO, links=links)
        r, link, arrival_t = route(meas(), fixed_descriptor(), topo, np.random.default_rng(0))
        assert r.outcome is DeliveryOutcome.LOST
        assert link is Radio.SHORT_RANGE_FIXED  # lost on the link the tick chose
        assert arrival_t is None

    def test_coordinator_reading_enters_buffer_directly(self):
        d = NodeDescriptor(
            "C0", NodeKind.COORDINATOR, frozenset({Quantity.CO2}),
            home_position=P,
        )
        r, link, arrival_t = route(meas("C0"), d, TOPO, np.random.default_rng(0))
        assert r.outcome is DeliveryOutcome.DELIVERED_TO_COORDINATOR
        assert link is None and arrival_t == 300

    def test_a_delivered_reading_shares_the_ticks_choice_and_a_lost_one_its_link(self):
        links = dict(DEFAULT_LINKS)
        links[Radio.SHORT_RANGE_FIXED] = LinkModel(Radio.SHORT_RANGE_FIXED, 500.0, 0.5, 1.0)
        choice = choose_link(fixed_descriptor(), P, dataclasses.replace(TOPO, links=links))
        stream, scalar = loss_generator(4, "T1"), loss_generator(4, "T1")
        fates = [route_measurement(choice, stream) for _ in Quantity]
        for fate in fates:
            if scalar.random() < 0.5:
                assert fate is not choice and fate.link is choice.link
                assert fate.outcome is DeliveryOutcome.LOST
            else:
                assert fate is choice and fate.arrival(300) == 301
        assert {fate.outcome for fate in fates} == {
            DeliveryOutcome.LOST, DeliveryOutcome.DELIVERED_TO_COORDINATOR}

    def test_loss_model_validation(self):
        with pytest.raises(ValueError):
            LinkModel(Radio.WIDE_AREA, math.inf, 1.5, 0.0)
        with pytest.raises(ValueError):
            LinkModel(Radio.WIDE_AREA, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            LinkModel(Radio.WIDE_AREA, 10.0, 0.0, -1.0)
        with pytest.raises(ValueError, match="latency_s"):
            LinkModel(Radio.WIDE_AREA, math.inf, 0.0, 86401.0)
        assert LinkModel(Radio.WIDE_AREA, math.inf, 0.0, 86400.0).latency_s == 86400.0


class TestLossStream:
    def test_drawn_only_over_a_lossy_link(self, pisa):
        # M2's short-range link is lossy, the wide area is not: it takes a
        # draw per reading on the ticks it is in short range, and none on the
        # others, so its fates follow its stream read on those ticks alone.
        links = dict(pisa.links)
        links[Radio.SHORT_RANGE_MOBILE] = dataclasses.replace(
            links[Radio.SHORT_RANGE_MOBILE], loss_prob=0.3)
        cfg = dataclasses.replace(pisa, duration_s=4 * 3600, links=links)
        m2 = [d for d in record(cfg).deliveries if d.measurement.node_id == "M2"]
        scalar = loss_generator(cfg.seed, "M2")
        for d in m2:
            lost = d.link is Radio.SHORT_RANGE_MOBILE and scalar.random() < 0.3
            assert (d.outcome is DeliveryOutcome.LOST) is lost
        assert {d.link for d in m2} == {Radio.SHORT_RANGE_MOBILE, Radio.WIDE_AREA}
        assert any(d.outcome is DeliveryOutcome.LOST for d in m2)


class TestCoordinatorUplink:
    def _buffer(self, n_nodes=9, ticks=(0, 300, 600)):
        return one_reading_ticks(
            meas(node_id=f"N{i}", timestamp=t) for i in range(n_nodes) for t in ticks)

    def test_full_window_batches_everything(self):
        buf = self._buffer()
        batch = coordinator_uplink("C0", 0, 900, buf)
        assert len(batch.measurements) == 27  # 9 nodes x 3 reporting slots
        assert buf == self._buffer()  # left as it was given

    def test_batch_is_ordered(self):
        buf = list(reversed(self._buffer()))
        batch = coordinator_uplink("C0", 0, 900, buf)
        keys = [(m.timestamp, m.node_id, m.quantity.value) for m in batch.measurements]
        assert keys == sorted(keys)

    def test_empty_batch_signalled_not_fatal(self):
        batch = coordinator_uplink("C0", 0, 900, [])
        assert batch.measurements == batch.ticks == ()
        assert batch.uplink_time == 900


@pytest.fixture(scope="module")
def pisa():
    return load_scenario("pisa-default")


class TestRun:
    def test_one_hour_lossless_delivers_108_per_gas_quantity(self, pisa):
        cfg = dataclasses.replace(pisa, duration_s=3600)
        tallies = run(cfg, RunSink())
        for q in GAS_QUANTITIES:
            delivered = sum(
                t.to_coordinator + t.to_server for (nid, tq), t in tallies.items() if tq is q
            )
            assert delivered == 108  # 9 nodes x 12 sampling slots

    def test_zero_duration_is_empty(self, pisa):
        cfg = dataclasses.replace(pisa, duration_s=0)
        result = record(cfg)
        assert result.server_measurements == []
        assert result.batches == []
        assert result.deliveries == []

    def test_same_seed_gives_identical_delivery_logs(self, pisa):
        cfg = dataclasses.replace(pisa, duration_s=3600)
        logs = []
        for _ in range(2):
            result = record(cfg)
            logs.append([_log_line(d) for d in result.deliveries])
        assert logs[0] == logs[1]

    def test_different_seed_changes_the_stream(self, pisa):
        cfg = dataclasses.replace(pisa, duration_s=3600)
        a = record(cfg)
        b = record(with_seed(cfg, 99))
        va = [m.value for _, m in a.server_measurements]
        vb = [m.value for _, m in b.server_measurements]
        assert va != vb

    def test_conservation_under_loss(self, pisa):
        links = dict(pisa.links)
        links[Radio.SHORT_RANGE_FIXED] = LinkModel(Radio.SHORT_RANGE_FIXED, 500.0, 0.3, 1.0)
        links[Radio.SHORT_RANGE_MOBILE] = LinkModel(Radio.SHORT_RANGE_MOBILE, 300.0, 0.5, 1.0)
        links[Radio.WIDE_AREA] = LinkModel(Radio.WIDE_AREA, math.inf, 0.1, 2.0)
        cfg = dataclasses.replace(pisa, duration_s=3600, links=links)
        result = record(cfg)
        assert result.tallies, "expected traffic"
        lost_total = 0
        for tally in result.tallies.values():
            assert tally.emitted == tally.to_coordinator + tally.to_server + tally.lost
            lost_total += tally.lost
        assert lost_total > 0
        assert sum(
            t.to_coordinator + t.to_server - t.dropped for t in result.tallies.values()
        ) == len(result.server_measurements)

    def test_a_sink_sees_every_fate_and_the_recorded_server_records(self, pisa):
        class CountingSink(RunSink):
            def __init__(self):
                self.fates = {outcome: 0 for outcome in DeliveryOutcome}
                self.ticks = []  # (node, stamp) of each tick call
                self.received = []
                self.batches = 0

            def tick(self, tick, choice, lost, arrival_t):
                assert len(tick) > 0 and (lost is None or len(lost) == len(tick) and any(lost))
                self.ticks.append((tick.node_id, tick.timestamp))
                for gone in lost or [False] * len(tick):
                    self.fates[DeliveryOutcome.LOST if gone else choice.outcome] += 1

            def arrivals(self, t, ticks):
                assert all(ticks)  # a tick that lost every reading is not handed over
                self.received.extend((t, m) for tick in ticks for m in tick.rows())

            def batch(self, batch):
                self.batches += 1

        links = dict(pisa.links)
        links[Radio.SHORT_RANGE_FIXED] = LinkModel(Radio.SHORT_RANGE_FIXED, 500.0, 0.3, 1.0)
        links[Radio.WIDE_AREA] = LinkModel(Radio.WIDE_AREA, math.inf, 0.1, 2.0)
        cfg = dataclasses.replace(pisa, duration_s=3600, links=links)
        recorded = record(cfg)
        sink = CountingSink()
        streamed = run(cfg, sink)
        tallies = streamed.values()
        assert sum(sink.fates.values()) == sum(t.emitted for t in tallies) == len(recorded.deliveries)
        assert sink.fates[DeliveryOutcome.LOST] == sum(t.lost for t in tallies) > 0
        # one call per (node, tick): every node with sensors, every sample tick
        sensing = sum(1 for n in cfg.nodes if n.descriptor.sensor_suite)
        assert len(sink.ticks) == len(set(sink.ticks)) == sensing * 3600 // cfg.sample_period_s
        assert sink.received == recorded.server_measurements
        assert sink.batches == len(recorded.batches)
        assert streamed == recorded.tallies
        # The run keeps none of what it handed over: it returns the tallies alone.
        assert type(streamed) is dict and all(type(t) is Tally for t in tallies)

    def test_late_arrivals_are_dropped_and_counted(self, pisa):
        # A short-range latency above the uplink period makes every fixed
        # reading reach the coordinator after its window was uplinked.
        links = dict(pisa.links)
        links[Radio.SHORT_RANGE_FIXED] = LinkModel(Radio.SHORT_RANGE_FIXED, 500.0, 0.0, 1000.0)
        result = record(dataclasses.replace(pisa, links=links))
        tallies = result.tallies.values()
        assert sum(t.emitted for t in tallies) == 27648
        assert sum(t.lost for t in tallies) == 0
        assert sum(t.dropped for t in tallies) == 23040
        assert len(result.server_measurements) == 4608
        assert sum(
            t.to_coordinator + t.to_server - t.dropped for t in tallies
        ) == len(result.server_measurements)
        assert all(t.dropped <= t.to_coordinator for t in tallies)

    def test_arrivals_before_1970_are_ordered_and_batches_take_the_route_stamp(self, pisa):
        # int() truncates toward zero, so before 1970 int(T + 2.5) is T + 3,
        # not T + int(2.5): a batch arrives with the direct readings sent
        # at T, after them.
        links = dict(pisa.links)
        links[Radio.WIDE_AREA] = dataclasses.replace(links[Radio.WIDE_AREA], latency_s=2.5)
        cfg = dataclasses.replace(
            pisa, start_time="1969-12-31T22:00:00Z", duration_s=3 * 3600, links=links,
        )
        result = record(cfg)
        stamps = [t for t, _ in result.server_measurements]
        assert stamps == sorted(stamps)
        assert stamps[0] < 0 < stamps[-1]
        arrival = {(m.node_id, m.timestamp, m.quantity): t for t, m in result.server_measurements}
        for batch in result.batches:
            for m in batch.measurements:
                assert arrival[(m.node_id, m.timestamp, m.quantity)] == int(batch.uplink_time + 2.5)
        assert any(int(b.uplink_time + 2.5) == b.uplink_time + 3 for b in result.batches)
        direct = [d for d in result.deliveries if d.outcome is DeliveryOutcome.DELIVERED_TO_SERVER]
        assert direct and all(d.arrival_t == int(d.measurement.timestamp + 2.5) for d in direct)

    def test_causality(self, pisa):
        cfg = dataclasses.replace(pisa, duration_s=1800)
        result = record(cfg)
        for d in result.deliveries:
            if d.arrival_t is not None:
                assert d.arrival_t >= d.measurement.timestamp
        for batch in result.batches:
            for m in batch.measurements:
                assert m.timestamp <= batch.uplink_time

    def test_report_count_law_with_one_mobile_out_of_coverage(self, pisa):
        # Send M2 along a remote route; its short-range radio never reaches
        # an anchor, so its reports go straight to the server.
        from citysense.field import Path

        remote = Path(
            "remote",
            (GeoPoint(43.76, 10.3966), GeoPoint(43.77, 10.3966)),
        )
        paths = dict(pisa.paths)
        paths["remote"] = remote
        nodes = []
        for n in pisa.nodes:
            if n.descriptor.node_id == "M2":
                nodes.append(dataclasses.replace(n, route="remote"))
            else:
                nodes.append(n)
        cfg = dataclasses.replace(pisa, duration_s=3600, paths=paths, nodes=nodes)
        result = record(cfg)

        m2 = [d for d in result.deliveries if d.measurement.node_id == "M2"]
        assert m2 and all(d.outcome is DeliveryOutcome.DELIVERED_TO_SERVER for d in m2)
        # per window: 8 nodes x 3 via coordinator + 3 direct = 27 at the server
        per_window = result.gas_reports_per_window(cfg.uplink_period_s, cfg.start_epoch)
        assert set(per_window.values()) == {27}

    def test_fixed_node_emits_duration_over_period_samples(self, pisa):
        cfg = dataclasses.replace(pisa, duration_s=7200)
        tally = run(cfg, RunSink())[("T1", Quantity.CO2)]
        assert tally.emitted == 7200 // cfg.sample_period_s

    def test_timestamps_monotone_per_node_and_quantity(self, pisa):
        cfg = dataclasses.replace(pisa, duration_s=3600)
        result = record(cfg)
        last: dict = {}
        for d in result.deliveries:
            key = (d.measurement.node_id, d.measurement.quantity)
            if key in last:
                assert d.measurement.timestamp > last[key]
            last[key] = d.measurement.timestamp


def _per_reading_route(m, node, topo, rng):
    """Routing as it was before the link was chosen once per tick: every
    reading scans every anchor itself, then takes its loss draw."""
    if node.kind is NodeKind.COORDINATOR:
        return DeliveryRecord(m, DeliveryOutcome.DELIVERED_TO_COORDINATOR, None, m.timestamp)
    if node.kind is NodeKind.MOBILE:
        mobile_link = topo.links[Radio.SHORT_RANGE_MOBILE]
        in_range = any(
            haversine_distance(m.position, pos) <= mobile_link.range_m
            for _, pos in topo.anchors
        )
        if in_range and topo.coordinator_id is not None:
            link, outcome = mobile_link, DeliveryOutcome.DELIVERED_TO_COORDINATOR
        else:
            link, outcome = topo.links[Radio.WIDE_AREA], DeliveryOutcome.DELIVERED_TO_SERVER
    elif topo.coordinator_id is None:
        link, outcome = topo.links[Radio.WIDE_AREA], DeliveryOutcome.DELIVERED_TO_SERVER
    else:
        link, outcome = topo.links[Radio.SHORT_RANGE_FIXED], DeliveryOutcome.DELIVERED_TO_COORDINATOR
    if link.loss_prob > 0.0 and rng.random() < link.loss_prob:
        return DeliveryRecord(m, DeliveryOutcome.LOST, link.kind, None)
    return DeliveryRecord(m, outcome, link.kind, int(m.timestamp + link.latency_s))


@pytest.fixture(scope="module")
def lossy_pisa(pisa):
    # M2 rides the fitness path, whose anchors stand 1 km apart: it is in
    # short range near them and out of it between them.
    links = {
        kind: dataclasses.replace(link, loss_prob=0.2) for kind, link in pisa.links.items()
    }
    return dataclasses.replace(pisa, duration_s=7200, links=links)


class TestRoutingOncePerTick:
    def test_anchor_scan_runs_at_most_once_per_mobile_tick(self, lossy_pisa, monkeypatch):
        calls = []

        def counted(a, b):
            calls.append(1)
            return haversine_distance(a, b)

        monkeypatch.setattr(netsim, "haversine_distance", counted)
        run(lossy_pisa, RunSink())
        states = lossy_pisa.build_node_states()
        mobiles = sum(1 for s in states if s.descriptor.kind is NodeKind.MOBILE)
        anchors = len(states) - mobiles
        ticks = lossy_pisa.duration_s // lossy_pisa.sample_period_s
        # 2 mobiles x 24 ticks x 9 anchors = 432; per reading it was 8x more
        assert 0 < len(calls) <= mobiles * ticks * anchors

    def test_deliveries_equal_per_reading_reference(self, lossy_pisa):
        result = record(lossy_pisa)
        states = {s.descriptor.node_id: s.descriptor for s in lossy_pisa.build_node_states()}
        topo = NetworkTopology(
            coordinator_id="C0",
            anchors=tuple(
                (nid, d.home_position) for nid, d in states.items()
                if d.kind is not NodeKind.MOBILE
            ),
            links=lossy_pisa.links,
        )
        rngs = {nid: loss_generator(lossy_pisa.seed, nid) for nid in states}
        expected = [
            _per_reading_route(d.measurement, states[d.measurement.node_id], topo,
                               rngs[d.measurement.node_id])
            for d in result.deliveries
        ]
        assert result.deliveries == expected
        m2 = {d.outcome for d in result.deliveries if d.measurement.node_id == "M2"}
        assert m2 == set(DeliveryOutcome)


def _old_uplink(coordinator_id, window_start, window_end, buffer):
    """``coordinator_uplink`` as it was over an arrival-stamped buffer of
    (arrival_t, reading) pairs: it batched what had arrived by the window end
    and was stamped in the window, and left the rest buffered."""
    def due(a, m):
        return a <= window_end and window_start <= m.timestamp < window_end

    picked = [m for a, m in buffer if due(a, m)]
    buffer[:] = [(a, m) for a, m in buffer if not due(a, m)]
    return coordinator_uplink(coordinator_id, window_start, window_end, one_reading_ticks(picked))


def _drop_stale(buffer, before, tallies):
    """Count every buffered reading stamped before ``before`` as dropped and
    take it out: no later window can batch it."""
    for _, m in buffer:
        if m.timestamp < before:
            tallies[(m.node_id, m.quantity)].dropped += 1
    buffer[:] = [(a, m) for a, m in buffer if m.timestamp >= before]


def _event_queue_run(scenario):
    """``run`` as it was before it walked the sample grid: every sample tick
    and uplink pushed up front into one (time, sequence) heap, one delivery
    event pushed per surviving reading, and a coordinator buffer of
    (arrival_t, reading) pairs that is swept of stale readings after each
    uplink."""
    states = scenario.build_node_states()
    start = scenario.start_epoch
    coordinator = next(
        (s.descriptor.node_id for s in states if s.descriptor.kind is NodeKind.COORDINATOR),
        None,
    )
    topo = NetworkTopology(
        coordinator_id=coordinator,
        anchors=tuple(
            (s.descriptor.node_id, s.descriptor.home_position)
            for s in states if s.descriptor.kind is not NodeKind.MOBILE
        ),
        links=scenario.links,
    )
    by_id = {s.descriptor.node_id: ScalarNode(s) for s in states}
    rngs = {nid: loss_generator(scenario.seed, nid) for nid in by_id}
    result = RowRecorder()
    heap, seq, buffer = [], itertools.count(), []

    def push(t, kind, payload):
        heapq.heappush(heap, (t, next(seq), kind, payload))

    for s in states:
        if s.descriptor.sensor_suite:
            for t in range(0, scenario.duration_s, scenario.sample_period_s):
                push(start + t, "sample", s.descriptor.node_id)
    if coordinator is not None:
        period = scenario.uplink_period_s
        for t in range(period, scenario.duration_s + 1, period):
            push(start + t, "uplink", coordinator)
    while heap:
        t, _, kind, payload = heapq.heappop(heap)
        if kind == "sample":
            node = by_id[payload]
            readings = node.sample(t).rows()
            choice = choose_link(node.state.descriptor, readings[0].position, topo)
            for m in readings:
                fate = route_measurement(choice, rngs[payload])
                link = fate.link
                arrival_t = None
                if fate.outcome is not DeliveryOutcome.LOST:
                    arrival_t = m.timestamp if link is None else int(m.timestamp + link.latency_s)
                result.deliveries.append(
                    DeliveryRecord(m, fate.outcome, link.kind if link else None, arrival_t))
                tally = result.tallies.setdefault((m.node_id, m.quantity), Tally())
                tally.emitted += 1
                if fate.outcome is DeliveryOutcome.LOST:
                    tally.lost += 1
                elif fate.outcome is DeliveryOutcome.DELIVERED_TO_COORDINATOR:
                    tally.to_coordinator += 1
                    push(arrival_t, "coordinator", m)
                else:
                    tally.to_server += 1
                    push(arrival_t, "server", m)
        elif kind == "uplink":
            batch = _old_uplink(payload, t - scenario.uplink_period_s, t, buffer)
            _drop_stale(buffer, t, result.tallies)
            push(t + int(scenario.links[Radio.WIDE_AREA].latency_s), "batch", batch)
        elif kind == "coordinator":
            buffer.append((t, payload))
        elif kind == "server":
            result.server_measurements.append((t, payload))
        else:
            result.batch(payload)
            for m in payload.measurements:
                result.server_measurements.append((t, m))
    _drop_stale(buffer, math.inf, result.tallies)
    return result


def _batch_rows(batches):
    """Each batch's coordinator, uplink time and readings as rows."""
    return [(b.coordinator_id, b.uplink_time, b.measurements) for b in batches]


def _with_links(cfg, **changes):
    return dataclasses.replace(cfg, links={
        kind: dataclasses.replace(link, **changes) for kind, link in cfg.links.items()
    })


def _zero_latency_lossy(pisa):
    return _with_links(dataclasses.replace(pisa, duration_s=3600), latency_s=0.0, loss_prob=0.1)


def _latency_one_sample_period(pisa):
    # Readings arrive exactly on the next grid time, together with the
    # next samples and, at a window's end, with the uplink.
    cfg = dataclasses.replace(pisa, duration_s=3600)
    return _with_links(cfg, latency_s=float(pisa.sample_period_s), loss_prob=0.1)


def _late_short_range(pisa):
    links = dict(pisa.links)
    links[Radio.SHORT_RANGE_FIXED] = LinkModel(Radio.SHORT_RANGE_FIXED, 500.0, 0.0, 1000.0)
    return dataclasses.replace(pisa, duration_s=7200, links=links)


def _uplink_every_sample(pisa):
    return dataclasses.replace(pisa, duration_s=3600, uplink_period_s=pisa.sample_period_s)


def _fractional_latency_lossy(pisa):
    # Short-range readings are stamped int(t + 299.5), one second before the
    # next grid time, so the last tick of a window makes its batch by one
    # second; direct readings and batches arrive at int(T + 2.5).
    cfg = _with_links(dataclasses.replace(pisa, duration_s=3600), loss_prob=0.1)
    links = dict(cfg.links)
    for kind in (Radio.SHORT_RANGE_FIXED, Radio.SHORT_RANGE_MOBILE):
        links[kind] = dataclasses.replace(links[kind], latency_s=299.5)
    links[Radio.WIDE_AREA] = dataclasses.replace(links[Radio.WIDE_AREA], latency_s=2.5)
    return dataclasses.replace(cfg, links=links)


def _lossy_mobile_short_range_only(pisa):
    # M2 draws from its loss stream only on the ticks it is in short range.
    links = dict(pisa.links)
    links[Radio.SHORT_RANGE_MOBILE] = dataclasses.replace(
        links[Radio.SHORT_RANGE_MOBILE], loss_prob=0.3)
    return dataclasses.replace(pisa, duration_s=4 * 3600, links=links)


def _no_coordinator(pisa):
    nodes = [n for n in pisa.nodes if n.descriptor.kind is not NodeKind.COORDINATOR]
    return dataclasses.replace(pisa, duration_s=3600, nodes=nodes)


class TestGridWalkOrder:
    @pytest.mark.parametrize("make", [
        _zero_latency_lossy, _latency_one_sample_period, _late_short_range,
        _uplink_every_sample, _fractional_latency_lossy, _lossy_mobile_short_range_only,
        _no_coordinator,
    ])
    def test_run_equals_the_event_queue_reference(self, pisa, make):
        cfg = make(pisa)
        got, expected = record(cfg), _event_queue_run(cfg)
        assert got.deliveries == expected.deliveries
        assert got.server_measurements == expected.server_measurements
        assert _batch_rows(got.batches) == _batch_rows(expected.batches)
        assert got.tallies == expected.tallies
        assert list(got.tallies) == list(expected.tallies)  # first-seen order
        assert got.server_measurements

    @pytest.mark.parametrize("make", [
        _zero_latency_lossy, _latency_one_sample_period, _late_short_range,
        _uplink_every_sample, _fractional_latency_lossy, _lossy_mobile_short_range_only,
        _no_coordinator,
    ])
    def test_simulate_logs_each_reading_as_the_per_reading_rendering(self, pisa, make, tmp_path):
        # simulate writes the log one (node, tick) at a time; the reference
        # renders each DeliveryRecord of run() alone.
        cfg = make(pisa)
        cli.simulate(cfg, tmp_path)
        expected = [_log_line(d) for d in record(cfg).deliveries]
        assert (tmp_path / "delivery-log.txt").read_text().splitlines() == expected


def _start_before_1970(pisa):
    return dataclasses.replace(pisa, start_time="1969-12-31T23:00:00Z", duration_s=7200)


def _window_across_midnight(pisa):
    # The uplink window from 23:55 to 00:10 holds readings of two days.
    return dataclasses.replace(pisa, start_time="2015-04-19T23:55:00Z", duration_s=3600)


_STREAMED = [
    _zero_latency_lossy, _latency_one_sample_period, _late_short_range,
    _uplink_every_sample, _fractional_latency_lossy, _lossy_mobile_short_range_only,
    _no_coordinator, _start_before_1970, _window_across_midnight,
]


class _WatermarkSink(RunSink):
    def __init__(self):
        self.watermarks: list[int] = []
        self.late: list[Measurement] = []  # stamped before a watermark already given
        self.received = 0

    def arrivals(self, t, ticks):
        self.received += sum(map(len, ticks))
        self.late += [m for tick in ticks for m in tick.rows()
                      if self.watermarks and m.timestamp < self.watermarks[-1]]

    def watermark(self, t):
        self.watermarks.append(t)


class TestStreamedDayFiles:
    @pytest.mark.parametrize("make", _STREAMED)
    def test_a_watermark_at_each_uplink_time_follows_every_reading_before_it(self, pisa, make):
        cfg = make(pisa)
        sink = _WatermarkSink()
        run(cfg, sink)
        start, period = cfg.start_epoch, cfg.uplink_period_s
        assert sink.watermarks == list(range(start + period, start + cfg.duration_s + 1, period))
        assert sink.late == [] and sink.received > 0

    @pytest.mark.parametrize("make", _STREAMED)
    def test_simulate_streams_the_files_the_one_shot_writer_writes(self, pisa, make, tmp_path):
        # Both sides run DayFiles, the one-shot side as a single window, so
        # this checks that the watermarks cut the stream with nothing lost,
        # reordered or put in the wrong day. The golden digests in
        # test_golden.py pin the file format itself.
        cfg = make(pisa)
        _, received = cli.simulate(cfg, tmp_path / "streamed")
        server_measurements = record(cfg).server_measurements
        with OutputSet(tmp_path / "one-shot", "measurements-*.txt") as files:
            with DayFiles(files) as days:
                days.add(one_reading_ticks(m for _, m in server_measurements))
        one_shot = sorted((tmp_path / "one-shot").iterdir())
        streamed = sorted((tmp_path / "streamed").glob("measurements-*.txt"))
        assert [p.name for p in streamed] == [p.name for p in one_shot]
        assert len(streamed) == (2 if make in (_start_before_1970, _window_across_midnight) else 1)
        assert [p.read_bytes() for p in streamed] == [p.read_bytes() for p in one_shot]
        assert received == len(server_measurements) > 0


def _two_lossy_districts():
    """``pisa-default`` tiled into two districts 2.4 km apart, one
    coordinator, 10 % loss on every link, for two hours: mobile nodes of
    both districts fall back to the wide area, and ticks lose readings."""
    from citysense.scenario import parse_scenario

    doc = yaml.safe_load(
        resources.files("citysense").joinpath("data/pisa-default.yaml").read_text())
    doc["duration_s"] = 7200
    for link in doc["links"].values():
        link["loss_prob"] = 0.1
    nodes = [n for n in doc["nodes"] if n["kind"] == "coordinator"]
    paths = {}
    for k, dlon in enumerate((0.0, 0.03)):
        for name, vertices in doc["paths"].items():
            paths[f"{name}-d{k}"] = [[lat, lon + dlon] for lat, lon in vertices]
        for n in doc["nodes"]:
            if n["kind"] == "coordinator":
                continue
            n = dict(n, id=f"{n['id']}-d{k}")
            if n["kind"] == "mobile":
                n["route"] = f"{n['route']}-d{k}"
            else:
                n["lon"] += dlon
            nodes.append(n)
    doc["paths"].update(paths)
    doc["nodes"] = nodes
    return parse_scenario(doc)


def test_day_files_are_the_serialized_server_records_in_record_order(tmp_path):
    # The CLI writes node ticks; the reference serializes each record that
    # the in-memory run hands the server, one line per record.
    cfg = _two_lossy_districts()
    _, received = cli.simulate(cfg, tmp_path)
    records = sorted((m for _, m in record(cfg).server_measurements), key=record_key)
    by_day = {}
    for m in records:
        by_day.setdefault(f"measurements-{_stamp(m.timestamp)[:10]}.txt", []).append(
            f"{serialize_measurement(m)}\n")
    written = {p.name: p.read_text() for p in sorted(tmp_path.glob("measurements-*.txt"))}
    assert written == {name: "".join(lines) for name, lines in by_day.items()}
    assert received == len(records)
    log = (tmp_path / "delivery-log.txt").read_text()
    assert ",lost," in log and ",wide_area," in log and "-d1," in log
