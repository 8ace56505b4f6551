"""The sensor chain and routing one reading at a time, as the package ran
them before ``nodes.SensorChain`` and the per-tick loss mask of
``netsim.run``. Kept as a reference that both are checked against, as
``_event_queue_run`` in ``test_netsim.py`` keeps the event loop of before
the grid walk. Every float goes through the same operations in the same
order as in the vector chain, so values equal bit for bit. Each reading's
flag set is built here, flag by flag, and handed on as its code in
``domain.FLAG_CODES``, as a tick carries it."""

import math

from citysense.domain import FLAG_CODES, VALUE_RANGE, Flag, NodeKind, NodeTick, ValidationError
from citysense.field import loss_generator, noise_generator
from citysense.netsim import DeliveryOutcome, LinkChoice, NetworkTopology, Tally, choose_link
from citysense.nodes import NodeState


def lag_filter(prev: float, target: float, dt: float, t90: float) -> float:
    """First-order exponential tracking over ``dt`` seconds."""
    return target + (prev - target) * 10.0 ** (-dt / t90)


def quantize(v: float, resolution: float) -> float:
    """Round to the nearest multiple of ``resolution``, ties away from zero;
    ``v`` as is where the resolution is 0 or below the float spacing at ``v``,
    and the multiple toward zero where the rounded one passes the largest float."""
    if resolution == 0.0:
        return v
    steps = abs(v) / resolution
    if not steps < 2.0**53:
        return v
    n = math.floor(steps + 0.5)
    rounded = n * resolution
    if rounded == math.inf:
        rounded = (n - 1) * resolution
    return math.copysign(rounded, v)


class ScalarNode:
    """One node's sensor chain, one reading at a time, with scalar noise
    draws from each channel's generator."""

    def __init__(self, state: NodeState):
        self.state = state
        f = state.field
        self.noise = {
            c.quantity: noise_generator(f, state.descriptor.node_id, c.quantity)
            for c in state.channels if f.noise_sigma.get(c.quantity, 0.0) > 0.0
        }
        self.last_filtered: dict = {}
        self.last_t = None

    def sample(self, t: int) -> NodeTick:
        """Every reading of the node's suite at ``t``. A reading that is not
        finite raises ValidationError naming its value."""
        node = self.state
        dt = float(t - self.last_t) if self.last_t is not None else None
        self.last_t = t
        position = node.position_at(t)
        age = t - node.powered_since
        values, flags = [], []
        for q, spec, bias_mul, bias_add, _ in node.channels:
            raw = node.field.value(q, position, t) * bias_mul + bias_add
            if q in self.noise:
                raw += self.noise[q].normal(0.0, node.field.noise_sigma[q])
            prev = self.last_filtered.get(q)
            value = raw if prev is None or dt is None else lag_filter(prev, raw, dt, spec.t90_s)
            self.last_filtered[q] = value
            floor, ceiling = VALUE_RANGE[q]
            if value < floor:
                value = floor
            elif value > ceiling:
                value = ceiling
            flag_set = set()
            if spec.warmup_s > 0 and age < spec.warmup_s:
                flag_set.add(Flag.WARMING_UP)
            if spec.lod > 0.0 and value < spec.lod:
                value = 0.0
                flag_set.add(Flag.BELOW_LOD)
            if spec.resolution > 0.0:
                quantized = quantize(value, spec.resolution)
                if quantized != value:
                    flag_set.add(Flag.QUANTIZED)
                value = quantized
            if not math.isfinite(value):
                raise ValidationError("value", f"not finite: {value!r}")
            values.append(value)
            flags.append(FLAG_CODES[frozenset(flag_set)])
        return NodeTick(node.descriptor.node_id, t, position, node.quantities, values,
                        bytes(flags))


def route_measurement(choice: LinkChoice, rng) -> LinkChoice:
    """Send one reading the way ``choice`` says, and return its fate:
    ``choice``, or ``LOST`` on its link. The loss draw, ``rng.random()``,
    is taken only over a link whose loss probability is above 0."""
    link = choice.link
    if link is not None and link.loss_prob > 0.0 and rng.random() < link.loss_prob:
        return LinkChoice(link, DeliveryOutcome.LOST)
    return choice


def reference_run(scenario):
    """What ``netsim.run`` hands to its sink's ``tick`` and returns, made one
    reading at a time: a list of (tick, each reading's fate, arrival time),
    one per node tick in the order of the walk, and the tallies. A reading
    that is not finite raises ValidationError, with ``node_id`` set to its
    node's id."""
    scenario.validate()
    states = scenario.build_node_states()
    coordinator = next((s.descriptor.node_id for s in states
                        if s.descriptor.kind is NodeKind.COORDINATOR), None)
    topo = NetworkTopology(coordinator, tuple(
        (s.descriptor.node_id, s.descriptor.home_position)
        for s in states if s.descriptor.kind is not NodeKind.MOBILE), scenario.links)
    nodes = [(ScalarNode(s), loss_generator(scenario.seed, s.descriptor.node_id))
             for s in states if s.quantities]
    tallies = {(node.state.descriptor.node_id, q): Tally()
               for node, _ in nodes for q in node.state.quantities}
    start, period, uplink_period = (
        scenario.start_epoch, scenario.sample_period_s, scenario.uplink_period_s)
    calls = []
    for k in range(scenario.duration_s // period):
        t = start + k * period
        window_end = start + (k // (uplink_period // period) + 1) * uplink_period
        for node, rng in nodes:
            try:
                tick = node.sample(t)
            except ValidationError as e:
                e.node_id = node.state.descriptor.node_id
                raise
            choice = choose_link(node.state.descriptor, tick.position, topo)
            arrival_t = choice.arrival(t)
            fates = [route_measurement(choice, rng) for _ in tick.values]
            calls.append((tick, fates, arrival_t))
            direct = choice.outcome is DeliveryOutcome.DELIVERED_TO_SERVER
            late = not direct and arrival_t >= window_end
            for q, fate in zip(tick.quantities, fates):
                tally = tallies[tick.node_id, q]
                tally.emitted += 1
                if fate.outcome is DeliveryOutcome.LOST:
                    tally.lost += 1
                elif direct:
                    tally.to_server += 1
                else:
                    tally.to_coordinator += 1
                    tally.dropped += late
    return calls, tallies
