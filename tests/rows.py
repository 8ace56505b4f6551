"""Row and tick forms of records that tests build for the package's
tick and column interfaces."""

from itertools import groupby
from operator import attrgetter

from citysense.domain import Measurement, NodeTick, record_key


def one_reading_ticks(records):
    """Each of ``records`` as a tick of its own, in the order given."""
    return [NodeTick(m.node_id, m.timestamp, m.position, (m.quantity,), [m.value], [m.flags])
            for m in records]


def node_ticks(records):
    """``records`` in ``domain.record_key`` order as ticks, one per run of
    readings that share a stamp, node and position: one tick per (node,
    stamp) where a node has one position per stamp, as ``run`` makes them."""
    ticks = []
    rows = sorted(records, key=record_key)
    for (timestamp, node_id, position), run in groupby(
            rows, attrgetter("timestamp", "node_id", "position")):
        run = list(run)
        ticks.append(NodeTick(node_id, timestamp, position, tuple(m.quantity for m in run),
                              [m.value for m in run], [m.flags for m in run]))
    return ticks


def store_rows(store):
    """Every record of ``store``, in ``domain.record_key`` order: the row
    view of its channels."""
    return sorted((Measurement(node_id, t, position, q, value, flags)
                   for (node_id, q), channel in store.channels.items()
                   for t, value, flags, position in zip(*channel)), key=record_key)
