"""Row and tick forms of records that tests build for the package's
tick and column interfaces."""

from citysense.domain import Measurement, NodeTick, record_key


def one_reading_ticks(records):
    """Each of ``records`` as a tick of its own, in the order given."""
    return [NodeTick(m.node_id, m.timestamp, m.position, (m.quantity,), [m.value], [m.flags])
            for m in records]


def store_rows(store):
    """Every record of ``store``, in ``domain.record_key`` order: the row
    view of its channels."""
    return sorted((Measurement(node_id, t, position, q, value, flags)
                   for (node_id, q), channel in store.channels.items()
                   for t, value, flags, position in zip(*channel)), key=record_key)
