"""Append-only, day-partitioned measurement persistence.

File format (normative, one record per line, comma separated):

    record    = timestamp "," node_id "," lat "," lon "," quantity ","
                value "," unit "," flags
    timestamp = ISO-8601 UTC, integer seconds, e.g. 2015-04-01T00:05:00Z
    node_id   = [A-Za-z0-9_-]+
    lat, lon  = decimal degrees, shortest exact decimal representation
    quantity  = code from domain.Quantity
    value     = shortest exact decimal representation (round-trips bit-exact)
    unit      = unit string of the quantity (redundant, for self-description)
    flags     = semicolon-joined flag codes, sorted; empty when clean

Files are partitioned by UTC day (``measurements-YYYY-MM-DD.txt``) and kept
sorted by (timestamp, node_id, quantity). Duplicate (node, timestamp,
quantity) triples are rejected idempotently on append.

Loading validates every record as ``append`` does; both check node ids
against ``domain.NODE_ID``. Files are read line by line and split at ``\n``
only. A number (lat, lon, value) is text ``float`` reads without stripping
whitespace, skipping an ``_`` or reading a non-ASCII digit; anything else
is a data error. Timestamps, positions, flag sets, node ids and quantity
codes repeat across lines, so one load parses and validates each distinct
field value once and its records share the result; each line's value and
unit are still checked on their own.

Loading also checks the order of the records, taking each record's key
(timestamp, node_id, quantity code) from its line. While every key is
greater than the one before, the records are already in ``all()`` order,
and a duplicate triple shows as an equal adjacent key. Once a key is out of
order (a hand-edited file), the rest of the load checks duplicates against
the set of keys loaded so far, and ``all()`` sorts. A duplicate is a data
error naming its file and line, never a reading counted twice. The key set
``append`` needs for its idempotence is built on the first ``append``, so a
store opened only for reading never builds it.
"""

from __future__ import annotations

import os
from contextlib import ExitStack, contextmanager
from pathlib import Path as FsPath
from typing import Iterable, Iterator, TextIO

from .domain import (
    SECONDS_PER_DAY,
    Flag,
    GeoPoint,
    Measurement,
    QUANTITY_CODES,
    Quantity,
    ReportBatch,
    UNITS,
    ValidationError,
    format_utc,
    parse_utc,
    validate_measurement,
    validate_node_id,
)


class StorageError(OSError):
    """Raised when the backing files cannot be read or written."""


@contextmanager
def atomic_writer(path: str | FsPath) -> Iterator[TextIO]:
    """The open temporary file that replaces ``path`` once the block ends
    without an exception. It lives in the same directory and is renamed by
    ``os.replace``, so the block can write line by line: a failure part-way
    leaves the old file and no temporary."""
    path = FsPath(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_atomic(path: str | FsPath, text: str) -> None:
    """Replace ``path`` by ``text`` through :func:`atomic_writer`."""
    with atomic_writer(path) as f:
        f.write(text)


# Flag set -> its record text. Sets compare by content, so there is at most
# one entry per subset of ``Flag``.
_FLAGS_TEXT: dict[frozenset[Flag], str] = {}


def serialize_measurement(m: Measurement) -> str:
    flags = _FLAGS_TEXT.get(m.flags)
    if flags is None:
        flags = _FLAGS_TEXT[m.flags] = ";".join(sorted(f.value for f in m.flags))
    return (
        f"{format_utc(m.timestamp)},{m.node_id},{m.position.lat!r},{m.position.lon!r},"
        f"{QUANTITY_CODES[m.quantity]},{m.value!r},{m.unit},{flags}"
    )


# A record's sort key: (timestamp, node_id, quantity code).
RecordKey = tuple[int, str, str]


def _number(field_name: str, text: str) -> float:
    """``float(text)`` for a number of the record grammar. Text ``float``
    rejects is a ValidationError, and so is text it reads only by going
    beyond the grammar: skipping an ``_``, stripping whitespace (ASCII or
    not) from the ends, or reading non-ASCII digits."""
    if "_" in text or text.strip() != text or not text.isascii():
        raise ValidationError(field_name, f"bad number {text!r}")
    try:
        return float(text)
    except ValueError:
        raise ValidationError(field_name, f"bad number {text!r}") from None


# The frozen dataclass __init__ runs object.__setattr__ once per field. The
# parser makes each record with __new__ and fills it through the slots' own
# setters instead, which builds the same record in half the time;
# validate_measurement then checks it as before.
_new_record = Measurement.__new__
_set_node_id, _set_timestamp, _set_position, _set_quantity, _set_value, _set_flags = (
    getattr(Measurement, name).__set__
    for name in ("node_id", "timestamp", "position", "quantity", "value", "flags")
)


class _RecordParser:
    """Parses record lines, running the strict parse of each distinct
    timestamp, position, flags, node id and quantity text once per parser."""

    def __init__(self):
        self._node_ids: dict[str, str] = {}
        self._quantities: dict[str, tuple[Quantity, str]] = {}
        self._timestamps: dict[str, int] = {}
        self._positions: dict[tuple[str, str], GeoPoint] = {}
        self._flags: dict[str, frozenset[Flag]] = {}

    def __call__(self, line: str) -> tuple[RecordKey, Measurement]:
        """The sort key and the validated record of one line, given
        without its line end."""
        parts = line.split(",")
        if len(parts) != 8:
            raise ValueError(f"malformed record: {line!r}")
        ts, node_id, lat, lon, qcode, value, unit, flags = parts
        known_id = self._node_ids.get(node_id)
        if known_id is None:
            known_id = self._node_ids[node_id] = validate_node_id(node_id)
        known_quantity = self._quantities.get(qcode)
        if known_quantity is None:
            quantity = Quantity(qcode)
            known_quantity = self._quantities[qcode] = (quantity, UNITS[quantity])
        quantity, expected_unit = known_quantity
        if unit != expected_unit:
            raise ValueError(f"unit {unit!r} does not match quantity {qcode}")
        timestamp = self._timestamps.get(ts)
        if timestamp is None:
            timestamp = self._timestamps[ts] = parse_utc(ts)
        position = self._positions.get((lat, lon))
        if position is None:
            position = self._positions[lat, lon] = GeoPoint(
                _number("lat", lat), _number("lon", lon))
        value = _number("value", value)
        flag_set = self._flags.get(flags)
        if flag_set is None:
            flag_set = self._flags[flags] = frozenset(Flag(f) for f in flags.split(";") if f)
        m = _new_record(Measurement)
        _set_node_id(m, known_id)
        _set_timestamp(m, timestamp)
        _set_position(m, position)
        _set_quantity(m, quantity)
        _set_value(m, value)
        _set_flags(m, flag_set)
        return (timestamp, known_id, qcode), validate_measurement(m)


def parse_measurement(line: str) -> Measurement:
    return _RecordParser()(line.rstrip("\n"))[1]


def _sort_key(m: Measurement) -> RecordKey:
    return (m.timestamp, m.node_id, QUANTITY_CODES[m.quantity])


def _duplicate(key: RecordKey) -> ValueError:
    timestamp, node_id, qcode = key
    return ValueError(f"duplicate record: {node_id} {qcode} at {format_utc(timestamp)}")


class MeasurementStore:
    """Day-partitioned measurement files under one directory.

    Single writer, many readers. ``append`` buffers in memory; ``flush``
    (also called on close / context exit) rewrites the affected day files
    with their records in timestamp order. Records are never mutated or
    deleted, only added. An ``overwrite`` store starts empty without
    reading the old day files, and its ``flush`` deletes those it did not
    rewrite.
    """

    def __init__(self, root: str | FsPath, overwrite: bool = False):
        self.root = FsPath(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            files = sorted(self.root.glob("measurements-*.txt"))
            self._stale = set(files) if overwrite else set()
            self._records: list[Measurement] = []
            self._in_order = self._load([] if overwrite else files)
        except OSError as e:
            raise StorageError(f"cannot open store at {self.root}: {e}") from e
        # (node, timestamp, quantity) of every record, built on first append
        self._keys: set[tuple[str, int, Quantity]] | None = None
        self._node_ids: set[str] = set()  # appended ids already checked
        self._dirty_days: set[int] = set()  # UTC day numbers

    def _load(self, files: list[FsPath]) -> bool:
        """Append the records of ``files`` to ``_records``, rejecting
        duplicates; True iff they came in strictly ascending key order.
        Each file is read line by line, so no load holds all its lines."""
        parse = _RecordParser()
        records = self._records
        last: RecordKey | None = None
        seen: set[RecordKey] | None = None  # keys so far, once out of order
        for f in files:
            with f.open() as lines:
                for lineno, line in enumerate(lines, 1):
                    try:
                        key, m = parse(line.rstrip("\n"))
                        if seen is None:
                            if last is None or key > last:
                                last = key
                            elif key == last:
                                raise _duplicate(key)
                            else:
                                seen = {_sort_key(r) for r in records}
                        if seen is not None:
                            if key in seen:
                                raise _duplicate(key)
                            seen.add(key)
                    except ValueError as e:
                        raise ValueError(f"{f.name} line {lineno}: {e}") from e
                    records.append(m)
        return seen is None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.flush()

    def __len__(self) -> int:
        return len(self._records)

    def append(self, batch: ReportBatch | Iterable[Measurement] | Measurement) -> int:
        """Persist new measurements; returns how many were actually written.

        Re-appending an already stored (node, timestamp, quantity) triple is
        a no-op, so replays are idempotent. Each record is validated, and
        each distinct node id checked against ``domain.NODE_ID``, as a load
        would, so the store never writes a line it then refuses to read.
        """
        if isinstance(batch, ReportBatch):
            items: Iterable[Measurement] = batch.measurements
        elif isinstance(batch, Measurement):
            items = (batch,)
        else:
            items = batch
        if self._keys is None:
            self._keys = {(m.node_id, m.timestamp, m.quantity) for m in self._records}
        written = 0
        for m in items:
            validate_measurement(m)
            if m.node_id not in self._node_ids:
                self._node_ids.add(validate_node_id(m.node_id))
            key = (m.node_id, m.timestamp, m.quantity)
            if key in self._keys:
                continue
            self._keys.add(key)
            self._records.append(m)
            self._dirty_days.add(m.timestamp // SECONDS_PER_DAY)
            written += 1
        if written:
            self._in_order = False
        return written

    def flush(self) -> None:
        """Rewrite every affected day file. Each day is written to its
        temporary file and none replaces its day until all are written, so
        a failure part-way leaves every old file; only then are the old
        days an overwriting store did not rewrite deleted."""
        if not self._dirty_days and not self._stale:
            return
        by_day: dict[int, list[Measurement]] = {}
        for m in self._records:
            day = m.timestamp // SECONDS_PER_DAY
            if day in self._dirty_days:
                by_day.setdefault(day, []).append(m)
        written: set[FsPath] = set()
        try:
            with ExitStack() as replace_all:
                for day, records in sorted(by_day.items()):
                    records.sort(key=_sort_key)
                    date = format_utc(day * SECONDS_PER_DAY)[:10]
                    path = self.root / f"measurements-{date}.txt"
                    out = replace_all.enter_context(atomic_writer(path))
                    out.writelines(f"{serialize_measurement(m)}\n" for m in records)
                    written.add(path)
            for f in self._stale - written:
                f.unlink(missing_ok=True)
        except OSError as e:
            raise StorageError(f"cannot write store at {self.root}: {e}") from e
        self._dirty_days.clear()
        self._stale.clear()

    def all(self) -> list[Measurement]:
        """Every record, in (timestamp, node_id, quantity) order."""
        if self._in_order:
            return list(self._records)
        return sorted(self._records, key=_sort_key)


# --------------------------------------------------------------------------
# Delivery log (one line per emitted measurement)
#
#   emitted-ts,node_id,quantity,outcome,link,arrival-ts
#
# arrival-ts and link are empty for lost messages.


def serialize_delivery(
    emitted_t: int,
    node_id: str,
    quantity: Quantity,
    outcome: str,
    link: str | None,
    arrival_t: int | None,
) -> str:
    arrival = format_utc(arrival_t) if arrival_t is not None else ""
    return (
        f"{format_utc(emitted_t)},{node_id},{QUANTITY_CODES[quantity]},{outcome},"
        f"{link or ''},{arrival}"
    )

