"""Day-partitioned measurement files: one checked reader, and one writer
of whole output sets.

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

Files are partitioned by UTC day (``measurements-YYYY-MM-DD.txt``) and
sorted by ``domain.record_key``: (timestamp, node_id, quantity), the order
of every coordinator batch too. ``write_measurements`` writes
them into an ``OutputSet``, the one writer of every command's files, which
replaces a directory's old set only once the new one is whole.

Loading validates every record as writing does; both check node ids
against ``domain.NODE_ID``. Files are read line by line and split at ``\n``
only. A number (lat, lon, value) is text ``float`` reads without stripping
whitespace, skipping an ``_`` or reading a non-ASCII digit; anything else
is a data error, and so is a duplicate (node, timestamp, quantity) triple:
each names its file and line.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path as FsPath
from typing import Iterable, Iterator, TextIO

from .domain import (
    SECONDS_PER_DAY,
    Flag,
    GeoPoint,
    Measurement,
    QUANTITY_CODES,
    Quantity,
    RecordKey,
    UNITS,
    ValidationError,
    format_utc,
    parse_utc,
    record_key,
    unchecked_measurement,
    validate_measurement,
    validate_node_id,
)


class StorageError(OSError):
    """Raised when the backing files cannot be read or written."""


def _temporary(path: FsPath) -> FsPath:
    return path.with_name(f".{path.name}.tmp")


class OutputSet:
    """The files one command writes under ``directory``, replaced as a
    whole. ``open(name)`` streams one file to a temporary beside it and
    closes it when its block ends. When the set's block ends cleanly, every
    temporary is renamed into place, then the old files matching
    ``stale_glob`` that the set did not write are deleted. An exception
    removes every temporary and leaves the old files as they were; any
    OSError, from creating the directory on, becomes one StorageError."""

    def __init__(self, directory: str | FsPath, stale_glob: str):
        self.directory = FsPath(directory)
        self.stale_glob = stale_glob
        self.paths: list[FsPath] = []  # every file opened, in order

    def __enter__(self) -> OutputSet:
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise StorageError(f"cannot write {self.directory}: {e}") from e
        return self

    @contextmanager
    def open(self, name: str) -> Iterator[TextIO]:
        path = self.directory / name
        self.paths.append(path)
        with open(_temporary(path), "w") as f:
            yield f

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is None:
            try:
                for path in self.paths:
                    os.replace(_temporary(path), path)
                written = set(self.paths)
                for old in self.directory.glob(self.stale_glob):
                    if old not in written:
                        old.unlink(missing_ok=True)
                return
            except OSError as e:
                exc = e
        for path in self.paths:
            _temporary(path).unlink(missing_ok=True)
        if isinstance(exc, OSError) and not isinstance(exc, StorageError):
            raise StorageError(f"cannot write {self.directory}: {exc}") from exc


# Flag set -> its record text. Sets compare by content, so there is at most
# one entry per subset of ``Flag``.
_FLAGS_TEXT: dict[frozenset[Flag], str] = {}

# The position of the last record serialized, and its ``lat,lon`` text. The
# readings of one node tick share one GeoPoint, and the writer's sort puts
# them next to each other. Holding the point keeps its id from being reused.
_last_position: GeoPoint | None = None
_last_position_text = ""


def serialize_measurement(m: Measurement) -> str:
    global _last_position, _last_position_text
    flags = _FLAGS_TEXT.get(m.flags)
    if flags is None:
        flags = _FLAGS_TEXT[m.flags] = ";".join(sorted(f.value for f in m.flags))
    position = m.position
    if position is not _last_position:
        _last_position = position
        _last_position_text = f"{position.lat!r},{position.lon!r}"
    return (
        f"{format_utc(m.timestamp)},{m.node_id},{_last_position_text},"
        f"{QUANTITY_CODES[m.quantity]},{m.value!r},{m.unit},{flags}"
    )


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
        """The record key (``domain.record_key``), read from the text, and
        the validated record of one line, given without its line end."""
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
        m = unchecked_measurement(known_id, timestamp, position, quantity, value, flag_set)
        return (timestamp, known_id, qcode), validate_measurement(m)


def parse_measurement(line: str) -> Measurement:
    return _RecordParser()(line.rstrip("\n"))[1]


def _duplicate(key: RecordKey) -> ValueError:
    timestamp, node_id, qcode = key
    return ValueError(f"duplicate record: {node_id} {qcode} at {format_utc(timestamp)}")


def write_measurements(files: OutputSet, records: Iterable[Measurement]) -> None:
    """Write ``records`` into ``files`` as day files, each sorted by
    ``domain.record_key``. Each record is validated, and each
    distinct node id checked against ``domain.NODE_ID``, as a load would,
    so no line is written that a load would refuse. A (node, timestamp,
    quantity) triple given twice is a ValueError naming it."""
    by_day: dict[int, list[Measurement]] = {}
    node_ids: set[str] = set()
    for m in records:
        validate_measurement(m)
        if m.node_id not in node_ids:
            node_ids.add(validate_node_id(m.node_id))
        by_day.setdefault(m.timestamp // SECONDS_PER_DAY, []).append(m)
    for day, day_records in sorted(by_day.items()):
        day_records.sort(key=record_key)
        date = format_utc(day * SECONDS_PER_DAY)[:10]
        with files.open(f"measurements-{date}.txt") as out:
            last = None
            for m in day_records:
                key = record_key(m)
                if key == last:
                    raise _duplicate(key)
                last = key
                out.write(f"{serialize_measurement(m)}\n")


class MeasurementStore:
    """The checked records of the day files under one directory, if any."""

    def __init__(self, root: str | FsPath):
        self.root = FsPath(root)
        self._records: list[Measurement] = []
        try:
            self._load(sorted(self.root.glob("measurements-*.txt")))
        except OSError as e:
            raise StorageError(f"cannot open store at {self.root}: {e}") from e

    def _load(self, files: list[FsPath]) -> None:
        """Read the records of ``files`` line by line into ``_records``.
        While every key (taken from the line) is greater than the one
        before, the records are in ``all()`` order and a duplicate shows as
        an equal adjacent key. Once a key is out of order (a hand-edited
        file), the rest of the load checks duplicates against the set of
        keys loaded so far, and the load ends with one sort."""
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
                                seen = {record_key(r) for r in records}
                        if seen is not None:
                            if key in seen:
                                raise _duplicate(key)
                            seen.add(key)
                    except ValueError as e:
                        raise ValueError(f"{f.name} line {lineno}: {e}") from e
                    records.append(m)
        if seen is not None:
            records.sort(key=record_key)

    def __len__(self) -> int:
        return len(self._records)

    def all(self) -> list[Measurement]:
        """Every record, in ``domain.record_key`` order."""
        return list(self._records)


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

