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
    flags     = semicolon-joined flag names (domain.Flag), sorted; empty when clean

Files are partitioned by UTC day (``measurements-YYYY-MM-DD.txt``) and
sorted by ``domain.RecordKey``: (timestamp, node_id, quantity code), the
order of every coordinator batch too. ``format_tick`` owns the record line.
``DayFiles`` streams node ticks (``domain.NodeTick``, each reading's flags
a one-byte ``domain.FLAG_SETS`` code, written as its set's text) into them
window by window, each tick's lines as one run, with at most one day file
open at a time, into an ``OutputSet``: the one writer of every command's
files, which replaces a directory's old set only once the new one is whole.

Loading validates every record as writing does, and each file must be named
for the UTC day of every stamp it holds. Both refuse a key that is not
above the one before it: a duplicate triple if equal, a record out of order
if lower. Files are read in name order, as UTF-8 (a stray byte stays in its
field, which refuses it) and split at ``\n`` only, in one pass that parses
a tick's ``ts,node,lat,lon`` prefix once. A number (lat, lon, value) is text
``float`` reads without stripping whitespace, skipping an ``_`` or reading a
non-ASCII digit; anything else is a data error, and each names its file and
line. ``read_days`` checks every line of every file, but keeps only the
channels its caller selects, one ``Channel`` per (node, quantity): compact
columns of stamps, values and flag codes, and a position per reading only
where the node moved. It hands them on one day file at a time;
``MeasurementStore`` holds them all.
"""

from __future__ import annotations

import math
import os
from array import array
from bisect import bisect_left
from contextlib import ExitStack, contextmanager
from operator import attrgetter
from pathlib import Path as FsPath
from typing import Callable, Iterable, Iterator, NamedTuple, TextIO

from .domain import (
    FLAG_CODES, FLAG_SETS, SECONDS_PER_DAY, UNITS, QUANTITY_CODES, VALUE_RANGE, Flag, GeoPoint,
    NodeTick, Quantity, RecordKey, ValidationError, format_utc, parse_utc, tick_key,
    validate_node_id, validate_value,
)


class StorageError(OSError):
    """Raised when the backing files cannot be read or written."""


def _temporary(path: FsPath) -> FsPath:
    return path.with_name(f".{path.name}.tmp")


class OutputSet:
    """The files one command writes under ``directory``, replaced as a
    whole. ``open(name)`` streams one file to a temporary beside it and
    closes it when its block ends; blocks may overlap, as ``simulate``'s
    delivery log stays open while its day files stream. A name opens once
    per set. When the set's block ends cleanly, every
    temporary is renamed into place, then the old files matching
    ``stale_glob`` that the set did not write are deleted. An exception
    removes every temporary and every directory the set created, and leaves
    the old files as they were; any OSError, from creating the directory
    on, becomes one StorageError."""

    def __init__(self, directory: str | FsPath, stale_glob: str):
        self.directory = FsPath(directory)
        self.stale_glob = stale_glob
        self.paths: list[FsPath] = []  # every file opened, in order
        self._made: list[FsPath] = []  # the directories the set created, deepest first

    def __enter__(self) -> OutputSet:
        directory = self.directory
        while not directory.exists():
            self._made.append(directory)
            directory = directory.parent
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            self._unmake()
            raise StorageError(f"cannot write {self.directory}: {e}") from e
        return self

    def _unmake(self) -> None:
        try:
            for directory in self._made:
                directory.rmdir()
        except OSError:  # not there, or no longer empty: leave it and its parents
            pass

    @contextmanager
    def open(self, name: str, buffer: int = -1) -> Iterator[TextIO]:
        """``name``'s temporary, open to write; with a ``buffer`` size, what
        is written is held only in a byte buffer of that size, for a set
        that keeps many files open at once."""
        path = self.directory / name
        if path in self.paths:  # its temporary holds what the set wrote
            raise ValueError(f"{name} is already part of this output set")
        self.paths.append(path)
        with open(_temporary(path), "w", buffering=buffer, newline="\n") as f:
            if buffer > 0:
                f.reconfigure(write_through=True)  # no text waits above the bytes
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
        self._unmake()
        if isinstance(exc, OSError) and not isinstance(exc, StorageError):
            raise StorageError(f"cannot write {self.directory}: {exc}") from exc


# Flag code (``domain.FLAG_SETS``) -> the record text of its set.
_FLAGS_TEXT = tuple(";".join(sorted(f.value for f in flags)) for flags in FLAG_SETS)


# Quantity -> the record text on either side of a value: "code," and ",unit,".
_VALUE_TEXT = {q: (f"{code},", f",{UNITS[q]},") for q, code in QUANTITY_CODES.items()}


def format_tick(tick: NodeTick) -> str:
    """The record lines of ``tick``, each ended by ``\n``: the one owner of
    the record format. The ``ts,node,lat,lon,`` prefix is formatted once."""
    position = tick.position
    prefix = f"{format_utc(tick.timestamp)},{tick.node_id},{position.lat!r},{position.lon!r},"
    return "".join([f"{prefix}{code}{value!r}{unit}{_FLAGS_TEXT[flag_code]}\n"
                    for (code, unit), value, flag_code
                    in zip(map(_VALUE_TEXT.__getitem__, tick.quantities), tick.values, tick.flags)])


# Quantity code -> (quantity, unit, low, high); the bounds are ``VALUE_RANGE``'s,
# made finite so that ``low <= value <= high`` also refuses what is not finite.
_READINGS = {code: (q, UNITS[q], *(math.nextafter(b, 0.0) if math.isinf(b) else b
                                   for b in VALUE_RANGE[q])) for q, code in QUANTITY_CODES.items()}


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
    timestamp, position, flags, node id and quantity text once per parser.
    A flags text is read as its set's one-byte code (``domain.FLAG_SETS``),
    in any order of its flags."""

    def __init__(self):
        self._node_ids: dict[str, str] = {}
        self._timestamps: dict[str, int] = {}
        self._positions: dict[tuple[str, str], GeoPoint] = {}
        self._flags: dict[str, int] = {}

    def __call__(self, line: str) -> tuple[RecordKey, Quantity, GeoPoint, float, int]:
        """The checked fields of one line, given without its line end: its
        key (``domain.RecordKey``), quantity, position, value and flag code."""
        parts = line.split(",")
        if len(parts) != 8:
            raise ValueError(f"malformed record: {line!r}")
        ts, node_id, lat, lon, qcode, value, unit, flags = parts
        known_id = self._node_ids.get(node_id)
        if known_id is None:
            known_id = self._node_ids[node_id] = validate_node_id(node_id)
        if qcode not in _READINGS:
            Quantity(qcode)  # raises: no quantity has this code
        quantity, expected_unit, _, _ = _READINGS[qcode]
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
        flag_code = self._flags.get(flags)
        if flag_code is None:
            flag_code = self._flags[flags] = FLAG_CODES[
                frozenset(Flag(f) for f in flags.split(";") if f)]
        validate_value(quantity, value)
        return (timestamp, known_id, qcode), quantity, position, value, flag_code


_stamp = attrgetter("timestamp")


def _order_error(last: RecordKey | tuple[()], key: RecordKey) -> ValueError:
    """The error for ``key``, which follows ``last`` but is not above it."""
    timestamp, node_id, qcode = key
    reason = "duplicate record" if key == last else "record out of order"
    return ValueError(f"{reason}: {node_id} {qcode} at {format_utc(timestamp)}")


class DayFiles:
    """Streams node ticks into the day files of ``files``. ``add`` checks
    ticks as a load would check their records, and holds them;
    ``write_before(t)`` writes every held tick stamped before ``t``, in
    (timestamp, node) order, a tick's lines in one write, into the open day
    file, which it closes at UTC midnight to open the next. A tick's first
    record must be above the last one written: equal is a duplicate, lower
    is out of order, and either is a ValueError naming the triple, after
    which nothing more is written. Ticks that share a (timestamp, node) keep
    the order they were added in, so the second is written only if its
    quantities follow the first's. Leaving the block cleanly writes the
    rest."""

    def __init__(self, files: OutputSet):
        self._files = files
        self._held: list[NodeTick] = []
        self._node_ids: set[str] = set()
        # Checked quantities -> the finite bounds of each (``_READINGS``).
        self._in_range: dict[tuple[Quantity, ...], list[tuple[float, float]]] = {}
        self._last: RecordKey | tuple[()] = ()  # () sorts before every key
        self._day_end = -math.inf  # end of the open file's UTC day
        self._open = ExitStack()  # holds the open day file, ``_out``
        self._out: TextIO | None = None
        self.written = 0

    def __enter__(self) -> DayFiles:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        with self._open:
            if exc is None:
                self.write_before(math.inf)

    def add(self, ticks: Iterable[NodeTick]) -> None:
        """Check ``ticks``, holding those with readings until written: each
        stamp, new node id, new ``quantities`` and value."""
        node_ids, in_range, held = self._node_ids, self._in_range, self._held
        for tick in ticks:
            if not tick:
                continue
            if not isinstance(tick.timestamp, int):
                raise ValidationError("timestamp", "must be integer seconds UTC")
            if tick.node_id not in node_ids:
                node_ids.add(validate_node_id(tick.node_id))
            bounds = in_range.get(tick.quantities)
            if bounds is None:
                codes = [QUANTITY_CODES[q] for q in tick.quantities]
                for before, code in zip(codes, codes[1:]):
                    if code <= before:
                        raise _order_error((tick.timestamp, tick.node_id, before),
                                           (tick.timestamp, tick.node_id, code))
                bounds = in_range[tick.quantities] = [_READINGS[code][2:] for code in codes]
            if not all([low <= value <= high for (low, high), value in zip(bounds, tick.values)]):
                for q, value in zip(tick.quantities, tick.values):
                    validate_value(q, value)  # raises, naming the first value out of range
            held.append(tick)

    def write_before(self, t: float) -> None:
        held = self._held
        held.sort(key=tick_key)
        cut = bisect_left(held, t, key=_stamp)
        ticks = held[:cut]
        del held[:cut]
        last, day_end, out = self._last, self._day_end, self._out
        for tick in ticks:
            timestamp, node_id, quantities = tick.timestamp, tick.node_id, tick.quantities
            first = (timestamp, node_id, QUANTITY_CODES[quantities[0]])
            if first <= last:
                raise _order_error(last, first)
            if timestamp >= day_end:
                day_start = timestamp // SECONDS_PER_DAY * SECONDS_PER_DAY
                day_end = day_start + SECONDS_PER_DAY
                self._open.close()
                name = f"measurements-{format_utc(day_start)[:10]}.txt"
                out = self._open.enter_context(self._files.open(name))
            out.write(format_tick(tick))
            last = (timestamp, node_id, QUANTITY_CODES[quantities[-1]])
            self.written += len(tick)
        self._last, self._day_end, self._out = last, day_end, out


class Channel(NamedTuple):
    """The readings of one (node, quantity) in timestamp order, as compact
    columns: stamps (none where the read step keeps none), values, flag
    codes (``domain.FLAG_SETS``) and positions, one per reading once the
    node has moved, else the one place all its readings share."""

    timestamps: array  # of 'q'
    values: array  # of 'd'
    flags: bytearray
    positions: list[GeoPoint]

    @classmethod
    def at(cls, position: GeoPoint) -> Channel:
        """An empty channel whose readings start at ``position``."""
        return cls(array("q"), array("d"), bytearray(), [position])

    def place(self, position: GeoPoint) -> None:
        """Note that the reading just appended is at ``position``, which is
        not the very object of the one place all readings so far share."""
        positions = self.positions
        if repr(positions[0]) == repr(position):  # equal, and so is the sign of a zero
            positions[0] = position  # so the next reading there passes ``is``
        else:  # the node moved: one position per reading from here on
            positions *= len(self.values) - 1
            positions.append(position)


# (node id, quantity) -> its channel; only a pair with readings has one.
Channels = dict[tuple[str, Quantity], Channel]

# Whether a read step keeps the channel of a (node id, quantity).
Selection = Callable[[str, Quantity], bool]


class Day(NamedTuple):
    """The kept channels of one day file, the stamps of its first and last
    reading, kept or not, and the end of its UTC day: every reading of a
    later day file is stamped at or after it."""

    channels: Channels
    first: int
    last: int
    end: int


def count_readings(channels: Channels) -> int:
    return sum(len(channel.values) for channel in channels.values())


def _day_start(name: str) -> int:
    """The first second of the UTC day ``measurements-YYYY-MM-DD.txt`` names."""
    try:  # parse_utc takes only what format_utc writes
        return parse_utc(f"{name.removeprefix('measurements-').removesuffix('.txt')}T00:00:00Z")
    except ValueError:
        raise ValueError(f"{name}: not a day file name, measurements-YYYY-MM-DD.txt") from None


def read_days(root: str | FsPath, keep: Selection | None = None, timestamps: bool = True,
              into: Channels | None = None) -> Iterator[Day]:
    """The checked readings of the day files under ``root``, one ``Day`` per
    file that holds any, in name order. Every line is checked; the channels
    ``keep`` selects (all by default, each asked once per file) are kept,
    with their stamps unless ``timestamps`` is false. Each day's channels
    are a dict of its own, or the channels of every file go into ``into``.
    An OSError is a StorageError.

    Every key (taken from the line) must be above the one before it, in its
    file or the file before, so each channel grows in timestamp order, and
    its stamp must fall on the UTC day its file is named for. A line that
    repeats the ``ts,node,lat,lon`` prefix of the line before it has only
    its reading checked inline; any other line, or one those checks doubt,
    goes through ``_RecordParser`` and the order and day checks, which own
    every message."""
    root = FsPath(root)
    try:
        yield from _read(sorted(root.glob("measurements-*.txt")), keep, timestamps, into)
    except OSError as e:
        raise StorageError(f"cannot open store at {root}: {e}") from e


def _read(files: list[FsPath], keep: Selection | None, keep_stamps: bool,
          into: Channels | None) -> Iterator[Day]:
    flag_codes: dict[str, int] = {}  # flags text, line end and all -> flag code
    channels = {} if into is None else into
    by_node: dict[str, dict[Quantity, Channel | None]] = {}  # the same channels, by node
    timestamp, node_id, code = -math.inf, "", ""  # the last key, below every key
    for f in files:
        day_start = _day_start(f.name)
        day_end = day_start + SECONDS_PER_DAY
        if into is None:
            channels, by_node = {}, {}
        parse = _RecordParser()  # its caches hold one file's texts
        head = None  # the prefix of the file's last line parsed in full
        first = None
        with f.open(encoding="utf-8", errors="surrogateescape", newline="\n") as lines:
            for lineno, line in enumerate(lines, 1):
                fields = line.rsplit(",", 4)
                value = None
                if fields[0] == head:  # 8 fields, and the key's stamp and node are the last
                    _, qcode, text, unit, flag_text = fields
                    reading = _READINGS.get(qcode)
                    flag_code = flag_codes.get(flag_text)
                    if (reading and unit == reading[1] and flag_code is not None and qcode > code
                            and "_" not in text and text.isascii() and text.strip() == text):
                        try:
                            number = float(text)
                        except ValueError:
                            number = math.nan
                        if reading[2] <= number <= reading[3]:
                            quantity, value, code = reading[0], number, qcode
                if value is None:
                    last = (timestamp, node_id, code)
                    try:
                        key, quantity, position, value, flag_code = parse(line.rstrip("\n"))
                        if key <= last:
                            raise _order_error(last, key)
                        if not day_start <= key[0] < day_end:
                            raise ValueError(f"timestamp {format_utc(key[0])} is not on "
                                             f"{format_utc(day_start)[:10]}")
                    except ValueError as e:
                        raise ValueError(f"{f.name} line {lineno}: {e}") from e
                    head, (timestamp, node_id, code) = fields[0], key
                    if first is None:
                        first = timestamp
                    flag_codes[fields[4]] = flag_code
                    node_channels = by_node.setdefault(node_id, {})
                channel = node_channels.get(quantity, False)
                if channel is False:  # the channel's first reading: keep it or not
                    channel = node_channels[quantity] = (
                        Channel.at(position) if keep is None or keep(node_id, quantity) else None)
                    if channel is not None:
                        channels[node_id, quantity] = channel
                if channel is not None:  # the reading joins each column
                    stamps, values, codes, positions = channel
                    if keep_stamps:
                        stamps.append(timestamp)
                    values.append(value)
                    codes.append(flag_code)
                    if len(positions) > 1:
                        positions.append(position)
                    elif positions[0] is not position:
                        channel.place(position)
        if first is not None:
            day = [Day(channels, first, timestamp, day_end)]
            if into is None:  # keep nothing of a day once handed on
                channels = by_node = node_channels = channel = parse = None
            yield day.pop()


class MeasurementStore:
    """The checked readings of the day files under one directory, if any:
    the channels ``keep`` selects (all by default), each whole; see
    ``read_days``. ``len`` counts the readings held."""

    def __init__(self, root: str | FsPath, keep: Selection | None = None,
                 timestamps: bool = True):
        self.root = FsPath(root)
        self.channels: Channels = {}
        for _ in read_days(self.root, keep, timestamps, self.channels):
            pass

    def __len__(self) -> int:
        return count_readings(self.channels)
