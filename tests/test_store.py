import dataclasses
import math
import re
import sys
import tempfile
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from citysense.domain import (
    FLAG_CODES,
    Flag,
    GeoPoint,
    Measurement,
    NodeTick,
    Quantity,
    ValidationError,
    format_utc,
)
from citysense import store as store_module
from citysense.indexes import INDEX_INPUTS
from citysense.netsim import coordinator_uplink
from citysense.store import (
    Channel,
    DayFiles,
    MeasurementStore,
    OutputSet,
    StorageError,
    format_tick,
    read_days,
)
from tests.rows import (
    append, node_ticks, one_reading_ticks, parse_measurement, readings, record_key,
    serialize_measurement, store_rows,
)

P = GeoPoint(43.716, 10.3966)
T0 = 1_429_488_000  # 2015-04-20T00:00:00Z


def meas(node="T1", t=T0, quantity=Quantity.CO2, value=451.0, position=P, flags=frozenset()):
    return Measurement(node, t, position, quantity, value, flags)


def save(root, records):
    """Write ``records`` as the day files of ``root``, as ``simulate`` does,
    each as a tick of its own."""
    with OutputSet(root, "measurements-*.txt") as files:
        with DayFiles(files) as days:
            days.add(one_reading_ticks(records))


def snapshot(root):
    return {p.name: p.read_bytes() for p in root.iterdir()}


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def measurements(draw):
    q = draw(st.sampled_from(list(Quantity)))
    value = draw(finite)
    if q in {Quantity.PM25, Quantity.HC, Quantity.CO2, Quantity.CO, Quantity.O3, Quantity.WIND_SPEED}:
        value = abs(value)
    elif q is Quantity.RELATIVE_HUMIDITY:
        value = draw(st.floats(0.0, 100.0))
    return Measurement(
        node_id=draw(st.from_regex(r"[A-Za-z0-9_-]{1,12}", fullmatch=True)),
        timestamp=draw(st.integers(0, 4_000_000_000)),
        position=GeoPoint(
            draw(st.floats(-90, 90, allow_nan=False)),
            draw(st.floats(-180, 180, allow_nan=False)),
        ),
        quantity=q,
        value=value,
        flags=frozenset(draw(st.sets(st.sampled_from(list(Flag))))),
    )


class TestRecordFormat:
    def test_example_line(self):
        m = meas(flags=frozenset({Flag.QUANTIZED}))
        line = serialize_measurement(m)
        assert line == "2015-04-20T00:00:00Z,T1,43.716,10.3966,co2,451.0,ppmV,quantized"

    def test_a_tick_gives_one_line_per_reading_with_one_prefix(self):
        t = NodeTick("T1", T0, P, (Quantity.CO, Quantity.CO2), [2.5, 451.0],
                     bytes([0, FLAG_CODES[frozenset({Flag.QUANTIZED})]]))
        assert format_tick(t) == (
            "2015-04-20T00:00:00Z,T1,43.716,10.3966,co,2.5,mg/m3,\n"
            "2015-04-20T00:00:00Z,T1,43.716,10.3966,co2,451.0,ppmV,quantized\n")

    def test_flags_are_sorted_and_semicolon_joined(self):
        m = meas(flags=frozenset({Flag.QUANTIZED, Flag.BELOW_LOD}))
        assert serialize_measurement(m).endswith(",below_lod;quantized")

    def test_each_record_gets_its_own_position_text(self):
        q = GeoPoint(43.7195, 10.3966)
        records = [
            meas(quantity=Quantity.CO2), meas(quantity=Quantity.O3),  # one GeoPoint, reused
            meas("T2", position=q), meas(t=T0 + 300),  # back to the first point
            meas("T3", position=GeoPoint(-0.0, 180.0)), meas("T4", position=GeoPoint(0.0, 1e-7)),
        ]
        for m in records:
            fields = serialize_measurement(m).split(",")
            assert fields[2:4] == [repr(m.position.lat), repr(m.position.lon)]

    @given(measurements())
    def test_round_trip_is_bit_exact(self, m):
        assert parse_measurement(serialize_measurement(m)) == m

    def test_parsed_record_is_an_ordinary_frozen_measurement(self):
        m = meas(flags=frozenset({Flag.QUANTIZED}))
        parsed = parse_measurement(serialize_measurement(m))
        assert type(parsed) is Measurement
        assert parsed == m and hash(parsed) == hash(m)
        with pytest.raises(dataclasses.FrozenInstanceError):
            parsed.value = 0.0

    def test_rejects_malformed_line(self):
        with pytest.raises(ValueError):
            parse_measurement("not,a,record")

    @pytest.mark.parametrize("node_id", ["", "T/1", "../evil", "T.1"])
    def test_rejects_node_id_outside_the_grammar(self, node_id):
        line = f"2015-04-20T00:00:00Z,{node_id},43.716,10.3966,co2,451.0,ppmV,"
        with pytest.raises(ValidationError, match="node_id: bad identifier"):
            parse_measurement(line)

    def test_trailing_newline_accepted(self):
        line = "2015-04-20T00:00:00Z,T1,43.716,10.3966,co2,451.0,ppmV,quantized"
        assert parse_measurement(line + "\n") == parse_measurement(line)

    def test_rejects_unit_mismatch(self):
        line = "2015-04-20T00:00:00Z,T1,43.716,10.3966,co2,451.0,mg/m3,"
        with pytest.raises(ValueError):
            parse_measurement(line)


    @pytest.mark.parametrize(
        "qcode,unit,value",
        [("o3", "ug/m3", "nan"), ("co2", "ppmV", "inf"), ("temperature", "degC", "-inf"),
         ("o3", "ug/m3", "-2.5")],
    )
    def test_rejects_invalid_value(self, qcode, unit, value):
        line = f"2015-04-20T00:00:00Z,T1,43.716,10.3966,{qcode},{value},{unit},"
        with pytest.raises(ValidationError, match="value"):
            parse_measurement(line)

    @pytest.mark.parametrize(
        "field,lat,lon,value",
        [
            ("value", "43.716", "10.3966", "4_12.0"),
            ("value", "43.716", "10.3966", " 412.0"),
            ("value", "43.716", "10.3966", "412.0\x0c"),
            ("value", "43.716", "10.3966", "412.0\u2028"),
            ("value", "43.716", "10.3966", "\u0664\u0661\u0662"),  # non-ASCII digits
            ("lat", "4_3.7", "10.3966", "412.0"),
            ("lat", "43.716\t", "10.3966", "412.0"),
            ("lon", "43.716", "\x0b10.3966", "412.0"),
        ],
    )
    def test_rejects_numeric_text_float_would_accept(self, field, lat, lon, value):
        line = f"2015-04-20T00:00:00Z,T1,{lat},{lon},co2,{value},ppmV,"
        assert float(lat) + float(lon) + float(value)  # float() alone takes them
        with pytest.raises(ValidationError, match=f"^{field}: bad number"):
            parse_measurement(line)

    @pytest.mark.parametrize("value", ["412.0", "-3.25", "1e-05", "1.5e+16", "0.0"])
    def test_accepts_every_repr_form(self, value):
        line = f"2015-04-20T00:00:00Z,T1,43.716,10.3966,temperature,{value},degC,"
        assert parse_measurement(line).value == float(value)

    @pytest.mark.parametrize("value", ["100.5", "-0.25"])
    def test_rejects_relative_humidity_outside_0_to_100(self, value):
        line = f"2015-04-20T00:00:00Z,T1,43.716,10.3966,relative_humidity,{value},%,"
        with pytest.raises(ValidationError, match=f"^value: relative_humidity {value} outside"):
            parse_measurement(line)

    @pytest.mark.parametrize("value", ["0.0", "100.0"])
    def test_accepts_relative_humidity_at_its_bounds(self, value):
        line = f"2015-04-20T00:00:00Z,T1,43.716,10.3966,relative_humidity,{value},%,"
        assert parse_measurement(line).value == float(value)

    def test_negative_value_allowed_where_physical(self):
        line = "2015-04-20T00:00:00Z,T1,43.716,10.3966,temperature,-2.5,degC,"
        assert parse_measurement(line).value == -2.5

    @pytest.mark.parametrize(
        "line",
        [
            "2015-04-20T24:00:00Z,T1,43.716,10.3966,co2,451.0,ppmV,",
            "2015-04-20T00:00:00Z,T1,91.0,10.3966,co2,451.0,ppmV,",
            "2015-04-20T00:00:00Z,T1,43.716,10.3966,co2,451.0,ppmV,dusty",
            "2015-04-20T00:00:00Z,T1,43.716,10.3966,nox,451.0,ppmV,",
            "2015-04-20T00:00:00Z,../evil,43.716,10.3966,co2,451.0,ppmV,",
            "2015-04-20T00:00:00Z,T1,43.716,10.3966,relative_humidity,100.5,%,",
        ],
    )
    def test_rejects_bad_field_after_good_lines(self, tmp_path, line):
        # Field values already seen are reused within one load; a new, bad
        # one must still go through the strict parse and fail.
        save(tmp_path, batch_of(27))
        day_file = tmp_path / "measurements-2015-04-20.txt"
        day_file.write_text(day_file.read_text() + line + "\n")
        with pytest.raises(ValueError):
            MeasurementStore(tmp_path)


def tick(node, t, quantities, values=None, position=P):
    """A tick of ``node`` at ``t`` holding ``quantities``, with clean flags."""
    values = values or [451.0] * len(quantities)
    return NodeTick(node, t, position, quantities, values, bytes(len(quantities)))


def batch_of(n, t0=T0):
    return [meas(node=f"N{i % 9}", t=t0 + 300 * (i // 9)) for i in range(n)]


class TestWriteMeasurements:
    def test_round_trip_through_files(self, tmp_path):
        original = sorted(
            (meas(node=f"N{i}", value=451.0 + i / 7.0) for i in range(10)),
            key=lambda m: (m.timestamp, m.node_id, m.quantity.value),
        )
        save(tmp_path, original)
        assert store_rows(MeasurementStore(tmp_path)) == original

    def test_day_partitioning_and_in_file_order(self, tmp_path):
        day = 86400
        ms = [
            meas(t=T0 + day + 600),
            meas(t=T0 + 300),
            meas(t=T0),
            meas(t=T0 + day),
        ]
        save(tmp_path, ms)
        files = sorted(p.name for p in tmp_path.glob("measurements-*.txt"))
        assert files == ["measurements-2015-04-20.txt", "measurements-2015-04-21.txt"]
        for p in tmp_path.glob("measurements-*.txt"):
            stamps = [line.split(",")[0] for line in p.read_text().splitlines()]
            assert stamps == sorted(stamps)

    def test_files_independent_of_record_order(self, tmp_path):
        ms = [meas(node=f"N{i}", t=T0 + 300 * i) for i in range(6)]
        save(tmp_path / "a", ms)
        save(tmp_path / "b", list(reversed(ms)))
        assert snapshot(tmp_path / "a") == snapshot(tmp_path / "b")
        assert store_rows(MeasurementStore(tmp_path / "a")) == store_rows(MeasurementStore(tmp_path / "b")) == ms

    def test_two_day_files_load_in_order(self, tmp_path):
        records = batch_of(27) + [meas(node="A0", t=T0 + 86400)]
        save(tmp_path, list(reversed(records)))
        assert store_rows(MeasurementStore(tmp_path)) == sorted(records, key=record_key) == records

    def test_no_records_write_no_day_file(self, tmp_path):
        save(tmp_path, [])
        assert list(tmp_path.iterdir()) == []

    def test_loaded_records_share_repeated_field_values(self, tmp_path):
        flags = frozenset({Flag.QUANTIZED})
        save(tmp_path, [meas(node=f"N{i}", t=T0 + 300 * (i % 2), flags=flags) for i in range(6)])
        loaded = store_rows(MeasurementStore(tmp_path))
        assert len(loaded) == 6
        assert len({id(m.position) for m in loaded}) == 1
        assert len({id(m.flags) for m in loaded}) == 1
        assert all(m.position == P and m.flags == flags for m in loaded)

    def test_rejects_node_id_the_loader_would_refuse(self, tmp_path):
        with pytest.raises(ValidationError, match="node_id: bad identifier 'a/b'"):
            save(tmp_path, [meas(), meas(node="a/b")])
        assert list(tmp_path.iterdir()) == []

    def test_rejects_a_value_the_loader_would_refuse(self, tmp_path):
        with pytest.raises(ValidationError, match="value: relative_humidity 100.5 outside"):
            save(tmp_path, [meas(), meas(quantity=Quantity.RELATIVE_HUMIDITY, value=100.5)])
        assert list(tmp_path.iterdir()) == []

    def test_checks_each_node_id_once(self, tmp_path, monkeypatch):
        checked = []

        def spy(node_id):
            checked.append(node_id)
            return node_id

        monkeypatch.setattr(store_module, "validate_node_id", spy)
        save(tmp_path, batch_of(27) + batch_of(27, T0 + 900))
        assert sorted(checked) == [f"N{i}" for i in range(9)]

    def test_duplicate_triple_raises_and_keeps_the_old_set(self, tmp_path):
        save(tmp_path, [meas(t=T0 - 300), meas(t=T0)])
        before = snapshot(tmp_path)
        records = batch_of(27) + [meas(node="N4", t=T0 + 600, value=460.0)]
        with pytest.raises(ValueError, match="^duplicate record: N4 co2 at 2015-04-20T00:10:00Z$"):
            save(tmp_path, records)
        assert snapshot(tmp_path) == before  # byte-identical, and no temporary

    def test_a_new_set_replaces_the_old_days(self, tmp_path):
        save(tmp_path, batch_of(27))
        save(tmp_path, [meas()])
        assert store_rows(MeasurementStore(tmp_path)) == [meas()]

    def test_old_days_are_deleted_only_when_the_set_ends(self, tmp_path):
        save(tmp_path, [meas(t=T0 - 300), meas(t=T0)])
        old = sorted(p.name for p in tmp_path.iterdir())
        assert old == ["measurements-2015-04-19.txt", "measurements-2015-04-20.txt"]
        with OutputSet(tmp_path, "measurements-*.txt") as files:
            with DayFiles(files) as days:
                days.add(one_reading_ticks([meas(t=T0 + 300, value=452.0)]))
            assert sorted(p.name for p in tmp_path.iterdir() if p.name in old) == old
        assert [p.name for p in tmp_path.iterdir()] == ["measurements-2015-04-20.txt"]
        assert store_rows(MeasurementStore(tmp_path)) == [meas(t=T0 + 300, value=452.0)]

    def test_failure_in_a_later_day_keeps_every_old_day(self, tmp_path, monkeypatch):
        save(tmp_path, [meas(t=T0 - 300), meas(t=T0)])
        before = snapshot(tmp_path)
        real_format = store_module.format_tick

        def failing_format(tick):
            if tick.timestamp >= T0:  # the second day file
                raise OSError(28, "No space left on device")
            return real_format(tick)

        monkeypatch.setattr(store_module, "format_tick", failing_format)
        with pytest.raises(StorageError, match="No space left"):
            save(tmp_path, [meas(t=T0 - 600), meas(t=T0 + 600)])
        assert snapshot(tmp_path) == before


class TestDayFiles:
    def test_streams_each_watermark_into_its_day_file(self, tmp_path, monkeypatch):
        written = []
        real_format = store_module.format_tick

        def spy(tick):
            written.extend(tick.rows())
            return real_format(tick)

        monkeypatch.setattr(store_module, "format_tick", spy)
        late, early, next_day = meas(node="B", t=T0 - 300), meas(node="A", t=T0 - 300), meas(t=T0)
        with OutputSet(tmp_path, "measurements-*.txt") as files:
            with DayFiles(files) as days:
                days.add(one_reading_ticks([next_day, late]))
                days.add(one_reading_ticks([early]))
                days.write_before(T0 - 300)
                assert written == []
                days.write_before(T0)  # one window's records, in record order
                assert written == [early, late]
                assert days.written == 2
            assert written == [early, late, next_day]  # the block's end writes the rest
            assert files.paths == [tmp_path / "measurements-2015-04-19.txt",
                                   tmp_path / "measurements-2015-04-20.txt"]
        assert store_rows(MeasurementStore(tmp_path)) == [early, late, next_day]

    def test_one_window_across_midnight_splits_at_midnight(self, tmp_path):
        records = [meas(t=T0 + dt) for dt in (-300, 0, 300)]
        with OutputSet(tmp_path, "measurements-*.txt") as files:
            with DayFiles(files) as days:
                days.add(one_reading_ticks(records[::-1]))
                days.write_before(T0 + 600)
        assert snapshot(tmp_path) == {
            "measurements-2015-04-19.txt": f"{serialize_measurement(records[0])}\n".encode(),
            "measurements-2015-04-20.txt": "".join(
                f"{serialize_measurement(m)}\n" for m in records[1:]).encode(),
        }

    def test_a_record_before_the_last_written_one_writes_nothing_more(
        self, tmp_path, monkeypatch
    ):
        save(tmp_path, [meas(t=T0 - 300)])
        before = snapshot(tmp_path)
        written = []
        real_format = store_module.format_tick

        def spy(tick):
            written.extend(tick.rows())
            return real_format(tick)

        monkeypatch.setattr(store_module, "format_tick", spy)
        with pytest.raises(ValueError, match="^record out of order: T1 co2 at 2015-04-20T00:05:00Z$"):
            with OutputSet(tmp_path, "measurements-*.txt") as files:
                with DayFiles(files) as days:
                    days.add(one_reading_ticks([meas(t=T0 + 600)]))
                    days.write_before(T0 + 900)
                    # stamped before the last watermark
                    days.add(one_reading_ticks([meas(t=T0 + 300)]))
                    days.add(one_reading_ticks([meas(t=T0 + 1200)]))
        assert [m.timestamp for m in written] == [T0 + 600]
        assert snapshot(tmp_path) == before  # byte-identical, and no temporary

    def test_a_key_written_before_the_last_watermark_is_a_duplicate(self, tmp_path):
        with pytest.raises(ValueError, match="^duplicate record: T1 co2 at 2015-04-20T00:00:00Z$"):
            with OutputSet(tmp_path, "measurements-*.txt") as files:
                with DayFiles(files) as days:
                    days.add(one_reading_ticks([meas()]))
                    days.write_before(T0 + 300)
                    days.add(one_reading_ticks([meas(value=452.0)]))
        assert list(tmp_path.iterdir()) == []


    def test_a_batch_is_written_as_its_readings_and_each_one_is_checked(self, tmp_path):
        ticks = [tick(n, T0 + dt, (Quantity.CO, Quantity.O3)) for dt in (600, 0, 300)
                 for n in ("T2", "T1")]
        batch = coordinator_uplink("C0", T0, T0 + 900, ticks)
        with OutputSet(tmp_path / "unsorted", "measurements-*.txt") as files:
            with DayFiles(files) as days:
                days.add(node_ticks([m for t in ticks for m in t.rows()][::-1]))
        with OutputSet(tmp_path / "batch", "measurements-*.txt") as files:
            with DayFiles(files) as days:
                days.add(batch.ticks)
                assert days.written == 0
            assert days.written == 12  # readings, not ticks
        assert snapshot(tmp_path / "batch") == snapshot(tmp_path / "unsorted")
        bad = dataclasses.replace(batch.ticks[-1], node_id="T 1")
        with pytest.raises(ValidationError, match="node_id"):
            with OutputSet(tmp_path / "bad", "measurements-*.txt") as files:
                with DayFiles(files) as days:
                    days.add(batch.ticks[:-1] + (bad,))

    def test_a_duplicate_inside_one_group_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="^duplicate record: T1 co2 at 2015-04-20T00:00:00Z$"):
            with OutputSet(tmp_path, "measurements-*.txt") as files:
                with DayFiles(files) as days:
                    days.add(one_reading_ticks([meas(), meas(node="T2"), meas(value=452.0)]))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("quantities, message", [
        ((Quantity.CO, Quantity.CO2, Quantity.CO2), "duplicate record: T1 co2"),
        ((Quantity.CO2, Quantity.O3, Quantity.CO), "record out of order: T1 co"),
    ])
    def test_a_tick_out_of_code_order_is_refused_naming_the_triple(
        self, tmp_path, quantities, message
    ):
        with pytest.raises(ValueError, match=f"^{message} at 2015-04-20T00:00:00Z$"):
            with OutputSet(tmp_path, "measurements-*.txt") as files:
                with DayFiles(files) as days:
                    days.add([tick("T0", T0, (Quantity.CO2,)), tick("T1", T0, quantities)])
        assert list(tmp_path.iterdir()) == []

    def test_two_ticks_of_one_node_and_stamp_are_written_only_in_record_order(self, tmp_path):
        # their codes interleave: co, co2, o3, temperature
        first = tick("T1", T0, (Quantity.CO, Quantity.O3), values=[1.0, 3.0])
        second = tick("T1", T0, (Quantity.CO2, Quantity.TEMPERATURE), values=[2.0, 4.0])
        with pytest.raises(ValueError, match="^record out of order: T1 co at 2015-04-20T00:00:00Z$"):
            with OutputSet(tmp_path, "measurements-*.txt") as files:
                with DayFiles(files) as days:
                    days.add([tick("T2", T0, (Quantity.CO,)), second,
                              tick("T0", T0 + 300, (Quantity.CO,))])
                    days.add([first])
        assert list(tmp_path.iterdir()) == []
        # ticks added in the order of their codes are written as they come
        first = tick("T1", T0, (Quantity.CO, Quantity.CO2), values=[1.0, 2.0])
        second = tick("T1", T0, (Quantity.O3, Quantity.TEMPERATURE), values=[3.0, 4.0])
        with OutputSet(tmp_path, "measurements-*.txt") as files:
            with DayFiles(files) as days:
                days.add([tick("T2", T0, (Quantity.CO,)), first])
                days.add([second])
        lines = (tmp_path / "measurements-2015-04-20.txt").read_text().splitlines()
        rows = [parse_measurement(line) for line in lines]
        assert [(m.node_id, m.quantity.value, m.value) for m in rows] == [
            ("T1", "co", 1.0), ("T1", "co2", 2.0), ("T1", "o3", 3.0), ("T1", "temperature", 4.0),
            ("T2", "co", 451.0)]

    @pytest.mark.parametrize("q, value, reason", [
        (Quantity.TEMPERATURE, math.inf, "not finite: inf"),
        (Quantity.TEMPERATURE, -math.inf, "not finite: -inf"),
        (Quantity.O3, math.nan, "not finite: nan"),
        (Quantity.O3, -0.5, "o3 -0.5 outside [0, inf]"),
    ])
    def test_each_value_of_a_tick_is_checked_as_validate_value_does(
        self, tmp_path, q, value, reason
    ):
        values = {Quantity.CO2: 451.0, Quantity.O3: 51.0, Quantity.TEMPERATURE: 15.0}
        values[q] = value
        quantities = tuple(values)  # in code order
        with pytest.raises(ValidationError, match=f"^value: {re.escape(reason)}$"):
            with OutputSet(tmp_path, "measurements-*.txt") as files:
                with DayFiles(files) as days:
                    days.add([tick("T1", T0, quantities, values=list(values.values()))])
        # the largest finite values pass
        top = sys.float_info.max
        save(tmp_path, [meas(quantity=Quantity.TEMPERATURE, value=-top),
                        meas(t=T0 + 300, quantity=Quantity.TEMPERATURE, value=top)])
        assert len(MeasurementStore(tmp_path)) == 2

    def test_a_tick_stamp_must_be_integer_seconds(self, tmp_path):
        with pytest.raises(ValidationError, match="^timestamp: must be integer seconds UTC$"):
            with OutputSet(tmp_path, "measurements-*.txt") as files:
                with DayFiles(files) as days:
                    days.add([tick("T1", T0 + 0.5, (Quantity.CO2,))])


def _day_file_lines(root):
    (day_file,) = root.glob("measurements-*.txt")
    return day_file, day_file.read_text().splitlines()


class TestLoadLines:
    @pytest.mark.parametrize("sep", ["\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"])
    def test_only_newline_ends_a_record(self, tmp_path, sep):
        # str.splitlines() or universal newlines would cut line 2 in two;
        # the loader reads the separator as part of the value, which is no
        # number.
        save(tmp_path, batch_of(3))
        day_file, lines = _day_file_lines(tmp_path)
        fields = lines[1].split(",")
        fields[5] = fields[5][:2] + sep + fields[5][2:]
        lines[1] = ",".join(fields)
        day_file.write_bytes(("\n".join(lines) + "\n").encode())
        with pytest.raises(ValueError, match=f"^{day_file.name} line 2: value: bad number"):
            MeasurementStore(tmp_path)

    def test_a_crlf_line_end_is_not_a_record_end(self, tmp_path):
        # the "\r" stays in the last field, the flags, where it is no flag
        save(tmp_path, batch_of(3))
        day_file, lines = _day_file_lines(tmp_path)
        day_file.write_bytes(("\r\n".join(lines) + "\r\n").encode())
        message = f"{day_file.name} line 1: " + "'\\r' is not a valid Flag"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MeasurementStore(tmp_path)

    def test_file_without_final_newline_loads(self, tmp_path):
        save(tmp_path, batch_of(3))
        day_file, lines = _day_file_lines(tmp_path)
        day_file.write_text("\n".join(lines))
        assert len(MeasurementStore(tmp_path)) == 3

    def test_blank_line_is_named_by_its_number(self, tmp_path):
        save(tmp_path, batch_of(3))
        day_file, lines = _day_file_lines(tmp_path)
        day_file.write_text("\n".join(lines[:2] + [""] + lines[2:]) + "\n")
        with pytest.raises(ValueError, match=f"^{day_file.name} line 3: malformed record: ''"):
            MeasurementStore(tmp_path)

    def test_missing_directory_holds_no_records_and_is_not_created(self, tmp_path):
        store = MeasurementStore(tmp_path / "missing")
        assert len(store) == 0 and store.channels == {}
        assert not (tmp_path / "missing").exists()


class TestLoadOrder:
    def test_swapped_lines_are_refused_at_the_later_line(self, tmp_path):
        save(tmp_path, batch_of(27))
        day_file, lines = _day_file_lines(tmp_path)
        lines[3], lines[20] = lines[20], lines[3]
        day_file.write_text("\n".join(lines) + "\n")
        message = f"{day_file.name} line 5: record out of order: N4 co2 at 2015-04-20T00:00:00Z"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MeasurementStore(tmp_path)

    def test_duplicate_line_is_rejected_with_its_line(self, tmp_path):
        save(tmp_path, batch_of(27))
        day_file, lines = _day_file_lines(tmp_path)
        lines.insert(6, lines[5])  # an adjacent copy of line 6, as line 7
        day_file.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="measurements-2015-04-20.txt line 7: duplicate record"):
            MeasurementStore(tmp_path)

    def test_a_copy_far_below_the_line_before_is_out_of_order(self, tmp_path):
        save(tmp_path, batch_of(27))
        day_file, lines = _day_file_lines(tmp_path)
        lines.append(lines[0])
        day_file.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 28: record out of order: N0 co2 at 2015-04-20T00:00:00Z"):
            MeasurementStore(tmp_path)

    def test_duplicate_across_day_files_is_rejected(self, tmp_path):
        save(tmp_path, batch_of(9))
        day_file, lines = _day_file_lines(tmp_path)
        (tmp_path / "measurements-2015-04-21.txt").write_text(lines[-1] + "\n")
        with pytest.raises(ValueError, match="measurements-2015-04-21.txt line 1: duplicate"):
            MeasurementStore(tmp_path)


class TestEachFileHoldsItsOwnDay:
    def test_a_file_renamed_to_another_day_is_refused_at_its_first_line(self, tmp_path):
        save(tmp_path, [meas(t=T0 + 86400), meas(node="T2", t=T0 + 86400)])
        (tmp_path / "measurements-2015-04-21.txt").rename(tmp_path / "measurements-2015-04-20.txt")
        message = ("measurements-2015-04-20.txt line 1: "
                   "timestamp 2015-04-21T00:00:00Z is not on 2015-04-20")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MeasurementStore(tmp_path)

    @pytest.mark.parametrize("name", [
        "measurements-notadate.txt", "measurements-2015-02-30.txt", "measurements-2015-4-20.txt",
        "measurements-2015-04-20.txt.txt", "measurements-\u0662015-04-20.txt",
    ])
    def test_a_file_not_named_for_a_day_is_refused(self, tmp_path, name):
        save(tmp_path, batch_of(3))
        (tmp_path / "measurements-2015-04-20.txt").rename(tmp_path / name)
        message = f"{name}: not a day file name, measurements-YYYY-MM-DD.txt"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MeasurementStore(tmp_path)

    def test_the_last_stamp_of_a_day_copied_into_the_next_days_file_is_refused(self, tmp_path):
        # The copy heads the next file under a higher node id, so the order
        # check passes it, and the parser has already read its stamp text.
        last = T0 + 86400 - 300
        save(tmp_path, [meas(node="A", t=last), meas(node="B", t=T0 + 86400)])
        day, next_day = (tmp_path / f"measurements-2015-04-2{d}.txt" for d in (0, 1))
        copy = day.read_text().replace(",A,", ",Z,")
        next_day.write_text(copy + next_day.read_text())
        message = ("measurements-2015-04-21.txt line 1: "
                   "timestamp 2015-04-20T23:55:00Z is not on 2015-04-21")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MeasurementStore(tmp_path)

    def test_files_before_1970_load(self, tmp_path):
        records = [meas(t=-300), meas(t=0)]
        save(tmp_path, records)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "measurements-1969-12-31.txt", "measurements-1970-01-01.txt"]
        assert store_rows(MeasurementStore(tmp_path)) == records


def write_set(root, files, stale_glob="*.dat"):
    """Write ``files`` (name -> text) as one output set under ``root``."""
    with OutputSet(root, stale_glob) as out:
        for name, text in files.items():
            with out.open(name) as f:
                f.write(text)


class TestOutputSet:
    def test_replaces_the_files(self, tmp_path):
        write_set(tmp_path, {"nodes.json": "old\n"})
        write_set(tmp_path, {"nodes.json": "new\n"})
        assert snapshot(tmp_path) == {"nodes.json": b"new\n"}

    def test_streamed_lines_replace_the_file_when_the_set_ends(self, tmp_path):
        path = tmp_path / "log.txt"
        write_set(tmp_path, {"log.txt": "old\n"})
        with OutputSet(tmp_path, "*.dat") as files:
            with files.open("log.txt") as f:
                f.write("new 1\n")
                assert path.read_text() == "old\n"
                f.writelines(["new 2\n", "new 3\n"])
            assert f.closed  # one open file at a time
            assert path.read_text() == "old\n"
            assert (tmp_path / ".log.txt.tmp").read_text() == "new 1\nnew 2\nnew 3\n"
        assert snapshot(tmp_path) == {"log.txt": b"new 1\nnew 2\nnew 3\n"}
        assert files.paths == [path]

    def test_stale_files_go_only_after_a_whole_set(self, tmp_path):
        write_set(tmp_path, {"r.json": "1\n", "a.dat": "1\n", "b.dat": "1\n", "keep.txt": "1\n"})
        write_set(tmp_path, {"r.json": "2\n", "b.dat": "2\n", "c.dat": "2\n"})
        assert snapshot(tmp_path) == {
            "r.json": b"2\n", "b.dat": b"2\n", "c.dat": b"2\n", "keep.txt": b"1\n"}

    def test_failure_part_way_keeps_the_old_set(self, tmp_path):
        write_set(tmp_path, {"r.json": "old\n", "a.dat": "old\n", "b.dat": "old\n"})
        before = snapshot(tmp_path)
        with pytest.raises(RuntimeError, match="run failed"):
            with OutputSet(tmp_path, "*.dat") as files:
                with files.open("r.json") as f:
                    f.write("new\n")
                with files.open("c.dat") as f:
                    f.write("new 1\n")
                    f.flush()
                    assert (tmp_path / ".c.dat.tmp").read_text() == "new 1\n"
                    raise RuntimeError("run failed")
        assert snapshot(tmp_path) == before  # byte-identical, and no temporary

    def test_failed_write_keeps_the_old_set_and_leaves_no_temporary(self, tmp_path):
        write_set(tmp_path, {"nodes.json": "old\n", "a.dat": "old\n"})
        before = snapshot(tmp_path)
        with pytest.raises(UnicodeEncodeError):
            # a lone surrogate fails mid-write, in the set's second file
            write_set(tmp_path, {"nodes.json": "new\n", "b.dat": "new \ud800\n"})
        assert snapshot(tmp_path) == before

    def test_os_error_becomes_one_storage_error(self, tmp_path):
        write_set(tmp_path, {"nodes.json": "old\n"})
        with pytest.raises(StorageError, match="No space left") as raised:
            with OutputSet(tmp_path, "*.dat") as files:
                with files.open("nodes.json") as f:
                    f.write("new\n")
                raise OSError(28, "No space left on device")
        assert isinstance(raised.value.__cause__, OSError)
        assert snapshot(tmp_path) == {"nodes.json": b"old\n"}

    def test_directory_under_a_regular_file_is_a_storage_error(self, tmp_path):
        (tmp_path / "plain").write_text("x\n")
        with pytest.raises(StorageError, match="cannot write"):
            write_set(tmp_path / "plain" / "out", {"nodes.json": "new\n"})
        assert snapshot(tmp_path) == {"plain": b"x\n"}

    def test_a_name_opens_once_per_set(self, tmp_path):
        write_set(tmp_path, {"m-1.txt": "old\n"})
        before = snapshot(tmp_path)
        with pytest.raises(ValueError, match="m-1.txt is already part of this output set"):
            with OutputSet(tmp_path, "*.dat") as files:
                with files.open("m-1.txt") as f:
                    f.write("new 1\n")
                try:
                    with files.open("m-1.txt") as f:
                        f.write("new 2\n")
                finally:  # refused before touching the first part's temporary
                    assert (tmp_path / ".m-1.txt.tmp").read_text() == "new 1\n"
        assert snapshot(tmp_path) == before  # the old set, and no temporary

    def test_creates_the_directory(self, tmp_path):
        write_set(tmp_path / "a" / "b", {"nodes.json": "new\n"})
        assert snapshot(tmp_path / "a" / "b") == {"nodes.json": b"new\n"}

    def test_a_small_buffer_holds_at_most_its_size(self, tmp_path):
        with OutputSet(tmp_path, "*.dat") as files:
            with files.open("a.dat", buffer=16) as f:
                f.write("0123456789\n")
                assert (tmp_path / ".a.dat.tmp").read_text() == ""
                f.write("abcdefghij\n")
                assert (tmp_path / ".a.dat.tmp").read_text().startswith("0123456789\n")
        assert snapshot(tmp_path) == {"a.dat": b"0123456789\nabcdefghij\n"}

    def test_failure_removes_the_directories_the_set_created(self, tmp_path):
        (tmp_path / "a").mkdir()
        with pytest.raises(RuntimeError, match="run failed"):
            with OutputSet(tmp_path / "a" / "b" / "c", "*.dat") as files:
                with files.open("r.dat") as f:
                    f.write("new\n")
                raise RuntimeError("run failed")
        assert [p.name for p in tmp_path.iterdir()] == ["a"]
        assert list((tmp_path / "a").iterdir()) == []


def line_loader(root):
    """The channels of the day files under ``root`` as the store loaded them
    before its one-pass loader: every line through ``_RecordParser``, then
    the order and day checks. The reference the loader must equal."""
    parse = store_module._RecordParser()
    channels = {}
    last = ()
    for f in sorted(root.glob("measurements-*.txt")):
        day_start = store_module._day_start(f.name)
        with f.open(encoding="utf-8", errors="surrogateescape", newline="\n") as lines:
            for lineno, line in enumerate(lines, 1):
                try:
                    key, quantity, position, value, code = parse(line.rstrip("\n"))
                    if key <= last:
                        raise store_module._order_error(last, key)
                    if not day_start <= key[0] < day_start + 86400:
                        raise ValueError(f"timestamp {format_utc(key[0])} is not on "
                                         f"{format_utc(day_start)[:10]}")
                except ValueError as e:
                    raise ValueError(f"{f.name} line {lineno}: {e}") from e
                last = key
                # Each reading keeps its own position, so that how a channel
                # stores them (``Channel.place``) is checked, not shared.
                channel = channels.setdefault((key[1], quantity),
                                              Channel(array("q"), array("d"), bytearray(), []))
                for column, item in zip(channel, (key[0], value, code, position)):
                    column.append(item)
    return channels


def expand(channel):
    """Each reading of a channel: its timestamp, value by ``repr``, flag set
    and position by ``repr``, in order."""
    return [(t, repr(v), flags, repr(p.lat), repr(p.lon)) for t, v, flags, p in readings(channel)]


def outcome(load, root):
    """What ``load(root)`` gives: its channels, each expanded reading by
    reading (``expand``), or its error text."""
    try:
        channels = load(root)
    except ValueError as e:
        return str(e)
    return [(key, expand(channel)) for key, channel in channels.items()]


def index_inputs(_, quantity):
    """The selection of ``citysense indexes``."""
    return quantity in INDEX_INPUTS


def days_outcome(root, keep=None):
    """What ``read_days(root, keep)`` gives, as ``outcome`` does: each
    channel's readings over every day, or its error text."""
    merged = {}
    try:
        for day in read_days(root, keep):
            for key, channel in day.channels.items():
                merged.setdefault(key, []).extend(expand(channel))
    except ValueError as e:
        return str(e)
    return list(merged.items())


def two_day_store():
    """The day files of a small two-day store, by name: fixed and mobile
    nodes, several quantities per tick, flags, and values of every sign."""
    quantities = (Quantity.CO, Quantity.CO2, Quantity.RELATIVE_HUMIDITY, Quantity.TEMPERATURE)
    ticks = []
    for k, t in enumerate(range(T0 + 86400 - 900, T0 + 86400 + 900, 300)):
        for node, position in (("F1", P), ("M1", GeoPoint(43.7 + k * 1e-4, 10.39 - k * 3e-5))):
            ticks.append(NodeTick(node, t, position, quantities,
                                  [2.5e-05 * k, 451.0 + k, 99.5, -1.25 * k],
                                  bytes(FLAG_CODES[frozenset(flags)] for flags in (
                                      {Flag.QUANTIZED}, (), (),
                                      {Flag.BELOW_LOD, Flag.WARMING_UP}))))
    with tempfile.TemporaryDirectory() as tmp:
        with OutputSet(tmp, "measurements-*.txt") as files:
            with DayFiles(files) as days:
                days.add(ticks)
        return {p.name: p.read_text() for p in sorted(Path(tmp).iterdir())}


TWO_DAYS = two_day_store()
ALPHABET = list("0123456789,.-+e_ :;TZx\n\r") + ["\x85", "\u2028", "\u0663", "\udcff", "nan",
                                                    "inf", "co2", "ppmV", "quantized"]


@st.composite
def mutated_stores(draw):
    """``TWO_DAYS`` with one change: a character of one field of a line
    replaced by up to two others, a line dropped or copied, or two lines
    swapped."""
    files = {name: text.split("\n")[:-1] for name, text in TWO_DAYS.items()}
    name = draw(st.sampled_from(sorted(files)))
    lines = files[name]
    i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
    change = draw(st.sampled_from(["char", "char", "char", "drop", "copy", "swap"]))
    if change == "char":  # in a field drawn first, so that short fields get their share
        fields = lines[i].split(",")
        k = draw(st.integers(0, len(fields) - 1))
        at = draw(st.integers(0, len(fields[k])))
        new = "".join(draw(st.lists(st.sampled_from(ALPHABET), max_size=2)))
        fields[k] = fields[k][:at] + new + fields[k][at + 1:]
        lines[i] = ",".join(fields)
    elif change == "drop":
        del lines[i]
    elif change == "copy":
        lines.insert(j, lines[i])
    else:
        lines[i], lines[j] = lines[j], lines[i]
    return {name: "".join(line + "\n" for line in lines) for name, lines in files.items()}


class TestOnePassLoaderEqualsTheLineLoader:
    def test_the_unchanged_store_loads_in_full(self, tmp_path):
        for name, text in TWO_DAYS.items():
            (tmp_path / name).write_text(text)
        assert sorted(TWO_DAYS) == ["measurements-2015-04-20.txt", "measurements-2015-04-21.txt"]
        loaded = outcome(lambda root: MeasurementStore(root).channels, tmp_path)
        assert loaded == outcome(line_loader, tmp_path) and len(loaded) == 8

    @pytest.mark.parametrize("text", [
        "4_51.0", " 451.0", "451.0 ", "451.0\x0c", "4\u06631.0", "451\u2028", "1_0", "nan", "inf",
        "-inf", "1e999", "-1e999", "-0.0", "5e-324", "0x1p3", "+451", "451.", ".5", "1E5", "",
    ])
    @pytest.mark.parametrize("lineno", [1, 2, 8])  # a tick's first line, and lines after it
    def test_each_number_text_of_a_value_loads_or_fails_as_the_line_loader_does(
        self, tmp_path, text, lineno
    ):
        for name, day in TWO_DAYS.items():
            lines = day.split("\n")
            fields = lines[lineno - 1].split(",")
            fields[5] = text
            lines[lineno - 1] = ",".join(fields)
            (tmp_path / name).write_text("\n".join(lines))
        expected = outcome(line_loader, tmp_path)
        assert outcome(lambda root: MeasurementStore(root).channels, tmp_path) == expected

    @settings(max_examples=400)
    @given(mutated_stores())
    def test_a_changed_store_loads_or_fails_as_the_line_loader_does(self, files):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for name, text in files.items():
                (root / name).write_bytes(text.encode("utf-8", "surrogateescape"))
            expected = outcome(line_loader, root)
            assert outcome(lambda r: MeasurementStore(r).channels, root) == expected

    @settings(max_examples=400)
    @given(mutated_stores())
    def test_a_selected_load_refuses_what_a_full_load_refuses(self, files):
        # Day by day with the selection of ``indexes`` (two of the store's
        # four quantities): the full load's input channels, or its error.
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for name, text in files.items():
                (root / name).write_bytes(text.encode("utf-8", "surrogateescape"))
            full = outcome(line_loader, root)
            if not isinstance(full, str):
                full = [(key, rs) for key, rs in full if key[1] in INDEX_INPUTS]
            assert days_outcome(root, index_inputs) == full


class TestReadDays:
    def test_each_day_file_is_a_day_of_its_own(self, tmp_path):
        for name, text in TWO_DAYS.items():
            (tmp_path / name).write_text(text)
        days = list(read_days(tmp_path))
        assert [(format_utc(day.first), format_utc(day.last)) for day in days] == [
            ("2015-04-20T23:45:00Z", "2015-04-20T23:55:00Z"),
            ("2015-04-21T00:00:00Z", "2015-04-21T00:10:00Z")]
        assert days_outcome(tmp_path) == outcome(line_loader, tmp_path)
        whole = MeasurementStore(tmp_path).channels
        for key in whole:  # the days' columns end to end are the store's
            assert expand(whole[key]) == [r for day in days for r in expand(day.channels[key])]

    def test_a_day_keeps_its_span_when_it_keeps_no_channel(self, tmp_path):
        for name, text in TWO_DAYS.items():
            (tmp_path / name).write_text(text)
        days = list(read_days(tmp_path, lambda *_: False))
        assert [day.channels for day in days] == [{}, {}]
        assert [day.first for day in days] == [day.first for day in read_days(tmp_path)]

    def test_stamps_are_kept_only_when_asked(self, tmp_path):
        for name, text in TWO_DAYS.items():
            (tmp_path / name).write_text(text)
        store = MeasurementStore(tmp_path, timestamps=False)
        assert len(store) == 48 and {len(c.timestamps) for c in store.channels.values()} == {0}

    def test_a_fixed_channel_holds_one_position_and_a_moving_one_one_per_reading(self, tmp_path):
        for name, text in TWO_DAYS.items():
            (tmp_path / name).write_text(text)
        channels = MeasurementStore(tmp_path).channels
        assert {key[0]: len(c.positions) for key, c in channels.items()} == {"F1": 1, "M1": 6}
        assert all(isinstance(c.values, array) and c.values.typecode == "d" and
                   c.timestamps.typecode == "q" and isinstance(c.flags, bytearray)
                   for c in channels.values())

    def test_a_node_that_comes_back_still_has_a_position_per_reading(self):
        elsewhere = GeoPoint(43.7, 10.4)
        channel = Channel.at(P)
        for t, position in enumerate([P, P, elsewhere, P]):
            append(channel, t, 1.0, 0, position)
        assert channel.positions == [P, P, elsewhere, P]
        still = Channel.at(P)
        for t in range(3):
            append(still, t, 1.0, 0, GeoPoint(P.lat, P.lon))  # equal, another object
        assert still.positions == [P]

    def test_a_zero_of_the_other_sign_is_another_place(self):
        zero, minus_zero = GeoPoint(0.0, 10.0), GeoPoint(-0.0, 10.0)
        channel = Channel.at(zero)
        for t, position in enumerate([zero, minus_zero, GeoPoint(0.0, 10.0)]):
            append(channel, t, 1.0, 0, position)
        assert [repr(p.lat) for p in channel.positions] == ["0.0", "-0.0", "0.0"]
