import dataclasses

import pytest
from hypothesis import given, strategies as st

from citysense.domain import (
    Flag,
    GeoPoint,
    Measurement,
    Quantity,
    ValidationError,
    record_key,
)
from citysense import store as store_module
from citysense.store import (
    DayFiles,
    MeasurementStore,
    OutputSet,
    StorageError,
    parse_measurement,
    serialize_measurement,
    write_measurements,
)

P = GeoPoint(43.716, 10.3966)
T0 = 1_429_488_000  # 2015-04-20T00:00:00Z


def meas(node="T1", t=T0, quantity=Quantity.CO2, value=451.0, position=P, flags=frozenset()):
    return Measurement(node, t, position, quantity, value, flags)


def save(root, records):
    """Write ``records`` as the day files of ``root``, as ``simulate`` does."""
    with OutputSet(root, "measurements-*.txt") as files:
        write_measurements(files, records)


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


def batch_of(n, t0=T0):
    return [meas(node=f"N{i % 9}", t=t0 + 300 * (i // 9)) for i in range(n)]


class TestWriteMeasurements:
    def test_round_trip_through_files(self, tmp_path):
        original = sorted(
            (meas(node=f"N{i}", value=451.0 + i / 7.0) for i in range(10)),
            key=lambda m: (m.timestamp, m.node_id, m.quantity.value),
        )
        save(tmp_path, original)
        assert MeasurementStore(tmp_path).all() == original

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
        assert MeasurementStore(tmp_path / "a").all() == MeasurementStore(tmp_path / "b").all() == ms

    def test_two_day_files_load_in_order(self, tmp_path):
        records = batch_of(27) + [meas(node="A0", t=T0 + 86400)]
        save(tmp_path, list(reversed(records)))
        assert MeasurementStore(tmp_path).all() == sorted(records, key=record_key) == records

    def test_no_records_write_no_day_file(self, tmp_path):
        save(tmp_path, [])
        assert list(tmp_path.iterdir()) == []

    def test_loaded_records_share_repeated_field_values(self, tmp_path):
        flags = frozenset({Flag.QUANTIZED})
        save(tmp_path, [meas(node=f"N{i}", t=T0 + 300 * (i % 2), flags=flags) for i in range(6)])
        loaded = MeasurementStore(tmp_path).all()
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
        assert MeasurementStore(tmp_path).all() == [meas()]

    def test_old_days_are_deleted_only_when_the_set_ends(self, tmp_path):
        save(tmp_path, [meas(t=T0 - 300), meas(t=T0)])
        old = sorted(p.name for p in tmp_path.iterdir())
        assert old == ["measurements-2015-04-19.txt", "measurements-2015-04-20.txt"]
        with OutputSet(tmp_path, "measurements-*.txt") as files:
            write_measurements(files, [meas(t=T0 + 300, value=452.0)])
            assert sorted(p.name for p in tmp_path.iterdir() if p.name in old) == old
        assert [p.name for p in tmp_path.iterdir()] == ["measurements-2015-04-20.txt"]
        assert MeasurementStore(tmp_path).all() == [meas(t=T0 + 300, value=452.0)]

    def test_failure_in_a_later_day_keeps_every_old_day(self, tmp_path, monkeypatch):
        save(tmp_path, [meas(t=T0 - 300), meas(t=T0)])
        before = snapshot(tmp_path)
        real_serialize = store_module.serialize_measurement

        def failing_serialize(m):
            if m.timestamp >= T0:  # the second day file
                raise OSError(28, "No space left on device")
            return real_serialize(m)

        monkeypatch.setattr(store_module, "serialize_measurement", failing_serialize)
        with pytest.raises(StorageError, match="No space left"):
            save(tmp_path, [meas(t=T0 - 600), meas(t=T0 + 600)])
        assert snapshot(tmp_path) == before


class TestDayFiles:
    def test_streams_each_watermark_into_its_day_file(self, tmp_path, monkeypatch):
        written = []
        real_serialize = store_module.serialize_measurement

        def spy(m):
            written.append(m)
            return real_serialize(m)

        monkeypatch.setattr(store_module, "serialize_measurement", spy)
        late, early, next_day = meas(node="B", t=T0 - 300), meas(node="A", t=T0 - 300), meas(t=T0)
        with OutputSet(tmp_path, "measurements-*.txt") as files:
            with DayFiles(files) as days:
                for m in (next_day, late, early):
                    days.add(m)
                days.write_before(T0 - 300)
                assert written == []
                days.write_before(T0)  # one window's records, in record order
                assert written == [early, late]
                assert days.written == 2
            assert written == [early, late, next_day]  # the block's end writes the rest
            assert files.paths == [tmp_path / "measurements-2015-04-19.txt",
                                   tmp_path / "measurements-2015-04-20.txt"]
        assert MeasurementStore(tmp_path).all() == [early, late, next_day]

    def test_one_window_across_midnight_splits_at_midnight(self, tmp_path):
        records = [meas(t=T0 + dt) for dt in (-300, 0, 300)]
        with OutputSet(tmp_path, "measurements-*.txt") as files:
            with DayFiles(files) as days:
                for m in reversed(records):
                    days.add(m)
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
        real_serialize = store_module.serialize_measurement

        def spy(m):
            written.append(m)
            return real_serialize(m)

        monkeypatch.setattr(store_module, "serialize_measurement", spy)
        with pytest.raises(ValueError, match="^record out of order: T1 co2 at 2015-04-20T00:05:00Z$"):
            with OutputSet(tmp_path, "measurements-*.txt") as files:
                with DayFiles(files) as days:
                    days.add(meas(t=T0 + 600))
                    days.write_before(T0 + 900)
                    days.add(meas(t=T0 + 300))  # stamped before the last watermark
                    days.add(meas(t=T0 + 1200))
        assert [m.timestamp for m in written] == [T0 + 600]
        assert snapshot(tmp_path) == before  # byte-identical, and no temporary

    def test_a_key_written_before_the_last_watermark_is_a_duplicate(self, tmp_path):
        with pytest.raises(ValueError, match="^duplicate record: T1 co2 at 2015-04-20T00:00:00Z$"):
            with OutputSet(tmp_path, "measurements-*.txt") as files:
                with DayFiles(files) as days:
                    days.add(meas())
                    days.write_before(T0 + 300)
                    days.add(meas(value=452.0))
        assert list(tmp_path.iterdir()) == []


def _day_file_lines(root):
    (day_file,) = root.glob("measurements-*.txt")
    return day_file, day_file.read_text().splitlines()


class TestLoadLines:
    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"])
    def test_only_newline_ends_a_record(self, tmp_path, sep):
        # str.splitlines() would cut line 2 in two; the loader reads the
        # separator as part of the value, which is no number.
        save(tmp_path, batch_of(3))
        day_file, lines = _day_file_lines(tmp_path)
        fields = lines[1].split(",")
        fields[5] = fields[5][:2] + sep + fields[5][2:]
        lines[1] = ",".join(fields)
        day_file.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{day_file.name} line 2: value: bad number"):
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
        assert len(store) == 0 and store.all() == []
        assert not (tmp_path / "missing").exists()


class TestLoadOrder:
    def test_swapped_lines_load_sorted(self, tmp_path):
        save(tmp_path, batch_of(27))
        day_file, lines = _day_file_lines(tmp_path)
        lines[3], lines[20] = lines[20], lines[3]
        day_file.write_text("\n".join(lines) + "\n")
        loaded = MeasurementStore(tmp_path).all()
        records = [parse_measurement(line) for line in lines]
        assert loaded == sorted(records, key=record_key)
        assert loaded != records

    def test_all_returns_a_copy(self, tmp_path):
        save(tmp_path, batch_of(9))
        store = MeasurementStore(tmp_path)
        store.all().clear()
        assert len(store.all()) == 9

    @pytest.mark.parametrize("swap", [False, True], ids=["in-order", "out-of-order"])
    def test_duplicate_line_is_rejected_with_its_line(self, tmp_path, swap):
        save(tmp_path, batch_of(27))
        day_file, lines = _day_file_lines(tmp_path)
        if swap:  # line 2 now sorts before line 1
            lines[0], lines[1] = lines[1], lines[0]
        lines.insert(6, lines[5])  # an adjacent copy of line 6, as line 7
        day_file.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="measurements-2015-04-20.txt line 7: duplicate record"):
            MeasurementStore(tmp_path)

    def test_duplicate_far_apart_in_an_unsorted_file_is_rejected(self, tmp_path):
        save(tmp_path, batch_of(27))
        day_file, lines = _day_file_lines(tmp_path)
        lines.append(lines[0])
        day_file.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 28: duplicate record: N0 co2 at 2015-04-20T00:00:00Z"):
            MeasurementStore(tmp_path)

    def test_duplicate_across_day_files_is_rejected(self, tmp_path):
        save(tmp_path, batch_of(9))
        day_file, lines = _day_file_lines(tmp_path)
        (tmp_path / "measurements-2015-04-21.txt").write_text(lines[-1] + "\n")
        with pytest.raises(ValueError, match="measurements-2015-04-21.txt line 1: duplicate"):
            MeasurementStore(tmp_path)


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
