import csv
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vinefab import formats
from vinefab.errors import ValidationError
from vinefab.fabrication import FabricationPlan, GapModel, compile_plan
from vinefab.measurement import recover_dh, synthetic_markers
from vinefab.stats import COLUMNS, group_summary

from oracles import measured_pairs, read_csv_loop, read_markers_loop


def test_fmt9():
    assert formats.fmt9(100.0) == "100"
    assert formats.fmt9(-0.0) == "0"
    assert formats.fmt9(25.918139392115794) == "25.9181394"
    assert formats.fmt9(3) == "3"
    assert formats.fmt9(1.5e-7) == "1.5e-07"
    with pytest.raises(ValidationError):
        formats.fmt9(math.inf)


def test_dumps_json_shape_and_determinism():
    obj = {"b": 1, "a": [1.0, 2.5, None, True], "c": {"x": "s"}, "d": []}
    text = formats.dumps_json(obj)
    assert text == formats.dumps_json(obj)
    assert text.index('"b"') < text.index('"a"')  # insertion order kept
    assert text.endswith("}\n")
    import json
    assert json.loads(text) == {"b": 1, "a": [1.0, 2.5, None, True],
                                "c": {"x": "s"}, "d": []}


def test_chain_json_round_trip(tmp_path, three_bend_chain):
    path = tmp_path / "chain.json"
    formats.write_chain(three_bend_chain, path)
    back = formats.read_chain(path)
    np.testing.assert_allclose(back.theta, three_bend_chain.theta, atol=1e-12)
    np.testing.assert_allclose(back.alpha, three_bend_chain.alpha, atol=1e-12)
    np.testing.assert_allclose(back.a, three_bend_chain.a, atol=1e-9)
    assert back.radius == three_bend_chain.radius


def test_chain_json_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    with pytest.raises(ValidationError, match="radius_mm"):
        formats.read_chain(path)
    path.write_text('{"radius_mm": 16.5, "links": []}')
    with pytest.raises(ValidationError, match="links"):
        formats.read_chain(path)
    with pytest.raises(ValidationError, match="not found"):
        formats.read_chain(tmp_path / "nope.json")


def _csv_text(header, rows):
    """CSV text as the library writes it: numbers by fmt9, strings as they are."""
    return "".join(",".join(v if isinstance(v, str) else formats.fmt9(v) for v in row) + "\n"
                   for row in [header, *rows])


def test_polyline_round_trip(tmp_path):
    pts = np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0], [100.0, 55.5, 10.0]])
    path = tmp_path / "poly.csv"
    path.write_text(_csv_text(formats.POLYLINE_HEADER, pts.tolist()))
    np.testing.assert_array_equal(formats.read_polyline(path), pts)
    path.write_text("x_mm,y_mm\n0,0\n")
    with pytest.raises(ValidationError, match="missing columns"):
        formats.read_polyline(path)


def test_scene_round_trip(tmp_path):
    path = tmp_path / "scene.json"
    formats.write_json({"spheres": [{"center_mm": [1.0, 2.0, 3.0], "radius_mm": 4.0}],
                        "boxes": [{"min_mm": [0, 0, 0], "max_mm": [5, 5, 5]}]}, path)
    back = formats.read_scene(path)
    assert back.centers.tolist() == [[1.0, 2.0, 3.0]] and back.radii.tolist() == [4.0]
    assert back.lows.tolist() == [[0.0, 0.0, 0.0]] and back.highs.tolist() == [[5.0, 5.0, 5.0]]


@pytest.mark.parametrize("text", [
    '{"spheres": [{"center_mm": [0, NaN, 0], "radius_mm": 5}], "boxes": []}',
    '{"spheres": [{"center_mm": [0, 0, 0], "radius_mm": Infinity}], "boxes": []}',
    '{"spheres": [], "boxes": [{"min_mm": [-Infinity, 0, 0], "max_mm": [1, 1, 1]}]}',
], ids=["nan-center", "inf-radius", "minus-inf-corner"])
def test_scene_json_rejects_non_finite(tmp_path, text):
    path = tmp_path / "scene.json"
    path.write_text(text)
    with pytest.raises(ValidationError, match="non-finite"):
        formats.read_scene(path)


def test_plan_json_writes_the_plan(tmp_path, three_bend_chain):
    # each field is the plan's to 9 significant digits, and the layout fields
    # agree with the layout a plan derives from the file's other fields
    plan = compile_plan(three_bend_chain, GapModel.for_method("loop"))
    path = tmp_path / "plan.json"
    formats.write_plan(plan, path)
    data = json.loads(path.read_text())
    joints = {key: [j[key] for j in data["joints"]] for key in data["joints"][0]}
    assert joints["index"] == [1, 2, 3]
    written = FabricationPlan(data["radius_mm"], data["cylinders_mm"], joints["s_tilde_mm"],
                              joints["d_g_mm"], data["arc_offsets_mm"])
    for field in ("radius", "cylinders", "s_tilde", "d_g", "arc_offsets"):
        np.testing.assert_allclose(getattr(written, field), getattr(plan, field),
                                   rtol=5e-9, atol=0.0)
    for layout, derived in [(joints["axial_start_mm"], written.axial_start),
                            (joints["circumferential_mm"], written.circumferential),
                            (data["total_tube_length_mm"], written.total_tube_length)]:
        np.testing.assert_allclose(layout, derived, rtol=1e-8, atol=1e-6)


def test_markers_round_trip(tmp_path, three_bend_chain):
    records = synthetic_markers(three_bend_chain, n_samples=3)
    path = tmp_path / "markers.csv"
    path.write_text(_csv_text(formats.MARKER_HEADER, [
        [r.marker_id, t, *p, *q] for r in records
        for t, p, q in zip(r.times.tolist(), r.positions.tolist(), r.quaternions.tolist())]))
    back = formats.read_markers(path)
    assert [r.marker_id for r in back] == [r.marker_id for r in records]
    for r, b in zip(records, back):
        for name in ("times", "positions", "quaternions"):
            np.testing.assert_allclose(getattr(b, name), getattr(r, name), rtol=1e-8, atol=1e-12)
    joint_thetas, _, _ = measured_pairs(recover_dh(back))
    for (j, th) in joint_thetas:
        assert th == pytest.approx(math.pi / 4, abs=1e-6)


def test_markers_reject_bad_quaternion(tmp_path):
    path = tmp_path / "markers.csv"
    path.write_text("marker_id,t_s,x_mm,y_mm,z_mm,qw,qx,qy,qz\n"
                    "base,0,0,0,0,2,0,0,0\n")
    with pytest.raises(ValidationError, match="quaternion"):
        formats.read_markers(path)


def test_read_markers_groups_ids_in_first_appearance_order(tmp_path):
    path = tmp_path / "markers.csv"
    path.write_text("marker_id,t_s,x_mm,y_mm,z_mm,qw,qx,qy,qz\n"
                    "tip,0,1,0,0,1,0,0,0\n"
                    "base,0,2,0,0,1,0,0,0\n"
                    "tip,0.05,3,0,0,0,1,0,0\n"
                    "j2_on,0,4,0,0,1,0,0,0\n"
                    "base,0.05,5,0,0,1,0,0,0\n"
                    "tip,0.1,6,0,0,1,0,0,0\n")
    records = formats.read_markers(path)
    assert [r.marker_id for r in records] == ["tip", "base", "j2_on"]
    tip, base, j2 = records
    np.testing.assert_array_equal(tip.times, [0.0, 0.05, 0.1])
    np.testing.assert_array_equal(tip.positions[:, 0], [1.0, 3.0, 6.0])
    np.testing.assert_array_equal(tip.quaternions[1], [0.0, 1.0, 0.0, 0.0])
    np.testing.assert_array_equal(base.positions[:, 0], [2.0, 5.0])
    assert j2.times.shape == (1,)


def test_read_markers_checks_the_file_once(data_dir, monkeypatch):
    from vinefab import measurement

    calls = []
    real = measurement.check_samples

    def counted(context, *args, **kwargs):
        calls.append(context)
        return real(context, *args, **kwargs)

    for module in (formats, measurement):
        monkeypatch.setattr(module, "check_samples", counted)
    path = os.path.join(data_dir, "markers_pre.csv")
    records = formats.read_markers(path)
    assert calls == [path]
    with open(path, newline="") as fh:
        rows = [(r[0], [float(v) for v in r[1:]]) for r in list(csv.reader(fh))[1:]]
    for rec in records:
        # the same record as the checked public constructor builds from the rows
        raw = np.array([v for marker_id, v in rows if marker_id == rec.marker_id])
        twin = measurement.MarkerRecord(rec.marker_id, raw[:, 0], raw[:, 1:4], raw[:, 4:])
        for name in ("times", "positions", "quaternions"):
            got, want = getattr(rec, name), getattr(twin, name)
            assert got.tobytes() == want.tobytes() and got.shape == want.shape
            assert not got.flags.writeable and got.flags.c_contiguous
    with pytest.raises(ValidationError, match="unrecognized marker id"):
        measurement.MarkerRecord._from_checked("j2_sideways", *map(np.array, ([0.0],
                                               [[0.0] * 3], [[1.0, 0, 0, 0]])))


def test_fmt9_fast_path_matches_general_path():
    rng = np.random.default_rng(2)
    values = [0.0, -0.0, 1e-300, -5e-324, 1e300, 123456789.5, *rng.normal(size=200) *
              10.0 ** rng.integers(-12, 12, 200)]
    for v in values:
        assert formats.fmt9(float(v)) == formats.fmt9(np.float64(v))
    assert formats.fmt9(-0.0) == formats.fmt9(np.float64(-0.0)) == "0"


def test_samples_round_trip_and_validation(tmp_path, data_dir):
    bundled = os.path.join(data_dir, "dh_samples.csv")
    table = formats.read_samples(bundled)
    assert len(table) == 180
    assert table.parameters() == ("twist", "joint", "length")
    # the table written back by level name is the file it was read from
    names = [np.array(levels)[getattr(table, c)].tolist() for c, levels in COLUMNS.items()]
    rows = [[v, *row] for v, *row in zip(table.value.tolist(), *names, table.robot_id.tolist())]
    with open(bundled, encoding="utf-8") as fh:
        assert _csv_text(formats.SAMPLE_HEADER, rows) == fh.read()

    header = "value,method,material,phase,parameter,robot_id\n"
    good = "1.0,tape,ldpe,pre,joint,r1\n"
    bad = tmp_path / "bad.csv"
    for body, message in (
            (good + "1.0,glue,ldpe,pre,joint,r1\n",
             "line 3: method must be one of ('tape', 'weld', 'loop'), got 'glue'"),
            ("nan,tape,ldpe,pre,joint,r1\n", "line 2: sample value must be finite, got nan"),
            (good + "1e999,tape,ldpe,pre,joint,r1\n",
             "line 3: sample value must be finite, got inf"),
            (good + "1.0.0,tape,ldpe,pre,joint,r1\n",
             "line 3: could not convert string to float: '1.0.0'"),
            (good + "1.0,tape,ldpe,during,joint,r1\n",
             "line 3: phase must be one of ('pre', 'post'), got 'during'"),
            # line numbers count blank lines
            (good + "\n\n2.0,tape,ldpe,pre,angle,r1\n",
             "line 5: parameter must be one of ('twist', 'joint', 'length'), got 'angle'"),
            # of two bad rows the first is named, and in it the first bad field
            (good + "1.0,tape,foil,later,joint,r1\n" + "inf,glue,ldpe,pre,joint,r1\n",
             "line 3: material must be one of ('ldpe', 'fabric'), got 'foil'")):
        bad.write_text(header + body)
        with pytest.raises(ValidationError) as err:
            formats.read_samples(bad)
        assert str(err.value) == f"{bad}: {message}"

    empty = tmp_path / "empty.csv"
    empty.write_text(header)
    with pytest.raises(ValidationError, match="no sample rows"):
        formats.read_samples(empty)


def test_measured_and_error_outputs(tmp_path, three_bend_chain):
    from vinefab.measurement import dh_errors
    measured = recover_dh(synthetic_markers(three_bend_chain), phase="post")
    formats.write_measured(measured, tmp_path / "m.json")
    text = (tmp_path / "m.json").read_text()
    assert '"phase": "post"' in text and '"theta_deg"' in text

    rows = dh_errors(measured, three_bend_chain)
    formats.write_errors(rows, tmp_path / "e.csv")
    with open(tmp_path / "e.csv") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == ["parameter", "joint_or_link_index",
                                     "target", "measured", "error", "phase"]
        assert len(list(reader)) == 6


def test_growth_table_ingestion(data_dir):
    """The bundled growth-pressure CSV parses and summarizes into sane ranges."""
    with open(os.path.join(data_dir, "growth_pressures.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 15  # 5 usable method-material combos x 3 robots
    by_combo = {}
    for r in rows:
        key = f"{r['method']}-{r['material']}"
        by_combo.setdefault(key, []).append(float(r["min_pressure_kpa"]))
    summaries = group_summary(by_combo)
    for s in summaries.values():
        assert 5.0 < s.mean < 30.0  # tens of kPa


_PLAIN = st.text(st.sampled_from("1a .-\u00e9\t"), max_size=4)
_ANY = st.text(st.sampled_from('1a ,"\n\r\0\u00e9'), max_size=5)


def _quoted(fields):
    text = io.StringIO()
    csv.writer(text, lineterminator="").writerow(fields)
    return text.getvalue()


def _one_in(n):
    return st.sampled_from([False] * (n - 1) + [True])


@st.composite
def _csv_bytes(draw):
    """CSV files of every shape the readers meet, as bytes: plain ones most often."""
    plain = draw(st.booleans())
    header = draw(st.lists(st.sampled_from(["a", "b", "c", "b c"]), max_size=4)
                  if draw(_one_in(8)) else
                  st.lists(st.sampled_from(["a", "c", "b c"]), max_size=2)
                  .flatmap(lambda extra: st.permutations(["a", "b", *extra])))
    width = len(header)
    rows = [",".join(header)]
    if draw(_one_in(10)):
        rows.insert(0, "")  # a blank first line stands where the header should
    kinds = {"row": st.lists(_PLAIN, min_size=width, max_size=width).map(",".join),
             "blank": st.sampled_from(["", "", "", " ", "\t"])}  # whitespace is a field
    if draw(_one_in(4)):  # rows one field short or long
        kinds["ragged"] = st.sampled_from([-1, 1]).flatmap(
            lambda d: st.lists(_PLAIN, min_size=max(width + d, 0), max_size=max(width + d, 0))
        ).map(",".join)
    if not plain:  # quoted fields holding commas, quotes and line ends; raw quotes, CRs and NULs
        kinds["quoted"] = st.lists(_ANY, min_size=width, max_size=width).map(_quoted)
        kinds["any"] = _ANY
    rows += [draw(kinds[kind]) for kind in draw(st.lists(
        st.sampled_from(["row", "row", "row", *kinds]), min_size=1, max_size=10))]
    newlines = ["\n"] if plain or draw(st.booleans()) else ["\n", "\r\n", "\r"]
    ends = draw(st.lists(st.sampled_from(newlines), min_size=len(rows), max_size=len(rows)))
    if draw(st.booleans()):
        ends[-1] = ""  # no line end after the last line
    text = "" if draw(_one_in(20)) else "".join(row + end for row, end in zip(rows, ends))
    data = text.encode("utf-8")
    if draw(_one_in(8)):  # not UTF-8, maybe past the first 8 KiB decoded
        pad = draw(st.sampled_from([0, 1200])) * ("1," * max(width - 1, 0) + "1\n")
        at = draw(st.integers(0, len(data)))
        data = data[:at] + pad.encode() + draw(st.sampled_from([b"\xff", b"\xe2"])) + data[at:]
    return data


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=_csv_bytes(), limit=st.sampled_from([None, None, None, 3]))
def test_read_csv_matches_the_row_loop(data, limit):
    # the same lines and columns as csv.reader row by row, or the same error text,
    # under csv's default field-size limit or a small one set for the example
    default = csv.field_size_limit()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            csv.field_size_limit(limit or default)
            outcomes = []
            for read in (formats._read_csv, read_csv_loop):
                try:
                    outcomes.append(read(path, ["a", "b"]))
                except ValidationError as exc:
                    outcomes.append(str(exc))
        finally:
            csv.field_size_limit(default)
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("quote", [b"", b'"'], ids=["split", "csv-reader"])
def test_read_csv_names_a_bad_byte_at_its_file_offset_before_any_row_error(tmp_path, quote):
    # the whole file is decoded before any row is read, on the split path and on
    # csv.reader's (a quote): the error names the byte's offset in the file, not
    # in the 8 KiB chunk a text reader decodes, and comes before the short row
    # on line 3
    data = b"a,b\n1,2\n3\n" + b"4,5\n" * 2998 + b"\n\n"
    assert len(data) == 12004
    path = tmp_path / "bad.csv"
    path.write_bytes(data + b"\xff,6\n" + b"7,8\n" * 10 + quote + b'x",9\n')
    want = (f"{path}: not UTF-8 text ('utf-8' codec can't decode byte 0xff "
            "in position 12004: invalid start byte)")
    for read in (formats._read_csv, read_csv_loop):
        with pytest.raises(ValidationError) as err:
            read(path, ["a", "b"])
        assert str(err.value) == want


def test_read_csv_keeps_the_csv_field_size_limit(tmp_path):
    # a field of exactly the limit is read; one character more is rejected as csv
    # rejects it, and a line past the limit made of short fields is still read
    limit = csv.field_size_limit()
    path = tmp_path / "wide.csv"
    too_long = f"{path}: malformed CSV (field larger than field limit ({limit}))"
    for body, error in [("x" * limit + ",1\n", None),
                        ("x" * (limit + 1) + ",1\n", too_long),
                        ("x" * (limit + 1) + "\n", too_long),  # before its field count
                        ("x" * (limit // 2) + "," + "y" * (limit // 2 + 2) + "\n", None)]:
        path.write_text("a,b\n" + body)
        if error is None:
            lines, columns = formats._read_csv(path, ["a", "b"])
            assert (lines, columns) == read_csv_loop(path, ["a", "b"])
            assert lines == [2] and columns["a"] == [body.split(",")[0]]
        else:
            with pytest.raises(ValidationError) as err:
                formats._read_csv(path, ["a", "b"])
            assert str(err.value) == error


def test_read_markers_groups_interleaved_ids_like_the_row_loop(tmp_path):
    # records in first-appearance order, samples in file order, bit for bit as the
    # row-by-row grouping builds them, and read-only
    rng = np.random.default_rng(35)
    ids = ["base", "j2_on", "j2_prox", "j3_dist", "tip"]
    path = tmp_path / "markers.csv"
    for _ in range(20):
        picks = rng.integers(0, len(ids), int(rng.integers(1, 60)))
        q = rng.normal(size=(picks.size, 4))
        q /= np.linalg.norm(q, axis=1)[:, None] * (1.0 + rng.uniform(-9e-7, 9e-7, (picks.size, 1)))
        values = np.hstack([np.cumsum(rng.uniform(0, 0.1, (picks.size, 1)), axis=0),
                            rng.normal(scale=100.0, size=(picks.size, 3)), q])
        rows = [",".join([ids[k], *map(repr, v.tolist())]) for k, v in zip(picks, values)]
        for at in rng.integers(0, len(rows) + 1, 3):
            rows.insert(at, "")
        path.write_text(",".join(formats.MARKER_HEADER) + "\n" + "\n".join(rows) + "\n")
        got, want = formats.read_markers(path), read_markers_loop(path)
        assert [r.marker_id for r in got] == [r.marker_id for r in want] == \
            [ids[k] for k in dict.fromkeys(picks.tolist())]
        for rec, twin in zip(got, want):
            for name in ("times", "positions", "quaternions"):
                a, b = getattr(rec, name), getattr(twin, name)
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
                assert not a.flags.writeable and a.flags.c_contiguous

    # a bad value is named by its file line, blank lines counted
    lines = path.read_text().split("\n")
    last = max(i for i, line in enumerate(lines) if line)
    assert "" in lines[1:last]
    for bad, message in [("abc", "could not convert string to float: 'abc'"),
                         ("inf", "non-finite number in")]:
        fields = lines[last].split(",")
        path.write_text("\n".join(lines[:last] + [",".join([*fields[:3], bad, *fields[4:]])]
                                  + lines[last + 1:]))
        with pytest.raises(ValidationError) as err:
            formats.read_markers(path)
        assert str(err.value).startswith(f"{path}: line {last + 1}: {message}")
