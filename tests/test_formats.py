import csv
import json
import math
import os

import numpy as np
import pytest

from vinefab import formats
from vinefab.errors import ValidationError
from vinefab.fabrication import FabricationPlan, GapModel, compile_plan
from vinefab.growth import Box, ObstacleScene, Sphere
from vinefab.measurement import recover_dh, synthetic_markers
from vinefab.stats import group_summary

from oracles import measured_pairs


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


def test_polyline_round_trip(tmp_path):
    pts = np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0], [100.0, 55.5, 10.0]])
    path = tmp_path / "poly.csv"
    formats.write_polyline(pts, path)
    np.testing.assert_allclose(formats.read_polyline(path), pts, atol=1e-6)
    path.write_text("x_mm,y_mm\n0,0\n")
    with pytest.raises(ValidationError, match="missing columns"):
        formats.read_polyline(path)


def test_scene_round_trip(tmp_path):
    scene = ObstacleScene(
        spheres=(Sphere(center=[1.0, 2.0, 3.0], radius=4.0),),
        boxes=(Box(min_corner=[0, 0, 0], max_corner=[5, 5, 5]),))
    path = tmp_path / "scene.json"
    formats.write_scene(scene, path)
    back = formats.read_scene(path)
    np.testing.assert_allclose(back.spheres[0].center, [1.0, 2.0, 3.0])
    assert back.spheres[0].radius == 4.0
    np.testing.assert_allclose(back.boxes[0].max_corner, [5.0, 5.0, 5.0])


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
    formats.write_markers(records, path)
    back = formats.read_markers(path)
    assert [r.marker_id for r in back] == [r.marker_id for r in records]
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
    table = formats.read_samples(os.path.join(data_dir, "dh_samples.csv"))
    assert len(table) == 180
    assert table.parameters() == ("twist", "joint", "length")
    path = tmp_path / "samples.csv"
    formats.write_samples(table, path)
    again = formats.read_samples(path)
    assert len(again) == len(table)
    np.testing.assert_allclose(again.value, table.value, atol=1e-6)
    for column in ("method", "material", "phase", "parameter", "robot_id"):
        np.testing.assert_array_equal(getattr(again, column), getattr(table, column))

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
