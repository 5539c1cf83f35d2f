import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from vinefab import formats
from vinefab.geometry import DHChain

from conftest import cli_env, run_cli


@pytest.fixture
def project_config(data_dir):
    return os.path.join(data_dir, "project.json")


def test_plan_bundled_project(tmp_path, project_config):
    code, out, _ = run_cli("plan", "--config", project_config,
                           "--out", str(tmp_path))
    assert code == 0
    assert b"total tube length: 325.918139 mm" in out
    plan = json.loads((tmp_path / "plan.json").read_text())
    np.testing.assert_allclose(plan["cylinders_mm"],
                               [93.520, 87.041, 93.520], atol=1e-3)
    assert plan["joints"][1]["s_tilde_mm"] == pytest.approx(25.918, abs=1e-3)
    assert plan["arc_offsets_mm"][1] == pytest.approx(12.959, abs=1e-3)


def test_cli_runs_without_scipy(tmp_path, project_config, data_dir):
    # scipy is a test-only dependency: neither the import nor a plan or an
    # analyze run (the studentized range p-values) may load it, and only
    # analyze builds the quadrature rules and a range table. Its three
    # method families all have k = 3, so they share one table. numpy.ma,
    # which np.median imports on first use, stays out too, and so does
    # dataclasses: the records are namedtuples and plain classes.
    script = "\n".join([
        "import sys",
        "import vinefab.cli",
        "from vinefab.special import _range_table, _rules",
        "after_import = 'scipy' in sys.modules, 'dataclasses' in sys.modules",
        "plan = vinefab.cli.main(['plan', '--config', sys.argv[1], '--out', sys.argv[3]])",
        "built_by_plan = _rules.cache_info().currsize, _range_table.cache_info().currsize",
        "analyze = vinefab.cli.main(['analyze', '--samples', sys.argv[2], '--out', sys.argv[3]])",
        "tables = _range_table.cache_info()",
        "print(*after_import, plan, *built_by_plan, analyze, _rules.cache_info().currsize,",
        "      tables.misses, tables.hits, 'scipy' in sys.modules, 'numpy.ma' in sys.modules)",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", script, project_config,
         os.path.join(data_dir, "dh_samples.csv"), str(tmp_path)],
        capture_output=True, env=cli_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == b"False False 0 0 0 0 1 1 2 False False"


def test_plan_loop_gap_override(tmp_path, project_config):
    code, out, _ = run_cli("plan", "--config", project_config,
                           "--method", "loop", "--out", str(tmp_path))
    assert code == 0
    plan = json.loads((tmp_path / "plan.json").read_text())
    assert plan["joints"][1]["s_tilde_mm"] == pytest.approx(35.984, abs=1e-3)
    assert plan["joints"][1]["d_g_mm"] == 9.3


def test_plan_radians_display(tmp_path, project_config):
    code, out, _ = run_cli("plan", "--config", project_config, "--rad",
                           "--out", str(tmp_path))
    assert code == 0
    assert b"0.785398163 rad" in out


def test_pattern_and_fk_and_grow(tmp_path, project_config):
    assert run_cli("pattern", "--config", project_config,
                   "--out", str(tmp_path))[0] == 0
    svg = (tmp_path / "pattern.svg").read_text()
    assert svg.startswith("<?xml") and "</svg>" in svg

    code, out, _ = run_cli("fk", "--config", project_config,
                           "--out", str(tmp_path))
    assert code == 0
    assert b"tip: (185.355339, 156.066017, 50) mm" in out
    frames = (tmp_path / "fk_frames.csv").read_text().splitlines()
    assert frames[0] == "frame,x_mm,y_mm,z_mm,qw,qx,qy,qz"
    assert len(frames) == 5  # header + base + 3 links

    code, out, _ = run_cli("grow", "--config", project_config, "--steps", "10",
                           "--out", str(tmp_path))
    assert code == 0
    rows = (tmp_path / "grow_trace.csv").read_text().splitlines()
    assert rows[0] == "everted_mm,tip_x_mm,tip_y_mm,tip_z_mm,clearance_mm"
    assert len(rows) == 12
    assert rows[1].startswith("0,0,0,0,")
    assert rows[1].split(",")[4] != ""  # scene present: clearance populated
    # fully everted row reproduces the fk tip
    assert rows[-1].split(",")[:4] == ["300", "185.355339", "156.066017", "50"]


def test_grow_without_scene_leaves_clearance_empty(tmp_path, data_dir):
    chain = os.path.join(data_dir, "chain_threebend.json")
    code, _, _ = run_cli("grow", "--chain", chain, "--steps", "5",
                         "--out", str(tmp_path))
    assert code == 0
    rows = (tmp_path / "grow_trace.csv").read_text().splitlines()
    assert all(r.endswith(",") for r in rows[1:])


def test_grow_last_row_never_overshoots_total(tmp_path):
    # total * 5 / 5 rounds above the 60.6 mm total for these link lengths
    chain = tmp_path / "chain.json"
    formats.write_chain(DHChain(
        [10.1, 20.2, 30.3], [0, 0, 0], [0, math.radians(30), math.radians(30)],
        16.5), chain)
    code, _, err = run_cli("grow", "--chain", str(chain), "--steps", "5",
                           "--out", str(tmp_path))
    assert code == 0, err.decode()
    rows = (tmp_path / "grow_trace.csv").read_text().splitlines()
    assert len(rows) == 7
    assert rows[-1].startswith("60.6,")


def test_polyline_chain_source(tmp_path, data_dir):
    waypoints = os.path.join(data_dir, "path_waypoints.csv")
    code, _, err = run_cli("fk", "--chain", waypoints, "--out", str(tmp_path))
    assert code == 1  # no radius given
    assert b"radius" in err
    code, out, _ = run_cli("fk", "--chain", waypoints, "--radius", "16.5",
                           "--out", str(tmp_path))
    assert code == 0


def test_radius_rejected_for_json_chain(tmp_path, data_dir, project_config):
    # a chain JSON carries its own radius; a --radius next to it would be ignored
    chain = os.path.join(data_dir, "chain_threebend.json")
    for source in (("--chain", chain), ("--config", project_config)):
        code, _, err = run_cli("plan", *source, "--radius", "-1",
                               "--out", str(tmp_path))
        assert code == 1
        assert b"--radius applies only to a polyline CSV chain" in err
    assert not (tmp_path / "plan.json").exists()


def test_grow_sweep_step_sample_cap(tmp_path, project_config):
    code, _, err = run_cli("grow", "--config", project_config, "--steps", "1",
                           "--sweep-step", "1e-9", "--out", str(tmp_path))
    assert code == 1
    assert err.startswith(b"error: step 1e-09 mm would sample the 300.0 mm "
                          b"body at more than 10000000 points")


def test_grow_rejects_bad_sweep_step_without_a_scene(tmp_path, data_dir):
    # no scene means no clearance sweep, but the step is checked all the same
    chain = os.path.join(data_dir, "chain_threebend.json")
    code, _, err = run_cli("grow", "--chain", chain, "--steps", "3",
                           "--sweep-step", "-5", "--out", str(tmp_path))
    assert code == 1
    assert err == b"error: step must be finite and > 0, got -5.0\n"
    assert not (tmp_path / "grow_trace.csv").exists()


def test_grow_steps_cap(tmp_path, project_config):
    # one row per step: --steps is capped like a sweep, before any row is built
    for steps in ("10000000", "0"):
        code, _, err = run_cli("grow", "--config", project_config, "--steps", steps,
                               "--out", str(tmp_path))
        assert code == 1
        assert err == f"error: --steps must lie in [1, 9999999], got {steps}\n".encode()
    assert not (tmp_path / "grow_trace.csv").exists()


def test_polyline_rejects_non_finite(tmp_path):
    path = tmp_path / "path.csv"
    for bad in ("nan", "inf", "-inf"):
        path.write_text(f"x_mm,y_mm,z_mm\n0,0,0\n100,0,0\n{bad},50,0\n")
        code, _, err = run_cli("plan", "--chain", str(path), "--radius", "16.5",
                               "--out", str(tmp_path))
        assert code == 1
        assert err.startswith(f"error: {path}: line 4: non-finite coordinate".encode())
        assert b"Warning" not in err


def test_markers_reject_non_finite(tmp_path, project_config, data_dir):
    lines = open(os.path.join(data_dir, "markers_pre.csv")).read().splitlines()
    path = tmp_path / "markers.csv"
    for column in (2, 5):  # x_mm, qw
        fields = lines[4].split(",")
        fields[column] = "inf"
        path.write_text("\n".join(lines[:4] + [",".join(fields)] + lines[5:]) + "\n")
        code, _, err = run_cli("measure", "--config", project_config,
                               "--markers", str(path), "--out", str(tmp_path))
        assert code == 1
        assert err.startswith(f"error: {path}: line 5: non-finite number".encode())


# per reader: header, a valid row, a row whose value the reader rejects and
# the message it gives, and the command line that reads a file
CSV_READERS = {
    "markers": ("marker_id,t_s,x_mm,y_mm,z_mm,qw,qx,qy,qz", "base,0,0,0,0,1,0,0,0",
                "base,0,0,0,0,2,0,0,0", "quaternion norm 2 is not 1",
                lambda path, config, out: ["measure", "--config", config,
                                           "--markers", path, "--out", out]),
    "polyline": ("x_mm,y_mm,z_mm", "0,0,0", "nan,50,0", "non-finite coordinate",
                 lambda path, config, out: ["plan", "--chain", path,
                                            "--radius", "16.5", "--out", out]),
    "samples": ("value,method,material,phase,parameter,robot_id",
                "1.0,tape,ldpe,pre,joint,r1", "x,tape,ldpe,pre,joint,r1",
                "could not convert",
                lambda path, config, out: ["analyze", "--samples", path,
                                           "--out", out]),
}


@pytest.mark.parametrize("reader", sorted(CSV_READERS))
def test_csv_rows_checked_with_file_line(tmp_path, project_config, reader):
    header, good, bad, message, argv = CSV_READERS[reader]
    fields = len(header.split(","))
    path = tmp_path / "in.csv"
    short = ",".join(good.split(",")[:2])
    for lines, line, what in (([good, short], 3, f"expected {fields} fields, got 2"),
                              ([good, good + ",7"], 3,
                               f"expected {fields} fields, got {fields + 1}"),
                              ([good, "", bad], 4, message)):
        path.write_text("\n".join([header, *lines]) + "\n")
        code, _, err = run_cli(*argv(str(path), project_config, str(tmp_path)))
        assert code == 1, (reader, lines)
        assert err.startswith(f"error: {path}: line {line}: ".encode()), err
        assert what.encode() in err
        assert b"Traceback" not in err


def test_measure_bundled_markers(tmp_path, project_config, data_dir):
    code, out, _ = run_cli("measure", "--config", project_config,
                           "--markers", os.path.join(data_dir, "markers_pre.csv"),
                           "--phase", "pre", "--out", str(tmp_path))
    assert code == 0
    measured = json.loads((tmp_path / "measured_dh.json").read_text())
    assert measured["phase"] == "pre"
    assert measured["joints"][0]["theta_deg"] == pytest.approx(45.0, abs=0.1)
    errors = (tmp_path / "dh_errors.csv").read_text().splitlines()
    assert len(errors) == 7


def test_measure_builds_no_pose_and_no_svd(tmp_path, project_config, data_dir,
                                           monkeypatch, capsys):
    """Marker samples stay arrays from the CSV to the recovered DH parameters."""
    from vinefab import cli
    from vinefab.geometry import Pose

    calls = {"pose": 0, "svd": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Pose, "__new__", staticmethod(counted("pose", Pose.__new__)))
    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    assert Pose(np.eye(3), np.zeros(3)) and calls["pose"] == 1
    calls["pose"] = 0
    for phase in ("pre", "post"):
        code = cli.main(["measure", "--config", project_config,
                         "--markers", os.path.join(data_dir, f"markers_{phase}.csv"),
                         "--phase", phase, "--out", str(tmp_path)])
        assert code == 0
    assert calls == {"pose": 0, "svd": 0}
    assert capsys.readouterr().out.count("recovered 2 joints") == 2


def test_analyze_bundled_samples(tmp_path, data_dir):
    code, out, _ = run_cli("analyze",
                           "--samples", os.path.join(data_dir, "dh_samples.csv"),
                           "--out", str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report["parameters"]) == {"twist", "joint", "length"}
    block = report["parameters"]["length"]["method"]
    assert block["omnibus"]["p_value"] < 0.001
    stars = {(p["a"], p["b"]): p["stars"] for p in block["pairwise"]}
    assert stars[("tape", "loop")] == "***"


def test_exit_codes(tmp_path, data_dir):
    bad_chain = tmp_path / "bad_chain.json"
    formats.write_chain(DHChain(
        [100, 10, 100], [0, 0, 0], [0, math.radians(45), math.radians(45)],
        16.5), bad_chain)
    code, _, err = run_cli("plan", "--chain", str(bad_chain),
                           "--out", str(tmp_path))
    assert code == 2
    assert b"minimum feasible link length: 12.9590697 mm" in err

    singular = tmp_path / "singular.json"
    formats.write_chain(DHChain(
        [100], [0], [math.radians(179.9)], 16.5), singular)
    code, _, err = run_cli("plan", "--chain", str(singular),
                           "--out", str(tmp_path))
    assert code == 2
    assert b"singularity" in err

    broken = tmp_path / "broken.json"
    broken.write_text("not json")
    assert run_cli("fk", "--chain", str(broken),
                   "--out", str(tmp_path))[0] == 1

    config = os.path.join(data_dir, "project.json")
    markers = tmp_path / "missing.csv"
    src = open(os.path.join(data_dir, "markers_pre.csv")).read().splitlines()
    keep = [l for l in src if not l.startswith("j3_prox")]
    markers.write_text("\n".join(keep) + "\n")
    code, _, err = run_cli("measure", "--config", config,
                           "--markers", str(markers), "--out", str(tmp_path))
    assert code == 3
    assert b"joint 3: missing 'prox' marker" in err


def test_exactly_one_chain_source(tmp_path, data_dir, project_config):
    chain = os.path.join(data_dir, "chain_threebend.json")
    code, _, err = run_cli("plan", "--chain", chain, "--config", project_config,
                           "--out", str(tmp_path))
    assert code == 1
    assert b"exactly one chain source" in err
    code, _, err = run_cli("plan", "--out", str(tmp_path))
    assert code == 1
    # a config chain that is neither a path nor a chain object
    config = tmp_path / "bad.json"
    config.write_text('{"chain": 5}')
    code, _, err = run_cli("plan", "--config", str(config), "--out", str(tmp_path))
    assert code == 1
    assert err.startswith(b"error: a chain source must be a file path or a chain")


def test_analyze_single_group_notice(tmp_path):
    samples = tmp_path / "samples.csv"
    samples.write_text("value,method,material,phase,parameter,robot_id\n"
                       "1.0,tape,ldpe,pre,joint,r1\n"
                       "1.1,tape,ldpe,pre,joint,r2\n"
                       "0.9,tape,ldpe,pre,joint,r3\n")
    code, out, _ = run_cli("analyze", "--samples", str(samples),
                           "--out", str(tmp_path))
    assert code == 0
    assert b"single group" in out


@pytest.mark.parametrize("argv", [("plan", "--bogus"),
                                  ("grow", "--steps", "x")])
def test_usage_errors_exit_1(tmp_path, argv):
    code, out, err = run_cli(*argv, cwd=tmp_path)
    assert code == 1  # 2 is reserved for infeasible designs
    assert err.startswith(b"usage: vinefab ")
    assert b"error:" in err and out == b""
    code, out, _ = run_cli(argv[0], "--help", cwd=tmp_path)
    assert code == 0 and out.startswith(b"usage: vinefab ")


def _main_in_process(capsys, argv):
    """cli.main with numpy warnings raised: (exit code, stderr)."""
    import warnings

    from vinefab import cli

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(argv)
    return code, capsys.readouterr().err


def test_analyze_rejects_values_that_overflow_a_summary(tmp_path, capsys):
    # two robots per method at +-1e308: each method's SD passes float range
    samples = tmp_path / "samples.csv"
    samples.write_text("value,method,material,phase,parameter,robot_id\n" + "".join(
        f"{sign}1e308,{method},ldpe,pre,joint,{method}-{k}\n"
        for method in ("tape", "weld", "loop") for k, sign in enumerate("+-")))
    code, err = _main_in_process(capsys, ["analyze", "--samples", str(samples),
                                          "--out", str(tmp_path)])
    assert code == 1
    assert err == "error: group 'tape': values overflow the mean or SD\n"
    assert not (tmp_path / "report.json").exists()


def test_analyze_runs_welch_on_huge_unequal_variances(tmp_path, capsys):
    # six values 1e100-6e100 against six near 1: (va + vb) ** 2 passes float range
    samples = tmp_path / "samples.csv"
    samples.write_text("value,method,material,phase,parameter,robot_id\n" + "".join(
        [f"{k}e100,tape,ldpe,pre,joint,l{k}\n" for k in range(1, 7)]
        + [f"1.0{k},tape,fabric,pre,joint,f{k}\n" for k in range(6)]))
    code, err = _main_in_process(capsys, ["analyze", "--samples", str(samples),
                                          "--out", str(tmp_path)])
    assert code == 0 and err == ""
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["parameters"]["joint"]["material"]["omnibus"] == {
        "test": "Welch t-test", "statistic": 4.58257569, "df": [5], "p_value": 0.00593354452}
    assert not any("nan" in notice for notice in report["notices"])


@pytest.mark.parametrize("chain, message", [
    ({"radius_mm": 16.5, "links": [{"a_mm": "abc"}]},
     "link 1: 'a_mm' must be a number, got 'abc'"),
    ({"radius_mm": 16.5, "links": [{"a_mm": True}]},
     "link 1: 'a_mm' must be a number, got True"),
    ({"radius_mm": 16.5, "links": [{"a_mm": 100}, {"a_mm": None}]},
     "link 2: 'a_mm' must be a number, got None"),
    ({"radius_mm": 16.5, "links": [{"a_mm": 100, "theta_deg": "45"}]},
     "link 1: 'theta_deg' must be a number, got '45'"),
    ({"radius_mm": 16.5, "links": [{"a_mm": 100, "alpha_deg": 10 ** 400}]},
     "link 1: 'alpha_deg' must be a number"),
    ({"radius_mm": 16.5, "links": [5]}, "link 1: must be a JSON object, got 5"),
    ({"radius_mm": "x", "links": [{"a_mm": 100}]},
     "'radius_mm' must be a number, got 'x'"),
    ([{"a_mm": 100}], "a chain must be a JSON object"),
    ({"radius_mm": 16.5, "links": [{"a_mm": 1e308}, {"a_mm": 1e308}]},
     "link 2: chain length overflows"),
    ({"radius_mm": 16.5, "links": [{"a_mm": 100}, {"theta_deg": 45}]},
     "link 2: missing required field 'a_mm'"),
])
@pytest.mark.parametrize("command", ["plan", "pattern", "fk", "grow"])
def test_chain_json_takes_only_json_numbers(tmp_path, capsys, chain, message, command):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(chain))
    code, err = _main_in_process(capsys, [command, "--chain", str(path), "--out", str(tmp_path)])
    assert code == 1
    assert err.startswith(f"error: {path}") and message in err


@pytest.mark.parametrize("scene, message", [
    ({"spheres": 5}, "'spheres' must be a list, got 5"),
    ({"spheres": [{"center_mm": [0, 0], "radius_mm": 5}]},
     "sphere 1: 'center_mm' must hold 3 numbers, got [0, 0]"),
    ([1], "a scene must be a JSON object"),
    ({"boxes": [{"min_mm": [0, 0, 0], "max_mm": [1, 1, 1]},
                {"min_mm": "abc", "max_mm": [1, 1, 1]}]},
     "box 2: 'min_mm' must be a list, got 'abc'"),
    ({"spheres": [{"center_mm": [0, 0, 0], "radius_mm": "5"}]},
     "sphere 1: 'radius_mm' must be a number, got '5'"),
    ({"boxes": [{"min_mm": [0, None, 0], "max_mm": [1, 1, 1]}]},
     "box 1: 'min_mm' item 2 must be a number, got None"),
    ({"spheres": [7]}, "sphere 1: must be a JSON object, got 7"),
    ({"spheres": [{"center_mm": [0, 0, 0], "radius_mm": 0}]},
     "sphere 1: sphere radius must be finite and > 0"),
], ids=["spheres-int", "center-2", "top-list", "min-string", "radius-string",
        "min-null", "sphere-int", "radius-0"])
def test_scene_json_fields_are_typed(tmp_path, capsys, project_config, scene, message):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    code, err = _main_in_process(capsys, ["grow", "--config", project_config,
                                          "--scene", str(path), "--out", str(tmp_path)])
    assert code == 1
    assert err.startswith(f"error: {path}") and message in err
    assert not (tmp_path / "grow_trace.csv").exists()


@pytest.mark.parametrize("scene, message", [
    ({"spheres": [{"center_mm": [1e308, 1e308, 0], "radius_mm": 5}]},
     "error: clearance is not finite: the body and the obstacles are too far apart"),
    ({"boxes": [{"min_mm": [-1e308] * 3, "max_mm": [1e308] * 3}]},
     "box 1: box extent max - min overflows, got [inf inf inf]"),
], ids=["far-sphere", "huge-box"])
def test_grow_rejects_scenes_past_float_range(tmp_path, capsys, project_config, scene,
                                              message):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    code, err = _main_in_process(capsys, ["grow", "--config", project_config,
                                          "--scene", str(path), "--out", str(tmp_path)])
    assert code == 1 and message in err
    assert not (tmp_path / "grow_trace.csv").exists()


def test_grow_far_body_keeps_its_clearance(tmp_path, capsys, data_dir):
    # the far samples' squared distances overflow; the base's clearance is the worst
    import warnings

    from vinefab import cli

    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"radius_mm": 1, "links": [{"a_mm": 1e300}, {"a_mm": 1e300}]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["grow", "--chain", str(path), "--scene",
                         os.path.join(data_dir, "scene.json"), "--steps", "3",
                         "--sweep-step", "1e296", "--out", str(tmp_path)])
    trace = tmp_path / "grow_trace.csv"
    assert code == 0
    assert capsys.readouterr().out == (f"wrote {trace} (4 rows, total 2e+300 mm)\n"
                                       "worst clearance: 83.8528137 mm\n")
    assert trace.read_text().splitlines()[1:] == [
        "0,0,0,0,83.8528137",
        "6.66666667e+299,6.66666667e+299,0,0,83.8528137",
        "1.33333333e+300,1.33333333e+300,0,0,83.8528137",
        "2e+300,2e+300,0,0,83.8528137"]


@pytest.mark.parametrize("fields, message", [
    ({"gap": 5}, "'gap' must be a JSON object, got 5"),
    ({"gap": {"d_g_mm": "x"}}, "gap: 'd_g_mm' must be a number, got 'x'"),
    ({"scene": 5}, "'scene' must be a string, got 5"),
    ({"out_dir": 7}, "'out_dir' must be a string, got 7"),
    ({"radius_mm": "16.5"}, "'radius_mm' must be a number, got '16.5'"),
    ({"units": "radians"}, "'units' must be 'deg' or 'rad', got 'radians'"),
    ({"units": 1}, "'units' must be a string, got 1"),
], ids=["gap-int", "d_g-string", "scene-int", "out_dir-int", "radius-string",
        "units-radians", "units-int"])
def test_config_fields_are_typed(tmp_path, capsys, data_dir, fields, message):
    path = tmp_path / "project.json"
    path.write_text(json.dumps(
        {"chain": os.path.join(data_dir, "chain_threebend.json"), **fields}))
    code, err = _main_in_process(capsys, ["plan", "--config", str(path)])
    assert code == 1
    assert err.startswith(f"error: {path}") and message in err
    assert not (tmp_path / "plan.json").exists()


def test_measure_rejects_non_finite_recovery(tmp_path, capsys, project_config, data_dir):
    """Marker coordinates near float range fail before anything is written."""
    lines = open(os.path.join(data_dir, "markers_pre.csv")).read().splitlines()
    first = {}  # the first sample of each marker
    for line in lines[1:]:
        first.setdefault(line.split(",")[0], line)
    path = tmp_path / "markers.csv"
    for rows, message in (
            # every base sample at 1e308: the average overflows
            ({"base": [f"base,{t},1e308,0,0,1,0,0,0" for t in range(3)]},
             "marker 'base': averaged position [inf  0.  0.] is not finite"),
            # averages at -1e308 and 1e308: their difference overflows
            ({"base": ["base,0,-1e308,0,0,1,0,0,0"],
              "j2_on": ["j2_on,0,1e308,0,0,1,0,0,0"]},
             "recovered DH values are not finite")):
        body = [line for key, line in first.items() if key not in rows]
        path.write_text("\n".join([lines[0], *body, *sum(rows.values(), [])]) + "\n")
        code, err = _main_in_process(capsys, ["measure", "--config", project_config,
                                              "--markers", str(path), "--out", str(tmp_path)])
        assert code == 1
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "measured_dh.json").exists()
        assert not (tmp_path / "dh_errors.csv").exists()


@pytest.mark.parametrize("case", ["samples is a directory", "samples are not UTF-8",
                                  "config is not UTF-8", "chain is a directory",
                                  "out is a file"])
def test_unreadable_inputs_exit_1(tmp_path, capsys, data_dir, case):
    binary, a_file = tmp_path / "binary", tmp_path / "file"
    binary.write_bytes(b"value,method\n\xff\n")
    a_file.write_text("")
    samples, out = os.path.join(data_dir, "dh_samples.csv"), str(tmp_path)
    argv, message = {
        "samples is a directory": (["analyze", "--samples", out, "--out", out],
                                   f"cannot read {out}: Is a directory"),
        "samples are not UTF-8": (["analyze", "--samples", str(binary), "--out", out],
                                  f"{binary}: not UTF-8 text"),
        "config is not UTF-8": (["plan", "--config", str(binary), "--out", out],
                                f"{binary}: not UTF-8 text"),
        "chain is a directory": (["fk", "--chain", out, "--out", out],
                                 f"cannot read {out}: Is a directory"),
        "out is a file": (["analyze", "--samples", samples, "--out", str(a_file)],
                          f"cannot create output directory {a_file}: File exists"),
    }[case]
    code, err = _main_in_process(capsys, argv)
    assert code == 1
    assert err.startswith(f"error: {message}"), err


@pytest.mark.parametrize("value, code", [("nan", 1), ("1e9", 1), ("-5", 1), ("0", 1),
                                         ("180", 0)])
def test_plan_max_theta_lies_in_0_180(tmp_path, capsys, project_config, value, code):
    got, err = _main_in_process(capsys, ["plan", "--config", project_config,
                                         "--max-theta-deg", value, "--out", str(tmp_path)])
    assert got == code
    if code:
        assert err == f"error: --max-theta-deg must lie in (0, 180], got {float(value)}\n"


def test_collinear_polyline_vertex_gets_no_fold(tmp_path, capsys):
    # joint 3 sits on a straight line: no bend, no fold and no J3 mark; the
    # twist from joint 2's plane to joint 4's is carried into joint 4, with
    # no warning on stderr
    import warnings

    from vinefab import cli

    path = tmp_path / "path.csv"
    path.write_text("x_mm,y_mm,z_mm\n0,0,0\n100,0,0\n100,100,0\n100,200,0\n150,250,30\n")
    argv = ["--chain", str(path), "--radius", "10", "--method", "loop", "--out", str(tmp_path)]
    for command in ("plan", "pattern"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([command, *argv]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    out = captured.out.splitlines()
    assert out[4] == "    3  0 deg           0             222.284056    0"
    plan = json.loads((tmp_path / "plan.json").read_text())
    assert [j["s_tilde_mm"] for j in plan["joints"]] == [0, 44.5681127, 0, 27.4753993]
    svg = (tmp_path / "pattern.svg").read_text()
    assert ">J2<" in svg and ">J4<" in svg and ">J3<" not in svg


def _main_out(capsys, argv):
    """stdout of an in-process cli.main run that exits 0."""
    from vinefab import cli

    assert cli.main(argv) == 0
    return capsys.readouterr().out


def test_only_grow_reads_the_config_scene(tmp_path, capsys, data_dir, project_config):
    config = tmp_path / "project.json"
    config.write_text(json.dumps({"chain": os.path.join(data_dir, "chain_threebend.json"),
                                  "gap": {"method": "tape"}, "scene": "missing.json"}))
    samples = ["--samples", os.path.join(data_dir, "dh_samples.csv")]
    for command, extra in (("analyze", samples), ("fk", [])):
        outputs = []
        for cfg in (project_config, str(config)):
            out = tmp_path / f"{command}-{len(outputs)}"
            outputs.append((_main_out(capsys, [command, "--config", cfg, *extra,
                                               "--out", str(out)]).replace(str(out), "OUT"),
                            sorted((p.name, p.read_bytes()) for p in out.iterdir())))
        assert outputs[0] == outputs[1]
    code, err = _main_in_process(capsys, ["grow", "--config", str(config),
                                          "--out", str(tmp_path)])
    assert code == 1 and err.startswith("error: ") and str(tmp_path / "missing.json") in err


def test_parser_is_built_once_and_runs_repeat_fresh_processes(tmp_path, capsys, project_config):
    from vinefab import cli

    runs = [["plan", "--bogus"],
            ["plan", "--config", project_config, "--out", str(tmp_path / "plan")],
            ["fk", "--config", project_config, "--out", str(tmp_path / "fk")]]
    in_process = []
    for argv in runs:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out.encode(), captured.err.encode()))
    assert cli.build_parser() is cli.build_parser()
    files = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert len(files) == 2
    assert [run_cli(*argv) for argv in runs] == in_process
    assert {p: p.read_bytes() for p in files} == files
