"""File formats: chain/scene JSON and polyline/marker/sample CSV are read; the rest only written.

All numeric output goes through one formatter (9 significant digits) and all
JSON is emitted by a fixed-order serializer, so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager

import numpy as np

from .errors import ValidationError
from .fabrication import FabricationPlan
from .geometry import DHChain, check_items, rotations_to_quaternions
from .growth import ObstacleScene
from .measurement import MarkerRecord, MeasuredDH, check_samples
from .stats import COLUMNS, SampleTable


def fmt9(value) -> str:
    """Format a number with 9 significant digits; integers stay integral."""
    if type(value) is float and math.isfinite(value):  # the common case, first
        return f"{value + 0.0:.9g}"
    if isinstance(value, bool):
        raise ValidationError("fmt9 does not format booleans")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if not math.isfinite(v):
        raise ValidationError(f"cannot format non-finite number {v}")
    return f"{v + 0.0:.9g}"  # + 0.0 turns -0.0 into 0.0


def dumps_json(obj) -> str:
    """Serialize dict/list/str/number/bool/None with fixed field order."""
    parts = []
    _write_json(obj, parts, 0)
    return "".join(parts) + "\n"


def _write_json(obj, parts, indent):
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            parts.append(f"{inner}{json.dumps(str(key))}: ")
            _write_json(value, parts, indent + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            parts.append("[]")
            return
        parts.append("[\n")
        for i, value in enumerate(obj):
            parts.append(inner)
            _write_json(value, parts, indent + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(pad + "]")
    elif isinstance(obj, bool) or obj is None:
        parts.append("true" if obj is True else "false" if obj is False else "null")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, (int, float, np.integer, np.floating)):
        parts.append(fmt9(obj))
    else:
        raise ValidationError(f"cannot serialize {type(obj).__name__} to JSON")


def write_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_json(obj))


def load_json(path):
    def reject_constant(name):
        raise ValidationError(f"{path}: non-finite number {name} is not allowed")

    with _reading(path), open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=reject_constant)


@contextmanager
def _reading(path):
    """Turn a failure to open, decode or parse a file into a ValidationError that names it."""
    try:
        yield
    except FileNotFoundError as exc:
        raise ValidationError(f"file not found: {path}") from exc
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from exc
    except csv.Error as exc:
        raise ValidationError(f"{path}: malformed CSV ({exc})") from exc


def _require(mapping, key, path):
    if key not in mapping:
        raise ValidationError(f"{path}: missing required field {key!r}")
    return mapping[key]


_KINDS = {dict: "a JSON object", list: "a list", str: "a string"}


def _typed(mapping, key, context, kind, default=None):
    """A field of one JSON type (object, list or string); required without a default."""
    value = _require(mapping, key, context) if default is None else mapping.get(key, default)
    if not isinstance(value, kind):
        raise ValidationError(f"{context}: {key!r} must be {_KINDS[kind]}, got {value!r}")
    return value


def _top(data, context, what):
    """The top level of a JSON file, which must be an object."""
    if not isinstance(data, dict):
        raise ValidationError(f"{context}: a {what} must be a JSON object")
    return data


def _float(value, what):
    """A JSON number as a float: no bool, string or null."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an integer past float range
            pass
    raise ValidationError(f"{what} must be a number, got {value!r}")


def _number(mapping, key, context, default=None):
    """A JSON number field as a float."""
    value = _require(mapping, key, context) if default is None else mapping.get(key, default)
    return _float(value, f"{context}: {key!r}")


def _point(mapping, key, context) -> list:
    """A list field of 3 JSON numbers as floats."""
    values = _typed(mapping, key, context, list)
    if len(values) != 3:
        raise ValidationError(f"{context}: {key!r} must hold 3 numbers, got {values!r}")
    return [_float(v, f"{context}: {key!r} item {i}") for i, v in enumerate(values, 1)]


def _objects(mapping, key, context, item, default=None) -> list:
    """A list field of JSON objects as (context, object) pairs: '<context> <item> i'."""
    out = []
    for i, entry in enumerate(_typed(mapping, key, context, list, default), start=1):
        where = f"{context} {item} {i}"
        if not isinstance(entry, dict):
            raise ValidationError(f"{where}: must be a JSON object, got {entry!r}")
        out.append((where, entry))
    return out


@contextmanager
def _context(where):
    """Prefix the ValidationError of a constructor with the file part it reads."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------- chain JSON

def chain_to_dict(chain: DHChain) -> dict:
    return {
        "radius_mm": chain.radius,
        "links": [{"a_mm": a,
                   "alpha_deg": math.degrees(alpha),
                   "theta_deg": math.degrees(theta)}
                  for a, alpha, theta in zip(chain.a.tolist(), chain.alpha.tolist(),
                                             chain.theta.tolist())],
    }


def chain_from_dict(data: dict, context: str = "chain") -> DHChain:
    radius = _number(_top(data, context, "chain"), "radius_mm", context)
    links = _objects(data, "links", context, "link")
    if not links:
        raise ValidationError(f"{context}: 'links' must be a non-empty list")
    a, alpha, theta = [], [], []
    for where, entry in links:
        a.append(_number(entry, "a_mm", where))
        alpha.append(math.radians(_number(entry, "alpha_deg", where, 0.0)))
        theta.append(math.radians(_number(entry, "theta_deg", where, 0.0)))
    with _context(context):
        return DHChain(a, alpha, theta, radius)


def read_chain(path) -> DHChain:
    return chain_from_dict(load_json(path), context=str(path))


def write_chain(chain: DHChain, path) -> None:
    write_json(chain_to_dict(chain), path)


# ------------------------------------------------------------- polyline CSV

POLYLINE_HEADER = ["x_mm", "y_mm", "z_mm"]


def read_polyline(path) -> np.ndarray:
    lines, columns = _read_csv(path, POLYLINE_HEADER)
    pts = _floats(path, lines, columns, POLYLINE_HEADER)
    if pts.shape[0] < 2:
        raise ValidationError(f"{path}: polyline needs at least 2 points")
    check_items(lambda i: f"{path}: line {lines[i]}", [np.isfinite(pts).all(axis=1)],
                lambda i: [f"non-finite coordinate {pts[i]}"])
    return pts


def write_polyline(points: np.ndarray, path) -> None:
    pts = np.asarray(points, float).reshape(-1, 3).tolist()
    _write_csv(path, POLYLINE_HEADER, [list(map(fmt9, p)) for p in pts])


# ---------------------------------------------------------------- scene JSON

def read_scene(path) -> ObstacleScene:
    """Spheres and boxes of a scene JSON; every coordinate list holds 3 numbers."""
    data = _top(load_json(path), path, "scene")
    spheres = [(_point(entry, "center_mm", where), _number(entry, "radius_mm", where))
               for where, entry in _objects(data, "spheres", path, "sphere", [])]
    boxes = [(_point(entry, "min_mm", where), _point(entry, "max_mm", where))
             for where, entry in _objects(data, "boxes", path, "box", [])]
    with _context(path):
        return ObstacleScene(spheres=spheres, boxes=boxes)


def write_scene(scene: ObstacleScene, path) -> None:
    write_json({"spheres": [{"center_mm": c.tolist(), "radius_mm": r} for c, r in scene.spheres],
                "boxes": [{"min_mm": lo.tolist(), "max_mm": hi.tolist()}
                          for lo, hi in scene.boxes]}, path)


# ----------------------------------------------------------------- plan JSON

def plan_to_dict(plan: FabricationPlan) -> dict:
    return {
        "radius_mm": plan.radius,
        "cylinders_mm": plan.cylinders.tolist(),
        "joints": [{"index": i,
                    "s_tilde_mm": s,
                    "axial_start_mm": z,
                    "circumferential_mm": c,
                    "d_g_mm": d_g}
                   for i, s, z, c, d_g in plan.joints],
        "arc_offsets_mm": plan.arc_offsets.tolist(),
        "total_tube_length_mm": plan.total_tube_length,
    }


def write_plan(plan: FabricationPlan, path) -> None:
    write_json(plan_to_dict(plan), path)


# ---------------------------------------------------------------- marker CSV

MARKER_HEADER = ["marker_id", "t_s", "x_mm", "y_mm", "z_mm",
                 "qw", "qx", "qy", "qz"]


def read_markers(path) -> list:
    """One MarkerRecord per marker id, in order of first appearance.

    Each record's samples keep their file order.
    """
    lines, columns = _read_csv(path, MARKER_HEADER)
    values = _floats(path, lines, columns, MARKER_HEADER[1:])
    # checked once, on the whole file, so that an error names its line
    t, p, q = check_samples(str(path), values[:, 0], values[:, 1:4], values[:, 4:],
                            lines)
    rows = {}
    for i, marker_id in enumerate(columns["marker_id"]):
        rows.setdefault(marker_id, []).append(i)
    return [MarkerRecord._from_checked(marker_id, t[idx], p[idx], q[idx])
            for marker_id, idx in rows.items()]


def write_markers(records, path) -> None:
    rows = []
    for rec in records:
        for t, p, q in zip(rec.times.tolist(), rec.positions.tolist(),
                           rec.quaternions.tolist()):
            rows.append([rec.marker_id, fmt9(t), *map(fmt9, p), *map(fmt9, q)])
    _write_csv(path, MARKER_HEADER, rows)


# ------------------------------------------------------------ measured DH IO

def measured_to_dict(measured: MeasuredDH) -> dict:
    j = measured.first_joint
    return {
        "phase": measured.phase,
        "joints": [{"joint": j + k, "theta_deg": math.degrees(v)}
                   for k, v in enumerate(measured.thetas.tolist())],
        "twists": [{"link": j + k, "alpha_deg": math.degrees(v)}
                   for k, v in enumerate(measured.alphas.tolist())],
        "lengths": [{"link": j - 1 + k, "a_mm": v}
                    for k, v in enumerate(measured.lengths.tolist())],
    }


def write_measured(measured: MeasuredDH, path) -> None:
    write_json(measured_to_dict(measured), path)


ERROR_HEADER = ["parameter", "joint_or_link_index", "target", "measured",
                "error", "phase"]


def write_errors(errors, path) -> None:
    _write_csv(path, ERROR_HEADER,
               [[kind, str(i), fmt9(t), fmt9(m), fmt9(e), errors.phase]
                for kind, i, t, m, e in zip(errors.kind, errors.index.tolist(),
                                            errors.target.tolist(), errors.measured.tolist(),
                                            errors.error.tolist())])


# ---------------------------------------------------------------- sample CSV

SAMPLE_HEADER = ["value", "method", "material", "phase", "parameter", "robot_id"]


def read_samples(path) -> SampleTable:
    lines, columns = _read_csv(path, SAMPLE_HEADER)
    if not lines:
        raise ValidationError(f"{path}: no sample rows")
    value = _floats(path, lines, columns, SAMPLE_HEADER[:1])[:, 0]
    with _context(path):
        return SampleTable(value, *(columns[c] for c in SAMPLE_HEADER[1:]), lines=lines)


def write_samples(table: SampleTable, path) -> None:
    names = [np.array(levels)[getattr(table, c)].tolist() for c, levels in COLUMNS.items()]
    _write_csv(path, SAMPLE_HEADER,
               [[fmt9(v), *row] for v, *row in zip(table.value.tolist(), *names,
                                                   table.robot_id.tolist())])


# ------------------------------------------------------------- trace outputs

FK_HEADER = ["frame", "x_mm", "y_mm", "z_mm", "qw", "qx", "qy", "qz"]
GROW_HEADER = ["everted_mm", "tip_x_mm", "tip_y_mm", "tip_z_mm", "clearance_mm"]


def write_fk_frames(frames, path) -> None:
    quaternions = rotations_to_quaternions(np.array([pose.rotation for pose in frames]))
    _write_csv(path, FK_HEADER,
               [[str(i), *map(fmt9, pose.translation.tolist()), *map(fmt9, q)]
                for i, (pose, q) in enumerate(zip(frames, quaternions.tolist()))])


def write_growth_trace(trace, path) -> None:
    """trace: iterable of (everted_mm, tip_xyz, clearance_mm or None)."""
    _write_csv(path, GROW_HEADER,
               [[fmt9(everted), *map(fmt9, np.asarray(tip, float).tolist()),
                 "" if clr is None else fmt9(clr)] for everted, tip, clr in trace])


# ------------------------------------------------------------- CSV plumbing

def _read_csv(path, header):
    """Read the named columns of a CSV file: (line numbers, {column: values}).

    Blank lines are skipped; line numbers count them. A row whose field
    count differs from the header's is rejected.
    """
    with _reading(path), open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        fieldnames = next(reader, None)
        if fieldnames is None:
            raise ValidationError(f"{path}: empty file")
        missing = [c for c in header if c not in fieldnames]
        if missing:
            raise ValidationError(
                f"{path}: missing columns {missing}; header is {fieldnames}")
        lines, rows = [], []
        for row in reader:
            if not row:
                continue
            if len(row) != len(fieldnames):
                raise ValidationError(
                    f"{path}: line {reader.line_num}: expected "
                    f"{len(fieldnames)} fields, got {len(row)}")
            lines.append(reader.line_num)
            rows.append(row)
    index = {c: fieldnames.index(c) for c in header}
    return lines, {c: [row[i] for row in rows] for c, i in index.items()}


def _floats(path, lines, columns, names) -> np.ndarray:
    """The named columns as an (m, len(names)) float array, in one conversion."""
    cols = [columns[c] for c in names]
    try:
        return np.array([list(map(float, col)) for col in cols]).T.copy()
    except ValueError:
        for line, row in zip(lines, zip(*cols)):
            try:
                list(map(float, row))
            except ValueError as exc:
                raise ValidationError(f"{path}: line {line}: {exc}") from exc
        raise


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
