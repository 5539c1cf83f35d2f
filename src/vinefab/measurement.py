"""Optical-marker ingestion, sample averaging, and DH parameter recovery.

Marker protocol: each bend joint j (joints 2..n of the chain; the base joint
does not bend) carries a marker on the joint plus one a fixed offset toward
each neighbor joint. The first bend joint uses a marker at the chain base in
place of its proximal neighbor and the last uses one at the tip, so the
marker set also bounds the first and last links. A marker's samples are
arrays (``MarkerRecord``). Only their positions enter the recovery; the
orientations are kept for ``average_samples`` and the marker CSV.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateGeometryError, MissingMarkerError,
                     ValidationError)
from .geometry import (DHChain, RigidPose, _trusted, chain_frames, float_array,
                       gauge_twist, nearest_rotation, quaternion_to_rotation,
                       rotation_to_quaternion, wrap_angle)

# offset of the neighbor-facing markers from their joint, per the measurement jig
DEFAULT_MARKER_OFFSET_MM = 76.5

_ROLES = {
    "on": "on", "joint": "on", "on-joint": "on",
    "prox": "prox", "proximal": "prox",
    "dist": "dist", "distal": "dist",
}
_ID_RE = re.compile(r"^j(\d+)[_:](.+)$")

_MIN_DIRECTION_MM = 1.0


def parse_marker_id(marker_id: str):
    """Split a marker id into (joint index or None, canonical role).

    Accepts 'base', 'tip', and 'j<k>_<role>' with role spelled 'on'/'joint'/
    'on-joint', 'prox'/'proximal', or 'dist'/'distal'.
    """
    s = marker_id.strip().lower()
    if s in ("base", "tip"):
        return None, s
    m = _ID_RE.match(s)
    if m and m.group(2) in _ROLES:
        return int(m.group(1)), _ROLES[m.group(2)]
    raise ValidationError(f"unrecognized marker id {marker_id!r}")


def check_samples(context: str, times, positions, quaternions, lines=None):
    """Validate marker samples; return them as read-only float arrays.

    The one check of the sample invariants: at least one sample, times (m,),
    positions (m, 3) and quaternions (m, 4) of equal length, every value
    finite, and every quaternion of norm 1 within 1e-6.
    Quaternions come back normalized. Errors name sample i, or its file line
    ``lines[i]`` when given, after ``context``.
    """
    t = float_array(times, f"{context}: times")
    p = float_array(positions, f"{context}: positions")
    q = float_array(quaternions, f"{context}: quaternions")
    if t.size == 0:
        raise ValidationError(f"{context}: no samples")
    m = t.shape[0] if t.ndim == 1 else -1
    if p.shape != (m, 3) or q.shape != (m, 4):
        raise ValidationError(
            f"{context}: times, positions and quaternions must have shapes "
            f"(m,), (m, 3) and (m, 4), got {t.shape}, {p.shape} and {q.shape}")
    finite = np.isfinite(t) & np.isfinite(p).all(axis=1) & np.isfinite(q).all(axis=1)
    norms = np.linalg.norm(q, axis=1)
    # written as `not (err <= tol)` so that a NaN norm is rejected too
    bad = ~finite | ~(np.abs(norms - 1.0) <= 1e-6)
    if bad.any():
        i = int(np.argmax(bad))
        where = f"{context}: sample {i}" if lines is None else f"{context}: line {lines[i]}"
        if not finite[i]:
            values = [float(t[i]), *p[i].tolist(), *q[i].tolist()]
            raise ValidationError(f"{where}: non-finite number in {values}")
        raise ValidationError(f"{where}: quaternion norm {norms[i]:.6g} is not 1")
    q /= norms[:, None]
    for a in (t, p, q):
        a.flags.writeable = False
    return t, p, q


@dataclass(frozen=True)
class MarkerRecord:
    """Time-stamped samples of one labeled marker, as arrays.

    ``times`` (m,) in seconds, ``positions`` (m, 3) in millimeters and
    ``quaternions`` (m, 4) as unit (w, x, y, z); all read-only and checked by
    ``check_samples``.
    """

    marker_id: str
    times: np.ndarray
    positions: np.ndarray
    quaternions: np.ndarray

    def __post_init__(self):
        parse_marker_id(self.marker_id)
        arrays = check_samples(f"marker {self.marker_id!r}", self.times,
                               self.positions, self.quaternions)
        for name, value in zip(("times", "positions", "quaternions"), arrays):
            object.__setattr__(self, name, value)

    @classmethod
    def _from_checked(cls, marker_id, times, positions, quaternions):
        """A record of samples that ``check_samples`` has passed, unchecked and uncopied."""
        parse_marker_id(marker_id)
        for a in (times, positions, quaternions):
            a.flags.writeable = False
        return _trusted(cls, marker_id=marker_id, times=times,
                        positions=positions, quaternions=quaternions)

    @property
    def joint(self):
        return parse_marker_id(self.marker_id)[0]

    @property
    def role(self):
        return parse_marker_id(self.marker_id)[1]


def average_samples(record: MarkerRecord) -> RigidPose:
    """Average a marker's samples: mean position, chordal-mean rotation.

    The rotation is the top eigenvector of sum(q q^T) (Markley et al.,
    "Averaging Quaternions", 2007). It minimizes the same Frobenius cost as
    projecting the mean rotation matrix onto SO(3), and each quaternion's
    sign drops out.
    """
    q = record.quaternions
    _, vectors = np.linalg.eigh(q.T @ q)
    return RigidPose(quaternion_to_rotation(vectors[:, -1]),
                     record.positions.mean(axis=0))


@dataclass(frozen=True)
class MeasuredDH:
    """Recovered DH parameters: (index, value) pairs per parameter kind."""

    phase: str
    joint_thetas: tuple  # ((joint index, rad), ...)
    link_alphas: tuple   # ((link index, rad), ...)
    link_lengths: tuple  # ((link index, mm), ...)

    def __post_init__(self):
        if self.phase not in ("pre", "post"):
            raise ValidationError(f"phase must be 'pre' or 'post', got {self.phase!r}")
        nj = len(self.joint_thetas)
        if len(self.link_lengths) != nj + 1 or len(self.link_alphas) != max(nj - 1, 0):
            raise ValidationError(
                "measured parameter counts do not match a serial chain "
                f"({nj} joints, {len(self.link_alphas)} twists, "
                f"{len(self.link_lengths)} lengths)")


def _unit(v: np.ndarray, what: str) -> np.ndarray:
    n = np.linalg.norm(v)
    if n < _MIN_DIRECTION_MM:
        raise DegenerateGeometryError(
            f"{what}: direction vector shorter than {_MIN_DIRECTION_MM} mm")
    return v / n


@np.errstate(over="ignore", invalid="ignore")  # non-finite results are rejected
def recover_dh(markers, phase: str = "pre") -> MeasuredDH:
    """Recover joint angles, link twists, and link lengths from marker records.

    For joint j with averaged positions p (proximal), o (on-joint), and
    d (distal): the incoming direction is o - p, the outgoing direction is
    d - o, and the joint angle is the angle between them (nonnegative). Each
    twist is the dihedral angle between the bending planes of consecutive
    joints about the line connecting them; lengths are distances between
    consecutive joint positions with the base and tip markers bounding the
    end links.
    """
    positions = {}
    for rec in markers:
        key = (rec.joint, rec.role)
        if key in positions:
            raise ValidationError(f"duplicate marker {rec.marker_id!r}")
        positions[key] = p = rec.positions.mean(axis=0)
        if not np.isfinite(p).all():
            raise ValidationError(
                f"marker {rec.marker_id!r}: averaged position {p} is not finite")

    joints = sorted({j for j, _ in positions if j is not None})
    if not joints:
        raise ValidationError("no joint markers present")
    if joints != list(range(joints[0], joints[-1] + 1)):
        raise ValidationError(f"joint markers must be consecutive, got {joints}")
    first, last = joints[0], joints[-1]

    def pos(j, role):
        if (j, role) in positions:
            return positions[(j, role)]
        if role == "prox" and j == first and (None, "base") in positions:
            return positions[(None, "base")]
        if role == "dist" and j == last and (None, "tip") in positions:
            return positions[(None, "tip")]
        raise MissingMarkerError(j, role)

    thetas = []
    normals = {}
    for j in joints:
        o = pos(j, "on")
        v = _unit(o - pos(j, "prox"), f"joint {j} incoming")
        w = _unit(pos(j, "dist") - o, f"joint {j} outgoing")
        cross = np.cross(v, w)
        thetas.append((j, math.atan2(np.linalg.norm(cross), float(v @ w))))
        normals[j] = cross

    alphas = []
    for j in joints[:-1]:
        axis = _unit(pos(j + 1, "on") - pos(j, "on"), f"link {j}")
        n0, n1 = normals[j], normals[j + 1]
        if np.linalg.norm(n0) < 1e-9 or np.linalg.norm(n1) < 1e-9:
            # a straight joint has no bending plane; no twist is observable
            alphas.append((j, 0.0))
            continue
        n0, n1 = n0 / np.linalg.norm(n0), n1 / np.linalg.norm(n1)
        alphas.append((j, math.atan2(float(np.cross(n0, n1) @ axis),
                                     float(n0 @ n1))))

    lengths = [(first - 1, float(np.linalg.norm(pos(first, "on") - pos(first, "prox"))))]
    for j in joints[:-1]:
        lengths.append((j, float(np.linalg.norm(pos(j + 1, "on") - pos(j, "on")))))
    lengths.append((last, float(np.linalg.norm(pos(last, "dist") - pos(last, "on")))))

    if not all(math.isfinite(v) for _, v in thetas + alphas + lengths):
        raise ValidationError("recovered DH values are not finite: the marker "
                              "positions are too far apart to difference")
    return MeasuredDH(phase=phase, joint_thetas=tuple(thetas),
                      link_alphas=tuple(alphas), link_lengths=tuple(lengths))


@dataclass(frozen=True)
class ErrorRow:
    """One line of the measured-vs-target error table (angles in degrees)."""

    parameter: str
    index: int
    target: float
    measured: float
    error: float
    phase: str


def dh_errors(measured: MeasuredDH, target: DHChain) -> list:
    """Signed errors (measured - target) per parameter, degrees / millimeters.

    The measured set must cover the full chain: bend joints 2..n, twists of
    the links between them, and all n link lengths. Targets are compared in
    the nonnegative gauge the recovery measures in: joint targets are
    |theta| and twist targets ``gauge_twist`` of the two bends, wrapped into
    (-pi, pi] when exactly one of them is negative.
    """
    n = target.n
    joint_idx = [j for j, _ in measured.joint_thetas]
    alpha_idx = [i for i, _ in measured.link_alphas]
    length_idx = [i for i, _ in measured.link_lengths]
    if (joint_idx != list(range(2, n + 1))
            or alpha_idx != list(range(2, n))
            or length_idx != list(range(1, n + 1))):
        raise ValidationError(
            f"measured topology does not match a {n}-link chain: "
            f"joints {joint_idx}, twists {alpha_idx}, lengths {length_idx}")

    thetas, alphas, lengths = (v.tolist() for v in (target.theta, target.alpha, target.a))
    rows = []
    for (j, th) in measured.joint_thetas:
        t = abs(thetas[j - 1])
        rows.append(ErrorRow("joint", j, math.degrees(t), math.degrees(th),
                             math.degrees(th - t), measured.phase))
    for (i, al) in measured.link_alphas:
        alpha = alphas[i - 1]
        t = gauge_twist(alpha, thetas[i - 1], thetas[i])
        if t != alpha:  # shifted by pi, so it may leave (-pi, pi]
            t = wrap_angle(t)
        rows.append(ErrorRow("twist", i, math.degrees(t), math.degrees(al),
                             math.degrees(al - t), measured.phase))
    for (i, a) in measured.link_lengths:
        t = lengths[i - 1]
        rows.append(ErrorRow("length", i, t, a, a - t, measured.phase))
    return rows


def synthetic_markers(chain: DHChain, offset: float = DEFAULT_MARKER_OFFSET_MM,
                      n_samples: int = 1, rate_hz: float = 20.0,
                      position_noise_mm: float = 0.0,
                      rotation_noise_deg: float = 0.0,
                      rng: np.random.Generator | None = None) -> list:
    """Generate the marker set a perfectly instrumented chain would produce.

    Useful for tests and for exercising the ingestion formats. Gaussian
    position noise (per axis) and small rotation noise (per axis angle) can
    be added; with both zero, recover_dh inverts this generator exactly.
    """
    if chain.n < 2:
        raise ValidationError("marker protocol needs at least 2 links")
    if rng is None:
        rng = np.random.default_rng(0)
    rots, verts = chain_frames(chain)
    seg = np.diff(verts, axis=0)
    units = seg / np.linalg.norm(seg, axis=1)[:, None]

    spots = [("base", verts[0], rots[0])]
    for j in range(2, chain.n + 1):
        o = verts[j - 1]
        rot = rots[j - 1]
        spots.append((f"j{j}_on", o, rot))
        if j > 2:
            spots.append((f"j{j}_prox", o - offset * units[j - 2], rot))
        if j < chain.n:
            spots.append((f"j{j}_dist", o + offset * units[j - 1], rot))
    spots.append(("tip", verts[-1], rots[-1]))

    times = np.arange(n_samples) / rate_hz
    records = []
    for marker_id, p, rot in spots:
        positions, quaternions = [], []
        for _ in range(n_samples):
            noisy_p = p + rng.normal(0.0, position_noise_mm, 3) \
                if position_noise_mm > 0.0 else p
            noisy_r = rot
            if rotation_noise_deg > 0.0:
                axis_angle = rng.normal(0.0, math.radians(rotation_noise_deg), 3)
                noisy_r = nearest_rotation(rot @ _small_rotation(axis_angle))
            positions.append(noisy_p)
            quaternions.append(rotation_to_quaternion(noisy_r))
        records.append(MarkerRecord(marker_id, times, positions, quaternions))
    return records


def _small_rotation(axis_angle: np.ndarray) -> np.ndarray:
    angle = float(np.linalg.norm(axis_angle))
    if angle < 1e-15:
        return np.eye(3)
    x, y, z = axis_angle / angle
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)
