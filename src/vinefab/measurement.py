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
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateGeometryError, MissingMarkerError,
                     ValidationError)
from .geometry import (STRAIGHT_SINE, DHChain, Pose, _check_poses, _trusted, bend_planes,
                       carried_twists, chain_frames, check_items, dot_rows, float_array,
                       quaternion_to_rotation, rotations_to_quaternions, twist_angles,
                       wrap_angle)

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
    norms = np.linalg.norm(q, axis=1)
    # a NaN norm fails `<= tol` too; a non-finite sample is named for that first
    check_items(lambda i: f"{context}: sample {i}" if lines is None
                else f"{context}: line {lines[i]}",
                [np.isfinite(t) & np.isfinite(p).all(axis=1) & np.isfinite(q).all(axis=1),
                 np.abs(norms - 1.0) <= 1e-6],
                lambda i: [f"non-finite number in {[float(t[i]), *p[i].tolist(), *q[i].tolist()]}",
                           f"quaternion norm {norms[i]:.6g} is not 1"])
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


def average_samples(record: MarkerRecord) -> Pose:
    """Average a marker's samples: mean position, chordal-mean rotation.

    The rotation is the top eigenvector of sum(q q^T) (Markley et al.,
    "Averaging Quaternions", 2007). It minimizes the same Frobenius cost as
    projecting the mean rotation matrix onto SO(3), and each quaternion's
    sign drops out. A mean past float range is rejected.
    """
    q = record.quaternions
    _, vectors = np.linalg.eigh(q.T @ q)
    rotation = quaternion_to_rotation(vectors[:, -1])
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        translation = record.positions.mean(axis=0)
    _check_poses(rotation[None], translation[None])
    return Pose(rotation, translation)


_MEASURED = ("thetas", "alphas", "lengths")


@dataclass(frozen=True, eq=False)
class MeasuredDH:
    """Recovered DH parameters as read-only arrays, checked once.

    ``thetas`` (J,) are the bends of joints first_joint, first_joint + 1, ...
    and ``alphas`` (J-1,) the twists of the links between them, in rad;
    ``lengths`` (J+1,) are links first_joint - 1 .. first_joint + J - 1 in mm.
    """

    phase: str
    first_joint: int
    thetas: np.ndarray
    alphas: np.ndarray
    lengths: np.ndarray

    def __post_init__(self):
        if self.phase not in ("pre", "post"):
            raise ValidationError(f"phase must be 'pre' or 'post', got {self.phase!r}")
        if isinstance(self.first_joint, bool) or not isinstance(self.first_joint, (int, np.integer)):
            raise ValidationError(f"first_joint must be an integer, got {self.first_joint!r}")
        object.__setattr__(self, "first_joint", int(self.first_joint))
        values = [float_array(getattr(self, name), f"measured {name}") for name in _MEASURED]
        nj = values[0].size
        if [x.shape for x in values] != [(nj,), (max(nj - 1, 0),), (nj + 1,)]:
            raise ValidationError(
                "measured parameter counts do not match a serial chain "
                f"({nj} joints, {values[1].size} twists, {values[2].size} lengths)")
        for name, x in zip(_MEASURED, values):
            if not np.isfinite(x).all():
                raise ValidationError(f"measured {name} must be finite, got {x.tolist()}")
            x.flags.writeable = False
            object.__setattr__(self, name, x)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # non-finite results are rejected
def recover_dh(markers, phase: str = "pre") -> MeasuredDH:
    """Recover joint angles, link twists, and link lengths from marker records.

    For joint j with averaged positions p (proximal), o (on-joint), and
    d (distal): the incoming direction is o - p, the outgoing direction is
    d - o, and the joint angle is the angle between them (nonnegative). Each
    twist is the dihedral angle between the bending planes of consecutive
    joints about the line connecting them; lengths are distances between
    consecutive joint positions with the base and tip markers bounding the
    end links. A straight joint (``geometry.bend_planes``) has a 0 twist before
    it and the next bend's twist spans it; twists up to the first bend are 0.
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

    # (J, 3) each, gathered joint by joint so that the first missing marker is named
    on, prox, dist = np.swapaxes([[pos(j, role) for role in ("on", "prox", "dist")]
                                  for j in joints], 0, 1)
    steps = (on - prox, dist - on, on[1:] - on[:-1])  # incoming, outgoing, links
    norms = [np.sqrt(dot_rows(d, d)) for d in steps]
    # in the order joint 2 incoming, joint 2 outgoing, ..., then link 2, ...
    short = np.concatenate([np.stack(norms[:2], axis=1).ravel(), norms[2]]) < _MIN_DIRECTION_MM
    if short.any():
        names = [f"joint {j} {way}" for j in joints for way in ("incoming", "outgoing")]
        raise DegenerateGeometryError(
            f"{(names + [f'link {j}' for j in joints[:-1]])[int(np.argmax(short))]}: "
            f"direction vector shorter than {_MIN_DIRECTION_MM} mm")
    v, w, axis = (d / n[:, None] for d, n in zip(steps, norms))
    thetas, normals, bent = bend_planes(v, w, np.zeros(3))
    # no plane is measured before the first bend; a straight joint's twist carries on
    alphas = np.where(np.logical_or.accumulate(bent)[:-1] & bent[1:],
                      twist_angles(normals[:-1], normals[1:], axis), 0.0)
    values = (thetas, alphas, np.concatenate([norms[0][:1], norms[2], norms[1][-1:]]))
    if not all(np.isfinite(x).all() for x in values):
        raise ValidationError("recovered DH values are not finite: the marker "
                              "positions are too far apart to difference")
    return MeasuredDH(phase, first, *values)


# the measured-vs-target error table as columns, one entry per line (angles in
# degrees); phase is the one phase of every line
DHErrors = namedtuple("DHErrors", ["kind", "index", "target", "measured", "error", "phase"])


def dh_errors(measured: MeasuredDH, target: DHChain) -> DHErrors:
    """Signed errors (measured - target) per parameter, degrees / millimeters.

    The measured set must cover the full chain: bend joints 2..n, twists of
    the links between them, and all n link lengths. Targets are compared in
    the gauge the recovery measures in: joint targets are |theta|, and twist
    targets are ``geometry.carried_twists`` over joints 2..n (0 up to their
    first bend and before a straight joint), each wrapped into (-pi, pi]
    unless it is the link's own alpha.
    """
    n, j, nj = target.n, measured.first_joint, measured.thetas.size
    if j != 2 or nj != n - 1:
        raise ValidationError(
            f"measured topology does not match a {n}-link chain: "
            f"joints {list(range(j, j + nj))}, twists {list(range(j, j + nj - 1))}, "
            f"lengths {list(range(j - 1, j + nj))}")
    theta, alpha = target.theta[1:], target.alpha[1:]
    twists = carried_twists(theta, alpha, np.abs(np.sin(theta)) >= STRAIGHT_SINE).tolist()
    # a shifted or summed twist may leave (-pi, pi]
    angles = np.abs(theta).tolist() + [t if t == a else wrap_angle(t)
                                       for t, a in zip(twists, alpha.tolist())]
    got = np.concatenate([measured.thetas, measured.alphas])
    return DHErrors(
        kind=np.array(["joint"] * (n - 1) + ["twist"] * (n - 2) + ["length"] * n),
        index=np.concatenate([np.arange(2, n + 1), np.arange(2, n), np.arange(1, n + 1)]),
        target=np.concatenate([np.degrees(angles), target.a]),
        measured=np.concatenate([np.degrees(got), measured.lengths]),
        error=np.concatenate([np.degrees(got - angles), measured.lengths - target.a]),
        phase=measured.phase)


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

    names, points, frames = zip(*spots)
    shape = (len(spots), n_samples)
    positions = np.repeat(points, n_samples, axis=0)  # row k: spot k // n_samples
    rotations = np.repeat(frames, n_samples, axis=0)
    # per (spot, sample), position noise then rotation noise: the scalar stream order
    noisy = (position_noise_mm > 0.0, rotation_noise_deg > 0.0)
    z = rng.normal(0.0, 1.0, (positions.shape[0], 3 * sum(noisy)))
    if noisy[0]:
        positions += 0.0 + position_noise_mm * z[:, :3]
    if noisy[1]:  # Rodrigues: I + sin(t) K + (1 - cos(t)) K^2, K the unit axis
        axis_angle = 0.0 + math.radians(rotation_noise_deg) * z[:, -3:]
        angle = np.sqrt(dot_rows(axis_angle, axis_angle))
        tiny = angle < 1e-15
        kx, ky, kz = (axis_angle / np.where(tiny, 1.0, angle)[:, None]).T
        o = np.zeros_like(angle)
        k = np.stack([o, -kz, ky, kz, o, -kx, -ky, kx, o], axis=1).reshape(-1, 3, 3)
        sin, cos = (np.array(list(map(f, angle.tolist())), float) for f in (math.sin, math.cos))
        small = np.eye(3) + sin[:, None, None] * k + (1.0 - cos)[:, None, None] * (k @ k)
        small[tiny] = np.eye(3)
        rotations = rotations @ small
    times = np.arange(n_samples) / rate_hz
    positions = positions.reshape(*shape, 3)
    quaternions = rotations_to_quaternions(rotations).reshape(*shape, 4)
    return [MarkerRecord(name, times, p, q) for name, p, q in zip(names, positions, quaternions)]
