"""Rigid-body math, DH chains, forward kinematics, and polyline conversion.

Conventions used throughout the package:

* lengths in millimeters, angles in radians;
* classic (distal) DH convention with zero joint offset: the transform of
  link i is ``Rot_z(theta_i) * Trans_x(a_i) * Rot_x(alpha_i)``;
* the chain base coincides with the world frame, so frame 0 is the
  identity and each frame's x-axis points along the segment just traversed.

:func:`chain_frames` is the one place a chain's frames are built, as arrays;
FK, growth and marker synthesis all read them from it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

ORTHONORMALITY_TOL = 1e-9

# polyline_to_dh accepts inputs whose first vertex / first segment sit in the
# chain base frame within these tolerances
ORIGIN_TOL = 1e-6
PLANE_TOL = 1e-9


def wrap_angle(x: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    y = math.fmod(x + math.pi, 2.0 * math.pi)
    if y <= 0.0:
        y += 2.0 * math.pi
    return y - math.pi


def gauge_twist(alpha: float, theta_i: float, theta_next: float) -> float:
    """Twist between joints i and i+1 once both bends are made nonnegative.

    A bend of -theta at meridian c is the +theta fold at c + pi*r, so each
    negative bend shifts the twist by pi. The result is not wrapped; with no
    negative bend it is bit-for-bit alpha.
    """
    # float(): numpy bools refuse `-`
    return alpha - math.pi * (float(theta_next < 0.0) - float(theta_i < 0.0))


def rot_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rot_x(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def nearest_rotation(m: np.ndarray) -> np.ndarray:
    """Project a 3x3 matrix onto SO(3) (closest rotation in Frobenius norm)."""
    u, _, vt = np.linalg.svd(np.asarray(m, float))
    r = u @ vt
    if np.linalg.det(r) < 0.0:
        r = u @ np.diag([1.0, 1.0, -1.0]) @ vt
    return r


def rotation_to_quaternion(r: np.ndarray) -> np.ndarray:
    """Rotation matrix to unit quaternion (w, x, y, z), w >= 0."""
    r = np.asarray(r, float)
    t = np.trace(r)
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        q = np.array([0.25 * s, (r[2, 1] - r[1, 2]) / s,
                      (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s])
    else:
        i = int(np.argmax(np.diag(r)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = math.sqrt(max(r[i, i] - r[j, j] - r[k, k] + 1.0, 0.0)) * 2.0
        q = np.empty(4)
        q[0] = (r[k, j] - r[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (r[j, i] + r[i, j]) / s
        q[1 + k] = (r[k, i] + r[i, k]) / s
    if q[0] < 0.0:
        q = -q
    return q / np.linalg.norm(q)


def quaternion_to_rotation(q: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) to rotation matrix."""
    w, x, y, z = np.asarray(q, float) / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


@dataclass(frozen=True)
class RigidPose:
    """Rotation + translation in 3D. Immutable after construction."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.array(self.rotation, float)
        t = np.array(self.translation, float).reshape(3)
        if r.shape != (3, 3):
            raise ValidationError(f"rotation must be 3x3, got {r.shape}")
        _check_poses(r[None], t[None])
        r.flags.writeable = t.flags.writeable = False
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    def inverse(self) -> "RigidPose":
        rt = self.rotation.T
        return RigidPose(rt, -(rt @ self.translation))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one point (3,) or many points (n, 3)."""
        p = np.asarray(points, float)
        return p @ self.rotation.T + self.translation

    def quaternion(self) -> np.ndarray:
        return rotation_to_quaternion(self.rotation)


def float_array(values, what: str) -> np.ndarray:
    """A new C-ordered float array of `values`.

    Ragged, non-numeric or out-of-range input raises ValidationError naming
    `what`, not numpy's ValueError, TypeError or OverflowError.
    """
    try:
        return np.array(values, float, order="C")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} must be numbers in a regular array: {exc}") from None


def _check_poses(rots: np.ndarray, origins: np.ndarray) -> None:
    """The RigidPose invariants on stacks (m, 3, 3) and (m, 3), in one pass."""
    with np.errstate(invalid="ignore", over="ignore"):
        err = np.abs(np.swapaxes(rots, 1, 2) @ rots - np.eye(3)).max(axis=(1, 2))
        det_err = np.abs(np.linalg.det(rots) - 1.0)
    # written as `not (err < tol)` so that a NaN error is rejected too
    if not (err < ORTHONORMALITY_TOL).all():
        raise ValidationError("rotation is not orthonormal within 1e-9")
    if not (det_err < ORTHONORMALITY_TOL).all():
        raise ValidationError("rotation determinant is not 1 within 1e-9")
    finite = np.isfinite(origins).all(axis=1)
    if not finite.all():
        raise ValidationError(
            f"translation must be finite, got {origins[np.argmin(finite)]}")


def _trusted(cls, **fields):
    """A frozen dataclass instance of already checked fields: no __post_init__."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


# one link of a chain, read from its arrays: length a (mm), alpha and theta (rad)
DHLink = namedtuple("DHLink", ["a", "alpha", "theta"])


@dataclass(frozen=True, eq=False)
class DHChain:
    """Link parameters as read-only (n,) arrays plus the body radius of the tube.

    ``a`` in mm, ``alpha`` and ``theta`` in rad, checked once here: at least
    one link, a >= 0 with a finite running total, and angles in (-pi, pi]
    within 1e-12, stored with -pi as pi. Errors name the first bad link.
    """

    a: np.ndarray
    alpha: np.ndarray
    theta: np.ndarray
    radius: float

    def __post_init__(self):
        a, alpha, theta = (float_array(getattr(self, name), name)
                           for name in ("a", "alpha", "theta"))
        if a.ndim != 1 or a.size < 1 or not a.shape == alpha.shape == theta.shape:
            raise ValidationError("a chain needs at least one link, and a, alpha and "
                                  "theta must be sequences of equal length")
        with np.errstate(over="ignore", invalid="ignore"):
            running = np.cumsum(a)
        # NaN and inf fail the range tests too
        ok = np.array([np.abs(alpha) <= math.pi + 1e-12, np.abs(theta) <= math.pi + 1e-12,
                       (a >= 0.0) & (a < math.inf), np.isfinite(running)])
        if not ok.all():
            i = int(np.argmin(ok.all(axis=0)))  # the first bad link, then its first check
            raise ValidationError(f"link {i + 1}: " + [
                f"alpha must lie in (-pi, pi], got {alpha[i]}",
                f"theta must lie in (-pi, pi], got {theta[i]}",
                f"link length a must be >= 0, got {a[i]}",
                f"chain length overflows at a = {a[i]} mm"][int(np.argmin(ok[:, i]))])
        radius = float_array(self.radius, "radius")
        if radius.ndim or not 0.0 < radius < math.inf:
            raise ValidationError(f"radius must be > 0, got {radius}")
        for x in (alpha, theta):
            x[(x <= -math.pi) | (x > math.pi)] = math.pi  # the same angle as -pi
        for name, x in (("a", a), ("alpha", alpha), ("theta", theta)):
            x.flags.writeable = False
            object.__setattr__(self, name, x)
        object.__setattr__(self, "radius", float(radius))

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def total_length(self) -> float:
        return float(sum(self.a.tolist()))

    @property
    def links(self) -> tuple:
        """The links as DHLink records, derived from the arrays."""
        return tuple(map(DHLink, self.a.tolist(), self.alpha.tolist(),
                         self.theta.tolist()))


def chain_frames(chain: DHChain) -> tuple[np.ndarray, np.ndarray]:
    """Frames of a chain as arrays: rotations (n+1, 3, 3) and origins (n+1, 3).

    Frame 0 is the base and frame n the tip; frame i's x-axis points along
    link i and joint i+1 bends in frame i's x-y plane. Every link's
    Rz(theta) Rx(alpha) and step Rz(theta) (a, 0, 0) is built at once; only
    the running rotation product loops. Raises ValidationError naming the
    first link whose origin overflows.
    """
    n = chain.n
    ct, st = np.cos(chain.theta), np.sin(chain.theta)
    ca, sa = np.cos(chain.alpha), np.sin(chain.alpha)
    z, o = np.zeros(n), np.ones(n)
    rz = np.stack([ct, -st, z, st, ct, z, z, z, o], axis=1).reshape(n, 3, 3)
    local = rz @ np.stack([o, z, z, z, ca, -sa, z, sa, ca], axis=1).reshape(n, 3, 3)
    rots = np.empty((n + 1, 3, 3))
    rots[0] = np.eye(3)
    for i in range(n):
        np.matmul(rots[i], local[i], out=rots[i + 1])
    origins = np.zeros((n + 1, 3))
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        steps = rots[:-1] @ (rz[:, :, 0] * chain.a[:, None])[:, :, None]
        np.cumsum(steps[:, :, 0], axis=0, out=origins[1:])
    if not np.isfinite(origins[-1]).all():  # an overflow carries to the tip
        i = int(np.argmin(np.isfinite(origins).all(axis=1)))
        raise ValidationError(
            f"link {i}: translation must be finite, got {origins[i]}")
    return rots, origins


def fk_chain(chain: DHChain) -> list:
    """Cumulative frames of a chain as n+1 poses, base first; see chain_frames.

    The frames are checked once, as a stack; the poses hold read-only views.
    """
    rots, origins = chain_frames(chain)
    _check_poses(rots, origins)
    rots.flags.writeable = origins.flags.writeable = False
    return [_trusted(RigidPose, rotation=r, translation=t)
            for r, t in zip(rots, origins)]


def dh_to_polyline(chain: DHChain) -> np.ndarray:
    """Joint positions (n+1, 3): the centerline vertices of the chain."""
    return chain_frames(chain)[1]


def canonicalize_polyline(points: np.ndarray):
    """Rigidly move a polyline into the chain base frame.

    Returns (canonical_points, base_pose) with
    ``base_pose.apply(canonical_points) == points``. The canonical polyline
    starts at the origin with its first segment exactly along +x, so joint 1
    does not bend, and its first bending plane (if any bend exists) in the
    x-y plane.
    """
    p = np.asarray(points, float).reshape(-1, 3)
    if p.shape[0] < 2:
        raise ValidationError("polyline needs at least 2 points")
    u = p[1] - p[0]
    nu = np.linalg.norm(u)
    if nu == 0.0:
        raise ValidationError("polyline segment 1 is degenerate (coincident points)")
    xhat = u / nu
    # pick z normal to the first non-collinear bend plane, else any normal to xhat
    zhat = None
    for k in range(1, p.shape[0] - 1):
        v = p[k + 1] - p[k]
        cr = np.cross(xhat, v)
        if np.linalg.norm(cr) > 1e-9 * max(np.linalg.norm(v), 1.0):
            zhat = cr / np.linalg.norm(cr)
            break
    if zhat is None:
        helper = np.array([0.0, 0.0, 1.0])
        if abs(xhat @ helper) > 0.9:
            helper = np.array([0.0, 1.0, 0.0])
        zhat = np.cross(xhat, helper)
        zhat /= np.linalg.norm(zhat)
    yhat = np.cross(zhat, xhat)
    base = RigidPose(np.column_stack([xhat, yhat, zhat]), p[0])
    canonical = base.inverse().apply(p)
    # the first segment lies on +x by construction; left ~1e-16 rad off by
    # rounding, it would read as a bend (and a fold) at joint 1
    canonical[:2] = [[0.0, 0.0, 0.0], [nu, 0.0, 0.0]]
    return canonical, base


def polyline_to_dh(points: np.ndarray, radius: float) -> DHChain:
    """Fit a DH chain through polyline vertices.

    Link lengths are the segment lengths; each bend angle is the (nonnegative)
    angle between consecutive segments and each twist is the dihedral angle
    between consecutive bending planes. Collinear triples give a zero bend and
    carry the bending plane forward; with no prior bend the world x-y plane is
    used.

    The chain base is the world frame, so the input must start at the origin
    with its first segment in the x-y plane (use :func:`canonicalize_polyline`
    for arbitrary polylines); ``fk_chain`` of the result then reproduces the
    vertices exactly.
    """
    p = np.asarray(points, float).reshape(-1, 3)
    if p.shape[0] < 2:
        raise ValidationError("polyline needs at least 2 points")
    seg = np.diff(p, axis=0)
    lengths = np.linalg.norm(seg, axis=1)
    short = lengths < 1e-12
    if short.any():
        raise ValidationError(f"segment {int(np.argmax(short)) + 1} is "
                              "degenerate (coincident consecutive points)")
    if np.linalg.norm(p[0]) > ORIGIN_TOL:
        raise ValidationError(
            "polyline must start at the origin (canonicalize_polyline first)")
    if abs(seg[0, 2] / lengths[0]) > PLANE_TOL:
        raise ValidationError(
            "first segment must lie in the world x-y plane "
            "(canonicalize_polyline first)")

    n = p.shape[0] - 1
    units = seg / lengths[:, None]
    r_cum = np.eye(3)
    thetas = np.empty(n)
    alphas = np.empty(n)
    for i in range(n):
        d = r_cum.T @ units[i]
        thetas[i] = math.atan2(d[1], d[0])
        r_mid = r_cum @ rot_z(thetas[i])
        if i + 1 < n:
            # twist that brings the next segment into this frame's x-y plane;
            # atan2(0, 0) = 0 keeps the plane of the previous bend
            e = r_mid.T @ units[i + 1]
            alphas[i] = math.atan2(e[2], e[1])
        else:
            alphas[i] = 0.0
        r_cum = r_mid @ rot_x(alphas[i])

    return DHChain(lengths, alphas, thetas, radius)
