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

import numpy as np

from .errors import ValidationError

# polyline_to_dh accepts inputs whose first vertex / first segment sit in the
# chain base frame within these tolerances
ORIGIN_TOL = 1e-6
PLANE_TOL = 1e-9
STRAIGHT_SINE = 1e-9  # a joint of unit directions with |v x w| below this has no plane


def wrap_angle(x: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    y = math.fmod(x + math.pi, 2.0 * math.pi)
    if y <= 0.0:
        y += 2.0 * math.pi
    return y - math.pi


def carried_twists(theta: np.ndarray, alpha: np.ndarray, bent: np.ndarray) -> np.ndarray:
    """The twist (m-1,) that places each bend, for joints of bends theta (m,),
    twists alpha (m,) and mask `bent` (m,) of the joints that bend.

    Since Rx(a1) Tx(l) Rx(a2) = Tx(l) Rx(a1 + a2), a straight joint passes the
    twist before it on to the next bend: the running twist restarts at
    alpha[j] on a bent joint j and adds alpha[j] across a straight one,
    negated across a reversal (cos theta <= 0). Entry j is that twist where
    joint j+1 bends after some bent joint, else 0, shifted by pi for each
    negative bend of the pair (a bend of -theta at meridian c is the +theta
    fold at c + pi*r) and not wrapped.
    """
    theta, alpha, bent = theta.tolist(), alpha.tolist(), bent.tolist()
    out, last, pending = [], None, 0.0  # last: the bend of the last bent joint
    for j in range(len(theta) - 1):
        if bent[j]:
            last, pending = theta[j], alpha[j]
        else:
            pending = alpha[j] + (pending if math.cos(theta[j]) > 0.0 else -pending)
        out.append(0.0 if last is None or not bent[j + 1]
                   else pending - math.pi * ((theta[j + 1] < 0.0) - (last < 0.0)))
    return np.array(out, float)


def rotations_to_quaternions(r: np.ndarray) -> np.ndarray:
    """Rotation matrices (m, 3, 3) to unit quaternions (m, 4) as (w, x, y, z), w >= 0.

    Shepperd's method: a matrix of positive trace takes the trace branch,
    any other the branch of its largest diagonal entry (the first, on ties).
    """
    r = np.asarray(r, float)
    q = np.empty((r.shape[0], 4))
    trace = r[:, 0, 0] + r[:, 1, 1] + r[:, 2, 2]
    # branch 3 is the trace's, branch i that of diagonal entry i
    branch = np.where(trace > 0.0, 3, np.argmax(np.diagonal(r, axis1=1, axis2=2), axis=1))
    m = branch == 3
    s = np.sqrt(trace[m] + 1.0) * 2.0
    q[m, 0] = 0.25 * s
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        q[m, 1 + i] = (r[m, k, j] - r[m, j, k]) / s
    for i in range(3):
        j, k, m = (i + 1) % 3, (i + 2) % 3, branch == i
        s = np.sqrt(np.maximum(r[m, i, i] - r[m, j, j] - r[m, k, k] + 1.0, 0.0)) * 2.0
        q[m, 0] = (r[m, k, j] - r[m, j, k]) / s
        q[m, 1 + i] = 0.25 * s
        q[m, 1 + j] = (r[m, j, i] + r[m, i, j]) / s
        q[m, 1 + k] = (r[m, k, i] + r[m, i, k]) / s
    q[q[:, 0] < 0.0] *= -1.0
    return q / np.sqrt(dot_rows(q, q))[:, None]


def dot_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (m, k) stacks, bit for bit ``u[i] @ v[i]``.

    ``norm(axis=1)`` and row sums round differently from the one-vector
    ``np.linalg.norm`` and ``@``; this form matches them.
    """
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def bend_planes(incoming: np.ndarray, outgoing: np.ndarray, normal0: np.ndarray):
    """Bends theta (m,) >= 0, unit plane normals (m, 3) and the bent mask of joints.

    Joint i turns unit direction v = incoming[i] into w = outgoing[i]:
    theta = atan2(|v x w|, v . w) and the normal is v x w / |v x w|. A straight
    joint, |v x w| < STRAIGHT_SINE, has no plane: its sine counts as 0 (theta
    is 0, or pi for a reversal) and it carries the last normal, else `normal0`.
    """
    normals = np.cross(incoming, outgoing)
    sines = np.sqrt(dot_rows(normals, normals))
    bent = sines >= STRAIGHT_SINE
    thetas = np.array(list(map(math.atan2, np.where(bent, sines, 0.0).tolist(),
                               dot_rows(incoming, outgoing).tolist())), float)
    normals[bent] /= sines[bent, None]
    last = np.maximum.accumulate(np.where(bent, np.arange(bent.size), -1))  # -1: none yet
    return thetas, np.vstack([normal0, normals])[last + 1], bent


def twist_angles(n0: np.ndarray, n1: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """Signed angles (m,) that turn unit normals n0 into n1 about unit axes, all (m, 3)."""
    return np.array(list(map(math.atan2, dot_rows(np.cross(n0, n1), axis).tolist(),
                             dot_rows(n0, n1).tolist())), float)


# a rigid transform x -> rotation @ x + translation: a plain record, unchecked
Pose = namedtuple("Pose", ["rotation", "translation"])


def float_array(values, what: str) -> np.ndarray:
    """A new C-ordered float array of `values`.

    Ragged, non-numeric or out-of-range input raises ValidationError naming
    `what`, not numpy's ValueError, TypeError or OverflowError.
    """
    try:
        return np.array(values, float, order="C")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} must be numbers in a regular array: {exc}") from None


def float_scalar(value, what: str, positive: bool = True) -> float:
    """One finite number > 0 (>= 0 unless `positive`) as a float, else ValidationError."""
    x = float_array(value, what)
    if x.ndim or not (0.0 < x if positive else 0.0 <= x) or not x < math.inf:
        raise ValidationError(f"{what} must be {'>' if positive else '>='} 0, got {x}")
    return float(x)


def point3(values, what: str) -> np.ndarray:
    """Three coordinates as a new (3,) float array."""
    p = float_array(values, what)
    if p.size != 3:
        raise ValidationError(f"{what} must hold 3 numbers, got {p.size}")
    return p.reshape(3)


def check_items(where, ok, messages) -> None:
    """Raise for the first item that fails a check, naming the item and its first failed check.

    `ok` holds one row of booleans per check and one column per item.
    `where` is the item kind, as in 'link 3: ...', or a function of the item
    index i; messages(i) lists item i's texts, one per check.
    """
    ok = np.asarray(ok)
    if not ok.all():
        i = int(np.argmin(ok.all(axis=0)))  # the first bad item, then its first check
        name = where(i) if callable(where) else f"{where} {i + 1}"
        raise ValidationError(f"{name}: {messages(i)[int(np.argmin(ok[:, i]))]}")


class ReadOnly:
    """Base of the checked array holders: ``__init__`` checks the fields and
    stores them once through ``__dict__``; after that no field is assigned or
    deleted. Equality is identity."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"


def _trusted(cls, **fields):
    """A ReadOnly instance of already checked fields, without running __init__."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


# one link of a chain, read from its arrays: length a (mm), alpha and theta (rad)
DHLink = namedtuple("DHLink", ["a", "alpha", "theta"])


class DHChain(ReadOnly):
    """Link parameters as read-only (n,) arrays plus the body radius of the tube.

    ``a`` in mm, ``alpha`` and ``theta`` in rad, checked once here: at least
    one link, a >= 0 with a finite running total, and angles in (-pi, pi]
    within 1e-12, stored with -pi as pi. Errors name the first bad link.
    """

    def __init__(self, a, alpha, theta, radius):
        a, alpha, theta = (float_array(x, name) for x, name in
                           ((a, "a"), (alpha, "alpha"), (theta, "theta")))
        if a.ndim != 1 or a.size < 1 or not a.shape == alpha.shape == theta.shape:
            raise ValidationError("a chain needs at least one link, and a, alpha and "
                                  "theta must be sequences of equal length")
        with np.errstate(over="ignore", invalid="ignore"):
            running = np.cumsum(a)
        # NaN and inf fail the range tests too
        check_items("link", [np.abs(alpha) <= math.pi + 1e-12, np.abs(theta) <= math.pi + 1e-12,
                             (a >= 0.0) & (a < math.inf), np.isfinite(running)],
                    lambda i: [f"alpha must lie in (-pi, pi], got {alpha[i]}",
                               f"theta must lie in (-pi, pi], got {theta[i]}",
                               f"link length a must be >= 0, got {a[i]}",
                               f"chain length overflows at a = {a[i]} mm"])
        radius = float_scalar(radius, "radius")
        for x in (alpha, theta):
            x[(x <= -math.pi) | (x > math.pi)] = math.pi  # the same angle as -pi
        a.flags.writeable = alpha.flags.writeable = theta.flags.writeable = False
        self.__dict__.update(a=a, alpha=alpha, theta=theta, radius=radius)

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
        check_items(lambda i: f"link {i}", [np.isfinite(origins).all(axis=1)],
                    lambda i: [f"translation must be finite, got {origins[i]}"])
    return rots, origins


def fk_chain(chain: DHChain) -> list:
    """Cumulative frames of a chain as n+1 poses, base first, holding read-only
    views of chain_frames' stacks."""
    rots, origins = chain_frames(chain)
    rots.flags.writeable = origins.flags.writeable = False
    return list(map(Pose, rots, origins))


def dh_to_polyline(chain: DHChain) -> np.ndarray:
    """Joint positions (n+1, 3): the centerline vertices of the chain."""
    return chain_frames(chain)[1]


def canonicalize_polyline(points: np.ndarray):
    """Rigidly move a polyline into the chain base frame.

    Returns (canonical_points, base_pose) with ``canonical_points @
    base_pose.rotation.T + base_pose.translation == points``. The canonical polyline
    starts at the origin with its first segment exactly along +x, so joint 1
    does not bend, and its first bending plane (if any bend exists) in the
    x-y plane.
    """
    p, seg, _ = _polyline(points)
    nu = np.linalg.norm(seg[0])
    xhat = seg[0] / nu
    # pick z normal to the first non-collinear bend plane, else any normal to xhat
    zhat = None
    for v in seg[1:]:
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
    rot = np.column_stack([xhat, yhat, zhat])
    canonical = p @ rot + -(rot.T @ p[0])
    # the first segment lies on +x by construction; left ~1e-16 rad off by
    # rounding, it would read as a bend (and a fold) at joint 1
    canonical[:2] = [[0.0, 0.0, 0.0], [nu, 0.0, 0.0]]
    return canonical, Pose(rot, p[0].copy())


def polyline_to_dh(points: np.ndarray, radius: float) -> DHChain:
    """Fit a DH chain through polyline vertices.

    Link lengths are the segment lengths; each bend angle is the (nonnegative)
    angle between consecutive segments and each twist is the dihedral angle
    between consecutive bending planes. A straight joint (see ``bend_planes``)
    gets a zero bend and carries the bending plane forward; with no prior bend
    the world x-y plane is used.

    The chain base is the world frame, so the input must start at the origin
    with its first segment in the x-y plane (use :func:`canonicalize_polyline`
    for arbitrary polylines); ``fk_chain`` of the result then reproduces the
    vertices exactly.
    """
    p, seg, lengths = _polyline(points)
    if np.linalg.norm(p[0]) > ORIGIN_TOL:
        raise ValidationError("polyline must start at the origin (canonicalize_polyline first)")
    if abs(seg[0, 2] / lengths[0]) > PLANE_TOL:
        raise ValidationError(
            "first segment must lie in the world x-y plane "
            "(canonicalize_polyline first)")

    units, zhat = seg / lengths[:, None], np.array([0.0, 0.0, 1.0])
    # link i's twist turns joint i's plane into joint i+1's; 0 before a straight joint
    thetas, normals, bent = bend_planes(units[:-1], units[1:], zhat)
    alphas = np.where(bent, twist_angles(np.vstack([zhat, normals[:-1]]), normals, units[:-1]), 0.0)
    return DHChain(lengths, np.append(alphas, 0.0),
                   np.append(math.atan2(units[0, 1], units[0, 0]), thetas), radius)


def _polyline(points):
    """The one check of a polyline: vertices (m, 3) as a new float array, m >= 2,
    segments (m-1, 3) and lengths (m-1,). Every vertex is finite and every
    length in [1e-12, inf), else ValidationError."""
    p = float_array(points, "polyline")
    if p.ndim != 2 or p.shape[1] != 3 or p.shape[0] < 2:
        raise ValidationError(f"polyline needs at least 2 points of 3 coordinates, got {p.shape}")
    check_items("polyline vertex", [np.isfinite(p).all(axis=1)],
                lambda i: [f"non-finite coordinate in {p[i].tolist()}"])
    with np.errstate(over="ignore"):  # an overflowed length is reported below
        seg = np.diff(p, axis=0)
        lengths = np.linalg.norm(seg, axis=1)
    short = lengths < 1e-12
    if short.any():
        raise ValidationError(f"segment {int(np.argmax(short)) + 1} is "
                              "degenerate (coincident consecutive points)")
    check_items("polyline segment", [lengths < math.inf],
                lambda i: [f"length overflows, got {lengths[i]}"])
    return p, seg, lengths
