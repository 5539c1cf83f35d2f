"""Compile a DH chain into physical fold/cylinder/offset fabrication parameters.

The body is a tube of radius r. A discrete bend of angle theta is created by
joining two points on the same circumferential meridian separated by an axial
distance s_tilde; consecutive bends are offset along the circumference by an
arc length s that realizes the link twist. A bend of -theta at meridian c is
the same fold as +theta at meridian c + pi*r, so fold distances are computed
from |theta| and the arc offsets from ``geometry.carried_twists``, the twist
once both bends are nonnegative. Plans of signed chains therefore fold the
designed shape, and recover_chain returns it in that nonnegative gauge.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import accumulate

import numpy as np

from .errors import InfeasibleLinkError, InversionError, SingularityError, ValidationError
from .geometry import (DHChain, ReadOnly, carried_twists, check_items, float_array,
                       float_scalar, wrap_angle)

GAP_METHODS = ("tape", "weld", "loop")

# fasteners of the loop method hold the joined points a screw length apart
DEFAULT_LOOP_GAP_MM = 9.3

# largest |theta| a fold accepts: compile_plan and recover_chain share it
_THETA_MAX = math.pi - 1e-12


class GapModel(namedtuple("GapModel", "method d_g")):
    """Fastening method plus the residual gap d_g it leaves between joined points."""

    __slots__ = ()

    def __new__(cls, method, d_g=0.0):
        if method not in GAP_METHODS:
            raise ValidationError(f"method must be one of {GAP_METHODS}, got {method!r}")
        return super().__new__(cls, method, float_scalar(d_g, "d_g", positive=False))

    _make = classmethod(lambda cls, values: cls(*values))  # _replace checks too

    @classmethod
    def for_method(cls, method: str, d_g: float | None = None) -> "GapModel":
        """Default gaps: tape and weld join points flush, loop leaves a screw length."""
        if d_g is None:
            d_g = DEFAULT_LOOP_GAP_MM if method == "loop" else 0.0
        return cls(method=method, d_g=d_g)


# one joint of a plan, read from its arrays: index (from 1), then mm: fold
# distance, axial start and meridian of its connection points, and gap d_g
JointSpec = namedtuple("JointSpec", "index s_tilde axial_start circumferential d_g")


class FabricationPlan(ReadOnly):
    """Cylinder lengths, joint folds and circumferential offsets of one tube.

    The independent values are read-only finite arrays, checked once here:
    ``cylinders`` > 0, ``s_tilde`` and ``d_g`` >= 0 (n >= 1 joints) and
    ``arc_offsets`` (n - 1) on a tube of ``radius`` > 0 mm. The layout is
    derived: joint i joins Z_i and Z_i + s_i on meridian c_i, with
    ``axial_start`` Z_1 = 0, Z_{i+1} = Z_i + s_i + l_i and ``circumferential``
    c_1 = 0, c_{i+1} = (c_i + arc_i) mod circumference; ``total_tube_length``
    is Z_n + s_n + l_n.
    """

    def __init__(self, radius, cylinders, s_tilde, d_g, arc_offsets):
        radius = float_scalar(radius, "radius")
        cyl, s_tilde, d_g, arcs = (float_array(x, name) for x, name in (
            (cylinders, "cylinders"), (s_tilde, "s_tilde"), (d_g, "d_g"),
            (arc_offsets, "arc_offsets")))
        if not (cyl.ndim == 1 and cyl.size >= 1 and s_tilde.shape == d_g.shape == cyl.shape
                and arcs.shape == (cyl.size - 1,)):
            raise ValidationError("plan has inconsistent joint/cylinder counts")
        for name, v in (("cylinders", cyl), ("s_tilde", s_tilde), ("d_g", d_g),
                        ("arc_offsets", arcs)):
            if not np.isfinite(v).all():
                raise ValidationError(
                    f"{name} must be finite, got {v[np.argmin(np.isfinite(v))]}")
        check_items("joint", [s_tilde >= 0.0, d_g >= 0.0],
                    lambda i: [f"s_tilde must be >= 0, got {s_tilde[i]}",
                               f"d_g must be >= 0, got {d_g[i]}"])
        if not (cyl > 0.0).all():
            i = int(np.argmin(cyl > 0.0))
            raise InfeasibleLinkError(i + 1, cyl[i], 0.0)
        with np.errstate(over="ignore"):
            ends = np.cumsum(s_tilde + cyl)
        if not math.isfinite(ends[-1]):
            raise ValidationError("total tube length overflows")
        circumference = 2.0 * math.pi * radius
        c = list(accumulate(arcs.tolist(), lambda c, arc: (c + arc) % circumference,
                            initial=0.0))
        fields = dict(cylinders=cyl, s_tilde=s_tilde, d_g=d_g, arc_offsets=arcs,
                      axial_start=np.append(0.0, ends[:-1]), circumferential=np.array(c))
        for v in fields.values():
            v.flags.writeable = False
        self.__dict__.update(radius=radius, **fields, total_tube_length=float(ends[-1]))

    @property
    def n(self) -> int:
        return self.cylinders.shape[0]

    @property
    def circumference(self) -> float:
        return 2.0 * math.pi * self.radius

    @property
    def joints(self) -> tuple:
        """The joints as JointSpec records, derived from the arrays."""
        return tuple(map(JointSpec, range(1, self.n + 1), self.s_tilde.tolist(),
                         self.axial_start.tolist(), self.circumferential.tolist(),
                         self.d_g.tolist()))


def _fold_distance(theta, r, d_g):
    """The fold model: axial distance ``2*d_g/sqrt(2 + 2*cos(theta)) + 2*r*theta``
    between the points joined for a bend of theta, elementwise; inf where it overflows."""
    # sqrt(2 + 2cos(theta)) = 2|cos(theta/2)|; the right side stays accurate
    # near pi, where 2 + 2cos(theta) rounds to 0, and _THETA_MAX keeps it > 0
    return d_g / np.abs(np.cos(0.5 * theta)) + 2.0 * r * theta


def compile_plan(chain: DHChain, gap: GapModel) -> FabricationPlan:
    """Compile a chain into tube fabrication parameters.

    Joint i folds s_i = _fold_distance(|theta_i|, r, d_g); cylinder i, of length
    a_i - (s_i + s_{i+1})/4, spans [Z_i + s_i, Z_{i+1}] of the plan's layout.
    Joints with zero angle receive no fold (s_i = 0) regardless of the gap
    model, and the arcs are ``geometry.carried_twists`` times r: the twist
    across such joints is carried into the next joint that folds. Raises SingularityError,
    then InfeasibleLinkError, naming the first bad joint or link.
    """
    r, thetas, alphas, lengths, n = chain.radius, chain.theta, chain.alpha, chain.a, chain.n

    # DHChain and GapModel have checked r, d_g and every theta, so only the
    # singular range and overflow are left to reject, at the first joint
    folds = thetas != 0.0
    theta_abs = np.abs(thetas[folds])
    s_tilde = np.zeros(n)
    with np.errstate(over="ignore"):  # a fold or a fold sum past float range is inf
        s_tilde[folds] = _fold_distance(theta_abs, r, gap.d_g)
        s_next = np.append(s_tilde[1:], 0.0)
        consumed = (s_tilde + s_next) / 4.0
    diverges = theta_abs > _THETA_MAX
    bad = diverges | ~np.isfinite(s_tilde[folds])
    if bad.any():
        i = int(np.argmax(bad))
        theta = theta_abs[i].item()
        raise SingularityError(
            f"theta = {theta:.6g} rad: fold distance diverges at |theta| = pi" if diverges[i]
            else f"theta = {theta!r} rad: fold distance overflows for r = {r!r} mm, "
                 f"d_g = {gap.d_g!r} mm")
    cylinders = lengths - consumed
    if not (cylinders > 0.0).all():
        i = int(np.argmin(cylinders > 0.0))
        raise InfeasibleLinkError(i + 1, lengths[i].item(), consumed[i].item())

    # joint 1 is the meridian c = 0 the arcs count from; + 0.0 carries a -0.0
    # twist as 0.0, as a running sum started from 0.0 does
    arcs = r * carried_twists(thetas, alphas + 0.0, np.append(True, folds[1:]))
    return FabricationPlan(r, cylinders, s_tilde, np.where(folds, gap.d_g, 0.0), arcs)


def _solve_fold_angles(s_tilde: np.ndarray, r: float, d_g: np.ndarray) -> np.ndarray:
    """Invert the fold-distance formula for every theta in [0, pi) at once.

    f(theta) = d_g/cos(theta/2) + 2*r*theta is increasing and convex, and both
    terms are nonnegative, so the root lies at or below (s - d_g)/(2r) and
    2*arccos(d_g/s). Newton steps from there decrease to the root; they stop
    when no angle decreases. With d_g = 0 the start is the root. Each s_tilde
    must lie in [f(0), f(_THETA_MAX)] for its own d_g.
    """
    theta = np.minimum(np.minimum((s_tilde - d_g) / (2.0 * r), _THETA_MAX),
                       2.0 * np.arccos(np.minimum(d_g / s_tilde, 1.0)))
    while True:
        half = 0.5 * theta
        cos = np.cos(half)
        slope = 0.5 * d_g * np.sin(half) / (cos * cos) + 2.0 * r
        nxt = np.maximum(theta - (_fold_distance(theta, r, d_g) - s_tilde) / slope, 0.0)
        down = nxt < theta
        if not down.any():
            return theta
        theta = np.where(down, nxt, theta)


def recover_chain(plan: FabricationPlan, gap: GapModel) -> DHChain:
    """Invert compile_plan: fabrication parameters back to a DH chain.

    Each fold is inverted with the d_g the plan records for its joint; `gap`
    must agree with it to a relative 1e-8, else ValidationError names the
    joint. Returns the nonnegative gauge: every recovered joint angle lies in
    [0, pi) and each twist is its arc offset over r, so the recovered chain
    folds the designed shape. A chain with negative bends comes back with
    |theta| and the twists of ``carried_twists``; when theta_1 < 0 its base frame
    is also turned by pi about x. The last link's twist leaves no trace in the
    plan and is 0.
    """
    r, s_tilde = plan.radius, plan.s_tilde
    folds = np.flatnonzero(s_tilde > 0.0)
    s, d_g = s_tilde[folds], plan.d_g[folds]
    check_items(lambda i: f"joint {folds[i] + 1}",
                [np.abs(d_g - gap.d_g) <= 1e-8 * np.maximum(d_g, gap.d_g)],
                lambda i: [f"the plan records d_g = {d_g[i].item()!r} mm, but the "
                           f"{gap.method} gap has d_g = {gap.d_g!r} mm"])
    thetas = np.zeros(plan.n)
    with np.errstate(over="ignore"):  # a fold distance past float range is inf
        low = _fold_distance(0.0, r, d_g) > s
        high = _fold_distance(_THETA_MAX, r, d_g) < s
        if low.any() or high.any():
            i = int(np.argmax(low | high))
            reason = (f"is below the d_g floor {d_g[i]:.6g} mm; no joint angle in [0, pi) "
                      "produces it" if low[i] else
                      "exceeds the fold distance of any joint angle in [0, pi)")
            raise InversionError(f"joint {folds[i] + 1}: s_tilde = {s[i]:.6g} mm {reason}")
        thetas[folds] = _solve_fold_angles(s, r, d_g)
    lengths = plan.cylinders + (s_tilde + np.append(s_tilde[1:], 0.0)) / 4.0
    alphas = [wrap_angle(arc / r) for arc in plan.arc_offsets.tolist()] + [0.0]
    return DHChain(lengths, alphas, thetas, r)
