"""Tip pose as a function of everted length, and body clearance to obstacles.

Joint angles are fixed into the body before deployment, so growth only
advances the tip along the final shape: the everted portion of the robot at
length L is the first L millimeters of the fully-everted centerline. Bends
are modeled as instantaneous at the (zero-length) joints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import DHChain, RigidPose, chain_frames, rot_z

DEFAULT_SWEEP_STEP_MM = 1.0
# most centerline samples one sweep may take: a few hundred MB of arrays
MAX_SWEEP_SAMPLES = 10_000_000


@dataclass(frozen=True)
class GrowthState:
    """A chain everted up to a given arc length of its centerline."""

    chain: DHChain
    everted_length: float

    def __post_init__(self):
        object.__setattr__(self, "everted_length", float(self.everted_length))
        total = self.chain.total_length
        if not 0.0 <= self.everted_length <= total:
            raise ValidationError(
                f"everted_length must lie in [0, {total!r}] mm, "
                f"got {self.everted_length!r}")


@dataclass(frozen=True)
class Sphere:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.array(self.center, float).reshape(3)
        c.flags.writeable = False
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", float(self.radius))
        if not np.isfinite(c).all():
            raise ValidationError(f"sphere center must be finite, got {c}")
        if not 0.0 < self.radius < math.inf:
            raise ValidationError(
                f"sphere radius must be finite and > 0, got {self.radius}")

    def surface_distance(self, points: np.ndarray) -> np.ndarray:
        """Signed distance from points to the sphere surface (negative inside)."""
        p = np.atleast_2d(np.asarray(points, float))
        return np.linalg.norm(p - self.center, axis=1) - self.radius


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by min and max corners."""

    min_corner: np.ndarray
    max_corner: np.ndarray

    def __post_init__(self):
        lo = np.array(self.min_corner, float).reshape(3)
        hi = np.array(self.max_corner, float).reshape(3)
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValidationError("box corners must be finite")
        if not np.all(lo < hi):
            raise ValidationError("box min corner must be < max corner per axis")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "min_corner", lo)
        object.__setattr__(self, "max_corner", hi)

    def surface_distance(self, points: np.ndarray) -> np.ndarray:
        """Signed distance from points to the box surface (negative inside)."""
        p = np.atleast_2d(np.asarray(points, float))
        center = 0.5 * (self.min_corner + self.max_corner)
        half = 0.5 * (self.max_corner - self.min_corner)
        q = np.abs(p - center) - half
        outside = np.linalg.norm(np.maximum(q, 0.0), axis=1)
        inside = np.minimum(np.max(q, axis=1), 0.0)
        return outside + inside


@dataclass(frozen=True)
class ObstacleScene:
    spheres: tuple = ()
    boxes: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "spheres", tuple(self.spheres))
        object.__setattr__(self, "boxes", tuple(self.boxes))

    @property
    def empty(self) -> bool:
        return not self.spheres and not self.boxes

    def surface_distance(self, points: np.ndarray) -> np.ndarray:
        """Signed distance to the nearest obstacle surface, per point."""
        p = np.atleast_2d(np.asarray(points, float))
        if self.empty:
            return np.full(p.shape[0], math.inf)
        dists = [ob.surface_distance(p) for ob in (*self.spheres, *self.boxes)]
        return np.min(np.vstack(dists), axis=0)


def tip_pose_at(state: GrowthState) -> RigidPose:
    """Pose of the everting tip.

    Fully-everted links contribute their whole transforms; the remainder is a
    pure translation along the current link. A joint's bend applies the
    instant the joint everts, so at exact link boundaries the pre-bend frame
    is returned (everted_length = 0 gives the base frame).
    """
    chain = state.chain
    rots, origins = chain_frames(chain)
    cum = np.concatenate([[0.0], np.cumsum(chain.lengths())])
    idx = int(np.searchsorted(cum, state.everted_length, side="right")) - 1
    idx = min(idx, chain.n)
    rem = state.everted_length - cum[idx]
    if idx >= chain.n or rem <= 0.0:
        return RigidPose(rots[idx], origins[idx])
    rz = rot_z(chain.theta[idx])
    return RigidPose(rots[idx] @ rz,
                     origins[idx] + rots[idx] @ (rz @ np.array([rem, 0.0, 0.0])))


def centerline_points(state: GrowthState, arc_lengths: np.ndarray) -> np.ndarray:
    """Centerline positions at the given arc lengths (vectorized tip_pose_at)."""
    chain = state.chain
    s = np.asarray(arc_lengths, float)
    if np.any(s < -1e-12) or np.any(s > state.everted_length + 1e-12):
        raise ValidationError("arc lengths must lie within the everted body")
    rots, verts = chain_frames(chain)
    dirs = rots[1:, :, 0]  # frame i's x-axis runs along link i
    cum = np.concatenate([[0.0], np.cumsum(chain.lengths())])
    idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, chain.n - 1)
    return verts[idx] + dirs[idx] * (s - cum[idx])[:, None]


def sweep_samples(state: GrowthState, step: float = DEFAULT_SWEEP_STEP_MM
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Sample the everted centerline every `step` mm, plus the tip.

    Returns (arc_lengths, centers): floor(everted/step) + 1 grid samples and
    one tip sample, so both endpoints are always present. A step that would
    take more than MAX_SWEEP_SAMPLES samples is rejected before allocating.
    """
    if not 0.0 < step < math.inf:
        raise ValidationError(f"step must be finite and > 0, got {step}")
    if not state.everted_length / step < MAX_SWEEP_SAMPLES - 1:
        raise ValidationError(
            f"step {step!r} mm would sample the {state.everted_length!r} mm "
            f"body at more than {MAX_SWEEP_SAMPLES} points; use a larger step")
    n_grid = int(math.floor(state.everted_length / step)) + 1
    s = np.append(np.arange(n_grid) * step, state.everted_length)
    return s, centerline_points(state, s)


@dataclass(frozen=True)
class ClearanceResult:
    """Worst signed clearance of the swept body; negative means penetration."""

    clearance: float
    location: np.ndarray | None
    arc_length: float | None
    no_obstacles: bool = False

    @classmethod
    def empty_scene(cls) -> "ClearanceResult":
        return cls(clearance=math.inf, location=None, arc_length=None,
                   no_obstacles=True)


def clearance(state: GrowthState, scene: ObstacleScene,
              step: float = DEFAULT_SWEEP_STEP_MM) -> ClearanceResult:
    """Minimum (surface distance - body radius) over the everted body."""
    if scene.empty:
        return ClearanceResult.empty_scene()
    arc_lengths, centers = sweep_samples(state, step)
    gaps = scene.surface_distance(centers) - state.chain.radius
    worst = int(np.argmin(gaps))
    return ClearanceResult(clearance=float(gaps[worst]),
                           location=centers[worst],
                           arc_length=float(arc_lengths[worst]))


def growth_trace(chain: DHChain, everted_lengths, scene: ObstacleScene | None,
                 step: float = DEFAULT_SWEEP_STEP_MM
                 ) -> tuple[np.ndarray, list[float | None]]:
    """Tip positions and worst clearance at each everted length, in one sweep.

    Returns (tips, clearances): tips is (m, 3); clearances[k] equals
    `clearance(GrowthState(chain, L_k), scene, step).clearance`, or None when
    the scene is absent or empty. The body at L_k is sampled at the first
    floor(L_k/step) + 1 grid points of the longest body plus its own tip.
    """
    lengths = np.asarray(everted_lengths, float)
    if lengths.ndim != 1 or lengths.size == 0:
        raise ValidationError("everted_lengths must be a non-empty 1-D sequence")
    full = GrowthState(chain, np.max(lengths))
    tips = centerline_points(full, lengths)  # rejects lengths below 0
    if scene is None or scene.empty:
        return tips, [None] * len(lengths)
    _, centers = sweep_samples(full, step)
    grid_worst = np.minimum.accumulate(
        scene.surface_distance(centers[:-1]) - chain.radius)
    tip_gaps = scene.surface_distance(tips) - chain.radius
    rows = np.floor(lengths / step).astype(int)
    return tips, np.minimum(grid_worst[rows], tip_gaps).tolist()
