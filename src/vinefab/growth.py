"""Tip position as a function of everted length, and body clearance to obstacles.

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
from .geometry import DHChain, chain_frames, float_array, point3

DEFAULT_SWEEP_STEP_MM = 1.0
# most centerline samples one sweep may take: a few hundred MB of arrays
MAX_SWEEP_SAMPLES = 10_000_000


@dataclass(frozen=True)
class Sphere:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = point3(self.center, "sphere center")
        radius = float_array(self.radius, "sphere radius")
        if not np.isfinite(c).all():
            raise ValidationError(f"sphere center must be finite, got {c}")
        if radius.ndim or not 0.0 < radius < math.inf:
            raise ValidationError(f"sphere radius must be finite and > 0, got {radius}")
        c.flags.writeable = False
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", float(radius))

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
        lo = point3(self.min_corner, "box min corner")
        hi = point3(self.max_corner, "box max corner")
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


def _everted(chain: DHChain, everted_length) -> float:
    """The everted length as a float, checked to lie on the chain."""
    everted_length = float(everted_length)
    total = chain.total_length
    if not 0.0 <= everted_length <= total:
        raise ValidationError(
            f"everted_length must lie in [0, {total!r}] mm, got {everted_length!r}")
    return everted_length


def _step(step) -> float:
    """The sweep step as a float, checked to be finite and > 0."""
    step = float(step)
    if not 0.0 < step < math.inf:
        raise ValidationError(f"step must be finite and > 0, got {step!r}")
    return step


def _sweep_grid(everted_length: float, step: float) -> np.ndarray:
    """Arc lengths 0, step, ... up to everted_length: floor(everted/step) + 1 of them.

    `step` is checked by _step. A step that would take more than
    MAX_SWEEP_SAMPLES samples is rejected before allocating.
    """
    if not everted_length / step < MAX_SWEEP_SAMPLES - 1:
        raise ValidationError(
            f"step {step!r} mm would sample the {everted_length!r} mm "
            f"body at more than {MAX_SWEEP_SAMPLES} points; use a larger step")
    return np.arange(int(math.floor(everted_length / step)) + 1) * step


def centerline_points(chain: DHChain, arc_lengths: np.ndarray) -> np.ndarray:
    """Centerline positions (m, 3) at the given arc lengths from the base.

    A joint's bend applies the instant the joint everts, so a point at a link
    boundary lies at that joint. Builds the chain's frames once.
    """
    s = np.asarray(arc_lengths, float)
    if np.any(s < -1e-12) or np.any(s > chain.total_length + 1e-12):
        raise ValidationError("arc lengths must lie within the everted body")
    rots, verts = chain_frames(chain)
    dirs = rots[1:, :, 0]  # frame i's x-axis runs along link i
    cum = np.concatenate([[0.0], np.cumsum(chain.a)])
    idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, chain.n - 1)
    return verts[idx] + dirs[idx] * (s - cum[idx])[:, None]


def sweep_samples(chain: DHChain, everted_length: float,
                  step: float = DEFAULT_SWEEP_STEP_MM) -> tuple[np.ndarray, np.ndarray]:
    """Sample the centerline of the body everted to `everted_length` every `step` mm.

    Returns (arc_lengths, centers): floor(everted/step) + 1 grid samples and
    one tip sample, so both endpoints are always present.
    """
    everted_length, step = _everted(chain, everted_length), _step(step)
    s = np.append(_sweep_grid(everted_length, step), everted_length)
    return s, centerline_points(chain, s)


def growth_trace(chain: DHChain, everted_lengths, scene: ObstacleScene | None,
                 step: float = DEFAULT_SWEEP_STEP_MM
                 ) -> tuple[np.ndarray, list[float | None]]:
    """Tip positions and worst clearance at each everted length, in one sweep.

    Returns (tips, clearances): tips is (m, 3); clearances[k] is the least
    (surface distance - body radius) over `sweep_samples(chain, L_k, step)`,
    negative where the body penetrates, or None when the scene is absent or
    empty. The tips and the grid of the longest body are evaluated in one
    centerline_points call; the body at L_k is its first floor(L_k/step) + 1
    grid points plus its own tip.
    """
    lengths = float_array(everted_lengths, "everted_lengths")
    if lengths.ndim != 1 or lengths.size == 0:
        raise ValidationError("everted_lengths must be a non-empty 1-D sequence")
    # every length, not only the longest: one just below 0 would read grid row -1
    _everted(chain, np.min(lengths))
    longest = _everted(chain, np.max(lengths))
    step = _step(step)
    if scene is None or scene.empty:
        return centerline_points(chain, lengths), [None] * len(lengths)
    points = centerline_points(chain, np.concatenate([lengths, _sweep_grid(longest, step)]))
    tips, grid = points[:lengths.size], points[lengths.size:]
    grid_worst = np.minimum.accumulate(scene.surface_distance(grid) - chain.radius)
    tip_gaps = scene.surface_distance(tips) - chain.radius
    rows = np.floor(lengths / step).astype(int)
    return tips, np.minimum(grid_worst[rows], tip_gaps).tolist()
