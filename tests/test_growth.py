import math
import re

import numpy as np
import pytest

from vinefab import growth
from vinefab.errors import ValidationError
from vinefab.geometry import DHChain, _check_poses, chain_frames, dh_to_polyline, fk_chain
from vinefab.growth import (MAX_SWEEP_SAMPLES, Box, ObstacleScene, Sphere,
                            centerline_points, growth_trace, sweep_samples)
from vinefab.measurement import MeasuredDH

from conftest import random_feasible_chain
from oracles import (clearance, fk_homogeneous, point_segment_distance, rot_z,
                     scene_distance_loop, tip_pose_at)


def test_range_error_shows_both_numbers_exactly():
    chain = DHChain([10.1, 20.2, 30.3], [0.0, 0.0, 0.0], [0.0, 0.5, 0.5], radius=5.0)
    # the first length past the n ulps over the total that read as the total
    total = chain.total_length
    past = math.nextafter(total + chain.n * math.ulp(total), math.inf)
    for grow in (lambda L: sweep_samples(chain, L), lambda L: growth_trace(chain, [L], None)):
        with pytest.raises(ValidationError) as info:
            grow(past)
        bound, got = re.search(r"\[0, (\S+)\] mm, got (\S+)$", str(info.value)).groups()
        assert bound != got
        assert float(bound) == total
        assert float(got) == past


def test_tip_at_zero_is_base_frame(three_bend_chain):
    tips, _ = growth_trace(three_bend_chain, [0.0], None)
    np.testing.assert_array_equal(tips[0], np.zeros(3))


def test_tip_at_full_length_matches_fk(three_bend_chain):
    tips, _ = growth_trace(three_bend_chain, [300.0], None)
    tip = fk_chain(three_bend_chain)[-1]
    np.testing.assert_allclose(tips[0], tip.translation, atol=1e-9)


def test_tip_mid_link_matches_matrix_oracle(three_bend_chain):
    # 150 mm everted: one full link, the joint-2 bend, then 50 mm into link 2
    (point,) = centerline_points(three_bend_chain, [150.0])
    frames = fk_homogeneous(three_bend_chain.a, three_bend_chain.alpha,
                            three_bend_chain.theta)
    rz = np.eye(4)
    rz[:3, :3] = rot_z(math.pi / 4)
    tx = np.eye(4)
    tx[0, 3] = 50.0
    ref = frames[1] @ rz @ tx
    np.testing.assert_allclose(point, ref[:3, 3], atol=1e-9)


def test_everted_length_out_of_range(three_bend_chain):
    for bad in (-1.0, 300.1):
        with pytest.raises(ValidationError, match="everted_length must lie in"):
            sweep_samples(three_bend_chain, bad)
        with pytest.raises(ValidationError):
            growth_trace(three_bend_chain, [bad], None)


def test_a_summed_chain_length_reads_as_the_total():
    # a.sum() adds pairwise, total_length in order; they can differ in the last ulps
    rng = np.random.default_rng(0)
    scene = ObstacleScene(spheres=(Sphere(center=[0.0, 0.0, 1e4], radius=1.0),))
    over = 0
    for _ in range(200):
        n = int(rng.integers(2, 40))
        chain = DHChain(rng.uniform(20.0, 300.0, n), rng.uniform(-3.0, 3.0, n),
                        rng.uniform(-3.0, 3.0, n), radius=10.0)
        total, summed = chain.total_length, float(chain.a.sum())
        over += summed > total
        # with a step of summed / 7, floor(summed / step) can index one past the grid
        for step in (1.0, summed / 7.0):
            tips, clearances = growth_trace(chain, [0.0, summed], scene, step)
            clamped = growth_trace(chain, [0.0, min(summed, total)], scene, step)
            np.testing.assert_array_equal(tips, clamped[0])
            assert clearances == clamped[1]
        np.testing.assert_array_equal(sweep_samples(chain, summed)[0],
                                      sweep_samples(chain, min(summed, total))[0])
        np.testing.assert_array_equal(centerline_points(chain, [summed]),
                                      centerline_points(chain, [min(summed, total)]))
        for grow in (lambda L: sweep_samples(chain, L), lambda L: growth_trace(chain, [L], None)):
            with pytest.raises(ValidationError, match="everted_length must lie in"):
                grow(total * (1.0 + 1e-9))
    assert over > 20


def test_tip_translation_is_continuous(three_bend_chain):
    step = 0.5
    tips = centerline_points(three_bend_chain, np.arange(0.0, 300.0 + step, step))
    assert np.linalg.norm(np.diff(tips, axis=0), axis=1).max() <= step * 1.01


def test_sweep_sample_counts():
    chain = DHChain([100, 100], [0, 0], [0, 0], 16.5)
    arc_lengths, centers = sweep_samples(chain, 200.0, step=200.0)
    assert centers.shape[0] >= 2
    assert arc_lengths[0] == 0.0 and arc_lengths[-1] == 200.0
    for L, step in ((200.0, 7.0), (155.5, 10.0), (0.0, 5.0)):
        _, centers = sweep_samples(chain, L, step=step)
        assert centers.shape[0] == math.floor(L / step) + 2
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(ValidationError):
            sweep_samples(chain, 100.0, step=bad)
    # one sample past the cap, and steps whose count overflows a float
    for bad in (100.0 / (MAX_SWEEP_SAMPLES - 1), 1e-9, 5e-324):
        with pytest.raises(ValidationError, match=f"more than {MAX_SWEEP_SAMPLES}"):
            sweep_samples(chain, 100.0, step=bad)


def test_sweep_samples_lie_on_centerline(three_bend_chain):
    _, centers = sweep_samples(three_bend_chain, 300.0, step=3.7)
    verts = dh_to_polyline(three_bend_chain)
    for p in centers:
        d = min(point_segment_distance(p, verts[i], verts[i + 1])
                for i in range(len(verts) - 1))
        assert d < 1e-6


def test_centerline_points_domain(three_bend_chain):
    pts = centerline_points(three_bend_chain, np.array([0.0, 100.0, 150.0]))
    np.testing.assert_allclose(pts[0], [0.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(pts[1], [100.0, 0.0, 0.0], atol=1e-12)
    for bad in (-1.0, -1e-13, 300.1, math.nan):
        with pytest.raises(ValidationError, match="^arc lengths must lie within the everted body$"):
            centerline_points(three_bend_chain, np.array([bad]))
    for bad, message in (([[0.0, 100.0]], "must be a 1-D sequence, got shape (1, 2)"),
                         (["x"], "must be numbers in a regular array")):
        with pytest.raises(ValidationError, match=re.escape(f"arc lengths {message}")):
            centerline_points(three_bend_chain, bad)


def test_clearance_point_to_sphere_hand_geometry():
    chain = DHChain([300], [0], [0], 16.5)
    scene = ObstacleScene(spheres=(Sphere(center=[150.0, 100.0, 0.0], radius=30.0),))
    _, (clr,) = growth_trace(chain, [300.0], scene, step=1.0)
    assert clr == pytest.approx(100.0 - 30.0 - 16.5, abs=1e-9)
    # the worst sample of the body is the one nearest the sphere
    _, centers = sweep_samples(chain, 300.0, step=1.0)
    worst = centers[np.argmin(scene.surface_distance(centers))]
    np.testing.assert_allclose(worst, [150.0, 0.0, 0.0], atol=1e-9)


def test_clearance_penetration_is_negative():
    chain = DHChain([300], [0], [0], 16.5)
    scene = ObstacleScene(spheres=(Sphere(center=[150.0, 0.0, 0.0], radius=20.0),))
    _, (clr,) = growth_trace(chain, [300.0], scene, step=1.0)
    assert clr == pytest.approx(-20.0 - 16.5, abs=1e-9)
    assert clr < 0.0


def test_clearance_empty_scene():
    chain = DHChain([300], [0], [0], 16.5)
    _, clearances = growth_trace(chain, [100.0, 300.0], ObstacleScene())
    assert clearances == [None, None]
    assert (ObstacleScene().surface_distance(np.zeros((2, 3))) == math.inf).all()


def test_clearance_monotone_under_inflation():
    rng = np.random.default_rng(37)
    chain = random_feasible_chain(rng, max_links=4)
    center = dh_to_polyline(chain)[-1] + np.array([50.0, 40.0, 30.0])

    def worst(radius):
        scene = ObstacleScene(spheres=(Sphere(center, radius),))
        return growth_trace(chain, [chain.total_length], scene, 2.0)[1][0]

    base = worst(10.0)
    for delta in (1.0, 5.0, 20.0):
        assert worst(10.0 + delta) == pytest.approx(base - delta, abs=1e-9)


def test_box_signed_distance():
    box = ObstacleScene(boxes=(Box(min_corner=[0, 0, 0], max_corner=[10, 10, 10]),))
    np.testing.assert_allclose(box.surface_distance(np.array([[5, 5, 5]])), [-5.0])
    np.testing.assert_allclose(box.surface_distance(np.array([[15, 5, 5]])), [5.0])
    np.testing.assert_allclose(box.surface_distance(np.array([[13, 14, 5]])),
                               [5.0])  # corner: hypot(3, 4)
    np.testing.assert_allclose(box.surface_distance(np.array([[5, 5, 9]])), [-1.0])
    # min + max overflows on x; the point is still 100 mm inside
    far = ObstacleScene(boxes=(Box([1e308, -100, -100], [1.5e308, 100, 100]),))
    np.testing.assert_array_equal(far.surface_distance(np.array([[1.2e308, 0, 0]])), [-100.0])


def test_scene_validation():
    ok = Sphere(center=[0, 0, 0], radius=1.0)
    for scene, message in [
        (lambda: ObstacleScene(spheres=(ok, Sphere(center=[0, 0, 0], radius=0.0))),
         "sphere 2: sphere radius must be finite and > 0, got 0.0"),
        (lambda: ObstacleScene(boxes=(Box(min_corner=[0, 0, 0], max_corner=[10, -1, 10]),)),
         "box 1: box min corner must be < max corner per axis"),
        (lambda: ObstacleScene(boxes=(Box([-1e308] * 3, [1e308] * 3),)),
         "box 1: box extent max - min overflows, got [inf inf inf]"),
        (lambda: ObstacleScene(spheres=(5,)),
         "sphere 1: must be a (center, radius) pair with one number as radius, got 5"),
        (lambda: ObstacleScene(spheres=(ok, ([0, 0], 1.0))),
         "sphere 2: sphere center must hold 3 numbers, got 2"),
    ]:
        with pytest.raises(ValidationError) as info:
            scene()
        assert str(info.value) == message


def test_scene_is_read_only_arrays_with_derived_records():
    scene = ObstacleScene(spheres=[([1, 2, 3], 4)], boxes=[Box([0, 0, 0], [5, 6, 7])])
    assert scene.centers.shape == (1, 3) and scene.radii.shape == (1,)
    assert scene.lows.shape == scene.highs.shape == (1, 3)
    for x in (scene.centers, scene.radii, scene.lows, scene.highs):
        assert not x.flags.writeable
    (sphere,), (box,) = scene.spheres, scene.boxes
    assert sphere.center.tolist() == [1.0, 2.0, 3.0] and sphere.radius == 4.0
    assert type(sphere.radius) is float
    assert box.max_corner.tolist() == [5.0, 6.0, 7.0]
    bare = ObstacleScene()
    assert bare.empty and bare.centers.shape == bare.lows.shape == (0, 3)


def _kernel_scene_and_points(rng):
    """0-4 spheres and 0-4 boxes, and points inside, outside, on their faces,
    edges and corners, and at the sphere centers."""
    spheres = [Sphere(rng.uniform(-100, 100, 3), rng.uniform(1, 50))
               for _ in range(rng.integers(0, 5))]
    boxes = []
    for _ in range(rng.integers(0, 5)):
        lo = rng.uniform(-100, 100, 3)
        boxes.append(Box(lo, lo + rng.uniform(1, 80, 3)))
    points = [rng.uniform(-200, 200, (50, 3))] + [np.atleast_2d(s.center) for s in spheres]
    for lo, hi in boxes:
        points.append(rng.uniform(lo, hi, (10, 3)))  # inside
        for fixed in (1, 2, 3):  # on a face, an edge and at a corner
            p = rng.uniform(lo, hi, (10, 3))
            for row in p:
                axes = rng.choice(3, fixed, replace=False)
                row[axes] = np.where(rng.random(fixed) < 0.5, lo[axes], hi[axes])
            points.append(p)
    return ObstacleScene(spheres=spheres, boxes=boxes), np.concatenate(points)


@pytest.mark.parametrize("seed", range(40))
def test_surface_distance_matches_the_per_obstacle_loop(seed):
    scene, points = _kernel_scene_and_points(np.random.default_rng(seed))
    got = scene.surface_distance(points)
    assert np.array_equal(got, scene_distance_loop(scene, points))
    assert got.shape == (len(points),)


def _random_scene(rng, chain):
    """Spheres and boxes scattered around the chain's own vertices."""
    verts = dh_to_polyline(chain)
    spheres = tuple(Sphere(verts[rng.integers(len(verts))] + rng.normal(0, 60, 3),
                           rng.uniform(5.0, 60.0))
                    for _ in range(rng.integers(0, 4)))
    boxes = []
    for _ in range(rng.integers(0 if spheres else 1, 3)):
        lo = verts[rng.integers(len(verts))] + rng.normal(0, 60, 3)
        boxes.append(Box(lo, lo + rng.uniform(10.0, 120.0, 3)))
    return ObstacleScene(spheres=spheres, boxes=tuple(boxes))


@pytest.mark.parametrize("seed", range(6))
def test_growth_trace_matches_per_state_functions(seed):
    rng = np.random.default_rng(seed)
    chain = random_feasible_chain(rng, max_links=6)
    scene = _random_scene(rng, chain)
    total = chain.total_length
    for steps, step in ((97, 0.7), (61, 2.3), (1, 2.3)):
        lengths = [min(total * i / steps, total) for i in range(steps + 1)]
        tips, clearances = growth_trace(chain, lengths, scene, step=step)
        assert tips.shape == (steps + 1, 3)
        for L, tip, clr in zip(lengths, tips, clearances):
            assert clr == clearance(chain, L, scene, step)
            np.testing.assert_allclose(tip, tip_pose_at(chain, L)[:3, 3], rtol=0, atol=1e-9)
        for no_scene in (None, ObstacleScene()):
            bare_tips, bare = growth_trace(chain, lengths, no_scene, step=step)
            assert bare == [None] * (steps + 1)
            np.testing.assert_array_equal(bare_tips, tips)


def test_growth_trace_last_grid_sample_can_be_worst():
    # grid samples at 98.9 and 101.2 mm, tip at 101.5: 101.2 is nearest
    chain = DHChain([300], [0], [0], 16.5)
    scene = ObstacleScene(spheres=(Sphere(center=[101.0, 20.0, 0.0], radius=5.0),))
    _, (clr,) = growth_trace(chain, [101.5], scene, step=2.3)
    assert clr == clearance(chain, 101.5, scene, 2.3)
    assert clr == pytest.approx(math.hypot(0.2, 20.0) - 5.0 - 16.5, abs=1e-9)


def test_growth_trace_builds_the_frames_once(monkeypatch, three_bend_chain):
    calls = []

    def counted(chain):
        calls.append(chain)
        return chain_frames(chain)

    monkeypatch.setattr(growth, "chain_frames", counted)
    scene = ObstacleScene(spheres=(Sphere(center=[150.0, 60.0, 0.0], radius=10.0),))
    tips, clearances = growth_trace(three_bend_chain, np.linspace(0.0, 300.0, 11), scene,
                                    step=2.0)
    assert len(calls) == 1 and tips.shape == (11, 3) and None not in clearances


def test_growth_trace_rejects_lengths_outside_the_body(three_bend_chain):
    for lengths in ([0.0, 300.1], [-1.0, 10.0], [-1e-13, 300.0], []):
        with pytest.raises(ValidationError):
            growth_trace(three_bend_chain, lengths, None)


@pytest.mark.parametrize("scene", [None, ObstacleScene()], ids=["no-scene", "empty-scene"])
def test_growth_trace_checks_step_without_a_scene(three_bend_chain, scene):
    for bad in (0.0, -5.0, math.inf, math.nan):
        with pytest.raises(ValidationError, match="step must be finite and > 0"):
            growth_trace(three_bend_chain, [0.0, 300.0], scene, step=bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("build", [
    lambda v: _check_poses(np.full((1, 3, 3), v), np.zeros((1, 3))),
    lambda v: _check_poses(np.eye(3)[None], np.array([[0.0, v, 0.0]])),
    lambda v: ObstacleScene(spheres=(Sphere(center=[0.0, 0.0, v], radius=10.0),)),
    lambda v: ObstacleScene(spheres=(Sphere(center=[0.0, 0.0, 0.0], radius=v),)),
    lambda v: ObstacleScene(boxes=(Box(min_corner=[v, 0.0, 0.0],
                                       max_corner=[10.0, 10.0, 10.0]),)),
    lambda v: ObstacleScene(boxes=(Box(min_corner=[0.0, 0.0, 0.0],
                                       max_corner=[10.0, 10.0, v]),)),
    lambda v: MeasuredDH("pre", 2, [0.1, v], [0.0], [1.0, 1.0, 1.0]),
    lambda v: MeasuredDH("pre", 2, [0.1], [], [1.0, v]),
], ids=["pose-rotation", "pose-translation", "sphere-center",
        "sphere-radius", "box-min", "box-max", "measured-theta", "measured-length"])
def test_constructors_reject_non_finite(build, bad):
    with pytest.raises(ValidationError):
        build(bad)
