import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vinefab import formats, geometry
from vinefab.errors import InfeasibleLinkError, SingularityError, ValidationError
from vinefab.fabrication import FabricationPlan, GapModel, compile_plan
from vinefab.geometry import (DHChain, DHLink, Pose, _check_poses, canonicalize_polyline,
                              chain_frames, dh_to_polyline, fk_chain,
                              polyline_to_dh, quaternion_to_rotation,
                              rotations_to_quaternions, wrap_angle)
from vinefab.growth import Box, ObstacleScene, Sphere, centerline_points
from vinefab.measurement import MeasuredDH, check_samples

from vinefab.pattern import flat_pattern

from conftest import random_feasible_chain
from oracles import (RigidPose, fk_homogeneous, frames_loop, polyline_to_dh_loop,
                     rotation_to_quaternion)


def test_straight_chain_tip():
    chain = DHChain([100, 100, 100], [0, 0, 0], [0, 0, 0], 16.5)
    frames = fk_chain(chain)
    assert len(frames) == 4
    np.testing.assert_allclose(frames[-1].translation, [300.0, 0.0, 0.0],
                               atol=1e-12)


def test_single_link_planar_rotation():
    chain = DHChain([100], [0], [math.pi / 2], 16.5)
    tip = fk_chain(chain)[-1].translation
    np.testing.assert_allclose(tip, [0.0, 100.0, 0.0], atol=1e-12)


def test_three_bend_tip_matches_homogeneous_oracle(three_bend_chain):
    frames = fk_chain(three_bend_chain)
    oracle = fk_homogeneous(three_bend_chain.a, three_bend_chain.alpha,
                            three_bend_chain.theta)
    for mine, ref in zip(frames, oracle):
        np.testing.assert_allclose(mine.translation, ref[:3, 3], atol=1e-9)
        np.testing.assert_allclose(mine.rotation, ref[:3, :3], atol=1e-12)


def test_fk_oracle_random_chains():
    rng = np.random.default_rng(11)
    for _ in range(200):
        chain = random_feasible_chain(rng, theta_deg=(-170, 170),
                                      zero_last_alpha=False)
        frames = fk_chain(chain)
        oracle = fk_homogeneous(chain.a, chain.alpha, chain.theta)
        assert len(frames) == chain.n + 1
        for mine, ref in zip(frames, oracle):
            np.testing.assert_allclose(mine.translation, ref[:3, 3], atol=1e-9)
            np.testing.assert_allclose(mine.rotation, ref[:3, :3], atol=1e-12)


_angle = st.floats(-math.pi + 1e-9, math.pi)


@settings(max_examples=100, deadline=None)
@given(links=st.lists(st.tuples(st.floats(0.0, 500.0), _angle, _angle),
                      min_size=1, max_size=30))
def test_chain_frames_match_homogeneous_oracle(links):
    # signed bends and twists, zero-length links included
    a, alpha, theta = zip(*links)
    chain = DHChain(a, alpha, theta, radius=16.5)
    rots, origins = chain_frames(chain)
    oracle = np.array(fk_homogeneous(chain.a, chain.alpha, chain.theta))
    assert rots.shape == (chain.n + 1, 3, 3)
    assert origins.shape == (chain.n + 1, 3)
    np.testing.assert_allclose(rots, oracle[:, :3, :3], rtol=0, atol=1e-12)
    np.testing.assert_allclose(origins, oracle[:, :3, 3], rtol=0, atol=1e-9)
    # every consumer reads the same frames
    np.testing.assert_array_equal(dh_to_polyline(chain), origins)
    for pose, r, t in zip(fk_chain(chain), rots, origins):
        np.testing.assert_array_equal(pose.rotation, r)
        np.testing.assert_array_equal(pose.translation, t)


def test_chain_frames_match_the_per_link_loop_bit_for_bit():
    rng = np.random.default_rng(17)
    for n in [1, 2, 3, 200, *rng.integers(1, 201, 60)]:
        # signed bends and twists, with zero bends, twists and lengths
        a = rng.uniform(0.0, 300.0, n) * (rng.random(n) > 0.1)
        alpha = rng.uniform(-math.pi, math.pi, n) * (rng.random(n) > 0.3)
        theta = rng.uniform(-math.pi, math.pi, n) * (rng.random(n) > 0.2)
        chain = DHChain(a, alpha, theta, radius=16.5)
        rots, origins = chain_frames(chain)
        ref_rots, ref_origins = frames_loop(chain.a, chain.alpha, chain.theta)
        assert rots.tobytes() == ref_rots.tobytes()
        assert origins.tobytes() == ref_origins.tobytes()


def test_chain_length_overflow_names_its_link():
    # finite lengths whose running sum overflows at link 3: no frame is built
    with pytest.raises(ValidationError, match="^link 3: chain length overflows"):
        DHChain([1.0, 1e308, 1e308], [0, 0, 0], [0, 0, 0], 16.5)
    # just below float range every consumer builds finite frames
    chain = DHChain([1.0, 1e308, 7e307], [0, 0, 0], [0, 0, 0], 16.5)
    for build in (chain_frames, dh_to_polyline,
                  lambda c: [fk_chain(c)[-1].translation],
                  lambda c: centerline_points(c, [c.total_length])):
        assert np.isfinite(build(chain)[-1]).all()


@pytest.mark.parametrize("defect, message", [
    ("skew", "rotation is not orthonormal within 1e-9"),
    ("reflect", "rotation determinant is not 1 within 1e-9"),
    ("nan", "translation must be finite"),
])
def test_fk_chain_checks_every_frame(monkeypatch, three_bend_chain, defect, message):
    real = geometry.chain_frames

    def faulty(chain):
        rots, origins = real(chain)
        if defect == "skew":
            rots[2, 0, 1] += 1e-8
        elif defect == "reflect":
            rots[2, :, 2] *= -1.0
        else:
            origins[2, 1] = math.nan
        return rots, origins

    monkeypatch.setattr(geometry, "chain_frames", faulty)
    with pytest.raises(ValidationError, match=message):
        fk_chain(three_bend_chain)


def test_fk_chain_poses_are_read_only(three_bend_chain):
    for pose in fk_chain(three_bend_chain):
        assert not pose.rotation.flags.writeable
        assert not pose.translation.flags.writeable


def test_fk_base_frame_is_identity(three_bend_chain):
    base = fk_chain(three_bend_chain)[0]
    np.testing.assert_array_equal(base.rotation, np.eye(3))
    np.testing.assert_array_equal(base.translation, np.zeros(3))


def test_fk_composition_associative():
    rng = np.random.default_rng(3)
    for _ in range(20):
        chain = random_feasible_chain(rng, theta_deg=(-170, 170),
                                      zero_last_alpha=False)
        if chain.n < 2:
            continue
        split = int(rng.integers(1, chain.n))
        head = DHChain(chain.a[:split], chain.alpha[:split], chain.theta[:split],
                       chain.radius)
        tail = DHChain(chain.a[split:], chain.alpha[split:], chain.theta[split:],
                       chain.radius)
        # the head's tip frame, then the tail's tip frame within it
        h, t, full = (fk_chain(c)[-1] for c in (head, tail, chain))
        np.testing.assert_allclose(h.translation + h.rotation @ t.translation,
                                   full.translation, atol=1e-9)
        np.testing.assert_allclose(h.rotation @ t.rotation, full.rotation, atol=1e-12)


def test_rotations_stay_orthonormal_over_100_links():
    rng = np.random.default_rng(5)
    a = rng.uniform(10, 50, 100)
    alpha = rng.uniform(-math.pi + 1e-6, math.pi, 100)
    theta = rng.uniform(-math.pi + 1e-6, math.pi - 1e-6, 100)
    chain = DHChain(a, alpha, theta, radius=16.5)
    for frame in fk_chain(chain):
        r = frame.rotation
        assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-8


def test_invalid_links_name_index():
    with pytest.raises(ValidationError, match="link 2"):
        DHChain([100, -5, 100], [0, 0, 0], [0, 0, 0], 16.5)
    # the first bad link is named, whichever of its fields is bad
    with pytest.raises(ValidationError, match="^link 1: link length a"):
        DHChain([-1, 100], [0, 4.0], [0, 0], 16.5)
    with pytest.raises(ValidationError, match="^link 2: alpha"):
        DHChain([100, 100], [0, math.nan], [0, 0], 16.5)
    with pytest.raises(ValidationError, match="^link 1: theta"):
        DHChain([100, 100], [0, 0], [math.inf, 0], 16.5)
    with pytest.raises(ValidationError, match="^link 2: link length a"):
        DHChain([100, math.inf], [0, 0], [0, 0], 16.5)
    with pytest.raises(ValidationError, match="at least one link"):
        DHChain([], [], [], radius=16.5)
    for bad in (([100, 100], [0], [0, 0]), ([[100]], [[0]], [[0]]), (100, 0, 0)):
        with pytest.raises(ValidationError, match="equal length"):
            DHChain(*bad, 16.5)
    with pytest.raises(ValidationError, match="radius"):
        DHChain([100], [0], [0], 0.0)


def test_angle_range_validation():
    with pytest.raises(ValidationError, match="theta"):
        DHChain([10], [0], [4.0], 16.5)
    # -pi is the same rotation as pi and is stored canonically, as is a
    # rounding excess past pi
    chain = DHChain([10, 10, 10], [-math.pi, 0.5, math.pi + 1e-13],
                    [-math.pi, -math.pi - 1e-13, 0.5], 16.5)
    np.testing.assert_array_equal(chain.alpha, [math.pi, 0.5, math.pi])
    np.testing.assert_array_equal(chain.theta, [math.pi, math.pi, 0.5])


def test_chain_holds_read_only_arrays():
    theta = np.array([0.1, -0.2])
    chain = DHChain([10, 20], [0.3, 0.0], theta, 16.5)
    theta[0] = 9.0  # the chain holds its own copy
    assert chain.theta[0] == 0.1
    for x in (chain.a, chain.alpha, chain.theta):
        assert x.dtype == float and not x.flags.writeable
    assert chain.links == (DHLink(10.0, 0.3, 0.1), DHLink(20.0, 0.0, -0.2))
    assert chain.total_length == 30.0 and chain.n == 2


def test_wrap_angle():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
    assert wrap_angle(0.3) == pytest.approx(0.3)


def test_rigid_pose_validation_and_algebra():
    with pytest.raises(ValidationError, match="orthonormal"):
        _check_poses(np.eye(3)[None] * 1.001, np.zeros((1, 3)))
    with pytest.raises(ValidationError, match="determinant"):
        _check_poses(np.diag([1.0, 1.0, -1.0])[None], np.zeros((1, 3)))
    rng = np.random.default_rng(8)
    for _ in range(20):
        q = rng.normal(size=4)
        pose = RigidPose(quaternion_to_rotation(q), rng.normal(size=3) * 50)
        inv = pose.inverse()
        np.testing.assert_allclose(pose.rotation @ inv.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(pose.translation + pose.rotation @ inv.translation,
                                   np.zeros(3), atol=1e-9)
        p = rng.normal(size=(5, 3))
        np.testing.assert_allclose(pose.inverse().apply(pose.apply(p)), p,
                                   atol=1e-9)


def test_quaternion_round_trip():
    rng = np.random.default_rng(13)
    q = rng.normal(size=(100, 4))
    q /= np.linalg.norm(q, axis=1)[:, None]
    q2 = rotations_to_quaternions(np.array([quaternion_to_rotation(x) for x in q]))
    for a, b in zip(q, q2):
        # q and -q encode the same rotation
        assert min(np.linalg.norm(b - a), np.linalg.norm(b + a)) < 1e-12


def _rotations_on_every_branch(rng, m):
    """Random rotations plus half-turns, near-half-turns and ties of the diagonal."""
    rots = [quaternion_to_rotation(q) for q in rng.normal(size=(m, 4))]
    for axis in np.eye(3).tolist() + rng.normal(size=(m // 10, 3)).tolist():
        for angle in (math.pi, math.pi - 1e-9, 2.0, 3.0 * math.pi / 2.0):
            half = math.sin(angle / 2.0) * np.asarray(axis) / np.linalg.norm(axis)
            rots.append(quaternion_to_rotation([math.cos(angle / 2.0), *half]))
    rots += [np.eye(3), np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0]),
             np.diag([-1.0, -1.0, 1.0])]
    return np.array(rots)


def test_rotations_to_quaternions_match_the_scalar_oracle_bit_for_bit():
    rots = _rotations_on_every_branch(np.random.default_rng(17), 4000)
    trace = np.trace(rots, axis1=1, axis2=2)
    branches = np.where(trace > 0.0, 3, np.argmax(np.diagonal(rots, axis1=1, axis2=2), axis=1))
    assert set(branches.tolist()) == {0, 1, 2, 3}
    want = np.array([rotation_to_quaternion(r) for r in rots])
    assert rotations_to_quaternions(rots).tobytes() == want.tobytes()
    assert rotations_to_quaternions(np.zeros((0, 3, 3))).shape == (0, 4)


# ------------------------------------------------------------- polyline <-> DH

def test_polyline_collinear():
    chain = polyline_to_dh(np.array([[0, 0, 0], [100, 0, 0], [200, 0, 0]]), 16.5)
    np.testing.assert_allclose(chain.theta, [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(chain.alpha, [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(chain.a, [100.0, 100.0], atol=1e-12)


def test_polyline_collinear_vertex_is_straight_and_carries_its_plane():
    pts = np.array([[0, 0, 0], [100, 0, 0], [100, 100, 0], [100, 200, 0], [150, 250, 30]], float)
    chain = polyline_to_dh(pts, 10.0)
    # joint 3 has no plane: no bend, and no twist before it; link 3 turns the
    # plane of joint 2 into that of joint 4
    assert chain.theta[2] == 0.0 and chain.alpha[1] == 0.0 and chain.alpha[2] != 0.0
    np.testing.assert_allclose(dh_to_polyline(chain), pts, atol=1e-12)
    # the frame loop read rounding noise as a bend there
    assert 0.0 < abs(polyline_to_dh_loop(pts, 10.0).theta[2]) < 1e-15


def test_polyline_fit_matches_the_frame_loop_away_from_collinear_vertices():
    rng = np.random.default_rng(31)
    compiled = 0
    for k in range(1000):
        n = int(rng.integers(2, 51))
        steps = rng.normal(size=(n, 3)) * rng.uniform(30.0, 150.0, (n, 1))
        canonical, _ = canonicalize_polyline(np.cumsum(steps, axis=0))
        chain, loop = polyline_to_dh(canonical, 12.0), polyline_to_dh_loop(canonical, 12.0)
        gap = GapModel.for_method(("tape", "weld", "loop")[k % 3])
        try:
            want = compile_plan(loop, gap)
        except (InfeasibleLinkError, SingularityError) as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                compile_plan(chain, gap)
            continue
        plan = compile_plan(chain, gap)
        compiled += 1
        assert formats.dumps_json(formats.plan_to_dict(plan)) == \
            formats.dumps_json(formats.plan_to_dict(want))
        assert flat_pattern(plan) == flat_pattern(want)
    assert compiled > 500


def test_polyline_planar_right_angle():
    chain = polyline_to_dh(np.array([[0, 0, 0], [100, 0, 0], [100, 100, 0]]), 16.5)
    assert chain.theta[1] == pytest.approx(math.pi / 2, abs=1e-12)
    assert chain.alpha[0] == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(chain.a, [100.0, 100.0], atol=1e-12)


def test_polyline_non_planar_round_trip():
    pts = np.array([[0.0, 0.0, 0.0], [120.0, 0.0, 0.0], [200.0, 90.0, 0.0],
                    [230.0, 140.0, 80.0]])
    chain = polyline_to_dh(pts, 16.5)
    back = np.array([f[:3, 3] for f in fk_homogeneous(
        chain.a, chain.alpha, chain.theta)])
    np.testing.assert_allclose(back, pts, atol=1e-6)


def test_polyline_dh_round_trip_random_chains():
    rng = np.random.default_rng(17)
    for _ in range(100):
        chain = random_feasible_chain(rng)
        pts = dh_to_polyline(chain)
        back = dh_to_polyline(polyline_to_dh(pts, chain.radius))
        np.testing.assert_allclose(back, pts, atol=1e-6)


def test_dh_to_polyline_distance_preservation(three_bend_chain):
    pts = dh_to_polyline(three_bend_chain)
    assert pts.shape == (4, 3)
    np.testing.assert_allclose(np.linalg.norm(np.diff(pts, axis=0), axis=1),
                               [100.0, 100.0, 100.0], atol=1e-9)


def test_polyline_degenerate_segment():
    with pytest.raises(ValidationError, match="degenerate"):
        polyline_to_dh(np.array([[0, 0, 0], [0, 0, 0], [100, 0, 0]]), 16.5)


@pytest.mark.parametrize("fit", [canonicalize_polyline, lambda p: polyline_to_dh(p, 16.5)],
                         ids=["canonicalize", "polyline_to_dh"])
@pytest.mark.parametrize("points, message", [
    ([[0, 0, 0], [1, 0, 0], [math.nan, 1, 0]], "polyline vertex 3: non-finite coordinate in "
     "[nan, 1.0, 0.0]"),
    ([[0, 0, 0], [math.inf, 0, 0], [1, 1, 0]], "polyline vertex 2: non-finite coordinate in "
     "[inf, 0.0, 0.0]"),
], ids=["nan-after-segment-1", "inf-in-segment-1"])
def test_polyline_rejects_non_finite_vertices(fit, points, message):
    # named at the first bad vertex, before any arithmetic on it can warn
    # (tier-1 turns a RuntimeWarning into an error)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        fit(points)


def test_polyline_requires_canonical_start():
    with pytest.raises(ValidationError, match="origin"):
        polyline_to_dh(np.array([[5, 0, 0], [100, 0, 0]]), 16.5)
    with pytest.raises(ValidationError, match="x-y plane"):
        polyline_to_dh(np.array([[0, 0, 0], [100, 0, 50]]), 16.5)


def test_polyline_reversal_yields_singular_bend():
    # an exactly doubling-back path is a 180-degree bend: representable as a
    # chain, but exactly at the fold model's singularity, so not compilable
    from vinefab.errors import SingularityError
    from vinefab.fabrication import GapModel, compile_plan

    chain = polyline_to_dh(np.array([[0, 0, 0], [100, 0, 0], [0, 0, 0]]), 16.5)
    assert chain.theta[1] == math.pi
    with pytest.raises(SingularityError):
        compile_plan(chain, GapModel.for_method("tape"))

    # just short of the reversal the fold is long but finite
    near = polyline_to_dh(np.array([[0, 0, 0], [100, 0, 0], [0, 0.01, 0]]), 16.5)
    plan = compile_plan(near, GapModel.for_method("tape"))
    assert plan.joints[1].s_tilde == pytest.approx(2 * 16.5 * math.pi, abs=0.1)


def test_canonicalize_polyline_round_trip():
    rng = np.random.default_rng(23)
    for _ in range(20):
        raw = np.cumsum(rng.normal(size=(5, 3)) * 60, axis=0) + rng.normal(size=3) * 100
        canonical, base = canonicalize_polyline(raw)
        np.testing.assert_allclose(canonical @ base.rotation.T + base.translation, raw,
                                   atol=1e-9)
        chain = polyline_to_dh(canonical, 16.5)
        np.testing.assert_allclose(dh_to_polyline(chain) @ base.rotation.T + base.translation,
                                   raw, atol=1e-6)
        # no rounding-level bend, which would compile to a fold at joint 1
        assert chain.theta[0] == 0.0


@settings(max_examples=50, deadline=None)
@given(theta=st.floats(-math.pi + 1e-3, math.pi - 1e-3),
       a=st.floats(1.0, 500.0))
def test_single_link_tip_is_polar_point(theta, a):
    tip = fk_chain(DHChain([a], [0.0], [theta], 10.0))[-1].translation
    np.testing.assert_allclose(tip, [a * math.cos(theta), a * math.sin(theta), 0.0],
                               atol=1e-9)


def test_canonicalize_polyline_matches_the_pose_oracle_bit_for_bit():
    rng = np.random.default_rng(29)
    for k in range(600):
        raw = np.cumsum(rng.normal(size=(int(rng.integers(2, 8)), 3)) * 60, axis=0)
        raw += rng.normal(size=3) * 10.0 ** rng.integers(-2, 4)
        if k % 5 == 0:  # a straight polyline takes the helper axis
            raw = raw[:1] + np.outer(np.arange(len(raw)), raw[1] - raw[0])
        canonical, base = canonicalize_polyline(raw)
        assert isinstance(base, Pose)
        want = RigidPose(base.rotation, raw[0]).inverse().apply(raw)
        want[:2] = [[0.0, 0.0, 0.0], [np.linalg.norm(raw[1] - raw[0]), 0.0, 0.0]]
        assert canonical.tobytes() == want.tobytes()
        assert base.translation.tobytes() == raw[0].tobytes()


@pytest.mark.parametrize("build", [
    lambda: DHChain([1, [2, 3]], [0, 0], [0, 0], 16.5),
    lambda: DHChain(["a"], [0], [0], 16.5),
    lambda: DHChain([10], [0], [0], "r"),
    lambda: DHChain([10], [0], [0], [16.5, 1.0]),
    lambda: DHChain([10 ** 400], [0], [0], 16.5),
    lambda: FabricationPlan("x", [10.0], [0.0], [0.0], []),
    lambda: GapModel("tape", d_g=[1.0]),
    lambda: GapModel("tape", d_g=None),
    lambda: GapModel("tape", d_g=np.array([1.0, 2.0])),
    lambda: FabricationPlan(16.5, [10.0, [1.0]], [0.0, 0.0], [0.0, 0.0], [0.0]),
    lambda: check_samples("log", ["t"], [[0, 0, 0]], [[1, 0, 0, 0]]),
    lambda: check_samples("log", [0.0, 1.0], [[0, 0, 0], [0, 0]], [[1, 0, 0, 0]] * 2),
    lambda: ObstacleScene(spheres=(Sphere(center=["a", 0, 0], radius=10.0),)),
    lambda: ObstacleScene(spheres=(Sphere(center=[0, 0], radius=10.0),)),
    lambda: ObstacleScene(spheres=(Sphere(center=[0, 0, 0], radius="r"),)),
    lambda: ObstacleScene(boxes=(Box(min_corner=[0, [0], 0], max_corner=[10, 10, 10]),)),
    lambda: ObstacleScene(boxes=(Box(min_corner=[0, 0, 0], max_corner=[10, 10, 10, 10]),)),
    lambda: ObstacleScene(spheres=(5,)),
    lambda: ObstacleScene(spheres=(([0, 0], 10.0),)),
    lambda: MeasuredDH("pre", 2, ["x", 0.1], [0.0], [1.0, 1.0, 1.0]),
    lambda: MeasuredDH("pre", 2, [0.1, 0.2], [0.0], [[1.0, 1.0], [1.0]]),
    lambda: MeasuredDH("pre", "2", [0.1], [], [1.0, 1.0]),
    lambda: MeasuredDH("pre", True, [0.1], [], [1.0, 1.0]),
    lambda: canonicalize_polyline([[0, 0], [1, 0]]),
    lambda: canonicalize_polyline([[0, 0, 0], [1, 0]]),
    lambda: canonicalize_polyline([[0, 0, 0], ["x", 0, 0]]),
    lambda: polyline_to_dh([[0, 0], [1, 0]], 16.5),
    lambda: polyline_to_dh([[0, 0, 0], [1, 0]], 16.5),
    lambda: polyline_to_dh([[0, 0, 0], ["x", 0, 0]], 16.5),
], ids=["chain-ragged", "chain-string", "chain-radius-string", "chain-radius-list",
        "chain-huge-int", "plan-radius-string", "gap-d_g-list", "gap-d_g-none",
        "gap-d_g-array", "plan-ragged", "samples-string", "samples-ragged",
        "sphere-center-string", "sphere-center-2", "sphere-radius-string",
        "box-ragged", "box-corner-4", "scene-sphere-int", "scene-pair-center-2",
        "measured-string", "measured-ragged", "measured-first-joint-string",
        "measured-first-joint-bool", "canonicalize-2-columns", "canonicalize-ragged",
        "canonicalize-string", "polyline-2-columns", "polyline-ragged", "polyline-string"])
def test_constructors_reject_ragged_or_non_numeric_input(build):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValidationError):
            build()
