import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vinefab.errors import ValidationError
from vinefab import geometry
from vinefab.fabrication import FabricationPlan
from vinefab.geometry import (DHChain, DHLink, RigidPose, canonicalize_polyline,
                              chain_frames, dh_to_polyline, fk_chain,
                              polyline_to_dh, quaternion_to_rotation,
                              rotation_to_quaternion, wrap_angle)
from vinefab.growth import Box, Sphere, centerline_points
from vinefab.measurement import check_samples

from conftest import random_feasible_chain
from oracles import fk_homogeneous, frames_loop


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
        RigidPose(np.eye(3) * 1.001, np.zeros(3))
    with pytest.raises(ValidationError, match="determinant"):
        RigidPose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))
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
    for _ in range(100):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        r = quaternion_to_rotation(q)
        q2 = rotation_to_quaternion(r)
        # q and -q encode the same rotation
        assert min(np.linalg.norm(q2 - q), np.linalg.norm(q2 + q)) < 1e-12


# ------------------------------------------------------------- polyline <-> DH

def test_polyline_collinear():
    chain = polyline_to_dh(np.array([[0, 0, 0], [100, 0, 0], [200, 0, 0]]), 16.5)
    np.testing.assert_allclose(chain.theta, [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(chain.alpha, [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(chain.a, [100.0, 100.0], atol=1e-12)


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
        np.testing.assert_allclose(base.apply(canonical), raw, atol=1e-9)
        chain = polyline_to_dh(canonical, 16.5)
        np.testing.assert_allclose(base.apply(dh_to_polyline(chain)), raw,
                                   atol=1e-6)
        # no rounding-level bend, which would compile to a fold at joint 1
        assert chain.theta[0] == 0.0


@settings(max_examples=50, deadline=None)
@given(theta=st.floats(-math.pi + 1e-3, math.pi - 1e-3),
       a=st.floats(1.0, 500.0))
def test_single_link_tip_is_polar_point(theta, a):
    tip = fk_chain(DHChain([a], [0.0], [theta], 10.0))[-1].translation
    np.testing.assert_allclose(tip, [a * math.cos(theta), a * math.sin(theta), 0.0],
                               atol=1e-9)


@pytest.mark.parametrize("build", [
    lambda: DHChain([1, [2, 3]], [0, 0], [0, 0], 16.5),
    lambda: DHChain(["a"], [0], [0], 16.5),
    lambda: DHChain([10], [0], [0], "r"),
    lambda: DHChain([10], [0], [0], [16.5, 1.0]),
    lambda: DHChain([10 ** 400], [0], [0], 16.5),
    lambda: FabricationPlan("x", [10.0], [0.0], [0.0], []),
    lambda: FabricationPlan(16.5, [10.0, [1.0]], [0.0, 0.0], [0.0, 0.0], [0.0]),
    lambda: check_samples("log", ["t"], [[0, 0, 0]], [[1, 0, 0, 0]]),
    lambda: check_samples("log", [0.0, 1.0], [[0, 0, 0], [0, 0]], [[1, 0, 0, 0]] * 2),
    lambda: Sphere(center=["a", 0, 0], radius=10.0),
    lambda: Sphere(center=[0, 0], radius=10.0),
    lambda: Sphere(center=[0, 0, 0], radius="r"),
    lambda: Box(min_corner=[0, [0], 0], max_corner=[10, 10, 10]),
    lambda: Box(min_corner=[0, 0, 0], max_corner=[10, 10, 10, 10]),
], ids=["chain-ragged", "chain-string", "chain-radius-string", "chain-radius-list",
        "chain-huge-int", "plan-radius-string", "plan-ragged", "samples-string", "samples-ragged",
        "sphere-center-string", "sphere-center-2", "sphere-radius-string",
        "box-ragged", "box-corner-4"])
def test_constructors_reject_ragged_or_non_numeric_input(build):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValidationError):
            build()
