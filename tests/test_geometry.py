import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vinefab.errors import ValidationError
from vinefab.geometry import (DHChain, DHLink, RigidPose, canonicalize_polyline,
                              chain_frames, dh_to_polyline, fk_chain,
                              polyline_to_dh, quaternion_to_rotation,
                              rotation_to_quaternion, wrap_angle)
from vinefab.growth import GrowthState, tip_pose_at

from conftest import random_feasible_chain
from oracles import fk_homogeneous


def test_straight_chain_tip():
    chain = DHChain.from_arrays([100, 100, 100], [0, 0, 0], [0, 0, 0], 16.5)
    frames = fk_chain(chain)
    assert len(frames) == 4
    np.testing.assert_allclose(frames[-1].translation, [300.0, 0.0, 0.0],
                               atol=1e-12)


def test_single_link_planar_rotation():
    chain = DHChain.from_arrays([100], [0], [math.pi / 2], 16.5)
    tip = fk_chain(chain)[-1].translation
    np.testing.assert_allclose(tip, [0.0, 100.0, 0.0], atol=1e-12)


def test_three_bend_tip_matches_homogeneous_oracle(three_bend_chain):
    frames = fk_chain(three_bend_chain)
    oracle = fk_homogeneous(three_bend_chain.lengths(),
                            three_bend_chain.alphas(),
                            three_bend_chain.thetas())
    for mine, ref in zip(frames, oracle):
        np.testing.assert_allclose(mine.translation, ref[:3, 3], atol=1e-9)
        np.testing.assert_allclose(mine.rotation, ref[:3, :3], atol=1e-12)


def test_fk_oracle_random_chains():
    rng = np.random.default_rng(11)
    for _ in range(200):
        chain = random_feasible_chain(rng, theta_deg=(-170, 170),
                                      zero_last_alpha=False)
        frames = fk_chain(chain)
        oracle = fk_homogeneous(chain.lengths(), chain.alphas(), chain.thetas())
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
    chain = DHChain.from_arrays(a, alpha, theta, radius=16.5)
    rots, origins = chain_frames(chain)
    oracle = np.array(fk_homogeneous(chain.lengths(), chain.alphas(),
                                     chain.thetas()))
    assert rots.shape == (chain.n + 1, 3, 3)
    assert origins.shape == (chain.n + 1, 3)
    np.testing.assert_allclose(rots, oracle[:, :3, :3], rtol=0, atol=1e-12)
    np.testing.assert_allclose(origins, oracle[:, :3, 3], rtol=0, atol=1e-9)
    # every consumer reads the same frames
    np.testing.assert_array_equal(dh_to_polyline(chain), origins)
    for pose, r, t in zip(fk_chain(chain), rots, origins):
        np.testing.assert_array_equal(pose.rotation, r)
        np.testing.assert_array_equal(pose.translation, t)


def test_chain_frames_name_the_overflowing_link():
    # finite lengths whose sum overflows: link 3 is the first non-finite origin
    chain = DHChain.from_arrays([1.0, 1e308, 1e308], [0, 0, 0], [0, 0, 0], 16.5)
    for build in (chain_frames, fk_chain, dh_to_polyline,
                  lambda c: tip_pose_at(GrowthState(c, 1.0))):
        with pytest.raises(ValidationError, match="^link 3: translation must be finite"):
            build(chain)


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
        head = DHChain(links=chain.links[:split], radius=chain.radius)
        tail = DHChain(links=chain.links[split:], radius=chain.radius)
        joined = fk_chain(head)[-1] @ fk_chain(tail)[-1]
        full = fk_chain(chain)[-1]
        np.testing.assert_allclose(joined.translation, full.translation,
                                   atol=1e-9)
        np.testing.assert_allclose(joined.rotation, full.rotation, atol=1e-12)


def test_rotations_stay_orthonormal_over_100_links():
    rng = np.random.default_rng(5)
    a = rng.uniform(10, 50, 100)
    alpha = rng.uniform(-math.pi + 1e-6, math.pi, 100)
    theta = rng.uniform(-math.pi + 1e-6, math.pi - 1e-6, 100)
    chain = DHChain.from_arrays(a, alpha, theta, radius=16.5)
    for frame in fk_chain(chain):
        r = frame.rotation
        assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-8


def test_invalid_links_name_index():
    with pytest.raises(ValidationError, match="link 2"):
        DHChain.from_arrays([100, -5, 100], [0, 0, 0], [0, 0, 0], 16.5)
    with pytest.raises(ValidationError, match="d must be exactly 0"):
        DHLink(a=100, d=1.0)
    with pytest.raises(ValidationError):
        DHChain(links=(), radius=16.5)
    # raw parameters go through from_arrays, not the constructor
    with pytest.raises(ValidationError, match="link 2: expected a DHLink"):
        DHChain(links=(DHLink(a=100), {"a": 100}), radius=16.5)
    with pytest.raises(ValidationError, match="link 1: expected a DHLink"):
        DHChain(links=((100.0, 0.0, 0.0),), radius=16.5)
    with pytest.raises(ValidationError, match="radius"):
        DHChain.from_arrays([100], [0], [0], 0.0)


def test_angle_range_validation():
    with pytest.raises(ValidationError, match="theta"):
        DHLink(a=10, theta=4.0)
    # -pi is the same rotation as pi and is stored canonically
    assert DHLink(a=10, theta=-math.pi).theta == math.pi


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
        ident = pose @ pose.inverse()
        np.testing.assert_allclose(ident.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(ident.translation, np.zeros(3), atol=1e-9)
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
    np.testing.assert_allclose(chain.thetas(), [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(chain.alphas(), [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(chain.lengths(), [100.0, 100.0], atol=1e-12)


def test_polyline_planar_right_angle():
    chain = polyline_to_dh(np.array([[0, 0, 0], [100, 0, 0], [100, 100, 0]]), 16.5)
    assert chain.thetas()[1] == pytest.approx(math.pi / 2, abs=1e-12)
    assert chain.alphas()[0] == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(chain.lengths(), [100.0, 100.0], atol=1e-12)


def test_polyline_non_planar_round_trip():
    pts = np.array([[0.0, 0.0, 0.0], [120.0, 0.0, 0.0], [200.0, 90.0, 0.0],
                    [230.0, 140.0, 80.0]])
    chain = polyline_to_dh(pts, 16.5)
    back = np.array([f[:3, 3] for f in fk_homogeneous(
        chain.lengths(), chain.alphas(), chain.thetas())])
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
    assert chain.thetas()[1] == math.pi
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
        assert chain.thetas()[0] == 0.0


@settings(max_examples=50, deadline=None)
@given(theta=st.floats(-math.pi + 1e-3, math.pi - 1e-3),
       a=st.floats(1.0, 500.0))
def test_single_link_tip_is_polar_point(theta, a):
    tip = fk_chain(DHChain.from_arrays([a], [0.0], [theta], 10.0))[-1].translation
    np.testing.assert_allclose(tip, [a * math.cos(theta), a * math.sin(theta), 0.0],
                               atol=1e-9)
