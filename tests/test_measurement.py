import math
import re

import numpy as np
import pytest

from vinefab.errors import (DegenerateGeometryError, MissingMarkerError,
                            ValidationError)
from vinefab.geometry import DHChain, Pose, quaternion_to_rotation, rotations_to_quaternions
from vinefab.measurement import (DHErrors, MarkerRecord, MeasuredDH,
                                 average_samples, dh_errors, parse_marker_id,
                                 recover_dh, synthetic_markers)

from oracles import (chordal_mean_rotation, dh_error_rows, error_rows, measured_pairs,
                     recover_dh_loop, rot_x, rot_z)



def _measurement_chain(rng, n=None):
    """Random chain matching the marker protocol: no bend at the base joint."""
    if n is None:
        n = int(rng.integers(3, 8))
    a = rng.uniform(90.0, 250.0, n)
    theta = np.concatenate([[0.0], np.radians(rng.uniform(3.0, 150.0, n - 1))])
    alpha = np.concatenate([[0.0], rng.uniform(-math.pi + 1e-6, math.pi, n - 2),
                            [0.0]])
    return DHChain(a, alpha, theta, radius=16.5)


def test_parse_marker_id():
    assert parse_marker_id("j2_on") == (2, "on")
    assert parse_marker_id("J3_proximal") == (3, "prox")
    assert parse_marker_id("j10:distal") == (10, "dist")
    assert parse_marker_id("j4_on-joint") == (4, "on")
    assert parse_marker_id("base") == (None, "base")
    assert parse_marker_id("TIP") == (None, "tip")
    with pytest.raises(ValidationError):
        parse_marker_id("marker7")


def _record(marker_id, samples):
    """MarkerRecord from (t, Pose) samples."""
    times, poses = zip(*samples)
    return MarkerRecord(marker_id, times, [p.translation for p in poses],
                        rotations_to_quaternions(np.array([p.rotation for p in poses])))


def test_average_samples_trivial():
    pose = Pose(rot_z(0.3), np.array([1.0, 2.0, 3.0]))
    rec = _record("j2_on", ((0.0, pose), (0.05, pose)))
    avg = average_samples(rec)
    np.testing.assert_allclose(avg.translation, pose.translation)
    np.testing.assert_allclose(avg.rotation, pose.rotation, atol=1e-12)

    a = Pose(np.eye(3), np.zeros(3))
    b = Pose(np.eye(3), np.array([2.0, 0.0, 0.0]))
    avg = average_samples(_record("j2_on", ((0.0, a), (0.05, b))))
    np.testing.assert_allclose(avg.translation, [1.0, 0.0, 0.0])


def test_average_samples_order_invariant():
    rng = np.random.default_rng(41)
    poses = [(k * 0.05, Pose(rot_z(rng.normal(0, 0.01)) @ rot_x(rng.normal(0, 0.01)),
                                  rng.normal(0, 1, 3)))
             for k in range(50)]
    fwd = average_samples(_record("tip", tuple(poses)))
    rev = average_samples(_record("tip", tuple(reversed(poses))))
    np.testing.assert_allclose(fwd.translation, rev.translation, atol=1e-12)
    np.testing.assert_allclose(fwd.rotation, rev.rotation, atol=1e-12)


def test_average_samples_recovers_noisy_rotation():
    rng = np.random.default_rng(43)
    truth = rot_z(0.7) @ rot_x(-0.2)
    chain = DHChain([100], [math.radians(-11.5)], [0.7], 16.5)
    _ = chain  # truth rotation equals this link's orientation; kept explicit
    samples = []
    for k in range(100):
        # noise rotations: uniform axis, angle ~ N(0, 0.5 deg)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = abs(rng.normal(0.0, math.radians(0.5)))
        kx = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]],
                       [-axis[1], axis[0], 0]])
        noise = np.eye(3) + math.sin(angle) * kx + (1 - math.cos(angle)) * (kx @ kx)
        samples.append((k * 0.05, Pose(truth @ noise, np.zeros(3))))
    avg = average_samples(_record("j2_on", tuple(samples)))
    residual = avg.rotation.T @ truth
    angle_err = math.acos(min(1.0, (np.trace(residual) - 1.0) / 2.0))
    assert math.degrees(angle_err) < 0.1


def test_average_samples_matches_matrix_mean():
    rng = np.random.default_rng(59)
    for spread in (0.01, 0.3, 1.0):
        truth = rng.normal(size=4)
        q = truth / np.linalg.norm(truth) + rng.normal(0.0, spread, (40, 4))
        q /= np.linalg.norm(q, axis=1)[:, None]
        q[rng.random(40) < 0.5] *= -1.0  # q and -q are the same rotation
        avg = average_samples(MarkerRecord("tip", np.arange(40) * 0.05,
                                           np.zeros((40, 3)), q))
        np.testing.assert_allclose(avg.rotation, chordal_mean_rotation(q),
                                   rtol=0.0, atol=1e-12)


def test_marker_record_arrays_are_checked():
    t, p, q = [0.0, 0.05], [[1.0, 2.0, 3.0]] * 2, [[1.0, 0.0, 0.0, 0.0]] * 2
    rec = MarkerRecord("j2_on", t, p, [[1.0 + 5e-7, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    assert rec.times.shape == (2,) and rec.positions.shape == (2, 3)
    np.testing.assert_array_equal(rec.quaternions[0], [1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="read-only"):
        rec.positions[0, 0] = 5.0
    with pytest.raises(ValidationError, match="quaternion norm 2 is not 1"):
        MarkerRecord("j2_on", t, p, [[1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]])
    with pytest.raises(ValidationError, match="marker 'j2_on': sample 0: non-finite"):
        MarkerRecord("j2_on", t, p, [[math.nan, 0.0, 0.0, 0.0]] * 2)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="sample 1: non-finite"):
            MarkerRecord("j2_on", t, [p[0], [1.0, bad, 3.0]], q)
        with pytest.raises(ValidationError, match="sample 1: non-finite"):
            MarkerRecord("j2_on", [0.0, bad], p, q)
    with pytest.raises(ValidationError, match="no samples"):
        MarkerRecord("j2_on", [], np.zeros((0, 3)), np.zeros((0, 4)))
    with pytest.raises(ValidationError, match="shapes"):
        MarkerRecord("j2_on", t, p[:1], q)
    with pytest.raises(ValidationError, match="shapes"):
        MarkerRecord("j2_on", t, p, [[1.0, 0.0, 0.0]] * 2)
    with pytest.raises(ValidationError, match="unrecognized marker id"):
        MarkerRecord("marker7", t, p, q)


def test_recover_exact_on_reference_robot(three_bend_chain):
    joint_thetas, link_alphas, link_lengths = measured_pairs(
        recover_dh(synthetic_markers(three_bend_chain)))
    assert [j for j, _ in joint_thetas] == [2, 3]
    for (_, th) in joint_thetas:
        assert th == pytest.approx(math.pi / 4, abs=1e-9)
    assert link_alphas[0][1] == pytest.approx(math.pi / 4, abs=1e-9)
    for (_, a) in link_lengths:
        assert a == pytest.approx(100.0, abs=1e-9)


def test_recover_collinear_markers_give_zero_angle():
    chain = DHChain([100, 100, 100], [0, 0, 0], [0, 0, 0], 16.5)
    joint_thetas, _, _ = measured_pairs(recover_dh(synthetic_markers(chain)))
    for (_, th) in joint_thetas:
        assert th == pytest.approx(0.0, abs=1e-12)


def test_recover_identity_random_chains():
    rng = np.random.default_rng(47)
    for _ in range(50):
        chain = _measurement_chain(rng)
        joint_thetas, link_alphas, link_lengths = measured_pairs(
            recover_dh(synthetic_markers(chain)))
        for (j, th) in joint_thetas:
            assert th == pytest.approx(chain.links[j - 1].theta, abs=1e-9)
        for (i, al) in link_alphas:
            diff = (al - chain.links[i - 1].alpha + math.pi) % (2 * math.pi) - math.pi
            assert abs(diff) < 1e-9
        for (i, a) in link_lengths:
            assert a == pytest.approx(chain.links[i - 1].a, abs=1e-9)


def test_recover_noisy_markers_bound(three_bend_chain):
    rng = np.random.default_rng(53)
    errors = []
    for _ in range(300):
        recs = synthetic_markers(three_bend_chain, position_noise_mm=0.1, rng=rng)
        joint_thetas, _, _ = measured_pairs(recover_dh(recs))
        for (j, th) in joint_thetas:
            errors.append(abs(math.degrees(th - three_bend_chain.links[j - 1].theta)))
    assert float(np.median(errors)) < 0.2


def test_missing_marker_is_named(three_bend_chain):
    recs = [r for r in synthetic_markers(three_bend_chain)
            if r.marker_id != "j3_prox"]
    with pytest.raises(MissingMarkerError, match="joint 3: missing 'prox'"):
        recover_dh(recs)
    recs = [r for r in synthetic_markers(three_bend_chain)
            if r.marker_id != "base"]
    with pytest.raises(MissingMarkerError, match="joint 2: missing 'prox'"):
        recover_dh(recs)
    # a missing marker is named before any short direction, even an earlier joint's
    chain = DHChain([100.0] * 5, [0.0, 0.4, -1.1, 2.5, 0.0], np.radians([0, 45, 30, 20, 50]), 16.5)
    recs = {r.marker_id: r for r in synthetic_markers(chain) if r.marker_id != "j4_prox"}
    on = recs["j2_on"].positions[0]
    recs["j2_dist"] = MarkerRecord("j2_dist", [0.0], [on + [0.87, 0.0, 0.0]], [[1, 0, 0, 0]])
    with pytest.raises(MissingMarkerError, match="^joint 4: missing 'prox' marker$"):
        recover_dh(recs.values())


def test_degenerate_marker_geometry():
    at = lambda marker_id, p: MarkerRecord(marker_id, [0.0], [p], [[1, 0, 0, 0]])  # noqa: E731
    positions = {"base": [0, 0, 0], "j2_on": [20, 0, 0], "j2_dist": [50, 50, 0],
                 "j3_prox": [60, 60, 0], "j3_on": [80, 80, 0], "tip": [120, 80, 0]}
    for moved, text in (({"j2_on": [0.5, 0, 0]}, "joint 2 incoming"),  # 0.5 mm from base
                        ({"j2_dist": [20.3, 0.6, 0.2]}, "joint 2 outgoing"),
                        ({"j3_on": [20.5, 0.2, 0]}, "link 2"),
                        ({"j3_prox": [80.3, 80.6, 0]}, "joint 3 incoming"),
                        ({"tip": [80, 80.9, 0]}, "joint 3 outgoing"),
                        # the first in the order joints (incoming, outgoing), then links
                        ({"j3_on": [20.5, 0.2, 0], "tip": [20.5, 0.9, 0]}, "joint 3 outgoing"),
                        ({"j2_dist": [20.3, 0.6, 0.2], "j3_prox": [80.3, 80.6, 0]},
                         "joint 2 outgoing")):
        recs = [at(marker_id, p) for marker_id, p in {**positions, **moved}.items()]
        with pytest.raises(DegenerateGeometryError,
                           match=f"^{text}: direction vector shorter than 1.0 mm$"):
            recover_dh(recs)
        with pytest.raises(DegenerateGeometryError,
                           match=f"^{text}: direction vector shorter than 1.0 mm$"):
            recover_dh_loop(recs)


def test_duplicate_marker_rejected(three_bend_chain):
    recs = synthetic_markers(three_bend_chain)
    with pytest.raises(ValidationError, match="duplicate"):
        recover_dh(recs + [recs[0]])


# bends of both signs: joints 2/3 and 4/5 flip once, joints 3/4 are both negative
MIXED_SIGN_CHAIN = DHChain(
    [200.0] * 5, [0.0, 0.4, -1.1, 2.5, 0.0],
    np.radians([0.0, 45.0, -60.0, -30.0, 50.0]), radius=16.5)


def test_dh_errors_zero_for_exact_match(three_bend_chain):
    for chain, n_rows in ((three_bend_chain, 6),    # 2 joints + 1 twist + 3 lengths
                          (MIXED_SIGN_CHAIN, 12)):  # 4 joints + 3 twists + 5 lengths
        measured = recover_dh(synthetic_markers(chain))
        rows = error_rows(dh_errors(measured, chain))
        assert len(rows) == n_rows
        for row in rows:
            assert abs(row.error) < 1e-9


def test_dh_errors_representative_magnitudes(three_bend_chain):
    measured = MeasuredDH(
        phase="post", first_joint=2,
        thetas=[math.radians(45.12), math.pi / 4],
        alphas=[math.pi / 4],
        lengths=[100.36, 100.0, 100.0])
    rows = {(r.parameter, r.index): r
            for r in error_rows(dh_errors(measured, three_bend_chain))}
    assert rows[("joint", 2)].error == pytest.approx(0.12, abs=1e-9)
    assert rows[("length", 1)].error == pytest.approx(0.36, abs=1e-9)
    assert all(r.phase == "post" for r in rows.values())


def test_dh_errors_topology_mismatch(three_bend_chain):
    measured = MeasuredDH(phase="pre", first_joint=2, thetas=[0.1], alphas=[],
                          lengths=[100.0, 100.0])
    with pytest.raises(ValidationError, match=r"topology does not match a 3-link chain: "
                       r"joints \[2\], twists \[\], lengths \[1, 2\]"):
        dh_errors(measured, three_bend_chain)


def test_measured_counts_validated():
    with pytest.raises(ValidationError, match="counts"):
        MeasuredDH(phase="pre", first_joint=2, thetas=[0.1], alphas=[0.0],
                   lengths=[10.0, 10.0])
    with pytest.raises(ValidationError, match=r"counts .*\(2 joints, 1 twists, 3 lengths\)"):
        MeasuredDH(phase="pre", first_joint=2, thetas=[[0.1, 0.2]], alphas=[0.0],
                   lengths=[10.0, 10.0, 10.0])
    with pytest.raises(ValidationError, match="phase"):
        MeasuredDH(phase="during", first_joint=2, thetas=[], alphas=[],
                   lengths=[10.0])


def test_measured_dh_holds_read_only_arrays():
    measured = MeasuredDH("pre", 2, (0.5, 0.25), [0.1], np.array([1.0, 2.0, 3.0]))
    assert measured.thetas.dtype == np.float64 and measured.lengths.shape == (3,)
    with pytest.raises(ValueError, match="read-only"):
        measured.thetas[0] = 1.0


def test_dh_errors_are_plain_columns(three_bend_chain):
    errors = dh_errors(recover_dh(synthetic_markers(three_bend_chain)), three_bend_chain)
    assert isinstance(errors, DHErrors) and errors.phase == "pre"
    assert errors.kind.tolist() == ["joint", "joint", "twist", "length", "length", "length"]
    assert errors.index.tolist() == [2, 3, 2, 1, 2, 3]
    assert all(c.shape == (6,) for c in (errors.target, errors.measured, errors.error))


def test_average_samples_rejects_an_overflowing_mean():
    rec = MarkerRecord("tip", [0.0, 0.05], [[1e308, 0.0, 0.0]] * 2, [[1.0, 0.0, 0.0, 0.0]] * 2)
    with pytest.raises(ValidationError, match="translation must be finite"):
        average_samples(rec)


def _signed_chain(rng):
    """A chain for the marker protocol whose bends have both signs, 15% of them 0."""
    n = int(rng.integers(3, 8))
    theta = np.radians(rng.uniform(3.0, 150.0, n)) * rng.choice([-1.0, 1.0], n)
    theta[rng.random(n) < 0.15] = 0.0
    theta[0] = 0.0
    alpha = np.concatenate([[0.0], rng.uniform(-math.pi + 1e-6, math.pi, n - 2), [0.0]])
    return DHChain(rng.uniform(90.0, 250.0, n), alpha, theta, radius=16.5)


def test_recover_dh_and_errors_match_the_loop_oracles_bit_for_bit():
    rng = np.random.default_rng(71)
    for k in range(600):
        chain = _signed_chain(rng)
        recs = synthetic_markers(chain, n_samples=2, rng=rng,
                                 position_noise_mm=(0.0, 0.1, 1.0)[k % 3])
        if rng.random() < 0.05:
            del recs[int(rng.integers(len(recs)))]
        try:
            want = recover_dh_loop(recs)
        except (MissingMarkerError, DegenerateGeometryError) as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                recover_dh(recs)
            continue
        measured = recover_dh(recs)
        assert measured_pairs(measured) == want
        for name, pairs in zip(("thetas", "alphas", "lengths"), want):
            assert getattr(measured, name).tobytes() == np.array([v for _, v in pairs]).tobytes()
        assert error_rows(dh_errors(measured, chain)) == dh_error_rows(want, "pre", chain)


def test_synthetic_marker_noise_is_drawn_sample_by_sample(three_bend_chain):
    # each (marker, sample) draws its position noise, then its rotation noise,
    # on the clean pose; scipy's rotation vector is the Rodrigues oracle
    from scipy.spatial.transform import Rotation

    clean = synthetic_markers(three_bend_chain, n_samples=4)
    noisy = synthetic_markers(three_bend_chain, n_samples=4, position_noise_mm=0.05,
                              rotation_noise_deg=0.2, rng=np.random.default_rng(5))
    rng = np.random.default_rng(5)
    for rec, ref in zip(noisy, clean):
        for p, q, p0, q0 in zip(rec.positions, rec.quaternions, ref.positions, ref.quaternions):
            assert p.tobytes() == (p0 + rng.normal(0.0, 0.05, 3)).tobytes()
            turn = Rotation.from_rotvec(rng.normal(0.0, math.radians(0.2), 3)).as_matrix()
            np.testing.assert_allclose(quaternion_to_rotation(q),
                                       quaternion_to_rotation(q0) @ turn, rtol=0, atol=1e-14)


def test_noise_free_markers_of_straight_joints_give_zero_errors():
    # a straight joint has no bending plane: its twist is carried into the
    # next bend, in the recovery and in the targets alike; a reversal
    # (theta = pi) is straight too, and turns the axis of the carried twist
    rng = np.random.default_rng(83)
    straight = 0
    for _ in range(400):
        n = int(rng.integers(2, 9))
        theta = np.radians(rng.uniform(3.0, 150.0, n)) * rng.choice([-1.0, 1.0], n)
        theta[rng.random(n) < 0.2] = 0.0
        theta[rng.random(n) < 0.05] = math.pi
        alpha = rng.uniform(-math.pi + 1e-6, math.pi, n)
        chain = DHChain(rng.uniform(90.0, 250.0, n), alpha, theta, radius=16.5)
        straight += int(((theta[1:] == 0.0) | (theta[1:] == math.pi)).sum())
        errors = dh_errors(recover_dh(synthetic_markers(chain)), chain)
        assert np.abs(errors.error).max() <= 1e-9, (theta, alpha, errors.error)
    assert straight > 100


def test_straight_joint_twist_is_carried_into_the_next_bend():
    chain = DHChain([100.0] * 5, [0.0, 0.3, 0.5, -0.4, 0.0], [0.0, 0.6, 0.0, 0.7, 0.5], 16.5)
    measured = recover_dh(synthetic_markers(chain))
    # joint 3 is straight: the twist of link 2 waits, and link 3 takes 0.3 + 0.5
    assert measured.thetas[1] == 0.0 and measured.alphas[0] == 0.0
    np.testing.assert_allclose(measured.alphas, [0.0, 0.8, -0.4], atol=1e-12)
    errors = dh_errors(measured, chain)
    np.testing.assert_allclose(errors.target[errors.kind == "twist"],
                               np.degrees([0.0, 0.8, -0.4]), atol=1e-12)
    assert np.abs(errors.error).max() <= 1e-9
