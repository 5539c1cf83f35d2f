import math

import numpy as np
import pytest

from vinefab.errors import (DegenerateGeometryError, MissingMarkerError,
                            ValidationError)
from vinefab.geometry import DHChain, RigidPose, rot_x, rot_z
from vinefab.measurement import (ErrorRow, MarkerRecord, MeasuredDH,
                                 average_samples, dh_errors, parse_marker_id,
                                 recover_dh, synthetic_markers)

from oracles import chordal_mean_rotation



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
    """MarkerRecord from (t, RigidPose) samples."""
    times, poses = zip(*samples)
    return MarkerRecord(marker_id, times, [p.translation for p in poses],
                        [p.quaternion() for p in poses])


def test_average_samples_trivial():
    pose = RigidPose(rot_z(0.3), np.array([1.0, 2.0, 3.0]))
    rec = _record("j2_on", ((0.0, pose), (0.05, pose)))
    avg = average_samples(rec)
    np.testing.assert_allclose(avg.translation, pose.translation)
    np.testing.assert_allclose(avg.rotation, pose.rotation, atol=1e-12)

    a = RigidPose(np.eye(3), np.zeros(3))
    b = RigidPose(np.eye(3), np.array([2.0, 0.0, 0.0]))
    avg = average_samples(_record("j2_on", ((0.0, a), (0.05, b))))
    np.testing.assert_allclose(avg.translation, [1.0, 0.0, 0.0])


def test_average_samples_order_invariant():
    rng = np.random.default_rng(41)
    poses = [(k * 0.05, RigidPose(rot_z(rng.normal(0, 0.01)) @ rot_x(rng.normal(0, 0.01)),
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
        samples.append((k * 0.05, RigidPose(truth @ noise, np.zeros(3))))
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
    measured = recover_dh(synthetic_markers(three_bend_chain))
    assert [j for j, _ in measured.joint_thetas] == [2, 3]
    for (_, th) in measured.joint_thetas:
        assert th == pytest.approx(math.pi / 4, abs=1e-9)
    assert measured.link_alphas[0][1] == pytest.approx(math.pi / 4, abs=1e-9)
    for (_, a) in measured.link_lengths:
        assert a == pytest.approx(100.0, abs=1e-9)


def test_recover_collinear_markers_give_zero_angle():
    chain = DHChain([100, 100, 100], [0, 0, 0], [0, 0, 0], 16.5)
    measured = recover_dh(synthetic_markers(chain))
    for (_, th) in measured.joint_thetas:
        assert th == pytest.approx(0.0, abs=1e-12)


def test_recover_identity_random_chains():
    rng = np.random.default_rng(47)
    for _ in range(50):
        chain = _measurement_chain(rng)
        measured = recover_dh(synthetic_markers(chain))
        for (j, th) in measured.joint_thetas:
            assert th == pytest.approx(chain.links[j - 1].theta, abs=1e-9)
        for (i, al) in measured.link_alphas:
            diff = (al - chain.links[i - 1].alpha + math.pi) % (2 * math.pi) - math.pi
            assert abs(diff) < 1e-9
        for (i, a) in measured.link_lengths:
            assert a == pytest.approx(chain.links[i - 1].a, abs=1e-9)


def test_recover_noisy_markers_bound(three_bend_chain):
    rng = np.random.default_rng(53)
    errors = []
    for _ in range(300):
        recs = synthetic_markers(three_bend_chain, position_noise_mm=0.1, rng=rng)
        measured = recover_dh(recs)
        for (j, th) in measured.joint_thetas:
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


def test_degenerate_marker_geometry():
    at = lambda marker_id, p: MarkerRecord(marker_id, [0.0], [p], [[1, 0, 0, 0]])  # noqa: E731
    recs = [
        at("base", [0, 0, 0]),
        at("j2_on", [0.5, 0, 0]),  # 0.5 mm from base
        at("j2_dist", [50, 50, 0]),
        at("j3_prox", [60, 60, 0]),
        at("j3_on", [80, 80, 0]),
        at("tip", [120, 80, 0]),
    ]
    with pytest.raises(DegenerateGeometryError):
        recover_dh(recs)


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
        rows = dh_errors(measured, chain)
        assert len(rows) == n_rows
        for row in rows:
            assert abs(row.error) < 1e-9


def test_dh_errors_representative_magnitudes(three_bend_chain):
    measured = MeasuredDH(
        phase="post",
        joint_thetas=((2, math.radians(45.12)), (3, math.pi / 4)),
        link_alphas=((2, math.pi / 4),),
        link_lengths=((1, 100.36), (2, 100.0), (3, 100.0)))
    rows = {(r.parameter, r.index): r for r in dh_errors(measured, three_bend_chain)}
    assert rows[("joint", 2)].error == pytest.approx(0.12, abs=1e-9)
    assert rows[("length", 1)].error == pytest.approx(0.36, abs=1e-9)
    assert all(r.phase == "post" for r in rows.values())


def test_dh_errors_topology_mismatch(three_bend_chain):
    measured = MeasuredDH(phase="pre",
                          joint_thetas=((2, 0.1),),
                          link_alphas=(),
                          link_lengths=((1, 100.0), (2, 100.0)))
    with pytest.raises(ValidationError, match="topology"):
        dh_errors(measured, three_bend_chain)


def test_measured_counts_validated():
    with pytest.raises(ValidationError, match="counts"):
        MeasuredDH(phase="pre", joint_thetas=((2, 0.1),), link_alphas=((2, 0.0),),
                   link_lengths=((1, 10.0), (2, 10.0)))
    with pytest.raises(ValidationError, match="phase"):
        MeasuredDH(phase="during", joint_thetas=(), link_alphas=(),
                   link_lengths=((1, 10.0),))


def test_error_row_is_plain_record():
    row = ErrorRow("joint", 2, 45.0, 45.5, 0.5, "pre")
    assert row.parameter == "joint" and row.error == 0.5
