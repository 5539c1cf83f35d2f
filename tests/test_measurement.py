import math
import os
import re

import numpy as np
import pytest

from vinefab.errors import (DegenerateGeometryError, MissingMarkerError,
                            ValidationError)
from vinefab.geometry import DHChain
from vinefab.measurement import (DHErrors, MarkerRecord, MeasuredDH, dh_errors,
                                 parse_marker_id, recover_dh, synthetic_markers)

from oracles import dh_error_rows, error_rows, measured_pairs, recover_dh_loop



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


@pytest.mark.parametrize("marker_id", [5, None, b"base"])
def test_marker_id_must_be_a_string(marker_id):
    # a non-string id used to end in a raw AttributeError from .strip()
    t, p, q = [0.0], [[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0, 0.0]]
    message = rf"^marker id must be a string, got {re.escape(repr(marker_id))}$"
    for build in (parse_marker_id, lambda m: MarkerRecord(m, t, p, q)):
        with pytest.raises(ValidationError, match=message):
            build(marker_id)


def test_marker_record_joint_and_role_are_read_only_fields(data_dir):
    from vinefab.formats import read_markers

    spellings = ["j2_on", "J3_proximal", "j10:distal", "j4_on-joint", "base", "TIP"]
    built = [MarkerRecord(m, [0.0], [[1.0, 2.0, 3.0]], [[1.0, 0.0, 0.0, 0.0]]) for m in spellings]
    read = read_markers(os.path.join(data_dir, "markers_pre.csv"))
    assert len(read) == 6
    for rec in built + read:
        assert (rec.joint, rec.role) == parse_marker_id(rec.marker_id)
        assert {"joint", "role"} <= set(vars(rec))  # stored once, not parsed per access
        for field in ("joint", "role"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
                setattr(rec, field, 1)
    assert repr(built[0]).endswith(", joint=2, role='on')")


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


def test_synthetic_markers_check_the_sample_count(three_bend_chain):
    # -1 used to end in numpy's negative-dimension error, 2.5 and True in a
    # TypeError, and 0 was blamed on marker 'base'
    for n_samples in (-1, 2.5, True, 0):
        with pytest.raises(ValidationError,
                           match=rf"^n_samples must be an integer >= 1, got {n_samples!r}$"):
            synthetic_markers(three_bend_chain, n_samples=n_samples)
    assert len(synthetic_markers(three_bend_chain, n_samples=np.int64(2))[0].positions) == 2


@pytest.mark.parametrize("name, bad, bound", [
    ("offset", 0.0, ">"), ("offset", math.inf, ">"), ("rate_hz", 0.0, ">"),
    ("rate_hz", -20.0, ">"), ("rate_hz", math.nan, ">"), ("position_noise_mm", -1.0, ">="),
    ("rotation_noise_deg", -0.5, ">="), ("rotation_noise_deg", math.inf, ">="),
])
def test_synthetic_markers_check_their_scalars(three_bend_chain, name, bad, bound):
    # rate_hz 0 used to leak a divide warning, and a negative noise read as none
    with pytest.raises(ValidationError, match=rf"^{name} must be {bound} 0, got {bad}$"):
        synthetic_markers(three_bend_chain, n_samples=2, **{name: bad})


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
            np.testing.assert_allclose(Rotation.from_quat(np.roll(q, -1)).as_matrix(),
                                       Rotation.from_quat(np.roll(q0, -1)).as_matrix() @ turn,
                                       rtol=0, atol=1e-14)


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
