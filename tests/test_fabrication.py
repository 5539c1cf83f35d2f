import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vinefab.errors import (InfeasibleLinkError, InversionError, SingularityError,
                            ValidationError, VinefabError)
from vinefab.fabrication import (GAP_METHODS, FabricationPlan, GapModel, JointSpec,
                                 _fold_distance, compile_plan, recover_chain)
from vinefab.geometry import DHChain, dh_to_polyline, fk_chain

from conftest import random_feasible_chain
from oracles import (fold_distance, fold_tube, kabsch_residual, mp_fold_angle,
                     plan_arcs_loop, plan_layout_loop)

R = 16.5
TAPE = GapModel.for_method("tape")
LOOP = GapModel.for_method("loop")

# direct evaluation of the fold/cylinder/arc formulas for the reference robot
S45 = 2.0 * R * math.pi / 4.0                       # 25.91813939...
S45_GAP = 2.0 * 9.3 / math.sqrt(2.0 + 2.0 * math.cos(math.pi / 4.0)) + S45


def _folds(thetas, d_g=0.0, r=R):
    """The fold distances compile_plan gives `thetas` on links long enough for any fold."""
    n = len(thetas)
    return compile_plan(DHChain([1e300] * n, [0.0] * n, thetas, radius=r),
                        GapModel("loop", d_g)).s_tilde


def test_fold_distance_trivial_and_golden():
    s = _folds([0.0, math.pi / 4, -math.pi / 4])
    assert s[0] == 0.0
    assert s[1] == pytest.approx(25.918, abs=1e-3)
    assert s[1] == pytest.approx(S45, abs=1e-12)
    # a bend of -theta folds |theta|
    assert s[2] == s[1]
    s_gap = _folds([math.pi / 4, -math.pi / 4], 9.3)
    assert s_gap[0] == pytest.approx(35.984, abs=1e-3)
    assert s_gap[0] == pytest.approx(S45_GAP, abs=1e-12)
    assert s_gap[1] == s_gap[0]


def test_fold_distance_domain():
    # DHChain stores -pi as pi, and a fold at pi diverges
    for theta in (math.pi, -math.pi):
        with pytest.raises(SingularityError, match=re.escape(
                "theta = 3.14159 rad: fold distance diverges at |theta| = pi")):
            _folds([theta])
    # the radius and the gap are checked once, by DHChain and GapModel
    with pytest.raises(ValidationError, match="radius must be > 0, got -1.0"):
        _folds([0.5], r=-1.0)
    with pytest.raises(ValidationError, match="d_g must be >= 0, got -0.1"):
        _folds([0.5], d_g=-0.1)


def test_fold_distance_near_pi():
    # 2 + 2cos(theta) rounds to 0 here; the fold distance is still finite
    theta = math.pi - 1e-10
    assert _folds([theta, -theta]).tolist() == [2.0 * R * theta] * 2
    # the gap term is d_g / sin((pi - theta)/2), with pi - theta ~ 1e-10
    assert _folds([theta], 9.3)[0] == pytest.approx(
        9.3 / math.sin(5e-11) + 2.0 * R * theta, rel=1e-5)
    # a gap term that overflows is a singularity, not an infinite fold
    with pytest.raises(SingularityError, match="overflows"):
        _folds([math.pi - 2e-12], 1e300)
    with pytest.raises(VinefabError):
        _folds([math.pi - 1e-13])


def test_compile_plan_rejects_the_first_singular_fold():
    def first_error(thetas, d_g):
        with pytest.raises(SingularityError) as info:
            _folds(thetas, d_g)
        return str(info.value)

    diverges = "theta = 3.14159 rad: fold distance diverges at |theta| = pi"
    assert first_error([0.0, 0.3, math.pi, -math.pi + 1e-13], 0.0) == diverges
    big = math.pi - 2e-12  # folds, but its gap term overflows with d_g = 1e300
    assert first_error([0.3, -big, math.pi], 1e300) == (
        "theta = 3.141592653587793 rad: fold distance overflows for r = 16.5 mm, "
        "d_g = 1e+300 mm")
    assert first_error([0.3, math.pi - 1e-13, big], 1e300) == diverges


def test_plan_folds_match_the_fold_distance_oracle():
    # random signed chains: each fold is the README formula at |theta|, and a
    # chain with every bend negated folds the same distances bit for bit
    rng = np.random.default_rng(47)
    for k in range(200):
        n = int(rng.integers(1, 12))
        theta = rng.uniform(-3.0, 3.0, n)
        theta[rng.random(n) < 0.2] = 0.0
        r = float(rng.uniform(1.0, 50.0))
        gap = GapModel("loop", 0.0 if k % 3 == 0 else float(rng.uniform(0.0, 30.0)))
        alpha = rng.uniform(-math.pi, math.pi, n)
        plan = compile_plan(DHChain([1e6] * n, alpha, theta, r), gap)
        mirror = compile_plan(DHChain([1e6] * n, alpha, -theta, r), gap)
        assert plan.s_tilde.tobytes() == mirror.s_tilde.tobytes()
        for s, th in zip(plan.s_tilde.tolist(), theta.tolist()):
            expected = fold_distance(abs(th), r, gap.d_g) if th != 0.0 else 0.0
            assert s == pytest.approx(expected, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("gap", [TAPE, LOOP])
def test_recover_near_theta_limit(gap):
    # a plan that compiles must also recover, right up to the compile limit
    theta = math.pi - 1e-7
    chain = DHChain([1e9, 1e9], [0.3, 0.0], [theta, 1.0], radius=R)
    back = recover_chain(compile_plan(chain, gap), gap)
    np.testing.assert_allclose(back.theta, chain.theta, rtol=0, atol=1e-9)
    np.testing.assert_allclose(back.a, chain.a, rtol=1e-12)


def test_gap_reduction_identity():
    rng = np.random.default_rng(29)
    theta = rng.uniform(-math.pi + 0.05, math.pi - 0.05, 1000)
    r = rng.uniform(1.0, 60.0, 1000)
    for th, rr in zip(theta, r):
        chain = DHChain([1e6], [0.0], [th], radius=rr)
        assert abs(compile_plan(chain, TAPE).s_tilde[0] - 2.0 * rr * abs(th)) < 1e-12


@settings(max_examples=100, deadline=None)
@given(theta=st.floats(0.0, math.pi - 0.02), delta=st.floats(1e-6, 0.02),
       r=st.floats(1.0, 60.0), d_g=st.floats(0.0, 20.0))
def test_fold_distance_strictly_increasing(theta, delta, r, d_g):
    lo = _fold_distance(theta, r, d_g)
    hi = _fold_distance(min(theta + delta, math.pi - 1e-9), r, d_g)
    assert hi > lo


def test_cylinder_length_values():
    plan = compile_plan(DHChain([100.0] * 3, [0.0] * 3, [0.0, math.pi / 4, math.pi / 4], R),
                        TAPE)
    # l_i = a_i - (s_i + s_{i+1})/4
    assert plan.cylinders.tolist() == [100.0 - S45 / 4.0, 100.0 - 2.0 * S45 / 4.0,
                                       100.0 - S45 / 4.0]
    np.testing.assert_allclose(plan.cylinders, [93.520, 87.041, 93.520], atol=1e-3)
    assert compile_plan(DHChain([100.0], [0.0], [0.0], R), LOOP).cylinders.tolist() == [100.0]


def test_cylinder_length_infeasible_reports_minimum():
    # links 2 and 3 are both too short: the first is reported
    chain = DHChain([100.0, 10.0, 10.0], [0.0] * 3, [0.0, math.pi / 4, math.pi / 4], R)
    with pytest.raises(InfeasibleLinkError, match=re.escape(
            "link 2: length 10 mm <= minimum feasible 12.9591 mm required by its end folds")
            ) as exc:
        compile_plan(chain, TAPE)
    assert exc.value.link_index == 2
    assert exc.value.a == 10.0 and type(exc.value.a) is float
    assert exc.value.min_feasible == 2.0 * S45 / 4.0 and type(exc.value.min_feasible) is float
    # two folds whose sum passes float range consume any link, with no numpy warning
    huge = DHChain([1e308, 1e300, 1e300], [0.0] * 3, [0.0, 3.0, 3.0], radius=2.5e307)
    with pytest.raises(InfeasibleLinkError) as exc:
        compile_plan(huge, TAPE)
    assert (exc.value.link_index, exc.value.a, exc.value.min_feasible) == (2, 1e300, math.inf)
    with pytest.raises(ValidationError, match="link 1: link length a must be >= 0"):
        DHChain([-1.0], [0.0], [0.0], R)


def test_arc_offset_values():
    def arcs(alpha, theta):
        return compile_plan(DHChain([100.0] * len(theta), alpha, theta, R), TAPE).arc_offsets

    assert arcs([0.0, 0.0], [math.pi / 4, math.pi / 4]).tolist() == [0.0]
    assert arcs([math.pi / 4, 0.0], [math.pi / 4, math.pi / 4])[0] == \
        pytest.approx(12.959, abs=1e-3)
    # mixed signs: -theta at meridian c is +theta at c + pi*r
    assert arcs([0.0, 0.0], [math.pi / 4, -math.pi / 4])[0] == \
        pytest.approx(-51.836, abs=1e-3)
    assert arcs([0.0, 0.0], [math.pi / 4, -math.pi / 4])[0] == \
        pytest.approx(-R * math.pi, abs=1e-12)
    assert arcs([0.0, 0.0], [-math.pi / 4, -math.pi / 4]).tolist() == [0.0]
    # near pi: the twist of a pair of nearly straight-back folds is still placed
    near = math.pi - 1e-10
    assert arcs([0.3, 0.0], [near, -near])[0] == pytest.approx(R * (0.3 - math.pi), abs=1e-12)


def test_arc_offset_zero_theta_carries_the_twist_without_warning():
    # the foldless joint 2 places no fold: its twist is carried to joint 3,
    # which is exact (Rx(a1) Tx(l) Rx(a2) = Tx(l) Rx(a1 + a2)), so nothing warns
    chain = DHChain([300.0] * 3, [0.3, 0.2, 0.0], [0.5, 0.0, 0.5], R)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        plan = compile_plan(chain, TAPE)
    assert caught == []
    assert plan.arc_offsets.tolist() == [0.0, 0.5 * R]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plan = compile_plan(DHChain([100.0] * 3, [0.0] * 3, [0.0] * 3, R), TAPE)
    assert plan.arc_offsets.tolist() == [0.0, 0.0]


def test_plan_arcs_match_the_carried_twist_loop_bit_for_bit():
    # signed chains with foldless joints, joint 1 included, and signed zeros:
    # compile_plan's arcs are the per-joint carry loop's, bit for bit
    rng = np.random.default_rng(59)
    for k in range(600):
        n = int(rng.integers(1, 13))
        theta = rng.uniform(-3.0, 3.0, n)
        theta[rng.random(n) < 0.2] = (0.0, -0.0)[k % 2]
        alpha = rng.uniform(-math.pi, math.pi, n)
        alpha[rng.random(n) < 0.1] = (-0.0, 0.0)[k % 2]
        r = float(rng.uniform(1.0, 50.0))
        plan = compile_plan(DHChain([1e6] * n, alpha, theta, r),
                            GapModel.for_method(GAP_METHODS[k % 3]))
        want = plan_arcs_loop(theta.tolist(), alpha.tolist(), r)
        assert plan.arc_offsets.tobytes() == np.array(want, float).tobytes(), (theta, alpha)


def test_compile_golden_flush(three_bend_chain):
    plan = compile_plan(three_bend_chain, TAPE)
    np.testing.assert_allclose(plan.cylinders, [93.520, 87.041, 93.520], atol=1e-3)
    np.testing.assert_allclose([j.s_tilde for j in plan.joints],
                               [0.0, 25.918, 25.918], atol=1e-3)
    np.testing.assert_allclose(plan.arc_offsets, [0.0, 12.959], atol=1e-3)
    np.testing.assert_allclose([j.circumferential for j in plan.joints],
                               [0.0, 0.0, 12.959], atol=1e-3)
    assert plan.total_tube_length == pytest.approx(sum(plan.cylinders) + 2 * S45)


def test_compile_golden_loop_gap(three_bend_chain):
    plan = compile_plan(three_bend_chain, LOOP)
    np.testing.assert_allclose([j.s_tilde for j in plan.joints],
                               [0.0, 35.984, 35.984], atol=1e-3)
    np.testing.assert_allclose(plan.cylinders, [91.004, 82.008, 91.004], atol=1e-3)
    # the foldless base joint uses no gap even for the loop method
    assert plan.joints[0].d_g == 0.0
    assert plan.joints[1].d_g == 9.3


def test_compile_straight_chain_any_gap():
    chain = DHChain([120, 80, 50], [0, 0, 0], [0, 0, 0], R)
    for gap in (TAPE, LOOP):
        plan = compile_plan(chain, gap)
        assert all(j.s_tilde == 0.0 for j in plan.joints)
        np.testing.assert_allclose(plan.cylinders, [120, 80, 50])
        assert plan.total_tube_length == pytest.approx(250.0)


def _layout(plan):
    return plan.axial_start.tolist(), plan.circumferential.tolist(), plan.total_tube_length


def _loop_layout(plan):
    return plan_layout_loop(plan.s_tilde.tolist(), plan.cylinders.tolist(),
                            plan.arc_offsets.tolist(), plan.radius)


def test_compile_layout_recurrence(three_bend_chain):
    # the derived layout is bit for bit the joint-by-joint accumulation
    plan = compile_plan(three_bend_chain, LOOP)
    assert _layout(plan) == _loop_layout(plan)
    rng = np.random.default_rng(43)
    for k in range(300):
        n = int(rng.integers(1, 60))
        theta = rng.uniform(-math.pi + 0.05, math.pi - 0.05, n)
        theta[rng.random(n) < 0.2] = 0.0
        if k % 3 == 0:
            theta[0] = 0.0  # a foldless start
        chain = DHChain(rng.uniform(250.0, 600.0, n),
                        rng.uniform(-math.pi, math.pi, n), theta,
                        radius=float(rng.uniform(5.0, 40.0)))
        plan = compile_plan(chain, GapModel.for_method(GAP_METHODS[k % 3]))
        assert _layout(plan) == _loop_layout(plan)


def test_feasibility_boundary():
    theta = math.pi / 4
    s = _folds([theta])[0]
    a_min = 2.0 * s / 4.0
    # exactly at the boundary the middle cylinder has zero length: rejected
    with pytest.raises(InfeasibleLinkError, match="link 2"):
        compile_plan(DHChain([100, a_min, 100], [0, 0, 0], [0, theta, theta], R), TAPE)
    plan = compile_plan(DHChain([100, a_min + 1e-6, 100], [0, 0, 0],
                                [0, theta, theta], R), TAPE)
    assert plan.cylinders[1] == pytest.approx(1e-6, abs=1e-12)


def test_round_trip_random_chains():
    rng = np.random.default_rng(31)
    for gap in (TAPE, LOOP):
        for _ in range(100):
            chain = random_feasible_chain(rng)
            plan = compile_plan(chain, gap)
            # the one array evaluation gives each fold its own angle's distance
            np.testing.assert_array_equal([j.s_tilde for j in plan.joints], [
                _fold_distance(abs(th), chain.radius, gap.d_g)
                if th != 0.0 else 0.0 for th in chain.theta])
            back = recover_chain(plan, gap)
            np.testing.assert_allclose(back.theta, chain.theta, atol=1e-9)
            np.testing.assert_allclose(back.alpha, chain.alpha, atol=1e-9)
            np.testing.assert_allclose(back.a, chain.a, atol=1e-9)
            assert back.radius == chain.radius
            # each folded joint's angle is its fold distance's root to 1e-15 rad
            for j, th in zip(plan.joints, back.theta):
                if j.s_tilde > 0.0:
                    root = mp_fold_angle(j.s_tilde, plan.radius, gap.d_g)
                    assert abs(th - root) <= 1e-15
                else:
                    assert th == 0.0


def _fold_plan(s_tilde, r, d_g):
    """A plan whose joints fold by s_tilde, with cylinders long enough for any fold."""
    n = len(s_tilde)
    return FabricationPlan(r, [1e6] * n, s_tilde, [d_g if s > 0.0 else 0.0 for s in s_tilde],
                           [0.0] * (n - 1))


def test_fold_inversion_to_1e15_across_the_angle_range():
    # Newton from above the root: radii 1-50 mm, no gap or 0-30 mm, angles
    # from 1e-9 rad to within 1e-11 of pi, and a fold exactly at the d_g floor
    rng = np.random.default_rng(41)
    for k in range(40):
        r = float(rng.uniform(1.0, 50.0))
        d_g = 0.0 if k % 2 else float(rng.uniform(0.0, 30.0))
        thetas = [1e-9, math.pi - 1e-11, *rng.uniform(0.0, math.pi - 1e-11, 6)]
        s_tilde = [float(_fold_distance(t, r, d_g)) for t in thetas]
        back = recover_chain(_fold_plan(s_tilde, r, d_g), GapModel("loop", d_g))
        for s, th in zip(s_tilde, back.theta):
            assert abs(th - mp_fold_angle(s, r, d_g)) <= 1e-15
    floor = recover_chain(_fold_plan([9.3, 20.0], R, 9.3), LOOP)
    assert floor.theta[0] == 0.0


_signed_bend = st.one_of(
    st.just(0.0),
    st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(3.0, 150.0)).map(
        lambda sd: sd[0] * math.radians(sd[1])))
_signed_links = st.lists(
    st.tuples(st.floats(120.0, 300.0), st.floats(-math.pi + 1e-6, math.pi),
              _signed_bend), min_size=1, max_size=8)


@settings(max_examples=150, deadline=None)
@given(links=_signed_links, r=st.floats(10.0, 25.0),
       method=st.sampled_from(GAP_METHODS))
@example(links=[(120.0, 0.0, 0.0)], r=16.5, method="loop")  # no fold to recover
def test_compiled_plan_folds_the_designed_shape(links, r, method):
    # signed bends, zero bends included: the tube the plan folds is the
    # designed centerline, and so is the recovered chain
    a, alpha, theta = (list(v) for v in zip(*links))
    chain = DHChain(a, alpha, theta, radius=r)
    gap = GapModel.for_method(method)
    design = np.array([f.translation for f in fk_chain(chain)])
    plan = compile_plan(chain, gap)
    assert _layout(plan) == _loop_layout(plan)
    assert kabsch_residual(fold_tube(plan, np.abs(theta), a), design) <= 1e-9
    assert kabsch_residual(dh_to_polyline(recover_chain(plan, gap)), design) <= 1e-9


def test_recover_straight_plan():
    chain = DHChain([120, 80], [0, 0], [0, 0], R)
    back = recover_chain(compile_plan(chain, TAPE), TAPE)
    np.testing.assert_array_equal(back.theta, [0.0, 0.0])
    np.testing.assert_array_equal(back.a, [120.0, 80.0])


def test_recover_with_gap_round_trip(three_bend_chain):
    back = recover_chain(compile_plan(three_bend_chain, LOOP), LOOP)
    np.testing.assert_allclose(back.theta, three_bend_chain.theta, atol=1e-9)


def test_recover_inconsistent_fold_distance(three_bend_chain):
    def with_fold(j, s_tilde, gap):
        plan = compile_plan(three_bend_chain, gap)
        s = plan.s_tilde.copy()
        s[j] = s_tilde
        return FabricationPlan(R, plan.cylinders, s, plan.d_g, plan.arc_offsets)

    # a positive fold distance below the d_g floor has no producing angle
    with pytest.raises(InversionError, match="floor"):
        recover_chain(with_fold(1, 5.0, LOOP), LOOP)
    with pytest.raises(InversionError, match="exceeds"):
        recover_chain(with_fold(1, 1e6, TAPE), TAPE)

    # the second of two folds out of range: the error names its joint and s_tilde
    for s_tilde, gap, reason in ((5.0, LOOP, "is below the d_g floor"),
                                 (1e6, TAPE, "exceeds")):
        with pytest.raises(InversionError, match=re.escape(
                f"joint 3: s_tilde = {s_tilde:.6g} mm {reason}")):
            recover_chain(with_fold(2, s_tilde, gap), gap)


def test_recover_rejects_a_gap_the_plan_was_not_compiled_with(three_bend_chain):
    # loop folds read with the tape gap would come back as 62.5 deg bends
    plan = compile_plan(three_bend_chain, LOOP)
    with pytest.raises(ValidationError, match=re.escape(
            "joint 2: the plan records d_g = 9.3 mm, but the tape gap has d_g = 0.0 mm")):
        recover_chain(plan, TAPE)
    with pytest.raises(ValidationError, match="joint 2: "):
        recover_chain(plan, GapModel("loop", 9.3 * (1.0 + 2e-8)))
    # within a relative 1e-8 the plan's own d_g is used
    back = recover_chain(plan, GapModel("loop", 9.3 * (1.0 + 5e-9)))
    assert back.theta.tobytes() == recover_chain(plan, LOOP).theta.tobytes()


def test_recover_accepts_a_gap_rounded_to_nine_digits(three_bend_chain):
    # d_g = 0.333333333 lies within the relative 1e-8 of a gap of 1/3
    gap = GapModel("loop", 1.0 / 3.0)
    plan = compile_plan(three_bend_chain, gap)
    rounded = FabricationPlan(plan.radius, plan.cylinders, plan.s_tilde,
                              [0.333333333 if s > 0.0 else 0.0 for s in plan.s_tilde.tolist()],
                              plan.arc_offsets)
    assert rounded.d_g[1] == 0.333333333
    np.testing.assert_allclose(recover_chain(rounded, gap).theta, three_bend_chain.theta,
                               rtol=0, atol=1e-9)


def test_twist_carried_across_foldless_joints():
    # base twist before the first fold shifts the first fold's meridian
    chain = DHChain([100, 100, 100], [0.3, 0.2, 0.0],
                    [0.0, math.pi / 4, math.pi / 4], R)
    plan = compile_plan(chain, TAPE)
    assert plan.arc_offsets[0] == pytest.approx(0.3 * R)
    assert plan.arc_offsets[1] == pytest.approx(0.2 * R)
    back = recover_chain(plan, TAPE)
    np.testing.assert_allclose(back.alpha, chain.alpha, atol=1e-12)

    # twist across a mid-chain foldless joint accumulates into the next fold
    chain2 = DHChain([100, 100, 100, 100], [0.1, 0.25, 0.15, 0.0],
                     [math.pi / 4, 0.0, math.pi / 4, math.pi / 6], R)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plan2 = compile_plan(chain2, TAPE)
    assert plan2.arc_offsets[0] == 0.0
    assert plan2.arc_offsets[1] == pytest.approx((0.1 + 0.25) * R)
    assert plan2.arc_offsets[2] == pytest.approx(0.15 * R)
    # the recovered chain distributes twist differently but is the same shape
    back2 = recover_chain(plan2, TAPE)
    np.testing.assert_allclose(dh_to_polyline(back2), dh_to_polyline(chain2),
                               atol=1e-9)


def test_plan_validation():
    with pytest.raises(InfeasibleLinkError) as info:
        FabricationPlan(R, [100.0, -1.0], [0.0, 0.0], [0.0, 0.0], [0.0])
    assert info.value.link_index == 2
    with pytest.raises(InfeasibleLinkError, match="link 1"):
        FabricationPlan(R, [0.0], [0.0], [0.0], [])


# one case per invariant of the plan constructor: (fields, message)
_PLAN = dict(radius=R, cylinders=[100.0, 90.0], s_tilde=[0.0, 20.0], d_g=[0.0, 9.3],
             arc_offsets=[3.0])


@pytest.mark.parametrize("fields, message", [
    (dict(cylinders=[100.0]), "inconsistent joint/cylinder counts"),
    (dict(s_tilde=[0.0]), "inconsistent joint/cylinder counts"),
    (dict(d_g=[[0.0, 9.3]]), "inconsistent joint/cylinder counts"),
    (dict(arc_offsets=[]), "inconsistent joint/cylinder counts"),
    (dict(cylinders=[], s_tilde=[], d_g=[], arc_offsets=[]),
     "inconsistent joint/cylinder counts"),
], ids=["cylinders", "s_tilde", "d_g-2d", "arcs", "empty"])
def test_plan_rejects_inconsistent_shapes(fields, message):
    with pytest.raises(ValidationError, match=message):
        FabricationPlan(**{**_PLAN, **fields})


@pytest.mark.parametrize("fields, message", [
    (dict(cylinders=[100.0, math.inf]), "cylinders must be finite, got inf"),
    (dict(cylinders=[math.nan, 90.0]), "cylinders must be finite, got nan"),
    (dict(s_tilde=[0.0, math.inf]), "s_tilde must be finite, got inf"),
    (dict(d_g=[math.nan, 9.3]), "d_g must be finite, got nan"),
    (dict(arc_offsets=[-math.inf]), "arc_offsets must be finite, got -inf"),
    (dict(cylinders=[1.7e308, 1.7e308]), "total tube length overflows"),
], ids=["cyl-inf", "cyl-nan", "s-inf", "d_g-nan", "arc-inf", "overflow"])
def test_plan_rejects_non_finite_values(fields, message):
    with pytest.raises(ValidationError, match=message):
        FabricationPlan(**{**_PLAN, **fields})


def test_plan_rejects_negative_fold_distance():
    with pytest.raises(ValidationError, match="joint 2: s_tilde must be >= 0, got -1"):
        FabricationPlan(**{**_PLAN, "s_tilde": [0.0, -1.0]})


def test_plan_rejects_negative_gap():
    with pytest.raises(ValidationError, match="joint 1: d_g must be >= 0, got -0.5"):
        FabricationPlan(**{**_PLAN, "d_g": [-0.5, 9.3]})


@pytest.mark.parametrize("radius", [0.0, -16.5, math.nan, math.inf])
def test_plan_rejects_non_positive_radius(radius):
    with pytest.raises(ValidationError, match="radius must be > 0"):
        FabricationPlan(**{**_PLAN, "radius": radius})


def test_plan_holds_read_only_arrays():
    cylinders = [100.0, 90.0]
    plan = FabricationPlan(**{**_PLAN, "cylinders": cylinders})
    cylinders[0] = -1.0  # the plan keeps its own copy
    assert plan.cylinders.tolist() == [100.0, 90.0]
    for name in ("cylinders", "s_tilde", "d_g", "arc_offsets", "axial_start",
                 "circumferential"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(plan, name)[0] = 1.0
    assert plan.joints == (JointSpec(1, 0.0, 0.0, 0.0, 0.0),
                           JointSpec(2, 20.0, 100.0, 3.0, 9.3))
    assert plan.total_tube_length == 210.0 and type(plan.total_tube_length) is float


def test_gap_model_defaults():
    assert GapModel.for_method("tape").d_g == 0.0
    assert GapModel.for_method("weld").d_g == 0.0
    assert GapModel.for_method("loop").d_g == 9.3
    assert GapModel.for_method("loop", d_g=4.0).d_g == 4.0
    with pytest.raises(ValidationError):
        GapModel("glue")
    with pytest.raises(ValidationError):
        GapModel("tape", d_g=-1.0)
