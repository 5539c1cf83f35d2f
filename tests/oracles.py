"""Independent reference implementations used only to check the library.

These deliberately avoid the library's own code paths: forward kinematics is
done with literal 4x4 homogeneous matrices, a fabrication plan is checked by
folding the tube it describes, ANOVA with textbook loops, and distribution
values by Monte Carlo sampling. There are three exceptions. `clearance`
samples each everted body on its own with the library's sweep_samples, so
that growth_trace's shared sweep must match it bit for bit; it measures
distances with `scene_distance_loop`, not the library's kernel.
`regularized_incomplete_gamma_p` assembles P(a, x) from the library's series
and continued fraction, so that its tests pin both. And `RowTable`,
`ranks_with_ties_loop` and `scene_distance_loop` are the row, rank and
per-obstacle loops that the library replaced with array code, kept as the
reference that code must match bit for bit; so are `rotation_to_quaternion`,
`RigidPose`, `recover_dh_loop` and `dh_error_rows`, the per-frame, per-joint
and per-row code that poses, measured DH and error tables were computed with
before they became arrays (`dh_error_rows` takes its twist targets from the
library's scalar `gauge_twist` and `wrap_angle`); both follow the library's
straight-joint rule. `plan_arcs_loop`, the arc loop of compile_plan before
`carried_twists`, also takes `gauge_twist` from the library.
`polyline_to_dh_loop` is the per-link `rot_z`/`rot_x` frame loop the
polyline fit used before `geometry.bend_planes`; away from collinear
vertices its plans must match the fit's byte for byte.
"""

import math
from collections import namedtuple

import mpmath
import numpy as np

from vinefab.errors import DegenerateGeometryError, MissingMarkerError, ValidationError
from vinefab.geometry import DHChain, gauge_twist, wrap_angle
from vinefab.growth import sweep_samples
from vinefab.special import _gamma_args, _gamma_cf, _gamma_series
from vinefab.stats import FACTORS, PARAMETER_LEVELS


def fk_homogeneous(a, alpha, theta):
    """Classic DH chain via explicit 4x4 matrices (d = 0)."""
    frames = [np.eye(4)]
    for ai, ali, thi in zip(a, alpha, theta):
        ct, st = math.cos(thi), math.sin(thi)
        ca, sa = math.cos(ali), math.sin(ali)
        t = np.array([
            [ct, -st * ca, st * sa, ai * ct],
            [st, ct * ca, -ct * sa, ai * st],
            [0.0, sa, ca, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ])
        frames.append(frames[-1] @ t)
    return frames


def rot_x(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_z(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def polyline_to_dh_loop(points, radius):
    """polyline_to_dh as a per-link frame loop, for a canonical polyline (m, 3).

    Each bend is atan2 of the next segment in the running frame, and each
    twist the one that brings the segment after it into the frame's x-y
    plane. A collinear vertex gives atan2 of rounding noise, not 0.
    """
    seg = np.diff(np.asarray(points, float), axis=0)
    lengths = np.linalg.norm(seg, axis=1)
    units = seg / lengths[:, None]
    n = len(units)
    r_cum, thetas, alphas = np.eye(3), np.empty(n), np.zeros(n)
    for i in range(n):
        d = r_cum.T @ units[i]
        thetas[i] = math.atan2(d[1], d[0])
        r_mid = r_cum @ rot_z(thetas[i])
        if i + 1 < n:
            e = r_mid.T @ units[i + 1]
            alphas[i] = math.atan2(e[2], e[1])
        r_cum = r_mid @ rot_x(alphas[i])
    return DHChain(lengths, alphas, thetas, radius)


def tip_pose_at(chain, everted_length):
    """4x4 pose of the tip of a chain everted to `everted_length`, by matrices.

    Whole links contribute their DH transforms; the remainder runs along the
    current link after its joint's bend, Rz(theta) Tx(rem). A joint bends the
    instant it everts, so at a link boundary the pre-bend frame is returned.
    """
    frames = fk_homogeneous(chain.a, chain.alpha, chain.theta)
    cum = np.concatenate([[0.0], np.cumsum(chain.a)])
    idx = min(int(np.searchsorted(cum, everted_length, side="right")) - 1, chain.n)
    rem = everted_length - cum[idx]
    if idx >= chain.n or rem <= 0.0:
        return frames[idx]
    step = np.eye(4)
    step[:3, :3] = rot_z(chain.theta[idx])
    step[:3, 3] = step[:3, :3] @ np.array([rem, 0.0, 0.0])
    return frames[idx] @ step


def clearance(chain, everted_length, scene, step):
    """Worst (surface distance - body radius) of one everted body, sampled on its own.

    The per-state definition growth_trace must reproduce: the body everted
    to `everted_length` sampled by sweep_samples; None for an empty scene.
    """
    if scene.empty:
        return None
    _, centers = sweep_samples(chain, everted_length, step)
    return float(np.min(scene_distance_loop(scene, centers) - chain.radius))


def _sphere_distance(sphere, p):
    return np.linalg.norm(p - sphere.center, axis=1) - sphere.radius


def _box_distance(box, p):
    center = 0.5 * (box.min_corner + box.max_corner)
    half = 0.5 * (box.max_corner - box.min_corner)
    q = np.abs(p - center) - half
    outside = np.linalg.norm(np.maximum(q, 0.0), axis=1)
    inside = np.minimum(np.max(q, axis=1), 0.0)
    return outside + inside


def scene_distance_loop(scene, points):
    """Signed distance to the nearest obstacle surface, per point: one method
    call per Sphere and Box record, stacked and reduced."""
    p = np.atleast_2d(np.asarray(points, float))
    if scene.empty:
        return np.full(p.shape[0], math.inf)
    dists = [_sphere_distance(s, p) for s in scene.spheres]
    dists += [_box_distance(b, p) for b in scene.boxes]
    return np.min(np.vstack(dists), axis=0)


def fold_tube(plan, thetas_abs, lengths):
    """Centerline vertices (n+1, 3) of the tube a plan folds, with no DH algebra.

    The tube runs along the x axis of its local frame M with meridian 0 on +y.
    Joint i folds by |theta_i| toward its meridian, phi = circumferential/r
    around the tube: M <- M Rx(phi) Rz(|theta_i|) Rx(-phi). Link i then runs
    lengths[i] along M's x axis.
    """
    m = np.eye(3)
    points = [np.zeros(3)]
    for joint, theta, a in zip(plan.joints, thetas_abs, lengths):
        phi = joint.circumferential / plan.radius
        m = m @ rot_x(phi) @ rot_z(theta) @ rot_x(-phi)
        points.append(points[-1] + a * m[:, 0])
    return np.array(points)


def fold_distance(theta, r, d_g):
    """One fold's axial distance in the README's form, in Python floats:
    2*d_g/sqrt(2 + 2*cos(theta)) + 2*r*theta."""
    return 2.0 * d_g / math.sqrt(2.0 + 2.0 * math.cos(theta)) + 2.0 * r * theta


def plan_arcs_loop(thetas, alphas, r):
    """Arc offsets of a plan, joint by joint, in Python floats.

    The loop compile_plan ran before ``geometry.carried_twists``: twists are
    summed from 0.0 up to the next joint that folds (theta != 0), whose arc
    is r * gauge_twist of the sum; a foldless joint's arc is 0. Joint 1 is
    the c = 0 reference whether it folds or not.
    """
    arcs, pending, last_fold = [], 0.0, thetas[0]
    for i in range(len(thetas) - 1):
        pending += alphas[i]
        if thetas[i + 1] == 0.0:
            arcs.append(0.0)
            continue
        arcs.append(r * gauge_twist(pending, last_fold, thetas[i + 1]))
        pending, last_fold = 0.0, thetas[i + 1]
    return arcs


def plan_layout_loop(s_tilde, cylinders, arc_offsets, radius):
    """Axial starts, meridians and total tube length of a plan, joint by joint.

    The accumulation compile_plan ran before plans derived their layout:
    Z_1 = 0, Z_{i+1} = Z_i + s_i + l_i, c_1 = 0 and
    c_{i+1} = (c_i + arc_i) mod 2 pi r, in Python floats.
    """
    circumference = 2.0 * math.pi * radius
    z, c, starts, meridians = 0.0, 0.0, [], []
    for i, (s, l) in enumerate(zip(s_tilde, cylinders)):
        starts.append(z)
        meridians.append(c)
        z += s + l
        if i < len(cylinders) - 1:
            c = (c + arc_offsets[i]) % circumference
    return starts, meridians, z


def mp_fold_angle(s_tilde, r, d_g, digits=50):
    """One joint's bend from its fold distance, to `digits` significant digits.

    Solves d_g/cos(theta/2) + 2*r*theta = s_tilde for the float inputs taken
    exactly, with a bracketing solver on [0, pi - 1e-14]: a plain Newton
    start from theta fails near pi when d_g is large.
    """
    with mpmath.workdps(digits):
        s, r, d = mpmath.mpf(s_tilde), mpmath.mpf(r), mpmath.mpf(d_g)
        f = lambda t: d / mpmath.cos(t / 2) + 2 * r * t - s  # noqa: E731
        return mpmath.findroot(f, (mpmath.mpf(0), mpmath.pi - mpmath.mpf("1e-14")),
                               solver="anderson")


def frames_loop(a, alpha, theta):
    """Chain frames link by link: rotations (n+1, 3, 3) and origins (n+1, 3).

    The per-link loop the library ran before it built every link's local
    rotation and step at once: origin_{i+1} = origin_i + R_i Rz(theta_i)
    (a_i, 0, 0) and R_{i+1} = R_i Rz(theta_i) Rx(alpha_i).
    """
    n = len(a)
    rots = np.empty((n + 1, 3, 3))
    origins = np.empty((n + 1, 3))
    rots[0], origins[0] = np.eye(3), 0.0
    for i in range(n):
        rz = rot_z(theta[i])
        origins[i + 1] = origins[i] + rots[i] @ (rz @ np.array([a[i], 0.0, 0.0]))
        rots[i + 1] = rots[i] @ (rz @ rot_x(alpha[i]))
    return rots, origins


def chordal_mean_rotation(quaternions):
    """Rotation closest in Frobenius norm to the mean of the samples' matrices.

    Builds each (w, x, y, z) quaternion's matrix and projects their mean onto
    SO(3) by SVD: the per-marker average the library used before it took the
    top eigenvector of sum(q q^T).
    """
    mats = []
    for w, x, y, z in np.asarray(quaternions, float):
        n2 = w * w + x * x + y * y + z * z
        mats.append(np.array([
            [n2 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), n2 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), n2 - 2 * (x * x + y * y)],
        ]) / n2)
    u, _, vt = np.linalg.svd(np.mean(mats, axis=0))
    return u @ np.diag([1.0, 1.0, np.sign(np.linalg.det(u @ vt))]) @ vt


def kabsch_residual(p, q):
    """Largest point distance between p and q after the best rigid fit of p onto q."""
    p, q = np.asarray(p, float), np.asarray(q, float)
    pc, qc = p - p.mean(axis=0), q - q.mean(axis=0)
    u, _, vt = np.linalg.svd(pc.T @ qc)
    d = np.sign(np.linalg.det(vt.T @ u.T)) or 1.0
    rot = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return float(np.max(np.linalg.norm(pc @ rot.T - qc, axis=1)))


def anova_brute(groups):
    """One-way ANOVA by the textbook sums-of-squares formulas, loop by loop."""
    all_values = [x for g in groups for x in g]
    n_total = len(all_values)
    grand = sum(all_values) / n_total
    ss_between = 0.0
    ss_within = 0.0
    for g in groups:
        mean = sum(g) / len(g)
        ss_between += len(g) * (mean - grand) ** 2
        for x in g:
            ss_within += (x - mean) ** 2
    df1 = len(groups) - 1
    df2 = n_total - len(groups)
    return (ss_between / df1) / (ss_within / df2), df1, df2


def t_independent_brute(a, b):
    """Pooled two-sample t statistic by the literal formula."""
    na, nb = len(a), len(b)
    ma = sum(a) / na
    mb = sum(b) / nb
    va = sum((x - ma) ** 2 for x in a) / (na - 1)
    vb = sum((x - mb) ** 2 for x in b) / (nb - 1)
    sp2 = ((na - 1) * va + (nb - 1) * vb) / (na + nb - 2)
    return (ma - mb) / math.sqrt(sp2 * (1.0 / na + 1.0 / nb))


def mc_normal_range_cdf(w, k, n_draws, seed):
    """P(range of k standard normals <= w) by simulation."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_draws, k))
    r = z.max(axis=1) - z.min(axis=1)
    return float(np.mean(r <= w))


def mc_studentized_range_cdf(qs, k, df, n_draws, seed, chunk=500_000):
    """P(Q <= q) for each q by simulating ranges over a chi-scaled sd."""
    rng = np.random.default_rng(seed)
    qs = np.asarray(qs, float)
    hits = np.zeros(qs.size)
    done = 0
    while done < n_draws:
        m = min(chunk, n_draws - done)
        z = rng.standard_normal((m, k))
        w = z.max(axis=1) - z.min(axis=1)
        s = np.sqrt(rng.chisquare(df, m) / df)
        q_draw = w / s
        for i, q in enumerate(qs):
            hits[i] += np.count_nonzero(q_draw <= q)
        done += m
    return hits / n_draws


def point_segment_distance(p, a, b):
    """Distance from point p to segment [a, b]."""
    ab = b - a
    t = float(np.dot(p - a, ab) / np.dot(ab, ab))
    t = min(1.0, max(0.0, t))
    return float(np.linalg.norm(p - (a + t * ab)))


def ks_uniform_distance(p_values):
    """Kolmogorov-Smirnov distance of a sample against Uniform(0, 1)."""
    p = np.sort(np.asarray(p_values, float))
    n = p.size
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    return float(max(np.max(np.abs(grid_hi - p)), np.max(np.abs(p - grid_lo))))


def regularized_incomplete_gamma_p(a, x):
    """P(a, x), the lower regularized incomplete gamma, from the library's parts."""
    a, x = _gamma_args(a, x)
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _gamma_series(a, x)
    return 1.0 - _gamma_cf(a, x)


SampleRecord = namedtuple("SampleRecord",
                          ["value", "method", "material", "phase", "parameter", "robot_id"])


class RowTable:
    """A sample table as a tuple of SampleRecords, grouped by row loops.

    The interface analyze_table reads, as SampleTable implemented it before
    its rows became columns.
    """

    def __init__(self, rows):
        self.rows = tuple(SampleRecord(*r) for r in rows)

    def __len__(self):
        return len(self.rows)

    def subset(self, **criteria):
        return RowTable(r for r in self.rows
                        if all(getattr(r, k) == v for k, v in criteria.items()))

    def parameters(self):
        present = {r.parameter for r in self.rows}
        return tuple(p for p in PARAMETER_LEVELS if p in present)

    def values_by(self, factor):
        out = {}
        for level in FACTORS[factor]:
            vals = [r.value for r in self.rows if getattr(r, factor) == level]
            if vals:
                out[level] = np.array(vals)
        return out

    def paired_phases(self):
        def keyed(phase):
            rows = [r for r in self.rows if r.phase == phase]
            rows.sort(key=lambda r: (r.method, r.material, r.robot_id))
            return rows

        pre, post = keyed("pre"), keyed("post")
        if len(pre) != len(post):
            raise ValidationError(
                f"cannot pair phases: {len(pre)} pre rows vs {len(post)} post rows")
        for a, b in zip(pre, post):
            if (a.method, a.material, a.robot_id) != (b.method, b.material, b.robot_id):
                raise ValidationError(
                    "cannot pair phases: pre/post rows do not match up "
                    f"({a.method}/{a.material}/{a.robot_id} vs "
                    f"{b.method}/{b.material}/{b.robot_id})")
        return (np.array([r.value for r in pre]),
                np.array([r.value for r in post]))


def ranks_with_ties_loop(pooled):
    """Ranks from 1 and tied-run sizes by walking the sorted values run by run."""
    order = np.argsort(pooled, kind="stable")
    ranks = np.empty(pooled.size)
    ranks[order] = np.arange(1, pooled.size + 1, dtype=float)
    sorted_vals = pooled[order]
    i = 0
    tie_sizes = []
    while i < sorted_vals.size:
        j = i
        while j + 1 < sorted_vals.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        if j > i:
            ranks[order[i:j + 1]] = 0.5 * (i + 1 + j + 1)
            tie_sizes.append(j - i + 1)
        i = j + 1
    return ranks, tie_sizes


def rotation_to_quaternion(r):
    """One rotation matrix to a unit quaternion (w, x, y, z), w >= 0, by Shepperd's branches."""
    r = np.asarray(r, float)
    t = np.trace(r)
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        q = np.array([0.25 * s, (r[2, 1] - r[1, 2]) / s,
                      (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s])
    else:
        i = int(np.argmax(np.diag(r)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = math.sqrt(max(r[i, i] - r[j, j] - r[k, k] + 1.0, 0.0)) * 2.0
        q = np.empty(4)
        q[0] = (r[k, j] - r[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (r[j, i] + r[i, j]) / s
        q[1 + k] = (r[k, i] + r[i, k]) / s
    if q[0] < 0.0:
        q = -q
    return q / np.linalg.norm(q)


class RigidPose:
    """A pose that copies its arrays in C order, with its inverse and action on points."""

    def __init__(self, rotation, translation):
        self.rotation = np.array(rotation, float, order="C")
        self.translation = np.array(translation, float, order="C").reshape(3)

    def inverse(self):
        rt = self.rotation.T
        return RigidPose(rt, -(rt @ self.translation))

    def apply(self, points):
        return np.asarray(points, float) @ self.rotation.T + self.translation


def recover_dh_loop(markers):
    """Measured DH as (index, value) pairs, joint by joint: (thetas, alphas, lengths).

    Looks each position up per joint and unit-normalizes one vector at a
    time, raising MissingMarkerError and DegenerateGeometryError as it meets
    them; so a log both missing a marker and degenerate may raise either.
    """
    positions = {}
    for rec in markers:
        positions[(rec.joint, rec.role)] = rec.positions.mean(axis=0)
    joints = sorted({j for j, _ in positions if j is not None})
    first, last = joints[0], joints[-1]

    def pos(j, role):
        if (j, role) in positions:
            return positions[(j, role)]
        if role == "prox" and j == first and (None, "base") in positions:
            return positions[(None, "base")]
        if role == "dist" and j == last and (None, "tip") in positions:
            return positions[(None, "tip")]
        raise MissingMarkerError(j, role)

    def unit(v, what):
        n = np.linalg.norm(v)
        if n < 1.0:
            raise DegenerateGeometryError(f"{what}: direction vector shorter than 1.0 mm")
        return v / n

    # a straight joint (sine below 1e-9) has no plane: theta is atan2(0, cos)
    # and the last bend's normal is carried; there is none before the first bend
    thetas, planes, plane = [], {}, None
    for j in joints:
        o = pos(j, "on")
        v = unit(o - pos(j, "prox"), f"joint {j} incoming")
        w = unit(pos(j, "dist") - o, f"joint {j} outgoing")
        cross = np.cross(v, w)
        sine = np.linalg.norm(cross)
        straight = sine < 1e-9
        thetas.append((j, math.atan2(0.0 if straight else sine, float(v @ w))))
        if not straight:
            plane = cross / sine
        planes[j] = plane, straight
    alphas = []
    for j in joints[:-1]:
        axis = unit(pos(j + 1, "on") - pos(j, "on"), f"link {j}")
        (n0, _), (n1, straight) = planes[j], planes[j + 1]
        if n0 is None or straight:  # no plane yet, or the twist carries past joint j + 1
            alphas.append((j, 0.0))
            continue
        alphas.append((j, math.atan2(float(np.cross(n0, n1) @ axis), float(n0 @ n1))))
    lengths = [(first - 1, float(np.linalg.norm(pos(first, "on") - pos(first, "prox"))))]
    for j in joints[:-1]:
        lengths.append((j, float(np.linalg.norm(pos(j + 1, "on") - pos(j, "on")))))
    lengths.append((last, float(np.linalg.norm(pos(last, "dist") - pos(last, "on")))))
    return thetas, alphas, lengths


def measured_pairs(measured):
    """A MeasuredDH's arrays as (index, value) pairs: (thetas, alphas, lengths)."""
    j = measured.first_joint
    return (list(enumerate(measured.thetas.tolist(), j)),
            list(enumerate(measured.alphas.tolist(), j)),
            list(enumerate(measured.lengths.tolist(), j - 1)))


ErrorRow = namedtuple("ErrorRow", ["parameter", "index", "target", "measured", "error", "phase"])


def error_rows(errors):
    """A DHErrors table as one ErrorRow per line."""
    return [ErrorRow(*row, errors.phase) for row in zip(
        errors.kind.tolist(), errors.index.tolist(), errors.target.tolist(),
        errors.measured.tolist(), errors.error.tolist())]


def dh_error_rows(pairs, phase, chain):
    """The error table row by row from recover_dh_loop's pairs, angles in degrees.

    A twist target is 0 before joint 2's first bend and before a straight
    joint (|sin theta| < 1e-9); otherwise it is gauge_twist of the twists
    summed back to the last bend.
    """
    thetas, alphas, lengths = (v.tolist() for v in (chain.theta, chain.alpha, chain.a))

    def straight(j):
        return abs(math.sin(thetas[j - 1])) < 1e-9

    joint_pairs, alpha_pairs, length_pairs = pairs
    rows = []
    for (j, th) in joint_pairs:
        t = abs(thetas[j - 1])
        rows.append(ErrorRow("joint", j, math.degrees(t), math.degrees(th),
                             math.degrees(th - t), phase))
    for (i, al) in alpha_pairs:
        alpha = alphas[i - 1]
        k = i  # the last bending joint at or before joint i, from joint 2 on
        while k >= 2 and straight(k):
            k -= 1
        if k < 2 or straight(i + 1):
            t = 0.0
        else:  # the twists from joint k to i; each reversal turns the sum's axis
            t = alphas[k - 1]
            for m in range(k + 1, i + 1):
                t = alphas[m - 1] + (t if math.cos(thetas[m - 1]) > 0.0 else -t)
            t = gauge_twist(t, thetas[k - 1], thetas[i])
        if t != alpha:
            t = wrap_angle(t)
        rows.append(ErrorRow("twist", i, math.degrees(t), math.degrees(al),
                             math.degrees(al - t), phase))
    for (i, a) in length_pairs:
        t = lengths[i - 1]
        rows.append(ErrorRow("length", i, t, a, a - t, phase))
    return rows
