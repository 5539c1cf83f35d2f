"""Independent reference implementations used only to check the library.

These deliberately avoid the library's own code paths: forward kinematics is
done with literal 4x4 homogeneous matrices, a fabrication plan is checked by
folding the tube it describes, ANOVA with textbook loops, and distribution
values by Monte Carlo sampling. The one exception is `clearance`, which
samples each everted body on its own with the library's sweep_samples, so
that growth_trace's shared sweep must match it bit for bit.
"""

import math

import mpmath
import numpy as np

from vinefab.growth import sweep_samples


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


def _rx(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _rz(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


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
    step[:3, :3] = _rz(chain.theta[idx])
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
    return float(np.min(scene.surface_distance(centers) - chain.radius))


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
        m = m @ _rx(phi) @ _rz(theta) @ _rx(-phi)
        points.append(points[-1] + a * m[:, 0])
    return np.array(points)


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
        rz = _rz(theta[i])
        origins[i + 1] = origins[i] + rots[i] @ (rz @ np.array([a[i], 0.0, 0.0]))
        rots[i + 1] = rots[i] @ (rz @ _rx(alpha[i]))
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
