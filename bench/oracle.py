"""Reference computations the benchmark checks vinefab's outputs against.

Everything here is written from the documented formulas, with numpy only and
without importing vinefab, so a change to the library cannot change what its
outputs are compared with.
"""

import math

import numpy as np


def dh_matrix(a, alpha, theta):
    """Homogeneous 4x4 transform Rot_z(theta) Trans_x(a) Rot_x(alpha)."""
    ct, st = math.cos(theta), math.sin(theta)
    ca, sa = math.cos(alpha), math.sin(alpha)
    return np.array([
        [ct, -st * ca, st * sa, a * ct],
        [st, ct * ca, -ct * sa, a * st],
        [0.0, sa, ca, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])


def fk(a, alpha, theta):
    """Cumulative homogeneous frames of a DH chain: n+1 matrices, base first."""
    frames = [np.eye(4)]
    for ai, ali, thi in zip(a, alpha, theta):
        frames.append(frames[-1] @ dh_matrix(ai, ali, thi))
    return frames


def vertices(a, alpha, theta):
    """Joint positions (n+1, 3) of a DH chain."""
    return np.array([f[:3, 3] for f in fk(a, alpha, theta)])


def rotation_to_quaternion(r):
    """Unit quaternion (w, x, y, z) with w >= 0 (Shepperd's method)."""
    m = np.asarray(r, float)
    trace = m[0, 0] + m[1, 1] + m[2, 2]
    candidates = [trace, m[0, 0], m[1, 1], m[2, 2]]
    k = int(np.argmax(candidates))
    if k == 0:
        w = 0.5 * math.sqrt(1.0 + trace)
        q = [w, (m[2, 1] - m[1, 2]) / (4 * w), (m[0, 2] - m[2, 0]) / (4 * w),
             (m[1, 0] - m[0, 1]) / (4 * w)]
    elif k == 1:
        x = 0.5 * math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2])
        q = [(m[2, 1] - m[1, 2]) / (4 * x), x, (m[0, 1] + m[1, 0]) / (4 * x),
             (m[0, 2] + m[2, 0]) / (4 * x)]
    elif k == 2:
        y = 0.5 * math.sqrt(1.0 - m[0, 0] + m[1, 1] - m[2, 2])
        q = [(m[0, 2] - m[2, 0]) / (4 * y), (m[0, 1] + m[1, 0]) / (4 * y), y,
             (m[1, 2] + m[2, 1]) / (4 * y)]
    else:
        z = 0.5 * math.sqrt(1.0 - m[0, 0] - m[1, 1] + m[2, 2])
        q = [(m[1, 0] - m[0, 1]) / (4 * z), (m[0, 2] + m[2, 0]) / (4 * z),
             (m[1, 2] + m[2, 1]) / (4 * z), z]
    q = np.array(q)
    return -q if q[0] < 0.0 else q


# ------------------------------------------------------------ fabrication

def fold_distance(theta, r, d_g):
    """s = 2 d_g / sqrt(2 + 2 cos theta) + 2 r theta, for a bend of |theta|."""
    t = abs(theta)
    return 2.0 * d_g / math.sqrt(2.0 + 2.0 * math.cos(t)) + 2.0 * r * t


def plan(a, theta, r, d_g):
    """Closed-form fold distances, cylinder lengths and total tube length.

    A joint with theta = 0 is not folded (s = 0); cylinder i has length
    a_i - (s_i + s_{i+1})/4 and the tube is the sum of cylinders and folds.
    """
    n = len(a)
    s = [fold_distance(t, r, d_g) if t != 0.0 else 0.0 for t in theta]
    cyl = [a[i] - (s[i] + (s[i + 1] if i + 1 < n else 0.0)) / 4.0 for i in range(n)]
    return s, cyl, sum(cyl) + sum(s)


def polyline_bends(points):
    """Segment lengths and bend angles (theta_1 = 0) of a waypoint polyline."""
    seg = np.diff(np.asarray(points, float), axis=0)
    lengths = np.linalg.norm(seg, axis=1)
    unit = seg / lengths[:, None]
    bends = [0.0] + [math.acos(max(-1.0, min(1.0, float(unit[i] @ unit[i + 1]))))
                     for i in range(len(seg) - 1)]
    return lengths.tolist(), bends


def rigid_residual(p, q):
    """Largest point distance after the best rigid motion of q onto p (Kabsch)."""
    p = np.asarray(p, float)
    q = np.asarray(q, float)
    if p.shape != q.shape:
        return math.inf
    pc, qc = p - p.mean(axis=0), q - q.mean(axis=0)
    u, _, vt = np.linalg.svd(qc.T @ pc)
    d = np.sign(np.linalg.det(u @ vt)) or 1.0
    rot = u @ np.diag([1.0, 1.0, d]) @ vt
    return float(np.max(np.linalg.norm(qc @ rot - pc, axis=1)))


# ----------------------------------------------------------------- growth

def points_along(verts, arc_lengths):
    """Points at the given arc lengths along a polyline of joint positions."""
    s = np.asarray(arc_lengths, float)
    seg = np.diff(verts, axis=0)
    lengths = np.linalg.norm(seg, axis=1)
    starts = np.concatenate([[0.0], np.cumsum(lengths)])
    k = np.clip(np.searchsorted(starts, s, side="right") - 1, 0, len(seg) - 1)
    return verts[k] + seg[k] / lengths[k, None] * (s - starts[k])[:, None]


def tip_along(verts, everted):
    return points_along(verts, [everted])[0]


def box_distance(points, lo, hi):
    """Signed distance from points to an axis-aligned box surface (negative inside)."""
    nearest = np.clip(points, lo, hi)
    outside = np.linalg.norm(points - nearest, axis=1)
    inside = np.all((points >= lo) & (points <= hi), axis=1)
    depth = np.min(np.minimum(points - lo, hi - points), axis=1)
    return np.where(inside, -depth, outside)


def clearance(verts, everted, step, body_radius, spheres, boxes):
    """Brute-force body clearance at one everted length.

    Samples the centerline every `step` mm from the base, plus the tip, and
    takes the smallest obstacle surface distance minus the body radius.
    """
    samples = np.append(np.arange(int(math.floor(everted / step)) + 1) * step, everted)
    p = points_along(verts, samples)
    best = math.inf
    for center, radius in spheres:
        best = min(best, float(np.min(np.linalg.norm(p - center, axis=1) - radius)))
    for lo, hi in boxes:
        best = min(best, float(np.min(box_distance(p, lo, hi))))
    return best - body_radius


# ------------------------------------------------------------ measurement

def marker_spots(a, alpha, theta, offset):
    """Marker ids, positions and orientations of the documented jig.

    Bend joints j = 2..n carry an on-joint marker plus one `offset` mm toward
    each neighbour joint; the first bend joint uses a base marker in place of
    its proximal one and the last uses a tip marker in place of its distal one.
    """
    frames = fk(a, alpha, theta)
    verts = np.array([f[:3, 3] for f in frames])
    n = len(a)
    seg = np.diff(verts, axis=0)
    unit = seg / np.linalg.norm(seg, axis=1)[:, None]
    spots = [("base", verts[0], frames[0][:3, :3])]
    for j in range(2, n + 1):
        o, rot = verts[j - 1], frames[j - 1][:3, :3]
        spots.append((f"j{j}_on", o, rot))
        if j > 2:
            spots.append((f"j{j}_prox", o - offset * unit[j - 2], rot))
        if j < n:
            spots.append((f"j{j}_dist", o + offset * unit[j - 1], rot))
    spots.append(("tip", verts[-1], frames[-1][:3, :3]))
    return spots


def recover(positions):
    """Joint angles, twists and lengths from averaged marker positions.

    `positions` maps marker id to its mean position. Returns three dicts,
    keyed by joint / link index: bend angles (rad), twists (rad), lengths (mm).
    """
    joints = sorted(int(k[1:].split("_")[0]) for k in positions if k.endswith("_on"))
    first, last = joints[0], joints[-1]

    def pos(j, role):
        key = f"j{j}_{role}"
        if key in positions:
            return positions[key]
        return positions["base" if role == "prox" else "tip"]

    thetas, normals = {}, {}
    for j in joints:
        v = pos(j, "on") - pos(j, "prox")
        w = pos(j, "dist") - pos(j, "on")
        v, w = v / np.linalg.norm(v), w / np.linalg.norm(w)
        thetas[j] = math.acos(max(-1.0, min(1.0, float(v @ w))))
        normals[j] = np.cross(v, w)
    alphas = {}
    for j in joints[:-1]:
        axis = pos(j + 1, "on") - pos(j, "on")
        axis /= np.linalg.norm(axis)
        n0, n1 = normals[j], normals[j + 1]
        if np.linalg.norm(n0) < 1e-9 or np.linalg.norm(n1) < 1e-9:
            alphas[j] = 0.0
            continue
        n0, n1 = n0 / np.linalg.norm(n0), n1 / np.linalg.norm(n1)
        # signed angle from n0 to n1 about the link axis
        alphas[j] = math.atan2(float(np.cross(n0, n1) @ axis), float(n0 @ n1))
    lengths = {first - 1: float(np.linalg.norm(pos(first, "on") - pos(first, "prox")))}
    for j in joints[:-1]:
        lengths[j] = float(np.linalg.norm(pos(j + 1, "on") - pos(j, "on")))
    lengths[last] = float(np.linalg.norm(pos(last, "dist") - pos(last, "on")))
    return thetas, alphas, lengths
