"""Rigid transforms on the ground plane and the pinhole camera model.

Poses are (x, y, z, yaw): translation plus rotation about +z only. That is
enough for vehicles on a plane and keeps inverses exact. All multi-frame
computations go through ``relative_pose`` (translation differenced before
rotation), so results depend only on relative geometry, not on where the
world origin happens to sit.

Camera convention: a camera pose's local +x is the optical axis, +y left,
+z up. Image coordinates are (u right, v down); optical right = -y_local,
optical down = -z_local.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

NEAR_EPS = 0.1


def normalize_angle(a: float) -> float:
    """Wrap into (-pi, pi]."""
    out = (a + math.pi) % (2.0 * math.pi) - math.pi
    if out == -math.pi:
        out = math.pi
    return out


@dataclass(frozen=True)
class Pose:
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0
    yaw: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "yaw", normalize_angle(float(self.yaw)))
        for f in ("x", "y", "z"):
            object.__setattr__(self, f, float(getattr(self, f)))


def compose(a: Pose, b: Pose) -> Pose:
    """Pose of b's frame seen from a's parent frame (apply b, then a)."""
    c, s = math.cos(a.yaw), math.sin(a.yaw)
    return Pose(
        a.x + c * b.x - s * b.y,
        a.y + s * b.x + c * b.y,
        a.z + b.z,
        a.yaw + b.yaw,
    )


def invert(p: Pose) -> Pose:
    c, s = math.cos(p.yaw), math.sin(p.yaw)
    # R(-yaw) @ (-t)
    return Pose(-(c * p.x + s * p.y), -(-s * p.x + c * p.y), -p.z, -p.yaw)


def relative_pose(a: Pose, b: Pose) -> Pose:
    """b expressed in a's frame, differencing translations before rotating.

    Equivalent to compose(invert(a), b) but exact under shared-origin shifts:
    the world offset cancels in the difference before any rounding rotation.
    """
    dx, dy, dz = b.x - a.x, b.y - a.y, b.z - a.z
    c, s = math.cos(a.yaw), math.sin(a.yaw)
    return Pose(c * dx + s * dy, -s * dx + c * dy, dz, b.yaw - a.yaw)


def apply_pose(p: Pose, pts: np.ndarray) -> np.ndarray:
    """Map points from p's frame into its parent frame. pts: [..., 3]."""
    pts = np.asarray(pts, dtype=np.float64)
    c, s = math.cos(p.yaw), math.sin(p.yaw)
    out = np.empty_like(pts)
    out[..., 0] = c * pts[..., 0] - s * pts[..., 1] + p.x
    out[..., 1] = s * pts[..., 0] + c * pts[..., 1] + p.y
    out[..., 2] = pts[..., 2] + p.z
    return out


def apply_pose_noise(p: Pose, sigma_xy: float, sigma_yaw: float,
                     rng: np.random.Generator) -> Pose:
    """Gaussian position/heading perturbation. Draw order is fixed (x, y, yaw)."""
    if sigma_xy < 0.0 or sigma_yaw < 0.0:
        raise ValueError("noise sigmas must be >= 0")
    dx = rng.normal(0.0, sigma_xy) if sigma_xy > 0 else 0.0
    dy = rng.normal(0.0, sigma_xy) if sigma_xy > 0 else 0.0
    dyaw = rng.normal(0.0, sigma_yaw) if sigma_yaw > 0 else 0.0
    if sigma_xy == 0.0 and sigma_yaw == 0.0:
        return p
    return replace(p, x=p.x + dx, y=p.y + dy, yaw=normalize_angle(p.yaw + dyaw))


# ---- camera ----


@dataclass(frozen=True)
class CameraModel:
    fx: float
    fy: float
    cx: float
    cy: float
    pix_w: int
    pix_h: int
    feat_w: int
    feat_h: int
    pose: Pose = Pose()   # camera in agent frame

    def __post_init__(self):
        if self.pix_w % self.feat_w or self.pix_h % self.feat_h:
            raise ValueError(
                f"feature stride must be integral: {self.pix_w}/{self.feat_w}, "
                f"{self.pix_h}/{self.feat_h}")
        if self.pix_w // self.feat_w != self.pix_h // self.feat_h:
            raise ValueError("horizontal and vertical strides differ")

    @property
    def stride(self) -> int:
        return self.pix_w // self.feat_w


def camera_in_frame(cam: CameraModel, agent_pose: Pose) -> Pose:
    """Camera pose in whatever frame ``agent_pose`` is expressed in."""
    return compose(agent_pose, cam.pose)


def project_points(pts: np.ndarray, cam: CameraModel, agent_pose: Pose):
    """Project [N, 3] points (in agent_pose's parent frame) into feature coords.

    Returns (uv [N, 2], depth [N], valid [N]). A point is valid when its depth
    along the optical axis exceeds ``NEAR_EPS`` and (u, v) lies inside
    [0, feat_w) x [0, feat_h). Coordinates for invalid points are still
    returned (clamped-denominator mirror values) for diagnostics.
    """
    pts = np.asarray(pts, dtype=np.float64)
    cam_pose = camera_in_frame(cam, agent_pose)
    local = apply_pose(invert(cam_pose), pts)
    fwd = local[..., 0]
    right = -local[..., 1]
    down = -local[..., 2]
    safe = np.where(np.abs(fwd) < 1e-12, 1e-12, fwd)
    u = (cam.cx + cam.fx * right / safe) / cam.stride
    v = (cam.cy + cam.fy * down / safe) / cam.stride
    uv = np.stack([u, v], axis=-1)
    valid = (fwd > NEAR_EPS) & (u >= 0.0) & (u < cam.feat_w) & (v >= 0.0) & (v < cam.feat_h)
    return uv, fwd, valid


def unproject_feature_to_optical(cam: CameraModel, u: float,
                                 v: float) -> np.ndarray:
    """Lift feature coords to the optical-frame plane at unit depth.

    Returns (right, down, 1.0); the inverse of the projection above.
    """
    right = (u * cam.stride - cam.cx) / cam.fx
    down = (v * cam.stride - cam.cy) / cam.fy
    return np.array([right, down, 1.0])


def optical_to_local(opt: np.ndarray) -> np.ndarray:
    """(right, down, forward) -> camera-local (x fwd, y left, z up)."""
    opt = np.asarray(opt, dtype=np.float64)
    return np.stack([opt[..., 2], -opt[..., 0], -opt[..., 1]], axis=-1)


# ---- planar rectangles and convex polygons (shared by scene + eval) ----
#
# ``rects_overlap`` takes rectangles in centre form (x, y, w, l, yaw fields,
# as boxes carry them); the polygon functions take ``rect_corners`` arrays.
# ``rect_corners``'s matmul and ``polygon_area``'s ``np.dot`` stay BLAS calls:
# every recorded scene and eval golden was made with their rounding, and the
# BLAS kernels do not round like plain Python arithmetic: a pure-Python
# ``rect_corners`` differs on ~4% of random boxes, and a sequential Python
# shoelace on ~47% of clipped box pairs.


def rect_corners(cx: float, cy: float, w: float, l: float, yaw: float) -> np.ndarray:
    """BEV footprint corners, CCW. Length runs along the heading, width across."""
    c, s = math.cos(yaw), math.sin(yaw)
    hx, hy = l / 2.0, w / 2.0
    local = np.array([[hx, hy], [-hx, hy], [-hx, -hy], [hx, -hy]])
    rot = np.array([[c, -s], [s, c]])
    return local @ rot.T + np.array([cx, cy])


def polygon_area(poly: np.ndarray) -> float:
    """Shoelace area; positive for CCW winding."""
    n = len(poly)
    if n < 3:
        return 0.0
    # next-vertex x and y as contiguous rows: which BLAS kernel runs, and so
    # how the dots round, depends on the operand strides
    nx, ny = np.take(poly.T, [*range(1, n), 0], axis=1)
    return 0.5 * float(np.dot(poly[:, 0], ny) - np.dot(poly[:, 1], nx))


def clip_convex(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman: clip ``subject`` by convex CCW polygon ``clip``.

    Runs on Python floats, which round exactly like ``np.float64`` scalars;
    the array is built once at the end.
    """
    out = subject.tolist()
    cl = clip.tolist()
    n = len(cl)
    for i in range(n):
        if not out:
            break
        ax, ay = cl[i]
        bx, by = cl[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        inp = out
        out = []
        px, py = inp[-1]
        cp = ex * (py - ay) - ey * (px - ax)
        for cur in inp:
            x, y = cur
            cc = ex * (y - ay) - ey * (x - ax)
            if (cc >= 0.0) != (cp >= 0.0):
                s = cp / (cp - cc)
                out.append((px + s * (x - px), py + s * (y - py)))
            if cc >= 0.0:
                out.append(cur)
            px, py, cp = x, y, cc
    return np.array(out) if out else np.zeros((0, 2))


# the separating-axis bands of ``rects_overlap``, in metres: a gap wider than
# SAT_GAP settles "apart", a penetration depth ``d`` with d * shortest_side >
# SAT_DEPTH * sum_of_sides settles "overlapping", and a pair must lie more
# than SAT_SLACK inside a band for the band to settle it
SAT_GAP = 1e-6
SAT_DEPTH = 1e-4
SAT_SLACK = 1e-9


def rects_overlap(a, b) -> bool:
    """True when two rectangles share interior area.

    ``a`` and ``b`` are anything with x, y, w, l, yaw fields (GT boxes,
    detections). The decision is ``polygon_area(clip_convex(...)) > 1e-12``
    on their ``rect_corners``; the separating-axis theorem settles almost
    every pair without the clip. On each of the four edge axes ``L`` (both
    headings and their normals) the projections overlap by ``r_a + r_b -
    |T.L|``, ``T`` the centre offset and ``r`` a rectangle's projected
    half-extent (the OBB test of Gottschalk, Lin & Manocha, SIGGRAPH 1996);
    ``depth`` is the smallest of the four.

    - A gap wider than ``SAT_GAP`` on one axis means the exact intersection
      is empty, and the clip's vertices, which lie within rounding of both
      rectangles, cannot exist: the clip returns nothing.
    - Otherwise ``depth`` is the penetration depth (the distance from the
      origin to the edge of the Minkowski difference). Brunn-Minkowski makes
      sqrt(area(A & (B + t))) concave in ``t``. At the translation that puts
      the centres together that area is at least pi/4 * m^2 (``m`` the
      shortest side), so area(A & B) >= pi/4 * (depth * m / (diam A + diam
      B))^2. Sides summing to ``S`` bound the two diameters, so ``depth * m
      > SAT_DEPTH * S`` means an area of at least 7.8e-9, far above the
      clip's 1e-12 threshold and its rounding at coordinates below ~100 m.

    Both proofs are about the corners the clip is given, which round apart
    from ``depth``: at |coords| < 100 m the overlap projected from the
    corners differed from ``depth`` by at most 2.8e-13 m over 1e5 random
    pairs. So a band answers only for a pair more than ``SAT_SLACK`` inside
    it, over three orders above that. Pairs touching within rounding go to
    the clip.
    """
    aw, al, bw, bl = a.w, a.l, b.w, b.l
    ac, as_ = math.cos(a.yaw), math.sin(a.yaw)
    bc, bs = math.cos(b.yaw), math.sin(b.yaw)
    tx, ty = b.x - a.x, b.y - a.y
    cos_ab = abs(ac * bc + as_ * bs)   # |u_a.u_b| = |v_a.v_b|
    sin_ab = abs(as_ * bc - ac * bs)   # |u_a.v_b| = |v_a.u_b|
    # half-extents of b on a's heading and normal, and of a on b's
    bu = 0.5 * (bl * cos_ab + bw * sin_ab)
    bv = 0.5 * (bl * sin_ab + bw * cos_ab)
    au = 0.5 * (al * cos_ab + aw * sin_ab)
    av = 0.5 * (al * sin_ab + aw * cos_ab)
    depth = min(0.5 * al + bu - abs(tx * ac + ty * as_),
                0.5 * aw + bv - abs(ty * ac - tx * as_),
                au + 0.5 * bl - abs(tx * bc + ty * bs),
                av + 0.5 * bw - abs(ty * bc - tx * bs))
    if depth < -SAT_GAP - SAT_SLACK:
        return False
    # sides summed as (a) + (b), so swapping a and b gives the same bits
    if (depth - SAT_SLACK) * min(aw, al, bw, bl) > SAT_DEPTH * ((aw + al) + (bw + bl)):
        return True
    return polygon_area(clip_convex(rect_corners(a.x, a.y, aw, al, a.yaw),
                                    rect_corners(b.x, b.y, bw, bl, b.yaw))) > 1e-12
