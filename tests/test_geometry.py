import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import viewfuse.geometry
from viewfuse.geometry import (
    CameraModel, Pose, apply_pose, apply_pose_noise, camera_in_frame,
    clip_convex, compose, invert, normalize_angle, polygon_area,
    project_points, rect_corners, rects_overlap,
    relative_pose, unproject_feature_to_optical, optical_to_local,
    SAT_DEPTH, SAT_GAP,
)
from viewfuse.scene import POS_SNAP, YAW_SNAP, _snap

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def poses():
    return st.builds(Pose, finite, finite, finite, angles)


def matrix_of(p: Pose) -> np.ndarray:
    """Independent homogeneous-matrix oracle, built from scratch."""
    c, s = math.cos(p.yaw), math.sin(p.yaw)
    m = np.array([
        [c, -s, 0.0, p.x],
        [s, c, 0.0, p.y],
        [0.0, 0.0, 1.0, p.z],
        [0.0, 0.0, 0.0, 1.0],
    ])
    return m


def test_identity_roundtrip():
    p = Pose(1.0, -2.0, 0.5, 0.7)
    q = compose(p, invert(p))
    assert abs(q.x) < 1e-12 and abs(q.y) < 1e-12 and abs(q.z) < 1e-12
    assert abs(q.yaw) < 1e-12


@given(poses(), poses())
@settings(max_examples=200, deadline=None)
def test_compose_matches_matrix_oracle(a, b):
    got = compose(a, b)
    want = matrix_of(a) @ matrix_of(b)
    np.testing.assert_allclose(matrix_of(got)[:3, 3], want[:3, 3], atol=1e-9)
    np.testing.assert_allclose(matrix_of(got)[:3, :3], want[:3, :3], atol=1e-9)


@given(poses(), poses(), poses())
@settings(max_examples=100, deadline=None)
def test_compose_associative(a, b, c):
    lhs = compose(compose(a, b), c)
    rhs = compose(a, compose(b, c))
    np.testing.assert_allclose([lhs.x, lhs.y, lhs.z], [rhs.x, rhs.y, rhs.z], atol=1e-8)
    assert abs(normalize_angle(lhs.yaw - rhs.yaw)) < 1e-9


@given(poses(), st.lists(finite, min_size=3, max_size=3))
@settings(max_examples=200, deadline=None)
def test_apply_invert_roundtrip(p, pt):
    pt = np.array(pt)
    back = apply_pose(invert(p), apply_pose(p, pt))
    np.testing.assert_allclose(back, pt, atol=1e-8)


def test_translate_then_rotate_hand_case():
    # translation (1,0,0) applied after a yaw of pi/2
    p = compose(Pose(1.0, 0.0, 0.0, 0.0), Pose(0.0, 0.0, 0.0, math.pi / 2))
    got = apply_pose(p, np.array([2.0, 0.0, 0.0]))
    want = (matrix_of(p) @ np.array([2.0, 0.0, 0.0, 1.0]))[:3]
    np.testing.assert_allclose(got, want, atol=1e-12)
    np.testing.assert_allclose(got, [1.0, 2.0, 0.0], atol=1e-12)


def test_yaw_normalized_into_half_open_interval():
    assert Pose(yaw=3 * math.pi).yaw == pytest.approx(math.pi)
    assert Pose(yaw=-math.pi).yaw == pytest.approx(math.pi)
    q = compose(Pose(yaw=2.5), Pose(yaw=2.5))
    assert -math.pi < q.yaw <= math.pi


@given(poses(), poses())
@settings(max_examples=100, deadline=None)
def test_relative_pose_matches_compose_invert(a, b):
    got = relative_pose(a, b)
    want = compose(invert(a), b)
    np.testing.assert_allclose([got.x, got.y, got.z], [want.x, want.y, want.z], atol=1e-8)
    assert abs(normalize_angle(got.yaw - want.yaw)) < 1e-9


def test_relative_pose_exact_under_world_shift():
    # coordinates on a 2^-20 lattice, integer world offset: bit-identical result
    snap = 2.0 ** -20
    a = Pose(12345 * snap * 7, -99991 * snap, 3 * snap, 0.25)
    b = Pose(54321 * snap, 77777 * snap, -5 * snap, -1.5)
    for off in [(128.0, -512.0, 64.0), (3072.0, 1.0, -2048.0)]:
        t = Pose(*off, 0.0)
        r0 = relative_pose(a, b)
        r1 = relative_pose(compose(t, a), compose(t, b))
        assert (r0.x, r0.y, r0.z, r0.yaw) == (r1.x, r1.y, r1.z, r1.yaw)


# ---- noise ----

def test_pose_noise_zero_sigma_identical():
    p = Pose(1.0, 2.0, 0.0, 0.5)
    q = apply_pose_noise(p, 0.0, 0.0, np.random.default_rng(0))
    assert (q.x, q.y, q.z, q.yaw) == (p.x, p.y, p.z, p.yaw)


def test_pose_noise_statistics():
    rng = np.random.default_rng(42)
    n = 100_000
    xs = np.array([apply_pose_noise(Pose(), 0.5, 0.02, rng).x for _ in range(n)])
    assert abs(xs.mean()) < 0.01
    assert abs(xs.std() - 0.5) < 0.01


def test_pose_noise_rejects_negative_sigma():
    with pytest.raises(ValueError):
        apply_pose_noise(Pose(), -0.1, 0.0, np.random.default_rng(0))


# ---- camera ----

def make_cam(yaw=0.0, z=1.4) -> CameraModel:
    return CameraModel(fx=160.0, fy=160.0, cx=160.0, cy=100.0,
                       pix_w=320, pix_h=200, feat_w=32, feat_h=20,
                       pose=Pose(0.0, 0.0, z, yaw))


def test_camera_stride_validation():
    with pytest.raises(ValueError):
        CameraModel(100, 100, 50, 50, pix_w=321, pix_h=200, feat_w=32, feat_h=20)
    with pytest.raises(ValueError):
        CameraModel(100, 100, 50, 50, pix_w=320, pix_h=200, feat_w=32, feat_h=10)


def test_optical_axis_point_hits_principal_point():
    cam = make_cam()
    uv, _, ok = project_points(np.array([[5.0, 0.0, 1.4]]), cam, Pose())
    assert ok[0]
    assert uv[0, 0] == pytest.approx(cam.cx / cam.stride)
    assert uv[0, 1] == pytest.approx(cam.cy / cam.stride)


def test_point_behind_camera_invalid():
    cam = make_cam()
    _, _, ok = project_points(np.array([[-5.0, 0.0, 1.4]]), cam, Pose())
    assert not ok[0]


def test_point_outside_frustum_invalid():
    cam = make_cam()
    # 90 degree horizontal FOV: lateral offset beyond +-depth falls outside
    _, _, ok = project_points(np.array([[5.0, 5.1, 1.4], [5.0, 4.9, 1.4]]),
                              cam, Pose())
    assert not ok[0]
    assert ok[1]


def projection_matrix_oracle(cam: CameraModel, cam_world: Pose) -> np.ndarray:
    """Independent 3x4 projection matrix: K @ axis-swap @ world-to-camera."""
    k = np.array([[cam.fx, 0.0, cam.cx], [0.0, cam.fy, cam.cy], [0.0, 0.0, 1.0]])
    swap = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
    c, s = math.cos(cam_world.yaw), math.sin(cam_world.yaw)
    r_inv = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    t = np.array([cam_world.x, cam_world.y, cam_world.z])
    world_to_cam = np.hstack([r_inv, (-r_inv @ t)[:, None]])
    return k @ swap @ world_to_cam


@given(st.lists(finite, min_size=3, max_size=3), angles, angles)
@settings(max_examples=200, deadline=None)
def test_projection_matches_matrix_oracle(pt, agent_yaw, cam_yaw):
    cam = make_cam(yaw=cam_yaw)
    agent = Pose(1.0, -2.0, 0.0, agent_yaw)
    pt = np.array(pt)
    uv, depth, valid = project_points(pt[None, :], cam, agent)
    p = projection_matrix_oracle(cam, camera_in_frame(cam, agent))
    proj = p @ np.append(pt, 1.0)
    if abs(proj[2]) < 1e-6:
        return
    np.testing.assert_allclose(depth[0], proj[2], atol=1e-9)
    if proj[2] > 0.1:
        np.testing.assert_allclose(uv[0] * cam.stride, proj[:2] / proj[2], atol=1e-6)


def test_projection_equivariance_across_frames():
    cam = make_cam(yaw=0.3)
    agent_in_ego = Pose(2.0, 1.0, 0.0, 0.7)
    pt_ego = np.array([6.0, 2.0, 1.0])
    uv1, _, ok1 = project_points(pt_ego, cam, agent_in_ego)

    shift = Pose(-3.0, 5.0, 0.0, 1.1)
    agent_in_other = compose(shift, agent_in_ego)
    pt_other = apply_pose(shift, pt_ego)
    uv2, _, ok2 = project_points(pt_other, cam, agent_in_other)
    assert ok1 == ok2
    np.testing.assert_allclose(uv1, uv2, atol=1e-9)


def test_unproject_roundtrip():
    cam = make_cam()
    opt = unproject_feature_to_optical(cam, 10.0, 5.0)
    np.testing.assert_allclose(opt[2], 1.0)
    local = optical_to_local(opt)
    world = apply_pose(camera_in_frame(cam, Pose()), local)
    uv, _, ok = project_points(world, cam, Pose())
    assert ok
    np.testing.assert_allclose(uv, [10.0, 5.0], atol=1e-9)


# ---- polygons ----

def test_polygon_area_unit_square():
    sq = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert polygon_area(sq) == pytest.approx(1.0)


def test_clip_offset_squares():
    a = rect_corners(0.0, 0.0, 2.0, 2.0, 0.0)
    b = rect_corners(1.0, 1.0, 2.0, 2.0, 0.0)
    inter = clip_convex(a, b)
    assert polygon_area(inter) == pytest.approx(1.0)


def test_clip_disjoint_is_empty():
    a = rect_corners(0.0, 0.0, 1.0, 1.0, 0.0)
    b = rect_corners(5.0, 5.0, 1.0, 1.0, 0.0)
    assert polygon_area(clip_convex(a, b)) == pytest.approx(0.0)


def test_rect_corners_length_along_heading():
    c = rect_corners(0.0, 0.0, 2.0, 6.0, 0.0)
    assert c[:, 0].max() == pytest.approx(3.0)
    assert c[:, 1].max() == pytest.approx(1.0)
    assert polygon_area(c) == pytest.approx(12.0)
    r = rect_corners(0.0, 0.0, 2.0, 6.0, math.pi / 2)
    assert r[:, 1].max() == pytest.approx(3.0)


Rect = namedtuple("Rect", "x y w l yaw")   # centre form, as rects_overlap takes it


def test_rects_overlap():
    a = Rect(0.0, 0.0, 2.0, 4.0, 0.2)
    assert rects_overlap(a, Rect(0.5, 0.5, 2.0, 4.0, -0.4))
    assert not rects_overlap(a, Rect(10.0, 0.0, 2.0, 4.0, 0.0))


# ---- the overlap predicate against its clip definition ----

def _clip_overlap(a, b) -> bool:
    return polygon_area(clip_convex(a, b)) > 1e-12


def _sat_min_overlap(a, b) -> float:
    """Smallest projected overlap over the four edge axes (negative: a gap)."""
    out = math.inf
    for p in (a, b):
        for n in (p[1] - p[0], p[3] - p[0]):
            ka, kb = a @ n, b @ n
            out = min(out, min(ka.max() - kb.min(), kb.max() - ka.min())
                      / float(np.hypot(*n)))
    return out


def _touch_distance(wa, la, ya, wb, lb, yb, d) -> float:
    """How far B's centre moves from A's along unit ``d`` until they touch.

    That is where the ray along ``d`` leaves the Minkowski difference A - B,
    whose edge normals are both rectangles' axes and whose support function
    is the sum of theirs.
    """
    def support(n, w, l, yaw):
        return (abs(n @ [math.cos(yaw), math.sin(yaw)]) * l / 2.0
                + abs(n @ [-math.sin(yaw), math.cos(yaw)]) * w / 2.0)

    best = math.inf
    for yaw in (ya, yb):
        for k in range(4):
            n = np.array([math.cos(yaw + k * math.pi / 2.0),
                          math.sin(yaw + k * math.pi / 2.0)])
            if n @ d > 1e-9:
                best = min(best, (support(n, wa, la, ya) + support(n, wb, lb, yb))
                           / (n @ d))
    return best


def _near_contact_pairs():
    """3000 (i, gap, a, b): rectangles ``gap`` apart (negative: into each
    other) along a random direction, |gap| from 1e-12 to 0.1 m."""
    rng = np.random.default_rng(2024)
    for i in range(3000):
        ax, ay = rng.uniform(-20.0, 20.0, 2)
        wa, wb = rng.uniform(0.5, 2.6, 2)
        la, lb = rng.uniform(1.0, 6.0, 2)
        ya, yb = rng.uniform(-math.pi, math.pi, 2)
        if i % 4 == 0:   # parallel or perpendicular edges
            yb = ya + rng.integers(4) * math.pi / 2.0
        phi = rng.uniform(-math.pi, math.pi)
        d = np.array([math.cos(phi), math.sin(phi)])
        gap = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -1.0)
        s = _touch_distance(wa, la, ya, wb, lb, yb, d) + gap
        bx, by = ax + s * d[0], ay + s * d[1]
        if i % 2 == 0:
            ax, ay, bx, by = (_snap(v) for v in (ax, ay, bx, by))
            ya, yb = _snap(ya, YAW_SNAP), _snap(yb, YAW_SNAP)
        yield i, gap, Rect(ax, ay, wa, la, ya), Rect(bx, by, wb, lb, yb)


# contacts against A = Rect(0, 0, 2, 4, 0), x in [-2, 2], y in [-1, 1]:
# name -> (B, whether they share area, whether the centre bands settle it)
_CONTACTS = {
    "shared edge": (Rect(4.0, 0.0, 2.0, 4.0, 0.0), False, False),
    "shared edge, offset": (Rect(1.0, 2.0, 2.0, 4.0, 0.0), False, False),
    "corner to corner": (Rect(4.0, 2.0, 2.0, 4.0, 0.0), False, False),
    "corner on corner, rotated": (
        Rect(2.0 + math.sqrt(0.5), 1.0, 1.0, 1.0, math.pi / 4.0), False, False),
    "contained": (Rect(0.3, -0.2, 0.5, 1.0, 0.7), True, True),
    "identical": (Rect(0.0, 0.0, 2.0, 4.0, 0.0), True, True),
    "zero width": (Rect(0.5, 0.0, 0.0, 1.0, 0.4), False, False),
    "x, 1e-9 apart": (Rect(4.0 + 1e-9, 0.0, 2.0, 4.0, 0.0), False, False),
    "x, 1e-9 into": (Rect(4.0 - 1e-9, 0.0, 2.0, 4.0, 0.0), True, False),
    "y, 1e-9 apart": (Rect(0.0, 2.0 + 1e-9, 2.0, 4.0, 0.0), False, False),
    "y, 1e-9 into": (Rect(0.0, 2.0 - 1e-9, 2.0, 4.0, 0.0), True, False),
    "x, one POS_SNAP apart": (Rect(4.0 + POS_SNAP, 0.0, 2.0, 4.0, 0.0), False, False),
    "x, one POS_SNAP into": (Rect(4.0 - POS_SNAP, 0.0, 2.0, 4.0, 0.0), True, False),
    "x, 1e-5 apart": (Rect(4.0 + 1e-5, 0.0, 2.0, 4.0, 0.0), False, True),
}


def _rotated_contacts():
    """The shared-edge contacts of ``_CONTACTS``, touching and 1e-9 m either
    side, on a frame rotated by a yaw on the YAW_SNAP grid."""
    yaw = _snap(0.3, YAW_SNAP)
    c, s = math.cos(yaw), math.sin(yaw)
    ra = Rect(0.0, 0.0, 2.0, 4.0, yaw)
    for dx, dy in ((4.0, 0.0), (0.0, 2.0)):
        for eps in (-1e-9, 0.0, 1e-9):
            k = 1.0 + eps / math.hypot(dx, dy)
            yield (dx, dy, eps), ra, Rect(k * (c * dx - s * dy), k * (s * dx + c * dy),
                                          2.0, 4.0, yaw)


def _clip_calls(monkeypatch) -> list:
    """One entry per ``clip_convex`` call ``rects_overlap`` makes from now on."""
    calls = []
    real = viewfuse.geometry.clip_convex

    def counting(subject, clip):
        calls.append(1)
        return real(subject, clip)

    monkeypatch.setattr(viewfuse.geometry, "clip_convex", counting)
    return calls


def test_rects_overlap_is_the_clip_predicate_near_contact():
    for i, gap, ra, rb in _near_contact_pairs():
        a, b = rect_corners(*ra), rect_corners(*rb)
        assert rects_overlap(ra, rb) == _clip_overlap(a, b), (i, gap)
        assert rects_overlap(rb, ra) == _clip_overlap(b, a), (i, gap)


def test_rects_overlap_adversarial_contacts():
    a = Rect(0.0, 0.0, 2.0, 4.0, 0.0)
    # projections touch exactly: a SAT with no band would call this overlap
    assert _sat_min_overlap(rect_corners(*a), rect_corners(*_CONTACTS["shared edge"][0])) >= 0.0
    for name, (b, want, _) in _CONTACTS.items():
        assert _clip_overlap(rect_corners(*a), rect_corners(*b)) == want, name
        assert rects_overlap(a, b) == want, name
        assert rects_overlap(b, a) == want, name
    for key, ra, rb in _rotated_contacts():
        a, b = rect_corners(*ra), rect_corners(*rb)
        assert rects_overlap(ra, rb) == _clip_overlap(a, b), key
        assert rects_overlap(rb, ra) == _clip_overlap(b, a), key


# ---- which pairs the centre bands settle without the clip ----

def _band_margin(a, b, sizes) -> float:
    """How far (m) the pair lies inside ``rects_overlap``'s nearer band.

    Positive inside the gap band (a gap wider than SAT_GAP) or the depth
    band (depth * shortest side > SAT_DEPTH * sum of sides), negative
    between them, where ``rects_overlap`` runs the clip.
    """
    over = _sat_min_overlap(a, b)
    return max(-SAT_GAP - over, over - SAT_DEPTH * sum(sizes) / min(sizes))


def test_centre_test_is_the_clip_predicate_where_it_settles(monkeypatch):
    # on the near-contact pairs: a pair the centre bands settle, in both
    # argument orders alike, must get the clip's answer; a pair 1e-5 m inside
    # a band must never reach the clip, and one 1e-5 m outside both always
    clips = _clip_calls(monkeypatch)
    n_settled = n_deferred = 0
    for i, gap, ra, rb in _near_contact_pairs():
        a, b = rect_corners(*ra), rect_corners(*rb)
        got = rects_overlap(ra, rb)
        settled = not clips
        assert rects_overlap(rb, ra) is got, (i, gap)
        assert len(clips) == (0 if settled else 2), (i, gap)
        clips.clear()
        margin = _band_margin(a, b, (ra.w, ra.l, rb.w, rb.l))
        if settled:
            n_settled += 1
            assert margin > -1e-5, (i, gap, margin)
            assert got == _clip_overlap(a, b) == _clip_overlap(b, a), (i, gap)
        else:
            n_deferred += 1
            assert margin < 1e-5, (i, gap, margin)
    assert n_settled > 800 and n_deferred > 1500, (n_settled, n_deferred)   # 938, 2062


def test_centre_test_defers_on_the_adversarial_contacts(monkeypatch):
    # only the clear overlaps and the clear gap of ``_CONTACTS`` may be
    # settled without the clip
    clips = _clip_calls(monkeypatch)
    a = Rect(0.0, 0.0, 2.0, 4.0, 0.0)
    for name, (b, want, settles) in _CONTACTS.items():
        for p, q in ((a, b), (b, a)):
            assert rects_overlap(p, q) is want, name
            assert (not clips) is settles, name
            clips.clear()
    for key, ra, rb in _rotated_contacts():
        for p, q in ((ra, rb), (rb, ra)):
            rects_overlap(p, q)
            assert len(clips) == 1, key
            clips.clear()
