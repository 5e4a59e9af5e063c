"""Metrics, baselines and sweep harness."""
import collections
import contextlib
import dataclasses
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import viewfuse.eval
from viewfuse.eval import (
    IOU_MARGIN,
    IOU_THRESHOLDS,
    NMS_IOU,
    PIPELINES,
    Detection,
    _scene_record,
    average_precision,
    ablation_ladder,
    detection_to_frame,
    evaluate_scene,
    evaluate_scenes,
    iou_bounds,
    iou_matrix,
    match_detections,
    nms_rotated,
    rotated_iou_bev,
    rows_to_detections,
    run_fusion,
    run_late_fusion,
    sweep,
)
from viewfuse.geometry import clip_convex, polygon_area, rect_corners
from viewfuse.model import (FLAGS_LATE, FLAGS_SOLO, ego_frame_targets,
                            model_forward, train_step)
from viewfuse.scene import GtBox, generate_scene
from viewfuse.tensor import Adam

import eval_reference as ref
from small import small_model, small_scene_cfg


def det(x=0.0, y=0.0, z=0.5, w=2.0, l=4.0, h=1.5, yaw=0.0, conf=0.9):
    return Detection(x=x, y=y, z=z, w=w, l=l, h=h, yaw=yaw, confidence=conf)


def gt(x=0.0, y=0.0, z=0.5, w=2.0, l=4.0, h=1.5, yaw=0.0, obj_id=0):
    return GtBox(obj_id=obj_id, x=x, y=y, z=z, w=w, l=l, h=h, yaw=yaw)


@pytest.fixture(scope="module")
def rig():
    scenes = [generate_scene(small_scene_cfg(), s) for s in (5, 6, 9)]
    return small_model(), scenes


# ---- rotated IoU ----


def test_iou_hand_cases():
    a = det(w=2.0, l=2.0)
    assert rotated_iou_bev(a, gt(w=2.0, l=2.0)) == pytest.approx(1.0, abs=1e-12)
    assert rotated_iou_bev(a, gt(x=10.0, w=2.0, l=2.0)) == 0.0
    # 2x2 squares offset by 1: intersection 2, union 6
    assert rotated_iou_bev(a, gt(x=1.0, w=2.0, l=2.0)) == pytest.approx(
        1.0 / 3.0, abs=1e-12)
    with pytest.raises(ValueError, match="positive"):
        rotated_iou_bev(a, gt(w=0.0))


def test_iou_symmetry_and_range():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = det(x=rng.uniform(-3, 3), y=rng.uniform(-3, 3),
                w=rng.uniform(0.5, 3), l=rng.uniform(0.5, 4),
                yaw=rng.uniform(-4, 4))
        b = gt(x=rng.uniform(-3, 3), y=rng.uniform(-3, 3),
               w=rng.uniform(0.5, 3), l=rng.uniform(0.5, 4),
               yaw=rng.uniform(-4, 4))
        ab = rotated_iou_bev(a, b)
        ba = rotated_iou_bev(
            det(x=b.x, y=b.y, w=b.w, l=b.l, yaw=b.yaw), GtBox(
                obj_id=0, x=a.x, y=a.y, z=a.z, w=a.w, l=a.l, h=a.h, yaw=a.yaw))
        assert abs(ab - ba) < 1e-12
        assert 0.0 <= ab <= 1.0 + 1e-12


def mc_iou(a, b, n, rng):
    """Monte-Carlo area oracle, nothing shared with the clipping path."""
    cs = np.vstack([a.corners_bev(), b.corners_bev()])
    lo, hi = cs.min(axis=0), cs.max(axis=0)
    pts = rng.uniform(lo, hi, size=(n, 2))

    def inside(box):
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        dx, dy = pts[:, 0] - box.x, pts[:, 1] - box.y
        u = c * dx + s * dy
        v = -s * dx + c * dy
        return (np.abs(u) <= box.l / 2) & (np.abs(v) <= box.w / 2)

    in_a, in_b = inside(a), inside(b)
    union = np.count_nonzero(in_a | in_b)
    return np.count_nonzero(in_a & in_b) / union if union else 0.0


def test_iou_against_monte_carlo():
    rng = np.random.default_rng(1)
    for _ in range(25):
        a = det(x=rng.uniform(-2, 2), y=rng.uniform(-2, 2),
                w=rng.uniform(0.8, 3), l=rng.uniform(0.8, 4),
                yaw=rng.uniform(-4, 4))
        b = det(x=rng.uniform(-2, 2), y=rng.uniform(-2, 2),
                w=rng.uniform(0.8, 3), l=rng.uniform(0.8, 4),
                yaw=rng.uniform(-4, 4))
        exact = rotated_iou_bev(a, b)
        approx = mc_iou(a, b, 200_000, rng)
        assert abs(exact - approx) < 0.015


def oracle_corpus(rng):
    """Box pairs for the bit-identity test, ordinary and degenerate."""
    pairs = []
    # near pairs over the decoder's working range of sizes
    for _ in range(3000):
        wa, la, wb, lb = np.exp(rng.uniform(-4.0, 2.5, 4))
        a = det(x=rng.uniform(-60, 60), y=rng.uniform(-60, 60), w=wa, l=la,
                yaw=rng.uniform(-4, 4))
        r = 0.5 * (math.hypot(wa, la) + math.hypot(wb, lb)) * rng.uniform(0, 1.1)
        t = rng.uniform(-math.pi, math.pi)
        pairs.append((a, det(x=a.x + r * math.cos(t), y=a.y + r * math.sin(t),
                             w=wb, l=lb, yaw=rng.uniform(-4, 4))))
    for _ in range(100):
        a = det(x=rng.uniform(-30, 30), y=rng.uniform(-30, 30),
                w=rng.uniform(0.5, 3), l=rng.uniform(1, 6), yaw=rng.uniform(-4, 4))
        # identical, turned by 180 degrees, and contained
        pairs.append((a, dataclasses.replace(a)))
        pairs.append((a, dataclasses.replace(a, yaw=a.yaw + math.pi)))
        m = rng.uniform(0.05, 0.6) * min(a.w, a.l)
        pairs.append((a, dataclasses.replace(
            a, x=a.x + 0.1 * m, w=m, l=m, yaw=rng.uniform(-4, 4))))
        # 1e-9 m wide, across the box and along its edge
        pairs.append((a, dataclasses.replace(a, w=1e-9, yaw=a.yaw + 0.7)))
        pairs.append((a, dataclasses.replace(
            a, x=a.x - 0.5 * a.w * math.sin(a.yaw),
            y=a.y + 0.5 * a.w * math.cos(a.yaw), w=1e-9)))
        # centres at 1e3 m
        b = dataclasses.replace(a, x=a.x + 1e3, y=a.y - 1e3)
        pairs.append((b, dataclasses.replace(
            b, x=b.x + rng.uniform(-2, 2), yaw=rng.uniform(-4, 4))))
    # edge contact: shared edges, flush and offset, axis-aligned and turned
    for yaw in (0.0, 0.3, math.pi / 2, -2.4):
        c, s = math.cos(yaw), math.sin(yaw)
        for along, across in ((4.0, 0.0), (4.0, 1.0), (0.0, 2.0), (1.5, 2.0)):
            a = det(x=1.5, y=-0.5, yaw=yaw)
            pairs.append((a, det(x=1.5 + c * along - s * across,
                                 y=-0.5 + s * along + c * across, yaw=yaw)))
    # corner contact, diagonals on the centre line, within 1e-9 m
    for theta in (0.0, 0.3, 1.1, -2.4):
        d = 0.5 * (math.hypot(2.0, 4.0) + math.hypot(1.0, 3.0))
        for gap in (0.0, 1e-9, -1e-9):
            pairs.append((
                det(yaw=theta - math.atan2(2.0, 4.0)),
                det(x=(d + gap) * math.cos(theta), y=(d + gap) * math.sin(theta),
                    w=1.0, l=3.0, yaw=theta - math.atan2(1.0, 3.0))))
    # signed zeros, a NaN centre and an inf centre
    zero = det(x=-0.0, y=-0.0, yaw=-0.0)
    pairs += [(zero, det()), (zero, det(x=-0.0, w=1.0, l=1.0)),
              (det(x=math.nan), det()), (det(y=math.inf), det())]
    return pairs


def test_clip_area_and_iou_equal_the_numpy_scalar_reference():
    """Python-float clipping gives the numpy-scalar loop's bits: every
    vertex, every area and every IoU."""
    rng = np.random.default_rng(11)
    pairs = oracle_corpus(rng)
    polys = []
    for a, b in pairs:
        ca = rect_corners(a.x, a.y, a.w, a.l, a.yaw)
        cb = rect_corners(b.x, b.y, b.w, b.l, b.yaw)
        polys += [(ca, cb), (cb, ca)]
    # a triangle and a pentagon, as subject and as clip
    tri = np.array([[0.0, 0.0], [3.0, 0.2], [1.1, 2.5]])
    pent = np.array([[math.cos(t), math.sin(t)] for t in
                     np.linspace(0.3, 0.3 + 2 * math.pi, 5, endpoint=False)])
    for _ in range(200):
        off = rng.uniform(-2, 2, 2)
        rect = rect_corners(*rng.uniform(-1, 1, 2), *np.exp(rng.uniform(-1, 1, 2)),
                            rng.uniform(-4, 4))
        for shape in (tri + off, 1.7 * pent + off):
            polys += [(shape, rect), (rect, shape), (shape, tri), (pent, shape)]
    n_clipped = 0
    with np.errstate(all="ignore"):
        for subject, clip in polys:
            got, want = clip_convex(subject, clip), ref.clip_convex(subject, clip)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert polygon_area(got).hex() == ref.polygon_area(want).hex()
            n_clipped += len(got) >= 3
        for a, b in pairs:
            for p, q in ((a, b), (b, a)):
                assert rotated_iou_bev(p, q).hex() == ref.rotated_iou(p, q).hex()
    assert n_clipped > len(polys) // 2


def _pooled_detections(rig):
    """Fresh detections and GT of the rig's scenes, pooled in one frame.

    The untrained model puts every scene's boxes near the same anchors, so
    the pool has many overlapping detections for NMS to suppress.
    """
    model, scenes = rig
    dets, gts = [], []
    for scene in scenes:
        dets += evaluate_scene(model, scene, FLAGS_SOLO)[0]
        gts += ego_frame_targets(scene, model.spec, model.cfg.vis_min)
    return dets, gts


def test_iou_matrix_and_nms_on_scene_detections_equal_the_reference(
        rig, monkeypatch):
    dets, gts = _pooled_detections(rig)
    kept = nms_rotated(dets)
    iou = iou_matrix(dets, gts, rotated_iou_bev)
    assert [[v.hex() for v in row] for row in iou.tolist()] == [
        [ref.rotated_iou(d, g).hex() for g in gts] for d in dets]
    assert (iou > 0.0).sum() >= len(dets)
    # the reference NMS on the reference IoU, which takes fresh corners
    monkeypatch.setattr(ref, "rotated_iou_bev", ref.rotated_iou)
    assert [id(d) for d in kept] == [id(d) for d in ref.nms_rotated(dets)]
    assert len(kept) < len(dets) // 2


def test_corners_once_per_box(rig, monkeypatch):
    dets, gts = _pooled_detections(rig)
    calls = []

    def counting(*args):
        calls.append(args)
        return rect_corners(*args)

    monkeypatch.setattr(viewfuse.eval, "rect_corners", counting)
    nms_rotated(dets)
    match_detections(dets, gts)
    # the pairs the screen admits to the clip
    n_pairs = int((iou_bounds(dets, dets) > NMS_IOU).sum()
                  + (iou_bounds(dets, gts) > IOU_THRESHOLDS[0]).sum())
    assert len(calls) <= len(dets) + len(gts) < n_pairs
    # a second pass over the same boxes reuses every corner
    first = len(calls)
    nms_rotated(dets)
    match_detections(dets, gts)
    assert len(calls) == first


def test_moved_box_gets_new_corners():
    a, b = det(), gt(x=1.0, yaw=0.4)
    first = rotated_iou_bev(a, b)
    a.x = 0.5
    b.yaw = -0.2
    moved = rotated_iou_bev(a, b)
    assert moved != first
    assert moved.hex() == ref.rotated_iou(a, b).hex()
    # boxes without an instance dict take fresh corners on every call
    Box = collections.namedtuple("Box", "x y w l yaw")
    assert rotated_iou_bev(Box(0.5, 0.0, 2.0, 4.0, 0.0), b).hex() == moved.hex()


# ---- report rounding ----


def test_rows_to_detections_gives_python_floats():
    rows = np.random.default_rng(3).normal(size=(5, 8))
    for d in rows_to_detections(rows):
        assert all(type(v) is float for v in dataclasses.astuple(d))
    assert rows_to_detections(np.zeros((0, 8))) == []


def test_scene_record_rounds_near_ties_like_python():
    """Values halfway between two 9-decimal numbers, where numpy's round
    (scale, rint, unscale) and Python's correctly rounded one can differ."""
    rng = np.random.default_rng(4)
    rows = (10 * rng.integers(-10**10, 10**10, (64, 8)) + 5) / 1e10
    want = [[round(float(v), 9) for v in row] for row in rows]
    assert any(round(v, 9) != round(float(v), 9) for v in rows.ravel())
    for dets in (rows_to_detections(rows),
                 [Detection(*r[1:], confidence=r[0]) for r in rows]):
        rec = _scene_record(0, dets, 0, 0)
        assert rec["detections"] == want
        assert json.dumps(rec["detections"]) == json.dumps(want)


# ---- AP ----


def test_ap_hand_cases():
    assert average_precision([(0.9, True)], 1) == pytest.approx(1.0)
    assert average_precision([], 2) == 0.0
    assert average_precision([(0.9, True), (0.8, False)], 2) == pytest.approx(0.5)
    assert average_precision([(0.9, False), (0.8, True)], 1) == pytest.approx(0.5)
    # precisions 1, 1, 2/3 at recalls .25, .5, .5 over four GT
    assert average_precision(
        [(0.9, True), (0.7, True), (0.5, False)], 4) == pytest.approx(0.5)


def test_matching_greedy_one_to_one():
    dets = [det(x=0.0, conf=0.9), det(x=0.4, conf=0.8), det(x=9.0, conf=0.7)]
    gts = [gt(x=0.0)]
    flags = match_detections(dets, gts)[0.5]
    assert flags == [True, False, False]
    # lower-confidence duplicate cannot steal a taken GT
    flags2 = match_detections(dets, [gt(x=0.0), gt(x=9.0)])[0.5]
    assert flags2 == [True, False, True]


def test_nms_suppresses_duplicates():
    a = det(conf=0.9)
    b = det(x=0.1, conf=0.8)
    c = det(x=12.0, conf=0.7)
    kept = nms_rotated([a, b, c], 0.5)
    assert kept == [a, c]


def _size(rng):
    """Mostly car-scale; one draw in five from the decoder's whole
    exp(clip(., -8, 8)) output range."""
    if rng.random() < 0.2:
        return float(np.exp(rng.uniform(-8.0, 8.0)))
    return float(np.exp(rng.uniform(np.log(0.3), np.log(8.0))))


def _cluster(rng):
    """Dense seeded scene: detections jittered off GT boxes at several
    scales (straddling the thresholds), stray boxes, exact duplicates, and
    confidences on a 0.1 grid so ties occur."""
    gts = [gt(x=rng.uniform(-6, 6), y=rng.uniform(-6, 6), w=_size(rng),
              l=_size(rng), yaw=rng.uniform(-4, 4), obj_id=k)
           for k in range(int(rng.integers(0, 9)))]
    dets = []
    for _ in range(int(rng.integers(0, 18))):
        conf = round(float(rng.uniform(0.05, 0.95)), 1)
        if gts and rng.random() < 0.6:
            g = gts[int(rng.integers(len(gts)))]
            s = float(rng.choice([0.0, 0.02, 0.2, 0.6]))
            d = det(x=g.x + rng.normal(0, s), y=g.y + rng.normal(0, s),
                    w=g.w * np.exp(rng.normal(0, s / 2)),
                    l=g.l * np.exp(rng.normal(0, s / 2)),
                    yaw=g.yaw + rng.normal(0, s), conf=conf)
        else:
            d = det(x=rng.uniform(-8, 8), y=rng.uniform(-8, 8), w=_size(rng),
                    l=_size(rng), yaw=rng.uniform(-4, 4), conf=conf)
        dets.append(d)
        if rng.random() < 0.15:
            dets.append(dataclasses.replace(d))
    return dets, gts


def test_matching_and_nms_equal_the_all_pairs_reference():
    rng = np.random.default_rng(8)
    n_tp = n_suppressed = n_far = 0
    for _ in range(300):
        dets, gts = _cluster(rng)
        got = match_detections(dets, gts)
        assert list(got) == list(IOU_THRESHOLDS)
        for t in IOU_THRESHOLDS:
            assert got[t] == ref.match_detections(dets, gts, t)
            n_tp += sum(got[t])
        for thr in (NMS_IOU, 0.1):
            kept = nms_rotated(dets, thr)
            assert [id(d) for d in kept] == [
                id(d) for d in ref.nms_rotated(dets, thr)]
            n_suppressed += len(dets) - len(kept)
        n_far += int((iou_bounds(dets, dets) <= NMS_IOU).sum())
    # the clusters exercise matches, suppression and the screen
    assert n_tp > 500 and n_suppressed > 500 and n_far > 5000


def test_cull_is_exact_at_corner_contact():
    """Diagonals on the centre line, corner to corner: pairs that touch
    within rounding. Screened or not, the IoU equals the clip."""
    sizes = [((2.0, 4.0), (2.0, 4.0)), ((2.5, 2.5), (1.0, 12.0)),
             ((0.05, 4.0), (1.8, 4.5)), ((0.05, 6.0), (0.02, 3.0))]
    for (wa, la), (wb, lb) in sizes:
        # the first direction puts box a axis-aligned
        for theta in (math.atan2(wa, la), 0.0, 0.3, 1.1, -2.4, math.pi / 2):
            ra, rb = 0.5 * math.hypot(wa, la), 0.5 * math.hypot(wb, lb)
            c, s = math.cos(theta), math.sin(theta)
            for gap in (0.0, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -1e-3):
                # a's corner (l/2, w/2) and b's corner (-l/2, -w/2) face
                # each other along theta, ``gap`` apart
                a = det(x=1.5, y=-0.5, w=wa, l=la,
                        yaw=theta - math.atan2(wa, la))
                b = gt(x=1.5 + (ra + rb + gap) * c,
                       y=-0.5 + (ra + rb + gap) * s, w=wb, l=lb,
                       yaw=theta - math.atan2(wb, lb))
                direct = rotated_iou_bev(a, b)
                screened = iou_matrix([a], [b], rotated_iou_bev)[0, 0]
                assert screened.hex() == direct.hex(), (wa, la, theta, gap)
                bound = iou_bounds([a], [b])[0, 0]
                assert bound >= direct
                if gap <= -1e-6:
                    assert direct > 0.0
                if gap >= 1e-3:
                    assert bound == 0.0, (wa, la, theta, gap)


def _bound_corpus(rng):
    """Seeded random pairs, then identical, axis-aligned and corner-contact
    ones, for the bound-soundness test."""
    pairs = []
    for _ in range(10_000):
        off = rng.uniform(-100.0, 100.0, 2)
        r, t = rng.uniform(0.0, 8.0), rng.uniform(-math.pi, math.pi)
        wa, la, wb, lb = rng.uniform(0.05, 12.0, 4)
        pairs.append((det(x=off[0], y=off[1], w=wa, l=la,
                          yaw=rng.uniform(-4, 4)),
                      gt(x=off[0] + r * math.cos(t), y=off[1] + r * math.sin(t),
                         w=wb, l=lb, yaw=rng.uniform(-4, 4))))
    for _ in range(200):
        a = det(x=rng.uniform(-100, 100), y=rng.uniform(-100, 100),
                w=rng.uniform(0.05, 12), l=rng.uniform(0.05, 12),
                yaw=rng.uniform(-4, 4))
        pairs.append((a, dataclasses.replace(a)))
        # same heading, where the bound is the exact IoU but for the pad
        pairs.append((a, dataclasses.replace(
            a, x=a.x + rng.uniform(-3, 3), y=a.y + rng.uniform(-3, 3),
            w=rng.uniform(0.05, 12), l=rng.uniform(0.05, 12),
            yaw=a.yaw + math.pi * int(rng.integers(0, 4)) / 2)))
    for theta in (0.0, 0.3, 1.1, -2.4):
        d = 0.5 * (math.hypot(2.0, 4.0) + math.hypot(1.0, 3.0))
        for gap in (0.0, 1e-9, -1e-9, 1e-6, -1e-6):
            pairs.append((
                det(yaw=theta - math.atan2(2.0, 4.0)),
                det(x=(d + gap) * math.cos(theta), y=(d + gap) * math.sin(theta),
                    w=1.0, l=3.0, yaw=theta - math.atan2(1.0, 3.0))))
    return pairs


def test_iou_bounds_are_at_least_the_clip():
    rng = np.random.default_rng(29)
    n_zero = n_screened = 0
    for a, b in _bound_corpus(rng):
        bound = iou_bounds([a], [b])[0, 0]
        exact = rotated_iou_bev(a, b)
        # the geometric bound alone covers the clip; the margin is spare
        assert bound - IOU_MARGIN >= exact or bound == exact == 0.0, (a, b)
        assert bound == iou_bounds([b], [a])[0, 0]
        n_zero += bound == 0.0
        n_screened += bound <= IOU_THRESHOLDS[0]
    # the screen settles most pairs, many as provably disjoint
    assert n_zero > 1500 and n_screened > 6000


def test_nan_boxes_reach_the_clip(monkeypatch):
    nan_box = det(x=math.nan)
    assert math.isnan(iou_bounds([nan_box], [det()])[0, 0])
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return rotated_iou_bev(a, b)

    assert iou_matrix([nan_box], [gt()], counting, IOU_THRESHOLDS[0]).shape == (1, 1)
    assert match_detections([nan_box], [gt()], iou_fn=counting) == {
        t: [False] for t in IOU_THRESHOLDS}
    assert len(calls) == 2
    monkeypatch.setattr(viewfuse.eval, "rotated_iou_bev", counting)
    nms_rotated([det(), dataclasses.replace(nan_box, confidence=0.5)])
    assert len(calls) == 3
    # empty lists give empty bounds
    assert iou_bounds([], [gt()]).shape == (0, 1)
    assert iou_bounds([det()], []).shape == (1, 0)
    assert match_detections([], []) == {t: [] for t in IOU_THRESHOLDS}
    assert nms_rotated([]) == []


def test_cull_keeps_size_validation():
    far = 1e3   # beyond every other box, where the cull skips the IoU
    for bad in (dict(w=0.0), dict(l=-1.0)):
        with pytest.raises(ValueError, match="positive"):
            match_detections([det(), det(x=far, **bad)], [gt()])
        with pytest.raises(ValueError, match="positive"):
            match_detections([det()], [gt(), gt(x=far, **bad)])
        with pytest.raises(ValueError, match="positive"):
            nms_rotated([det(), det(x=far, conf=0.5, **bad)])


def test_matching_and_nms_on_empty_lists():
    assert match_detections([], [gt()]) == {t: [] for t in IOU_THRESHOLDS}
    assert match_detections([det(), det(x=5.0)], []) == {
        t: [False, False] for t in IOU_THRESHOLDS}
    assert nms_rotated([]) == []


def test_detection_frame_transform():
    from viewfuse.geometry import Pose, relative_pose
    sender = Pose(3.0, -2.0, 0.0, 0.7)
    ego = Pose(-1.0, 0.5, 0.0, -0.4)
    d = det(x=2.0, y=1.0, yaw=0.3)
    t = relative_pose(ego, sender)
    moved = detection_to_frame(d, t)
    # oracle: world round trip through both agent frames
    from viewfuse.geometry import apply_pose, invert
    world = apply_pose(sender, np.array([[d.x, d.y, d.z]]))[0]
    local = apply_pose(invert(ego), world[None, :])[0]
    np.testing.assert_allclose([moved.x, moved.y, moved.z], local, atol=1e-12)
    assert moved.yaw == pytest.approx(d.yaw + sender.yaw - ego.yaw)


# ---- harness ----


def test_report_structure_and_determinism(rig):
    model, scenes = rig
    r1 = run_fusion(model, scenes, eval_seed=3, fingerprint="fp")
    r2 = run_fusion(model, scenes, eval_seed=3, fingerprint="fp")
    assert r1.to_jsonl() == r2.to_jsonl()
    lines = [json.loads(x) for x in r1.to_jsonl().splitlines()]
    assert [x["record"] for x in lines] == ["scene"] * len(scenes) + ["summary"]
    assert lines[-1]["label"] == "fused"
    assert set(lines[-1]["ap"]) == {"0.30", "0.50", "0.70"}
    assert all(0.0 <= v <= 1.0 for v in lines[-1]["ap"].values())
    assert r1.total_bytes > 0
    assert r1.comm_log2 == pytest.approx(math.log2(r1.total_bytes))
    assert r1.ap[0.7] <= r1.ap[0.5] + 1e-12
    assert r1.ap[0.5] <= r1.ap[0.3] + 1e-12


def test_scene_record_keys_match_formats_doc(rig):
    model, scenes = rig
    rec, = run_fusion(model, scenes[:1]).per_scene
    assert set(rec) == {"record", "scene", "n_gt", "n_detections", "bytes",
                        "detections"}
    assert rec["scene"] == scenes[0].seed
    assert rec["n_detections"] == len(rec["detections"])
    doc = (Path(__file__).resolve().parents[1] / "docs" / "formats.md").read_text()
    example = doc[doc.index('{"record": "scene"'):doc.index('{"record": "summary"')]
    assert set(re.findall(r'"(\w+)":', example)) == set(rec)


def test_no_collab_sends_nothing(rig):
    model, scenes = rig
    r = evaluate_scenes(model, scenes, PIPELINES["no_collab"],
                        label="no_collab")
    assert r.total_bytes == 0
    assert r.comm_log2 is None


def test_single_agent_late_equals_no_collab():
    model = small_model()
    scenes = [generate_scene(small_scene_cfg(n_agents=1), s) for s in (3, 7)]
    a = evaluate_scenes(model, scenes, PIPELINES["no_collab"],
                        label="no_collab")
    b = run_late_fusion(model, scenes)
    assert a.ap == b.ap
    assert a.per_scene == b.per_scene
    assert b.total_bytes == 0


def test_late_fusion_bytes_are_pure_detections(rig):
    model, scenes = rig
    # untrained confidences sit near sigmoid(-2), below the default send
    # threshold; lower it so the collaborators actually transmit
    r = run_late_fusion(model, scenes, c_thre=0.05)
    assert r.total_bytes > 0
    assert r.total_bytes % 41 == 0


# ---- graph-free evaluation ----


def test_graph_free_evaluation_gives_the_same_bits(monkeypatch):
    # a noisy fused scene and a 3-agent late scene, against the same code
    # with recording left on: each forward then builds its graph
    model = small_model()
    cases = ((generate_scene(small_scene_cfg(), 6), PIPELINES["fused"], 0.3),
             (generate_scene(small_scene_cfg(n_agents=3), 6),
              PIPELINES["late"], 0.0))
    fbevs = []

    def spy(*a, **k):
        fr = model_forward(*a, **k)
        fbevs.append(fr.fbev)
        return fr

    monkeypatch.setattr(viewfuse.eval, "model_forward", spy)

    def run():
        fbevs.clear()
        return [evaluate_scene(model, scene, flags, noise_sigma=sigma)
                for scene, flags, sigma in cases]

    got = run()
    assert len(fbevs) == 4 and all(t._parents == () for t in fbevs)
    monkeypatch.setattr(viewfuse.eval, "no_grad", contextlib.nullcontext)
    want = run()
    assert len(fbevs) == 4 and all(t._parents != () for t in fbevs)
    assert got == want
    assert all(ledger.total_bytes > 0 for _, ledger in got)


def test_train_step_records_after_a_failed_evaluation():
    model = small_model()
    with pytest.raises(ValueError, match="channels"):
        evaluate_scene(model, generate_scene(small_scene_cfg(feat_c=8), 5),
                       PIPELINES["fused"])
    train_step([generate_scene(small_scene_cfg(), 5)], model,
               Adam(model.params(), lr=2e-3))
    assert all(t.grad is not None and np.all(np.isfinite(t.grad))
               for t in model.params().values())


def test_late_evaluation_holds_less_than_one_graph():
    model = small_model()
    scene = generate_scene(small_scene_cfg(n_agents=3), 6)

    def forward():
        return model_forward(model, scene, FLAGS_LATE, wire=True,
                             detector_mode="infer")

    def late():
        return evaluate_scene(model, scene, FLAGS_LATE)

    def peak(fn):
        fn()    # first-call caches
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, evaluated = peak(forward), peak(late)
    assert evaluated < one, (evaluated, one)


def test_ablation_ladder_rows(rig):
    model, scenes = rig
    models = {name: model for name in
              ("late", "ifa", "ifa+cdqa", "ifa+cdqa+mask")}
    rows = ablation_ladder(models, scenes[:2])
    assert [r.label for r in rows] == ["late", "ifa", "ifa+cdqa",
                                      "ifa+cdqa+mask"]
    by = {r.label: r for r in rows}
    assert by["ifa+cdqa+mask"].total_bytes < by["ifa+cdqa"].total_bytes
    with pytest.raises(ValueError, match="ladder"):
        ablation_ladder({"late": model}, scenes[:1])


def test_sweep_noise_zero_matches_base(rig):
    model, scenes = rig
    base = run_fusion(model, scenes, eval_seed=2)
    pts = sweep("noise_sigma", [0.0, 0.3], model, scenes, eval_seed=2)
    assert pts[0].ap == base.ap
    assert pts[0].per_scene == base.per_scene
    assert pts[1].label == "fused:noise_sigma=0.3"


def test_sweep_agents_shares_targets(rig):
    model, scenes = rig
    pts = sweep("n_agents", [1, 2], model, scenes)
    assert [p.label for p in pts] == ["fused:n_agents=1", "fused:n_agents=2"]
    # identical task: per-scene GT counts agree across sweep points
    for a, b in zip(pts[0].per_scene, pts[1].per_scene):
        assert a["n_gt"] == b["n_gt"]
    assert pts[0].total_bytes == 0


def test_sweep_c_thre_monotone_bytes(rig):
    model, scenes = rig
    pts = sweep("c_thre", [0.0, 0.3, 0.6, 1.0], model, scenes)
    bytes_seq = [p.total_bytes for p in pts]
    assert all(x >= y for x, y in zip(bytes_seq, bytes_seq[1:]))
    assert bytes_seq[-1] == 0


def test_sweep_validation(rig):
    model, scenes = rig
    with pytest.raises(ValueError, match="axis"):
        sweep("bogus", [1], model, scenes)
    with pytest.raises(ValueError, match="value"):
        sweep("noise_sigma", [], model, scenes)


def test_report_save_round_trip(rig, tmp_path):
    model, scenes = rig
    r = run_fusion(model, scenes[:1])
    p = tmp_path / "report.jsonl"
    r.save(p)
    txt = p.read_text()
    assert txt == r.to_jsonl()
    for line in txt.splitlines():
        json.loads(line)
