"""Reference implementations of rotated IoU, AP matching and NMS, kept as
test oracles.

``clip_convex`` and ``polygon_area`` run Sutherland-Hodgman and the shoelace
on numpy scalars, and ``rotated_iou`` combines them as ``rotated_iou_bev``
did; the library's versions must give the same bits.

``match_detections`` and ``nms_rotated`` are the all-pairs loops: every
detection is compared with every free GT (or every kept detection) through
the exact ``rotated_iou_bev``, with no cull. The library's versions skip
pairs whose ``iou_bounds`` settle them and share one IoU matrix across
thresholds; their decisions must equal these loops exactly.
"""
from __future__ import annotations

import numpy as np

from viewfuse.eval import NMS_IOU, rotated_iou_bev
from viewfuse.geometry import rect_corners


def polygon_area(poly: np.ndarray) -> float:
    """Shoelace area; positive for CCW winding."""
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def clip_convex(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman: clip ``subject`` by convex CCW polygon ``clip``."""
    out = [tuple(p) for p in subject]
    n = len(clip)
    for i in range(n):
        if not out:
            break
        ax, ay = clip[i]
        bx, by = clip[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        inp = out
        out = []
        prev = inp[-1]
        cp = ex * (prev[1] - ay) - ey * (prev[0] - ax)
        for cur in inp:
            cc = ex * (cur[1] - ay) - ey * (cur[0] - ax)
            if (cc >= 0.0) != (cp >= 0.0):
                s = cp / (cp - cc)
                out.append((prev[0] + s * (cur[0] - prev[0]),
                            prev[1] + s * (cur[1] - prev[1])))
            if cc >= 0.0:
                out.append(cur)
            prev, cp = cur, cc
    return np.array(out) if out else np.zeros((0, 2))


def rotated_iou(a, b) -> float:
    """IoU of two yaw-rotated rectangles in the ground plane."""
    if min(a.w, a.l, b.w, b.l) <= 0.0:
        raise ValueError("boxes need positive sizes")
    ca = rect_corners(a.x, a.y, a.w, a.l, a.yaw)
    cb = rect_corners(b.x, b.y, b.w, b.l, b.yaw)
    inter_poly = clip_convex(ca, cb)
    inter = polygon_area(inter_poly) if len(inter_poly) >= 3 else 0.0
    union = a.w * a.l + b.w * b.l - inter
    return inter / union if union > 0.0 else 0.0


def match_detections(dets, gts, iou_thr: float,
                     iou_fn=rotated_iou_bev) -> list[bool]:
    """Greedy confidence-descending matching; each GT claimed at most once.

    Returns a true/false flag per detection in the original order.
    """
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].confidence, i))
    taken = [False] * len(gts)
    flags = [False] * len(dets)
    for i in order:
        # highest-IoU free GT at or above the threshold; ties to the earliest
        best, best_iou = -1, -1.0
        for g, gt in enumerate(gts):
            if taken[g]:
                continue
            iou = iou_fn(dets[i], gt)
            if iou >= iou_thr and iou > best_iou:
                best, best_iou = g, iou
        if best >= 0:
            taken[best] = True
            flags[i] = True
    return flags


def nms_rotated(dets, iou_thr: float = NMS_IOU):
    """Confidence-descending greedy suppression with rotated IoU."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].confidence, i))
    keep: list[int] = []
    for i in order:
        if all(rotated_iou_bev(dets[i], dets[j]) <= iou_thr for j in keep):
            keep.append(i)
    return [dets[i] for i in sorted(keep)]
