"""Reference implementations of AP matching and NMS, kept as test oracles.

These are the all-pairs loops: every detection is compared with every free
GT (or every kept detection) through the exact ``rotated_iou_bev``, with no
cull. The library's ``match_detections`` and ``nms_rotated`` skip pairs
whose circumcircles are apart and share one IoU matrix across thresholds;
their decisions must equal these loops exactly.
"""
from __future__ import annotations

from viewfuse.eval import NMS_IOU, rotated_iou_bev


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
