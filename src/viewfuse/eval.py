"""Evaluation harness.

Rotated-IoU average precision, the named pipelines (two baselines and the
component ladder), the ablation ladder, and the sweep driver (localization
noise, agent count, share threshold). Reports are line-oriented JSON: one
record per scene plus an aggregate summary.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .comms import (CommLedger, DetectionMessage, comm_volume_log2,
                    decode_detection, encode_detection)
from .decoder import decoded_rows
from .geometry import (SAT_GAP, Pose, apply_pose, clip_convex,
                       normalize_angle, polygon_area, rect_corners,
                       relative_pose)
from .model import (FLAGS_FULL, FLAGS_LATE, FLAGS_SOLO, PipelineFlags,
                    PipelineModel, ego_frame_targets, model_forward)
from .scene import GtBox, Scene, truncate_scene
from .tensor import no_grad

TAG_EVAL_NOISE = 5

IOU_THRESHOLDS = (0.30, 0.50, 0.70)

NMS_IOU = 0.5


@dataclass
class Detection:
    """One decoded box with confidence, in some agent's frame."""
    x: float
    y: float
    z: float
    w: float
    l: float
    h: float
    yaw: float
    confidence: float

    def corners_bev(self) -> np.ndarray:
        return rect_corners(self.x, self.y, self.w, self.l, self.yaw)


def rows_to_detections(rows: np.ndarray) -> list[Detection]:
    """Decoded [N,8] rows (conf, x, y, z, w, l, h, yaw) to detections.

    Every field is a Python float, as in a detection received on the wire.
    """
    return [Detection(x=r[1], y=r[2], z=r[3], w=r[4], l=r[5], h=r[6],
                      yaw=r[7], confidence=r[0])
            for r in np.asarray(rows).tolist()]


# ---- rotated IoU ----


def rotated_iou_bev(a, b) -> float:
    """IoU of two yaw-rotated rectangles in the ground plane.

    Accepts anything with x, y, w, l, yaw fields (detections or GT boxes).
    """
    if min(a.w, a.l, b.w, b.l) <= 0.0:
        raise ValueError("boxes need positive sizes")
    inter = polygon_area(clip_convex(rect_corners(a.x, a.y, a.w, a.l, a.yaw),
                                     rect_corners(b.x, b.y, b.w, b.l, b.yaw)))
    union = a.w * a.l + b.w * b.l - inter
    return inter / union if union > 0.0 else 0.0


# ---- AP ----


IOU_MARGIN = 1e-6   # far above the clip's rounding of IoU (see iou_bounds)


def iou_bounds(a, b) -> np.ndarray:
    """[len(a), len(b)] upper bounds on what ``rotated_iou_bev`` returns.

    The intersection lies in the overlap of the boxes' projections on each
    box's heading and normal (``rects_overlap``'s axes), so on either box's
    axes the product of the two overlaps, each padded by 2 * ``SAT_GAP`` and
    floored at 0, bounds its area. Counted at most at the smaller area in
    the union, that bounds the exact IoU, and ``IOU_MARGIN`` on top covers
    the clip's rounding: at |coords| < 100 m its intersection was within
    7.5e-12 m^2 of exact over 3,400 random pairs, far below ``IOU_MARGIN``
    times the union of boxes of 1e-3 m^2 or more. A bound of 0.0 is a gap
    past ``rects_overlap``'s apart band, where the clip returns nothing.
    NaN or infinite coordinates give NaN, which settles nothing. Raises on
    a non-positive size, as ``rotated_iou_bev`` would, however far apart.
    """
    pa, pb = (np.array([(r.x, r.y, r.w, r.l, r.yaw) for r in boxes],
                       dtype=np.float64).reshape(-1, 5) for boxes in (a, b))
    if (pa[:, 2:4] <= 0.0).any() or (pb[:, 2:4] <= 0.0).any():
        raise ValueError("boxes need positive sizes")
    ax, ay, aw, al, ayaw = pa.T[:, :, None]
    bx, by, bw, bl, byaw = pb.T[:, None, :]
    ac, as_, bc, bs = np.cos(ayaw), np.sin(ayaw), np.cos(byaw), np.sin(byaw)
    tx, ty = bx - ax, by - ay
    cos_ab, sin_ab = np.abs(ac * bc + as_ * bs), np.abs(as_ * bc - ac * bs)

    def overlap(p, q, d):   # of lengths p and q, centres d apart
        ov = np.minimum(np.minimum(p, q), 0.5 * (p + q) - np.abs(d))
        return np.maximum(ov + 2.0 * SAT_GAP, 0.0)

    with np.errstate(invalid="ignore"):
        inter = np.minimum(
            overlap(al, bl * cos_ab + bw * sin_ab, tx * ac + ty * as_)
            * overlap(aw, bl * sin_ab + bw * cos_ab, ty * ac - tx * as_),
            overlap(bl, al * cos_ab + aw * sin_ab, tx * bc + ty * bs)
            * overlap(bw, al * sin_ab + aw * cos_ab, ty * bc - tx * bs))
        small = np.minimum(aw * al, bw * bl)
        iou = inter / (aw * al + bw * bl - np.minimum(inter, small))
        return iou + IOU_MARGIN * (inter != 0.0)


def iou_matrix(a, b, iou_fn, floor: float = 0.0) -> np.ndarray:
    """[len(a), len(b)] IoU: ``iou_fn`` where ``iou_bounds`` exceed ``floor``
    or are NaN, 0.0 on the rest, which cannot exceed ``floor``."""
    out = np.zeros((len(a), len(b)))
    for i, j in np.argwhere(~(iou_bounds(a, b) <= floor)).tolist():
        out[i, j] = iou_fn(a[i], b[j])
    return out


def match_detections(dets: list[Detection], gts: list[GtBox],
                     iou_fn=rotated_iou_bev) -> dict[float, list[bool]]:
    """Greedy confidence-descending matching at each of ``IOU_THRESHOLDS``.

    Each GT is claimed at most once per threshold. Returns, keyed by
    threshold, a true/false flag per detection in the original order. One
    det x GT IoU matrix serves every threshold; it calls ``iou_fn`` only
    where ``iou_bounds`` exceed the lowest one, so ``iou_fn`` must not
    exceed the bound. A detection whose best IoU with any GT is below a
    threshold cannot match there and skips the search.
    """
    iou = iou_matrix(dets, gts, iou_fn, IOU_THRESHOLDS[0])
    best = iou.max(axis=1, initial=-np.inf).tolist()
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].confidence, i))
    out = {}
    for thr in IOU_THRESHOLDS:
        free = np.ones(len(gts), dtype=bool)
        flags = [False] * len(dets)
        for i in order:
            if best[i] < thr:
                continue
            hits = np.flatnonzero(free & (iou[i] >= thr))
            if len(hits):
                # highest-IoU free GT; argmax ties to the earliest
                g = hits[np.argmax(iou[i, hits])]
                free[g] = False
                flags[i] = True
        out[thr] = flags
    return out


def average_precision(scored: list[tuple[float, bool]], n_gt: int) -> float:
    """All-point interpolated AP from (confidence, is_true_positive) pairs."""
    if n_gt == 0 or not scored:
        return 0.0
    order = sorted(range(len(scored)), key=lambda i: (-scored[i][0], i))
    tp = np.cumsum([1.0 if scored[i][1] else 0.0 for i in order])
    fp = np.cumsum([0.0 if scored[i][1] else 1.0 for i in order])
    recall = tp / n_gt
    precision = tp / np.maximum(tp + fp, 1e-12)
    # precision envelope, then area under the stepwise curve
    env = np.maximum.accumulate(precision[::-1])[::-1]
    prev_r = 0.0
    area = 0.0
    for r, p in zip(recall, env):
        area += (r - prev_r) * p
        prev_r = r
    return float(area)


def nms_rotated(dets: list[Detection], iou_thr: float = NMS_IOU) -> list[Detection]:
    """Confidence-descending greedy suppression with rotated IoU.

    Only pairs whose ``iou_bounds`` exceed ``iou_thr`` reach the clip.
    """
    need = (~(iou_bounds(dets, dets) <= iou_thr)).tolist()
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].confidence, i))
    keep: list[int] = []
    for i in order:
        if all(rotated_iou_bev(dets[i], dets[j]) <= iou_thr
               for j in keep if need[i][j]):
            keep.append(i)
    return [dets[i] for i in sorted(keep)]


# ---- reports ----


@dataclass
class EvalReport:
    label: str
    ap: dict[float, float]
    comm_log2: float | None
    total_bytes: int
    n_scenes: int
    n_gt: int
    fingerprint: str
    seed: int
    per_scene: list[dict] = field(default_factory=list)

    def summary_dict(self) -> dict:
        return {
            "record": "summary",
            "label": self.label,
            "ap": {f"{t:.2f}": self.ap[t] for t in sorted(self.ap)},
            "comm_log2": self.comm_log2,
            "total_bytes": self.total_bytes,
            "n_scenes": self.n_scenes,
            "n_gt": self.n_gt,
            "fingerprint": self.fingerprint,
            "seed": self.seed,
        }

    def to_jsonl(self) -> str:
        lines = [json.dumps(rec, sort_keys=True) for rec in self.per_scene]
        lines.append(json.dumps(self.summary_dict(), sort_keys=True))
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_jsonl())


def _scene_record(scene_seed: int, dets: list[Detection], n_gt: int,
                  n_bytes: int) -> dict:
    """One report line; detection values rounded by Python's ``round()``."""
    return {
        "record": "scene",
        "scene": scene_seed,
        "n_detections": len(dets),
        "n_gt": n_gt,
        "bytes": n_bytes,
        "detections": [[round(float(v), 9) for v in
                        (d.confidence, d.x, d.y, d.z, d.w, d.l, d.h, d.yaw)]
                       for d in dets],
    }


# ---- single-scene evaluation ----


def detection_to_frame(det: Detection, t: Pose) -> Detection:
    """Re-express a detection given the sender-to-receiver transform."""
    x, y, z = apply_pose(t, [det.x, det.y, det.z]).tolist()
    return Detection(x=x, y=y, z=z, w=det.w, l=det.l, h=det.h,
                     yaw=normalize_angle(det.yaw + t.yaw),
                     confidence=det.confidence)


def _noise_rng(eval_seed: int, scene_seed: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([eval_seed, TAG_EVAL_NOISE, scene_seed]))


def evaluate_scene(model: PipelineModel, scene: Scene,
                   flags: PipelineFlags, *, noise_sigma: float = 0.0,
                   eval_seed: int = 0, c_thre: float | None = None
                   ) -> tuple[list[Detection], CommLedger]:
    """Detections in the ego frame plus the comm ledger for one scene.

    Collaborators send the instances, or under late fusion the detections,
    whose confidence exceeds ``c_thre`` (None: the trained ``model.c_thre``).
    Its forwards record no autodiff graph (``no_grad``): nothing here calls
    backward, and the values are the same.
    """
    if c_thre is None:
        c_thre = model.cfg.c_thre
    with no_grad():
        rng = _noise_rng(eval_seed, scene.seed)
        fr = model_forward(model, scene, flags, wire=True,
                           noise_sigma=noise_sigma, noise_rng=rng,
                           detector_mode="infer", c_thre=c_thre)
        dets = rows_to_detections(decoded_rows(fr.preds, model.codec))
        ledger = fr.ledger
        if flags.late_fuse and len(scene.agents) > 1:
            for j in range(1, len(scene.agents)):
                solo = model_forward(model, scene, FLAGS_SOLO, wire=True,
                                     detector_mode="infer", ego=j)
                solo_rows = decoded_rows(solo.preds, model.codec)
                # the forward already drew each collaborator's reported pose;
                # the detection transform must see the same noise realization
                t = relative_pose(scene.ego.pose, fr.believed[j])
                for n, r in enumerate(solo_rows):
                    if r[0] <= c_thre:
                        continue
                    msg = DetectionMessage(agent_id=j, index=n,
                                           box=tuple(r[1:8]), confidence=r[0])
                    msg = decode_detection(encode_detection(msg))
                    ledger.count_detection_message(msg, receiver=0)
                    d = Detection(*msg.box, confidence=msg.confidence)
                    dets.append(detection_to_frame(d, t))
            dets = nms_rotated(dets, NMS_IOU)
        return dets, ledger


# ---- full-set evaluation ----


def evaluate_scenes(model: PipelineModel, scenes: list[Scene],
                    flags: PipelineFlags, *, label: str,
                    noise_sigma: float = 0.0, eval_seed: int = 0,
                    c_thre: float | None = None,
                    fingerprint: str = "",
                    targets: dict[int, list[GtBox]] | None = None,
                    ) -> EvalReport:
    """Pooled AP over a scene set, scenes evaluated in input order.

    ``targets`` overrides per-scene GT (keyed by scene seed); sweeps that
    truncate the agent roster use it to keep the task fixed.
    """
    scored: dict[float, list[tuple[float, bool]]] = {
        t: [] for t in IOU_THRESHOLDS}
    n_gt = 0
    ledgers = []
    per_scene = []
    for scene in scenes:
        dets, ledger = evaluate_scene(
            model, scene, flags, noise_sigma=noise_sigma, eval_seed=eval_seed,
            c_thre=c_thre)
        gts = (targets[scene.seed] if targets is not None
               else ego_frame_targets(scene, model.spec, model.cfg.vis_min))
        n_gt += len(gts)
        ledgers.append(ledger)
        per_scene.append(_scene_record(scene.seed, dets, len(gts),
                                       ledger.total_bytes))
        flags_tp = match_detections(dets, gts)
        for t in IOU_THRESHOLDS:
            scored[t].extend((d.confidence, tp)
                             for d, tp in zip(dets, flags_tp[t]))
    merged = CommLedger.merge(ledgers)
    total = merged.total_bytes
    comm = comm_volume_log2(merged) if total else None
    ap = {t: average_precision(scored[t], n_gt) for t in IOU_THRESHOLDS}
    return EvalReport(label=label, ap=ap, comm_log2=comm, total_bytes=total,
                      n_scenes=len(scenes), n_gt=n_gt,
                      fingerprint=fingerprint, seed=eval_seed,
                      per_scene=per_scene)


def run_late_fusion(model, scenes, **kw) -> EvalReport:
    kw.setdefault("label", "late")
    return evaluate_scenes(model, scenes, FLAGS_LATE, **kw)


def run_fusion(model, scenes, flags: PipelineFlags = FLAGS_FULL,
               **kw) -> EvalReport:
    kw.setdefault("label", "fused")
    return evaluate_scenes(model, scenes, flags, **kw)


# ---- named pipelines and the ablation ladder ----


# report label -> flags: the two baselines, then the component ladder.
# FLAGS_FULL has two names: eval reports call it "fused" and the ladder row
# "ifa+cdqa+mask", so report_fused.jsonl, the ablation.csv rows and
# checkpoint_ifa+cdqa+mask.npz keep their names.
PIPELINES = {
    "no_collab": FLAGS_SOLO,
    "late": FLAGS_LATE,
    "ifa": PipelineFlags(ifa=True, cdqa=False, mask=False),
    "ifa+cdqa": PipelineFlags(ifa=True, cdqa=True, mask=False),
    "ifa+cdqa+mask": FLAGS_FULL,
    "fused": FLAGS_FULL,
}

LADDER = ("late", "ifa", "ifa+cdqa", "ifa+cdqa+mask")


def ablation_ladder(models: dict[str, PipelineModel], scenes: list[Scene],
                    **kw) -> list[EvalReport]:
    """The four-row component ladder; one trained model per row."""
    missing = [name for name in LADDER if name not in models]
    if missing:
        raise ValueError(f"no model for ladder rows {missing}")
    kw.pop("label", None)
    return [evaluate_scenes(models[name], scenes, PIPELINES[name], label=name,
                            **kw)
            for name in LADDER]


# ---- sweeps ----


SWEEP_AXES = ("noise_sigma", "n_agents", "c_thre")


def sweep(axis: str, values, model: PipelineModel, scenes: list[Scene],
          pipeline: str = "fused", **kw) -> list[EvalReport]:
    """One evaluation of one model per value over a shared scene set.

    Runs the ``PIPELINES`` entry ``pipeline``; a point's label is
    ``{pipeline}:{axis}={value}``.
    """
    flags = PIPELINES[pipeline]
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; one of {SWEEP_AXES}")
    if not values:
        raise ValueError("sweep needs at least one value")
    if axis == "n_agents":
        base_targets = {s.seed: ego_frame_targets(s, model.spec,
                                                  model.cfg.vis_min)
                        for s in scenes}
        return [evaluate_scenes(model, [truncate_scene(s, int(v))
                                        for s in scenes], flags,
                                label=f"{pipeline}:n_agents={int(v)}",
                                targets=base_targets, **kw)
                for v in values]
    # noise_sigma and c_thre are evaluate_scenes keywords of the same name
    return [evaluate_scenes(model, scenes, flags,
                            label=f"{pipeline}:{axis}={v:g}",
                            **{axis: float(v)}, **kw)
            for v in values]
