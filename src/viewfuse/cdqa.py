"""Turning shared 2D instances into 3D object queries.

Each shared instance contributes an appearance term (global average pool of
its cropped features through an MLP) plus a geometry term: the 2D box
corners are lifted to the camera's unit-depth plane and, together with the
camera origin, describe the viewing cone that pins down where the object
can be. Both terms live in the receiver's ego frame. The union with a
learned query table forms the decoder's hybrid query set.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    CameraModel,
    Pose,
    apply_pose,
    optical_to_local,
    unproject_feature_to_optical,
)
from .tensor import Mlp, Tensor, as_tensor, concat


@dataclass(frozen=True)
class ConeDescriptor:
    """Two lifted box corners and the camera origin, all in the ego frame."""
    p1: np.ndarray
    p2: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        for name, v in (("p1", self.p1), ("p2", self.p2), ("c", self.c)):
            if np.asarray(v).shape != (3,) or not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be a finite 3-vector")
        if np.array_equal(self.p1, self.p2):
            raise ValueError("cone corners coincide")

    def flat(self) -> np.ndarray:
        return np.concatenate([self.p1, self.p2, self.c])


def _lift(cam: CameraModel, cam_pose_in_ego: Pose, u: float,
          v: float) -> np.ndarray:
    """Feature point (u, v) on the camera's z=1 m plane, in the ego frame."""
    opt = unproject_feature_to_optical(cam, u, v)
    return apply_pose(cam_pose_in_ego, optical_to_local(opt))


def cone_descriptor(box, cam: CameraModel,
                    cam_pose_in_ego: Pose) -> ConeDescriptor:
    """Lift the corners of a 2-D box to the z=1 m plane of the camera.

    ``box`` is ``(u_min, v_min, u_max, v_max)`` in feature cells. The
    top-left and bottom-right corners are unprojected through the inverse
    intrinsics, mapped to the camera-local frame and then into the ego
    frame; ``c`` is the camera origin itself.
    """
    u_min, v_min, u_max, v_max = box
    if not (u_max > u_min or v_max > v_min):
        raise ValueError(f"degenerate instance box "
                         f"({u_min}, {v_min})-({u_max}, {v_max})")
    origin = np.array([cam_pose_in_ego.x, cam_pose_in_ego.y,
                       cam_pose_in_ego.z])
    return ConeDescriptor(p1=_lift(cam, cam_pose_in_ego, u_min, v_min),
                          p2=_lift(cam, cam_pose_in_ego, u_max, v_max),
                          c=origin)


def cone_encode(box, cam: CameraModel, cam_pose_in_ego: Pose,
                mlp: Mlp) -> Tensor:
    """Embed the cone of a 2-D box; input is the 9-value concatenation."""
    desc = cone_descriptor(box, cam, cam_pose_in_ego)
    out = mlp(Tensor(desc.flat()[None, :]))
    return out.reshape(out.shape[1])


def ground_anchor(box, cam: CameraModel,
                  cam_pose_in_ego: Pose) -> tuple[float, float] | None:
    """Ego-frame ground point under a 2-D box, or None for skyward rays.

    The ray through the bottom-edge midpoint of the box grazes the
    object's ground contact, so intersecting it with z = 0 localizes the
    object ahead of any learning. Grazing or climbing rays (the camera
    sees the box above its own horizon) have no usable intersection.
    """
    u_min, _, u_max, v_max = box
    p = _lift(cam, cam_pose_in_ego, 0.5 * (u_min + u_max), v_max)
    c = np.array([cam_pose_in_ego.x, cam_pose_in_ego.y, cam_pose_in_ego.z])
    d = p - c
    if d[2] >= -1e-9 or c[2] <= 0.0:
        return None
    t = -c[2] / d[2]
    return float(c[0] + t * d[0]), float(c[1] + t * d[1])


def instance_gap_encode(crop: Tensor, mlp: Mlp) -> Tensor:
    """Channel-wise global average pool of a crop, then an MLP projection."""
    crop = as_tensor(crop)
    if crop.ndim != 3:
        raise ValueError(f"crop must be [fC, h, w], got {crop.shape}")
    if crop.shape[1] < 1 or crop.shape[2] < 1:
        raise ValueError("empty crop cannot be pooled")
    pooled = crop.mean(axis=(1, 2))
    out = mlp(pooled.reshape(1, crop.shape[0]))
    return out.reshape(out.shape[1])


@dataclass
class HybridQueries:
    q: Tensor                 # [N_Q, C]
    n_instance: int           # rows 0..n_instance are instance-derived
    anchors: np.ndarray       # [N_Q, 2] decoder reference seeds

    def __post_init__(self):
        if self.n_instance > self.q.shape[0]:
            raise ValueError("more instance rows than queries")
        if self.anchors.shape != (self.q.shape[0], 2):
            raise ValueError("one 2d anchor per query row")


def build_hybrid_queries(encoded: list[tuple[Tensor, float]],
                         learned: Tensor, instance_anchors: list,
                         learned_anchors: np.ndarray) -> HybridQueries:
    """Stack instance-derived queries ahead of the learned table.

    ``encoded`` pairs each query vector with the source confidence; if there
    are more instances than query slots the lowest-confidence ones are
    dropped. The unfilled tail keeps the corresponding learned rows. Per-row
    decoder reference seeds are assembled the same way from
    ``instance_anchors`` (one per ``encoded`` entry) and ``learned_anchors``;
    an instance whose anchor is None falls back to its learned row's anchor.
    """
    learned = as_tensor(learned)
    n_q, c = learned.shape
    keep = list(range(len(encoded)))
    if len(keep) > n_q:
        keep = sorted(sorted(keep, key=lambda i: encoded[i][1],
                             reverse=True)[:n_q])
    n_i = len(keep)
    anchors = np.array(learned_anchors, dtype=np.float64)
    if n_i == 0:
        return HybridQueries(q=learned, n_instance=0, anchors=anchors)
    rows = [encoded[i][0].reshape(1, c) for i in keep]
    if n_i < n_q:
        rows.append(learned[n_i:])
    for row, i in enumerate(keep):
        if instance_anchors[i] is not None:
            anchors[row] = instance_anchors[i]
    return HybridQueries(q=concat(rows, axis=0), n_instance=n_i,
                         anchors=anchors)
