"""Synthetic multi-agent scenes and the camera-view feature renderer.

A scene is a handful of camera-ring agents plus ground-plane boxes in a
shared world frame. Rendering rasterizes each box's projected silhouette
onto the feature lattice with a per-box center-depth z-buffer, paints a
per-object random signature vector into the owned cells, adds pixel noise,
and (at the model boundary) pushes the result through a small learnable
pointwise encoder.

Occlusion is manufactured, not hoped for: a configurable fraction of boxes
is placed behind a taller occluder on the ego line of sight while staying
visible to a designated witness collaborator, and the construction is
verified against the z-buffer before a scene is accepted.

All randomness is keyed by the scene seed through tagged SeedSequences, so
identical seeds reproduce identical scenes, renders, and detector jitter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .geometry import (
    NEAR_EPS, CameraModel, Pose, normalize_angle, project_points, rect_corners,
    rects_overlap,
)
from .tensor import Mlp, Tensor

TAG_PLACE = 1
TAG_SIGNATURE = 2
TAG_PIXEL_NOISE = 3
TAG_DETECTOR = 4

POS_SNAP = 2.0 ** -20
YAW_SNAP = 2.0 ** -30


class GenerationError(RuntimeError):
    """Scene constraints could not be satisfied within the retry budget."""


def _snap(v: float, grid: float = POS_SNAP) -> float:
    return round(v / grid) * grid


@dataclass
class SceneConfig:
    n_agents: int = 2
    n_cams: int = 4
    n_objects_min: int = 10
    n_objects_max: int = 16
    occluded_fraction: float = 0.5
    range_m: float = 16.0
    feat_c: int = 32
    feat_h: int = 20
    feat_w: int = 32
    stride: int = 10
    focal_px: float = 160.0
    cam_height: float = 1.4
    pixel_noise: float = 0.05
    det_jitter_cells: float = 0.35
    det_conf_jitter: float = 0.05
    missing_view_prob: float = 0.0
    occluded_max_vis: float = 0.12
    witness_min_vis: float = 0.25
    scene_retries: int = 20

    def validate(self) -> None:
        if not (1 <= self.n_agents <= 5):
            raise ValueError(f"n_agents must be in [1, 5], got {self.n_agents}")
        if not (1 <= self.n_objects_min <= self.n_objects_max <= 40):
            raise ValueError("object count range must satisfy 1 <= min <= max <= 40")
        if not (0.0 <= self.occluded_fraction <= 0.5):
            raise ValueError(
                "occluded_fraction must be in [0, 0.5]: each occluded box "
                "consumes a dedicated occluder box")
        if self.range_m <= 4.0:
            raise ValueError("range_m too small to place anything")
        if min(self.feat_c, self.feat_h, self.feat_w, self.stride, self.n_cams) < 1:
            raise ValueError("feature dims, stride and n_cams must be positive")
        if self.pixel_noise < 0 or self.det_jitter_cells < 0 or self.det_conf_jitter < 0:
            raise ValueError("noise magnitudes must be >= 0")
        if not (0.0 <= self.missing_view_prob < 1.0):
            raise ValueError("missing_view_prob must be in [0, 1)")
        if self.focal_px <= 0:
            raise ValueError("focal_px must be > 0")
        if self.scene_retries < 1:
            raise ValueError("scene_retries must be >= 1")

    @property
    def pix_w(self) -> int:
        return self.feat_w * self.stride

    @property
    def pix_h(self) -> int:
        return self.feat_h * self.stride


@dataclass
class GtBox:
    obj_id: int
    x: float
    y: float
    z: float
    w: float
    l: float
    h: float
    yaw: float
    cls: int = 0
    occluded: bool = False

    def corners_bev(self) -> np.ndarray:
        return rect_corners(self.x, self.y, self.w, self.l, self.yaw)

    def corners_3d(self) -> np.ndarray:
        bev = self.corners_bev()
        lo = self.z - self.h / 2.0
        hi = self.z + self.h / 2.0
        out = np.zeros((8, 3))
        out[:4, :2] = bev
        out[4:, :2] = bev
        out[:4, 2] = lo
        out[4:, 2] = hi
        return out


@dataclass
class AgentRig:
    pose: Pose
    cams: tuple[CameraModel, ...]
    view_valid: tuple[bool, ...]


@dataclass
class Scene:
    seed: int
    cfg: SceneConfig
    agents: list[AgentRig]
    boxes: list[GtBox]
    _rasters: dict = field(default_factory=dict, repr=False, compare=False)
    # every box's corners and centre, built by the first raster of the scene
    _box_points: np.ndarray | None = field(default=None, init=False, repr=False,
                                           compare=False)

    @property
    def ego(self) -> AgentRig:
        return self.agents[0]


def make_ring_rig(cfg: SceneConfig, pose: Pose,
                  view_valid: tuple[bool, ...] | None = None) -> AgentRig:
    """Four (or n_cams) outward cameras, evenly spun, colocated at the center."""
    cams = []
    for k in range(cfg.n_cams):
        yaw = normalize_angle(2.0 * math.pi * k / cfg.n_cams)
        cams.append(CameraModel(
            fx=cfg.focal_px, fy=cfg.focal_px,
            cx=cfg.pix_w / 2.0, cy=cfg.pix_h / 2.0,
            pix_w=cfg.pix_w, pix_h=cfg.pix_h,
            feat_w=cfg.feat_w, feat_h=cfg.feat_h,
            pose=Pose(0.0, 0.0, cfg.cam_height, yaw)))
    if view_valid is None:
        view_valid = tuple(True for _ in cams)
    return AgentRig(pose=pose, cams=tuple(cams), view_valid=tuple(view_valid))


def truncate_scene(scene: Scene, n_agents: int) -> Scene:
    """Same world, first ``n_agents`` rigs. Used by the agent-count sweep."""
    if not (1 <= n_agents <= len(scene.agents)):
        raise ValueError(f"cannot truncate to {n_agents} of {len(scene.agents)} agents")
    return Scene(seed=scene.seed, cfg=scene.cfg, agents=scene.agents[:n_agents],
                 boxes=scene.boxes)


# ---- rasterization ----


def convex_hull_2d(pts: np.ndarray) -> np.ndarray:
    """Monotone chain; returns CCW hull, tolerates collinear input.

    Duplicates go and the rest sort by (x, y) as ``np.unique(axis=0)``
    would leave them, but on Python tuples, which is far cheaper for the
    eight corners of a box.
    """
    pts = sorted(set(map(tuple, np.asarray(pts, dtype=np.float64).tolist())))
    if len(pts) <= 2:
        return np.array(pts, dtype=np.float64).reshape(-1, 2)

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                ox, oy = out[-2]
                ax, ay = out[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) <= 0.0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


def _cells_in_hull(hull: np.ndarray, feat_w: int, feat_h: int) -> np.ndarray:
    """Boolean [feat_h, feat_w]: lattice points inside the CCW hull."""
    cover = np.zeros((feat_h, feat_w), dtype=bool)
    if len(hull) < 3:
        return cover
    hull = hull.tolist()
    us, vs = zip(*hull)
    u0 = max(0, int(math.ceil(min(us) - 1e-9)))
    u1 = min(feat_w - 1, int(math.floor(max(us) + 1e-9)))
    v0 = max(0, int(math.ceil(min(vs) - 1e-9)))
    v1 = min(feat_h - 1, int(math.floor(max(vs) + 1e-9)))
    if u1 < u0 or v1 < v0:
        return cover
    u = np.arange(u0, u1 + 1)
    v = np.arange(v0, v1 + 1)[:, None]
    inside = np.ones((v1 - v0 + 1, u1 - u0 + 1), dtype=bool)
    n = len(hull)
    for i in range(n):
        ax, ay = hull[i]
        bx, by = hull[(i + 1) % n]
        inside &= (bx - ax) * (v - ay) - (by - ay) * (u - ax) >= -1e-9
    cover[v0:v1 + 1, u0:u1 + 1] = inside
    return cover


@dataclass
class BoxRaster:
    footprint: int
    visible: int
    bbox: tuple[float, float, float, float]   # (u_min, v_min, u_max, v_max), clipped
    depth: float


@dataclass
class ViewRaster:
    owner: np.ndarray                          # [feat_h, feat_w] box index or -1
    boxes: dict[int, BoxRaster]


def _box_points(scene: Scene) -> np.ndarray:
    """[n_boxes, 9, 3]: each box's 8 corners, then its centre. Cached."""
    if scene._box_points is None:
        pts = np.empty((len(scene.boxes), 9, 3))
        for bi, box in enumerate(scene.boxes):
            pts[bi, :8] = box.corners_3d()
            pts[bi, 8] = (box.x, box.y, box.z)
        scene._box_points = pts
    return scene._box_points


def rasterize_view(scene: Scene, agent_idx: int, view_idx: int) -> ViewRaster:
    """Silhouette + center-depth z-buffer raster for one camera view. Cached.

    One ``project_points`` call maps every box's corners and centre. A box
    with a corner at depth <= ``NEAR_EPS`` straddles the focal plane and is
    not imaged. Any other box covers the lattice points inside the convex
    hull of its projected corners, and owns each covered cell where its
    centre depth is below every earlier box's (ties go to the earlier box).
    ``footprint`` counts covered cells, ``visible`` the cells owned at the
    end, and ``bbox`` is the corners' extent clipped to the lattice.
    """
    key = (agent_idx, view_idx)
    hit = scene._rasters.get(key)
    if hit is not None:
        return hit
    cfg = scene.cfg
    rig = scene.agents[agent_idx]
    owner = np.full((cfg.feat_h, cfg.feat_w), -1, dtype=np.int16)
    boxes: dict[int, BoxRaster] = {}
    if rig.view_valid[view_idx]:
        uv, depth, _ = project_points(_box_points(scene), rig.cams[view_idx], rig.pose)
        corners = uv[:, :8]
        imaged = np.flatnonzero(~np.any(depth[:, :8] <= NEAR_EPS, axis=1)).tolist()
        extent = (cfg.feat_w, cfg.feat_h)
        lo = np.clip(corners.min(axis=1), 0.0, extent).tolist()
        hi = np.clip(corners.max(axis=1), 0.0, extent).tolist()
        center_depth = depth[:, 8].tolist()
        depth_buf = np.full((cfg.feat_h, cfg.feat_w), np.inf)
        for bi in imaged:
            cover = _cells_in_hull(convex_hull_2d(corners[bi]), cfg.feat_w, cfg.feat_h)
            n_cover = int(cover.sum())
            if n_cover == 0:
                continue
            d = center_depth[bi]
            boxes[scene.boxes[bi].obj_id] = BoxRaster(
                footprint=n_cover, visible=0, bbox=(*lo[bi], *hi[bi]), depth=d)
            takes = cover & (d < depth_buf)
            owner[takes] = bi
            depth_buf[takes] = d
        counts = np.bincount(owner.ravel() + 1, minlength=len(scene.boxes) + 1)
        for bi, box in enumerate(scene.boxes):
            if box.obj_id in boxes:
                boxes[box.obj_id].visible = int(counts[bi + 1])
    raster = ViewRaster(owner=owner, boxes=boxes)
    scene._rasters[key] = raster
    return raster


def agent_visibility(scene: Scene, agent_idx: int, obj_id: int) -> float:
    """Visible / footprint cells pooled over the agent's valid views."""
    vis = 0
    foot = 0
    for k in range(len(scene.agents[agent_idx].cams)):
        br = rasterize_view(scene, agent_idx, k).boxes.get(obj_id)
        if br is not None:
            vis += br.visible
            foot += br.footprint
    return vis / foot if foot else 0.0


# ---- rendering ----


def object_signature(seed: int, obj_id: int, feat_c: int) -> np.ndarray:
    """Fixed random code for one object; identical from every view and agent."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, TAG_SIGNATURE, obj_id]))
    return rng.normal(0.0, 1.0, feat_c)


def render_raw(scene: Scene, agent_idx: int, view_idx: int) -> np.ndarray:
    """Pre-encoder signature map [feat_c, feat_h, feat_w] of a view that exists.

    Cached on the scene: the map is a pure function of (scene, agent, view),
    noise included, so repeated training passes pay the raster cost once.
    """
    key = ("raw", agent_idx, view_idx)
    hit = scene._rasters.get(key)
    if hit is not None:
        return hit
    cfg = scene.cfg
    raster = rasterize_view(scene, agent_idx, view_idx)
    lut = np.zeros((len(scene.boxes) + 1, cfg.feat_c))
    for bi, box in enumerate(scene.boxes):
        lut[bi + 1] = object_signature(scene.seed, box.obj_id, cfg.feat_c)
    out = lut[raster.owner + 1].transpose(2, 0, 1).copy()
    if cfg.pixel_noise > 0.0:
        rng = np.random.default_rng(
            np.random.SeedSequence([scene.seed, TAG_PIXEL_NOISE, agent_idx, view_idx]))
        out += rng.normal(0.0, cfg.pixel_noise, out.shape)
    scene._rasters[key] = out
    return out


def render_view_features(scene: Scene, agent_idx: int, view_idx: int,
                         encoder: Mlp) -> Tensor:
    """Raster -> signatures -> pixel noise -> pointwise encoder MLP: the
    encoded [C, feat_h, feat_w] map of a view that exists."""
    cfg = scene.cfg
    raw = render_raw(scene, agent_idx, view_idx)
    cells = Tensor(raw.reshape(cfg.feat_c, cfg.feat_h * cfg.feat_w).T)
    enc = encoder(cells)
    return enc.transpose().reshape(enc.shape[1], cfg.feat_h, cfg.feat_w)


# ---- instance detection ----


@dataclass
class Instance2D:
    u_min: float
    v_min: float
    u_max: float
    v_max: float
    confidence: float
    obj_id: int
    agent_id: int
    view_id: int


def detect_instances_2d(scene: Scene, agent_idx: int, view_idx: int,
                        mode: str = "train") -> list[Instance2D]:
    """Ground-truth-driven 2-D boxes with visible-area confidence.

    ``train`` returns exact projected boxes; ``infer`` jitters coordinates and
    confidence to mimic an imperfect detector. Objects with zero visible area
    are never reported.
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"unknown detector mode {mode!r}")
    cfg = scene.cfg
    raster = rasterize_view(scene, agent_idx, view_idx)
    if mode == "infer":
        rng = np.random.default_rng(
            np.random.SeedSequence([scene.seed, TAG_DETECTOR, agent_idx, view_idx]))
    out: list[Instance2D] = []
    for box in scene.boxes:
        br = raster.boxes.get(box.obj_id)
        if br is None or br.visible == 0 or br.footprint == 0:
            continue
        conf = br.visible / br.footprint
        u0, v0, u1, v1 = br.bbox
        if mode == "infer":
            j = cfg.det_jitter_cells
            u0, v0, u1, v1 = (c + rng.normal(0.0, j) for c in (u0, v0, u1, v1))
            u0, u1 = sorted((float(np.clip(u0, 0.0, cfg.feat_w)),
                             float(np.clip(u1, 0.0, cfg.feat_w))))
            v0, v1 = sorted((float(np.clip(v0, 0.0, cfg.feat_h)),
                             float(np.clip(v1, 0.0, cfg.feat_h))))
            conf = float(np.clip(conf + rng.normal(0.0, cfg.det_conf_jitter), 0.0, 1.0))
            if u1 - u0 < 1e-6 or v1 - v0 < 1e-6:
                continue
        out.append(Instance2D(u_min=u0, v_min=v0, u_max=u1, v_max=v1,
                              confidence=conf, obj_id=box.obj_id,
                              agent_id=agent_idx, view_id=view_idx))
    return out


# ---- generation ----


CAR_W = (1.7, 2.1)
CAR_L = (3.9, 4.8)
CAR_H = (1.45, 1.75)
TRUCK_W = (2.2, 2.5)
TRUCK_L = (4.2, 6.0)
TRUCK_H = (2.5, 3.2)
AGENT_CLEAR_W = 2.8
AGENT_CLEAR_L = 5.6
CAR_RADIUS_MAX = math.hypot(CAR_W[1], CAR_L[1]) / 2.0


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """``rng.uniform(lo, hi)`` bit for bit, at a third of its call cost.

    This is numpy's own formula (``random_uniform``: low + range *
    next_double) on the draw ``rng.random()`` takes from the same stream.
    """
    return lo + (hi - lo) * rng.random()


def _draws(rng: np.random.Generator, *bounds) -> list[float]:
    """One ``_uniform`` per ``(lo, hi)`` in ``bounds``, in order, from one
    ``rng.random(n)`` call: the same n doubles as n scalar draws."""
    return [lo + (hi - lo) * u
            for (lo, hi), u in zip(bounds, rng.random(len(bounds)).tolist())]


ANGLE = (-math.pi, math.pi)
CAR = (CAR_W, CAR_L, CAR_H)
TRUCK = (TRUCK_W, TRUCK_L, TRUCK_H)


class _Placed:
    """A placed box: its circumscribed radius and, once read, its corners.

    An occlusion target goes through draw, candidate, ``clashes``, build,
    ``_covers_fully``, ``admit``; a free box skips ``_covers_fully``. Each
    attempt takes its uniforms in one ``_draws`` call and makes a ``_Cand``
    of them. ``clashes`` tests that against every clearance and placed box,
    first by centre distance against the sum of the ``radius`` and then by
    ``rects_overlap``. Only a candidate that clashes with nothing is built
    into a ``GtBox`` and a ``_Placed``, whose corners the bearing tests of
    ``_covers_fully`` and ``admit`` read.

    ``pts``, the ``rect_corners`` output as Python floats, feeds the bearing
    spans. It is computed the first time it is read.
    """

    __slots__ = ("box", "radius", "_pts")

    def __init__(self, box: GtBox):
        self.box = box
        self.radius = math.hypot(box.w, box.l) / 2.0
        self._pts = None

    @property
    def pts(self) -> list:
        if self._pts is None:
            self._pts = self.box.corners_bev().tolist()
        return self._pts


class _Cand:
    """A drawn box, not yet built: centre and yaw snapped as a ``GtBox``
    stores them, its size and its circumscribed radius. It has every field
    ``rects_overlap`` reads."""

    __slots__ = ("x", "y", "w", "l", "h", "yaw", "radius")

    def __init__(self, x, y, yaw, w, l, h):
        self.x, self.y = _snap(x), _snap(y)
        self.yaw = _snap(normalize_angle(yaw), YAW_SNAP)
        self.w, self.l, self.h = w, l, h
        self.radius = math.hypot(w, l) / 2.0

    def build(self, obj_id: int, occluded: bool = False) -> _Placed:
        return _Placed(GtBox(obj_id=obj_id, x=self.x, y=self.y, z=self.h / 2.0,
                             w=self.w, l=self.l, h=self.h, yaw=self.yaw,
                             occluded=occluded))


def _agent_clearance(pose: Pose) -> _Placed:
    """The rectangle around an agent that no box or other agent may enter."""
    return _Placed(GtBox(obj_id=-1, x=pose.x, y=pose.y, z=0.0, w=AGENT_CLEAR_W,
                         l=AGENT_CLEAR_L, h=0.0, yaw=pose.yaw))


def _bearing_span(origin: tuple[float, float], corners, ref: float):
    rel = [normalize_angle(math.atan2(cy - origin[1], cx - origin[0]) - ref)
           for cx, cy in corners]
    return min(rel), max(rel)


# share of the target's bearing span a blocker must cover to shadow it
BLOCK_MIN_OVERLAP = 0.45


class _Sight:
    """``target`` seen from ``origin``: its distance, its bearing and, once
    read, its bearing span about that bearing."""

    __slots__ = ("origin", "target", "dist", "ref", "_span")

    def __init__(self, origin: tuple[float, float], target: _Placed):
        t = target.box
        self.origin, self.target = origin, target
        self.dist = math.hypot(t.x - origin[0], t.y - origin[1])
        self.ref = math.atan2(t.y - origin[1], t.x - origin[0])
        self._span = None

    @property
    def span(self) -> tuple[float, float]:
        if self._span is None:
            self._span = _bearing_span(self.origin, self.target.pts, self.ref)
        return self._span


def _blocks(sight: _Sight, blocker: _Placed) -> bool:
    """Approximate: does ``blocker`` shadow the target of ``sight``?"""
    origin, b, dt, ref = sight.origin, blocker.box, sight.dist, sight.ref
    db = math.hypot(b.x - origin[0], b.y - origin[1])
    if db >= dt or db < 1e-9:
        return False
    rel_c = normalize_angle(math.atan2(b.y - origin[1], b.x - origin[0]) - ref)
    reach = (math.asin(min(1.0, sight.target.radius / dt))
             + math.asin(min(1.0, blocker.radius / db)))
    if abs(rel_c) > reach:
        return False
    t_lo, t_hi = sight.span
    b_lo, b_hi = _bearing_span(origin, blocker.pts, ref)
    inter = min(t_hi, b_hi) - max(t_lo, b_lo)
    width = t_hi - t_lo
    return width > 0 and inter > BLOCK_MIN_OVERLAP * width


def _covers_fully(origin: tuple[float, float], occluder: _Placed, target: _Placed,
                  cam_h: float) -> bool:
    """Sufficient condition: occluder hides target from a camera at origin."""
    occ, tgt = occluder.box, target.box
    dt = math.hypot(tgt.x - origin[0], tgt.y - origin[1])
    do = math.hypot(occ.x - origin[0], occ.y - origin[1])
    if do >= dt:
        return False
    ref = math.atan2(tgt.y - origin[1], tgt.x - origin[0])
    t_lo, t_hi = _bearing_span(origin, target.pts, ref)
    o_lo, o_hi = _bearing_span(origin, occluder.pts, ref)
    margin = 0.015
    if not (o_lo <= t_lo - margin and o_hi >= t_hi + margin):
        return False
    # ray over the occluder top must clear the target top
    need = cam_h + (tgt.h - cam_h) * (do / dt)
    return occ.h >= need * 1.05 + 0.05


def generate_scene(cfg: SceneConfig, seed: int) -> Scene:
    """Build a verified scene; raises GenerationError when constraints fail."""
    cfg.validate()
    rng = np.random.default_rng(np.random.SeedSequence([seed, TAG_PLACE]))
    last_err = "no attempt"
    for _ in range(cfg.scene_retries):
        scene = _try_generate(cfg, seed, rng)
        if isinstance(scene, Scene):
            return scene
        last_err = scene
    raise GenerationError(f"scene {seed}: {last_err} after {cfg.scene_retries} attempts")


def _try_generate(cfg: SceneConfig, seed: int, rng: np.random.Generator):
    # agents: ego near the world center of a randomly offset frame
    ego_pose = Pose(_snap(_uniform(rng, -4.0, 4.0)), _snap(_uniform(rng, -4.0, 4.0)),
                    0.0, _snap(_uniform(rng, -math.pi, math.pi), YAW_SNAP))
    agent_poses = [ego_pose]
    clearances = [_agent_clearance(ego_pose)]
    for _ in range(cfg.n_agents - 1):
        for _attempt in range(60):
            d = _uniform(rng, 5.0, 11.0)
            phi = _uniform(rng, -math.pi, math.pi)
            pose = Pose(_snap(ego_pose.x + d * math.cos(phi)),
                        _snap(ego_pose.y + d * math.sin(phi)),
                        0.0, _snap(_uniform(rng, -math.pi, math.pi), YAW_SNAP))
            clearance = _agent_clearance(pose)
            if not any(rects_overlap(clearance.box, other.box) for other in clearances):
                agent_poses.append(pose)
                clearances.append(clearance)
                break
        else:
            return "agent placement failed"

    agents = []
    for i, pose in enumerate(agent_poses):
        valid = tuple(True if i == 0 or cfg.missing_view_prob == 0.0
                      else bool(rng.random() >= cfg.missing_view_prob)
                      for _ in range(cfg.n_cams))
        if not any(valid):
            valid = (True,) + valid[1:]
        agents.append(make_ring_rig(cfg, pose, valid))

    ego_xy = (ego_pose.x, ego_pose.y)
    collab_xy = [(p.x, p.y) for p in agent_poses[1:]]

    n_obj = int(rng.integers(cfg.n_objects_min, cfg.n_objects_max + 1))
    n_occluded = round(cfg.occluded_fraction * n_obj)
    if n_occluded > 0 and cfg.range_m - 1.5 <= 7.2:
        return "range too small for occlusion pairs"

    boxes: list[_Placed] = []
    protected: list[_Placed] = []
    # per protected target: collaborator indices with an unshadowed sight line
    clear_sets: list[list[int]] = []

    def clashes(cand: _Cand) -> bool:
        # the two tests of ``_Placed``, the radius cull inline
        x, y, r = cand.x, cand.y, cand.radius
        for others in (clearances, boxes):
            for b in others:
                if (math.hypot(x - b.box.x, y - b.box.y) <= r + b.radius
                        and rects_overlap(cand, b.box)):
                    return True
        return False

    def facing_view_ok(c: int, tgt: _Placed) -> bool:
        # ring cameras tile the circle without overlap, so a target is imaged
        # almost entirely by the camera whose sector holds its bearing
        rig = agents[c + 1]
        bearing = math.atan2(tgt.box.y - rig.pose.y, tgt.box.x - rig.pose.x)
        sector = 2.0 * math.pi / cfg.n_cams
        k = int(round(normalize_angle(bearing - rig.pose.yaw) / sector)) % cfg.n_cams
        return rig.view_valid[k]

    def seeing(cands: list[int], t: _Placed, blockers: list[_Placed]) -> list[int]:
        # the collaborators of ``cands`` that still see t past these blockers
        out = []
        for c in cands:
            sight = _Sight(collab_xy[c], t)
            if not any(_blocks(sight, b) for b in blockers):
                out.append(c)
        return out

    def admit(new: list[_Placed], tgt: _Placed | None) -> bool:
        """Commit ``new`` (ending in the new target ``tgt``, if any) unless
        a protected target, new or old, would be left without a witness."""
        if tgt is not None:
            facing = [c for c in range(len(collab_xy)) if facing_view_ok(c, tgt)]
            cs_new = seeing(facing, tgt, boxes + new[:-1])
            if collab_xy and not cs_new:
                return False
        updated = []
        for t, cs in zip(protected, clear_sets):
            kept = seeing(cs, t, new)
            if collab_xy and not kept:
                return False
            updated.append(kept)
        boxes.extend(new)
        clear_sets[:] = updated
        if tgt is not None:
            protected.append(tgt)
            clear_sets.append(cs_new)
        return True

    # per occluder in place: the occluder, the band of target distances
    # behind it, its bearing from the ego and its bearing span about that
    shadows: list[tuple] = []
    far = cfg.range_m - 1.5
    ex, ey = ego_xy
    placed_targets = 0
    for _t in range(n_occluded):
        need = n_occluded - placed_targets
        for _attempt in range(400):
            slots = n_obj - len(boxes)
            can_fresh = slots >= need + 1   # a fresh pair costs two box slots
            if not can_fresh and not shadows:
                break
            if shadows and (not can_fresh or rng.random() < 0.5):
                # hide another target behind an occluder already in place,
                # anywhere inside its angular shadow
                occ, lo, hi, bearing_o, o_lo, o_hi = shadows[
                    int(rng.integers(len(shadows)))]
                if lo >= hi:
                    continue
                dt = _uniform(rng, lo, hi)
                th = math.asin(min(1.0, (CAR_RADIUS_MAX + 0.1) / dt)) + 0.02
                if o_lo + th >= o_hi - th:
                    continue
                rel, yaw, w, l, h = _draws(rng, (o_lo + th, o_hi - th), ANGLE, *CAR)
                phi = bearing_o + rel
                cand = _Cand(ex + dt * math.cos(phi), ey + dt * math.sin(phi),
                             yaw, w, l, h)
                if clashes(cand):
                    continue
                tgt = cand.build(len(boxes), occluded=True)
                if not _covers_fully(ego_xy, occ, tgt, cfg.cam_height):
                    continue
                if not admit([tgt], tgt):
                    continue
                placed_targets += 1
                break
            phi, dt, yaw, *t_size, frac = _draws(rng, ANGLE, (7.0, far), ANGLE,
                                                 *CAR, (0.30, 0.62))
            do = dt * frac
            if do < 2.4:
                continue
            dyaw, *o_size = _draws(rng, (-0.25, 0.25), *TRUCK)
            c, s = math.cos(phi), math.sin(phi)
            o_cand = _Cand(ex + do * c, ey + do * s, phi + math.pi / 2.0 + dyaw,
                           *o_size)
            if clashes(o_cand):
                continue
            t_cand = _Cand(ex + dt * c, ey + dt * s, yaw, *t_size)
            if clashes(t_cand) or rects_overlap(o_cand, t_cand):
                continue
            occ = o_cand.build(len(boxes))
            tgt = t_cand.build(len(boxes) + 1, occluded=True)
            if not _covers_fully(ego_xy, occ, tgt, cfg.cam_height):
                continue
            if admit([occ, tgt], tgt):
                d_o = math.hypot(occ.box.x - ex, occ.box.y - ey)
                bearing_o = math.atan2(occ.box.y - ey, occ.box.x - ex)
                shadows.append((occ, max(7.0, d_o / 0.62), min(far, d_o / 0.30),
                                bearing_o, *_bearing_span(ego_xy, occ.pts, bearing_o)))
                placed_targets += 1
                break
    # tolerate a bounded shortfall: crowded draws may leave no legal spot
    if n_occluded > 0 and placed_targets < max(1, math.ceil(0.8 * n_occluded)):
        return "occlusion target placement failed"

    while len(boxes) < n_obj:
        for _attempt in range(300):
            phi, d, yaw, w, l, h = _draws(rng, ANGLE, (3.0, far), ANGLE, *CAR)
            cand = _Cand(ex + d * math.cos(phi), ey + d * math.sin(phi),
                         yaw, w, l, h)
            if not clashes(cand) and admit([cand.build(len(boxes))], None):
                break
        else:
            return "free box placement failed"

    scene = Scene(seed=seed, cfg=cfg, agents=agents, boxes=[b.box for b in boxes])
    for tgt in protected:
        if agent_visibility(scene, 0, tgt.box.obj_id) > cfg.occluded_max_vis:
            return "constructed occlusion not confirmed by z-buffer"
        if collab_xy and max(agent_visibility(scene, c, tgt.box.obj_id)
                             for c in range(1, cfg.n_agents)) < cfg.witness_min_vis:
            return "witness visibility not confirmed by z-buffer"
    return scene


# ---- serialization ----

SCENE_FORMAT = "viewfuse-scene"
SCENE_VERSION = 1


def scene_to_dict(scene: Scene) -> dict:
    return {
        "format": SCENE_FORMAT,
        "version": SCENE_VERSION,
        "seed": scene.seed,
        "cfg": asdict(scene.cfg),
        "agents": [
            {
                "pose": [r.pose.x, r.pose.y, r.pose.z, r.pose.yaw],
                "view_valid": list(r.view_valid),
                "cams": [
                    {
                        "fx": c.fx, "fy": c.fy, "cx": c.cx, "cy": c.cy,
                        "pix_w": c.pix_w, "pix_h": c.pix_h,
                        "feat_w": c.feat_w, "feat_h": c.feat_h,
                        "pose": [c.pose.x, c.pose.y, c.pose.z, c.pose.yaw],
                    }
                    for c in r.cams
                ],
            }
            for r in scene.agents
        ],
        "boxes": [
            {
                "obj_id": b.obj_id, "cls": b.cls, "occluded": b.occluded,
                "center": [b.x, b.y, b.z], "size": [b.w, b.l, b.h], "yaw": b.yaw,
            }
            for b in scene.boxes
        ],
    }


def scene_from_dict(d: dict) -> Scene:
    if d.get("format") != SCENE_FORMAT:
        raise ValueError(f"not a scene record: format={d.get('format')!r}")
    if d.get("version") != SCENE_VERSION:
        raise ValueError(f"unsupported scene version {d.get('version')!r}")
    cfg = SceneConfig(**d["cfg"])
    agents = []
    for a in d["agents"]:
        cams = tuple(CameraModel(fx=c["fx"], fy=c["fy"], cx=c["cx"], cy=c["cy"],
                                 pix_w=c["pix_w"], pix_h=c["pix_h"],
                                 feat_w=c["feat_w"], feat_h=c["feat_h"],
                                 pose=Pose(*c["pose"]))
                     for c in a["cams"])
        agents.append(AgentRig(pose=Pose(*a["pose"]), cams=cams,
                               view_valid=tuple(bool(v) for v in a["view_valid"])))
    boxes = [GtBox(obj_id=b["obj_id"], cls=b["cls"], occluded=b["occluded"],
                   x=b["center"][0], y=b["center"][1], z=b["center"][2],
                   w=b["size"][0], l=b["size"][1], h=b["size"][2], yaw=b["yaw"])
             for b in d["boxes"]]
    return Scene(seed=d["seed"], cfg=cfg, agents=agents, boxes=boxes)
