"""Scene generation, rasterization, rendering, and the 2-D detector.

The rasterizer is cross-checked against an independent ray-cast oracle:
membership comes from slab-method ray/box intersection per feature-lattice
ray rather than from silhouette polygons, with the same center-depth
ordering contract.
"""

import hashlib
import json
import math
import os
import struct

import numpy as np
import pytest

import viewfuse.geometry
import viewfuse.scene
from viewfuse.geometry import Pose, clip_convex, compose, polygon_area, rect_corners
from viewfuse.scene import (
    GenerationError, GtBox, Scene, SceneConfig, agent_visibility,
    convex_hull_2d, detect_instances_2d, generate_scene,
    make_ring_rig, object_signature, render_raw, rasterize_view,
    scene_from_dict, scene_to_dict, truncate_scene,
    AGENT_CLEAR_L, AGENT_CLEAR_W, CAR_H, CAR_L, CAR_W, TRUCK_H, TRUCK_L, TRUCK_W,
    _cells_in_hull, _draws,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


# ---- independent visibility oracle ----


def _ray_dirs(cam, world_pose):
    """World-frame direction for the ray through every feature lattice point."""
    us, vs = np.meshgrid(np.arange(cam.feat_w), np.arange(cam.feat_h))
    right = (us.ravel() * cam.stride - cam.cx) / cam.fx
    down = (vs.ravel() * cam.stride - cam.cy) / cam.fy
    lx = np.ones_like(right)
    ly = -right
    lz = -down
    c, s = math.cos(world_pose.yaw), math.sin(world_pose.yaw)
    return np.stack([c * lx - s * ly, s * lx + c * ly, lz], axis=1)


def _ray_box_t(origin, dirs, box):
    """Entry parameter of each ray into the oriented box, inf on miss."""
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    rot = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    o = rot @ (np.asarray(origin, dtype=float) - np.array([box.x, box.y, box.z]))
    d = dirs @ rot.T
    half = np.array([box.l / 2.0, box.w / 2.0, box.h / 2.0])
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (-half - o) / d
        t2 = (half - o) / d
    lo = np.minimum(t1, t2)
    hi = np.maximum(t1, t2)
    par = np.abs(d) < 1e-12
    in_slab = (np.abs(o) <= half)[np.newaxis, :] & par
    lo = np.where(par, np.where(in_slab, -np.inf, np.inf), lo)
    hi = np.where(par, np.where(in_slab, np.inf, -np.inf), hi)
    tmin = lo.max(axis=1)
    tmax = hi.min(axis=1)
    return np.where((tmax >= tmin) & (tmax > 0.0), np.maximum(tmin, 0.0), np.inf)


def oracle_owner_map(scene, agent_idx, view_idx):
    cfg = scene.cfg
    rig = scene.agents[agent_idx]
    cam = rig.cams[view_idx]
    if not rig.view_valid[view_idx]:
        return np.full((cfg.feat_h, cfg.feat_w), -1)
    world = compose(rig.pose, cam.pose)
    origin = np.array([world.x, world.y, world.z])
    axis = np.array([math.cos(world.yaw), math.sin(world.yaw), 0.0])
    dirs = _ray_dirs(cam, world)
    owner = np.full(dirs.shape[0], -1)
    best = np.full(dirs.shape[0], np.inf)
    for bi, box in enumerate(scene.boxes):
        corner_depth = (box.corners_3d() - origin) @ axis
        if np.any(corner_depth <= 0.1):
            continue
        cdepth = (np.array([box.x, box.y, box.z]) - origin) @ axis
        hit = np.isfinite(_ray_box_t(origin, dirs, box))
        take = hit & (cdepth < best)
        owner[take] = bi
        best[take] = cdepth
    return owner.reshape(cfg.feat_h, cfg.feat_w)


# ---- config and hull primitives ----


def test_config_validation():
    SceneConfig().validate()
    with pytest.raises(ValueError):
        SceneConfig(occluded_fraction=0.6).validate()
    with pytest.raises(ValueError):
        SceneConfig(n_objects_min=0).validate()
    with pytest.raises(ValueError):
        SceneConfig(n_objects_min=9, n_objects_max=4).validate()
    with pytest.raises(ValueError):
        SceneConfig(pixel_noise=-0.1).validate()
    with pytest.raises(ValueError):
        SceneConfig(missing_view_prob=1.0).validate()


def test_convex_hull_square_and_collinear():
    pts = np.array([[0, 0], [2, 0], [2, 2], [0, 2], [1, 1], [0.5, 0.5]])
    hull = convex_hull_2d(pts)
    assert len(hull) == 4
    assert set(map(tuple, hull)) == {(0, 0), (2, 0), (2, 2), (0, 2)}
    line = np.array([[0, 0], [1, 1], [2, 2], [3, 3]])
    assert len(convex_hull_2d(line)) == 2
    cover = _cells_in_hull(np.array([[0.5, 0.5], [3.5, 0.5], [3.5, 2.5], [0.5, 2.5]]),
                           8, 6)
    assert cover.sum() == 3 * 2
    assert cover[1, 1] and cover[2, 3] and not cover[0, 0]


@pytest.mark.parametrize("pts,want", [
    pytest.param([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0], [3.0, 0.5], [0.0, 0.0], [2.0, 3.0]],
                 [[0.0, 0.0], [3.0, 0.5], [2.0, 3.0], [1.0, 2.0]], id="duplicates"),
    pytest.param([[1.5, -2.0]] * 5, [[1.5, -2.0]], id="one_point_repeated"),
    pytest.param([[1.0, 1.0], [0.0, 2.0], [1.0, 1.0], [0.0, 2.0]],
                 [[0.0, 2.0], [1.0, 1.0]], id="two_points"),
])
def test_convex_hull_drops_duplicates_and_sorts_degenerate_input(pts, want):
    # the vertices and their order are those of np.unique(axis=0) + lexsort
    hull = convex_hull_2d(np.array(pts))
    assert isinstance(hull, np.ndarray) and hull.dtype == np.float64
    assert hull.shape == (len(want), 2)
    assert hull.tolist() == want


# ---- hand-placed rasters ----


def _one_agent_scene(boxes, cfg=None):
    cfg = cfg or SceneConfig(n_agents=1, pixel_noise=0.0)
    rig = make_ring_rig(cfg, Pose())
    return Scene(seed=0, cfg=cfg, agents=[rig], boxes=boxes)


def test_single_box_footprint_exact():
    # box ahead of camera 0: silhouette is the near-face rectangle,
    # u in [16 - 16/6, 16 + 16/6], v in [10 - 6.4/6, 10 + 22.4/6]
    box = GtBox(obj_id=0, x=8.0, y=0.0, z=0.9, w=2.0, l=4.0, h=1.8, yaw=0.0)
    scene = _one_agent_scene([box])
    raster = rasterize_view(scene, 0, 0)
    br = raster.boxes[0]
    np.testing.assert_allclose(
        br.bbox, (16 - 16 / 6, 10 - 6.4 / 6, 16 + 16 / 6, 10 + 22.4 / 6), atol=1e-9)
    assert br.footprint == 25      # u in {14..18} x v in {9..13}
    assert br.visible == 25
    assert raster.owner[11, 16] == 0
    assert raster.owner[1, 1] == -1
    assert agent_visibility(scene, 0, 0) == 1.0


def test_full_occlusion_overwrites_far_box():
    near = GtBox(obj_id=0, x=6.0, y=0.0, z=0.9, w=2.0, l=4.0, h=1.8, yaw=0.0)
    far = GtBox(obj_id=1, x=12.0, y=0.0, z=0.9, w=2.0, l=4.0, h=1.8, yaw=0.0)
    scene = _one_agent_scene([near, far])
    raster = rasterize_view(scene, 0, 0)
    assert raster.boxes[0].footprint == 63 and raster.boxes[0].visible == 63
    assert raster.boxes[1].footprint == 9 and raster.boxes[1].visible == 0
    assert not np.any(raster.owner == 1)
    assert agent_visibility(scene, 0, 1) == 0.0
    dets = detect_instances_2d(scene, 0, 0, mode="train")
    assert [d.obj_id for d in dets] == [0]
    assert dets[0].confidence == 1.0


def test_partial_occlusion_confidence_fraction():
    near = GtBox(obj_id=0, x=6.0, y=0.0, z=0.9, w=2.0, l=4.0, h=1.8, yaw=0.0)
    far = GtBox(obj_id=1, x=12.0, y=2.2, z=0.9, w=2.0, l=4.0, h=1.8, yaw=0.0)
    scene = _one_agent_scene([near, far])
    br = rasterize_view(scene, 0, 0).boxes[1]
    assert 0 < br.visible < br.footprint
    det = [d for d in detect_instances_2d(scene, 0, 0, mode="train") if d.obj_id == 1]
    assert det and det[0].confidence == pytest.approx(br.visible / br.footprint)
    # only view 0 sees either box, so the agent's pooled fraction is view 0's
    assert agent_visibility(scene, 0, 1) == br.visible / br.footprint
    oracle = oracle_owner_map(scene, 0, 0)
    assert br.visible == int((oracle == 1).sum())


# ---- generated scenes against the oracle ----


def test_raster_matches_raycast_oracle():
    scene = generate_scene(SceneConfig(), seed=21)
    total = 0
    mismatch = 0
    for ai in range(len(scene.agents)):
        for ki in range(scene.cfg.n_cams):
            raster = rasterize_view(scene, ai, ki).owner
            oracle = oracle_owner_map(scene, ai, ki)
            covered = (raster >= 0) | (oracle >= 0)
            total += int(covered.sum())
            mismatch += int((raster[covered] != oracle[covered]).sum())
    assert total > 200
    assert mismatch <= 0.02 * total


def test_confidence_tracks_oracle_fraction():
    scene = generate_scene(SceneConfig(), seed=21)
    checked = 0
    for ai in range(len(scene.agents)):
        for ki in range(scene.cfg.n_cams):
            oracle = oracle_owner_map(scene, ai, ki)
            for d in detect_instances_2d(scene, ai, ki, mode="train"):
                bi = next(i for i, b in enumerate(scene.boxes) if b.obj_id == d.obj_id)
                br = rasterize_view(scene, ai, ki).boxes[d.obj_id]
                if br.footprint < 10:
                    continue
                frac = (oracle == bi).sum() / br.footprint
                assert abs(d.confidence - frac) <= 0.1
                checked += 1
    assert checked >= 5


def test_generation_deterministic():
    cfg = SceneConfig()
    a = scene_to_dict(generate_scene(cfg, seed=7))
    b = scene_to_dict(generate_scene(cfg, seed=7))
    assert a == b
    c = scene_to_dict(generate_scene(cfg, seed=8))
    assert c != a


def test_occlusion_construction_verified():
    cfg = SceneConfig(n_objects_min=20, n_objects_max=20, occluded_fraction=0.5)
    scene = generate_scene(cfg, seed=3)
    occluded = [b for b in scene.boxes if b.occluded]
    # the generator tolerates a bounded shortfall in crowded scenes
    assert len(occluded) >= 8
    assert len(scene.boxes) == 20
    # re-verify from a fresh deserialized copy, not the generator's own cache
    fresh = scene_from_dict(scene_to_dict(scene))
    for b in occluded:
        assert agent_visibility(fresh, 0, b.obj_id) <= cfg.occluded_max_vis
        assert agent_visibility(fresh, 1, b.obj_id) >= cfg.witness_min_vis
    # non-occluded boxes exist and some are well seen by ego
    best = max(agent_visibility(fresh, 0, b.obj_id) for b in scene.boxes if not b.occluded)
    assert best > 0.5


def test_generation_error_when_infeasible():
    cfg = SceneConfig(n_objects_min=40, n_objects_max=40, occluded_fraction=0.0,
                      range_m=5.5, scene_retries=3)
    with pytest.raises(GenerationError):
        generate_scene(cfg, seed=1)


# ---- rendering ----


def test_signature_consistent_across_agents():
    cfg = SceneConfig(pixel_noise=0.0)
    scene = generate_scene(cfg, seed=13)
    found = 0
    for b in scene.boxes:
        sig = object_signature(scene.seed, b.obj_id, cfg.feat_c)
        cells = []
        for ai in range(len(scene.agents)):
            for ki in range(cfg.n_cams):
                raster = rasterize_view(scene, ai, ki)
                bi = next(i for i, bb in enumerate(scene.boxes) if bb.obj_id == b.obj_id)
                rs, cs = np.nonzero(raster.owner == bi)
                if len(rs):
                    cells.append((ai, ki, rs[0], cs[0]))
        if len({(a, k) for a, k, _, _ in cells}) < 2:
            continue
        for ai, ki, r, c in cells:
            raw = render_raw(scene, ai, ki)
            np.testing.assert_array_equal(raw[:, r, c], sig)
        found += 1
    assert found >= 2


def test_render_noise_keyed_and_reproducible():
    scene = generate_scene(SceneConfig(), seed=4)
    a = render_raw(scene, 0, 0)
    b = render_raw(scene, 0, 0)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(render_raw(scene, 0, 1), a)
    # background cells carry pure noise at the configured scale
    raster = rasterize_view(scene, 0, 0)
    bg = a[:, raster.owner == -1]
    assert bg.size > 100
    assert 0.5 * scene.cfg.pixel_noise < bg.std() < 2.0 * scene.cfg.pixel_noise


def test_render_world_frame_invariant():
    cfg = SceneConfig()
    scene = generate_scene(cfg, seed=11)
    dx, dy = 103.0, -47.0
    shifted = Scene(
        seed=scene.seed, cfg=cfg,
        agents=[make_ring_rig(cfg,
                              Pose(r.pose.x + dx, r.pose.y + dy, r.pose.z, r.pose.yaw),
                              r.view_valid)
                for r in scene.agents],
        boxes=[GtBox(obj_id=b.obj_id, x=b.x + dx, y=b.y + dy, z=b.z,
                     w=b.w, l=b.l, h=b.h, yaw=b.yaw, cls=b.cls, occluded=b.occluded)
               for b in scene.boxes])
    for ai in range(len(scene.agents)):
        for ki in range(cfg.n_cams):
            np.testing.assert_array_equal(rasterize_view(scene, ai, ki).owner,
                                          rasterize_view(shifted, ai, ki).owner)
            np.testing.assert_array_equal(render_raw(scene, ai, ki),
                                          render_raw(shifted, ai, ki))
            da = detect_instances_2d(scene, ai, ki, mode="train")
            db = detect_instances_2d(shifted, ai, ki, mode="train")
            assert len(da) == len(db)
            for p, q in zip(da, db):
                # raster cells are snapped so renders match bit for bit; the
                # continuous bbox corners may wobble by an ulp under the shift
                assert (p.obj_id, p.agent_id, p.view_id) == (q.obj_id, q.agent_id, q.view_id)
                assert p.confidence == q.confidence
                np.testing.assert_allclose(
                    [p.u_min, p.v_min, p.u_max, p.v_max],
                    [q.u_min, q.v_min, q.u_max, q.v_max], rtol=0, atol=1e-9)


# ---- detector ----


def test_detector_infer_jitter_bounded_and_deterministic():
    scene = generate_scene(SceneConfig(), seed=5)
    train = detect_instances_2d(scene, 0, 0, mode="train")
    infer1 = detect_instances_2d(scene, 0, 0, mode="infer")
    infer2 = detect_instances_2d(scene, 0, 0, mode="infer")
    assert infer1 == infer2
    assert train
    by_id = {d.obj_id: d for d in train}
    for d in infer1:
        t = by_id[d.obj_id]
        assert 0.0 <= d.confidence <= 1.0
        assert 0.0 <= d.u_min < d.u_max <= scene.cfg.feat_w
        assert 0.0 <= d.v_min < d.v_max <= scene.cfg.feat_h
        for got, ref in ((d.u_min, t.u_min), (d.u_max, t.u_max),
                         (d.v_min, t.v_min), (d.v_max, t.v_max)):
            assert abs(got - ref) < 6 * scene.cfg.det_jitter_cells + 1e-9
    with pytest.raises(ValueError):
        detect_instances_2d(scene, 0, 0, mode="test")


def test_missing_views_render_empty():
    cfg = SceneConfig(n_agents=3, missing_view_prob=0.6)
    scene = generate_scene(cfg, seed=2)
    assert all(scene.agents[0].view_valid)
    dropped = [(a, k) for a in range(1, 3) for k in range(cfg.n_cams)
               if not scene.agents[a].view_valid[k]]
    assert dropped   # seed chosen so at least one collaborator view is missing
    a, k = dropped[0]
    # agent_visibility pools over every camera, a missing one included
    raster = rasterize_view(scene, a, k)
    assert raster.boxes == {}
    assert np.all(raster.owner == -1)


def test_truncate_scene():
    scene = generate_scene(SceneConfig(n_agents=4), seed=6)
    short = truncate_scene(scene, 2)
    assert len(short.agents) == 2
    assert short.boxes is scene.boxes
    assert short.seed == scene.seed
    with pytest.raises(ValueError):
        truncate_scene(scene, 5)


# ---- serialization ----


def test_serialization_roundtrip():
    scene = generate_scene(SceneConfig(n_agents=3), seed=17)
    d = scene_to_dict(scene)
    again = scene_to_dict(scene_from_dict(d))
    assert d == again
    with pytest.raises(ValueError):
        scene_from_dict({"format": "other"})
    with pytest.raises(ValueError):
        scene_from_dict({"format": "viewfuse-scene", "version": 99})


def test_scene_golden_file():
    # frozen generator output; regenerate tests/data/scene_golden.json on any
    # deliberate generator change via scripts/make_golden_files.py
    cfg = SceneConfig(n_agents=2, n_objects_min=6, n_objects_max=6,
                      occluded_fraction=0.5)
    got = scene_to_dict(generate_scene(cfg, seed=5))
    with open(os.path.join(DATA, "scene_golden.json")) as f:
        want = json.load(f)
    assert got == want


# sha256 of the sorted-key JSON of scene_to_dict, default config. 1002, 1040
# and 1001 are the seeds with the most overlap tests in the first 48 training
# scenes (9,366, 8,980 and 7,995). 1003 is the only one of those 48 whose
# generation retries for all three reasons: placement failed, occlusion not
# confirmed and witness not confirmed; the other three never reach the
# witness rejection. They do not pin every branch of the placement loop: no
# seed of the default corpora (1000-1199, 900000-900049) reaches its early
# break when no pair fits and no occluder exists, the reuse branch's two
# empty-range guards, or the fresh pair's ``_covers_fully`` rejection.
DEFAULT_SCENE_SHA256 = {
    1002: "6cf26ec4358bdcff6f593a476b80c7cf4aae07969b9bb5b1cfdcb4045a1b9cf3",
    1040: "38a2fad5e62ba13d617e865ab8e77a90a1300a8bbbd31091a25017446eb653dd",
    1001: "549507fc73e2370c177e2eedf6fe4314c6a77379b732ffe0ff31ac2d829797d5",
    1003: "588e12457078c6ddf7c9935555edfaa71300fe5c21830bf72fc58fc30acc528f",
}


@pytest.mark.parametrize("seed", sorted(DEFAULT_SCENE_SHA256))
def test_default_scene_bytes(seed):
    blob = json.dumps(scene_to_dict(generate_scene(SceneConfig(), seed)), sort_keys=True)
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == DEFAULT_SCENE_SHA256[seed]


# sha256 over every view raster, in (agent, view) order: owner.tobytes(),
# then per box (obj_id, footprint, visible) and the float.hex of its bbox
# and depth. Recorded from the per-box rasterizer before it was batched;
# any rasterizer change must keep them. Missing-view seed 6 has invalid
# views on both collaborators.
RASTER_CFGS = {"default": SceneConfig(),
               "3_agents_missing_views": SceneConfig(n_agents=3, missing_view_prob=0.2)}
DEFAULT_RASTER_SHA256 = {
    ("default", 1001): "15b397a8adf14562d27983dab424ae2cab1fd356afdb2dddd92616d9613f31d8",
    ("default", 1002): "be807dc422c0777f8ed85ece2bc220bd34be7f902d1af3291273213da1bf113f",
    ("default", 1003): "40c4fdda06ea442140b8e7644a31831fe96ef876bc0e8c4f6e2a1aa534f6fc9e",
    ("default", 1040): "b893274abf5148ad3fb660c80e49ea53156a2145998b6f660b559f491ef47e10",
    ("3_agents_missing_views", 6):
        "081224cfc5b092e80ad5fd8dfbfb727636942fca04c406f8f26aae4460672cf0",
}


@pytest.mark.parametrize("cfg_name,seed", sorted(DEFAULT_RASTER_SHA256))
def test_default_raster_bytes(cfg_name, seed):
    scene = generate_scene(RASTER_CFGS[cfg_name], seed)
    h = hashlib.sha256()
    for a, rig in enumerate(scene.agents):
        for k in range(len(rig.cams)):
            r = rasterize_view(scene, a, k)
            h.update(r.owner.tobytes())
            for oid, br in r.boxes.items():
                h.update(repr((oid, br.footprint, br.visible)).encode())
                h.update(" ".join(float.hex(c) for c in (*br.bbox, br.depth)).encode())
    assert h.hexdigest() == DEFAULT_RASTER_SHA256[(cfg_name, seed)]


def test_raster_cache_holds_only_views():
    # the box-point array the rasterizer reuses is kept apart from the
    # per-view cache, whose size counts cached views
    scene = generate_scene(SceneConfig(), 1002)
    assert set(scene._rasters) == {(a, k) for a in range(2) for k in range(4)}


# in 1117 and 1174 of the default corpora, a pair the centre bands leave to
# the clip decides a placement
@pytest.mark.parametrize("cfg_name,seed",
                         sorted(DEFAULT_RASTER_SHA256) + [("default", 9), ("default", 1117)])
def test_no_footprint_enters_another_or_an_agent_clearance(cfg_name, seed):
    # by the clip itself, in both argument orders: boxes against boxes and
    # every agent's clearance rectangle, and agents against agents
    scene = generate_scene(RASTER_CFGS[cfg_name], seed)
    boxes = [b.corners_bev() for b in scene.boxes]
    agents = [rect_corners(r.pose.x, r.pose.y, AGENT_CLEAR_W, AGENT_CLEAR_L, r.pose.yaw)
              for r in scene.agents]

    def overlap(p, q):
        return polygon_area(clip_convex(p, q)) > 1e-12 or polygon_area(clip_convex(q, p)) > 1e-12

    for i, box in enumerate(boxes):
        assert not any(overlap(box, other) for other in boxes[i + 1:]), i
        assert not any(overlap(box, agent) for agent in agents), i
    for i, agent in enumerate(agents):
        assert not any(overlap(agent, other) for other in agents[i + 1:]), i


def test_centre_bands_settle_almost_every_placement_pair(monkeypatch):
    # seed 1002 made 7,375 corner overlap tests before the centre bands, and
    # runs the clip once with them
    calls = []
    real = viewfuse.geometry.clip_convex

    def counting(subject, clip):
        calls.append(1)
        return real(subject, clip)

    monkeypatch.setattr(viewfuse.geometry, "clip_convex", counting)
    generate_scene(SceneConfig(), 1002)
    assert len(calls) <= 50


def test_placement_builds_only_candidates_that_clash_with_nothing(monkeypatch):
    # seed 1002 built 9,423 boxes when every drawn candidate was built,
    # 1,541 once only the candidates past the clash test were, and builds
    # one per scene box now that a box is built only at scene assembly
    built = []
    real = viewfuse.scene.GtBox

    def counting(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(viewfuse.scene, "GtBox", counting)
    scene = generate_scene(SceneConfig(), 1002)
    assert len(built) == len(scene.boxes) == 10


def _bits(v: float) -> bytes:
    return struct.pack("<d", v)


def test_batched_draws_equal_scalar_draws_bit_for_bit():
    # placement takes each attempt's uniforms from one rng.random(n) call;
    # every recorded scene rests on that equalling n scalar draws on the
    # same PCG64 stream, with integer draws interleaved as placement does
    batched = np.random.default_rng(np.random.SeedSequence([1004, 1]))
    scalar = np.random.default_rng(np.random.SeedSequence([1004, 1]))
    assert isinstance(batched.bit_generator, np.random.PCG64)
    shape = np.random.default_rng(78)
    for k in range(20_000):
        n = int(shape.integers(1, 12))
        if k % 2 == 0:
            got = batched.random(n).tolist()
            want = [scalar.random() for _ in range(n)]
        else:
            bounds = [(float(lo), float(lo + np.exp(e)))
                      for lo, e in zip(shape.uniform(-50.0, 50.0, n),
                                       shape.uniform(-30.0, 5.0, n))]
            got = _draws(batched, *bounds)
            want = [scalar.uniform(lo, hi) for lo, hi in bounds]
        assert [_bits(v) for v in got] == [_bits(v) for v in want], k
        if k % 3 == 0:
            assert batched.integers(n) == scalar.integers(n), k


def test_uniform_draw_is_generator_uniform_bit_for_bit():
    # scene generation draws through _draws, and every recorded scene rests
    # on a single draw equalling Generator.uniform on the same stream,
    # signed zeros included; integer and no-argument draws interleave as
    # they do there
    special = [(-0.0, 0.0), (-0.0, -0.0), (0.0, 0.0), (-1.0, 1.0), (2.5, 2.5),
               (-math.pi, math.pi), (-0.25, 0.25), (0.30, 0.62), (3.0, 14.5),
               CAR_W, CAR_L, CAR_H, TRUCK_W, TRUCK_L, TRUCK_H]
    bounds = np.random.default_rng(77)
    ours = np.random.default_rng(np.random.SeedSequence([1003, 1]))
    theirs = np.random.default_rng(np.random.SeedSequence([1003, 1]))
    for k in range(120_000):
        if k % 4 == 0:
            lo, hi = special[(k // 4) % len(special)]
        else:
            lo = float(bounds.uniform(-50.0, 50.0))
            hi = lo + float(np.exp(bounds.uniform(-30.0, 5.0)))
        got, = _draws(ours, (lo, hi))
        assert _bits(got) == _bits(theirs.uniform(lo, hi)), (k, lo, hi)
        if k % 3 == 0:
            n = 1 + k % 40
            assert ours.integers(n) == theirs.integers(n), k
        if k % 7 == 0:
            assert _bits(ours.random()) == _bits(theirs.uniform()), k
