"""Pipeline assembly: forward paths, training step, checkpoints."""
import tracemalloc
import zipfile

import numpy as np
import pytest

from viewfuse import model as model_mod
from viewfuse.model import (
    CheckpointError,
    FLAGS_FULL,
    FLAGS_LATE,
    FLAGS_SOLO,
    PipelineFlags,
    PipelineModel,
    TrainingError,
    ego_frame_targets,
    load_checkpoint,
    model_forward,
    save_checkpoint,
    train_step,
)
from viewfuse.comms import INSTANCE_HEADER_BYTES
from viewfuse.decoder import set_loss
from viewfuse.eval import evaluate_scene
from viewfuse.geometry import apply_pose, invert
from viewfuse.scene import generate_scene, truncate_scene
from viewfuse.tensor import Adam, Tensor

from small import small_model_cfg, small_scene_cfg


@pytest.fixture(scope="module")
def setup():
    scene = generate_scene(small_scene_cfg(), 5)
    model = PipelineModel(small_model_cfg(), np.random.default_rng(7))
    return scene, model


def test_forward_shapes_and_ledger(setup):
    scene, model = setup
    fr = model_forward(model, scene, FLAGS_FULL, wire=True,
                       detector_mode="infer")
    n_q, c = model.cfg.n_q, model.cfg.c
    assert fr.preds.cls_logits.shape == (n_q, 1)
    assert fr.preds.box_vec.shape == (n_q, 8)
    assert fr.queries.q.shape == (n_q, c)
    assert fr.queries.n_instance == len(fr.shared) > 0
    assert fr.ledger.total_bytes > 0
    assert all(r == 0 for _, r in fr.ledger.per_link)

    solo = model_forward(model, scene, FLAGS_SOLO, wire=True)
    assert solo.ledger.total_bytes == 0
    assert solo.queries.n_instance == 0
    assert len(solo.views) == scene.cfg.n_cams


def test_forward_deterministic(setup):
    scene, model = setup
    a = model_forward(model, scene, FLAGS_FULL, wire=True,
                      detector_mode="infer")
    b = model_forward(model, scene, FLAGS_FULL, wire=True,
                      detector_mode="infer")
    np.testing.assert_array_equal(a.preds.cls_logits.data,
                                  b.preds.cls_logits.data)
    np.testing.assert_array_equal(a.preds.box_vec.data, b.preds.box_vec.data)
    assert a.ledger.total_bytes == b.ledger.total_bytes


@pytest.mark.parametrize("mask", [True, False], ids=["masked", "full_map"])
def test_wire_path_matches_training_path(setup, mask):
    """f32 quantization is the only difference between the two paths."""
    scene, model = setup
    flags = PipelineFlags(ifa=True, cdqa=True, mask=mask)
    tr = model_forward(model, scene, flags, wire=False)
    wi = model_forward(model, scene, flags, wire=True)
    np.testing.assert_allclose(wi.fbev.data, tr.fbev.data,
                               rtol=1e-5, atol=1e-6)
    np.testing.assert_allclose(wi.preds.box_vec.data, tr.preds.box_vec.data,
                               rtol=1e-4, atol=1e-5)
    assert [s.message for s in wi.shared] == [s.message for s in tr.shared]
    # one rebuild of the sent stream gives both paths their mask
    assert len(wi.views) == len(tr.views) > scene.cfg.n_cams
    for v_tr, v_wi in zip(tr.views[scene.cfg.n_cams:],
                          wi.views[scene.cfg.n_cams:]):
        assert v_tr.mask is not None and v_tr.mask.any()
        np.testing.assert_array_equal(v_tr.mask, v_wi.mask)
    # a wire-path crop, cut from the rebuilt map, is its payload bit for bit
    assert wi.shared
    for s in wi.shared:
        assert s.crop.data.tobytes() == \
            s.message.payload.astype(np.float64).tobytes()
    # background cells are exactly zero on both paths
    for v_tr, v_wi in zip(tr.views, wi.views):
        if v_tr.mask is None:
            continue
        np.testing.assert_array_equal(
            v_tr.features.data[:, ~v_tr.mask], 0.0)
        np.testing.assert_array_equal(
            v_wi.features.data[:, ~v_wi.mask], 0.0)


def test_invalid_collaborator_views_are_never_rendered(monkeypatch):
    scene = generate_scene(small_scene_cfg(n_agents=3, missing_view_prob=0.3),
                           0)
    invalid = {(j, k) for j, rig in enumerate(scene.agents) if j != 0
               for k, ok in enumerate(rig.view_valid) if not ok}
    assert invalid, "seed must drop some collaborator view"
    calls = []
    real = model_mod.render_view_features

    def spy(scene, j, k, enc):
        calls.append((j, k))
        return real(scene, j, k, enc)

    monkeypatch.setattr(model_mod, "render_view_features", spy)
    model = PipelineModel(small_model_cfg(), np.random.default_rng(7))
    for wire in (False, True):
        model_forward(model, scene, FLAGS_FULL, wire=wire)
    every = {(j, k) for j in range(3) for k in range(scene.cfg.n_cams)}
    assert set(calls) == every - invalid
    # late fusion's solo forwards make each collaborator the ego in turn
    calls.clear()
    evaluate_scene(model, scene, FLAGS_LATE)
    assert set(calls) == every - invalid


def test_fullmap_flag_shares_more_bytes(setup):
    scene, model = setup
    masked = model_forward(model, scene, FLAGS_FULL, wire=True)
    full = model_forward(model, scene,
                         PipelineFlags(ifa=True, cdqa=True, mask=False),
                         wire=True)
    # one extra message per valid collaborator view: the whole feature map
    cfg = scene.cfg
    n_views = sum(sum(rig.view_valid) for rig in scene.agents[1:])
    fullmap = INSTANCE_HEADER_BYTES + 4 * model.cfg.c * cfg.feat_h * cfg.feat_w
    assert full.ledger.total_bytes - masked.ledger.total_bytes \
        == n_views * fullmap
    # the instance set delivered for query adaptation is unchanged
    assert [s.message for s in full.shared] == [s.message for s in masked.shared]


def test_flag_consistency_and_channel_mismatch(setup):
    scene, model = setup
    with pytest.raises(ValueError, match="shared instances"):
        PipelineFlags(ifa=False, cdqa=True)
    other = generate_scene(small_scene_cfg(feat_c=8), 5)
    with pytest.raises(ValueError, match="channels"):
        model_forward(model, other, FLAGS_SOLO, wire=True)
    with pytest.raises(ValueError, match="rng"):
        model_forward(model, scene, FLAGS_FULL, wire=True, noise_sigma=0.3)


def test_targets_frame_and_filters(setup):
    scene, model = setup
    gts = ego_frame_targets(scene, model.spec, vis_min=0.05)
    assert gts
    half_x = model.spec.grid_w // 2 * model.spec.resolution
    w2e = invert(scene.ego.pose)
    by_id = {b.obj_id: b for b in scene.boxes}
    for g in gts:
        assert abs(g.x) <= half_x and abs(g.y) <= half_x
        src = by_id[g.obj_id]
        p = apply_pose(w2e, np.array([[src.x, src.y, src.z]]))[0]
        np.testing.assert_allclose([g.x, g.y, g.z], p, atol=1e-12)
    ego_only = ego_frame_targets(truncate_scene(scene, 1), model.spec,
                                 vis_min=0.05)
    assert {g.obj_id for g in ego_only} <= {g.obj_id for g in gts}


def test_train_step_deterministic_and_finite():
    scenes = [generate_scene(small_scene_cfg(), s) for s in (5, 6)]

    def run():
        model = PipelineModel(small_model_cfg(), np.random.default_rng(3))
        opt = Adam(model.params(), lr=2e-3)
        out = [train_step(scenes, model, opt) for _ in range(2)]
        # every parameter gets a finite gradient, none is exempt
        grads_ok = all(t.grad is not None and np.all(np.isfinite(t.grad))
                       for t in model.params().values())
        return out, grads_ok

    (l1, g1), (l2, g2) = run(), run()
    assert l1 == l2
    assert g1 and g2
    assert l1[1] != l1[0]


def test_training_reduces_loss():
    scenes = [generate_scene(small_scene_cfg(), s) for s in range(10, 18)]
    model = PipelineModel(small_model_cfg(), np.random.default_rng(1))
    opt = Adam(model.params(), lr=2.5e-3)

    def mean_loss():
        tot = 0.0
        for sc in scenes:
            fr = model_forward(model, sc, FLAGS_FULL, wire=False)
            gts = ego_frame_targets(sc, model.spec, model.cfg.vis_min)
            tot += float(set_loss(fr.preds, gts, model.codec,
                                  model.weights).data)
        return tot / len(scenes)

    before = mean_loss()
    for i in range(120):
        train_step([scenes[i % len(scenes)]], model, opt)
    after = mean_loss()
    assert after < before


def _whole_batch_grads(scenes, model):
    """The former step's gradients: every scene's graph alive, the summed
    loss scaled by 1/n, one backward."""
    total = None
    for scene in scenes:
        fr = model_forward(model, scene, FLAGS_FULL, wire=False)
        gts = ego_frame_targets(scene, model.spec, model.cfg.vis_min)
        loss = set_loss(fr.preds, gts, model.codec, model.weights)
        total = loss if total is None else total + loss
    total = total * (1.0 / len(scenes))
    total.backward()
    return float(total.data), {k: t.grad for k, t in model.params().items()}


@pytest.mark.parametrize("n", [2, 3])
def test_streamed_step_matches_whole_batch_backward(n):
    scenes = [generate_scene(small_scene_cfg(), s) for s in (5, 6, 7)][:n]
    ref_model = PipelineModel(small_model_cfg(), np.random.default_rng(3))
    want_loss, want = _whole_batch_grads(scenes, ref_model)
    model = PipelineModel(small_model_cfg(), np.random.default_rng(3))
    loss = train_step(scenes, model, Adam(model.params(), lr=2e-3))
    assert loss == want_loss
    for k, t in model.params().items():
        np.testing.assert_allclose(t.grad, want[k], rtol=1e-12, atol=1e-15,
                                   err_msg=k)


def test_step_memory_does_not_grow_with_the_batch():
    scenes = [generate_scene(small_scene_cfg(), s) for s in (5, 6, 7)]
    model = PipelineModel(small_model_cfg(), np.random.default_rng(3))
    opt = Adam(model.params(), lr=2e-3)
    train_step(scenes[:1], model, opt)     # first-step allocations

    def peak(batch):
        tracemalloc.start()
        try:
            train_step(batch, model, opt)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, three = peak(scenes[:1]), peak(scenes)
    assert three <= 1.3 * one, (one, three)


def test_non_finite_loss_raises(monkeypatch, setup):
    """A non-finite scene loss, the first or a later one, leaves weights and
    Adam as they were."""
    scene, _ = setup
    model = PipelineModel(small_model_cfg(), np.random.default_rng(2))
    opt = Adam(model.params())
    train_step([scene], model, opt)
    before = {k: t.data.copy() for k, t in model.params().items()}
    m_before = {k: v.copy() for k, v in opt.m.items()}
    for batch, nan_at in ((1, 1), (3, 2)):
        calls = []

        def nan_once(*a, **k):
            calls.append(1)
            loss = set_loss(*a, **k)
            return Tensor(np.float64("nan")) if len(calls) == nan_at else loss

        monkeypatch.setattr("viewfuse.model.set_loss", nan_once)
        with pytest.raises(TrainingError, match="non-finite loss nan.*"
                           "largest parameter magnitudes"):
            train_step([scene] * batch, model, opt)
        assert len(calls) == nan_at
        assert opt.t == 1
        for k, t in model.params().items():
            np.testing.assert_array_equal(t.data, before[k], err_msg=k)
            np.testing.assert_array_equal(opt.m[k], m_before[k], err_msg=k)


def test_checkpoint_round_trip(tmp_path, setup):
    scene, _ = setup
    rng = np.random.default_rng(11)
    model = PipelineModel(small_model_cfg(), rng)
    opt = Adam(model.params(), lr=2e-3)
    for _ in range(3):
        train_step([scene], model, opt)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, model, opt, fingerprint="abc", step=3)

    cont = [train_step([scene], model, opt) for _ in range(2)]

    fresh = PipelineModel(small_model_cfg(), np.random.default_rng(99))
    fresh_opt = Adam(fresh.params(), lr=2e-3)
    meta = load_checkpoint(path, fresh, fresh_opt, expect_fingerprint="abc")
    assert meta["step"] == 3
    resumed = [train_step([scene], fresh, fresh_opt) for _ in range(2)]
    assert cont == resumed


def test_checkpoint_errors(tmp_path, setup):
    scene, _ = setup
    model = PipelineModel(small_model_cfg(), np.random.default_rng(4))
    path = tmp_path / "c.npz"
    save_checkpoint(path, model, fingerprint="fp1")
    with pytest.raises(CheckpointError, match="fingerprint"):
        load_checkpoint(path, model, expect_fingerprint="fp2")
    with pytest.raises(CheckpointError, match="optimizer"):
        load_checkpoint(path, model, opt=Adam(model.params()))
    other = PipelineModel(small_model_cfg(c=16, enc_hidden=16),
                          np.random.default_rng(4))
    with pytest.raises(CheckpointError):
        load_checkpoint(path, other)


def test_failed_checkpoint_write_keeps_the_previous_one(tmp_path, monkeypatch):
    # a write that fails part-way, as on a full disk
    model = PipelineModel(small_model_cfg(), np.random.default_rng(4))
    path = tmp_path / "c.npz"
    save_checkpoint(path, model, fingerprint="fp1", step=1)
    real_open = open

    class Failing:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(model_mod, "open",
                        lambda *a, **k: Failing(real_open(*a, **k)), raising=False)
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(path, model, fingerprint="fp1", step=2)
    monkeypatch.undo()
    assert load_checkpoint(path, model)["step"] == 1
    assert [p.name for p in tmp_path.iterdir()] == ["c.npz"]


def _state(model, opt):
    return ({k: t.data.tobytes() for k, t in model.params().items()},
            {k: a.tobytes() for k, a in opt.m.items()},
            {k: a.tobytes() for k, a in opt.v.items()}, opt.t)


@pytest.mark.parametrize("damage,match", [("flipped_byte", "qtable"),
                                          ("wrong_shape", "qtable"),
                                          ("wrong_adam_shape", "optimizer state")])
def test_failed_checkpoint_load_changes_nothing(tmp_path, setup, damage, match):
    scene, _ = setup
    src = PipelineModel(small_model_cfg(), np.random.default_rng(21))
    src_opt = Adam(src.params(), lr=2e-3)
    train_step([scene], src, src_opt)
    path = tmp_path / "c.npz"
    save_checkpoint(path, src, src_opt)
    last = list(src.params())[-1]
    assert last == "qtable"   # read last of all parameters
    if damage == "flipped_byte":
        good = path.read_bytes()
        with zipfile.ZipFile(path) as zf:
            member = zf.read(f"param.{last}.npy")
        bad = bytearray(good)
        # the member's last data byte: its CRC fails only when it is read
        bad[good.index(member) + len(member) - 1] ^= 0xFF
        path.write_bytes(bytes(bad))
    else:
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files}
        key = f"param.{last}" if damage == "wrong_shape" else f"opt.adam.m.{last}"
        arrays[key] = arrays[key][:-1]
        np.savez(path, **arrays)

    dst = PipelineModel(small_model_cfg(), np.random.default_rng(22))
    dst_opt = Adam(dst.params(), lr=2e-3)
    train_step([scene], dst, dst_opt)
    before = _state(dst, dst_opt)
    assert before[0] != _state(src, src_opt)[0]
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path, dst, dst_opt)
    assert _state(dst, dst_opt) == before
