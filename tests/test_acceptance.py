"""Acceptance gate: exactness and oracle-equivalence checks.

The trend gate (fused beats no-collaboration, late fusion in between,
trained on the seeded default benchmark) is pending; ROADMAP's "The
executed trend gate" tracks it, and the ``slow`` marker is reserved for it.
"""

import itertools
import json
import sys
import time
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from gradcheck import check_scalar_fn, run_op_gradient_suite
from ifa_reference import aggregate_reference_point
from small import small_model, small_scene_cfg

from viewfuse import comms
from viewfuse.cdqa import cone_encode, instance_gap_encode
from viewfuse.cli import main as cli_main
from viewfuse.decoder import (BoxCodec, Predictions, hungarian_match,
                              set_loss)
from viewfuse.eval import average_precision, rotated_iou_bev
from viewfuse.geometry import CameraModel, Pose, project_points
from viewfuse.ifa import BevGridSpec, BevView, IfaBlock, ifa_cascade
from viewfuse.model import FLAGS_FULL, model_forward
from viewfuse.scene import GtBox, generate_scene
from viewfuse.tensor import Tensor


# =====================================================================
# gradient suite: every differentiable op and the composed blocks
# =====================================================================


def _ifa_block_case(rng):
    from viewfuse.ifa import ifa_block_forward
    c, n_da = 4, 2
    spec = BevGridSpec(grid_h=4, grid_w=4, resolution=1.0, n_ref=2,
                       z_min=0.0, z_max=1.0)
    block = IfaBlock(c=c, n_da=n_da, rng=rng)
    for t in block.params().values():
        t.data[:] = rng.normal(0.0, 0.25, t.shape)
    cam = CameraModel(fx=3.0, fy=3.0, cx=3.0, cy=3.0, pix_w=6, pix_h=6,
                      feat_w=3, feat_h=3, pose=Pose(x=-3.0, z=0.5))
    q0 = rng.normal(size=(c, 4, 4))
    f0 = rng.normal(size=(c, 3, 3))
    w_out = rng.normal(size=(c, 4, 4))
    names = sorted(block.params())

    def build(q, f, *ps):
        by_name = dict(zip(names, ps))
        n_off = len(block.off_mlp.weights)
        block.off_mlp.weights = [by_name[f"{block.off_mlp.name}.w{i}"]
                                 for i in range(n_off)]
        block.off_mlp.biases = [by_name[f"{block.off_mlp.name}.b{i}"]
                                for i in range(n_off)]
        n_ffn = len(block.ffn.weights)
        block.ffn.weights = [by_name[f"{block.ffn.name}.w{i}"]
                             for i in range(n_ffn)]
        block.ffn.biases = [by_name[f"{block.ffn.name}.b{i}"]
                            for i in range(n_ffn)]
        block.ln1_g = by_name[f"{block.name}.ln1_g"]
        block.ln1_b = by_name[f"{block.name}.ln1_b"]
        block.ln2_g = by_name[f"{block.name}.ln2_g"]
        block.ln2_b = by_name[f"{block.name}.ln2_b"]
        view = BevView(features=f, cam=cam, agent_pose_in_ego=Pose(),
                       agent_id=0, view_id=0)
        out = ifa_block_forward(block, q, [view], spec)
        return (out * Tensor(w_out)).sum()

    inputs = [q0, f0] + [block.params()[n].data.copy() for n in names]
    return build, inputs


def _cdqa_cases(rng):
    from viewfuse.tensor import Mlp
    gap_mlp = Mlp([3, 4, 5], rng, name="gap")
    cone_mlp = Mlp([9, 4, 5], rng, name="cone")
    crop0 = rng.normal(size=(3, 2, 2))
    w_out = rng.normal(size=5)
    u0, v0 = rng.uniform(15.0, 40.0, 2)
    # u_max is drawn before v_max, so the gradcheck inputs keep their values
    box = (u0, v0, u0 + rng.uniform(10, 30), v0 + rng.uniform(10, 30))
    cam = CameraModel(fx=50.0, fy=50.0, cx=40.0, cy=40.0, pix_w=80,
                      pix_h=80, feat_w=8, feat_h=8, pose=Pose())

    def build_gap(crop, w0, b0, w1, b1):
        gap_mlp.weights = [w0, w1]
        gap_mlp.biases = [b0, b1]
        return (instance_gap_encode(crop, gap_mlp) * Tensor(w_out)).sum()

    gap_inputs = [crop0,
                  gap_mlp.weights[0].data.copy(), gap_mlp.biases[0].data.copy(),
                  gap_mlp.weights[1].data.copy(), gap_mlp.biases[1].data.copy()]

    def build_cone(w0, b0, w1, b1):
        cone_mlp.weights = [w0, w1]
        cone_mlp.biases = [b0, b1]
        return (cone_encode(box, cam, Pose(x=0.3), cone_mlp)
                * Tensor(w_out)).sum()

    cone_inputs = [cone_mlp.weights[0].data.copy(), cone_mlp.biases[0].data.copy(),
                   cone_mlp.weights[1].data.copy(), cone_mlp.biases[1].data.copy()]
    return (build_gap, gap_inputs), (build_cone, cone_inputs)


def _set_loss_case(rng):
    codec = BoxCodec(x_scale=8.0, y_scale=8.0)
    gt = GtBox(obj_id=0, cls=0, occluded=False,
               x=rng.uniform(-4, 4), y=rng.uniform(-4, 4), z=0.75,
               w=0.9, l=1.8, h=1.5, yaw=rng.uniform(-2.0, 2.0))
    enc = codec.encode(gt)
    # query 0 decisively wins the assignment so epsilon cannot flip it
    logits0 = np.array([[1.5], [-1.5]])
    vec0 = np.stack([enc + rng.uniform(0.02, 0.08, 8),
                     enc + 2.0 + rng.uniform(0.0, 0.3, 8)])

    def build(lg, vc):
        return set_loss(Predictions(lg, vc), [gt], codec)

    return build, [logits0, vec0]


def _deformable_case(rng):
    from ifa_reference import deformable_sample
    block = IfaBlock(c=3, n_da=2, rng=rng)
    block.off_mlp.weights[-1].data[:] = rng.normal(
        0.0, 0.05, block.off_mlp.weights[-1].shape)
    fmap0 = rng.normal(size=(3, 6, 8))
    q0 = rng.normal(size=3)
    w_out = rng.normal(size=3)
    p = (float(rng.integers(1, 7)) + rng.uniform(0.3, 0.7),
         float(rng.integers(1, 5)) + rng.uniform(0.3, 0.7))

    def build(q, m):
        out = deformable_sample(block, q, m, p=p)
        return (out * Tensor(w_out)).sum()

    return build, [q0, fmap0]


def test_gradient_suite_every_op_and_block_under_two_minutes():
    t0 = time.monotonic()
    n = run_op_gradient_suite(20, tol=1e-5)
    assert n >= 20 * 30
    for seed in range(20):
        rng = np.random.default_rng(5000 + seed)
        build, inputs = _deformable_case(rng)
        check_scalar_fn(build, inputs, tol=1e-4)
    for seed in range(20):
        rng = np.random.default_rng(6000 + seed)
        build, inputs = _ifa_block_case(rng)
        check_scalar_fn(build, inputs, tol=1e-4)
    for seed in range(20):
        rng = np.random.default_rng(7000 + seed)
        (bg, gi), (bc, ci) = _cdqa_cases(rng)
        check_scalar_fn(bg, gi, tol=1e-4)
        check_scalar_fn(bc, ci, tol=1e-4)
    for seed in range(20):
        rng = np.random.default_rng(8000 + seed)
        build, inputs = _set_loss_case(rng)
        check_scalar_fn(build, inputs, tol=1e-4)
    assert time.monotonic() - t0 < 120.0


# =====================================================================
# aggregation formula exactness on hand-built micro-instances
# =====================================================================


def test_aggregation_equals_hand_average_two_and_three_views():
    class _Flags:
        pass

    f1 = Tensor(np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 2.5]]))
    f2 = Tensor(np.array([[-2.0, 0.0, 1.0], [4.0, 4.0, 4.0]]))
    f3 = Tensor(np.array([[10.0, -10.0, 0.5], [0.1, 0.2, 0.3]]))

    out2 = aggregate_reference_point([f1, f2], [True, True])
    hand2 = 0.5 * (f1.data + f2.data)
    np.testing.assert_allclose(out2.data, hand2, atol=1e-12, rtol=0)

    out3 = aggregate_reference_point([f1, f2, f3], [True, True, True])
    hand3 = (f1.data + f2.data + f3.data) / 3.0
    np.testing.assert_allclose(out3.data, hand3, atol=1e-12, rtol=0)

    # observation weights drop non-observing views from both sum and count
    out_w = aggregate_reference_point([f1, f2, f3], [True, False, True])
    hand_w = 0.5 * (f1.data + f3.data)
    np.testing.assert_allclose(out_w.data, hand_w, atol=1e-12, rtol=0)

    assert aggregate_reference_point([f1, f2], [False, False]) is None


# =====================================================================
# permutation invariance of the cascade over 50 random scenes
# =====================================================================


def test_collaborator_permutation_leaves_fused_features_unchanged():
    cfg = small_scene_cfg(n_agents=3)
    model = small_model()
    worst = 0.0
    for i in range(50):
        scene = generate_scene(cfg, 4200 + i)
        fr = model_forward(model, scene, FLAGS_FULL, wire=True,
                           detector_mode="infer")
        rng = np.random.default_rng(i)
        views = list(fr.views)
        shuffled = [views[j] for j in rng.permutation(len(views))]
        base = ifa_cascade(model.q0, views, model.spec, model.blocks)
        perm = ifa_cascade(model.q0, shuffled, model.spec, model.blocks)
        worst = max(worst, float(np.max(np.abs(base.data - perm.data))))
    assert worst < 1e-9


# =====================================================================
# corrupting views that observe nothing at a cell leaves it bit-identical
# =====================================================================


def _cells_seen_by_view(view, spec) -> np.ndarray:
    """Bool [H*W]: cells with at least one reference height observed."""
    seen = np.zeros(spec.grid_h * spec.grid_w, dtype=bool)
    refs = spec.reference_points()
    for h in range(spec.n_ref):
        uv, _, ok = project_points(refs[h], view.cam, view.agent_pose_in_ego)
        if view.mask is not None:
            fh, fw = view.mask.shape
            cols = np.clip(np.rint(uv[:, 0]).astype(np.intp), 0, fw - 1)
            rows = np.clip(np.rint(uv[:, 1]).astype(np.intp), 0, fh - 1)
            ok = ok & view.mask[rows, cols]
        seen |= ok
    return seen


def test_unobserved_cells_are_bit_identical_under_view_corruption():
    cfg = small_scene_cfg(n_agents=2)
    model = small_model()
    checked = 0
    for i in range(8):
        scene = generate_scene(cfg, 4600 + i)
        fr = model_forward(model, scene, FLAGS_FULL, wire=True,
                           detector_mode="infer")
        views = list(fr.views)
        base = ifa_cascade(model.q0, views, model.spec, model.blocks).data
        rng = np.random.default_rng(i)
        k = int(rng.integers(0, len(views)))
        target = views[k]
        untouched = ~_cells_seen_by_view(target, model.spec)
        if not untouched.any():
            continue
        wrecked = BevView(
            features=Tensor(np.asarray(target.features.data)
                            + rng.normal(0.0, 37.0,
                                         target.features.data.shape)),
            cam=target.cam, agent_pose_in_ego=target.agent_pose_in_ego,
            agent_id=target.agent_id, view_id=target.view_id,
            mask=target.mask)
        other = [wrecked if j == k else v for j, v in enumerate(views)]
        out = ifa_cascade(model.q0, other, model.spec, model.blocks).data
        c = base.shape[0]
        flat_base = base.reshape(c, -1)[:, untouched]
        flat_out = out.reshape(c, -1)[:, untouched]
        assert np.array_equal(flat_base, flat_out)
        checked += int(untouched.sum())
    assert checked > 100


# =====================================================================
# wire protocol: fuzzed round trips, golden bytes, exact reconstruction
# =====================================================================


def test_ten_thousand_fuzzed_messages_round_trip_exactly():
    # wire floats are float32, so the contract is byte stability: decoding
    # and re-encoding reproduces the buffer, and decoded values are fixed
    # points of another trip
    rng = np.random.default_rng(99)
    for i in range(10000):
        if i % 2 == 0:
            fc = int(rng.integers(1, 5))
            h = int(rng.integers(1, 5))
            w = int(rng.integers(1, 5))
            m = comms.InstanceMessage(
                agent_id=int(rng.integers(0, 2 ** 16)),
                view_id=int(rng.integers(0, 2 ** 16)),
                index=int(rng.integers(0, 2 ** 16)),
                box=tuple(float(x) for x in rng.normal(0.0, 50.0, 4)),
                confidence=float(rng.uniform(0, 1)),
                payload=rng.normal(0.0, 3.0, (fc, h, w)).astype(np.float32))
            buf = comms.encode_message(m)
            back = comms.decode_message(buf)
            assert comms.encode_message(back) == buf
            assert comms.decode_message(comms.encode_message(back)) == back
        else:
            m = comms.DetectionMessage(
                agent_id=int(rng.integers(0, 2 ** 16)),
                index=int(rng.integers(0, 2 ** 16)),
                box=tuple(float(x) for x in rng.normal(0.0, 20.0, 7)),
                confidence=float(rng.uniform(0, 1)))
            buf = comms.encode_detection(m)
            back = comms.decode_detection(buf)
            assert comms.encode_detection(back) == buf
            assert comms.decode_detection(comms.encode_detection(back)) == back


def _golden_messages():
    inst = comms.InstanceMessage(
        agent_id=2, view_id=1, index=7,
        box=(10.0 + 1.0 / 3.0, 4.5, 60.25, 31.0 + 2.0 / 3.0),
        confidence=0.8125,
        payload=(np.arange(18, dtype=np.float32).reshape(2, 3, 3) / 3.0))
    det = comms.DetectionMessage(
        agent_id=1, index=0,
        box=(2.0 + 1.0 / 3.0, -5.5, 0.75, 0.9, 1.8, 4.4, -2.0 / 3.0),
        confidence=0.6875)
    return inst, det


def test_wire_bytes_match_the_golden_hex_file():
    golden = (Path(__file__).resolve().parent / "data"
              / "messages_golden.hex").read_text().split()
    inst, det = _golden_messages()
    assert comms.encode_message(inst).hex() == golden[1]
    assert comms.encode_detection(det).hex() == golden[3]


def test_reconstruction_foreground_exact_background_zero():
    cfg = small_scene_cfg()
    model = small_model()
    hit = 0
    for i in range(10):
        scene = generate_scene(cfg, 4800 + i)
        fr = model_forward(model, scene, FLAGS_FULL, wire=True,
                           detector_mode="infer")
        for view in fr.views:
            if view.agent_id == 0 or view.mask is None:
                continue
            feat = np.asarray(view.features.data)
            mask = view.mask
            assert np.all(feat[:, ~mask] == 0.0)
            hit += int(mask.sum())
    assert hit > 0


# =====================================================================
# bandwidth accounting
# =====================================================================


def test_comm_volume_log2_exact_on_constructed_ledgers():
    led = comms.CommLedger(header_bytes=1000, box_bytes=24, payload_bytes=0)
    assert comms.comm_volume_log2(led) == 10.0
    led2 = comms.CommLedger(payload_bytes=2 ** 17)
    assert comms.comm_volume_log2(led2) == 17.0
    with pytest.raises(ValueError, match="volume"):
        comms.comm_volume_log2(comms.CommLedger())


def test_instance_sharing_cheaper_than_fullmap_on_any_backgrounded_scene():
    from dataclasses import replace as drep
    cfg = small_scene_cfg()
    model = small_model()
    full_flags = FLAGS_FULL
    nomask = drep(FLAGS_FULL, mask=False)
    for i in range(15):
        scene = generate_scene(cfg, 5000 + i)
        fr_m = model_forward(model, scene, full_flags, wire=True,
                             detector_mode="infer")
        fr_f = model_forward(model, scene, nomask, wire=True,
                             detector_mode="infer")
        has_background = any(
            v.mask is not None and not v.mask.all()
            for v in fr_m.views if v.agent_id != 0)
        if has_background:
            assert fr_m.ledger.total_bytes < fr_f.ledger.total_bytes


def test_raising_the_share_threshold_never_costs_more_bytes():
    cfg = small_scene_cfg()
    model = small_model()
    for i in range(8):
        scene = generate_scene(cfg, 5100 + i)
        prev = None
        for thr in (0.0, 0.15, 0.3, 0.5, 0.7, 0.9):
            fr = model_forward(model, scene, FLAGS_FULL, wire=True,
                               detector_mode="infer", c_thre=thr)
            b = fr.ledger.total_bytes
            if prev is not None:
                assert b <= prev
            prev = b


# =====================================================================
# oracle equivalence: assignment, IoU, AP
# =====================================================================


def test_hungarian_equals_brute_force_on_a_thousand_matrices():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 8))
        cost = rng.normal(0.0, 5.0, (n, m))
        if rng.uniform() < 0.3:
            cost = np.round(cost)    # force ties
        res = hungarian_match(cost)
        got = sum(cost[i, j] for i, j in res.pairs)
        k = min(n, m)
        best = np.inf
        if n <= m:
            for perm in itertools.permutations(range(m), k):
                best = min(best, sum(cost[i, perm[i]] for i in range(k)))
        else:
            for perm in itertools.permutations(range(n), k):
                best = min(best, sum(cost[perm[j], j] for j in range(k)))
        assert abs(got - best) < 1e-12


def _mc_iou(a, b, n_pts: int, rng) -> float:
    boxes = np.array([a, b])
    lo = np.min(boxes[:, :2] - boxes[:, 2:4].sum(axis=1, keepdims=True), axis=0)
    hi = np.max(boxes[:, :2] + boxes[:, 2:4].sum(axis=1, keepdims=True), axis=0)
    pts = rng.uniform(lo, hi, (n_pts, 2))

    def inside(box):
        cx, cy, w, l, yaw = box
        d = pts - (cx, cy)
        cos, sin = np.cos(yaw), np.sin(yaw)
        u = d[:, 0] * cos + d[:, 1] * sin        # along heading: length
        v = -d[:, 0] * sin + d[:, 1] * cos
        return (np.abs(u) <= l / 2) & (np.abs(v) <= w / 2)

    in_a, in_b = inside(a), inside(b)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


# rotated_iou_bev reads x, y, w, l, yaw fields; _mc_iou unpacks the tuple
_Box = namedtuple("_Box", "x y w l yaw")


def test_rotated_iou_within_hundredth_of_monte_carlo():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        a = _Box(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.5, 2.5),
                 rng.uniform(0.5, 2.5), rng.uniform(-np.pi, np.pi))
        b = _Box(a.x + rng.uniform(-2, 2), a.y + rng.uniform(-2, 2),
                 rng.uniform(0.5, 2.5), rng.uniform(0.5, 2.5),
                 rng.uniform(-np.pi, np.pi))
        exact = rotated_iou_bev(a, b)
        est = _mc_iou(a, b, 10 ** 6, rng)
        worst = max(worst, abs(exact - est))
    assert worst <= 0.01


def test_average_precision_matches_hand_computed_curves():
    # every detection a hit, one per target
    assert average_precision([(0.9, True), (0.8, True)], 2) == 1.0
    # every detection a miss
    assert average_precision([(0.9, False), (0.8, False)], 2) == 0.0
    # hit then miss: precision envelope holds 1.0 up to recall 0.5
    assert average_precision([(0.9, True), (0.8, False)], 2) == 0.5
    # miss then hit: precisions 0, 1/2 at recalls 0, 1/2; the envelope
    # lifts the first to 1/2, so it is 1/2 over recall [0, 1/2] and the
    # area is 1/2 * 1/2 = 0.25
    assert average_precision([(0.9, False), (0.8, True)], 2) == 0.25
    # one hit of two targets, perfect precision, recall saturates at 0.5
    assert average_precision([(0.9, True)], 2) == 0.5


# =====================================================================
# command line determinism: identical runs, identical bytes
# =====================================================================


def test_cli_train_and_eval_are_byte_deterministic(tmp_path, capsys):
    d = {
        "scene": {"n_agents": 2, "feat_c": 12, "feat_h": 8, "feat_w": 12,
                  "stride": 10, "focal_px": 60.0, "n_objects_min": 5,
                  "n_objects_max": 8, "occluded_fraction": 0.4,
                  "pixel_noise": 0.05},
        "model": {"feat_c": 12, "c": 12, "enc_hidden": 12, "grid_h": 16,
                  "grid_w": 16, "resolution": 1.9, "n_q": 24, "n_blocks": 1,
                  "n_dec_layers": 1},
        "train": {"steps": 4, "batch": 2, "n_scenes": 5, "seed": 3},
        "eval": {"n_scenes": 2},
    }
    outs = []
    for run in ("a", "b"):
        dd = dict(d)
        dd["out_dir"] = str(tmp_path / run)
        cp = tmp_path / f"{run}.json"
        cp.write_text(json.dumps(dd))
        assert cli_main(["train", "--config", str(cp)]) == 0
        assert cli_main(["eval", "--config", str(cp)]) == 0
        assert cli_main(["eval", "--config", str(cp), "--pipeline", "late"]) == 0
        outs.append(tmp_path / run)
    capsys.readouterr()
    for name in ("loss.csv", "report_fused.jsonl", "report_late.jsonl"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
