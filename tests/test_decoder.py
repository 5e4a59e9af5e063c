"""Hungarian matching, loss arithmetic and the query decoder head."""
import math
from itertools import permutations

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from gradcheck import check_scalar_fn
from viewfuse import decoder
from viewfuse.decoder import (
    BoxCodec,
    DetrDecoder,
    LossWeights,
    MatchResult,
    Predictions,
    decoded_rows,
    hungarian_match,
    match_predictions,
    set_loss,
)
from viewfuse.ifa import BevGridSpec
from viewfuse.model import (ModelConfig, ego_frame_targets, init_model,
                            model_forward)
from viewfuse.scene import GtBox, SceneConfig, generate_scene
from viewfuse.tensor import Tensor, focal_loss, BACKGROUND


def _codec():
    return BoxCodec(x_scale=16.0, y_scale=16.0)


def _gt(x=8.0, y=0.0, z=1.0, w=1.0, l=1.0, h=1.0, yaw=0.0, obj_id=0):
    return GtBox(obj_id=obj_id, x=x, y=y, z=z, w=w, l=l, h=h, yaw=yaw)


# ---- matching ----


def test_match_identity_and_two_by_two():
    cost = np.ones((3, 3))
    np.fill_diagonal(cost, 0.0)
    m = hungarian_match(cost)
    assert m.pairs == [(0, 0), (1, 1), (2, 2)]
    assert m.unmatched_queries == []

    m2 = hungarian_match(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert m2.pairs == [(0, 0), (1, 1)]


def test_match_capacity_and_finiteness():
    pred = Predictions(Tensor(np.zeros((2, 1))), Tensor(np.zeros((2, 8))))
    gts = [_gt(obj_id=i) for i in range(3)]
    with pytest.raises(ValueError, match="3 boxes cannot all be assigned "
                                         "to 2 queries"):
        match_predictions(pred, gts, _codec())
    with pytest.raises(ValueError, match="3 boxes .* 2 queries"):
        set_loss(pred, gts, _codec())
    with pytest.raises(ValueError, match="finite"):
        hungarian_match(np.array([[np.inf, 1.0], [1.0, 0.0]]))


def test_match_result_validation():
    with pytest.raises(ValueError, match="one-to-one"):
        MatchResult(pairs=[(0, 0), (0, 1)], unmatched_queries=[])
    with pytest.raises(ValueError, match="both"):
        MatchResult(pairs=[(0, 0)], unmatched_queries=[0])


def test_match_equals_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n_q = int(rng.integers(1, 8))
        n_gt = int(rng.integers(1, n_q + 1))
        cost = rng.normal(size=(n_q, n_gt))
        got = hungarian_match(cost)
        total = sum(cost[q, g] for q, g in got.pairs)
        best = min(sum(cost[r, j] for j, r in enumerate(rows))
                   for rows in permutations(range(n_q), n_gt))
        assert abs(total - best) < 1e-12
        assert len(got.pairs) == n_gt
        assert len(got.unmatched_queries) == n_q - n_gt


def _scipy_pairs(cost):
    rows, cols = linear_sum_assignment(cost)
    return sorted(zip(rows.tolist(), cols.tolist()), key=lambda p: p[1])


def test_match_breaks_ties_as_scipy():
    # scipy is the reference here: which of several equal-cost assignments
    # wins decides the training targets at init, where costs tie to ~1e-15
    rng = np.random.default_rng(11)
    kinds = (lambda s: rng.normal(size=s),
             lambda s: np.round(rng.normal(size=s), 1),
             lambda s: np.full(s, 0.3),
             lambda s: rng.integers(0, 3, s).astype(float),
             lambda s: 0.7 + 1e-15 * rng.normal(size=s))
    for i in range(2000):
        shape = (int(rng.integers(1, 70)), int(rng.integers(1, 20)))
        cost = kinds[i % 5](shape if i % 2 else shape[::-1])
        assert hungarian_match(cost).pairs == _scipy_pairs(cost), (i, shape)
    for shape in [(0, 0), (0, 3), (3, 0)]:
        assert hungarian_match(np.zeros(shape)).pairs == []


def test_match_at_init_equals_scipy(monkeypatch):
    costs = []
    real = decoder.hungarian_match
    monkeypatch.setattr(decoder, "hungarian_match",
                        lambda c: costs.append(c) or real(c))
    model = init_model(ModelConfig(), 0)
    scene = generate_scene(SceneConfig(), 1000)
    fr = model_forward(model, scene, wire=False)
    match_predictions(fr.preds, ego_frame_targets(scene, model.spec),
                      model.codec, model.weights)
    (cost,) = costs
    assert cost.shape[0] == 64 and cost.shape[1] > 1
    assert real(cost).pairs == _scipy_pairs(cost)


# ---- codec ----


def test_codec_round_trip_and_angle_grid():
    codec = _codec()
    box = _gt(x=4.0, y=-6.0, z=0.9, w=1.8, l=4.4, h=1.5, yaw=0.7)
    enc = codec.encode(box)
    dec = codec.decode_rows(np.array([0.9]), enc[None, :])[0]
    np.testing.assert_allclose(
        dec, [0.9, 4.0, -6.0, 0.9, 1.8, 4.4, 1.5, 0.7], atol=1e-12)

    thetas = np.linspace(-math.pi + 1e-6, math.pi, 181)
    vec = np.zeros((181, 8))
    vec[:, 3:6] = 0.0
    vec[:, 6] = np.sin(thetas)
    vec[:, 7] = np.cos(thetas)
    rows = codec.decode_rows(np.zeros(181), vec)
    np.testing.assert_allclose(rows[:, 7], thetas, atol=1e-9)
    # published examples: atan2(0.6, 0.8), unit size from log 0
    one = codec.decode_rows(np.zeros(1),
                            np.array([[0, 0, 0, 0.0, 0, 0, 0.6, 0.8]]))
    assert abs(one[0, 7] - math.atan2(0.6, 0.8)) < 1e-12
    assert abs(one[0, 7] - 0.6435011087932844) < 1e-9
    assert one[0, 4] == one[0, 5] == one[0, 6] == 1.0


# ---- loss ----


def test_loss_no_gt_is_pure_background_focal():
    rng = np.random.default_rng(1)
    logits = Tensor(rng.normal(size=(5, 1)))
    vec = Tensor(rng.normal(size=(5, 8)))
    loss = set_loss(Predictions(logits, vec), [], _codec())
    ref = focal_loss(Tensor(logits.data), np.full(5, BACKGROUND))
    assert abs(float(loss.data) - float(ref.data)) < 1e-15


def test_loss_saturated_perfect_predictions():
    codec = _codec()
    gt = _gt()
    enc = codec.encode(gt)
    logits = Tensor(np.array([[12.0], [-12.0], [-12.0]]))
    vec = Tensor(np.stack([enc, enc * 0.1 + 3.0, enc * -0.2 - 2.0]))
    loss = set_loss(Predictions(logits, vec), [gt], codec)
    assert float(loss.data) < 1e-3


def test_loss_hand_computed_single_pair():
    codec = _codec()
    gt = _gt()              # encodes to [0.5, 0, 0.5, 0, 0, 0, 0, 1]
    logits = Tensor(np.zeros((1, 1)))
    vec = Tensor(np.zeros((1, 8)))
    loss = set_loss(Predictions(logits, vec), [gt], codec)
    focal_hand = 0.25 * 0.5 ** 2 * -math.log(0.5)
    reg_hand = 2.5 * (0.5 + 0.5 + 1.0) / 8.0
    assert abs(float(loss.data) - (focal_hand + reg_hand)) < 1e-12


def test_loss_permutation_consistent():
    rng = np.random.default_rng(2)
    codec = _codec()
    gts = [_gt(x=rng.uniform(-10, 10), y=rng.uniform(-10, 10),
               w=rng.uniform(1, 2), l=rng.uniform(2, 4),
               h=rng.uniform(1, 2), yaw=rng.uniform(-3, 3), obj_id=i)
           for i in range(5)]
    logits = Tensor(rng.normal(size=(9, 1)))
    vec = Tensor(rng.normal(size=(9, 8)))
    pred = Predictions(logits, vec)
    base = float(set_loss(pred, gts, codec).data)
    base_match = match_predictions(pred, gts, codec)
    perm = [3, 1, 4, 0, 2]
    shuffled = [gts[i] for i in perm]
    new = float(set_loss(pred, shuffled, codec).data)
    assert abs(new - base) < 1e-10
    new_match = match_predictions(pred, shuffled, codec)
    base_set = {(q, gts[g].obj_id) for q, g in base_match.pairs}
    new_set = {(q, shuffled[g].obj_id) for q, g in new_match.pairs}
    assert base_set == new_set


def test_loss_gradients_finite_difference():
    codec = _codec()
    gt = _gt()
    enc = codec.encode(gt)
    # query 0 is decisively the match so epsilon cannot flip the assignment
    logits0 = np.array([[1.5], [-1.5]])
    vec0 = np.stack([enc + 0.05, enc + 2.0])

    def build(lg, vc):
        return set_loss(Predictions(lg, vc), [gt], codec)

    check_scalar_fn(build, [logits0, vec0], tol=1e-4)


# ---- decoder head ----


def test_decoder_shapes_determinism_and_gradients():
    rng = np.random.default_rng(3)
    c, n_q = 8, 6
    spec = BevGridSpec(grid_h=8, grid_w=8, n_ref=2, z_min=0.0, z_max=1.0)
    dec = DetrDecoder(c=c, n_layers=2, n_da=2, rng=rng)
    fbev = Tensor(rng.normal(size=(c, 8, 8)), requires_grad=True)
    queries = Tensor(rng.normal(size=(n_q, c)), requires_grad=True)
    anchors = rng.uniform(-0.8, 0.8, (n_q, 2))
    p1 = dec.forward(fbev, queries, spec, anchors)
    p2 = dec.forward(fbev, queries, spec, anchors)
    with pytest.raises(ValueError, match="anchors"):
        dec.forward(fbev, queries, spec, anchors[:-1])
    np.testing.assert_array_equal(p1.cls_logits.data, p2.cls_logits.data)
    np.testing.assert_array_equal(p1.box_vec.data, p2.box_vec.data)
    assert p1.cls_logits.shape == (n_q, 1)
    assert p1.box_vec.shape == (n_q, 8)

    loss = set_loss(p1, [_gt(x=2.0, y=1.0)], BoxCodec.from_grid(spec))
    loss.backward()
    assert np.all(np.isfinite(fbev.grad))
    assert np.all(np.isfinite(queries.grad))
    touched = 0
    for name, t in dec.params().items():
        if t.grad is not None and np.abs(t.grad).sum() > 0:
            touched += 1
    assert touched > 10


def test_decode_rows_contract():
    rng = np.random.default_rng(4)
    c, n_q = 8, 5
    spec = BevGridSpec(grid_h=8, grid_w=8)
    dec = DetrDecoder(c=c, n_layers=1, n_da=2, rng=rng)
    pred = dec.forward(Tensor(rng.normal(size=(c, 8, 8))),
                       Tensor(rng.normal(size=(n_q, c))), spec,
                       np.zeros((n_q, 2)))
    rows = decoded_rows(pred, BoxCodec.from_grid(spec))
    assert rows.shape == (n_q, 8)
    assert np.all((rows[:, 0] >= 0.0) & (rows[:, 0] <= 1.0))
    assert np.all(rows[:, 4:7] > 0.0)
    assert np.all(np.abs(rows[:, 7]) <= math.pi)


def test_decoder_layer_count_validation():
    with pytest.raises(ValueError):
        DetrDecoder(c=4, rng=np.random.default_rng(0), n_layers=0)
