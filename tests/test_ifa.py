"""BEV aggregation: sampling math, masking, residual identity, gradients."""
import math

import numpy as np
import pytest

from gradcheck import check_scalar_fn
from ifa_reference import (aggregate_reference_point, composite_layer_norm,
                           composite_weighted_sample, deformable_sample,
                           reference_bilinear_sample, reference_block_forward,
                           reference_sample_grads)
from viewfuse.geometry import (CameraModel, Pose, apply_pose_noise,
                               project_points, relative_pose)
import viewfuse.ifa
from viewfuse.ifa import (
    BevGridSpec,
    BevView,
    IfaBlock,
    ifa_block_forward,
    ifa_cascade,
    observe,
)
from viewfuse.model import (FLAGS_FULL, FLAGS_SOLO, PipelineModel,
                            model_forward)
from viewfuse.scene import SceneConfig, generate_scene, make_ring_rig
from viewfuse.tensor import (SAMPLE_CHUNK_ROWS as CHUNK, Tensor,
                             bilinear_sample, layer_norm, softmax)

from small import small_model_cfg, small_scene_cfg


def _ring_cam(k=0):
    rig = make_ring_rig(SceneConfig(), Pose())
    return rig.cams[k]


def _view(features, yaw=0.0, agent_id=0, view_id=0, cam=None, pose=None,
          mask=None):
    return BevView(features=features if isinstance(features, Tensor)
                   else Tensor(features),
                   cam=cam if cam is not None else _ring_cam(),
                   agent_pose_in_ego=pose if pose is not None else Pose(yaw=yaw),
                   agent_id=agent_id, view_id=view_id, mask=mask)


# ---- grid spec ----


def test_grid_spec_validation():
    spec = BevGridSpec()
    assert spec.grid_h == spec.grid_w == 32
    with pytest.raises(ValueError, match="even"):
        BevGridSpec(grid_h=31)
    with pytest.raises(ValueError, match="positive"):
        BevGridSpec(resolution=0.0)
    with pytest.raises(ValueError, match="reference height"):
        BevGridSpec(n_ref=0)
    with pytest.raises(ValueError, match="increasing"):
        BevGridSpec(z_min=2.0, z_max=-1.0)


def test_grid_heights_and_origin():
    spec = BevGridSpec(grid_h=8, grid_w=6, resolution=0.5, n_ref=4)
    h = spec.heights()
    assert np.all(np.diff(h) > 0)
    assert h[0] == spec.z_min and h[-1] == spec.z_max
    xy = spec.cell_xy()
    origin_cell = (spec.grid_h // 2) * spec.grid_w + spec.grid_w // 2
    assert tuple(xy[origin_cell]) == (0.0, 0.0)
    refs = spec.reference_points()
    assert refs.shape == (4, 48, 3)
    np.testing.assert_array_equal(refs[2, :, :2], xy)
    assert np.all(refs[1, :, 2] == h[1])


# ---- deformable sampling ----


def test_sample_constant_map_returns_constant():
    rng = np.random.default_rng(0)
    block = IfaBlock(c=3, n_da=4, rng=rng)
    # non-trivial offsets via the bias, still bounded by the ring radius
    const = np.array([1.5, -2.0, 0.25])
    fmap = Tensor(np.tile(const[:, None, None], (1, 7, 9)))
    out = deformable_sample(block, Tensor(np.zeros(3)), fmap, p=(4.0, 3.0))
    np.testing.assert_allclose(out.data, const, atol=1e-12)


def test_sample_single_point_degenerates_to_bilinear():
    rng = np.random.default_rng(1)
    block = IfaBlock(c=2, n_da=1, rng=rng)
    fmap = Tensor(rng.normal(size=(2, 6, 8)))
    q = Tensor(rng.normal(size=2))
    # zero-initialized head: the only offset is the ring bias (1, 0)
    out = deformable_sample(block, q, fmap, p=(2.3, 3.6))
    ref = bilinear_sample(fmap, np.array([[3.3, 3.6]]))
    np.testing.assert_allclose(out.data, ref.data[0], atol=1e-12)


def test_sample_matches_hand_interpolation():
    rng = np.random.default_rng(2)
    block = IfaBlock(c=1, n_da=2, rng=rng)
    # hand-set head: offsets (0.5, 0) and (0, 0.5), logits (log 3, 0)
    block.off_mlp.biases[-1].data[:] = [0.5, 0.0, 0.0, 0.5, math.log(3.0), 0.0]
    m = np.arange(9, dtype=np.float64).reshape(1, 3, 3)
    out = deformable_sample(block, Tensor(np.zeros(1)), Tensor(m), p=(1.0, 1.0))
    # weights (0.75, 0.25); samples at (1.5, 1.0) and (1.0, 1.5)
    s1 = 0.5 * (m[0, 1, 1] + m[0, 1, 2])
    s2 = 0.5 * (m[0, 1, 1] + m[0, 2, 1])
    np.testing.assert_allclose(out.data, [0.75 * s1 + 0.25 * s2], atol=1e-12)


def test_sample_differentiable_into_query_and_map():
    rng = np.random.default_rng(3)
    block = IfaBlock(c=3, n_da=2, rng=rng)
    # non-zero final layer so offsets actually depend on the query
    block.off_mlp.weights[-1].data[:] = rng.normal(0.0, 0.3,
                                                   block.off_mlp.weights[-1].shape)
    fmap0 = rng.normal(size=(3, 6, 8))
    q0 = rng.normal(size=3)

    def build(q, m):
        out = deformable_sample(block, q, m, p=(3.4, 2.6))
        return (out * Tensor(np.array([0.7, -1.1, 0.4]))).sum()

    check_scalar_fn(build, [q0, fmap0], tol=1e-4)


# ---- single-node ops against their generic-op composites ----


def _grads_after(out, seed_grad, leaves):
    for t in leaves:
        t.zero_grad()
    (out * Tensor(seed_grad)).sum().backward()
    return [t.grad for t in leaves]


def _assert_close_rel(a, b, tol=1e-12):
    scale = max(np.max(np.abs(b)), 1e-300)
    assert np.max(np.abs(a - b)) <= tol * scale


def _sampling_inputs(rng, n_view, c, fh, fw, m, k):
    """Maps, points, per-point views and softmax weights for M rows of K.

    Points spread from two cells off the map to past its far edges; a
    quarter of them sit in the one-cell band below the last row or past the
    last column, where the next map of a stack starts in flat memory.
    """
    shape = (c, fh, fw) if n_view is None else (n_view, c, fh, fw)
    maps = Tensor(rng.normal(size=shape), requires_grad=True)
    p = np.stack([rng.uniform(-2.5, fw + 1.5, m * k),
                  rng.uniform(-2.5, fh + 1.5, m * k)], axis=1)
    band = np.nonzero(rng.random(m * k) < 0.25)[0]
    col = rng.random(band.size) < 0.5
    edge = rng.uniform(0.05, 0.95, band.size)
    p[band, 0] = np.where(col, fw - 1 + edge, rng.uniform(0, fw - 1, band.size))
    p[band, 1] = np.where(col, rng.uniform(0, fh - 1, band.size), fh - 1 + edge)
    # an eighth each on a lattice column, on a lattice row, on the last
    # column, on the last row and half-way between lattice lines in both
    # axes; on a line the point gradient is the one-sided one from above
    kind = rng.integers(0, 8, m * k)
    p[kind == 1, 0] = np.floor(p[kind == 1, 0])
    p[kind == 2, 1] = np.floor(p[kind == 2, 1])
    p[kind == 3, 0] = fw - 1
    p[kind == 4, 1] = fh - 1
    p[kind == 5] = np.floor(p[kind == 5]) + 0.5
    pts = Tensor(p, requires_grad=True)
    view = None if n_view is None else np.repeat(rng.integers(0, n_view, m), k)
    wts = softmax(Tensor(rng.normal(size=(m, k)), requires_grad=True))
    return maps, pts, view, wts


@pytest.mark.parametrize("n_view, c, fh, fw, m, k", [
    (5, 32, 12, 20, 700, 4),     # IFA: a view stack, one view per row
    (None, 32, 32, 32, 64, 4),   # decoder: the BEV map, one row per query
    # row counts below, at a multiple of and one past the VJP's gather chunk
    (3, 8, 6, 7, CHUNK - 1, 4),
    (3, 8, 6, 7, 2 * CHUNK, 4),
    (None, 8, 6, 7, CHUNK + 1, 2),
])
def test_weighted_sample_matches_composite(n_view, c, fh, fw, m, k):
    rng = np.random.default_rng(n_view or 0)
    maps, pts, view, wts = _sampling_inputs(rng, n_view, c, fh, fw, m, k)
    # a sixteenth of the rows get zero weights and a sixteenth negative
    # ones; half of each lie wholly off the lattice, where every sample is
    # +0.0 and a negative weight makes every product -0.0
    w = wts.data.copy()
    zero, neg = np.array_split(rng.permutation(m)[:max(4, m // 8)], 2)
    w[zero] = 0.0
    w[neg] = -rng.uniform(0.1, 1.0, (neg.size, k))
    off = np.concatenate([zero[::2], neg[::2]])
    p = pts.data.reshape(m, k, 2)
    p[off] = [-3.5, fh + 2.5]
    wts = Tensor(w, requires_grad=True)
    fused = bilinear_sample(maps, pts, view, wts)
    prods = bilinear_sample(maps, pts, view).data.reshape(m, k, c) * w[..., None]
    assert not prods[off].any() and np.signbit(prods[neg[::2]]).all()
    # the op sums each row from +0.0, so a row of -0.0 products is +0.0
    assert not np.signbit(fused.data[off]).any()
    assert not fused.data[off].any()
    # adding +0.0 maps a composite sum of -0.0, where numpy's sum starts
    # from the first product, to +0.0 and leaves every other value's bits
    composite = composite_weighted_sample(maps, pts, view, wts)
    assert fused.data.tobytes() == (composite.data + 0.0).tobytes()
    g = rng.normal(size=fused.shape)
    leaves = [maps, pts, wts]
    for a, b in zip(_grads_after(fused, g, leaves),
                    _grads_after(composite, g, leaves)):
        _assert_close_rel(a, b)
    # the four-gather reference shares no code with the op
    ref = (reference_bilinear_sample(maps, pts, view).reshape(m, k, c)
           * wts.reshape(m, k, 1)).sum(axis=1)
    assert fused.data.tobytes() == (ref.data + 0.0).tobytes()
    for a, b in zip(_grads_after(fused, g, leaves),
                    _grads_after(ref, g, leaves)):
        _assert_close_rel(a, b)


@pytest.mark.parametrize("n_view, c, fh, fw, m, k, weighted", [
    (8, 32, 20, 32, 1000, 4, True),   # IFA: a view stack, view 5 unobserved
    (None, 32, 32, 32, 64, 4, True),  # decoder: the BEV map
    (8, 32, 20, 32, 1000, 1, False),  # weights=None: a row per point
])
def test_sample_grads_keep_the_reference_bytes(n_view, c, fh, fw, m, k,
                                               weighted):
    rng = np.random.default_rng(m + k)
    maps, pts, view, wts = _sampling_inputs(rng, n_view, c, fh, fw, m, k)
    if view is not None:
        view[view == 5] = 4
    wts = Tensor(wts.data, requires_grad=True) if weighted else None
    out = bilinear_sample(maps, pts, view, wts)
    g = rng.normal(size=out.shape)
    leaves = [maps, pts] + ([wts] if weighted else [])
    got = _grads_after(out, g, leaves)
    want = reference_sample_grads(maps.data, pts.data, view,
                                  wts.data if weighted else None, g)
    assert (want[2] is not None) == weighted
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("rows, c", [(1024, 32), (64, 32)])
def test_layer_norm_matches_composite(rows, c):
    rng = np.random.default_rng(rows)
    x = rng.normal(size=(rows, c)) * rng.uniform(0.01, 10.0, (rows, 1))
    x[0] = 3.0                     # a constant row: variance 0, eps only
    x = Tensor(x, requires_grad=True)
    gamma = Tensor(rng.normal(size=c), requires_grad=True)
    beta = Tensor(rng.normal(size=c), requires_grad=True)
    fused = layer_norm(x, gamma, beta)
    composite = composite_layer_norm(x, gamma, beta)
    assert fused.data.tobytes() == composite.data.tobytes()
    g = rng.normal(size=fused.shape)
    leaves = [x, gamma, beta]
    for a, b in zip(_grads_after(fused, g, leaves),
                    _grads_after(composite, g, leaves)):
        _assert_close_rel(a, b)


# ---- aggregation ----


def test_aggregate_mean_and_marker():
    f = [Tensor(np.full(2, 1.0)), Tensor(np.full(2, 2.0)),
         Tensor(np.full(2, 6.0))]
    out = aggregate_reference_point(f, [1, 1, 1])
    np.testing.assert_allclose(out.data, [3.0, 3.0])
    only = aggregate_reference_point(f, [0, 1, 0])
    np.testing.assert_allclose(only.data, [2.0, 2.0])
    assert aggregate_reference_point(f, [0, 0, 0]) is None
    with pytest.raises(ValueError):
        aggregate_reference_point(f, [1, 1])


# ---- block forward ----


def test_block_zero_views_is_identity():
    rng = np.random.default_rng(4)
    block = IfaBlock(c=5, n_da=3, rng=rng)
    spec = BevGridSpec(grid_h=6, grid_w=6)
    q0 = rng.normal(size=(5, 6, 6))
    out = ifa_block_forward(block, Tensor(q0), [], spec)
    np.testing.assert_array_equal(out.data, q0)


def test_block_constant_view_gives_uniform_update():
    rng = np.random.default_rng(5)
    c = 4
    block = IfaBlock(c=c, n_da=2, rng=rng)
    spec = BevGridSpec()
    const = np.array([0.5, -1.0, 2.0, 0.1])
    cam = _ring_cam()
    view = _view(np.tile(const[:, None, None], (1, cam.feat_h, cam.feat_w)))
    q0 = rng.normal(size=(c, spec.grid_h, spec.grid_w))
    out = ifa_block_forward(block, Tensor(q0), [view], spec)
    delta = (out.data - q0).reshape(c, -1).T

    refs = spec.reference_points()
    qualifies = None
    seen = np.zeros(refs.shape[1], dtype=bool)
    for h in range(spec.n_ref):
        uv, _, ok = project_points(refs[h], view.cam, view.agent_pose_in_ego)
        interior = ((uv[:, 0] > 1.1) & (uv[:, 0] < cam.feat_w - 2.1)
                    & (uv[:, 1] > 1.1) & (uv[:, 1] < cam.feat_h - 2.1))
        bad = ok & ~interior
        qualifies = ~bad if qualifies is None else qualifies & ~bad
        seen |= ok
    cells = seen & qualifies
    assert cells.sum() > 20
    # every qualifying observed cell received the same aggregate
    np.testing.assert_allclose(
        delta[cells], np.broadcast_to(const, delta[cells].shape), atol=1e-9)
    untouched = ~seen
    assert untouched.sum() > 0
    np.testing.assert_array_equal(delta[untouched], 0.0)


def test_block_permutation_invariant():
    rng = np.random.default_rng(6)
    c = 3
    block = IfaBlock(c=c, n_da=2, rng=rng)
    spec = BevGridSpec(grid_h=16, grid_w=16)
    views = [_view(rng.normal(size=(c, 20, 32)), yaw=0.0, agent_id=0, view_id=0),
             _view(rng.normal(size=(c, 20, 32)), yaw=math.pi / 2, agent_id=0,
                   view_id=1),
             _view(rng.normal(size=(c, 20, 32)), yaw=0.3, agent_id=1, view_id=0,
                   pose=Pose(x=2.0, y=-1.0, yaw=0.3))]
    q0 = rng.normal(size=(c, 16, 16))
    ref = ifa_block_forward(block, Tensor(q0), views, spec)
    for perm in ([2, 0, 1], [1, 2, 0], [2, 1, 0]):
        got = ifa_block_forward(block, Tensor(q0),
                                [views[i] for i in perm], spec)
        np.testing.assert_array_equal(got.data, ref.data)


def test_block_ignores_views_that_observe_nothing():
    rng = np.random.default_rng(7)
    c = 3
    block = IfaBlock(c=c, n_da=2, rng=rng)
    spec = BevGridSpec(grid_h=16, grid_w=16)
    front = _view(rng.normal(size=(c, 20, 32)))
    q0 = rng.normal(size=(c, 16, 16))
    base = ifa_block_forward(block, Tensor(q0), [front], spec)

    # a camera a kilometre away: every reference point projects invalid
    far = _view(rng.normal(size=(c, 20, 32)), agent_id=1,
                pose=Pose(x=1000.0, yaw=0.0))
    with_far = ifa_block_forward(block, Tensor(q0),
                                 [front, far], spec)
    np.testing.assert_array_equal(with_far.data, base.data)

    # and a masked-out view contributes nothing even when it projects fine
    hollow = _view(rng.normal(size=(c, 20, 32)), agent_id=1,
                   mask=np.zeros((20, 32), dtype=bool))
    with_hollow = ifa_block_forward(block, Tensor(q0),
                                    [front, hollow], spec)
    np.testing.assert_array_equal(with_hollow.data, base.data)


def test_block_mask_gates_observation_count():
    rng = np.random.default_rng(8)
    c = 2
    block = IfaBlock(c=c, n_da=2, rng=rng)
    spec = BevGridSpec(grid_h=8, grid_w=8)
    full = _view(rng.normal(size=(c, 20, 32)), agent_id=0)
    # same geometry, different content, masked to nothing vs fully open
    other_feats = rng.normal(size=(c, 20, 32))
    open_view = _view(other_feats, agent_id=1)
    shut_view = _view(other_feats, agent_id=1,
                      mask=np.zeros((20, 32), dtype=bool))
    q0 = rng.normal(size=(c, 8, 8))
    alone = ifa_block_forward(block, Tensor(q0), [full], spec)
    with_shut = ifa_block_forward(block, Tensor(q0),
                                  [full, shut_view], spec)
    with_open = ifa_block_forward(block, Tensor(q0),
                                  [full, open_view], spec)
    np.testing.assert_array_equal(with_shut.data, alone.data)
    assert not np.array_equal(with_open.data, alone.data)


def test_block_second_viewpoint_changes_only_its_cells():
    rng = np.random.default_rng(9)
    c = 3
    block = IfaBlock(c=c, n_da=2, rng=rng)
    spec = BevGridSpec(grid_h=16, grid_w=16)
    a = _view(rng.normal(size=(c, 20, 32)), yaw=0.0)
    b = _view(rng.normal(size=(c, 20, 32)), yaw=math.pi, agent_id=1,
              pose=Pose(yaw=math.pi))
    q0 = rng.normal(size=(c, 16, 16))
    base = ifa_block_forward(block, Tensor(q0), [a], spec)
    both = ifa_block_forward(block, Tensor(q0), [a, b], spec)

    seen_b = np.zeros(spec.grid_h * spec.grid_w, dtype=bool)
    refs = spec.reference_points()
    for h in range(spec.n_ref):
        _, _, ok = project_points(refs[h], b.cam, b.agent_pose_in_ego)
        seen_b |= ok
    diff = np.abs(both.data - base.data).reshape(c, -1).sum(axis=0)
    assert diff[seen_b].max() > 1e-6
    np.testing.assert_array_equal(diff[~seen_b], 0.0)


def test_full_block_gradients_against_finite_differences():
    rng = np.random.default_rng(10)
    c, n_da = 4, 2
    spec = BevGridSpec(grid_h=4, grid_w=4, resolution=1.0, n_ref=2,
                       z_min=0.0, z_max=1.0)
    block = IfaBlock(c=c, n_da=n_da, rng=rng)
    # break the zero initialization so every parameter matters
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
    check_scalar_fn(build, inputs, tol=1e-4)


def _two_agent_views(rng, c):
    """Four ego views and four masked, pose-noised collaborator views.

    The last collaborator view is masked to nothing, so it observes no cell.
    """
    cfg = SceneConfig()
    cams = make_ring_rig(cfg, Pose()).cams
    believed = apply_pose_noise(Pose(x=7.0, y=-3.0, yaw=2.4), 0.2, 0.05, rng)
    in_ego = relative_pose(Pose(), believed)
    views = []
    for agent, pose in ((0, Pose()), (1, in_ego)):
        for k, cam in enumerate(cams):
            mask = None
            if agent == 1:
                mask = rng.random((cfg.feat_h, cfg.feat_w)) < 0.4
                if k == len(cams) - 1:
                    mask[:] = False
            feats = Tensor(rng.normal(size=(c, cfg.feat_h, cfg.feat_w)),
                           requires_grad=True)
            views.append(_view(feats, agent_id=agent, view_id=k, cam=cam,
                               pose=pose, mask=mask))
    return views


def test_block_bit_identical_to_per_view_reference():
    rng = np.random.default_rng(12)
    c = 6
    spec = BevGridSpec()
    block = IfaBlock(c=c, n_da=4, rng=rng)
    # non-zero heads so offsets, weights and the FFN depend on the query
    for t in block.params().values():
        t.data[:] += rng.normal(0.0, 0.3, t.shape)
    views = _two_agent_views(rng, c)
    q0 = rng.normal(size=(c, spec.grid_h, spec.grid_w))
    w_out = rng.normal(size=q0.shape)
    leaves = list(block.params().values()) + [v.features for v in views]

    def run(forward, order):
        q = Tensor(q0, requires_grad=True)
        for t in leaves:
            t.zero_grad()
        out = forward(block, q, [views[i] for i in order], spec)
        (out * Tensor(w_out)).sum().backward()
        grads = [q.grad] + [t.grad for t in leaves]
        return out.data, grads

    got, got_g = run(ifa_block_forward, rng.permutation(len(views)))
    want, want_g = run(reference_block_forward, range(len(views)))
    np.testing.assert_array_equal(got, want)
    assert not np.array_equal(got, q0)
    assert views[-1].features.grad is None
    assert want_g[-1] is None
    for a, b in zip(got_g, want_g):
        if b is None:
            assert a is None
            continue
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_block_sums_views_in_sorted_order():
    # four views share one camera and pose, so each observed cell has four
    # sightings per height and the order of the view sum shows in the bits
    rng = np.random.default_rng(13)
    c = 4
    spec = BevGridSpec()
    block = IfaBlock(c=c, n_da=4, rng=rng)
    for t in block.params().values():
        t.data[:] += rng.normal(0.0, 0.3, t.shape)
    views = [_view(rng.normal(size=(c, 20, 32)), agent_id=a) for a in range(4)]
    q0 = rng.normal(size=(c, spec.grid_h, spec.grid_w))
    got = ifa_block_forward(block, Tensor(q0),
                            [views[i] for i in (2, 0, 3, 1)], spec)
    want = reference_block_forward(block, Tensor(q0), views, spec)
    np.testing.assert_array_equal(got.data, want.data)


# ---- cascade ----


def test_cascade_composition():
    rng = np.random.default_rng(11)
    c = 3
    blocks = [IfaBlock(c=c, n_da=2, rng=rng, name=f"ifa{i}") for i in range(2)]
    spec = BevGridSpec(grid_h=8, grid_w=8)
    view = _view(rng.normal(size=(c, 20, 32)))
    q0 = Tensor(rng.normal(size=(c, 8, 8)))

    one = ifa_cascade(q0, [view], spec, blocks[:1])
    manual = ifa_block_forward(blocks[0], q0, [view], spec)
    np.testing.assert_array_equal(one.data, manual.data)

    two = ifa_cascade(q0, [view], spec, blocks)
    manual2 = ifa_block_forward(blocks[1], manual, [view], spec)
    np.testing.assert_array_equal(two.data, manual2.data)

    with pytest.raises(ValueError):
        ifa_cascade(q0, [view], spec, [])


# ---- own-rig sightings cache ----


def _caches():
    return (viewfuse.ifa._own_rig_projection, viewfuse.ifa._own_rig_geometry)


def _fresh(views, spec):
    """``observe`` on copies masked everywhere, which are never cached."""
    return observe([BevView(features=v.features, cam=v.cam,
                            agent_pose_in_ego=v.agent_pose_in_ego,
                            agent_id=v.agent_id, view_id=v.view_id,
                            mask=np.ones(v.features.shape[1:], dtype=bool))
                    for v in views], spec)


def _assert_sightings_equal(got, want):
    assert got.maps.data.tobytes() == want.maps.data.tobytes()
    for name in ("uv", "view", "cell", "v_inv", "h_inv", "coef"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert not a.flags.writeable, name
    assert got.cell_rows.idx.tobytes() == want.cell_rows.idx.tobytes()
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got.v_sum, name), getattr(want.v_sum, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert not a.flags.writeable, name


def test_own_rig_sightings_are_cached_bit_for_bit():
    for cache in _caches():
        cache.cache_clear()
    rng = np.random.default_rng(29)
    spec = BevGridSpec()
    ego = [_view(rng.normal(size=(3, 20, 32)), view_id=k, cam=cam)
           for k, cam in enumerate(make_ring_rig(SceneConfig(), Pose()).cams)]
    first = observe(ego, spec)
    again = observe(ego[::-1], spec)
    assert [c.cache_info().misses for c in _caches()] == [4, 1]
    assert [c.cache_info().hits for c in _caches()] == [8, 1]
    for got in (first, again):
        _assert_sightings_equal(got, _fresh(ego, spec))
    with pytest.raises(ValueError, match="read-only"):
        again.uv[0, 0] = 1.0
    # maps are built on every call, from the views given
    other = [_view(rng.normal(size=(3, 20, 32)), view_id=v.view_id, cam=v.cam)
             for v in ego]
    _assert_sightings_equal(observe(other, spec), _fresh(other, spec))
    # a solo rig with a missing view, as late fusion's forwards build it
    scene_cfg = small_scene_cfg(n_agents=3, missing_view_prob=0.5)
    scene = next(sc for sc in (generate_scene(scene_cfg, s) for s in range(20))
                 if not all(sc.agents[1].view_valid))
    model = PipelineModel(small_model_cfg(), np.random.default_rng(7))
    solo = model_forward(model, scene, FLAGS_SOLO, wire=True, ego=1).views
    assert 0 < len(solo) < scene_cfg.n_cams
    _assert_sightings_equal(observe(solo, model.spec),
                            _fresh(solo, model.spec))


def test_noisy_and_masked_views_add_no_cache_entry():
    scene = generate_scene(small_scene_cfg(n_agents=3), 4)
    model = PipelineModel(small_model_cfg(), np.random.default_rng(7))
    # the ego's own views are cached by the solo forward
    model_forward(model, scene, FLAGS_SOLO, wire=True)
    before = [c.cache_info() for c in _caches()]
    for wire in (False, True):
        fr = model_forward(model, scene, FLAGS_FULL, wire=wire,
                           noise_sigma=0.3,
                           noise_rng=np.random.default_rng(1))
        assert any(v.mask is not None for v in fr.views)
    after = [c.cache_info() for c in _caches()]
    assert [(i.misses, i.currsize) for i in after] == [
        (i.misses, i.currsize) for i in before]
    assert after[0].hits > before[0].hits
