"""Cone descriptors, pooled appearance encoding and hybrid query assembly."""
import numpy as np
import pytest

from gradcheck import check_scalar_fn
from viewfuse.cdqa import (
    ConeDescriptor,
    HybridQueries,
    build_hybrid_queries,
    cone_descriptor,
    cone_encode,
    instance_gap_encode,
)
from viewfuse.geometry import CameraModel, Pose, relative_pose
from viewfuse.tensor import Mlp, Tensor


def _unit_cam():
    # stride 1, principal point at (50, 50), focal 100 px
    return CameraModel(fx=100.0, fy=100.0, cx=50.0, cy=50.0,
                       pix_w=100, pix_h=100, feat_w=100, feat_h=100)


def test_descriptor_validation():
    with pytest.raises(ValueError, match="coincide"):
        ConeDescriptor(p1=np.zeros(3), p2=np.zeros(3), c=np.ones(3))
    with pytest.raises(ValueError, match="finite"):
        ConeDescriptor(p1=np.array([np.inf, 0, 0]), p2=np.zeros(3),
                       c=np.ones(3))
    with pytest.raises(ValueError, match="degenerate"):
        cone_descriptor((5.0, 5.0, 5.0, 5.0), _unit_cam(), Pose())


def test_descriptor_hand_unprojection():
    desc = cone_descriptor((40.0, 40.0, 60.0, 60.0), _unit_cam(), Pose())
    # (40, 40): right = down = (40 - 50)/100 = -0.1 at depth 1; local frame
    # is (forward, left, up) so the corner sits at (1, 0.1, 0.1)
    np.testing.assert_allclose(desc.p1, [1.0, 0.1, 0.1], atol=1e-12)
    np.testing.assert_allclose(desc.p2, [1.0, -0.1, -0.1], atol=1e-12)
    np.testing.assert_allclose(desc.c, [0.0, 0.0, 0.0], atol=1e-12)


def test_descriptor_symmetric_about_principal_axis():
    desc = cone_descriptor((45.0, 45.0, 55.0, 55.0), _unit_cam(), Pose())
    np.testing.assert_allclose(desc.p1[1:], -desc.p2[1:], atol=1e-12)
    np.testing.assert_allclose(desc.p1 + desc.p2, [2.0, 0.0, 0.0], atol=1e-12)


def test_descriptor_rigid_equivariance():
    base = cone_descriptor((30.0, 35.0, 70.0, 80.0), _unit_cam(), Pose())
    moved = cone_descriptor((30.0, 35.0, 70.0, 80.0), _unit_cam(),
                            Pose(x=1.0))
    np.testing.assert_allclose(moved.p1, base.p1 + [1.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(moved.p2, base.p2 + [1.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(moved.c, base.c + [1.0, 0.0, 0.0], atol=1e-12)


def test_descriptor_world_frame_invariant():
    """Only relative poses enter; shifting the world changes nothing."""
    ego_w = Pose(x=3.0, y=-2.0, yaw=0.7)
    cam_w = Pose(x=5.0, y=1.0, z=1.4, yaw=2.0)
    box = (20.0, 30.0, 60.0, 70.0)
    a = cone_descriptor(box, _unit_cam(), relative_pose(ego_w, cam_w))
    shift = (1037.0, -412.0)
    b = cone_descriptor(
        box, _unit_cam(),
        relative_pose(Pose(x=ego_w.x + shift[0], y=ego_w.y + shift[1], yaw=0.7),
                      Pose(x=cam_w.x + shift[0], y=cam_w.y + shift[1], z=1.4,
                           yaw=2.0)))
    np.testing.assert_array_equal(a.p1, b.p1)
    np.testing.assert_array_equal(a.p2, b.p2)
    np.testing.assert_array_equal(a.c, b.c)


# ---- appearance encoding ----


def test_gap_constant_crop():
    rng = np.random.default_rng(0)
    mlp = Mlp([3, 5], rng)
    const = np.array([1.0, -2.0, 0.5])
    crop = Tensor(np.tile(const[:, None, None], (1, 4, 6)))
    out = instance_gap_encode(crop, mlp)
    ref = mlp(Tensor(const[None, :]))
    np.testing.assert_allclose(out.data, ref.data[0], atol=1e-12)


def test_gap_hand_mean_and_single_cell():
    rng = np.random.default_rng(1)
    mlp = Mlp([2, 4], rng)
    crop = np.array([[[1.0, 2.0], [3.0, 4.0]],
                     [[-1.0, 0.0], [1.0, 2.0]]])
    out = instance_gap_encode(Tensor(crop), mlp)
    ref = mlp(Tensor(np.array([[2.5, 0.5]])))
    np.testing.assert_allclose(out.data, ref.data[0], atol=1e-12)

    cell = np.array([[[0.3]], [[0.9]]])
    out1 = instance_gap_encode(Tensor(cell), mlp)
    ref1 = mlp(Tensor(np.array([[0.3, 0.9]])))
    np.testing.assert_allclose(out1.data, ref1.data[0], atol=1e-12)

    with pytest.raises(ValueError, match="empty"):
        instance_gap_encode(Tensor(np.zeros((2, 0, 3))), mlp)


def test_gap_and_cone_paths_differentiable():
    rng = np.random.default_rng(2)
    gap_mlp = Mlp([3, 4, 5], rng, name="gap")
    cone_mlp = Mlp([9, 4, 5], rng, name="cone")
    crop0 = rng.normal(size=(3, 2, 2))
    w_out = rng.normal(size=5)
    box = (30.0, 35.0, 70.0, 80.0)
    cam = _unit_cam()

    def build_gap(crop, w0, b0, w1, b1):
        gap_mlp.weights = [w0, w1]
        gap_mlp.biases = [b0, b1]
        return (instance_gap_encode(crop, gap_mlp) * Tensor(w_out)).sum()

    check_scalar_fn(build_gap, [crop0,
                                gap_mlp.weights[0].data.copy(),
                                gap_mlp.biases[0].data.copy(),
                                gap_mlp.weights[1].data.copy(),
                                gap_mlp.biases[1].data.copy()], tol=1e-4)

    def build_cone(w0, b0, w1, b1):
        cone_mlp.weights = [w0, w1]
        cone_mlp.biases = [b0, b1]
        return (cone_encode(box, cam, Pose(x=0.3), cone_mlp)
                * Tensor(w_out)).sum()

    check_scalar_fn(build_cone, [cone_mlp.weights[0].data.copy(),
                                 cone_mlp.biases[0].data.copy(),
                                 cone_mlp.weights[1].data.copy(),
                                 cone_mlp.biases[1].data.copy()], tol=1e-4)


# ---- hybrid assembly ----


def test_hybrid_empty_is_learned_table():
    rng = np.random.default_rng(3)
    learned = Tensor(rng.normal(size=(6, 4)))
    grid = rng.uniform(-1.0, 1.0, (6, 2))
    hq = build_hybrid_queries([], learned, [], grid)
    assert hq.n_instance == 0
    np.testing.assert_array_equal(hq.q.data, learned.data)
    np.testing.assert_array_equal(hq.anchors, grid)


def test_hybrid_fill_and_overflow():
    rng = np.random.default_rng(4)
    n_q, c = 5, 3
    learned = Tensor(rng.normal(size=(n_q, c)))
    grid = np.arange(2.0 * n_q).reshape(n_q, 2)
    grid0 = grid.copy()

    # instance anchors replace their rows' seeds; None keeps the learned seed
    vecs = [Tensor(np.full(c, float(i))) for i in range(3)]
    hq = build_hybrid_queries([(v, 0.5) for v in vecs], learned,
                              [(0.5, -0.5), None, (0.25, 0.25)], grid)
    assert hq.q.shape == (n_q, c)
    assert hq.n_instance == 3
    for i in range(3):
        np.testing.assert_array_equal(hq.q.data[i], np.full(c, float(i)))
    np.testing.assert_array_equal(hq.q.data[3:], learned.data[3:])
    np.testing.assert_array_equal(
        hq.anchors, [[0.5, -0.5], grid[1], [0.25, 0.25], grid[3], grid[4]])

    # exactly full
    full = [(Tensor(np.full(c, float(i))), 0.9) for i in range(n_q)]
    hq2 = build_hybrid_queries(full, learned, [None] * n_q, grid)
    assert hq2.n_instance == n_q
    np.testing.assert_array_equal(hq2.q.data[-1], np.full(c, float(n_q - 1)))
    np.testing.assert_array_equal(hq2.anchors, grid)

    # overflow by three: confidences 0.1..0.8, the three lowest go, and
    # their anchors with them
    over = [(Tensor(np.full(c, float(i))), 0.1 * (i + 1)) for i in range(8)]
    hq3 = build_hybrid_queries(over, learned,
                               [(float(i), -float(i)) for i in range(8)], grid)
    assert hq3.n_instance == n_q
    np.testing.assert_array_equal(hq3.q.data[:, 0], [3.0, 4.0, 5.0, 6.0, 7.0])
    np.testing.assert_array_equal(hq3.anchors[:, 0], [3.0, 4.0, 5.0, 6.0, 7.0])
    np.testing.assert_array_equal(grid, grid0)


def test_hybrid_row_budget_validation():
    with pytest.raises(ValueError, match="instance rows"):
        HybridQueries(q=Tensor(np.zeros((4, 2))), n_instance=5,
                      anchors=np.zeros((4, 2)))
    with pytest.raises(ValueError, match="anchor"):
        HybridQueries(q=Tensor(np.zeros((4, 2))), n_instance=0,
                      anchors=np.zeros((3, 2)))
