import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viewfuse import tensor as T
from viewfuse.tensor import (
    Adam, Mlp, NumericError, ShapeError, Tensor, bilinear_sample, focal_loss,
    l1_loss, layer_norm, softmax,
)

from gradcheck import check_scalar_fn, op_gradient_cases, run_op_gradient_suite
from ifa_reference import composite_linear


# ---- forward examples ----

def test_matmul_shapes():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((3, 4)))
    assert (a @ b).shape == (2, 4)
    np.testing.assert_allclose((a @ b).data, 3.0)


def test_matmul_dim_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
        Tensor(np.ones((2, 3))) @ Tensor(np.ones((4, 2)))


def test_layer_norm_two_point_row():
    g = Tensor(np.ones(2))
    b = Tensor(np.zeros(2))
    out = layer_norm(Tensor(np.array([[1.0, 3.0]])), g, b, eps=1e-12)
    np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-5)


def test_layer_norm_constant_row_gives_beta():
    g = Tensor(np.full(3, 2.0))
    b = Tensor(np.array([0.5, -1.0, 2.0]))
    out = layer_norm(Tensor(np.full((4, 3), 7.0)), g, b)
    np.testing.assert_allclose(out.data, np.broadcast_to(b.data, (4, 3)))


def test_layer_norm_errors():
    with pytest.raises(ShapeError):
        layer_norm(Tensor(np.zeros((2, 0))), Tensor(np.zeros(0)), Tensor(np.zeros(0)))
    with pytest.raises(ShapeError):
        layer_norm(Tensor(np.zeros((2, 3))), Tensor(np.ones(3)), Tensor(np.zeros(3)), eps=0.0)


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_softmax_rows_sum_to_one(row):
    out = softmax(Tensor(np.array([row])))
    np.testing.assert_allclose(out.data.sum(), 1.0, atol=1e-12)
    assert np.all(out.data >= 0.0)


@given(st.lists(st.floats(min_value=-30, max_value=30), min_size=2, max_size=6),
       st.floats(min_value=-100, max_value=100))
@settings(max_examples=200, deadline=None)
def test_softmax_shift_invariance(row, c):
    a = softmax(Tensor(np.array(row))).data
    b = softmax(Tensor(np.array(row) + c)).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_softmax_nonfinite_rejected():
    with pytest.raises(NumericError):
        softmax(Tensor(np.array([1.0, np.inf])))


def test_bilinear_integer_point_is_exact():
    rng = np.random.default_rng(0)
    fmap = Tensor(rng.normal(size=(3, 5, 6)))
    out = bilinear_sample(fmap, np.array([[2.0, 3.0]]))
    np.testing.assert_allclose(out.data[0], fmap.data[:, 3, 2])


def test_bilinear_midpoint_example():
    fmap = Tensor(np.array([[[0.0, 0.0], [1.0, 1.0]]]))
    out = bilinear_sample(fmap, np.array([[0.5, 0.5]]))
    np.testing.assert_allclose(out.data, [[0.5]])


def test_bilinear_far_outside_is_zero():
    fmap = Tensor(np.ones((2, 4, 4)))
    out = bilinear_sample(fmap, np.array([[-10.0, -10.0], [40.0, 2.0]]))
    np.testing.assert_allclose(out.data, 0.0)


def test_bilinear_stack_band_does_not_bleed_into_next_view():
    # view 0 is zero and view 1 is one: flattened, view 1's first row
    # directly follows view 0's last one
    maps = Tensor(np.stack([np.zeros((2, 4, 5)), np.ones((2, 4, 5))]))
    pts = np.array([[2.0, 3.5], [2.0, 0.0]])
    out = bilinear_sample(maps, pts, np.array([0, 1]))
    np.testing.assert_array_equal(out.data, [[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ShapeError, match="view"):
        bilinear_sample(maps, pts, np.array([0, 2]))
    with pytest.raises(ShapeError, match="stack"):
        bilinear_sample(maps, pts)


def test_bilinear_weights_sum_each_row_of_points():
    fmap = Tensor(np.arange(12, dtype=np.float64).reshape(1, 3, 4))
    pts = np.array([[0.0, 0.0], [3.0, 2.0], [1.0, 1.0], [0.5, 0.0]])
    out = bilinear_sample(fmap, pts, weights=np.array([[0.25, 2.0], [1.0, -1.0]]))
    np.testing.assert_array_equal(out.data, [[22.0], [4.5]])
    with pytest.raises(ShapeError, match="weights"):
        bilinear_sample(fmap, pts, weights=np.ones((3, 1)))
    with pytest.raises(ShapeError, match="weights"):
        bilinear_sample(fmap, pts, weights=np.ones(4))


@pytest.mark.parametrize("shape, view", [((3, 4, 5), None),
                                         ((2, 3, 4, 5), np.zeros(0, np.intp))])
@pytest.mark.parametrize("k", [None, 4])
def test_bilinear_empty_input(shape, view, k):
    fmap = Tensor(np.ones(shape), requires_grad=True)
    pts = Tensor(np.zeros((0, 2)), requires_grad=True)
    wts = None if k is None else Tensor(np.zeros((0, k)), requires_grad=True)
    out = bilinear_sample(fmap, pts, view, wts)
    assert out.shape == (0, 3)
    out.sum().backward()
    for t in (fmap, pts) if wts is None else (fmap, pts, wts):
        assert t.grad.shape == t.shape and not t.grad.any()


def test_focal_loss_single_positive_example():
    # p = 0.5, alpha 0.25, gamma 2 -> 0.25 * 0.25 * ln 2
    out = focal_loss(Tensor(np.zeros((1, 1))), [0], alpha=0.25, gamma=2.0)
    np.testing.assert_allclose(out.data, 0.25 * 0.25 * math.log(2.0), rtol=1e-12)


def test_focal_loss_reduces_to_half_bce():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(5, 2))
    targets = [0, 1, T.BACKGROUND, 1, 0]
    out = focal_loss(Tensor(logits), targets, alpha=0.5, gamma=0.0)
    p = 1.0 / (1.0 + np.exp(-logits))
    t = np.zeros((5, 2))
    for i, c in enumerate(targets):
        if c >= 0:
            t[i, c] = 1.0
    bce = -(t * np.log(p) + (1 - t) * np.log(1 - p)).sum() / 5.0
    np.testing.assert_allclose(out.data, 0.5 * bce, rtol=1e-10)


def test_focal_loss_class_range_error():
    with pytest.raises(ShapeError, match="class id"):
        focal_loss(Tensor(np.zeros((2, 3))), [0, 3])


def test_l1_loss_example():
    out = l1_loss(Tensor(np.array([1.0, 2.0])), np.array([0.0, 0.0]))
    np.testing.assert_allclose(out.data, 1.5)


def test_l1_loss_shape_mismatch():
    with pytest.raises(ShapeError):
        l1_loss(Tensor(np.zeros(3)), np.zeros(4))


# ---- backward semantics ----

def test_backward_requires_scalar_root():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError, match="scalar"):
        (x * 2.0).backward()


def test_backward_twice_doubles_grads():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    y = ((x * x) + x).sum()
    y.backward()
    once = x.grad.copy()
    y.backward()
    np.testing.assert_allclose(x.grad, 2.0 * once)


def test_grad_accumulates_across_shared_use():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = (x * x) + (x * 3.0)   # dy/dx = 2x + 3 = 7
    y.sum().backward()
    np.testing.assert_allclose(x.grad, [7.0])


@pytest.mark.parametrize("key", [
    (slice(1, 3),), (slice(None), slice(None, None, 2)), 2, (Ellipsis, 1),
    (None, slice(1, 4)), (np.int64(3), slice(0, 2)),       # basic keys
    np.array([0, 0, 2]), (slice(None), np.array([1, 1])),   # repeated rows
    np.arange(5) % 2 == 0,
])
def test_getitem_grad_equals_add_at_bitwise(key):
    rng = np.random.default_rng(8)
    a = Tensor(rng.normal(size=(5, 6, 4)), requires_grad=True)
    g = rng.normal(size=a.data[key].shape)
    g.flat[0] = -0.0               # 0.0 + -0.0 is +0.0, as np.add.at leaves it
    (a[key] * Tensor(g)).sum().backward()
    want = np.zeros_like(a.data)
    np.add.at(want, key, g)
    assert a.grad.tobytes() == want.tobytes()


def test_take_rows_shares_one_scatter_matrix(monkeypatch):
    """Takes over one ``Rows`` give the bits of plain index arrays; the
    forward builds no matrix and the first VJP builds the only one."""
    rng = np.random.default_rng(9)
    idx = [2, 0, 2, 1, 2]
    x = rng.normal(size=(3, 4))
    ga, gb = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
    built = []
    csr = T.csr_matrix
    monkeypatch.setattr(T, "csr_matrix",
                        lambda *a, **k: built.append(1) or csr(*a, **k))

    def grads(rows):
        del built[:]
        a = Tensor(x, requires_grad=True)
        b = Tensor(x * 2.0, requires_grad=True)
        y = ((T.take_rows(a, rows) * Tensor(ga)).sum()
             + (T.take_rows(b, rows) * Tensor(gb)).sum())
        assert not built
        y.backward()
        return a.grad.tobytes(), b.grad.tobytes(), len(built)

    *plain, n_plain = grads(idx)
    *shared, n_shared = grads(T.Rows(idx))
    assert shared == plain
    assert (n_plain, n_shared) == (2, 1)


def test_grad_kept_on_leaves_only():
    # an op's output, the root included, drops its gradient once it has
    # flowed on to the op's inputs; leaves get theirs as before
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    mid = x * 2.0
    out = mid.sum()
    out.backward()
    assert mid.grad is None and out.grad is None
    assert x.grad.tobytes() == np.array([2.0, 2.0]).tobytes()


def test_shared_grad_arrays_survive_adam():
    # both operands of a + b receive the same gradient array
    a = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    b = Tensor(np.array([0.5, 3.0]), requires_grad=True)
    (a + b).sum().backward()
    Adam({"a": a, "b": b}, lr=0.1).step()
    np.testing.assert_array_equal(a.grad, [1.0, 1.0])
    np.testing.assert_array_equal(b.grad, [1.0, 1.0])


def test_forward_determinism():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, 4))
    a = softmax(Tensor(x)).data
    b = softmax(Tensor(x.copy())).data
    assert np.array_equal(a, b)


# ---- optimizers ----

def test_adam_zero_grad_is_noop():
    p = Tensor(np.array([1.0, -1.0]), requires_grad=True)
    opt = Adam({"p": p}, lr=0.5)
    p.grad = np.zeros(2)
    opt.step()
    np.testing.assert_allclose(p.data, [1.0, -1.0])


def test_adam_converges_on_quadratic():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam({"p": p}, lr=0.1)
    for _ in range(100):
        opt.zero_grad()
        loss = (p * p).sum()
        loss.backward()
        opt.step()
    assert abs(float(p.data[0])) < 0.1


def test_adam_state_roundtrip():
    rng = np.random.default_rng(5)
    p = Tensor(rng.normal(size=(3,)), requires_grad=True)
    opt = Adam({"p": p}, lr=0.05)
    for _ in range(4):
        opt.zero_grad()
        (p * p).sum().backward()
        opt.step()
    arrays = {k: v.copy() for k, v in opt.state_arrays().items()}
    opt2 = Adam({"p": p}, lr=0.05)
    opt2.load_state_arrays(arrays)
    assert opt2.t == opt.t
    np.testing.assert_array_equal(opt2.m["p"], opt.m["p"])
    np.testing.assert_array_equal(opt2.v["p"], opt.v["p"])


def test_mlp_shapes_and_params():
    rng = np.random.default_rng(11)
    mlp = Mlp([4, 8, 3], rng, name="enc")
    out = mlp(Tensor(np.zeros((5, 4))))
    assert out.shape == (5, 3)
    names = set(mlp.params())
    assert names == {"enc.w0", "enc.b0", "enc.w1", "enc.b1"}
    with pytest.raises(ShapeError):
        mlp(Tensor(np.zeros((5, 3))))
    with pytest.raises(ShapeError):
        Mlp([4], rng)


def test_module_params_are_the_tensors_it_holds():
    rng = np.random.default_rng(3)

    class Block(T.Module):
        def __init__(self, name, mlp_name):
            self.name = name
            self.g = Tensor(np.ones(2), requires_grad=True)
            self.mlp = Mlp([2, 2], rng, name=mlp_name)
            self.scale = 2.0

    class Top(T.Module):
        def __init__(self, names):
            self.blocks = [Block(n, f"{n}_mlp") for n in names]
            self.q = Tensor(np.zeros(3), requires_grad=True)

    top = Top(["b1", "b0"])
    params = top.params()
    assert list(params) == ["b0.g", "b0_mlp.b0", "b0_mlp.w0", "b1.g",
                            "b1_mlp.b0", "b1_mlp.w0", "q"]
    assert params["b1.g"] is top.blocks[0].g and params["q"] is top.q
    top.blocks.append(Block("b2", "b0_mlp"))
    with pytest.raises(RuntimeError, match="duplicate parameter name b0_mlp.b0"):
        top.params()


def test_mlp_final_zero_outputs_zero():
    rng = np.random.default_rng(2)
    mlp = Mlp([4, 6, 3], rng, final_zero=True)
    out = mlp(Tensor(rng.normal(size=(2, 4))))
    np.testing.assert_allclose(out.data, 0.0)


def test_linear_shape_errors():
    w, b = Tensor(np.ones((3, 2))), Tensor(np.zeros(2))
    with pytest.raises(ShapeError, match=r"\(4, 3, 1\)"):
        T.linear(Tensor(np.ones((4, 3, 1))), w, b)
    with pytest.raises(ShapeError, match="inner dims"):
        T.linear(Tensor(np.ones((4, 2))), w, b)
    with pytest.raises(ShapeError, match="bias"):
        T.linear(Tensor(np.ones((4, 3))), w, Tensor(np.zeros((1, 2))))


def _count_vjp(root: Tensor) -> int:
    """Nodes with a VJP reachable from ``root``."""
    seen, stack, n = set(), [root], 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        n += t._vjp is not None
        stack.extend(t._parents)
    return n


@pytest.mark.parametrize("widths", [[4, 3], [4, 8, 3], [4, 8, 8, 8, 3]])
def test_mlp_is_one_node_per_layer(widths):
    mlp = Mlp(widths, np.random.default_rng(5))
    out = mlp(Tensor(np.ones((2, 4)), requires_grad=True))
    assert _count_vjp(out) == len(widths) - 1


def _special_rows(x: np.ndarray, w: np.ndarray, b: np.ndarray, kind: str):
    """Row 0 of ``x`` (and one bias entry) set to aim a pre-activation at a value.

    "zero": an all-zero row on a zero bias entry gives exactly 0.0.
    "negzero": signed subnormals whose products with the first layer's
    column j all round towards -0.0, on a -0.0 bias; whether their sum is
    -0.0 depends on how the BLAS kernel accumulates.
    "nan": one NaN entry makes the whole row NaN.
    """
    j = int(np.argmin(np.abs(w).max(axis=0)))
    if kind == "zero":
        x[0], b[j] = 0.0, 0.0
    elif kind == "negzero":
        x[0], b[j] = np.where(w[:, j] > 0, -5e-324, 5e-324), -0.0
    else:
        x[0, 0] = np.nan
    return j


def test_relu_matches_the_select_on_edge_values():
    # x @ [[1.0]] + (-0.0) is x, but for -0.0: the matmul's sum starts from
    # +0.0, so no -0.0 reaches a layer's ReLU
    v = np.array([np.inf, -np.inf, 5e-324, -5e-324, 0.0, -0.0, np.nan,
                  1.0, -1.0])
    x, w, b = Tensor(v[:, None]), Tensor(np.ones((1, 1))), Tensor([-0.0])
    y = x.data @ w.data + b.data
    assert y.tobytes() == (v[:, None] + 0.0).tobytes()
    got = T.linear(x, w, b, relu=True).data
    assert got.tobytes() == np.where(y > 0, y, 0.0).tobytes()
    assert not np.signbit(got).any() and not np.isnan(got).any()


@pytest.mark.parametrize("rows, widths", [
    (640, [32, 32, 32]),     # view-cell encoder
    (1024, [32, 64, 32]),    # IFA FFN over the BEV grid
    (1, [9, 32, 32]),        # cone descriptor
    (64, [32, 32, 1]),       # class head over the queries
])
def test_mlp_matches_composite_layers(rows, widths):
    rng = np.random.default_rng(rows)
    mlp = Mlp(widths, rng)
    for t in mlp.biases:
        t.data[:] = rng.normal(0.0, 0.3, t.shape)
    for kind in ("zero", "negzero", "nan"):
        xd = rng.normal(size=(rows, widths[0]))
        j = _special_rows(xd, mlp.weights[0].data, mlp.biases[0].data, kind)
        z = (xd @ mlp.weights[0].data + mlp.biases[0].data)[0, j]
        assert {"zero": z == 0.0, "negzero": True, "nan": np.isnan(z)}[kind]
        x = Tensor(xd, requires_grad=True)
        h = T.linear(x, mlp.weights[0], mlp.biases[0], relu=True).data
        assert h[0, j] == 0.0 and not np.signbit(h).any()
        leaves = [x] + mlp.weights + mlp.biases
        fused = mlp(x)
        composite = x
        for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
            composite = composite_linear(composite, w, b, relu=i < len(mlp.weights) - 1)
        assert fused.data.tobytes() == composite.data.tobytes()
        g = rng.normal(size=fused.shape)
        got = []
        for out in (fused, composite):
            for t in leaves:
                t.zero_grad()
            (out * Tensor(g)).sum().backward()
            got.append([t.grad.tobytes() for t in leaves])
        assert got[0] == got[1]


# ---- gradient oracle ----

def test_op_gradients_small():
    # acceptance runs 20 seeds; keep the unit sweep light
    n = run_op_gradient_suite(n_seeds=2)
    assert n > 60


def test_mlp_composed_gradient():
    rng = np.random.default_rng(23)
    mlp = Mlp([3, 5, 2], rng)
    w = [t.data.copy() for t in mlp.weights]
    b = [t.data.copy() for t in mlp.biases]
    x = rng.uniform(-1.5, 1.5, (4, 3))
    pickw = rng.normal(size=(4, 2))

    def build(w0, b0, w1, b1):
        h = composite_linear(Tensor(x), w0, b0, relu=True)
        out = composite_linear(h, w1, b1)
        return (out * Tensor(pickw)).sum()

    check_scalar_fn(build, [w[0], b[0], w[1], b[1]], tol=1e-4)
