"""Central finite-difference gradient oracle.

Independent of the autodiff engine: perturbs raw numpy inputs, re-runs the
forward function, and differences the scalar outputs. Used by the unit tests
and by the acceptance gradient suite.
"""

from __future__ import annotations

import numpy as np

from viewfuse.tensor import Tensor

H_DEFAULT = 1e-5


def numeric_grad(f, x: np.ndarray, h: float = H_DEFAULT) -> np.ndarray:
    """d f / d x by central differences, one coordinate at a time."""
    x = np.array(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        fp = f(x)
        flat[i] = keep - h
        fm = f(x)
        flat[i] = keep
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def rel_err(a: np.ndarray, n: np.ndarray) -> float:
    """max_i |a - n| / max(|a|, |n|, 1): relative for large grads, absolute for small."""
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1.0)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def check_scalar_fn(build, inputs: list[np.ndarray], tol: float = 1e-5,
                    h: float = H_DEFAULT) -> float:
    """Compare autodiff grads of ``build(*tensors)`` to the numeric oracle.

    ``build`` must map Tensors to a scalar Tensor and be deterministic.
    Returns the worst relative error over all inputs; asserts it is < tol.
    """
    ts = [Tensor(np.array(x, dtype=np.float64), requires_grad=True) for x in inputs]
    loss = build(*ts)
    loss.backward()

    worst = 0.0
    for k in range(len(inputs)):
        def f(xk, k=k):
            args = [Tensor(inputs[j] if j != k else xk) for j in range(len(inputs))]
            return float(build(*args).data)

        num = numeric_grad(f, np.array(inputs[k], dtype=np.float64), h=h)
        ana = ts[k].grad
        assert ana is not None, f"no gradient reached input {k}"
        err = rel_err(ana, num)
        worst = max(worst, err)
        assert err < tol, f"input {k}: gradient mismatch {err:.3e} >= {tol:.0e}"
    return worst


def away_from(x: np.ndarray, points, margin: float = 1e-3) -> np.ndarray:
    """Nudge entries of ``x`` off the given kink points (relu/abs/floor edges)."""
    x = np.array(x, dtype=np.float64)
    for p in points:
        close = np.abs(x - p) < margin
        x[close] = p + margin * np.where(x[close] >= p, 1.0, -1.0) * 2.0
    return x


def off_relu_kinks(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                   margin: float = 1e-3) -> np.ndarray:
    """Shift ``b`` per column until no pre-activation ``x @ w + b`` is near 0."""
    b = np.array(b, dtype=np.float64)
    for j in range(b.size):
        while np.any(np.abs(x @ w[:, j] + b[j]) < margin):
            b[j] += 2.0 * margin
    return b


def fractional_points(rng: np.random.Generator, n: int, w: int, h: int) -> np.ndarray:
    """Sample points with fractional parts in [0.1, 0.9], inside the lattice."""
    u = rng.integers(0, w - 1, n) + rng.uniform(0.1, 0.9, n)
    v = rng.integers(0, h - 1, n) + rng.uniform(0.1, 0.9, n)
    return np.stack([u, v], axis=1)


def op_gradient_cases(rng: np.random.Generator):
    """Yield (name, build, inputs) for every differentiable core op.

    Inputs avoid kinks (relu/abs zero crossings, bilinear lattice lines) so the
    central-difference oracle is valid everywhere it is evaluated.
    """
    from viewfuse import tensor as T

    def u(shape, lo=-2.0, hi=2.0):
        return rng.uniform(lo, hi, shape)

    wa = rng.normal(0.0, 1.0, (3, 4))
    wb = rng.normal(0.0, 1.0, (4, 5))
    pick = rng.normal(0.0, 1.0, (2, 4))
    w35 = rng.normal(0.0, 1.0, (3, 5))
    w4 = rng.normal(0.0, 1.0, 4)
    w31 = rng.normal(0.0, 1.0, (3, 1))
    w26 = rng.normal(0.0, 1.0, (2, 6))
    w43 = rng.normal(0.0, 1.0, (4, 3))
    w22 = rng.normal(0.0, 1.0, (2, 2))
    w54 = rng.normal(0.0, 1.0, (5, 4))
    w44 = rng.normal(0.0, 1.0, (4, 4))
    w64 = rng.normal(0.0, 1.0, (6, 4))

    yield "add", lambda a, b: ((a + b) * Tensor(wa)).sum(), [u((3, 4)), u((3, 4))]
    yield "add_broadcast", lambda a, b: ((a + b) * Tensor(wa)).sum(), [u((3, 4)), u((4,))]
    yield "sub", lambda a, b: ((a - b) * Tensor(wa)).sum(), [u((3, 4)), u((3, 4))]
    yield "mul", lambda a, b: ((a * b) * Tensor(wa)).sum(), [u((3, 4)), u((3, 4))]
    yield "mul_broadcast", lambda a, b: ((a * b) * Tensor(wa)).sum(), [u((3, 4)), u((3, 1))]
    yield "div", lambda a, b: ((a / b) * Tensor(wa)).sum(), [u((3, 4)), u((3, 4), 0.5, 2.0)]
    yield "neg", lambda a: ((-a) * Tensor(wa)).sum(), [u((3, 4))]
    yield "pow", lambda a: ((a ** 2.5) * Tensor(wa)).sum(), [u((3, 4), 0.2, 2.0)]
    yield "sqrt", lambda a: (a.sqrt() * Tensor(wa)).sum(), [u((3, 4), 0.2, 3.0)]
    yield "abs", lambda a: (a.abs() * Tensor(wa)).sum(), [away_from(u((3, 4)), [0.0])]
    yield "relu", lambda a: (T.linear(a, Tensor(np.eye(4)), Tensor(np.zeros(4)), relu=True)
                             * Tensor(wa)).sum(), [away_from(u((3, 4)), [0.0])]
    yield "sigmoid", lambda a: (a.sigmoid() * Tensor(wa)).sum(), [u((3, 4), -4.0, 4.0)]
    yield "softplus", lambda a: (a.softplus() * Tensor(wa)).sum(), [u((3, 4), -4.0, 4.0)]
    yield "matmul", lambda a, b: ((a @ b) * Tensor(w35)).sum(), [u((3, 4)), wb]
    yield "sum_all", lambda a: a.sum(), [u((3, 4))]
    yield "sum_axis", lambda a: (a.sum(axis=0) * Tensor(w4)).sum(), [u((3, 4))]
    yield "mean_axis", lambda a: (a.mean(axis=1, keepdims=True) * Tensor(w31)).sum(), [u((3, 4))]
    yield "reshape", lambda a: (a.reshape(2, 6) * Tensor(w26)).sum(), [u((3, 4))]
    yield "transpose", lambda a: (a.transpose() * Tensor(w43)).sum(), [u((3, 4))]
    yield "getitem", lambda a: (a[1:3, ::2] * Tensor(w22)).sum(), [u((3, 4))]
    yield "concat", lambda a, b: (T.concat([a, b], axis=0) * Tensor(w54)).sum(), \
        [u((2, 4)), u((3, 4))]
    yield "take_rows", lambda a: (T.take_rows(a, [2, 0, 2, 1]) * Tensor(w44)).sum(), [u((3, 4))]
    yield "softmax", lambda a: (T.softmax(a, axis=-1) * Tensor(wa)).sum(), [u((3, 4), -3.0, 3.0)]
    yield "layer_norm", lambda a, g, b: (T.layer_norm(a, g, b) * Tensor(wa)).sum(), \
        [u((3, 4)), u((4,), 0.5, 1.5), u((4,), -0.5, 0.5)]
    yield "l1_loss", lambda a: T.l1_loss(a, Tensor(pick + 0.37)), [pick.copy()]
    yield "focal_loss", lambda a: T.focal_loss(a, [0, 2, T.BACKGROUND], alpha=0.3, gamma=2.0), \
        [u((3, 4), -3.0, 3.0)]
    yield "focal_loss_g0", lambda a: T.focal_loss(a, [1, T.BACKGROUND], alpha=0.5, gamma=0.0), \
        [u((2, 4), -3.0, 3.0)]

    fmap = rng.normal(0.0, 1.0, (2, 5, 6))
    pts = fractional_points(rng, 7, 6, 5)
    wpt = rng.normal(0.0, 1.0, (7, 2))
    yield "bilinear_map", lambda m: (T.bilinear_sample(m, pts) * Tensor(wpt)).sum(), [fmap]
    yield "bilinear_pts", lambda p: (T.bilinear_sample(Tensor(fmap), p) *
                                     Tensor(wpt)).sum(), [pts]
    yield "bilinear_both", lambda m, p: (T.bilinear_sample(m, p) * Tensor(wpt)).sum(), \
        [fmap, pts]

    # a stack of two 4-channel 3x5 maps; points reach into the one-cell band
    # past the last row and column, where the neighbouring map must not leak
    maps = rng.normal(0.0, 1.0, (2, 4, 3, 5))
    spts = fractional_points(rng, 6, 6, 4)
    sview = np.array([0, 1, 1, 0, 1, 0])
    yield "bilinear_stack_map", lambda m: (T.bilinear_sample(m, spts, sview) *
                                           Tensor(w64)).sum(), [maps]
    yield "bilinear_stack_pts", lambda p: (T.bilinear_sample(Tensor(maps), p, sview) *
                                           Tensor(w64)).sum(), [spts]
    yield "bilinear_stack_both", lambda m, p: (T.bilinear_sample(m, p, sview) *
                                               Tensor(w64)).sum(), [maps, spts]
    # last, so its input draw leaves every other case's inputs unchanged
    yield "getitem_repeat", lambda a: (a[np.array([0, 0, 2])] * Tensor(wa)).sum(), \
        [u((3, 4))]

    # weighted sampling: 3 rows of 4 points on the stack above, in the
    # one-cell fade band on every side of the 3x5 lattice as well as inside
    wpts = np.stack([rng.integers(-1, 5, 12) + rng.uniform(0.1, 0.9, 12),
                     rng.integers(-1, 3, 12) + rng.uniform(0.1, 0.9, 12)], axis=1)
    wview = np.repeat([1, 0, 1], 4)
    wrow = u((3, 4))
    w34 = rng.normal(0.0, 1.0, (3, 4))

    def weighted(m, p, w):
        return (T.bilinear_sample(m, p, wview, w) * Tensor(w34)).sum()

    yield "bilinear_weighted_map", lambda m: weighted(m, wpts, wrow), [maps]
    yield "bilinear_weighted_pts", lambda p: weighted(Tensor(maps), p, wrow), [wpts]
    yield "bilinear_weighted_wts", lambda w: weighted(Tensor(maps), wpts, w), [wrow]
    yield "bilinear_weighted_all", weighted, [maps, wpts, wrow]

    # one MLP layer, with and without ReLU, and on an input that needs no grad
    lx, lw = u((3, 4)), u((4, 5))
    lb = off_relu_kinks(lx, lw, u((5,)))

    def layer(x, w, b, relu):
        return (T.linear(x, w, b, relu=relu) * Tensor(w35)).sum()

    yield "linear", lambda x, w, b: layer(x, w, b, False), [lx, lw, lb]
    yield "linear_relu", lambda x, w, b: layer(x, w, b, True), [lx, lw, lb]
    yield "linear_const_x", lambda w, b: layer(Tensor(lx), w, b, False), [lw, lb]
    yield "linear_relu_const_x", lambda w, b: layer(Tensor(lx), w, b, True), [lw, lb]


def run_op_gradient_suite(n_seeds: int, tol: float = 1e-5) -> int:
    """Run every op case across ``n_seeds`` seeds; returns the number of checks."""
    count = 0
    for seed in range(n_seeds):
        rng = np.random.default_rng(1000 + seed)
        for name, build, inputs in op_gradient_cases(rng):
            check_scalar_fn(build, inputs, tol=tol)
            count += 1
    return count
