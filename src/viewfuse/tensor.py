"""Dense float64 tensors with reverse-mode automatic differentiation.

Every op builds a node holding numpy data plus a vector-Jacobian closure.
``backward`` walks the graph in reverse topological order. Gradient flow
inside a single backward pass uses a scratch map, so calling ``backward``
twice on the same graph adds the same gradient twice (no stale-state
coupling between passes). Only leaves keep a gradient: the pass adds into
``.grad`` of every reachable leaf that requires one, a tensor the caller
built rather than an op's output. An op's output keeps ``grad is None``,
and its gradient is dropped once passed on to the op's inputs.

``.grad`` arrays are read-only by contract and may share memory: the two
operands of ``a + b`` get the same array. Replace a gradient, never write
into it. Gradients accumulate across ``backward`` calls until
``zero_grad``; ``model.train_step`` relies on this to run one backward per
scene and add the scenes' parameter gradients up.

Three hot composites are single nodes with hand-written VJPs, so a graph
keeps one output per call instead of every intermediate: ``linear`` (one
MLP layer: matmul, bias and optional ReLU), ``layer_norm`` (closed-form
backward) and ``bilinear_sample``, whose per-point weights
make it the whole weighted sum of deformable attention. Its forward is two
sparse products: an interpolation matrix (four corner weights per point)
times the flattened map gives the samples, and a matrix of the rows' K
weights times the samples gives the weighted row sums. Its backward is
closed-form too: one sparse product for the map gradient, and one dot
product per (point, corner) of map value and output gradient for the point
and weight gradients. Their forwards multiply and add in the same order as
the op-by-op versions, so they produce the same bits; their backwards may
reassociate. The ReLU is ``np.fmax`` plus 0.0, a select's bytes without its
branch on each sign, which mispredicts on activations; a sum over a 4-long
innermost axis, which pays numpy's per-row loop, adds columns in order.

Inside ``no_grad()`` no graph is recorded: an op's output is a plain
tensor with no parents and no VJP, so each intermediate is freed as soon as
nothing reads it. The forward values are the same; only ``backward``
needs the graph, and evaluation never calls it.

All arithmetic is float64 end to end; there is no dtype promotion to fight.

Importing this module sets two glibc allocator options for the process (see
``HEAP_SETTINGS``); under another C library it sets nothing.
"""

from __future__ import annotations

import ctypes
import math
from contextlib import contextmanager

import numpy as np
from scipy.sparse import csr_matrix

M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 32 << 20


def _keep_freed_heap() -> tuple[int, int] | None:
    """Turn off heap trimming and fix the mmap threshold, where glibc can.

    A forward frees tens of MB of graph at once. With glibc's defaults the
    freed top of the heap is trimmed, and arrays of a few hundred KB to a
    few MB go to mmap under a threshold that moves with what was freed, so
    the next forward faults the same pages back in. Whether it does depends
    on heap layout: an ``eval_fused`` benchmark run read either ~25k or
    400k-1.1M minor faults per 10 s, ~15% apart in items/s, on unchanged
    code. No trimming (``M_TRIM_THRESHOLD`` -1) keeps freed pages for the
    next forward; a fixed 32 MiB mmap threshold, above any array one op
    allocates, keeps op arrays in the heap and stops the dynamic threshold.
    Returns each ``mallopt`` result (1 on success), or None where the C
    library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(M_TRIM_THRESHOLD, -1),
            mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES))


HEAP_SETTINGS = _keep_freed_heap()

_recording = True   # read only by ``Tensor._make``; set only by ``no_grad``


@contextmanager
def no_grad():
    """Record no graph inside the block; the previous state returns on exit."""
    global _recording
    prev, _recording = _recording, False
    try:
        yield
    finally:
        _recording = prev


class ShapeError(ValueError):
    """Raised for rank/shape/class-range violations."""


class NumericError(ArithmeticError):
    """Raised when an op receives or produces non-finite values it cannot accept."""


def _arr(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _arr(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None

    # ---- bookkeeping ----

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # ---- graph construction ----

    @staticmethod
    def _make(data: np.ndarray, parents: tuple, vjp) -> "Tensor":
        out = Tensor(data)
        if _recording and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._vjp = vjp
        return out

    # ---- elementwise arithmetic (numpy broadcasting rules) ----

    def __add__(self, other):
        a, b = self, as_tensor(other)
        return Tensor._make(
            a.data + b.data,
            (a, b),
            lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
        )

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self, as_tensor(other)
        return Tensor._make(
            a.data - b.data,
            (a, b),
            lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)),
        )

    def __rsub__(self, other):
        return as_tensor(other) - self

    def __mul__(self, other):
        a, b = self, as_tensor(other)
        return Tensor._make(
            a.data * b.data,
            (a, b),
            lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self, as_tensor(other)
        return Tensor._make(
            a.data / b.data,
            (a, b),
            lambda g: (
                _unbroadcast(g / b.data, a.shape),
                _unbroadcast(-g * a.data / (b.data * b.data), b.shape),
            ),
        )

    def __neg__(self):
        return Tensor._make(-self.data, (self,), lambda g: (-g,))

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise ShapeError("pow exponent must be a python scalar")
        a = self
        out_data = a.data ** p
        return Tensor._make(out_data, (a,), lambda g: (g * p * a.data ** (p - 1),))

    def __matmul__(self, other):
        a, b = self, as_tensor(other)
        if a.ndim != 2 or b.ndim != 2:
            raise ShapeError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
        return Tensor._make(
            a.data @ b.data,
            (a, b),
            lambda g: (g @ b.data.T, a.data.T @ g),
        )

    # ---- elementwise functions ----

    def sqrt(self):
        out_data = np.sqrt(self.data)
        return Tensor._make(out_data, (self,), lambda g: (g * 0.5 / out_data,))

    def abs(self):
        a = self
        # subgradient at 0 is 0 (sign(0) == 0)
        return Tensor._make(np.abs(a.data), (a,), lambda g: (g * np.sign(a.data),))

    def sigmoid(self):
        # stable two-branch evaluation
        x = self.data
        out_data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                            np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
        return Tensor._make(out_data, (self,), lambda g: (g * out_data * (1.0 - out_data),))

    def softplus(self):
        x = self.data
        out_data = np.logaddexp(0.0, x)
        sig = 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))
        return Tensor._make(out_data, (self,), lambda g: (g * sig,))

    # ---- reductions / reshaping ----

    def sum(self, axis=None, keepdims: bool = False):
        a = self
        out_data = a.data.sum(axis=axis, keepdims=keepdims)

        def vjp(g):
            gg = g
            if axis is not None and not keepdims:
                gg = np.expand_dims(gg, axis)
            return (np.broadcast_to(gg, a.shape).copy(),)

        return Tensor._make(np.asarray(out_data, dtype=np.float64), (a,), vjp)

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            n = self.size
        elif isinstance(axis, tuple):
            n = int(np.prod([self.shape[i] for i in axis]))
        else:
            n = self.shape[axis]
        if n == 0:
            raise ShapeError("mean over an empty axis")
        return self.sum(axis=axis, keepdims=keepdims) / float(n)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        return Tensor._make(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))

    def transpose(self):
        return Tensor._make(self.data.T, (self,), lambda g: (g.T,))

    def __getitem__(self, key):
        a = self
        out_data = a.data[key]
        if isinstance(out_data, np.ndarray) and out_data.base is not None:
            out_data = out_data.copy()

        basic = all(k is None or k is Ellipsis or isinstance(k, slice)
                    or (isinstance(k, (int, np.integer)) and not isinstance(k, bool))
                    for k in (key if isinstance(key, tuple) else (key,)))

        def vjp(g):
            z = np.zeros_like(a.data)
            if basic:
                z[key] += g            # a basic key hits each element once
            else:
                np.add.at(z, key, g)   # a repeated index gets every share
            return (z,)

        return Tensor._make(np.asarray(out_data, dtype=np.float64), (a,), vjp)

    # ---- backward ----

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into ``.grad`` of every leaf.

        The root must be scalar (any shape with exactly one element).
        """
        if self.size != 1:
            raise ShapeError(f"backward root must be scalar, got shape {self.shape}")

        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))

        flow: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = flow.pop(id(node), None)
            if g is None:
                continue
            if node._vjp is None:
                if node.requires_grad:
                    node.grad = g if node.grad is None else node.grad + g
                continue
            for p, pg in zip(node._parents, node._vjp(g)):
                if pg is None or not p.requires_grad:
                    continue
                k = id(p)
                if k in flow:
                    flow[k] = flow[k] + pg
                else:
                    flow[k] = pg


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def concat(tensors, axis: int = 0) -> Tensor:
    """Concatenate along ``axis``; gradient splits back to the inputs."""
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise ShapeError("concat of an empty sequence")
    data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        outs = []
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            outs.append(g[tuple(sl)])
        return tuple(outs)

    return Tensor._make(data, tuple(ts), vjp)


class Rows:
    """Row indices for ``take_rows``. Every take over one ``Rows`` shares
    the VJP's scatter matrix, built on the first VJP that needs it."""

    __slots__ = ("idx", "_scatter")

    def __init__(self, idx):
        self.idx = np.asarray(idx, dtype=np.intp)
        self._scatter = None

    def scatter(self, n: int):
        """[n, len(idx)] ones that sum each gathered row back into its source
        row, in row order, as ``np.add.at`` would."""
        if self._scatter is None or self._scatter.shape[0] != n:
            m = self.idx.size
            self._scatter = csr_matrix(
                (np.ones(m), self.idx.astype(np.int32),
                 np.arange(m + 1, dtype=np.int32)), shape=(m, n)).T
        return self._scatter


def take_rows(x: Tensor, idx) -> Tensor:
    """Gather rows of ``x`` along axis 0; duplicate indices are fine.

    ``idx`` is an index array or a ``Rows`` shared by several takes.
    """
    rows = idx if isinstance(idx, Rows) else Rows(idx)
    a = as_tensor(x)
    out_data = np.take(a.data, rows.idx, axis=0)

    def vjp(g):
        m = rows.idx.size
        return ((rows.scatter(a.shape[0]) @ g.reshape(m, -1)).reshape(a.shape),)

    return Tensor._make(out_data, (a,), vjp)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Shift-stabilized softmax along ``axis``. Non-finite input is an error."""
    a = as_tensor(x)
    if not np.all(np.isfinite(a.data)):
        raise NumericError("softmax received non-finite input")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        return ((g - dot) * out_data,)

    return Tensor._make(out_data, (a,), vjp)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale-shift.

    A constant row maps to ``beta`` (variance 0 is absorbed by ``eps``).
    One node: the VJP is the closed-form layer-norm backward, so only the
    normalized rows and their standard deviations stay alive for it.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    n = x.shape[-1]
    if n == 0:
        raise ShapeError("layer_norm over an empty last axis")
    if eps <= 0.0:
        raise ShapeError("layer_norm eps must be > 0")
    xc = x.data - x.data.sum(axis=-1, keepdims=True) / float(n)
    std = np.sqrt((xc * xc).sum(axis=-1, keepdims=True) / float(n) + eps)
    y = xc / std

    def vjp(g):
        gy = g * gamma.data
        gx = (gy - gy.mean(axis=-1, keepdims=True)
              - y * (gy * y).mean(axis=-1, keepdims=True)) / std
        return (gx, _unbroadcast(g * y, gamma.shape), _unbroadcast(g, beta.shape))

    out = y * gamma.data
    out += beta.data
    return Tensor._make(out, (x, gamma, beta), vjp)


def linear(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """One fully connected layer ``x @ w + b``, then ReLU when ``relu`` is set.

    One node with the bits of the op-by-op layer, whose ReLU is the select
    ``np.where(y > 0, y, 0.0)``: here ``np.fmax(y, 0.0)`` maps NaN to 0.0 and
    ``+ 0.0`` maps -0.0 to +0.0, without a branch on each sign. Only the
    output stays alive for the VJP: it is positive where the gradient passes.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim != 2 or w.ndim != 2:
        raise ShapeError(f"linear expects 2-D operands, got {x.shape} @ {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"linear inner dims disagree: {x.shape} @ {w.shape}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"linear bias shape {b.shape} != ({w.shape[1]},)")
    y = x.data @ w.data
    y += b.data
    if relu:
        np.fmax(y, 0.0, out=y)   # NaN and negatives to 0.0; -0.0 may stay
        y += 0.0                 # -0.0 + 0.0 is +0.0

    def vjp(g):
        if relu:
            g = g * (y > 0.0)    # the output is positive where the input was
        gx = g @ w.data.T if x.requires_grad else None
        return (gx, x.data.T @ g, g.sum(axis=0))

    return Tensor._make(y, (x, w, b), vjp)


# Output rows per gather in the point and weight VJPs: bounds the
# [rows, 4K, C] block of corner values that one gather holds.
SAMPLE_CHUNK_ROWS = 256


def bilinear_sample(fmap: Tensor, pts, view=None, weights=None) -> Tensor:
    """Weighted sums of bilinear samples of ``fmap`` at ``pts`` ([N, 2] of (u, v)).

    ``fmap`` is one map [C, H, W], or a stack of same-sized maps
    [V, C, H, W] with ``view`` ([N] ints) naming the map of each point.
    u indexes the W axis, v the H axis; values live at integer lattice points.
    A corner outside its own map's lattice contributes zero, so samples fade
    linearly to zero across the one-cell band outside [0, W-1] x [0, H-1],
    are exactly zero beyond it and never bleed into a neighbouring map.

    ``weights`` ([M, K] with M * K == N) groups the points into M rows of K
    consecutive points; output row m is sum_k weights[m, k] * sample[m*K + k],
    [M, C]. Without weights every point is its own row with weight 1, [N, C].
    This is one autodiff node. The forward is two sparse products. The
    first, an [N, V*H*W] interpolation matrix times the flattened map, sums
    each sample's corners in the fixed order 00, 10, 01, 11 (u offset, then
    v offset). The second, an [M, N] matrix holding each row's K weights,
    sums each row's weighted samples in order; an unweighted call skips it.
    Both sums start from +0.0, so a row whose every product is -0.0 is
    +0.0, as numpy 2.4's multiply-then-sum is too; a sum that starts from
    the first product would keep -0.0. Such a row needs zero or negative
    weights, which softmax weights never are. The map VJP is one
    [M, V*H*W] sparse matrix of corner weight x row weight, transposed,
    times the output gradient. The point and weight VJPs need only the dot
    product of each corner's map value with its row's output gradient,
    gathered SAMPLE_CHUNK_ROWS rows at a time: the corner weights turn these
    into the weight gradient, summed in corner order from +0.0, their u and v
    differences into the point gradient. At an integer u or v that is the
    derivative from above, the side whose corners the sample reads.
    """
    fmap = as_tensor(fmap)
    if fmap.ndim not in (3, 4) or (fmap.ndim == 4) != (view is not None):
        raise ShapeError(f"bilinear_sample expects a [C, H, W] map, or a "
                         f"[V, C, H, W] stack with view indices; got {fmap.shape}")
    pts = as_tensor(pts)
    p = pts.data
    if p.ndim != 2 or p.shape[1] != 2:
        raise ShapeError(f"bilinear_sample expects [N, 2] points, got {p.shape}")
    n = p.shape[0]
    wts = as_tensor(np.ones((n, 1)) if weights is None else weights)
    if wts.ndim != 2 or wts.size != n:
        raise ShapeError(f"bilinear_sample expects [M, K] weights with "
                         f"M * K == {n} points, got {wts.shape}")
    m, k = wts.shape
    n_v, c, h, w = fmap.shape if view is not None else (1,) + fmap.shape
    view = np.zeros(n, np.intp) if view is None else np.asarray(view)
    if view.shape != (n,) or np.any((view < 0) | (view >= n_v)):
        raise ShapeError(f"bilinear_sample needs one view in [0, {n_v}) per point")
    flat = fmap.data.reshape(n_v, c, h * w).transpose(0, 2, 1).reshape(-1, c)

    u0 = np.floor(p[:, 0]).astype(np.intp)
    v0 = np.floor(p[:, 1]).astype(np.intp)
    fu = p[:, 0] - u0
    fv = p[:, 1] - v0
    # is the lower / upper lattice line of each axis inside the map
    u_in = ((u0 >= 0) & (u0 < w), (u0 >= -1) & (u0 < w - 1))
    v_in = ((v0 >= 0) & (v0 < h), (v0 >= -1) & (v0 < h - 1))
    # the masks zero a corner off the lattice and leave a valid one's bits
    wu = ((1 - fu) * u_in[0], fu * u_in[1])
    wv = ((1 - fv) * v_in[0], fv * v_in[1])
    # int32 indices, as scipy stores them; a corner off the lattice may wrap
    # here, but ``ok`` zeroes it
    base = ((view * h + v0) * w + u0).astype(np.int32)
    ok = np.empty((n, 4), dtype=bool)
    corner = np.empty((n, 4))
    cols = np.empty((n, 4), dtype=np.int32)
    for j, (iu, iv) in enumerate(((0, 0), (1, 0), (0, 1), (1, 1))):
        np.logical_and(u_in[iu], v_in[iv], out=ok[:, j])
        np.multiply(wu[iu], wv[iv], out=corner[:, j])
        np.add(base, iv * w + iu, out=cols[:, j])
    cols *= ok
    cols = cols.ravel()
    a = csr_matrix((corner.ravel(), cols,
                    np.arange(0, 4 * n + 1, 4, dtype=np.int32)),
                   shape=(n, flat.shape[0]))
    out = a @ flat
    if weights is not None:
        # row m of ``rowsum`` holds its K weights at columns m*K .. m*K+K-1
        rowsum = csr_matrix((wts.data.ravel(), np.arange(n, dtype=np.int32),
                             k * np.arange(m + 1, dtype=np.int32)),
                            shape=(m, n))
        out = rowsum @ out

    def vjp(g):
        gmap = gp = gw = None
        if fmap.requires_grad:
            bw = csr_matrix(((corner * wts.data.reshape(n, 1)).ravel(), cols,
                             np.arange(0, 4 * n + 1, 4 * k, dtype=np.int32)),
                            shape=(m, flat.shape[0]))
            gmap = (bw.T @ g).reshape(n_v, h * w, c).transpose(0, 2, 1)
            gmap = gmap.reshape(fmap.shape)
        if pts.requires_grad or wts.requires_grad:
            # d[n, j]: corner j's map value . the output gradient of n's row
            d = np.empty(4 * n)
            for lo in range(0, m, SAMPLE_CHUNK_ROWS):
                sel = slice(lo * 4 * k, (lo + SAMPLE_CHUNK_ROWS) * 4 * k)
                vals = np.take(flat, cols[sel], axis=0).reshape(-1, 4 * k, c)
                d[sel] = (vals @ g[lo:lo + SAMPLE_CHUNK_ROWS, :, None]).ravel()
            d = d.reshape(n, 4) * ok
            if pts.requires_grad:
                # d(out[m]) / d(pt[m*K + k]) = weights[m, k] * d(sample) / d(pt)
                wp = wts.data.reshape(n)
                gp = np.empty((n, 2))
                np.multiply(wp, (1 - fv) * (d[:, 1] - d[:, 0])
                            + fv * (d[:, 3] - d[:, 2]), out=gp[:, 0])
                np.multiply(wp, (1 - fu) * (d[:, 2] - d[:, 0])
                            + fu * (d[:, 3] - d[:, 1]), out=gp[:, 1])
            if wts.requires_grad:
                d *= corner
                gw = (0.0 + d[:, 0] + d[:, 1] + d[:, 2] + d[:, 3]).reshape(m, k)
        return (gmap, gp, gw)

    return Tensor._make(out, (fmap, pts, wts), vjp)


BACKGROUND = -1


def focal_loss(logits: Tensor, targets, alpha: float = 0.25, gamma: float = 2.0) -> Tensor:
    """Sigmoid focal loss over [N, K] logits.

    ``targets`` holds one class id per row; ``BACKGROUND`` (-1) marks rows whose
    classes are all negatives. Summed over classes, averaged over rows.
    """
    logits = as_tensor(logits)
    if logits.ndim != 2:
        raise ShapeError(f"focal_loss expects [N, K] logits, got {logits.shape}")
    n, k = logits.shape
    t = np.asarray(targets, dtype=np.int64)
    if t.shape != (n,):
        raise ShapeError(f"focal_loss targets shape {t.shape} for {n} rows")
    if np.any(t >= k) or np.any(t < BACKGROUND):
        raise ShapeError(f"focal_loss class id out of range [0, {k})")
    if not (0.0 < alpha < 1.0) or gamma < 0.0:
        raise ShapeError("focal_loss requires alpha in (0, 1) and gamma >= 0")
    if n == 0:
        return Tensor(0.0)

    onehot = np.zeros((n, k))
    rows = np.nonzero(t >= 0)[0]
    onehot[rows, t[rows]] = 1.0
    onehot_t = Tensor(onehot)

    p = logits.sigmoid()
    log_p = -((-logits).softplus())       # log sigmoid(x)
    log_1mp = -(logits.softplus())        # log (1 - sigmoid(x))
    pos = ((1.0 - p) ** gamma) * log_p * (-alpha)
    neg = (p ** gamma) * log_1mp * (-(1.0 - alpha))
    per = onehot_t * pos + (1.0 - onehot_t) * neg
    return per.sum() / float(n)


def l1_loss(pred: Tensor, target) -> Tensor:
    """Mean absolute error; tie subgradient at 0 is 0."""
    pred = as_tensor(pred)
    tgt = as_tensor(target)
    if pred.shape != tgt.shape:
        raise ShapeError(f"l1_loss shape mismatch: {pred.shape} vs {tgt.shape}")
    return (pred - tgt).abs().mean()


# ---- parameterized blocks ----


class Module:
    """A block whose parameters are the tensors it holds.

    ``params()`` names each ``Tensor`` attribute ``{name}.{attribute}``
    (``attribute`` when ``name`` is empty) and adds the ``params()`` of every
    attribute, or list item, that has one; sorted by name, each name once.
    """

    name = ""

    def params(self) -> dict[str, Tensor]:
        found = []
        for attr, v in vars(self).items():
            if isinstance(v, Tensor):
                found.append((f"{self.name}.{attr}" if self.name else attr, v))
            for part in v if isinstance(v, list) else (v,):
                if hasattr(part, "params"):
                    found.extend(part.params().items())
        out = {}
        for k, t in sorted(found, key=lambda kv: kv[0]):
            if k in out:
                raise RuntimeError(f"duplicate parameter name {k}")
            out[k] = t
        return out


class Mlp:
    """Fully connected stack with ReLU between layers, linear last layer."""

    def __init__(self, widths, rng: np.random.Generator, name: str = "mlp",
                 final_zero: bool = False, final_bias=None):
        if len(widths) < 2:
            raise ShapeError("Mlp needs at least input and output widths")
        if any(int(w) <= 0 for w in widths):
            raise ShapeError(f"Mlp widths must be positive, got {widths}")
        self.name = name
        self.widths = tuple(int(w) for w in widths)
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []
        last = len(widths) - 2
        for i, (fi, fo) in enumerate(zip(self.widths[:-1], self.widths[1:])):
            if i == last:
                std = 0.0 if final_zero else 1.0 / math.sqrt(fi)
            else:
                std = math.sqrt(2.0 / fi)
            w = rng.normal(0.0, std, (fi, fo)) if std > 0 else np.zeros((fi, fo))
            b = np.zeros(fo)
            if i == last and final_bias is not None:
                b = _arr(final_bias).copy()
                if b.shape != (fo,):
                    raise ShapeError(f"final_bias shape {b.shape} != ({fo},)")
            self.weights.append(Tensor(w, requires_grad=True))
            self.biases.append(Tensor(b, requires_grad=True))

    def __call__(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        if x.shape[-1] != self.widths[0]:
            raise ShapeError(f"{self.name}: input width {x.shape[-1]} != {self.widths[0]}")
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            x = linear(x, w, b, relu=i < last)
        return x

    def params(self) -> dict[str, Tensor]:
        out = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"{self.name}.w{i}"] = w
            out[f"{self.name}.b{i}"] = b
        return out


class Adam:
    """Adam over a name -> Tensor dict; update order is sorted by name."""

    B1, B2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3):
        self.params = dict(params)
        self.lr = float(lr)
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - self.B1 ** self.t
        c2 = 1.0 - self.B2 ** self.t
        for name in sorted(self.params):
            p = self.params[name]
            if p.grad is None:
                continue
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= self.B1
            m += (1.0 - self.B1) * g
            v *= self.B2
            v += (1.0 - self.B2) * g * g
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.EPS)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {"adam.t": np.array([float(self.t)])}
        for name in sorted(self.params):
            out[f"adam.m.{name}"] = self.m[name]
            out[f"adam.v.{name}"] = self.v[name]
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """All or nothing: a missing or misshapen array raises before any
        state changes."""
        t = int(arrays["adam.t"][0])
        m = {name: _arr(arrays[f"adam.m.{name}"]).reshape(self.m[name].shape).copy()
             for name in self.params}
        v = {name: _arr(arrays[f"adam.v.{name}"]).reshape(self.v[name].shape).copy()
             for name in self.params}
        self.t = t
        self.m.update(m)
        self.v.update(v)
