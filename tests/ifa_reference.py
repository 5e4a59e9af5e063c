"""Reference implementations of BEV aggregation, kept as test oracles.

``reference_block_forward`` is the straightforward per-(height, view) loop:
one bilinear gather per view and height, a scatter back onto the grid, then
the running view and height means. The library's ``ifa_block_forward``
batches all of that into one sampling call and must reproduce this loop bit
for bit. ``deformable_sample`` and ``aggregate_reference_point`` state the
sampling and averaging formulas for a single point.
``composite_weighted_sample``, ``composite_layer_norm`` and
``composite_linear`` build weighted sampling, layer norm and one MLP layer
from generic ops, node by node; the library's single-node versions must
match their forwards bit for bit (``linear`` its backward too).
``reference_sample_grads`` keeps ``bilinear_sample``'s backward in its
first form, a fancy-index gather, a row sum over the four corners and a
stack; the library's faster backward must give the same bytes.
"""
from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix

from viewfuse.geometry import project_points
from viewfuse.tensor import (SAMPLE_CHUNK_ROWS, Tensor, as_tensor,
                             bilinear_sample, layer_norm, softmax)


def offsets_and_weights(block, queries: Tensor):
    """[N, C] queries -> offsets [N, n_da, 2] (cells), weights [N, n_da]."""
    raw = block.off_mlp(queries)
    n = queries.shape[0]
    off = raw[:, : 2 * block.n_da].reshape(n, block.n_da, 2)
    wts = softmax(raw[:, 2 * block.n_da:], axis=-1)
    return off, wts


def deformable_sample(block, query_vec: Tensor, view,
                      p: tuple[float, float]) -> Tensor:
    """Weighted bilinear samples of one view around one projected point.

    Off-map sampling positions fade to zero under the padding rule of
    bilinear_sample; the result stays differentiable in the query (through
    offsets and weights) and in the view features.
    """
    fmap = as_tensor(view.features if hasattr(view, "features") else view)
    q = as_tensor(query_vec).reshape(1, block.c)
    off, wts = offsets_and_weights(block, q)
    base = np.asarray(p, dtype=np.float64)[None, None, :]
    pts = (off + base).reshape(block.n_da, 2)
    samp = bilinear_sample(fmap, pts)                      # [n_da, C]
    return (samp * wts.reshape(block.n_da, 1)).sum(axis=0)


def aggregate_reference_point(f_per_view: list[Tensor], flags) -> Tensor | None:
    """Mean over the observing views; None marks a point nobody sees."""
    flags = [bool(f) for f in flags]
    if len(flags) != len(f_per_view):
        raise ValueError("one flag per view required")
    chosen = [f for f, ok in zip(f_per_view, flags) if ok]
    if not chosen:
        return None
    total = chosen[0]
    for f in chosen[1:]:
        total = total + f
    return total * (1.0 / len(chosen))


def reference_bilinear_sample(fmap: Tensor, pts: Tensor, view=None) -> Tensor:
    """Bilinear sampling by four corner gathers and np.add.at.

    ``fmap`` is one map [C, H, W], or a stack [V, C, H, W] with ``view``
    naming each point's map; a corner counts only inside its own map.
    """
    n_v, c, h, w = (1,) + fmap.shape if view is None else fmap.shape
    p = pts.data
    view = np.zeros(p.shape[0], np.intp) if view is None else np.asarray(view)
    flat = fmap.data.reshape(n_v, c, h * w).transpose(0, 2, 1).reshape(-1, c)
    u0 = np.floor(p[:, 0]).astype(np.intp)
    v0 = np.floor(p[:, 1]).astype(np.intp)
    fu = p[:, 0] - u0
    fv = p[:, 1] - v0
    corners = []
    for dv, du, wgt in ((0, 0, (1 - fu) * (1 - fv)), (0, 1, fu * (1 - fv)),
                        (1, 0, (1 - fu) * fv), (1, 1, fu * fv)):
        ui, vi = u0 + du, v0 + dv
        ok = (ui >= 0) & (ui < w) & (vi >= 0) & (vi < h)
        lin = np.where(ok, (view * h + vi) * w + ui, 0)
        corners.append((lin, ok, wgt, flat[lin] * ok[:, None]))
    out = np.zeros((p.shape[0], c))
    for _, _, wgt, val in corners:
        out += wgt[:, None] * val

    def vjp(g):
        gflat = np.zeros_like(flat)
        for lin, ok, wgt, _ in corners:
            np.add.at(gflat, lin[ok], (wgt[:, None] * g)[ok])
        (_, _, _, v00), (_, _, _, v10), (_, _, _, v01), (_, _, _, v11) = corners
        du_val = (1 - fv)[:, None] * (v10 - v00) + fv[:, None] * (v11 - v01)
        dv_val = (1 - fu)[:, None] * (v01 - v00) + fu[:, None] * (v11 - v10)
        gp = np.stack([(g * du_val).sum(axis=1), (g * dv_val).sum(axis=1)], 1)
        gmap = gflat.reshape(n_v, h * w, c).transpose(0, 2, 1)
        return gmap.reshape(fmap.shape), gp

    return Tensor._make(out, (fmap, pts), vjp)


def reference_sample_grads(fmap, pts, view, weights, g):
    """(map, point, weight) gradients of ``bilinear_sample`` for the output
    gradient ``g``, by the per-corner dot products of its first backward.

    Arguments are arrays as ``bilinear_sample`` takes them; ``weights`` None
    means one unit-weight point per row, and then no weight gradient.
    """
    p = np.asarray(pts, dtype=np.float64)
    n = p.shape[0]
    wts = np.ones((n, 1)) if weights is None else np.asarray(weights)
    m, k = wts.shape
    n_v, c, h, w = fmap.shape if view is not None else (1,) + fmap.shape
    view = np.zeros(n, np.intp) if view is None else np.asarray(view)
    flat = fmap.reshape(n_v, c, h * w).transpose(0, 2, 1).reshape(-1, c)
    u0 = np.floor(p[:, 0]).astype(np.intp)
    v0 = np.floor(p[:, 1]).astype(np.intp)
    fu = p[:, 0] - u0
    fv = p[:, 1] - v0
    u_in = ((u0 >= 0) & (u0 < w), (u0 >= -1) & (u0 < w - 1))
    v_in = ((v0 >= 0) & (v0 < h), (v0 >= -1) & (v0 < h - 1))
    wu = ((1 - fu) * u_in[0], fu * u_in[1])
    wv = ((1 - fv) * v_in[0], fv * v_in[1])
    ok = np.empty((n, 4), dtype=bool)
    corner = np.empty((n, 4))
    for j, (iu, iv) in enumerate(((0, 0), (1, 0), (0, 1), (1, 1))):
        np.logical_and(u_in[iu], v_in[iv], out=ok[:, j])
        np.multiply(wu[iu], wv[iv], out=corner[:, j])
    base = ((view * h + v0) * w + u0).astype(np.int32)
    cols = base[:, None] + np.array([0, 1, w, w + 1], dtype=np.int32)
    cols *= ok
    cols = cols.ravel()

    bw = csr_matrix(((corner * wts.reshape(n, 1)).ravel(), cols,
                     np.arange(0, 4 * n + 1, 4 * k, dtype=np.int32)),
                    shape=(m, flat.shape[0]))
    gmap = (bw.T @ g).reshape(n_v, h * w, c).transpose(0, 2, 1)
    gmap = gmap.reshape(fmap.shape)
    d = np.empty(4 * n)
    for lo in range(0, m, SAMPLE_CHUNK_ROWS):
        sel = slice(lo * 4 * k, (lo + SAMPLE_CHUNK_ROWS) * 4 * k)
        vals = flat[cols[sel]].reshape(-1, 4 * k, c)
        d[sel] = (vals @ g[lo:lo + SAMPLE_CHUNK_ROWS, :, None]).ravel()
    d = d.reshape(n, 4) * ok
    wp = wts.reshape(n)
    gu = wp * ((1 - fv) * (d[:, 1] - d[:, 0])
               + fv * (d[:, 3] - d[:, 2]))
    gv = wp * ((1 - fu) * (d[:, 2] - d[:, 0])
               + fu * (d[:, 3] - d[:, 1]))
    gp = np.stack([gu, gv], axis=1)
    gw = None if weights is None else (corner * d).sum(axis=1).reshape(m, k)
    return gmap, gp, gw


def _scatter_rows(x: Tensor, idx: np.ndarray, n_rows: int) -> Tensor:
    out = np.zeros((n_rows,) + x.shape[1:])
    np.add.at(out, idx, x.data)
    return Tensor._make(out, (x,), lambda g: (g[idx],))


def reference_block_forward(block, q: Tensor, views, spec) -> Tensor:
    """One aggregation block, one sampling call per (height, view)."""
    c, gh, gw = q.shape
    hw = gh * gw
    qf = q.reshape(c, hw).transpose()
    nq = layer_norm(qf, block.ln1_g, block.ln1_b)
    off, wts = offsets_and_weights(block, nq)
    refs = spec.reference_points()
    active = sorted(views, key=lambda v: (v.agent_id, v.view_id))
    h_sum = None
    h_cnt = np.zeros(hw)
    for h in range(spec.n_ref):
        v_sum = None
        v_cnt = np.zeros(hw)
        for view in active:
            uv, _, obs = project_points(refs[h], view.cam,
                                        view.agent_pose_in_ego)
            if view.mask is not None:
                fh, fw = view.mask.shape
                cols = np.clip(np.rint(uv[:, 0]).astype(np.intp), 0, fw - 1)
                rows = np.clip(np.rint(uv[:, 1]).astype(np.intp), 0, fh - 1)
                obs = obs & view.mask[rows, cols]
            idx = np.nonzero(obs)[0]
            if idx.size == 0:
                continue
            m = idx.size
            pts = (off[idx] + uv[idx][:, None, :]).reshape(m * block.n_da, 2)
            samp = reference_bilinear_sample(as_tensor(view.features), pts)
            samp = samp.reshape(m, block.n_da, c)
            f = (samp * wts[idx].reshape(m, block.n_da, 1)).sum(axis=1)
            part = _scatter_rows(f, idx, hw)
            v_sum = part if v_sum is None else v_sum + part
            v_cnt[idx] += 1
        if v_sum is None:
            continue
        seen = v_cnt > 0
        v_inv = np.where(seen, 1.0 / np.maximum(v_cnt, 1), 0.0)
        part = v_sum * v_inv[:, None]
        h_sum = part if h_sum is None else h_sum + part
        h_cnt += seen
    q1 = qf
    if h_sum is not None:
        h_inv = np.where(h_cnt > 0, 1.0 / np.maximum(h_cnt, 1), 0.0)
        q1 = qf + h_sum * h_inv[:, None]
    q2 = q1 + block.ffn(layer_norm(q1, block.ln2_g, block.ln2_b))
    return q2.transpose().reshape(c, gh, gw)


def composite_weighted_sample(fmaps: Tensor, pts: Tensor, view,
                              wts: Tensor) -> Tensor:
    """[M, C] weighted sums of M rows of K samples: sample, multiply, sum."""
    m, k = wts.shape
    samp = bilinear_sample(fmaps, pts, view)
    return (samp.reshape(m, k, -1) * wts.reshape(m, k, 1)).sum(axis=1)


def composite_layer_norm(x: Tensor, gamma: Tensor, beta: Tensor,
                         eps: float = 1e-5) -> Tensor:
    """Layer norm over the last axis, one generic op per step."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    y = xc / (var + eps).sqrt()
    return y * gamma + beta


def composite_linear(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """One MLP layer as three nodes: matmul, bias add, then ReLU."""
    x = x @ w + b
    if relu:
        a = x
        mask = a.data > 0.0
        x = Tensor._make(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))
    return x
