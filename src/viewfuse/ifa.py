"""Cascaded BEV aggregation over shared camera views.

A grid of bird's-eye-view queries attends to every available feature map
with a small deformable-attention step: each query emits a handful of
sampling offsets and weights, samples each view at its projected reference
points over several heights, and averages over the views that actually
observe the point. Blocks are residual and repeat; unobserved cells ride
through untouched.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse import csr_matrix

from .geometry import CameraModel, Pose, project_points
from .tensor import (
    Mlp,
    Rows,
    Tensor,
    as_tensor,
    bilinear_sample,
    concat,
    layer_norm,
    softmax,
    take_rows,
)


@dataclass(frozen=True)
class BevGridSpec:
    """Metric layout of the query grid, origin cell on the ego center."""
    grid_h: int = 32
    grid_w: int = 32
    resolution: float = 1.0      # metres per cell
    n_ref: int = 4
    z_min: float = -1.0
    z_max: float = 3.0

    def __post_init__(self):
        if self.grid_h % 2 or self.grid_w % 2:
            raise ValueError("grid dims must be even")
        if self.grid_h <= 0 or self.grid_w <= 0 or self.resolution <= 0:
            raise ValueError("grid dims and resolution must be positive")
        if self.n_ref < 1:
            raise ValueError("need at least one reference height")
        if not self.z_min < self.z_max and self.n_ref > 1:
            raise ValueError("height range must be increasing")

    def heights(self) -> np.ndarray:
        if self.n_ref == 1:
            return np.array([0.5 * (self.z_min + self.z_max)])
        return np.linspace(self.z_min, self.z_max, self.n_ref)

    def cell_xy(self) -> np.ndarray:
        """Ego-frame (x, y) of every cell, row-major [H*W, 2].

        Cell (H/2, W/2) sits exactly on the ego origin.
        """
        jj, ii = np.meshgrid(np.arange(self.grid_w), np.arange(self.grid_h))
        x = (jj - self.grid_w // 2) * self.resolution
        y = (ii - self.grid_h // 2) * self.resolution
        return np.stack([x.ravel(), y.ravel()], axis=1)

    def reference_points(self) -> np.ndarray:
        """[n_ref, H*W, 3] world points in the ego frame."""
        xy = self.cell_xy()
        out = np.empty((self.n_ref, xy.shape[0], 3))
        for h, z in enumerate(self.heights()):
            out[h, :, :2] = xy
            out[h, :, 2] = z
        return out


@dataclass
class BevView:
    """One feature map the BEV queries may attend to; a missing camera
    view has none, so no ``BevView`` stands for it.

    ``mask`` marks cells that actually carry content: a collaborator view
    carries the mask ``comms.reconstruct_view`` rebuilt from what it sent,
    and None (an ego view) means the whole map does. A reference point only
    counts as observed where its projection lands on a masked-in cell, so
    empty reconstructions do not dilute the average.
    """
    features: Tensor          # [C, fh, fw]
    cam: CameraModel
    agent_pose_in_ego: Pose
    agent_id: int
    view_id: int
    mask: np.ndarray | None = None


def _ring_bias(n_da: int) -> np.ndarray:
    """Initial offsets fan out in a unit ring; weight logits start uniform."""
    bias = np.zeros(3 * n_da)
    for i in range(n_da):
        ang = 2.0 * math.pi * i / n_da
        bias[2 * i] = math.cos(ang)
        bias[2 * i + 1] = math.sin(ang)
    return bias


class IfaBlock:
    """One aggregation block: norm, deformable sampling, norm, FFN.

    Residual throughout; the offset head and FFN final layers start at zero
    so a fresh block is the identity on unobserved input.
    """

    def __init__(self, c: int, n_da: int, rng: np.random.Generator,
                 name: str = "ifa"):
        if n_da < 1:
            raise ValueError("need at least one sampling point")
        self.c = c
        self.n_da = n_da
        self.name = name
        self.off_mlp = Mlp([c, c, 3 * n_da], rng, name=f"{name}_off",
                           final_zero=True, final_bias=_ring_bias(n_da))
        self.ffn = Mlp([c, 2 * c, c], rng, name=f"{name}_ffn", final_zero=True)
        self.ln1_g = Tensor(np.ones(c), requires_grad=True)
        self.ln1_b = Tensor(np.zeros(c), requires_grad=True)
        self.ln2_g = Tensor(np.ones(c), requires_grad=True)
        self.ln2_b = Tensor(np.zeros(c), requires_grad=True)

    def params(self) -> dict[str, Tensor]:
        out = {}
        out.update(self.off_mlp.params())
        out.update(self.ffn.params())
        out[f"{self.name}.ln1_g"] = self.ln1_g
        out[f"{self.name}.ln1_b"] = self.ln1_b
        out[f"{self.name}.ln2_g"] = self.ln2_g
        out[f"{self.name}.ln2_b"] = self.ln2_b
        return out


def deformable_attention(off_mlp: Mlp, queries: Tensor, fmaps: Tensor,
                         base, rows=None, view=None) -> Tensor:
    """Softmax-weighted bilinear samples around base points, one per row.

    ``off_mlp`` maps each query to n_da (du, dv) offsets in cells and n_da
    weight logits. Row i samples ``fmaps`` at ``base[i]`` plus the offsets
    of query ``rows[i]`` (default: query i; ``rows`` is an index array or a
    ``Rows``); ``view`` names the map of each row when ``fmaps`` is a
    stack, as in ``bilinear_sample``.
    """
    n_da = off_mlp.widths[-1] // 3
    raw = off_mlp(queries)
    off = raw[:, : 2 * n_da].reshape(queries.shape[0], n_da, 2)
    wts = softmax(raw[:, 2 * n_da:], axis=-1)
    if rows is not None:
        off, wts = take_rows(off, rows), take_rows(wts, rows)
    base = as_tensor(base)
    m = base.shape[0]
    # base + off as one flat add, not a broadcast over a 2-long axis
    pts = np.repeat(base.data, n_da, axis=0) + off.data.reshape(m * n_da, 2)
    pts = Tensor._make(pts, (off, base), lambda g: (
        g.reshape(off.shape), g.reshape(m, n_da, 2).sum(axis=1)))
    return bilinear_sample(fmaps, pts,
                           None if view is None else np.repeat(view, n_da), wts)


@dataclass
class Sightings:
    """Every (height, view, cell) triple where a view observes a reference point.

    Triples are sorted by height, then view in (agent, view) order, then
    cell. They depend only on the views and the lattice, so a cascade finds
    them, and each triple's weight in its cell's mean (``coef``), once for
    all of its blocks.
    """
    maps: Tensor | None       # [V, C, fh, fw] the views that observe anything
    uv: np.ndarray            # [M, 2] feature coords of each triple
    view: np.ndarray          # [M] index into maps
    cell: np.ndarray          # [M]
    cell_rows: Rows           # ``cell`` for take_rows, its VJP matrix built once
    v_inv: np.ndarray         # [n_ref, H*W] 1 / observing views, 0 if none
    h_inv: np.ndarray         # [H*W] 1 / observed heights, 0 if none
    v_sum: csr_matrix         # [n_ref*H*W, M] ones: row (height, cell) sums its views
    coef: np.ndarray          # [M] v_inv[height, cell] * h_inv[cell]


@functools.lru_cache(maxsize=64)
def _reference_points(spec: BevGridSpec) -> np.ndarray:
    refs = spec.reference_points()
    refs.flags.writeable = False
    return refs


@functools.lru_cache(maxsize=64)
def _own_rig_projection(cam: CameraModel, spec: BevGridSpec):
    uv, _, ok = project_points(_reference_points(spec), cam, Pose())
    uv.flags.writeable = ok.flags.writeable = False
    return uv, ok


def _geometry(proj: list, spec: BevGridSpec) -> Sightings:
    """Sightings but ``maps`` from the (uv, ok) of each view."""
    seen = [p for p in proj if p[1].any()]
    n_cells = spec.grid_h * spec.grid_w
    obs = np.zeros((spec.n_ref, len(seen), n_cells), dtype=bool)
    uv = np.zeros(obs.shape + (2,))
    for k, (uv_k, ok) in enumerate(seen):
        obs[:, k], uv[:, k] = ok, uv_k
    height, view, cell = np.nonzero(obs)
    v_cnt = obs.sum(axis=1)
    h_cnt = (v_cnt > 0).sum(axis=0)
    # a stable sort keeps each row's columns, its views, in sorted order
    rows = height * n_cells + cell
    v_sum = csr_matrix((np.ones(rows.size),
                        np.argsort(rows, kind="stable").astype(np.int32),
                        np.concatenate([np.zeros(1, np.int32),
                                        np.cumsum(v_cnt.ravel(), dtype=np.int32)])),
                       shape=(v_cnt.size, rows.size))
    v_inv = np.where(v_cnt > 0, 1.0 / np.maximum(v_cnt, 1), 0.0)
    h_inv = np.where(h_cnt > 0, 1.0 / np.maximum(h_cnt, 1), 0.0)
    return Sightings(maps=None, uv=uv[height, view, cell], view=view, cell=cell,
                     cell_rows=Rows(cell), v_inv=v_inv, h_inv=h_inv, v_sum=v_sum,
                     coef=v_inv[height, cell] * h_inv[cell])


@functools.lru_cache(maxsize=64)
def _own_rig_geometry(spec: BevGridSpec, cams: tuple) -> Sightings:
    geo = _geometry([_own_rig_projection(cam, spec) for cam in cams], spec)
    for a in (geo.uv, geo.view, geo.cell, geo.v_inv, geo.h_inv, geo.coef,
              geo.v_sum.data, geo.v_sum.indices, geo.v_sum.indptr):
        a.flags.writeable = False
    return geo


def observe(views: list[BevView], spec: BevGridSpec) -> Sightings:
    """Project the reference points into every valid view.

    A point counts as observed where it projects inside the view and, for a
    masked view, onto a masked-in cell (see ``BevView``). The reference
    points are cached per spec. An unmasked view at the ego's own pose sees
    alike in every scene: its (uv, ok) is cached per (camera, spec), and a
    set of only such views takes its geometry from a cache keyed by (spec,
    cameras), read-only, ``maps`` built per call.
    """
    views = sorted(views, key=lambda v: (v.agent_id, v.view_id))
    own = [v.mask is None and v.agent_pose_in_ego == Pose() for v in views]
    refs = _reference_points(spec)
    proj = []
    for view, o in zip(views, own):
        if o:
            proj.append(_own_rig_projection(view.cam, spec))
            continue
        uv, _, ok = project_points(refs, view.cam, view.agent_pose_in_ego)
        if view.mask is not None:
            fh, fw = view.mask.shape
            cols = np.clip(np.rint(uv[..., 0]).astype(np.intp), 0, fw - 1)
            rows = np.clip(np.rint(uv[..., 1]).astype(np.intp), 0, fh - 1)
            ok = ok & view.mask[rows, cols]
        proj.append((uv, ok))
    geo = (_own_rig_geometry(spec, tuple(v.cam for v in views)) if all(own)
           else _geometry(proj, spec))
    fs = [as_tensor(v.features) for v, p in zip(views, proj) if p[1].any()]
    maps = concat([f.reshape((1,) + f.shape) for f in fs]) if fs else None
    return replace(geo, maps=maps)


def _view_height_mean(f: Tensor, s: Sightings) -> Tensor:
    """[H*W, C] mean over heights of the mean over views, from [M, C] triples.

    Views add up in sorted order per height, from 0.0, then heights in
    order, so the mean is bit-stable under view permutations; the VJP
    scales each triple's gradient by ``s.coef``, 1 / (views at its height x
    heights of its cell).
    """
    n_ref, hw = s.v_inv.shape
    # scipy sums each row's columns in order, from 0.0, times 1.0: exact
    part = (s.v_sum @ f.data).reshape(n_ref, hw, f.shape[1])
    part *= s.v_inv[..., None]
    h_sum = part[0]
    for h in range(1, n_ref):
        h_sum += part[h]
    return Tensor._make(h_sum * s.h_inv[:, None], (f,),
                        lambda g: (g[s.cell] * s.coef[:, None],))


def ifa_block_forward(block: IfaBlock, q: Tensor, views: list[BevView],
                      spec: BevGridSpec,
                      sight: Sightings | None = None) -> Tensor:
    """Advance the [C, H, W] BEV queries through one aggregation block.

    All observed (height, view, cell) triples are sampled in one call and
    averaged per cell over views, then heights (see ``_view_height_mean``).
    Cells observed at no height keep their query value through the residual
    path. ``sight`` is ``observe(views, spec)``, found here when not given.
    """
    sight = sight if sight is not None else observe(views, spec)
    c, gh, gw = q.shape
    qf = q.reshape(c, gh * gw).transpose()                 # [HW, C]
    q1 = qf
    if sight.maps is not None:
        nq = layer_norm(qf, block.ln1_g, block.ln1_b)
        f = deformable_attention(block.off_mlp, nq, sight.maps, sight.uv,
                                 rows=sight.cell_rows, view=sight.view)
        q1 = qf + _view_height_mean(f, sight)
    q2 = q1 + block.ffn(layer_norm(q1, block.ln2_g, block.ln2_b))
    return q2.transpose().reshape(c, gh, gw)


def ifa_cascade(q0: Tensor, views: list[BevView], spec: BevGridSpec,
                blocks: list[IfaBlock]) -> Tensor:
    """Run the blocks in sequence; each output feeds the next as queries."""
    if not blocks:
        raise ValueError("cascade needs at least one block")
    q = q0
    sight = observe(views, spec)
    for block in blocks:
        q = ifa_block_forward(block, q, views, spec, sight)
    return q
