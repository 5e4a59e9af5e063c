"""Set-prediction head over the aggregated BEV grid.

Queries self-attend, sample the BEV map around a per-query reference point
that each layer refines, and end in a class logit plus a normalized box
vector. Training matches predictions to ground truth one-to-one and
applies focal classification plus l1 regression. The matcher solves the
linear assignment problem with the shortest-augmenting-path algorithm of
Crouse (IEEE TAES 2016), ported from scipy's ``rectangular_lsap`` with its
tie-breaks, so scipy.optimize is not imported. No NMS anywhere in this
path; duplicates are the matcher's problem.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ifa import BevGridSpec, _ring_bias, deformable_attention
from .scene import GtBox
from .tensor import (
    Mlp,
    Tensor,
    as_tensor,
    concat,
    focal_loss,
    l1_loss,
    layer_norm,
    softmax,
    take_rows,
    BACKGROUND,
)


Z_SCALE = 2.0          # m; the codec's height normalization
# focal loss of the matching cost and of the class term
FOCAL_ALPHA = 0.25
FOCAL_GAMMA = 2.0


@dataclass(frozen=True)
class BoxCodec:
    """Maps metric boxes to the normalized 8-vector the head regresses.

    Layout: (x/xs, y/ys, z/Z_SCALE, log w, log l, log h, sin yaw, cos yaw).
    """
    x_scale: float
    y_scale: float

    @staticmethod
    def from_grid(spec: BevGridSpec) -> "BoxCodec":
        return BoxCodec(x_scale=spec.grid_w * spec.resolution / 2.0,
                        y_scale=spec.grid_h * spec.resolution / 2.0)

    def encode(self, box: GtBox) -> np.ndarray:
        return np.array([box.x / self.x_scale, box.y / self.y_scale,
                         box.z / Z_SCALE,
                         math.log(box.w), math.log(box.l), math.log(box.h),
                         math.sin(box.yaw), math.cos(box.yaw)])

    def decode_rows(self, probs: np.ndarray, vec: np.ndarray) -> np.ndarray:
        """(confidence, x, y, z, w, l, h, yaw) per row."""
        out = np.empty((vec.shape[0], 8))
        out[:, 0] = probs
        out[:, 1] = vec[:, 0] * self.x_scale
        out[:, 2] = vec[:, 1] * self.y_scale
        out[:, 3] = vec[:, 2] * Z_SCALE
        out[:, 4:7] = np.exp(np.clip(vec[:, 3:6], -8.0, 8.0))
        out[:, 7] = np.arctan2(vec[:, 6], vec[:, 7])
        return out


@dataclass(frozen=True)
class LossWeights:
    w_cls: float = 1.0
    w_box: float = 2.5


@dataclass
class Predictions:
    cls_logits: Tensor   # [N_Q, 1]
    box_vec: Tensor      # [N_Q, 8] normalized parameterization


@dataclass
class MatchResult:
    pairs: list          # (query index, gt index)
    unmatched_queries: list

    def __post_init__(self):
        qs = [q for q, _ in self.pairs]
        gs = [g for _, g in self.pairs]
        if len(set(qs)) != len(qs) or len(set(gs)) != len(gs):
            raise ValueError("matching must be one-to-one")
        if set(qs) & set(self.unmatched_queries):
            raise ValueError("query listed as both matched and unmatched")


def _shortest_augmenting_paths(cost: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-cost assignment of a finite cost matrix as (row, col) pairs.

    The shortest-augmenting-path algorithm of Crouse, "On implementing 2D
    rectangular assignment algorithms" (IEEE TAES 2016), step for step as
    scipy's ``linear_sum_assignment`` runs it, so that among equal-cost
    assignments it picks the same one: a tall matrix is transposed; each
    path scans the free columns in the order of a list filled in reverse
    and shrunk by swapping the last one in; reduced costs are
    ``min_val + c - u[i] - v[j]``, left to right; among the columns at the
    lowest cost it takes the last unassigned one in scan order, else the
    first.
    """
    transpose = cost.shape[1] < cost.shape[0]
    c = cost.T if transpose else cost
    nr, nc = c.shape
    u, v = np.zeros(nr), np.zeros(nc)
    path = np.full(nc, -1)
    col4row, row4col = np.full(nr, -1), np.full(nc, -1)
    for cur in range(nr):
        remaining = np.arange(nc - 1, -1, -1)
        n_left = nc
        spc = np.full(nc, np.inf)          # shortest path cost per column
        sr, sc = np.zeros(nr, bool), np.zeros(nc, bool)
        i, min_val, sink = cur, 0.0, -1
        while sink < 0:
            sr[i] = True
            js = remaining[:n_left]
            r = min_val + c[i, js] - u[i] - v[js]
            better = r < spc[js]
            upd = js[better]
            path[upd] = i
            spc[upd] = r[better]
            s = spc[js]
            ties = np.flatnonzero(s == s.min())
            free = ties[row4col[js[ties]] < 0]
            index = free[-1] if free.size else ties[0]
            min_val = s[index]
            j = js[index]
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            sc[j] = True
            n_left -= 1
            remaining[index] = remaining[n_left]
        # dual update, then flip the path's assignments
        u[cur] += min_val
        sr[cur] = False
        u[sr] += min_val - spc[col4row[sr]]
        v[sc] -= min_val - spc[sc]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    pairs = zip(range(nr), col4row.tolist())
    return [(q, g) for g, q in pairs] if transpose else list(pairs)


def hungarian_match(cost: np.ndarray) -> MatchResult:
    """Minimum-cost one-to-one assignment of min(rows, cols) pairs.

    Rows are queries and columns GT boxes; either may be the longer side.
    Pairs come sorted by column. Ties between equal-cost assignments break
    as in scipy's ``linear_sum_assignment`` (see
    ``_shortest_augmenting_paths``).
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError(f"cost must be a matrix, got shape {cost.shape}")
    n_q = cost.shape[0]
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix contains non-finite entries")
    pairs = sorted(_shortest_augmenting_paths(cost), key=lambda p: p[1])
    matched = {q for q, _ in pairs}
    return MatchResult(pairs=pairs,
                       unmatched_queries=[q for q in range(n_q)
                                          if q not in matched])


def match_predictions(pred: Predictions, gts: list[GtBox], codec: BoxCodec,
                      weights: LossWeights = LossWeights()) -> MatchResult:
    """Focal-style class cost plus l1 box cost, then Hungarian assignment.

    Every GT box must get its own query, so more GT boxes than queries is
    refused with a ValueError.
    """
    n_q, n_gt = pred.cls_logits.shape[0], len(gts)
    if n_gt > n_q:
        raise ValueError(f"{n_gt} boxes cannot all be assigned "
                         f"to {n_q} queries")
    logits = pred.cls_logits.data[:, 0]
    p = 1.0 / (1.0 + np.exp(-logits))
    a, g = FOCAL_ALPHA, FOCAL_GAMMA
    eps = 1e-12
    pos = a * (1.0 - p) ** g * -np.log(p + eps)
    neg = (1.0 - a) * p ** g * -np.log(1.0 - p + eps)
    cls_cost = pos - neg                                  # [N_Q]
    enc = np.stack([codec.encode(b) for b in gts], axis=0)
    box_cost = np.abs(pred.box_vec.data[:, None, :]
                      - enc[None, :, :]).mean(axis=2)     # [N_Q, N_gt]
    return hungarian_match(weights.w_cls * cls_cost[:, None]
                           + weights.w_box * box_cost)


def set_loss(pred: Predictions, gts: list[GtBox], codec: BoxCodec,
             weights: LossWeights = LossWeights()) -> Tensor:
    """Focal classification over all queries + l1 over matched pairs.

    Raises ValueError, via match_predictions, when there are more GT boxes
    than queries.
    """
    n_q = pred.cls_logits.shape[0]
    targets = np.full(n_q, BACKGROUND, dtype=np.int64)
    if gts:
        match = match_predictions(pred, gts, codec, weights)
        q_idx = [q for q, _ in match.pairs]
        g_idx = [g for _, g in match.pairs]
        for q, b in zip(q_idx, g_idx):
            targets[q] = gts[b].cls
        cls_term = focal_loss(pred.cls_logits, targets, alpha=FOCAL_ALPHA,
                              gamma=FOCAL_GAMMA)
        enc = np.stack([codec.encode(gts[b]) for b in g_idx], axis=0)
        reg_term = l1_loss(take_rows(pred.box_vec, q_idx), Tensor(enc))
        return cls_term + weights.w_box * reg_term
    return focal_loss(pred.cls_logits, targets, alpha=FOCAL_ALPHA,
                      gamma=FOCAL_GAMMA)


class DecoderLayer:
    """Self-attention, deformable BEV cross-attention, FFN; all residual."""

    def __init__(self, c: int, n_da: int, rng: np.random.Generator,
                 name: str):
        self.c = c
        self.name = name
        std = 1.0 / math.sqrt(c)
        self.wq = Tensor(rng.normal(0.0, std, (c, c)), requires_grad=True)
        self.wk = Tensor(rng.normal(0.0, std, (c, c)), requires_grad=True)
        self.wv = Tensor(rng.normal(0.0, std, (c, c)), requires_grad=True)
        self.wo = Tensor(np.zeros((c, c)), requires_grad=True)
        self.bo = Tensor(np.zeros(c), requires_grad=True)
        self.lna_g = Tensor(np.ones(c), requires_grad=True)
        self.lna_b = Tensor(np.zeros(c), requires_grad=True)
        self.off_mlp = Mlp([c, c, 3 * n_da], rng, name=f"{name}.off",
                           final_zero=True, final_bias=_ring_bias(n_da))
        self.lnc_g = Tensor(np.ones(c), requires_grad=True)
        self.lnc_b = Tensor(np.zeros(c), requires_grad=True)
        self.ffn = Mlp([c, 2 * c, c], rng, name=f"{name}.ffn",
                       final_zero=True)
        self.lnf_g = Tensor(np.ones(c), requires_grad=True)
        self.lnf_b = Tensor(np.zeros(c), requires_grad=True)
        self.ref_delta = Mlp([c, 2], rng, name=f"{name}.refd",
                             final_zero=True)

    def params(self) -> dict[str, Tensor]:
        out = {f"{self.name}.wq": self.wq, f"{self.name}.wk": self.wk,
               f"{self.name}.wv": self.wv, f"{self.name}.wo": self.wo,
               f"{self.name}.bo": self.bo,
               f"{self.name}.lna_g": self.lna_g,
               f"{self.name}.lna_b": self.lna_b,
               f"{self.name}.lnc_g": self.lnc_g,
               f"{self.name}.lnc_b": self.lnc_b,
               f"{self.name}.lnf_g": self.lnf_g,
               f"{self.name}.lnf_b": self.lnf_b}
        out.update(self.off_mlp.params())
        out.update(self.ffn.params())
        out.update(self.ref_delta.params())
        return out


# neutral box prior: centered, car-sized, axis aligned
_BOX_BIAS = np.array([0.0, 0.0, 0.4, 0.64, 1.46, 0.47, 0.0, 1.0])


class DetrDecoder:
    def __init__(self, c: int, rng: np.random.Generator, n_layers: int = 3,
                 n_da: int = 4, name: str = "dec"):
        if n_layers < 1:
            raise ValueError("decoder needs at least one layer")
        self.c = c
        self.name = name
        self.layers = [DecoderLayer(c, n_da, rng, name=f"{name}{i}")
                       for i in range(n_layers)]
        self.ref_init = Mlp([c, 2], rng, name=f"{name}.ref0",
                            final_zero=True)
        self.cls_head = Mlp([c, c, 1], rng, name=f"{name}.cls",
                            final_bias=np.array([-2.0]))
        self.box_head = Mlp([c, c, 8], rng, name=f"{name}.box",
                            final_zero=True, final_bias=_BOX_BIAS)

    def params(self) -> dict[str, Tensor]:
        out = {}
        for layer in self.layers:
            out.update(layer.params())
        out.update(self.ref_init.params())
        out.update(self.cls_head.params())
        out.update(self.box_head.params())
        return out

    def forward(self, fbev: Tensor, queries: Tensor, spec: BevGridSpec,
                anchors: np.ndarray) -> Predictions:
        fbev = as_tensor(fbev)
        q = as_tensor(queries)
        n_q = q.shape[0]
        inv_sqrt = 1.0 / math.sqrt(self.c)
        # reference points in normalized ego coords, decoded to grid cells;
        # anchors seed them spread over the field instead of all centered
        anchors = np.asarray(anchors, dtype=np.float64)
        if anchors.shape != (n_q, 2):
            raise ValueError(f"anchors must be [{n_q}, 2], "
                             f"got {anchors.shape}")
        ref = self.ref_init(q) + Tensor(anchors)
        cell_scale = np.array([spec.grid_w / 2.0, spec.grid_h / 2.0])
        cell_shift = np.array([float(spec.grid_w // 2),
                               float(spec.grid_h // 2)])
        for layer in self.layers:
            x = layer_norm(q, layer.lna_g, layer.lna_b)
            qq = x @ layer.wq
            kk = x @ layer.wk
            vv = x @ layer.wv
            att = softmax((qq @ kk.transpose()) * inv_sqrt, axis=-1)
            q = q + (att @ vv) @ layer.wo + layer.bo

            x = layer_norm(q, layer.lnc_g, layer.lnc_b)
            q = q + deformable_attention(layer.off_mlp, x, fbev,
                                         ref * cell_scale + cell_shift)

            x = layer_norm(q, layer.lnf_g, layer.lnf_b)
            q = q + layer.ffn(x)
            ref = ref + layer.ref_delta(x)

        logits = self.cls_head(q)
        raw8 = self.box_head(q)
        box_vec = concat([raw8[:, :2] + ref, raw8[:, 2:]], axis=1)
        return Predictions(cls_logits=logits, box_vec=box_vec)


def decoded_rows(pred: Predictions, codec: BoxCodec) -> np.ndarray:
    """Head outputs to raw (c, x, y, z, w, l, h, yaw) rows."""
    logits = pred.cls_logits.data[:, 0]
    probs = 1.0 / (1.0 + np.exp(-logits))
    return codec.decode_rows(probs, pred.box_vec.data)
