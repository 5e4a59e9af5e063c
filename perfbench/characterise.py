"""Where the benchmark's fixed inputs fall among the default scene sets.

    python3 perfbench/characterise.py            # about five minutes

Runs once, outside any timed run. For each of the default 50 held-out eval
scenes it measures generation time, GT count, warm fused and late-fusion
pass time, detections, wire bytes and rotated-NMS input. For each of the
200 default training scenes it measures generation time, GT count, a
batch-1 train step, and how many of its camera views generation left
without a cached raster. It also replays
the CLI's batch stream for a default ``viewfuse train`` run to count the
scene visits that are a scene's first.

Prints a summary and writes every row to ``perfbench/out/characterise.json``.
The chosen eval scenes, train pool and their percentiles are quoted in
README.md.
"""
from __future__ import annotations

import json
import statistics
import sys
import time

import run

run.import_library()

import numpy as np  # noqa: E402

import workloads  # noqa: E402

from viewfuse import cli as vf_cli  # noqa: E402
from viewfuse import eval as vf_eval  # noqa: E402
from viewfuse import model as vf_model  # noqa: E402
from viewfuse import scene as vf_scene  # noqa: E402
from viewfuse import tensor as vf_tensor  # noqa: E402
from viewfuse.config import ExperimentConfig  # noqa: E402


def timed(fn, *args, **kw):
    t0 = time.perf_counter()
    out = fn(*args, **kw)
    return out, time.perf_counter() - t0


def eval_rows(cfg, model) -> list[dict]:
    nms_in = []
    nms = vf_eval.nms_rotated

    def counting_nms(dets, *a, **kw):
        nms_in.append(len(dets))
        return nms(dets, *a, **kw)

    rows = []
    vf_eval.nms_rotated = counting_nms
    try:
        for i in range(cfg.eval.n_scenes):
            seed = cfg.eval.scene_seed0 + i
            sc, gen_s = timed(vf_scene.generate_scene, cfg.scene, seed)
            vf_eval.run_fusion(model, [sc])            # fills raster caches
            fused, fused_s = timed(vf_eval.run_fusion, model, [sc])
            nms_in.clear()
            late, late_s = timed(vf_eval.run_late_fusion, model, [sc])
            rows.append({"scene": seed, "gen_s": gen_s, "n_gt": fused.n_gt,
                         "fused_s": fused_s, "late_s": late_s,
                         "fused_dets": fused.per_scene[0]["n_detections"],
                         "late_dets": late.per_scene[0]["n_detections"],
                         "fused_bytes": fused.total_bytes,
                         "late_bytes": late.total_bytes,
                         "nms_in": sum(nms_in)})
    finally:
        vf_eval.nms_rotated = nms
    return rows


def train_rows(cfg, model) -> list[dict]:
    """Generation time, GT count, the views whose raster generation already
    cached, and the time of a batch-1 train step on the scene."""
    opt = vf_tensor.Adam(model.params(), lr=cfg.train.lr)
    rows = []
    for i in range(cfg.train.n_scenes):
        seed = cfg.train.scene_seed0 + i
        sc, gen_s = timed(vf_scene.generate_scene, cfg.scene, seed)
        views = sum(len(a.cams) for a in sc.agents)
        cached = len(sc._rasters)
        _, step_s = timed(vf_model.train_step, [sc], model, opt,
                          vf_model.FLAGS_FULL,
                          noise_sigma=cfg.train.noise_sigma,
                          noise_rng=workloads.seeded_rng(0, i),
                          detector_mode="train")
        n_gt = len(vf_model.ego_frame_targets(sc, model.spec,
                                              model.cfg.vis_min))
        rows.append({"scene": seed, "gen_s": gen_s, "n_gt": n_gt,
                     "step_s": step_s, "views": views,
                     "rasters_cached": cached})
    return rows


def first_visits(cfg) -> dict:
    """Scene visits of a default ``viewfuse train`` run that are the
    scene's first, and the steps that hold at least one of them."""
    seen: set[int] = set()
    first = first_steps = 0
    n = cfg.train.n_scenes
    batch = min(cfg.train.batch, n)
    for step in range(cfg.train.steps):
        brng = np.random.default_rng(np.random.SeedSequence(
            [cfg.train.seed, vf_cli.TAG_BATCH, step]))
        idx = [int(j) for j in brng.choice(n, size=batch, replace=False)]
        new = [j for j in idx if j not in seen]
        first += len(new)
        first_steps += bool(new)
        seen.update(idx)
    return {"steps": cfg.train.steps, "visits": cfg.train.steps * batch,
            "first_visits": first, "first_visit_steps": first_steps}


def percentile_of(values, x) -> float:
    return 100.0 * sum(v <= x for v in values) / len(values)


def summarise(rows: list[dict], keys, chosen) -> None:
    for key in keys:
        vals = [r[key] for r in rows]
        q = statistics.quantiles(vals, n=4)
        picked = ", ".join(
            f"{r[key]:.3g} (p{percentile_of(vals, r[key]):.0f})"
            for r in rows if r["scene"] in chosen)
        print(f"  {key:11s} median {q[1]:.3g}  quartiles {q[0]:.3g}-{q[2]:.3g}"
              f"  range {min(vals):.3g}-{max(vals):.3g}  chosen {picked}")


def main() -> int:
    cfg = ExperimentConfig()
    model = vf_model.PipelineModel(cfg.model, workloads.seeded_rng(
        workloads.EVAL_MODEL_SEED, workloads.TAG_INIT))
    ev = eval_rows(cfg, model)
    tr = train_rows(cfg, model)
    visits = first_visits(cfg)
    print(f"eval: {len(ev)} scenes; chosen {list(workloads.EVAL_SCENES)}")
    summarise(ev, ("gen_s", "n_gt", "fused_s", "late_s", "fused_dets",
                   "late_dets", "fused_bytes", "late_bytes", "nms_in"),
              workloads.EVAL_SCENES)
    print(f"train: {len(tr)} scenes; pool {list(workloads.TRAIN_POOL)}")
    summarise(tr, ("gen_s", "n_gt", "step_s"), workloads.TRAIN_POOL)
    uncached = sum(r["views"] - r["rasters_cached"] for r in tr)
    print(f"train visits: {visits}; views generation left uncached: "
          f"{uncached} of {sum(r['views'] for r in tr)}")
    run.OUT.mkdir(exist_ok=True)
    with open(run.OUT / "characterise.json", "w", encoding="utf-8") as f:
        json.dump({"eval": ev, "train": tr, "train_visits": visits}, f,
                  indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
