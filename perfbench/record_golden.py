"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_golden.py

Writes golden.json: the digest of every scene a workload generates; for
each held-out eval scene, the exact wire bytes, the GT count, the AP and
the detections of a fused and of a late-fusion pass; and the reference
train losses (workloads.reference_losses) for the full and smoke pools.
Run it only when the library's outputs are meant to change; a change that
claims a speed-up must leave this file alone.
"""
from __future__ import annotations

import json
import sys

import run

run.import_library()

import workloads  # noqa: E402

from viewfuse import eval as vf_eval  # noqa: E402
from viewfuse import model as vf_model  # noqa: E402
from viewfuse import scene as vf_scene  # noqa: E402
from viewfuse.config import ExperimentConfig  # noqa: E402


def main() -> int:
    cfg = ExperimentConfig()
    full, smoke = workloads.FULL, workloads.SMOKE
    seeds = sorted({cfg.train.scene_seed0 + i
                    for i in range(full.scenegen_scenes)}
                   | set(workloads.TRAIN_POOL) | set(workloads.EVAL_SCENES))
    scenes = {s: vf_scene.generate_scene(cfg.scene, s) for s in seeds}
    golden = {"scenes": {str(s): workloads.scene_digest(sc)
                         for s, sc in scenes.items()},
              "eval": {}, "train": {}}
    init = workloads.seeded_rng(workloads.EVAL_MODEL_SEED, workloads.TAG_INIT)
    model = vf_model.PipelineModel(cfg.model, init)
    for mode, fn in (("fused", vf_eval.run_fusion),
                     ("late", vf_eval.run_late_fusion)):
        golden["eval"][mode] = {
            str(s): workloads.eval_record(fn(model, [scenes[s]]))
            for s in workloads.EVAL_SCENES}
    for n in sorted({full.train_pool, smoke.train_pool}):
        pool = [scenes[s] for s in workloads.TRAIN_POOL[:n]]
        golden["train"][str(n)] = workloads.reference_losses(cfg, pool)
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {workloads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
