"""Train and evaluate the collaboration benchmark over several seeds.

One run directory per seed, then a table of seed means for the
no-collaboration, late-fusion, and fused pipelines.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from viewfuse.cli import main as vf

LABELS = ("no_collab", "late", "fused")


def read_summary(path):
    with open(path, encoding="utf-8") as f:
        last = f.readlines()[-1]
    rec = json.loads(last)
    assert rec["record"] == "summary"
    return rec


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=None,
                    help="experiment config JSON; library defaults if omitted")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--steps", type=int, default=None)
    ap.add_argument("--out", default="runs/benchmark")
    args = ap.parse_args()

    base = ["--config", args.config] if args.config else []
    rows = {label: [] for label in LABELS}
    for seed in args.seeds:
        out = os.path.join(args.out, f"s{seed}")
        train = base + ["--seed", str(seed), "--out", out]
        if args.steps is not None:
            train += ["--steps", str(args.steps)]
        rc = vf(["train"] + train)
        if rc != 0:
            return rc
        for label in LABELS:
            rc = vf(["eval"] + base + ["--seed", str(seed), "--out", out,
                                       "--pipeline", label])
            if rc != 0:
                return rc
            rows[label].append(
                read_summary(os.path.join(out, f"report_{label}.jsonl")))

    n = len(args.seeds)
    print(f"\nmeans over seeds {args.seeds}")
    print(f"{'pipeline':<12} {'ap30':>8} {'ap50':>8} {'ap70':>8} {'bytes':>12}")
    lines = [["pipeline", "ap30", "ap50", "ap70", "mean_bytes"]]
    for label in LABELS:
        ap30 = sum(r["ap"]["0.30"] for r in rows[label]) / n
        ap50 = sum(r["ap"]["0.50"] for r in rows[label]) / n
        ap70 = sum(r["ap"]["0.70"] for r in rows[label]) / n
        nbytes = sum(r["total_bytes"] for r in rows[label]) / n
        print(f"{label:<12} {ap30:8.4f} {ap50:8.4f} {ap70:8.4f} {nbytes:12.0f}")
        lines.append([label, f"{ap30:.6f}", f"{ap50:.6f}", f"{ap70:.6f}",
                      f"{nbytes:.0f}"])
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "benchmark.csv"), "w",
              encoding="utf-8") as f:
        f.write("\n".join(",".join(map(str, r)) for r in lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
