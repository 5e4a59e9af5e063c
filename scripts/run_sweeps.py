"""Sweep pose noise, agent count, and the sharing threshold on one checkpoint.

Expects a trained checkpoint (for example from run_benchmark.py); writes one
sweep CSV per axis into the run directory. The agent axis can only truncate
the roster the evaluation scenes were generated with, so sweeping up to 4
agents needs a config whose scene.n_agents is 4 (and a checkpoint trained
under that config).
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from viewfuse.cli import main as vf


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=None)
    ap.add_argument("--checkpoint", required=True)
    ap.add_argument("--out", default="runs/sweeps")
    ap.add_argument("--axes", nargs="+", default=["noise", "agents", "c_thre"],
                    choices=["noise", "agents", "c_thre"])
    ap.add_argument("--noise-values", default="0:0.6:7")
    ap.add_argument("--agents-values", default="1,2")
    ap.add_argument("--cthre-values", default="0.05,0.1,0.2,0.35,0.5")
    args = ap.parse_args()

    values = {"noise": args.noise_values, "agents": args.agents_values,
              "c_thre": args.cthre_values}
    base = ["--config", args.config] if args.config else []
    base += ["--checkpoint", args.checkpoint, "--out", args.out]
    for axis in args.axes:
        print(f"\n== sweep {axis}: {values[axis]}")
        rc = vf(["eval"] + base + ["--sweep", axis, values[axis]])
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
