"""viewfuse benchmark: closed-loop, single-process, one client.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Builds nothing: it imports ``viewfuse`` from ``src/`` next to this
directory and refuses to run without it. With ``--trace 0`` it times the
whole cycles of the workload's op that come closest to ``--seconds``, and
prints the end-to-end metrics, scaled to a nominal host speed (``probe``).
With ``--trace 1`` it times half as long untraced, then replays the same
ops with every layer wrapped (spans.py), requires identical output digests
from both halves, and prints the per-layer metrics.

The last stdout line is the result object; the line before it holds the
details (environment, wall times, host speed, tail percentile, failures,
digests). Both, and the spans of a traced run, are also written to
``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

# pinned before numpy loads; the run is one process with one compute thread
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "VIEWFUSE_WORKERS": "1"}
os.environ.update(PINNED)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def import_library() -> None:
    """Put the checkout's ``src`` first; fail unless viewfuse comes from it."""
    sys.path.insert(0, str(SRC))
    try:
        import viewfuse
    except ImportError as e:
        sys.exit(f"perfbench: cannot import viewfuse from {SRC}: {e}")
    if SRC not in Path(viewfuse.__file__).resolve().parents:
        sys.exit(f"perfbench: viewfuse resolved to {viewfuse.__file__}, "
                 f"not to {SRC}")


def git_sha() -> str | None:
    """HEAD commit of the checkout; None where it is not a git repository."""
    try:
        # the ceiling keeps git from reporting an enclosing repository
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {k: os.environ[k] for k in PINNED},
            "git_sha": git_sha(), "seed": seed}


# The host's speed drifts: on a shared VM the same code runs up to 2x
# slower for stretches of seconds, whatever the code. A fixed probe that
# runs no viewfuse code is timed after every op and every set-up, and all
# times of a run are scaled by the host speed it gives. Wall times are kept
# in the details.
PROBE_NOMINAL_S = 0.02
PROBE_LOOP = 100_000
PROBE_ARRAYS = 1000
# The workloads follow the probe only in part. Over ten runs of each, with
# probe speeds from 0.77 to 1.48 times nominal, log op time moved by 0.45
# to 0.94 (mean 0.7) per unit of log probe speed; scaling by the full probe
# speed over-corrected.
SPEED_EXPONENT = 0.7


def probe() -> float:
    """Seconds for fixed interpreter work and small numpy calls."""
    import numpy as np
    t0 = time.perf_counter()
    s = 0
    for k in range(PROBE_LOOP):
        s += k * k % 7
    x = np.linspace(0.0, 1.0, 256)
    for _ in range(PROBE_ARRAYS):
        x = np.sort(np.sin(x) * 0.5 + x * 0.5)
    return time.perf_counter() - t0


def host_speed(probes: list[float]) -> float:
    """Factor that scales times to a host where the probe takes
    PROBE_NOMINAL_S; times are multiplied by it."""
    return (PROBE_NOMINAL_S / statistics.median(probes)) ** SPEED_EXPONENT


class Timed:
    """Wall times of the callables it runs, and a probe after each."""

    def __init__(self):
        probe()                                  # first calls load lazily
        self.wall: list[float] = []
        self.probes: list[float] = [probe()]

    def __call__(self, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.wall.append(time.perf_counter() - t0)
            self.probes.append(probe())


class Phase(Timed):
    """Durations, digests and failures of one stretch of timed ops."""

    def __init__(self):
        super().__init__()
        self.digests: list[str] = []
        self.problems: list[str] = []
        self.failed = 0

    def items_per_s(self, items_per_op: int, speed: float = 1.0) -> float:
        done = len(self.wall) - self.failed
        return items_per_op * done / (sum(self.wall) * speed)


def run_ops(w, seconds: float | None = None, n_ops: int | None = None,
            tracer=None) -> Phase:
    """The whole number of cycles that ends closest to ``seconds``, or
    exactly ``n_ops`` ops.

    Every run thus measures whole copies of the same inputs. Only the op
    itself is timed; its output check runs between ops.
    """
    def op(i):
        with tracer.op_span(i, f"op.{w.name}") if tracer else nullcontext():
            return w.op(i)

    ph = Phase()
    start = time.perf_counter()
    i = 0
    while True:
        if n_ops is not None:
            if i >= n_ops:
                break
        elif i and i % w.cycle_len == 0:
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / (i // w.cycle_len) / 2 >= seconds:
                break
        try:
            out = ph(op, i)
            problem = None
        except Exception as e:  # a failed op is counted and the run goes on
            problem = f"op {i}: {type(e).__name__}: {e}"
        digest = ""
        if problem is None:
            digest, problem = w.check(i, out)
        ph.digests.append(digest)
        if problem is not None:
            ph.failed += 1
            ph.problems.append(problem)
        i += 1
    return ph


def tail(durations: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value.

    With ten samples or fewer no such percentile exists; the maximum is
    reported as the 100th.
    """
    s = sorted(durations)
    n = len(s)
    if n > 10:
        return s[n - 11], 100.0 * (n - 10) / n
    return s[-1], 100.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny pools and two set-ups, for the smoke test")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    import_library()
    import resource

    import spans
    import workloads

    size = workloads.SMOKE if args.smoke else workloads.FULL
    w = workloads.make(args.workload, args.seed, size, workloads.load_golden())

    setups, problems = Timed(), []
    for _ in range(size.setup_repeats):
        problems += setups(w.setup)

    detail = {"workload": w.name, "trace": args.trace, "smoke": args.smoke,
              "env": environment(args.seed), "setup_wall_s": setups.wall}
    span_rows = None
    if args.trace:
        snap = w.snapshot()
        plain = run_ops(w, seconds=args.seconds / 2)
        w.restore(snap)
        tracer = spans.Tracer()
        with tracer.installed():
            traced = run_ops(w, n_ops=len(plain.wall), tracer=tracer)
        if traced.digests != plain.digests:
            problems.append("traced outputs differ from untraced outputs")
        phases = (plain, traced)
        n = len(traced.wall)
        layer = tracer.layer_metrics(n, n * w.scenes_per_op)
        untraced_ips = plain.items_per_s(w.items_per_op,
                                         host_speed(plain.probes))
        traced_ips = traced.items_per_s(w.items_per_op,
                                        host_speed(traced.probes))
        layer["trace.ops"] = (n, "ops")
        layer["trace.untraced_items_per_s"] = (untraced_ips, "items/s")
        layer["trace.traced_items_per_s"] = (traced_ips, "items/s")
        layer["trace.overhead_frac"] = (
            1.0 - traced_ips / untraced_ips if untraced_ips else 0.0, "ratio")
        metrics = {k: metric(v, u) for k, (v, u) in layer.items()}
        span_rows = tracer.spans
    else:
        ph = run_ops(w, seconds=args.seconds)
        phases = (ph,)
        speed = host_speed(setups.probes + ph.probes)
        tail_s, tail_pct = tail(ph.wall)
        metrics = {
            "items_per_s": metric(ph.items_per_s(w.items_per_op, speed),
                                  "items/s"),
            "op_p50_s": metric(statistics.median(ph.wall) * speed, "s"),
            "op_tail_s": metric(tail_s * speed, "s"),
            "setup_s": metric(statistics.median(setups.wall) * speed, "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        detail.update(
            op_tail_percentile=tail_pct, op_samples=len(ph.wall),
            host_speed=speed,
            wall={"items_per_s": ph.items_per_s(w.items_per_op),
                  "op_p50_s": statistics.median(ph.wall), "op_tail_s": tail_s,
                  "setup_s": statistics.median(setups.wall)})

    attempted = sum(len(p.wall) for p in phases)
    failed = sum(p.failed for p in phases)
    problems += [x for p in phases for x in p.problems]
    detail.update(
        failed_frac=failed / attempted,
        first_cycle_digest=hashlib.sha256("\n".join(
            phases[0].digests[:w.cycle_len]).encode()).hexdigest()[:16],
        problems=problems[:20], **w.details())
    result = {"correct": not problems and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as f:
        json.dump({"detail": detail, "result": result}, f, indent=1)
    if span_rows is not None:
        with open(OUT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as f:
            f.write('["op", "id", "parent", "name", "start", "end", "ok"]\n')
            for row in span_rows:
                f.write(json.dumps(row) + "\n")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
