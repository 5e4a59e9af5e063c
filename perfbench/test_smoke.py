"""Smoke tests for the benchmark itself: ``python3 -m pytest perfbench -q``.

Each workload runs at tiny size (``--smoke``), untraced and traced; every
metric BENCHMARK.json names must come back with its unit, the outputs must
pass their checks, and the first cycle's outputs must not depend on tracing.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_with_its_unit_and_tracing_changes_no_output(workload):
    digests = []
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        out = _bench(["--workload", workload, "--seed", "3", "--seconds", "1",
                      "--trace", str(trace), "--smoke"])
        assert out.returncode == 0, out.stderr
        *_, detail, result = out.stdout.strip().splitlines()
        detail, result = json.loads(detail), json.loads(result)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], detail["problems"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[group]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        digests.append(detail["first_cycle_digest"])
    assert digests[0] == digests[1]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _bench(["--workload", "train", "--seed", "0", "--seconds", "1",
                  "--trace", "0"], cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_tracer_restores_every_binding():
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import spans
    import viewfuse.eval

    def bindings():
        return {(name, attr): (value, getattr(value, "__defaults__", None))
                for name, mod in sys.modules.items()
                if name.startswith("viewfuse") and mod is not None
                for attr, value in vars(mod).items()}

    def targets():
        return [spans._resolve(m, q)[2] for m, q in spans.SPANNED + spans.COUNTED]

    before = bindings(), targets()
    iou = viewfuse.eval.rotated_iou_bev
    with spans.Tracer().installed():
        assert viewfuse.eval.rotated_iou_bev is not iou
        match = viewfuse.eval.match_detections.__wrapped__
        assert match.__defaults__[0] is not iou
    assert (bindings(), targets()) == before


def test_tail_has_ten_samples_beyond_it():
    sys.path.insert(0, str(HERE))
    import run
    value, pct = run.tail([float(i) for i in range(40)])
    assert (value, pct) == (29.0, 75.0)
    assert run.tail([1.0, 2.0]) == (2.0, 100.0)


def test_a_probe_follows_every_timed_call(monkeypatch):
    sys.path.insert(0, str(HERE))
    import run
    probes = iter([0.5, 0.01, 0.03, 0.04])
    monkeypatch.setattr(run, "probe", lambda: next(probes))
    timed = run.Timed()
    assert [timed(lambda: 7), timed(lambda: 8)] == [7, 8]
    assert len(timed.wall) == 2 and timed.probes == [0.01, 0.03, 0.04]
    assert run.host_speed(timed.probes) == pytest.approx(
        (run.PROBE_NOMINAL_S / 0.03) ** run.SPEED_EXPONENT)
