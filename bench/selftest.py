#!/usr/bin/env python3
"""Self-test of the benchmark at tiny input size.

Run from the repository root:

    python3 bench/selftest.py

It checks that every metric named in BENCHMARK.json is printed, with its
unit, by every workload; that each output check can fail, also on a real
wrong output of the library; that the tracer restores every attribute it
wraps, also on error; and that the benchmark exits nonzero without a result
where the package sources are missing.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_cli(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170)


def test_every_metric_is_printed():
    for workload in SPEC["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            res = run_cli(workload["name"], trace)
            assert res.returncode == 0, res.stderr
            out = json.loads(res.stdout.strip().splitlines()[-1])
            assert set(out) == {"correct", "attempted", "failed", "metrics"}
            assert out["correct"] is True and out["failed"] == 0
            assert out["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in SPEC[kind]}
            assert set(out["metrics"]) == set(want), (workload, kind)
            for name, unit in want.items():
                value = out["metrics"][name]["value"]
                assert out["metrics"][name]["unit"] == unit, name
                assert isinstance(value, (int, float)) and math.isfinite(value)
                if kind == "end_to_end":
                    assert value > 0.0, name


def test_closed_loop_checks_can_fail():
    hf = bench.import_hfsense()
    wl = bench.ClosedLoop(hf, 3, tiny=True)
    trace = wl.op()
    assert wl.check(trace) is None
    data = trace.data

    changed = dict(data, prop_theta_hat=data["prop_theta_hat"].copy())
    changed["prop_theta_hat"][-1] += 1e-12
    err = wl.check(hf.sim.Trace(changed, trace.columns))
    assert err is not None and "bit-identical" in err

    swapped = dict(data, prop_theta_hat=data["conv_theta_hat"],
                   conv_theta_hat=data["prop_theta_hat"])
    err = wl.check(hf.sim.Trace(swapped, trace.columns))
    assert err is not None and "ordering" in err

    broken = dict(data, conv_theta_hat=data["conv_theta_hat"] * math.nan)
    err = wl.check(hf.sim.Trace(broken, trace.columns))
    assert err is not None and "non-finite" in err


def test_closed_loop_check_catches_start_up_failure():
    """A real wrong output: the start-up failure that bounds the angle range.

    At this initial angle (3.336 rad, outside the workload's [-pi/2, pi/2))
    the loop loses the polarity branch at start-up and the check fails.  If
    this test starts failing because the loop now starts cleanly, the
    library's start-up has been fixed: widen `ClosedLoop` back to [0, 2 pi).
    """
    hf = bench.import_hfsense()
    wl = bench.ClosedLoop(hf, 3, tiny=False)
    theta0 = random.Random(2118533121).uniform(0.0, 2.0 * math.pi)
    wl.cfg = replace(wl.cfg, theta0=theta0, theta0_est=theta0)
    err = wl.check(wl.op())
    assert wl.report["prop_rmsd_rad"] > 0.3, wl.report
    assert err is not None and "ordering" in err, err

def test_replay_and_residual_checks_can_fail():
    hf = bench.import_hfsense()
    replay = bench.EstimatorReplay(hf, 3, tiny=True)
    res = replay.op()
    assert replay.check(res) is None
    assert "exceeds" in replay.check(dict(res, max_rel_yv_deviation=2e-9))

    residual = bench.DrivenResidual(hf, 3, tiny=True)
    assert "outside" in residual.check({"ratio": 2.9})
    assert "outside" in residual.check({"ratio": math.nan})
    assert residual.check({"ratio": 4.0}) is None
    assert "bit-identical" in residual.check({"ratio": 4.5})


def test_failed_operations_are_counted():
    hf = bench.import_hfsense()
    wl = bench.DrivenResidual(hf, 3, tiny=True)

    def diverging():
        raise hf.sim.SimulationDiverged("forced")

    tally = bench.Tally()
    assert bench.run_op(hf, wl, tally, diverging) is None
    assert bench.run_op(hf, wl, tally, lambda: {"ratio": 1.0}) is None
    assert bench.run_op(hf, wl, tally, lambda: {"ratio": 4.0}) is not None
    assert (tally.attempted, tally.failed) == (3, 2)
    assert "SimulationDiverged" in tally.errors[0]


def test_tracer_restores_attributes_on_error():
    hf = bench.import_hfsense()
    points = bench.entry_points(hf)
    before = [getattr(owner, attr) for _, owner, attr in points]
    tracer = bench.Tracer()
    try:
        with bench.wrapped(points, tracer.time):
            assert all(getattr(owner, attr) is not fn for (_, owner, attr), fn
                       in zip(points, before))
            hf.estimators.Pll(1.0, 1.0, 1).step(0.1, 1e-3)
            raise RuntimeError("forced")
    except RuntimeError:
        pass
    after = [getattr(owner, attr) for _, owner, attr in points]
    assert all(a is b for a, b in zip(after, before))
    assert tracer.busy["estimators.pll"][0] == 1


def test_fails_without_sources():
    bare = ROOT / ".bench_trace" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    for rel in ["BENCHMARK.json", *SPEC["paths"]]:
        src = ROOT / rel
        if src.is_dir():
            shutil.copytree(src, bare / rel,
                            ignore=shutil.ignore_patterns("__pycache__"))
        else:
            (bare / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(src, bare / rel)
    try:
        res = run_cli("closed_loop", 0, cwd=bare)
        assert res.returncode != 0
        assert '"correct"' not in res.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items()
             if name.startswith("test_") and callable(fn)]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
