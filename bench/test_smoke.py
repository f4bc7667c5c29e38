"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest bench/test_smoke.py      (or: python3 bench/test_smoke.py)

Each workload runs one chunk of one trial per sweep point, untraced and
traced, at the reference seed. The test checks that every metric named in
BENCHMARK.json is printed with its unit, and failed_fraction too; that the
traced per-layer self times add up to the traced trial time; and that every
name the benchmark wrapped is the original function again afterwards.
"""

import contextlib
import dataclasses
import importlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

# Self times are differences of the same clock readings, so they add up to
# the trial time to within float rounding.
SELF_SUM_RTOL = 1e-9
LAYER_SELF = ("geometry.self_s_per_trial", "channel.self_s_per_trial",
              "pilots.self_s_per_trial", "airframe.self_s_per_trial",
              "estimator.self_s_per_trial", "analytics.self_s_per_trial",
              "harness.run_trial.self_s_per_trial")


def _spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run_tiny(workload, trace):
    saved = run.WORKLOADS[workload], run.SETUP_REPEATS
    run.WORKLOADS[workload] = dataclasses.replace(saved[0], trials=1, cycle=1)
    run.SETUP_REPEATS = 1
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            assert run.main(["--workload", workload, "--seed", str(run.REFERENCE_SEED),
                             "--seconds", "0", "--trace", str(trace)]) == 0
    finally:
        run.WORKLOADS[workload], run.SETUP_REPEATS = saved
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def _check_workload(workload):
    spec = _spec()
    run.import_cfpilot()
    tracing = importlib.import_module("tracing")
    originals = {key: getattr(importlib.import_module(key[0]), key[1])
                 for key in tracing.WRAPPED}
    for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        lines, result = _run_tiny(workload, trace)
        assert result["correct"] and result["failed"] == 0, lines
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in listed}
        for m in listed:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"], (m["name"], got)
            assert any(line.startswith(f"{m['name']} = ") and f" {m['unit']}" in line
                       for line in lines), m["name"]
        if not trace:
            assert any(line.startswith("failed_fraction = ") for line in lines)
        else:
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            total = sum(metrics[k] for k in LAYER_SELF)
            trial = metrics["harness.run_trial.s_per_trial"]
            assert abs(total - trial) <= SELF_SUM_RTOL * trial, (total, trial)
    for (mod, attr), fn in originals.items():
        assert getattr(importlib.import_module(mod), attr) is fn, (mod, attr)


def test_fig7_full():
    _check_workload("fig7-full")


def test_fig6_desk():
    _check_workload("fig6-desk")


def test_fig7_full_par():
    _check_workload("fig7-full-par")


if __name__ == "__main__":
    for name in sorted(run.WORKLOADS):
        _check_workload(name)
        print(f"{name}: ok")
