"""Record the reference trial outputs that bench/run.py checks against.

Run from the repository root, at the commit whose outputs are the
reference:

    python3 bench/make_refs.py [workload ...]

For every chunk of the workload's cycle at the reference seed, this calls
``harness.run_trial`` for each sweep point and trial, serially, and stores
the per-curve fingerprint of each trial in ``bench/refs/<workload>.json``.
Trial outputs do not depend on the worker count, so the pool workload is
recorded serially too.
"""

import json
import os
import sys

import run


def record(workload):
    from cfpilot import harness
    w = run.WORKLOADS[workload]
    rows = []
    for chunk in range(w.cycle):
        overrides = run.workload_overrides(workload, run.REFERENCE_SEED, chunk)
        cfg = harness.figure_config(w.figure, **dict(overrides, workers=1))
        for value in cfg.sweep_values:
            for trial in range(cfg.trials):
                rec = harness.run_trial(cfg, value, trial)
                rows.append([chunk, float(value), trial, run.fingerprint(rec)])
    os.makedirs(run.REFS, exist_ok=True)
    with open(run.reference_path(workload), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": run.REFERENCE_SEED,
                   "source_sha256": run.source_digest(), "trials": rows}, fh)
        fh.write("\n")
    print(f"{workload}: {len(rows)} trials -> {os.path.relpath(run.reference_path(workload))}")


def main(argv):
    run.import_cfpilot()
    for workload in argv or sorted(run.WORKLOADS):
        record(workload)


if __name__ == "__main__":
    main(sys.argv[1:])
