"""cfpilot benchmark: Monte-Carlo sweep throughput, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload fig7-full --seed 1 --seconds 50 --trace 0

Each workload is one process running a closed loop of ``harness.run_sweep``
calls ("chunks") until ``--seconds`` have passed. The chunks cycle through
a fixed list of per-chunk seeds derived from ``--seed``, so the same seed
always runs the same trials. Every trial's output is checked, against the
recorded references in ``bench/refs`` when the seed has them and against
the invariants (finite, NMSE >= 0, SE >= 0) otherwise.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics, whose host times are scaled to a reference speed of
the machine with a calibration kernel timed between chunks
(``calibration_s``). With ``--trace 1`` every chunk runs twice, untraced
and traced, in alternating order. The JSON then holds the per-layer
metrics from the traced passes and the tracing overhead, which is the
ratio of traced to untraced trials/s over the same chunks. Each run also
writes a manifest to ``bench/results/``, plus its spans when tracing.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import asdict, dataclass

import numpy as np

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFS = os.path.join(HERE, "refs")
RESULTS = os.path.join(HERE, "results")

# The seed whose trial outputs are recorded in bench/refs.
REFERENCE_SEED = 1
SETUP_REPEATS = 9
# Relative tolerance on each trial's NMSE and SE fingerprints: the
# ROADMAP's per-link rule (<= 1e-12 relative) bounds every weighted sum of
# nonnegative per-link values by the same share; the extra 1e-13 covers the
# summation's own rounding.
REF_RTOL = 1.1e-12
# Seconds the calibration kernel takes on the machine the benchmark was
# sized on (2-core Xeon, KVM guest) when that machine runs at full speed.
# Host times in the end-to-end metrics are scaled to this speed.
CALIBRATION_REF_S = 0.0100
# trial_ms_tail is the highest whole percentile that leaves at least this many
# of the cycle's distinct trials beyond it.
TAIL_BEYOND = 10
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "GOTO_NUM_THREADS")


def nproc():
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    figure: str
    desk_scale: bool
    points: tuple     # p_dbm sweep values of one chunk
    trials: int       # trials per sweep point in one chunk
    workers: int
    cycle: int        # distinct chunk seeds before the chunk list repeats
    why: str

    @property
    def distinct_trials(self):
        return self.cycle * len(self.points) * self.trials

    @property
    def tail_pct(self):
        """Percentile reported as trial_ms_tail; fixed by the workload's size,
        so a faster program is measured at the same percentile."""
        return max(50, int(100 * (1 - TAIL_BEYOND / self.distinct_trials)))


WORKLOADS = {
    "fig7-full": Workload(
        "fig7", False, (20.0,), 4, 1, 8,
        "the paper's headline comparison at full scale (70 APs, Poisson(98) UEs); "
        "estimator and max-min assignment dominate"),
    "fig6-desk": Workload(
        "fig6", True, (-12.0, 4.0, 20.0), 8, 1, 16,
        "desk scale (10 APs, Poisson(14) UEs): per-call overhead, random pilots "
        "and the UPNG data path; max-min assignment bypassed"),
    "fig7-full-par": Workload(
        "fig7", False, (4.0, 20.0), 4, nproc(), 4,
        "fig7-full over two sweep points with workers = nproc; the only workload "
        "that runs the harness process pool (one pool per point)"),
}


def chunk_seed(seed, chunk):
    return int(np.random.SeedSequence((seed, chunk)).generate_state(1)[0])


def workload_overrides(workload, seed, chunk):
    """Keyword arguments of ``harness.figure_config`` for one chunk."""
    w = WORKLOADS[workload]
    return {"desk_scale": w.desk_scale, "sweep_values": w.points, "trials": w.trials,
            "workers": w.workers, "seed": chunk_seed(seed, chunk)}


def import_cfpilot():
    """Import cfpilot from this checkout's ``src``, never from elsewhere."""
    init = os.path.join(SRC, "cfpilot", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"bench: no cfpilot sources at {init}")
    sys.path.insert(0, SRC)
    import cfpilot
    if os.path.realpath(cfpilot.__file__) != os.path.realpath(init):
        raise SystemExit(f"bench: imported cfpilot from {cfpilot.__file__}, not {init}")
    return cfpilot


# ---------------------------------------------------------------------------
# Output checking
# ---------------------------------------------------------------------------

def fingerprint(record):
    """Per-curve summary of one TrialRecord that the reference rule can test.

    Links are put in (AP, UE) order first, so a change of iteration order is
    not a change of output. The weights make a swap of two links' values
    visible in the weighted sums.
    """
    out = {}
    for curve, rec in record.curves.items():
        ap, ue = np.asarray(rec["ap"]), np.asarray(rec["ue"])
        order = np.lexsort((ue, ap))
        nmse, se = np.asarray(rec["nmse"])[order], np.asarray(rec["se"])
        w_link = 1.0 + (np.arange(nmse.size) % 7) / 8.0
        w_ue = 1.0 + (np.arange(se.size) % 5) / 8.0
        link_key = int(((ap[order] * 7919 + ue[order] + 1) * np.arange(1, nmse.size + 1)).sum())
        out[curve] = [int(nmse.size), link_key, int(rec["tau_ex"]),
                      float(nmse.sum()), float(nmse @ w_link),
                      float(se.sum()), float(se @ w_ue)]
    return out


def invariant_errors(record):
    errors = []
    for curve, rec in record.curves.items():
        for key in ("nmse", "se"):
            vals = np.asarray(rec[key], dtype=float)
            if not np.isfinite(vals).all():
                errors.append(f"{curve}: non-finite {key}")
            elif (vals < 0).any():
                errors.append(f"{curve}: negative {key}")
    return errors


def reference_errors(got, want):
    if set(got) != set(want):
        return [f"curves {sorted(got)} != reference {sorted(want)}"]
    errors = []
    for curve, g in got.items():
        w = want[curve]
        if g[:3] != w[:3]:
            errors.append(f"{curve}: (links, link key, tau_ex) {g[:3]} != {w[:3]}")
        for label, a, b in zip(("sum nmse", "wsum nmse", "sum se", "wsum se"), g[3:], w[3:]):
            if abs(a - b) > REF_RTOL * abs(b):
                errors.append(f"{curve}: {label} {a!r} != reference {b!r}")
    return errors


def reference_path(workload):
    return os.path.join(REFS, f"{workload}.json")


def load_references(workload, seed):
    """{(chunk, sweep_value, trial): fingerprint} for the reference seed, else None."""
    if seed != REFERENCE_SEED:
        return None
    with open(reference_path(workload), encoding="utf-8") as fh:
        data = json.load(fh)
    return {(c, float(v), t): fp for c, v, t, fp in data["trials"]}


class Checker:
    """Checks every finished trial and keeps its host time and link count."""

    def __init__(self, refs):
        self.refs = refs
        self.chunk = None
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.trial_s = []
        self.trial_keys = []
        self.links = 0

    def start_chunk(self, chunk, expected):
        self.chunk = chunk
        self.attempted += expected
        self.trial_s, self.trial_keys, self.links, self._seen = [], [], 0, 0

    def on_trial(self, record, start, end):
        self._seen += 1
        self.trial_s.append(end - start)
        self.trial_keys.append((record.sweep_value, record.trial))
        self.links += sum(len(rec["nmse"]) for rec in record.curves.values())
        errors = invariant_errors(record)
        if self.refs is not None:
            key = (self.chunk, record.sweep_value, record.trial)
            want = self.refs.get(key)
            errors += (reference_errors(fingerprint(record), want) if want is not None
                       else [f"no reference for chunk/point/trial {key}"])
        if errors:
            self.failed += 1
            self.errors.append(f"chunk {self.chunk} p={record.sweep_value} "
                               f"trial {record.trial}: " + "; ".join(errors))

    def chunk_raised(self, expected):
        """Trials of a chunk that never returned count as failed."""
        self.failed += expected - self._seen


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

_CAL_RNG = np.random.default_rng(20250605)
_CAL_A = _CAL_RNG.standard_normal((64, 64)) + 1j * _CAL_RNG.standard_normal((64, 64))
_CAL_X = _CAL_RNG.standard_normal(50) + 1j * _CAL_RNG.standard_normal(50)


def calibration_s():
    """Seconds one fixed piece of work takes now, independent of cfpilot.

    The host this benchmark runs on shares its cores, and its speed moves
    by up to ~1.7x over seconds to minutes. The kernel runs the three kinds
    of work a trial is made of (interpreted Python, numpy calls on small
    arrays, small dense linear algebra), so its time moves with the host's
    speed the way a trial's does, while no change to cfpilot can move it.
    """
    start = tracing.clock()
    counts = {}
    for i in range(16000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    acc = 0.0
    for i in range(1200):
        y = _CAL_X * _CAL_X.conj()
        acc += float(np.abs(y[i % 50]) + y.real.sum())
    for _ in range(30):
        gram = _CAL_A @ _CAL_A.conj().T
        np.linalg.solve(gram + 64.0 * np.eye(64), _CAL_A[:, 0])
    return tracing.clock() - start


SETUP_CODE = """
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cfpilot, cfpilot.cli
from cfpilot import harness
kwargs = json.loads(sys.argv[3])
kwargs["sweep_values"] = tuple(kwargs["sweep_values"])
harness.figure_config(sys.argv[2], **kwargs)
print(repr(time.perf_counter() - start))
"""


def measure_setup(workload, seed):
    """Seconds a fresh interpreter takes to import cfpilot and build and
    validate the workload's config."""
    kwargs = json.dumps(workload_overrides(workload, seed, 0))
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, WORKLOADS[workload].figure,
                           kwargs], capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def peak_rss_mib():
    """Peak resident memory of this process and of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def percentile(values, pct):
    return float(np.percentile(np.asarray(values, dtype=float), pct))


@dataclass
class Pass:
    chunk: int
    traced: bool
    trials: int
    links: int
    wall_s: float
    trial_s: list
    trial_keys: list  # (sweep value, trial) of each entry of trial_s
    cal_s: float      # mean calibration time just before and just after the pass

    @property
    def speed_scale(self):
        """Factor that turns this pass's host times into reference-speed times."""
        return CALIBRATION_REF_S / self.cal_s


def run_passes(workload, seed, seconds, trace, checker, probe, harness, setup_times):
    """Closed loop over chunks until ``seconds`` of wall time have passed.

    The set-up samples are spread over the run, between chunks, so they
    meet the same machine conditions as the chunks do. The calibration
    kernel runs between any two of these, so every chunk pass and set-up
    sample has a calibration time taken just before and just after it.
    """
    w = WORKLOADS[workload]
    expected = len(w.points) * w.trials
    # One untimed trial first, so lazy set-up in numpy and cfpilot is done
    # before timing starts. Its output is checked like every other trial's.
    checker.start_chunk(0, 1)
    with tracing.instrumented(probe, False):
        cfg = harness.figure_config(w.figure, **workload_overrides(workload, seed, 0))
        try:
            harness.run_trial(cfg, w.points[0], 0)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            checker.chunk_raised(1)
    calibration_s()
    last_cal = calibration_s()

    def calibrated():
        nonlocal last_cal
        cal = calibration_s()
        mean, last_cal = (last_cal + cal) / 2, cal
        return mean

    def add_setup():
        raw = measure_setup(workload, seed)
        setup_times.append((raw, calibrated()))

    passes = []
    start = tracing.clock()
    index = 0
    while index == 0 or tracing.clock() - start < seconds:
        if (len(setup_times) < SETUP_REPEATS
                and tracing.clock() - start >= len(setup_times) * seconds / SETUP_REPEATS):
            add_setup()
        chunk = index % w.cycle
        cfg = harness.figure_config(w.figure, **workload_overrides(workload, seed, chunk))
        modes = (False,) if not trace else ((False, True) if index % 2 == 0 else (True, False))
        for traced in modes:
            checker.start_chunk(chunk, expected)
            with tracing.instrumented(probe, traced):
                t0 = tracing.clock()
                try:
                    harness.run_sweep(cfg)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    checker.chunk_raised(expected)
                wall = tracing.clock() - t0
            passes.append(Pass(chunk, traced, len(checker.trial_s), checker.links, wall,
                               checker.trial_s, checker.trial_keys, calibrated()))
        index += 1
    while len(setup_times) < SETUP_REPEATS:
        add_setup()
    return passes


def end_to_end_metrics(workload, passes, setup_times, notes):
    """End-to-end metrics, every host time scaled to the reference speed.

    Each chunk pass's wall and trial times are multiplied by the speed
    scale measured around that pass, and each set-up sample by the scale
    measured around it. The notes keep the unscaled figures.

    The trial-time percentiles are taken over the distinct trials of the
    run, each timed as the median of its repetitions: every trial runs the
    same work each time its chunk comes round, so the median drops the
    bursts in which the host ran slow, and the percentiles rank trials by
    the work they do.
    """
    w = WORKLOADS[workload]
    repeats = {}
    for p in passes:
        for key, s in zip(p.trial_keys, p.trial_s):
            repeats.setdefault((p.chunk,) + key, []).append(1000.0 * s * p.speed_scale)
    trial_ms = [statistics.median(times) for times in repeats.values()]
    n_trials = sum(p.trials for p in passes)
    per_trial = (f"{len(trial_ms)} distinct trials, each the median of its "
                 f"{n_trials / len(trial_ms):.1f} repetitions on average")
    notes["trial_ms_p50"] = f"median of {per_trial}"
    tail = percentile(trial_ms, w.tail_pct)
    beyond = sum(1 for v in trial_ms if v > tail)
    notes["trial_ms_tail"] = f"p{w.tail_pct} of {per_trial}; {beyond} beyond it"
    if w.workers > 1:
        for key in ("trial_ms_p50", "trial_ms_tail"):
            notes[key] += ", timed inside the pool workers"
    host_wall = sum(p.wall_s for p in passes)
    wall = sum(p.wall_s * p.speed_scale for p in passes)
    links = sum(p.links for p in passes)
    notes["trials_per_s"] = (f"{n_trials} trials in {len(passes)} chunks, {wall:.1f} s at "
                             f"reference speed; {n_trials / host_wall:.4g} trials/s over "
                             f"{host_wall:.1f} s of unscaled wall time")
    notes["links_per_s"] = (f"{links} links; {links / host_wall:.4g} links/s "
                            "over unscaled wall time")
    host_setup = statistics.median(raw for raw, _ in setup_times)
    notes["setup_s"] = (f"median of {len(setup_times)} fresh processes; "
                        f"unscaled median {host_setup:.4g} s")
    return {
        "trials_per_s": (n_trials / wall, "trials/s"),
        "links_per_s": (links / wall, "links/s"),
        "trial_ms_p50": (statistics.median(trial_ms), "ms"),
        "trial_ms_tail": (tail, "ms"),
        "setup_s": (statistics.median(raw * CALIBRATION_REF_S / cal
                                      for raw, cal in setup_times), "s"),
        "peak_rss_mb": (peak_rss_mib(), "MiB"),
    }


def pool_start_gaps(names, starts, ends):
    """Per sweep point: time from the point's dispatch to its first trial start.

    A point is dispatched when ``run_sweep`` starts (first point) or when the
    previous point's last ``nmse_aggregate`` returns. With a pool, the gap
    holds the pool's start and the first task's hand-off to a worker.
    """
    sweep, trial, agg = (tracing.SPAN_ID[n] for n in
                         ("harness.run_sweep", "harness.run_trial", "analytics.nmse_aggregate"))
    events = sorted([(starts[i], 0) for i in range(len(names)) if names[i] == sweep]
                    + [(ends[i], 0) for i in range(len(names)) if names[i] == agg]
                    + [(starts[i], 1) for i in range(len(names)) if names[i] == trial])
    gaps, mark = [], None
    for t, is_trial in events:
        if not is_trial:
            mark = t
        elif mark is not None:
            gaps.append(t - mark)
            mark = None
    return gaps


def layer_metrics(workload, passes, probe):
    w = WORKLOADS[workload]
    names, parents, trials, starts, ends, self_s = probe.span_table()
    dur = ends - starts
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    n_trials = sum(p.trials for p in traced)
    n_points = len(traced) * len(w.points)
    links = sum(p.links for p in traced)
    in_trial = trials >= 0

    def spans(name):
        return names == tracing.SPAN_ID[name]

    def per_trial(name):
        return float(dur[spans(name)].sum()) / n_trials

    def calls(name):
        return int(spans(name).sum()) / n_trials

    layer_of = np.array([tracing.LAYERS.index(n.split(".")[0]) for n in tracing.SPAN_NAMES])
    layer_self = np.bincount(layer_of[names[in_trial]], weights=self_s[in_trial],
                             minlength=len(tracing.LAYERS)) / n_trials
    trial_dur = dur[spans("harness.run_trial")]
    # Both lists cover the same chunks: each chunk ran once untraced, once traced.
    untraced_rate = sum(p.trials for p in untraced) / sum(p.wall_s for p in untraced)
    traced_rate = n_trials / sum(p.wall_s for p in traced)
    gaps = pool_start_gaps(names, starts, ends)
    metrics = {
        "geometry.sample_topology.s_per_trial": (per_trial("geometry.sample_topology"), "s"),
        "channel.draw.s_per_trial": (per_trial("channel.draw_link_gains")
                                     + per_trial("channel.draw_channels"), "s"),
        "pilots.make_pilot_book.s_per_trial": (per_trial("pilots.make_pilot_book"), "s"),
        "pilots.assign_maxmin_distance.s_per_trial":
            (per_trial("pilots.assign_maxmin_distance"), "s"),
        "pilots.assign_maxmin_distance.calls_per_trial":
            (calls("pilots.assign_maxmin_distance"), "count"),
        "airframe.synthesize_frame.s_per_trial": (per_trial("airframe.synthesize_frame"), "s"),
        "airframe.frame_samples_per_trial": (probe.frame_samples / n_trials, "count"),
        "airframe.retained_mb_per_trial": (probe.frame_bytes / n_trials / 2**20, "MiB"),
        "estimator.estimate_trial_links.s_per_trial":
            (per_trial("estimator.estimate_trial_links"), "s"),
        "estimator.links_per_trial": (links / n_trials, "count"),
        "estimator.us_per_link":
            (1e6 * float(dur[spans("estimator.estimate_trial_links")].sum()) / links, "us"),
        "analytics.interference_profile.calls_per_trial":
            (calls("analytics.interference_profile"), "count"),
        "analytics.interference_profile.s_per_trial":
            (per_trial("analytics.interference_profile"), "s"),
        "analytics.conjugate_bf_rate.s_per_trial": (per_trial("analytics.conjugate_bf_rate"), "s"),
        "analytics.nmse_aggregate.s_per_point":
            (float(dur[spans("analytics.nmse_aggregate")].sum()) / n_points, "s"),
        "harness.run_trial.s_per_trial": (float(trial_dur.sum()) / n_trials, "s"),
        "harness.run_trial.self_s_per_trial": (float(layer_self[-1]), "s"),
        "harness.pools_started": (probe.pools_started / len(traced), "count"),
        "harness.pool_start_s": (float(statistics.mean(gaps)), "s"),
        "harness.worker_busy_share": (float(trial_dur.sum())
                                      / (sum(p.wall_s for p in traced) * w.workers), "ratio"),
        "harness.worker_trial_ms_p50": (1000.0 * float(np.median(trial_dur)), "ms"),
        "trace.overhead_ratio": (traced_rate / untraced_rate, "ratio"),
    }
    for layer, value in zip(tracing.LAYERS[:-1], layer_self[:-1]):
        metrics[f"{layer}.self_s_per_trial"] = (float(value), "s")
    return metrics


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return None


def source_digest():
    """SHA-256 over src/cfpilot/*.py, identifying the code in a non-git checkout."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "cfpilot")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def blas_info():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return None


def manifest(args, cfg, passes, checker, refs, setup_times):
    return {
        "workload": args.workload,
        "why": WORKLOADS[args.workload].why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": nproc(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "workload_config": asdict(WORKLOADS[args.workload]),
        "first_chunk_config": asdict(cfg),
        "chunk_seeds": [chunk_seed(args.seed, c) for c in range(WORKLOADS[args.workload].cycle)],
        "check": "references" if refs is not None else "invariants only",
        "chunks_run": len(passes),
        "trials_run": sum(p.trials for p in passes),
        "calibration_ref_s": CALIBRATION_REF_S,
        "passes": [{"chunk": p.chunk, "traced": p.traced, "trials": p.trials,
                    "links": p.links, "wall_s": p.wall_s, "trial_s": p.trial_s,
                    "trial_keys": p.trial_keys, "calibration_s": p.cal_s}
                   for p in passes],
        "trials_attempted": checker.attempted,
        "trials_failed": checker.failed,
        "errors": checker.errors[:20],
        "setup_times_s": [raw for raw, _ in setup_times],
        "setup_calibration_s": [cal for _, cal in setup_times],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    import_cfpilot()
    from cfpilot import harness

    refs = load_references(args.workload, args.seed)
    checker = Checker(refs)
    probe = tracing.Probe(checker.on_trial)
    setup_times = []
    passes = run_passes(args.workload, args.seed, args.seconds, args.trace, checker, probe,
                        harness, setup_times)
    untraced = [p for p in passes if not p.traced]

    notes = {}
    if args.trace:
        metrics = layer_metrics(args.workload, passes, probe)
    else:
        metrics = end_to_end_metrics(args.workload, untraced, setup_times, notes)

    w = WORKLOADS[args.workload]
    cfg = harness.figure_config(w.figure, **workload_overrides(args.workload, args.seed, 0))
    record = manifest(args, cfg, passes, checker, refs, setup_times)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["notes"] = notes
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        names, parents, trials, starts, ends, _ = probe.span_table()
        np.savez_compressed(stem + ".spans.npz", names=names, parents=parents, trials=trials,
                            starts=starts, ends=ends, span_names=np.array(tracing.SPAN_NAMES))

    checked = ("recorded references" if refs is not None
               else "invariants only (no reference for this seed)")
    print(f"workload {args.workload} seed {args.seed}: {record['trials_run']} trials in "
          f"{len(passes)} chunk passes; outputs checked against {checked}")
    print(f"failed_fraction = {checker.failed}/{checker.attempted} trials attempted "
          f"= {checker.failed / checker.attempted:.6g}")
    for err in checker.errors[:5]:
        print(f"  FAILED {err}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value!r} {unit}{note}")
    print(f"manifest: {os.path.relpath(stem + '.json', ROOT)}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
