"""Timing cfpilot from outside the library.

For the length of one pass the benchmark replaces module attributes that
cfpilot looks up at call time (``harness.run_trial``,
``harness.sample_topology``, ``analytics.interference_profile``, ...) with
wrappers, and puts the original functions back afterwards. Nothing under
``src/cfpilot`` is edited.

Two things are always instrumented: ``harness.run_trial``, so every trial's
output and host time reach the benchmark's checker, and
``harness.ProcessPoolExecutor``, so trials that run in pool workers report
back the same way. With tracing on, every name in ``SPANS`` also records a
span (name, start, end, parent span, trial id). Spans stay in memory, in
flat arrays, until the run ends. Pool workers send theirs back with each
trial's result.
"""

import importlib
import time
from array import array
from concurrent import futures
from contextlib import contextmanager

import numpy as np

# CLOCK_MONOTONIC on Linux, so a worker's readings and the parent's share
# one time base.
clock = time.perf_counter

# (module, attribute, span name). The layer is the span name's prefix.
SPANS = (
    ("cfpilot.harness", "run_sweep", "harness.run_sweep"),
    ("cfpilot.harness", "run_trial", "harness.run_trial"),
    ("cfpilot.harness", "sample_topology", "geometry.sample_topology"),
    ("cfpilot.harness", "synchronize", "geometry.synchronize"),
    ("cfpilot.harness", "delay_spread_min_extension", "geometry.delay_spread_min_extension"),
    ("cfpilot.harness", "draw_link_gains", "channel.draw_link_gains"),
    ("cfpilot.harness", "draw_channels", "channel.draw_channels"),
    ("cfpilot.harness", "make_pilot_book", "pilots.make_pilot_book"),
    ("cfpilot.pilots", "assign_maxmin_distance", "pilots.assign_maxmin_distance"),
    ("cfpilot.estimator", "make_mf_sequence", "pilots.make_mf_sequence"),
    ("cfpilot.harness", "synthesize_frame", "airframe.synthesize_frame"),
    ("cfpilot.harness", "estimate_trial_links", "estimator.estimate_trial_links"),
    ("cfpilot.analytics", "pilot_matrix", "analytics.pilot_matrix"),
    ("cfpilot.analytics", "interference_profile", "analytics.interference_profile"),
    ("cfpilot.analytics", "overhead_factor", "analytics.overhead_factor"),
    ("cfpilot.analytics", "conjugate_bf_rate", "analytics.conjugate_bf_rate"),
    ("cfpilot.analytics", "nmse_aggregate", "analytics.nmse_aggregate"),
)
SPAN_NAMES = tuple(name for _, _, name in SPANS)
SPAN_ID = {name: i for i, name in enumerate(SPAN_NAMES)}
LAYERS = ("geometry", "channel", "pilots", "airframe", "estimator", "analytics", "harness")

# Every (module, attribute) an instrumented pass replaces.
WRAPPED = tuple(dict.fromkeys(
    [(mod, attr) for mod, attr, _ in SPANS] + [("cfpilot.harness", "ProcessPoolExecutor")]))

_active = None  # the Probe whose wrappers are installed in this process


class Probe:
    """Collects one run's trial reports and, when tracing, its spans.

    ``on_trial(record, start, end)`` is called in the benchmark process for
    every trial that returns, whether it ran in-process or in a pool worker.
    """

    def __init__(self, on_trial):
        self.on_trial = on_trial
        self.tracing = False
        self.names = array("H")
        self.parents = array("q")
        self.trials = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.frame_samples = 0
        self.frame_bytes = 0
        self.pools_started = 0
        self._stack = [-1]
        self._trial = -1
        self._next_trial = 0

    # -- recording -------------------------------------------------------

    def _span(self, fn, name_id, after=None):
        def traced(*args, **kwargs):
            sid = len(self.starts)
            self.names.append(name_id)
            self.parents.append(self._stack[-1])
            self.trials.append(self._trial)
            self.ends.append(0.0)
            self._stack.append(sid)
            self.starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.ends[sid] = clock()
                self._stack.pop()
            if after is not None:
                after(out)
            return out
        return traced

    def _trial_wrapper(self, fn):
        def run_trial(*args, **kwargs):
            self._trial = self._next_trial
            self._next_trial += 1
            try:
                start = clock()
                record = fn(*args, **kwargs)
                end = clock()
            finally:
                self._trial = -1
            self.on_trial(record, start, end)
            return record
        return run_trial

    def _count_frame(self, frame):
        self.frame_samples += sum(y.size for y in frame.y)
        self.frame_bytes += sum(a.nbytes for part in (frame.y, frame.x_aug, frame.noise)
                                for a in (part or ()))

    def wrappers(self, originals):
        """Replacement for every name in ``WRAPPED``, given the originals."""
        out = dict(originals)
        if self.tracing:
            for mod, attr, name in SPANS:
                after = self._count_frame if name == "airframe.synthesize_frame" else None
                out[mod, attr] = self._span(originals[mod, attr], SPAN_ID[name], after)
        trial_key = ("cfpilot.harness", "run_trial")
        out[trial_key] = self._trial_wrapper(out[trial_key])
        out["cfpilot.harness", "ProcessPoolExecutor"] = _ReportingPool
        return out

    # -- pool workers ----------------------------------------------------

    def _reset_for_worker(self, trial_id, on_trial):
        tracing = self.tracing
        self.__init__(on_trial)
        self.tracing = tracing
        self._next_trial = trial_id

    def export(self):
        return (self.names.tobytes(), self.parents.tobytes(), self.trials.tobytes(),
                self.starts.tobytes(), self.ends.tobytes(),
                self.frame_samples, self.frame_bytes)

    def absorb(self, exported):
        names, parents, trials, starts, ends, samples, nbytes = exported
        offset = len(self.starts)
        parents = np.frombuffer(parents, dtype=np.int64)
        self.parents.extend(np.where(parents >= 0, parents + offset, -1).tolist())
        self.names.frombytes(names)
        self.trials.frombytes(trials)
        self.starts.frombytes(starts)
        self.ends.frombytes(ends)
        self.frame_samples += samples
        self.frame_bytes += nbytes

    def take_trial_ids(self, count):
        first = self._next_trial
        self._next_trial += count
        return range(first, first + count)

    # -- summaries -------------------------------------------------------

    def span_table(self):
        """Arrays (name id, parent, trial, start, end, self time) of all spans."""
        names = np.frombuffer(self.names, dtype=np.uint16).astype(np.int64)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        trials = np.frombuffer(self.trials, dtype=np.int64)
        starts = np.frombuffer(self.starts, dtype=np.float64)
        ends = np.frombuffer(self.ends, dtype=np.float64)
        dur = ends - starts
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=dur.size)
        return names, parents, trials, starts, ends, dur - child


def _worker_call(call):
    """Run one pool task in a worker; return its result, timing and spans.

    With the fork start method the worker inherits the parent's wrappers and
    Probe; otherwise the wrappers are installed here on first use.
    """
    fn, args, trial_id, tracing = call
    if _active is None:
        _install(Probe(None), tracing)
    done = []
    _active._reset_for_worker(trial_id, lambda record, start, end: done.append((start, end)))
    result = fn(*args)
    return result, done, _active.export()


class _ReportingPool(futures.ProcessPoolExecutor):
    """ProcessPoolExecutor whose tasks report trials and spans to the Probe."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if _active.tracing:
            _active.pools_started += 1

    def map(self, fn, *iterables, **kwargs):
        probe = _active
        tasks = list(zip(*iterables))
        ids = probe.take_trial_ids(len(tasks))
        calls = [(fn, args, tid, probe.tracing) for args, tid in zip(tasks, ids)]
        for result, done, exported in super().map(_worker_call, calls, **kwargs):
            probe.absorb(exported)
            for start, end in done:
                probe.on_trial(result, start, end)
            yield result


def _install(probe, tracing):
    global _active
    probe.tracing = tracing
    originals = {(mod, attr): getattr(importlib.import_module(mod), attr)
                 for mod, attr in WRAPPED}
    for (mod, attr), fn in probe.wrappers(originals).items():
        setattr(importlib.import_module(mod), attr, fn)
    _active = probe
    return originals


@contextmanager
def instrumented(probe, tracing):
    """Install the probe's wrappers for one pass; restore the originals after."""
    global _active
    originals = _install(probe, tracing)
    try:
        yield probe
    finally:
        for (mod, attr), fn in originals.items():
            setattr(importlib.import_module(mod), attr, fn)
        _active = None
