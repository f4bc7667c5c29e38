import collections
import csv
import ctypes
import gc
import hashlib
import json
import math
import multiprocessing
import os
import pathlib
import subprocess
import sys
import threading
import types
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, replace

import numpy as np
import per_link
import pytest
from oracles import full_frames, trial_frames

from cfpilot import airframe, analytics, cli, estimator, harness
from cfpilot.airframe import ReceivedFrame, read_frame_dump, synthesize_frame
from cfpilot.analytics import find_crossover
from cfpilot.channel import dbm_to_watts
from cfpilot.estimator import LinkEstimates, estimate_trial_links
from cfpilot.harness import (
    CSV_COLUMNS,
    ConfigError,
    DESK_AREA_KM2,
    ExperimentConfig,
    FULL_SCALE_AREA_KM2,
    SIGMA_SH_DB_MAX,
    build_config,
    config_fields,
    crosscorr_rows,
    desk_scale_overrides,
    dump_frame,
    figure_config,
    parse_config_file,
    parse_curve,
    run_sweep,
    run_trial,
    write_rows,
)
from cfpilot.pilots import BookSetup

DESK = dict(side_m=316.2277660168379, ap_count=10, ue_mean=14.0)


def small_cfg(**kw):
    base = dict(DESK, trials=3, seed=9, tau_p=8, sweep_values=(-4.0, 20.0),
                curves=("dft:upg", "dft_ext:upg", "sync"))
    base.update(kw)
    return build_config(**base)


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# comment\n"
        "area.side_m = 316.2277660168379\n"
        "area.ap_count = 10\n"
        "area.ue_mean = 14\n"
        "sys.bw_hz = 20e6\n"
        "cluster.size = 4\n"
        "seed = 7\n"
        "pilot.tau_p = 16\n"
        "pilot.tau_ex = auto_min\n"
        "run.curves = [dft:upg, sync]\n"
        "sweep.variable = p_dbm\n"
        "sweep.values = [-4, 20]\n"
        "run.trials = 2\n"
        "out.format = jsonl\n")
    cfg = build_config(**config_fields(parse_config_file(path).items()))
    assert cfg.seed == 7
    assert cfg.tau_p == 16
    assert cfg.tau_ex == "auto_min"
    assert cfg.curves == ("dft:upg", "sync")
    assert cfg.sweep_variable == "p_dbm"
    assert cfg.sweep_values == (-4.0, 20.0)
    assert cfg.out_format == "jsonl"


def test_config_unknown_key_named(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("area.sidem = 100\n")
    with pytest.raises(ConfigError, match="area.sidem"):
        parse_config_file(path)


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="trials"):
        build_config(trials=0)
    with pytest.raises(ConfigError, match="curves"):
        build_config(curves=("zadoff:upg",))
    with pytest.raises(ConfigError, match="regime"):
        build_config(curves=("dft:guard",))
    with pytest.raises(ConfigError, match="tau_ex"):
        build_config(tau_ex="min")
    with pytest.raises(ConfigError, match="format"):
        build_config(out_format="parquet")
    with pytest.raises(ConfigError):
        build_config(sweep_variable="bandwidth")


def test_single_curve_shorthand():
    # curves are set by run.curves only; the old shorthand keys are unknown
    for key in ("pilot.scheme", "frame.regime"):
        with pytest.raises(ConfigError, match=key):
            build_config(**config_fields([(key, "dft")]))
    assert parse_curve("sync") == ("sync", "upg")


def test_run_trial_record_shapes():
    cfg = small_cfg()
    record = run_trial(cfg, 20.0, 0)
    assert record.trial == 0 and record.sweep_value == 20.0
    assert set(record.curves) == set(cfg.curves)
    rec = record.curves["dft:upg"]
    assert rec["nmse"].shape == rec["ap"].shape
    assert rec["tau_ex"] == 0
    assert record.curves["dft_ext:upg"]["tau_ex"] >= 0
    # sync curve resolves its extension on the synchronized network: 0 spread
    assert record.curves["sync"]["tau_ex"] == 0


def test_paired_draws_across_curves():
    # curves of one trial share the network and fading: the sync curve's
    # nmse differs from async only through delays, not through topology
    cfg = small_cfg(curves=("dft:upg", "dft:upng"))
    out = run_trial(cfg, 20.0, 1).curves
    a, b = out["dft:upg"], out["dft:upng"]
    np.testing.assert_array_equal(a["ap"], b["ap"])
    np.testing.assert_array_equal(a["ue"], b["ue"])


def test_sweep_rows_and_schema():
    cfg = small_cfg(trials=2)
    res = run_sweep(cfg)
    assert len(res.rows) == len(cfg.sweep_values) * len(cfg.curves)
    for row in res.rows:
        assert tuple(row) == tuple(CSV_COLUMNS)
    schemes = {r["scheme"] for r in res.rows}
    assert schemes == {"dft", "dft_ext", "sync"}
    assert all(r["tau_ex"] == "auto_min" for r in res.rows if r["scheme"] == "dft_ext")
    assert all(r["tau_ex"] == 0 for r in res.rows if r["scheme"] == "dft")


def test_outputs_byte_identical_and_worker_independent(tmp_path):
    cfg = small_cfg(trials=2)
    res1 = run_sweep(cfg)
    res2 = run_sweep(cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_rows(res1.rows, p1, "csv")
    write_rows(res2.rows, p2, "csv")
    assert p1.read_bytes() == p2.read_bytes()
    cfg_workers = small_cfg(trials=2, workers=2)
    res3 = run_sweep(cfg_workers)
    p3 = tmp_path / "c.csv"
    write_rows(res3.rows, p3, "csv")
    assert p1.read_bytes() == p3.read_bytes()


def _blas_threads():
    """This process's OpenBLAS thread count, or None without a bundled OpenBLAS."""
    get = harness._openblas("get_num_threads", ctypes.c_int)
    return None if get is None else get()


def test_pool_workers_run_one_blas_thread(monkeypatch):
    # each worker's OpenBLAS would start a thread per core and oversubscribe
    # the host; the parent's setting is left alone
    parent = _blas_threads()
    if parent is None:
        pytest.skip("numpy bundles no OpenBLAS")
    reported = []

    class ReportingPool(ProcessPoolExecutor):
        def map(self, fn, *iterables, **kwargs):
            reported.append(self.submit(_blas_threads).result())
            return super().map(fn, *iterables, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", ReportingPool)
    run_sweep(small_cfg(trials=2, sweep_values=(20.0,), curves=("dft:upg",), workers=2))
    assert reported == [1]
    assert _blas_threads() == parent


def test_serial_sweep_runs_one_blas_thread(monkeypatch):
    # a serial sweep runs OpenBLAS on one thread, whose per-link products
    # a second thread does not speed up; the caller's count is back after
    # the sweep returns or raises
    caller = _blas_threads()
    if caller is None:
        pytest.skip("numpy bundles no OpenBLAS")
    seen, run = [], harness.run_trial

    def reporting(*args):
        seen.append(_blas_threads())
        return run(*args)

    monkeypatch.setattr(harness, "run_trial", reporting)
    run_sweep(small_cfg(trials=2, sweep_values=(20.0,), curves=("dft:upg",)))
    assert seen == [1, 1]
    assert _blas_threads() == caller

    def failing(*args):
        raise RuntimeError("trial failed")

    monkeypatch.setattr(harness, "run_trial", failing)
    with pytest.raises(RuntimeError, match="trial failed"):
        run_sweep(small_cfg(trials=2, sweep_values=(20.0,), curves=("dft:upg",)))
    assert _blas_threads() == caller


def _rows_bytes(result, path):
    write_rows(result.rows, path, "csv")
    write_rows(result.diag_rows, path.with_suffix(".diag"), "csv", columns=harness.DIAG_COLUMNS)
    return path.read_bytes(), path.with_suffix(".diag").read_bytes()


POWERS = dict(sweep_values=(-12.0, 4.0, 20.0))


@pytest.mark.parametrize("fig,overrides", [
    pytest.param("fig6", POWERS, id="fig6"),
    pytest.param("fig9", POWERS, id="fig9"),
    pytest.param("fig8", {}, id="fig8-tau_ex"),
    pytest.param("fig7", dict(sweep_variable="tau_p", sweep_values=(8.0, 12.0, 8.0)),
                 id="fig7-tau_p"),
    pytest.param("fig6", dict(POWERS, workers=2), id="fig6-workers2"),
])
def test_power_sweep_equals_each_point_alone(tmp_path, fig, overrides):
    # a sweep's points share each trial's draws; the rows and --diag rows are
    # those of every point run serially as its own one-value sweep, so no
    # point changed an array that a later point reads
    cfg = figure_config(fig, desk_scale=True, trials=3, **overrides)
    swept = _rows_bytes(run_sweep(cfg, diag=True), tmp_path / "swept.csv")
    alone = harness.SweepResult(rows=[], diag_rows=[])
    for value in cfg.sweep_values:
        point = run_sweep(replace(cfg, sweep_values=(value,), workers=1), diag=True)
        alone.rows += point.rows
        alone.diag_rows += point.diag_rows
    assert swept == _rows_bytes(alone, tmp_path / "alone.csv")


def test_pool_equals_serial_on_full_scale_power_sweep(tmp_path):
    cfg = figure_config("fig7", trials=2, sweep_values=(-4.0, 4.0, 20.0))
    serial = _rows_bytes(run_sweep(cfg, diag=True), tmp_path / "serial.csv")
    pooled = _rows_bytes(run_sweep(replace(cfg, workers=2), diag=True), tmp_path / "pool.csv")
    assert pooled == serial


def test_one_pool_per_sweep_trial_major(monkeypatch):
    # one pool runs the whole sweep; a trial's points are one task chunk,
    # so a worker runs them back to back on one draw
    maps = []

    class SpyPool(ProcessPoolExecutor):
        def map(self, fn, tasks, **kwargs):
            tasks = list(tasks)
            maps.append(([(value, trial) for _, value, trial, _ in tasks], kwargs))
            return super().map(fn, tasks, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", SpyPool)
    cfg = small_cfg(trials=2, sweep_values=(-4.0, 4.0, 20.0), curves=("dft:upg",), workers=2)
    run_sweep(cfg)
    assert maps == [([(-4.0, 0), (4.0, 0), (20.0, 0), (-4.0, 1), (4.0, 1), (20.0, 1)],
                     {"chunksize": 3})]


def test_pool_starts_no_more_processes_than_trials(monkeypatch):
    # a fork pool starts all its processes at its first task, and a sweep has
    # one task chunk per trial, so more workers than trials would only idle
    started = []

    def recording(*args, **kwargs):
        started.append(kwargs["max_workers"])
        return ProcessPoolExecutor(*args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", recording)
    cfg = figure_config("fig6", desk_scale=True, trials=2, sweep_values=(20.0,), workers=8)
    pooled = run_sweep(cfg).rows
    assert started == [2]
    assert pooled == run_sweep(replace(cfg, workers=1)).rows


# whether this process may run on more than one CPU, where a serial sweep's
# draw helper starts at its first fill above the threshold
MULTI_CPU = len(os.sched_getaffinity(0)) > 1


@pytest.fixture
def helper_fills(monkeypatch, tmp_path):
    """Log the size of every fill handed to the draw helper.

    Each fill appends a line to a file, so fills in pool workers forked from
    this process, which inherit the patch, are logged too.
    """
    log = tmp_path / "fills.log"

    class Logged(harness._Fill):
        def __init__(self, pool, rng, out):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{out.size}\n")
            super().__init__(pool, rng, out)

    monkeypatch.setattr(harness, "_Fill", Logged)
    return lambda: log.read_text(encoding="utf-8").split() if log.exists() else []


@pytest.mark.draw_helper
@pytest.mark.parametrize("fig,overrides,fills", [
    # random books draw from the transmit stream before the frame's noise
    pytest.param("fig6", POWERS, None, id="fig6"),
    # the max-min assignment and the delay-free sync curve
    pytest.param("fig7", POWERS, None, id="fig7"),
    # the later point redraws dft_ext: per trial the fading and 2 + 1 frames
    pytest.param("fig8", dict(sweep_values=(0.0, 3.0)), 3 * 4, id="fig8-tau_ex"),
])
def test_draw_helper_changes_no_bits(tmp_path, monkeypatch, helper_fills, fig, overrides, fills):
    # every fill the helper draws is the stream's next normals, so the rows and
    # --diag rows are the bytes of a sweep that draws them all inline, and a
    # frame's recorded stream replays its dump-frame file byte for byte
    cfg = figure_config(fig, desk_scale=True, trials=3, **overrides)
    monkeypatch.setattr(harness, "DRAW_HELPER_MIN", math.inf)
    inline = _rows_bytes(run_sweep(cfg, diag=True), tmp_path / "inline.csv")
    assert helper_fills() == []
    monkeypatch.setattr(harness, "DRAW_HELPER_MIN", 0)
    built = []

    def capture(frame):
        built.append(frame)
        return estimator.link_setup(frame)

    monkeypatch.setattr(harness, "link_setup", capture)
    helped = _rows_bytes(run_sweep(cfg, diag=True), tmp_path / "helped.csv")
    assert helped == inline
    if MULTI_CPU:
        assert len(helper_fills()) == (fills or len(helper_fills())) > 0
    else:
        assert helper_fills() == []
    # the sweep's first frame is trial 0's first curve at the first point
    dump_frame(cfg, tmp_path / "f.bin", ap=1)
    assert (read_frame_dump(tmp_path / "f.bin").tobytes()
            == full_frames(built[0])[0][1].astype(np.complex64).tobytes())


@pytest.mark.draw_helper
@pytest.mark.parametrize("case", ["returns", "raises", "workers2", "one_cpu", "below_threshold"])
def test_draw_helper_lifecycle(monkeypatch, helper_fills, case):
    # the helper lives only inside a serial sweep: no thread is left and the
    # caller's OpenBLAS count is back when the sweep returns or raises; a pool,
    # a process on one CPU and fills below the threshold never start it
    if case == "workers2" and multiprocessing.get_start_method() != "fork":
        pytest.skip("pool workers see the logging patch only when forked")
    caller, threads = _blas_threads(), threading.enumerate()
    cfg = figure_config("fig7", desk_scale=True, trials=2, sweep_values=(20.0,))
    if case != "below_threshold":
        monkeypatch.setattr(harness, "DRAW_HELPER_MIN", 0)
    if case == "workers2":
        cfg = replace(cfg, workers=2)
    if case == "one_cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    if case == "raises":
        def failing(*args):
            # the first frame's noise fill is out, after the fading's
            assert len(helper_fills()) == 2 * MULTI_CPU
            raise RuntimeError("draw failed")

        monkeypatch.setattr(harness, "draw_channels", failing)
        with pytest.raises(RuntimeError, match="draw failed"):
            run_sweep(cfg)
    else:
        run_sweep(cfg)
    assert threading.enumerate() == threads
    assert _blas_threads() == caller
    started = case in ("returns", "raises") and MULTI_CPU
    assert bool(helper_fills()) == started


# Imports cfpilot and a desk config in a fresh interpreter, then runs the
# config's sweep serially and on a pool. Prints the modules the imports and the
# config added to those numpy loads, whether the two sweeps' rows are equal, and
# the stdlib modules loaded once a pool has run.
STARTUP_CODE = """
import sys
import numpy
before = set(sys.modules)
import cfpilot, cfpilot.cli
from cfpilot import harness
harness.figure_config("fig6", desk_scale=True)
added = sorted(set(sys.modules) - before)
rows = [harness.run_sweep(harness.figure_config("fig6", desk_scale=True, trials=2,
                                                workers=workers)).rows
        for workers in (1, 2)]
import json
print(json.dumps([added, rows[0] == rows[1], sorted(sys.modules)]))
"""
POOL_IMPORTS = ("concurrent.futures", "multiprocessing")


def test_fresh_import_defers_the_process_pool():
    # a fresh process that imports cfpilot and builds a config does not load
    # the process pool's modules, which only a sweep with workers > 1 uses; a
    # pooled sweep loads the pool on first use and gives the serial rows
    src = pathlib.Path(harness.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", STARTUP_CODE], capture_output=True, text=True,
                          timeout=300, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    added, same_rows, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert "cfpilot.cli" in added
    assert not set(POOL_IMPORTS) & set(added)
    assert same_rows
    assert "concurrent.futures" in loaded


@pytest.fixture
def draws_made(monkeypatch, tmp_path):
    """Count the networks, frames (by pilot scheme) and max-min assignments drawn.

    Each draw appends a line to a file, so pool workers forked from this
    process, which inherit the patches, are counted too.
    """
    log = tmp_path / "draws.log"

    def count(module, name, tag):
        draw = getattr(module, name)

        def counted(*args, **kwargs):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(tag(*args) + "\n")
            return draw(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(harness, "sample_topology", lambda *args: "net")
    count(harness, "synthesize_frame", lambda book, *args: f"frame {book.scheme}")
    count(harness.pilots, "assign_maxmin_distance", lambda pos, tau_p: f"maxmin {tau_p}")
    return lambda: collections.Counter(log.read_text(encoding="utf-8").splitlines())


def _live_draws():
    gc.collect()
    return [obj for obj in gc.get_objects() if isinstance(obj, harness.TrialDraws)]


@pytest.mark.parametrize("workers", (1, 2))
def test_power_sweep_draws_once_per_trial(draws_made, workers):
    if workers > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("pool workers see the counting patches only when forked")
    # 3 trials, 3 powers; curves dft:upg, dft_ext:upg and sync (a dft book)
    cfg = small_cfg(sweep_values=(-4.0, 4.0, 20.0), assignment="maxmin_distance",
                    workers=workers)
    run_sweep(cfg)
    assert draws_made() == {"net": 3, "maxmin 8": 3, "frame dft": 6, "frame dft_ext": 3}
    # the parent process keeps no draws once the sweep returns
    assert _live_draws() == []


def test_tau_ex_sweep_redraws_only_the_extended_curve(draws_made):
    cfg = figure_config("fig8", desk_scale=True, trials=3)  # dft_ext:upg and sync
    run_sweep(cfg)
    assert draws_made() == {"net": 3, "frame dft": 3, "frame dft_ext": 3 * 7}
    assert _live_draws() == []


def test_tau_p_sweep_draws_assignment_once_per_tau_p(draws_made):
    cfg = small_cfg(sweep_variable="tau_p", sweep_values=(8.0, 16.0, 8.0),
                    assignment="maxmin_distance")
    run_sweep(cfg)
    # a curve's frame reads tau_p, so the repeated 8 redraws it, but not the assignment
    assert draws_made() == {"net": 3, "maxmin 8": 3, "maxmin 16": 3,
                            "frame dft": 2 * 3 * 3, "frame dft_ext": 3 * 3}
    assert _live_draws() == []


def _kept_records(draws):
    """The frames, link estimates and book setups reachable from ``draws`` through its data."""
    seen, stack, kept = set(), [draws], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, (ReceivedFrame, LinkEstimates, BookSetup)):
            kept.append(obj)
        stack += gc.get_referents(obj)
    return kept


def _assert_frames_hold_no_arrays(kept, curves):
    frames = [r for r in kept if isinstance(r, ReceivedFrame)]
    assert len(frames) == curves
    assert all(f.y is None and f.noise is None for f in frames)


def test_one_point_sweep_keeps_no_curve_record():
    # no later point reads the frames or estimates of a one-point sweep, so
    # its draws keep the network and fading but drop each curve's record;
    # dft:upg and dft:upng share a book setup, which no later point reads
    curves = ("dft:upg", "dft:upng", "sync")
    cfg = small_cfg(sweep_values=(20.0,), curves=curves)
    draws = harness.TrialDraws(cfg, 0)
    run_trial(cfg, 20.0, 0, draws)
    assert "channel" in vars(draws)
    assert _kept_records(draws) == []
    # a multi-point power sweep keeps one record until its last point: the
    # curves' power-free links stacked, and still no book setup; no later power
    # redraws a curve, so no curve's own block is kept; the frames are kept
    # without their signal and noise, which the stack holds
    cfg = small_cfg(sweep_values=(-4.0, 20.0), curves=curves)
    draws = harness.TrialDraws(cfg, 0)
    run_trial(cfg, -4.0, 0, draws)
    kept = _kept_records(draws)
    assert len([r for r in kept if isinstance(r, LinkEstimates)]) == 1
    assert not any(isinstance(r, BookSetup) for r in kept)
    _assert_frames_hold_no_arrays(kept, len(curves))
    run_trial(cfg, 20.0, 0, draws)
    assert _kept_records(draws) == []
    # a tau_ex sweep (desk fig8) redraws dft_ext and keeps sync, so its record
    # also keeps each curve's block to restack
    cfg = figure_config("fig8", desk_scale=True, trials=1, sweep_values=(0, 3))
    draws = harness.TrialDraws(cfg, 0)
    run_trial(cfg, 0, 0, draws)
    kept = _kept_records(draws)
    assert len([r for r in kept if isinstance(r, LinkEstimates)]) == len(cfg.curves) + 1
    assert not any(isinstance(r, BookSetup) for r in kept)
    _assert_frames_hold_no_arrays(kept, len(cfg.curves))
    run_trial(cfg, 3, 0, draws)
    assert _kept_records(draws) == []


def test_trial_frames_share_one_served_channel():
    # every frame of a trial serves the same links, the synchronized network's
    # too, so their blocks share one gather of the served links' channel
    cfg = figure_config("fig7", desk_scale=True, trials=1)
    draws = harness.TrialDraws(cfg, 0)
    pc = harness.point_config(cfg, 20.0)
    blocks = [estimator.link_setup(draws.frame(pc, ci)) for ci in range(len(cfg.curves))]
    first = blocks[0].setup
    assert all(b.setup.h is first.h and b.setup.sq_h is first.sq_h for b in blocks)
    chan = draws.channel[1]
    assert first.h.tobytes() == chan.h[blocks[0].ap, blocks[0].ue].tobytes()


def test_no_reference_cycle_keeps_a_book_alive(monkeypatch):
    # with the cyclic collector off, reference counting alone frees every
    # curve's book setup and its matched-filter part once run_trial at the
    # sweep's last point returns: nothing the draws or the record keep points
    # to them, and no cycle holds them
    refs = []

    def spy(*args, **kwargs):
        frame = synthesize_frame(*args, **kwargs)
        refs.append((weakref.ref(frame.setup), weakref.ref(frame.setup.links)))
        return frame

    monkeypatch.setattr(harness, "synthesize_frame", spy)
    cfg = small_cfg(sweep_values=(-4.0, 20.0),
                    curves=("random:upng", "dft:upg", "dft:upng", "dft_ext:upng", "sync"))
    draws = harness.TrialDraws(cfg, 0)
    gc.collect()
    gc.disable()
    try:
        for value in cfg.sweep_values:
            record = run_trial(cfg, value, 0, draws)
        assert len(refs) == 5 and record.curves
        assert all(ref() is None for pair in refs for ref in pair)
    finally:
        gc.enable()


def _unshared(cfg, curve):
    """``cfg`` with every curve but ``curve`` whose book could be shared swapped to
    random:upg: no book setup is shared, and every curve keeps its stream index."""
    return replace(cfg, curves=tuple(c if c == curve or parse_curve(c)[0] == "random"
                                     else "random:upg" for c in cfg.curves))


RECORD_FIELDS = ("nmse", "se", "tau_ex", "ap", "ue", "desired_power", "interference_power",
                 "noise_power")


@pytest.mark.parametrize("desk,curves", [
    pytest.param(True, None, id="fig7-desk"),
    pytest.param(False, None, id="fig7-full"),
    # the UPNG frame makes the setup; the UPG frame must still send the pilot rows alone
    pytest.param(True, ("dft:upng", "dft:upg", "sync"), id="upng-first-desk"),
])
def test_shared_book_setup_gives_unshared_records(desk, curves):
    # dft:upg and dft:upng share one book setup per point; every curve's
    # record is the one it gets when no other curve shares its book
    cfg = figure_config("fig7", desk_scale=desk, trials=1, sweep_values=(20.0,),
                        **({"curves": curves} if curves else {}))
    shared = run_trial(cfg, 20.0, 0).curves
    for curve in cfg.curves:
        alone = run_trial(_unshared(cfg, curve), 20.0, 0).curves[curve]
        for key in RECORD_FIELDS:
            assert np.array_equal(shared[curve][key], alone[key]), (curve, key)


def test_fig7_trial_builds_one_setup_per_book(monkeypatch):
    # fig7's four curves read three books: dft (upg and upng), dft_ext and
    # dft on the synchronized network; each book's setup, MF windows and
    # pilot book are built once, and the estimator builds no setup
    calls = collections.Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(harness, "make_pilot_book")
    count(estimator, "make_mf_sequence")
    count(airframe, "book_setup")
    cfg = figure_config("fig7", desk_scale=True, trials=1, sweep_values=(20.0,))
    run_trial(cfg, 20.0, 0)
    assert calls == {"make_pilot_book": 3, "make_mf_sequence": 3, "book_setup": 3}


@pytest.mark.blas_kernel
@pytest.mark.parametrize("powers", [(-12.0, 20.0), (20.0, -36.0)], ids=["up", "down"])
@pytest.mark.parametrize("fig", ["fig6", "fig7", "fig9"])
def test_later_power_equals_fresh_evaluation(fig, powers):
    # a second power reached through the trial's record (its frames, its
    # links' power-free fields and the rate bound's operands) gives the bits
    # of the same draws evaluated at that power alone
    cfg = figure_config(fig, desk_scale=True, trials=2, seed=3, sweep_values=powers)
    first, later = (harness.point_config(cfg, value) for value in powers)
    for trial in range(cfg.trials):
        swept, fresh = harness.TrialDraws(cfg, trial), harness.TrialDraws(cfg, trial)
        swept.point(first)
        _, got, got_rate = swept.point(later)
        _, want, want_rate = fresh.point(later)
        assert np.array_equal(got_rate.se_per_ue, want_rate.se_per_ue), fig
        assert np.array_equal(got_rate.sinr_per_ue, want_rate.sinr_per_ue), fig
        for f in fields(LinkEstimates):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if f.name == "setup":
                for g in fields(a):
                    assert np.array_equal(getattr(a, g.name), getattr(b, g.name)), g.name
            else:
                assert np.array_equal(a, b), f.name


@pytest.mark.blas_kernel
@pytest.mark.parametrize("fig", ["fig6", "fig7", "fig9"])
def test_rate_bound_reads_a_stack_of_curves(fig):
    # the stack estimate_trial_links(*frames) returns carries its rate inputs:
    # the seven-argument rate bound on it, and the one given its operands,
    # give the bits of the point's stacked pass
    cfg = figure_config(fig, desk_scale=True, trials=3, sweep_values=(20.0,))
    for trial in range(cfg.trials):
        frames = [frame for _, frame in trial_frames(cfg, 20.0, trial)]
        _, _, want = harness.TrialDraws(cfg, trial).point(harness.point_config(cfg, 20.0))
        links = estimate_trial_links(*frames)
        overhead = np.array([analytics.overhead_factor(cfg.tau_c, f.book.tau_p, f.book.tau_ex)
                             for f in frames])
        args = (frames[0].net, frames[0].chan.gains, links, frames[0].p_ul, cfg.noise_w,
                cfg.antennas, overhead)
        for got in (analytics.conjugate_bf_rate(*args),
                    analytics.conjugate_bf_rate(*args, operands=analytics.rate_operands(
                        *args[:3]))):
            assert np.array_equal(got.se_per_ue, want.se_per_ue), (fig, trial)
            assert np.array_equal(got.sinr_per_ue, want.sinr_per_ue), (fig, trial)


@pytest.mark.blas_kernel
@pytest.mark.parametrize("fig,values,builds,stacks", [
    # five curves, each drawn once per trial
    pytest.param("fig6", (-12.0, 4.0, 20.0), 5, 1, id="fig6-values0-5"),
    # dft_ext redrawn at each tau_ex, sync drawn once
    pytest.param("fig8", (0, 3, 6), 4, 3, id="fig8-values1-4"),
])
def test_later_powers_build_power_free_operands_once(monkeypatch, fig, values, builds, stacks):
    # the estimator's power-free part is built once per curve draw and the
    # rate bound's operands once per point that draws a curve, not at every
    # sweep point
    calls = collections.Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(harness, "link_setup")
    count(analytics, "rate_operands")
    cfg = figure_config(fig, desk_scale=True, trials=2, seed=3, sweep_values=values)
    run_sweep(cfg)
    assert calls == {"link_setup": 2 * builds, "rate_operands": 2 * stacks}


def _curve_records(cfg, trial):
    """``{(sweep value, curve): record}`` of one trial's sweep, as ``run_sweep`` runs it."""
    draws = harness.TrialDraws(cfg, trial)
    return {(value, curve): rec for value in cfg.sweep_values
            for curve, rec in run_trial(cfg, value, trial, draws).curves.items()}


def _one_block_record(cfg, value, trial, ci):
    """Curve ``ci``'s record at ``value``, from its frame alone: one estimator block and
    one rate-bound block."""
    frame = harness.TrialDraws(cfg, trial).frame(harness.point_config(cfg, value), ci)
    links = estimate_trial_links(frame)
    overhead = analytics.overhead_factor(cfg.tau_c, frame.book.tau_p, frame.book.tau_ex)
    rate = analytics.conjugate_bf_rate(frame.net, frame.chan.gains, links, frame.p_ul,
                                       cfg.noise_w, cfg.antennas, overhead)
    return {"se": rate.se_per_ue, "tau_ex": frame.book.tau_ex,
            **{key: getattr(links, key) for key in RECORD_FIELDS if key not in ("se", "tau_ex")}}


@pytest.mark.blas_kernel
@pytest.mark.parametrize("fig,overrides,fewer", [
    # fig7's curves against its first two; the same indices keep the same streams
    pytest.param("fig7", {"sweep_values": (-12.0, 20.0)}, ("dft:upg", "dft:upng"),
                 id="fig7-desk"),
    pytest.param("fig8", {"tau_p": 8, "sweep_values": (0, 3)}, ("dft_ext:upg",),
                 id="fig8-desk-tau_p8"),
])
def test_curve_records_do_not_depend_on_other_curves(fig, overrides, fewer):
    # a curve's record is the same bits whether its point evaluates it stacked
    # with other curves, with fewer curves, or alone as one block, at a first
    # point and through the trial's record at a later one
    cfg = figure_config(fig, desk_scale=True, trials=3, seed=3, **overrides)
    alone = replace(cfg, curves=fewer)
    dropped = 0
    for trial in range(cfg.trials):
        stacked, single = _curve_records(cfg, trial), _curve_records(alone, trial)
        for (value, curve), rec in stacked.items():
            want = [_one_block_record(cfg, value, trial, cfg.curves.index(curve))]
            want += [single[value, curve]] if curve in fewer else []
            for other in want:
                for key in RECORD_FIELDS:
                    assert np.array_equal(rec[key], other[key]), (trial, value, curve, key)
        if fig == "fig8":
            # links with gamma = 0 carry no estimate and drop out of the rate bound
            _, links, _ = harness.TrialDraws(cfg, trial).point(harness.point_config(cfg, 0))
            n = links.ap.size // links.gamma.shape[0]
            dropped += int((links.gamma[:, links.ap[:n], links.ue[:n]] == 0).sum())
    assert fig != "fig8" or dropped > 0


def test_progress_reports_trials(capsys):
    run_sweep(small_cfg(trials=25, curves=("dft:upg",)), progress=True)
    lines = capsys.readouterr().err.splitlines()
    assert 2 <= len(lines) <= 10
    assert lines[-1].startswith("[cfpilot] 25/25 trials of 2 sweep point(s), ")
    assert all("trials/s, ETA " in line for line in lines)


def test_jsonl_output_matches_schema(tmp_path):
    cfg = small_cfg(trials=1, sweep_values=(20.0,), curves=("dft:upg",))
    res = run_sweep(cfg)
    path = tmp_path / "rows.jsonl"
    write_rows(res.rows, path, "jsonl")
    rec = json.loads(path.read_text().splitlines()[0])
    assert tuple(rec) == tuple(CSV_COLUMNS)


def test_diag_rows():
    cfg = small_cfg(trials=1, sweep_values=(20.0,), curves=("dft:upg",))
    res = run_sweep(cfg, diag=True)
    assert res.diag_rows
    row = res.diag_rows[0]
    assert tuple(row) == ("r", "u", "scheme", "regime", "nmse", "desired_power",
                          "interference_power", "noise_power")
    assert row["desired_power"] > 0


def test_desk_scale_preserves_densities():
    desk = desk_scale_overrides()
    full = build_config()
    assert desk["ap_count"] / DESK_AREA_KM2 == pytest.approx(
        full.ap_count / FULL_SCALE_AREA_KM2, rel=1e-12)
    assert desk["ue_mean"] / DESK_AREA_KM2 == pytest.approx(
        full.ue_mean / FULL_SCALE_AREA_KM2, rel=1e-12)
    assert (desk["side_m"] / 1000.0) ** 2 == pytest.approx(DESK_AREA_KM2, rel=1e-12)


def test_figure_presets():
    fig7 = figure_config("fig7", desk_scale=True)
    assert set(fig7.curves) == {"dft:upg", "dft:upng", "dft_ext:upg", "sync"}
    assert fig7.tau_ex == "auto_min"
    assert fig7.tau_p == 8  # keeps co-pilot UEs at the desk-scale UE count
    assert fig7.assignment == "maxmin_distance"
    fig6 = figure_config("fig6", desk_scale=True)
    assert fig6.tau_p == 32
    assert "random:upg" in fig6.curves
    fig8 = figure_config("fig8", desk_scale=True)
    assert fig8.sweep_variable == "tau_ex"
    assert fig8.sweep_values == tuple(range(7))
    assert fig8.p_dbm == 20.0
    fig9 = figure_config("fig9")
    assert "dft_ext:upng" in fig9.curves
    with pytest.raises(ConfigError):
        figure_config("fig4")


def test_fig3_preset_runs(tmp_path):
    rows = crosscorr_rows(seed=1, trials=200, tau_p_min=30, tau_p_max=47)
    assert find_crossover(rows) is not None
    write_rows(rows, tmp_path / "fig3.csv", "csv", columns=harness.CROSSCORR_COLUMNS)
    header = (tmp_path / "fig3.csv").read_text().splitlines()[0]
    assert header == "tau_p,random_mc,random_expected,dft_closed,delay"


def test_synchronous_baseline_matches_single_link_closed_form():
    # no co-pilot UEs: every sync link's expected NMSE is the scalar formula,
    # and the cross terms of fully overlapping DFT rows are exactly zero
    cfg = small_cfg(trials=1, tau_p=32, sweep_values=(20.0,), curves=("sync",))
    rec = run_trial(cfg, 20.0, 0).curves["sync"]
    (_, frame), = trial_frames(cfg, 20.0, 0)
    p = 0.1
    if frame.net.n_ues <= 32:
        for i in range(rec["nmse"].size):
            r, u = int(rec["ap"][i]), int(rec["ue"][i])
            assert rec["interference_power"][i] == 0.0
            ys = (rec["desired_power"][i] + rec["interference_power"][i]
                  + rec["noise_power"][i]) / cfg.antennas
            c = cfg.noise_w * 32 / p
            g = frame.chan.gains.gain[r, u]
            assert ys == pytest.approx(32**2 * g + c, rel=1e-12)
            assert 1 - (32 * g) ** 2 / (ys * g) == pytest.approx(
                c / (32**2 * g + c), rel=1e-9)


def test_synchronous_baseline_regime_invariant():
    cfg = small_cfg(trials=2, curves=("sync",))
    res1 = run_sweep(cfg)
    assert res1.rows[0]["scheme"] == "sync"
    # with all delays forced to zero there are no data tails, so UPG and
    # UPNG produce bit-identical frames and estimates
    (_, sync), = trial_frames(cfg, 20.0, 0)
    results = []
    for regime in ("upg", "upng"):
        frame = synthesize_frame(sync.book, sync.net, sync.chan, regime, sync.p_ul,
                                 np.random.default_rng(5))
        results.append(estimate_trial_links(frame).nmse)
    np.testing.assert_array_equal(results[0], results[1])


def test_dump_frame_roundtrip(tmp_path):
    cfg = small_cfg(curves=("dft:upg",))
    path = tmp_path / "frame.bin"
    frame = dump_frame(cfg, path, ap=2)
    back = read_frame_dump(path)
    y = full_frames(frame)[0][2]
    assert back.shape == y.shape
    np.testing.assert_allclose(back, y.astype(np.complex64))
    with pytest.raises(ConfigError):
        dump_frame(cfg, tmp_path / "x.bin", ap=99)


@pytest.mark.parametrize("variable,value", [("p_dbm", -4.0), ("tau_p", 8.0), ("tau_ex", 5.0)])
def test_dump_frame_is_run_trial_frame(tmp_path, monkeypatch, variable, value):
    # the dumped frame is the one run_trial estimates from for the first
    # sweep value, trial 0, curve 0: the sweep's power, pilot length or
    # extension, not the fixed config value; it is caught where its links are
    # set up, since the point keeps the frame's signal in the links only
    cfg = small_cfg(tau_p=32, curves=("dft_ext:upg", "dft:upg"),
                    sweep_variable=variable, sweep_values=(value, value + 1))
    built = []

    def capture(frame):
        built.append(frame)
        return estimator.link_setup(frame)

    monkeypatch.setattr(harness, "link_setup", capture)
    run_trial(cfg, value, 0)
    monkeypatch.undo()
    want = built[0]
    frame = dump_frame(cfg, tmp_path / "f.bin", ap=3)
    if variable == "p_dbm":
        assert frame.p_ul == want.p_ul == dbm_to_watts(value)
    else:
        assert getattr(want.book, variable) == int(value)
    assert (frame.book.tau_p, frame.book.tau_ex) == (want.book.tau_p, want.book.tau_ex)
    np.testing.assert_array_equal(frame.y[3], want.y[3])
    np.testing.assert_array_equal(read_frame_dump(tmp_path / "f.bin"),
                                  full_frames(want)[0][3].astype(np.complex64))


def _run_cli(*args):
    # the timeout turns a hang into a failure
    return subprocess.run([sys.executable, "-m", "cfpilot", *args],
                          capture_output=True, text=True, timeout=300)


def test_cli_sweep_and_exit_codes(tmp_path):
    out, diag = tmp_path / "rows.csv", tmp_path / "diag.csv"
    proc = _run_cli("sweep", "--set", "area.side_m=316.2277660168379",
                    "--set", "area.ap_count=10", "--set", "area.ue_mean=14",
                    "--set", "pilot.tau_p=8", "--set", "run.curves=[dft:upg]",
                    "--set", "sweep.values=[20]", "--trials", "1",
                    "--seed", "3", "--out", str(out), "--diag", str(diag))
    assert proc.returncode == 0, proc.stderr
    header = out.read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    assert diag.read_text().splitlines()[0] == ",".join(harness.DIAG_COLUMNS)


def test_cli_figure_set_overrides(tmp_path):
    # --set keys mean in `figure` what they mean in `sweep`
    out = tmp_path / "fig8.csv"
    proc = _run_cli("figure", "fig8", "--desk-scale", "--trials", "1",
                    "--set", "sweep.variable=p_dbm", "--set", "sweep.values=[0,3]",
                    "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["sweep_var"] for row in rows} == {"p_dbm"}
    assert sorted({float(row["sweep_value"]) for row in rows}) == [0.0, 3.0]
    bad = _run_cli("figure", "fig8", "--desk-scale", "--trials", "1",
                   "--set", "pilot.scheme=dft", "--out", str(tmp_path / "x.csv"))
    assert bad.returncode == 2
    assert "pilot.scheme" in bad.stderr


def test_cli_tau_p_sweep_values_rejected(tmp_path):
    for values in ("[8.7]", "[0]", "[-8]"):
        proc = _run_cli("sweep", "--set", "sweep.variable=tau_p",
                        "--set", f"sweep.values={values}",
                        "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2, (values, proc.stderr)
        assert "sweep.values" in proc.stderr


def _field_cases():
    """One refused value per single-key check that an ExperimentConfig field declares."""
    cases = []
    for f in fields(ExperimentConfig):
        key, bound, choices, high = (f.metadata[name]
                                     for name in ("key", "bound", "choices", "high"))
        if f.type is float:
            cases.append(([f"{key}=inf"], key))
        if bound:
            cases.append(([f"{key}={0 if bound == 'positive' else -1}"], key))
        if high is not None:
            cases.append(([f"{key}={high + 1}"], key))
        if choices:
            cases.append(([f"{key}=foo"], key))
    return cases


# and what the field table does not generate: the rules that span keys, UE
# placement, and other refused values of bounded keys
INVALID_CONFIGS = _field_cases() + [
    (["area.gamma_m=400"], "area.gamma_m"),  # no feasible UE placement
    (["area.gamma_m=500"], "area.gamma_m"),  # beyond half the side
    (["area.ue_mean=1e-9"], "area.ue_mean"),  # no UE in any Poisson draw
    (["sweep.variable=tau_ex", "sweep.values=[0,3]", "run.curves=[dft:upg]"],
     "sweep.variable"),
    (["run.curves=[dft_ext:upg]", "pilot.tau_ex=-3"], "pilot.tau_ex"),
    (["run.curves=[dft:upg]", "pilot.tau_ex=5"], "pilot.tau_ex"),  # would be ignored
    (["sweep.values=[nan]"], "sweep.values"),
    (["sweep.values=[inf]"], "sweep.values"),
    (["sweep.values=[4000]"], "sweep.values"),  # infinite watts
    (["sweep.values=[-4000]"], "sweep.values"),  # zero watts
    (["run.p_dbm=nan", "sweep.variable=tau_p", "sweep.values=[8]"], "run.p_dbm"),
    (["run.p_dbm=4000", "sweep.variable=tau_p", "sweep.values=[8]"], "run.p_dbm"),
    (["chan.sigma_sh_db=nan"], "chan.sigma_sh_db"),
    (["chan.sigma_sh_db=-4"], "chan.sigma_sh_db"),
    (["run.curves=[]"], "run.curves"),  # would run every trial for a header-only file
    (["run.curves=[dft:upg,dft:upg]"], "run.curves"),  # one row would overwrite the other
    (["run.curves=[dft_ext:upg]", "sweep.variable=tau_ex", "sweep.values=[1]",
      "pilot.tau_ex=5"], "pilot.tau_ex"),  # the sweep would replace it
]


def test_each_field_declares_one_key():
    assert len(harness.CONFIG_KEYS) == len(fields(ExperimentConfig))


@pytest.mark.parametrize("pairs,key", INVALID_CONFIGS,
                         ids=[" ".join(pairs) for pairs, _ in INVALID_CONFIGS])
def test_cli_invalid_config_exits_2(tmp_path, pairs, key):
    out = tmp_path / "x.csv"
    sets = [arg for pair in ["sweep.values=[20]", "run.trials=1", *pairs]
            for arg in ("--set", pair)]
    proc = _run_cli("sweep", *sets, "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert f"config error: {key}" in proc.stderr
    assert not out.exists()


def test_power_rule_keeps_representable_extremes():
    # -3000 and +3000 dBm are tiny and huge but finite positive watts
    cfg = small_cfg(trials=1, sweep_values=(-3000.0, 3000.0), curves=("dft:upg",))
    for row in run_sweep(cfg).rows:
        assert all(np.isfinite(row[col]) for col in ("nmse_db_mean", "rate_mean_bps_hz"))


def test_cli_figure_bad_format_refused_before_trials(tmp_path):
    proc = _run_cli("figure", "fig6", "--desk-scale", "--trials", "2",
                    "--set", "out.format=parquet", "--out", str(tmp_path / "x.csv"))
    assert proc.returncode == 2
    assert "out.format" in proc.stderr
    assert "trials/s" not in proc.stderr  # no progress line: no trial ran
    assert not (tmp_path / "x.csv").exists()


def test_cli_non_finite_row_refused(tmp_path, monkeypatch, capsys):
    # a NaN metric must fail the run with nothing written; no accepted config
    # is known to produce one (a 2000-dB shadowing deviation did, and is now
    # refused up front), so the sweep's first row is made NaN
    sweep = harness.run_sweep

    def nan_sweep(cfg, **kwargs):
        result = sweep(cfg, **kwargs)
        result.rows[0]["nmse_db_mean"] = float("nan")
        return result

    monkeypatch.setattr(harness, "run_sweep", nan_sweep)
    out = tmp_path / "fig6.csv"
    code = cli.main(["figure", "fig6", "--desk-scale", "--trials", "1",
                     "--set", "sweep.values=[20]", "--out", str(out)])
    assert code == 2
    assert ("config error: nmse_db_mean is nan (sweep_var=p_dbm, sweep_value=20, "
            "scheme=random, regime=upg)") in capsys.readouterr().err
    assert not out.exists()


def test_cli_absurd_shadowing_refused_before_trials(tmp_path):
    # at a 2000-dB deviation the shadowing gains overflow; the bound refuses
    # it before any trial runs
    out = tmp_path / "fig6.csv"
    proc = _run_cli("figure", "fig6", "--desk-scale", "--trials", "2",
                    "--set", "sweep.values=[20]", "--set", "chan.sigma_sh_db=2000",
                    "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert "config error: chan.sigma_sh_db" in proc.stderr
    assert "trials/s" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert not out.exists()


def test_largest_shadowing_deviation_gives_finite_rows():
    # tier-1 turns numpy RuntimeWarnings (overflow, invalid values) into errors
    cfg = figure_config("fig6", desk_scale=True, trials=2, sweep_values=(20.0,),
                        sigma_sh_db=SIGMA_SH_DB_MAX)
    result = run_sweep(cfg, diag=True)
    for row in result.rows:
        assert all(np.isfinite(row[col]) for col in CSV_COLUMNS[6:10])
    for row in result.diag_rows:
        assert all(np.isfinite(row[col]) for col in harness.DIAG_COLUMNS[4:])
    with pytest.raises(ConfigError, match="chan.sigma_sh_db"):
        harness.validate_config(replace(cfg, sigma_sh_db=SIGMA_SH_DB_MAX + 1e-9))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the sync curve reads +241.0 dB at sigma_sh_db=154: the FOUND line on the largest "
    "accepted shadowing deviation in CHANGES.md, ROADMAP open item 5"))
def test_largest_shadowing_deviation_gives_meaningful_nmse():
    # an LMMSE estimate's expected NMSE is at most 0 dB; at sigma_sh_db=60
    # the sync row reads -9.0 dB and the other curves -0.6 to -0.8 dB, while
    # at 154 the other curves read -0.2 to -0.3 dB
    cfg = figure_config("fig6", desk_scale=True, trials=3, sweep_values=(20.0,),
                        sigma_sh_db=154, seed=1)
    for row in run_sweep(cfg).rows:
        assert row["nmse_db_mean"] <= 3.0, row


def test_cli_figure_fig3_exits_2(tmp_path):
    # the fig3 table has one command, crosscorr; figure runs sweep presets only
    proc = _run_cli("figure", "fig3", "--out", str(tmp_path / "fig3.csv"))
    assert proc.returncode == 2
    assert "invalid choice: 'fig3'" in proc.stderr
    assert not (tmp_path / "fig3.csv").exists()


CROSSCORR_BAD_ARGS = [
    (["crosscorr", "--trials", "0"], "--trials"),
    (["crosscorr", "--trials", "-5"], "--trials"),
    (["crosscorr", "--delay", "-3"], "--delay"),
    (["crosscorr", "--delay", "-1"], "--delay"),
    (["crosscorr", "--tau-p-min", "0"], "--tau-p-min"),
    (["crosscorr", "--tau-p-step", "0"], "--tau-p-step"),
    (["crosscorr", "--tau-p-min", "20", "--tau-p-max", "10"], "--tau-p-max"),
    (["crosscorr", "--seed", "-1"], "--seed"),
]


@pytest.mark.parametrize("args,flag", CROSSCORR_BAD_ARGS,
                         ids=[" ".join(args) for args, _ in CROSSCORR_BAD_ARGS])
def test_cli_crosscorr_bad_numbers_exit_2(tmp_path, args, flag):
    # crosscorr_rows checks the table's numbers before any trial runs
    out = tmp_path / "x.csv"
    proc = _run_cli(*args, "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert flag in proc.stderr
    assert not out.exists()


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("pilot.tau_p = many\n")
    proc = _run_cli("sweep", "--config", str(bad))
    assert proc.returncode == 2
    assert "config error" in proc.stderr


def test_cli_io_error_exit_code(tmp_path):
    proc = _run_cli("crosscorr", "--tau-p-min", "8", "--tau-p-max", "10",
                    "--trials", "10", "--out", str(tmp_path / "nodir" / "x.csv"))
    assert proc.returncode == 3


def test_cli_crosscorr_and_dump(tmp_path):
    out = tmp_path / "cc.csv"
    proc = _run_cli("crosscorr", "--tau-p-min", "36", "--tau-p-max", "40",
                    "--trials", "50", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    frame_path = tmp_path / "f.bin"
    proc2 = _run_cli("dump-frame", "--set", "area.side_m=316.2277660168379",
                     "--set", "area.ap_count=10", "--set", "area.ue_mean=14",
                     "--set", "pilot.tau_p=8", "--set", "run.curves=[dft:upg]",
                     "--ap", "0", "--out", str(frame_path))
    assert proc2.returncode == 0, proc2.stderr
    assert frame_path.read_bytes()[:4] == b"ACFE"


# SHA-256 of the seed-1 CSVs below. The figure and sweep CSVs were recorded
# at commit 6f111d8, before the estimator, the max-min assignment and the
# rate bound were batched, and re-recorded when frames moved to the
# matched-filter domain, which moved one fig6 cell in its 12th digit (the
# per-link rule of tests/per_link.py bounds every such change). fig8 pins
# extended DFT below the in-cluster spread, fig9 extended DFT under UPNG.
# The per-link diag CSVs are the same bytes under the SkylakeX, Haswell and
# Zen OpenBLAS kernels, picked at run time from the CPU or by
# OPENBLAS_CORETYPE; before the matched-filter domain they were not.
GOLDEN_SHA256 = {
    "fig6": "97dc29e44bd9184dfa9aa4ac73807e316ee55d25d6e42cb381d8bd28bdea9eb5",
    "fig7": "9e5a3f566f0983f3479170c7680929795fa0f99be3b626810242e4ada482b8c3",
    "fig8": "f4a2f491b065193bd769273cd9b2cbd3259fe07105df85299a17126e3570b9f3",
    "fig9": "a9253260c5bb3df9dc866bc92b1794b30742016841f5193984f60bd604229b15",
    "sweep": "b16b1687a992039655a59d925bc1d708ce3d0fd2691b3b58fac6e95958dccf86",
    "diag": "a1fe1963a2ba5cfcc0a3c59bf6337602337dfd1bee7da5816681a53255d571ab",
    "tau_p_sweep": "7f21512af66d58f64ee43b3310b385a8c96ec9f040e2440d84772d47e6a8b328",
    "tau_p_diag": "09d47f79d83fa1c18a3e98591eaccec60d9ba0c4b7085a77413e96be867050b2",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.blas_kernel
@pytest.mark.parametrize("fig", ("fig6", "fig7", "fig8", "fig9"))
def test_figure_csv_matches_golden_digest(tmp_path, fig):
    # `figure <fig> --desk-scale --trials 20`
    out = tmp_path / f"{fig}.csv"
    write_rows(run_sweep(figure_config(fig, desk_scale=True, trials=20)).rows, out, "csv")
    assert _sha256(out) == GOLDEN_SHA256[fig]


@pytest.mark.blas_kernel
def test_diag_csv_matches_golden_digest(tmp_path):
    # `sweep --diag` at desk scale over the random, DFT and extended-DFT
    # data paths and the synchronous baseline
    cfg = build_config(**DESK, tau_p=8, trials=5, sweep_values=(-12.0, 20.0),
                       curves=("random:upng", "dft:upg", "dft:upng", "dft_ext:upng", "sync"))
    result = run_sweep(cfg, diag=True)
    write_rows(result.rows, tmp_path / "rows.csv", "csv")
    write_rows(result.diag_rows, tmp_path / "diag.csv", "csv", columns=harness.DIAG_COLUMNS)
    assert _sha256(tmp_path / "rows.csv") == GOLDEN_SHA256["sweep"]
    assert _sha256(tmp_path / "diag.csv") == GOLDEN_SHA256["diag"]


@pytest.mark.blas_kernel
def test_per_link_reference():
    # every link's NMSE and every UE's SE of the recorded seed-1 runs keeps
    # the per-link rule of tests/per_link.py, under any OpenBLAS kernel
    rows = per_link.compare(per_link.all_outputs(), per_link.load_reference())
    broken = [row for row in rows if not row[3] <= 1]
    assert not broken, broken


@pytest.mark.blas_kernel
def test_tau_p_sweep_matches_golden_digest(tmp_path):
    # `sweep --diag` at desk scale over pilot lengths 4, 8 and 16, with the
    # extended-DFT curve and the synchronous baseline; recorded at c357d35
    cfg = build_config(**DESK, trials=5, seed=1, sweep_variable="tau_p",
                       sweep_values=(4.0, 8.0, 16.0), curves=("dft:upg", "dft_ext:upg", "sync"))
    result = run_sweep(cfg, diag=True)
    write_rows(result.rows, tmp_path / "rows.csv", "csv")
    write_rows(result.diag_rows, tmp_path / "diag.csv", "csv", columns=harness.DIAG_COLUMNS)
    assert _sha256(tmp_path / "rows.csv") == GOLDEN_SHA256["tau_p_sweep"]
    assert _sha256(tmp_path / "diag.csv") == GOLDEN_SHA256["tau_p_diag"]
