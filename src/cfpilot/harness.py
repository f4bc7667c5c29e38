"""Experiment orchestration: config parsing, seeded sweeps, figure presets.

Reproducibility contract: every trial derives its random streams from
``SeedSequence`` tuples of (seed, trial, stream), so the network, large-scale
gains and fading of a trial are shared by all compared curves (paired
comparison), while transmit-side randomness (random pilot phases, UPNG data,
noise) comes from a per-curve stream. A trial's sweep points share every draw
that does not read the swept value: one ``TrialDraws`` per trial travels with
that trial's tasks and keeps only what a later point can read. A point
estimates all its curves in one pass and evaluates their rate bound in one
more.
Results are therefore byte-identical for a given (config, seed) no matter how
many workers run them.
"""

import csv
import ctypes
import glob
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields, replace
from functools import cache, cached_property
from itertools import islice

import numpy as np

from . import analytics, pilots
from .airframe import (frame_setup, noise_draws, sends_data, synthesize_frame,
                       write_frame_dump)
from .channel import dbm_to_watts, draw_channels, draw_link_gains
from .estimator import estimate_trial_links, link_setup, stack_links
from .geometry import SimArea, delay_spread_min_extension, sample_topology, synchronize
from .pilots import (ASSIGN_MAXMIN_DISTANCE, ASSIGNMENTS, REGIMES, SCHEMES, SCHEME_DFT,
                     SCHEME_DFT_EXT, SCHEME_RANDOM, make_pilot_book)

FULL_SCALE_AREA_KM2 = 0.7
DESK_AREA_KM2 = 0.1
P_DBM_GRID = (-36, -28, -20, -12, -4, 4, 12, 20)

CSV_COLUMNS = (
    "sweep_var", "sweep_value", "scheme", "regime", "tau_p", "tau_ex",
    "nmse_db_mean", "nmse_db_p10", "nmse_db_p90", "rate_mean_bps_hz",
    "trials", "seed",
)

DIAG_COLUMNS = ("r", "u", "scheme", "regime", "nmse", "desired_power",
                "interference_power", "noise_power")

CROSSCORR_COLUMNS = ("tau_p", "random_mc", "random_expected", "dft_closed", "delay")

SWEEP_VARIABLES = ("p_dbm", "tau_p", "tau_ex")

CURVE_SYNC = "sync"

# Largest accepted shadowing deviation, in dB. A draw X within 10 sigma scales a
# gain by 10**(X/10) <= 10**sigma, and the rate bound squares gains (path loss
# below 1), so 10**(2 sigma) must stay below float64's largest value: 154 dB.
SIGMA_SH_DB_MAX = math.floor(math.log10(sys.float_info.max) / 2)


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending key."""


POSITIVE, NONNEGATIVE = "positive", "nonnegative"


def _key(name, default, kind=None, bound=None, choices=None, high=None):
    """A config field: dotted key, parse kind (default: its type), bound, allowed set
    and largest value."""
    return field(default=default,
                 metadata=dict(key=name, kind=kind, bound=bound, choices=choices, high=high))


@dataclass
class ExperimentConfig:
    side_m: float = _key("area.side_m", math.sqrt(FULL_SCALE_AREA_KM2) * 1000.0)
    ap_count: int = _key("area.ap_count", 70)
    ue_mean: float = _key("area.ue_mean", 98.0)
    gamma_m: float = _key("area.gamma_m", 20.0)
    bw_hz: float = _key("sys.bw_hz", 20e6, bound=POSITIVE)
    cluster_size: int = _key("cluster.size", 4, bound=POSITIVE)
    seed: int = _key("seed", 1, bound=NONNEGATIVE)
    sigma_sh_db: float = _key("chan.sigma_sh_db", 4.0, bound=NONNEGATIVE, high=SIGMA_SH_DB_MAX)
    noise_w: float = _key("chan.noise_w", 1e-14, bound=NONNEGATIVE)
    antennas: int = _key("chan.antennas", 8, bound=POSITIVE)
    tau_p: int = _key("pilot.tau_p", 32, bound=POSITIVE)
    tau_ex: object = _key("pilot.tau_ex", "auto_min", kind="tau_ex", bound=NONNEGATIVE)
    phase_levels: int = _key("pilot.P", 8, bound=POSITIVE)
    assignment: str = _key("pilot.assignment", "round_robin", choices=ASSIGNMENTS)
    tau_c: int = _key("rate.tau_c", 200, bound=POSITIVE)
    p_dbm: float = _key("run.p_dbm", 20.0)
    sweep_variable: str = _key("sweep.variable", "p_dbm", choices=SWEEP_VARIABLES)
    sweep_values: tuple = _key("sweep.values", P_DBM_GRID, kind="number_list")
    trials: int = _key("run.trials", 500, bound=POSITIVE)
    curves: tuple = _key("run.curves", ("dft:upg",), kind="str_list")
    workers: int = _key("run.workers", 1, bound=POSITIVE)
    out_path: str = _key("out.path", None)
    out_format: str = _key("out.format", "csv", choices=("csv", "jsonl"))

    def area(self):
        return SimArea(self.side_m, self.ap_count, self.ue_mean, self.gamma_m,
                       tau_smp_s=1.0 / self.bw_hz)


CONFIG_KEYS = {f.metadata["key"]: f for f in fields(ExperimentConfig)}


def _parse_list(raw):
    raw = raw.strip()
    if raw.startswith("[") and raw.endswith("]"):
        raw = raw[1:-1]
    return [tok.strip() for tok in raw.split(",") if tok.strip()]


# parsers of the kinds that are not a type
_PARSERS = {
    "tau_ex": lambda raw: raw if raw == "auto_min" else int(raw),
    "number_list": lambda raw: tuple(float(tok) for tok in _parse_list(raw)),
    "str_list": lambda raw: tuple(_parse_list(raw)),
}


def parse_config_file(path):
    """Flat key=value file with dotted keys; '#' starts a comment."""
    overrides = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            overrides[key] = raw
    return overrides


def parse_curve(curve):
    if curve == CURVE_SYNC:
        return CURVE_SYNC, "upg"
    if ":" not in curve:
        raise ConfigError(f"run.curves: entry {curve!r} must be 'scheme:regime' or 'sync'")
    scheme, regime = curve.split(":", 1)
    if scheme not in SCHEMES:
        raise ConfigError(f"run.curves: unknown scheme {scheme!r}")
    if regime not in REGIMES:
        raise ConfigError(f"run.curves: unknown regime {regime!r}")
    return scheme, regime


def config_fields(pairs):
    """Turn dotted-key (key, value) pairs into ExperimentConfig field values.

    String values are parsed by the key's kind, and a later pair wins.
    """
    out = {}
    for key, raw in pairs:
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        f = CONFIG_KEYS[key]
        parse = _PARSERS.get(f.metadata["kind"], f.type)
        try:
            out[f.name] = parse(raw.strip()) if isinstance(raw, str) else raw
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: cannot parse value {raw!r}") from exc
    return out


def build_config(**values):
    """Assemble and validate an ExperimentConfig from field values (see ``config_fields``)."""
    unknown = set(values) - {f.name for f in CONFIG_KEYS.values()}
    if unknown:
        raise ConfigError(f"unknown config field {min(unknown)!r}")
    cfg = replace(ExperimentConfig(), **values)
    validate_config(cfg)
    return cfg


def validate_config(cfg):
    """Each key's own checks, from its field's declaration, then the rules that span keys."""
    for key, f in CONFIG_KEYS.items():
        value, meta = getattr(cfg, f.name), f.metadata
        bound, choices, high = meta["bound"], meta["choices"], meta["high"]
        if meta["kind"] == "tau_ex" and not isinstance(value, int):
            if value == "auto_min":
                continue
            raise ConfigError(f"{key}: expected integer or 'auto_min', got {value!r}")
        if f.type is float and not math.isfinite(value):
            raise ConfigError(f"{key}: must be finite")
        if bound and not (value > 0 if bound == POSITIVE else value >= 0):
            raise ConfigError(f"{key}: must be {bound}")
        if high is not None and value > high:
            raise ConfigError(f"{key}: must be at most {high}")
        if choices and value not in choices:
            raise ConfigError(f"{key}: unknown value {value!r}, expected one of "
                              f"{', '.join(choices)}")

    if not cfg.sweep_values:
        raise ConfigError("sweep.values: need at least one value")
    if not cfg.curves:
        raise ConfigError("run.curves: need at least one curve")
    # a trial's results are keyed by curve name, so a repeat would overwrite the first
    repeated = [c for i, c in enumerate(cfg.curves) if c in cfg.curves[:i]]
    if repeated:
        raise ConfigError(f"run.curves: curve {repeated[0]!r} is repeated")
    if cfg.sweep_variable in ("tau_p", "tau_ex"):
        low = int(cfg.sweep_variable == "tau_p")
        if any(v < low or not float(v).is_integer() for v in cfg.sweep_values):
            raise ConfigError(f"sweep.values: {cfg.sweep_variable} values must be "
                              f"integers >= {low}")
    # every power the run may transmit must be a positive finite number of watts
    powers = {"run.p_dbm": [cfg.p_dbm],
              "sweep.values": cfg.sweep_values if cfg.sweep_variable == "p_dbm" else []}
    for key, dbm in powers.items():
        with np.errstate(over="ignore"):
            watts = dbm_to_watts(dbm)
        if not np.all(np.isfinite(watts) & (watts > 0)):
            raise ConfigError(f"{key}: power must be a positive finite number of watts")
    schemes = {parse_curve(curve)[0] for curve in cfg.curves}
    # only dft_ext curves read tau_ex; any other value would be silently ignored
    swept = cfg.sweep_variable == "tau_ex"
    if (swept or cfg.tau_ex != "auto_min") and SCHEME_DFT_EXT not in schemes:
        raise ConfigError(f"{'sweep.variable' if swept else 'pilot.tau_ex'}: a tau_ex other "
                          f"than auto_min needs a dft_ext curve in run.curves")
    # the sweep sets every point's tau_ex; a fixed one would be silently replaced
    if swept and cfg.tau_ex != "auto_min":
        raise ConfigError("pilot.tau_ex: a fixed tau_ex conflicts with sweep.variable=tau_ex")
    try:
        cfg.area()
    except ValueError as exc:  # SimArea names the offending area.* field first
        raise ConfigError(f"area.{exc}") from exc


# ---------------------------------------------------------------------------
# Trial execution
# ---------------------------------------------------------------------------

def _stream(*key):
    return np.random.default_rng(np.random.SeedSequence(key))


def point_config(cfg, value):
    """The config of one sweep point: ``cfg`` with its sweep variable set to ``value``."""
    kind = float if cfg.sweep_variable == "p_dbm" else int
    return replace(cfg, **{cfg.sweep_variable: kind(value)})


def _extension(pc, scheme):
    """A curve's configured extension at point ``pc``: ``tau_ex`` for ``dft_ext``, else 0."""
    return pc.tau_ex if scheme == SCHEME_DFT_EXT else 0


def _book_key(pc, ci):
    """The key of curve ``ci``'s book setup at point ``pc``; None when its book is its own.

    A random book is drawn from the curve's own stream, so it is never
    shared. The parsed scheme names the curve network too (``sync`` runs
    DFT pilots on the synchronized network); on one network the configured
    extension fixes the resolved one.
    """
    scheme = parse_curve(pc.curves[ci])[0]
    return None if scheme == SCHEME_RANDOM else (scheme, pc.tau_p, _extension(pc, scheme))


class TrialDraws:
    """One trial's draws, each made on first use and kept for the sweep points that read it.

    ``helper``, a serial sweep's :class:`_DrawHelper`, draws the fading and a
    frame's noise ahead while the trial sets up what does not read them;
    without it they are drawn inline, the same bits.

    The network, gains and fading read no sweep variable, the max-min
    assignment only ``tau_p``, and a curve's frame ``tau_p`` and its
    configured extension but not the power. Until the sweep's last point the
    draws keep a record of the last point: the curves' (``tau_p``, extension)
    keys, frames (less ``setup``, ``y`` and ``noise``), stacked power-free
    ``LinkEstimates`` blocks, ``RateOperands`` and overhead factors. A later
    point draws and sets up only the curves whose key changed (only a
    ``tau_ex`` sweep keeps each curve's block). Within a point, the curves
    whose pilot books read no stream share one ``BookSetup`` per
    :func:`_book_key`, dropped once the last of them has drawn its frame.
    """

    def __init__(self, cfg, trial, helper=None):
        self.cfg, self.trial, self.helper = cfg, trial, helper
        self._maxmin = {}  # tau_p -> max-min pilot assignment
        self._books = {}  # book key -> BookSetup, for a later curve of the point
        self._record = None
        self._fading = None  # the fading's stream and fill, until the channel is drawn

    @cached_property
    def network(self):
        """The trial's network and its large-scale gains. The fading's normals are
        handed to the draw helper here, before the set-up work that needs no fading."""
        cfg, net_rng = self.cfg, _stream(self.cfg.seed, self.trial, 0)
        net = sample_topology(cfg.area(), cfg.cluster_size, net_rng)
        gains = draw_link_gains(net, net_rng, cfg.sigma_sh_db)
        rng, shape = _stream(cfg.seed, self.trial, 1), (2, *net.d_ru.shape, cfg.antennas)
        self._fading = rng, None if self.helper is None else self.helper.fill(rng, shape)
        return net, gains

    @cached_property
    def channel(self):
        """The trial's network and its channel draws."""
        (net, gains), (rng, fill) = self.network, self._fading
        self._fading = None
        normals = None if fill is None else fill.result()
        return net, draw_channels(net, gains, self.cfg.antennas, rng, self.cfg.noise_w, normals)

    def _prepare(self, pc, ci):
        """Curve ``ci``'s regime, pilot book, network, book setup (None when not made yet),
        transmit stream and noise fill (None when drawn inline) at point ``pc``.

        The curve's pilot book, UPNG data and noise come from its own
        transmit stream. ``sync`` runs on the synchronized network, which
        keeps the UE positions the assignment reads; ``auto_min`` resolves
        to the curve network's largest in-cluster delay spread. A book
        setup an earlier curve of the point made for this key is reused.
        """
        net, _ = self.network
        if pc.assignment == ASSIGN_MAXMIN_DISTANCE and pc.tau_p not in self._maxmin:
            self._maxmin[pc.tau_p] = pilots.assign_maxmin_distance(net.ue_pos, pc.tau_p)
        scheme, regime = parse_curve(pc.curves[ci])
        tx_rng = _stream(pc.seed, self.trial, 2, ci)
        setup = self._books.pop(_book_key(pc, ci), None)
        if setup is None:
            tau_ex = _extension(pc, scheme)
            if scheme == CURVE_SYNC:
                net, scheme = synchronize(net), SCHEME_DFT
            if tau_ex == "auto_min":
                tau_ex = delay_spread_min_extension(net)
            book = make_pilot_book(scheme, pc.tau_p, tau_ex, net.n_ues, tx_rng,
                                   phase_levels=pc.phase_levels,
                                   assignment=self._maxmin.get(pc.tau_p))
        else:
            book, net = setup.book, setup.net
        fill = None
        if self.helper is not None:
            size = noise_draws(book, net, pc.antennas)
            # a frame with UPNG data draws integers between its APs' noise: inline
            if self.helper.takes(size) and not sends_data(net, regime):
                fill = self.helper.fill(tx_rng, (size,))
        return regime, book, net, setup, tx_rng, fill

    def frame(self, pc, ci, prepared=None):
        """Draw curve ``ci``'s frame at sweep point ``pc`` (a :func:`point_config`) from its
        :meth:`_prepare` output, made here when not given. Once the draw helper
        runs, the book is set up before the frame waits for its fills."""
        regime, book, net, setup, tx_rng, fill = prepared or self._prepare(pc, ci)
        if self.helper is not None and self.helper.started:
            setup = frame_setup(book, net, setup)
        _, chan = self.channel
        drawn = None if fill is None else (fill.stream, fill.result())
        frame = synthesize_frame(book, net, chan, regime, dbm_to_watts(pc.p_dbm), tx_rng,
                                 setup, drawn)
        key = _book_key(pc, ci)
        if key is not None and key in {_book_key(pc, cj) for cj in range(ci + 1, len(pc.curves))}:
            self._books[key] = frame.setup
        return frame

    def point(self, pc):
        """Every curve's frame at point ``pc``, less its ``setup``, ``y`` and ``noise``, with
        the curves' stacked links and their rate bound, through the draws' record.

        A curve is set up right after its frame is drawn. The returned and kept
        frames' signal and noise are in the links' setup only, so they are
        estimated with ``previous`` (:func:`estimate_trial_links`).
        """
        curves = len(pc.curves)
        keys = [(pc.tau_p, _extension(pc, parse_curve(curve)[0])) for curve in pc.curves]
        kept_keys, frames, blocks, links, operands, overhead = self._record or ((None,) * 6)
        self._record = None
        if keys != kept_keys:
            links = operands = None  # rebuilt below; freed before drawing
            frames, blocks = list(frames or [None] * curves), list(blocks or [None] * curves)
            todo = [ci for ci, key in enumerate(keys) if not kept_keys or kept_keys[ci] != key]
            # the next curve's noise is handed to the draw helper before this one is set up
            prepared = self._prepare(pc, todo[0])
            for ci, after in zip(todo, todo[1:] + [None]):
                # drop the drawn noise before the next curve's is allocated
                frame, prepared = self.frame(pc, ci, prepared), None
                if after is not None:
                    prepared = self._prepare(pc, after)
                blocks[ci] = link_setup(frame)
                # so nothing holds the book setup past this curve; the block
                # holds the frame's signal and noise
                frames[ci] = frame = replace(frame, y=None, noise=None, setup=None)
            links = stack_links(blocks)
            operands = analytics.rate_operands(frames[0].net, frames[0].chan.gains, links)
            overhead = np.array([analytics.overhead_factor(pc.tau_c, f.book.tau_p, f.book.tau_ex)
                                 for f in frames])
        # a record is read only by a later point of the sweep, and its blocks only
        # on a tau_ex sweep; unkept blocks are freed before the power-dependent pass
        later = getattr(pc, pc.sweep_variable) != pc.sweep_values[-1]
        blocks = blocks if later and pc.sweep_variable == "tau_ex" else None
        p_ul = dbm_to_watts(pc.p_dbm)
        links = estimate_trial_links(*frames, previous=links, p_ul=p_ul)
        rate = analytics.conjugate_bf_rate(frames[0].net, frames[0].chan.gains, links, p_dl=p_ul,
                                           noise_w=pc.noise_w, m_antennas=pc.antennas,
                                           overhead=overhead, operands=operands)
        if later:
            self._record = (keys, frames, blocks, links, operands, overhead)
        return frames, links, rate


@dataclass
class TrialRecord:
    """Per-trial results for every configured curve, keyed by curve name.

    Fully reproducible from (config, seed, trial index): all randomness is
    drawn from substreams derived from those values.
    """

    trial: int
    sweep_value: float
    curves: dict


def run_trial(cfg, sweep_value, trial, draws=None):
    """One Monte-Carlo trial at one sweep point: every curve on shared draws.

    ``draws`` is the trial's :class:`TrialDraws`, shared by all its sweep
    points, which reuse what earlier points drew; the record is the same
    bits without it.
    """
    pc = point_config(cfg, sweep_value)
    if draws is None:
        draws = TrialDraws(cfg, trial)
    frames, links, rate = draws.point(pc)
    se = rate.se_per_ue.reshape(len(frames), -1)
    n = links.ap.size // len(frames)
    out = {}
    for ci, curve in enumerate(cfg.curves):
        block = slice(ci * n, (ci + 1) * n)
        out[curve] = {"se": se[ci], "tau_ex": frames[ci].book.tau_ex,
                      **{name: getattr(links, name)[block]
                         for name in ("ap", "ue", *DIAG_COLUMNS[4:])}}
    return TrialRecord(trial=trial, sweep_value=float(sweep_value), curves=out)


def _run_task(task):
    """Run one sweep task; ``run_trial`` is looked up per call, so a wrapped one runs too."""
    return run_trial(*task)


@cache
def _openblas(name, restype, *argtypes):
    """numpy's bundled OpenBLAS function ``openblas_<name>``, or the unprefixed ``name``,
    typed and looked up once per process; None without a bundled OpenBLAS."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}", name):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype, fn.argtypes = restype, list(argtypes)
                return fn
    return None


def _set_blas_threads(count):
    """Run numpy's bundled OpenBLAS on ``count`` threads in this process; return the old count.

    OpenBLAS starts a thread per core, which the per-link products are too
    small to use and pool workers oversubscribe. Without a bundled OpenBLAS
    this does nothing and returns None.
    """
    get = _openblas("get_num_threads", ctypes.c_int)
    if get is None:
        return None
    previous = get()
    _openblas("set_num_threads", None, ctypes.c_int)(count)
    return previous


def _stop_idle_blas_threads():
    """Stop OpenBLAS's worker threads, which spin after a 2-thread product; the count is
    kept, and a later product on more threads starts them again. Nothing without OpenBLAS."""
    shutdown = _openblas("blas_thread_shutdown_", ctypes.c_int)
    if shutdown is not None:
        shutdown()


# Fewest standard normals a fill hands to the draw helper: a desk-scale fill is
# drawn inline, a full-scale one on the helper (measured in CHANGES.md).
DRAW_HELPER_MIN = 1 << 14


class _Fill:
    """``rng``'s next standard normals into ``out``, drawn on the draw helper.

    ``stream`` is ``rng``'s state before them. The main thread reads ``rng``
    again only after :meth:`result`.
    """

    def __init__(self, pool, rng, out):
        self.rng, self.out, self.stream = rng, out, rng.bit_generator.state
        self._job = pool.submit(rng.standard_normal, out=out)

    def result(self):
        """``out``, filled; drawn here if the helper has not started the fill."""
        if self._job.cancel():
            self.rng.standard_normal(out=self.out)
        else:
            self._job.result()
        return self.out


class _DrawHelper:
    """One thread of a serial sweep that fills buffers of standard normals while the
    main thread sets the sweep point up (``TrialDraws.point``).

    The thread starts at the first fill of at least ``DRAW_HELPER_MIN``
    normals, and OpenBLAS's idle threads are then stopped. In a process that
    may run on one CPU only the thread never starts: it would only take
    turns with the main thread. Every other fill is None: its caller draws
    it inline. :meth:`close` joins the thread; ``started`` tells whether it ran.
    """

    def __init__(self):
        affinity = getattr(os, "sched_getaffinity", None)
        self._cpus = len(affinity(0)) if affinity else 1
        self._pool = None

    def takes(self, size):
        """Whether a fill of ``size`` normals goes to the helper thread."""
        return self._cpus > 1 and size >= max(DRAW_HELPER_MIN, 1)

    def fill(self, rng, shape):
        """A :class:`_Fill` of a new ``shape`` array, allocated here, or None when the
        helper does not :meth:`takes` it."""
        if not self.takes(math.prod(shape)):
            return None
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor
            self._pool = ThreadPoolExecutor(1, thread_name_prefix="cfpilot-draws")
            _stop_idle_blas_threads()
        return _Fill(self._pool, rng, np.empty(shape))

    @property
    def started(self):
        return self._pool is not None

    def close(self):
        """Drop the fills not started and join the thread."""
        if self.started:
            self._pool.shutdown(cancel_futures=True)


def ProcessPoolExecutor(*args, **kwargs):
    """``concurrent.futures.ProcessPoolExecutor(*args, **kwargs)``, imported by the first
    pool: a serial run never loads ``multiprocessing``. ``run_sweep`` reads this name
    on every call, so a replacement set on the module runs."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(*args, **kwargs)


@dataclass
class SweepResult:
    rows: list
    diag_rows: list = field(default_factory=list)


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _progress(records, cfg):
    """Pass ``records`` through, printing trials done, trials/s and the ETA about ten times."""
    points, step = len(cfg.sweep_values), math.ceil(cfg.trials / 10)
    start = time.perf_counter()
    for i, record in enumerate(records, 1):
        done, rest = divmod(i, points)
        if not rest and (done % step == 0 or done == cfg.trials):
            rate = done / (time.perf_counter() - start)
            print(f"[cfpilot] {done}/{cfg.trials} trials of {points} sweep point(s), "
                  f"{rate:.3g} trials/s, ETA {(cfg.trials - done) / rate:.0f} s",
                  file=sys.stderr)
        yield record


def run_sweep(cfg, diag=False, progress=False):
    """Run the configured sweep and aggregate per (sweep value, curve).

    Trials run trial-major: every sweep point of trial t, then trial t+1.
    A task is ``(cfg, value, trial, draws)``, with one ``TrialDraws`` per
    trial; serially the tasks are made lazily, so a trial's draws end with
    it. With ``workers`` > 1 one pool of at most ``trials`` processes runs
    the sweep, a trial's points in one task chunk, which pickles the trial's
    draws once. Serially, and in each pool worker, OpenBLAS runs on one
    thread; the caller's own count is back when the sweep returns or raises.
    A serial sweep hands its large standard-normal fills to one draw helper
    thread (:class:`_DrawHelper`), joined before it returns or raises; the
    draws are the same bits.

    Per-link NMSE ratios are pooled over all trials of a point and reported
    as linear mean plus 10/90 percentiles in dB; the rate column is the mean
    per-UE spectral efficiency (unserved UEs count as zero).
    """
    validate_config(cfg)
    points = len(cfg.sweep_values)
    helper = _DrawHelper() if cfg.workers == 1 else None
    tasks = ((cfg, value, trial, draws) for trial in range(cfg.trials)
             for draws in [TrialDraws(cfg, trial, helper)] for value in cfg.sweep_values)
    if cfg.workers > 1:
        # a fork pool starts all its processes at its first task, so no more than
        # there are trials, the task chunks
        with ProcessPoolExecutor(max_workers=min(cfg.workers, cfg.trials),
                                 initializer=_set_blas_threads, initargs=(1,)) as pool:
            records = pool.map(_run_task, tasks, chunksize=points)
            outputs = list(_progress(records, cfg) if progress else records)
    else:
        previous = _set_blas_threads(1)
        try:
            records = map(_run_task, tasks)
            outputs = list(_progress(records, cfg) if progress else records)
        finally:
            helper.close()
            if previous is not None:
                _set_blas_threads(previous)
    rows, diag_rows = [], []
    for point, sweep_value in enumerate(cfg.sweep_values):
        pc = point_config(cfg, sweep_value)
        trial_outputs = outputs[point::points]
        for curve in cfg.curves:
            scheme, regime = parse_curve(curve)
            nmse = np.concatenate([out.curves[curve]["nmse"] for out in trial_outputs])
            se = np.concatenate([out.curves[curve]["se"] for out in trial_outputs])
            agg = analytics.nmse_aggregate(nmse)
            rows.append({
                "sweep_var": cfg.sweep_variable,
                "sweep_value": float(sweep_value),
                "scheme": scheme,
                "regime": regime,
                "tau_p": pc.tau_p,
                "tau_ex": _extension(pc, scheme),
                "nmse_db_mean": agg["mean_db"],
                "nmse_db_p10": agg["p10_db"],
                "nmse_db_p90": agg["p90_db"],
                "rate_mean_bps_hz": float(se.mean()),
                "trials": cfg.trials,
                "seed": cfg.seed,
            })
            if diag:
                for out in trial_outputs:
                    rec = out.curves[curve]
                    for i in range(rec["nmse"].size):
                        diag_rows.append({"r": int(rec["ap"][i]), "u": int(rec["ue"][i]),
                                          "scheme": scheme, "regime": regime,
                                          **{c: float(rec[c][i]) for c in DIAG_COLUMNS[4:]}})
    return SweepResult(rows=rows, diag_rows=diag_rows)


# ---------------------------------------------------------------------------
# Output writer
# ---------------------------------------------------------------------------

def write_rows(rows, path, fmt, columns=CSV_COLUMNS):
    """Write ``rows`` as CSV or JSONL, refusing an unknown format or a non-finite value first."""
    if fmt not in CONFIG_KEYS["out.format"].metadata["choices"]:
        raise ConfigError(f"out.format: unknown format {fmt!r}")
    for row in rows:
        for col in columns:
            if isinstance(row[col], float) and not math.isfinite(row[col]):
                # the sweep point and curve, on the rows that have them
                where = ", ".join(f"{k}={_fmt(row[k])}" for k in CSV_COLUMNS[:4] if k in row)
                raise ConfigError(f"{col} is {row[col]} ({where}); nothing is written")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if fmt == "csv":
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows([_fmt(row[col]) for col in columns] for row in rows)
        else:
            fh.writelines(json.dumps({col: row[col] for col in columns}) + "\n" for row in rows)


# ---------------------------------------------------------------------------
# Figure presets
# ---------------------------------------------------------------------------

FIG3_PRESET = {
    "tau_p_min": 8,
    "tau_p_max": 56,
    "tau_p_step": 1,
    "delay": 37,
    "trials": 2000,
    "pair_mode": "adjacent",
    "regime": "upg",
}


def crosscorr_rows(seed, **params):
    """The random-vs-DFT cross-correlation table of Fig. 3, as ``crosscorr`` writes it.

    ``params`` override ``FIG3_PRESET``; the pilot lengths run from
    ``tau_p_min`` to ``tau_p_max`` in steps of ``tau_p_step``. A value out of
    range raises ConfigError naming its CLI flag.
    """
    p = dict(FIG3_PRESET, **params)
    for name, low in (("trials", 1), ("delay", 0), ("tau_p_min", 1), ("tau_p_step", 1),
                      ("tau_p_max", p["tau_p_min"])):
        if not p[name] >= low:
            raise ConfigError(f"--{name.replace('_', '-')}: must be at least {low}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 3)))
    return analytics.crosscorr_comparison(
        range(p["tau_p_min"], p["tau_p_max"] + 1, p["tau_p_step"]), p["delay"], rng,
        trials=p["trials"], pair_mode=p["pair_mode"], regime=p["regime"])


# fig7/fig9 pin the max-min assigner: the comparison against the synchronous
# baseline presumes co-pilot UEs are kept spatially distant, as systems
# normally do; round-robin leaves the baseline contamination-dominated by
# unlucky close co-pilot pairs.
_FIG_PRESETS = {
    "fig6": {"curves": ("random:upg", "random:upng", "dft:upg", "dft:upng", "sync")},
    "fig7": {"curves": ("dft:upg", "dft:upng", "dft_ext:upg", "sync"),
             "assignment": "maxmin_distance"},
    "fig8": {"curves": ("dft_ext:upg", "sync"), "sweep_variable": "tau_ex",
             "sweep_values": tuple(range(7))},
    "fig9": {"curves": ("sync", "dft:upng", "dft_ext:upng"),
             "assignment": "maxmin_distance"},
}
FIGURE_IDS = tuple(_FIG_PRESETS)


def desk_scale_overrides(fig_id=None):
    """Shrink to 0.1 km^2 / 10 APs / mean 14 UEs at the full-scale densities.

    fig7 additionally drops the pilot length to 8 so that co-pilot UEs still
    exist at the reduced UE count: with 14 UEs and 32 sequences nothing
    shares a pilot, the synchronous baseline loses its contamination floor,
    and the figure's synchronous-versus-extended comparison degenerates.
    """
    out = {
        "side_m": math.sqrt(DESK_AREA_KM2) * 1000.0,
        "ap_count": 10,
        "ue_mean": 14.0,
        "trials": 200,
    }
    if fig_id == "fig7":
        out["tau_p"] = 8
    return out


def figure_config(fig_id, desk_scale=False, **overrides):
    if fig_id not in FIGURE_IDS:
        raise ConfigError(f"figure {fig_id!r} has no sweep preset")
    base = dict(_FIG_PRESETS[fig_id])
    if desk_scale:
        base.update(desk_scale_overrides(fig_id))
    base.update(overrides)
    return build_config(**base)


def dump_frame(cfg, path, ap=0):
    """Dump AP ``ap``'s full received frame of the first curve, as ``run_trial`` draws it.

    The frame is trial 0's at the first sweep value, so its power, pilot
    length and extension are those the sweep runs there. AP ``ap``'s
    received matrix is rebuilt from the frame's draws (``ReceivedFrame.replay``).
    """
    if not 0 <= ap < cfg.ap_count:
        raise ConfigError(f"dump-frame: AP index {ap} out of range")
    frame = TrialDraws(cfg, 0).frame(point_config(cfg, cfg.sweep_values[0]), 0)
    y, _, _ = next(islice(frame.replay(), ap, None))
    write_frame_dump(path, y)
    return frame
