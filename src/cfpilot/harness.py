"""Experiment orchestration: config parsing, seeded sweeps, figure presets.

Reproducibility contract: every trial derives its random streams from
``SeedSequence`` tuples of (seed, trial, stream), so the network, large-scale
gains and fading of a trial are shared by all compared curves (paired
comparison), while transmit-side randomness (random pilot phases, UPNG data,
noise) comes from a per-curve stream. Results are therefore byte-identical
for a given (config, seed) no matter how many workers run the trials.
"""

import csv
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import analytics
from .airframe import REGIMES, synthesize_frame, write_frame_dump
from .channel import dbm_to_watts, draw_channels, draw_link_gains
from .estimator import estimate_trial_links
from .geometry import SimArea, delay_spread_min_extension, sample_topology, synchronize
from .pilots import ASSIGNMENTS, SCHEMES, SCHEME_DFT, SCHEME_DFT_EXT, make_pilot_book

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


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending key."""


@dataclass
class ExperimentConfig:
    side_m: float = math.sqrt(FULL_SCALE_AREA_KM2) * 1000.0
    ap_count: int = 70
    ue_mean: float = 98.0
    gamma_m: float = 20.0
    bw_hz: float = 20e6
    cluster_size: int = 4
    seed: int = 1
    sigma_sh_db: float = 4.0
    noise_w: float = 1e-14
    antennas: int = 8
    tau_p: int = 32
    tau_ex: object = "auto_min"
    phase_levels: int = 8
    assignment: str = "round_robin"
    tau_c: int = 200
    p_dbm: float = 20.0
    sweep_variable: str = "p_dbm"
    sweep_values: tuple = P_DBM_GRID
    trials: int = 500
    curves: tuple = ("dft:upg",)
    workers: int = 1
    out_path: str = None
    out_format: str = "csv"

    def area(self):
        return SimArea(self.side_m, self.ap_count, self.ue_mean, self.gamma_m,
                       tau_smp_s=1.0 / self.bw_hz)


CONFIG_KEYS = {
    "area.side_m": ("side_m", float),
    "area.ap_count": ("ap_count", int),
    "area.ue_mean": ("ue_mean", float),
    "area.gamma_m": ("gamma_m", float),
    "sys.bw_hz": ("bw_hz", float),
    "cluster.size": ("cluster_size", int),
    "seed": ("seed", int),
    "chan.sigma_sh_db": ("sigma_sh_db", float),
    "chan.noise_w": ("noise_w", float),
    "chan.antennas": ("antennas", int),
    "pilot.tau_p": ("tau_p", int),
    "pilot.tau_ex": ("tau_ex", "tau_ex"),
    "pilot.P": ("phase_levels", int),
    "pilot.assignment": ("assignment", str),
    "rate.tau_c": ("tau_c", int),
    "run.p_dbm": ("p_dbm", float),
    "sweep.variable": ("sweep_variable", str),
    "sweep.values": ("sweep_values", "number_list"),
    "run.trials": ("trials", int),
    "run.curves": ("curves", "str_list"),
    "run.workers": ("workers", int),
    "out.path": ("out_path", str),
    "out.format": ("out_format", str),
}


def _parse_list(raw):
    raw = raw.strip()
    if raw.startswith("[") and raw.endswith("]"):
        raw = raw[1:-1]
    return [tok.strip() for tok in raw.split(",") if tok.strip()]


def _coerce(key, kind, raw):
    raw = raw.strip()
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is str:
            return raw
        if kind == "tau_ex":
            return raw if raw == "auto_min" else int(raw)
        if kind == "number_list":
            return tuple(float(tok) for tok in _parse_list(raw))
        if kind == "str_list":
            return tuple(_parse_list(raw))
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: cannot parse value {raw!r}") from exc
    raise AssertionError(kind)


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

    String values are parsed by the key's type, and a later pair wins.
    """
    out = {}
    for key, raw in pairs:
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        attr, kind = CONFIG_KEYS[key]
        out[attr] = _coerce(key, kind, raw) if isinstance(raw, str) else raw
    return out


def build_config(file_overrides=None, **direct):
    """Assemble an ExperimentConfig from dotted-key overrides plus field values."""
    values = config_fields((file_overrides or {}).items())
    values.update(direct)
    valid = {f.name for f in fields(ExperimentConfig)}
    for attr in values:
        if attr not in valid:
            raise ConfigError(f"unknown config field {attr!r}")
    cfg = replace(ExperimentConfig(), **values)
    validate_config(cfg)
    return cfg


# keys whose values must be positive (at least 1 for the integer ones)
POSITIVE_KEYS = ("run.trials", "run.workers", "pilot.tau_p", "pilot.P", "sys.bw_hz",
                 "cluster.size", "rate.tau_c", "chan.antennas")
NONNEGATIVE_KEYS = ("chan.noise_w", "chan.sigma_sh_db")


def validate_config(cfg):
    if cfg.sweep_variable not in SWEEP_VARIABLES:
        raise ConfigError(f"sweep.variable: unknown variable {cfg.sweep_variable!r}")
    if not cfg.sweep_values:
        raise ConfigError("sweep.values: need at least one value")
    if not all(math.isfinite(v) for v in cfg.sweep_values):
        raise ConfigError("sweep.values: values must be finite")
    for key, (attr, kind) in CONFIG_KEYS.items():
        if kind is float and not math.isfinite(getattr(cfg, attr)):
            raise ConfigError(f"{key}: must be finite")
    for key in POSITIVE_KEYS:
        if not getattr(cfg, CONFIG_KEYS[key][0]) > 0:
            raise ConfigError(f"{key}: must be positive")
    for key in NONNEGATIVE_KEYS:
        if not getattr(cfg, CONFIG_KEYS[key][0]) >= 0:
            raise ConfigError(f"{key}: must be nonnegative")
    if cfg.assignment not in ASSIGNMENTS:
        raise ConfigError(f"pilot.assignment: unknown rule {cfg.assignment!r}")
    if cfg.out_format not in ("csv", "jsonl"):
        raise ConfigError(f"out.format: unknown format {cfg.out_format!r}")
    if not isinstance(cfg.tau_ex, int) and cfg.tau_ex != "auto_min":
        raise ConfigError(f"pilot.tau_ex: expected integer or 'auto_min', got {cfg.tau_ex!r}")
    if cfg.sweep_variable in ("tau_p", "tau_ex"):
        low = int(cfg.sweep_variable == "tau_p")
        if any(v < low or not float(v).is_integer() for v in cfg.sweep_values):
            raise ConfigError(f"sweep.values: {cfg.sweep_variable} values must be "
                              f"integers >= {low}")
    schemes = {parse_curve(curve)[0] for curve in cfg.curves}
    if cfg.sweep_variable == "tau_ex" and SCHEME_DFT_EXT not in schemes:
        raise ConfigError("sweep.variable: a tau_ex sweep needs a dft_ext curve in run.curves")
    try:
        cfg.area()
    except ValueError as exc:  # SimArea names the offending area.* field first
        raise ConfigError(f"area.{exc}") from exc


# ---------------------------------------------------------------------------
# Trial execution
# ---------------------------------------------------------------------------

def _trial_streams(seed, trial, curve_index=None):
    if curve_index is None:
        return (np.random.default_rng(np.random.SeedSequence((seed, trial, 0))),
                np.random.default_rng(np.random.SeedSequence((seed, trial, 1))))
    return np.random.default_rng(np.random.SeedSequence((seed, trial, 2, curve_index)))


def configured_tau_ex(cfg, scheme, sweep_value):
    """A curve's extension as configured: 0, an integer or ``"auto_min"``."""
    if scheme != SCHEME_DFT_EXT:
        return 0
    if cfg.sweep_variable == "tau_ex":
        return int(sweep_value)
    return cfg.tau_ex


def trial_frames(cfg, sweep_value, trial):
    """Yield (curve, ReceivedFrame) for every configured curve of one trial.

    The network, large-scale gains and fading are drawn once and shared by
    all curves (paired comparison); each curve's pilot book, UPNG data and
    noise come from its own transmit stream, and the ``sync`` curve runs on
    the synchronized network. The sweep value sets the power, pilot length
    or extension; ``auto_min`` resolves to the curve network's largest
    in-cluster delay spread.
    """
    net_rng, fad_rng = _trial_streams(cfg.seed, trial)
    net = sample_topology(cfg.area(), cfg.cluster_size, net_rng)
    gains = draw_link_gains(net, net_rng, cfg.sigma_sh_db)
    p_ul = dbm_to_watts(sweep_value if cfg.sweep_variable == "p_dbm" else cfg.p_dbm)
    tau_p = int(sweep_value) if cfg.sweep_variable == "tau_p" else cfg.tau_p
    chan = draw_channels(net, gains, cfg.antennas, fad_rng, cfg.noise_w, p_ul)
    for ci, curve in enumerate(cfg.curves):
        scheme, regime = parse_curve(curve)
        tx_rng = _trial_streams(cfg.seed, trial, ci)
        cnet = net
        if scheme == CURVE_SYNC:
            cnet, scheme = synchronize(net), SCHEME_DFT
        tau_ex = configured_tau_ex(cfg, scheme, sweep_value)
        if tau_ex == "auto_min":
            tau_ex = delay_spread_min_extension(cnet)
        book = make_pilot_book(scheme, tau_p, tau_ex, cnet.n_ues, tx_rng,
                               phase_levels=cfg.phase_levels,
                               assignment=cfg.assignment,
                               ue_positions=cnet.ue_pos)
        yield curve, synthesize_frame(book, cnet, chan, regime, p_ul, tx_rng)


@dataclass
class TrialRecord:
    """Per-trial results for every configured curve, keyed by curve name.

    Fully reproducible from (config, seed, trial index): all randomness is
    drawn from substreams derived from those values.
    """

    trial: int
    seed: int
    sweep_value: float
    curves: dict


def run_trial(cfg, sweep_value, trial):
    """One Monte-Carlo trial at one sweep point: every curve on shared draws."""
    out = {}
    for curve, frame in trial_frames(cfg, sweep_value, trial):
        book = frame.book
        links = estimate_trial_links(frame)
        overhead = analytics.overhead_factor(cfg.tau_c, book.tau_p, book.tau_ex)
        rate = analytics.conjugate_bf_rate(frame.net, frame.chan.gains, links,
                                           p_dl=frame.p_ul, noise_w=cfg.noise_w,
                                           m_antennas=cfg.antennas, overhead=overhead)
        out[curve] = {
            "nmse": links.nmse,
            "se": rate.se_per_ue,
            "tau_ex": book.tau_ex,
            "ap": links.ap,
            "ue": links.ue,
            "desired_power": links.desired_power,
            "interference_power": links.interference_power,
            "noise_power": links.noise_power,
        }
    return TrialRecord(trial=trial, seed=cfg.seed, sweep_value=float(sweep_value),
                       curves=out)


def _trial_worker(args):
    cfg, sweep_value, trial = args
    return run_trial(cfg, sweep_value, trial)


@dataclass
class SweepResult:
    rows: list
    diag_rows: list = field(default_factory=list)


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def run_sweep(cfg, diag=False, progress=False):
    """Run the configured sweep and aggregate per (sweep value, curve).

    Per-link NMSE ratios are pooled over all trials of a point and reported
    as linear mean plus 10/90 percentiles in dB; the rate column is the mean
    per-UE spectral efficiency (unserved UEs count as zero).
    """
    validate_config(cfg)
    rows, diag_rows = [], []
    for sweep_value in cfg.sweep_values:
        tasks = [(cfg, sweep_value, trial) for trial in range(cfg.trials)]
        if cfg.workers > 1:
            with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
                trial_outputs = list(pool.map(_trial_worker, tasks))
        else:
            trial_outputs = [run_trial(*task) for task in tasks]
        for curve in cfg.curves:
            scheme, regime = parse_curve(curve)
            nmse = np.concatenate([out.curves[curve]["nmse"] for out in trial_outputs])
            se = np.concatenate([out.curves[curve]["se"] for out in trial_outputs])
            agg = analytics.nmse_aggregate(nmse)
            tau_p = int(sweep_value) if cfg.sweep_variable == "tau_p" else cfg.tau_p
            rows.append({
                "sweep_var": cfg.sweep_variable,
                "sweep_value": float(sweep_value),
                "scheme": scheme,
                "regime": regime,
                "tau_p": tau_p,
                "tau_ex": configured_tau_ex(cfg, scheme, sweep_value),
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
                        diag_rows.append({
                            "r": int(rec["ap"][i]),
                            "u": int(rec["ue"][i]),
                            "scheme": scheme,
                            "regime": regime,
                            "nmse": float(rec["nmse"][i]),
                            "desired_power": float(rec["desired_power"][i]),
                            "interference_power": float(rec["interference_power"][i]),
                            "noise_power": float(rec["noise_power"][i]),
                        })
        if progress:
            print(f"[cfpilot] sweep point {cfg.sweep_variable}={sweep_value} done",
                  file=sys.stderr)
    return SweepResult(rows=rows, diag_rows=diag_rows)


# ---------------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------------

def write_csv(rows, path, columns=CSV_COLUMNS):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[col]) for col in columns])


def write_jsonl(rows, path, columns=CSV_COLUMNS):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps({col: row[col] for col in columns}) + "\n")


def write_rows(rows, path, fmt, columns=CSV_COLUMNS):
    if fmt == "csv":
        write_csv(rows, path, columns)
    elif fmt == "jsonl":
        write_jsonl(rows, path, columns)
    else:
        raise ConfigError(f"out.format: unknown format {fmt!r}")


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
    """The random-vs-DFT cross-correlation table of ``crosscorr`` and ``figure fig3``.

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


FIGURE_IDS = ("fig3", "fig6", "fig7", "fig8", "fig9")

# fig7/fig9 pin the max-min assigner: the comparison against the synchronous
# baseline presumes co-pilot UEs are kept spatially distant, as systems
# normally do; round-robin leaves the baseline contamination-dominated by
# unlucky close co-pilot pairs.
_FIG_PRESETS = {
    "fig6": {"curves": ("random:upg", "random:upng", "dft:upg", "dft:upng", "sync")},
    "fig7": {"curves": ("dft:upg", "dft:upng", "dft_ext:upg", "sync"),
             "assignment": "maxmin_distance"},
    "fig8": {"curves": ("dft_ext:upg", "sync")},
    "fig9": {"curves": ("sync", "dft:upng", "dft_ext:upng"),
             "assignment": "maxmin_distance"},
}


def desk_scale_overrides(fig_id=None):
    """Shrink to 0.1 km^2 / 10 APs / mean 14 UEs at the full-scale densities.

    fig7 additionally drops the pilot length to 9 so that co-pilot UEs still
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
    if fig_id not in FIGURE_IDS or fig_id == "fig3":
        raise ConfigError(f"figure {fig_id!r} has no sweep preset")
    base = {
        "sweep_variable": "p_dbm",
        "sweep_values": P_DBM_GRID,
        "tau_ex": "auto_min",
    }
    base.update(_FIG_PRESETS[fig_id])
    if fig_id == "fig8":
        base.update(sweep_variable="tau_ex", sweep_values=tuple(range(0, 7)), p_dbm=20.0)
    if desk_scale:
        base.update(desk_scale_overrides(fig_id))
    base.update(overrides)
    return build_config(**base)


_KEY_OF = {attr: key for key, (attr, _) in CONFIG_KEYS.items()}


def run_figure(fig_id, desk_scale=False, out_path=None, fmt="csv", progress=False,
               **overrides):
    """Run a reproduction preset; returns (rows, extra) and writes if asked."""
    if fig_id not in FIGURE_IDS:
        raise ConfigError(f"unknown figure id {fig_id!r}")
    if fig_id == "fig3":
        seed = int(overrides.pop("seed", 1))
        unused = sorted(_KEY_OF.get(k, k) for k in overrides if k not in FIG3_PRESET)
        if desk_scale:
            unused.append("--desk-scale")
        if unused:
            raise ConfigError(f"figure fig3 does not use {', '.join(unused)}")
        rows = crosscorr_rows(seed, **overrides)
        if out_path:
            write_rows(rows, out_path, fmt, columns=CROSSCORR_COLUMNS)
        return rows, {"crossover": analytics.find_crossover(rows)}
    cfg = figure_config(fig_id, desk_scale=desk_scale, **overrides)
    result = run_sweep(cfg, progress=progress)
    if out_path:
        write_rows(result.rows, out_path, fmt)
    return result.rows, {"config": cfg}


def dump_frame(cfg, path, ap=0, sweep_value=None, trial=0):
    """Dump AP ``ap``'s received frame of the first curve, as ``run_trial`` builds it.

    The point is the first sweep value unless ``sweep_value`` is given, so the
    frame's power, pilot length and extension are those the sweep runs there.
    """
    if not 0 <= ap < cfg.ap_count:
        raise ConfigError(f"dump-frame: AP index {ap} out of range")
    value = cfg.sweep_values[0] if sweep_value is None else sweep_value
    _, frame = next(trial_frames(cfg, value, trial))
    write_frame_dump(path, frame.y[ap])
    return frame
