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

from . import analytics, pilots
from .airframe import REGIMES, synthesize_frame, write_frame_dump
from .channel import dbm_to_watts, draw_channels, draw_link_gains
from .estimator import estimate_trial_links
from .geometry import SimArea, delay_spread_min_extension, sample_topology, synchronize
from .pilots import (ASSIGN_MAXMIN_DISTANCE, ASSIGNMENTS, SCHEMES, SCHEME_DFT, SCHEME_DFT_EXT,
                     make_pilot_book)

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


POSITIVE, NONNEGATIVE = "positive", "nonnegative"


def _key(name, default, kind=None, bound=None, choices=None):
    """A config field: dotted key, parse kind (default: its type), bound and allowed set."""
    return field(default=default,
                 metadata=dict(key=name, kind=kind, bound=bound, choices=choices))


@dataclass
class ExperimentConfig:
    side_m: float = _key("area.side_m", math.sqrt(FULL_SCALE_AREA_KM2) * 1000.0)
    ap_count: int = _key("area.ap_count", 70)
    ue_mean: float = _key("area.ue_mean", 98.0)
    gamma_m: float = _key("area.gamma_m", 20.0)
    bw_hz: float = _key("sys.bw_hz", 20e6, bound=POSITIVE)
    cluster_size: int = _key("cluster.size", 4, bound=POSITIVE)
    seed: int = _key("seed", 1, bound=NONNEGATIVE)
    sigma_sh_db: float = _key("chan.sigma_sh_db", 4.0, bound=NONNEGATIVE)
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


def build_config(file_overrides=None, **direct):
    """Assemble an ExperimentConfig from dotted-key overrides plus field values."""
    values = config_fields((file_overrides or {}).items())
    values.update(direct)
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
        bound, choices = meta["bound"], meta["choices"]
        if meta["kind"] == "tau_ex" and not isinstance(value, int):
            if value == "auto_min":
                continue
            raise ConfigError(f"{key}: expected integer or 'auto_min', got {value!r}")
        if f.type is float and not math.isfinite(value):
            raise ConfigError(f"{key}: must be finite")
        if bound and not (value > 0 if bound == POSITIVE else value >= 0):
            raise ConfigError(f"{key}: must be {bound}")
        if choices and value not in choices:
            raise ConfigError(f"{key}: unknown value {value!r}, expected one of "
                              f"{', '.join(choices)}")

    if not cfg.sweep_values:
        raise ConfigError("sweep.values: need at least one value")
    if not cfg.curves:
        raise ConfigError("run.curves: need at least one curve")
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


def trial_frames(cfg, sweep_value, trial):
    """Yield (curve, ReceivedFrame) for every configured curve of one trial.

    Power, pilot length and extension are read from the sweep point's config
    (:func:`point_config`). The network, large-scale gains, fading and pilot
    assignment are drawn once and shared by all curves (paired comparison);
    each curve's pilot book, UPNG data and noise come from its own transmit
    stream, and the ``sync`` curve runs on the synchronized network, which
    keeps the UE positions the assignment depends on. Only ``dft_ext``
    curves are extended; ``auto_min`` resolves to the curve network's
    largest in-cluster delay spread.
    """
    pc = point_config(cfg, sweep_value)
    net_rng = _stream(pc.seed, trial, 0)
    net = sample_topology(pc.area(), pc.cluster_size, net_rng)
    gains = draw_link_gains(net, net_rng, pc.sigma_sh_db)
    chan = draw_channels(net, gains, pc.antennas, _stream(pc.seed, trial, 1), pc.noise_w)
    p_ul = dbm_to_watts(pc.p_dbm)
    assignment = (pilots.assign_maxmin_distance(net.ue_pos, pc.tau_p)
                  if pc.assignment == ASSIGN_MAXMIN_DISTANCE else None)
    for ci, curve in enumerate(pc.curves):
        scheme, regime = parse_curve(curve)
        tx_rng = _stream(pc.seed, trial, 2, ci)
        cnet = net
        if scheme == CURVE_SYNC:
            cnet, scheme = synchronize(net), SCHEME_DFT
        tau_ex = pc.tau_ex if scheme == SCHEME_DFT_EXT else 0
        if tau_ex == "auto_min":
            tau_ex = delay_spread_min_extension(cnet)
        book = make_pilot_book(scheme, pc.tau_p, tau_ex, cnet.n_ues, tx_rng,
                               phase_levels=pc.phase_levels, assignment=assignment)
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
        pc = point_config(cfg, sweep_value)
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
            rows.append({
                "sweep_var": cfg.sweep_variable,
                "sweep_value": float(sweep_value),
                "scheme": scheme,
                "regime": regime,
                "tau_p": pc.tau_p,
                "tau_ex": pc.tau_ex if scheme == SCHEME_DFT_EXT else 0,
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
    """Write ``rows`` as CSV or JSONL; a non-finite value is refused before the file opens."""
    for row in rows:
        for col in columns:
            if isinstance(row[col], float) and not math.isfinite(row[col]):
                # the sweep point and curve, on the rows that have them
                where = ", ".join(f"{k}={_fmt(row[k])}" for k in CSV_COLUMNS[:4] if k in row)
                raise ConfigError(f"{col} is {row[col]} ({where}); nothing is written")
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
    "fig8": {"curves": ("dft_ext:upg", "sync"), "sweep_variable": "tau_ex",
             "sweep_values": tuple(range(7))},
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
    base = dict(_FIG_PRESETS[fig_id])
    if desk_scale:
        base.update(desk_scale_overrides(fig_id))
    base.update(overrides)
    return build_config(**base)


def run_figure(fig_id, desk_scale=False, progress=False, **overrides):
    """Run a reproduction preset; returns (rows, extra), written to ``out_path`` if given."""
    if fig_id not in FIGURE_IDS:
        raise ConfigError(f"unknown figure id {fig_id!r}")
    if fig_id == "fig3":
        cfg = build_config(**{name: overrides.pop(name) for name in
                              ("seed", "out_path", "out_format") if name in overrides})
        key_of = {f.name: key for key, f in CONFIG_KEYS.items()}
        unused = sorted(key_of.get(k, k) for k in overrides if k not in FIG3_PRESET)
        if desk_scale:
            unused.append("--desk-scale")
        if unused:
            raise ConfigError(f"figure fig3 does not use {', '.join(unused)}")
        rows, columns = crosscorr_rows(cfg.seed, **overrides), CROSSCORR_COLUMNS
        extra = {"crossover": analytics.find_crossover(rows)}
    else:
        cfg = figure_config(fig_id, desk_scale=desk_scale, **overrides)
        rows, columns = run_sweep(cfg, progress=progress).rows, CSV_COLUMNS
        extra = {"config": cfg}
    if cfg.out_path:
        write_rows(rows, cfg.out_path, cfg.out_format, columns=columns)
    return rows, extra


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
