"""Command-line entry points: sweep, figure, crosscorr, dump-frame.

Exit codes: 0 success, 2 configuration error, 3 I/O error.
"""

import argparse
import sys

import numpy as np

from . import analytics, harness


def _add_common(parser):
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--seed", type=int, help="master random seed")
    parser.add_argument("--trials", type=int, help="Monte-Carlo trials per sweep point")
    parser.add_argument("--out", help="output file path")
    parser.add_argument("--format", choices=("csv", "jsonl"), help="output format")
    parser.add_argument("--workers", type=int, help="parallel trial workers")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a dotted config key (repeatable)")


FLAG_FIELDS = (("seed", "seed"), ("trials", "trials"), ("workers", "workers"),
               ("out", "out_path"), ("format", "out_format"))


def _config_fields(args):
    """Config field values from --config, then each --set, then the flags."""
    pairs = list(harness.parse_config_file(args.config).items()) if args.config else []
    for item in args.set:
        if "=" not in item:
            raise harness.ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        pairs.append(tuple(part.strip() for part in item.split("=", 1)))
    if args.command == "figure":
        for key, _ in pairs:
            if key in ("pilot.scheme", "frame.regime"):
                raise harness.ConfigError(
                    f"{key!r} does not apply to figure presets (use run.curves)")
    values = harness.config_fields(pairs)
    for flag, attr in FLAG_FIELDS:
        if getattr(args, flag) is not None:
            values[attr] = getattr(args, flag)
    return values


def build_parser():
    parser = argparse.ArgumentParser(prog="cfpilot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run the configured Monte-Carlo sweep")
    _add_common(p_sweep)
    p_sweep.add_argument("--diag", help="also write a per-link diagnostic CSV here")

    p_fig = sub.add_parser("figure", help="run a figure reproduction preset")
    p_fig.add_argument("figure_id", choices=harness.FIGURE_IDS)
    _add_common(p_fig)
    p_fig.add_argument("--desk-scale", action="store_true",
                       help="shrink to 0.1 km^2 at the full-scale densities")

    p_cc = sub.add_parser("crosscorr", help="random-vs-DFT cross-correlation table")
    p_cc.add_argument("--delay", type=int, default=harness.FIG3_PRESET["delay"])
    p_cc.add_argument("--tau-p-min", type=int, default=8)
    p_cc.add_argument("--tau-p-max", type=int, default=56)
    p_cc.add_argument("--tau-p-step", type=int, default=1)
    p_cc.add_argument("--trials", type=int, default=harness.FIG3_PRESET["trials"])
    p_cc.add_argument("--pair-mode", choices=("adjacent", "mean_pairs"),
                      default=harness.FIG3_PRESET["pair_mode"])
    p_cc.add_argument("--regime", choices=("upg", "upng"),
                      default=harness.FIG3_PRESET["regime"])
    p_cc.add_argument("--seed", type=int, default=1)
    p_cc.add_argument("--out")
    p_cc.add_argument("--format", choices=("csv", "jsonl"), default="csv")

    p_dump = sub.add_parser("dump-frame", help="write one AP's received frame as binary")
    _add_common(p_dump)
    p_dump.add_argument("--ap", type=int, default=0, help="AP index to dump")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sweep":
            cfg = harness.build_config(**_config_fields(args))
            result = harness.run_sweep(cfg, diag=bool(args.diag), progress=True)
            out = cfg.out_path or "sweep_results." + cfg.out_format
            harness.write_rows(result.rows, out, cfg.out_format)
            if args.diag:
                harness.write_csv(result.diag_rows, args.diag, columns=harness.DIAG_COLUMNS)
            print(out)
        elif args.command == "figure":
            values = _config_fields(args)
            fmt = values.pop("out_format", "csv")
            out = values.pop("out_path", None) or f"{args.figure_id}.{fmt}"
            _, info = harness.run_figure(args.figure_id, desk_scale=args.desk_scale,
                                         out_path=out, fmt=fmt, progress=True, **values)
            print(f"{out} crossover={info['crossover']}" if args.figure_id == "fig3" else out)
        elif args.command == "crosscorr":
            rng = np.random.default_rng(np.random.SeedSequence((args.seed, 3)))
            rows = analytics.crosscorr_comparison(
                range(args.tau_p_min, args.tau_p_max + 1, args.tau_p_step),
                args.delay, rng, trials=args.trials, pair_mode=args.pair_mode,
                regime=args.regime)
            out = args.out or "crosscorr." + args.format
            harness.write_rows(rows, out, args.format, columns=harness.CROSSCORR_COLUMNS)
            print(f"{out} crossover={analytics.find_crossover(rows)}")
        elif args.command == "dump-frame":
            cfg = harness.build_config(**_config_fields(args))
            out = cfg.out_path or "frame.bin"
            harness.dump_frame(cfg, out, ap=args.ap)
            print(out)
    except harness.ConfigError as exc:
        print(f"cfpilot: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cfpilot: i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
