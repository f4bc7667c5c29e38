"""Command-line entry points: sweep, figure, crosscorr, dump-frame.

Exit codes: 0 success, 2 configuration error (including an infeasible UE
placement), 3 I/O error.
"""

import argparse
import sys

from . import analytics, harness
from .geometry import PlacementError


FORMATS = harness.CONFIG_KEYS["out.format"].metadata["choices"]


def _add_common(parser):
    # a flag whose dest is an ExperimentConfig field overrides that field
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--seed", type=int, help="master random seed")
    parser.add_argument("--trials", type=int, help="Monte-Carlo trials per sweep point")
    parser.add_argument("--out", dest="out_path", help="output file path")
    parser.add_argument("--format", dest="out_format", choices=FORMATS, help="output format")
    parser.add_argument("--workers", type=int, help="parallel trial workers")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a dotted config key (repeatable)")


def _config_fields(args):
    """Config field values from --config, then each --set, then the flags."""
    pairs = list(harness.parse_config_file(args.config).items()) if args.config else []
    for item in args.set:
        if "=" not in item:
            raise harness.ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        pairs.append(tuple(part.strip() for part in item.split("=", 1)))
    values = harness.config_fields(pairs)
    for f in harness.CONFIG_KEYS.values():
        if getattr(args, f.name, None) is not None:
            values[f.name] = getattr(args, f.name)
    return values


def build_parser():
    parser = argparse.ArgumentParser(prog="cfpilot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run the configured Monte-Carlo sweep")
    _add_common(p_sweep)
    p_sweep.add_argument("--diag", help="also write a per-link diagnostic CSV here")

    p_fig = sub.add_parser("figure", help="run a figure's sweep preset "
                                          "(the fig3 table is written by crosscorr)")
    p_fig.add_argument("figure_id", choices=harness.FIGURE_IDS)
    _add_common(p_fig)
    p_fig.add_argument("--desk-scale", action="store_true",
                       help="shrink to 0.1 km^2 at the full-scale densities")
    p_fig.set_defaults(diag=None)

    p_cc = sub.add_parser("crosscorr", help="random-vs-DFT cross-correlation table (fig3)")
    for flag in ("--delay", "--tau-p-min", "--tau-p-max", "--tau-p-step", "--trials"):
        p_cc.add_argument(flag, type=int,
                          default=harness.FIG3_PRESET[flag[2:].replace("-", "_")])
    p_cc.add_argument("--pair-mode", choices=("adjacent", "mean_pairs"),
                      default=harness.FIG3_PRESET["pair_mode"])
    p_cc.add_argument("--regime", choices=("upg", "upng"),
                      default=harness.FIG3_PRESET["regime"])
    p_cc.add_argument("--seed", type=int, default=1)
    p_cc.add_argument("--out")
    p_cc.add_argument("--format", choices=FORMATS, default=FORMATS[0])

    p_dump = sub.add_parser("dump-frame", help="write one AP's received frame as binary")
    _add_common(p_dump)
    p_dump.add_argument("--ap", type=int, default=0, help="AP index to dump")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("sweep", "figure"):
            values = _config_fields(args)
            if args.command == "figure":
                cfg = harness.figure_config(args.figure_id, desk_scale=args.desk_scale, **values)
            else:
                cfg = harness.build_config(**values)
            result = harness.run_sweep(cfg, diag=bool(args.diag), progress=True)
            name = getattr(args, "figure_id", "sweep_results")
            out = cfg.out_path or f"{name}.{cfg.out_format}"
            harness.write_rows(result.rows, out, cfg.out_format)
            if args.diag:
                harness.write_rows(result.diag_rows, args.diag, "csv",
                                   columns=harness.DIAG_COLUMNS)
            print(out)
        elif args.command == "crosscorr":
            rows = harness.crosscorr_rows(
                args.seed, **{name: getattr(args, name) for name in harness.FIG3_PRESET})
            out = args.out or "crosscorr." + args.format
            harness.write_rows(rows, out, args.format, columns=harness.CROSSCORR_COLUMNS)
            print(f"{out} crossover={analytics.find_crossover(rows)}")
        elif args.command == "dump-frame":
            cfg = harness.build_config(**_config_fields(args))
            out = cfg.out_path or "frame.bin"
            harness.dump_frame(cfg, out, ap=args.ap)
            print(out)
    except (harness.ConfigError, PlacementError) as exc:
        print(f"cfpilot: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cfpilot: i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
