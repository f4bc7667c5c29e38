"""Per-link reference outputs and the rule that a change to them must keep.

    PYTHONPATH=src python tests/per_link.py            # largest change per preset, curve, point
    PYTHONPATH=src python tests/per_link.py --record   # re-record the reference file

The reference holds, at full precision, every served link's NMSE and every
UE's spectral efficiency of the seed-1 runs in ``CASES``, trials in order.
The figure-CSV digests show only that bytes changed; this file shows by how
much, link by link.

The rule: a link's NMSE may move by a relative ``NMSE_REL`` plus
``CANCEL * eps / sqrt(nmse)``, and a UE's SE by a relative ``SE_REL``. The
second NMSE term is the rounding of the estimate error h - g*y itself: g*y
carries a rounding error of order eps*|h|, so the error's relative rounding
grows as |h|/|h - g*y| = 1/sqrt(nmse). On the desk ``sync`` links near
-100 dB, where that cancellation is deepest on these presets, two OpenBLAS
kernels already disagree by up to 2.6e-11 (SkylakeX against Haswell), an
eighth of the rule's bound there.
"""

import argparse
import os
import sys

import numpy as np

from cfpilot import harness
from cfpilot.harness import TrialDraws, figure_config, run_trial

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                         "per_link_reference.npz")

NMSE_REL = 1e-12
CANCEL = 64.0
SE_REL = 1e-12
EPS = np.finfo(float).eps

# name -> (figure, desk scale, trials, sweep values or None for the preset's own)
CASES = {
    "fig6-desk": ("fig6", True, 20, (-12.0, 20.0)),
    "fig7-desk": ("fig7", True, 20, (-36.0, 20.0)),
    "fig8-desk": ("fig8", True, 20, None),
    "fig9-desk": ("fig9", True, 20, (-36.0, 20.0)),
    "fig7-full": ("fig7", False, 3, (-36.0, 20.0)),
}


def case_config(name):
    fig, desk, trials, values = CASES[name]
    return figure_config(fig, desk_scale=desk, trials=trials, seed=1,
                         **({"sweep_values": values} if values else {}))


def outputs(name):
    """{"<case>/<curve>/<point>/nmse" or ".../se": array} of one case, trials concatenated.

    Trials run as ``run_sweep`` runs them, one BLAS thread and one
    ``TrialDraws`` per trial.
    """
    cfg = case_config(name)
    parts = {}
    previous = harness._set_blas_threads(1)
    try:
        for trial in range(cfg.trials):
            draws = TrialDraws(cfg, trial)
            for value in cfg.sweep_values:
                for curve, rec in run_trial(cfg, value, trial, draws).curves.items():
                    for field in ("nmse", "se"):
                        key = f"{name}/{curve}/{value:g}/{field}"
                        parts.setdefault(key, []).append(rec[field])
    finally:
        if previous is not None:
            harness._set_blas_threads(previous)
    return {key: np.concatenate(arrays) for key, arrays in parts.items()}


def all_outputs():
    out = {}
    for name in CASES:
        out.update(outputs(name))
    return out


def load_reference():
    with np.load(REFERENCE) as data:
        return {key: data[key] for key in data.files}


def bound(field, want):
    """The rule's absolute bound on a change of each reference value ``want`` of
    ``field``, "nmse" or "se"."""
    if field == "se":
        return SE_REL * want
    return NMSE_REL * want + CANCEL * EPS * np.sqrt(want)


def compare(got, want):
    """One row per reference key: (key, largest relative change, NMSE of that entry
    or None for SE, largest change over its bound); a missing or misshapen key is
    an infinite change."""
    rows = []
    for key in sorted(want):
        w = want[key]
        g = got.get(key)
        if g is None or g.shape != w.shape:
            rows.append((key, np.inf, None, np.inf))
            continue
        field = key.rsplit("/", 1)[1]
        diff = np.abs(g - w)
        # a change of a zero reference value is infinite
        rel = np.divide(diff, w, out=np.where(diff > 0, np.inf, 0.0), where=w > 0)
        ratio = np.divide(diff, bound(field, w), out=np.where(diff > 0, np.inf, 0.0), where=w > 0)
        i = int(np.argmax(rel))
        rows.append((key, float(rel[i]), float(w[i]) if field == "nmse" else None,
                     float(ratio.max())))
    return rows


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true", help="re-record the reference file")
    args = parser.parse_args(argv)
    got = all_outputs()
    if args.record:
        os.makedirs(os.path.dirname(REFERENCE), exist_ok=True)
        np.savez_compressed(REFERENCE, **got)
        print(f"{len(got)} arrays -> {REFERENCE}")
        return 0
    rows = compare(got, load_reference())
    print(f"{'case/curve/point/field':44s} {'max rel change':>15s} {'at NMSE (dB)':>13s} "
          f"{'max / bound':>12s}")
    for key, rel, nmse, ratio in rows:
        at = "" if nmse is None else f"{10 * np.log10(nmse):13.1f}"
        print(f"{key:44s} {rel:15.3g} {at:>13s} {ratio:12.3g}")
    worst = max(ratio for *_, ratio in rows)
    print(f"rule {'holds' if worst <= 1 else 'broken'}: largest change over bound {worst:.3g}")
    return 0 if worst <= 1 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
