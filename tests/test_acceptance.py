"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The full-scale checks
(criteria 5b and 9) share one 500-trial Monte-Carlo fixture and are marked
``slow``; everything else runs at desk scale or on closed forms. Runtime on
a 2-core host: the fixture takes ~4 min, and criterion 9 adds ~2 min of its
own for the downlink Monte-Carlo (300 draws of two curves on two full-scale
networks, ~25 s each).
"""

import time

import numpy as np
import pytest
from downlink_oracle import batch_stderr, downlink_oracle, frozen_curve
from oracles import empirical_covariance_oracle, link_covariances

from cfpilot import analytics
from cfpilot.airframe import REGIME_UPG, REGIME_UPNG, synthesize_frame
from cfpilot.channel import LinkGains, draw_channels, draw_link_gains
from cfpilot.estimator import estimate_trial_links
from cfpilot.geometry import (
    SimArea,
    delay_spread_min_extension,
    sample_topology,
    topology_from_positions,
)
from cfpilot.harness import (
    build_config,
    desk_scale_overrides,
    figure_config,
    run_figure,
    run_sweep,
    run_trial,
    write_rows,
)
from cfpilot.pilots import dft_sequence, make_mf_sequence, make_pilot_book, window_counts

DESK_AREA = SimArea(side_m=316.2277660168379, ap_count=10, ue_mean=14.0,
                    gamma_m=20.0, tau_smp_s=50e-9)


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def curve_table(rows):
    """rows -> {(scheme, regime): {sweep_value: row}}"""
    out = {}
    for row in rows:
        out.setdefault((row["scheme"], row["regime"]), {})[row["sweep_value"]] = row
    return out


# ---------------------------------------------------------------------------
# shared Monte-Carlo runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def fig7_desk_rows():
    rows, _ = run_figure("fig7", desk_scale=True, seed=1)
    return rows


@pytest.fixture(scope="session")
def full_scale_rows():
    # one 20 dBm full-scale run feeds both the NMSE-gap and the rate checks
    cfg = figure_config("fig7", sweep_values=(20.0,), trials=500, seed=1,
                        curves=("dft:upg", "dft:upng", "dft_ext:upg",
                                "dft_ext:upng", "sync"))
    return run_sweep(cfg).rows


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_exact_orthogonality_restoration():
    t0 = time.time()
    worst = 0.0
    rng = np.random.default_rng(101)
    tau_p = 32
    for _ in range(100):
        net = sample_topology(DESK_AREA, 4, rng)
        tau_ex = delay_spread_min_extension(net)
        book = make_pilot_book("dft_ext", tau_p, tau_ex, net.n_ues, rng)
        for r in range(net.n_aps):
            pilot_mat = analytics.pilot_matrix(book, net, r)
            for u in net.serving[r]:
                u = int(u)
                mf = make_mf_sequence(book, net, r, u)
                inner = np.abs(pilot_mat @ mf.row.conj())
                # the covered UEs: those whose pilots fill the MF window
                others = (mf.pilot == tau_p) & (book.assignment != book.assignment[u])
                if others.any():
                    worst = max(worst, float(inner[others].max()))
    elapsed = time.time() - t0
    ok = worst <= 1e-9 * tau_p and elapsed < 60
    report(1, ok, f"max |MF interference| from non-co-pilot covered UEs = "
                  f"{worst:.3e} (tol {1e-9 * tau_p:.1e}), {elapsed:.1f}s on 100 networks")


def _brute_power_grid(tau_p, regime):
    """All-pairs brute-force expected MF powers for every delay offset.

    Returns dict (t_u, t_other) -> (tau_p, tau_p) array over (m, n): the
    squared pilot inner product plus the data-sample count in the window.
    """
    rows = np.exp(2j * np.pi * np.outer(np.arange(tau_p), np.arange(tau_p)) / tau_p)
    out = {}
    for delta in range(0, tau_p + 1):
        for t_u, t_other in ((delta, 0), (0, delta)):
            t_max = max(t_u, t_other)
            total = tau_p + t_max
            mf = np.zeros((tau_p, total), dtype=complex)
            mf[:, t_u:t_u + tau_p] = rows
            pil = np.zeros((tau_p, total), dtype=complex)
            pil[:, t_other:t_other + tau_p] = rows
            cross = pil @ mf.conj().T  # [n, m]
            power = np.abs(cross.T) ** 2  # [m, n]
            if regime == REGIME_UPNG:
                window = np.zeros(total, dtype=bool)
                window[t_u:t_u + tau_p] = True
                data = np.arange(total) >= t_other + tau_p
                power = power + int((window & data).sum())
            out[(t_u, t_other)] = power
    return out


def test_criterion_2_closed_form_vs_bruteforce():
    t0 = time.time()
    worst = 0.0
    for tau_p in (4, 8, 16, 32):
        for regime in (REGIME_UPG, REGIME_UPNG):
            brute = _brute_power_grid(tau_p, regime)
            m, n = np.indices((tau_p, tau_p))
            for (t_u, t_other), grid in brute.items():
                pilot, data = window_counts(t_u, tau_p, t_other, tau_p)
                closed = (analytics.dft_cross_power(m - n, tau_p, pilot)
                          + data * (regime == REGIME_UPNG))
                err = np.abs(closed - grid) / np.maximum(np.maximum(grid, closed), 1e-9)
                worst = max(worst, float(err[m != n].max()))
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 60
    report(2, ok, f"max relative error closed-form vs brute force = {worst:.2e} "
                  f"over exhaustive grid, {elapsed:.1f}s")


def test_criterion_3_appendix_identity():
    t0 = time.time()
    worst = 0.0
    for tau_p in (4, 8, 16, 32):
        k = np.arange(1, tau_p)[:, None]
        ov = np.arange(1, tau_p + 1)[None, :]
        cos_form = ((1 - np.cos(2 * np.pi * k * ov / tau_p))
                    / (1 - np.cos(2 * np.pi * k / tau_p)))
        sin_form = (np.sin(np.pi * k * ov / tau_p) / np.sin(np.pi * k / tau_p)) ** 2
        # absolute floor covers the exact-zero lattice points, where the two
        # float rounding paths leave ~1e-26 residue on one side only
        err = np.abs(cos_form - sin_form) / np.maximum(
            np.maximum(np.abs(cos_form), np.abs(sin_form)), 1.0)
        worst = max(worst, float(err.max()))
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed < 60
    report(3, ok, f"max relative deviation cosine vs sine form = {worst:.2e}, "
                  f"{elapsed:.1f}s")


def test_criterion_4_covariance_oracle():
    t0 = time.time()
    delays = [2, 3, 5, 9, 14]
    ue = [[d * 15.0 + 1.0, 0.0] for d in delays]
    area = SimArea(side_m=836.660026534076, ap_count=1, ue_mean=5.0,
                   gamma_m=0.0, tau_smp_s=50e-9)
    net = topology_from_positions(area, [[0.0, 0.0]], ue, cluster_size=5)
    gains = LinkGains(beta=np.array([[1.0, 0.8, 1.3, 0.5, 2.0]]),
                      psi=np.ones((1, 5)))
    noise_w, p_ul, m_ant, u = 0.2, 0.5, 4, 3
    tau_p = 16
    worst = 0.0
    for scheme in ("random", "dft", "dft_ext"):
        tau_ex = delay_spread_min_extension(net) if scheme == "dft_ext" else 0
        book = make_pilot_book(scheme, tau_p, tau_ex, 5, np.random.default_rng(0))
        for regime in (REGIME_UPG, REGIME_UPNG):
            _, _, ys = link_covariances(book, net, gains, regime, noise_w, p_ul,
                                        m_antennas=m_ant)
            ys = ys[0, u]
            emp = empirical_covariance_oracle(
                book, net, gains, regime, 0, u, noise_w, p_ul, 100_000,
                np.random.default_rng(7), m_antennas=m_ant)
            diag = np.diag(emp.sigma_y).real
            worst = max(worst, float(np.abs(diag / ys - 1).max()))
    elapsed = time.time() - t0
    ok = worst <= 0.03 and elapsed < 300
    report(4, ok, f"max diagonal relative error closed vs empirical = "
                  f"{worst:.4f} at 1e5 trials, all scheme x regime, {elapsed:.0f}s")


def test_criterion_5a_fig7_desk(fig7_desk_rows):
    table = curve_table(fig7_desk_rows)
    sync = table[("sync", "upg")]
    ext = table[("dft_ext", "upg")]
    plain = table[("dft", "upg")]
    gaps = {p: ext[p]["nmse_db_mean"] - sync[p]["nmse_db_mean"] for p in sync}
    worst_gap = max(abs(g) for g in gaps.values())
    plain_gap_20 = plain[20.0]["nmse_db_mean"] - sync[20.0]["nmse_db_mean"]
    ok = worst_gap <= 0.5 and plain_gap_20 >= 3.0
    report("5a", ok, f"desk scale: max |ext - sync| = {worst_gap:.2f} dB over all "
                     f"power points (tol 0.5); plain DFT worse than sync by "
                     f"{plain_gap_20:.2f} dB at 20 dBm (need >= 3)")


@pytest.mark.slow
def test_criterion_5b_full_scale_gap(full_scale_rows):
    table = curve_table(full_scale_rows)
    gap = (table[("dft", "upg")][20.0]["nmse_db_mean"]
           - table[("dft_ext", "upg")][20.0]["nmse_db_mean"])
    ok = gap >= 5.0 and abs(gap - 7.26) <= 2.0
    report("5b", ok, f"full scale: extended-vs-plain NMSE gap at 20 dBm = "
                     f"{gap:.2f} dB (need >= 5 and within 7.26 +/- 2)")


def test_criterion_6_fig6_ordering():
    rows, _ = run_figure("fig6", desk_scale=True, seed=1)
    table = curve_table(rows)
    ok = True
    details = []
    for p in sorted(table[("dft", "upg")]):
        dft_upg = table[("dft", "upg")][p]["nmse_db_mean"]
        dft_upng = table[("dft", "upng")][p]["nmse_db_mean"]
        r_upg = table[("random", "upg")][p]["nmse_db_mean"]
        r_upng = table[("random", "upng")][p]["nmse_db_mean"]
        point_ok = dft_upg <= dft_upng and dft_upg <= r_upg <= r_upng
        ok &= point_ok
        if not point_ok:
            details.append(f"p={p}: dft_upg={dft_upg:.2f} dft_upng={dft_upng:.2f} "
                           f"rand_upg={r_upg:.2f} rand_upng={r_upng:.2f}")
    report(6, ok, "desk scale tau_p=32: DFT_UPG <= DFT_UPNG and "
                  "DFT_UPG <= Random_UPG <= Random_UPNG at every power point"
                  + ("; violations: " + "; ".join(details) if details else ""))


def test_criterion_7_fig3_shape():
    rows, info = run_figure("fig3", seed=1)
    taus = np.array([r["tau_p"] for r in rows])
    rand = np.array([r["random_expected"] for r in rows])
    dft = np.array([r["dft_closed"] for r in rows])
    delay = rows[0]["delay"]
    # random curve: linear ramp of unit slope once the sequences overlap
    live = taus > delay + 1
    slope = np.diff(rand[live])
    linear = np.allclose(slope, 1.0)
    # DFT curve: super-linear growth past the onset (increasing increments)
    post = dft[taus >= delay + 2][:8]
    superlinear = (np.diff(post, 2) > 0).all() and post[-1] - post[0] > (
        rand[taus >= delay + 2][7] - rand[taus >= delay + 2][0])
    crossover = info["crossover"]
    ok = linear and superlinear and crossover is not None and 30 <= crossover <= 46
    report(7, ok, f"random slope 1 per sample: {linear}; DFT super-linear: "
                  f"{superlinear}; crossover at tau_p={crossover} (band [30, 46])")


def test_criterion_8_extension_trend():
    rows, _ = run_figure("fig8", desk_scale=True, seed=1)
    table = curve_table(rows)
    ext = table[("dft_ext", "upg")]
    values = [ext[v]["nmse_db_mean"] for v in sorted(ext)]
    diffs = np.diff(values)
    ok = (diffs <= 1e-9).all()
    report(8, ok, f"desk scale, 20 dBm: mean NMSE over tau_ex=0..6 = "
                  f"{[f'{v:.2f}' for v in values]} dB, non-increasing: {ok}")


@pytest.mark.slow
def test_criterion_9_rate_trend(full_scale_rows):
    # The abstract's +40% rate gain rests on a rate expression, downlink
    # power and tau_c that the paper does not give; under the pinned bound
    # (cfpilot/analytics.py) it is not reproduced, so the magnitude is
    # printed, not asserted. Asserted: the paper's direction, closeness to
    # the synchronous baseline, and that the pipeline computes its bound:
    # on the fixture's first two networks the per-curve mean SE and the
    # ext - plain gain must match an independent downlink Monte-Carlo
    # (tests/downlink_oracle.py) within three batch-means standard errors.
    table = curve_table(full_scale_rows)
    ext = table[("dft_ext", "upng")][20.0]["rate_mean_bps_hz"]
    plain = table[("dft", "upng")][20.0]["rate_mean_bps_hz"]
    sync = table[("sync", "upg")][20.0]["rate_mean_bps_hz"]
    gap = ext - plain
    rel = (ext - plain) / plain
    within_sync = ext >= 0.9 * sync

    cfg = figure_config("fig7", sweep_values=(20.0,), trials=500, seed=1,
                        curves=("dft:upg", "dft:upng", "dft_ext:upg",
                                "dft_ext:upng", "sync"))
    pair = ("dft:upng", "dft_ext:upng")
    worst = 0.0
    for trial in (0, 1):
        record = run_trial(cfg, 20.0, trial)
        oracle = {c: downlink_oracle(frozen_curve(cfg, 20.0, trial, c), cfg.antennas,
                                     cfg.noise_w, cfg.tau_c, draws=300, n_batches=30,
                                     seed=trial)
                  for c in pair}
        pipe = {c: record.curves[c]["se"].mean() for c in pair}
        batch_means = {c: oracle[c].se_batches.mean(axis=1) for c in pair}
        for c in pair:
            dev = (pipe[c] - oracle[c].se_mean) / batch_stderr(batch_means[c])
            worst = max(worst, abs(dev))
        gain_pipe = pipe[pair[1]] - pipe[pair[0]]
        gain_oracle = oracle[pair[1]].se_mean - oracle[pair[0]].se_mean
        gain_se = batch_stderr(batch_means[pair[1]] - batch_means[pair[0]])
        worst = max(worst, abs(gain_pipe - gain_oracle) / gain_se)

    ok = gap > 0 and within_sync and worst <= 3.0
    report(9, ok, f"full scale at 20 dBm: ext - plain = {gap:.3f} b/s/Hz, "
                  f"{100 * rel:+.1f}% (need > 0; the paper's +40% is not "
                  f"reproduced under the pinned bound); ext/sync = "
                  f"{ext / sync:.3f} (need >= 0.9); pipeline vs downlink "
                  f"Monte-Carlo on trials 0-1, mean SE and gain: worst "
                  f"{worst:.2f} standard errors (need <= 3)")


def test_criterion_10_determinism(tmp_path):
    base = dict(desk_scale_overrides(), trials=3, seed=12, tau_p=8,
                sweep_values=(-4.0, 20.0), curves=("dft:upg", "sync"))
    paths = []
    for name, workers in (("a", 1), ("b", 1), ("c", 3)):
        res = run_sweep(build_config(**dict(base, workers=workers)))
        path = tmp_path / f"{name}.csv"
        write_rows(res.rows, path, "csv")
        paths.append(path.read_bytes())
    ok = paths[0] == paths[1] == paths[2]
    report(10, ok, "identical config+seed give byte-identical CSV at 1 and 3 workers")


def test_criterion_11_lmmse_sanity():
    # single UE through the full pipeline: expected NMSE (ratio of summed
    # error energy to summed channel energy) matches c/(tau_p^2 b + c)
    area = SimArea(side_m=836.660026534076, ap_count=1, ue_mean=1.0,
                   gamma_m=20.0, tau_smp_s=50e-9)
    net = topology_from_positions(area, [[0.0, 0.0]], [[150.0, 0.0]], cluster_size=1)
    gains = LinkGains(beta=np.array([[2.0e-9]]), psi=np.array([[1.0]]))
    tau_p, m_ant, p_ul, noise_w = 32, 8, 1e-3, 1e-14
    c = noise_w * tau_p / p_ul
    b = gains.gain[0, 0]
    expected = c / (tau_p**2 * b + c)
    book = make_pilot_book("dft", tau_p, 0, 1, np.random.default_rng(0))
    rng = np.random.default_rng(42)
    num = den = 0.0
    for _ in range(10_000):
        chan = draw_channels(net, gains, m_ant, rng, noise_w)
        frame = synthesize_frame(book, net, chan, REGIME_UPG, p_ul, rng)
        links = estimate_trial_links(frame)
        h = chan.h[0, 0]
        e2 = links.nmse[0] * np.vdot(h, h).real
        num += e2
        den += np.vdot(h, h).real
    got = num / den
    ok = abs(got / expected - 1) <= 0.03
    report(11, ok, f"single-UE expected NMSE {got:.4e} vs closed form "
                   f"{expected:.4e} ({100 * abs(got / expected - 1):.2f}% off, "
                   f"tol 3%) over 1e4 trials")
