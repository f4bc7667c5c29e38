from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from downlink_oracle import batch_stderr, downlink_oracle, frozen_curve
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import (
    conjugate_bf_rate_add_at,
    conjugate_bf_rate_loop,
    dft_cross_power_where,
    empirical_covariance_oracle,
    link_covariances,
    link_profile,
    trial_frames,
    uncontaminated_links,
)

from cfpilot.airframe import synthesize_frame
from cfpilot.analytics import (
    conjugate_bf_rate,
    cross_powers,
    crosscorr_comparison,
    dft_cross_power,
    find_crossover,
    interference_profile,
    nmse_aggregate,
    overhead_factor,
    pilot_matrix,
    rate_operands,
)
from cfpilot.channel import LinkGains, draw_channels, sample_fading
from cfpilot.estimator import estimate_trial_links
from cfpilot.geometry import SimArea, topology_from_positions
from cfpilot.harness import figure_config, run_trial
from cfpilot.pilots import (REGIME_UPG, REGIME_UPNG, make_mf_sequence, make_pilot_book,
                            window_counts)

AREA = SimArea(side_m=836.660026534076, ap_count=1, ue_mean=1.0, gamma_m=20.0,
               tau_smp_s=50e-9)


def toy_net(delays_samples, cluster_size=None):
    ue = [[d * 15.0 + 1.0, 0.0] for d in delays_samples]
    k = cluster_size if cluster_size is not None else len(delays_samples)
    return topology_from_positions(AREA, [[0.0, 0.0]], ue, cluster_size=k)


def window(regime, t_u, t_other, tau_p):
    """Pilot and data samples of a UE at t_other inside the window of a
    target at t_u, from the library's count rule (data under UPNG only)."""
    pilot, data = window_counts(t_u, tau_p, t_other, tau_p)
    return pilot, data * (regime == REGIME_UPNG)


def dft_interference_power(regime, m, n, beta, psi, m_antennas, tau_p, t_u, t_other):
    """Expected MF power of one DFT interferer (row n, delay t_other) on the
    target (row m, delay t_u), from the library's vectorized factor."""
    pilot, data = window(regime, t_u, t_other, tau_p)
    return m_antennas * beta * psi * float(dft_cross_power(m - n, tau_p, pilot) + data)


def brute_mf_power(regime, m, n, tau_p, t_u, t_other):
    """Direct array computation of the expected squared MF cross term.

    Builds the zero-padded sequences, takes the pilot-part inner product and
    adds one unit of power per data sample falling inside the window.
    """
    t_max = max(t_u, t_other)
    total = tau_p + t_max
    mf = np.zeros(total, dtype=complex)
    mf[t_u:t_u + tau_p] = np.exp(2j * np.pi * m * np.arange(tau_p) / tau_p)
    pil = np.zeros(total, dtype=complex)
    pil[t_other:t_other + tau_p] = np.exp(2j * np.pi * n * np.arange(tau_p) / tau_p)
    power = abs(pil @ mf.conj()) ** 2
    if regime == REGIME_UPNG:
        data_mask = np.arange(total) >= t_other + tau_p
        window_mask = np.abs(mf) > 0
        power += int((data_mask & window_mask).sum())
    return power


def overlap_time(regime, t_u, t_other, tau_p):
    """Sequence overlap time: the pilot plus data samples in the window."""
    return sum(window(regime, t_u, t_other, tau_p))


def test_overlap_time_rules():
    assert overlap_time(REGIME_UPG, 5, 5, 32) == 32
    assert overlap_time(REGIME_UPG, 3, 7, 32) == 28
    assert overlap_time(REGIME_UPG, 0, 40, 32) == 0
    assert overlap_time(REGIME_UPNG, 7, 3, 32) == 32
    assert overlap_time(REGIME_UPNG, 3, 7, 32) == 28
    assert overlap_time(REGIME_UPNG, 50, 3, 32) == 32


def test_random_seq_interference_power():
    # a random-pilot interferer adds M beta psi times the overlap time
    net = toy_net([0, 4, 40])
    book = make_pilot_book("random", 32, 0, 3, np.random.default_rng(0))
    gains = LinkGains(beta=np.full((1, 3), 1e-8), psi=np.ones((1, 3)))
    prof = 8 * link_profile(book, net, gains, REGIME_UPG, 0, 0)
    assert prof[2] == 0
    assert prof[1] == pytest.approx(2.24e-6)


def test_dft_interference_power_cases():
    # full overlap, distinct rows: exactly zero
    assert dft_interference_power(REGIME_UPG, 3, 5, 1, 1, 8, 32, 4, 4) == 0
    # UPNG adds M*beta*psi*(t_u - t_other) when the target arrives later
    upg = dft_interference_power(REGIME_UPG, 1, 0, 2.0, 1.0, 4, 32, 9, 4)
    upng = dft_interference_power(REGIME_UPNG, 1, 0, 2.0, 1.0, 4, 32, 9, 4)
    assert upng - upg == pytest.approx(4 * 2.0 * 5)
    # target earlier: no bleed
    assert dft_interference_power(REGIME_UPNG, 1, 0, 1, 1, 1, 32, 4, 9) == \
        dft_interference_power(REGIME_UPG, 1, 0, 1, 1, 1, 32, 4, 9)


def test_dft_interference_power_random_grid_vs_bruteforce():
    rng = np.random.default_rng(0)
    for _ in range(200):
        tau_p = int(rng.choice([4, 8, 16, 32]))
        m, n = rng.integers(0, tau_p, size=2)
        t_u, t_other = rng.integers(0, 2 * tau_p, size=2)
        regime = REGIME_UPNG if rng.random() < 0.5 else REGIME_UPG
        closed = dft_interference_power(regime, int(m), int(n), 1.0, 1.0, 1,
                                        tau_p, int(t_u), int(t_other))
        brute = brute_mf_power(regime, int(m), int(n), tau_p, int(t_u), int(t_other))
        assert closed == pytest.approx(brute, rel=1e-9, abs=1e-9)


def test_dft_cross_power_equals_masked_form():
    # the sin-ratio only off the co-pilot pairs and the lattice k pilot = 0
    # (mod tau_p) rounds as the form that evaluates it everywhere, then masks
    for tau_p in (1, 2, 3, 7, 8, 16, 32):
        k = np.arange(-2 * tau_p, 2 * tau_p + 1)[:, None]
        pilot = np.arange(tau_p + 1)[None, :]  # pilot = 0 and full overlap included
        got, want = dft_cross_power(k, tau_p, pilot), dft_cross_power_where(k, tau_p, pilot)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(dft_cross_power(3, tau_p, 5), dft_cross_power_where(3, tau_p, 5))


@pytest.mark.parametrize("tau_p", (1, 2, 3, 7, 8, 16, 32))
def test_dft_cross_powers_equal_dft_cross_power(tau_p):
    # a DFT book's cross powers, read from its per-tau_p table, at every
    # index difference |k| < tau_p and pilot count 0..tau_p a link can meet
    book = make_pilot_book("dft", tau_p, 0, tau_p, None)  # UE u holds pilot u
    mf = SimpleNamespace(ue=np.arange(tau_p)[:, None], pilot=np.arange(tau_p + 1)[:, None])
    got = cross_powers(book, mf, None)
    want = dft_cross_power(np.arange(tau_p)[:, None, None] - np.arange(tau_p), tau_p, mf.pilot)
    assert got.shape == want.shape == (tau_p, tau_p + 1, tau_p)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("fig,desk", [("fig6", True), ("fig7", True), ("fig6", False),
                                      ("fig7", False)])
def test_rate_bound_equals_add_at_form(fig, desk):
    # the real and imaginary bincounts sum each A_wu bin in link order, as
    # np.add.at on the complex matrix does
    cfg = figure_config(fig, desk_scale=desk, trials=2, seed=3)
    for trial in range(2 if desk else 1):
        for _, frame in trial_frames(cfg, cfg.sweep_values[-1], trial):
            links = estimate_trial_links(frame)
            args = (frame.net, frame.chan.gains, links, frame.p_ul, cfg.noise_w,
                    cfg.antennas, 0.8)
            got, want = conjugate_bf_rate(*args), conjugate_bf_rate_add_at(*args)
            assert np.array_equal(got.sinr_per_ue, want.sinr_per_ue)
            assert np.array_equal(got.se_per_ue, want.se_per_ue)


def test_interference_profile_matches_scalar_ops():
    delays = [3, 0, 9, 40]
    net = toy_net(delays, cluster_size=4)
    gains = LinkGains(beta=np.array([[1.0, 0.5, 2.0, 1.5]]), psi=np.ones((1, 4)))
    for regime in (REGIME_UPG, REGIME_UPNG):
        book = make_pilot_book("dft", 16, 0, 4, np.random.default_rng(0))
        prof = link_profile(book, net, gains, regime, 0, 0)
        for v in (1, 2, 3):
            expect = dft_interference_power(regime, int(book.assignment[0]),
                                            int(book.assignment[v]), gains.beta[0, v],
                                            1.0, 1, 16, delays[0], delays[v])
            assert prof[v] == pytest.approx(expect, rel=1e-12)
        book_r = make_pilot_book("random", 16, 0, 4, np.random.default_rng(0))
        prof_r = link_profile(book_r, net, gains, regime, 0, 0)
        for v in (1, 2, 3):
            ov = overlap_time(regime, delays[0], delays[v], 16)
            assert prof_r[v] == pytest.approx(gains.beta[0, v] * ov, rel=1e-12)


POINTS = st.lists(st.tuples(st.floats(0, 300), st.floats(0, 300)), min_size=1, max_size=6)


@given(aps=POINTS, ues=POINTS, cluster=st.integers(1, 4), tau_p=st.integers(1, 16),
       tau_ex=st.integers(0, 20), scheme=st.sampled_from(["dft", "dft_ext"]),
       regime=st.sampled_from([REGIME_UPG, REGIME_UPNG]))
# a served UE 10 samples early with tau_ex = 2: an uncovered target whose own
# UPNG data falls inside its window
@example(aps=[(0.0, 0.0)], ues=[(1.0, 0.0), (151.0, 0.0)], cluster=2, tau_p=8, tau_ex=2,
         scheme="dft_ext", regime=REGIME_UPNG)
def test_dft_profile_is_cross_row_power(aps, ues, cluster, tau_p, tau_ex, scheme, regime):
    # on any geometry, pilot length, extension and regime, every DFT or
    # extended-DFT interferer adds beta psi (|c|^2 + data), c its entry of the
    # link's cross row; the target adds its own data only. The estimates
    # built on these profiles are physical.
    net = topology_from_positions(AREA, aps[:3], ues, cluster_size=cluster)
    tau_ex = tau_ex if scheme == "dft_ext" else 0
    book = make_pilot_book(scheme, tau_p, tau_ex, net.n_ues, np.random.default_rng(0))
    gains = LinkGains(beta=np.exp(-net.d_ru / 100), psi=np.ones_like(net.d_ru))
    for r in range(net.n_aps):
        pilot_mat = pilot_matrix(book, net, r)
        for u in net.serving[r]:
            mf = make_mf_sequence(book, net, r, int(u))
            cross = pilot_mat @ mf.row.conj()
            data = mf.data * (regime == REGIME_UPNG)
            want = gains.gain[r] * (np.abs(cross) ** 2 + data)
            want[u] = gains.gain[r, u] * data[u]
            got = interference_profile(gains, regime, mf, cross_powers(book, mf, cross))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * tau_p**2)
    rng = np.random.default_rng(1)
    chan = draw_channels(net, gains, 2, rng, 1e-3)
    links = estimate_trial_links(synthesize_frame(book, net, chan, regime, 1.0, rng))
    assert (links.nmse >= 0).all()
    sigma_y = links.desired_power + links.interference_power + links.noise_power
    assert (sigma_y >= links.noise_power).all()


def test_power_breakdown_fields():
    # the estimator's expected MF power split of link (AP 0, UE 0)
    net = toy_net([0, 4])
    book = make_pilot_book("dft", 16, 0, 2, np.random.default_rng(0))
    gains = LinkGains(beta=np.array([[2.0, 1.0]]), psi=np.ones((1, 2)))
    links, _, ys = link_covariances(book, net, gains, REGIME_UPG, 1e-3, 0.5, m_antennas=8)
    assert (links.ap[0], links.ue[0]) == (0, 0)
    desired, noise = links.desired_power[0], links.noise_power[0]
    interference = links.interference_power[0]
    assert desired == pytest.approx(8 * 2.0 * 256)
    assert noise == pytest.approx(8 * 1e-3 * 16 / 0.5)
    assert interference == pytest.approx(
        8 * link_profile(book, net, gains, REGIME_UPG, 0, 0).sum(), rel=1e-12)
    assert 8 * ys[0, 0] == pytest.approx(desired + interference + noise)


def test_crosscorr_shape_and_crossover():
    rng = np.random.default_rng(1)
    rows = crosscorr_comparison(range(8, 57), 37, rng, trials=800)
    taus = np.array([r["tau_p"] for r in rows])
    rand_exp = np.array([r["random_expected"] for r in rows])
    rand_mc = np.array([r["random_mc"] for r in rows])
    dft = np.array([r["dft_closed"] for r in rows])
    # random curve: exact ramp max(0, tau_p - delay), MC tracks it
    np.testing.assert_allclose(rand_exp, np.clip(taus - 37, 0, None))
    live = rand_exp > 4
    np.testing.assert_allclose(rand_mc[live], rand_exp[live], rtol=0.25)
    # DFT grows super-linearly past the onset: increasing increments
    post = dft[taus >= 39]
    inc = np.diff(post[:6])
    assert (np.diff(inc) > 0).all()
    # crossover in the documented band
    assert 30 <= find_crossover(rows) <= 46


def test_crosscorr_mean_pairs_mode():
    rng = np.random.default_rng(2)
    rows = crosscorr_comparison([16, 24], 4, rng, trials=400, pair_mode="mean_pairs")
    # mean over ordered pairs equals ov*(tau_p-ov)/(tau_p-1)
    for row in rows:
        tau_p = row["tau_p"]
        ov = tau_p - 4
        assert row["dft_closed"] == pytest.approx(ov * (tau_p - ov) / (tau_p - 1),
                                                  rel=1e-9)


def test_overhead_factor():
    assert overhead_factor(200, 32, 0) == pytest.approx(0.84)
    assert overhead_factor(200, 32, 8) == pytest.approx(0.80)
    assert overhead_factor(100, 90, 30) == 0.0
    assert overhead_factor(100, 0, 0) == 1.0


def golden_rate_setup():
    delays = [0, 2, 6, 11, 3]
    net = toy_net(delays, cluster_size=4)
    gains = LinkGains(
        beta=np.array([[1.0e-8, 6.0e-9, 2.5e-9, 1.1e-9, 4.0e-9]]),
        psi=np.array([[1.2, 0.7, 1.0, 1.5, 0.9]]))
    served = np.isin(np.arange(net.n_ues), net.serving[0])
    assert not served[3]  # UE 3 is the distant, unserved one
    gamma = 0.9 * gains.gain * served
    return net, gains, gamma, served


def test_rate_golden_value():
    # frozen evaluation of the pinned formulas (no contamination inputs)
    net, gains, gamma, served = golden_rate_setup()
    report = conjugate_bf_rate(net, gains, uncontaminated_links(net, gamma), p_dl=0.1,
                               noise_w=1e-14, m_antennas=8, overhead=0.84)
    k = 4.0
    p = 0.1
    expected = []
    for u in range(5):
        if not served[u]:
            expected.append(0.0)
            continue
        coh = np.sqrt(gamma[0, u] / k)
        den = p * gains.gain[0, u] + 1e-14
        sinr = p * 8 * coh**2 / den
        expected.append(0.84 * np.log2(1 + sinr))
    np.testing.assert_allclose(report.se_per_ue, expected, rtol=1e-12)
    # frozen scalar for UE 0, from the hand-checked evaluation:
    # sinr = 0.1*8*(0.9*1.2e-8/4) / (0.1*1.2e-8 + 1e-14) = 1.79999...
    assert report.se_per_ue[0] == pytest.approx(1.2477520, abs=2e-6)


def test_rate_unserved_ue_zero():
    net, gains, gamma, served = golden_rate_setup()
    report = conjugate_bf_rate(net, gains, uncontaminated_links(net, gamma), 0.1, 1e-14,
                               8, 0.84)
    assert report.se_per_ue[3] == 0.0
    assert report.sinr_per_ue[3] == 0.0


def test_rate_perfect_beats_corrupted():
    net, gains, gamma, served = golden_rate_setup()
    perfect = conjugate_bf_rate(net, gains, uncontaminated_links(net, gains.gain * served),
                                0.1, 1e-14, 8, 0.84)
    corrupted = conjugate_bf_rate(
        net, gains, uncontaminated_links(net, 0.4 * gains.gain * served), 0.1, 1e-14, 8, 0.84)
    assert (perfect.se_per_ue[served] >= corrupted.se_per_ue[served]).all()


def test_rate_contamination_lowers_sinr():
    net, gains, gamma, served = golden_rate_setup()
    links = uncontaminated_links(net, gamma)
    base = conjugate_bf_rate(net, gains, links, 0.1, 1e-14, 8, 0.84)
    links.gain_scale[:] = 1.0 / 16
    links.cross[:] = 4.0
    cont = conjugate_bf_rate(net, gains, links, 0.1, 1e-14, 8, 0.84)
    assert (cont.se_per_ue[served] < base.se_per_ue[served]).all()


def test_rate_single_link_hardening_bound_vs_monte_carlo():
    # 1 AP / 1 UE, perfect estimate: closed form equals the bound computed
    # from empirical moments of the effective beamforming gain
    net = toy_net([0], cluster_size=1)
    b = 3.0e-9
    gains = LinkGains(beta=np.array([[b]]), psi=np.ones((1, 1)))
    gamma = gains.gain.copy()
    m_ant, p, noise_w = 8, 0.05, 1e-13
    report = conjugate_bf_rate(net, gains, uncontaminated_links(net, gamma), p, noise_w,
                               m_ant, 1.0)
    rng = np.random.default_rng(11)
    h = np.sqrt(b) * sample_fading(m_ant, rng, size=200_000)
    # conjugate beamformer with eta = 1/(M gamma): x = sqrt(p eta) h* s
    eff = np.sqrt(p / (m_ant * b)) * (np.abs(h) ** 2).sum(axis=1)
    ds = eff.mean() ** 2
    bu = eff.var()
    sinr_mc = ds / (bu + noise_w)
    assert report.sinr_per_ue[0] == pytest.approx(sinr_mc, rel=0.1)
    assert report.se_per_ue[0] == pytest.approx(np.log2(1 + sinr_mc), rel=0.1)


@pytest.mark.parametrize("curve", ["dft:upg", "dft:upng", "dft_ext:upng", "sync"])
def test_rate_bound_vs_downlink_monte_carlo_per_ue(curve):
    # the whole-network version of the single-link check above: per UE, the
    # pipeline's closed-form SE against the empirical bound measured on the
    # real estimates (tests/downlink_oracle.py), on two desk-scale networks
    # at 20 dBm with tau_p = 8, so co-pilot UEs exist. Random pilots are left
    # out: the closed form averages Sigma_y over the random phases, which a
    # frozen book does not. Bounds, with 20 batch means (t, 19 dof): 5
    # standard errors per UE (~120 comparisons over all curves, 1% family-wise)
    # and 4 on each network mean.
    cfg = figure_config("fig7", desk_scale=True, sweep_values=(20.0,), seed=1,
                        curves=(curve,))
    for trial in (0, 1):
        closed = run_trial(cfg, 20.0, trial).curves[curve]["se"]
        orc = downlink_oracle(frozen_curve(cfg, 20.0, trial, curve), cfg.antennas,
                              cfg.noise_w, cfg.tau_c, draws=600, n_batches=20,
                              seed=trial)
        se_ue = batch_stderr(orc.se_batches)
        assert (np.abs(closed - orc.se_per_ue) <= 5 * se_ue).all(), (
            trial, closed, orc.se_per_ue, se_ue)
        se_mean = batch_stderr(orc.se_batches.mean(axis=1))
        assert abs(closed.mean() - orc.se_mean) <= 4 * se_mean, (
            trial, closed.mean(), orc.se_mean, se_mean)


def test_mf_power_scaling_laws():
    # desired grows quadratically in tau_p, random-pilot interference grows
    # with the overlap time, noise linearly in tau_p
    delta = 4
    noise_w, p_ul, m_ant = 1e-3, 0.5, 8
    prev = None
    for tau_p in (8, 16, 32, 64):
        net = toy_net([0, delta])
        book = make_pilot_book("random", tau_p, 0, 2, np.random.default_rng(0))
        gains = LinkGains(beta=np.ones((1, 2)), psi=np.ones((1, 2)))
        links, _, _ = link_covariances(book, net, gains, REGIME_UPG, noise_w, p_ul,
                                       m_antennas=m_ant)
        # link 0 is (AP 0, UE 0); UE 1 is its only interferer
        bd = (links.desired_power[0], links.noise_power[0], links.interference_power[0])
        if prev is not None:
            assert bd[0] / prev[0] == pytest.approx(4.0, rel=1e-12)
            assert bd[1] / prev[1] == pytest.approx(2.0, rel=1e-12)
            assert bd[2] / prev[2] == pytest.approx(
                (tau_p - delta) / (tau_p / 2 - delta), rel=1e-12)
        prev = bd


def test_extension_monotone_on_fixed_realizations():
    # Sigma_yh / (beta psi), the target's pilot samples in its MF window, is
    # non-decreasing in tau_ex on every served link. The expected NMSE is
    # not: on seed 2, link (AP 3, UE 11), it rises from ~0.013 to ~0.52
    # between tau_ex 3 and 4, when a distant co-pilot UE comes to cover the
    # window, and the Monte-Carlo oracle agrees with the closed form at both.
    from cfpilot.channel import draw_link_gains
    from cfpilot.geometry import sample_topology

    area = SimArea(side_m=316.2277660168379, ap_count=10, ue_mean=14.0,
                   gamma_m=20.0, tau_smp_s=50e-9)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        net = sample_topology(area, 4, rng)
        gains = draw_link_gains(net, rng, 4.0)
        prev, nmse = 0.0, []
        for tau_ex in range(0, 7):
            book = make_pilot_book("dft_ext", 32, tau_ex, net.n_ues,
                                   np.random.default_rng(0))
            _, yh, ys = link_covariances(book, net, gains, REGIME_UPG, 1e-14, 0.1)
            pilot = yh / gains.gain
            assert (pilot >= prev - 1e-9).all()
            prev = pilot
            if seed == 2 and tau_ex in (3, 4):
                emp = empirical_covariance_oracle(book, net, gains, REGIME_UPG, 3, 11,
                                                  1e-14, 0.1, 30_000,
                                                  np.random.default_rng(1), m_antennas=4)
                np.testing.assert_allclose(np.diag(emp.sigma_y).real, ys[3, 11], rtol=0.05)
                np.testing.assert_allclose(np.diag(emp.sigma_yh).real, yh[3, 11], rtol=0.05)
                nmse.append(1 - yh[3, 11] ** 2 / (ys[3, 11] * gains.gain[3, 11]))
        if seed == 2:
            assert nmse[0] < 0.05 < 0.5 < nmse[1]


def test_nmse_aggregate_examples():
    # single link at 0.5 -> -3.01 dB
    agg = nmse_aggregate([0.5])
    assert agg["mean_db"] == pytest.approx(-3.0103, abs=1e-3)
    # mean of 0.1 and 0.001 in linear, then dB
    agg2 = nmse_aggregate([0.1, 0.001])
    assert agg2["mean_db"] == pytest.approx(10 * np.log10(0.0505), abs=1e-9)
    assert set(agg2) == {"mean_db", "p10_db", "p90_db"}
    # all perfect: floored at -150 dB
    agg3 = nmse_aggregate([0.0, 0.0])
    assert agg3["mean_db"] == pytest.approx(-150.0)
    assert agg3["p10_db"] == pytest.approx(-150.0)
    with pytest.raises(ValueError):
        nmse_aggregate([])


# The batched bound sums each UE's serving APs in AP order, not pairwise
# from 8 terms on, and squares with x * x, not pow(x, 2): a few units in
# the last place apart from the loop.
RATE_LOOP_RTOL = 8 * np.finfo(float).eps


@pytest.mark.parametrize("fig,desk", [("fig7", False), ("fig9", True), ("fig6", True)])
def test_batched_rate_bound_matches_loop(fig, desk):
    # full-scale fig7 has UEs with 8 or more serving APs; fig6/fig9 desk
    # add random pilots and UPNG bleed
    cfg = figure_config(fig, desk_scale=desk, trials=2, seed=3)
    for trial in range(2):
        for _, frame in trial_frames(cfg, cfg.sweep_values[-1], trial):
            links = estimate_trial_links(frame)
            args = (frame.net, frame.chan.gains, links, frame.p_ul, cfg.noise_w,
                    cfg.antennas, 0.8)
            got, want = conjugate_bf_rate(*args), conjugate_bf_rate_loop(*args)
            np.testing.assert_allclose(got.sinr_per_ue, want.sinr_per_ue,
                                       rtol=RATE_LOOP_RTOL, atol=0)
            np.testing.assert_allclose(got.se_per_ue, want.se_per_ue,
                                       rtol=RATE_LOOP_RTOL, atol=0)


def _dropped_link_case(case):
    """``(args, links)`` of the rate bound with one served link's gamma at 0: the
    uncontaminated golden links, or a desk fig6 frame's links (contamination and
    UPNG bleed)."""
    if case == "uncontaminated":
        net, gains, gamma, _ = golden_rate_setup()
        links = uncontaminated_links(net, gamma)
        p_dl, noise_w, m_ant = 0.1, 1e-14, 8
    else:
        cfg = figure_config("fig6", desk_scale=True, trials=1, seed=3)
        frame = dict(trial_frames(cfg, cfg.sweep_values[-1], 0))["dft:upng"]
        links = estimate_trial_links(frame)
        net, gains, p_dl, noise_w, m_ant = (frame.net, frame.chan.gains, frame.p_ul,
                                            cfg.noise_w, cfg.antennas)
        assert links.bleed.any() and np.abs(links.cross).any()
    gamma = links.gamma.copy()
    gamma[links.ap[1], links.ue[1]] = 0.0
    dropped = replace(links, gamma=gamma)
    return (net, gains, dropped, p_dl, noise_w, m_ant, 0.84), links


@pytest.mark.parametrize("case", ["uncontaminated", "fig6-desk-dft:upng"])
def test_rate_bound_drops_a_link_without_estimate(case):
    # a served link whose gamma is 0 leaves the contamination sums: the bound
    # equals the loop, the add.at form bit for bit, also with operands built
    # before the link lost its estimate
    args, links = _dropped_link_case(case)
    got = conjugate_bf_rate(*args)
    want = conjugate_bf_rate_add_at(*args)
    assert np.array_equal(got.sinr_per_ue, want.sinr_per_ue)
    assert np.array_equal(got.se_per_ue, want.se_per_ue)
    loop = conjugate_bf_rate_loop(*args)
    np.testing.assert_allclose(got.sinr_per_ue, loop.sinr_per_ue, rtol=RATE_LOOP_RTOL, atol=0)
    np.testing.assert_allclose(got.se_per_ue, loop.se_per_ue, rtol=RATE_LOOP_RTOL, atol=0)
    every = rate_operands(*args[:2], links)
    again = conjugate_bf_rate(*args, operands=every)
    assert np.array_equal(again.sinr_per_ue, got.sinr_per_ue)
    assert np.array_equal(again.se_per_ue, got.se_per_ue)
