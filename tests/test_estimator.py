from dataclasses import replace

import numpy as np
import per_link
import pytest
from oracles import (
    empirical_covariance_oracle,
    estimate_links_loop,
    full_frames,
    link_covariances,
    link_profile,
)

from cfpilot.airframe import synthesize_frame
from cfpilot.channel import LinkGains, draw_channels, draw_link_gains, sample_fading
from cfpilot.estimator import estimate_trial_links
from cfpilot.harness import TrialDraws, figure_config, point_config
from cfpilot.geometry import (
    SimArea,
    delay_spread_min_extension,
    sample_topology,
    synchronize,
    topology_from_positions,
)
from cfpilot.pilots import REGIME_UPG, REGIME_UPNG, REGIMES, make_mf_sequence, make_pilot_book

AREA = SimArea(side_m=836.660026534076, ap_count=1, ue_mean=1.0, gamma_m=20.0,
               tau_smp_s=50e-9)
DESK = SimArea(side_m=316.2277660168379, ap_count=10, ue_mean=14.0, gamma_m=20.0,
               tau_smp_s=50e-9)


def toy_net(delays_samples, cluster_size=None):
    ue = [[d * 15.0 + 1.0, 0.0] for d in delays_samples]
    k = cluster_size if cluster_size is not None else len(delays_samples)
    return topology_from_positions(AREA, [[0.0, 0.0]], ue, cluster_size=k)


def unit_gains(net, value=1.0):
    return LinkGains(beta=np.full_like(net.d_ru, value), psi=np.ones_like(net.d_ru))


def mf_parts(frame, r, u):
    """MF output of link (r, u) and its exact parts from the replayed full frame.

    Returns (y, desired coefficient of h_ru, interference vector, filtered
    noise); the parts recombine to y up to float reassociation.
    """
    ys, sent, noise = full_frames(frame)
    row = make_mf_sequence(frame.book, frame.net, r, u).row.conj()
    y = ys[r] @ row / np.sqrt(frame.p_ul)
    coeffs = sent[r] @ row
    desired = complex(coeffs[u])
    coeffs[u] = 0.0
    return (y, desired, coeffs @ frame.chan.h[r],
            noise[r] @ row / np.sqrt(frame.p_ul))


def test_mf_noiseless_single_ue_matched():
    net = toy_net([0])
    book = make_pilot_book("dft", 16, 0, 1, np.random.default_rng(0))
    gains = unit_gains(net)
    chan = draw_channels(net, gains, 4, np.random.default_rng(1), 0.0)
    frame = synthesize_frame(book, net, chan, REGIME_UPG, 1.0, np.random.default_rng(2))
    y, desired, interference, _ = mf_parts(frame, 0, 0)
    np.testing.assert_allclose(y, chan.h[0, 0] * 16, rtol=1e-12)
    assert desired == pytest.approx(16.0)
    np.testing.assert_allclose(interference, 0, atol=1e-12)


def test_mf_synchronous_dft_orthogonality():
    net = toy_net([0, 0])
    book = make_pilot_book("dft", 16, 0, 2, np.random.default_rng(0))
    gains = unit_gains(net)
    chan = draw_channels(net, gains, 4, np.random.default_rng(1), 0.0)
    frame = synthesize_frame(book, net, chan, REGIME_UPG, 1.0, np.random.default_rng(2))
    y, _, interference, _ = mf_parts(frame, 0, 0)
    np.testing.assert_allclose(interference, 0, atol=1e-9)
    np.testing.assert_allclose(y, chan.h[0, 0] * 16, atol=1e-9)


def test_mf_reconstruction_identity():
    rng = np.random.default_rng(3)
    net = sample_topology(DESK, 4, rng)
    book = make_pilot_book("random", 16, 0, net.n_ues, rng)
    gains = unit_gains(net, 1e-9)
    chan = draw_channels(net, gains, net.n_ues, rng, 1e-13)
    frame = synthesize_frame(book, net, chan, REGIME_UPNG, 0.5, rng)
    for r in (0, 3):
        for u in net.serving[r][:2]:
            y, desired, interference, noise = mf_parts(frame, r, int(u))
            rebuilt = desired * chan.h[r, int(u)] + interference + noise
            np.testing.assert_allclose(y, rebuilt, rtol=1e-10, atol=1e-20)


def test_mf_interference_power_matches_sin_ratio():
    # m=1, n=0, tau_p=32, overlap 16: mean power over fading ~ 104.1*M*beta*psi
    tau_p, m_ant, draws = 32, 4, 10_000
    delta = 16
    net = toy_net([delta, 0])
    book = make_pilot_book("dft", tau_p, 0, 2, np.random.default_rng(0))
    assert book.assignment[0] == 0 and book.assignment[1] == 1
    mf = make_mf_sequence(book, net, 0, 0)  # target = UE 0 (index m=0) at delay 16
    # interferer row (index 1) at delay 0: coefficient is the cross inner
    coeff = (np.pad(book.sequences[1], (0, delta)) @ mf.row.conj())
    rng = np.random.default_rng(1)
    h = sample_fading(m_ant, rng, size=draws)
    power = np.mean(np.abs(coeff) ** 2 * (np.abs(h) ** 2).sum(axis=1))
    r2 = (np.sin(np.pi * 1 * 16 / 32) / np.sin(np.pi * 1 / 32)) ** 2
    assert r2 == pytest.approx(104.09, abs=0.1)
    assert power == pytest.approx(m_ant * r2, rel=0.03)


def test_matched_filter_validation():
    # the MF divides by the frame's p_ul, which the frame refuses unless positive
    net = toy_net([0])
    book = make_pilot_book("dft", 8, 0, 1, np.random.default_rng(0))
    gains = unit_gains(net)
    chan = draw_channels(net, gains, 2, np.random.default_rng(1), 0.0)
    for p_ul in (0.0, -1.0):
        with pytest.raises(ValueError):
            synthesize_frame(book, net, chan, REGIME_UPG, p_ul, np.random.default_rng(2))


def test_covariance_no_interference_limit():
    net = toy_net([0])
    book = make_pilot_book("dft", 32, 0, 1, np.random.default_rng(0))
    gains = unit_gains(net, 2.0)
    _, yh, ys = link_covariances(book, net, gains, REGIME_UPG, 0.0, 1.0)
    assert yh[0, 0] == pytest.approx(32 * 2.0)
    assert ys[0, 0] == pytest.approx(32**2 * 2.0)


def test_covariance_random_overlap_example():
    # one interferer at |dt| = 4, tau_p = 32, UPG: term beta*psi*28
    net = toy_net([0, 4])
    book = make_pilot_book("random", 32, 0, 2, np.random.default_rng(0))
    gains = LinkGains(beta=np.array([[1.0, 3.0]]), psi=np.ones((1, 2)))
    noise_w, p_ul = 1e-3, 2.0
    _, yh, ys = link_covariances(book, net, gains, REGIME_UPG, noise_w, p_ul)
    assert yh[0, 0] == pytest.approx(32.0)
    assert ys[0, 0] == pytest.approx(32**2 + 3.0 * 28 + noise_w * 32 / p_ul)


def test_covariance_dft_upng_bleed_example():
    # interferer earlier by 5 samples adds beta*psi*5 under UPNG
    net = toy_net([5, 0])
    book = make_pilot_book("dft", 32, 0, 2, np.random.default_rng(0))
    gains = LinkGains(beta=np.array([[1.0, 2.0]]), psi=np.ones((1, 2)))
    _, yh_g, ys_g = link_covariances(book, net, gains, REGIME_UPG, 0.0, 1.0)
    _, yh_n, ys_n = link_covariances(book, net, gains, REGIME_UPNG, 0.0, 1.0)
    assert yh_g[0, 0] == yh_n[0, 0] == pytest.approx(32.0)
    assert ys_n[0, 0] - ys_g[0, 0] == pytest.approx(2.0 * 5)


def test_closed_form_covariances_matrices():
    # identity-scaled: Sigma_yh = tau_p beta psi and Sigma_y the sum of the
    # desired, per-interferer and noise terms, on every served link
    net = toy_net([0, 2])
    book = make_pilot_book("dft", 16, 0, 2, np.random.default_rng(0))
    gains = unit_gains(net)
    links, yh, ys = link_covariances(book, net, gains, REGIME_UPG, 1e-4, 1.0)
    assert links.nmse.size == 2
    np.testing.assert_allclose(yh, 16 * np.ones((1, 2)))
    for u in (0, 1):
        prof = link_profile(book, net, gains, REGIME_UPG, 0, u)
        assert ys[0, u] == pytest.approx(16**2 + prof.sum() + 1e-4 * 16, rel=1e-12)


def test_lmmse_perfect_conditions():
    # sigma^2 = 0, no interference: estimate equals the channel exactly
    net = toy_net([0])
    book = make_pilot_book("dft", 16, 0, 1, np.random.default_rng(0))
    gains = unit_gains(net, 0.7)
    chan = draw_channels(net, gains, 4, np.random.default_rng(1), 0.0)
    frame = synthesize_frame(book, net, chan, REGIME_UPG, 1.0, np.random.default_rng(2))
    links = estimate_trial_links(frame)
    y, _, _, _ = mf_parts(frame, 0, 0)
    np.testing.assert_allclose(links.gain_scale[0] * y, chan.h[0, 0], rtol=1e-10)
    assert links.nmse[0] < 1e-20


def test_single_ue_nmse_matches_scalar_formula():
    # expected NMSE (error energy over channel energy) = c/(tau_p^2 b + c)
    tau_p, m_ant, trials = 16, 8, 10_000
    b, noise_w, p_ul = 0.5, 1e-2, 0.25
    c = noise_w * tau_p / p_ul
    expected = c / (tau_p**2 * b + c)
    rng = np.random.default_rng(6)
    g = tau_p * b / (tau_p**2 * b + c)
    h = np.sqrt(b) * sample_fading(m_ant, rng, size=trials)
    z = np.sqrt(c / 2) * (rng.standard_normal((trials, m_ant))
                          + 1j * rng.standard_normal((trials, m_ant)))
    h_hat = g * (tau_p * h + z)
    num = (np.abs(h - h_hat) ** 2).sum()
    den = (np.abs(h) ** 2).sum()
    assert num / den == pytest.approx(expected, rel=0.03)


def test_lmmse_gain_attains_grid_minimum():
    # sample MSE over a +/-20% grid around the implemented gain
    tau_p, m_ant, trials = 16, 8, 20_000
    b, noise_w, p_ul = 1.0, 5e-2, 1.0
    c = noise_w * tau_p / p_ul
    g_impl = tau_p * b / (tau_p**2 * b + c)
    rng = np.random.default_rng(7)
    h = np.sqrt(b) * sample_fading(m_ant, rng, size=trials)
    z = np.sqrt(c / 2) * (rng.standard_normal((trials, m_ant))
                          + 1j * rng.standard_normal((trials, m_ant)))
    y = tau_p * h + z
    def mse(g):
        return float((np.abs(h - g * y) ** 2).mean())
    grid = g_impl * np.linspace(0.8, 1.2, 41)
    assert mse(g_impl) <= min(mse(g) for g in grid) * (1 + 1e-4)


def test_orthogonality_restoration_per_realization():
    # extended DFT with tau_ex >= in-cluster spread: exact zero interference
    # from every non-co-pilot UE whose pilot fills the MF window
    rng = np.random.default_rng(8)
    for _ in range(5):
        net = sample_topology(DESK, 4, rng)
        tau_ex = delay_spread_min_extension(net)
        tau_p = 8
        book = make_pilot_book("dft_ext", tau_p, tau_ex, net.n_ues, rng)
        for r in range(net.n_aps):
            for u in net.serving[r]:
                u = int(u)
                mf = make_mf_sequence(book, net, r, u)
                for v in set(np.flatnonzero(mf.pilot == tau_p).tolist()) - {u}:
                    if book.assignment[v] == book.assignment[u]:
                        continue
                    row = np.zeros(book.seq_len + int(net.t_max_r[r]), dtype=complex)
                    t = int(net.t_ur[r, v])
                    row[t:t + book.seq_len] = book.sequences[v]
                    assert abs(row @ mf.row.conj()) <= 1e-9 * tau_p


def test_nmse_scale_invariance():
    # scaling all large-scale gains and sigma^2 together leaves the
    # closed-form expected NMSE unchanged
    rng = np.random.default_rng(9)
    net = sample_topology(DESK, 4, rng)
    book = make_pilot_book("dft", 16, 0, net.n_ues, rng)
    gains = LinkGains(beta=1e-8 * np.exp(rng.normal(size=net.d_ru.shape)),
                      psi=np.ones_like(net.d_ru))
    kappa = 37.0
    scaled = LinkGains(beta=kappa * gains.beta, psi=gains.psi.copy())
    _, yh1, ys1 = link_covariances(book, net, gains, REGIME_UPNG, 1e-13, 0.1)
    _, yh2, ys2 = link_covariances(book, net, scaled, REGIME_UPNG, kappa * 1e-13, 0.1)
    for r in range(3):
        for u in net.serving[r][:2]:
            u = int(u)
            n1 = 1 - yh1[r, u] ** 2 / (ys1[r, u] * gains.gain[r, u])
            n2 = 1 - yh2[r, u] ** 2 / (ys2[r, u] * scaled.gain[r, u])
            assert n1 == pytest.approx(n2, rel=1e-12)


def test_expected_nmse_monotone_in_power():
    net = toy_net([0, 3, 9], cluster_size=1)
    book = make_pilot_book("dft", 16, 0, 3, np.random.default_rng(0))
    gains = unit_gains(net, 1e-8)
    prev = None
    for p_dbm in (-36, -20, -4, 12, 20):
        p = 1e-3 * 10 ** (p_dbm / 10)
        links, _, _ = link_covariances(book, net, gains, REGIME_UPG, 1e-14, p)
        nm = 1 - links.gamma[0, 0] / gains.gain[0, 0]
        if prev is not None:
            assert nm <= prev + 1e-15
        prev = nm


ORACLE_CASES = [(scheme, regime, None, 3) for scheme in ("random", "dft", "dft_ext")
                for regime in (REGIME_UPG, REGIME_UPNG)]
# extended DFT below the in-cluster spread (12 samples): served UEs stop
# covering the window; target u = 0 (delay 2) is uncovered at both
# extensions, target u = 3 (delay 9) at tau_ex = 0 only
BELOW_SPREAD = [("dft_ext", regime, tau_ex, u) for tau_ex in (0, 6)
                for regime in (REGIME_UPG, REGIME_UPNG) for u in (0, 3)]


@pytest.mark.parametrize(
    "scheme,regime,tau_ex,u", ORACLE_CASES + BELOW_SPREAD,
    ids=[f"{s}-{r}" if t is None else f"{s}-{r}-tau_ex{t}-u{u}"
         for s, r, t, u in ORACLE_CASES + BELOW_SPREAD])
def test_empirical_oracle_agrees_with_closed_form(scheme, regime, tau_ex, u):
    # quick version of the acceptance check: 3e4 trials, 5% on the diagonal
    delays = [2, 3, 5, 9, 14]
    net = toy_net(delays, cluster_size=5)
    tau_p = 16
    if tau_ex is None:
        tau_ex = delay_spread_min_extension(net) if scheme == "dft_ext" else 0
    book = make_pilot_book(scheme, tau_p, tau_ex, 5, np.random.default_rng(0))
    gains = LinkGains(beta=np.array([[1.0, 0.8, 1.3, 0.5, 2.0]]),
                      psi=np.ones((1, 5)))
    noise_w, p_ul, m_ant = 0.2, 0.5, 4
    _, yh, ys = link_covariances(book, net, gains, regime, noise_w, p_ul,
                                 m_antennas=m_ant)
    yh, ys = yh[0, u], ys[0, u]
    emp = empirical_covariance_oracle(book, net, gains, regime, 0, u, noise_w,
                                      p_ul, 30_000, np.random.default_rng(1),
                                      m_antennas=m_ant)
    diag = np.diag(emp.sigma_y).real
    np.testing.assert_allclose(diag, ys, rtol=0.05)
    yh_diag = np.diag(emp.sigma_yh).real
    np.testing.assert_allclose(yh_diag, yh, rtol=0.05)


def test_oracle_zero_gain_reduces_to_noise():
    net = toy_net([0, 4])
    book = make_pilot_book("dft", 8, 0, 2, np.random.default_rng(0))
    gains = LinkGains(beta=np.zeros((1, 2)), psi=np.ones((1, 2)))
    noise_w, p_ul = 0.1, 0.5
    emp = empirical_covariance_oracle(book, net, gains, REGIME_UPG, 0, 0, noise_w,
                                      p_ul, 20_000, np.random.default_rng(2),
                                      m_antennas=3)
    np.testing.assert_allclose(np.diag(emp.sigma_y).real, noise_w * 8 / p_ul,
                               rtol=0.05)


def test_oracle_synchronous_dft_no_cross_terms():
    net = toy_net([0, 0, 0], cluster_size=3)
    book = make_pilot_book("dft", 8, 0, 3, np.random.default_rng(0))
    gains = unit_gains(net)
    emp = empirical_covariance_oracle(book, net, gains, REGIME_UPG, 0, 0, 0.0,
                                      1.0, 5_000, np.random.default_rng(3),
                                      m_antennas=2)
    # only the desired tau_p^2 term remains
    np.testing.assert_allclose(np.diag(emp.sigma_y).real, 64.0, rtol=0.1)


def test_estimate_trial_links_runs_all_served():
    rng = np.random.default_rng(10)
    net = sample_topology(DESK, 4, rng)
    gains = draw_link_gains(net, rng)
    chan = draw_channels(net, gains, 4, rng, 1e-14)
    book = make_pilot_book("dft_ext", 8, delay_spread_min_extension(net),
                           net.n_ues, rng)
    frame = synthesize_frame(book, net, chan, REGIME_UPG, 0.1, rng)
    links = estimate_trial_links(frame)
    assert links.nmse.size == sum(len(net.serving[r]) for r in range(net.n_aps))
    assert np.all(links.nmse >= 0)
    assert links.cross.shape == (links.nmse.size, net.n_ues)
    # gamma populated exactly on served pairs
    assert np.count_nonzero(links.gamma) == links.nmse.size


LINK_FIELDS = ("ap", "ue", "nmse", "gamma", "desired_power", "interference_power",
               "noise_power", "gain_scale", "cross", "bleed")


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("scheme,extension", [
    ("random", None), ("dft", None), ("sync", None),
    ("dft_ext", "below"), ("dft_ext", "at"), ("dft_ext", "above")])
def test_batched_estimator_equals_link_loop(scheme, extension, regime):
    # the batched pass computes every field with the loop's arithmetic, also
    # when it reuses the same draw's estimates at another power; the loop
    # filters the replayed full frames, so NMSE agrees under the per-link rule
    rng = np.random.default_rng(11)
    for _ in range(4):
        net = sample_topology(DESK, 4, rng)
        if scheme == "sync":
            net = synchronize(net)
        spread = delay_spread_min_extension(net)
        tau_ex = {None: 0, "below": spread // 2, "at": spread, "above": spread + 3}[extension]
        assert extension != "below" or tau_ex < spread
        gains = draw_link_gains(net, rng)
        chan = draw_channels(net, gains, 4, rng, 1e-14)
        book = make_pilot_book("dft" if scheme == "sync" else scheme, 8, tau_ex, net.n_ues, rng)
        frame = synthesize_frame(book, net, chan, regime, 1e-3, rng)
        got, want = estimate_trial_links(frame), estimate_links_loop(frame)
        _assert_links_equal(got, want)
        at_p2 = replace(frame, p_ul=0.1)
        _assert_links_equal(estimate_trial_links(at_p2, previous=got), estimate_links_loop(at_p2))


def _assert_links_equal(got, want):
    """Every field of ``got`` equals ``want``'s, NMSE under the per-link rule."""
    for name in LINK_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        if name == "nmse":
            assert np.all(np.abs(a - b) <= per_link.bound("nmse", b)), name
        else:
            assert np.array_equal(a, b), name


@pytest.mark.blas_kernel
@pytest.mark.parametrize("fig", ["fig7", "fig9"])
def test_delay_free_cross_rows_equal_per_link_rows(fig):
    # on a delay-free network every AP reads the same pilot rows over the same
    # span, so the book computes a served UE's cross row once, whichever AP
    # serves it; each link's row must still be, bit for bit, the GEMV of its own
    # AP's rows that the book computes on a delayed network
    cfg = figure_config(fig, trials=3)
    pc = point_config(cfg, 20.0)
    for trial in range(3):
        setup = TrialDraws(cfg, trial).frame(pc, cfg.curves.index("sync")).setup
        net, links = setup.net, setup.links
        assert net.t_max_r.max() == 0
        k = net.serving.shape[1]
        rows = np.ascontiguousarray(links.rows.T).conj()
        want = np.empty_like(links.c)
        for r, (a, b) in enumerate(links.span):
            at = slice(r * k, (r + 1) * k)
            np.matmul(setup.row(r, a, b), rows[at, :b - a, None], out=want[at, :, None])
        assert want.tobytes() == links.c.tobytes(), trial
