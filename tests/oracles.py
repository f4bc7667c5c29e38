"""Independent reference computations the tests compare the library against.

* ``dft_cross_inner``: closed-form inner product of two overlapped DFT
  pilots, the reference for the squared sin-ratio of
  ``cfpilot.analytics.dft_cross_power``.
* ``empirical_covariance_oracle``: Monte-Carlo MF-output covariances, the
  reference for the estimator's closed-form Sigma_y.
* ``link_covariances``: the estimator's closed-form covariance scales per
  served link, read back from ``estimate_trial_links``.
* ``link_profile``: ``interference_profile`` of one link, with the MF
  window and cross row the estimator builds for it.
* ``uncontaminated_links``: ``LinkEstimates`` that carry only a gamma
  array, for rate-bound tests without contamination.
* ``estimate_links_loop``, ``conjugate_bf_rate_loop`` and
  ``assign_maxmin_loop``: the per-link, per-UE and per-pair loops that the
  batched ``estimate_trial_links``, ``conjugate_bf_rate`` and
  ``assign_maxmin_distance`` replaced, kept as their references. The loop's
  cross row sums over the columns where any of the AP's served MF rows is
  nonzero, as the batched one does.
* ``synthesize_frame_loop``: every AP's full received frame Y_r, built
  as ``synthesize_frame`` built it before its shared pilot rows, its
  closed-form UPNG data count and its matched-filter domain (each AP's
  rows built UE by UE by ``pilot_rows_loop``, a data mask counted for the
  symbol draw). It is the bit-exact reference of ``ReceivedFrame.replay``
  and, filtered link by link, the reference of the MF-domain frame.
* ``full_frames``: a frame's replayed full received matrices, transmitted
  rows and noise, as three per-AP lists.
* ``dft_cross_power_where`` and ``conjugate_bf_rate_add_at``: the earlier
  forms of ``dft_cross_power`` (the sin-ratio on every entry, then masked)
  and ``conjugate_bf_rate`` (A_wu accumulated with ``np.add.at``), which
  the library must match bit for bit.
* ``trial_frames``: every curve's frame of one trial at one sweep point,
  drawn as ``run_trial`` draws it.
"""

from collections import namedtuple

import numpy as np

from cfpilot import analytics
from cfpilot.airframe import DEFAULT_DATA_ALPHABET, synthesize_frame
from cfpilot.analytics import RateReport, cross_powers, interference_profile, pilot_matrix
from cfpilot.channel import draw_channels, sample_fading
from cfpilot.estimator import LinkEstimates, estimate_trial_links
from cfpilot.harness import TrialDraws, point_config
from cfpilot.pilots import (REGIME_UPNG, REGIMES, SCHEME_DFT_EXT, SCHEME_RANDOM, dft_sequence,
                            make_mf_sequence)

CovariancePair = namedtuple("CovariancePair", ("sigma_yh", "sigma_y"))


def link_covariances(book, net, gains, regime, noise_w, p_ul, m_antennas=4):
    """The estimator's identity-scaled covariances per served link.

    Returns ``(links, yh, ys)``: the ``LinkEstimates`` of one synthesized
    frame and (R, U) arrays, zero on unserved pairs, of Sigma_yh =
    gamma / gain_scale and Sigma_y = (desired + interference + noise power)
    / M. Neither scale depends on the fading, noise or data draw.
    """
    rng = np.random.default_rng(0)
    chan = draw_channels(net, gains, m_antennas, rng, noise_w)
    links = estimate_trial_links(synthesize_frame(book, net, chan, regime, p_ul, rng))
    yh, ys = np.zeros(net.d_ru.shape), np.zeros(net.d_ru.shape)
    yh[links.ap, links.ue] = links.gamma[links.ap, links.ue] / links.gain_scale
    ys[links.ap, links.ue] = (links.desired_power + links.interference_power
                              + links.noise_power) / m_antennas
    return links, yh, ys


def link_profile(book, net, gains, regime, r, u):
    """``interference_profile`` of link (r, u), with its MF window and cross row."""
    mf = make_mf_sequence(book, net, r, u)
    cross = pilot_matrix(book, net, r) @ mf.row.conj()
    return interference_profile(gains, regime, mf, cross_powers(book, mf, cross))


def uncontaminated_links(net, gamma):
    """``LinkEstimates`` of every served pair carrying ``gamma`` and zero
    cross rows and data counts, so the rate bound has no contamination."""
    served = np.zeros(net.d_ru.shape, dtype=bool)
    np.put_along_axis(served, net.serving, True, axis=1)
    ap, ue = np.nonzero(served)
    n_links, zeros = ap.size, np.zeros(ap.size)
    return LinkEstimates(ap=ap, ue=ue, nmse=zeros, gamma=gamma, desired_power=zeros,
                         interference_power=zeros, noise_power=zeros,
                         gain_scale=np.ones(n_links), cross=np.zeros((n_links, net.n_ues)),
                         bleed=np.zeros((n_links, net.n_ues)))


def dft_cross_inner(m, n, tau_p, tau_overlap):
    """Inner product of two DFT pilots overlapping on tau_overlap samples.

    The trailing tau_overlap samples of the earlier-arriving row m (the MF
    target) correlate against the leading samples of the later-arriving
    row n. With w = exp(-j 2 pi / tau_p):

        w^(m (tau_p - tau_overlap)) * (w^((m-n) tau_overlap) - 1) / (w^(m-n) - 1)

    and the coherent limit w^(m (tau_p - tau_overlap)) * tau_overlap for
    m == n. Nonpositive overlaps return 0 (disjoint sequences).
    """
    if tau_overlap <= 0:
        return 0j
    if tau_overlap > tau_p:
        raise ValueError("tau_overlap cannot exceed tau_p")
    w = np.exp(-2j * np.pi / tau_p)
    lead = w ** (m * (tau_p - tau_overlap))
    if (m - n) % tau_p == 0:
        return lead * tau_overlap
    return lead * (w ** ((m - n) * tau_overlap) - 1) / (w ** (m - n) - 1)


def empirical_covariance_oracle(book, net, gains, regime, r, u, noise_w, p_ul,
                                trials, rng, m_antennas=8, batch=10000,
                                data_alphabet=DEFAULT_DATA_ALPHABET):
    """Estimate the MF-output covariances by Monte-Carlo.

    Fresh fading, noise, data symbols and (for the random scheme) pilot
    phases are drawn every trial with the large-scale gains frozen; the MF
    noise is drawn directly from its exact law CN(0, noise_w tau_p / p_ul)
    per antenna. Returns empirical (Sigma_yh, Sigma_y) matrices.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    tau_p = book.tau_p
    lam = book.seq_len
    t = net.t_ur[r].astype(int)
    n_ue = net.n_ues
    g = gains.gain[r]

    if book.scheme == SCHEME_DFT_EXT:
        if u not in net.serving[r]:
            raise ValueError("extended-DFT oracle runs on served links")
        w0 = int(net.t_w_r[r])
        m_u = int(book.assignment[u])
        tgt_fixed = dft_sequence(m_u, tau_p)
        align = np.exp(2j * np.pi * m_u * (w0 - t[u]) / tau_p)
    else:
        w0 = int(t[u])
        tgt_fixed = book.sequences[u, :tau_p]
        align = 1.0 + 0j

    a = np.maximum(w0, t)
    b = np.minimum(w0 + tau_p, t + lam)
    if regime == REGIME_UPNG:
        n_data = np.clip(w0 + tau_p - (t + lam), 0, tau_p)
    else:
        n_data = np.zeros(n_ue, dtype=int)

    randomized = book.scheme == SCHEME_RANDOM
    if randomized:
        used = np.unique(book.assignment)
        slot = {int(m): i for i, m in enumerate(used)}
        p_lev = book.phase_levels

    accum_y = np.zeros((m_antennas, m_antennas), dtype=complex)
    accum_yh = np.zeros((m_antennas, m_antennas), dtype=complex)
    done = 0
    while done < trials:
        nb = min(batch, trials - done)
        if randomized:
            pool = np.exp(2j * np.pi * rng.integers(0, p_lev, (nb, len(used), tau_p)) / p_lev)
            tgt = pool[:, slot[int(book.assignment[u])], :]
        else:
            tgt = tgt_fixed[None, :]
        c = np.zeros((nb, n_ue), dtype=complex)
        for up in range(n_ue):
            if b[up] > a[up]:
                i0 = int(a[up] - t[up])
                j0 = int(a[up] - w0)
                ln = int(b[up] - a[up])
                if randomized:
                    s_i = pool[:, slot[int(book.assignment[up])], i0:i0 + ln]
                else:
                    s_i = book.sequences[up, i0:i0 + ln][None, :]
                c[:, up] = (s_i * tgt[..., j0:j0 + ln].conj()).sum(axis=-1)
            if n_data[up] > 0:
                nd = int(n_data[up])
                j0 = int(max(w0, t[up] + lam) - w0)
                syms = data_alphabet[rng.integers(0, len(data_alphabet), (nb, nd))]
                c[:, up] += (syms * tgt[..., j0:j0 + nd].conj()).sum(axis=-1)
        h = np.sqrt(g)[None, :, None] * sample_fading(m_antennas, rng, size=(nb, n_ue))
        z = np.sqrt(noise_w * tau_p / p_ul / 2.0) * (
            rng.standard_normal((nb, m_antennas)) + 1j * rng.standard_normal((nb, m_antennas)))
        y = np.einsum("bu,bum->bm", c, h) + z
        y_al = np.conj(align) * y
        accum_y += np.einsum("bm,bn->mn", y, y.conj())
        accum_yh += np.einsum("bm,bn->mn", y_al, h[:, u, :].conj())
        done += nb
    return CovariancePair(sigma_yh=accum_yh / trials, sigma_y=accum_y / trials)


def estimate_links_loop(frame):
    """``estimate_trial_links`` one served link at a time, in the same order, each
    MF output filtered from the replayed full frame Y_r."""
    book, net, chan = frame.book, frame.net, frame.chan
    p_ul, noise_w = frame.p_ul, chan.noise_w
    m_ant = chan.m_antennas
    aps, ues, nmses = [], [], []
    des_p, int_p, noi_p, gscale, cross, bleeds = [], [], [], [], [], []
    gamma = np.zeros((net.n_aps, net.n_ues))
    sqrt_p = np.sqrt(p_ul)
    noise_scale = noise_w * book.tau_p / p_ul
    upng = frame.regime == REGIME_UPNG
    for r, (y_r, _, _) in enumerate(frame.replay()):
        pilot_mat = analytics.pilot_matrix(book, net, r)
        # the AP's span: the columns where any of its served links' MF rows is nonzero
        cols = np.flatnonzero(make_mf_sequence(book, net, r, net.serving[r]).row.any(axis=0))
        span = slice(cols[0], cols[-1] + 1)
        for u in net.serving[r]:
            u = int(u)
            mf = make_mf_sequence(book, net, r, u)
            row = mf.row.conj()
            y = y_r @ row / sqrt_p
            c = pilot_mat[:, span] @ row[span]
            prof = analytics.interference_profile(chan.gains, frame.regime, mf,
                                                  analytics.cross_powers(book, mf, c))
            g = chan.gains.gain[r, u]
            pilot = mf.pilot[u]
            yh = pilot * g
            ys = pilot**2 * g + prof.sum() + noise_scale
            obs = np.conj(mf.align_phase) * y
            h_hat = (yh / ys) * obs
            h = chan.h[r, u]
            err = h - h_hat
            aps.append(r)
            ues.append(u)
            nmses.append(np.vdot(err, err).real / np.vdot(h, h).real)
            gamma[r, u] = yh * yh / ys
            des_p.append(m_ant * g * pilot**2)
            int_p.append(m_ant * prof.sum())
            noi_p.append(m_ant * noise_scale)
            gscale.append(yh / ys)
            cross.append(np.conj(mf.align_phase) * c)
            nd = mf.data * upng
            nd[u] = 0
            bleeds.append(nd)
    return LinkEstimates(
        ap=np.array(aps, dtype=np.int64),
        ue=np.array(ues, dtype=np.int64),
        nmse=np.array(nmses),
        gamma=gamma,
        desired_power=np.array(des_p),
        interference_power=np.array(int_p),
        noise_power=np.array(noi_p),
        gain_scale=np.array(gscale),
        cross=np.array(cross),
        bleed=np.array(bleeds),
    )


def conjugate_bf_rate_loop(net, gains, links, p_dl, noise_w, m_antennas, overhead):
    """``conjugate_bf_rate`` one link, then one UE, at a time."""
    n_ue = net.n_ues
    gamma = links.gamma
    se = np.zeros(n_ue)
    sinr = np.zeros(n_ue)
    cluster_len = np.array([len(net.serving[r]) for r in range(net.n_aps)], dtype=float)
    total_gain = gains.gain.sum(axis=0)
    amat = np.zeros((n_ue, n_ue), dtype=complex)  # [w, u]
    bterm = np.zeros(n_ue)
    for i, (r, w) in enumerate(zip(links.ap, links.ue)):
        if gamma[r, w] <= 0:
            continue
        eta = 1.0 / (m_antennas * gamma[r, w] * cluster_len[r])
        amat[w] += np.sqrt(eta) * links.gain_scale[i] * np.conj(links.cross[i]) * gains.gain[r]
        bterm += eta * links.gain_scale[i]**2 * links.bleed[i] * gains.gain[r]**2
    np.fill_diagonal(amat, 0.0)
    contamination = (np.abs(amat) ** 2).sum(axis=0) + bterm
    for u in range(n_ue):
        aps = np.flatnonzero((net.serving == u).any(axis=1))
        if len(aps) == 0:
            continue
        coherent = np.sqrt(gamma[aps, u] / cluster_len[aps]).sum()
        den = (p_dl * total_gain[u] + noise_w
               + p_dl * m_antennas**2 * contamination[u])
        sinr[u] = p_dl * m_antennas * coherent**2 / den
        se[u] = overhead * np.log2(1.0 + sinr[u])
    return RateReport(se_per_ue=se, sinr_per_ue=sinr)


def assign_maxmin_loop(ue_positions, tau_p):
    """``assign_maxmin_distance`` with one ``np.linalg.norm`` per UE pair."""
    pos = np.asarray(ue_positions, dtype=float)
    n = pos.shape[0]
    assignment = np.full(n, -1, dtype=np.int64)
    members = [[] for _ in range(tau_p)]
    for u in range(n):
        load = np.array([len(mem) for mem in members])
        candidates = np.flatnonzero(load == load.min())
        best_m, best_score = candidates[0], -np.inf
        for m in candidates:
            if not members[m]:
                score = np.inf
            else:
                score = min(np.linalg.norm(pos[u] - pos[v]) for v in members[m])
            if score > best_score:
                best_m, best_score = m, score
        assignment[u] = best_m
        members[best_m].append(u)
    return assignment


def pilot_rows_loop(book, net, r):
    """AP r's zero-padded pilot rows (``BookSetup.row``), filled one UE at a time."""
    x = np.zeros((net.n_ues, book.seq_len + int(net.t_max_r[r])), dtype=complex)
    for u, t in enumerate(net.t_ur[r]):
        x[u, t:t + book.seq_len] = book.sequences[u]
    return x


def synthesize_frame_loop(book, net, chan, regime, p_ul, rng):
    """Every AP's full received frame, one AP at a time, drawn as ``synthesize_frame``
    draws; returns the lists of Y_r, transmitted rows and noise."""
    ys, xs, zs = [], [], []
    sigma = np.sqrt(chan.noise_w / 2.0)
    m_ant = chan.m_antennas
    for r in range(net.n_aps):
        x = pilot_rows_loop(book, net, r)
        if regime == REGIME_UPNG:
            data = np.arange(x.shape[1]) >= (net.t_ur[r] + book.seq_len)[:, None]
            if data.any():
                idx = rng.integers(0, len(DEFAULT_DATA_ALPHABET), size=int(data.sum()))
                x[data] = DEFAULT_DATA_ALPHABET[idx]
        # the real parts' draws, then the imaginary parts', in one call
        w = rng.standard_normal((2, m_ant, x.shape[1]))
        z = np.empty((m_ant, x.shape[1]), dtype=complex)
        np.multiply(w[0], sigma, out=z.real)
        np.multiply(w[1], sigma, out=z.imag)
        ys.append(np.sqrt(p_ul) * (chan.h[r].T @ x) + z)
        xs.append(x)
        zs.append(z)
    return ys, xs, zs


def dft_cross_power_where(k, tau_p, pilot):
    """``dft_cross_power`` with the sin-ratio evaluated on every entry, then masked."""
    copilot = k % tau_p == 0
    ratio = np.sin(np.pi * k * pilot / tau_p) / np.sin(np.pi * np.where(copilot, 1, k) / tau_p)
    return np.where(copilot, pilot * pilot, np.where(k * pilot % tau_p == 0, 0.0, ratio ** 2))


def conjugate_bf_rate_add_at(net, gains, links, p_dl, noise_w, m_antennas, overhead):
    """``conjugate_bf_rate`` with A_wu accumulated by ``np.add.at`` on the complex matrix."""
    n_ue = net.n_ues
    gamma = links.gamma
    cluster_len = float(net.serving.shape[1])
    keep = gamma[links.ap, links.ue] > 0
    ap, w = links.ap[keep], links.ue[keep]
    eta = 1.0 / (m_antennas * gamma[ap, w] * cluster_len)
    scale = links.gain_scale[keep]
    gain = gains.gain[ap]
    amat = np.zeros((n_ue, n_ue), dtype=complex)  # [w, u]
    np.add.at(amat, w, (np.sqrt(eta) * scale)[:, None] * np.conj(links.cross[keep]) * gain)
    bterm = ((eta * scale**2)[:, None] * links.bleed[keep] * gain**2).sum(axis=0)
    np.fill_diagonal(amat, 0.0)
    contamination = (np.abs(amat) ** 2).sum(axis=0) + bterm
    served = np.zeros(n_ue, dtype=bool)
    served[net.serving] = True
    coherent = np.sqrt(gamma / cluster_len).sum(axis=0)[served]
    den = (p_dl * gains.gain.sum(axis=0)[served] + noise_w
           + p_dl * m_antennas**2 * contamination[served])
    sinr = np.zeros(n_ue)
    se = np.zeros(n_ue)
    sinr[served] = p_dl * m_antennas * coherent**2 / den
    se[served] = overhead * np.log2(1.0 + sinr[served])
    return RateReport(se_per_ue=se, sinr_per_ue=sinr)


def full_frames(frame):
    """``frame``'s replayed full received matrices, transmitted rows and noise
    (``ReceivedFrame.replay``), as three per-AP lists."""
    return tuple(map(list, zip(*frame.replay())))


def trial_frames(cfg, sweep_value, trial):
    """Yield (curve, ReceivedFrame) for every curve of one trial, drawn as in ``run_trial``."""
    draws, pc = TrialDraws(cfg, trial), point_config(cfg, sweep_value)
    for ci, curve in enumerate(cfg.curves):
        yield curve, draws.frame(pc, ci)
