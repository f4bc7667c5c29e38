"""Independent reference computations the tests compare the library against.

* ``dft_cross_inner``: closed-form inner product of two overlapped DFT
  pilots, the reference for the squared sin-ratio of
  ``cfpilot.analytics.dft_cross_power``.
* ``empirical_covariance_oracle``: Monte-Carlo MF-output covariances, the
  reference for the estimator's closed-form Sigma_y.
* ``link_covariances``: the estimator's closed-form covariance scales per
  served link, read back from ``estimate_trial_links``.
"""

from collections import namedtuple

import numpy as np

from cfpilot.airframe import DEFAULT_DATA_ALPHABET, REGIME_UPNG, REGIMES, synthesize_frame
from cfpilot.channel import draw_channels, sample_fading
from cfpilot.estimator import estimate_trial_links
from cfpilot.pilots import SCHEME_DFT_EXT, SCHEME_RANDOM, dft_sequence

CovariancePair = namedtuple("CovariancePair", ("sigma_yh", "sigma_y"))


def link_covariances(book, net, gains, regime, noise_w, p_ul, m_antennas=4):
    """The estimator's identity-scaled covariances per served link.

    Returns ``(links, yh, ys)``: the ``LinkEstimates`` of one synthesized
    frame and (R, U) arrays, zero on unserved pairs, of Sigma_yh =
    gamma / gain_scale and Sigma_y = (desired + interference + noise power)
    / M. Neither scale depends on the fading, noise or data draw.
    """
    rng = np.random.default_rng(0)
    chan = draw_channels(net, gains, m_antennas, rng, noise_w, p_ul)
    links = estimate_trial_links(synthesize_frame(book, net, chan, regime, p_ul, rng))
    yh, ys = np.zeros(net.d_ru.shape), np.zeros(net.d_ru.shape)
    yh[links.ap, links.ue] = links.gamma[links.ap, links.ue] / links.gain_scale
    ys[links.ap, links.ue] = (links.desired_power + links.interference_power
                              + links.noise_power) / m_antennas
    return links, yh, ys


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
