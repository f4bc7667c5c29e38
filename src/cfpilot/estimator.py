"""Matched filtering and LMMSE channel estimation over every served link.

The MF output for a served link is y = Y_r phi_MF^H / sqrt(p_ul). Under the
i.i.d. channel model its covariance is Sigma_y * I with

    Sigma_y = pilot_u^2 beta psi + sum_v interference_v + noise_w tau_p / p_ul,

where pilot_u counts the target's own pilot samples inside the MF window
(``MFSequence.pilot``; tau_p unless an extended-DFT target does not cover
the window), the per-interferer terms come from
:func:`cfpilot.analytics.interference_profile` (which also carries the
target's own UPNG data samples), and its cross-covariance with the channel
is Sigma_yh * I with Sigma_yh = pilot_u beta psi. The LMMSE estimate is
therefore the scalar gain Sigma_yh / Sigma_y times the observation; for the
extended scheme the known window phase (MFSequence ``align_phase``)
de-rotates the observation first. A link's expected NMSE is
1 - gamma / (beta psi), and its desired, interference and noise powers sum
to M * Sigma_y. Each link's cross row pilot_mat @ conj(mf.row) is computed
once and feeds both the covariance and the rate bound.
"""

from dataclasses import dataclass

import numpy as np

from . import analytics
from .airframe import REGIME_UPNG
from .pilots import make_mf_sequence


@dataclass
class LinkEstimates:
    """Per served-link results of one trial, in (AP, UE) iteration order.

    ``gain_scale`` holds the scalar LMMSE gain Sigma_yh / Sigma_y per link,
    ``cross`` the aligned deterministic pilot-part MF cross coefficients of
    every UE inside that link's estimate (n_links, U), and ``bleed`` the
    count of every other UE's data samples inside that link's MF window
    (zero under a guard time); all three feed the downlink rate bound's
    contamination term.
    """

    ap: np.ndarray
    ue: np.ndarray
    nmse: np.ndarray
    gamma: np.ndarray
    desired_power: np.ndarray
    interference_power: np.ndarray
    noise_power: np.ndarray
    gain_scale: np.ndarray
    cross: np.ndarray
    bleed: np.ndarray


def estimate_trial_links(frame):
    """Run MF + LMMSE over every served (AP, UE) pair of one frame.

    Returns per-link realized NMSE, the per-antenna estimate quality
    gamma = Sigma_yh^2 / Sigma_y laid out as an (R, U) array, and
    the expected MF power breakdown used by the diagnostic dump.
    """
    book, net, chan = frame.book, frame.net, frame.chan
    p_ul, noise_w = frame.p_ul, chan.noise_w
    m_ant = chan.m_antennas
    aps, ues, nmses = [], [], []
    des_p, int_p, noi_p, gscale, cross, bleeds = [], [], [], [], [], []
    gamma = np.zeros((net.n_aps, net.n_ues))
    sqrt_p = np.sqrt(p_ul)
    noise_scale = noise_w * book.tau_p / p_ul
    upng = frame.regime == REGIME_UPNG
    for r in range(net.n_aps):
        pilot_mat = analytics.pilot_matrix(book, net, r)
        y_r = frame.y[r]
        for u in net.serving[r]:
            u = int(u)
            mf = make_mf_sequence(book, net, r, u)
            row = mf.row.conj()
            y = y_r @ row / sqrt_p
            c = pilot_mat @ row
            prof = analytics.interference_profile(book, net, chan.gains, frame.regime, mf, c)
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
