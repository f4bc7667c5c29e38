"""Per-interferer matched-filter power factors, cross-correlation comparison
tables, NMSE aggregation and the downlink conjugate-beamforming rate bound.

The per-interferer factors of :func:`interference_profile` are the single
source of truth for the estimator's covariance assembly. They read the
link's MF window counts (``MFSequence.pilot`` and ``.data``: the window
samples that carry a UE's pilot and those after it, which carry data under
UPNG only) and its cross row c = pilot_mat @ conj(mf.row):

* random pilots: expected power equals the pilot plus data samples.
* DFT pilots: the deterministic squared sin-ratio over the pilot samples,
  plus the data samples.
* extended DFT: a UE is covered when its (cyclically extended) pilot fills
  the whole window (pilot = tau_p); it contributes exactly zero (different
  pilot index) or the full coherent tau_p^2 (co-pilot). Every other UE,
  served or not, contributes |c|^2 plus its data samples.

The target's own pilot samples set its desired part: Sigma_yh = pilot_u
beta psi and desired power pilot_u^2 beta psi, which is tau_p (squared) on
every random/DFT link and every covered extended link. Its own data samples
(nonzero only on an uncovered extended link under UPNG) count as
interference.

Batched layout: :func:`interference_profile` takes the MF windows and cross
rows of any number of links (leading axes) and returns one row over all UEs
per link; the estimator passes every served link of a frame in one call.
:func:`conjugate_bf_rate` reads the links in the estimator's (AP,
serving-order) order: A_wu accumulates with ``np.add.at`` and B_wu as a sum
over the link axis, both in that order, and each UE's coherent gain sums its
serving APs in index order.

Rate bound (pinned design): downlink conjugate beamforming with channel
hardening, equal power fractions across each AP's served UEs and full per-AP
power. With gamma_ru the per-antenna mean square of the LMMSE channel
estimate, g_ru = Sigma_yh(r,u) / Sigma_y(r,u) the LMMSE gain and
k_r = |U_r|,

    eta_ru = 1 / (M * gamma_ru * k_r)
    SINR_u = p_dl * M * (sum_{r in R_u} sqrt(gamma_ru / k_r))^2 / D_u
    D_u    = p_dl * sum_{all r} beta_ru psi_ru + noise_w
             + p_dl * M^2 * sum_{w != u} ( |A_wu|^2 + B_wu )
    A_wu   = sum_{r in R_w} sqrt(eta_rw) g_rw conj(c_rw,u) beta_ru psi_ru
    B_wu   = sum_{r in R_w} eta_rw g_rw^2 n_rw(u) (beta_ru psi_ru)^2
    SE_u   = overhead * log2(1 + SINR_u),  overhead = (tau_c-tau_p-tau_ex)/tau_c

The first denominator term is the exact beamforming-uncertainty-plus-
fluctuation variance of all AP transmissions at UE u (the per-AP power
normalization makes it independent of estimate quality). The |A_wu|^2 term
is estimate contamination: c_rw,u is the deterministic pilot-part MF cross
coefficient of UE u inside AP r's estimate for its served UE w (window-
phase aligned), so a beam steered at w coherently leaks toward u. In the
synchronous case c is tau_p for co-pilot pairs and 0 otherwise, recovering
the classic coherent pilot-contamination term; under asynchronous reception
every UE pair contributes. B_wu carries the same mechanism for the n_rw(u)
data samples of UE u that fall inside the window without a guard time
(independent across APs, hence summed incoherently). The golden test
freezes one full evaluation.

An independent downlink Monte-Carlo (``tests/downlink_oracle.py``) measures
E[b_uu], Var[b_uu] and sum_w E|b_uw|^2 of the effective beamforming gains
b_uw on the real estimates of a frozen network and checks this closed form
per UE for plain DFT, extended DFT and the synchronous baseline. Acceptance
criterion 9 checks the full-scale extended-vs-plain rate gain against it.

The abstract's +40% rate gain is not reproduced under this bound: the
500-trial full-scale acceptance fixture at 20 dBm gives +13.2%
(0.168 b/s/Hz). The paper gives no rate expression, downlink power or tau_c
behind its figure. Here the gain comes from the contamination term alone.
Estimate quality barely moves the rate: the mean gamma/(beta psi) over
served links is 0.88 for plain DFT and 0.98 for extended DFT, and the
extension costs training overhead, so with the contamination inputs dropped
extended DFT falls ~2% below plain. The gain stays at +13-13.5% at every
fig9 power from -36 to 20 dBm and reaches only ~+20% with no overhead
charged (40 trials per point).
"""

from dataclasses import dataclass

import numpy as np

from .airframe import REGIME_UPG, REGIME_UPNG, pilot_rows
from .pilots import SCHEME_DFT, SCHEME_DFT_EXT, SCHEME_RANDOM, window_counts

NMSE_LINEAR_FLOOR = 1e-15


def dft_cross_power(k, tau_p, pilot):
    """Squared pilot-part MF cross term of a DFT-pilot interferer at unit gain.

    ``k`` is the pilot index difference (target minus interferer) and
    ``pilot`` the interferer's pilot samples inside the window; both
    broadcast. The term is pilot^2 for co-pilot pairs (k = 0 mod tau_p),
    exactly 0 on the lattice k pilot = 0 (mod tau_p) (e.g. full overlap),
    and otherwise the squared sin-ratio
    (sin(pi k pilot / tau_p) / sin(pi k / tau_p))^2.
    """
    copilot = k % tau_p == 0
    ratio = np.sin(np.pi * k * pilot / tau_p) / np.sin(np.pi * np.where(copilot, 1, k) / tau_p)
    return np.where(copilot, pilot * pilot, np.where(k * pilot % tau_p == 0, 0.0, ratio ** 2))


def pilot_matrix(book, net, r):
    """Zero-padded pilot-only rows of every UE at AP r (no data tail)."""
    return pilot_rows(book, net, [r])[0]


def interference_profile(book, net, gains, regime, mf, cross):
    """Per-interferer contributions to the MF signal covariance diagonal.

    Returns, for each link of ``mf`` (an ``MFSequence``) whose pilot-part
    cross row is ``cross``, an array over all UEs (last axis) of
    beta' psi' * <expected squared MF cross term>, by the scheme rules
    above. The target's entry holds its own data samples only.
    """
    tau_p = book.tau_p
    m_idx = book.assignment
    m_target = m_idx[mf.ue][..., None]
    data = mf.data * (regime == REGIME_UPNG)
    if book.scheme == SCHEME_RANDOM:
        factor = mf.pilot + data
    elif book.scheme == SCHEME_DFT:
        factor = dft_cross_power(m_target - m_idx, tau_p, mf.pilot) + data
    elif book.scheme == SCHEME_DFT_EXT:
        coherent = np.where(m_idx == m_target, float(tau_p) ** 2, 0.0)
        factor = np.where(mf.pilot == tau_p, coherent, np.abs(cross) ** 2 + data)
    else:
        raise ValueError(f"unknown pilot scheme {book.scheme!r}")
    target = mf.ue[..., None]
    np.put_along_axis(factor, target, np.take_along_axis(data, target, axis=-1), axis=-1)
    return gains.gain[mf.ap] * factor


# ---------------------------------------------------------------------------
# Cross-correlation comparison (random vs DFT pilots at a fixed delay)
# ---------------------------------------------------------------------------

def _random_cross_mc(tau_p, delay, pilot, data, trials, rng, phase_levels):
    """Monte-Carlo mean squared MF cross-correlation for random pilots.

    The MF target arrives ``delay`` samples after the interferer, whose
    ``pilot`` samples and ``data`` symbols fall inside the target's window.
    """
    tgt = np.exp(2j * np.pi * rng.integers(0, phase_levels, (trials, tau_p)) / phase_levels)
    other = np.exp(2j * np.pi * rng.integers(0, phase_levels, (trials, tau_p)) / phase_levels)
    c = np.zeros(trials, dtype=complex)
    if pilot > 0:
        c += (other[:, delay:delay + pilot] * tgt[:, :pilot].conj()).sum(axis=1)
    if data > 0:
        syms = np.exp(2j * np.pi * rng.integers(0, 4, (trials, data)) / 4)
        c += (syms * tgt[:, pilot:pilot + data].conj()).sum(axis=1)
    return float(np.mean(np.abs(c) ** 2))


def _dft_cross_closed(tau_p, pilot, data, pair_mode):
    if pair_mode == "adjacent":
        k = 1
    elif pair_mode == "mean_pairs":
        m, n = np.divmod(np.arange(tau_p * tau_p), tau_p)
        k = (m - n)[m != n]
    else:
        raise ValueError(f"unknown pair_mode {pair_mode!r}")
    return float(np.mean(dft_cross_power(k, tau_p, pilot) + data))


def crosscorr_comparison(tau_p_values, delay, rng, trials=2000,
                         pair_mode="adjacent", regime=REGIME_UPG, phase_levels=8):
    """Mean squared MF cross-correlation versus pilot length at a fixed delay.

    Random pilots are measured by Monte-Carlo (with the exact expectation,
    the pilot plus data samples in the window, reported alongside); DFT
    pilots use the closed form, either for the adjacent index pair (1, 0) or
    averaged over all ordered pairs m != n. Returns one dict per pilot length.
    """
    rows = []
    for tau_p in tau_p_values:
        tau_p = int(tau_p)
        pilot, data = window_counts(delay, tau_p, 0, tau_p)
        data = data if regime == REGIME_UPNG else 0
        rows.append({
            "tau_p": tau_p,
            "random_mc": _random_cross_mc(tau_p, delay, pilot, data, trials, rng,
                                          phase_levels),
            "random_expected": float(pilot + data),
            "dft_closed": _dft_cross_closed(tau_p, pilot, data, pair_mode),
            "delay": delay,
        })
    return rows


def find_crossover(rows):
    """Smallest pilot length at which the DFT curve strictly exceeds random.

    Compares the closed-form columns; returns None when no such point exists.
    """
    for row in rows:
        if row["dft_closed"] > row["random_expected"] and row["dft_closed"] > 0:
            return row["tau_p"]
    return None


# ---------------------------------------------------------------------------
# Downlink conjugate-beamforming rate bound
# ---------------------------------------------------------------------------

@dataclass
class RateReport:
    se_per_ue: np.ndarray
    sinr_per_ue: np.ndarray


def overhead_factor(tau_c, tau_p, tau_ex):
    """Fraction of the coherence block left after pilots, clipped to [0, 1]."""
    return float(np.clip((tau_c - tau_p - tau_ex) / tau_c, 0.0, 1.0))


def conjugate_bf_rate(net, gains, links, p_dl, noise_w, m_antennas, overhead):
    """Per-UE downlink spectral efficiency under the pinned hardening bound.

    ``links`` is the trial's ``LinkEstimates``: its (R, U) ``gamma`` (zero
    off the served pairs) and, per served link, the LMMSE gain
    ``gain_scale``, the aligned cross row ``cross`` (c_rw,u) and the data
    counts ``bleed`` (n_rw(u)) of the contamination term.
    """
    n_ue = net.n_ues
    gamma = links.gamma
    cluster_len = float(net.serving.shape[1])  # k_r, the same at every AP
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


# ---------------------------------------------------------------------------
# NMSE aggregation
# ---------------------------------------------------------------------------

def _to_db(linear):
    return 10.0 * np.log10(max(float(linear), NMSE_LINEAR_FLOOR))


def nmse_aggregate(values):
    """Aggregate per-link NMSE ratios: linear mean and percentiles, in dB.

    Linear values are floored at 1e-15 before the log, so an all-perfect set
    reports -150 dB instead of -inf.
    """
    vals = np.asarray(values, dtype=float)
    if vals.size == 0:
        raise ValueError("nmse_aggregate needs at least one value")
    return {
        "mean_db": _to_db(vals.mean()),
        "p10_db": _to_db(np.percentile(vals, 10)),
        "p90_db": _to_db(np.percentile(vals, 90)),
        "count": int(vals.size),
    }
