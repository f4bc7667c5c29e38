"""Per-interferer matched-filter power factors, cross-correlation comparison
tables, NMSE aggregation and the downlink conjugate-beamforming rate bound.

The per-interferer factors of :func:`interference_profile` are the single
source of truth for the estimator's covariance assembly:

* random pilots: expected power equals the sequence overlap time (the pilot
  overlap under a guard time; the full pilot length when an earlier
  interferer's data also falls in the window).
* DFT pilots: the deterministic squared sin-ratio of the partial geometric
  series, plus the data bleed-through count without a guard time.
* extended DFT: UEs whose (cyclically extended) pilot covers the whole MF
  window contribute either exactly zero (different pilot index) or the full
  coherent tau_p^2 (co-pilot); UEs outside that significant set contribute
  the numerically evaluated partial inner product plus any data bleed.

Rate bound (pinned design): downlink conjugate beamforming with channel
hardening, equal power fractions across each AP's served UEs and full per-AP
power. With gamma_ru the per-antenna mean square of the LMMSE channel
estimate, g_ru = tau_p beta_ru psi_ru / Sigma_y(r,u) the LMMSE gain and
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

from .airframe import REGIME_UPG, REGIME_UPNG, REGIMES, augmented_matrix
from .geometry import significant_set
from .pilots import SCHEME_DFT, SCHEME_DFT_EXT, SCHEME_RANDOM

NMSE_LINEAR_FLOOR = 1e-15


def overlap_time(regime, t_u, t_other, tau_p):
    """Sequence overlap time between the MF target (delay t_u) and another UE.

    UPG: tau_p - |t_u - t_other|, clipped to [0, tau_p]. UPNG: the full
    tau_p whenever the target arrives later (the earlier UE's data keeps
    overlapping), otherwise the UPG value.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    t_u = np.asarray(t_u)
    t_other = np.asarray(t_other)
    base = np.clip(tau_p - np.abs(t_u - t_other), 0, tau_p)
    if regime == REGIME_UPNG:
        out = np.where(t_u > t_other, tau_p, base)
    else:
        out = base
    return out if out.ndim else int(out)


def dft_cross_power(regime, k, tau_p, delta):
    """Expected squared MF cross term of a DFT-pilot interferer at unit gain.

    ``k`` is the pilot index difference (target minus interferer) and
    ``delta`` the delay difference t_target - t_interferer; both broadcast.
    Over the overlap ov = clip(tau_p - |delta|, 0, tau_p) the pilot part is
    ov^2 for co-pilot pairs (k = 0 mod tau_p), exactly 0 on the lattice
    k ov = 0 (mod tau_p) (e.g. full overlap), and otherwise the squared
    sin-ratio (sin(pi k ov / tau_p) / sin(pi k / tau_p))^2. Without a guard
    time an earlier interferer adds min(delta, tau_p) data samples.
    """
    # np.minimum/np.maximum, not np.clip: this runs once per served link
    ov = np.minimum(tau_p, np.maximum(tau_p - np.abs(delta), 0))
    copilot = k % tau_p == 0
    ratio = np.sin(np.pi * k * ov / tau_p) / np.sin(np.pi * np.where(copilot, 1, k) / tau_p)
    out = np.where(copilot, ov * ov, np.where(k * ov % tau_p == 0, 0.0, ratio ** 2))
    if regime == REGIME_UPNG:
        out += np.minimum(tau_p, np.maximum(delta, 0))
    return out


def pilot_matrix(book, net, r):
    """Zero-padded pilot-only rows of every UE at AP r (no data tail)."""
    return augmented_matrix(book, net, REGIME_UPG, r, None)


def interference_profile(book, net, gains, regime, r, u, mf_row=None, pilot_mat=None):
    """Per-interferer contributions to the MF signal covariance diagonal.

    Returns an array over all UEs (zero at the target) of
    beta' psi' * <expected squared MF cross term>, matching the scheme and
    regime rules above. For the extended scheme the entries of UEs outside
    the significant set are evaluated numerically from the zero-padded pilot
    rows, which requires ``mf_row`` (and reuses ``pilot_mat`` when given).
    """
    tau_p = book.tau_p
    g = gains.gain[r]
    t = net.t_ur[r]
    tu = int(t[u])
    m_idx = book.assignment
    n_ue = net.n_ues

    if book.scheme == SCHEME_RANDOM:
        ov = overlap_time(regime, tu, t, tau_p)
        factor = np.asarray(ov, dtype=float)
    elif book.scheme == SCHEME_DFT:
        factor = dft_cross_power(regime, m_idx[u] - m_idx, tau_p, tu - t)
    elif book.scheme == SCHEME_DFT_EXT:
        if mf_row is None:
            raise ValueError("extended scheme needs the MF row for the partial terms")
        tw = int(net.t_w_r[r])
        lam = book.seq_len
        inside = np.zeros(n_ue, dtype=bool)
        inside[significant_set(net, r, book.tau_ex)] = True
        factor = np.zeros(n_ue)
        factor[inside & (m_idx == m_idx[u])] = float(tau_p) ** 2
        outside = ~inside
        if outside.any():
            if pilot_mat is None:
                pilot_mat = pilot_matrix(book, net, r)
            i_det = pilot_mat[outside] @ mf_row.conj()
            part = np.abs(i_det) ** 2
            if regime == REGIME_UPNG:
                part = part + np.clip(tw + tau_p - (t[outside] + lam), 0, tau_p)
            factor[outside] = part
    else:
        raise ValueError(f"unknown pilot scheme {book.scheme!r}")

    out = g * factor
    out[u] = 0.0
    return out


# ---------------------------------------------------------------------------
# Cross-correlation comparison (random vs DFT pilots at a fixed delay)
# ---------------------------------------------------------------------------

def _random_cross_mc(tau_p, delay, regime, trials, rng, phase_levels):
    """Monte-Carlo mean squared MF cross-correlation for random pilots.

    The MF target arrives ``delay`` samples after the interferer, so the
    UPNG case includes the interferer's data bleed.
    """
    ov = max(0, tau_p - delay)
    tgt = np.exp(2j * np.pi * rng.integers(0, phase_levels, (trials, tau_p)) / phase_levels)
    other = np.exp(2j * np.pi * rng.integers(0, phase_levels, (trials, tau_p)) / phase_levels)
    c = np.zeros(trials, dtype=complex)
    if ov > 0:
        c += (other[:, delay:delay + ov] * tgt[:, :ov].conj()).sum(axis=1)
    if regime == REGIME_UPNG:
        nd = min(tau_p, delay)
        if nd > 0:
            syms = np.exp(2j * np.pi * rng.integers(0, 4, (trials, nd)) / 4)
            c += (syms * tgt[:, ov:ov + nd].conj()).sum(axis=1)
    return float(np.mean(np.abs(c) ** 2))


def _dft_cross_closed(tau_p, delay, regime, pair_mode):
    if pair_mode == "adjacent":
        k = 1
    elif pair_mode == "mean_pairs":
        m, n = np.divmod(np.arange(tau_p * tau_p), tau_p)
        k = (m - n)[m != n]
    else:
        raise ValueError(f"unknown pair_mode {pair_mode!r}")
    return float(np.mean(dft_cross_power(regime, k, tau_p, delay)))


def crosscorr_comparison(tau_p_values, delay, rng, trials=2000,
                         pair_mode="adjacent", regime=REGIME_UPG, phase_levels=8):
    """Mean squared MF cross-correlation versus pilot length at a fixed delay.

    Random pilots are measured by Monte-Carlo (with the exact expectation,
    the overlap time, reported alongside); DFT pilots use the closed form,
    either for the adjacent index pair (1, 0) or averaged over all ordered
    pairs m != n. Returns one dict per pilot length.
    """
    rows = []
    for tau_p in tau_p_values:
        tau_p = int(tau_p)
        rows.append({
            "tau_p": tau_p,
            "random_mc": _random_cross_mc(tau_p, delay, regime, trials, rng, phase_levels),
            "random_expected": float(overlap_time(regime, delay, 0, tau_p)),
            "dft_closed": float(_dft_cross_closed(tau_p, delay, regime, pair_mode)),
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
    overhead: float

    @property
    def se_mean(self):
        return float(self.se_per_ue.mean())


def overhead_factor(tau_c, tau_p, tau_ex):
    """Fraction of the coherence block left after pilots, clipped to [0, 1]."""
    return float(np.clip((tau_c - tau_p - tau_ex) / tau_c, 0.0, 1.0))


def conjugate_bf_rate(net, gains, gamma, p_dl, noise_w, m_antennas, overhead,
                      link_ap=None, link_ue=None, link_gain_scale=None,
                      link_cross=None, link_bleed=None):
    """Per-UE downlink spectral efficiency under the pinned hardening bound.

    Parameters
    ----------
    gamma : (R, U) array
        Per-antenna mean square of the channel estimate for served pairs
        (zero elsewhere), i.e. (tau_p * beta * psi)^2 / Sigma_y.
    link_ap, link_ue : int arrays, optional
        Served (AP, UE) pairs for which contamination data is supplied.
    link_gain_scale : array, optional
        LMMSE gain tau_p beta psi / Sigma_y per supplied link.
    link_cross : (n_links, U) complex array, optional
        Aligned deterministic MF cross coefficients c_rw,u per supplied
        link; when omitted the contamination term is zero.
    link_bleed : (n_links, U) array, optional
        Per-victim data-sample counts inside each link's MF window.
    """
    n_ue = net.n_ues
    se = np.zeros(n_ue)
    sinr = np.zeros(n_ue)
    cluster_len = np.array([len(net.serving[r]) for r in range(net.n_aps)], dtype=float)
    total_gain = gains.gain.sum(axis=0)
    contamination = np.zeros(n_ue)
    if link_cross is not None:
        amat = np.zeros((n_ue, n_ue), dtype=complex)  # [w, u]
        bterm = np.zeros(n_ue)
        for i in range(len(link_ap)):
            r, w = int(link_ap[i]), int(link_ue[i])
            if gamma[r, w] <= 0:
                continue
            eta = 1.0 / (m_antennas * gamma[r, w] * cluster_len[r])
            amat[w] += (np.sqrt(eta) * link_gain_scale[i]
                        * np.conj(link_cross[i]) * gains.gain[r])
            if link_bleed is not None:
                bterm += eta * link_gain_scale[i]**2 * link_bleed[i] * gains.gain[r]**2
        np.fill_diagonal(amat, 0.0)
        contamination = (np.abs(amat) ** 2).sum(axis=0) + bterm
    for u in range(n_ue):
        aps = net.serving_aps[u]
        if len(aps) == 0:
            continue
        coherent = np.sqrt(gamma[aps, u] / cluster_len[aps]).sum()
        den = (p_dl * total_gain[u] + noise_w
               + p_dl * m_antennas**2 * contamination[u])
        sinr[u] = p_dl * m_antennas * coherent**2 / den
        se[u] = overhead * np.log2(1.0 + sinr[u])
    return RateReport(se_per_ue=se, sinr_per_ue=sinr, overhead=overhead)


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
        "mean_linear": float(vals.mean()),
        "mean_db": _to_db(vals.mean()),
        "p10_db": _to_db(np.percentile(vals, 10)),
        "p90_db": _to_db(np.percentile(vals, 90)),
        "count": int(vals.size),
    }
