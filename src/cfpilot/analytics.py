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

Each curve has its own overhead, since tau_ex is per curve.

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
criterion 9 checks the full-scale extended-vs-plain rate gain against it;
README states the measured gain.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .pilots import (REGIME_UPG, REGIME_UPNG, SCHEME_DFT, SCHEME_DFT_EXT, SCHEME_RANDOM,
                     book_setup, window_counts)

NMSE_LINEAR_FLOOR = 1e-15
_PHASE_LEVELS = 8  # of the random pilots in the cross-correlation comparison


def dft_cross_power(k, tau_p, pilot):
    """Squared pilot-part MF cross term of a DFT-pilot interferer at unit gain.

    ``k`` is the pilot index difference (target minus interferer) and
    ``pilot`` the interferer's pilot samples inside the window; both
    broadcast. The term is pilot^2 for co-pilot pairs (k = 0 mod tau_p),
    exactly 0 on the lattice k pilot = 0 (mod tau_p) (e.g. full overlap),
    and otherwise the squared sin-ratio
    (sin(pi k pilot / tau_p) / sin(pi k / tau_p))^2, evaluated on those
    entries only.
    """
    k, pilot = np.broadcast_arrays(k, pilot)
    copilot = k % tau_p == 0
    out = np.where(copilot, pilot * pilot, 0.0)
    rest = ~copilot & (k * pilot % tau_p != 0)
    k, pilot = k[rest], pilot[rest]
    out[rest] = (np.sin(np.pi * k * pilot / tau_p) / np.sin(np.pi * k / tau_p)) ** 2
    return out


@functools.lru_cache(maxsize=64)
def _dft_cross_table(tau_p):
    """:func:`dft_cross_power` at every k in (-tau_p, tau_p) (row k + tau_p - 1) and
    pilot in [0, tau_p] (column), read-only."""
    k = np.arange(1 - tau_p, tau_p)[:, None]
    table = dft_cross_power(k, tau_p, np.arange(tau_p + 1))
    table.flags.writeable = False
    return table


def pilot_matrix(book, net, r):
    """Zero-padded pilot-only rows of every UE at AP r (no data tail), as ``BookSetup.row``."""
    return book_setup(book, net).row(r)


def cross_powers(book, mf, cross):
    """The regime-free part of :func:`interference_profile`, at unit gain.

    For each link of ``mf`` (an ``MFSequence``) whose pilot-part cross row
    is ``cross``, an array over all UEs (last axis) of the expected squared
    pilot-part MF cross term by the scheme rules above: the pilot samples
    (random), the squared sin-ratio (DFT), or the coherent/zero value of a
    covered UE and |c|^2 otherwise (extended DFT). A covered UE has no data
    samples in the window, so every scheme adds the data samples alike.
    """
    if book.scheme == SCHEME_RANDOM:
        return mf.pilot
    m_idx = book.assignment
    m_target = m_idx[mf.ue][..., None]
    if book.scheme == SCHEME_DFT:
        # the table's flat indices: one index array gathers faster than two
        at = m_target - m_idx
        at += book.tau_p - 1
        at *= book.tau_p + 1
        return np.take(_dft_cross_table(book.tau_p), at + mf.pilot)
    if book.scheme == SCHEME_DFT_EXT:
        coherent = np.where(m_idx == m_target, float(book.tau_p) ** 2, 0.0)
        return np.where(mf.pilot == book.tau_p, coherent, np.abs(cross) ** 2)
    raise ValueError(f"unknown pilot scheme {book.scheme!r}")


def interference_profile(gains, regime, mf, cross_power):
    """Per-interferer contributions to the MF signal covariance diagonal.

    Returns, for each link of ``mf`` (an ``MFSequence``), an array over all
    UEs (last axis) of beta' psi' * <expected squared MF cross term>: the
    regime-free ``cross_power`` (:func:`cross_powers`) plus the data samples
    the regime sends. The target's entry holds its own data samples only.
    """
    upng = regime == REGIME_UPNG
    prof = gains.gain[mf.ap]
    prof *= (cross_power + mf.data) if upng else cross_power
    # the target's entry, links flattened
    flat = prof.reshape(-1, prof.shape[-1])
    link, ue = np.arange(flat.shape[0]), mf.ue.ravel()
    flat[link, ue] = gains.gain[mf.ap.ravel(), ue] * (mf.data.reshape(flat.shape)[link, ue] * upng)
    return prof


# ---------------------------------------------------------------------------
# Cross-correlation comparison (random vs DFT pilots at a fixed delay)
# ---------------------------------------------------------------------------

def _random_cross_mc(tau_p, delay, pilot, data, trials, rng):
    """Monte-Carlo mean squared MF cross-correlation for random pilots.

    The MF target arrives ``delay`` samples after the interferer, whose
    ``pilot`` samples and ``data`` symbols fall inside the target's window.
    """
    levels = _PHASE_LEVELS
    tgt = np.exp(2j * np.pi * rng.integers(0, levels, (trials, tau_p)) / levels)
    other = np.exp(2j * np.pi * rng.integers(0, levels, (trials, tau_p)) / levels)
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
                         pair_mode="adjacent", regime=REGIME_UPG):
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
            "random_mc": _random_cross_mc(tau_p, delay, pilot, data, trials, rng),
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


@dataclass
class RateOperands:
    """The power-free operands of :func:`conjugate_bf_rate` on one trial's ``LinkEstimates``.

    Of the bound's inputs only gamma, the LMMSE gains and p_dl read the
    transmit power, so a sweep builds these once per point that draws a
    curve and a later power of the same draws reuses them. The links'
    cross rows and data counts are read from the ``LinkEstimates`` itself.

    ``ap`` and ``w`` are one curve block's links (AP, target UE), which
    every block repeats. The A_wu terms are laid out by rank: a link's rank
    is its place among its group's links (the links with its target w, in
    link order), and the groups run from the largest. Row i holds block
    link ``link[i]``; the rows of rank j start at row ``slabs[j - 1]``
    (rank 0 at row 0), one per group with more than j links, so
    ``slabs[0]`` counts the groups, and the groups that have a rank-j link
    are a prefix of the rank-0 rows. So adding each rank's rows onto the
    first rows sums every A_wu bin in link order, as ``np.add.at`` does
    (``np.add.reduceat`` would not: it adds each group's first row to a
    pairwise sum of the others). ``gain`` holds those rows' gain rows
    b = beta_ru psi_ru with every entry twice, the second negated
    (links x 2U): for real s, Re((s conj c) b) = (s Re c) b and
    Im((s conj c) b) = (s Im c)(-b) hold exactly, so real products give
    the bits of the complex ones. ``diag`` is the flat index of each
    group's own entry A_ww in the summed (blocks x groups x U) terms, and
    ``by_w`` lists the groups in the order of w. ``bleed_curves`` are the
    blocks with data in a window and ``gain_sq`` the squared gain rows
    (None when no block has any); B_wu sums a block's links in link order.
    ``served`` masks the served UEs and ``gain_sum`` is their summed gains.
    """

    ap: np.ndarray
    w: np.ndarray
    link: np.ndarray
    slabs: list
    gain: np.ndarray
    diag: np.ndarray
    by_w: np.ndarray
    bleed_curves: np.ndarray
    gain_sq: np.ndarray
    served: np.ndarray
    gain_sum: np.ndarray


def _blocks(field):
    """A ``LinkEstimates`` ``cross`` or ``bleed`` field as a tuple of curve blocks."""
    return field if isinstance(field, tuple) else (field,)


def overhead_factor(tau_c, tau_p, tau_ex):
    """Fraction of the coherence block left after pilots, clipped to [0, 1] in plain floats."""
    return float(min(max((tau_c - tau_p - tau_ex) / tau_c, 0.0), 1.0))


def rate_operands(net, gains, links):
    """The :class:`RateOperands` of ``links``, a ``LinkEstimates`` of one curve or a stack."""
    n_ue, n = net.n_ues, net.serving.size
    ap, w = links.ap[:n], links.ue[:n]
    # one block's links grouped by target UE, in link order within a group
    grouped = np.argsort(w, kind="stable")
    first = np.flatnonzero(np.diff(w[grouped], prepend=-1))
    size = np.diff(first, append=n)
    place = np.empty(first.size, dtype=int)  # a group's place, from the largest
    place[np.argsort(-size, kind="stable")] = np.arange(first.size)
    group = np.repeat(np.arange(first.size), size)
    rank = np.arange(n) - first[group]
    link = grouped[np.lexsort((place[group], rank))]
    target = np.empty(first.size, dtype=int)
    target[place] = w[grouped[first]]
    blocks = links.ap.size // n
    diag = (np.arange(blocks * first.size).reshape(blocks, -1) * n_ue + target).ravel()
    # take's "clip" mode writes to ``out`` unbuffered; every index is in range
    gain = np.empty((n, 2 * n_ue))
    np.take(gains.gain, ap[link], axis=0, out=gain[:, ::2], mode="clip")
    np.negative(gain[:, ::2], out=gain[:, 1::2])
    bleed_curves = np.flatnonzero([bleed.any() for bleed in _blocks(links.bleed)])
    gain_sq = None  # no data bleeds into a window under a guard time
    if bleed_curves.size:
        gain_sq = gains.gain[ap]
        np.square(gain_sq, out=gain_sq)
    served = np.zeros(n_ue, dtype=bool)
    served[net.serving] = True
    return RateOperands(ap=ap, w=w, link=link, slabs=np.cumsum(np.bincount(rank)).tolist(),
                        gain=gain, diag=diag, by_w=place, bleed_curves=bleed_curves,
                        gain_sq=gain_sq, served=served, gain_sum=gains.gain.sum(axis=0)[served])


def conjugate_bf_rate(net, gains, links, p_dl, noise_w, m_antennas, overhead, operands=None):
    """Per-UE downlink spectral efficiency under the pinned hardening bound.

    ``links`` is the trial's ``LinkEstimates``, of one curve or of several
    stacked curve blocks: its ``gamma`` (zero off the served pairs) and, per
    served link, the LMMSE gain ``gain_scale``, the aligned cross row
    ``cross`` (c_rw,u) and the data counts ``bleed`` (n_rw(u)) of the
    contamination term. ``overhead`` is one factor, or one per block.
    ``operands`` caches :func:`rate_operands` of the same links, or of
    their power-free fields; it is built here when not given. The SE and
    SINR are (U,) for one curve and (curves, U) for several.
    """
    op = rate_operands(net, gains, links) if operands is None else operands
    n_ue = net.n_ues
    gamma = links.gamma.reshape(-1, *links.gamma.shape[-2:])  # (curves, R, U)
    cluster_len = float(net.serving.shape[1])  # k_r, the same at every AP
    link_gamma = gamma[:, op.ap, op.w]
    keep = link_gamma > 0
    # a link without an estimate gets eta = 0, so s = 0 and it adds exact zeros
    eta = np.divide(1.0, m_antennas * link_gamma * cluster_len,
                    out=np.zeros_like(link_gamma), where=keep)
    scale = links.gain_scale.reshape(link_gamma.shape)
    s = np.sqrt(eta) * scale
    # Re and Im of (s conj(c)) g for real s and g, each rank's rows added to the first rows
    s_rows = s[:, op.link, None]
    part = np.empty((op.link.size, 2 * n_ue))
    crosses = _blocks(links.cross)
    terms = np.empty((len(crosses), op.slabs[0], n_ue))  # |A_wu| [block, w, u], largest first
    for c, cross in enumerate(crosses):
        np.take(np.asarray(cross, dtype=complex), op.link, axis=0, out=part.view(complex),
                mode="clip")
        part *= s_rows[c]
        part *= op.gain
        for lo, hi in zip(op.slabs, op.slabs[1:]):
            part[:hi - lo] += part[lo:hi]
        np.abs(part[:op.slabs[0]].view(complex), out=terms[c])
    # freed before the sums' operands are made, which keeps a full-scale
    # trial's heap from growing
    del part
    terms.ravel()[op.diag] = 0.0
    np.square(terms, out=terms)
    contamination = terms[:, op.by_w].sum(axis=1)
    # the products cast the integer counts exactly
    bleeds = _blocks(links.bleed)
    for c in op.bleed_curves:
        bterm = (eta[c] * scale[c]**2)[:, None] * bleeds[c]
        bterm *= op.gain_sq
        contamination[c] += bterm.sum(axis=0)
    served = op.served
    coherent = gamma / cluster_len
    np.sqrt(coherent, out=coherent)
    coherent = coherent.sum(axis=1)[:, served]
    den = (p_dl * op.gain_sum + noise_w
           + p_dl * m_antennas**2 * contamination[:, served])
    sinr = np.zeros((gamma.shape[0], n_ue))
    se = np.zeros_like(sinr)
    sinr[:, served] = p_dl * m_antennas * coherent**2 / den
    se[:, served] = np.reshape(overhead, (-1, 1)) * np.log2(1.0 + sinr[:, served])
    shape = links.gamma.shape[:-2] + (n_ue,)
    return RateReport(se_per_ue=se.reshape(shape), sinr_per_ue=sinr.reshape(shape))


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
    p10, p90 = np.percentile(vals, (10, 90))
    return {"mean_db": _to_db(vals.mean()), "p10_db": _to_db(p10), "p90_db": _to_db(p90)}
