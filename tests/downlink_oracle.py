"""Independent downlink Monte-Carlo of the conjugate-beamforming rate bound.

Reference for ``cfpilot.analytics.conjugate_bf_rate``: it measures the
use-and-then-forget bound of Ngo et al., "Cell-Free Massive MIMO versus
Small Cells" (IEEE TWC 2017) empirically instead of in closed form.

One network, its large-scale gains and its pilot book are frozen. Every draw
redraws fading, noise and UPNG data, runs the real frame synthesis and MF +
LMMSE estimation, and rebuilds each served link's estimate h_hat_rw from the
MF output and the estimator's LMMSE gain (checked against the estimator's
realized NMSE). AP r sends sqrt(p_dl eta_rw) conj(h_hat_rw) s_w to each
served UE w with eta_rw = 1 / (M gamma_rw |U_r|): full per-AP power split
equally. UE u then receives sqrt(p_dl) sum_w b_uw s_w + noise with

    b_uw = sum_{r in R_w} sqrt(eta_rw) h_ru^T conj(h_hat_rw),

and the bound treats E[b_uu] as the known gain:

    SINR_u = p_dl |E b_uu|^2
             / (p_dl Var b_uu + p_dl sum_{w != u} E|b_uw|^2 + noise_w)
    SE_u   = (tau_c - tau_p - tau_ex) / tau_c * log2(1 + SINR_u)

The moments are sample means over the draws. Nothing here reads a rate,
SINR or contamination value from ``cfpilot.analytics``.
"""

from dataclasses import dataclass

import numpy as np
from oracles import full_frames, trial_frames

from cfpilot.airframe import synthesize_frame
from cfpilot.channel import draw_channels
from cfpilot.estimator import estimate_trial_links
from cfpilot.pilots import make_mf_sequence


def frozen_curve(cfg, sweep_value, trial, curve):
    """The frame ``run_trial`` builds for one curve; the oracle keeps its
    network, gains, pilot book, regime and power and redraws the rest."""
    return next(frame for name, frame in trial_frames(cfg, sweep_value, trial)
                if name == curve)


@dataclass
class OracleResult:
    """Per-UE spectral efficiency from all draws and from each batch.

    ``se_per_ue`` uses the moments pooled over every draw; ``se_batches``
    (n_batches, U) evaluates the same bound on each batch of consecutive
    draws, for batch-means standard errors of any linear statistic.
    """

    se_per_ue: np.ndarray
    se_batches: np.ndarray

    @property
    def se_mean(self):
        return float(self.se_per_ue.mean())


def batch_stderr(batch_values):
    """Batch-means standard error of a statistic given its per-batch values."""
    vals = np.asarray(batch_values, dtype=float)
    return vals.std(axis=0, ddof=1) / np.sqrt(vals.shape[0])


def _bound_se(s1, s2, cross_pow, n, p_dl, noise_w, overhead):
    """SE per UE from summed b_uu, |b_uu|^2 and |b_uw|^2 (w != u) over n draws."""
    mean_ds = s1 / n
    var_ds = s2 / n - np.abs(mean_ds) ** 2
    sinr = p_dl * np.abs(mean_ds) ** 2 / (p_dl * var_ds + p_dl * cross_pow / n + noise_w)
    return overhead * np.log2(1.0 + sinr)


def downlink_oracle(frozen, m_antennas, noise_w, tau_c, draws, n_batches, seed):
    """Measure the per-UE bound on a frozen curve by Monte-Carlo.

    The downlink power equals the uplink pilot power, as in the harness.
    Fading comes from one stream and frame randomness (noise, UPNG data)
    from another, both seeded by ``seed``: two curves run with one seed see
    the same fading on every draw, so their difference is paired.
    """
    if draws % n_batches:
        raise ValueError("draws must be a multiple of n_batches")
    net, gains, book = frozen.net, frozen.chan.gains, frozen.book
    p_ul = p_dl = frozen.p_ul
    n_ue = net.n_ues
    fad_rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    tx_rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    overhead = float(np.clip((tau_c - book.tau_p - book.tau_ex) / tau_c, 0.0, 1.0))

    # per AP: served UEs and their MF rows and window phases, fixed by the book
    served = [np.asarray(net.serving[r], dtype=np.int64) for r in range(net.n_aps)]
    mf_rows, mf_phase = [], []
    for r in range(net.n_aps):
        seqs = [make_mf_sequence(book, net, r, int(u)) for u in served[r]]
        mf_rows.append(np.array([s.row for s in seqs]))
        mf_phase.append(np.array([s.align_phase for s in seqs], dtype=complex))

    per_batch = draws // n_batches
    # per batch: sums of b_uu, |b_uu|^2 and sum_{w != u} |b_uw|^2 over its draws
    s1 = np.zeros((n_batches, n_ue), dtype=complex)
    s2 = np.zeros((n_batches, n_ue))
    cross = np.zeros((n_batches, n_ue))
    for b in range(n_batches):
        for _ in range(per_batch):
            chan = draw_channels(net, gains, m_antennas, fad_rng, noise_w)
            frame = synthesize_frame(book, net, chan, frozen.regime, p_ul, tx_rng)
            links = estimate_trial_links(frame)
            received = full_frames(frame)[0]
            bmat = np.zeros((n_ue, n_ue), dtype=complex)  # [u, w] = b_uw
            i0 = 0
            for r in range(net.n_aps):
                k = served[r].size
                sl = slice(i0, i0 + k)
                i0 += k
                assert (links.ap[sl] == r).all() and (links.ue[sl] == served[r]).all()
                obs = received[r] @ mf_rows[r].conj().T / np.sqrt(p_ul)  # (M, k)
                align = np.conj(mf_phase[r])
                h_hat = (links.gain_scale[sl] * align)[:, None] * obs.T  # (k, M)
                h_served = chan.h[r, served[r]]
                err = h_served - h_hat
                nmse = (np.abs(err) ** 2).sum(1) / (np.abs(h_served) ** 2).sum(1)
                np.testing.assert_allclose(nmse, links.nmse[sl], rtol=1e-9)
                eta = 1.0 / (m_antennas * links.gamma[r, served[r]] * k)
                beams = np.sqrt(eta)[:, None] * h_hat.conj()  # (k, M)
                bmat[:, served[r]] += chan.h[r] @ beams.T  # [u, w] += h_ru^T beam_rw
            ds = np.diagonal(bmat)
            s1[b] += ds
            s2[b] += np.abs(ds) ** 2
            cross[b] += (np.abs(bmat) ** 2).sum(axis=1) - np.abs(ds) ** 2
    batches = _bound_se(s1, s2, cross, per_batch, p_dl, noise_w, overhead)
    pooled = _bound_se(s1.sum(0), s2.sum(0), cross.sum(0), draws, p_dl, noise_w,
                       overhead)
    return OracleResult(se_per_ue=pooled, se_batches=batches)
