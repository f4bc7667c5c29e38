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
once and feeds the frame, the covariance and the rate bound.
"""

from dataclasses import dataclass, fields, replace

import numpy as np

from . import analytics
from .pilots import REGIME_UPNG, make_mf_sequence, mf_start


@dataclass
class BookLinks:
    """The regime-free matched-filter part of a book setup, in the one-frame link layout
    of ``LinkEstimates``, made by the first frame synthesized with the setup.

    ``span[r]`` is AP r's column span (lo_r, hi_r), the union of its links'
    MF windows [s, s + tau_p), s their ``pilots.mf_start``; their rows are
    zero outside it, so frame synthesis and the cross rows read only its
    columns. ``mf`` is the served links' ``MFSequence`` without its rows,
    which ``rows`` holds transposed, one column per link, over the spans:
    row j holds frame column lo_r + j of AP r's links, for j below the
    widest span's width. ``basis[r]`` views AP r's k columns over its span
    as a real (hi_r - lo_r) x 2k matrix, each link's real part then its
    imaginary part. ``align`` is the conjugated window phase as a column,
    ``c`` the cross rows pilot_mat @ conj(mf.row), ``cross`` the aligned
    ones align * c (``c`` itself where every phase is exactly 1, as for
    random and DFT books) and ``cross_power`` the links' regime-free
    interference factors (:func:`cfpilot.analytics.cross_powers`).
    """

    mf: object
    span: list
    rows: np.ndarray
    basis: list
    align: np.ndarray
    c: np.ndarray
    cross: np.ndarray
    cross_power: np.ndarray


def book_links(setup):
    """The ``BookLinks`` of a ``BookSetup``, from each AP's pilot rows over its span in turn."""
    book, net = setup.book, setup.net
    n_aps, k = net.serving.shape
    ap, ue = np.repeat(np.arange(n_aps), k), net.serving.ravel()
    start = mf_start(book, net, ap, ue).reshape(n_aps, k)
    lo, hi = start.min(axis=1), start.max(axis=1) + book.tau_p
    span = list(zip(lo.tolist(), hi.tolist()))
    # each link's row over its AP's span, padded to the widest span
    mf = make_mf_sequence(book, net, ap, ue, np.repeat(lo, k), int((hi - lo).max()))
    rows = mf.row.conj()
    if net.t_ur.any():
        c = np.empty((ap.size, net.n_ues), dtype=complex)
        for r, (a, b) in enumerate(span):
            links = slice(r * k, (r + 1) * k)
            np.matmul(setup.row(r, a, b), rows[links, :b - a, None], out=c[links, :, None])
    else:
        # delay-free: every AP reads the same rows over the same span, so a UE's
        # cross row is one GEMV, whichever AP serves it
        _, first, which = np.unique(ue, return_index=True, return_inverse=True)
        c = np.matmul(setup.row(0, *span[0]), rows[first, :, None])[which, :, 0]
    # freed before the kept transposed copy is made: three row arrays at once
    # would raise a full-scale run's peak memory
    del rows
    rows = mf.row.T.copy()
    mf = replace(mf, row=None)
    parts = rows.view(float)
    basis = [parts[:b - a, 2 * r * k:2 * (r + 1) * k] for r, (a, b) in enumerate(span)]
    align = np.conj(mf.align_phase)[:, None]
    # (a + bi)(1 - 0i) is a + bi up to the signs of zeros, which no reader sees
    cross = c if (mf.align_phase == 1).all() else align * c
    return BookLinks(mf=mf, span=span, rows=rows, basis=basis, align=align, c=c,
                     cross=cross, cross_power=analytics.cross_powers(book, mf, c))


@dataclass
class LinkSetup:
    """The power-free estimator internals of ``LinkEstimates`` that it does not expose.

    ``align`` is the conjugated window phase as a column, ``signal`` and
    ``noise`` the frames' per-AP MF signals and filtered noise stacked
    (links x M); every array runs over the links of ``LinkEstimates``.
    """

    align: np.ndarray
    yh: np.ndarray
    signal_var: np.ndarray
    h: np.ndarray
    sq_h: np.ndarray
    signal: np.ndarray
    noise: np.ndarray


@dataclass
class LinkEstimates:
    """Per served-link results of one trial's frames, in (curve block, AP, UE) order.

    A frame's links are its (R, k) serving array read row by row, so AP r
    owns rows r*k ... r*k + k - 1 of every per-link array. Several frames
    (:func:`stack_links`) are curve blocks of that layout, frame c's links
    in rows c*R*k ... (c+1)*R*k - 1. ``gain_scale`` holds the scalar LMMSE
    gain Sigma_yh / Sigma_y per link, ``cross`` the aligned deterministic
    pilot-part MF cross coefficients of every UE inside that link's
    estimate (links x U), and ``bleed`` the count of every other UE's data
    samples inside that link's MF window (a read-only array of zeros under
    a guard time); all three feed the downlink rate bound's contamination
    term. A stack holds ``cross`` and ``bleed`` as tuples of its blocks'
    arrays. ``gamma`` is (R, U) for one frame and (curves, R, U) for
    several. ``nmse``, ``gamma``, ``noise_power`` and ``gain_scale`` read
    the transmit power; the rest, with ``setup``, do not.
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
    setup: LinkSetup = None


def link_setup(frame):
    """The power-free fields of one frame's ``LinkEstimates``, with its ``LinkSetup``."""
    chan, b = frame.chan, frame.setup.links
    mf = b.mf
    ap, ue = mf.ap, mf.ue
    link = np.arange(ap.size)
    prof = analytics.interference_profile(chan.gains, frame.regime, mf, b.cross_power)
    g, h, sq_h = chan.served(frame.net.serving)
    pilot = mf.pilot[link, ue]
    interference = prof.sum(axis=-1)
    # no data samples fall into a window under a guard time
    bleed = np.broadcast_to(np.zeros((), mf.data.dtype), mf.data.shape)
    if frame.regime == REGIME_UPNG:
        bleed = mf.data.copy()
        bleed[link, ue] = 0
    m_ant = chan.m_antennas
    return LinkEstimates(
        ap=ap,
        ue=ue,
        nmse=None,
        gamma=None,
        desired_power=m_ant * g * pilot**2,
        interference_power=m_ant * interference,
        noise_power=None,
        gain_scale=None,
        cross=b.cross,
        bleed=bleed,
        setup=LinkSetup(align=b.align, yh=pilot * g, signal_var=pilot**2 * g + interference,
                        h=h, sq_h=sq_h, signal=np.concatenate(frame.y),
                        noise=np.concatenate(frame.noise)),
    )


def stack_links(blocks):
    """One-frame power-free ``LinkEstimates`` (:func:`link_setup`) stacked along the link axis.

    Every frame of a sweep point serves the network's links, so each block
    has the same size, and every operation on the stack is per link: a
    block's results do not depend on the others. ``cross`` and ``bleed``
    keep each block's arrays by reference, so the curves of one book share
    their cross rows.
    """
    if len(blocks) == 1:
        return blocks[0]

    def stacked(parts, name):
        return np.concatenate([getattr(part, name) for part in parts])

    setups = [block.setup for block in blocks]
    return LinkEstimates(
        ap=stacked(blocks, "ap"), ue=stacked(blocks, "ue"), nmse=None, gamma=None,
        desired_power=stacked(blocks, "desired_power"),
        interference_power=stacked(blocks, "interference_power"), noise_power=None,
        gain_scale=None, cross=tuple(block.cross for block in blocks),
        bleed=tuple(block.bleed for block in blocks),
        setup=LinkSetup(**{f.name: stacked(setups, f.name) for f in fields(LinkSetup)}))


def estimate_trial_links(*frames, previous=None, p_ul=None):
    """Run MF + LMMSE over every served (AP, UE) pair of each frame.

    The frames are one trial's curves at one sweep point: one network
    serving array, pilot length and channel draw. Returns per-link realized
    NMSE, the per-antenna estimate quality gamma = Sigma_yh^2 / Sigma_y laid
    out as an (R, U) array per frame, and the expected MF power breakdown
    used by the diagnostic dump. ``p_ul`` is the transmit power, by default
    the frames' own. Only the observation reads it: given ``previous``, the
    frames' power-free fields (their :func:`stack_links`, or their
    estimates at another power, which hold the frames' signal and noise),
    only the four power-dependent fields are computed.
    """
    links = stack_links([link_setup(f) for f in frames]) if previous is None else previous
    s, first = links.setup, frames[0]
    net, chan = first.net, first.chan
    p_ul = first.p_ul if p_ul is None else p_ul
    # in place: the observation, aligned and scaled, is h's estimate
    h_hat = s.noise / np.sqrt(p_ul)
    h_hat += s.signal
    h_hat *= s.align
    noise_scale = chan.noise_w * first.book.tau_p / p_ul
    ys = s.signal_var + noise_scale
    gain_scale = s.yh / ys
    h_hat *= gain_scale[:, None]
    err = s.h - h_hat
    sq_err = np.matmul(err.conj()[:, None, :], err[:, :, None])[:, 0, 0].real
    gamma = np.zeros((len(frames), net.n_aps, net.n_ues))
    n = net.serving.size
    gamma[:, links.ap[:n], links.ue[:n]] = (s.yh * s.yh / ys).reshape(len(frames), n)
    return replace(links, nmse=sq_err / s.sq_h, gamma=gamma[0] if len(frames) == 1 else gamma,
                   gain_scale=gain_scale,
                   noise_power=np.full(links.ap.size, chan.m_antennas * noise_scale))
