"""Received pilot-phase frames, kept in the matched-filter domain.

Every UE's signal is viewed from the receiving AP: zeros for the propagation
delay, then the pilot, then either silence (UPG, a guard time separates
pilots from uplink data) or unit-power data symbols (UPNG, uplink data of
earlier-arriving UEs bleeds into the pilot window of later ones). The frame
at AP r sums the rank-1 contributions of all UEs plus AWGN:

    Y_r = sqrt(p_ul) * h_r^T x_r + Z_r,   Y_r in C^(M x (L + t_max_r))

with L = tau_p + tau_ex and x_r the U transmitted rows. The estimator reads
Y_r only through each served link's matched filter mf, y = Y_r mf / sqrt(p_ul),
which equals

    y = h_r^T (x_r mf) + Z_r mf / sqrt(p_ul).

So a frame is built in that form and never as Y_r (:class:`ReceivedFrame`),
over each AP's span of the book setup's matched-filter rows
(``cfpilot.estimator.BookLinks``). Under UPG, x_r mf is the link's cross
row; under UPNG the projection of the data symbols that reach the span is
added to it.

The random draws are those of the full frame, in the same order: per AP, the
data symbols, then the noise's real parts, then its imaginary parts
(:func:`_ap_draws`). A frame keeps the state its stream had before them, so
:meth:`ReceivedFrame.replay` rebuilds every AP's full Y_r from the same draws,
as ``dump-frame`` writes it.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .estimator import book_links
from .pilots import REGIME_UPNG, BookSetup, book_setup

DEFAULT_DATA_ALPHABET = np.exp(2j * np.pi * np.arange(4) / 4)

FRAME_MAGIC = b"ACFE"


def _data_counts(net, regime):
    """Per AP, the UPNG data samples its frame draws; None when no UE sends any
    (under UPG, or on a delay-free network)."""
    if regime != REGIME_UPNG:
        return None
    # a UE at delay t sends t_max_r - t data samples at AP r
    n_data = net.n_ues * net.t_max_r - net.t_ur.sum(axis=1)
    return n_data if n_data.any() else None


def sends_data(net, regime):
    """Whether a UE sends UPNG data in a frame of ``regime`` on ``net``. Without, the
    frame's noise is one call's :func:`noise_draws` normals (:func:`_ap_draws`)."""
    return _data_counts(net, regime) is not None


def noise_draws(book, net, m_ant):
    """How many noise normals a frame draws: (2M, L + t_max_r) at AP r."""
    return 2 * m_ant * (book.seq_len * net.n_aps + int(net.t_max_r.sum()))


def _ap_draws(book, net, m_ant, regime, rng, normals=None):
    """Yield each AP's draws from ``rng``, in AP order: its UPNG data, then its noise.

    The data are the ``DEFAULT_DATA_ALPHABET`` indices of the symbols UE by
    UE, UE u's filling its last t_max_r - t_ur samples after the first L
    (None under UPG or when no UE sends any). The noise is (2M, L + t_max_r)
    standard normals, Z_r's real parts then its imaginary parts over
    sqrt(noise_w / 2). Without data, every AP's noise is one call's
    consecutive draws, the same numbers as one call per AP; ``normals``,
    for such a frame only, are that call's draws made already, and ``rng``
    is then not read. Frame synthesis and replay both draw through here.
    """
    cols = book.seq_len + net.t_max_r
    n_data = None if normals is not None else _data_counts(net, regime)
    if n_data is None:
        sizes = (2 * m_ant * cols).tolist()
        if normals is None:
            normals = rng.standard_normal(sum(sizes))
        lo = 0
        for size in sizes:
            yield None, normals[lo:lo + size].reshape(2 * m_ant, -1)
            lo += size
        return
    for n, c in zip(n_data.tolist(), cols.tolist()):
        idx = rng.integers(0, len(DEFAULT_DATA_ALPHABET), size=n) if n else None
        yield idx, rng.standard_normal((2 * m_ant, c))


@dataclass
class ReceivedFrame:
    """Every AP's pilot-phase frame as its served links' matched filters see it.

    ``y[r]`` stacks the power-free MF signals h_r^T (x_r mf) of AP r's k served
    links (k x M, the links in serving order) and ``noise[r]`` their filtered
    noise Z_r mf, so a link's MF output at power ``p_ul`` is
    ``y + noise / sqrt(p_ul)``. ``stream`` is the state of the frame's random
    stream before its draws, which :meth:`replay` reads. ``setup`` is the
    frame's ``BookSetup``, shared with the other frames of its book. The
    frames a sweep point returns and keeps (``harness.TrialDraws.point``)
    carry ``y``, ``noise`` and ``setup`` None: their links' ``LinkSetup``
    holds the signal and noise, so they are estimated only with ``previous``.
    """

    y: list | None
    noise: list | None
    p_ul: float
    regime: str
    book: object
    net: object
    chan: object
    stream: dict
    setup: BookSetup = None
    x_aug = None  # not a field: no transmit rows are kept, for readers of the old field

    def replay(self):
        """Yield every AP's full frame (Y_r, x_r, Z_r) in AP order, drawn again from
        the frame's stream: Y_r = sqrt(p_ul) h_r^T x_r + Z_r, with x_r the
        transmitted rows, U x (L + t_max_r), and Z_r the noise."""
        bit_generator = getattr(np.random, self.stream["bit_generator"])()
        bit_generator.state = self.stream
        book, net, chan = self.book, self.net, self.chan
        setup = book_setup(book, net) if self.setup is None else self.setup
        scale, sigma, m_ant = np.sqrt(self.p_ul), np.sqrt(chan.noise_w / 2.0), chan.m_antennas
        draws = _ap_draws(book, net, m_ant, self.regime, np.random.Generator(bit_generator))
        for r, (idx, w) in enumerate(draws):
            x = setup.row(r)
            if idx is not None:
                sends = np.arange(net.t_max_r[r]) >= net.t_ur[r][:, None]
                x[:, book.seq_len:][sends] = DEFAULT_DATA_ALPHABET[idx]
            z = sigma * (w[:m_ant] + 1j * w[m_ant:])
            yield scale * (chan.h[r].T @ x) + z, x, z


def _span_data(book, net, links):
    """The UPNG data samples in the APs' spans, as (bounds, at, rows, ap, ue, starts).

    UE u's data fill columns [L + t_ur, L + t_max_r) of AP r's frame, and few
    of them lie in [lo_r, hi_r). Listed AP by AP, UE by UE, column by column:
    ``at[bounds[r]:bounds[r + 1]]`` are AP r's samples' positions among its
    drawn symbols, ``rows`` each sample's k conjugated MF row entries, and
    each (``ap``, ``ue``) pair's samples start at ``starts``.
    """
    seq_len, t = book.seq_len, net.t_ur
    lo, hi = np.array(links.span).T
    # data columns, counted from L, of each UE's first sample in the span and their count
    first = np.maximum(t, (lo - seq_len)[:, None])
    count = np.maximum((hi - seq_len)[:, None] - first, 0)
    ap, ue = np.nonzero(count)
    n = count[ap, ue]
    starts = np.cumsum(n) - n
    col = np.arange(n.sum()) + np.repeat(first[ap, ue] - starts, n)
    # UE u's symbol indices follow those of the UEs before it, t_max_r - t_ur each,
    # and its index at data column c is the (c - t_ur)-th of them
    sent = net.t_max_r[:, None] - t
    at = col + np.repeat((np.cumsum(sent, axis=1) - sent - t)[ap, ue], n)
    by_ap = links.rows.reshape(links.rows.shape[0], net.n_aps, -1)
    rows = by_ap[col + np.repeat(seq_len - lo[ap], n), np.repeat(ap, n)].conj()
    bounds = [0, *np.cumsum(count.sum(axis=1)).tolist()]
    return bounds, at, rows, ap, ue, starts


def frame_setup(book, net, setup=None):
    """The ``BookSetup`` of ``book`` on ``net`` with its matched-filter part, which a frame
    reads: ``setup``, which earlier frames made, or a new one when not given."""
    if book.n_ues != net.n_ues:
        raise ValueError("pilot book and network disagree on UE count")
    if setup is None:
        setup = book_setup(book, net)
    elif setup.book is not book or setup.net is not net:
        raise ValueError("book setup of another pilot book or network")
    if setup.links is None:
        setup.links = book_links(setup)
    return setup


def synthesize_frame(book, net, chan, regime, p_ul, rng, setup=None, drawn=None):
    """Synthesize the received pilot-phase frame at every AP, in the MF domain.

    All UEs contribute (interference is not restricted to served links).
    The transmitted row of UE u at AP r is [zeros(t_ur), pilot, tail],
    L + t_max_r samples long; the tail is zeros under UPG and i.i.d. QPSK
    symbols (``DEFAULT_DATA_ALPHABET``) under UPNG. Noise entries are i.i.d.
    CN(0, noise_w). Per AP, ``rng`` draws the data symbols, then the noise's
    real part, then its imaginary part. ``setup`` is as in :func:`frame_setup`.
    ``drawn``, for a frame in which no UE sends data (:func:`sends_data`), is
    ``(stream, normals)``: the state of ``rng`` before the frame's draws and
    the :func:`noise_draws` normals it has drawn since; ``rng`` is then not
    read.
    """
    if p_ul <= 0:
        raise ValueError("p_ul must be positive")
    setup = frame_setup(book, net, setup)
    links = setup.links
    stream, normals = (rng.bit_generator.state, None) if drawn is None else drawn
    n_aps, k = net.serving.shape
    m_ant = chan.m_antennas
    # AP r's links' rows x_r mf, (k, U): the cross rows, plus their data under UPNG
    sent = links.c.reshape(n_aps, k, net.n_ues)
    if regime == REGIME_UPNG:
        bounds, at, rows, ap, ue, starts = _span_data(book, net, links)
    # per AP, the noise draws times the MF rows' real and imaginary parts, and the
    # indices of the symbols in the span
    parts = np.empty((n_aps, 2 * m_ant, 2 * k))
    codes = []
    for r, (idx, w) in enumerate(_ap_draws(book, net, m_ant, regime, rng, normals)):
        lo, hi = links.span[r]
        np.matmul(w[:, lo:hi], links.basis[r], out=parts[r])
        if idx is not None:
            codes.append(idx[at[bounds[r]:bounds[r + 1]]])
    if regime == REGIME_UPNG and at.size:
        symbols = DEFAULT_DATA_ALPHABET[np.concatenate(codes)]
        sent = sent.copy()
        sent[ap, :, ue] += np.add.reduceat(rows * symbols[:, None], starts, axis=0)
    # Z_r conj(mf) with Z_r = sigma (w_re + j w_im) and mf = a + j b:
    # sigma (w_re a + w_im b) + j sigma (w_im a - w_re b)
    parts = parts.reshape(n_aps, 2, m_ant, k, 2)
    noise = np.empty((n_aps, k, m_ant), dtype=complex)
    noise_t = noise.transpose(0, 2, 1)
    np.add(parts[:, 0, :, :, 0], parts[:, 1, :, :, 1], out=noise_t.real)
    np.subtract(parts[:, 1, :, :, 0], parts[:, 0, :, :, 1], out=noise_t.imag)
    noise *= np.sqrt(chan.noise_w / 2.0)
    return ReceivedFrame(y=list(np.matmul(sent, chan.h)), noise=list(noise), p_ul=p_ul,
                         regime=regime, book=book, net=net, chan=chan, stream=stream,
                         setup=setup)


def write_frame_dump(path, y_r):
    """Binary dump of one AP's frame: 16-byte header then complex64 row-major.

    Header: magic "ACFE", uint32 M, uint32 column count, 4 reserved bytes,
    all little-endian.
    """
    y = np.ascontiguousarray(y_r, dtype=np.complex64)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sII4x", FRAME_MAGIC, y.shape[0], y.shape[1]))
        fh.write(y.tobytes())


def read_frame_dump(path):
    """One AP's frame from a ``write_frame_dump`` file; ValueError if the file is malformed."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16:
        raise ValueError(f"{path}: expected at least 16 header bytes, got {len(raw)}")
    magic, m, cols = struct.unpack_from("<4sII4x", raw)
    if magic != FRAME_MAGIC:
        raise ValueError(f"{path}: not a frame dump (bad magic)")
    if len(raw) != 16 + 8 * m * cols:
        raise ValueError(f"{path}: expected {16 + 8 * m * cols} bytes, got {len(raw)}")
    return np.frombuffer(raw, dtype=np.complex64, offset=16).reshape(m, cols)
