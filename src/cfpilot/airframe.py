"""Augmented transmit sequences and per-AP received pilot-phase frames.

Every UE's signal is viewed from the receiving AP: zeros for the propagation
delay, then the pilot, then either silence (UPG, a guard time separates
pilots from uplink data) or unit-power data symbols (UPNG, uplink data of
earlier-arriving UEs bleeds into the pilot window of later ones). The frame
at AP r sums the rank-1 contributions of all UEs plus AWGN:

    Y_r = sqrt(p_ul) * sum_u h_ru x_ur + Z_r,   Y_r in C^(M x (L + t_max_r))

with L = tau_p + tau_ex. Only the scale sqrt(p_ul) depends on the transmit
power, so a frame keeps its power-free signal sum_u h_ru x_ur and noise Z_r
and can be received again at another power (``ReceivedFrame.at_power``).

The pilot rows read only the pilot book and the network, not the regime or
the power. The frames of one book on one network share a ``BookSetup``, which
holds the padded pilot window that AP r's rows are gathered from when read: a
UPG frame transmits them as they are, and a UPNG frame writes its data into
them. The setup also carries the estimator's regime-free part of those frames
(MF rows, cross rows and cross powers), made by the first frame's estimate.
"""

import struct
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

REGIME_UPG = "upg"
REGIME_UPNG = "upng"
REGIMES = (REGIME_UPG, REGIME_UPNG)

DEFAULT_DATA_ALPHABET = np.exp(2j * np.pi * np.arange(4) / 4)

FRAME_MAGIC = b"ACFE"


@dataclass
class BookSetup:
    """What the frames of one pilot book on one network share, whatever their regime and power.

    ``windows`` is every UE's padded pilot window; ``index`` (UE indices, R x U
    window starts, per-AP column counts) gathers AP r's rows from it anew at each
    :meth:`row` call, or is None on a delay-free network, whose ``windows`` is the
    one read-only row array of every AP. ``links`` is the estimator's regime-free
    part, filled in by the first estimate of a frame with this setup (``BookLinks``).
    """

    book: object
    net: object
    windows: np.ndarray
    index: tuple = None
    links: object = None

    def row(self, r):
        """AP r's U x (L + t_max_r) pilot rows, row u [zeros(t_ur), pilot, zeros]."""
        if self.index is None:
            return self.windows
        ue, start, cols = self.index
        return self.windows[ue, start[r], :cols[r]]


def book_setup(book, net):
    """The ``BookSetup`` of ``book`` on ``net``, without its estimator part."""
    t_max = int(net.t_max_r.max())
    padded = np.zeros((net.n_ues, book.seq_len + 2 * t_max), dtype=complex)
    padded[:, t_max:t_max + book.seq_len] = book.sequences
    if t_max == 0:
        # a delay-free network: every AP receives the pilots as they are
        padded.flags.writeable = False
        return BookSetup(book, net, padded)
    # the row at delay t is the window of the padded pilot that starts t_max - t in
    windows = sliding_window_view(padded, book.seq_len + t_max, axis=-1)
    cols = (book.seq_len + net.t_max_r).tolist()
    return BookSetup(book, net, windows, (np.arange(net.n_ues), t_max - net.t_ur, cols))


@dataclass
class ReceivedFrame:
    """Per-AP received matrices plus everything needed to take them apart.

    ``y[r]`` is the M x (L + t_max_r) observation and ``noise[r]`` the AWGN draw,
    kept so MF outputs can be decomposed into desired/interference/noise parts.
    ``signal[r]`` is the noiseless unit-power sum h_r^T x_r of AP r's transmit rows
    x_r (not kept), so ``y[r] = sqrt(p_ul) * signal[r] + noise[r]``. ``setup`` is
    the frame's ``BookSetup``, shared with the other frames of its book.
    """

    y: list
    noise: list
    signal: list
    p_ul: float
    regime: str
    book: object
    net: object
    chan: object
    setup: BookSetup = None
    x_aug = None  # not a field: no transmit rows are kept, for readers of the old field

    def at_power(self, p_ul):
        """The same draws received at transmit power ``p_ul``."""
        scale = np.sqrt(p_ul)
        return replace(self, y=[_receive(scale, s, z) for s, z in zip(self.signal, self.noise)],
                       p_ul=p_ul)


def _receive(scale, signal, noise):
    """One AP's received frame ``y = sqrt(p_ul) * signal + noise``, ``scale`` = sqrt(p_ul)."""
    return scale * signal + noise


def synthesize_frame(book, net, chan, regime, p_ul, rng, setup=None):
    """Synthesize the received pilot-phase frame at every AP.

    All UEs contribute (interference is not restricted to served links).
    The augmented transmit row of UE u at AP r is [zeros(t_ur), pilot,
    tail], L + t_max_r samples long; the tail is zeros under UPG and i.i.d.
    QPSK symbols (``DEFAULT_DATA_ALPHABET``) under UPNG, written in place
    into the AP's gathered rows. Noise entries are i.i.d. CN(0, noise_w).
    Per AP, ``rng`` draws the data symbols, then the noise's real part,
    then its imaginary part. ``setup`` is the ``BookSetup`` of ``book`` on
    ``net`` that earlier frames made; a new one is made when not given.
    """
    if p_ul <= 0:
        raise ValueError("p_ul must be positive")
    if book.n_ues != net.n_ues:
        raise ValueError("pilot book and network disagree on UE count")
    if setup is None:
        setup = book_setup(book, net)
    elif setup.book is not book or setup.net is not net:
        raise ValueError("book setup of another pilot book or network")
    ys, zs, signals = [], [], []
    sigma, scale = np.sqrt(chan.noise_w / 2.0), np.sqrt(p_ul)
    m_ant = chan.m_antennas
    # a UE at delay t sends t_max_r - t data samples at AP r: none on a delay-free network
    n_data = net.n_ues * net.t_max_r - net.t_ur.sum(axis=1)
    for r, x in enumerate(map(setup.row, range(net.n_aps))):
        if regime == REGIME_UPNG and n_data[r]:
            idx = rng.integers(0, len(DEFAULT_DATA_ALPHABET), size=int(n_data[r]))
            x[np.arange(x.shape[1]) >= (net.t_ur[r] + book.seq_len)[:, None]] = \
                DEFAULT_DATA_ALPHABET[idx]
        # the real parts' draws, then the imaginary parts', in one call
        w = rng.standard_normal((2, m_ant, x.shape[1]))
        z = np.empty((m_ant, x.shape[1]), dtype=complex)
        np.multiply(w[0], sigma, out=z.real)
        np.multiply(w[1], sigma, out=z.imag)
        signal = chan.h[r].T @ x
        # received here rather than by ``at_power`` after the loop: ~3% less
        # time per fig7-full chunk, as each AP's arrays are still in cache
        ys.append(_receive(scale, signal, z))
        zs.append(z)
        signals.append(signal)
    return ReceivedFrame(y=ys, noise=zs, signal=signals, p_ul=p_ul, regime=regime,
                         book=book, net=net, chan=chan, setup=setup)


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
