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
class ReceivedFrame:
    """Per-AP received matrices plus everything needed to take them apart.

    ``y[r]`` is the M x (L + t_max_r) observation; ``x_aug[r]`` stacks the
    augmented transmit rows (U x cols) and ``noise[r]`` the AWGN draw, kept
    so MF outputs can be decomposed into desired/interference/noise parts.
    ``signal[r]`` is the noiseless unit-power sum h_r^T x_aug[r], so
    ``y[r] = sqrt(p_ul) * signal[r] + noise[r]``.
    """

    y: list
    x_aug: list
    noise: list
    signal: list
    p_ul: float
    regime: str
    book: object
    net: object
    chan: object

    def at_power(self, p_ul):
        """The same draws received at transmit power ``p_ul``."""
        scale = np.sqrt(p_ul)
        return replace(self, y=[scale * s + z for s, z in zip(self.signal, self.noise)],
                       p_ul=p_ul)


def pilot_rows(book, net, aps):
    """Zero-padded pilot rows of every UE at each AP in ``aps``, one array per AP.

    Row u at AP r is [zeros(t_ur), pilot, zeros], L + t_max_r samples long.
    """
    t_max = int(net.t_max_r.max())
    padded = np.zeros((net.n_ues, book.seq_len + 2 * t_max), dtype=complex)
    padded[:, t_max:t_max + book.seq_len] = book.sequences
    # the row at delay t is the window of the padded pilot that starts t_max - t in
    windows = sliding_window_view(padded, book.seq_len + t_max, axis=-1)
    ue = np.arange(net.n_ues)
    return [windows[ue, t_max - net.t_ur[r], :book.seq_len + int(net.t_max_r[r])] for r in aps]


def synthesize_frame(book, net, chan, regime, p_ul, rng):
    """Synthesize the received pilot-phase frame at every AP.

    All UEs contribute (interference is not restricted to served links).
    The augmented transmit row of UE u at AP r is [zeros(t_ur), pilot,
    tail], L + t_max_r samples long; the tail is zeros under UPG and i.i.d.
    QPSK symbols (``DEFAULT_DATA_ALPHABET``) under UPNG. Noise entries are
    i.i.d. CN(0, noise_w). Per AP, ``rng`` draws the data symbols, then the
    noise's real part, then its imaginary part.
    """
    if p_ul <= 0:
        raise ValueError("p_ul must be positive")
    if book.n_ues != net.n_ues:
        raise ValueError("pilot book and network disagree on UE count")
    xs, zs, signals = [], [], []
    sigma = np.sqrt(chan.noise_w / 2.0)
    for r, x in enumerate(pilot_rows(book, net, range(net.n_aps))):
        if regime == REGIME_UPNG:
            data = np.arange(x.shape[1]) >= (net.t_ur[r] + book.seq_len)[:, None]
            if data.any():
                idx = rng.integers(0, len(DEFAULT_DATA_ALPHABET), size=int(data.sum()))
                x[data] = DEFAULT_DATA_ALPHABET[idx]
        z = sigma * (rng.standard_normal((chan.m_antennas, x.shape[1]))
                     + 1j * rng.standard_normal((chan.m_antennas, x.shape[1])))
        xs.append(x)
        zs.append(z)
        signals.append(chan.h[r].T @ x)
    return ReceivedFrame(y=None, x_aug=xs, noise=zs, signal=signals, p_ul=None, regime=regime,
                         book=book, net=net, chan=chan).at_power(p_ul)


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
    with open(path, "rb") as fh:
        header = fh.read(16)
        magic, m, cols = struct.unpack("<4sII4x", header)
        if magic != FRAME_MAGIC:
            raise ValueError("not a frame dump (bad magic)")
        data = np.frombuffer(fh.read(), dtype=np.complex64)
    return data.reshape(m, cols)
