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

So a frame is built in that form and never as Y_r. Under UPG, x_r mf is the
link's cross row, which the book setup's matched-filter part holds
(``cfpilot.estimator.BookLinks``); under UPNG the projection of the data
symbols onto the window is added to it. Per AP, a frame keeps the k served
links' power-free signal h_r^T (x_r mf) and filtered noise Z_r mf, two k x M
arrays, and is received at another power by setting ``p_ul``.

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


def _ap_draws(book, net, chan, regime, rng):
    """Yield each AP's draws from ``rng``, in AP order: its UPNG data, then its noise.

    The data are the U x t_max_r samples after the first L of the transmitted
    rows, UE u's symbols in its last t_max_r - t_ur of them and zeros before
    (None under UPG or when no UE sends any). The noise Z_r is i.i.d.
    CN(0, noise_w). Frame synthesis and replay both draw through here.
    """
    sigma = np.sqrt(chan.noise_w / 2.0)
    m_ant = chan.m_antennas
    # a UE at delay t sends t_max_r - t data samples at AP r: none on a delay-free network
    n_data = (net.n_ues * net.t_max_r - net.t_ur.sum(axis=1)) * (regime == REGIME_UPNG)
    for r in range(net.n_aps):
        data = None
        if n_data[r]:
            idx = rng.integers(0, len(DEFAULT_DATA_ALPHABET), size=int(n_data[r]))
            data = np.zeros((net.n_ues, int(net.t_max_r[r])), dtype=complex)
            data[np.arange(data.shape[1]) >= net.t_ur[r][:, None]] = DEFAULT_DATA_ALPHABET[idx]
        # the real parts' draws, then the imaginary parts', in one call
        w = rng.standard_normal((2, m_ant, book.seq_len + int(net.t_max_r[r])))
        z = np.empty(w.shape[1:], dtype=complex)
        np.multiply(w[0], sigma, out=z.real)
        np.multiply(w[1], sigma, out=z.imag)
        yield data, z


@dataclass
class ReceivedFrame:
    """Every AP's pilot-phase frame as its served links' matched filters see it.

    ``y[r]`` stacks the power-free MF signals h_r^T (x_r mf) of AP r's k served
    links (k x M, the links in serving order) and ``noise[r]`` their filtered
    noise Z_r mf, so a link's MF output at power ``p_ul`` is
    ``y + noise / sqrt(p_ul)``. ``stream`` is the state of the frame's random
    stream before its draws, which :meth:`replay` reads. ``setup`` is the
    frame's ``BookSetup``, shared with the other frames of its book.
    """

    y: list
    noise: list
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
        scale = np.sqrt(self.p_ul)
        draws = _ap_draws(book, net, chan, self.regime, np.random.Generator(bit_generator))
        for r, (data, z) in enumerate(draws):
            x = setup.row(r)
            if data is not None:
                x[:, book.seq_len:] += data
            yield scale * (chan.h[r].T @ x) + z, x, z


def synthesize_frame(book, net, chan, regime, p_ul, rng, setup=None):
    """Synthesize the received pilot-phase frame at every AP, in the MF domain.

    All UEs contribute (interference is not restricted to served links).
    The transmitted row of UE u at AP r is [zeros(t_ur), pilot, tail],
    L + t_max_r samples long; the tail is zeros under UPG and i.i.d. QPSK
    symbols (``DEFAULT_DATA_ALPHABET``) under UPNG. Noise entries are i.i.d.
    CN(0, noise_w). Per AP, ``rng`` draws the data symbols, then the noise's
    real part, then its imaginary part. ``setup`` is the ``BookSetup`` of
    ``book`` on ``net`` that earlier frames made; a new one is made when not
    given, and its matched-filter part on its first frame.
    """
    if p_ul <= 0:
        raise ValueError("p_ul must be positive")
    if book.n_ues != net.n_ues:
        raise ValueError("pilot book and network disagree on UE count")
    if setup is None:
        setup = book_setup(book, net)
    elif setup.book is not book or setup.net is not net:
        raise ValueError("book setup of another pilot book or network")
    if setup.links is None:
        setup.links = book_links(setup)
    links, stream = setup.links, rng.bit_generator.state
    n_aps, k = net.serving.shape
    # AP r's links' rows x_r mf, (k, U): the cross rows, plus their data under UPNG
    sent = links.c.reshape(n_aps, k, net.n_ues)
    if regime == REGIME_UPNG:
        sent = sent.copy()
    noise = np.empty((n_aps, k, chan.m_antennas), dtype=complex)
    for r, (data, z) in enumerate(_ap_draws(book, net, chan, regime, rng)):
        mf_r = links.mf_rows[r]
        np.matmul(z, mf_r, out=noise[r, :, :, None])
        if data is not None:
            sent[r] += mf_r[:, book.seq_len:, 0] @ data.T
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
