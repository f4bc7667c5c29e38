"""Augmented transmit sequences and per-AP received pilot-phase frames.

Every UE's signal is viewed from the receiving AP: zeros for the propagation
delay, then the pilot, then either silence (UPG, a guard time separates
pilots from uplink data) or unit-power data symbols (UPNG, uplink data of
earlier-arriving UEs bleeds into the pilot window of later ones). The frame
at AP r sums the rank-1 contributions of all UEs plus AWGN:

    Y_r = sqrt(p_ul) * sum_u h_ru x_ur + Z_r,   Y_r in C^(M x (L + t_max_r))

with L = tau_p + tau_ex.
"""

import struct
from dataclasses import dataclass

import numpy as np

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
    ``link_phases[r, u]`` is a receiver-known per-link carrier phase applied
    to UE u's whole transmission as seen by AP r (all ones unless the
    random-link-phase option is enabled).
    """

    y: list
    x_aug: list
    noise: list
    p_ul: float
    regime: str
    book: object
    net: object
    chan: object
    link_phases: np.ndarray


def augmented_matrix(book, net, regime, r, rng, data_alphabet=DEFAULT_DATA_ALPHABET):
    """Augmented transmit rows of every UE at AP r, shape (U, L + t_max_r).

    Row u is [zeros(t_ur), pilot, tail]; the tail (t_max_r - t_ur samples)
    is zeros under UPG and i.i.d. symbols of ``data_alphabet`` drawn from
    ``rng`` under UPNG.
    """
    n_ue = net.n_ues
    length = book.seq_len
    total = length + int(net.t_max_r[r])
    t = net.t_ur[r].astype(np.int64)
    x = np.zeros((n_ue, total), dtype=complex)
    idx = t[:, None] + np.arange(length)[None, :]
    np.put_along_axis(x, idx, book.sequences, axis=1)
    if regime == REGIME_UPNG:
        mask = np.arange(total)[None, :] >= (t + length)[:, None]
        if mask.any():
            syms = data_alphabet[rng.integers(0, len(data_alphabet), size=int(mask.sum()))]
            x[mask] = syms
    return x


def synthesize_frame(book, net, chan, regime, p_ul, rng,
                     data_alphabet=DEFAULT_DATA_ALPHABET, random_link_phase=False):
    """Synthesize the received pilot-phase frame at every AP.

    All UEs contribute (interference is not restricted to served links).
    Noise entries are i.i.d. CN(0, noise_w). When ``random_link_phase`` is
    set, an i.i.d. uniform phase per (AP, UE) link multiplies that UE's
    transmission; the draw is recorded in ``link_phases`` and treated as
    known at the receiver.
    """
    if p_ul <= 0:
        raise ValueError("p_ul must be positive")
    if book.n_ues != net.n_ues:
        raise ValueError("pilot book and network disagree on UE count")
    n_aps, n_ue = net.n_aps, net.n_ues
    if random_link_phase:
        link_phases = np.exp(2j * np.pi * rng.random((n_aps, n_ue)))
    else:
        link_phases = np.ones((n_aps, n_ue), dtype=complex)
    ys, xs, zs = [], [], []
    scale = np.sqrt(p_ul)
    sigma = np.sqrt(chan.noise_w / 2.0)
    for r in range(n_aps):
        x = augmented_matrix(book, net, regime, r, rng, data_alphabet)
        x *= link_phases[r][:, None]
        z = sigma * (rng.standard_normal((chan.m_antennas, x.shape[1]))
                     + 1j * rng.standard_normal((chan.m_antennas, x.shape[1])))
        y = scale * (chan.h[r].T @ x) + z
        ys.append(y)
        xs.append(x)
        zs.append(z)
    return ReceivedFrame(y=ys, x_aug=xs, noise=zs, p_ul=p_ul, regime=regime,
                         book=book, net=net, chan=chan, link_phases=link_phases)


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
