"""Pilot books for the three schemes and per-AP matched-filter sequences.

Schemes:

* ``random`` -- unit-magnitude entries with i.i.d. quantized random phases
  (a pool of tau_p sequences shared round-robin, mimicking PSK pilots).
* ``dft`` -- rows of the tau_p-point DFT matrix, entry n of row m equal to
  exp(j 2 pi m n / tau_p).
* ``dft_ext`` -- DFT rows with a cyclic extension of tau_ex samples. Because
  adjacent entries differ by the constant step exp(j 2 pi m / tau_p), the
  extension equals both the first tau_ex entries repeated and the analytic
  continuation of the exponent; every length-tau_p window of the extended
  sequence is a phase rotation of the base row.

Matched-filter sequences are zero-padded copies: aligned at the UE's own
delay for random/dft, or at the AP's common window start (max served delay)
for the extended scheme, where the base, unextended row is used. Each one
carries the window's sample counts per UE at that AP (:func:`window_counts`),
which the covariance, the estimator and the rate bound all read.
:func:`make_mf_sequence` builds the rows of any number of links at once: its
AP and UE indices broadcast, and the estimator passes every served link of a
frame in one call.

A :class:`BookSetup` holds what every frame of one book on one network
shares: the padded pilot window that AP r's zero-padded pilot rows are
gathered from when read, and the matched-filter part made from those rows.

:func:`window_counts` is also the one coverage rule: a UE covers an MF
window when its pilot fills it, ``MFSequence.pilot == tau_p``. For the
extended scheme that holds for UE u at AP r iff t_ur <= t_w_r and
t_w_r - t_ur <= tau_ex, and then the MF cancels u exactly (different pilot
index) or adds it coherently (co-pilot). At tau_ex equal to the largest
in-cluster delay spread (``auto_min``) every served UE is covered.
"""

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SCHEME_RANDOM = "random"
SCHEME_DFT = "dft"
SCHEME_DFT_EXT = "dft_ext"
SCHEMES = (SCHEME_RANDOM, SCHEME_DFT, SCHEME_DFT_EXT)

ASSIGN_ROUND_ROBIN = "round_robin"
ASSIGN_MAXMIN_DISTANCE = "maxmin_distance"
ASSIGNMENTS = (ASSIGN_ROUND_ROBIN, ASSIGN_MAXMIN_DISTANCE)

# UPG: a guard time separates pilots from uplink data; UPNG: none, so the data
# of earlier-arriving UEs falls into the pilot windows of later ones
REGIME_UPG = "upg"
REGIME_UPNG = "upng"
REGIMES = (REGIME_UPG, REGIME_UPNG)


@dataclass
class PilotBook:
    scheme: str
    tau_p: int
    tau_ex: int
    assignment: np.ndarray
    sequences: np.ndarray
    phase_levels: int = None

    @property
    def seq_len(self):
        return self.tau_p + self.tau_ex

    @property
    def n_ues(self):
        return self.assignment.shape[0]


@dataclass
class MFSequence:
    """Zero-padded matched-filter rows of (AP, UE) links.

    Every field carries the links' index shape: scalars and a length-L
    ``row`` for one link, leading axes for many. ``align_phase`` is the
    known rotation of the pilot fragment inside the MF window relative to
    the base sequence (unity for random/dft; for the extended scheme
    exp(j 2 pi m (t_w - t_u) / tau_p)). The estimator de-rotates the MF
    output by its conjugate before applying the LMMSE gain. A row is
    nonzero only on its window, the tau_p frame samples from
    :func:`mf_start` on. ``pilot`` and ``data`` count, per UE at the link's
    AP (last axis), the window samples that carry its pilot and the ones
    after its pilot, where UPNG data is sent.
    """

    row: np.ndarray
    align_phase: np.ndarray
    ap: np.ndarray
    ue: np.ndarray
    pilot: np.ndarray
    data: np.ndarray


def dft_sequence(m, tau_p, length=None):
    """Entries exp(j 2 pi m n / tau_p) for n = 0..length-1 (default tau_p)."""
    n = np.arange(tau_p if length is None else length)
    return np.exp(2j * np.pi * m * n / tau_p)


def assign_round_robin(ue_count, tau_p):
    return np.arange(ue_count, dtype=np.int64) % tau_p


def assign_maxmin_distance(ue_positions, tau_p):
    """Greedy assignment maximizing the minimum distance among co-pilot UEs.

    UEs are processed in index order; each picks, among the indices with the
    fewest assignees so far, the one whose current co-pilot UEs are farthest
    away (infinitely far for unused indices); the lowest such index wins a tie.
    """
    pos = np.asarray(ue_positions, dtype=float)
    n = pos.shape[0]
    diff = pos[:, None, :] - pos[None, :, :]
    # a stacked dot, rounded like np.linalg.norm of each pair: norm(axis=-1),
    # hypot and einsum round differently and can flip a near-tie
    dist = np.sqrt(np.matmul(diff[..., None, :], diff[..., :, None]))[..., 0, 0]
    # nearest[m, v]: distance from UE v to the closest UE holding index m so far
    nearest = np.full((tau_p, n), np.inf)
    # -inf on the indices above the lowest load: loads differ by at most 1, so
    # every tau_p UEs all loads are equal again
    above = np.zeros(tau_p)
    assignment = np.empty(n, dtype=np.int64)
    for u in range(n):
        m = int(np.argmax(nearest[:, u] + above))
        assignment[u] = m
        above[m] = -np.inf
        if (u + 1) % tau_p == 0:
            above[:] = 0.0
        np.minimum(nearest[m], dist[u], out=nearest[m])
    return assignment


def make_pilot_book(scheme, tau_p, tau_ex, ue_count, rng, phase_levels=8, assignment=None):
    """Construct the pilot book for one trial.

    Parameters
    ----------
    scheme : {"random", "dft", "dft_ext"}
    tau_p : int
        Base pilot length in samples.
    tau_ex : int
        Cyclic extension length; must be 0 unless scheme is "dft_ext".
    ue_count : int
    rng : numpy.random.Generator
        Consumed only by the random scheme.
    phase_levels : int
        Phase quantization P for the random scheme (phases k*2pi/P).
    assignment : int array, optional
        Pilot index of each UE (e.g. from :func:`assign_maxmin_distance`);
        round-robin when omitted.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown pilot scheme {scheme!r}")
    if tau_p < 1:
        raise ValueError("tau_p must be at least 1")
    if tau_ex < 0:
        raise ValueError("tau_ex must be nonnegative")
    if tau_ex > 0 and scheme != SCHEME_DFT_EXT:
        raise ValueError("tau_ex > 0 is only valid for the dft_ext scheme")

    if assignment is None:
        assign = assign_round_robin(ue_count, tau_p)
    else:
        assign = np.asarray(assignment, dtype=np.int64)
        if assign.shape != (ue_count,):
            raise ValueError("assignment must hold one pilot index per UE")

    if scheme == SCHEME_RANDOM:
        phases = rng.integers(0, phase_levels, size=(tau_p, tau_p))
        pool = np.exp(2j * np.pi * phases / phase_levels)
        return PilotBook(scheme, tau_p, tau_ex, assign, pool[assign], phase_levels)
    return PilotBook(scheme, tau_p, tau_ex, assign, _dft_base(tau_p, tau_p + tau_ex)[assign])


@functools.lru_cache(maxsize=64)
def _dft_base(tau_p, length):
    """Every DFT row of ``tau_p`` points, ``length`` samples long, read-only."""
    # an extension of tau_p or more wraps through full cyclic repeats
    base = np.exp(2j * np.pi * np.outer(np.arange(tau_p), np.arange(length)) / tau_p)
    base.flags.writeable = False
    return base


def window_counts(start, tau_p, t, seq_len):
    """Pilot and data sample counts of UEs at delays ``t`` inside the window.

    The window is [start, start + tau_p); a UE sends its seq_len-sample
    pilot from t on and data (UPNG) from t + seq_len to the frame's end.
    """
    # samples of the window before the pilot's start and end; np.minimum and
    # np.maximum, not np.clip, which costs more than the rest on a per-link call
    before = np.minimum(np.maximum(np.add.outer((0, seq_len), t - start), 0), tau_p)
    return before[1] - before[0], tau_p - before[1]


def mf_start(book, net, r, u):
    """First frame sample of the MF windows of the links (``r``, ``u``): the UE's
    delay, or under the extended scheme the AP's window start t_w_r."""
    return net.t_w_r[r] if book.scheme == SCHEME_DFT_EXT else net.t_ur[r, u]


def make_mf_sequence(book, net, r, u, lo=0, width=None):
    """Zero-padded MF rows of the links (``r``, ``u``); the indices broadcast.

    A row holds the frame samples [lo, lo + width) of its link's AP, ``lo``
    broadcasting with the links. By default a row is tau_p + tau_ex + t_max
    samples from the frame's start, t_max the largest over the links' APs,
    so each one is as long as its AP's frame or longer, by trailing zeros.
    """
    r, u = np.broadcast_arrays(np.asarray(r), np.asarray(u))
    tau_p = book.tau_p
    t = net.t_ur[r, u]
    start = mf_start(book, net, r, u)
    if book.scheme == SCHEME_DFT_EXT:
        if not (net.serving[r] == u[..., None]).any(axis=-1).all():
            raise ValueError("extended-DFT MF windows are defined for served UEs only")
        m = book.assignment[u]
        # each pilot index's row, gathered: the same bits as a row per link, fewer exps
        seq = dft_sequence(np.arange(tau_p)[:, None], tau_p)[m]
        # the angle in real arithmetic: a complex division rounds differently
        phase = np.exp(1j * (2 * np.pi * m * (start - t) / tau_p))
    else:
        seq = book.sequences[u, :tau_p]
        phase = np.ones(u.shape, dtype=complex)
    if width is None:
        width = book.seq_len + int(net.t_max_r[r].max())
    row = np.zeros(u.shape + (width,), dtype=complex)
    # each link's window [start - lo, start - lo + tau_p) of its row, links flattened
    flat = row.reshape(-1, width)
    cols = (start - lo).reshape(-1, 1) + np.arange(tau_p)
    flat[np.arange(flat.shape[0])[:, None], cols] = seq.reshape(-1, tau_p)
    pilot, data = window_counts(start[..., None], tau_p, net.t_ur[r], book.seq_len)
    return MFSequence(row=row, align_phase=phase, ap=r, ue=u,
                      pilot=pilot, data=data)


@dataclass
class BookSetup:
    """What the frames of one pilot book on one network share, whatever their regime and power.

    ``windows`` is every UE's padded pilot window; ``index`` (UE indices, R x U
    window starts, per-AP column counts) gathers AP r's rows from it anew at each
    :meth:`row` call. ``links`` is the matched-filter part that frame synthesis
    and estimation read (``cfpilot.estimator.BookLinks``), made from the rows
    by the first frame with this setup.
    """

    book: PilotBook
    net: object
    windows: np.ndarray
    index: tuple
    links: object = None

    def row(self, r, lo=0, hi=None):
        """AP r's U x (L + t_max_r) pilot rows, row u [zeros(t_ur), pilot, zeros],
        or only their columns [lo, hi)."""
        ue, start, cols = self.index
        return self.windows[ue, start[r], lo:cols[r] if hi is None else hi]


def book_setup(book, net):
    """The ``BookSetup`` of ``book`` on ``net``, without its matched-filter part."""
    t_max = int(net.t_max_r.max())
    padded = np.zeros((net.n_ues, book.seq_len + 2 * t_max), dtype=complex)
    padded[:, t_max:t_max + book.seq_len] = book.sequences
    # the row at delay t is the window of the padded pilot that starts t_max - t in
    windows = sliding_window_view(padded, book.seq_len + t_max, axis=-1)
    cols = (book.seq_len + net.t_max_r).tolist()
    return BookSetup(book, net, windows, (np.arange(net.n_ues), t_max - net.t_ur, cols))
