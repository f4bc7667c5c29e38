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

SCHEME_RANDOM = "random"
SCHEME_DFT = "dft"
SCHEME_DFT_EXT = "dft_ext"
SCHEMES = (SCHEME_RANDOM, SCHEME_DFT, SCHEME_DFT_EXT)

ASSIGN_ROUND_ROBIN = "round_robin"
ASSIGN_MAXMIN_DISTANCE = "maxmin_distance"
ASSIGNMENTS = (ASSIGN_ROUND_ROBIN, ASSIGN_MAXMIN_DISTANCE)


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
    output by its conjugate before applying the LMMSE gain. ``pilot`` and
    ``data`` count, per UE at the link's AP (last axis), the window samples
    that carry its pilot and the ones after its pilot, where UPNG data is sent.
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
    # nearest[v, m]: distance from UE v to the closest UE holding index m so far
    nearest = np.full((n, tau_p), np.inf)
    load = np.zeros(tau_p, dtype=np.int64)
    assignment = np.empty(n, dtype=np.int64)
    for u in range(n):
        m = int(np.argmax(np.where(load == load.min(), nearest[u], -np.inf)))
        assignment[u] = m
        load[m] += 1
        np.minimum(nearest[:, m], dist[u], out=nearest[:, m])
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


def make_mf_sequence(book, net, r, u):
    """Zero-padded MF rows of the links (``r``, ``u``); the indices broadcast.

    A row is tau_p + tau_ex + t_max samples long, t_max the largest over the
    links' APs, so each one is as long as its AP's frame or longer, by
    trailing zeros.
    """
    r, u = np.broadcast_arrays(np.asarray(r), np.asarray(u))
    tau_p = book.tau_p
    t = net.t_ur[r, u]
    if book.scheme == SCHEME_DFT_EXT:
        if not (net.serving[r] == u[..., None]).any(axis=-1).all():
            raise ValueError("extended-DFT MF windows are defined for served UEs only")
        start = net.t_w_r[r]
        m = book.assignment[u]
        seq = dft_sequence(m[..., None], tau_p)
        # the angle in real arithmetic: a complex division rounds differently
        phase = np.exp(1j * (2 * np.pi * m * (start - t) / tau_p))
    else:
        start = t
        seq = book.sequences[u, :tau_p]
        phase = np.ones(u.shape, dtype=complex)
    row = np.zeros(u.shape + (book.seq_len + int(net.t_max_r[r].max()),), dtype=complex)
    np.put_along_axis(row, start[..., None] + np.arange(tau_p), seq, axis=-1)
    pilot, data = window_counts(start[..., None], tau_p, net.t_ur[r], book.seq_len)
    return MFSequence(row=row, align_phase=phase, ap=r, ue=u,
                      pilot=pilot, data=data)
