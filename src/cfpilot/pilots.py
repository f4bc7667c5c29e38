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

:func:`window_counts` is also the one coverage rule: a UE covers an MF
window when its pilot fills it, ``MFSequence.pilot == tau_p``. For the
extended scheme that holds for UE u at AP r iff t_ur <= t_w_r and
t_w_r - t_ur <= tau_ex, and then the MF cancels u exactly (different pilot
index) or adds it coherently (co-pilot). At tau_ex equal to the largest
in-cluster delay spread (``auto_min``) every served UE is covered.
"""

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
    """Zero-padded matched-filter row for one (AP, UE) pair.

    ``align_phase`` is the known rotation of the pilot fragment inside the
    MF window relative to the base sequence (unity for random/dft; for the
    extended scheme exp(j 2 pi m (t_w - t_u) / tau_p)). The estimator
    de-rotates the MF output by its conjugate before applying the LMMSE gain.
    ``pilot`` and ``data`` count, per UE at the AP, the window samples that
    carry its pilot and the ones after its pilot, where UPNG data is sent.
    """

    row: np.ndarray
    window_start: int
    align_phase: complex
    ap: int
    ue: int
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
    away (infinitely far for unused indices).
    """
    pos = np.asarray(ue_positions, dtype=float)
    n = pos.shape[0]
    assignment = np.full(n, -1, dtype=np.int64)
    members = [[] for _ in range(tau_p)]
    for u in range(n):
        load = np.array([len(mem) for mem in members])
        candidates = np.flatnonzero(load == load.min())
        best_m, best_score = candidates[0], -np.inf
        for m in candidates:
            if not members[m]:
                score = np.inf
            else:
                score = min(np.linalg.norm(pos[u] - pos[v]) for v in members[m])
            if score > best_score:
                best_m, best_score = m, score
        assignment[u] = best_m
        members[best_m].append(u)
    return assignment


def make_pilot_book(scheme, tau_p, tau_ex, ue_count, rng, phase_levels=8,
                    assignment=ASSIGN_ROUND_ROBIN, ue_positions=None):
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
    assignment : {"round_robin", "maxmin_distance"}
    ue_positions : array, optional
        Required for max-min distance assignment.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown pilot scheme {scheme!r}")
    if tau_p < 1:
        raise ValueError("tau_p must be at least 1")
    if tau_ex < 0:
        raise ValueError("tau_ex must be nonnegative")
    if tau_ex > 0 and scheme != SCHEME_DFT_EXT:
        raise ValueError("tau_ex > 0 is only valid for the dft_ext scheme")

    if assignment == ASSIGN_ROUND_ROBIN:
        assign = assign_round_robin(ue_count, tau_p)
    elif assignment == ASSIGN_MAXMIN_DISTANCE:
        if ue_positions is None:
            raise ValueError("maxmin_distance assignment needs ue_positions")
        assign = assign_maxmin_distance(ue_positions, tau_p)
    else:
        raise ValueError(f"unknown assignment rule {assignment!r}")

    length = tau_p + tau_ex
    if scheme == SCHEME_RANDOM:
        phases = rng.integers(0, phase_levels, size=(tau_p, tau_p))
        pool = np.exp(2j * np.pi * phases / phase_levels)
        sequences = pool[assign]
        return PilotBook(scheme, tau_p, tau_ex, assign, sequences,
                         phase_levels=phase_levels)

    # an extension of tau_p or more wraps through full cyclic repeats
    base = np.exp(2j * np.pi * np.outer(np.arange(tau_p), np.arange(length)) / tau_p)
    sequences = base[assign]
    return PilotBook(scheme, tau_p, tau_ex, assign, sequences)


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
    """Zero-padded MF row for UE ``u`` at AP ``r`` (length tau_p+tau_ex+t_max_r)."""
    total = book.seq_len + int(net.t_max_r[r])
    row = np.zeros(total, dtype=complex)
    if book.scheme == SCHEME_DFT_EXT:
        if u not in net.serving[r]:
            raise ValueError("extended-DFT MF windows are defined for served UEs only")
        start = int(net.t_w_r[r])
        m = int(book.assignment[u])
        row[start:start + book.tau_p] = dft_sequence(m, book.tau_p)
        delta = start - int(net.t_ur[r, u])
        phase = np.exp(2j * np.pi * m * delta / book.tau_p)
    else:
        start = int(net.t_ur[r, u])
        row[start:start + book.tau_p] = book.sequences[u, :book.tau_p]
        phase = 1.0 + 0j
    pilot, data = window_counts(start, book.tau_p, net.t_ur[r], book.seq_len)
    return MFSequence(row=row, window_start=start, align_phase=complex(phase), ap=r, ue=u,
                      pilot=pilot, data=data)
