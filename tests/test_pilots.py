import numpy as np
import pytest
from oracles import assign_maxmin_loop, dft_cross_inner

from cfpilot.analytics import dft_cross_power
from cfpilot.geometry import SimArea, topology_from_positions
from cfpilot.pilots import (
    assign_maxmin_distance,
    dft_sequence,
    make_mf_sequence,
    make_pilot_book,
)

AREA = SimArea(side_m=836.660026534076, ap_count=1, ue_mean=1.0, gamma_m=20.0,
               tau_smp_s=50e-9)


def brute_cross_inner(m, n, tau_p, tau_overlap):
    """Independent oracle: direct summation of the overlapped product.

    Trailing tau_overlap samples of the target row m against the leading
    samples of the later-arriving row n.
    """
    d = tau_p - tau_overlap
    total = 0j
    for i in range(tau_overlap):
        total += np.exp(2j * np.pi * n * i / tau_p) * np.conj(
            np.exp(2j * np.pi * m * (i + d) / tau_p))
    return total


def power_factor(m, n, tau_p, tau_overlap):
    """Squared pilot cross term of rows m (target) and n overlapping on
    tau_overlap samples, as the library computes it (no data bleed)."""
    return float(dft_cross_power(m - n, tau_p, tau_overlap))


def test_dft_book_row_zero_is_all_ones():
    book = make_pilot_book("dft", 8, 0, 1, np.random.default_rng(0))
    np.testing.assert_allclose(book.sequences[0], np.ones(8), atol=1e-14)


def test_extended_book_example():
    # m=1, tau_p=4, tau_ex=2 -> [1, j, -1, -j, 1, j]
    book = make_pilot_book("dft_ext", 4, 2, 2, np.random.default_rng(0))
    np.testing.assert_allclose(book.sequences[1],
                               np.array([1, 1j, -1, -1j, 1, 1j]), atol=1e-12)


def test_extended_equals_cyclic_repeat():
    # both forms of the extension coincide: repeat of the head and the
    # continued exponent, also when the extension wraps past one period
    for tau_p, tau_ex in ((4, 2), (8, 5), (16, 16), (4, 9)):
        book = make_pilot_book("dft_ext", tau_p, tau_ex, tau_p, np.random.default_rng(0))
        for m in range(tau_p):
            seq = book.sequences[m]
            np.testing.assert_allclose(seq[tau_p:], seq[:tau_ex], atol=1e-12)
            np.testing.assert_allclose(seq, dft_sequence(m, tau_p, tau_p + tau_ex),
                                       atol=1e-12)


def test_random_book_quantized_phases():
    book = make_pilot_book("random", 16, 0, 40, np.random.default_rng(1), phase_levels=4)
    alphabet = np.array([1, 1j, -1, -1j])
    for entry in book.sequences.ravel():
        assert np.min(np.abs(entry - alphabet)) < 1e-12
    np.testing.assert_allclose(np.abs(book.sequences), 1.0, atol=1e-12)
    # pool of tau_p sequences shared round-robin
    np.testing.assert_allclose(book.sequences[0], book.sequences[16], atol=1e-12)


def test_unit_magnitude_all_schemes():
    rng = np.random.default_rng(2)
    for scheme, tau_ex in (("random", 0), ("dft", 0), ("dft_ext", 5)):
        book = make_pilot_book(scheme, 32, tau_ex, 10, rng)
        np.testing.assert_allclose(np.abs(book.sequences), 1.0, atol=1e-12)


def test_make_pilot_book_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        make_pilot_book("zc", 8, 0, 4, rng)
    with pytest.raises(ValueError):
        make_pilot_book("dft", 8, 2, 4, rng)
    with pytest.raises(ValueError):
        make_pilot_book("dft", 0, 0, 4, rng)


def _min_copilot_dist(pos, assign, tau_p):
    dmin = np.inf
    for m in range(tau_p):
        members = np.flatnonzero(assign == m)
        for i in members:
            for j in members:
                if i < j:
                    dmin = min(dmin, np.linalg.norm(pos[i] - pos[j]))
    return dmin


def test_maxmin_assignment_spreads_copilots():
    tau_p = 4
    # two tight clusters of tau_p UEs each: the greedy must pair across
    # clusters, never within one
    close = np.random.default_rng(0).uniform(0, 5, size=(tau_p, 2))
    pos = np.vstack([close, close + 800.0])
    assign = assign_maxmin_distance(pos, tau_p)
    assert sorted(np.bincount(assign, minlength=tau_p)) == [2] * tau_p
    assert _min_copilot_dist(pos, assign, tau_p) > 500.0
    # statistically better than round-robin on random drops (greedy is a
    # heuristic; individual instances may lose)
    wins = []
    for seed in range(20):
        pos = np.random.default_rng(seed).uniform(0, 1000, size=(12, 2))
        greedy = _min_copilot_dist(pos, assign_maxmin_distance(pos, tau_p), tau_p)
        rr = _min_copilot_dist(pos, np.arange(12) % tau_p, tau_p)
        wins.append(greedy - rr)
    assert np.mean(wins) > 0


def test_maxmin_assignment_equals_pair_loop():
    # every third layout sits on a small integer lattice, so exact distance
    # ties (and coincident UEs) exercise the tie-break: lowest index wins
    rng = np.random.default_rng(12)
    for i in range(300):
        n, tau_p = int(rng.integers(1, 40)), int(rng.integers(1, 12))
        if i % 3 == 0:
            pos = 15.0 * rng.integers(0, 5, size=(n, 2))
        else:
            pos = rng.uniform(0.0, 1000.0, size=(n, 2))
        assert np.array_equal(assign_maxmin_distance(pos, tau_p),
                              assign_maxmin_loop(pos, tau_p)), (i, n, tau_p)


def test_mf_sequence_shapes_and_window():
    # DFT, t_ur=3, t_max=5, tau_p=4 -> [0,0,0, seq, 0,0] of length 9
    net = topology_from_positions(
        AREA, [[0.0, 0.0]],
        [[3 * 15.0 + 1, 0.0], [5 * 15.0 + 1, 0.0]], cluster_size=2)
    assert net.t_ur[0, 0] == 3 and net.t_max_r[0] == 5
    book = make_pilot_book("dft", 4, 0, 2, np.random.default_rng(0))
    mf = make_mf_sequence(book, net, 0, 0)
    assert mf.row.shape == (9,)
    assert np.count_nonzero(mf.row) == 4
    np.testing.assert_allclose(mf.row[3:7], book.sequences[0], atol=1e-12)
    assert np.flatnonzero(mf.row)[0] == 3
    assert mf.align_phase == 1.0 + 0j


def test_mf_sequence_zero_delay_identity():
    net = topology_from_positions(AREA, [[0.0, 0.0]], [[10.0, 0.0]], cluster_size=1)
    assert net.t_ur[0, 0] == 0 and net.t_max_r[0] == 0
    book = make_pilot_book("dft", 8, 0, 1, np.random.default_rng(0))
    mf = make_mf_sequence(book, net, 0, 0)
    np.testing.assert_allclose(mf.row, book.sequences[0], atol=1e-12)


def test_mf_sequence_extended_common_window():
    # cluster delays {3, 7}: both served UEs share window start 7
    net = topology_from_positions(
        AREA, [[0.0, 0.0]],
        [[3 * 15.0 + 1, 0.0], [7 * 15.0 + 1, 0.0]], cluster_size=2)
    book = make_pilot_book("dft_ext", 8, 4, 2, np.random.default_rng(0))
    for u in (0, 1):
        mf = make_mf_sequence(book, net, 0, u)
        assert np.flatnonzero(mf.row)[0] == 7
        assert np.count_nonzero(mf.row) == 8
        delta = 7 - int(net.t_ur[0, u])
        expected = np.exp(2j * np.pi * book.assignment[u] * delta / 8)
        assert mf.align_phase == pytest.approx(expected)


def test_mf_sequence_extended_requires_served():
    net = topology_from_positions(
        AREA, [[0.0, 0.0]], [[50.0, 0.0], [100.0, 0.0]], cluster_size=1)
    book = make_pilot_book("dft_ext", 8, 2, 2, np.random.default_rng(0))
    with pytest.raises(ValueError):
        make_mf_sequence(book, net, 0, 1)


def test_cross_inner_limits():
    # full overlap of distinct rows is orthogonal
    assert dft_cross_inner(3, 5, 16, 16) == pytest.approx(0.0, abs=1e-12)
    # coherent case has magnitude tau_overlap
    for ov in (1, 7, 16):
        assert abs(dft_cross_inner(5, 5, 16, ov)) == pytest.approx(ov)
    assert dft_cross_inner(1, 0, 16, 0) == 0j
    with pytest.raises(ValueError):
        dft_cross_inner(1, 0, 16, 17)


def test_cross_inner_reference_value():
    # |inner| = sin(pi*16/32)/sin(pi/32) ~ 10.20 for m=1, n=0, overlap 16
    got = abs(dft_cross_inner(1, 0, 32, 16))
    oracle = abs(brute_cross_inner(1, 0, 32, 16))
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got == pytest.approx(np.sin(np.pi * 16 / 32) / np.sin(np.pi / 32), rel=1e-12)
    assert got == pytest.approx(10.2023, abs=5e-4)


def test_cross_inner_matches_bruteforce_grid():
    for tau_p in (4, 8, 16):
        for m in range(tau_p):
            for n in range(tau_p):
                for ov in range(1, tau_p + 1):
                    got = dft_cross_inner(m, n, tau_p, ov)
                    want = brute_cross_inner(m, n, tau_p, ov)
                    assert got == pytest.approx(want, abs=1e-9 * tau_p)


def test_power_factor_identity_and_errors():
    for tau_p in (4, 8, 16, 32):
        for m in range(tau_p):
            for n in range(tau_p):
                if m == n:
                    continue
                for ov in range(1, tau_p + 1):
                    r2 = power_factor(m, n, tau_p, ov)
                    inner2 = abs(dft_cross_inner(m, n, tau_p, ov)) ** 2
                    assert abs(r2 - inner2) <= 1e-9 * tau_p**2
    # co-pilot pairs add coherently over the overlap
    assert power_factor(2, 2, 8, 4) == 16.0


def test_power_factor_examples():
    assert power_factor(1, 0, 32, 32) == pytest.approx(0.0, abs=1e-18)
    # m-n = tau_p/2 with odd overlap gives exactly 1
    assert power_factor(8, 0, 16, 5) == pytest.approx(1.0, rel=1e-9)
    assert power_factor(1, 0, 32, 16) == pytest.approx(
        abs(brute_cross_inner(1, 0, 32, 16)) ** 2, rel=1e-9)


def test_extended_window_subsegments_restore_orthogonality():
    # any length-tau_p window of the extended sequence is a rotated base row,
    # exactly orthogonal to other rows and coherent with its own
    tau_p, tau_ex = 16, 7
    book = make_pilot_book("dft_ext", tau_p, tau_ex, tau_p, np.random.default_rng(0))
    for m in (0, 1, 5, 15):
        seq = book.sequences[m]
        base = dft_sequence(m, tau_p)
        for delta in range(tau_ex + 1):
            window = seq[delta:delta + tau_p]
            phase = np.exp(2j * np.pi * m * delta / tau_p)
            np.testing.assert_allclose(window, phase * base, atol=1e-12)
            for n in range(tau_p):
                inner = window @ dft_sequence(n, tau_p).conj()
                if n == m:
                    assert abs(inner) == pytest.approx(tau_p, rel=1e-12)
                else:
                    assert abs(inner) < 1e-9


def test_random_statistical_orthogonality():
    # E|phi_u phi_v^H|^2 -> tau_p within 5% over 1e4 draws
    tau_p, draws = 32, 10_000
    rng = np.random.default_rng(7)
    phases = rng.integers(0, 8, size=(2 * draws, tau_p))
    seqs = np.exp(2j * np.pi * phases / 8)
    inner = (seqs[:draws] * seqs[draws:].conj()).sum(axis=1)
    assert np.mean(np.abs(inner) ** 2) == pytest.approx(tau_p, rel=0.05)
