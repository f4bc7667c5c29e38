from dataclasses import replace

import numpy as np
import pytest

from cfpilot.geometry import (
    PlacementError,
    SimArea,
    delay_spread_min_extension,
    discretize_delay,
    sample_topology,
    synchronize,
    topology_from_positions,
)
from cfpilot.pilots import make_mf_sequence, make_pilot_book

AREA = SimArea(side_m=836.660026534076, ap_count=70, ue_mean=98.0, gamma_m=20.0,
               tau_smp_s=50e-9)
DESK = SimArea(side_m=316.2277660168379, ap_count=10, ue_mean=14.0, gamma_m=20.0,
               tau_smp_s=50e-9)


def test_area_invariants():
    with pytest.raises(ValueError):
        SimArea(side_m=-1, ap_count=1, ue_mean=1)
    with pytest.raises(ValueError):
        SimArea(side_m=100, ap_count=1, ue_mean=1, gamma_m=60)
    with pytest.raises(ValueError):
        SimArea(side_m=100, ap_count=1, ue_mean=1, tau_smp_s=0)


@pytest.mark.parametrize("d,expected", [(0.0, 0), (150.0, 10), (100.0, 6)])
def test_discretize_delay_examples(d, expected):
    # 100 m at 50 ns sampling: 100/(3e8*5e-8) = 6.67 -> 6
    assert discretize_delay(d, AREA) == expected


def test_discretize_delay_exact_multiples():
    # multiples of the 15 m per-sample distance must not fall a bin short
    for k in range(1, 40):
        assert discretize_delay(15.0 * k, AREA) == k


def test_fixed_positions_hook():
    net = topology_from_positions(AREA, [[0.0, 0.0]], [[100.0, 0.0]], cluster_size=1)
    assert net.d_ru[0, 0] == pytest.approx(100.0)
    assert net.t_ur[0, 0] == 6
    assert list(net.serving[0]) == [0]


def test_sample_topology_respects_restricted_radius():
    rng = np.random.default_rng(0)
    for _ in range(5):
        net = sample_topology(DESK, 4, rng)
        assert net.d_ru.min() >= DESK.gamma_m
        assert all(len(net.serving[r]) == 4 for r in range(net.n_aps))


def test_sample_topology_deterministic():
    a = sample_topology(DESK, 4, np.random.default_rng(42))
    b = sample_topology(DESK, 4, np.random.default_rng(42))
    np.testing.assert_array_equal(a.ap_pos, b.ap_pos)
    np.testing.assert_array_equal(a.ue_pos, b.ue_pos)
    np.testing.assert_array_equal(a.t_ur, b.t_ur)
    np.testing.assert_array_equal(a.serving, b.serving)


class _CountingRng:
    """A Generator whose ``uniform`` calls are counted: the AP and UE draws and one
    per UE redraw round."""

    def __init__(self, seed):
        self._inner = np.random.default_rng(seed)
        self.uniform_calls = 0

    def uniform(self, *args, **kwargs):
        self.uniform_calls += 1
        return self._inner.uniform(*args, **kwargs)

    def poisson(self, *args, **kwargs):
        return self._inner.poisson(*args, **kwargs)


@pytest.mark.parametrize("gamma_m", [AREA.gamma_m, 40.0])
def test_sample_topology_keeps_fresh_distances(gamma_m):
    # the distances kept across redraw rounds, recomputed only for the redrawn
    # UEs, and everything built from them are those of the final positions, bit
    # for bit; at 40 m every seed takes 3 or more rounds
    area = replace(AREA, gamma_m=gamma_m)
    for seed in range(5):
        rng = _CountingRng(seed)
        net = sample_topology(area, 4, rng)
        if gamma_m == 40.0:
            assert rng.uniform_calls - 2 >= 3
        fresh = topology_from_positions(area, net.ap_pos, net.ue_pos, 4)
        for name in ("d_ru", "t_ur", "serving", "t_max_r", "t_w_r"):
            got, want = getattr(net, name), getattr(fresh, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (seed, name)
        assert net.d_ru.min() >= gamma_m


def test_sample_topology_min_one_ue():
    area = SimArea(side_m=300.0, ap_count=2, ue_mean=0.05, gamma_m=5.0, tau_smp_s=50e-9)
    rng = np.random.default_rng(0)
    for _ in range(20):
        net = sample_topology(area, 1, rng)
        assert net.n_ues >= 1


def test_infeasible_placement_raises():
    # disks nearly tile the square: rejection cannot succeed
    side = 100.0
    grid = [[x, y] for x in (25.0, 75.0) for y in (25.0, 75.0)]
    area = SimArea(side_m=side, ap_count=4, ue_mean=5.0, gamma_m=49.0, tau_smp_s=50e-9)
    rng = np.random.default_rng(1)

    import cfpilot.geometry as geo

    ue = rng.uniform(0, side, size=(5, 2))
    with pytest.raises(PlacementError):
        # drive the same rejection loop through the public API with APs fixed
        # via monkeypatched uniform draws is overkill; instead check the loop
        # directly on a hand-built layout where every point is within gamma
        # of some AP center.
        geo.sample_topology(area, 1, _CoveringRng(grid, side))


class _CoveringRng:
    """Minimal Generator stand-in: APs on a covering grid, UEs anywhere."""

    def __init__(self, ap_grid, side):
        self._ap = np.asarray(ap_grid, dtype=float)
        self._side = side
        self._inner = np.random.default_rng(0)
        self._first = True

    def uniform(self, low, high, size=None):
        if self._first:
            self._first = False
            return self._ap
        return self._inner.uniform(low, high, size=size)

    def poisson(self, lam):
        return 5


def test_delay_spread_matches_bruteforce():
    rng = np.random.default_rng(3)
    net = sample_topology(DESK, 4, rng)
    brute = 0
    for r in range(net.n_aps):
        for u in net.serving[r]:
            for v in net.serving[r]:
                brute = max(brute, abs(int(net.t_ur[r, u]) - int(net.t_ur[r, v])))
    assert delay_spread_min_extension(net) == brute


def test_delay_spread_degenerate_cases():
    net = topology_from_positions(AREA, [[0.0, 0.0]], [[100.0, 0.0], [0.0, 100.0]],
                                  cluster_size=2)
    assert delay_spread_min_extension(net) == 0
    net2 = topology_from_positions(
        AREA, [[0.0, 0.0]],
        [[3 * 15.0 + 1, 0.0], [7 * 15.0 + 1, 0.0], [9 * 15.0 + 1, 0.0]],
        cluster_size=3)
    assert sorted(net2.t_ur[0]) == [3, 7, 9]
    assert delay_spread_min_extension(net2) == 6


def _covered(net, r, tau_ex, tau_p=8):
    """UEs whose extended pilots fill AP r's MF window: the window-count rule."""
    book = make_pilot_book("dft_ext", tau_p, tau_ex, net.n_ues, None)
    mf = make_mf_sequence(book, net, r, int(net.serving[r][0]))
    return set(np.flatnonzero(mf.pilot == tau_p).tolist())


def _covered_bruteforce(net, r, tau_ex):
    tw = int(net.t_w_r[r])
    return {u for u in range(net.n_ues)
            if int(net.t_ur[r, u]) <= tw and tw - int(net.t_ur[r, u]) <= tau_ex}


def test_significant_set_enumeration_and_monotonicity():
    rng = np.random.default_rng(11)
    for _ in range(10):
        net = sample_topology(DESK, 4, rng)
        spread = delay_spread_min_extension(net)
        assert spread >= 1
        for r in range(net.n_aps):
            prev = set()
            for tau_ex in range(0, 12):
                got = _covered(net, r, tau_ex)
                assert got == _covered_bruteforce(net, r, tau_ex)
                assert prev <= got
                prev = got
            # with tau_ex at the largest in-cluster spread, every served UE is covered
            assert set(net.serving[r].tolist()) <= _covered(net, r, spread)
        # and the spread is the smallest such extension: one short, some AP
        # has a served UE that does not fill its window
        assert any(not set(net.serving[r].tolist()) <= _covered(net, r, spread - 1)
                   for r in range(net.n_aps))


def test_significant_set_single_ue():
    net = topology_from_positions(AREA, [[0.0, 0.0]], [[50.0, 0.0]], cluster_size=1)
    assert _covered(net, 0, 0) == {0}


def test_synchronize_zeroes_delays_only():
    rng = np.random.default_rng(5)
    net = sample_topology(DESK, 4, rng)
    sync = synchronize(net)
    assert sync.t_ur.max() == 0
    assert sync.t_max_r.max() == 0
    np.testing.assert_array_equal(sync.d_ru, net.d_ru)
    np.testing.assert_array_equal(sync.serving, net.serving)

