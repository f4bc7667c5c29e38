"""Network geometry: random layouts, user-centric serving clusters, sample delays.

APs are dropped uniformly on a square; UE count is Poisson and UE positions
are uniform outside a restricted disk around every AP. Each AP serves its
``cluster_size`` nearest UEs. Propagation delays are discretized to integer
sample counts, which is what the rest of the pipeline works with.
"""

from dataclasses import dataclass, field, replace

import numpy as np

SPEED_OF_LIGHT = 3.0e8  # m/s
MAX_PLACEMENT_ROUNDS = 200  # UE count or position redraw rounds before placement gives up


class PlacementError(RuntimeError):
    """UE placement failed; the message starts with the ``area.*`` key at fault."""


@dataclass(frozen=True)
class SimArea:
    """Square simulation region plus the sampling convention.

    Parameters
    ----------
    side_m : float
        Side length of the square deployment region in meters.
    ap_count : int
        Number of access points.
    ue_mean : float
        Mean of the Poisson UE count.
    gamma_m : float
        Restricted radius around each AP; UEs are resampled until they sit
        outside every such disk.
    tau_smp_s : float
        Sample period in seconds (1/BW when pilots span the full bandwidth).
    """

    side_m: float
    ap_count: int
    ue_mean: float
    gamma_m: float = 20.0
    tau_smp_s: float = 50e-9

    def __post_init__(self):
        if self.side_m <= 0:
            raise ValueError("side_m must be positive")
        if self.ap_count < 1:
            raise ValueError("ap_count must be at least 1")
        if self.ue_mean <= 0:
            raise ValueError("ue_mean must be positive")
        if self.gamma_m < 0:
            raise ValueError("gamma_m must be nonnegative")
        if self.gamma_m >= self.side_m / 2:
            raise ValueError("gamma_m must be smaller than side_m/2 for feasible placement")
        if self.tau_smp_s <= 0:
            raise ValueError("tau_smp_s must be positive")

    @property
    def meters_per_sample(self):
        return SPEED_OF_LIGHT * self.tau_smp_s


@dataclass
class NetworkRealization:
    """One random network draw, immutable by convention after construction.

    ``serving[r]`` lists the UE indices served by AP ``r`` ordered by
    distance. ``t_ur`` holds the integer sample delay of UE ``u`` at AP
    ``r`` (shape ``(R, U)``), ``t_max_r`` the per-AP maximum over all UEs
    and ``t_w_r`` the per-AP maximum over served UEs (the matched-filter
    window start).
    """

    ap_pos: np.ndarray
    ue_pos: np.ndarray
    d_ru: np.ndarray
    t_ur: np.ndarray
    serving: np.ndarray
    t_max_r: np.ndarray = field(repr=False)
    t_w_r: np.ndarray = field(repr=False)

    @property
    def n_aps(self):
        return self.ap_pos.shape[0]

    @property
    def n_ues(self):
        return self.ue_pos.shape[0]


def discretize_delay(d_m, area):
    """Map a distance in meters to an integer sample delay.

    Uses floor(d / (c * tau_smp)) with a 1e-9 guard on the quotient so that
    distances that are an exact multiple of the per-sample distance do not
    fall to the lower bin through float rounding.
    """
    q = np.asarray(d_m, dtype=float) / area.meters_per_sample
    out = np.floor(q + 1e-9).astype(np.int64)
    return out if out.ndim else int(out)


def _pairwise_distances(ap_pos, ue_pos):
    # in place, the sum of two squares that a sum over a size-2 axis gives
    dx = np.subtract.outer(ap_pos[:, 0], ue_pos[:, 0])
    dy = np.subtract.outer(ap_pos[:, 1], ue_pos[:, 1])
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def _realization(area, ap_pos, ue_pos, d, cluster_size):
    """The realization of positions whose AP-UE distances are ``d``."""
    t = discretize_delay(d, area)
    k = min(cluster_size, ue_pos.shape[0])
    serving = np.argsort(d, axis=1, kind="stable")[:, :k]
    return NetworkRealization(
        ap_pos=ap_pos,
        ue_pos=ue_pos,
        d_ru=d,
        t_ur=t,
        serving=serving,
        t_max_r=t.max(axis=1),
        t_w_r=t[np.arange(t.shape[0])[:, None], serving].max(axis=1),
    )


def topology_from_positions(area, ap_pos, ue_pos, cluster_size=4):
    """Build a realization from fixed AP and UE positions."""
    ap_pos = np.asarray(ap_pos, dtype=float).reshape(-1, 2)
    ue_pos = np.asarray(ue_pos, dtype=float).reshape(-1, 2)
    return _realization(area, ap_pos, ue_pos, _pairwise_distances(ap_pos, ue_pos), cluster_size)


def sample_topology(area, cluster_size, rng):
    """Draw one random network realization.

    AP positions are i.i.d. uniform on the square. The UE count is Poisson
    (redrawn until at least 1); UE positions are uniform, with any UE
    inside a restricted disk redrawn until clear. Raises
    :class:`PlacementError`, naming the ``area.*`` key at fault, when either
    redraw takes more than ``MAX_PLACEMENT_ROUNDS`` rounds.

    Parameters
    ----------
    area : SimArea
    cluster_size : int
        Served UEs per AP (all UEs if fewer exist).
    rng : numpy.random.Generator
    """
    ap_pos = rng.uniform(0.0, area.side_m, size=(area.ap_count, 2))
    for _ in range(MAX_PLACEMENT_ROUNDS):
        n_ue = int(rng.poisson(area.ue_mean))
        if n_ue:
            break
    else:
        raise PlacementError(f"area.ue_mean: no UE in {MAX_PLACEMENT_ROUNDS} Poisson draws "
                             f"(ue_mean={area.ue_mean})")
    ue_pos = rng.uniform(0.0, area.side_m, size=(n_ue, 2))
    d = _pairwise_distances(ap_pos, ue_pos)
    # a round redraws the UEs inside a disk and recomputes their distances only
    bad = np.flatnonzero(d.min(axis=0) < area.gamma_m)
    for _ in range(MAX_PLACEMENT_ROUNDS):
        if not bad.size:
            break
        ue_pos[bad] = rng.uniform(0.0, area.side_m, size=(bad.size, 2))
        d[:, bad] = _pairwise_distances(ap_pos, ue_pos[bad])
        bad = bad[d[:, bad].min(axis=0) < area.gamma_m]
    else:
        raise PlacementError(
            "area.gamma_m: could not place UEs outside all restricted disks after "
            f"{MAX_PLACEMENT_ROUNDS} rounds (gamma_m={area.gamma_m}, side_m={area.side_m})"
        )
    return _realization(area, ap_pos, ue_pos, d, cluster_size)


def synchronize(net):
    """Copy of a realization with every delay forced to zero.

    Positions, distances and serving sets are untouched, so large-scale
    coefficients drawn from the original network still pair link-by-link.
    """
    return replace(net, t_ur=np.zeros_like(net.t_ur), t_max_r=np.zeros_like(net.t_max_r),
                   t_w_r=np.zeros_like(net.t_w_r))


def delay_spread_min_extension(net):
    """Smallest cyclic extension that covers every AP's in-cluster delay spread."""
    served = net.t_ur[np.arange(net.n_aps)[:, None], net.serving]
    return int((served.max(axis=1) - served.min(axis=1)).max())
