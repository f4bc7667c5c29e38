"""Large-scale (path loss, shadowing) and small-scale (Rayleigh) channel draws.

Large-scale coefficients are frozen per network realization; fading is
redrawn per coherence-block trial. All samplers take an explicit
``numpy.random.Generator`` so trials parallelize with independent substreams.
"""

from dataclasses import dataclass, field

import numpy as np

PATH_LOSS_INTERCEPT_DB = -112.427  # Walfisch-Ikegami style, distance in km
PATH_LOSS_EXPONENT = 3.8


def dbm_to_watts(dbm):
    return 1e-3 * 10.0 ** (np.asarray(dbm, dtype=float) / 10.0)


def path_loss(d_km):
    """Linear power gain 10^(-11.2427) * d^-3.8 with d in kilometers."""
    d = np.asarray(d_km, dtype=float)
    if (d <= 0).any():
        raise ValueError("path_loss requires strictly positive distances")
    return 10.0 ** (PATH_LOSS_INTERCEPT_DB / 10.0) * d ** (-PATH_LOSS_EXPONENT)


def sample_shadowing(rng, sigma_db=4.0, size=None):
    """Lognormal shadowing gain: 10^(X/10), X ~ N(0, sigma_db^2)."""
    x = rng.normal(0.0, sigma_db, size=size) if sigma_db > 0 else np.zeros(size if size is not None else ())
    return 10.0 ** (x / 10.0)


def sample_fading(m, rng, size=None):
    """i.i.d. standard complex Gaussian vector(s): entries CN(0, 1).

    Returns shape ``(*size, m)``; a bare length-m vector when size is None.
    """
    shape = (m,) if size is None else tuple(np.atleast_1d(size)) + (m,)
    return np.sqrt(0.5) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@dataclass
class LinkGains:
    """Per-link large-scale coefficients, shape (R, U) each; ``gain`` is beta * psi."""

    beta: np.ndarray
    psi: np.ndarray
    gain: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.gain = self.beta * self.psi


@dataclass
class ChannelMatrixSet:
    """Fading realization h[r, u] = sqrt(beta*psi) g, shape (R, U, M)."""

    h: np.ndarray
    gains: LinkGains
    noise_w: float

    @property
    def m_antennas(self):
        return self.h.shape[2]


def draw_link_gains(net, rng, sigma_sh_db=4.0):
    """Path loss (distances converted to km here only) times i.i.d. shadowing."""
    beta = path_loss(net.d_ru / 1000.0)
    psi = sample_shadowing(rng, sigma_sh_db, size=net.d_ru.shape)
    return LinkGains(beta=beta, psi=psi)


def draw_channels(net, gains, m, rng, noise_w):
    """Draw one Rayleigh fading block for every (AP, UE) link."""
    g = sample_fading(m, rng, size=net.d_ru.shape)
    h = np.sqrt(gains.gain)[..., None] * g
    return ChannelMatrixSet(h=h, gains=gains, noise_w=noise_w)
