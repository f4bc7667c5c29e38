import numpy as np
import pytest

from cfpilot.channel import (
    dbm_to_watts,
    draw_channels,
    draw_link_gains,
    path_loss,
    sample_fading,
    sample_shadowing,
)
from cfpilot.geometry import SimArea, topology_from_positions


def test_path_loss_reference_values():
    # 10^(-11.2427) * d^-3.8 evaluated at d = 0.1 km and 1 km
    assert path_loss(0.1) == pytest.approx(10 ** (-11.2427 + 3.8), rel=1e-12)
    assert path_loss(1.0) == pytest.approx(10 ** (-11.2427), rel=1e-12)


def test_path_loss_power_law_scaling():
    d = np.array([0.05, 0.2, 0.9])
    np.testing.assert_allclose(path_loss(d / 2) / path_loss(d), 2**3.8, rtol=1e-12)


def test_path_loss_rejects_zero():
    with pytest.raises(ValueError):
        path_loss(0.0)


def test_shadowing_degenerate_sigma():
    rng = np.random.default_rng(0)
    vals = sample_shadowing(rng, sigma_db=0.0, size=100)
    np.testing.assert_array_equal(vals, np.ones(100))


def test_shadowing_statistics():
    rng = np.random.default_rng(1)
    vals = sample_shadowing(rng, sigma_db=4.0, size=100_000)
    db = 10 * np.log10(vals)
    assert abs(db.mean()) < 0.05
    assert abs(db.std() - 4.0) < 0.05


def test_fading_energy_and_shape():
    rng = np.random.default_rng(2)
    g = sample_fading(8, rng, size=100_000)
    assert g.shape == (100_000, 8)
    energy = (np.abs(g) ** 2).sum(axis=1).mean()
    assert energy == pytest.approx(8.0, rel=0.01)
    scalar = sample_fading(1, rng)
    assert scalar.shape == (1,)


def test_fading_entries_uncorrelated():
    rng = np.random.default_rng(3)
    g = sample_fading(4, rng, size=50_000)
    cross = (g[:, 0] * g[:, 1].conj()).mean()
    # 3-sigma bound for the mean of unit-variance products
    assert abs(cross) < 3 / np.sqrt(50_000)


def test_channel_normalization():
    # E[h h^H] = beta*psi*I within 2% Frobenius-relative error at 1e5 draws
    area = SimArea(side_m=500.0, ap_count=1, ue_mean=1.0, gamma_m=10.0, tau_smp_s=50e-9)
    net = topology_from_positions(area, [[0.0, 0.0]], [[120.0, 30.0]], cluster_size=1)
    rng = np.random.default_rng(4)
    gains = draw_link_gains(net, rng, sigma_sh_db=4.0)
    m, draws = 4, 100_000
    h = np.sqrt(gains.gain[0, 0]) * sample_fading(m, rng, size=draws)
    cov = np.einsum("nm,nk->mk", h, h.conj()) / draws
    target = gains.gain[0, 0] * np.eye(m)
    assert np.linalg.norm(cov - target) / np.linalg.norm(target) < 0.02
    chan = draw_channels(net, gains, m, rng, 1e-14)
    assert chan.h.shape == (1, 1, m)
    assert chan.m_antennas == m


def test_dbm_to_watts():
    assert dbm_to_watts(20.0) == pytest.approx(0.1)
    assert dbm_to_watts(-36.0) == pytest.approx(10 ** (-6.6))
    assert dbm_to_watts(0.0) == pytest.approx(1e-3)
