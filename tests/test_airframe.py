import numpy as np
import pytest

from cfpilot.airframe import (
    REGIME_UPG,
    REGIME_UPNG,
    read_frame_dump,
    synthesize_frame,
    write_frame_dump,
)
from cfpilot.channel import ChannelMatrixSet, LinkGains, draw_channels, draw_link_gains
from cfpilot.geometry import SimArea, topology_from_positions
from cfpilot.pilots import make_pilot_book

AREA = SimArea(side_m=836.660026534076, ap_count=1, ue_mean=1.0, gamma_m=20.0,
               tau_smp_s=50e-9)


def toy_net(delays_samples, cluster_size=None):
    """1-AP network with UEs placed to hit the requested integer delays."""
    ue = [[d * 15.0 + 1.0, 0.0] for d in delays_samples]
    k = cluster_size if cluster_size is not None else len(delays_samples)
    return topology_from_positions(AREA, [[0.0, 0.0]], ue, cluster_size=k)


def unit_gains(net):
    ones = np.ones_like(net.d_ru)
    return LinkGains(beta=ones, psi=ones.copy())


def toy_chan(net, m=4, noise_w=0.0, rng=None, gains=None):
    gains = gains if gains is not None else unit_gains(net)
    rng = rng or np.random.default_rng(0)
    return draw_channels(net, gains, m, rng, noise_w)


def test_augmented_sequence_shapes():
    net = toy_net([0, 5])
    book = make_pilot_book("dft", 8, 0, 2, np.random.default_rng(0))
    chan = toy_chan(net)
    rng = np.random.default_rng(1)
    rows = synthesize_frame(book, net, chan, REGIME_UPG, 1.0, rng).x_aug[0]
    assert rows.shape == (2, 13)
    # t_ur = t_max -> no tail
    row_late = rows[1]
    np.testing.assert_allclose(row_late[:5], 0)
    np.testing.assert_allclose(row_late[5:], book.sequences[1], atol=1e-12)
    # t_ur = 0 under UPG -> [pilot, zeros]
    row_early = rows[0]
    np.testing.assert_allclose(row_early[:8], book.sequences[0], atol=1e-12)
    np.testing.assert_allclose(row_early[8:], 0)
    # UPNG tail is unit magnitude; the latest UE has none
    rows_upng = synthesize_frame(book, net, chan, REGIME_UPNG, 1.0, rng).x_aug[0]
    np.testing.assert_allclose(np.abs(rows_upng[0, 8:]), 1.0, atol=1e-12)
    np.testing.assert_allclose(rows_upng[1], row_late)


def test_frame_single_ue_noiseless():
    net = toy_net([0])
    book = make_pilot_book("dft", 8, 0, 1, np.random.default_rng(0))
    chan = toy_chan(net, m=3, noise_w=0.0)
    frame = synthesize_frame(book, net, chan, REGIME_UPG, 4.0, np.random.default_rng(2))
    expected = 2.0 * np.outer(chan.h[0, 0], book.sequences[0])
    np.testing.assert_allclose(frame.y[0], expected, atol=1e-12)


def test_frame_linearity():
    # frame of superposed UEs equals the sum of single-UE frames plus noise
    net = toy_net([0, 3, 7])
    book = make_pilot_book("dft", 8, 0, 3, np.random.default_rng(0))
    gains = unit_gains(net)
    chan = toy_chan(net, m=2, noise_w=1e-3, gains=gains)
    frame = synthesize_frame(book, net, chan, REGIME_UPG, 1.0, np.random.default_rng(3))
    rebuilt = frame.noise[0].copy()
    for u in range(3):
        rebuilt += np.outer(chan.h[0, u], frame.x_aug[0][u])
    np.testing.assert_allclose(frame.y[0], rebuilt, rtol=1e-12, atol=1e-15)


def test_frame_noise_only_variance():
    net = toy_net([0, 4])
    book = make_pilot_book("dft", 8, 0, 2, np.random.default_rng(0))
    gains = LinkGains(beta=np.zeros_like(net.d_ru), psi=np.ones_like(net.d_ru))
    noise_w = 2.5e-3
    chan = draw_channels(net, gains, 8, np.random.default_rng(1), noise_w)
    rng = np.random.default_rng(4)
    samples = []
    for _ in range(1500):
        frame = synthesize_frame(book, net, chan, REGIME_UPG, 1.0, rng)
        samples.append(frame.y[0])
    z = np.concatenate([s.ravel() for s in samples])
    assert z.size > 100_000
    assert np.mean(np.abs(z) ** 2) == pytest.approx(noise_w, rel=0.02)


def test_disjoint_arrivals_localize_energy():
    # two UEs separated by more than a pilot length: energy in disjoint bands
    net = toy_net([0, 20])
    book = make_pilot_book("dft", 8, 0, 2, np.random.default_rng(0))
    chan = toy_chan(net, m=2, noise_w=0.0)
    frame = synthesize_frame(book, net, chan, REGIME_UPG, 1.0, np.random.default_rng(5))
    energy = (np.abs(frame.y[0]) ** 2).sum(axis=0)
    assert energy[:8].min() > 0
    np.testing.assert_allclose(energy[8:20], 0, atol=1e-20)
    assert energy[20:28].min() > 0


def test_frame_energy_accounting_upng():
    # E||Y||_F^2 = p * sum_u M beta psi (tau_p + tail_u) + M cols sigma^2;
    # the per-UE tail term t_max - t_u carries the UPNG data energy
    net = toy_net([0, 2, 5])
    tau_p = 8
    book = make_pilot_book("dft", tau_p, 0, 3, np.random.default_rng(0))
    gains = LinkGains(beta=np.full_like(net.d_ru, 0.5),
                      psi=np.ones_like(net.d_ru))
    m, noise_w, p_ul = 4, 1e-2, 2.0
    rng = np.random.default_rng(6)
    total = 0.0
    trials = 10_000
    for _ in range(trials):
        chan = draw_channels(net, gains, m, rng, noise_w)
        frame = synthesize_frame(book, net, chan, REGIME_UPNG, p_ul, rng)
        total += (np.abs(frame.y[0]) ** 2).sum()
    cols = tau_p + int(net.t_max_r[0])
    tails = int(net.t_max_r[0]) - net.t_ur[0]
    expected = p_ul * (gains.gain[0] * m * (tau_p + tails)).sum() + m * cols * noise_w
    assert total / trials == pytest.approx(expected, rel=0.02)


def test_frame_dimensions_and_mismatch_guard():
    net = toy_net([1, 6])
    book = make_pilot_book("dft_ext", 8, 3, 2, np.random.default_rng(0))
    chan = toy_chan(net, m=2)
    frame = synthesize_frame(book, net, chan, REGIME_UPG, 1.0, np.random.default_rng(7))
    assert frame.y[0].shape == (2, 8 + 3 + 6)
    bad_book = make_pilot_book("dft", 8, 0, 1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        synthesize_frame(bad_book, net, chan, REGIME_UPG, 1.0, np.random.default_rng(8))
    with pytest.raises(ValueError):
        synthesize_frame(book, net, chan, REGIME_UPG, 0.0, np.random.default_rng(9))


def test_frame_dump_roundtrip(tmp_path):
    y = (np.arange(12, dtype=np.float32).reshape(3, 4)
         + 1j * np.arange(12, dtype=np.float32).reshape(3, 4))
    path = tmp_path / "frame.bin"
    write_frame_dump(path, y)
    raw = path.read_bytes()
    assert raw[:4] == b"ACFE"
    assert len(raw) == 16 + 3 * 4 * 8
    back = read_frame_dump(path)
    np.testing.assert_array_equal(back, y.astype(np.complex64))
    with pytest.raises(ValueError):
        path2 = tmp_path / "bad.bin"
        path2.write_bytes(b"XXXX" + raw[4:])
        read_frame_dump(path2)
