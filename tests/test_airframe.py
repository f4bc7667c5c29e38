import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from oracles import identity_channels, pilot_rows_loop, synthesize_frame_loop

from cfpilot.airframe import (
    REGIME_UPG,
    REGIME_UPNG,
    book_setup,
    read_frame_dump,
    synthesize_frame,
    write_frame_dump,
)
from cfpilot.analytics import pilot_matrix
from cfpilot.channel import ChannelMatrixSet, LinkGains, draw_channels, draw_link_gains
from cfpilot.geometry import SimArea, delay_spread_min_extension, synchronize, topology_from_positions
from cfpilot.harness import TrialDraws, figure_config
from cfpilot.pilots import assign_maxmin_distance, make_pilot_book

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


def identity_chan(net):
    return identity_channels(net, unit_gains(net), 0.0)


def test_augmented_sequence_shapes():
    net = toy_net([0, 5])
    book = make_pilot_book("dft", 8, 0, 2, np.random.default_rng(0))
    chan = identity_chan(net)
    rng = np.random.default_rng(1)
    rows = synthesize_frame(book, net, chan, REGIME_UPG, 1.0, rng).signal[0]
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
    rows_upng = synthesize_frame(book, net, chan, REGIME_UPNG, 1.0, rng).signal[0]
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
        rebuilt += np.outer(chan.h[0, u], pilot_matrix(book, net, 0)[u])
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
    # an empty file, a header cut short, and a body cut short or too long
    for data, want, got in [(b"", 16, 0), (raw[:10], 16, 10), (raw[:-8], len(raw), len(raw) - 8),
                            (raw + b"\0", len(raw), len(raw) + 1)]:
        path.write_bytes(data)
        with pytest.raises(ValueError, match=rf"{path.name}: expected \D*{want}\b.* {got}$"):
            read_frame_dump(path)


def delayed_net(t):
    """A network of len(t) APs and len(t[0]) UEs whose sample delays are ``t``."""
    t = np.asarray(t, dtype=np.int64)
    rng = np.random.default_rng(0)
    net = topology_from_positions(AREA, rng.uniform(0, 800, (t.shape[0], 2)),
                                  rng.uniform(0, 800, (t.shape[1], 2)), cluster_size=2)
    return replace(net, t_ur=t, t_max_r=t.max(axis=1),
                   t_w_r=np.take_along_axis(t, net.serving, axis=1).max(axis=1))


@pytest.mark.parametrize("curve", ["random:upg", "random:upng", "dft:upg", "dft:upng",
                                   "dft_ext:upg", "dft_ext:upng", "sync"])
def test_frame_matches_per_ap_loop(curve):
    # the frame is, bit for bit, the one of the loop that built each AP's rows
    # and counted its data mask, drawn in the same order, at the frame's
    # power and at another; through h[r] = I its signal is the loop's rows
    net, chan = TrialDraws(figure_config("fig6", desk_scale=True), 0).channel
    scheme, regime = ("dft", REGIME_UPG) if curve == "sync" else curve.split(":")
    if curve == "sync":
        net = synchronize(net)
    tau_ex = delay_spread_min_extension(net) if scheme == "dft_ext" else 0
    book = make_pilot_book(scheme, 8, tau_ex, net.n_ues, np.random.default_rng(3))
    rng, rng_loop = np.random.default_rng(5), np.random.default_rng(5)
    frame = synthesize_frame(book, net, chan, regime, 0.1, rng)
    loop = synthesize_frame_loop(book, net, chan, regime, 0.1, rng_loop)
    assert rng.bit_generator.state == rng_loop.bit_generator.state
    at_power = frame.at_power(2.5)
    loop_y = synthesize_frame_loop(book, net, chan, regime, 2.5, np.random.default_rng(5))[0]
    sent = synthesize_frame(book, net, identity_chan(net), regime, 0.1,
                            np.random.default_rng(5)).signal
    loop_rows = synthesize_frame_loop(book, net, identity_chan(net), regime, 0.1,
                                      np.random.default_rng(5))[1]
    for got, want in zip((frame.y, frame.noise, frame.signal, at_power.y, sent),
                         (loop[0], loop[2], loop[3], loop_y, loop_rows)):
        assert len(got) == len(want) == net.n_aps
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_upng_data_count_matches_mask():
    # U t_max_r - sum_u t_ur data symbols at AP r fill the mask of samples after
    # each pilot, on random delays and at an AP whose UEs all arrive last
    t = np.random.default_rng(7).integers(0, 12, size=(5, 9))
    t[2] = 6
    net = delayed_net(t)
    book = make_pilot_book("dft", 4, 0, 9, None)
    frame = synthesize_frame(book, net, identity_chan(net), REGIME_UPNG, 1.0,
                             np.random.default_rng(1))
    for r in range(5):
        mask = np.arange(book.seq_len + t[r].max()) >= (t[r] + book.seq_len)[:, None]
        assert np.array_equal(frame.signal[r] != frame.setup.row(r), mask)
    # APs without data draw no symbols: UPNG draws what UPG draws
    net = delayed_net(np.repeat(t[:, :1], 9, axis=1))
    chan = toy_chan(net)
    states = []
    for regime in (REGIME_UPG, REGIME_UPNG):
        rng = np.random.default_rng(1)
        synthesize_frame(book, net, chan, regime, 1.0, rng)
        states.append(rng.bit_generator.state)
    assert states[0] == states[1]


def test_delay_free_book_holds_one_read_only_row_array():
    # a UPNG frame sends no data on a delay-free network, so it writes
    # nothing into the shared rows it transmits
    net = synchronize(delayed_net(np.random.default_rng(8).integers(0, 12, size=(4, 6))))
    book = make_pilot_book("dft", 4, 0, 6, None)
    frame = synthesize_frame(book, net, identity_chan(net), REGIME_UPNG, 1.0,
                             np.random.default_rng(2))
    rows = [frame.setup.row(r) for r in range(4)]
    assert all(x is rows[0] for x in rows)
    assert not rows[0].flags.writeable
    assert np.array_equal(rows[0], book.sequences)
    assert all(np.array_equal(x, book.sequences) for x in frame.signal)


@pytest.mark.parametrize("delay_free", [False, True])
def test_book_setup_rows_match_zero_padded_oracle(delay_free):
    net = delayed_net(np.random.default_rng(9).integers(0, 12, size=(5, 7)))
    net = synchronize(net) if delay_free else net
    book = make_pilot_book("dft_ext", 4, 3, 7, None)
    setup = book_setup(book, net)
    for r in range(5):
        assert np.array_equal(setup.row(r), pilot_rows_loop(book, net, r))
        assert np.array_equal(pilot_matrix(book, net, r), pilot_rows_loop(book, net, r))


def test_delayed_rows_are_new_writable_arrays():
    net = delayed_net(np.random.default_rng(10).integers(0, 12, size=(3, 6)))
    book = make_pilot_book("dft", 4, 0, 6, None)
    setup = book_setup(book, net)
    for r in range(3):
        a, b = setup.row(r), setup.row(r)
        assert a.flags.writeable and b.flags.writeable
        assert not np.shares_memory(a, b) and not np.shares_memory(a, setup.windows)
        a[:] = 7.0
        assert np.array_equal(setup.row(r), pilot_rows_loop(book, net, r))


def test_upg_frame_after_upng_matches_fresh_setup():
    # the UPNG data written into a gathered row does not reach a later frame
    net, chan = TrialDraws(figure_config("fig6", desk_scale=True), 0).channel
    book = make_pilot_book("dft", 8, 0, net.n_ues, None)
    assert net.t_max_r.max() > 0
    upng = synthesize_frame(book, net, chan, REGIME_UPNG, 0.1, np.random.default_rng(4))
    after = synthesize_frame(book, net, chan, REGIME_UPG, 0.1, np.random.default_rng(6),
                             upng.setup)
    fresh = synthesize_frame(book, net, chan, REGIME_UPG, 0.1, np.random.default_rng(6))
    for part in ("y", "noise", "signal"):
        got, want = getattr(after, part), getattr(fresh, part)
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), part


def test_upng_frame_peak_memory_holds_no_rows():
    # synthesizing a full-scale fig7 UPNG frame allocates little beyond what
    # the frame keeps: no AP's pilot rows outlive their AP's turn, and no
    # copy of them is kept
    cfg = figure_config("fig7")
    net, chan = TrialDraws(cfg, 0).channel
    book = make_pilot_book("dft", cfg.tau_p, 0, net.n_ues, None,
                           assignment=assign_maxmin_distance(net.ue_pos, cfg.tau_p))
    row_bytes = 16 * net.n_ues * int((book.seq_len + net.t_max_r).sum())
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        frame = synthesize_frame(book, net, chan, REGIME_UPNG, 0.1, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    kept = sum(a.nbytes for part in (frame.y, frame.signal, frame.noise) for a in part)
    assert peak <= kept + row_bytes / 4, (peak - kept, row_bytes)
