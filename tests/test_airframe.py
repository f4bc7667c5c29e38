import tracemalloc
from dataclasses import replace

import numpy as np
import per_link
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import full_frames, pilot_rows_loop, synthesize_frame_loop

from cfpilot.airframe import read_frame_dump, synthesize_frame, write_frame_dump
from cfpilot.analytics import pilot_matrix
from cfpilot.channel import LinkGains, draw_channels
from cfpilot.estimator import book_links
from cfpilot.geometry import SimArea, delay_spread_min_extension, synchronize, topology_from_positions
from cfpilot.harness import TrialDraws, figure_config
from cfpilot.pilots import (
    REGIME_UPG,
    REGIME_UPNG,
    assign_maxmin_distance,
    book_setup,
    make_mf_sequence,
    make_pilot_book,
)

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
    rows = full_frames(synthesize_frame(book, net, chan, REGIME_UPG, 1.0, rng))[1][0]
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
    rows_upng = full_frames(synthesize_frame(book, net, chan, REGIME_UPNG, 1.0, rng))[1][0]
    np.testing.assert_allclose(np.abs(rows_upng[0, 8:]), 1.0, atol=1e-12)
    np.testing.assert_allclose(rows_upng[1], row_late)


def test_frame_single_ue_noiseless():
    net = toy_net([0])
    book = make_pilot_book("dft", 8, 0, 1, np.random.default_rng(0))
    chan = toy_chan(net, m=3, noise_w=0.0)
    frame = synthesize_frame(book, net, chan, REGIME_UPG, 4.0, np.random.default_rng(2))
    expected = 2.0 * np.outer(chan.h[0, 0], book.sequences[0])
    np.testing.assert_allclose(full_frames(frame)[0][0], expected, atol=1e-12)


def test_frame_linearity():
    # frame of superposed UEs equals the sum of single-UE frames plus noise
    net = toy_net([0, 3, 7])
    book = make_pilot_book("dft", 8, 0, 3, np.random.default_rng(0))
    gains = unit_gains(net)
    chan = toy_chan(net, m=2, noise_w=1e-3, gains=gains)
    frame = synthesize_frame(book, net, chan, REGIME_UPG, 1.0, np.random.default_rng(3))
    ys, _, zs = full_frames(frame)
    rebuilt = zs[0].copy()
    for u in range(3):
        rebuilt += np.outer(chan.h[0, u], pilot_matrix(book, net, 0)[u])
    np.testing.assert_allclose(ys[0], rebuilt, rtol=1e-12, atol=1e-15)


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
        samples.append(full_frames(frame)[0][0])
    z = np.concatenate([s.ravel() for s in samples])
    assert z.size > 100_000
    assert np.mean(np.abs(z) ** 2) == pytest.approx(noise_w, rel=0.02)


def test_disjoint_arrivals_localize_energy():
    # two UEs separated by more than a pilot length: energy in disjoint bands
    net = toy_net([0, 20])
    book = make_pilot_book("dft", 8, 0, 2, np.random.default_rng(0))
    chan = toy_chan(net, m=2, noise_w=0.0)
    frame = synthesize_frame(book, net, chan, REGIME_UPG, 1.0, np.random.default_rng(5))
    energy = (np.abs(full_frames(frame)[0][0]) ** 2).sum(axis=0)
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
        total += (np.abs(full_frames(frame)[0][0]) ** 2).sum()
    cols = tau_p + int(net.t_max_r[0])
    tails = int(net.t_max_r[0]) - net.t_ur[0]
    expected = p_ul * (gains.gain[0] * m * (tau_p + tails)).sum() + m * cols * noise_w
    assert total / trials == pytest.approx(expected, rel=0.02)


def test_frame_dimensions_and_mismatch_guard():
    net = toy_net([1, 6])
    book = make_pilot_book("dft_ext", 8, 3, 2, np.random.default_rng(0))
    chan = toy_chan(net, m=2)
    frame = synthesize_frame(book, net, chan, REGIME_UPG, 1.0, np.random.default_rng(7))
    assert full_frames(frame)[0][0].shape == (2, 8 + 3 + 6)
    # the MF domain keeps M outputs of each of the AP's 2 served links
    assert frame.y[0].shape == frame.noise[0].shape == (2, 2)
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
def _curve_frame_inputs(curve, delay_free=False):
    """A desk fig6 network and channels, and a book and regime for ``curve``."""
    net, chan = TrialDraws(figure_config("fig6", desk_scale=True), 0).channel
    scheme, regime = ("dft", REGIME_UPG) if curve == "sync" else curve.split(":")
    if curve == "sync" or delay_free:
        net = synchronize(net)
    tau_ex = delay_spread_min_extension(net) if scheme == "dft_ext" else 0
    book = make_pilot_book(scheme, 8, tau_ex, net.n_ues, np.random.default_rng(3))
    return book, net, chan, regime


@pytest.mark.parametrize("curve", ["random:upg", "random:upng", "dft:upg", "dft:upng",
                                   "dft_ext:upg", "dft_ext:upng", "sync"])
def test_frame_matches_per_ap_loop(curve):
    # the replayed frame is, bit for bit, the one of the loop that built each
    # AP's rows and counted its data mask, drawn in the same order, at the
    # frame's power and at another, and it sends the loop's rows
    book, net, chan, regime = _curve_frame_inputs(curve)
    rng, rng_loop = np.random.default_rng(5), np.random.default_rng(5)
    frame = synthesize_frame(book, net, chan, regime, 0.1, rng)
    loop = synthesize_frame_loop(book, net, chan, regime, 0.1, rng_loop)
    assert rng.bit_generator.state == rng_loop.bit_generator.state
    at_power = full_frames(replace(frame, p_ul=2.5))[0]
    loop_y = synthesize_frame_loop(book, net, chan, regime, 2.5, np.random.default_rng(5))[0]
    for got, want in zip((*full_frames(frame), at_power), (*loop, loop_y)):
        assert len(got) == len(want) == net.n_aps
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def _span_edge_inputs(network):
    """A 3-AP, 6-UE network at one of two span edges, its channels, and a UPNG book.

    ``late-span``: AP 0's served windows start after the pilot ends
    (lo_0 > L), so the data that reach its span start at an offset.
    ``no-data-reach``: an extended-DFT book at auto_min on a network where
    every AP serves a UE at delay 0, so no AP's span reaches past the pilot
    and no data reach any window.
    """
    serving = delayed_net(np.zeros((3, 6), dtype=np.int64)).serving
    t = np.random.default_rng(4).integers(1, 12, size=(3, 6))
    if network == "late-span":
        t[0, serving[0]] = (11, 13)
        scheme = "dft"
    else:
        np.put_along_axis(t, serving, [[0, 5], [0, 3], [0, 7]], axis=1)
        scheme = "dft_ext"
    net = delayed_net(t)
    tau_ex = delay_spread_min_extension(net) if scheme == "dft_ext" else 0
    book = make_pilot_book(scheme, 8, tau_ex, net.n_ues, None)
    return book, net, toy_chan(net, noise_w=1e-3), REGIME_UPNG


@pytest.mark.blas_kernel
@pytest.mark.parametrize("curve,network", [
    *(pytest.param(curve, network, id=f"{curve}-{network}")
      for curve in ("dft:upg", "dft:upng", "dft_ext:upg", "dft_ext:upng", "random:upng")
      for network in ("delay-free", "delayed")),
    pytest.param("dft:upng", "late-span", id="dft:upng-late-span"),
    pytest.param("dft_ext:upng", "no-data-reach", id="dft_ext:upng-no-data-reach")])
def test_mf_domain_frame_matches_filtered_loop(curve, network):
    # every served link's MF output, y + noise / sqrt(p_ul), is the loop's full
    # frame Y_r filtered by the link's MF row, Y_r conj(mf) / sqrt(p_ul), at the
    # frame's power and at another, to within the per-link rule's rounding term
    if network in ("delayed", "delay-free"):
        book, net, chan, regime = _curve_frame_inputs(curve, network == "delay-free")
        assert (network == "delay-free") == (net.t_max_r.max() == 0)
    else:
        book, net, chan, regime = _span_edge_inputs(network)
    frame = synthesize_frame(book, net, chan, regime, 0.1, np.random.default_rng(5))
    lo, hi = np.array(frame.setup.links.span).T
    # a UE's data start at L + t_ur; the span's data columns start at max(lo_r, L)
    reached = np.maximum(book.seq_len + net.t_ur, lo[:, None]) < hi[:, None]
    if network == "late-span":
        assert lo[0] > book.seq_len and reached[0].any()
    if network == "no-data-reach":
        assert net.t_max_r.max() > 0 and not reached.any()
    for p_ul in (0.1, 2.5):
        for err, want, _ in _filtered_loop_errors(frame, regime, p_ul):
            assert np.all(err <= per_link.CANCEL * per_link.EPS * want)


def _filtered_loop_errors(frame, regime, p_ul):
    """Per AP, its served links' distances from the loop's filtered frame, with the norms
    of that filtered frame and of its terms' magnitudes.

    A link's MF output at ``p_ul`` is y + noise / sqrt(p_ul). The loop drawn
    from seed 5 filters its full frame Y_r by the link's MF row, Y_r conj(mf)
    / sqrt(p_ul), a sum whose terms' magnitudes are |Y_r| |mf| / sqrt(p_ul).
    """
    book, net, chan = frame.book, frame.net, frame.chan
    loop_y = synthesize_frame_loop(book, net, chan, regime, p_ul, np.random.default_rng(5))[0]
    for r, served in enumerate(net.serving):
        rows = make_mf_sequence(book, net, r, served).row[:, :loop_y[r].shape[1]]
        want = (loop_y[r] @ rows.conj().T).T / np.sqrt(p_ul)
        terms = (np.abs(loop_y[r]) @ np.abs(rows).T).T / np.sqrt(p_ul)
        got = frame.y[r] + frame.noise[r] / np.sqrt(p_ul)
        yield (np.linalg.norm(got - want, axis=-1), np.linalg.norm(want, axis=-1),
               np.linalg.norm(terms, axis=-1))


def _small_delayed_net(data):
    """A ``delayed_net`` of 1-4 APs and 2-7 UEs at delays 0-12, drawn from ``data``."""
    n_aps, n_ues = data.draw(st.integers(1, 4)), data.draw(st.integers(2, 7))
    t = np.array(data.draw(st.lists(st.integers(0, 12), min_size=n_aps * n_ues,
                                    max_size=n_aps * n_ues))).reshape(n_aps, n_ues)
    return delayed_net(t)


def _small_book(data, n_ues):
    """A random, DFT or extended-DFT book of ``tau_p`` 1-8 (``tau_ex`` 0-6), drawn from
    ``data``."""
    scheme = data.draw(st.sampled_from(["random", "dft", "dft_ext"]))
    tau_p = data.draw(st.integers(1, 8))
    tau_ex = data.draw(st.integers(0, 6)) if scheme == "dft_ext" else 0
    return make_pilot_book(scheme, tau_p, tau_ex, n_ues, np.random.default_rng(0))


@pytest.mark.blas_kernel
@settings(max_examples=60)
@given(st.data())
def test_frame_linear_in_each_ue(data):
    # on a small random network, with one stream seed, a frame's MF signal is the
    # sum of the frames whose channel keeps one UE each, and their noise is its
    # bytes; every served link's MF output is the loop's filtered full frame
    net = _small_delayed_net(data)
    book = _small_book(data, net.n_ues)
    regime = data.draw(st.sampled_from([REGIME_UPG, REGIME_UPNG]))
    chan = toy_chan(net, m=data.draw(st.integers(1, 3)), noise_w=1e-3)
    frame = synthesize_frame(book, net, chan, regime, 0.1, np.random.default_rng(5))
    singles = []
    for u in range(net.n_ues):
        h = np.zeros_like(chan.h)
        h[:, u] = chan.h[:, u]
        singles.append(synthesize_frame(book, net, replace(chan, h=h), regime, 0.1,
                                        np.random.default_rng(5), frame.setup))
    for r in range(net.n_aps):
        parts = np.array([single.y[r] for single in singles])
        # the rounding of U products and their sum, on either side
        bound = 8 * net.n_ues * per_link.EPS * np.abs(parts).sum(axis=0)
        assert np.all(np.abs(parts.sum(axis=0) - frame.y[r]) <= bound)
        assert all(single.noise[r].tobytes() == frame.noise[r].tobytes() for single in singles)
    # a link's output can cancel to below 1/CANCEL of its terms here (as at M = 1),
    # so its rounding is bounded by the terms' magnitudes
    for err, _, terms in _filtered_loop_errors(frame, regime, 0.1):
        assert np.all(err <= per_link.CANCEL * per_link.EPS * terms)


@settings(max_examples=60)
@given(st.data())
def test_span_holds_every_served_window(data):
    # every nonzero entry of a served link's MF row lies in its AP's span
    # [lo_r, hi_r), and 0 <= lo_r < hi_r <= L + t_max_r; the book's rows hold
    # each link's row over its AP's span, and zeros up to the widest span
    net = _small_delayed_net(data)
    book = _small_book(data, net.n_ues)
    links = book_links(book_setup(book, net))
    assert len(links.span) == net.n_aps
    k = net.serving.shape[1]
    for r, (lo, hi) in enumerate(links.span):
        assert 0 <= lo < hi <= book.seq_len + net.t_max_r[r]
        row = make_mf_sequence(book, net, r, net.serving[r]).row
        cols = np.flatnonzero(row.any(axis=0))
        assert lo <= cols.min() and cols.max() < hi
        kept = links.rows[:, r * k:(r + 1) * k].T
        assert np.array_equal(kept[:, :hi - lo], row[:, lo:hi])
        assert not kept[:, hi - lo:].any()


def test_upng_data_count_matches_mask():
    # U t_max_r - sum_u t_ur data symbols at AP r fill the mask of samples after
    # each pilot, on random delays and at an AP whose UEs all arrive last
    t = np.random.default_rng(7).integers(0, 12, size=(5, 9))
    t[2] = 6
    net = delayed_net(t)
    book = make_pilot_book("dft", 4, 0, 9, None)
    frame = synthesize_frame(book, net, toy_chan(net), REGIME_UPNG, 1.0, np.random.default_rng(1))
    sent = full_frames(frame)[1]
    for r in range(5):
        mask = np.arange(book.seq_len + t[r].max()) >= (t[r] + book.seq_len)[:, None]
        assert np.array_equal(sent[r] != frame.setup.row(r), mask)
    # APs without data draw no symbols: UPNG draws what UPG draws
    net = delayed_net(np.repeat(t[:, :1], 9, axis=1))
    chan = toy_chan(net)
    states = []
    for regime in (REGIME_UPG, REGIME_UPNG):
        rng = np.random.default_rng(1)
        synthesize_frame(book, net, chan, regime, 1.0, rng)
        states.append(rng.bit_generator.state)
    assert states[0] == states[1]


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
    # the UPNG data written into a gathered row, by a UPNG frame's replay, and
    # the UPNG data projections do not reach a later frame of the same setup
    net, chan = TrialDraws(figure_config("fig6", desk_scale=True), 0).channel
    book = make_pilot_book("dft", 8, 0, net.n_ues, None)
    assert net.t_max_r.max() > 0
    upng = synthesize_frame(book, net, chan, REGIME_UPNG, 0.1, np.random.default_rng(4))
    full_frames(upng)
    after = synthesize_frame(book, net, chan, REGIME_UPG, 0.1, np.random.default_rng(6),
                             upng.setup)
    fresh = synthesize_frame(book, net, chan, REGIME_UPG, 0.1, np.random.default_rng(6))
    parts = ("y", "noise", "replayed y", "replayed rows", "replayed noise")
    for part, got, want in zip(parts, (after.y, after.noise, *full_frames(after)),
                               (fresh.y, fresh.noise, *full_frames(fresh))):
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), part


def test_upng_frame_peak_memory_holds_no_rows():
    # synthesizing a full-scale fig7 UPNG frame, on a book setup that already
    # holds its matched-filter part, allocates little beyond what the frame
    # keeps: no AP's pilot rows are gathered, and no copy of them is kept
    cfg = figure_config("fig7")
    net, chan = TrialDraws(cfg, 0).channel
    book = make_pilot_book("dft", cfg.tau_p, 0, net.n_ues, None,
                           assignment=assign_maxmin_distance(net.ue_pos, cfg.tau_p))
    row_bytes = 16 * net.n_ues * int((book.seq_len + net.t_max_r).sum())
    setup = book_setup(book, net)
    setup.links = book_links(setup)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        frame = synthesize_frame(book, net, chan, REGIME_UPNG, 0.1, np.random.default_rng(1),
                                 setup)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    kept = sum(a.nbytes for part in (frame.y, frame.noise) for a in part)
    assert peak <= kept + row_bytes / 4, (peak - kept, row_bytes)
