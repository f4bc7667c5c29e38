import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from cfpilot import harness
from cfpilot.airframe import read_frame_dump, synthesize_frame
from cfpilot.estimator import estimate_trial_links
from cfpilot.harness import (
    CSV_COLUMNS,
    ConfigError,
    DESK_AREA_KM2,
    FULL_SCALE_AREA_KM2,
    build_config,
    desk_scale_overrides,
    dump_frame,
    figure_config,
    parse_config_file,
    parse_curve,
    run_figure,
    run_sweep,
    run_trial,
    trial_frames,
    write_rows,
)

DESK = dict(side_m=316.2277660168379, ap_count=10, ue_mean=14.0)


def small_cfg(**kw):
    base = dict(DESK, trials=3, seed=9, tau_p=8, sweep_values=(-4.0, 20.0),
                curves=("dft:upg", "dft_ext:upg", "sync"))
    base.update(kw)
    return build_config(**base)


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# comment\n"
        "area.side_m = 316.2277660168379\n"
        "area.ap_count = 10\n"
        "area.ue_mean = 14\n"
        "sys.bw_hz = 20e6\n"
        "cluster.size = 4\n"
        "seed = 7\n"
        "pilot.tau_p = 16\n"
        "pilot.tau_ex = auto_min\n"
        "run.curves = [dft:upg, sync]\n"
        "sweep.p_dbm = [-4, 20]\n"
        "run.trials = 2\n"
        "out.format = jsonl\n")
    cfg = build_config(parse_config_file(path))
    assert cfg.seed == 7
    assert cfg.tau_p == 16
    assert cfg.tau_ex == "auto_min"
    assert cfg.curves == ("dft:upg", "sync")
    assert cfg.sweep_variable == "p_dbm"
    assert cfg.sweep_values == (-4.0, 20.0)
    assert cfg.out_format == "jsonl"


def test_config_unknown_key_named(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("area.sidem = 100\n")
    with pytest.raises(ConfigError, match="area.sidem"):
        parse_config_file(path)


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="trials"):
        build_config(trials=0)
    with pytest.raises(ConfigError, match="curves"):
        build_config(curves=("zadoff:upg",))
    with pytest.raises(ConfigError, match="regime"):
        build_config(curves=("dft:guard",))
    with pytest.raises(ConfigError, match="tau_ex"):
        build_config(tau_ex="min")
    with pytest.raises(ConfigError, match="format"):
        build_config(out_format="parquet")
    with pytest.raises(ConfigError):
        build_config(sweep_variable="bandwidth")


def test_single_curve_shorthand():
    cfg = build_config({"pilot.scheme": "random", "frame.regime": "upng"})
    assert cfg.curves == ("random:upng",)
    assert parse_curve("sync") == ("sync", "upg")


def test_run_trial_record_shapes():
    cfg = small_cfg()
    record = run_trial(cfg, 20.0, 0)
    assert record.trial == 0 and record.seed == cfg.seed
    assert set(record.curves) == set(cfg.curves)
    rec = record.curves["dft:upg"]
    assert rec["nmse"].shape == rec["ap"].shape
    assert rec["tau_ex"] == 0
    assert record.curves["dft_ext:upg"]["tau_ex"] >= 0
    # sync curve resolves its extension on the synchronized network: 0 spread
    assert record.curves["sync"]["tau_ex"] == 0


def test_paired_draws_across_curves():
    # curves of one trial share the network and fading: the sync curve's
    # nmse differs from async only through delays, not through topology
    cfg = small_cfg(curves=("dft:upg", "dft:upng"))
    out = run_trial(cfg, 20.0, 1).curves
    a, b = out["dft:upg"], out["dft:upng"]
    np.testing.assert_array_equal(a["ap"], b["ap"])
    np.testing.assert_array_equal(a["ue"], b["ue"])


def test_sweep_rows_and_schema():
    cfg = small_cfg(trials=2)
    res = run_sweep(cfg)
    assert len(res.rows) == len(cfg.sweep_values) * len(cfg.curves)
    for row in res.rows:
        assert tuple(row) == tuple(CSV_COLUMNS)
    schemes = {r["scheme"] for r in res.rows}
    assert schemes == {"dft", "dft_ext", "sync"}
    ext_rows = res.curve_rows("dft_ext")
    assert all(r["tau_ex"] == "auto_min" for r in ext_rows)
    assert all(r["tau_ex"] == 0 for r in res.curve_rows("dft"))


def test_outputs_byte_identical_and_worker_independent(tmp_path):
    cfg = small_cfg(trials=2)
    res1 = run_sweep(cfg)
    res2 = run_sweep(cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_rows(res1.rows, p1, "csv")
    write_rows(res2.rows, p2, "csv")
    assert p1.read_bytes() == p2.read_bytes()
    cfg_workers = small_cfg(trials=2, workers=2)
    res3 = run_sweep(cfg_workers)
    p3 = tmp_path / "c.csv"
    write_rows(res3.rows, p3, "csv")
    assert p1.read_bytes() == p3.read_bytes()


def test_jsonl_output_matches_schema(tmp_path):
    cfg = small_cfg(trials=1, sweep_values=(20.0,), curves=("dft:upg",))
    res = run_sweep(cfg)
    path = tmp_path / "rows.jsonl"
    write_rows(res.rows, path, "jsonl")
    rec = json.loads(path.read_text().splitlines()[0])
    assert tuple(rec) == tuple(CSV_COLUMNS)


def test_diag_rows():
    cfg = small_cfg(trials=1, sweep_values=(20.0,), curves=("dft:upg",))
    res = run_sweep(cfg, diag=True)
    assert res.diag_rows
    row = res.diag_rows[0]
    assert tuple(row) == ("r", "u", "scheme", "regime", "nmse", "desired_power",
                          "interference_power", "noise_power")
    assert row["desired_power"] > 0


def test_desk_scale_preserves_densities():
    desk = desk_scale_overrides()
    full = build_config()
    assert desk["ap_count"] / DESK_AREA_KM2 == pytest.approx(
        full.ap_count / FULL_SCALE_AREA_KM2, rel=1e-12)
    assert desk["ue_mean"] / DESK_AREA_KM2 == pytest.approx(
        full.ue_mean / FULL_SCALE_AREA_KM2, rel=1e-12)
    assert (desk["side_m"] / 1000.0) ** 2 == pytest.approx(DESK_AREA_KM2, rel=1e-12)


def test_figure_presets():
    fig7 = figure_config("fig7", desk_scale=True)
    assert set(fig7.curves) == {"dft:upg", "dft:upng", "dft_ext:upg", "sync"}
    assert fig7.tau_ex == "auto_min"
    assert fig7.tau_p == 8  # keeps co-pilot UEs at the desk-scale UE count
    assert fig7.assignment == "maxmin_distance"
    fig6 = figure_config("fig6", desk_scale=True)
    assert fig6.tau_p == 32
    assert "random:upg" in fig6.curves
    fig8 = figure_config("fig8", desk_scale=True)
    assert fig8.sweep_variable == "tau_ex"
    assert fig8.sweep_values == tuple(range(7))
    assert fig8.p_dbm == 20.0
    fig9 = figure_config("fig9")
    assert "dft_ext:upng" in fig9.curves
    with pytest.raises(ConfigError):
        figure_config("fig4")


def test_fig3_preset_runs(tmp_path):
    rows, info = run_figure("fig3", out_path=tmp_path / "fig3.csv", seed=1,
                            trials=200, tau_p_values=range(30, 48))
    assert info["crossover"] is not None
    header = (tmp_path / "fig3.csv").read_text().splitlines()[0]
    assert header == "tau_p,random_mc,random_expected,dft_closed,delay"


def test_synchronous_baseline_matches_single_link_closed_form():
    # no co-pilot UEs: every sync link's expected NMSE is the scalar formula,
    # and the cross terms of fully overlapping DFT rows are exactly zero
    cfg = small_cfg(trials=1, tau_p=32, sweep_values=(20.0,), curves=("sync",))
    rec = run_trial(cfg, 20.0, 0).curves["sync"]
    (_, frame), = trial_frames(cfg, 20.0, 0)
    p = 0.1
    if frame.net.n_ues <= 32:
        for i in range(rec["nmse"].size):
            r, u = int(rec["ap"][i]), int(rec["ue"][i])
            assert rec["interference_power"][i] == 0.0
            ys = (rec["desired_power"][i] + rec["interference_power"][i]
                  + rec["noise_power"][i]) / cfg.antennas
            c = cfg.noise_w * 32 / p
            g = frame.chan.gains.gain[r, u]
            assert ys == pytest.approx(32**2 * g + c, rel=1e-12)
            assert 1 - (32 * g) ** 2 / (ys * g) == pytest.approx(
                c / (32**2 * g + c), rel=1e-9)


def test_synchronous_baseline_regime_invariant():
    cfg = small_cfg(trials=2, curves=("sync",))
    res1 = run_sweep(cfg)
    assert res1.rows[0]["scheme"] == "sync"
    # with all delays forced to zero there are no data tails, so UPG and
    # UPNG produce bit-identical frames and estimates
    (_, sync), = trial_frames(cfg, 20.0, 0)
    results = []
    for regime in ("upg", "upng"):
        frame = synthesize_frame(sync.book, sync.net, sync.chan, regime, sync.p_ul,
                                 np.random.default_rng(5))
        results.append(estimate_trial_links(frame).nmse)
    np.testing.assert_array_equal(results[0], results[1])


def test_dump_frame_roundtrip(tmp_path):
    cfg = small_cfg(curves=("dft:upg",))
    path = tmp_path / "frame.bin"
    frame = dump_frame(cfg, path, ap=2)
    back = read_frame_dump(path)
    assert back.shape == frame.y[2].shape
    np.testing.assert_allclose(back, frame.y[2].astype(np.complex64))
    with pytest.raises(ConfigError):
        dump_frame(cfg, tmp_path / "x.bin", ap=99)


@pytest.mark.parametrize("variable,value", [("tau_p", 8.0), ("tau_ex", 5.0)])
def test_dump_frame_is_run_trial_frame(tmp_path, monkeypatch, variable, value):
    # the dumped frame is the one run_trial builds for the first sweep value,
    # trial 0, curve 0: the sweep's pilot length or extension, not the
    # fixed config value
    cfg = small_cfg(tau_p=32, curves=("dft_ext:upg", "dft:upg"),
                    sweep_variable=variable, sweep_values=(value, value + 1))
    built = []

    def capture(*args, **kwargs):
        built.append(synthesize_frame(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(harness, "synthesize_frame", capture)
    run_trial(cfg, value, 0)
    monkeypatch.undo()
    want = built[0]
    frame = dump_frame(cfg, tmp_path / "f.bin", ap=3)
    assert getattr(want.book, variable) == int(value)
    assert (frame.book.tau_p, frame.book.tau_ex) == (want.book.tau_p, want.book.tau_ex)
    np.testing.assert_array_equal(frame.y[3], want.y[3])
    np.testing.assert_array_equal(read_frame_dump(tmp_path / "f.bin"),
                                  want.y[3].astype(np.complex64))


def _run_cli(*args):
    return subprocess.run([sys.executable, "-m", "cfpilot", *args],
                          capture_output=True, text=True)


def test_cli_sweep_and_exit_codes(tmp_path):
    out = tmp_path / "rows.csv"
    proc = _run_cli("sweep", "--set", "area.side_m=316.2277660168379",
                    "--set", "area.ap_count=10", "--set", "area.ue_mean=14",
                    "--set", "pilot.tau_p=8", "--set", "run.curves=[dft:upg]",
                    "--set", "sweep.p_dbm=[20]", "--trials", "1",
                    "--seed", "3", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    header = out.read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)


def test_cli_figure_set_overrides(tmp_path):
    # --set keys mean in `figure` what they mean in `sweep`
    out = tmp_path / "fig8.csv"
    proc = _run_cli("figure", "fig8", "--desk-scale", "--trials", "1",
                    "--set", "sweep.p_dbm=[0,3]", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["sweep_var"] for row in rows} == {"p_dbm"}
    assert sorted({float(row["sweep_value"]) for row in rows}) == [0.0, 3.0]
    bad = _run_cli("figure", "fig8", "--desk-scale", "--trials", "1",
                   "--set", "pilot.scheme=dft", "--out", str(tmp_path / "x.csv"))
    assert bad.returncode == 2
    assert "pilot.scheme" in bad.stderr


def test_cli_tau_p_sweep_values_rejected(tmp_path):
    for values in ("[8.7]", "[0]", "[-8]"):
        proc = _run_cli("sweep", "--set", "sweep.variable=tau_p",
                        "--set", f"sweep.values={values}",
                        "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2, (values, proc.stderr)
        assert "sweep.values" in proc.stderr


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("pilot.tau_p = many\n")
    proc = _run_cli("sweep", "--config", str(bad))
    assert proc.returncode == 2
    assert "config error" in proc.stderr


def test_cli_io_error_exit_code(tmp_path):
    proc = _run_cli("crosscorr", "--tau-p-min", "8", "--tau-p-max", "10",
                    "--trials", "10", "--out", str(tmp_path / "nodir" / "x.csv"))
    assert proc.returncode == 3


def test_cli_crosscorr_and_dump(tmp_path):
    out = tmp_path / "cc.csv"
    proc = _run_cli("crosscorr", "--tau-p-min", "36", "--tau-p-max", "40",
                    "--trials", "50", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    frame_path = tmp_path / "f.bin"
    proc2 = _run_cli("dump-frame", "--set", "area.side_m=316.2277660168379",
                     "--set", "area.ap_count=10", "--set", "area.ue_mean=14",
                     "--set", "pilot.tau_p=8", "--set", "run.curves=[dft:upg]",
                     "--ap", "0", "--out", str(frame_path))
    assert proc2.returncode == 0, proc2.stderr
    assert frame_path.read_bytes()[:4] == b"ACFE"
