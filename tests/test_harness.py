import csv
import hashlib
import json
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from cfpilot import harness
from cfpilot.airframe import read_frame_dump, synthesize_frame
from cfpilot.channel import dbm_to_watts
from cfpilot.estimator import estimate_trial_links
from cfpilot.harness import (
    CSV_COLUMNS,
    ConfigError,
    DESK_AREA_KM2,
    ExperimentConfig,
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
        "sweep.variable = p_dbm\n"
        "sweep.values = [-4, 20]\n"
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
    # curves are set by run.curves only; the old shorthand keys are unknown
    for key in ("pilot.scheme", "frame.regime"):
        with pytest.raises(ConfigError, match=key):
            build_config({key: "dft"})
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
    assert all(r["tau_ex"] == "auto_min" for r in res.rows if r["scheme"] == "dft_ext")
    assert all(r["tau_ex"] == 0 for r in res.rows if r["scheme"] == "dft")


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
                            trials=200, tau_p_min=30, tau_p_max=47)
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


@pytest.mark.parametrize("variable,value", [("p_dbm", -4.0), ("tau_p", 8.0), ("tau_ex", 5.0)])
def test_dump_frame_is_run_trial_frame(tmp_path, monkeypatch, variable, value):
    # the dumped frame is the one run_trial builds for the first sweep value,
    # trial 0, curve 0: the sweep's power, pilot length or extension, not the
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
    if variable == "p_dbm":
        assert frame.p_ul == want.p_ul == dbm_to_watts(value)
    else:
        assert getattr(want.book, variable) == int(value)
    assert (frame.book.tau_p, frame.book.tau_ex) == (want.book.tau_p, want.book.tau_ex)
    np.testing.assert_array_equal(frame.y[3], want.y[3])
    np.testing.assert_array_equal(read_frame_dump(tmp_path / "f.bin"),
                                  want.y[3].astype(np.complex64))


def _run_cli(*args):
    # the timeout turns a hang into a failure
    return subprocess.run([sys.executable, "-m", "cfpilot", *args],
                          capture_output=True, text=True, timeout=300)


def test_cli_sweep_and_exit_codes(tmp_path):
    out = tmp_path / "rows.csv"
    proc = _run_cli("sweep", "--set", "area.side_m=316.2277660168379",
                    "--set", "area.ap_count=10", "--set", "area.ue_mean=14",
                    "--set", "pilot.tau_p=8", "--set", "run.curves=[dft:upg]",
                    "--set", "sweep.values=[20]", "--trials", "1",
                    "--seed", "3", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    header = out.read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)


def test_cli_figure_set_overrides(tmp_path):
    # --set keys mean in `figure` what they mean in `sweep`
    out = tmp_path / "fig8.csv"
    proc = _run_cli("figure", "fig8", "--desk-scale", "--trials", "1",
                    "--set", "sweep.variable=p_dbm", "--set", "sweep.values=[0,3]",
                    "--out", str(out))
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


def _field_cases():
    """One refused value per single-key check that an ExperimentConfig field declares."""
    cases = []
    for f in fields(ExperimentConfig):
        key, bound, choices = (f.metadata[name] for name in ("key", "bound", "choices"))
        if f.type is float:
            cases.append(([f"{key}=inf"], key))
        if bound:
            cases.append(([f"{key}={0 if bound == 'positive' else -1}"], key))
        if choices:
            cases.append(([f"{key}=foo"], key))
    return cases


# and what the field table does not generate: the rules that span keys, UE
# placement, and other refused values of bounded keys
INVALID_CONFIGS = _field_cases() + [
    (["area.gamma_m=400"], "area.gamma_m"),  # no feasible UE placement
    (["area.gamma_m=500"], "area.gamma_m"),  # beyond half the side
    (["area.ue_mean=1e-9"], "area.ue_mean"),  # no UE in any Poisson draw
    (["sweep.variable=tau_ex", "sweep.values=[0,3]", "run.curves=[dft:upg]"],
     "sweep.variable"),
    (["run.curves=[dft_ext:upg]", "pilot.tau_ex=-3"], "pilot.tau_ex"),
    (["run.curves=[dft:upg]", "pilot.tau_ex=5"], "pilot.tau_ex"),  # would be ignored
    (["sweep.values=[nan]"], "sweep.values"),
    (["sweep.values=[inf]"], "sweep.values"),
    (["sweep.values=[4000]"], "sweep.values"),  # infinite watts
    (["sweep.values=[-4000]"], "sweep.values"),  # zero watts
    (["run.p_dbm=nan", "sweep.variable=tau_p", "sweep.values=[8]"], "run.p_dbm"),
    (["run.p_dbm=4000", "sweep.variable=tau_p", "sweep.values=[8]"], "run.p_dbm"),
    (["chan.sigma_sh_db=nan"], "chan.sigma_sh_db"),
    (["chan.sigma_sh_db=-4"], "chan.sigma_sh_db"),
    (["run.curves=[]"], "run.curves"),  # would run every trial for a header-only file
    (["run.curves=[dft_ext:upg]", "sweep.variable=tau_ex", "sweep.values=[1]",
      "pilot.tau_ex=5"], "pilot.tau_ex"),  # the sweep would replace it
]


def test_each_field_declares_one_key():
    assert len(harness.CONFIG_KEYS) == len(fields(ExperimentConfig))


@pytest.mark.parametrize("pairs,key", INVALID_CONFIGS,
                         ids=[" ".join(pairs) for pairs, _ in INVALID_CONFIGS])
def test_cli_invalid_config_exits_2(tmp_path, pairs, key):
    out = tmp_path / "x.csv"
    sets = [arg for pair in ["sweep.values=[20]", "run.trials=1", *pairs]
            for arg in ("--set", pair)]
    proc = _run_cli("sweep", *sets, "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert f"config error: {key}" in proc.stderr
    assert not out.exists()


def test_power_rule_keeps_representable_extremes():
    # -3000 and +3000 dBm are tiny and huge but finite positive watts
    cfg = small_cfg(trials=1, sweep_values=(-3000.0, 3000.0), curves=("dft:upg",))
    for row in run_sweep(cfg).rows:
        assert all(np.isfinite(row[col]) for col in ("nmse_db_mean", "rate_mean_bps_hz"))


def test_cli_figure_bad_format_refused_before_trials(tmp_path):
    proc = _run_cli("figure", "fig6", "--desk-scale", "--trials", "2",
                    "--set", "out.format=parquet", "--out", str(tmp_path / "x.csv"))
    assert proc.returncode == 2
    assert "out.format" in proc.stderr
    assert "sweep point" not in proc.stderr
    assert not (tmp_path / "x.csv").exists()


def test_cli_non_finite_row_refused(tmp_path):
    # shadowing 10**(X/10) overflows at a 2000-dB deviation and every metric
    # of every row is NaN; the run must fail with nothing written
    out = tmp_path / "fig6.csv"
    proc = _run_cli("figure", "fig6", "--desk-scale", "--trials", "2",
                    "--set", "sweep.values=[20]", "--set", "chan.sigma_sh_db=2000",
                    "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert ("config error: nmse_db_mean is nan (sweep_var=p_dbm, sweep_value=20, "
            "scheme=random, regime=upg)") in proc.stderr
    assert not out.exists()


def test_cli_fig3_refuses_ignored_arguments(tmp_path):
    # fig3 is a fixed cross-correlation table: network, pilot and worker
    # settings would be ignored, so they are refused
    proc = _run_cli("figure", "fig3", "--set", "pilot.tau_p=8", "--workers", "4",
                    "--desk-scale", "--out", str(tmp_path / "fig3.csv"))
    assert proc.returncode == 2
    for name in ("pilot.tau_p", "run.workers", "--desk-scale"):
        assert name in proc.stderr
    assert not (tmp_path / "fig3.csv").exists()


CROSSCORR_BAD_ARGS = [
    (["crosscorr", "--trials", "0"], "--trials"),
    (["figure", "fig3", "--trials", "0"], "--trials"),
    (["figure", "fig3", "--trials", "-5"], "--trials"),
    (["crosscorr", "--delay", "-3"], "--delay"),
    (["crosscorr", "--tau-p-min", "0"], "--tau-p-min"),
    (["crosscorr", "--tau-p-step", "0"], "--tau-p-step"),
    (["crosscorr", "--tau-p-min", "20", "--tau-p-max", "10"], "--tau-p-max"),
]


@pytest.mark.parametrize("args,flag", CROSSCORR_BAD_ARGS,
                         ids=[" ".join(args) for args, _ in CROSSCORR_BAD_ARGS])
def test_cli_crosscorr_bad_numbers_exit_2(tmp_path, args, flag):
    # crosscorr and figure fig3 share one check of the table's numbers
    out = tmp_path / "x.csv"
    proc = _run_cli(*args, "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert flag in proc.stderr
    assert not out.exists()


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


# SHA-256 of the seed-1 CSVs below, recorded at commit 6f111d8, before the
# estimator, the max-min assignment and the rate bound were batched: the
# batched pass must write the same bytes. fig8 pins extended DFT below the
# in-cluster spread, fig9 extended DFT under UPNG.
GOLDEN_SHA256 = {
    "fig6": "9e229d44414a16df64553bcd2c80cb528611edd015b5260036fc6fa1dac15cef",
    "fig7": "9e5a3f566f0983f3479170c7680929795fa0f99be3b626810242e4ada482b8c3",
    "fig8": "f4a2f491b065193bd769273cd9b2cbd3259fe07105df85299a17126e3570b9f3",
    "fig9": "a9253260c5bb3df9dc866bc92b1794b30742016841f5193984f60bd604229b15",
    "sweep": "b16b1687a992039655a59d925bc1d708ce3d0fd2691b3b58fac6e95958dccf86",
    "diag": "df1130b0325859ac712882217c474794a5d3a4681abab611033e8124a5b60654",
    "tau_p_sweep": "7f21512af66d58f64ee43b3310b385a8c96ec9f040e2440d84772d47e6a8b328",
    "tau_p_diag": "1f11792bd1aeac175c65e5c0e85f7c42c83e7fd2f99570cc7ed8500382eb6b77",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("fig", ("fig6", "fig7", "fig8", "fig9"))
def test_figure_csv_matches_golden_digest(tmp_path, fig):
    # `figure <fig> --desk-scale --trials 20`
    out = tmp_path / f"{fig}.csv"
    run_figure(fig, desk_scale=True, trials=20, out_path=str(out))
    assert _sha256(out) == GOLDEN_SHA256[fig]


def test_diag_csv_matches_golden_digest(tmp_path):
    # `sweep --diag` at desk scale over the random, DFT and extended-DFT
    # data paths and the synchronous baseline
    cfg = build_config(**DESK, tau_p=8, trials=5, sweep_values=(-12.0, 20.0),
                       curves=("random:upng", "dft:upg", "dft:upng", "dft_ext:upng", "sync"))
    result = run_sweep(cfg, diag=True)
    write_rows(result.rows, tmp_path / "rows.csv", "csv")
    write_rows(result.diag_rows, tmp_path / "diag.csv", "csv", columns=harness.DIAG_COLUMNS)
    assert _sha256(tmp_path / "rows.csv") == GOLDEN_SHA256["sweep"]
    assert _sha256(tmp_path / "diag.csv") == GOLDEN_SHA256["diag"]


def test_tau_p_sweep_matches_golden_digest(tmp_path):
    # `sweep --diag` at desk scale over pilot lengths 4, 8 and 16, with the
    # extended-DFT curve and the synchronous baseline; recorded at c357d35
    cfg = build_config(**DESK, trials=5, seed=1, sweep_variable="tau_p",
                       sweep_values=(4.0, 8.0, 16.0), curves=("dft:upg", "dft_ext:upg", "sync"))
    result = run_sweep(cfg, diag=True)
    write_rows(result.rows, tmp_path / "rows.csv", "csv")
    write_rows(result.diag_rows, tmp_path / "diag.csv", "csv", columns=harness.DIAG_COLUMNS)
    assert _sha256(tmp_path / "rows.csv") == GOLDEN_SHA256["tau_p_sweep"]
    assert _sha256(tmp_path / "diag.csv") == GOLDEN_SHA256["tau_p_diag"]
