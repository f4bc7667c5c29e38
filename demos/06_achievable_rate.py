"""Downlink spectral efficiency from the estimated channels.

Conjugate beamforming with the channel-hardening bound (see
cfpilot.analytics for the pinned formula set). Estimates contaminated by
asynchronous MF cross terms steer energy at the wrong users, so the plain
DFT curve loses rate twice: a weaker coherent gain and a coherent leakage
term. The extended pilots trade a few samples of overhead for near-
synchronous estimates.
"""

from cfpilot.harness import figure_config, run_sweep, write_rows

rows = run_sweep(figure_config("fig9", desk_scale=True, seed=1, trials=100)).rows
write_rows(rows, "rate_vs_power_desk.csv", "csv")

curves = {}
for row in rows:
    curves.setdefault((row["scheme"], row["regime"]), []).append(row)

powers = [row["sweep_value"] for row in curves[("sync", "upg")]]
print("mean spectral efficiency [b/s/Hz] per uplink power [dBm]:\n")
print(" scheme/regime   " + "".join(f"{p:8.0f}" for p in powers))
for key, rws in curves.items():
    label = f"{key[0]}:{key[1]}"
    print(f" {label:15s}" + "".join(f"{r['rate_mean_bps_hz']:8.3f}" for r in rws))

top = powers[-1]
ext = next(r for r in curves[("dft_ext", "upng")] if r["sweep_value"] == top)
plain = next(r for r in curves[("dft", "upng")] if r["sweep_value"] == top)
print(f"\nat {top:.0f} dBm the extension buys "
      f"{ext['rate_mean_bps_hz'] - plain['rate_mean_bps_hz']:.3f} b/s/Hz "
      f"over plain DFT pilots")
print("wrote rate_vs_power_desk.csv")
