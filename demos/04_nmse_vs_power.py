"""Channel-estimation NMSE versus uplink power for every pilot scheme.

Reduced-scale Monte-Carlo (0.1 km^2, 10 APs at the full deployment's
density) so the sweep finishes in under a minute. Random and plain-DFT
pilots hit an interference floor under asynchronous reception; the
cyclically extended DFT pilots track the synchronous baseline to within a
fraction of a dB.
"""

from cfpilot.harness import figure_config, run_sweep, write_rows

rows = run_sweep(figure_config("fig7", desk_scale=True, seed=1, trials=100)).rows
write_rows(rows, "nmse_vs_power_desk.csv", "csv")

curves = {}
for row in rows:
    curves.setdefault((row["scheme"], row["regime"]), []).append(row)

print("mean NMSE [dB] per uplink power [dBm]:\n")
powers = [row["sweep_value"] for row in curves[("sync", "upg")]]
header = " scheme/regime   " + "".join(f"{p:8.0f}" for p in powers)
print(header)
for key, rws in curves.items():
    label = f"{key[0]}:{key[1]}"
    vals = "".join(f"{r['nmse_db_mean']:8.2f}" for r in rws)
    print(f" {label:15s}{vals}")

print("\nwrote nmse_vs_power_desk.csv (same schema as the sweep CLI)")
