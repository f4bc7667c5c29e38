"""How much cyclic extension is enough?

Sweeping the extension length at fixed 20 dBm uplink power: every extra
sample widens the region whose UEs the matched-filter window covers, so the
estimation error falls monotonically. Only once the extension reaches the
in-cluster delay spread (a handful to ~15 samples at this scale) does the
window cover every served UE and the curve approach the synchronous
baseline; past that point extra extension only costs coherence-block time.
"""

import numpy as np

from cfpilot import SimArea, delay_spread_min_extension, sample_topology
from cfpilot.harness import figure_config, run_sweep

rows = run_sweep(figure_config("fig8", desk_scale=True, seed=1, trials=100)).rows

ext_rows = [r for r in rows if r["scheme"] == "dft_ext"]
sync_rows = {r["sweep_value"]: r for r in rows if r["scheme"] == "sync"}

print(" tau_ex | ext NMSE [dB] | sync baseline [dB]")
for row in ext_rows:
    sync = sync_rows[row["sweep_value"]]["nmse_db_mean"]
    print(f" {int(row['sweep_value']):6d} | {row['nmse_db_mean']:13.2f} | {sync:18.2f}")

area = SimArea(side_m=316.2277660168379, ap_count=10, ue_mean=14.0,
               gamma_m=20.0, tau_smp_s=50e-9)
spreads = [delay_spread_min_extension(sample_topology(area, 4, np.random.default_rng(s)))
           for s in range(20)]
print(f"\nfor reference, the in-cluster delay spread at this scale runs "
      f"{min(spreads)}..{max(spreads)} samples (20 random drops)")
