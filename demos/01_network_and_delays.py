"""Draw a cell-free network and look at its delay structure.

APs land uniformly on the square, the UE count is Poisson, and every UE is
pushed outside the 20 m restricted disk around each AP. Each AP serves its
4 nearest UEs; the in-cluster delay spread decides how long a cyclic pilot
extension has to be before the matched-filter window is covered for every
served UE.
"""

import numpy as np

from cfpilot import (
    SimArea,
    delay_spread_min_extension,
    make_mf_sequence,
    make_pilot_book,
    sample_topology,
)

area = SimArea(side_m=316.2277660168379, ap_count=10, ue_mean=14.0,
               gamma_m=20.0, tau_smp_s=50e-9)
rng = np.random.default_rng(7)
net = sample_topology(area, cluster_size=4, rng=rng)

print(f"network: {net.n_aps} APs, {net.n_ues} UEs on a "
      f"{area.side_m:.0f} m square ({area.side_m**2 / 1e6:.2f} km^2)")
print(f"one sample of delay = {area.meters_per_sample:.0f} m of distance\n")

print(" AP | served UEs        | delays (samples) | window t_w | spread")
for r in range(net.n_aps):
    served = [int(u) for u in net.serving[r]]
    delays = [int(t) for t in net.t_ur[r, served]]
    print(f" {r:2d} | {str(served):17s} | {str(delays):16s} "
          f"| {int(net.t_w_r[r]):10d} | {max(delays) - min(delays):6d}")

tau_ex = delay_spread_min_extension(net)
print(f"\nminimum extension covering every cluster: tau_ex = {tau_ex} samples")
print(f"that extension spans {tau_ex * area.meters_per_sample:.0f} m "
      f"of extra propagation distance")

# a UE covers an AP's MF window when its extended pilot fills all tau_p samples
tau_p = 32
book = make_pilot_book("dft_ext", tau_p, tau_ex, net.n_ues, rng)
print("\ncovered UEs (whose pilots fill the MF window) at tau_ex:")
for r in range(net.n_aps):
    mf = make_mf_sequence(book, net, r, int(net.serving[r][0]))
    print(f" AP {r:2d}: {np.flatnonzero(mf.pilot == tau_p).tolist()}")
