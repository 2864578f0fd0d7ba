#!/usr/bin/env python3
"""Random-walk machinery on sampled graphs: mixing, conductance, Cheeger.

Dense samples mix in O(log n) steps; the fitted constant t_mix/ln(n/eps) is
what makes depth ~ 6 ln(n) enough for embeddings to reach stationarity.
"""

from graphonlab import (
    RWChain,
    SBMParams,
    cheeger_check,
    mixing_time,
    power_limit_gap,
    sample_graph,
)
from graphonlab.seeding import derive_seed

w = SBMParams(k1=0.5, p1=0.6, p2=0.4, q=0.2).to_step_graphon()

print("== mixing time scaling, eps = 1/n^2 ==")
for n in (125, 250, 500):
    eps = 1.0 / n**2
    g = sample_graph(w, n, seed=derive_seed(1, n))
    chain = RWChain.from_graph(g)
    report = mixing_time(chain, eps, t_max=200)
    print(
        f"  n={n:4d}: t_mix={report.t_mix:3d}  gap={report.gap:.3f}  "
        f"t_mix/ln(n/eps)={report.fitted_slope:.3f}"
    )
    gap_at_tmix = power_limit_gap(chain, report.t_mix)
    assert gap_at_tmix <= 2 * eps
    print(f"          ||P^t - P_inf||_max = {gap_at_tmix:.2e} <= 2 eps = {2 * eps:.2e}")

print()
print("== conductance sandwiches the spectral gap (exhaustive, small n) ==")
g = sample_graph(w, 12, seed=7)
report = cheeger_check(g)
print(
    f"  n=12 sample: phi={report.phi:.3f}  "
    f"phi^2/2={report.lower:.3f} <= gamma={report.gamma:.3f} <= 2 phi={report.upper:.3f}"
    f"  -> holds: {report.holds}"
)
