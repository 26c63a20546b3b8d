#!/usr/bin/env python3
"""
01_states_channels.py

Tour of the linear-algebra core: multi-qubit states, reduced states, the
conserved observable, Kraus channels, and the two structural checks every channel here satisfies
(completeness and Heisenberg-picture duality).
"""

import numpy as np

from qconsensus import (
    apply_channel,
    bitstring_ket,
    check_cptp,
    dual_apply,
    expectation,
    ket_to_density,
    partial_trace,
    purity,
)
from qconsensus.dynamics import gossip_channel, smc_neighborhood_channel, ssc_pair_channel
from qconsensus.symmetry import dicke_ket, global_observable

print("states and reductions")
print("---------------------")
rho = ket_to_density(dicke_ket(2, 1))  # (|01> + |10>)/sqrt2
print("pair state purity:", purity(rho))
print("reduced single-site state:\n", np.real_if_close(partial_trace(rho, 2, {1})))
print("global observable m=2 diag:", np.real(np.diag(global_observable(2))))
print("expectation on |01>:", expectation(ket_to_density(bitstring_ket("01")), global_observable(2)))
print()

print("the three neighborhood channels on a pair")
print("-----------------------------------------")
for label, channel in [
    ("gossip(alpha=0.5)", gossip_channel((1, 2), 2, 0.5)),
    ("ssc pair", ssc_pair_channel()),
    ("smc pair", smc_neighborhood_channel(2)),
]:
    report = check_cptp(channel)
    print(f"{label:<18} kraus ops: {len(channel.kraus_ops)}  "
          f"completeness residual: {report.completeness_residual:.2e}  "
          f"unital: {report.is_unital}")
print()

print("one application to |01><01|")
print("---------------------------")
rho01 = ket_to_density(bitstring_ket("01"))
for label, channel in [
    ("gossip", gossip_channel((1, 2), 2, 0.5)),
    ("ssc", ssc_pair_channel()),
    ("smc", smc_neighborhood_channel(2)),
]:
    out = apply_channel(channel, rho01)
    print(f"{label:<7} purity {purity(out):.3f}  diagonal {np.round(np.real(np.diag(out)), 3)}")
print()

print("duality: Tr[X E(rho)] == Tr[E^dag(X) rho]")
print("-----------------------------------------")
rng = np.random.default_rng(1)
channel = ssc_pair_channel()
worst = 0.0
for _ in range(200):
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    evecs = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    spectrum = rng.dirichlet(np.ones(4))
    test_rho = (evecs * spectrum) @ evecs.conj().T
    lhs = np.trace(x @ apply_channel(channel, test_rho, validate=False))
    rhs = np.trace(dual_apply(channel, x) @ test_rho)
    worst = max(worst, abs(lhs - rhs))
print(f"max residual over 200 random (X, rho): {worst:.2e}")
