"""The consistency probes behind `wvtomo selfcheck`: the exact reconstruction
and pointer readout identities, the closed-form optimum, the state-free
substitution identities and the closed forms against the exact MSE oracle.

Each probe is a (name, max deviation, tolerance) gate; the CLI prints them.
"""

from __future__ import annotations

import numpy as np

from . import theory
from .montecarlo import _oracle, outcome_table
from .protocol import (
    CouplingStrengths, _postselected_pointers, _read_weak_values, fourier_mub,
    pointer_observables, reconstruct, weak_values_exact,
)
from .qmath import PurityStats, hs_distance_sq, purity_stats, random_mixed
from .rng import RandomStream


def probes(seed: int):
    """The gates and the last oracle probe's uniform-form gap, which the CLI reports."""
    # Each gate reads the np.max of its deviations, which a NaN deviation fails.
    checks = []

    devs = []
    for d in (2, 3, 4, 5):
        rho = random_mixed(d, d, RandomStream(seed, 100 + d))
        rec = reconstruct(weak_values_exact(rho, fourier_mub(d), np.array([0.7, 1.9])))
        devs.append(hs_distance_sq(rec, rho.matrix))
    checks.append(("exact-reconstruction", np.max(devs), 1e-20))

    devs = []
    gs = np.linspace(0.1, 3.0, 10)
    obs = [pointer_observables(g) for g in gs]
    sigma_r = np.array([o.sigma_r for o in obs])[:, None, None]
    sigma_i = np.array([o.sigma_i for o in obs])[:, None, None]
    for d in (2, 3, 5):
        rho = random_mixed(d, d, RandomStream(seed, 200 + d))
        bases = fourier_mub(d)
        table = weak_values_exact(rho, bases, gs)
        entries, undefined = table.entries, table.undefined
        states, probs = _postselected_pointers(rho, range(d), gs, bases)
        w = _read_weak_values(states, probs, sigma_r, sigma_i, gs[:, None, None])
        # NaN exactly where the table is undefined, the table's value elsewhere
        if np.array_equal(np.isnan(w), undefined):
            devs.append(np.max(np.abs(w - entries)[~undefined]))
        else:
            devs.append(np.inf)
    checks.append(("readout-identity", np.max(devs), 1e-10))

    devs = []
    for d in (2, 3, 5, 12, 32):
        a, b = theory.optimal_strengths(d), theory.numeric_optimal_strengths(d)
        devs += [abs(a.g_r - b.g_r), abs(a.g_i - b.g_i)]
    checks.append(("optimum-agreement", np.max(devs), 1e-6))

    # Purity terms cancel in each identity: one exact triple (tr((Im rho)^2) > 0) serves every d.
    pur = PurityStats(1.0, 0.75, 0.25)
    devs = []
    for d in range(2, 33):
        opt = theory.optimal_strengths(d)
        inp = theory.TheoryInput(dim=d, strengths=opt, shots=7, purity=pur)
        devs.append(abs(theory.mse_raw(inp) - theory.mse_raw_optimal(d, 7, pur.purity)))
        devs.append(abs(theory.mse_hermitized(inp)
                        - theory.mse_hermitized_optimal(d, 7, pur.purity_re, pur.purity_im)))
    checks.append(("substitution-identities", np.max(devs), 1e-12))

    devs_raw, devs_herm, devs_gap = [], [], []
    for d in (2, 3, 4):
        bases = fourier_mub(d)
        for k in range(3):
            rho = random_mixed(d, max(1, d - k % 2), RandomStream(seed, 400 + 10 * d + k))
            st = CouplingStrengths(0.35 + 0.5 * k, 2.2 - 0.4 * k)
            pur = purity_stats(rho)
            inp = theory.TheoryInput(dim=d, strengths=st, shots=25, purity=pur)
            o_raw, o_herm = _oracle(outcome_table(rho, st, bases, 25))
            devs_raw.append(abs(o_raw - theory.mse_raw(inp)))
            devs_herm.append(abs(o_herm - theory.mse_hermitized_exact(rho, st, 25)))
            diag_sq = float(np.sum(rho.matrix.diagonal().real ** 2))
            predicted_gap = (diag_sq / 2.0 - (pur.purity_re - pur.purity_im) / (2.0 * d)) / 25.0
            probe_gap = theory.mse_hermitized(inp) - o_herm
            devs_gap.append(abs(probe_gap - predicted_gap))
    checks.append(("raw-variance-oracle", np.max(devs_raw), 1e-9))
    checks.append(("hermitized-variance-oracle-exact-form", np.max(devs_herm), 1e-9))
    checks.append(("hermitized-approx-gap-characterized", np.max(devs_gap), 1e-12))
    return checks, probe_gap
