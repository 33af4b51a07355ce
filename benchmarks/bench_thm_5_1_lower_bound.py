"""E5 — Theorem 5.1: the adversary that forces Omega(n^(1/ell)) buffers.

Regenerates the lower-bound result: build the Section 5 construction for a
grid of (m, ell, rho), run several very different forwarding protocols
(the paper's PPTS plus greedy baselines) against it, and report the largest
buffer occupancy each protocol was forced into, next to the theoretical floor
``((ell+1) rho - 1) / (2 ell) * n^(1/ell)`` at the rate the construction
injects, ``floor(rho m) / m``.

Expected shape: every protocol's measured occupancy is at least the floor, and
the forced occupancy grows with ``n^(1/ell)`` as the construction scales.
Every run is a declarative spec using the registered ``"lower-bound"``
adversary; the audited burstiness column is measured from an independently
materialised copy of the pattern.
"""

from __future__ import annotations

from repro.adversary.bounded import tightest_sigma
from repro.adversary.lower_bound import LowerBoundConstruction
from repro.analysis.tables import format_table
from repro.api import Scenario, Session

#: (branching m, levels ell, rho) grid.  The injected rate floor(rho m) / m
#: must exceed 1/(ell+1) for a positive floor: (3, 2, 0.5) injects at 1/3,
#: the threshold, so its floor is 0; (3, 3, 0.5) injects at 1/3 too.
GRID = [
    (3, 2, 0.5),
    (4, 2, 0.5),
    (6, 2, 0.5),
    (4, 2, 0.75),
    (3, 3, 0.5),
]

#: protocol label -> (algorithm name, params) for the spec.
PROTOCOLS = {
    "PPTS": ("ppts", {}),
    "Greedy-FIFO": ("greedy", {"policy": "FIFO"}),
    "Greedy-LIS": ("greedy", {"policy": "LIS"}),
    "Greedy-NTG": ("greedy", {"policy": "NTG"}),
}


def _build_table():
    session = Session()
    specs = []
    extras = []
    for branching, levels, rho in GRID:
        construction = LowerBoundConstruction(branching, levels, rho)
        floor = construction.theoretical_bound()
        sigma = tightest_sigma(
            construction.build_pattern(), construction.topology(), rho
        )
        for name, (algorithm, params) in PROTOCOLS.items():
            specs.append(
                Scenario.line(construction.num_nodes)
                .algorithm(algorithm, **params)
                .adversary(
                    "lower-bound", rho=rho, sigma=1.0,
                    rounds=construction.num_rounds,
                    branching=branching, levels=levels,
                )
                .drain(False)
                .named(f"lower-bound/m{branching}-ell{levels}")
                .build()
            )
            extras.append(
                {
                    "m": branching,
                    "ell": levels,
                    "rho": rho,
                    "sigma_measured": round(sigma, 2),
                    "protocol": name,
                    "theoretical_floor": round(floor, 2),
                    "floor": floor,
                }
            )
    reports = session.run_many(specs)
    rows = []
    for report, extra in zip(reports, extras):
        floor = extra.pop("floor")
        row = report.as_row(extra)
        row["above_floor"] = report.result.max_occupancy >= floor - 1e-9
        rows.append(row)
    return rows


def test_e5_lower_bound_forces_all_protocols(run_once):
    rows = run_once(_build_table)
    print()
    print(
        format_table(
            rows,
            [
                "m", "ell", "rho", "n", "sigma_measured", "protocol",
                "max_occupancy", "theoretical_floor", "above_floor",
            ],
            title="E5  Theorem 5.1 — forced occupancy under the Section 5 adversary",
        )
    )
    assert all(row["above_floor"] for row in rows)
    # Shape check: at fixed (ell, rho) the forced occupancy grows with m
    # (i.e. with n^(1/ell)) for the greedy baseline.
    fifo_by_m = {
        row["m"]: row["max_occupancy"]
        for row in rows
        if row["protocol"] == "Greedy-FIFO" and row["ell"] == 2 and row["rho"] == 0.5
    }
    assert fifo_by_m[3] <= fifo_by_m[4] <= fifo_by_m[6]
