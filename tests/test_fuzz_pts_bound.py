"""Adversary fuzz harness: random search for PTS bound violations.

A seeded random search over explicit ``(round, source, destination)`` route
triples on single-destination lines.  Each generated pattern is admissible
by construction for its *measured* burst ``sigma* = tightest_bound(...)``,
so Proposition 3.1 applies directly: PTS must keep every buffer at or below
``2 + sigma*``.  Every trial runs on the batch kernel and is cross-checked
against the per-round object engine, so the harness doubles as a
differential fuzzer for the vectorized path.

If a trial ever violates the bound, the harness greedily *shrinks* the
pattern (dropping routes while the violation survives), writes the minimal
counterexample to ``tests/regressions/`` and fails with a pointer.  Files
in that directory named ``pts_*.json`` are replayed on every run as pinned
regression cases — commit the shrunk JSON together with the fix.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.adversary.bounded import tightest_bound
from repro.adversary.generators import build_explicit_adversary
from repro.core.bounds import pts_upper_bound
from repro.core.packet import packet_id_scope
from repro.core.pts import PeakToSink
from repro.network.batch import BatchSimulator
from repro.network.simulator import Simulator
from repro.network.topology import LineTopology

REGRESSION_DIR = Path(__file__).parent / "regressions"
MASTER_SEED = 0x5EED  # deterministic search; bump TRIALS to explore fresh cases
TRIALS = 60
TOLERANCE = 1e-9


# -- scenario machinery ------------------------------------------------------------


def _random_routes(rng: random.Random):
    """A random single-destination schedule mixing bursts and steady trickle."""
    n = rng.randrange(2, 33)
    rounds = rng.randrange(1, 49)
    destination = n - 1
    routes = []
    # Steady phase: a few sources injecting across the horizon.
    for _ in range(rng.randrange(0, 4)):
        source = rng.randrange(0, destination)
        for t in range(rng.randrange(0, rounds), rounds, rng.randrange(1, 6)):
            routes.append((t, source, destination))
    # Burst phase: concentrated hits on single rounds/nodes.
    for _ in range(rng.randrange(0, 5)):
        t = rng.randrange(0, rounds)
        source = rng.randrange(0, destination)
        for _ in range(rng.randrange(1, 7)):
            routes.append((t, source, destination))
    routes.sort()
    return n, rounds, routes[:120]


def _measure(n, rounds, routes, *, engine="batch"):
    """Max occupancy under PTS, plus the pattern's tightest sigma."""
    with packet_id_scope():
        topology = LineTopology(n, allow_virtual_sink=False)
        adversary = build_explicit_adversary(
            topology, rho=1.0, sigma=float(len(routes)), rounds=rounds,
            routes=routes,
        )
        sigma_star = tightest_bound(adversary, topology, 1.0)
        algorithm = PeakToSink(topology, destination=n - 1)
        if engine == "batch":
            simulator = BatchSimulator(topology, algorithm, adversary)
        else:
            simulator = Simulator(topology, algorithm, adversary)
        result = simulator.run()
    return result, sigma_star


def _violates(n, rounds, routes):
    result, sigma_star = _measure(n, rounds, routes)
    return result.max_occupancy > pts_upper_bound(sigma_star) + TOLERANCE


def _shrink(n, rounds, routes):
    """Greedy delta-debugging: drop routes while the violation survives."""
    routes = list(routes)
    changed = True
    while changed:
        changed = False
        for i in range(len(routes) - 1, -1, -1):
            candidate = routes[:i] + routes[i + 1 :]
            if candidate and _violates(n, rounds, candidate):
                routes = candidate
                changed = True
    return routes


def _record_violation(n, rounds, routes, result, sigma_star):
    REGRESSION_DIR.mkdir(exist_ok=True)
    shrunk = _shrink(n, rounds, routes)
    digest = abs(hash((n, rounds, tuple(shrunk)))) % 10**8
    path = REGRESSION_DIR / f"pts_bound_violation_{digest:08d}.json"
    path.write_text(
        json.dumps(
            {
                "description": "PTS exceeded 2 + sigma* (shrunk fuzz case)",
                "n": n,
                "rho": 1.0,
                "rounds": rounds,
                "routes": [list(r) for r in shrunk],
                "observed_max_occupancy": result.max_occupancy,
                "sigma_star": sigma_star,
            },
            indent=2,
        )
        + "\n"
    )
    return path


# -- the search --------------------------------------------------------------------


@pytest.mark.parametrize("trial", range(TRIALS))
def test_fuzz_pts_never_exceeds_paper_bound(trial):
    rng = random.Random((MASTER_SEED << 20) | trial)
    n, rounds, routes = _random_routes(rng)
    batch_result, sigma_star = _measure(n, rounds, routes, engine="batch")
    delta_result, _ = _measure(n, rounds, routes, engine="delta")
    assert batch_result == delta_result, (
        f"engine divergence on fuzz trial {trial}: n={n} rounds={rounds} "
        f"routes={routes}"
    )
    bound = pts_upper_bound(sigma_star)
    if batch_result.max_occupancy > bound + TOLERANCE:
        path = _record_violation(n, rounds, routes, batch_result, sigma_star)
        pytest.fail(
            f"PTS bound violated on trial {trial}: occupancy "
            f"{batch_result.max_occupancy} > 2 + {sigma_star}; shrunk "
            f"counterexample written to {path}"
        )


# -- pinned regression replays -----------------------------------------------------


def _regression_cases():
    if not REGRESSION_DIR.is_dir():
        return []
    return sorted(REGRESSION_DIR.glob("pts_*.json"))


@pytest.mark.parametrize("case", _regression_cases(), ids=lambda p: p.stem)
def test_regression_case_stays_within_bound(case):
    data = json.loads(case.read_text())
    routes = [tuple(route) for route in data["routes"]]
    batch_result, sigma_star = _measure(
        data["n"], data["rounds"], routes, engine="batch"
    )
    delta_result, _ = _measure(data["n"], data["rounds"], routes, engine="delta")
    assert batch_result == delta_result
    assert batch_result.max_occupancy <= pts_upper_bound(sigma_star) + TOLERANCE
