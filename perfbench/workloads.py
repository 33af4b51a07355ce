"""The benchmark's workloads: seeded generators of scenario specs.

Each workload turns the benchmark seed into the list of
:class:`~repro.api.specs.ScenarioSpec` one *pass* executes, in order.  The
program under test only ever sees these specs; the seed drives
``policy.seed`` (hence the adversary's random draw) and, for the sweep, the
order and seeds of its scenarios.  Every spec asks for ``engine="auto"``, so
the benchmark always measures the engine the program itself picks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.api.specs import ScenarioSpec

#: The seed whose delta-engine digests are stored in ``digests.json``.
DEFAULT_SEED = 1

#: Line length of the long PTS workloads.  The horizon is ``4n`` rounds, so
#: about ``0.8 n`` packets are in flight when injection stops.
PTS_NODES = 1024
#: HPTS needs ``n = m ** levels``; 14 ** 2.  Where the random adversary puts
#: its 8 destinations changes a scenario's work by about 20% between seeds,
#: so a pass runs several scenarios and their sum varies less.
HPTS_NODES = 196
HPTS_LEVELS = 2
HPTS_SCENARIOS = 10

SWEEP_SCENARIOS = 200
SWEEP_LINE_NODES = (16, 36, 64, 100)  # squares, so HPTS with 2 levels fits
SWEEP_TREE_DEPTHS = (3, 4, 5, 6)
SWEEP_ALGORITHMS = ("pts", "ppts", "hpts", "tree-ppts", "greedy")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: seed -> the specs of one pass, executed in order in one Session.
    specs: Callable[[int], List[ScenarioSpec]]
    #: Whether the specs run sharded (``policy.shards > 1``).
    sharded: bool = False


def _spec(
    name: str,
    topology: Dict,
    algorithm: str,
    algorithm_params: Dict,
    adversary: str,
    rho: float,
    rounds: int,
    adversary_params: Dict,
    seed: int,
    shards: Optional[int] = None,
) -> ScenarioSpec:
    return ScenarioSpec.from_dict(
        {
            "name": name,
            "topology": topology,
            "algorithm": {"name": algorithm, "params": algorithm_params},
            "adversary": {
                "name": adversary,
                "rho": rho,
                "sigma": 4.0,
                "rounds": rounds,
                "params": adversary_params,
            },
            "policy": {
                "seed": seed,
                "drain": True,
                "engine": "auto",
                "shards": shards,
            },
        }
    )


def _line(n: int) -> Dict:
    return {"kind": "line", "params": {"num_nodes": n}}


def line_pts(seed: int, shards: Optional[int] = None) -> ScenarioSpec:
    """Work-conserving PTS under the saturating single-destination adversary."""
    return _spec(
        f"line-pts/n{PTS_NODES}", _line(PTS_NODES), "pts",
        {"work_conserving": True}, "single", 1.0, 4 * PTS_NODES, {}, seed,
        shards=shards,
    )


def line_hpts(seed: int) -> List[ScenarioSpec]:
    """HPTS on ``m ** 2`` nodes under a multi-destination bounded adversary."""
    rng = random.Random(seed)
    return [
        _spec(
            f"line-hpts/{index}/n{HPTS_NODES}", _line(HPTS_NODES), "hpts",
            {"levels": HPTS_LEVELS}, "bounded", 0.5, 4 * HPTS_NODES,
            {"num_destinations": 8}, rng.randrange(2 ** 31),
        )
        for index in range(HPTS_SCENARIOS)
    ]


def _sweep_spec(index: int, algorithm: str, size: int, seed: int) -> ScenarioSpec:
    if algorithm == "tree-ppts":
        nodes = 2 ** (size + 1) - 1
        topology = {"kind": "tree", "params": {"family": "binary", "depth": size}}
        return _spec(
            f"sweep/{index}/tree-ppts/d{size}", topology, algorithm, {},
            "bounded", 1.0, 4 * nodes, {}, seed,
        )
    params: Dict = {}
    adversary_params: Dict = {"num_destinations": 4}
    rho = 1.0
    if algorithm == "pts":
        adversary_params = {"num_destinations": 1}
    elif algorithm == "hpts":
        params = {"levels": 2}
        rho = 0.5  # Theorem 4.1 needs rho * levels <= 1
    return _spec(
        f"sweep/{index}/{algorithm}/n{size}", _line(size), algorithm, params,
        "bounded", rho, 4 * size, adversary_params, seed,
    )


def sweep_short(seed: int) -> List[ScenarioSpec]:
    """200 small scenarios: every (algorithm, size) cell equally often, in a
    seeded order with seeded adversaries, so the amount of work is the same
    for every seed and only the traffic differs."""
    rng = random.Random(seed)
    cells = [
        (algorithm, size)
        for algorithm in SWEEP_ALGORITHMS
        for size in (
            SWEEP_TREE_DEPTHS if algorithm == "tree-ppts" else SWEEP_LINE_NODES
        )
    ]
    plan = cells * (SWEEP_SCENARIOS // len(cells))
    rng.shuffle(plan)
    return [
        _sweep_spec(index, algorithm, size, rng.randrange(2 ** 31))
        for index, (algorithm, size) in enumerate(plan)
    ]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "line-pts-steady",
            "work-conserving PTS at steady state runs in the batch kernel; "
            "adversary generation dominates set-up",
            lambda seed: [line_pts(seed)],
        ),
        Workload(
            "line-hpts-multidest",
            "HPTS, the headline algorithm, is refused by the batch kernel: "
            "time goes to the delta engine and the core hooks",
            line_hpts,
        ),
        Workload(
            "sweep-short",
            "200 small scenarios of all five algorithms in one Session: "
            "per-run fixed cost and set-up, the only tree-ppts and ppts traffic",
            sweep_short,
        ),
        Workload(
            "line-pts-sharded2",
            "the line-pts-steady spec on two worker processes: the only "
            "workload that runs the sharded engine and its shared-memory rings",
            lambda seed: [line_pts(seed, shards=2)],
            sharded=True,
        ),
    )
}
