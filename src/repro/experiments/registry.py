"""The experiment registry: one entry per table/figure reproduced (E1-E9).

DESIGN.md's per-experiment index is mirrored here programmatically so that
examples, benchmarks and documentation all agree on what each experiment id
means and where its code lives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..api.registry import RegistryError

__all__ = ["Experiment", "EXPERIMENTS", "get_experiment", "list_experiments"]


@dataclass(frozen=True)
class Experiment:
    """Metadata describing one reproduced result."""

    #: Short id used in DESIGN.md / EXPERIMENTS.md (e.g. ``"E1"``).
    id: str
    #: The paper item being reproduced.
    paper_item: str
    #: One-line statement of the claim.
    claim: str
    #: The workload / parameter sweep used.
    workload: str
    #: Library modules implementing the pieces.
    modules: Tuple[str, ...]
    #: The benchmark file that regenerates the table/series.
    benchmark: str


EXPERIMENTS: Dict[str, Experiment] = {
    experiment.id: experiment
    for experiment in (
        Experiment(
            id="E1",
            paper_item="Proposition 3.1 (PTS)",
            claim="Single destination: max occupancy <= 2 + sigma",
            workload="line n in {16..256}, rho in {0.25, 0.5, 1.0}, sigma in {0..8}, "
            "burst stress + random adversaries",
            modules=("repro.core.pts", "repro.adversary.stress", "repro.network.simulator"),
            benchmark="benchmarks/bench_prop_3_1_pts.py",
        ),
        Experiment(
            id="E2",
            paper_item="Proposition 3.2 (PPTS)",
            claim="d destinations: max occupancy <= 1 + d + sigma",
            workload="line n=128, d in {1, 2, 4, ..., 64}, sigma in {0, 2, 4}",
            modules=("repro.core.ppts", "repro.adversary.stress"),
            benchmark="benchmarks/bench_prop_3_2_ppts.py",
        ),
        Experiment(
            id="E3",
            paper_item="Proposition 3.5 (trees)",
            claim="Directed trees: max occupancy <= 1 + d' + sigma",
            workload="caterpillar / star / binary / random trees, convergecast traffic",
            modules=("repro.core.tree", "repro.network.topology"),
            benchmark="benchmarks/bench_prop_3_5_tree.py",
        ),
        Experiment(
            id="E4",
            paper_item="Theorem 4.1 (HPTS)",
            claim="ell levels, rho * ell <= 1: max occupancy <= ell * n^(1/ell) + sigma + 1",
            workload="n = m**ell for m in {2, 3, 4}, ell in {1..4}",
            modules=("repro.core.hpts", "repro.core.hierarchy"),
            benchmark="benchmarks/bench_thm_4_1_hpts.py",
        ),
        Experiment(
            id="E5",
            paper_item="Theorem 5.1 (lower bound)",
            claim="Some (rho,1)-bounded adversary forces Omega(((ell+1)rho-1)/(2 ell) * n^(1/ell)) "
            "occupancy for every protocol",
            workload="n = (ell+1) m**ell, ell in {2, 3}; adversary vs PPTS/HPTS/greedy",
            modules=("repro.adversary.lower_bound", "repro.baselines"),
            benchmark="benchmarks/bench_thm_5_1_lower_bound.py",
        ),
        Experiment(
            id="E6",
            paper_item="Figure 1 (hierarchical partition)",
            claim="The nested interval structure and virtual trajectories for n=16, m=2, ell=4",
            workload="structural (no simulation)",
            modules=("repro.core.hierarchy", "repro.experiments.figures"),
            benchmark="benchmarks/bench_fig_1_hierarchy.py",
        ),
        Experiment(
            id="E7",
            paper_item="Section 1 implications (space-bandwidth tradeoff)",
            claim="Scaling destinations by alpha costs either x alpha buffers, "
            "or x O(log alpha) buffers and bandwidth",
            workload="fixed load, destination scale alpha in {2, 4, ..., 64}",
            modules=("repro.analysis.tradeoff", "repro.core.bounds"),
            benchmark="benchmarks/bench_tradeoff_implication.py",
        ),
        Experiment(
            id="E8",
            paper_item="Motivation (greedy baselines)",
            claim="PTS-family algorithms use no more buffer space than greedy policies "
            "on the same bounded workloads",
            workload="identical adversaries run against PTS/PPTS/HPTS and all greedy policies",
            modules=("repro.baselines", "repro.core"),
            benchmark="benchmarks/bench_baselines_comparison.py",
        ),
        Experiment(
            id="E9",
            paper_item="Ablation (HPTS design choices)",
            claim="Phase batching, pre-bad activation and the level schedule each matter "
            "for meeting the Theorem 4.1 bound",
            workload="HPTS variants on hierarchy stress",
            modules=("repro.core.hpts",),
            benchmark="benchmarks/bench_ablation_hpts.py",
        ),
    )
}


def get_experiment(experiment_id: str) -> Experiment:
    """Look up an experiment by id (e.g. ``"E4"``)."""
    try:
        return EXPERIMENTS[experiment_id.upper()]
    except KeyError:
        raise RegistryError("experiment", experiment_id, EXPERIMENTS) from None


def list_experiments() -> List[Experiment]:
    """All experiments in id order."""
    return [EXPERIMENTS[key] for key in sorted(EXPERIMENTS)]
