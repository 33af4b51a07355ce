"""repro — Space-bandwidth tradeoffs for routing in the AQT model.

A from-scratch reproduction of *"With Great Speed Come Small Buffers:
Space-Bandwidth Tradeoffs for Routing"* (Miller, Patt-Shamir, Rosenbaum,
PODC 2019 / arXiv:1902.08069): an executable Adversarial Queuing Theory
simulator, the paper's PTS / PPTS / HPTS forwarding algorithms and their tree
variants, the Section 5 lower-bound adversary and greedy baselines.  The
``benchmarks/bench_*.py`` scripts regenerate every bound as a
measured-vs-theory table through the scenario API below.

Quickstart
----------

Every run is one declarative scenario — *topology x adversary x algorithm x
run policy* — built with the fluent front door (:mod:`repro.api`):

>>> from repro import Scenario
>>> report = (Scenario.line(64)
...           .algorithm("ppts")
...           .adversary("round-robin", rho=1.0, sigma=2, rounds=200,
...                      num_destinations=8)
...           .run())
>>> report.result.max_occupancy <= 1 + 8 + 2   # Proposition 3.2
True

The lower-level pieces (topologies, algorithms, adversaries, the simulator)
remain importable directly and are what the registered names resolve to.
"""

from .api import (
    ADVERSARIES,
    ALGORITHMS,
    TOPOLOGIES,
    AdversarySpec,
    AlgorithmSpec,
    RunPolicy,
    RunReport,
    Scenario,
    ScenarioSpec,
    Session,
    TopologySpec,
    register_adversary,
    register_algorithm,
    register_topology,
    reports_to_table,
)
from .adversary import (
    HotspotAdversary,
    InjectionPattern,
    LowerBoundConstruction,
    check_bounded,
    ell_reduction,
    load_pattern,
    random_line_adversary,
    save_pattern,
    tightest_sigma,
)
from .analysis import (
    build_report,
    check_against_bound,
    check_invariants,
    format_table,
    latency_breakdown,
)
from .baselines import ALL_POLICIES, GreedyForwarding
from .checkpoint import (
    Checkpoint,
    load_checkpoint,
    restore_simulator,
    save_checkpoint,
)
from .core import (
    DownhillForwarding,
    HierarchicalPartition,
    HierarchicalPeakToSink,
    Injection,
    LocalThresholdForwarding,
    Packet,
    ParallelPeakToSink,
    PeakToSink,
    TreeParallelPeakToSink,
    TreePeakToSink,
    bounds,
    make_injection,
)
from .experiments import EXPERIMENTS, get_experiment
from .network import (
    ForestTopology,
    LineTopology,
    SimulationResult,
    Simulator,
    TreeTopology,
    binary_tree,
    caterpillar_tree,
    forest_of,
    random_tree,
    run_simulation,
    star_tree,
)

__version__ = "1.0.0"

__all__ = [
    "ADVERSARIES",
    "ALGORITHMS",
    "TOPOLOGIES",
    "AdversarySpec",
    "AlgorithmSpec",
    "RunPolicy",
    "RunReport",
    "Scenario",
    "ScenarioSpec",
    "Session",
    "TopologySpec",
    "register_adversary",
    "register_algorithm",
    "register_topology",
    "reports_to_table",
    "HotspotAdversary",
    "InjectionPattern",
    "LowerBoundConstruction",
    "check_bounded",
    "ell_reduction",
    "load_pattern",
    "random_line_adversary",
    "save_pattern",
    "tightest_sigma",
    "build_report",
    "check_against_bound",
    "check_invariants",
    "format_table",
    "latency_breakdown",
    "ALL_POLICIES",
    "GreedyForwarding",
    "Checkpoint",
    "load_checkpoint",
    "restore_simulator",
    "save_checkpoint",
    "DownhillForwarding",
    "HierarchicalPartition",
    "HierarchicalPeakToSink",
    "Injection",
    "LocalThresholdForwarding",
    "Packet",
    "ParallelPeakToSink",
    "PeakToSink",
    "TreeParallelPeakToSink",
    "TreePeakToSink",
    "bounds",
    "make_injection",
    "EXPERIMENTS",
    "get_experiment",
    "ForestTopology",
    "LineTopology",
    "SimulationResult",
    "Simulator",
    "TreeTopology",
    "binary_tree",
    "caterpillar_tree",
    "forest_of",
    "random_tree",
    "run_simulation",
    "star_tree",
    "__version__",
]
