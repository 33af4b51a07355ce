"""Network substrate: topologies, the simulation engine and its records."""

from .errors import (
    BoundednessViolationError,
    CapacityViolationError,
    ConfigurationError,
    ReproError,
    SchedulingError,
    ShardingError,
    ShardingProtocolError,
    TopologyError,
    UnshardableScenarioError,
)
from .events import HistoryPolicy, OccupancyTimeline, RoundRecord, SimulationResult
from .forest import ForestTopology, forest_of
from .sharded import plan_segments, run_sharded
from .simulator import Simulator, run_simulation
from .topology import (
    LineTopology,
    Topology,
    TreeTopology,
    binary_tree,
    caterpillar_tree,
    random_tree,
    star_tree,
)

__all__ = [
    "BoundednessViolationError",
    "CapacityViolationError",
    "ConfigurationError",
    "ReproError",
    "SchedulingError",
    "ShardingError",
    "ShardingProtocolError",
    "TopologyError",
    "UnshardableScenarioError",
    "plan_segments",
    "run_sharded",
    "HistoryPolicy",
    "OccupancyTimeline",
    "RoundRecord",
    "SimulationResult",
    "ForestTopology",
    "forest_of",
    "Simulator",
    "run_simulation",
    "LineTopology",
    "Topology",
    "TreeTopology",
    "binary_tree",
    "caterpillar_tree",
    "random_tree",
    "star_tree",
]
