"""Round records, event logs and simulation results.

The simulator produces one :class:`RoundRecord` per round (when history
recording is enabled) and a :class:`SimulationResult` summary at the end.
The naming follows the paper's timing convention: quantities measured "at
round t" are taken after the injection step and before forwarding (the
configuration ``L^t``); quantities "at t+" are taken after forwarding
(``L^{t+}``).  :class:`OccupancyTimeline` folds each round's ``L^t``
measurement into the running maxima the summary reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Union

__all__ = ["HistoryPolicy", "RoundRecord", "SimulationResult", "OccupancyTimeline"]


class HistoryPolicy(Enum):
    """How much per-round state a simulation retains.

    * ``FULL`` — keep a :class:`RoundRecord` per round (memory grows linearly
      with the execution length) and retain every :class:`Packet` ever
      injected.  Required by per-round analyses and the invariant tests.
    * ``SUMMARY`` — fold occupancy maxima, latency and delivery statistics
      incrementally (no round records) but still retain all packet objects
      for post-run inspection.  The default, matching the seed engine's
      observable results bit for bit.
    * ``STREAMING`` — fold statistics incrementally *and* release packets at
      delivery: ``Simulator.packets`` holds only in-flight packets, and the
      injection log lives in a compact columnar
      :class:`~repro.core.packet.PacketStore`.  Memory is O(packets in
      flight), which is what makes million-node, long-horizon runs fit.

    Summary statistics (``SimulationResult`` minus ``history``) are identical
    across all three policies on the same scenario.
    """

    FULL = "full"
    SUMMARY = "summary"
    STREAMING = "streaming"

    @classmethod
    def coerce(cls, value: Union["HistoryPolicy", str]) -> "HistoryPolicy":
        """Accept either a member or its string value (JSON specs)."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise ValueError(
                f"unknown history policy {value!r}; "
                f"expected one of {[p.value for p in cls]}"
            ) from None


@dataclass(frozen=True, slots=True)
class RoundRecord:
    """Everything observed during a single round.

    Slotted: full-history runs keep one record per executed round, so long
    horizons allocate these in bulk.
    """

    #: Round index ``t`` (0-based).
    round: int
    #: Packets injected by the adversary this round.
    injected: int
    #: Packets forwarded across some edge this round.
    forwarded: int
    #: Packets absorbed at their destination this round.
    delivered: int
    #: ``max_i |L^t(i)|`` — occupancy after injection, before forwarding.
    max_occupancy: int
    #: ``max_i |L^{t+}(i)|`` — occupancy after forwarding.
    max_occupancy_after_forwarding: int
    #: Packets injected but not yet accepted by the algorithm (HPTS staging).
    staged: int
    #: Per-node occupancy after injection (present only when history is verbose).
    occupancy: Optional[Dict[int, int]] = None


@dataclass(slots=True)
class SimulationResult:
    """Summary of one simulated execution.

    Slotted like every other hot-path record: sweeps hold one of these per
    scenario, and the no-``__dict__`` regression test covers it.
    """

    #: Name of the forwarding algorithm.
    algorithm: str
    #: Number of buffers in the topology.
    num_nodes: int
    #: Rounds actually executed (horizon plus drain rounds).
    rounds_executed: int
    #: ``max_t max_i |L^t(i)|`` — the quantity every bound in the paper is about.
    max_occupancy: int
    #: Per-node maxima of ``|L^t(i)|`` over the execution.
    max_occupancy_per_node: Dict[int, int] = field(default_factory=dict)
    #: Largest number of staged (injected-but-unaccepted) packets at any time.
    max_staged: int = 0
    #: Total packets injected / delivered over the execution.
    packets_injected: int = 0
    packets_delivered: int = 0
    #: Packets still undelivered when the simulation stopped.
    packets_undelivered: int = 0
    #: Maximum and mean delivery latency (rounds from injection to delivery).
    max_latency: Optional[int] = None
    mean_latency: Optional[float] = None
    #: Whether every injected packet was delivered before the simulation ended.
    drained: bool = True
    #: Per-round records (only populated when history recording is on).
    history: List[RoundRecord] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Delivered packets per round."""
        if self.rounds_executed == 0:
            return 0.0
        return self.packets_delivered / self.rounds_executed

    def occupancy_timeline(self) -> List[int]:
        """``max_i |L^t(i)|`` per round (empty if history was not recorded)."""
        return [record.max_occupancy for record in self.history]

    def summary_row(self) -> Dict[str, object]:
        """A flat dict suitable for the table formatter and benchmark output."""
        return {
            "algorithm": self.algorithm,
            "n": self.num_nodes,
            "rounds": self.rounds_executed,
            "max_occupancy": self.max_occupancy,
            "injected": self.packets_injected,
            "delivered": self.packets_delivered,
            "max_latency": self.max_latency,
            "drained": self.drained,
        }


class OccupancyTimeline:
    """Incremental tracker of per-node and global occupancy maxima.

    :meth:`observe` folds one measurement: the current load of every node
    whose load changed since the previous measurement.  A node absent from
    it had the same load as at the previous measurement, which is already
    folded into the maxima, so skipping it cannot lose a peak; a full
    snapshot is just a measurement that names every node.

    :attr:`max_per_node` only ever contains nodes whose load exceeded zero at
    some measurement (a maximum is recorded only when a load strictly
    exceeds the running value, which starts at 0), and :attr:`max_occupancy`
    is always the largest of its values.
    """

    __slots__ = ("max_occupancy", "max_per_node", "max_staged")

    def __init__(self) -> None:
        self.max_occupancy = 0
        self.max_per_node: Dict[int, int] = {}
        self.max_staged = 0

    def observe(self, loads: Dict[int, int], staged: int = 0) -> None:
        """Fold one measurement ``{node: load}`` into the running maxima."""
        if staged > self.max_staged:
            self.max_staged = staged
        max_per_node = self.max_per_node
        for node, load in loads.items():
            if load > max_per_node.get(node, 0):
                max_per_node[node] = load
                if load > self.max_occupancy:
                    self.max_occupancy = load

    def per_node_maxima(self) -> Dict[int, int]:
        """``{node: max load}`` over all measurements (nodes that exceeded 0)."""
        return dict(self.max_per_node)

    def load_maxima(self, maxima: Dict[int, int]) -> None:
        """Overwrite the per-node maxima (checkpoint restore)."""
        self.max_per_node = dict(maxima)
