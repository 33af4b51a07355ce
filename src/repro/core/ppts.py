"""Parallel Peak-to-Sink (PPTS) forwarding — Algorithm 2, Proposition 3.2.

Each node partitions its buffer into per-destination pseudo-buffers ("virtual
output queuing").  Going from the right-most destination to the left-most,
PPTS finds the left-most bad pseudo-buffer for that destination that lies to
the left of everything already activated, and activates the interval of that
destination's pseudo-buffers from there up to (but not past) the activation
frontier.  By construction the activated intervals are pairwise disjoint, so
the forwarding pattern is feasible (Lemma B.1).

Proposition 3.2: against any ``(rho, sigma)``-bounded adversary whose packets
use ``d`` distinct destinations, the maximum buffer occupancy is at most
``1 + d + sigma``.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence

from ..api.registry import register_algorithm
from ..network.errors import ConfigurationError
from ..network.topology import LineTopology
from .packet import Packet
from .pseudobuffer import QueueDiscipline
from .scheduler import Activation, ForwardingAlgorithm
from . import bounds

__all__ = ["ParallelPeakToSink"]


@register_algorithm("ppts")
class ParallelPeakToSink(ForwardingAlgorithm):
    """The multi-destination PPTS algorithm on a line.

    Parameters
    ----------
    topology:
        The line.
    destinations:
        The destination set ``W``.  May be omitted, in which case the
        algorithm discovers destinations from the packets it stores — the
        paper notes PPTS "need not be told the set of destinations in
        advance".
    """

    name = "PPTS"

    def __init__(
        self,
        topology: LineTopology,
        destinations: Optional[Sequence[int]] = None,
        *,
        discipline: QueueDiscipline = QueueDiscipline.LIFO,
    ) -> None:
        super().__init__(topology, discipline=discipline)
        self._declared_destinations: Optional[List[int]] = None
        if destinations is not None:
            max_destination = (
                topology.num_nodes
                if topology.allow_virtual_sink
                else topology.num_nodes - 1
            )
            cleaned = sorted(set(destinations))
            for w in cleaned:
                if not (1 <= w <= max_destination):
                    raise ConfigurationError(
                        f"destination {w} outside [1, {max_destination}]"
                    )
            self._declared_destinations = cleaned
        #: Destinations actually observed among injected packets.
        self._observed_destinations: set = set()

    # -- ForwardingAlgorithm interface ------------------------------------------

    def classify(self, packet: Packet, node: int) -> Hashable:
        self._observed_destinations.add(packet.destination)
        return packet.destination

    def select_activations(self, round_number: int) -> List[Activation]:
        destinations = self.destinations()
        activations: List[Activation] = []
        buffers = self.buffers
        # The activation frontier: nothing to its right may be activated for
        # the remaining (smaller) destinations.  It starts past the largest
        # destination, playing the role of the sentinel "w_d" in Algorithm 2.
        frontier = self.topology.num_nodes
        if destinations:
            frontier = max(
                frontier, max(destinations)
            )  # virtual-sink destinations can exceed n - 1
        for w in reversed(destinations):
            last = min(frontier - 1, w - 1, self.topology.num_nodes - 1)
            bad = self._index.leftmost_bad(w, 0, last)
            if bad is None:
                continue
            activations.extend(
                Activation(node=i, key=w)
                for i in range(bad, last + 1)
                if buffers[i].load_of(w)
            )
            frontier = bad
        return activations

    def theoretical_bound(self, sigma: float) -> Optional[float]:
        """Proposition 3.2: ``1 + d + sigma`` (``None`` before any packet is seen)."""
        destinations = self.destinations()
        if not destinations:
            return None
        return bounds.ppts_upper_bound(len(destinations), sigma)

    # -- queries ------------------------------------------------------------------

    def destinations(self) -> List[int]:
        """The destination set ``W`` currently in force, sorted ascending."""
        if self._declared_destinations is not None:
            return list(self._declared_destinations)
        return sorted(self._observed_destinations)

    # -- checkpoint support --------------------------------------------------------

    def checkpoint_state(self) -> dict:
        # Discovered destinations persist even after their packets drain, so
        # they cannot be reconstructed from the buffers alone.
        return {"observed": sorted(self._observed_destinations)}

    def restore_checkpoint_state(self, state: dict, packets) -> None:
        self._observed_destinations = set(state["observed"])
