"""Locality-limited forwarding on the line (the paper's "open problems" direction).

The paper's algorithms are centralized: PTS needs to locate the globally
left-most bad buffer each round.  Its concluding section highlights
*decentralized (local)* algorithms as the main open problem, pointing at the
line of work [Dobrev et al. 2017; Patt-Shamir & Rosenbaum 2017, 2019] where a
node's forwarding decision may depend only on the buffers within a fixed
radius ``r``, and where ``Theta(rho * ceil(log n / r) + sigma)`` space is
necessary and sufficient for the single-destination line.

This module provides the locality-``r`` *framework* and two concrete rules so
the tradeoff between locality and buffer space can be studied experimentally:

* :class:`LocalThresholdForwarding` — forward whenever some buffer within the
  ``r``-neighbourhood to the left (including the node itself) is bad.  With
  ``r >= n`` this is exactly PTS; with ``r = 0`` each node reacts only to its
  own load.
* :class:`DownhillForwarding` — the classical "forward if my buffer is at
  least as full as my successor's" gradient rule, a fully local (r = 1)
  heuristic included as a baseline.

These are **extensions beyond the paper's published algorithms**: no bound
from the paper is claimed for them (``theoretical_bound`` returns ``None``
except for the ``r >= n`` case, which inherits the PTS bound).  The extension
benchmark ``bench_ext_locality.py`` measures how the achieved occupancy decays
as the locality radius grows.
"""

from __future__ import annotations

from typing import Hashable, List, Optional

from ..api.registry import register_algorithm
from ..network.errors import ConfigurationError, SchedulingError
from ..network.topology import LineTopology
from .packet import Packet
from .pseudobuffer import QueueDiscipline
from .scheduler import Activation, ForwardingAlgorithm
from . import bounds

__all__ = ["LocalThresholdForwarding", "DownhillForwarding"]


@register_algorithm("local")
class LocalThresholdForwarding(ForwardingAlgorithm):
    """Single-destination forwarding using only an ``r``-neighbourhood view.

    Each node ``i`` activates (forwards one packet toward the destination) in
    a round iff some buffer ``i'`` with ``i - r <= i' <= i`` currently holds at
    least ``threshold`` packets.  Intuitively a node forwards when there is
    congestion *behind or at* itself that it can help clear; because a node
    never reacts to congestion further than ``r`` away, the rule can be
    implemented with ``r`` rounds of local communication.

    Parameters
    ----------
    topology:
        The line.
    locality:
        The radius ``r >= 0``.  ``locality >= n`` recovers PTS exactly (the
        left-most bad buffer is always within view of every node right of it).
    destination:
        The common destination (defaults to the right end of the line).
    threshold:
        Load at which a buffer counts as congested (the paper's "bad" notion
        corresponds to the default of 2).
    """

    def __init__(
        self,
        topology: LineTopology,
        locality: int,
        destination: Optional[int] = None,
        *,
        threshold: int = 2,
        discipline: QueueDiscipline = QueueDiscipline.LIFO,
    ) -> None:
        if locality < 0:
            raise ConfigurationError(f"locality must be >= 0, got {locality}")
        if threshold < 1:
            raise ConfigurationError(f"threshold must be >= 1, got {threshold}")
        # "Bad" for this rule means load >= threshold (2 recovers the paper's
        # badness), so the base class's index finds the left-most congested
        # buffer, where the walk in select_activations starts.
        super().__init__(topology, discipline=discipline, bad_threshold=threshold)
        if destination is None:
            destination = topology.num_nodes - 1
        max_destination = (
            topology.num_nodes if topology.allow_virtual_sink else topology.num_nodes - 1
        )
        if not (1 <= destination <= max_destination):
            raise ConfigurationError(
                f"destination {destination} outside [1, {max_destination}]"
            )
        self.locality = locality
        self.threshold = threshold
        self.destination = destination
        self.name = f"Local-r{locality}"

    def classify(self, packet: Packet, node: int) -> Hashable:
        if packet.destination != self.destination:
            raise SchedulingError(
                f"{self.name} is single-destination (w={self.destination}); got a "
                f"packet for {packet.destination}"
            )
        return self.destination

    def select_activations(self, round_number: int) -> List[Activation]:
        last_buffer = min(self.destination - 1, self.topology.num_nodes - 1)
        start = self._index.leftmost_bad(self.destination, 0, last_buffer)
        if start is None:
            return []
        # Walk right from the left-most bad buffer, remembering the last bad
        # one seen: node i is in some bad buffer's view iff that one is.
        buffers = self.buffers
        activations: List[Activation] = []
        last_bad = start
        for i in range(start, last_buffer + 1):
            load = buffers[i].load
            if load >= self.threshold:
                last_bad = i
            if load and i - last_bad <= self.locality:
                activations.append(Activation(node=i, key=self.destination))
        return activations

    def theoretical_bound(self, sigma: float) -> Optional[float]:
        """The PTS bound when the view is global; no claimed bound otherwise."""
        if self.locality >= self.topology.num_nodes and self.threshold == 2:
            return bounds.pts_upper_bound(sigma)
        return None


@register_algorithm("downhill")
class DownhillForwarding(ForwardingAlgorithm):
    """The gradient rule: forward iff my buffer is no smaller than my successor's.

    A node looks only at its own load and its immediate successor's load
    (locality 1 in the *downstream* direction) and forwards whenever doing so
    cannot create a larger pile downstream.  This is the natural
    "water-flows-downhill" heuristic; it is work-conserving at the front of
    any backlog and fully local, which makes it a useful reference point for
    the locality experiments.
    """

    name = "Downhill"

    def __init__(
        self,
        topology: LineTopology,
        destination: Optional[int] = None,
        *,
        discipline: QueueDiscipline = QueueDiscipline.LIFO,
    ) -> None:
        super().__init__(topology, discipline=discipline)
        if destination is None:
            destination = topology.num_nodes - 1
        self.destination = destination

    def classify(self, packet: Packet, node: int) -> Hashable:
        if packet.destination != self.destination:
            raise SchedulingError(
                f"Downhill is single-destination (w={self.destination}); got a "
                f"packet for {packet.destination}"
            )
        return self.destination

    def select_activations(self, round_number: int) -> List[Activation]:
        last_buffer = min(self.destination - 1, self.topology.num_nodes - 1)
        buffers = self.buffers
        activations: List[Activation] = []
        for i in range(last_buffer + 1):
            load = buffers[i].load
            if load == 0:
                continue
            if i == last_buffer:
                successor_load = 0
            else:
                successor_load = buffers[i + 1].load
            if load >= successor_load:
                activations.append(Activation(node=i, key=self.destination))
        return activations
