"""Peak-to-Sink (PTS) forwarding — Algorithm 1, Proposition 3.1.

All packets share a single destination ``w``.  Each round, PTS finds the
left-most *bad* buffer (one holding at least two packets) and activates every
non-empty buffer from there up to ``w - 1``; they all forward simultaneously.
If no buffer is bad, nothing forwards.

Proposition 3.1: against any ``(rho, sigma)``-bounded adversary with
``rho <= 1``, the maximum buffer occupancy is at most ``2 + sigma``.
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

__all__ = ["PeakToSink"]


@register_algorithm("pts")
class PeakToSink(ForwardingAlgorithm):
    """The single-destination PTS algorithm on a line.

    Parameters
    ----------
    topology:
        The line.
    destination:
        The common destination ``w``; defaults to the right end of the line.
        Packets with any other destination are rejected at injection time.
    work_conserving:
        Optional extension (off by default, see DESIGN.md): when no buffer is
        bad, still forward from every non-empty buffer.  The paper's bound
        holds either way; the extension only reduces latency and is measured
        in the E9 ablation benchmark.
    """

    name = "PTS"

    def __init__(
        self,
        topology: LineTopology,
        destination: Optional[int] = None,
        *,
        work_conserving: bool = False,
        discipline: QueueDiscipline = QueueDiscipline.LIFO,
    ) -> None:
        super().__init__(topology, discipline=discipline)
        if destination is None:
            destination = topology.num_nodes - 1
        max_destination = (
            topology.num_nodes if topology.allow_virtual_sink else topology.num_nodes - 1
        )
        if not (1 <= destination <= max_destination):
            raise ConfigurationError(
                f"destination {destination} outside [1, {max_destination}]"
            )
        self.destination = destination
        self.work_conserving = work_conserving

    # -- ForwardingAlgorithm interface ------------------------------------------

    def classify(self, packet: Packet, node: int) -> Hashable:
        if packet.destination != self.destination:
            raise SchedulingError(
                f"PTS is single-destination (w={self.destination}); got a packet "
                f"for {packet.destination}"
            )
        return self.destination

    def select_activations(self, round_number: int) -> List[Activation]:
        last_buffer = min(self.destination - 1, self.topology.num_nodes - 1)
        leftmost_bad = self._index.leftmost_bad(self.destination, 0, last_buffer)
        if leftmost_bad is None:
            if not self.work_conserving:
                return []
            start = 0
        else:
            start = leftmost_bad
        # Single destination: a node's load is its one queue's length.
        buffers = self.buffers
        w = self.destination
        return [
            Activation(node=i, key=w)
            for i in range(start, last_buffer + 1)
            if buffers[i].load
        ]

    def theoretical_bound(self, sigma: float) -> float:
        """Proposition 3.1: ``2 + sigma``."""
        return bounds.pts_upper_bound(sigma)
