"""Greedy forwarding algorithms (the baselines the paper improves on).

A :class:`GreedyForwarding` instance is work-conserving: every node holding at
least one packet forwards exactly one packet per round, chosen by a
:class:`~repro.baselines.policies.GreedyPolicy`.  This is the protocol family
studied by classical AQT; its buffer usage on multi-destination lines can grow
with the number of destinations *and* with the adversary's positioning, which
is what the E8 benchmark quantifies against PTS/PPTS/HPTS.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

from ..api.registry import register_algorithm
from ..core.packet import Packet
from ..core.pseudobuffer import QueueDiscipline
from ..core.scheduler import Activation, ForwardingAlgorithm
from ..network.topology import Topology
from .policies import GreedyPolicy, fifo, policy_by_name

__all__ = ["GreedyForwarding", "build_greedy"]

#: Single pseudo-buffer key used by greedy algorithms (no virtual output queuing).
_SINGLE_QUEUE = "queue"


class GreedyForwarding(ForwardingAlgorithm):
    """Work-conserving forwarding with a pluggable priority policy.

    Parameters
    ----------
    topology:
        Line or tree.
    policy:
        The greedy priority rule (defaults to FIFO).
    """

    def __init__(
        self,
        topology: Topology,
        policy: GreedyPolicy = fifo,
        *,
        discipline: QueueDiscipline = QueueDiscipline.FIFO,
    ) -> None:
        super().__init__(topology, discipline=discipline)
        self.policy = policy
        self.name = f"Greedy-{policy.name}"
        #: Round in which each packet arrived at its current node.
        self._arrival_round: Dict[int, int] = {}

    # -- packet placement --------------------------------------------------------

    def classify(self, packet: Packet, node: int) -> Hashable:
        return _SINGLE_QUEUE

    def on_inject(self, round_number: int, packets: List[Packet]) -> None:
        super().on_inject(round_number, packets)
        for packet in packets:
            self._arrival_round[packet.packet_id] = round_number

    def on_arrival(self, packet: Packet, node: int, round_number: int) -> None:
        super().on_arrival(packet, node, round_number)
        self._arrival_round[packet.packet_id] = round_number

    # -- checkpoint support --------------------------------------------------------

    def checkpoint_state(self) -> Dict:
        # Arrival rounds drive the FIFO/LIFO-by-arrival policies, but only
        # for packets still stored somewhere: entries for delivered packets
        # can never be queried again, so the snapshot stays O(packets in
        # flight) no matter how long the run has been going.  Listed by
        # packet id, so the snapshot does not depend on arrival order.
        live = {
            packet.packet_id
            for node_buffer in self.buffers.values()
            for packet in node_buffer.all_packets()
        }
        return {
            "arrival": [
                [packet_id, self._arrival_round[packet_id]]
                for packet_id in sorted(live)
                if packet_id in self._arrival_round
            ]
        }

    def restore_checkpoint_state(self, state: Dict, packets) -> None:
        self._arrival_round = {
            int(packet_id): int(round_number)
            for packet_id, round_number in state["arrival"]
            if int(packet_id) in packets
        }

    # -- forwarding decisions ------------------------------------------------------

    def select_activations(self, round_number: int) -> List[Activation]:
        activations: List[Activation] = []
        for node, node_buffer in self.buffers.items():
            if not node_buffer.load:
                continue
            pseudo = node_buffer.existing(_SINGLE_QUEUE)
            chosen: Optional[Packet] = min(
                pseudo.packets(),
                key=lambda packet: self.policy(
                    packet, self._arrival_round.get(packet.packet_id, 0)
                ),
            )
            activations.append(
                Activation(node=node, key=_SINGLE_QUEUE, packet=chosen)
            )
        return activations


@register_algorithm("greedy")
def build_greedy(
    topology: Topology, policy: object = "FIFO", **params: object
) -> GreedyForwarding:
    """Registry entry point: ``policy`` may be a name ("FIFO", "NTG", ...) or
    a :class:`GreedyPolicy` instance."""
    resolved = policy_by_name(policy) if isinstance(policy, str) else policy
    return GreedyForwarding(topology, resolved, **params)  # type: ignore[arg-type]
