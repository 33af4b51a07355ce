"""Greedy scheduling policies from classical Adversarial Queuing Theory.

Classical AQT (Borodin et al.; Bhattacharjee, Goel & Lotker) studies *greedy*
protocols: whenever a buffer holds a packet for a link, some packet crosses
that link this round.  The only freedom is the priority rule used to pick
which packet.  The paper's algorithms are deliberately *not* greedy (they may
idle a link even when packets wait); these policies are the baselines the E5
and E8 benchmarks compare against.

Each policy is a keying function: given a packet and the current round, return
a sort key; the packet with the smallest key is forwarded.  Ties are broken by
packet id, which makes executions deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..api.registry import RegistryError
from ..core.packet import Packet

__all__ = [
    "GreedyPolicy",
    "longest_in_system",
    "shortest_in_system",
    "nearest_to_go",
    "furthest_to_go",
    "fifo",
    "lifo",
    "ALL_POLICIES",
    "policy_by_name",
]


@dataclass(frozen=True)
class GreedyPolicy:
    """A named greedy priority rule.

    Attributes
    ----------
    name:
        Short identifier used in tables (e.g. ``"LIS"``).
    description:
        One-line explanation.
    key:
        Function ``(packet, arrival_round) -> sortable`` — the packet with the
        minimum key is forwarded first.  ``arrival_round`` is the round in
        which the packet arrived at its *current* node (needed by FIFO/LIFO).
    """

    name: str
    description: str
    key: Callable[[Packet, int], Tuple]

    def __call__(self, packet: Packet, arrival_round: int) -> Tuple:
        return self.key(packet, arrival_round)


longest_in_system = GreedyPolicy(
    name="LIS",
    description="Longest-In-System: oldest injection round first",
    key=lambda packet, arrival: (packet.injected_round, packet.packet_id),
)

shortest_in_system = GreedyPolicy(
    name="SIS",
    description="Shortest-In-System: newest injection round first",
    key=lambda packet, arrival: (-packet.injected_round, packet.packet_id),
)

nearest_to_go = GreedyPolicy(
    name="NTG",
    description="Nearest-To-Go: smallest remaining distance first",
    key=lambda packet, arrival: (packet.remaining_distance, packet.packet_id),
)

furthest_to_go = GreedyPolicy(
    name="FTG",
    description="Furthest-To-Go: largest remaining distance first",
    key=lambda packet, arrival: (-packet.remaining_distance, packet.packet_id),
)

fifo = GreedyPolicy(
    name="FIFO",
    description="First-In-First-Out at each buffer: earliest arrival first",
    key=lambda packet, arrival: (arrival, packet.packet_id),
)

lifo = GreedyPolicy(
    name="LIFO",
    description="Last-In-First-Out at each buffer: latest arrival first",
    key=lambda packet, arrival: (-arrival, packet.packet_id),
)

#: Every built-in policy, in the order used by comparison tables.
ALL_POLICIES: Tuple[GreedyPolicy, ...] = (
    fifo,
    lifo,
    longest_in_system,
    shortest_in_system,
    nearest_to_go,
    furthest_to_go,
)

_POLICY_INDEX: Dict[str, GreedyPolicy] = {p.name: p for p in ALL_POLICIES}


def policy_by_name(name: str) -> GreedyPolicy:
    """Look up a built-in policy by its short name (case-insensitive)."""
    policy: Optional[GreedyPolicy] = _POLICY_INDEX.get(name.upper())
    if policy is None:
        raise RegistryError("greedy policy", name, _POLICY_INDEX)
    return policy
