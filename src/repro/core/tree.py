"""PTS and PPTS on directed in-trees — Appendix B.2, Propositions B.3 and 3.5.

All edges point toward the root and every packet follows the directed path
from its injection site to a destination that is one of its ancestors.  The
edge orientation induces the partial order ``u \\preceq v`` ("``u`` is upstream
of ``v``"), under which:

* **Tree PTS** (single destination, the root): find the minimal antichain of
  bad buffers (nodes holding >= 2 packets that no other bad buffer lies
  below), and activate every node that has a bad buffer in its subtree —
  equivalently, the union of the paths from the minimal bad buffers to the
  root.  Bound: ``2 + sigma`` (Proposition B.3).
* **Tree PPTS** (destination set ``W``): process destinations in reverse
  topological order (root-most first); for each, activate the union of paths
  from the minimal ``k``-bad buffers to ``w_k``, skipping nodes already
  activated for an earlier (root-ward) destination.  Bound: ``1 + d' + sigma``
  where ``d'`` is the maximum number of destinations on a leaf-root path
  (Proposition 3.5).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Set

from ..api.registry import register_algorithm
from ..network.errors import ConfigurationError, SchedulingError
from ..network.topology import TreeTopology
from .packet import Packet
from .pseudobuffer import NodeBuffer, QueueDiscipline
from .scheduler import Activation, ForwardingAlgorithm
from . import bounds

__all__ = ["TreePeakToSink", "TreeParallelPeakToSink"]


@register_algorithm("tree-pts", aliases=("tree_pts",))
class TreePeakToSink(ForwardingAlgorithm):
    """Single-destination PTS on a directed in-tree (Proposition B.3).

    Parameters
    ----------
    topology:
        The in-tree.
    destination:
        The common destination; defaults to the root (and must be an ancestor
        of every injection site, which the simulator's route validation
        enforces anyway).
    """

    name = "TreePTS"

    def __init__(
        self,
        topology: TreeTopology,
        destination: Optional[int] = None,
        *,
        discipline: QueueDiscipline = QueueDiscipline.LIFO,
    ) -> None:
        super().__init__(topology, discipline=discipline)
        self.tree = topology
        self._parent = topology.next_hop_table()
        self.destination = destination if destination is not None else topology.root

    def classify(self, packet: Packet, node: int) -> Hashable:
        if packet.destination != self.destination:
            raise SchedulingError(
                f"TreePTS is single-destination (w={self.destination}); got a packet "
                f"for {packet.destination}"
            )
        return self.destination

    def select_activations(self, round_number: int) -> List[Activation]:
        # The bad index iterates ascending, matching the buffers-dict order
        # (node buffers are created in sorted order).
        w = self.destination
        bad_nodes = [node for node in self._index.bad(w) if node != w]
        if not bad_nodes:
            return []
        # Activate every node v (other than the destination) whose subtree
        # contains a bad buffer, i.e. the union of bad-to-destination paths.
        activations: List[Activation] = []
        _activate_paths(self._parent, self.buffers, bad_nodes, w, set(), activations)
        return activations

    def theoretical_bound(self, sigma: float) -> float:
        """Proposition B.3: ``2 + sigma``."""
        return bounds.pts_upper_bound(sigma)


@register_algorithm("tree-ppts", aliases=("tree_ppts",))
class TreeParallelPeakToSink(ForwardingAlgorithm):
    """Multi-destination PPTS on a directed in-tree (Algorithm 6, Proposition 3.5).

    Parameters
    ----------
    topology:
        The in-tree.
    destinations:
        The destination set ``W``.  May be omitted to let the algorithm
        discover destinations from the traffic, exactly as on the line.
    """

    name = "TreePPTS"

    def __init__(
        self,
        topology: TreeTopology,
        destinations: Optional[Sequence[int]] = None,
        *,
        discipline: QueueDiscipline = QueueDiscipline.LIFO,
    ) -> None:
        super().__init__(topology, discipline=discipline)
        self.tree = topology
        self._parent = topology.next_hop_table()
        self._declared_destinations: Optional[List[int]] = None
        if destinations is not None:
            node_set = set(topology.nodes)
            for w in destinations:
                if w not in node_set:
                    raise ConfigurationError(f"destination {w} is not a tree node")
            self._declared_destinations = self._topological_sort(set(destinations))
        self._observed_destinations: Set[int] = set()
        #: :meth:`destinations` reversed (root-most first), cached until
        #: :meth:`classify` first sees a destination or a restore replaces
        #: the set.
        self._root_first_cache: Optional[List[int]] = None

    # -- packet placement --------------------------------------------------------

    def classify(self, packet: Packet, node: int) -> Hashable:
        w = packet.destination
        if w not in self._observed_destinations:
            self._observed_destinations.add(w)
            self._root_first_cache = None
        return w

    # -- forwarding decisions ------------------------------------------------------

    def select_activations(self, round_number: int) -> List[Activation]:
        activations: List[Activation] = []
        activated: Set[int] = set()
        is_upstream = self.tree.is_upstream
        # Reverse topological order: root-most destinations first, exactly as
        # Algorithm 6 iterates k = d-1 downto 0 over a topologically sorted W.
        for w in self._root_first():
            bad_nodes = [
                node for node in self._index.bad(w)
                if node != w and is_upstream(node, w)
            ]
            if bad_nodes:
                _activate_paths(
                    self._parent, self.buffers, self._minimal_antichain(bad_nodes, w),
                    w, activated, activations,
                )
        return activations

    def theoretical_bound(self, sigma: float) -> Optional[float]:
        """Proposition 3.5: ``1 + d' + sigma``."""
        destinations = self.destinations()
        if not destinations:
            return None
        depth = self.tree.destination_depth(destinations)
        return bounds.tree_ppts_upper_bound(depth, sigma)

    # -- queries ------------------------------------------------------------------

    def destinations(self) -> List[int]:
        """The destination set in topological order (descendants before ancestors)."""
        if self._declared_destinations is not None:
            return list(self._declared_destinations)
        return self._topological_sort(self._observed_destinations)

    def destination_depth(self) -> int:
        """``d'`` for the current destination set."""
        destinations = self.destinations()
        if not destinations:
            return 0
        return self.tree.destination_depth(destinations)

    # -- checkpoint support --------------------------------------------------------

    def checkpoint_state(self) -> dict:
        return {"observed": sorted(self._observed_destinations)}

    def restore_checkpoint_state(self, state: dict, packets) -> None:
        self._observed_destinations = set(state["observed"])
        self._root_first_cache = None

    # -- internals ----------------------------------------------------------------

    def _topological_sort(self, destinations: set) -> List[int]:
        """Sort so that ``w_i`` upstream of ``w_j`` implies ``i < j`` (by depth, descending)."""
        return sorted(destinations, key=lambda w: (-self.tree.depth(w), w))

    def _root_first(self) -> List[int]:
        """The destinations root-most first (cached :meth:`destinations`, reversed)."""
        order = self._root_first_cache
        if order is None:
            order = self._root_first_cache = self.destinations()[::-1]
        return order

    def _minimal_antichain(self, nodes: List[int], w: int) -> List[int]:
        """The low-antichain ``min(B)`` of ``nodes`` (bad nodes strictly below
        ``w``): those with no other bad node strictly below them, in order.

        Marks the strict ancestors of each bad node up to ``w``; a walk stops
        at the first node already marked, whose ancestors an earlier walk
        marked, so each node is marked once.
        """
        parent = self._parent
        above_bad: Set[int] = set()
        for bad in nodes:
            node = parent[bad]
            while node != w and node not in above_bad:
                above_bad.add(node)
                node = parent[node]
        return [bad for bad in nodes if bad not in above_bad]


def _activate_paths(
    parent: Dict[int, Optional[int]],
    buffers: Dict[int, NodeBuffer],
    starts: List[int],
    w: int,
    activated: Set[int],
    activations: List[Activation],
) -> None:
    """Activate every nonempty ``w`` queue on the paths from ``starts`` up to
    ``w`` (exclusive), skipping nodes in ``activated``.

    Each walk follows parent pointers up to the first node already
    activated.  That is exact: the walk that activated it, for ``w`` or for
    a destination processed earlier, activated its whole path to that
    destination, and a destination processed earlier is ``w`` itself or a
    root-ward ancestor of ``w`` whenever both lie above one node.
    """
    for node in starts:
        while node != w and node not in activated:
            activated.add(node)
            if buffers[node].load_of(w):
                activations.append(Activation(node, w))
            node = parent[node]
