"""Forests: disjoint unions of directed in-trees (the paper's open-problem topology).

The paper's concluding discussion singles out the *union of trees* as an
important next topology, "due to the fact that this topology is the output of
many routing algorithms" (think: the per-destination forwarding trees computed
by a routing protocol).  A forest is the node-disjoint union of directed
in-trees; packets never cross between components, so the tree algorithms apply
component-wise and their bounds hold with ``d'`` taken as the maximum
destination depth over components.

:class:`ForestTopology` exposes the same query surface as
:class:`~repro.network.topology.TreeTopology` (``path``, ``is_upstream``,
``destination_depth``, ...), which means :class:`~repro.core.tree.TreePeakToSink`
and :class:`~repro.core.tree.TreeParallelPeakToSink` run on forests unchanged —
the extension tests and the ``bench_ext_forest`` benchmark exercise exactly
that.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..api.registry import register_topology
from .errors import TopologyError
from .topology import Topology, TreeTopology, build_tree_topology

__all__ = ["ForestTopology", "forest_of", "build_forest_topology"]

Edge = Tuple[int, int]


class ForestTopology(Topology):
    """A node-disjoint union of directed in-trees.

    Parameters
    ----------
    trees:
        The component trees.  Their node sets must be pairwise disjoint; node
        identifiers are global (no re-numbering happens).
    """

    kind = "forest"

    def __init__(self, trees: Sequence[TreeTopology]) -> None:
        if not trees:
            raise TopologyError("a forest needs at least one tree")
        self._trees = list(trees)
        self._component_of: Dict[int, TreeTopology] = {}
        for tree in self._trees:
            for node in tree.nodes:
                if node in self._component_of:
                    raise TopologyError(
                        f"node {node} appears in more than one component tree"
                    )
                self._component_of[node] = tree
        self._nodes = sorted(self._component_of)
        self._edges: List[Edge] = []
        for tree in self._trees:
            self._edges.extend(tree.edges)

    # -- Topology interface ----------------------------------------------------

    @property
    def nodes(self) -> Sequence[int]:
        return self._nodes

    @property
    def edges(self) -> Sequence[Edge]:
        return self._edges

    def next_hop(self, node: int) -> Optional[int]:
        return self._component(node).next_hop(node)

    def path(self, source: int, destination: int) -> List[int]:
        self.validate_route(source, destination)
        return self._component(source).path(source, destination)

    def path_contains(self, source: int, destination: int, buffer: int) -> bool:
        component = self._component(source)
        component_of = self._component_of
        if component_of.get(destination) is not component or (
            component_of.get(buffer) is not component
        ):
            return False
        return component.path_contains(source, destination, buffer)

    def validate_route(self, source: int, destination: int) -> None:
        component = self._component(source)
        if self._component_of.get(destination) is not component:
            raise TopologyError(
                f"no route from {source} to {destination}: the nodes lie in "
                f"different forest components"
            )
        component.validate_route(source, destination)

    # -- forest structure --------------------------------------------------------

    @property
    def trees(self) -> List[TreeTopology]:
        """The component trees."""
        return list(self._trees)

    @property
    def num_components(self) -> int:
        return len(self._trees)

    def component(self, node: int) -> TreeTopology:
        """The component tree containing ``node``."""
        return self._component(node)

    def roots(self) -> List[int]:
        """The root of every component."""
        return [tree.root for tree in self._trees]

    # -- tree-compatible query surface (lets tree algorithms run unchanged) -------

    def parent(self, node: int) -> Optional[int]:
        return self._component(node).parent(node)

    def children(self, node: int) -> List[int]:
        return self._component(node).children(node)

    def depth(self, node: int) -> int:
        return self._component(node).depth(node)

    def leaves(self) -> List[int]:
        result: List[int] = []
        for tree in self._trees:
            result.extend(tree.leaves())
        return sorted(result)

    def is_upstream(self, u: int, v: int) -> bool:
        """``u \\preceq v`` — always false across components."""
        component = self._component(u)
        if self._component_of.get(v) is not component:
            return False
        return component.is_upstream(u, v)

    def subtree(self, v: int) -> List[int]:
        return self._component(v).subtree(v)

    def leaf_root_paths(self) -> List[List[int]]:
        result: List[List[int]] = []
        for tree in self._trees:
            result.extend(tree.leaf_root_paths())
        return result

    def destination_depth(self, destinations: Iterable[int]) -> int:
        """``d'`` over the whole forest: the max component-wise destination depth."""
        destination_list = list(destinations)
        component_of = self._component_of
        missing = [w for w in destination_list if w not in component_of]
        if missing:
            raise TopologyError(f"destinations {missing} are not forest nodes")
        best = 0
        for tree in self._trees:
            local = [w for w in destination_list if component_of[w] is tree]
            if local:
                best = max(best, tree.destination_depth(local))
        return best

    # -- internals ----------------------------------------------------------------

    def _component(self, node: int) -> TreeTopology:
        try:
            return self._component_of[node]
        except KeyError:
            raise TopologyError(f"node {node} is not in the forest") from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ForestTopology(components={self.num_components}, n={self.num_nodes})"


def forest_of(
    parent_maps: Sequence[Dict[int, Optional[int]]],
) -> ForestTopology:
    """Build a forest from one parent map per component (convenience helper)."""
    return ForestTopology([TreeTopology(parent_map) for parent_map in parent_maps])


@register_topology("forest")
def build_forest_topology(components: Sequence[Dict[str, object]]) -> ForestTopology:
    """Registry entry point for forests: one tree-spec dict per component.

    Each component dict uses the same schema as the ``"tree"`` topology kind
    (``{"family": "star", "num_leaves": 8}``, ...).  Components whose node
    ids collide can be shifted with an ``"offset"`` key, which relabels every
    node by that amount before assembling the forest.
    """
    trees = []
    for component in components:
        params = dict(component)
        offset = int(params.pop("offset", 0))
        tree = build_tree_topology(**params)
        if offset:
            tree = TreeTopology(
                {
                    node + offset: (
                        None if tree.parent(node) is None else tree.parent(node) + offset
                    )
                    for node in tree.nodes
                }
            )
        trees.append(tree)
    return ForestTopology(trees)
