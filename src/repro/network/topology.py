"""Network topologies: directed paths ("lines") and directed in-trees.

The paper mostly works on the directed path ``0 -> 1 -> ... -> n-1``
(Section 2) and extends the algorithms to directed trees whose edges all
point toward the root (Appendix B.2).  Both topologies expose the same small
interface used by the simulator and the forwarding algorithms:

* ``nodes`` / ``edges``             — vertex and edge sets,
* ``next_hop(v)``                   — the unique out-neighbour of ``v``,
* ``path(u, w)``                    — the node sequence from ``u`` to ``w``,
* ``path_contains(u, w, v)``        — whether ``v`` lies on ``Path(u, w)``,
* ``is_upstream(u, v)``             — the partial order ``u \\preceq v``.

Trees are parent pointers plus DFS entry/exit stamps, so the hot-path queries
(``next_hop``, ``path_contains``, ``is_upstream``, ``validate_route``) are
answered in O(1), not by graph traversals; :func:`random_tree` draws with
:mod:`random`.  :mod:`networkx` is imported only by the export and import
helpers (``to_networkx`` / ``from_networkx``), so running a scenario never
loads it.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from ..api.registry import register_topology
from .errors import TopologyError

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "Topology",
    "LineTopology",
    "TreeTopology",
    "random_tree",
    "caterpillar_tree",
    "star_tree",
    "binary_tree",
    "build_tree_topology",
]

Edge = Tuple[int, int]


class Topology(ABC):
    """Abstract base class for the directed topologies supported by the paper."""

    #: Human-readable name used in experiment tables.
    kind: str = "abstract"

    @property
    @abstractmethod
    def nodes(self) -> Sequence[int]:
        """All node identifiers."""

    @property
    @abstractmethod
    def edges(self) -> Sequence[Edge]:
        """All directed edges ``(u, v)`` with ``v`` the out-neighbour of ``u``."""

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @abstractmethod
    def next_hop(self, node: int) -> Optional[int]:
        """The unique out-neighbour of ``node``, or ``None`` for a sink."""

    def next_hop_table(self) -> Dict[int, Optional[int]]:
        """Precomputed ``node -> next_hop(node)`` map for the whole topology.

        Built once and cached; the simulator consults this on every forwarded
        packet instead of paying per-call bounds checks.  Topologies are
        immutable after construction, so the cache never goes stale.
        """
        table = getattr(self, "_next_hop_table", None)
        if table is None:
            table = {node: self.next_hop(node) for node in self.nodes}
            self._next_hop_table = table
        return table

    @abstractmethod
    def path(self, source: int, destination: int) -> List[int]:
        """The node sequence of ``Path(source, destination)`` (inclusive)."""

    @abstractmethod
    def path_contains(self, source: int, destination: int, buffer: int) -> bool:
        """Whether ``buffer`` lies on ``Path(source, destination)``.

        Matches the paper's ``N_T(v)`` accounting: a packet injected at
        ``source`` with destination ``destination`` "crosses" every buffer
        ``v`` on its path, *excluding* the destination itself (the packet is
        absorbed there and never occupies that buffer).
        """

    @abstractmethod
    def validate_route(self, source: int, destination: int) -> None:
        """Raise :class:`TopologyError` if no directed route exists."""

    def distance(self, source: int, destination: int) -> int:
        """Number of edges on ``Path(source, destination)``."""
        return len(self.path(source, destination)) - 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(n={self.num_nodes})"


@register_topology("line")
class LineTopology(Topology):
    """The directed path ``0 -> 1 -> ... -> n-1`` used throughout the paper.

    Packets always travel left-to-right.  A destination may be any node index
    in ``1 .. n`` — the value ``n`` is permitted as a *virtual sink* beyond the
    last buffer, matching the Section 5 lower-bound construction where type-1
    packets have destination ``n``.

    Parameters
    ----------
    num_nodes:
        Number of buffers ``n``.  Buffers are indexed ``0 .. n-1``.
    allow_virtual_sink:
        When ``True`` (default), destination ``n`` is accepted and modelled as
        an absorbing sink immediately to the right of buffer ``n-1``.
    """

    kind = "line"

    def __init__(self, num_nodes: int, *, allow_virtual_sink: bool = True) -> None:
        if num_nodes < 2:
            raise TopologyError(f"a line needs at least 2 nodes, got {num_nodes}")
        self._num_nodes = num_nodes
        self.allow_virtual_sink = allow_virtual_sink
        # The node set is a range (O(1) memory however long the line); the
        # edge list is materialised lazily — a million-node simulation never
        # asks for it, only drawing/analysis code does.
        self._nodes = range(num_nodes)
        self._edges: Optional[List[Edge]] = None

    # -- Topology interface ----------------------------------------------------

    @property
    def nodes(self) -> Sequence[int]:
        return self._nodes

    @property
    def edges(self) -> Sequence[Edge]:
        if self._edges is None:
            self._edges = [(i, i + 1) for i in range(self._num_nodes - 1)]
        return self._edges

    @property
    def num_edges(self) -> int:
        return self._num_nodes - 1

    def next_hop(self, node: int) -> Optional[int]:
        self._check_node(node)
        if node == self._num_nodes - 1:
            return self._num_nodes if self.allow_virtual_sink else None
        return node + 1

    def path(self, source: int, destination: int) -> List[int]:
        self.validate_route(source, destination)
        return list(range(source, destination + 1))

    def path_contains(self, source: int, destination: int, buffer: int) -> bool:
        # A packet occupies buffers source .. destination - 1; it is absorbed
        # at the destination, so the destination buffer is not "crossed".
        return source <= buffer < destination

    def validate_route(self, source: int, destination: int) -> None:
        self._check_node(source)
        max_dest = self._num_nodes if self.allow_virtual_sink else self._num_nodes - 1
        if not (0 <= destination <= max_dest):
            raise TopologyError(
                f"destination {destination} outside [0, {max_dest}]"
            )
        if destination <= source:
            raise TopologyError(
                f"no directed route from {source} to {destination} on a line"
            )

    # -- line-specific helpers ---------------------------------------------------

    def _check_node(self, node: int) -> None:
        if not (0 <= node < self._num_nodes):
            raise TopologyError(f"node {node} outside [0, {self._num_nodes - 1}]")

    def buffers_crossed(self, source: int, destination: int) -> range:
        """The buffers a packet with this route occupies at some point."""
        self.validate_route(source, destination)
        return range(source, destination)

    def to_networkx(self) -> nx.DiGraph:
        """Export as a :class:`networkx.DiGraph` (for drawing / analysis).

        :mod:`networkx` is imported here, on first use, not with the module.
        """
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(self.nodes)
        graph.add_edges_from(self.edges)
        return graph


class TreeTopology(Topology):
    """A directed in-tree: every edge points toward the root (Appendix B.2).

    Parameters
    ----------
    parent:
        Mapping from each non-root node to its parent.  Exactly one node must
        be absent from the mapping (or map to ``None``): the root.

    Notes
    -----
    The orientation of edges toward the root induces the partial order
    ``u \\preceq v`` iff ``v`` is on the unique path from ``u`` to the root
    (Appendix B.2).  Leaves are minimal, the root is maximal.
    """

    kind = "tree"

    def __init__(self, parent: Dict[int, Optional[int]]) -> None:
        cleaned = {child: p for child, p in parent.items() if p is not None}
        explicit_roots = {child for child, p in parent.items() if p is None}
        all_nodes = set(cleaned) | set(cleaned.values()) | explicit_roots
        roots = (all_nodes - set(cleaned)) | explicit_roots
        if len(roots) != 1:
            raise TopologyError(
                f"a directed tree must have exactly one root, found {sorted(roots)}"
            )
        self.root = next(iter(roots))
        self._parent: Dict[int, Optional[int]] = dict(cleaned)
        self._parent[self.root] = None
        self._nodes = sorted(all_nodes)
        self._node_set = set(self._nodes)
        self._edges = [(child, p) for child, p in sorted(cleaned.items())]
        self._children: Dict[int, List[int]] = {v: [] for v in self._nodes}
        for child, p in cleaned.items():
            self._children[p].append(child)
        self._depth: Dict[int, int] = {}
        #: DFS entry and exit stamps: ``u \preceq v`` iff ``v``'s interval
        #: ``[_entry[v], _exit[v])`` contains ``_entry[u]``.
        self._entry: Dict[int, int] = {}
        self._exit: Dict[int, int] = {}
        self._stamp()
        self._validate_acyclic()

    # -- construction helpers ----------------------------------------------------

    def _stamp(self) -> None:
        """One iterative DFS from the root: depths and entry/exit stamps."""
        depth, entry, exit_ = self._depth, self._entry, self._exit
        children = self._children
        depth[self.root] = 0
        clock = 0
        stack = [(self.root, False)]
        while stack:
            node, done = stack.pop()
            if done:
                exit_[node] = clock
                continue
            entry[node] = clock
            clock += 1
            stack.append((node, True))
            for child in children[node]:
                depth[child] = depth[node] + 1
                stack.append((child, False))

    def _validate_acyclic(self) -> None:
        if len(self._depth) != len(self._nodes):
            unreachable = sorted(self._node_set - set(self._depth))
            raise TopologyError(
                f"parent map contains a cycle or disconnected nodes: {unreachable}"
            )

    # -- Topology interface ----------------------------------------------------

    @property
    def nodes(self) -> Sequence[int]:
        return self._nodes

    @property
    def edges(self) -> Sequence[Edge]:
        return self._edges

    def next_hop(self, node: int) -> Optional[int]:
        self._check_node(node)
        return self._parent[node]

    def path(self, source: int, destination: int) -> List[int]:
        self.validate_route(source, destination)
        result = [source]
        node = source
        while node != destination:
            node = self._parent[node]  # type: ignore[assignment]
            result.append(node)
        return result

    def path_contains(self, source: int, destination: int, buffer: int) -> bool:
        if buffer == destination:
            return False
        if not self.is_upstream(source, buffer):
            return False
        return self.is_upstream(buffer, destination)

    def validate_route(self, source: int, destination: int) -> None:
        if not self.is_upstream(source, destination) or source == destination:
            raise TopologyError(
                f"no directed route from {source} to {destination} "
                f"(destination must be a strict ancestor of the source)"
            )

    # -- tree-specific helpers ----------------------------------------------------

    def _check_node(self, node: int) -> None:
        if node not in self._node_set:
            raise self._unknown(node)

    def _unknown(self, *nodes: int) -> TopologyError:
        """The error for the first of ``nodes`` that is not in the tree."""
        missing = next(node for node in nodes if node not in self._node_set)
        return TopologyError(f"node {missing} is not in the tree")

    def parent(self, node: int) -> Optional[int]:
        """The parent of ``node`` (``None`` for the root)."""
        self._check_node(node)
        return self._parent[node]

    def children(self, node: int) -> List[int]:
        """The children of ``node`` (nodes whose edges point into ``node``)."""
        self._check_node(node)
        return list(self._children[node])

    def depth(self, node: int) -> int:
        """Distance from ``node`` to the root."""
        self._check_node(node)
        return self._depth[node]

    @property
    def height(self) -> int:
        """Maximum depth over all nodes."""
        return max(self._depth.values())

    def leaves(self) -> List[int]:
        """Nodes with no children."""
        return [v for v in self._nodes if not self._children[v]]

    def is_upstream(self, u: int, v: int) -> bool:
        """The partial order ``u \\preceq v``: is ``v`` on the path from ``u`` to root?

        O(1): ``u`` lies in the subtree of ``v`` exactly when ``u`` was
        entered during ``v``'s DFS interval.
        """
        entry = self._entry
        try:
            entered = entry[u]
            start = entry[v]
        except KeyError:
            raise self._unknown(u, v) from None
        return start <= entered < self._exit[v]

    def subtree(self, v: int) -> List[int]:
        """All nodes ``u`` with ``u \\preceq v`` (the subtree rooted at ``v``)."""
        self._check_node(v)
        result = []
        frontier = [v]
        while frontier:
            node = frontier.pop()
            result.append(node)
            frontier.extend(self._children[node])
        return sorted(result)

    def leaf_root_paths(self) -> List[List[int]]:
        """Every leaf-to-root path (used to compute the destination depth d')."""
        return [self.path(leaf, self.root) for leaf in self.leaves()]

    def destination_depth(self, destinations: Iterable[int]) -> int:
        """``d'``: the maximum number of destinations on any leaf-root path.

        Proposition 3.5 bounds the tree-PPTS buffer usage by ``1 + d' + sigma``.
        """
        destination_set = set(destinations)
        for w in destination_set:
            self._check_node(w)
        best = 0
        for path in self.leaf_root_paths():
            count = sum(1 for v in path if v in destination_set)
            best = max(best, count)
        return best

    def to_networkx(self) -> nx.DiGraph:
        """Export as a :class:`networkx.DiGraph` with edges toward the root.

        :mod:`networkx` is imported here, on first use, not with the module.
        """
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(self.nodes)
        graph.add_edges_from(self.edges)
        return graph

    @classmethod
    def from_networkx(cls, graph: nx.DiGraph) -> "TreeTopology":
        """Build from a DiGraph whose edges already point toward the root.

        Only the graph's ``nodes`` and ``edges`` are read; :mod:`networkx` is
        needed solely to build ``graph`` and is not imported here.
        """
        parent: Dict[int, Optional[int]] = {}
        for u, v in graph.edges:
            if u in parent:
                raise TopologyError(f"node {u} has more than one outgoing edge")
            parent[u] = v
        for node in graph.nodes:
            parent.setdefault(node, None)
        return cls(parent)


# ---------------------------------------------------------------------------
# Tree generators used by tests, examples and the E3 benchmark.
# ---------------------------------------------------------------------------


def random_tree(num_nodes: int, seed: Optional[int] = None) -> TreeTopology:
    """A uniformly random labelled in-tree on ``num_nodes`` nodes rooted at 0.

    Each node ``v > 0`` picks a parent uniformly among nodes with a smaller
    label, which yields a random recursive tree — a standard easy-to-reason
    random tree family whose expected height is Theta(log n).
    """
    if num_nodes < 1:
        raise TopologyError("a tree needs at least 1 node")
    rng = random.Random(seed)
    parent: Dict[int, Optional[int]] = {0: None}
    for v in range(1, num_nodes):
        parent[v] = rng.randrange(v)
    return TreeTopology(parent)


def caterpillar_tree(spine_length: int, legs_per_node: int = 1) -> TreeTopology:
    """A caterpillar: a path (spine) toward the root with leaves attached.

    Caterpillars are the worst case for the destination-depth parameter ``d'``
    because every spine node can be a destination on a single leaf-root path.
    """
    if spine_length < 1:
        raise TopologyError("spine_length must be >= 1")
    if legs_per_node < 0:
        raise TopologyError("legs_per_node must be >= 0")
    parent: Dict[int, Optional[int]] = {0: None}
    next_id = 1
    spine = [0]
    for _ in range(spine_length - 1):
        parent[next_id] = spine[-1]
        spine.append(next_id)
        next_id += 1
    for spine_node in spine:
        for _ in range(legs_per_node):
            parent[next_id] = spine_node
            next_id += 1
    return TreeTopology(parent)


def star_tree(num_leaves: int) -> TreeTopology:
    """A star: ``num_leaves`` leaves all pointing at the root 0.

    The star is the best case for ``d'`` (at most 1 destination per leaf-root
    path besides the root) and a stress test for fan-in at the root.
    """
    if num_leaves < 1:
        raise TopologyError("a star needs at least 1 leaf")
    parent: Dict[int, Optional[int]] = {0: None}
    for leaf in range(1, num_leaves + 1):
        parent[leaf] = 0
    return TreeTopology(parent)


@register_topology("tree")
def build_tree_topology(family: str = "caterpillar", **params) -> TreeTopology:
    """Registry entry point for trees: build a named family from spec params.

    Families and their params:

    * ``"caterpillar"`` — ``spine_length``, ``legs_per_node``;
    * ``"star"``        — ``num_leaves``;
    * ``"binary"``      — ``depth``;
    * ``"random"``      — ``num_nodes``, ``seed``;
    * ``"parent"``      — ``parent``: an explicit child -> parent mapping
      (string keys from JSON are coerced to ints; the root maps to ``None``).
    """
    builders = {
        "caterpillar": caterpillar_tree,
        "star": star_tree,
        "binary": binary_tree,
        "random": random_tree,
    }
    if family in builders:
        return builders[family](**params)
    if family == "parent":
        try:
            parent_map = params.pop("parent")
        except KeyError:
            raise TopologyError('tree family "parent" needs a "parent" mapping') from None
        if params:
            raise TopologyError(
                f'unexpected params {sorted(params)} for tree family "parent"'
            )
        return TreeTopology(
            {int(child): (None if p is None else int(p)) for child, p in parent_map.items()}
        )
    raise TopologyError(
        f"unknown tree family {family!r}; expected one of "
        f"{sorted(builders) + ['parent']}"
    )


def binary_tree(depth: int) -> TreeTopology:
    """A complete binary in-tree of the given depth rooted at node 0.

    Node ``i`` has children ``2i + 1`` and ``2i + 2`` (heap layout), and all
    edges point from children toward parents.
    """
    if depth < 0:
        raise TopologyError("depth must be >= 0")
    num_nodes = 2 ** (depth + 1) - 1
    parent: Dict[int, Optional[int]] = {0: None}
    for v in range(1, num_nodes):
        parent[v] = (v - 1) // 2
    return TreeTopology(parent)
