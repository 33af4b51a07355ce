"""Unit tests for forests (repro.network.forest) and tree algorithms on them."""

from __future__ import annotations

import pytest

from repro.adversary.base import InjectionPattern
from repro.adversary.stress import tree_convergecast_stress
from repro.core.bounds import tree_ppts_upper_bound
from repro.core.tree import TreeParallelPeakToSink
from repro.network.errors import TopologyError
from repro.network.forest import ForestTopology, forest_of
from repro.network.simulator import run_simulation
from repro.network.topology import TreeTopology, caterpillar_tree


def _two_component_forest() -> ForestTopology:
    """A chain 2 -> 1 -> 0 and a star {11, 12} -> 10."""
    return forest_of(
        [
            {0: None, 1: 0, 2: 1},
            {10: None, 11: 10, 12: 10},
        ]
    )


class TestConstruction:
    def test_components_and_roots(self):
        forest = _two_component_forest()
        assert forest.num_components == 2
        assert sorted(forest.roots()) == [0, 10]
        assert forest.num_nodes == 6
        assert forest.num_edges == 4

    def test_overlapping_components_rejected(self):
        with pytest.raises(TopologyError):
            forest_of([{0: None, 1: 0}, {1: None, 2: 1}])

    def test_empty_forest_rejected(self):
        with pytest.raises(TopologyError):
            ForestTopology([])

    def test_component_lookup(self):
        forest = _two_component_forest()
        assert forest.component(2).root == 0
        assert forest.component(11).root == 10
        with pytest.raises(TopologyError):
            forest.component(99)


class TestRouting:
    def test_paths_within_components(self):
        forest = _two_component_forest()
        assert forest.path(2, 0) == [2, 1, 0]
        assert forest.path(11, 10) == [11, 10]
        assert forest.next_hop(2) == 1
        assert forest.next_hop(10) is None

    def test_cross_component_routes_rejected(self):
        forest = _two_component_forest()
        with pytest.raises(TopologyError):
            forest.path(2, 10)
        with pytest.raises(TopologyError):
            forest.validate_route(11, 0)

    def test_is_upstream_false_across_components(self):
        forest = _two_component_forest()
        assert forest.is_upstream(2, 0)
        assert not forest.is_upstream(2, 10)

    def test_path_contains(self):
        forest = _two_component_forest()
        assert forest.path_contains(2, 0, 1)
        assert not forest.path_contains(2, 0, 0)
        assert not forest.path_contains(2, 0, 11)


def _three_component_forest() -> ForestTopology:
    """A chain 2 -> 1 -> 0, a star {4, 5} -> 3 and a tree 9 -> 7 -> 6 <- 8."""
    return forest_of(
        [
            {0: None, 1: 0, 2: 1},
            {3: None, 4: 3, 5: 3},
            {6: None, 7: 6, 8: 6, 9: 7},
        ]
    )


class _SetReference:
    """The forest queries answered by building each component's node set,
    with the same results and ``TopologyError`` messages the forest gives."""

    def __init__(self, forest: ForestTopology) -> None:
        self.forest = forest

    def is_upstream(self, u: int, v: int) -> bool:
        component = self.forest.component(u)
        if v not in set(component.nodes):
            return False
        return component.is_upstream(u, v)

    def path_contains(self, source: int, destination: int, buffer: int) -> bool:
        component = self.forest.component(source)
        nodes = set(component.nodes)
        if destination not in nodes or buffer not in nodes:
            return False
        return component.path_contains(source, destination, buffer)

    def validate_route(self, source: int, destination: int) -> None:
        component = self.forest.component(source)
        if destination not in set(component.nodes):
            raise TopologyError(
                f"no route from {source} to {destination}: the nodes lie in "
                f"different forest components"
            )
        component.validate_route(source, destination)

    def destination_depth(self, destinations) -> int:
        known = set(self.forest.nodes)
        missing = [w for w in destinations if w not in known]
        if missing:
            raise TopologyError(f"destinations {missing} are not forest nodes")
        best = 0
        for tree in self.forest.trees:
            local = [w for w in destinations if w in set(tree.nodes)]
            if local:
                best = max(best, tree.destination_depth(local))
        return best


def _outcome(query, *args):
    try:
        return ("value", query(*args))
    except TopologyError as error:
        return ("error", str(error))


class TestQueriesMatchSetReference:
    """Component membership by identity answers exactly what set membership
    did, unknown ids -1 and ``num_nodes`` included."""

    forest = _three_component_forest()
    reference = _SetReference(forest)
    ids = [-1, *forest.nodes, forest.num_nodes]

    def test_every_pair(self):
        for u in self.ids:
            for v in self.ids:
                for name in ("is_upstream", "validate_route"):
                    assert _outcome(getattr(self.forest, name), u, v) == _outcome(
                        getattr(self.reference, name), u, v
                    ), (name, u, v)
                assert _outcome(self.forest.destination_depth, [u, v]) == _outcome(
                    self.reference.destination_depth, [u, v]
                ), ("destination_depth", u, v)

    def test_every_triple(self):
        for source in self.ids:
            for destination in self.ids:
                for buffer in self.ids:
                    args = (source, destination, buffer)
                    assert _outcome(self.forest.path_contains, *args) == _outcome(
                        self.reference.path_contains, *args
                    ), args

    def test_unknown_and_cross_component_route_errors(self):
        forest = self.forest
        with pytest.raises(TopologyError, match=r"^node -1 is not in the forest$"):
            forest.validate_route(-1, 0)
        with pytest.raises(TopologyError, match=r"^node 10 is not in the forest$"):
            forest.is_upstream(10, 0)
        for source, destination in ((2, 3), (0, 10), (9, -1)):
            with pytest.raises(
                TopologyError,
                match=rf"^no route from {source} to {destination}: the nodes lie in "
                r"different forest components$",
            ):
                forest.validate_route(source, destination)
        with pytest.raises(
            TopologyError, match=r"^destinations \[-1, 10\] are not forest nodes$"
        ):
            forest.destination_depth([0, -1, 3, 10])
        assert not forest.is_upstream(2, 10)
        assert not forest.path_contains(2, 0, -1)


class TestTreeQuerySurface:
    def test_leaves_depth_subtree(self):
        forest = _two_component_forest()
        assert sorted(forest.leaves()) == [2, 11, 12]
        assert forest.depth(2) == 2
        assert forest.depth(11) == 1
        assert forest.subtree(10) == [10, 11, 12]
        assert forest.children(10) == [11, 12]
        assert forest.parent(1) == 0

    def test_destination_depth_is_max_over_components(self):
        forest = _two_component_forest()
        # Component 1: destinations {0, 1} stack on one path (depth 2);
        # component 2: only the root 10 (depth 1).
        assert forest.destination_depth([0, 1, 10]) == 2
        with pytest.raises(TopologyError):
            forest.destination_depth([0, 99])

    def test_leaf_root_paths_cover_both_components(self):
        forest = _two_component_forest()
        paths = forest.leaf_root_paths()
        assert [2, 1, 0] in paths
        assert [11, 10] in paths


class TestTreeAlgorithmsOnForests:
    def test_ppts_respects_bound_on_union_of_caterpillars(self):
        """The open-problem topology: TreePPTS runs unchanged on a forest and
        meets 1 + d' + sigma with d' the max component destination depth."""
        first = caterpillar_tree(4, 1)
        # Relabel the second caterpillar so node ids do not collide.
        template = caterpillar_tree(5, 2)
        offset = 100
        second = TreeTopology(
            {
                v + offset: (
                    None if template.parent(v) is None else template.parent(v) + offset
                )
                for v in template.nodes
            }
        )
        forest = ForestTopology([first, second])
        destinations = (
            [v for v in first.nodes if first.children(v)]
            + [v for v in second.nodes if second.children(v)]
        )
        sigma = 2
        pattern = tree_convergecast_stress(forest, 1.0, sigma, 120, destinations)
        algorithm = TreeParallelPeakToSink(forest, destinations=destinations)
        result = run_simulation(forest, algorithm, pattern)
        d_prime = forest.destination_depth(destinations)
        assert result.max_occupancy <= tree_ppts_upper_bound(d_prime, sigma)
        assert result.packets_injected > 0

    def test_components_evolve_independently(self):
        forest = _two_component_forest()
        algorithm = TreeParallelPeakToSink(forest, destinations=[0, 10])
        pattern = InjectionPattern.from_tuples(
            [(0, 2, 0), (0, 2, 0), (0, 11, 10)]
        )
        result = run_simulation(forest, algorithm, pattern, drain=False)
        # The bad buffer in the chain forwards; the lone packet in the star
        # stays (no badness there), proving decisions are per-component.
        assert result.max_occupancy == 2
        assert algorithm.occupancy(11) == 1
