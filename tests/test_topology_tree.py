"""Unit tests for directed in-trees (repro.network.topology.TreeTopology)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.errors import TopologyError
from repro.network.topology import (
    TreeTopology,
    binary_tree,
    caterpillar_tree,
    random_tree,
    star_tree,
)


class TestConstruction:
    def test_simple_tree(self):
        tree = TreeTopology({0: None, 1: 0, 2: 0, 3: 1})
        assert tree.root == 0
        assert sorted(tree.nodes) == [0, 1, 2, 3]
        assert set(tree.edges) == {(1, 0), (2, 0), (3, 1)}

    def test_root_can_be_implicit(self):
        tree = TreeTopology({1: 0, 2: 1})
        assert tree.root == 0

    def test_two_roots_rejected(self):
        with pytest.raises(TopologyError):
            TreeTopology({1: 0, 3: 2})

    def test_cycle_rejected(self):
        with pytest.raises(TopologyError):
            TreeTopology({0: None, 1: 2, 2: 1})

    def test_from_networkx_roundtrip(self):
        original = caterpillar_tree(3, 1)
        rebuilt = TreeTopology.from_networkx(original.to_networkx())
        assert set(rebuilt.edges) == set(original.edges)
        assert rebuilt.root == original.root


class TestStructureQueries:
    def test_parent_children_depth(self):
        tree = TreeTopology({0: None, 1: 0, 2: 0, 3: 1, 4: 1})
        assert tree.parent(3) == 1
        assert tree.parent(0) is None
        assert sorted(tree.children(1)) == [3, 4]
        assert tree.depth(0) == 0
        assert tree.depth(4) == 2
        assert tree.height == 2

    def test_leaves(self):
        tree = TreeTopology({0: None, 1: 0, 2: 0, 3: 1})
        assert sorted(tree.leaves()) == [2, 3]

    def test_is_upstream_partial_order(self):
        tree = TreeTopology({0: None, 1: 0, 2: 1, 3: 1})
        assert tree.is_upstream(2, 0)
        assert tree.is_upstream(2, 1)
        assert tree.is_upstream(2, 2)
        assert not tree.is_upstream(1, 2)
        assert not tree.is_upstream(2, 3)

    def test_subtree(self):
        tree = TreeTopology({0: None, 1: 0, 2: 1, 3: 1, 4: 0})
        assert tree.subtree(1) == [1, 2, 3]
        assert tree.subtree(0) == [0, 1, 2, 3, 4]

    def test_next_hop_is_parent(self):
        tree = TreeTopology({0: None, 1: 0, 2: 1})
        assert tree.next_hop(2) == 1
        assert tree.next_hop(0) is None


def _walk_is_upstream(tree: TreeTopology, u: int, v: int) -> bool:
    """``u \\preceq v`` by its definition: ``v`` is on ``u``'s parent chain."""
    node = u
    while node is not None:
        if node == v:
            return True
        node = tree.parent(node)
    return False


#: The four tree families, relabelled by an offset so node ids need not
#: start at 0 or be contiguous with the probes outside the tree.
TREE_FAMILIES = st.tuples(
    st.one_of(
        st.builds(random_tree, st.integers(1, 40), st.integers(0, 2**16)),
        st.builds(caterpillar_tree, st.integers(1, 8), st.integers(0, 3)),
        st.builds(star_tree, st.integers(1, 15)),
        st.builds(binary_tree, st.integers(0, 4)),
    ),
    st.sampled_from([0, 7]),
).map(
    lambda pair: TreeTopology(
        {
            node + pair[1]: None if pair[0].parent(node) is None
            else pair[0].parent(node) + pair[1]
            for node in pair[0].nodes
        }
    )
)


class TestStampedAncestry:
    """``is_upstream`` answers from DFS stamps; the parent walk is the spec."""

    @settings(max_examples=80, deadline=None)
    @given(TREE_FAMILIES)
    def test_is_upstream_equals_parent_walk_on_every_pair(self, tree):
        for u in tree.nodes:
            for v in tree.nodes:
                assert tree.is_upstream(u, v) is _walk_is_upstream(tree, u, v), (u, v)
                if u != v and _walk_is_upstream(tree, u, v):
                    tree.validate_route(u, v)
                    path = tree.path(u, v)
                    assert path[0] == u and path[-1] == v
                else:
                    with pytest.raises(TopologyError):
                        tree.validate_route(u, v)

    @settings(max_examples=40, deadline=None)
    @given(TREE_FAMILIES, st.sampled_from([-1, 1000, 6]))
    def test_nodes_outside_the_tree_raise(self, tree, outside):
        if outside in tree.nodes:
            outside = max(tree.nodes) + 1
        inside = tree.nodes[0]
        for call in (
            lambda: tree.is_upstream(outside, inside),
            lambda: tree.is_upstream(inside, outside),
            lambda: tree.is_upstream(outside, outside),
            lambda: tree.path(outside, tree.root),
            lambda: tree.path(inside, outside),
            lambda: tree.validate_route(outside, tree.root),
            lambda: tree.validate_route(inside, outside),
            lambda: tree.validate_route(outside, outside),
        ):
            with pytest.raises(TopologyError, match=f"node {outside} is not in the tree"):
                call()


class TestRouting:
    def test_path_toward_root(self):
        tree = TreeTopology({0: None, 1: 0, 2: 1, 3: 2})
        assert tree.path(3, 0) == [3, 2, 1, 0]
        assert tree.path(3, 1) == [3, 2, 1]

    def test_invalid_routes_rejected(self):
        tree = TreeTopology({0: None, 1: 0, 2: 0})
        with pytest.raises(TopologyError):
            tree.path(1, 2)  # siblings: no directed path
        with pytest.raises(TopologyError):
            tree.path(0, 1)  # downward: against edge orientation
        with pytest.raises(TopologyError):
            tree.validate_route(1, 1)

    def test_path_contains_excludes_destination(self):
        tree = TreeTopology({0: None, 1: 0, 2: 1, 3: 2})
        assert tree.path_contains(3, 0, 3)
        assert tree.path_contains(3, 0, 1)
        assert not tree.path_contains(3, 0, 0)
        assert not tree.path_contains(2, 1, 3)


class TestDestinationDepth:
    def test_single_destination_root(self):
        tree = caterpillar_tree(4, 1)
        assert tree.destination_depth([tree.root]) == 1

    def test_spine_destinations_on_caterpillar(self):
        tree = caterpillar_tree(5, 1)
        spine = [v for v in tree.nodes if tree.children(v)]
        depth = tree.destination_depth(spine)
        assert depth == len(spine)

    def test_star_depth_is_at_most_two(self):
        tree = star_tree(5)
        destinations = [tree.root, 1, 2]
        assert tree.destination_depth(destinations) == 2

    def test_unknown_destination_rejected(self):
        tree = star_tree(3)
        with pytest.raises(TopologyError):
            tree.destination_depth([99])


class TestGenerators:
    def test_random_tree_is_connected_and_rooted_at_zero(self):
        tree = random_tree(40, seed=7)
        assert tree.root == 0
        assert len(tree.nodes) == 40
        for node in tree.nodes:
            assert tree.is_upstream(node, 0)

    def test_random_tree_deterministic_for_seed(self):
        assert random_tree(25, seed=3).edges == random_tree(25, seed=3).edges

    def test_caterpillar_shape(self):
        tree = caterpillar_tree(spine_length=4, legs_per_node=2)
        assert len(tree.nodes) == 4 + 4 * 2
        assert tree.height == 4  # deepest leg hangs off the deepest spine node

    def test_star_shape(self):
        tree = star_tree(9)
        assert len(tree.leaves()) == 9
        assert tree.height == 1

    def test_binary_tree_shape(self):
        tree = binary_tree(3)
        assert len(tree.nodes) == 15
        assert tree.height == 3
        assert len(tree.leaves()) == 8

    def test_generator_validation(self):
        with pytest.raises(TopologyError):
            random_tree(0)
        with pytest.raises(TopologyError):
            caterpillar_tree(0)
        with pytest.raises(TopologyError):
            star_tree(0)
        with pytest.raises(TopologyError):
            binary_tree(-1)
