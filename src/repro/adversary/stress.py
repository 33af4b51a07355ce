"""Deterministic stress adversaries that push the algorithms toward their bounds.

The upper-bound propositions are worst-case statements, so a convincing
empirical validation needs workloads that actually approach the bound rather
than leaving the buffers nearly empty.  The constructions here are designed
around the structure of each bound:

* :func:`pts_burst_stress` — drives a single-destination instance toward the
  ``2 + sigma`` PTS bound by spending the whole burst budget at the leftmost
  buffer and then sustaining rate ``rho``.
* :func:`round_robin_destination_stress` — drives PPTS toward its ``d`` term:
  packets with ``d`` distinct destinations are dripped into one node, one
  destination at a time, so each of its ``d`` pseudo-buffers ends up occupied
  (a node with one packet per pseudo-buffer is never "bad", so PPTS rightly
  lets them sit there).
* :func:`nested_route_stress` — edge-disjoint nested routes (the shape used by
  the Omega(d) argument of [Patt-Shamir & Rosenbaum 2017]) that converge on a
  common suffix of the line.
* :func:`hierarchy_stress` — destinations chosen to exercise every level of
  the HPTS hierarchy (one destination per digit position).
* :func:`tree_convergecast_stress` — all leaves of a tree fire toward the
  root, saturating the fan-in.

All constructions are ``(rho, sigma)``-bounded by construction (token-bucket
admission), and the tests verify this with the independent checker.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..api.registry import register_adversary
from ..core.packet import Injection, make_injection
from ..network.errors import ConfigurationError
from ..network.topology import LineTopology, TreeTopology
from .base import InjectionPattern
from .bounded import TokenBucket, tree_span

__all__ = [
    "pts_burst_stress",
    "round_robin_destination_stress",
    "nested_route_stress",
    "hierarchy_stress",
    "tree_convergecast_stress",
    "evenly_spaced_destinations",
]


def evenly_spaced_destinations(num_nodes: int, num_destinations: int) -> List[int]:
    """``d`` destinations spread evenly over ``[1, n-1]``, always ending at ``n-1``."""
    if num_destinations < 1:
        raise ConfigurationError("num_destinations must be >= 1")
    if num_destinations > num_nodes - 1:
        raise ConfigurationError(
            f"cannot place {num_destinations} destinations on {num_nodes} nodes"
        )
    if num_destinations == 1:
        return [num_nodes - 1]
    step = (num_nodes - 1) / num_destinations
    destinations = sorted({max(1, round((k + 1) * step)) for k in range(num_destinations)})
    destinations[-1] = num_nodes - 1
    # Rounding can merge adjacent destinations; fill from the left if needed.
    candidate = 1
    while len(destinations) < num_destinations:
        if candidate not in destinations:
            destinations.append(candidate)
            destinations.sort()
        candidate += 1
    return destinations


def _rate_schedule(num_rounds: int, rho: float) -> List[int]:
    """Rounds at which a rate-``rho`` stream emits a packet (burst 1).

    Emits a packet in round ``t`` whenever ``floor((t+1) rho) > floor(t rho)``,
    which yields ``floor(T rho)`` packets over ``T`` rounds and never exceeds
    rate ``rho`` by more than one packet over any interval.
    """
    schedule = []
    for t in range(num_rounds):
        if int((t + 1) * rho) > int(t * rho):
            schedule.append(t)
    return schedule


def pts_burst_stress(
    topology: LineTopology,
    rho: float,
    sigma: float,
    num_rounds: int,
    *,
    destination: Optional[int] = None,
) -> InjectionPattern:
    """Single-destination stress for Proposition 3.1.

    Round 0 spends the entire burst budget at buffer 0 (``sigma + 1`` packets,
    the most any single round may put across one buffer when ``rho <= 1``),
    then a sustained stream at rate ``rho`` keeps the pressure on.  Under PTS
    the leftmost buffer should hover near the ``2 + sigma`` bound.
    """
    destination = destination if destination is not None else topology.num_nodes - 1
    topology.validate_route(0, destination)
    bucket = TokenBucket(topology.num_nodes, rho, sigma)
    injections: List[Injection] = []
    for t in range(num_rounds):
        bucket.start_round()
        while bucket.admit_line(0, destination):
            injections.append(make_injection(t, 0, destination))
    return InjectionPattern(injections, rho=rho, sigma=sigma)


def round_robin_destination_stress(
    topology: LineTopology,
    rho: float,
    sigma: float,
    num_rounds: int,
    num_destinations: int,
    *,
    source: int = 0,
) -> InjectionPattern:
    """Multi-destination stress for Proposition 3.2.

    All packets are injected at one source and cycle through ``d``
    destinations.  Because consecutive packets go to *different* destinations,
    the source's pseudo-buffers fill up one by one without any of them
    becoming bad, so PPTS correctly leaves them in place and the source's
    occupancy climbs toward ``d`` (plus the burst term).  This is the workload
    that shows the ``+ d`` term of the bound is really paid.
    """
    destinations = evenly_spaced_destinations(topology.num_nodes, num_destinations)
    destinations = [w for w in destinations if w > source]
    if not destinations:
        raise ConfigurationError("no destination lies to the right of the source")
    bucket = TokenBucket(topology.num_nodes, rho, sigma)
    injections: List[Injection] = []
    next_destination = 0
    for t in range(num_rounds):
        bucket.start_round()
        injected = True
        while injected:
            injected = False
            destination = destinations[next_destination % len(destinations)]
            if bucket.admit_line(source, destination):
                injections.append(make_injection(t, source, destination))
                next_destination += 1
                injected = True
    return InjectionPattern(injections, rho=rho, sigma=sigma)


def nested_route_stress(
    topology: LineTopology,
    rho: float,
    sigma: float,
    num_rounds: int,
    num_destinations: int,
) -> InjectionPattern:
    """Edge-disjoint nested routes converging on the right end of the line.

    In each "wave" the adversary injects one packet per destination, with the
    packet for destination ``w_k`` injected at ``w_{k-1}`` (the previous
    destination), so all routes in a wave are edge-disjoint — the wave costs
    only one unit of budget per buffer regardless of ``d``.  As the packets
    flow right they pile into shared buffers near the end of the line, which
    is the mechanism behind the Omega(d) lower bound for ``rho > 1/2`` cited
    in the introduction.
    """
    destinations = evenly_spaced_destinations(topology.num_nodes, num_destinations)
    sources = [0] + destinations[:-1]
    wave = list(zip(sources, destinations))
    # The wave's routes tile [0, w_d) edge-disjointly, so admitting the whole
    # wave atomically (which preserves the nested structure) is admitting one
    # packet across the tiled route 0 -> w_d.
    bucket = TokenBucket(topology.num_nodes, rho, sigma)
    injections: List[Injection] = []
    for t in range(num_rounds):
        bucket.start_round()
        while bucket.admit_line(0, destinations[-1]):
            for src, dst in wave:
                injections.append(make_injection(t, src, dst))
    return InjectionPattern(injections, rho=rho, sigma=sigma)


def hierarchy_stress(
    topology: LineTopology,
    rho: float,
    sigma: float,
    num_rounds: int,
    branching: int,
    levels: int,
) -> InjectionPattern:
    """Stress for HPTS: destinations that force segments at every level.

    From source 0 the adversary cycles through destinations of the form
    ``m**ell - m**j`` for ``j = 0 .. ell-1`` plus the right end of the line,
    so successive packets differ from the source in different digit positions
    and populate pseudo-buffers at every level of the hierarchy.
    """
    n = topology.num_nodes
    if branching**levels != n:
        raise ConfigurationError(
            f"hierarchy_stress needs n = branching**levels, got {n} != "
            f"{branching}**{levels}"
        )
    destinations = sorted(
        {n - branching**j for j in range(levels)} | {n - 1}
    )
    destinations = [w for w in destinations if w >= 1]
    bucket = TokenBucket(n, rho, sigma)
    injections: List[Injection] = []
    next_destination = 0
    for t in range(num_rounds):
        bucket.start_round()
        injected = True
        while injected:
            injected = False
            destination = destinations[next_destination % len(destinations)]
            if bucket.admit_line(0, destination):
                injections.append(make_injection(t, 0, destination))
                next_destination += 1
                injected = True
    return InjectionPattern(injections, rho=rho, sigma=sigma)


def tree_convergecast_stress(
    tree: TreeTopology,
    rho: float,
    sigma: float,
    num_rounds: int,
    destinations: Optional[Sequence[int]] = None,
) -> InjectionPattern:
    """All leaves repeatedly fire packets toward the root (or a destination set).

    This is the "information gathering" workload of [Dobrev et al. 2017] /
    [Rosen & Scalosub 2011] cited by the paper: every leaf produces data that
    must reach the root, so buffers near the root see the highest pressure.
    Destinations other than the root are chosen round-robin per leaf among the
    given set, restricted to ancestors of that leaf.
    """
    if destinations is None:
        destinations = [tree.root]
    destinations = list(destinations)
    node_index = {v: idx for idx, v in enumerate(tree.nodes)}
    bucket = TokenBucket(len(tree.nodes), rho, sigma)
    injections: List[Injection] = []
    leaves = tree.leaves()
    per_leaf_destinations = {
        leaf: [w for w in destinations if w != leaf and tree.is_upstream(leaf, w)]
        for leaf in leaves
    }
    spans = {
        (leaf, w): tree_span(tree, node_index, leaf, w)
        for leaf, options in per_leaf_destinations.items()
        for w in options
    }
    counters = {leaf: 0 for leaf in leaves}
    for t in range(num_rounds):
        bucket.start_round()
        progress = True
        while progress:
            progress = False
            for leaf in leaves:
                options = per_leaf_destinations[leaf]
                if not options:
                    continue
                destination = options[counters[leaf] % len(options)]
                if bucket.admit(spans[leaf, destination]):
                    injections.append(make_injection(t, leaf, destination))
                    counters[leaf] += 1
                    progress = True
    return InjectionPattern(injections, rho=rho, sigma=sigma)


# ---------------------------------------------------------------------------
# Registry entry points (repro.api), uniform convention:
# (topology, *, rho, sigma, rounds, **params).
# ---------------------------------------------------------------------------


@register_adversary("burst", aliases=("stress",))
def build_burst_stress(
    topology: LineTopology,
    *,
    rho: float,
    sigma: float,
    rounds: int,
    destination: Optional[int] = None,
) -> InjectionPattern:
    return pts_burst_stress(topology, rho, sigma, rounds, destination=destination)


@register_adversary("round-robin", aliases=("round_robin",))
def build_round_robin_stress(
    topology: LineTopology,
    *,
    rho: float,
    sigma: float,
    rounds: int,
    num_destinations: int = 8,
    source: int = 0,
) -> InjectionPattern:
    return round_robin_destination_stress(
        topology, rho, sigma, rounds, num_destinations, source=source
    )


@register_adversary("nested")
def build_nested_stress(
    topology: LineTopology,
    *,
    rho: float,
    sigma: float,
    rounds: int,
    num_destinations: int = 8,
) -> InjectionPattern:
    return nested_route_stress(topology, rho, sigma, rounds, num_destinations)


@register_adversary("hierarchy")
def build_hierarchy_stress(
    topology: LineTopology,
    *,
    rho: float,
    sigma: float,
    rounds: int,
    branching: int,
    levels: int,
) -> InjectionPattern:
    return hierarchy_stress(topology, rho, sigma, rounds, branching, levels)


@register_adversary("convergecast")
def build_convergecast_stress(
    topology,
    *,
    rho: float,
    sigma: float,
    rounds: int,
    destinations: Optional[Sequence[int]] = None,
) -> InjectionPattern:
    return tree_convergecast_stress(topology, rho, sigma, rounds, destinations)
