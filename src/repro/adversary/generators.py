"""Randomised (rho, sigma)-bounded adversary generators.

The paper's upper bounds are quantified over *all* ``(rho, sigma)``-bounded
adversaries, so the test-suite and benchmarks exercise the algorithms on a
family of randomly generated bounded patterns in addition to the deterministic
stress constructions of :mod:`repro.adversary.stress`.

Every generator here guarantees boundedness *by construction*: injections are
admitted through a per-buffer :class:`~repro.adversary.bounded.TokenBucket`
(or, for :func:`trickle_adversary`, a bucketless credit counter), so the
returned adversary always passes
:func:`~repro.adversary.bounded.check_bounded` for the declared parameters.

Each generator is written as a *row source* — a
:class:`~repro.adversary.base.ResumableRows` iterator producing one round's
``(source, destination)`` routes at a time — consumed by two interchangeable
front ends:

* the **eager** path drains a fresh stream, round by round, straight into
  the columns of an :class:`~repro.adversary.base.InjectionPattern` (what
  analyses and most tests want) with
  :meth:`~repro.adversary.base.StreamingAdversary.materialize`;
* the **lazy** path (``stream=True``) wraps the same iterator in a
  :class:`~repro.adversary.base.StreamingAdversary`, so a ``T``-round
  schedule is produced round by round and a horizon-scale run never holds
  the whole schedule in memory.

Because both paths consume the identical row stream (and allocate packet ids
in the identical order), a seeded scenario produces *bit-identical* packets
either way.  Unlike the forward-only generators of PR 3, every row source
exposes an explicit ``(round, cursor)`` resume API — ``cursor()`` captures
the RNG / token-bucket / credit state at a round boundary, and ``restore()``
repositions a fresh iterator there without replaying earlier rounds — which
is what lets :mod:`repro.checkpoint` snapshot a mid-flight streaming run.
"""

from __future__ import annotations

import random
from typing import (
    Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union,
)

from ..api.registry import register_adversary
from ..network.errors import ConfigurationError
from ..network.topology import LineTopology, TreeTopology
from .base import (
    InjectionPattern,
    ResumableRows,
    RouteRow,
    StreamingAdversary,
    decode_rng_state,
    encode_rng_state,
)
from .bounded import TokenBucket, tree_span

__all__ = [
    "random_line_adversary",
    "saturating_line_adversary",
    "single_destination_adversary",
    "random_tree_adversary",
    "bursty_adversary",
    "trickle_adversary",
    "hierarchy_random_destinations",
]

#: What the generator functions return: the eager pattern or the lazy stream.
BoundedAdversary = Union[InjectionPattern, StreamingAdversary]


def _pick_destinations(
    topology: LineTopology,
    num_destinations: int,
    rng: random.Random,
) -> List[int]:
    """Pick ``d`` distinct destination nodes (always including the last node)."""
    n = topology.num_nodes
    if num_destinations < 1:
        raise ConfigurationError("num_destinations must be >= 1")
    if num_destinations > n - 1:
        raise ConfigurationError(
            f"cannot place {num_destinations} destinations on a line with {n} nodes"
        )
    candidates = list(range(1, n))
    rng.shuffle(candidates)
    chosen = set(candidates[: num_destinations - 1])
    chosen.add(n - 1)
    while len(chosen) < num_destinations:
        chosen.add(candidates[len(chosen)])
    return sorted(chosen)


def _randbelow(getrandbits: Callable[[int], int], n: int) -> int:
    """A uniform draw from ``range(n)``, ``n >= 1``, bit for bit as
    ``random.randrange(n)`` and ``random.choice`` of a length-``n`` sequence.

    This is the loop CPython (3.10 to 3.12) runs beneath both: draw
    ``n.bit_length()`` bits with ``getrandbits`` and retry while the value
    is out of range.  Calling it skips their argument checks and method
    dispatch; the RNG consumes exactly the same words.
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _front_end(
    factory: Callable[[], Iterator[RouteRow]],
    num_rounds: int,
    *,
    rho: float,
    sigma: float,
    stream: bool,
) -> BoundedAdversary:
    """The shared eager/lazy fork every generator goes through: the eager
    pattern is the stream, materialised before its first round."""
    adversary = StreamingAdversary(factory, num_rounds, rho=rho, sigma=sigma)
    return adversary if stream else adversary.materialize()


def _validate_envelope(rho: float, sigma: float) -> None:
    if not (0 < rho <= 1):
        raise ConfigurationError(f"rho must be in (0, 1], got {rho}")
    if not sigma >= 0:
        raise ConfigurationError(f"sigma must be >= 0, got {sigma}")


def _validate_destination(topology: LineTopology, destination: int) -> None:
    """Refuse a destination no route on this line can reach."""
    max_destination = (
        topology.num_nodes if topology.allow_virtual_sink else topology.num_nodes - 1
    )
    if not (1 <= destination <= max_destination):
        raise ConfigurationError(
            f"destination {destination} outside [1, {max_destination}]"
        )


# ---------------------------------------------------------------------------
# Line generators
# ---------------------------------------------------------------------------


class _BucketRows(ResumableRows):
    """Shared cursor plumbing for RNG + token-bucket row sources.

    All randomised generators carry exactly this mutable state between round
    boundaries: the Mersenne-Twister state and the per-buffer token levels.
    Deterministic derived quantities (destination sets, proposal budgets) are
    recomputed by ``__init__`` from the construction arguments, so a restored
    iterator is indistinguishable from one that generated every round itself.
    """

    def __init__(self, num_rounds: int, rng: random.Random, bucket: TokenBucket) -> None:
        super().__init__(num_rounds)
        self.rng = rng
        self.bucket = bucket

    def state(self) -> Dict[str, Any]:
        return {
            "rng": encode_rng_state(self.rng.getstate()),
            "bucket": self.bucket.state(),
        }

    def set_state(self, state: Mapping[str, Any]) -> None:
        self.rng.setstate(decode_rng_state(state["rng"]))
        self.bucket.set_state(state["bucket"])


class _RandomLineRows(_BucketRows):
    def __init__(
        self,
        topology: LineTopology,
        rho: float,
        sigma: float,
        num_rounds: int,
        num_destinations: int,
        seed: Optional[int],
        intensity: float,
    ) -> None:
        rng = random.Random(seed)
        self.destinations = _pick_destinations(topology, num_destinations, rng)
        super().__init__(num_rounds, rng, TokenBucket(topology.num_nodes, rho, sigma))
        self.intensity = intensity
        # Proposal budget per round: generous enough to use up the bucket when
        # intensity is 1 but bounded so generation stays linear in num_rounds.
        self.proposals_per_round = max(
            4, int(2 * (rho + sigma) * len(self.destinations)) + 4
        )
        # ``randrange(0, w)`` draws ``w.bit_length()`` bits at a time.
        self._widths = [w.bit_length() for w in self.destinations]

    def row(self, round_number: int) -> RouteRow:
        # The hot loop of every bounded line scenario.  ``choice`` and
        # ``randrange`` are inlined as the ``getrandbits`` loop of
        # :func:`_randbelow`, so the RNG consumes the same words.
        random_, getrandbits = self.rng.random, self.rng.getrandbits
        bucket, intensity = self.bucket, self.intensity
        admit_line, last_exhausted = bucket.admit_line, bucket.last_exhausted
        destinations, widths = self.destinations, self._widths
        count = len(destinations)
        count_bits = count.bit_length()
        bucket.start_round()
        # last[r]: the largest dry buffer below destinations[r].  The route
        # [source, w) crosses a dry buffer, and is refused, iff that buffer
        # is >= source; only an admission dries buffers within a round.
        last = [last_exhausted(w) for w in destinations]
        row: RouteRow = []
        for _ in range(self.proposals_per_round):
            if random_() > intensity:
                continue
            r = getrandbits(count_bits)
            while r >= count:
                r = getrandbits(count_bits)
            destination, bits = destinations[r], widths[r]
            source = getrandbits(bits)
            while source >= destination:
                source = getrandbits(bits)
            if source <= last[r]:
                continue
            if admit_line(source, destination):
                row.append((source, destination))
                last = [last_exhausted(w) for w in destinations]
        return row


def random_line_adversary(
    topology: LineTopology,
    rho: float,
    sigma: float,
    num_rounds: int,
    num_destinations: int = 1,
    *,
    seed: Optional[int] = None,
    intensity: float = 1.0,
    stream: bool = False,
) -> BoundedAdversary:
    """A random bounded adversary on a line.

    Each round the generator proposes random ``(source, destination)`` pairs
    (destinations drawn from a fixed set of ``num_destinations`` nodes) and
    admits each proposal only if the token bucket allows it.  ``intensity``
    in ``(0, 1]`` scales how aggressively the generator tries to exhaust its
    budget: 1.0 keeps proposing until the bucket is empty, smaller values
    leave slack.

    Returns an adversary that is ``(rho, sigma)``-bounded by construction:
    an :class:`InjectionPattern` by default, or (``stream=True``) a
    :class:`StreamingAdversary` producing the identical schedule lazily.
    """
    _validate_envelope(rho, sigma)
    if not (0 < intensity <= 1):
        raise ConfigurationError(f"intensity must be in (0, 1], got {intensity}")
    _pick_destinations(topology, num_destinations, random.Random(seed))  # fail fast
    return _front_end(
        lambda: _RandomLineRows(
            topology, rho, sigma, num_rounds, num_destinations, seed, intensity
        ),
        num_rounds, rho=rho, sigma=sigma, stream=stream,
    )


class _SaturatingLineRows(_BucketRows):
    def __init__(
        self,
        topology: LineTopology,
        rho: float,
        sigma: float,
        num_rounds: int,
        num_destinations: int,
        seed: Optional[int],
    ) -> None:
        rng = random.Random(seed)
        self.destinations = _pick_destinations(topology, num_destinations, rng)
        super().__init__(num_rounds, rng, TokenBucket(topology.num_nodes, rho, sigma))

    def row(self, round_number: int) -> RouteRow:
        bucket = self.bucket
        bucket.start_round()
        row: RouteRow = []
        progress = True
        while progress:
            progress = False
            for destination in self.destinations:
                # Longest admissible route into this destination.
                if bucket.admit_line(0, destination):
                    row.append((0, destination))
                    progress = True
                    continue
                # Otherwise try a shorter route starting after the last
                # exhausted buffer on the way.
                start = bucket.last_exhausted(destination) + 1
                if start >= destination:
                    continue
                if bucket.admit_line(start, destination):
                    row.append((start, destination))
                    progress = True
        return row


def saturating_line_adversary(
    topology: LineTopology,
    rho: float,
    sigma: float,
    num_rounds: int,
    num_destinations: int = 1,
    *,
    seed: Optional[int] = None,
    stream: bool = False,
) -> BoundedAdversary:
    """A bounded adversary that front-loads its burst budget.

    In every round the generator injects as many packets as the token bucket
    allows, always routing them over long paths (source 0 or as far left as
    admissible) so that every buffer's budget is consumed.  This produces the
    harshest *feasible* load within the declared bound and is the default
    workload for validating the upper-bound propositions.
    """
    _validate_envelope(rho, sigma)
    _pick_destinations(topology, num_destinations, random.Random(seed))  # fail fast
    return _front_end(
        lambda: _SaturatingLineRows(
            topology, rho, sigma, num_rounds, num_destinations, seed
        ),
        num_rounds, rho=rho, sigma=sigma, stream=stream,
    )


class _SingleDestinationRows(_BucketRows):
    def __init__(
        self,
        topology: LineTopology,
        rho: float,
        sigma: float,
        num_rounds: int,
        destination: int,
        seed: Optional[int],
    ) -> None:
        super().__init__(
            num_rounds, random.Random(seed), TokenBucket(topology.num_nodes, rho, sigma)
        )
        self.destination = destination
        self.attempts = max(4, int(rho + sigma) + 4)

    def row(self, round_number: int) -> RouteRow:
        getrandbits, bucket = self.rng.getrandbits, self.bucket
        destination = self.destination
        bucket.start_round()
        row: RouteRow = []
        for _ in range(self.attempts):
            source = _randbelow(getrandbits, destination)
            if bucket.admit_line(source, destination):
                row.append((source, destination))
        return row


def single_destination_adversary(
    topology: LineTopology,
    rho: float,
    sigma: float,
    num_rounds: int,
    *,
    destination: Optional[int] = None,
    seed: Optional[int] = None,
    stream: bool = False,
) -> BoundedAdversary:
    """A random bounded adversary whose packets all share one destination.

    This is the PTS setting (Proposition 3.1).  The destination defaults to
    the right end of the line.
    """
    _validate_envelope(rho, sigma)
    destination = destination if destination is not None else topology.num_nodes - 1
    _validate_destination(topology, destination)
    return _front_end(
        lambda: _SingleDestinationRows(
            topology, rho, sigma, num_rounds, destination, seed
        ),
        num_rounds, rho=rho, sigma=sigma, stream=stream,
    )


class _BurstyRows(_BucketRows):
    def __init__(
        self,
        topology: LineTopology,
        rho: float,
        sigma: float,
        num_rounds: int,
        num_destinations: int,
        burst_period: int,
        seed: Optional[int],
    ) -> None:
        rng = random.Random(seed)
        self.destinations = _pick_destinations(topology, num_destinations, rng)
        super().__init__(num_rounds, rng, TokenBucket(topology.num_nodes, rho, sigma))
        self.burst_period = burst_period

    def row(self, round_number: int) -> RouteRow:
        getrandbits, bucket = self.rng.getrandbits, self.bucket
        bucket.start_round()
        row: RouteRow = []
        if round_number % self.burst_period == self.burst_period - 1:
            progress = True
            while progress:
                progress = False
                for destination in self.destinations:
                    source = _randbelow(getrandbits, destination)
                    if bucket.admit_line(source, destination):
                        row.append((source, destination))
                        progress = True
        return row


def bursty_adversary(
    topology: LineTopology,
    rho: float,
    sigma: float,
    num_rounds: int,
    num_destinations: int = 1,
    *,
    burst_period: int = 16,
    seed: Optional[int] = None,
    stream: bool = False,
) -> BoundedAdversary:
    """A bounded adversary that alternates silence with maximal bursts.

    For ``burst_period - 1`` rounds nothing is injected (the token buckets
    refill toward ``sigma``), then one round injects as much as the budget
    allows.  This exercises the ``+ sigma`` term of every bound.
    """
    _validate_envelope(rho, sigma)
    if burst_period < 1:
        raise ConfigurationError(f"burst_period must be >= 1, got {burst_period}")
    _pick_destinations(topology, num_destinations, random.Random(seed))  # fail fast
    return _front_end(
        lambda: _BurstyRows(
            topology, rho, sigma, num_rounds, num_destinations, burst_period, seed
        ),
        num_rounds, rho=rho, sigma=sigma, stream=stream,
    )


class _TrickleRows(ResumableRows):
    def __init__(
        self,
        rho: float,
        num_rounds: int,
        destinations: Sequence[int],
        seed: Optional[int],
    ) -> None:
        super().__init__(num_rounds)
        self.rho = rho
        self.destinations = list(destinations)
        self.rng = random.Random(seed)
        self.credit = 0.0

    def row(self, round_number: int) -> RouteRow:
        rng, destinations = self.rng, self.destinations
        multi = len(destinations) > 1
        self.credit += self.rho
        row: RouteRow = []
        while self.credit >= 1.0:
            self.credit -= 1.0
            destination = (
                destinations[rng.randrange(len(destinations))]
                if multi else destinations[0]
            )
            row.append((rng.randrange(0, destination), destination))
        return row

    def state(self) -> Dict[str, Any]:
        return {
            "rng": encode_rng_state(self.rng.getstate()),
            "credit": self.credit,
        }

    def set_state(self, state: Mapping[str, Any]) -> None:
        self.rng.setstate(decode_rng_state(state["rng"]))
        self.credit = float(state["credit"])


def trickle_adversary(
    topology: LineTopology,
    rho: float,
    sigma: float,
    num_rounds: int,
    *,
    destination: Optional[int] = None,
    destinations: Optional[Sequence[int]] = None,
    seed: Optional[int] = None,
    stream: bool = False,
) -> BoundedAdversary:
    """A bucketless bounded adversary whose generation cost is O(1) per round.

    Every round accrues ``rho`` units of credit and injects one packet (at a
    uniformly random source, toward a uniformly random destination from the
    set) per whole unit.  Any window of ``T`` rounds therefore carries at
    most ``rho * T + 1`` packets in total, and each packet crosses a given
    buffer at most once, so the pattern is ``(rho, 1)``-bounded *without* a
    per-buffer token bucket — unlike the other generators, whose bucket
    holds one level per buffer and refills all ``n`` of them every round,
    this one never touches a per-node structure and scales to million-node
    lines.  The declared sigma is ``max(sigma, 1)``.

    The intended use is horizon-scale streaming runs (``stream=True``); the
    eager path exists so small instances can be audited with
    :func:`~repro.adversary.bounded.check_bounded`.
    """
    _validate_envelope(rho, sigma)
    if destinations is not None and destination is not None:
        raise ConfigurationError("pass destination or destinations, not both")
    if destinations is None:
        destinations = [
            destination if destination is not None else topology.num_nodes - 1
        ]
    destinations = list(destinations)
    if not destinations:
        raise ConfigurationError("trickle adversary needs at least one destination")
    for w in destinations:
        _validate_destination(topology, w)
    return _front_end(
        lambda: _TrickleRows(rho, num_rounds, destinations, seed),
        num_rounds, rho=rho, sigma=max(float(sigma), 1.0), stream=stream,
    )


# ---------------------------------------------------------------------------
# Tree generators
# ---------------------------------------------------------------------------


class _EmptyRows(ResumableRows):
    """A silent row source (degenerate destination sets)."""

    def row(self, round_number: int) -> RouteRow:
        return []


class _RandomTreeRows(_BucketRows):
    def __init__(
        self,
        tree: TreeTopology,
        rho: float,
        sigma: float,
        num_rounds: int,
        usable_destinations: List[int],
        eligible_sources: dict,
        node_index: dict,
        seed: Optional[int],
    ) -> None:
        super().__init__(
            num_rounds, random.Random(seed), TokenBucket(len(tree.nodes), rho, sigma)
        )
        self.tree = tree
        self.usable_destinations = usable_destinations
        self.eligible_sources = eligible_sources
        self.node_index = node_index
        self.attempts = max(4, int(rho + sigma) * len(usable_destinations) + 4)
        self._spans: Dict[Tuple[int, int], Tuple[int, ...]] = {}

    def row(self, round_number: int) -> RouteRow:
        getrandbits, bucket, spans = self.rng.getrandbits, self.bucket, self._spans
        destinations, eligible = self.usable_destinations, self.eligible_sources
        bucket.start_round()
        row: RouteRow = []
        for _ in range(self.attempts):
            destination = destinations[_randbelow(getrandbits, len(destinations))]
            sources = eligible[destination]
            source = sources[_randbelow(getrandbits, len(sources))]
            span = spans.get((source, destination))
            if span is None:
                span = spans[source, destination] = tree_span(
                    self.tree, self.node_index, source, destination
                )
            if bucket.admit(span):
                row.append((source, destination))
        return row


def random_tree_adversary(
    tree: TreeTopology,
    rho: float,
    sigma: float,
    num_rounds: int,
    destinations: Optional[Sequence[int]] = None,
    *,
    seed: Optional[int] = None,
    stream: bool = False,
) -> BoundedAdversary:
    """A random bounded adversary on a directed in-tree.

    Sources are drawn uniformly from the strict descendants of a uniformly
    chosen destination (defaulting to the destination set ``{root}``), and
    admissions go through a token bucket keyed by node (each packet crossing
    node ``v`` consumes a token at ``v``).
    """
    _validate_envelope(rho, sigma)
    if destinations is None:
        destinations = [tree.root]
    destinations = list(destinations)
    nodes = set(tree.nodes)
    for w in destinations:
        if w not in nodes:
            raise ConfigurationError(f"destination {w} not in the tree")
    node_index = {v: idx for idx, v in enumerate(tree.nodes)}
    # Precompute, for every destination, the nodes that can send to it.
    eligible_sources = {
        w: [u for u in tree.nodes if u != w and tree.is_upstream(u, w)]
        for w in destinations
    }
    usable_destinations = [w for w in destinations if eligible_sources[w]]
    if not usable_destinations:
        # An empty-but-resumable stream, so the degenerate case stays
        # checkpointable like every other generator.
        return _front_end(
            lambda: _EmptyRows(num_rounds),
            num_rounds, rho=rho, sigma=sigma, stream=stream,
        )
    return _front_end(
        lambda: _RandomTreeRows(
            tree, rho, sigma, num_rounds, usable_destinations, eligible_sources,
            node_index, seed,
        ),
        num_rounds, rho=rho, sigma=sigma, stream=stream,
    )


# ---------------------------------------------------------------------------
# Registry entry points (repro.api).  Each builder follows the uniform
# adversary convention: (topology, *, rho, sigma, rounds, **params).
# ---------------------------------------------------------------------------


def hierarchy_random_destinations(num_nodes: int, branching: int, levels: int) -> int:
    """Destination count for the "random" variant of the Theorem 4.1 workloads.

    One site per (level, branch) up to the obvious ``n - 1`` cap — the single
    source of truth shared by the CLI, the E4/E9 benchmarks and the
    hierarchical workload builder.
    """
    return min(num_nodes - 1, branching * levels)


@register_adversary("explicit")
def build_explicit_adversary(
    topology,
    *,
    rho: float,
    sigma: float,
    rounds: int,
    routes: Sequence[Sequence[int]] = (),
) -> InjectionPattern:
    """A literal injection schedule: ``routes`` is ``(round, source,
    destination)`` triples, materialised in the given order.

    Makes hand-crafted deterministic patterns addressable from specs (tests,
    regression pinning, sharded boundary cases) without registering a new
    builder.  ``rho``/``sigma`` are taken as declared; use
    :func:`~repro.adversary.bounded.check_bounded` to audit the claim.  A
    route that is not three integers, or whose round is negative or past
    ``rounds``, raises :class:`ConfigurationError`.
    """
    pattern = InjectionPattern.from_tuples(routes, rho=rho, sigma=sigma)
    if pattern.horizon > rounds:
        raise ConfigurationError(
            f"explicit routes inject at round {pattern.horizon - 1}, past the "
            f"declared horizon {rounds}"
        )
    return pattern


@register_adversary("bounded", aliases=("random",))
def build_bounded_adversary(
    topology,
    *,
    rho: float,
    sigma: float,
    rounds: int,
    seed: Optional[int] = None,
    num_destinations: int = 1,
    destinations: Optional[Sequence[int]] = None,
    intensity: float = 1.0,
    stream: bool = False,
) -> BoundedAdversary:
    """A random ``(rho, sigma)``-bounded adversary on any supported topology.

    Lines use :func:`random_line_adversary` (``num_destinations`` random
    sites); trees and forests use :func:`random_tree_adversary` with the
    given ``destinations`` (default: the root).  ``stream=True`` returns the
    lazy :class:`StreamingAdversary` front end instead of materialising the
    schedule.
    """
    if isinstance(topology, LineTopology):
        return random_line_adversary(
            topology, rho, sigma, rounds, num_destinations,
            seed=seed, intensity=intensity, stream=stream,
        )
    return random_tree_adversary(
        topology, rho, sigma, rounds, destinations, seed=seed, stream=stream
    )


@register_adversary("single", aliases=("single-destination",))
def build_single_destination_adversary(
    topology: LineTopology,
    *,
    rho: float,
    sigma: float,
    rounds: int,
    destination: Optional[int] = None,
    seed: Optional[int] = None,
    stream: bool = False,
) -> BoundedAdversary:
    return single_destination_adversary(
        topology, rho, sigma, rounds, destination=destination, seed=seed,
        stream=stream,
    )


@register_adversary("saturating")
def build_saturating_adversary(
    topology: LineTopology,
    *,
    rho: float,
    sigma: float,
    rounds: int,
    num_destinations: int = 1,
    seed: Optional[int] = None,
    stream: bool = False,
) -> BoundedAdversary:
    return saturating_line_adversary(
        topology, rho, sigma, rounds, num_destinations, seed=seed, stream=stream
    )


@register_adversary("bursty")
def build_bursty_adversary(
    topology: LineTopology,
    *,
    rho: float,
    sigma: float,
    rounds: int,
    num_destinations: int = 1,
    burst_period: int = 16,
    seed: Optional[int] = None,
    stream: bool = False,
) -> BoundedAdversary:
    return bursty_adversary(
        topology, rho, sigma, rounds, num_destinations,
        burst_period=burst_period, seed=seed, stream=stream,
    )


@register_adversary("trickle", aliases=("steady",))
def build_trickle_adversary(
    topology: LineTopology,
    *,
    rho: float,
    sigma: float,
    rounds: int,
    destination: Optional[int] = None,
    destinations: Optional[Sequence[int]] = None,
    seed: Optional[int] = None,
    stream: bool = False,
) -> BoundedAdversary:
    return trickle_adversary(
        topology, rho, sigma, rounds, destination=destination,
        destinations=destinations, seed=seed, stream=stream,
    )
