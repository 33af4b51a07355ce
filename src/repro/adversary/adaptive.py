"""Adaptive adversaries: injection processes that react to the configuration.

The upper-bound theorems quantify over *all* ``(rho, sigma)``-bounded
adversaries — including adaptive ones that watch the current buffer contents
and aim their injections at whatever is already congested.  The explicit
patterns in :mod:`repro.adversary.stress` are oblivious (fixed in advance);
the adversaries here close that gap: each round they observe the occupancy
vector the algorithm produced and choose routes that keep the pressure on,
subject to the same token-bucket admission that guarantees Definition 2.1.

The simulator detects adaptive adversaries by their ``adaptive`` attribute and
feeds them the current occupancy before asking for the round's injections.
After a run, :meth:`AdaptiveAdversary.realized_pattern` returns the concrete
:class:`~repro.adversary.base.InjectionPattern` that was actually injected, so
the independent boundedness checker can audit it like any oblivious pattern.
"""

from __future__ import annotations

import random
from abc import abstractmethod
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..api.registry import register_adversary
from ..core.packet import Injection, make_injection
from ..network.errors import CheckpointError, ConfigurationError
from ..network.topology import LineTopology
from .base import Adversary, InjectionPattern, decode_rng_state, encode_rng_state
from .bounded import TokenBucket

__all__ = ["AdaptiveAdversary", "HotspotAdversary", "BlockingAdversary"]


class AdaptiveAdversary(Adversary):
    """Base class for configuration-aware adversaries on a line.

    Subclasses implement :meth:`choose_routes`, which receives the occupancy
    vector observed at the start of the round and returns candidate
    ``(source, destination)`` routes in priority order; the base class admits
    them through a token bucket until the round's budget is exhausted.
    """

    #: Flag the simulator checks to decide whether to pass the occupancy.
    adaptive = True

    def __init__(
        self,
        topology: LineTopology,
        rho: float,
        sigma: float,
        num_rounds: int,
    ) -> None:
        if not (0 < rho <= 1):
            raise ConfigurationError(f"rho must be in (0, 1], got {rho}")
        if sigma < 0:
            raise ConfigurationError(f"sigma must be >= 0, got {sigma}")
        if num_rounds < 0:
            raise ConfigurationError(f"num_rounds must be >= 0, got {num_rounds}")
        self.topology = topology
        self.rho = float(rho)
        self.sigma = float(sigma)
        self.num_rounds = num_rounds
        self._bucket = TokenBucket(topology.num_nodes, rho, sigma)
        self._realized: List[Injection] = []
        self._last_round_processed = -1

    # -- Adversary interface -----------------------------------------------------

    @property
    def horizon(self) -> int:
        return self.num_rounds

    def injections_for_round(self, round_number: int) -> List[Injection]:
        """Oblivious fallback: called when no occupancy information is available."""
        return self.adaptive_injections(round_number, {})

    def adaptive_injections(
        self, round_number: int, occupancy: Dict[int, int]
    ) -> List[Injection]:
        """The round's injections, chosen after observing ``occupancy``."""
        if round_number >= self.num_rounds:
            return []
        if round_number <= self._last_round_processed:
            # Re-querying a past round (e.g. by analysis code) must not double
            # spend the budget; replay what was injected then.
            return [p for p in self._realized if p.round == round_number]
        self._last_round_processed = round_number
        self._bucket.start_round()
        injections: List[Injection] = []
        num_nodes = self.topology.num_nodes
        for source, destination in self.choose_routes(round_number, occupancy):
            if destination <= source:
                continue
            if source < 0 or destination > num_nodes:
                raise ConfigurationError(
                    f"{type(self).__name__} chose route ({source}, {destination}) "
                    f"outside the line's buffers [0, {num_nodes})"
                )
            if self._bucket.admit_line(source, destination):
                injection = make_injection(round_number, source, destination)
                injections.append(injection)
                self._realized.append(injection)
        return injections

    # -- subclass hook -----------------------------------------------------------

    @abstractmethod
    def choose_routes(
        self, round_number: int, occupancy: Dict[int, int]
    ) -> Sequence[tuple]:
        """Candidate ``(source, destination)`` routes, most important first.

        The base class admits as many as the budget allows, in order.  Return
        more candidates than the budget can take to let the bucket decide.
        """

    # -- audit helpers ------------------------------------------------------------

    def realized_pattern(self) -> InjectionPattern:
        """The injections actually admitted so far, as an oblivious pattern."""
        return InjectionPattern(list(self._realized), rho=self.rho, sigma=self.sigma)

    # -- checkpoint support -------------------------------------------------------

    def cursor(self) -> Dict[str, Any]:
        """A resume token: bucket levels, realized history and subclass state.

        The realized injections are part of the cursor (with their packet
        ids) because :meth:`adaptive_injections` replays them verbatim when a
        past round is re-queried, and audits compare them against the bound.
        """
        return {
            "last_round": self._last_round_processed,
            "bucket": self._bucket.state(),
            "realized": [
                [p.round, p.source, p.destination, p.packet_id]
                for p in self._realized
            ],
            "extra": self.extra_cursor(),
        }

    def resume(self, cursor: Mapping[str, Any]) -> None:
        """Restore a :meth:`cursor` token into a freshly built adversary."""
        if self._realized or self._last_round_processed != -1:
            raise CheckpointError(
                f"{type(self).__name__} already injected packets; resume() "
                f"requires a freshly constructed adversary"
            )
        self._last_round_processed = int(cursor["last_round"])
        self._bucket.set_state(cursor["bucket"])
        self._realized = [
            Injection(row[0], row[1], row[2], row[3]) for row in cursor["realized"]
        ]
        self.restore_extra_cursor(cursor.get("extra", {}))

    def extra_cursor(self) -> Dict[str, Any]:
        """Subclass hook: additional JSON-serialisable cursor state."""
        return {}

    def restore_extra_cursor(self, extra: Mapping[str, Any]) -> None:
        """Subclass hook: restore :meth:`extra_cursor` output."""


class HotspotAdversary(AdaptiveAdversary):
    """Aims every admissible packet at the currently fullest buffer.

    Each round it locates the most loaded buffer ``v`` (ties to the left) and
    proposes routes that cross ``v``, cycling through a destination set to the
    right of ``v`` so PPTS cannot collapse everything into one pseudo-buffer.
    """

    def __init__(
        self,
        topology: LineTopology,
        rho: float,
        sigma: float,
        num_rounds: int,
        destinations: Optional[Sequence[int]] = None,
        *,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(topology, rho, sigma, num_rounds)
        n = topology.num_nodes
        if destinations is None:
            destinations = [n - 1]
        cleaned = sorted({w for w in destinations if 1 <= w <= n})
        if not cleaned:
            raise ConfigurationError("need at least one destination in [1, n]")
        self.destinations = cleaned
        self._rng = random.Random(seed)
        self._cycle = 0

    def choose_routes(
        self, round_number: int, occupancy: Dict[int, int]
    ) -> Sequence[tuple]:
        if occupancy:
            hotspot = max(sorted(occupancy), key=lambda node: occupancy[node])
        else:
            hotspot = 0
        routes = []
        budget_guess = int(self.sigma + self.rho) + 2
        for _ in range(budget_guess * max(1, len(self.destinations))):
            destination = self.destinations[self._cycle % len(self.destinations)]
            self._cycle += 1
            if destination <= hotspot:
                # No destination right of the hotspot: fall back to injecting
                # at the hotspot's left neighbourhood toward the last node.
                destination = self.topology.num_nodes - 1
                if destination <= hotspot:
                    continue
            source = self._rng.randint(max(0, hotspot - 2), hotspot)
            routes.append((source, destination))
        return routes

    def extra_cursor(self) -> Dict[str, Any]:
        return {
            "rng": encode_rng_state(self._rng.getstate()),
            "cycle": self._cycle,
        }

    def restore_extra_cursor(self, extra: Mapping[str, Any]) -> None:
        self._rng.setstate(decode_rng_state(extra["rng"]))
        self._cycle = int(extra["cycle"])


class BlockingAdversary(AdaptiveAdversary):
    """Targets the buffer with the largest *backlog behind it*.

    Instead of the single fullest buffer, this adversary computes, for every
    buffer ``v``, the total occupancy of buffers ``<= v`` that still must
    cross ``v`` toward the right end, and injects short routes just behind the
    maximiser — the pattern that keeps a convoy from dissolving.
    """

    def __init__(
        self,
        topology: LineTopology,
        rho: float,
        sigma: float,
        num_rounds: int,
        *,
        destination: Optional[int] = None,
    ) -> None:
        super().__init__(topology, rho, sigma, num_rounds)
        self.destination = (
            destination if destination is not None else topology.num_nodes - 1
        )
        if not (1 <= self.destination <= topology.num_nodes):
            raise ConfigurationError(
                f"destination {self.destination} outside [1, {topology.num_nodes}]"
            )

    def choose_routes(
        self, round_number: int, occupancy: Dict[int, int]
    ) -> Sequence[tuple]:
        prefix = 0
        best_node, best_backlog = 0, -1
        for node in range(self.destination):
            prefix += occupancy.get(node, 0)
            if prefix > best_backlog:
                best_backlog = prefix
                best_node = node
        routes = []
        budget_guess = int(self.sigma + self.rho) + 2
        for offset in range(budget_guess):
            source = max(0, best_node - offset)
            routes.append((source, self.destination))
        return routes


# ---------------------------------------------------------------------------
# Registry entry points (repro.api), uniform convention:
# (topology, *, rho, sigma, rounds, **params).  Adaptive adversaries are
# stateful, so a fresh instance is built per run.
# ---------------------------------------------------------------------------


@register_adversary("hotspot")
def build_hotspot_adversary(
    topology: LineTopology,
    *,
    rho: float,
    sigma: float,
    rounds: int,
    destinations: Optional[Sequence[int]] = None,
    seed: Optional[int] = None,
) -> HotspotAdversary:
    return HotspotAdversary(topology, rho, sigma, rounds, destinations, seed=seed)


@register_adversary("blocking")
def build_blocking_adversary(
    topology: LineTopology,
    *,
    rho: float,
    sigma: float,
    rounds: int,
    destination: Optional[int] = None,
) -> BlockingAdversary:
    return BlockingAdversary(topology, rho, sigma, rounds, destination=destination)
