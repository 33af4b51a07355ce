"""Adversaries and injection patterns.

An *adversary* (Section 2) is simply a set of packets, each a triple
``(round, source, destination)``.  The simulator asks the adversary which
packets arrive in each round; analyses ask for the whole pattern at once.
:class:`InjectionPattern` is the concrete finite representation used
throughout the library — backed by a columnar
:class:`~repro.core.packet.PacketStore` so million-packet schedules cost flat
integer arrays, not one boxed record per injection.  :class:`Adversary` is
the minimal interface so that programmatic adversaries can be plugged into
the simulator without materialising every round up front;
:class:`StreamingAdversary` is the lazy counterpart the generator library
uses for horizon-scale runs (each round's injections are produced on demand
and never retained).
"""

from __future__ import annotations

import numbers
from abc import ABC, abstractmethod
from array import array
from itertools import islice
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core.packet import Injection, PacketStore, current_allocator, make_injection
from ..network.errors import CheckpointError, ConfigurationError
from ..network.topology import Topology

__all__ = [
    "Adversary",
    "InjectionPattern",
    "StreamingAdversary",
    "ResumableRows",
    "encode_rng_state",
    "decode_rng_state",
]

#: A round's worth of routes, as ``(source, destination)`` pairs in injection
#: order.  Row generators yield one of these per round, which both the eager
#: (:class:`InjectionPattern`) and lazy (:class:`StreamingAdversary`) paths
#: consume — guaranteeing the two produce identical packets.
RouteRow = List[Tuple[int, int]]


def encode_rng_state(state: tuple) -> list:
    """``random.Random.getstate()`` as a JSON-serialisable list."""
    return [state[0], list(state[1]), state[2]]


def decode_rng_state(data: Sequence) -> tuple:
    """Inverse of :func:`encode_rng_state` (feed to ``Random.setstate``)."""
    return (data[0], tuple(data[1]), data[2])


def _route_triple(route: Any) -> Tuple[int, int, int]:
    """A ``(round, source, destination)`` route from outside input, as ints.

    Refuses, with :class:`ConfigurationError`, anything but exactly three
    integers: a ``bool``, float or string is not silently coerced.
    """
    try:
        values = tuple(route)
    except TypeError:
        values = ()
    if len(values) != 3 or isinstance(route, (str, bytes)):
        raise ConfigurationError(
            f"route {route!r} is not a (round, source, destination) triple"
        )
    for value in values:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigurationError(
                f"route {route!r} holds {value!r}, which is not an integer"
            )
    round_number, source, destination = (int(value) for value in values)
    return round_number, source, destination


class ResumableRows:
    """A row iterator with an explicit ``(round, cursor)`` resume API.

    The PR 3 row generators were forward-only plain Python generators: their
    state lived in suspended frames, so a mid-flight run could not be
    snapshotted.  Subclasses instead keep their state in attributes and
    implement

    * :meth:`row` — produce round ``t``'s :data:`RouteRow` (called with
      strictly increasing ``t``, exactly once each);
    * :meth:`state` / :meth:`set_state` — capture / restore the generator's
      internal state (RNG, token buckets, credit counters) as a
      JSON-serialisable mapping.

    Iteration (``next()``) yields one row per round until ``num_rounds``,
    exactly like the old generators, so the eager
    (:class:`InjectionPattern`) and lazy (:class:`StreamingAdversary`)
    front ends consume subclasses unchanged.  :meth:`cursor` additionally
    captures *where* the iterator is; :meth:`restore` repositions a freshly
    constructed iterator there without replaying the skipped rounds.
    """

    def __init__(self, num_rounds: int) -> None:
        self.num_rounds = num_rounds
        self._round = 0

    # -- iterator protocol (what the front ends consume) -------------------------

    def __iter__(self) -> "ResumableRows":
        return self

    def __next__(self) -> RouteRow:
        if self._round >= self.num_rounds:
            raise StopIteration
        row = self.row(self._round)
        self._round += 1
        return row

    # -- subclass hooks -----------------------------------------------------------

    def row(self, round_number: int) -> RouteRow:
        """The ``(source, destination)`` routes injected in ``round_number``."""
        raise NotImplementedError

    def state(self) -> Dict[str, Any]:
        """JSON-serialisable internal state (default: stateless)."""
        return {}

    def set_state(self, state: Mapping[str, Any]) -> None:
        """Restore :meth:`state` output (default: nothing to restore)."""

    # -- resume API ---------------------------------------------------------------

    @property
    def rounds_generated(self) -> int:
        """How many rows have been produced so far."""
        return self._round

    def cursor(self) -> Dict[str, Any]:
        """A resume token for the current round boundary."""
        return {"round": self._round, "state": self.state()}

    def restore(self, cursor: Mapping[str, Any]) -> None:
        """Reposition a *fresh* iterator at a :meth:`cursor` round boundary."""
        if self._round:
            raise CheckpointError(
                f"{type(self).__name__} already generated {self._round} rounds; "
                f"restore() requires a freshly constructed iterator"
            )
        self._round = int(cursor["round"])
        self.set_state(cursor["state"])


class Adversary(ABC):
    """Interface between an injection process and the simulator."""

    #: Declared average rate; ``None`` means "unknown / unchecked".
    rho: Optional[float] = None
    #: Declared burstiness; ``None`` means "unknown / unchecked".
    sigma: Optional[float] = None

    @abstractmethod
    def injections_for_round(self, round_number: int) -> List[Injection]:
        """Packets injected during the given round."""

    @property
    @abstractmethod
    def horizon(self) -> int:
        """Number of rounds over which this adversary injects packets.

        The simulator keeps running past the horizon until all packets drain
        (unless told otherwise), so the horizon is a property of the pattern,
        not of the execution length.
        """

    def all_injections(self) -> List[Injection]:
        """Every injection up to the horizon, in round order."""
        result: List[Injection] = []
        for t in range(self.horizon):
            result.extend(self.injections_for_round(t))
        return result

    @property
    def total_packets(self) -> int:
        """Total number of packets injected up to the horizon."""
        return len(self.all_injections())


class InjectionPattern(Adversary):
    """A finite, explicit adversary: a columnar store of injections.

    The records live in a :class:`~repro.core.packet.PacketStore` (flat int
    arrays, insertion order) plus two lightweight indices: per-round row ids
    (insertion order within the round — the order the simulator feeds packets
    to the algorithm) and a globally sorted row order matching
    :class:`Injection`'s lexicographic comparison, built on first use (only
    :meth:`all_injections` and iteration read it).  ``Injection`` objects are
    materialised on demand and never retained.

    Parameters
    ----------
    injections:
        The packets, in any order.  Packet ids are preserved if present
        (non-negative) and assigned fresh otherwise.
    rho, sigma:
        The declared ``(rho, sigma)`` bound, if known.  Use
        :func:`repro.adversary.bounded.check_bounded` to verify the claim or
        :func:`repro.adversary.bounded.tightest_bound` to measure it.

    :meth:`from_rows` and :meth:`from_tuples` build a pattern straight into
    the columns, with no ``Injection`` per packet.
    """

    def __init__(
        self,
        injections: Iterable[Injection],
        *,
        rho: Optional[float] = None,
        sigma: Optional[float] = None,
    ) -> None:
        store = PacketStore()
        by_round: Dict[int, array] = {}
        for injection in injections:
            packet_id = injection.packet_id
            if packet_id < 0:
                packet_id = make_injection(
                    injection.round, injection.source, injection.destination
                ).packet_id
            row = store.append(
                injection.round, injection.source, injection.destination, packet_id
            )
            rows = by_round.get(injection.round)
            if rows is None:
                rows = by_round[injection.round] = array("q")
            rows.append(row)
        self._adopt(store, by_round, rho, sigma)

    def _adopt(
        self,
        store: PacketStore,
        by_round: Mapping[int, Sequence[int]],
        rho: Optional[float],
        sigma: Optional[float],
    ) -> None:
        self._store = store
        #: round -> its rows in injection order (an ``array``, ``list`` or
        #: ``range``); only rounds that inject are keys.
        self._by_round = by_round
        self._sorted: Optional[array] = None
        self.rho = rho
        self.sigma = sigma

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[Tuple[int, Iterable[Tuple[int, int]]]],
        *,
        rho: Optional[float] = None,
        sigma: Optional[float] = None,
    ) -> "InjectionPattern":
        """The columnar builder: ``(round, routes)`` groups straight into the
        store's columns.

        ``routes`` are ``(source, destination)`` pairs of ints, injected in
        the given order; a round may appear in several groups.  The packets
        get one block of consecutive ids from the current allocator, in
        insertion order: the ids a :func:`make_injection` call per packet
        would have handed out.  A negative round is a
        :class:`~repro.network.errors.ConfigurationError` (the check
        ``Injection`` makes); the routes are trusted (:meth:`from_tuples`
        validates outside input).
        """
        rounds, sources, destinations = array("q"), array("q"), array("q")
        by_round: Dict[int, Sequence[int]] = {}
        add_source, add_destination = sources.append, destinations.append
        for round_number, routes in rows:
            start = len(sources)
            for source, destination in routes:
                add_source(source)
                add_destination(destination)
            stop = len(sources)
            if stop == start:
                continue
            if round_number < 0:
                raise ConfigurationError(
                    f"injection round must be non-negative, got {round_number}"
                )
            rounds.extend([round_number] * (stop - start))
            held = by_round.get(round_number)
            if held is None:
                by_round[round_number] = range(start, stop)
            elif isinstance(held, range) and held.stop == start:
                by_round[round_number] = range(held.start, stop)
            else:  # a round split by other rounds' routes (from_tuples)
                if isinstance(held, range):
                    held = by_round[round_number] = list(held)
                held.extend(range(start, stop))  # type: ignore[attr-defined]
        first = current_allocator().take(len(sources))
        ids = array("q", range(first, first + len(sources)))
        pattern = cls.__new__(cls)
        pattern._adopt(
            PacketStore.adopt(rounds, sources, destinations, ids), by_round,
            rho, sigma,
        )
        return pattern

    # -- Adversary interface -----------------------------------------------------

    def injections_for_round(self, round_number: int) -> List[Injection]:
        rows = self._by_round.get(round_number)
        if rows is None:
            return []
        injection = self._store.injection
        return [injection(row) for row in rows]

    @property
    def horizon(self) -> int:
        if not self._by_round:
            return 0
        return max(self._by_round) + 1

    def _order(self) -> array:
        """The rows in :class:`Injection` lexicographic order (cached)."""
        if self._sorted is None:
            store = self._store
            self._sorted = array(
                "q", sorted(range(len(store)), key=store.sort_key)
            )
        return self._sorted

    def all_injections(self) -> List[Injection]:
        injection = self._store.injection
        return [injection(row) for row in self._order()]

    # -- container conveniences -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._store)

    def __iter__(self) -> Iterator[Injection]:
        injection = self._store.injection
        for row in self._order():
            yield injection(row)

    def __contains__(self, injection: Injection) -> bool:
        probe = (
            injection.round, injection.source, injection.destination,
            injection.packet_id,
        )
        store = self._store
        return any(store.row_tuple(row) == probe for row in range(len(store)))

    # -- derived views -----------------------------------------------------------

    def destinations(self) -> List[int]:
        """The distinct destinations, sorted ascending (the set ``W``)."""
        return sorted(set(self._store.destinations))

    def sources(self) -> List[int]:
        """The distinct injection sites, sorted ascending."""
        return sorted(set(self._store.sources))

    @property
    def num_destinations(self) -> int:
        """``d = |W|`` — the parameter in the Prop. 3.2 bound."""
        return len(self.destinations())

    def crossings_per_round(
        self, topology: Topology, num_rounds: Optional[int] = None
    ) -> List[Dict[int, int]]:
        """``N_{t}(v)`` for every round and buffer.

        Element ``t`` of the returned list maps each buffer ``v`` to the
        number of packets injected in round ``t`` whose path contains ``v``.
        This is the raw material for both excess tracking and the
        ``(rho, sigma)``-boundedness check.
        """
        horizon = num_rounds if num_rounds is not None else self.horizon
        result: List[Dict[int, int]] = [dict() for _ in range(horizon)]
        store = self._store
        rounds, sources, destinations = (
            store.rounds, store.sources, store.destinations,
        )
        for row in range(len(store)):
            t = rounds[row]
            if t >= horizon:
                continue
            counts = result[t]
            for v in topology.path(sources[row], destinations[row])[:-1]:
                counts[v] = counts.get(v, 0) + 1
        return result

    def restricted_to_rounds(self, first: int, last: int) -> "InjectionPattern":
        """The sub-pattern of injections with ``first <= round <= last``."""
        return InjectionPattern(
            [p for p in self.all_injections() if first <= p.round <= last],
            rho=self.rho,
            sigma=self.sigma,
        )

    def shifted(self, offset: int) -> "InjectionPattern":
        """The same pattern with every injection round shifted by ``offset``."""
        return InjectionPattern(
            [
                Injection(p.round + offset, p.source, p.destination, p.packet_id)
                for p in self.all_injections()
            ],
            rho=self.rho,
            sigma=self.sigma,
        )

    def merged_with(self, other: "InjectionPattern") -> "InjectionPattern":
        """The union of two patterns (rho/sigma of the result are unknown)."""
        return InjectionPattern(
            list(self.all_injections()) + list(other.all_injections())
        )

    @classmethod
    def from_tuples(
        cls,
        tuples: Iterable[Sequence[int]],
        *,
        rho: Optional[float] = None,
        sigma: Optional[float] = None,
    ) -> "InjectionPattern":
        """Build a pattern from ``(round, source, destination)`` tuples.

        The tuples are outside input: each must hold exactly three integers
        (a ``bool`` is not one) with a non-negative round, or the call raises
        :class:`~repro.network.errors.ConfigurationError`.  Packets keep the
        given order and are numbered in it, as by :meth:`from_rows`.
        """
        return cls.from_rows(
            ((round_number, ((source, destination),))
             for round_number, source, destination in map(_route_triple, tuples)),
            rho=rho, sigma=sigma,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InjectionPattern(packets={len(self._store)}, horizon={self.horizon}, "
            f"destinations={self.num_destinations}, rho={self.rho}, sigma={self.sigma})"
        )


class StreamingAdversary(Adversary):
    """A lazy injection stream: rounds are generated on demand, never retained.

    Wraps a *row factory* — a zero-argument callable returning an iterator
    that yields one :data:`RouteRow` (a list of ``(source, destination)``
    pairs) per round.  Packet ids are allocated exactly when a round is
    generated, in round order, so a streaming adversary run inside a
    :func:`~repro.core.packet.packet_id_scope` produces *bit-identical*
    packets to the eager :class:`InjectionPattern` built from the same row
    generator (the registered generator builders expose both via their
    ``stream`` flag).

    Rounds must be requested in non-decreasing order (the simulator's access
    pattern); asking for an earlier round raises, because replaying would
    re-allocate packet ids and silently diverge from the eager path.  For
    whole-pattern analyses, :meth:`materialize` converts an *unconsumed*
    stream into an :class:`InjectionPattern`.
    """

    def __init__(
        self,
        row_factory: Callable[[], Iterator[RouteRow]],
        horizon: int,
        *,
        rho: Optional[float] = None,
        sigma: Optional[float] = None,
    ) -> None:
        if horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {horizon}")
        self._factory = row_factory
        self._horizon = horizon
        self._rows: Optional[Iterator[RouteRow]] = None
        self._next_round = 0
        self.rho = rho
        self.sigma = sigma

    @property
    def horizon(self) -> int:
        return self._horizon

    @property
    def rounds_generated(self) -> int:
        """How many rounds have been produced so far."""
        return self._next_round

    def injections_for_round(self, round_number: int) -> List[Injection]:
        if round_number < self._next_round:
            raise RuntimeError(
                f"streaming adversary already generated round {self._next_round - 1}; "
                f"cannot replay round {round_number} (packet ids would diverge). "
                f"Use materialize() or the eager generator for random access."
            )
        if round_number >= self._horizon:
            return []
        if self._rows is None:
            self._rows = self._factory()
        result: List[Injection] = []
        while self._next_round <= round_number:
            row = next(self._rows, None) or ()
            # Ids for skipped-over rounds are still allocated, keeping the id
            # sequence identical to the eager path regardless of how many
            # rounds the caller actually executes.
            injections = [
                make_injection(self._next_round, source, destination)
                for source, destination in row
            ]
            if self._next_round == round_number:
                result = injections
            self._next_round += 1
        return result

    def all_injections(self) -> List[Injection]:
        raise RuntimeError(
            "a StreamingAdversary never materialises its schedule; call "
            "materialize() on a fresh stream (or build the eager pattern) for "
            "whole-pattern analyses"
        )

    # -- checkpoint support -------------------------------------------------------

    def cursor(self) -> Dict[str, Any]:
        """A resume token for the current round boundary.

        The token pairs the adversary's own position (``next_round``) with
        the underlying row iterator's :meth:`ResumableRows.cursor`.  It does
        *not* capture the packet-id counter — ids are allocated by the
        enclosing :func:`~repro.core.packet.packet_id_scope`, which the
        checkpoint layer snapshots separately; restoring both keeps resumed
        ids aligned with the eager pattern even across rounds that injected
        nothing (no row ever needs to be replayed, so no id can be re-spent).
        """
        if self._rows is None:
            # Not started (or never will be): nothing to capture beyond the
            # position, which must still be 0.
            return {"next_round": self._next_round, "rows": None}
        cursor_fn = getattr(self._rows, "cursor", None)
        if cursor_fn is None:
            raise CheckpointError(
                f"{self!r}: the row iterator ({type(self._rows).__name__}) has "
                f"no cursor() — build the adversary from ResumableRows to "
                f"checkpoint mid-stream"
            )
        return {
            "next_round": self._next_round,
            # The generator class is part of the cursor's identity: resuming
            # a saturating-line cursor into a random-line stream would accept
            # the (shape-compatible) RNG/bucket state and silently produce a
            # mixed execution.
            "rows_type": type(self._rows).__name__,
            "rows": cursor_fn(),
        }

    def resume(self, cursor: Mapping[str, Any]) -> None:
        """Fast-forward a *fresh* stream to a :meth:`cursor` round boundary.

        The factory is invoked once and the produced iterator is repositioned
        via :meth:`ResumableRows.restore` — rounds before the cursor are never
        regenerated, so their packet ids are never re-allocated (they belong
        to the packets already materialised by the checkpointed run).
        """
        if self._rows is not None or self._next_round:
            raise CheckpointError(
                f"{self!r} already generated rounds; resume() requires a "
                f"freshly constructed adversary"
            )
        next_round = int(cursor["next_round"])
        if not (0 <= next_round <= self._horizon):
            raise CheckpointError(
                f"cursor round {next_round} outside [0, {self._horizon}]"
            )
        rows_cursor = cursor.get("rows")
        if rows_cursor is None:
            if next_round:
                raise CheckpointError(
                    f"cursor at round {next_round} carries no row-iterator "
                    f"state; the stream cannot be repositioned"
                )
            return
        rows = self._factory()
        restore_fn = getattr(rows, "restore", None)
        if restore_fn is None:
            raise CheckpointError(
                f"{self!r}: the row factory produced a plain iterator "
                f"({type(rows).__name__}) with no restore(); cannot resume"
            )
        recorded_type = cursor.get("rows_type")
        if recorded_type is not None and recorded_type != type(rows).__name__:
            raise CheckpointError(
                f"cursor was taken from a {recorded_type} row generator but "
                f"this adversary produces {type(rows).__name__}; refusing to "
                f"mix executions"
            )
        restore_fn(rows_cursor)
        self._rows = rows
        self._next_round = next_round

    def materialize(self) -> InjectionPattern:
        """Drain a *fresh* stream into an eager :class:`InjectionPattern`.

        This is the one eager path: the generators' eager front end is a
        fresh stream materialised here, through :meth:`InjectionPattern.from_rows`.
        """
        if self._rows is not None or self._next_round:
            raise RuntimeError(
                "stream already consumed; materialize() is only valid before "
                "the first injections_for_round() call"
            )
        pattern = InjectionPattern.from_rows(
            enumerate(islice(self._factory(), self._horizon)),
            rho=self.rho, sigma=self.sigma,
        )
        self._next_round = self._horizon  # the ids are spent; refuse reuse
        return pattern

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StreamingAdversary(horizon={self._horizon}, "
            f"generated={self._next_round}, rho={self.rho}, sigma={self.sigma})"
        )
