"""(rho, sigma)-boundedness checking and token-bucket admission (Definition 2.1).

An adversary ``A`` is ``(rho, sigma)``-bounded if for every buffer ``v`` and
every interval of rounds ``T``, the number of injected packets whose paths
contain ``v`` satisfies ``N_T(v) <= rho |T| + sigma``.

Two equivalent views are implemented:

* :func:`check_bounded` / :func:`tightest_bound` verify or measure the bound
  for an explicit pattern, using the leaky-bucket recurrence (the maximum of
  ``N_{[s,t]}(v) - rho (t - s + 1)`` over ``s`` equals the excess of Def. 2.2,
  maintained incrementally in O(T n) instead of the naive O(T^2 n)).
* :class:`TokenBucket` is the constructive counterpart used by every
  bucket-driven generator: per-buffer token levels in one numpy array that
  tell the generator whether a route may be emitted in the current round
  without breaking the bound.  Beside the levels it keeps the sorted list of
  *dry* buffers (fewer than one token), so a line route is refused by one
  bisection instead of a walk over the path.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.packet import Injection
from ..network.errors import BoundednessViolationError
from ..network.topology import Topology
from .base import InjectionPattern

__all__ = [
    "BoundednessReport",
    "check_bounded",
    "assert_bounded",
    "tightest_bound",
    "tightest_sigma",
    "TokenBucket",
]


@dataclass(frozen=True)
class BoundednessReport:
    """Outcome of a boundedness check.

    Attributes
    ----------
    bounded:
        Whether the pattern satisfies the declared ``(rho, sigma)`` bound.
    max_excess:
        The largest value of ``N_T(v) - rho |T|`` seen over any buffer and
        interval — i.e. the smallest ``sigma`` for which the pattern is
        ``(rho, sigma)``-bounded.
    worst_buffer:
        A buffer achieving ``max_excess`` (``None`` for an empty pattern).
    worst_round:
        The right endpoint of an interval achieving ``max_excess``.
    """

    bounded: bool
    max_excess: float
    worst_buffer: Optional[int]
    worst_round: Optional[int]


def _excess_trajectory(
    pattern: InjectionPattern,
    topology: Topology,
    rho: float,
) -> Tuple[float, Optional[int], Optional[int]]:
    """Maximum excess over all buffers and rounds, with its witness."""
    crossings = pattern.crossings_per_round(topology)
    excess: Dict[int, float] = {}
    max_excess = 0.0
    worst_buffer: Optional[int] = None
    worst_round: Optional[int] = None
    for t, round_crossings in enumerate(crossings):
        touched = set(round_crossings) | set(excess)
        for v in touched:
            injected = round_crossings.get(v, 0)
            previous = excess.get(v, 0.0)
            current = max(previous + injected - rho, 0.0)
            # Avoid dict churn for buffers that have drained back to zero.
            if current > 0:
                excess[v] = current
            elif v in excess:
                del excess[v]
            if current > max_excess:
                max_excess = current
                worst_buffer = v
                worst_round = t
    return max_excess, worst_buffer, worst_round


def check_bounded(
    pattern: InjectionPattern,
    topology: Topology,
    rho: float,
    sigma: float,
    *,
    tolerance: float = 1e-9,
) -> BoundednessReport:
    """Check Definition 2.1 for an explicit pattern.

    Returns a :class:`BoundednessReport`; never raises.  ``tolerance`` absorbs
    floating-point noise when ``rho`` is not exactly representable.
    """
    max_excess, worst_buffer, worst_round = _excess_trajectory(
        pattern, topology, rho
    )
    return BoundednessReport(
        bounded=max_excess <= sigma + tolerance,
        max_excess=max_excess,
        worst_buffer=worst_buffer,
        worst_round=worst_round,
    )


def assert_bounded(
    pattern: InjectionPattern,
    topology: Topology,
    rho: float,
    sigma: float,
) -> None:
    """Like :func:`check_bounded`, but raise on violation.

    Raises
    ------
    BoundednessViolationError
        If some buffer/interval exceeds ``rho |T| + sigma``.
    """
    report = check_bounded(pattern, topology, rho, sigma)
    if not report.bounded:
        raise BoundednessViolationError(
            buffer=report.worst_buffer if report.worst_buffer is not None else -1,
            interval=(0, report.worst_round),
            observed=report.max_excess,
            allowed=float(sigma),
        )


def tightest_bound(
    pattern: InjectionPattern,
    topology: Topology,
    rho: float,
) -> float:
    """The smallest ``sigma`` such that the pattern is ``(rho, sigma)``-bounded."""
    max_excess, _, _ = _excess_trajectory(pattern, topology, rho)
    return max_excess


def tightest_sigma(
    pattern: InjectionPattern,
    topology: Topology,
    rho: float,
) -> float:
    """Alias of :func:`tightest_bound` (kept for readability at call sites)."""
    return tightest_bound(pattern, topology, rho)


#: The buffers a route crosses, as bucket indices in ``[0, num_nodes)``, none
#: twice: a tuple for a tree route (:func:`tree_span`).  A line route is
#: addressed by its endpoints instead (:meth:`TokenBucket.admit_line`).
Span = Sequence[int]


class TokenBucket:
    """Per-buffer leaky buckets for *constructing* bounded patterns.

    The generators in :mod:`repro.adversary.generators` use this to decide,
    round by round, whether injecting a candidate packet would keep the
    pattern ``(rho, sigma)``-bounded: a packet crossing buffers ``S`` is
    admissible iff every bucket in ``S`` has at least one token.

    Each bucket starts with ``sigma`` tokens (the burst budget), gains ``rho``
    tokens per round, and is capped at ``sigma``... almost: the classical
    token-bucket cap is ``sigma + rho`` *immediately after refill* so that a
    steady stream at exactly rate ``rho`` is admissible.  This matches the
    excess recurrence ``xi_t = max(xi_{t-1} + N_t - rho, 0) <= sigma``.

    The levels live in one float64 array, so a refill is one array
    operation, and so is the charge of a line route (a slice).  A tree route
    is a short :data:`Span` tuple, checked and charged buffer by buffer.
    Every operation is the same IEEE arithmetic, in the same order per
    buffer, as the scalar recurrence (``x - 1.0`` for a charge), so the
    token levels (and hence every admission decision) do not depend on the
    representation.

    Beside the levels, ``_dry`` lists the buffers with fewer than one token,
    in increasing order.  A route is refused iff it crosses one of them, so
    :meth:`admit_line` and :meth:`last_exhausted` answer by bisection.  The
    list only changes *how* a refusal is found, never whether it happens:
    it is kept equal to ``flatnonzero(levels < 1.0)`` after every operation.
    """

    def __init__(self, num_nodes: int, rho: float, sigma: float) -> None:
        # ``not x >= 0`` also refuses NaN, which would make a level neither
        # dry nor admissible.
        if not rho >= 0:
            raise ValueError("rho must be non-negative")
        if not sigma >= 0:
            raise ValueError("sigma must be non-negative")
        self.num_nodes = num_nodes
        self.rho = float(rho)
        self.sigma = float(sigma)
        self._cap = self.sigma + self.rho
        # tokens[v] = sigma - xi(v): remaining crossings admissible at v.
        self._tokens = np.full(num_nodes, self.sigma, dtype=np.float64)
        self._dry: List[int] = list(range(num_nodes)) if self.sigma < 1.0 else []
        self._refilled_this_round = False

    def start_round(self) -> None:
        """Refill every bucket by ``rho`` (capped at ``sigma + rho``).

        The cap is ``sigma + rho`` rather than ``sigma`` because the excess
        constraint allows ``N_t(v) <= sigma - xi_{t-1}(v) + rho`` crossings in
        round ``t`` (Lemma 2.3, part 2).

        With a cap of at least one, only buffers that were dry can stop
        being dry: a level of at least one plus ``rho >= 0`` is still at
        least one, and so is its minimum with the cap.  So the dry list is
        filtered.  Under a cap below one the refill dries any level restored
        above the cap, so the list is rebuilt.
        """
        tokens, dry = self._tokens, self._dry
        np.add(tokens, self.rho, out=tokens)
        np.minimum(tokens, self._cap, out=tokens)
        if self._cap < 1.0:
            self._dry = np.flatnonzero(tokens < 1.0).tolist()
        elif dry:
            level = tokens.item
            self._dry = [v for v in dry if level(v) < 1.0]
        self._refilled_this_round = True

    def can_inject(self, span: Span) -> bool:
        """Whether one more packet crossing ``span`` is admissible."""
        level = self._tokens.item
        for v in span:
            if level(v) < 1.0:
                return False
        return True

    def inject(self, span: Span) -> None:
        """Consume one token on every buffer of ``span`` (the caller checked
        admissibility)."""
        tokens, dry = self._tokens, self._dry
        level = tokens.item
        for v in span:
            left = level(v) - 1.0
            tokens[v] = left
            if left < 1.0:
                i = bisect_left(dry, v)
                if i == len(dry) or dry[i] != v:
                    dry.insert(i, v)

    def admit(self, span: Span) -> bool:
        """:meth:`can_inject` then :meth:`inject`: whether the packet was admitted."""
        if not self.can_inject(span):
            return False
        self.inject(span)
        return True

    def admit_line(self, source: int, destination: int) -> bool:
        """:meth:`admit` for the line route ``source -> destination``
        (``0 <= source < destination <= num_nodes``, checked by the caller).

        The route is refused iff a dry buffer lies in ``[source,
        destination)``: one bisection of the dry list.  An admitted route
        has no dry buffer, so the buffers it dries form one block of the
        list, inserted where the bisection landed.
        """
        dry = self._dry
        i = bisect_left(dry, source)
        if i < len(dry) and dry[i] < destination:
            return False
        levels = self._tokens[source:destination]
        levels -= 1.0
        dried = (levels < 1.0).nonzero()[0]
        if len(dried):
            dry[i:i] = (dried + source).tolist()
        return True

    def last_exhausted(self, stop: int) -> int:
        """The largest buffer ``v < stop`` with less than one token, or -1."""
        i = bisect_left(self._dry, stop)
        return self._dry[i - 1] if i else -1

    def available(self, buffer: int) -> float:
        """Remaining tokens at ``buffer`` this round."""
        return float(self._tokens[buffer])

    def headroom(self, span: Span) -> int:
        """How many more packets with this route are admissible right now."""
        if not span:
            return 0
        level = self._tokens.item
        return int(min(level(v) for v in span))

    # -- checkpoint support -------------------------------------------------------

    def state(self) -> dict:
        """JSON-serialisable snapshot of the per-buffer token levels.

        The levels are emitted as plain Python floats, which round-trip
        exactly through :mod:`json` (``repr`` of a double), so restoring the
        state reproduces admission decisions bit for bit.
        """
        return {
            "tokens": self._tokens.tolist(),
            "refilled": self._refilled_this_round,
        }

    def set_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state`."""
        tokens = [float(value) for value in state["tokens"]]
        if len(tokens) != self.num_nodes:
            raise ValueError(
                f"token-bucket state has {len(tokens)} buffers, "
                f"expected {self.num_nodes}"
            )
        if any(value != value for value in tokens):
            raise ValueError("token-bucket state holds a NaN level")
        self._tokens = np.array(tokens, dtype=np.float64)
        self._dry = np.flatnonzero(self._tokens < 1.0).tolist()
        self._refilled_this_round = bool(state.get("refilled", False))


def tree_span(
    tree: Topology, node_index: Dict[int, int], source: int, destination: int
) -> Tuple[int, ...]:
    """The bucket indices of the buffers the tree route ``source ->
    destination`` crosses: every node on its path except the destination."""
    return tuple(node_index[v] for v in tree.path(source, destination)[:-1])


def injections_crossings(
    injections: List[Injection], topology: Topology
) -> Dict[int, int]:
    """``N(v)`` for a single round's worth of injections (helper for tests)."""
    counts: Dict[int, int] = {}
    for injection in injections:
        for v in topology.path(injection.source, injection.destination)[:-1]:
            counts[v] = counts.get(v, 0) + 1
    return counts
