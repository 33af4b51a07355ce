"""Hierarchical Peak-to-Sink (HPTS) — Algorithms 3-5, Theorem 4.1.

HPTS partitions the line hierarchically (``ell`` levels of nested intervals,
branching factor ``m = n**(1/ell)``) and runs an independent PPTS instance
inside every interval, with the interval's ``m`` sub-interval left-endpoints
playing the role of destinations.  A packet's journey is decomposed into
*segments* of strictly decreasing level; at any moment the packet lives in the
pseudo-buffer keyed by its current ``(level, intermediate destination)``.

Three mechanisms make this fit in the available bandwidth and keep badness
under control:

* **Phase batching** — packets injected during a phase of ``ell`` rounds are
  accepted together at the start of the next phase (the ``ell``-reduction of
  Definition 2.4).
* **Time-division multiplexing** — each round of a phase serves exactly one
  hierarchy level: same-level intervals are edge-disjoint, so all of them can
  run their PPTS step in parallel (``FormPaths``).
* **Pre-bad activation** — when a forwarded packet is about to finish its
  segment and would land on top of an occupied lower-level pseudo-buffer, the
  lower-level interval is activated in the same round so the hand-off does not
  increase badness (``ActivatePreBad``).

Theorem 4.1: for any ``(rho, sigma)``-bounded adversary with ``rho * ell <= 1``,
the maximum (accepted) buffer occupancy is at most ``ell * n**(1/ell) + sigma + 1``.
With ``ell = 1`` HPTS reduces to PPTS.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from ..api.registry import register_algorithm
from ..network.errors import ConfigurationError
from ..network.topology import LineTopology
from .hierarchy import HierarchicalPartition
from .packet import Packet
from .pseudobuffer import QueueDiscipline
from .scheduler import Activation, ForwardingAlgorithm
from . import bounds

__all__ = ["HierarchicalPeakToSink"]

#: How the ``ell`` rounds of a phase map to hierarchy levels.
#: ``descending`` serves level ``ell-1`` first (matching the analysis of
#: Lemma 4.8, where levels are activated in decreasing order over a phase);
#: ``ascending`` serves level 0 first (the literal ``lambda = t mod ell`` of
#: Algorithm 3).  Both are available; the E9 ablation compares them.
LEVEL_SCHEDULES = ("descending", "ascending")


@register_algorithm("hpts")
class HierarchicalPeakToSink(ForwardingAlgorithm):
    """The HPTS algorithm on a line of ``n = m**ell`` buffers.

    Parameters
    ----------
    topology:
        The line.  Its length must be a perfect ``levels``-th power unless an
        explicit ``branching`` factor is given.
    levels:
        The number of hierarchy levels ``ell``.
    branching:
        The branching factor ``m``; derived from ``n`` and ``levels`` when
        omitted.
    rho:
        Optional declared adversary rate, used only to validate the theorem's
        precondition ``rho * ell <= 1`` up front.
    level_schedule:
        ``"descending"`` (default) or ``"ascending"`` — see
        :data:`LEVEL_SCHEDULES`.
    activate_pre_bad:
        Ablation switch for the ``ActivatePreBad`` mechanism (E9).
    batch_acceptance:
        Ablation switch for phase batching; when ``False`` packets are
        accepted immediately on injection (E9).
    """

    name = "HPTS"

    def __init__(
        self,
        topology: LineTopology,
        levels: int,
        branching: Optional[int] = None,
        *,
        rho: Optional[float] = None,
        level_schedule: str = "descending",
        activate_pre_bad: bool = True,
        batch_acceptance: bool = True,
        discipline: QueueDiscipline = QueueDiscipline.LIFO,
    ) -> None:
        super().__init__(topology, discipline=discipline)
        if level_schedule not in LEVEL_SCHEDULES:
            raise ConfigurationError(
                f"level_schedule must be one of {LEVEL_SCHEDULES}, got {level_schedule!r}"
            )
        if rho is not None and rho * levels > 1 + 1e-9:
            raise ConfigurationError(
                f"HPTS requires rho * ell <= 1; got rho={rho}, ell={levels}"
            )
        self.partition = HierarchicalPartition(topology.num_nodes, levels, branching)
        self.levels = self.partition.levels
        self.branching = self.partition.branching
        self.level_schedule = level_schedule
        self.activate_pre_bad = activate_pre_bad
        self.batch_acceptance = batch_acceptance
        #: Packets injected but not yet accepted (phase batching).
        self._staged: List[Packet] = []
        #: ``m**(j+1)``: the length of every level-``j`` interval.
        self._interval_size: Tuple[int, ...] = tuple(
            self.branching ** (level + 1) for level in range(self.levels)
        )

    # -- packet placement --------------------------------------------------------

    def classify(self, packet: Packet, node: int) -> Hashable:
        return self.partition.pseudo_buffer_key(node, packet.destination)

    def on_inject(self, round_number: int, packets: List[Packet]) -> None:
        if self.batch_acceptance:
            # Phase boundary: accept everything injected in earlier phases.
            if round_number % self.levels == 0 and self._staged:
                still_staged: List[Packet] = []
                for packet in self._staged:
                    if packet.injected_round < round_number:
                        packet.accept(round_number)
                        self.buffers[packet.location].store(
                            packet, self.classify(packet, packet.location)
                        )
                    else:
                        still_staged.append(packet)
                self._staged = still_staged
            self._staged.extend(packets)
        else:
            super().on_inject(round_number, packets)

    def staged_count(self) -> int:
        return len(self._staged)

    def checkpoint_state(self) -> Dict:
        # The bad-buffer index is derived state, rebuilt when the checkpoint
        # layer places the buffers; only the staged (injected-but-unaccepted)
        # packets need recording.
        return {"staged": [packet.packet_id for packet in self._staged]}

    def restore_checkpoint_state(self, state: Dict, packets) -> None:
        self._staged = [packets[packet_id] for packet_id in state["staged"]]

    # -- forwarding decisions ------------------------------------------------------

    def select_activations(self, round_number: int) -> List[Activation]:
        current_level = self._level_for_round(round_number)
        active: Dict[int, Tuple[int, int]] = {}
        activations: List[Activation] = []
        # Lines 6-8 of Algorithm 3: FormPaths on every level-lambda interval
        # (intervals holding no bad level-lambda buffer activate nothing).
        size = self._interval_size[current_level]
        for rank, destinations in self._occupied_intervals(current_level):
            start = rank * size
            self._form_paths(
                start, start + size - 1, current_level, destinations, active,
                activations,
            )
        # Lines 9-11: cascade pre-bad activations down the remaining levels.
        if self.activate_pre_bad:
            for level in range(current_level - 1, -1, -1):
                self._activate_pre_bad(level, active, activations)
        return activations

    def theoretical_bound(self, sigma: float) -> float:
        """Theorem 4.1: ``ell * n**(1/ell) + sigma + 1``."""
        return bounds.hpts_upper_bound(self.topology.num_nodes, self.levels, sigma)

    # -- internals ----------------------------------------------------------------

    def _level_for_round(self, round_number: int) -> int:
        offset = round_number % self.levels
        if self.level_schedule == "ascending":
            return offset
        return self.levels - 1 - offset

    def _occupied_intervals(self, level: int) -> List[Tuple[int, List[int]]]:
        """``(rank, destinations)`` per level-``level`` interval where FormPaths
        can activate anything, ranks and destinations ascending.

        These are the destinations ``w`` whose ``(level, w)`` key has a bad
        buffer, grouped by interval: every ``(level, w)`` packet sits in the
        level-``level`` interval that contains ``w`` (the virtual sink
        ``w = n`` belongs to the last one), so the interval of rank
        ``min(w // m**(level+1), last rank)`` is the only one where ``w`` can
        take part in FormPaths.  Leaving out the destinations with no bad
        buffer changes nothing: FormPaths skips them, and the frontier
        starts at the largest destination, at or right of every ``w - 1``,
        so only a found bad position ever moves it.
        """
        size = self._interval_size[level]
        last_rank = self.topology.num_nodes // size - 1
        buckets: Dict[int, List[int]] = {}
        # Sorted destinations give non-decreasing ranks, so the dict's
        # insertion order is already the ascending rank order.
        for w in sorted(w for j, w in self._index.bad_keys() if j == level):
            buckets.setdefault(min(w // size, last_rank), []).append(w)
        return list(buckets.items())

    def _form_paths(
        self,
        start: int,
        end: int,
        level: int,
        destinations: List[int],
        active: Dict[int, Tuple[int, int]],
        activations: List[Activation],
    ) -> None:
        """Algorithm 4 restricted to the level-``level`` interval ``[start, end]``,
        whose level-``level`` packets head for ``destinations`` (ascending)."""
        frontier = destinations[-1]
        for w in reversed(destinations):
            key = (level, w)
            last = min(frontier - 1, w - 1, end)
            bad = self._leftmost_bad(key, start, last)
            if bad is None:
                continue
            for i in range(bad, last + 1):
                if i in active:
                    continue
                activations.append(Activation(node=i, key=key))
                active[i] = key
            frontier = bad

    def _leftmost_bad(
        self, key: Tuple[int, int], start: int, last: int
    ) -> Optional[int]:
        """The left-most position in ``[start, last]`` whose ``key``
        pseudo-buffer is bad, or ``None``."""
        return self._index.leftmost_bad(key, start, last)

    def _activate_pre_bad(
        self,
        level: int,
        active: Dict[int, Tuple[int, int]],
        activations: List[Activation],
    ) -> None:
        """Algorithm 5 for one level: extend activations across segment hand-offs."""
        size = self._interval_size[level]
        # Every level-``level`` interval start except 0 (nothing precedes it).
        for start in range(size, self.topology.num_nodes, size):
            if start in active:
                continue
            pre_bad_key = self._pre_bad_key(start, level, active)
            if pre_bad_key is None:
                continue
            _, intermediate = pre_bad_key
            # w <- max{i in I : i <= w_k and [start, i] is inactive}
            limit = min(intermediate, start + size - 1)
            last_inactive = start
            i = start
            while i <= limit and i not in active:
                last_inactive = i
                i += 1
            for i in range(start, last_inactive + 1):
                activations.append(Activation(node=i, key=pre_bad_key))
                active[i] = pre_bad_key

    def _pre_bad_key(
        self,
        node: int,
        level: int,
        active: Dict[int, Tuple[int, int]],
    ) -> Optional[Tuple[int, int]]:
        """If a packet is pre-bad for ``node`` at ``level``, its new pseudo-buffer key.

        Definition 4.6: the buffer at ``node - 1`` is active and its outgoing
        packet ``P`` finishes its current segment at ``node`` (the segment's
        intermediate destination is ``node``), where ``P`` re-classifies into a
        level-``level`` pseudo-buffer that is already occupied.
        """
        predecessor_key = active.get(node - 1)
        if predecessor_key is None:
            return None
        pseudo = self.buffers[node - 1].existing(predecessor_key)
        if pseudo is None or not pseudo:
            return None
        packet = pseudo.peek()
        if packet is None:
            return None
        _, current_intermediate = predecessor_key
        if current_intermediate != node:
            return None
        if packet.destination == node:
            # The packet is delivered on arrival; it never re-buffers.
            return None
        new_key = self.partition.pseudo_buffer_key(node, packet.destination)
        if new_key[0] != level:
            return None
        if self.buffers[node].load_of(new_key) < 1:
            return None
        return new_key
