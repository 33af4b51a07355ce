"""Vectorized batch-round engine for the regular algorithm family.

:class:`BatchSimulator` advances ``k`` rounds of injection/selection/
forwarding over flat int64 state instead of the object engine's per-round
dict-and-object machinery.  The state layout is:

* ``occ[v]``   — packets currently stored at node ``v`` (one entry per node);
* ``mx[v]``    — running per-node maximum of ``|L^t(v)|`` (folded at
  measurement instants only: after injection, before forwarding);
* per-packet *columns* ``pid/src/dst/injr/arr/dlv`` — one int64 row per
  packet, appended at injection, indexed by *row id*;
* one queue of row ids per node, in exact push (deque) order, so the object
  engine's LIFO/FIFO pop and greedy min-by-key selection are reproduced
  bit for bit.

:class:`~repro.core.packet.Packet` objects are not built inside the kernel
at all when the adversary is a pre-validated eager
:class:`~repro.adversary.base.InjectionPattern`: injections append column
rows straight from the pattern's own columnar store, deliveries record the
round in the ``dlv`` column, and only the rows still live get objects, at
checkpoint cuts and at the end of a run.  A delivered row becomes a
:class:`~repro.core.packet.Packet` only when ``simulator.packets`` is first
read after it (see :attr:`BatchSimulator.packets`).

The columns and maxima live in flat ``array('q')`` buffers — already the
int64 layout numpy wants — and numpy views them zero-copy
(``numpy.frombuffer``, once per kernel load) for whole-pattern
route/destination pre-validation, PTS's bad-buffer scan when a window
starts, the folds of shifted PTS segments and the batch-boundary maxima
scan.

Forwarding is a single fused left-to-right scan per round: each active node
pops its own packet *before* the carry from its predecessor lands, so the
carry travels exactly one hop and the per-queue outcome equals the object
engine's pop-all-then-place-all two-phase round.  Every round runs this one
scan — injection rounds, drain rounds and full-history rounds alike; a
full-history run builds each :class:`~repro.network.events.RoundRecord` from
O(n) load snapshots taken around the scan.

PTS scans by segments, not nodes.  Its active nodes run from the left-most
bad buffer (under work-conserving PTS with no bad buffer, from node 0) to
``last``, and between two bad buffers every node holds at most one packet.
So each bad buffer pops by the queue discipline and takes the incoming
carry, and each segment ``[lo, hi]`` between them forwards as one shift:
``queues[hi]``'s packet leaves as the carry, ``queues[hi]`` is deleted from
the queue list and reinserted, empty, at ``lo``, ``occ[lo+1:hi+1] =
occ[lo:hi]`` moves the loads, and the incoming carry lands at ``lo``.  Both
moves are C memmoves.  This is exact because forwarding never makes a buffer
bad: a segment node sends its own packet and receives at most one, and a
bad buffer pops one and receives at most one, so the bad set before the
round only shrinks during it.  The bad set is therefore kept, not searched
for: one ``nonzero`` over the loads when a window starts, then a sorted
list that only injections grow and pops below the threshold shrink.  A
shifted segment's nodes are maxima candidates, but they are folded at the
*next* measurement (one ``numpy.maximum`` over the span of the round's
segments), never at the shift: the loads a run's final round leaves behind
are not a measurement in any engine.  The fold stops while every node
from the first one with a nonzero maximum to ``last`` has one: it could
only raise a maximum of 0, right of that node (see
:meth:`BatchSimulator._maxima_settled`).  The global maximum is then read
off the per-node maxima at sync.

Scope (everything else raises :class:`UnbatchableScenarioError`, which
``RunPolicy.engine="auto"`` catches to fall back to the object engine):

* :class:`~repro.network.topology.LineTopology` only — the layout encodes
  the line's ``v -> v+1`` structure directly in index arithmetic;
* non-adaptive adversaries — adaptive injections observe the global
  configuration between rounds, which a batch cannot replay;
* the regular algorithm family: :class:`~repro.core.pts.PeakToSink`,
  :class:`~repro.core.local.LocalThresholdForwarding`,
  :class:`~repro.core.local.DownhillForwarding` and
  :class:`~repro.baselines.greedy.GreedyForwarding` with a stock policy
  (:data:`~repro.baselines.policies.ALL_POLICIES`);
* the pseudo-buffer kind, with any number of destinations:
  :class:`~repro.core.ppts.ParallelPeakToSink` and
  :class:`~repro.core.hpts.HierarchicalPeakToSink` with both of its
  mechanisms on (``activate_pre_bad`` and ``batch_acceptance``; either
  ablation switch off is refused).

The pseudo-buffer kind has its own round (:meth:`BatchSimulator._pseudo_window`)
and stores its stacks key by key.  A pseudo-buffer's flat integer key is
``level * (n + 1) + w`` (PPTS is the one-level case, ``key == w``), and a
key's rows only ever sit in ``[base, w)``, the part of its level's interval
left of ``w``.  Each key keeps, over that span, a list of row stacks in push
order, an ``array('q')`` of their loads and the set of nodes where its stack
is bad; each level keeps the set of destinations with a bad stack.  A round
selects from the state before the round — FormPaths, then the
``ActivatePreBad`` cascade, as disjoint ``(lo, hi, key)`` node ranges — and
forwards the ranges right to left, each by segments as PTS does: between
two of the key's bad stacks every stack holds at most one row, so the
segment moves one node right with one ``del``/``insert`` on the key's stack
list and one on its load array.  ``occ`` sums every key at a node, so it
changes only where the key's load changes along the segment, and only the
row leaving a range's last node can be delivered or re-keyed.  Every node
pops at most one packet and receives at most one, so each stack's order is
the object engine's.  The nodes whose load rose are folded into the maxima
at the next measurement.

A drain is one window call that steps the
:class:`~repro.network.simulator.DrainStop` rule every round.  The rule
stops after :func:`~repro.network.simulator.quiescence_window` rounds that
forward nothing; the window runs them only until ``ell`` quiet rounds in a
row (one for the fused family) prove the configuration a fixed point, and
the drain then counts the rest of the window, or of the drain cap, at once;
under full history it appends their round records, alike but for the round
number.

The kernel is loaded from object state once per simulator, and object
state (the algorithm's buffers, the occupancy timeline) is synced back only
at the end of each ``run()`` and at checkpoint cuts; a later ``run()`` goes
on from the kernel.  ``run(checkpoint_every=...)`` clamps each batch window
to the checkpoint cadence, so a cut never lands mid-batch and the existing
checkpoint layer (:mod:`repro.checkpoint`) serialises the engine unchanged,
to the same bytes the object engine writes at that cut.
"""

from __future__ import annotations

from array import array
from bisect import insort
from collections import deque
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..adversary.base import InjectionPattern
from ..baselines.greedy import GreedyForwarding
from ..baselines.policies import ALL_POLICIES
from ..core.hpts import HierarchicalPeakToSink
from ..core.local import DownhillForwarding, LocalThresholdForwarding
from ..core.packet import Injection, Packet, PacketState
from ..core.ppts import ParallelPeakToSink
from ..core.pseudobuffer import QueueDiscipline
from ..core.pts import PeakToSink
from ..core.scheduler import ForwardingAlgorithm
from ..network.errors import (
    ConfigurationError,
    SchedulingError,
    TopologyError,
    UnbatchableScenarioError,
)
from ..network.events import HistoryPolicy, RoundRecord
from ..network.simulator import DrainStop, Simulator, check_checkpoint_every
from ..network.topology import LineTopology, Topology

__all__ = ["BatchSimulator", "DEFAULT_BATCH_ROUNDS"]

#: Default batch window (rounds advanced between object-state syncs).
DEFAULT_BATCH_ROUNDS = 64

# Kernel codes: the fused-scan family, then the pseudo-buffer kind.
_PTS, _LOCAL, _DOWNHILL, _GREEDY, _PSEUDO = 0, 1, 2, 3, 4

_KERNEL_KINDS = {
    PeakToSink: _PTS,
    LocalThresholdForwarding: _LOCAL,
    DownhillForwarding: _DOWNHILL,
    GreedyForwarding: _GREEDY,
    ParallelPeakToSink: _PSEUDO,
    HierarchicalPeakToSink: _PSEUDO,
}

# Greedy policy key codes (see repro.baselines.policies): the composite sort
# key is always (k1, packet_id), with k1 per policy below.
_POL_FIFO, _POL_LIFO, _POL_LIS, _POL_SIS, _POL_NTG, _POL_FTG = range(6)

_POLICY_CODES = {
    "FIFO": _POL_FIFO,
    "LIFO": _POL_LIFO,
    "LIS": _POL_LIS,
    "SIS": _POL_SIS,
    "NTG": _POL_NTG,
    "FTG": _POL_FTG,
}

# Sentinel values for the per-row delivery column (a delivered row holds its
# delivery round): live / handed to the next segment (sharded runs).
_LIVE, _HANDED_OFF = -1, -2

# One pseudo-buffer key's state over its interval ``[base, w)``: the node
# index ``base``, the row stacks (``None`` until a row first lands), their
# loads, and the nodes where the stack is bad.
_KeySpan = Tuple[int, List[Optional[deque]], array, set]


class BatchSimulator(Simulator):
    """A :class:`~repro.network.simulator.Simulator` with a flat-array core.

    Construction validates batchability *before* any side effect, so
    ``engine="auto"`` can catch :class:`UnbatchableScenarioError` and build
    the object engine instead.  All run-policy parameters and the public API
    (``run``, ``save_checkpoint``, ``from_checkpoint``) are inherited; the
    engines produce bit-identical :class:`SimulationResult` values, round
    records and streamed injection logs, and byte-identical checkpoints
    (either engine's resumes under the other to the same result).

    Parameters beyond the base class:

    batch_rounds:
        Rounds advanced per kernel window (>= 1).  Results do not depend on
        it: the kernel syncs the object world only at checkpoint cuts and
        at the end of :meth:`run`.

    A sync builds a :class:`~repro.core.packet.Packet` for each live row
    that has none yet and stores it in the algorithm's buffers, so those
    always hold what the object engine's would.  The packet table is built
    lazily: the first read of :attr:`packets` after a sync enters the rows
    since the last read, in row order, delivered ones built from the
    kernel's columns.  A run whose packets nobody reads builds none for a
    delivered row.
    """

    __slots__ = ()

    def __init__(
        self,
        topology: Topology,
        algorithm: ForwardingAlgorithm,
        adversary: "object",
        *,
        batch_rounds: int = DEFAULT_BATCH_ROUNDS,
        record_history: bool = False,
        record_occupancy_vectors: bool = False,
        history: Optional[Union[HistoryPolicy, str]] = None,
        validate_capacity: bool = True,
    ) -> None:
        if not isinstance(batch_rounds, int) or isinstance(batch_rounds, bool):
            raise ConfigurationError(
                f"batch_rounds must be an int >= 1, got {batch_rounds!r}"
            )
        if batch_rounds < 1:
            raise ConfigurationError(
                f"batch_rounds must be >= 1, got {batch_rounds}"
            )
        # Batchability checks, before super().__init__ touches anything.
        if not isinstance(topology, LineTopology):
            raise UnbatchableScenarioError(
                f"the batch kernel only vectorizes LineTopology "
                f"(got {type(topology).__name__})"
            )
        if getattr(adversary, "adaptive", False):
            raise UnbatchableScenarioError(
                f"{type(adversary).__name__} is adaptive: its injections "
                f"observe the global configuration between rounds, which a "
                f"batch window cannot replay"
            )
        kind = _KERNEL_KINDS.get(type(algorithm))
        if kind is None:
            raise UnbatchableScenarioError(
                f"{type(algorithm).__name__} is outside the regular family "
                f"(PTS, local, downhill, greedy) and the pseudo-buffer kind "
                f"(PPTS, HPTS) the batch kernel runs"
            )
        if kind == _GREEDY and algorithm.policy not in ALL_POLICIES:
            raise UnbatchableScenarioError(
                f"greedy policy {algorithm.policy!r} is not one of the "
                f"built-in policies the batch kernel encodes"
            )
        if isinstance(algorithm, HierarchicalPeakToSink) and not (
            algorithm.activate_pre_bad and algorithm.batch_acceptance
        ):
            raise UnbatchableScenarioError(
                "the batch kernel runs HPTS only with activate_pre_bad and "
                "batch_acceptance on (the E9 ablations run on the object "
                "engine)"
            )

        super().__init__(
            topology,
            algorithm,
            adversary,
            record_history=record_history,
            record_occupancy_vectors=record_occupancy_vectors,
            history=history,
            validate_capacity=validate_capacity,
        )

        self.batch_rounds = batch_rounds
        self._kind = kind
        self._n = topology.num_nodes
        self._max_dest = (
            topology.num_nodes
            if topology.allow_virtual_sink
            else topology.num_nodes - 1
        )
        self._lifo = algorithm.discipline is QueueDiscipline.LIFO
        if kind in (_GREEDY, _PSEUDO):
            # Multi-destination kinds: no single w, no threshold knobs.
            self._dest = -1
            self._last = self._n - 1
            self._store_key: object = "queue"
            self._policy_code = (
                _POLICY_CODES[algorithm.policy.name] if kind == _GREEDY else -1
            )
            self._work_conserving = False
            self._bad_threshold = 2
            self._locality = 0
        else:
            self._dest = algorithm.destination
            self._last = min(self._dest - 1, self._n - 1)
            self._store_key = algorithm.destination
            self._policy_code = -1
            self._work_conserving = bool(
                getattr(algorithm, "work_conserving", False)
            )
            self._bad_threshold = getattr(algorithm, "threshold", 2)
            self._locality = getattr(algorithm, "locality", 0)
        # Whole-pattern pre-validation: when every route and destination in
        # an eager pattern is valid, the per-injection checks are skipped and
        # the hot loop injects straight from the pattern's columnar store.
        self._routes_prevalidated = False
        self._dests_prevalidated = False
        self._fast_rows: Optional[Mapping[int, Sequence[int]]] = None
        self._pat_src: Optional[array] = None
        self._pat_dst: Optional[array] = None
        self._pat_ids: Optional[array] = None
        self._prevalidate_pattern()
        # Kernel state (populated by _load_kernel at the start of each run).
        self._occ = array("q")
        self._mx = array("q")
        self._occ_v = np.frombuffer(self._occ, dtype=np.int64)
        self._mx_v = np.frombuffer(self._mx, dtype=np.int64)
        self._queues: List[deque] = []
        self._col_pid = array("q")
        self._col_src = array("q")
        self._col_dst = array("q")
        self._col_injr = array("q")
        self._col_arr = array("q")
        self._col_dlv = array("q")
        self._row_packet: List[Optional[Packet]] = []
        self._touch: List[int] = []
        self._touch_ranges: List[Tuple[int, int]] = []
        self._stored = 0
        self._num_bad = 0
        self._gmax = 0
        # Pseudo-buffer kind (PPTS, HPTS): the static layout, then the state
        # _load_kernel fills (see _load_pseudo).
        self._ell = 1
        self._hierarchical = False
        self._ascending = False
        self._blocks: Tuple[Tuple[int, int], ...] = ()
        self._interval_size: Tuple[int, ...] = (self._n,)
        self._allowed: Optional[frozenset] = None
        if kind == _PSEUDO:
            self._configure_pseudo(algorithm)
        self._spans: Dict[int, _KeySpan] = {}
        self._bad_dests: List[set] = []
        self._staged_rows: List[int] = []
        self._observed: set = set()
        self._max_staged = 0
        self._kernel_ready = False
        #: Rows below this one are published to the packet table (see
        #: :attr:`packets`).
        self._published = 0

    # -- the packet table, published on read ------------------------------------------

    @property
    def packets(self) -> Dict[int, Packet]:  # type: ignore[override]
        """Every packet the simulator is tracking, keyed by packet id.

        The table the object engine keeps, in the same order with the same
        fields: a run's packets in injection order, delivered ones only
        when :attr:`retain_packets`.  The rows entered since the last read
        are published on this read (see :meth:`_publish`); a live packet is
        the very object the algorithm's buffers hold.
        """
        if self._published < len(self._row_packet):
            self._publish()
        return self._packets

    @packets.setter
    def packets(self, table: Dict[int, Packet]) -> None:
        self._packets = table

    def _publish(self) -> None:
        """Enter the rows from ``_published`` on into the packet table, in
        row order, which is injection order.

        Valid between runs: a sync has given every live row its packet,
        which goes in as it is (a packet delivered since keeps its place,
        unless streaming dropped it).  A delivered row with no packet is
        built from the columns, exactly as the object engine's delivery
        leaves it, when the run retains delivered packets.
        """
        table = self._packets
        row_packet = self._row_packet
        total = len(row_packet)
        retain = self.retain_packets
        col_pid = self._col_pid
        col_src = self._col_src
        col_dst = self._col_dst
        col_injr = self._col_injr
        col_accepted = self._col_arr if self._kind == _PSEUDO else col_injr
        dlv = self._col_dlv
        from_row = Packet.from_row
        delivered = PacketState.DELIVERED
        for row in range(self._published, total):
            packet = row_packet[row]
            if packet is not None:
                table[packet.packet_id] = packet
            elif retain and dlv[row] >= 0:
                source = col_src[row]
                destination = col_dst[row]
                table[col_pid[row]] = from_row(
                    col_pid[row], source, destination, col_injr[row],
                    destination, delivered, col_accepted[row], dlv[row],
                    destination - source,
                )
        self._published = total

    # -- batch-level pre-validation ------------------------------------------------

    def _prevalidate_pattern(self) -> None:
        """Whole-pattern route/destination check (vectorized).

        Only ever *clears* work from the hot loop: when the check cannot
        prove every injection valid, the per-injection scalar checks stay on
        and raise the exact object-engine error at the exact round.  A fully
        valid eager pattern additionally unlocks the object-free injection
        fast path (``self._fast_rows``).
        """
        if type(self.adversary) is not InjectionPattern:
            return
        if self._check_store(self.adversary._store):
            self._fast_rows = self.adversary._by_round

    def _check_store(self, store) -> bool:
        """Validate a pattern's columnar store in one vectorized pass.

        Sets the ``_routes_prevalidated``/``_dests_prevalidated`` flags and,
        when the fast path may use the store, binds its columns and returns
        ``True``.
        """
        sources = store.sources
        destinations = store.destinations
        s = np.frombuffer(sources, dtype=np.int64)
        d = np.frombuffer(destinations, dtype=np.int64)
        routes_ok = bool(
            ((s >= 0) & (s < self._n) & (d > s) & (d <= self._max_dest)).all()
        )
        dests_ok = bool((d == self._dest).all())
        self._routes_prevalidated = routes_ok
        # Greedy and the pseudo-buffer kind are multi-destination: their
        # destinations are never checked.
        self._dests_prevalidated = dests_ok
        if not (routes_ok and (self._dest < 0 or dests_ok)):
            return False
        self._pat_src = sources
        self._pat_dst = destinations
        self._pat_ids = store.packet_ids
        return True

    def _configure_pseudo(self, algorithm: ForwardingAlgorithm) -> None:
        """The static layout of PPTS (one level, one interval) or HPTS."""
        if isinstance(algorithm, HierarchicalPeakToSink):
            self._ell = algorithm.levels
            self._hierarchical = True
            self._ascending = algorithm.level_schedule == "ascending"
            self._blocks = algorithm.partition._blocks
            self._interval_size = algorithm._interval_size
        elif algorithm._declared_destinations is not None:
            self._allowed = frozenset(algorithm._declared_destinations)

    def _pseudo_key(self, position: int, destination: int) -> int:
        """The flat key ``level * (n + 1) + w`` of a row at ``position``.

        :meth:`HierarchicalPartition.pseudo_buffer_key` on the same block
        sizes; PPTS (no blocks, one level) keys by the destination itself.
        """
        n = self._n
        if destination == n:
            return (self._ell - 1) * (n + 1) + n
        for level, block in self._blocks:
            head = destination // block
            if position // block != head:
                return level * (n + 1) + head * block
        return destination

    # -- kernel state <-> object state ---------------------------------------------

    def ensure_kernel(self) -> None:
        """Load the flat kernel from object state, once per simulator.

        Later syncs (:meth:`_sync_objects`) leave the kernel authoritative,
        so a later ``run()`` goes on from it, as a run does after a
        checkpoint cut.
        """
        if not self._kernel_ready:
            self._load_kernel()
            self._published = len(self._row_packet)
            self._kernel_ready = True

    def _load_kernel(self) -> None:
        """Extract flat kernel state from the object world.

        Runs once, from :meth:`ensure_kernel`, on a fresh simulator or after
        a checkpoint restore: whatever the checkpoint layer left in the
        buffers is the kernel's starting configuration, and the loaded
        rows' packets are already in the table.
        """
        n = self._n
        zeros = bytes(8 * n)
        self._occ = occ = array("q", zeros)
        self._mx = mx = array("q", zeros)
        # Zero-copy numpy views, made once per load, not once per window
        # call.  Neither buffer is ever resized.
        self._occ_v = np.frombuffer(occ, dtype=np.int64)
        self._mx_v = np.frombuffer(mx, dtype=np.int64)
        self._queues = queues = [deque() for _ in range(n)]
        self._col_pid = array("q")
        self._col_src = array("q")
        self._col_dst = array("q")
        self._col_injr = array("q")
        self._col_arr = array("q")
        self._col_dlv = array("q")
        self._row_packet = []
        self._touch = touch = []
        self._touch_ranges = []
        self._stored = 0
        self._num_bad = 0
        self._gmax = self._timeline.max_occupancy
        self._max_staged = self._timeline.max_staged
        for node, peak in self._timeline.per_node_maxima().items():
            mx[node] = peak
        if self._kind == _PSEUDO:
            self._load_pseudo()
            return
        arrival = (
            self.algorithm._arrival_round if self._kind == _GREEDY else None
        )
        bad_threshold = self._bad_threshold
        append_pid = self._col_pid.append
        append_src = self._col_src.append
        append_dst = self._col_dst.append
        append_injr = self._col_injr.append
        append_arr = self._col_arr.append
        append_dlv = self._col_dlv.append
        row = 0
        for node in range(n):
            node_buffer = self.algorithm.buffers[node]
            queue = queues[node]
            for pseudo in node_buffer.pseudo_buffers():
                for packet in pseudo.packets():
                    pid = packet.packet_id
                    append_pid(pid)
                    append_src(packet.source)
                    append_dst(packet.destination)
                    append_injr(packet.injected_round)
                    append_arr(arrival.get(pid, 0) if arrival is not None else 0)
                    append_dlv(_LIVE)
                    self._row_packet.append(packet)
                    queue.append(row)
                    row += 1
            load = len(queue)
            if load:
                occ[node] = load
                self._stored += load
                if load >= bad_threshold:
                    self._num_bad += 1
                # The restored object engine's dirty set covers every stored
                # node (placing the checkpoint's buffers marks them); fold the
                # same candidates at the first measurement.
                touch.append(node)

    def _load_pseudo(self) -> None:
        """The pseudo-buffer kind's half of :meth:`_load_kernel`: each key's
        row stacks and loads over its interval (see :meth:`_key_span`), the
        destinations with a bad stack per level, HPTS's staged rows and
        PPTS's observed destinations."""
        n = self._n
        stride = n + 1
        algorithm = self.algorithm
        self._spans = {}
        self._bad_dests = [set() for _ in range(self._ell)]
        self._staged_rows = []
        key_span = self._key_span

        def add_row(packet: Packet) -> int:
            accepted = packet.accepted_round
            return self._append_row(
                packet.injection, packet, -1 if accepted is None else accepted
            )

        for node in range(n):
            load = 0
            for pseudo in algorithm.buffers[node].pseudo_buffers():
                if not pseudo:
                    continue
                key = pseudo.key
                flat = key[0] * stride + key[1] if type(key) is tuple else key
                base, stacks, loads, bad = key_span(flat)
                stack = deque(add_row(packet) for packet in pseudo.packets())
                stacks[node - base] = stack
                loads[node - base] = len(stack)
                load += len(stack)
                if len(stack) >= 2:
                    if not bad:
                        self._bad_dests[flat // stride].add(flat % stride)
                    bad.add(node)
            if load:
                self._occ[node] = load
                self._stored += load
                self._touch.append(node)
        if self._hierarchical:
            self._staged_rows = [add_row(packet) for packet in algorithm._staged]
        else:
            self._observed = set(algorithm._observed_destinations)

    def _key_span(self, key: int) -> _KeySpan:
        """The state of flat ``key`` over its interval, made on first use.

        A ``(level, w)`` row only ever sits in ``[base, w)``, where ``base``
        starts the level's interval holding ``w`` (the virtual sink
        ``w = n`` belongs to the last one): the row's position agrees with
        ``w`` on every digit above ``level``.  PPTS's one interval is the
        line, so its keys span ``[0, w)``.
        """
        span = self._spans.get(key)
        if span is None:
            n = self._n
            level, w = divmod(key, n + 1)
            size = self._interval_size[level]
            base = min(w, n - 1) // size * size
            width = w - base
            span = (base, [None] * width, array("q", bytes(8 * width)), set())
            self._spans[key] = span
        return span

    def _sync_objects(self) -> None:
        """Materialise kernel state back into the object world.

        Built here: a :class:`Packet` for each live row (stored, or staged
        by HPTS) that has none yet, the algorithm's buffers in queue order,
        its extra state and the occupancy timeline — what the object engine
        holds at the same round boundary (less any emptied pseudo-buffer it
        has not yet collected), so the checkpoint layer and any post-run
        inspection see one engine.  The buffers are set in one
        :meth:`~repro.core.scheduler.ForwardingAlgorithm.place_buffers`
        call, so the cost follows the live rows, not the rows the run has
        held.  Not built here: the packet table, which :attr:`packets`
        publishes on its next read, delivered rows included.
        """
        algorithm = self.algorithm
        queues = self._queues
        row_packet = self._row_packet
        n = self._n
        pseudo = self._kind == _PSEUDO
        # (node, object-world key, rows in queue order) per nonempty queue.
        if pseudo:
            stride = n + 1
            hierarchical = self._hierarchical
            placements = [
                (
                    base + index,
                    (key // stride, key % stride) if hierarchical else key,
                    rows,
                )
                for key, (base, stacks, _loads, _bad) in self._spans.items()
                for index, rows in enumerate(stacks)
                if rows
            ]
        else:
            store_key = self._store_key
            placements = [
                (node, store_key, queues[node]) for node in range(n) if queues[node]
            ]
        col_pid = self._col_pid
        col_src = self._col_src
        col_dst = self._col_dst
        col_injr = self._col_injr
        # The pseudo kind records acceptance rounds (-1 = staged) in the arr
        # column; the fused family accepts at injection.
        col_accepted = self._col_arr if pseudo else col_injr
        from_row = Packet.from_row
        in_transit = PacketState.IN_TRANSIT

        def live_packet(row: int, node: int) -> Packet:
            packet = row_packet[row]
            if packet is None:
                source = col_src[row]
                accepted = col_accepted[row]
                packet = row_packet[row] = from_row(
                    col_pid[row], source, col_dst[row], col_injr[row], node,
                    in_transit, accepted if accepted >= 0 else None, None,
                    node - source,
                )
            else:
                packet.location = node
                packet.hops = node - packet.source
            return packet

        algorithm.place_buffers(
            (node, key, [live_packet(row, node) for row in rows])
            for node, key, rows in placements
        )
        if self._kind == _GREEDY:
            col_arr = self._col_arr
            algorithm._arrival_round = {
                col_pid[row]: col_arr[row]
                for queue in queues
                for row in queue
            }
        elif self._hierarchical:
            # Staged rows wait unaccepted at their source.
            algorithm._staged = [
                live_packet(row, col_src[row]) for row in self._staged_rows
            ]
        elif pseudo:
            algorithm._observed_destinations = set(self._observed)
        self._timeline.max_staged = self._max_staged
        # Timeline maxima: the nonzero scan runs on the maxima view.  Shifted
        # ranges still pending their fold are not measured loads yet.
        view = self._mx_v
        self._timeline.load_maxima(
            {int(node): int(view[node]) for node in np.nonzero(view)[0]}
        )
        # The kernels fold only per-node maxima; the global one is their top.
        self._timeline.max_occupancy = max(self._gmax, int(view.max(initial=0)))

    # -- run loop --------------------------------------------------------------------

    def run(
        self,
        num_rounds: Optional[int] = None,
        *,
        drain: bool = True,
        max_drain_rounds: Optional[int] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_spec: Optional[object] = None,
    ):
        check_checkpoint_every(checkpoint_every, checkpoint_path)
        horizon = num_rounds if num_rounds is not None else self.adversary.horizon
        self.ensure_kernel()
        window = self._pseudo_window if self._kind == _PSEUDO else self._window
        try:
            t = self._round
            batch = self.batch_rounds
            while t < horizon:
                stop = min(horizon, t + batch)
                if checkpoint_every is not None:
                    # Clamp the window so a checkpoint cut never lands
                    # mid-batch: the next cut is the window's far edge.
                    next_cut = (t // checkpoint_every + 1) * checkpoint_every
                    stop = min(stop, next_cut)
                window(t, stop)
                t = stop
                if checkpoint_every is not None and t % checkpoint_every == 0:
                    self._sync_objects()
                    self.save_checkpoint(checkpoint_path, spec=checkpoint_spec)
            if drain:
                drained = self._kernel_drain(
                    max(horizon, self._round), max_drain_rounds
                )
            else:
                drained = self._stored + len(self._staged_rows) == 0
        finally:
            self._sync_objects()
        return self._build_result(drained)

    def _kernel_drain(
        self, start_round: int, max_drain_rounds: Optional[int]
    ) -> bool:
        """Simulator._drain's rule on kernel counts, in one window call.

        Pending is stored plus staged (HPTS only; the fused-scan family
        never stages, so its quiet test degenerates to "forwarded
        nothing").  The window steps the rule every round and returns when
        it stops, when nothing is pending, or after ``ell`` quiet rounds.
        """
        window = self._pseudo_window if self._kind == _PSEUDO else self._window
        staged = self._staged_rows
        rule = DrainStop(
            self._n, self._stored + len(staged), max_drain_rounds, len(staged)
        )
        if self._stored + len(staged) > 0 and not rule.stopped:
            window(start_round, start_round + rule.cap, rule)
        if not rule.stopped and rule.quiet >= self._ell:
            # The quiet tail.  A drain round injects nothing, and ``ell``
            # quiet rounds span a phase boundary, which accepts every staged
            # row and so changes the staged count unless none is staged:
            # nothing is, nothing moved, and the state is what it was.
            # Every level has selected on it and moved nothing (a round's
            # level is its residue mod ``ell``), so every later round
            # repeats one of these until the rule stops.
            self._quiet_rounds(
                self._round,
                min(rule.window - rule.quiet, rule.cap - rule.rounds),
            )
        return self._stored + len(staged) == 0

    def _quiet_rounds(self, first: int, count: int) -> None:
        """Count the drain's quiet tail: ``count`` rounds from ``first`` that
        move nothing on a fixed configuration, without running them (see
        :meth:`_kernel_drain`); under full history each appends its
        :class:`RoundRecord`, all alike but for the round number."""
        if self.record_history:
            before = self._occ.tolist()
            delivered = self._delivered
            for round_number in range(first, first + count):
                self._record_round(round_number, 0, before, delivered, 0, 0)
        self._round = first + count

    # -- the fused scan (every round runs here) --------------------------------------

    def _window(
        self, t0: int, t1: int, drain: Optional[DrainStop] = None
    ) -> None:
        """Advance rounds ``t0 .. t1-1`` on flat state, one fused scan each.

        Selection and forwarding run in a single left-to-right pass: a node
        pops its own packet *before* the carry from its predecessor lands,
        so the carry moves exactly one hop per round — the same per-queue
        outcome as the object engine's pop-all-then-place-all round, with no
        activation or move lists and no per-move column writes.  PTS takes
        the pass a segment at a time (see the module docstring): one step
        per bad buffer and one queue-list and load shift per segment between
        them.  Its bad buffers are found with one scan when the call starts
        and then kept as a sorted list: an injection that raises a load to
        the threshold inserts its node, a bad buffer that pops below it with
        no carry landing leaves, and a round injected through the checked
        path (a streaming adversary) is rescanned when it made a buffer bad.
        Only nodes whose load *grew* since the previous measurement are
        maxima candidates: carry landings on a new node and injection sites,
        folded one by one, and PTS's shifted segments, folded as one numpy
        span at the next measurement unless :meth:`_maxima_settled` holds,
        tested when the call starts and after each fold while it does not
        (and again once an injection gives a node its first packet).

        A ``drain`` rule makes these drain rounds: nothing is injected, even
        where the pattern still has rows (a run stopped short of its
        horizon), the rule is stepped after every round, and the call
        returns once the rule stops, nothing is stored, or a round forwarded
        nothing (``ell`` is 1 here; :meth:`_kernel_drain` counts the quiet
        tail).  A round forwards nothing exactly when the scan is skipped:
        nothing is stored, or no buffer is bad under local-threshold or
        non-work-conserving PTS.  Otherwise something pops: a bad buffer
        (PTS, local), every nonempty buffer (greedy, work-conserving PTS),
        or the rightmost nonempty buffer, whose successor is empty
        (downhill).  Under ``record_history`` each round also appends its
        :class:`RoundRecord` (see :meth:`_record_round`).
        """
        kind = self._kind
        occ = self._occ
        mx = self._mx
        occ_v = self._occ_v
        mx_v = self._mx_v
        queues = self._queues
        touch = self._touch
        ranges = self._touch_ranges
        ranges_append = ranges.append
        row_packet = self._row_packet
        lifo = self._lifo
        last = self._last
        end = last + 1
        n = self._n
        threshold = self._bad_threshold
        bad_minus = threshold - 1
        work_conserving = self._work_conserving
        locality = self._locality
        policy = self._policy_code
        col_pid = self._col_pid
        col_dst = self._col_dst
        col_injr = self._col_injr
        col_arr = self._col_arr
        append_pid = col_pid.append
        append_src = self._col_src.append
        append_dst = col_dst.append
        append_injr = col_injr.append
        append_arr = col_arr.append
        append_dlv = self._col_dlv.append
        row_append = row_packet.append
        touch_append = touch.append
        fast_rows = self._fast_rows
        get_rows = fast_rows.get if fast_rows is not None else None
        pat_src = self._pat_src
        pat_dst = self._pat_dst
        pat_ids = self._pat_ids
        packet_store = self.packet_store
        num_bad = self._num_bad
        stored = self._stored
        record = self.record_history
        idle_unless_bad = kind == _LOCAL or (
            kind == _PTS and not work_conserving
        )
        inject = drain is None
        pts = kind == _PTS
        bad_nodes = self._bad_nodes() if pts and num_bad else []
        end_mark = [end]
        settled = pts and self._maxima_settled()
        try:
            for rn in range(t0, t1):
                # -- injection ----------------------------------------------
                injected = 0
                if inject and get_rows is not None:
                    rows_in = get_rows(rn)
                    if rows_in is not None:
                        row = len(row_packet)
                        for r in rows_in:
                            source = pat_src[r]
                            append_pid(pat_ids[r])
                            append_src(source)
                            append_dst(pat_dst[r])
                            append_injr(rn)
                            append_arr(rn)
                            append_dlv(_LIVE)
                            row_append(None)
                            queues[source].append(row)
                            row += 1
                            load = occ[source] + 1
                            occ[source] = load
                            touch_append(source)
                            if load == threshold:
                                num_bad += 1
                                if pts:
                                    insort(bad_nodes, source)
                        injected = len(rows_in)
                        stored += injected
                        self._injected += injected
                        if packet_store is not None:
                            for r in rows_in:
                                packet_store.append(
                                    rn, pat_src[r], pat_dst[r], pat_ids[r]
                                )
                elif inject:
                    self._stored = stored
                    self._num_bad = num_bad
                    injected = self._inject_round(rn)
                    stored = self._stored
                    if pts and self._num_bad != num_bad:
                        bad_nodes = self._bad_nodes()
                    num_bad = self._num_bad
                # -- measurement fold (L^t, after injection) ----------------
                if touch:
                    for node in touch:
                        load = occ[node]
                        peak = mx[node]
                        if load > peak:
                            mx[node] = load
                            if not peak:
                                # A first packet, maybe left of every
                                # earlier one: test again after a fold.
                                settled = False
                    del touch[:]
                if ranges:
                    if not settled:
                        # The last round's shifted segments, as one span: a
                        # node outside every candidate set cannot exceed its
                        # maximum, so folding the bad nodes between them
                        # changes nothing.
                        span = slice(ranges[0][0], ranges[-1][1])
                        peaks = mx_v[span]
                        np.maximum(peaks, occ_v[span], out=peaks)
                        settled = self._maxima_settled()
                    del ranges[:]
                if record:
                    before = occ.tolist()
                    delivered_before = self._delivered
                # -- selection + forwarding (fused carry chain) -------------
                moved = stored > 0 and (num_bad > 0 or not idle_unless_bad)
                if moved:
                    carry = -1
                    if kind == _PTS:
                        # Segment shift: between two bad buffers every node
                        # holds at most one packet, so the segment forwards
                        # by moving its queues one node to the right.
                        lo = bad_nodes[0] if bad_nodes else 0
                        for b in bad_nodes + end_mark:
                            if lo < b:
                                # The segment [lo, b): its last queue's packet
                                # leaves, every other queue moves one node
                                # right, and the carry lands at lo.
                                hi = b - 1
                                queue = queues[hi]
                                row = queue.pop() if occ[hi] else -1
                                if lo < hi:
                                    del queues[hi]
                                    queues.insert(lo, queue)
                                    occ[lo + 1:b] = occ[lo:hi]
                                if carry >= 0:
                                    queue.append(carry)
                                    occ[lo] = 1
                                else:
                                    occ[lo] = 0
                                if not settled:
                                    ranges_append((lo, b))
                                carry = row
                            if b == end:
                                break
                            queue = queues[b]
                            row = queue.pop() if lifo else queue.popleft()
                            if carry >= 0:
                                queue.append(carry)
                            else:
                                load = occ[b]
                                occ[b] = load - 1
                                if load == threshold:
                                    num_bad -= 1
                                    bad_nodes.remove(b)
                            carry = row
                            lo = b + 1
                    elif kind == _LOCAL:
                        # Pass 1: the active set from the pristine loads (the
                        # r-neighbourhood test must not see this round's moves).
                        last_bad = -locality - 1
                        active: List[int] = []
                        active_append = active.append
                        for v in range(last + 1):
                            load = occ[v]
                            if load >= threshold:
                                last_bad = v
                            if load and last_bad >= v - locality:
                                active_append(v)
                        # Pass 2: carry transport over the active nodes only.
                        num_active = len(active)
                        i = 0
                        while i < num_active:
                            v = active[i]
                            queue = queues[v]
                            row = queue.pop() if lifo else queue.popleft()
                            if carry >= 0:
                                queue.append(carry)
                            else:
                                load = occ[v] - 1
                                occ[v] = load
                                if load == bad_minus:
                                    num_bad -= 1
                            i += 1
                            if i < num_active and active[i] == v + 1:
                                carry = row
                            else:
                                receiver = v + 1
                                if receiver > last:
                                    # Single-destination invariant: last+1 == w.
                                    self._deliver_row(row, rn)
                                    self._delivered += 1
                                    stored -= 1
                                else:
                                    queues[receiver].append(row)
                                    load = occ[receiver] + 1
                                    occ[receiver] = load
                                    touch_append(receiver)
                                    if load == threshold:
                                        num_bad += 1
                                carry = -1
                    elif kind == _DOWNHILL:
                        for v in range(last + 1):
                            load = occ[v]
                            if load:
                                successor_load = occ[v + 1] if v != last else 0
                                queue = queues[v]
                                if load >= successor_load:
                                    row = queue.pop() if lifo else queue.popleft()
                                    if carry >= 0:
                                        queue.append(carry)
                                    else:
                                        occ[v] = load - 1
                                    carry = row
                                elif carry >= 0:
                                    queue.append(carry)
                                    occ[v] = load + 1
                                    touch_append(v)
                                    carry = -1
                            elif carry >= 0:
                                queues[v].append(carry)
                                occ[v] = 1
                                touch_append(v)
                                carry = -1
                    else:  # _GREEDY
                        for v in range(n):
                            load = occ[v]
                            if load:
                                queue = queues[v]
                                if load == 1:
                                    row = queue.popleft()
                                else:
                                    best = -1
                                    best_k1 = best_k2 = 0
                                    for r in queue:
                                        if policy == _POL_FIFO:
                                            k1 = col_arr[r]
                                        elif policy == _POL_LIFO:
                                            k1 = -col_arr[r]
                                        elif policy == _POL_LIS:
                                            k1 = col_injr[r]
                                        elif policy == _POL_SIS:
                                            k1 = -col_injr[r]
                                        elif policy == _POL_NTG:
                                            k1 = col_dst[r] - v
                                        else:  # _POL_FTG
                                            k1 = v - col_dst[r]
                                        k2 = col_pid[r]
                                        if (
                                            best < 0
                                            or k1 < best_k1
                                            or (k1 == best_k1 and k2 < best_k2)
                                        ):
                                            best = r
                                            best_k1 = k1
                                            best_k2 = k2
                                    queue.remove(best)
                                    row = best
                                if carry >= 0:
                                    if col_dst[carry] == v:
                                        self._deliver_row(carry, rn)
                                        self._delivered += 1
                                        stored -= 1
                                        occ[v] = load - 1
                                    else:
                                        col_arr[carry] = rn
                                        queue.append(carry)
                                else:
                                    occ[v] = load - 1
                                carry = row
                            elif carry >= 0:
                                if col_dst[carry] == v:
                                    self._deliver_row(carry, rn)
                                    self._delivered += 1
                                    stored -= 1
                                else:
                                    col_arr[carry] = rn
                                    queues[v].append(carry)
                                    occ[v] = 1
                                    touch_append(v)
                                carry = -1
                    if carry >= 0:
                        # The trailing carry lands at last+1 == w (single-dest)
                        # or, for greedy, at the virtual sink n — a delivery in
                        # either case.
                        self._deliver_row(carry, rn)
                        self._delivered += 1
                        stored -= 1
                if record:
                    self._record_round(rn, injected, before, delivered_before)
                self._round = rn + 1
                if drain is not None:
                    drain.step(moved)
                    if drain.stopped or drain.quiet or not stored:
                        break
        finally:
            self._num_bad = num_bad
            self._stored = stored

    def _maxima_settled(self) -> bool:
        """Whether no shifted PTS segment can raise a maximum: every node
        from the first one with a nonzero maximum to ``last`` has one.

        A segment node holds at most one packet, so a fold can only raise a
        maximum of 0, at a node that took its left neighbour's packet; that
        neighbour was measured holding it, so the node lies right of the
        first node with a nonzero maximum.  Only an injection can give a
        node left of that one its first packet, and the window then tests
        again after its next fold.  Maxima never fall, so otherwise the
        answer stays true.
        """
        visited = self._mx_v[: self._last + 1] != 0
        return bool(visited[visited.argmax():].all())

    def _bad_nodes(self) -> List[int]:
        """PTS's bad buffers, sorted: one scan over the loads left of ``w``,
        where every stored packet sits."""
        end = self._last + 1
        return (self._occ_v[:end] >= self._bad_threshold).nonzero()[0].tolist()

    # -- the pseudo-buffer kind (PPTS, HPTS) -----------------------------------------

    def _pseudo_window(
        self, t0: int, t1: int, drain: Optional[DrainStop] = None
    ) -> None:
        """Advance rounds ``t0 .. t1-1`` of PPTS or HPTS on flat state.

        Per round, in the object engine's order:

        1. injection — rows join HPTS's staged list, or PPTS's stacks at
           once; HPTS first accepts the rows staged in earlier rounds when
           ``t % ell == 0`` (drain rounds included);
        2. measurement — ``L^t`` into the maxima, the staged count into
           ``max_staged``;
        3. selection (:meth:`_select_pseudo`) on the state before the round:
           disjoint ``(lo, hi, key)`` node ranges, right to left;
        4. forwarding, a range at a time, right to left, so every node pops
           before its predecessor's packet lands: the same stacks as the
           object engine's pop-all-then-place-all round.

        A range forwards by segments, as PTS does (see the module
        docstring), on its key's own stacks and loads (:meth:`_key_span`):
        between two of the key's bad stacks every stack holds at most one
        row, so each bad stack pops by the queue discipline and takes the
        incoming carry, and each segment ``[a, b)`` between them moves one
        node right as one ``del``/``insert`` of the key's stack list and
        one of its load array.  ``occ`` changes only where the key's load
        changes along the segment (a node holds other keys too), at the
        ends of its runs of occupied stacks; a fully occupied segment moves
        only its first node's load.  Only the row leaving the range's last
        node can finish its segment: it is delivered, or re-keyed where it
        reaches the key's intermediate destination ``w`` (HPTS only; a PPTS
        key is the destination), or lands under the same key.  A node whose
        load rose — just past a run, or where that row lands — is a maxima
        candidate, folded at the next measurement, never at the shift.

        A ``drain`` rule makes these drain rounds, as in :meth:`_window`:
        nothing is injected, the rule is stepped after every round with the
        packets it forwarded and the staged count, and the call returns
        once the rule stops, nothing is pending, or after ``ell`` quiet
        rounds (:meth:`_kernel_drain` counts the quiet tail).
        """
        n = self._n
        stride = n + 1
        occ = self._occ
        mx = self._mx
        touch = self._touch
        touch_append = touch.append
        spans = self._spans
        bad_dests = self._bad_dests
        staged = self._staged_rows
        hierarchical = self._hierarchical
        ell = self._ell
        pop = deque.pop if self._lifo else deque.popleft
        pseudo_key = self._pseudo_key
        key_span = self._key_span
        accept_rows = self._accept_rows
        deliver_row = self._deliver_row
        select = self._select_pseudo
        col_dst = self._col_dst
        col_injr = self._col_injr
        append_pid = self._col_pid.append
        append_src = self._col_src.append
        append_dst = col_dst.append
        append_injr = col_injr.append
        append_arr = self._col_arr.append
        append_dlv = self._col_dlv.append
        row_packet = self._row_packet
        row_append = row_packet.append
        fast_rows = self._fast_rows
        get_rows = fast_rows.get if fast_rows is not None else None
        pat_src = self._pat_src
        pat_dst = self._pat_dst
        pat_ids = self._pat_ids
        packet_store = self.packet_store
        record = self.record_history
        max_staged = self._max_staged
        stored = self._stored
        delivered = self._delivered
        inject = drain is None
        try:
            for rn in range(t0, t1):
                # -- injection and acceptance ---------------------------------
                new_rows: Sequence[int] = ()
                if inject and get_rows is not None:
                    rows_in = get_rows(rn)
                    if rows_in is not None:
                        first = len(row_packet)
                        for r in rows_in:
                            append_pid(pat_ids[r])
                            append_src(pat_src[r])
                            append_dst(pat_dst[r])
                            append_injr(rn)
                            append_arr(-1)
                            append_dlv(_LIVE)
                            row_append(None)
                        new_rows = range(first, len(row_packet))
                        self._injected += len(rows_in)
                        if packet_store is not None:
                            for r in rows_in:
                                packet_store.append(
                                    rn, pat_src[r], pat_dst[r], pat_ids[r]
                                )
                elif inject:
                    new_rows = [
                        self._append_row(injection, packet, -1)
                        for injection, packet in self._create_packets(rn)
                    ]
                if hierarchical:
                    if staged and rn % ell == 0:
                        waiting = [row for row in staged if col_injr[row] >= rn]
                        if len(waiting) < len(staged):
                            accept_rows(
                                [row for row in staged if col_injr[row] < rn], rn
                            )
                            stored += len(staged) - len(waiting)
                            staged[:] = waiting
                    staged.extend(new_rows)
                elif new_rows:
                    accept_rows(new_rows, rn)
                    stored += len(new_rows)
                # -- measurement (L^t, after injection) -----------------------
                if touch:
                    for node in touch:
                        load = occ[node]
                        if load > mx[node]:
                            mx[node] = load
                    del touch[:]
                num_staged = len(staged)
                if num_staged > max_staged:
                    max_staged = num_staged
                if record:
                    before = occ.tolist()
                    delivered_before = delivered
                # -- selection, then forwarding right to left -----------------
                forwarded = 0
                ranges = select(rn) if stored else ()
                for lo, hi, key in ranges:
                    base, stacks, loads, bad = spans[key]
                    w = key % stride
                    if hi >= w:
                        # A cascade range may reach w, where the key holds no
                        # stack.
                        hi = w - 1
                    end = hi + 1
                    # The range's bad stacks, then its end.
                    if len(bad) > 1:
                        marks = sorted([b for b in bad if lo <= b <= hi])
                        marks.append(end)
                    elif bad:
                        (b,) = bad
                        marks = [b, end] if lo <= b <= hi else [end]
                    else:
                        marks = [end]
                    carry = -1
                    a = lo
                    for b in marks:
                        if a < b:
                            # The segment [a, b): every stack holds at most
                            # one row.  occ moves where the key's load does:
                            # down where a run of occupied stacks starts, up
                            # (a maxima candidate) just after one ends.
                            i0 = a - base
                            i1 = b - 1 - base
                            segment = loads[i0:i1 + 1]
                            flag = 1 if carry >= 0 else 0
                            if 0 in segment:
                                prev = flag
                                v = a
                                for load in segment:
                                    if load != prev:
                                        if prev:
                                            occ[v] += 1
                                            touch_append(v)
                                        else:
                                            occ[v] -= 1
                                        prev = load
                                    v += 1
                                forwarded += segment.count(1)
                            else:
                                # Full: only the first node's load can move.
                                prev = 1
                                forwarded += i1 + 1 - i0
                                if not flag:
                                    occ[a] -= 1
                            stack = stacks[i1]
                            row = stack.pop() if prev else -1
                            if i0 < i1:
                                del stacks[i1]
                                stacks.insert(i0, stack)
                                del loads[i1]
                                loads.insert(i0, flag)
                            else:
                                loads[i0] = flag
                            if flag:
                                if stack is None:
                                    stacks[i0] = stack = deque()
                                stack.append(carry)
                            carry = row
                        if b == end:
                            break
                        # The bad stack at b pops one and takes the carry.
                        i = b - base
                        stack = stacks[i]
                        row = pop(stack)
                        if carry >= 0:
                            stack.append(carry)
                        else:
                            load = loads[i] - 1
                            loads[i] = load
                            occ[b] -= 1
                            if load == 1:
                                bad.discard(b)
                                if not bad:
                                    bad_dests[key // stride].discard(w)
                        forwarded += 1
                        carry = row
                        a = b + 1
                    if carry < 0:
                        continue
                    # The row leaving the range: delivered, re-keyed at w, or
                    # landing under the same key.
                    destination = col_dst[carry]
                    if end == destination:
                        deliver_row(carry, rn)
                        delivered += 1
                        stored -= 1
                        continue
                    if end == w:
                        key = pseudo_key(end, destination)
                        base, stacks, loads, bad = spans.get(key) or key_span(key)
                    i = end - base
                    stack = stacks[i]
                    if stack is None:
                        stacks[i] = stack = deque()
                    stack.append(carry)
                    load = loads[i] + 1
                    loads[i] = load
                    occ[end] += 1
                    touch_append(end)
                    if load == 2:
                        if not bad:
                            bad_dests[key // stride].add(key % stride)
                        bad.add(end)
                if record:
                    self._delivered = delivered
                    self._record_round(
                        rn, len(new_rows), before, delivered_before,
                        forwarded, num_staged,
                    )
                self._round = rn + 1
                if drain is not None:
                    drain.step(forwarded, len(staged))
                    if drain.stopped or drain.quiet >= ell or not (
                        stored or staged
                    ):
                        break
        finally:
            self._max_staged = max_staged
            self._stored = stored
            self._delivered = delivered

    def _accept_rows(self, rows: Sequence[int], round_number: int) -> None:
        """Store injected (PPTS) or staged (HPTS) rows at their sources.

        The caller counts the rows into ``stored``.  Each source's maximum
        is folded here, not at the measurement: acceptance is the round's
        first step, and loads only rise until the measurement that follows
        it, so the last fold sees the measured load."""
        occ = self._occ
        mx = self._mx
        col_src = self._col_src
        col_dst = self._col_dst
        col_arr = self._col_arr
        row_packet = self._row_packet
        spans = self._spans
        pseudo_key = self._pseudo_key
        key_span = self._key_span
        observed = None if self._hierarchical else self._observed
        stride = self._n + 1
        for row in rows:
            source = col_src[row]
            destination = col_dst[row]
            col_arr[row] = round_number
            packet = row_packet[row]
            if packet is not None:
                packet.accept(round_number)
            if observed is not None:
                observed.add(destination)
            key = pseudo_key(source, destination)
            base, stacks, loads, bad = spans.get(key) or key_span(key)
            i = source - base
            stack = stacks[i]
            if stack is None:
                stacks[i] = stack = deque()
            stack.append(row)
            load = loads[i] + 1
            loads[i] = load
            if load == 2:
                if not bad:
                    self._bad_dests[key // stride].add(key % stride)
                bad.add(source)
            load = occ[source] + 1
            occ[source] = load
            if load > mx[source]:
                mx[source] = load

    def _select_pseudo(self, round_number: int) -> List[Tuple[int, int, int]]:
        """The round's activations as disjoint ``(lo, hi, flat key)`` node
        ranges, right to left, read from the state before the round.

        FormPaths runs on every interval of the round's level that holds a
        destination with a bad stack, each interval's destinations
        descending (the intervals are disjoint, so their order does not
        matter): a key's bad stacks all lie in its destination's interval,
        left of the destination, so its leftmost bad node is ``min`` of its
        bad set, and ``[bad, last]`` is activated whole (HPTS's empty
        activations count as active in the cascade; they pop nothing).
        Destinations with no bad stack are left out: FormPaths skips them,
        and the frontier starts at an interval's largest destination, right
        of every ``w - 1`` in it.  Then HPTS's ``ActivatePreBad`` cascade
        runs.  PPTS is the one-level case with one interval and no cascade;
        packets for a destination outside its declared set never move.
        """
        n = self._n
        stride = n + 1
        ell = self._ell
        offset = round_number % ell
        level = offset if self._ascending else ell - 1 - offset
        destinations = self._bad_dests[level]
        if not destinations:
            return []
        size = self._interval_size[level]
        base = level * stride
        spans = self._spans
        allowed = self._allowed
        ranges: List[Tuple[int, int, int]] = []
        rank = -1
        frontier = 0
        for w in sorted(destinations, reverse=True):
            if allowed is not None and w not in allowed:
                continue
            # The virtual sink w = n belongs to the last interval.
            w_rank = (w if w < n else n - 1) // size
            if w_rank != rank:
                rank = w_rank
                frontier = w
            leftmost = min(spans[base + w][3])
            last = (frontier if frontier < w else w) - 1
            if leftmost > last:
                continue
            # Disjoint from every range so far: intervals of one level are
            # disjoint, and the frontier keeps ranges apart.
            ranges.append((leftmost, last, base + w))
            frontier = leftmost
        if level and ranges:
            self._activate_pre_bad(ranges)
        ranges.sort(reverse=True)
        return ranges

    def _activate_pre_bad(self, ranges: List[Tuple[int, int, int]]) -> None:
        """HPTS's ``ActivatePreBad`` cascade (Algorithm 5), appending its
        ranges to the round's FormPaths ``ranges``.

        Definition 4.6 asks for an inactive node ``s`` whose active
        predecessor's outgoing packet ends its segment at ``s`` and joins an
        occupied stack of a lower level there.  A range never reaches past
        its key's intermediate destination ``w``, so the predecessor ends a
        range whose key has ``w == s``: each candidate is the node after
        such a range.  ``s`` starts an interval of the new key's level (that
        key's level is below the range's, and ``s`` is a multiple of the
        range's block), and the new range runs from ``s`` while nodes are
        inactive, up to the new key's ``w'``, which lies inside that
        interval.  So a new range ends at ``w'`` or just before an active
        node, and never hands on in turn: walking the FormPaths ranges finds
        every cascade range.  They are Algorithm 5's, which it finds level
        by level down every interval start: a new range lies inside one
        interval of its level, where no range of a higher level starts and
        no range reaches in from the left but the one that handed on.
        """
        stride = self._n + 1
        spans = self._spans
        sizes = self._interval_size
        col_dst = self._col_dst
        lifo = self._lifo
        pseudo_key = self._pseudo_key
        for _lo, hi, key in tuple(ranges):
            start = hi + 1
            if key % stride != start:
                continue
            base, stacks = spans[key][:2]
            stack = stacks[hi - base]
            if not stack:
                continue
            destination = col_dst[stack[-1] if lifo else stack[0]]
            if destination == start:
                continue
            lower = pseudo_key(start, destination)
            span = spans.get(lower)
            if span is None or not span[2][start - span[0]]:
                continue
            limit = min(lower % stride, start + sizes[lower // stride] - 1)
            for lo, other_hi, _key in ranges:
                if lo <= start <= other_hi:
                    break
                if start < lo <= limit:
                    limit = lo - 1
            else:
                ranges.append((start, limit, lower))

    def _record_round(
        self,
        round_number: int,
        injected: int,
        before: List[int],
        delivered_before: int,
        forwarded: Optional[int] = None,
        staged: int = 0,
    ) -> None:
        """Append the round's :class:`RoundRecord` from its load snapshots.

        ``before`` is ``L^t`` (after injection, before forwarding) and the
        kernel's loads are now ``L^{t+}``.  The pseudo-buffer kind counts its
        moves and passes ``forwarded`` (and its staged count); otherwise the
        count follows from the two snapshots: greedy pops once at every
        nonempty buffer; the single-destination families deliver only at
        ``w = last + 1``, so by flow conservation the flow over edge
        ``(v, v+1)`` is what left the prefix ``[0, v]``.
        """
        occ = self._occ
        if forwarded is None and self._kind == _GREEDY:
            forwarded = len(before) - before.count(0)
        elif forwarded is None:
            forwarded = flow = 0
            for v in range(self._last + 1):
                flow += before[v] - occ[v]
                forwarded += flow
        self._history.append(
            RoundRecord(
                round=round_number,
                injected=injected,
                forwarded=forwarded,
                delivered=self._delivered - delivered_before,
                max_occupancy=max(before),
                max_occupancy_after_forwarding=max(occ),
                staged=staged,
                occupancy=dict(enumerate(before))
                if self.record_occupancy_vectors
                else None,
            )
        )

    def _deliver_row(self, row: int, round_number: int) -> None:
        """Absorb one row at its destination (latency folds + object parity)."""
        latency = round_number - self._col_injr[row]
        self._latency_sum += latency
        latency_max = self._latency_max
        if latency_max is None or latency > latency_max:
            self._latency_max = latency
        self._col_dlv[row] = round_number
        packet = self._row_packet[row]
        if packet is not None:
            destination = self._col_dst[row]
            packet.location = destination
            packet.hops = destination - packet.source
            packet.state = PacketState.DELIVERED
            packet.delivered_round = round_number
            if not self.retain_packets:
                # Streaming drops the packet, whether or not the table has
                # published it yet.
                self._row_packet[row] = None
                self._packets.pop(packet.packet_id, None)

    def _inject_round(self, round_number: int) -> int:
        """Inject one round through the adversary's API; returns the count."""
        created = self._create_packets(round_number)
        if not created:
            return 0
        # Acceptance + classification (the on_inject step), one packet at a
        # time so a rejected destination leaves exactly the object engine's
        # partial state behind.
        kind = self._kind
        dest = self._dest
        check_dests = kind != _GREEDY and not self._dests_prevalidated
        occ = self._occ
        queues = self._queues
        touch = self._touch
        bad_threshold = self._bad_threshold
        for injection, packet in created:
            packet.accept(round_number)
            destination = injection.destination
            if check_dests and destination != dest:
                raise SchedulingError(
                    f"{self.algorithm.name} is single-destination "
                    f"(w={dest}); got a packet for {destination}"
                )
            source = injection.source
            row = self._append_row(injection, packet, round_number)
            queues[source].append(row)
            load = occ[source] + 1
            occ[source] = load
            self._stored += 1
            touch.append(source)
            if load == bad_threshold:
                self._num_bad += 1
        return len(created)

    def _append_row(
        self, injection: Injection, packet: Packet, arrival: int
    ) -> int:
        """Append one object-backed row; returns its row id."""
        self._col_pid.append(injection.packet_id)
        self._col_src.append(injection.source)
        self._col_dst.append(injection.destination)
        self._col_injr.append(injection.round)
        self._col_arr.append(arrival)
        self._col_dlv.append(_LIVE)
        self._row_packet.append(packet)
        return len(self._row_packet) - 1

    def _create_packets(self, round_number: int) -> List[Tuple[Injection, Packet]]:
        """The injection step's first half, as the object engine runs it:
        validate every route, create the packets and log them."""
        injections = self.adversary.injections_for_round(round_number)
        if not injections:
            return []
        n = self._n
        max_dest = self._max_dest
        check_routes = not self._routes_prevalidated
        packets = self._packets
        packet_store = self.packet_store
        created: List[Tuple[Injection, Packet]] = []
        for injection in injections:
            source = injection.source
            destination = injection.destination
            if check_routes:
                if not 0 <= source < n:
                    raise TopologyError(f"node {source} outside [0, {n - 1}]")
                if not 0 <= destination <= max_dest:
                    raise TopologyError(
                        f"destination {destination} outside [0, {max_dest}]"
                    )
                if destination <= source:
                    raise TopologyError(
                        f"no directed route from {source} to {destination} "
                        f"on a line"
                    )
            packet = Packet.from_injection(injection)
            packets[injection.packet_id] = packet
            if packet_store is not None:
                packet_store.append_injection(injection)
            created.append((injection, packet))
        self._injected += len(created)
        return created
