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
round in the ``dlv`` column, and the objects are materialised — in row
order, which is injection order — only at batch boundaries.

The columns and maxima live in flat ``array('q')`` buffers — already the
int64 layout numpy wants — and numpy views them zero-copy
(``numpy.frombuffer``) for the batch-level work: whole-pattern
route/destination pre-validation and the batch-boundary maxima folds.

Forwarding is a single fused left-to-right scan per round: each active node
pops its own packet *before* the carry from its predecessor lands, so the
carry travels exactly one hop and the per-queue outcome equals the object
engine's pop-all-then-place-all two-phase round.  Every round runs this one
scan — injection rounds, drain rounds and full-history rounds alike; a
full-history run builds each :class:`~repro.network.events.RoundRecord` from
O(n) load snapshots taken around the scan.

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
  (:data:`~repro.baselines.policies.ALL_POLICIES`).

Object state (``Simulator.packets``, the algorithm's buffers, the occupancy
timeline) is materialised only at *batch boundaries* — end of run and
checkpoint cuts.  ``run(checkpoint_every=...)`` clamps each batch window to
the checkpoint cadence, so a cut never lands mid-batch and the existing
checkpoint layer (:mod:`repro.checkpoint`) serialises the engine unchanged;
a checkpoint taken by either engine resumes under the other.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..adversary.base import InjectionPattern
from ..baselines.greedy import GreedyForwarding
from ..baselines.policies import ALL_POLICIES
from ..core.local import DownhillForwarding, LocalThresholdForwarding
from ..core.packet import Injection, Packet, PacketState
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
from ..network.simulator import DrainStop, Simulator
from ..network.topology import LineTopology, Topology

__all__ = ["BatchSimulator", "DEFAULT_BATCH_ROUNDS"]

#: Default batch window (rounds advanced between object-state syncs).
DEFAULT_BATCH_ROUNDS = 64

# Kernel codes for the vectorized algorithm family.
_PTS, _LOCAL, _DOWNHILL, _GREEDY = 0, 1, 2, 3

_KERNEL_KINDS = {
    PeakToSink: _PTS,
    LocalThresholdForwarding: _LOCAL,
    DownhillForwarding: _DOWNHILL,
    GreedyForwarding: _GREEDY,
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

# Sentinel values for the per-row delivery column: live / synced-away.
_LIVE, _SYNCED = -1, -2


class BatchSimulator(Simulator):
    """A :class:`~repro.network.simulator.Simulator` with a flat-array core.

    Construction validates batchability *before* any side effect, so
    ``engine="auto"`` can catch :class:`UnbatchableScenarioError` and build
    the object engine instead.  All run-policy parameters and the public API
    (``run``, ``save_checkpoint``, ``from_checkpoint``) are inherited; the
    engines produce bit-identical :class:`SimulationResult` values, round
    records, streamed injection logs and checkpoint payloads.

    Parameters beyond the base class:

    batch_rounds:
        Rounds advanced per batch window (>= 1).  Purely a sync cadence —
        results do not depend on it; ``batch_rounds=1`` degenerates to
        per-round syncing.
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
                f"the batch kernel vectorizes (PTS, local, downhill, greedy)"
            )
        if kind == _GREEDY and algorithm.policy not in ALL_POLICIES:
            raise UnbatchableScenarioError(
                f"greedy policy {algorithm.policy!r} is not one of the "
                f"built-in policies the batch kernel encodes"
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
        if kind == _GREEDY:
            self._dest = -1
            self._last = self._n - 1
            self._store_key: object = "queue"
            self._policy_code = _POLICY_CODES[algorithm.policy.name]
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
        self._fast_rows: Optional[Dict[int, array]] = None
        self._pat_src: Optional[array] = None
        self._pat_dst: Optional[array] = None
        self._pat_ids: Optional[array] = None
        self._prevalidate_pattern()
        # Kernel state (populated by _load_kernel at the start of each run).
        self._occ = array("q")
        self._mx = array("q")
        self._queues: List[deque] = []
        self._col_pid = array("q")
        self._col_src = array("q")
        self._col_dst = array("q")
        self._col_injr = array("q")
        self._col_arr = array("q")
        self._col_dlv = array("q")
        self._row_packet: List[Optional[Packet]] = []
        self._touch: List[int] = []
        self._stored = 0
        self._num_bad = 0
        self._gmax = 0

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
        # Greedy is multi-destination: its destinations are never checked.
        self._dests_prevalidated = dests_ok
        if not (routes_ok and (self._kind == _GREEDY or dests_ok)):
            return False
        self._pat_src = sources
        self._pat_dst = destinations
        self._pat_ids = store.packet_ids
        return True

    # -- kernel state <-> object state ---------------------------------------------

    def _load_kernel(self) -> None:
        """Extract flat kernel state from the object world.

        Valid on a fresh simulator, after a checkpoint restore, or between
        ``run()`` calls — whatever the object engine (or the checkpoint
        layer) left in the buffers is the kernel's starting configuration.
        """
        n = self._n
        zeros = bytes(8 * n)
        self._occ = occ = array("q", zeros)
        self._mx = mx = array("q", zeros)
        self._queues = queues = [deque() for _ in range(n)]
        self._col_pid = array("q")
        self._col_src = array("q")
        self._col_dst = array("q")
        self._col_injr = array("q")
        self._col_arr = array("q")
        self._col_dlv = array("q")
        self._row_packet = []
        self._touch = touch = []
        self._stored = 0
        self._num_bad = 0
        self._gmax = self._timeline.max_occupancy
        for node, peak in self._timeline.per_node_maxima().items():
            mx[node] = peak
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
                # node (the checkpoint replay marks them); fold the same
                # candidates at the first measurement.
                touch.append(node)

    def _sync_objects(self) -> None:
        """Materialise kernel state back into the object world.

        After this, ``self.packets``, the algorithm's buffers/occupancy/
        indices, the occupancy timeline and the GC counter are exactly what
        the object engine would hold at the same round boundary, so the
        checkpoint layer (and any post-run inspection) sees one engine.
        """
        algorithm = self.algorithm
        queues = self._queues
        row_packet = self._row_packet
        n = self._n
        total_rows = len(row_packet)
        if total_rows:
            # Deferred rows materialise in row order — injection order — so
            # ``self.packets`` keeps the object engine's insertion order.
            live_node: Dict[int, int] = {}
            for node in range(n):
                for row in queues[node]:
                    live_node[row] = node
            packets = self.packets
            retain = self.retain_packets
            col_pid = self._col_pid
            col_src = self._col_src
            col_dst = self._col_dst
            col_injr = self._col_injr
            dlv = self._col_dlv
            for row in range(total_rows):
                if row_packet[row] is not None:
                    continue
                delivered_round = dlv[row]
                if delivered_round == _SYNCED:
                    continue
                if delivered_round >= 0:
                    dlv[row] = _SYNCED
                    if retain:
                        # A streamed run already dropped the delivered
                        # packet; a retaining run keeps it, mutated exactly
                        # like the object engine's delivery.
                        destination = col_dst[row]
                        packet = Packet(
                            Injection(
                                col_injr[row],
                                col_src[row],
                                destination,
                                col_pid[row],
                            ),
                            destination,
                            PacketState.DELIVERED,
                            accepted_round=col_injr[row],
                            delivered_round=delivered_round,
                            hops=destination - col_src[row],
                        )
                        packets[col_pid[row]] = packet
                        row_packet[row] = packet
                    continue
                node = live_node[row]
                packet = Packet(
                    Injection(
                        col_injr[row], col_src[row], col_dst[row], col_pid[row]
                    ),
                    node,
                    PacketState.IN_TRANSIT,
                    accepted_round=col_injr[row],
                    hops=node - col_src[row],
                )
                packets[col_pid[row]] = packet
                row_packet[row] = packet
        for node_buffer in algorithm.buffers.values():
            pseudos = list(node_buffer.pseudo_buffers())
            for pseudo in pseudos:
                while pseudo:
                    pseudo.pop()
            if pseudos:
                node_buffer.drop_empty()
        key = self._store_key
        for node in range(n):
            queue = queues[node]
            if not queue:
                continue
            node_buffer = algorithm.buffers[node]
            for row in queue:
                packet = row_packet[row]
                packet.location = node
                packet.hops = node - packet.source
                node_buffer.store(packet, key)
        if self._kind == _GREEDY:
            col_pid = self._col_pid
            col_arr = self._col_arr
            algorithm._arrival_round = {
                col_pid[row]: col_arr[row]
                for queue in queues
                for row in queue
            }
        # Timeline maxima: numpy views the flat maxima buffer zero-copy for
        # the nonzero scan.
        view = np.frombuffer(self._mx, dtype=np.int64)
        self._timeline.load_maxima(
            {int(node): int(view[node]) for node in np.nonzero(view)[0]}
        )
        self._timeline.max_occupancy = self._gmax
        # GC cadence: the object engine decrements once per executed round
        # and resets (dropping empty pseudo-buffers) at zero.
        interval = algorithm._gc_interval
        remainder = self._round % interval
        algorithm._rounds_until_gc = interval - remainder if remainder else interval

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
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ConfigurationError(
                    f"checkpoint_every must be >= 1, got {checkpoint_every}"
                )
            if checkpoint_path is None:
                raise ConfigurationError(
                    "checkpoint_every requires a checkpoint_path"
                )
        horizon = num_rounds if num_rounds is not None else self.adversary.horizon
        self._load_kernel()
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
                self._window(t, stop)
                t = stop
                if checkpoint_every is not None and t % checkpoint_every == 0:
                    self._sync_objects()
                    self.save_checkpoint(checkpoint_path, spec=checkpoint_spec)
            if drain:
                drained = self._kernel_drain(
                    max(horizon, self._round), max_drain_rounds
                )
            else:
                drained = self._stored == 0
        finally:
            self._sync_objects()
        return self._build_result(drained)

    def _kernel_drain(
        self, start_round: int, max_drain_rounds: Optional[int]
    ) -> bool:
        # staged_count() is 0 for the whole vectorized family, so the stop
        # rule's quiet test degenerates to "forwarded nothing".
        rule = DrainStop(self._n, self._stored, max_drain_rounds)
        round_number = start_round
        while self._stored > 0 and not rule.stopped:
            rule.step(self._window(round_number, round_number + 1, inject=False))
            round_number += 1
        return self._stored == 0

    # -- the fused scan (every round runs here) --------------------------------------

    def _window(self, t0: int, t1: int, *, inject: bool = True) -> bool:
        """Advance rounds ``t0 .. t1-1`` on flat state, one fused scan each.

        Selection and forwarding run in a single left-to-right pass: a node
        pops its own packet *before* the carry from its predecessor lands,
        so the carry moves exactly one hop per round — the same per-queue
        outcome as the object engine's pop-all-then-place-all round, with no
        activation or move lists and no per-move column writes.  Only nodes
        whose load *grew* since the previous measurement (carry landings on
        a new node, injection sites) are maxima candidates, so the fold
        touches O(moves), not O(n).

        ``inject=False`` runs drain rounds: nothing is injected, even where
        the pattern still has rows (a run stopped short of its horizon).
        Under ``record_history`` each round also appends its
        :class:`RoundRecord` (see :meth:`_record_round`).

        Returns whether the last round forwarded any packet — the drain's
        quiet-round signal.  A round forwards nothing exactly when the scan
        is skipped: nothing is stored, or no buffer is bad under
        local-threshold or non-work-conserving PTS.  Otherwise something
        pops: a bad buffer (PTS, local), every nonempty buffer (greedy,
        work-conserving PTS), or the rightmost nonempty buffer, whose
        successor is empty (downhill).
        """
        kind = self._kind
        occ = self._occ
        mx = self._mx
        queues = self._queues
        touch = self._touch
        row_packet = self._row_packet
        lifo = self._lifo
        last = self._last
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
        gmax = self._gmax
        num_bad = self._num_bad
        stored = self._stored
        record = self.record_history
        idle_unless_bad = kind == _LOCAL or (
            kind == _PTS and not work_conserving
        )
        moved = False
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
                    num_bad = self._num_bad
                # -- measurement fold (L^t, after injection) ----------------
                if touch:
                    for node in touch:
                        load = occ[node]
                        if load > mx[node]:
                            mx[node] = load
                            if load > gmax:
                                gmax = load
                    del touch[:]
                if record:
                    before = occ.tolist()
                    delivered_before = self._delivered
                # -- selection + forwarding (fused carry chain) -------------
                moved = stored > 0 and (num_bad > 0 or not idle_unless_bad)
                if moved:
                    carry = -1
                    if kind == _PTS:
                        start = 0
                        if num_bad:
                            while occ[start] < threshold:
                                start += 1
                        for v in range(start, last + 1):
                            load = occ[v]
                            if load:
                                queue = queues[v]
                                row = queue.pop() if lifo else queue.popleft()
                                if carry >= 0:
                                    queue.append(carry)
                                else:
                                    occ[v] = load - 1
                                    if load == threshold:
                                        num_bad -= 1
                                carry = row
                            elif carry >= 0:
                                queues[v].append(carry)
                                occ[v] = 1
                                touch_append(v)
                                carry = -1
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
        finally:
            self._gmax = gmax
            self._num_bad = num_bad
            self._stored = stored
        return moved

    def _record_round(
        self,
        round_number: int,
        injected: int,
        before: List[int],
        delivered_before: int,
    ) -> None:
        """Append the round's :class:`RoundRecord` from its load snapshots.

        ``before`` is ``L^t`` (after injection, before forwarding) and the
        kernel's loads are now ``L^{t+}``.  The forwarded count follows from
        the two: greedy pops once at every nonempty buffer; the
        single-destination families deliver only at ``w = last + 1``, so by
        flow conservation the flow over edge ``(v, v+1)`` is what left the
        prefix ``[0, v]``.
        """
        occ = self._occ
        if self._kind == _GREEDY:
            forwarded = len(before) - before.count(0)
        else:
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
                staged=0,
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
        packet = self._row_packet[row]
        if packet is not None:
            destination = self._col_dst[row]
            packet.location = destination
            packet.hops = destination - packet.source
            packet.state = PacketState.DELIVERED
            packet.delivered_round = round_number
            self._row_packet[row] = None
            self._col_dlv[row] = _SYNCED
            if not self.retain_packets:
                del self.packets[self._col_pid[row]]
        else:
            self._col_dlv[row] = round_number

    def _inject_round(self, round_number: int) -> int:
        """Inject one round through the adversary's API; returns the count."""
        injections = self.adversary.injections_for_round(round_number)
        if not injections:
            return 0
        n = self._n
        max_dest = self._max_dest
        check_routes = not self._routes_prevalidated
        packets = self.packets
        packet_store = self.packet_store
        created: List[Tuple[object, Packet]] = []
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
        append_pid = self._col_pid.append
        append_src = self._col_src.append
        append_dst = self._col_dst.append
        append_injr = self._col_injr.append
        append_arr = self._col_arr.append
        append_dlv = self._col_dlv.append
        row_packet = self._row_packet
        for injection, packet in created:
            packet.accept(round_number)
            destination = injection.destination
            if check_dests and destination != dest:
                raise SchedulingError(
                    f"{self.algorithm.name} is single-destination "
                    f"(w={dest}); got a packet for {destination}"
                )
            source = injection.source
            row = len(row_packet)
            append_pid(injection.packet_id)
            append_src(source)
            append_dst(destination)
            append_injr(injection.round)
            append_arr(round_number)
            append_dlv(_LIVE)
            row_packet.append(packet)
            queues[source].append(row)
            load = occ[source] + 1
            occ[source] = load
            self._stored += 1
            touch.append(source)
            if load == bad_threshold:
                self._num_bad += 1
        return len(created)
