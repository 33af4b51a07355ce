"""Batch×sharded: the flat-array batch kernel driven as a segment engine.

:class:`BatchSegmentSimulator` drives the fused batch kernel as a segment
engine: each worker advances its contiguous segment ``[lo, hi]`` of the line
on flat int64 state, and the only cross-segment facts exchanged per round
are (a) a tiny *boundary view* — the prefix's leftmost/rightmost bad buffer,
whether any suffix buffer is bad, the right neighbour's first load — and (b)
at most one columnar packet hand-off per boundary (the fused scan's carry
travels exactly one hop per round, so at most one row crosses each segment
edge each round).

:meth:`run_window` free-runs ``k`` rounds — each one :meth:`_begin`,
:meth:`_scan`, :meth:`_ingest`, :meth:`_close` — exchanging the per-round
boundary facts directly with neighbour workers through
:class:`~repro.network.shm.BoundaryRing` shared-memory rings.  Rounds
pipeline along the line as a wavefront: worker ``i`` can be scanning round
``t`` while worker ``i+1`` is still finishing ``t-1`` — there is no global
barrier inside a window.

Equivalence to the single-process fused scan (the differential suite in
``tests/test_batch_sharded_differential.py`` proves it bit for bit):

* decisions read pristine pre-round loads only — the global scan never
  modifies ``occ[v]`` before reaching ``v``, so a segment scanning
  ``[lo, hi]`` with the prefix facts above reproduces exactly the global
  scan's behaviour on those nodes;
* the carry crossing a boundary is ingested *after* the receiver's own scan,
  which equals the global pop-before-carry-lands order: the receiver's first
  node pops before the incoming carry lands in both engines, and the
  occupancy/bad-count increments cancel symmetrically;
* drain overshoot is safe to truncate: once a no-injection round forwards
  nothing the configuration is frozen (PTS: no bad buffer ever reappears;
  greedy/downhill/work-conserving PTS: nothing is stored; local: the active
  set stays empty), so rounds past the coordinator's replayed stop rule
  advance only the round counter and are undone by :meth:`truncate_to`.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..adversary.base import InjectionPattern
from ..adversary.segmented import SegmentFilteredAdversary
from .batch import (
    _DOWNHILL,
    _GREEDY,
    _HANDED_OFF,
    _KERNEL_KINDS,
    _LIVE,
    _LOCAL,
    _POL_FIFO,
    _POL_LIFO,
    _POL_LIS,
    _POL_NTG,
    _POL_SIS,
    _PSEUDO,
    _PTS,
    BatchSimulator,
)
from .errors import ShardingProtocolError, UnshardableScenarioError
from .events import RoundRecord
from .shm import RING_TIMEOUT

__all__ = ["BatchSegmentSimulator", "HANDOFF_WORDS", "check_segment_scan"]

#: Columns of a boundary hand-off block, in wire order: packet id, source,
#: destination, injection round, arrival round at the current node.
HANDOFF_WORDS = 5


def check_segment_scan(algorithm_type: type) -> None:
    """Refuse an algorithm the batch kernel runs without a segment scan.

    The segment scans cover the fused-scan family only; the pseudo-buffer
    kind (PPTS, HPTS) runs single-process.  The coordinator calls this with
    the registered class before any worker or shared-memory ring exists.
    """
    if _KERNEL_KINDS.get(algorithm_type) == _PSEUDO:
        raise UnshardableScenarioError(
            f"sharded execution runs only the batch kernel's segment scans, "
            f"which cover its regular family (PTS, local, downhill, greedy); "
            f"{algorithm_type.__name__} is outside the regular family; run "
            f"with shards=1"
        )


class BatchSegmentSimulator(BatchSimulator):
    """A :class:`BatchSimulator` that owns one contiguous segment of the line.

    Built on the *full* topology and algorithm (same index structures and
    bound parameters as the single-process engines) with a
    :class:`~repro.adversary.segmented.SegmentFilteredAdversary`; only nodes
    in ``[lo, hi]`` ever hold rows.  The round loop is driven externally,
    one :meth:`run_window` at a time.
    """

    __slots__ = ()

    def __init__(
        self,
        topology,
        algorithm,
        adversary,
        segment_index: int,
        segments: Sequence[Tuple[int, int]],
        **batch_kwargs,
    ) -> None:
        check_segment_scan(type(algorithm))
        super().__init__(topology, algorithm, adversary, **batch_kwargs)
        self.segment_index = segment_index
        self.segments = list(segments)
        self.lo, self.hi = self.segments[segment_index]
        #: (injected, occupancy_before) captured by _begin for _close.
        self._scratch: Tuple[int, Optional[Dict[int, int]]] = (0, None)
        self._moves: Tuple[int, int] = (0, 0)
        #: Flat log of every ingested hand-off, 6 words per entry
        #: (round, pid, src, dst, injr, arr) — the property suite compares
        #: this trace byte-for-byte across window lengths.
        self._handoff_trace = array("q")
        #: Segment-filtered object-free injection rows (fast path).
        self._seg_fast_rows: Optional[Dict[int, array]] = None
        self._prevalidate_segment_pattern()

    # -- segment-aware pattern pre-validation --------------------------------------

    def _prevalidate_segment_pattern(self) -> None:
        """Re-run the whole-pattern checks through the segment filter.

        The base class's :meth:`_prevalidate_pattern` requires the adversary
        to *be* an eager :class:`InjectionPattern`; the segment wrapper hides
        one behind ``.base``.  Validation runs over the **full** pattern (the
        error surface must match the single-process engines exactly), and the
        fast rows are then filtered to this segment's sources.
        """
        adversary = self.adversary
        if not isinstance(adversary, SegmentFilteredAdversary):
            return
        base = adversary.base
        if type(base) is not InjectionPattern:
            return
        if self._check_store(base._store):
            lo, hi = self.lo, self.hi
            sources = self._pat_src
            filtered: Dict[int, array] = {}
            for round_number, rows in base._by_round.items():
                keep = array(
                    "q", [row for row in rows if lo <= sources[row] <= hi]
                )
                if keep:
                    filtered[round_number] = keep
            self._seg_fast_rows = filtered

    # -- kernel lifecycle ----------------------------------------------------------

    @property
    def needs_reverse_lane(self) -> bool:
        """Whether the windows need the right-to-left boundary lane.

        Downhill decisions read the right neighbour's first load; a
        work-conserving PTS segment must know whether *any* suffix buffer is
        bad.  Everything else flows strictly left-to-right.
        """
        return self._kind == _DOWNHILL or (
            self._kind == _PTS and self._work_conserving
        )

    def sync_for_snapshot(self) -> None:
        """Project kernel state into the object world at a round boundary."""
        if self._kernel_ready:
            self._sync_objects()

    def _pending(self) -> int:
        if self._kernel_ready:
            return self._stored
        return super()._pending()

    def truncate_to(self, round_number: int) -> None:
        """Rewind drain overshoot: the rounds past ``round_number`` forwarded
        nothing on a frozen configuration (see the module docstring), so only
        the round counter and any full-history records need undoing."""
        self._round = round_number
        if self.record_history:
            history = self._history
            while history and history[-1].round >= round_number:
                history.pop()

    # -- per-round internals ---------------------------------------------------------

    def _begin(self, round_number: int, inject: bool) -> Dict[str, Any]:
        """Injection + ``L^t`` measurement + boundary view.  Returns the
        view and stashes the round scratch for _close."""
        injected = 0
        if inject:
            fast = self._seg_fast_rows
            if fast is not None:
                rows_in = fast.get(round_number)
                if rows_in is not None:
                    occ = self._occ
                    queues = self._queues
                    touch = self._touch
                    threshold = self._bad_threshold
                    pat_src = self._pat_src
                    pat_dst = self._pat_dst
                    pat_ids = self._pat_ids
                    append_pid = self._col_pid.append
                    append_src = self._col_src.append
                    append_dst = self._col_dst.append
                    append_injr = self._col_injr.append
                    append_arr = self._col_arr.append
                    append_dlv = self._col_dlv.append
                    row_append = self._row_packet.append
                    packet_store = self.packet_store
                    row = len(self._row_packet)
                    for r in rows_in:
                        source = pat_src[r]
                        append_pid(pat_ids[r])
                        append_src(source)
                        append_dst(pat_dst[r])
                        append_injr(round_number)
                        append_arr(round_number)
                        append_dlv(_LIVE)
                        row_append(None)
                        queues[source].append(row)
                        row += 1
                        load = occ[source] + 1
                        occ[source] = load
                        touch.append(source)
                        if load == threshold:
                            self._num_bad += 1
                    injected = len(rows_in)
                    self._stored += injected
                    self._injected += injected
                    if packet_store is not None:
                        for r in rows_in:
                            packet_store.append(
                                round_number, pat_src[r], pat_dst[r], pat_ids[r]
                            )
            else:
                injected = self._inject_round(round_number)
        # Measurement fold (post-injection = L^t, before any forwarding).
        occ = self._occ
        mx = self._mx
        gmax = self._gmax
        occupancy_before: Optional[Dict[int, int]] = None
        if self.record_history:
            occupancy_before = {}
            for node in range(self.lo, self.hi + 1):
                load = occ[node]
                occupancy_before[node] = load
                if load > mx[node]:
                    mx[node] = load
                    if load > gmax:
                        gmax = load
            del self._touch[:]
        else:
            for node in self._touch:
                load = occ[node]
                if load > mx[node]:
                    mx[node] = load
                    if load > gmax:
                        gmax = load
            del self._touch[:]
        self._gmax = gmax
        self._scratch = (injected, occupancy_before)
        # Boundary view.
        kind = self._kind
        num_bad = self._num_bad
        view: Dict[str, Any] = {
            "leftmost_bad": -1,
            "rightmost_bad": -1,
            "any_bad": num_bad > 0,
            "first_load": occ[self.lo],
        }
        if num_bad:
            threshold = self._bad_threshold
            if kind == _PTS:
                node = self.lo
                while occ[node] < threshold:
                    node += 1
                view["leftmost_bad"] = node
            elif kind == _LOCAL:
                node = min(self.hi, self._last)
                while occ[node] < threshold:
                    node -= 1
                view["rightmost_bad"] = node
        return view

    def _scan(
        self,
        round_number: int,
        prefix_leftmost: int,
        prefix_rightmost: int,
        suffix_any_bad: bool,
        right_first_load: int,
    ) -> Tuple[Optional[Tuple[int, int, int, int, int]], int, int]:
        """One fused selection+forwarding pass over ``[lo, hi]``.

        Returns ``(handoff_block, forwarded, delivered)``; the hand-off block
        is the row crossing the right boundary (ownership already
        transferred), or ``None``.
        """
        lo = self.lo
        hi = self.hi
        kind = self._kind
        occ = self._occ
        queues = self._queues
        touch_append = self._touch.append
        lifo = self._lifo
        last = self._last
        threshold = self._bad_threshold
        bad_minus = threshold - 1
        seg_last = hi if hi < last else last
        carry = -1
        forwarded = 0
        delivered = 0
        if self._stored:
            if kind == _PTS:
                if prefix_leftmost >= 0:
                    start = lo
                elif self._num_bad:
                    start = lo
                    while occ[start] < threshold:
                        start += 1
                elif self._work_conserving and not suffix_any_bad:
                    start = lo
                else:
                    start = seg_last + 1  # globally inactive segment
                for v in range(start, seg_last + 1):
                    load = occ[v]
                    if load:
                        queue = queues[v]
                        row = queue.pop() if lifo else queue.popleft()
                        forwarded += 1
                        if carry >= 0:
                            queue.append(carry)
                        else:
                            occ[v] = load - 1
                            if load == threshold:
                                self._num_bad -= 1
                        carry = row
                    elif carry >= 0:
                        queues[v].append(carry)
                        occ[v] = 1
                        touch_append(v)
                        carry = -1
            elif kind == _LOCAL:
                locality = self._locality
                last_bad = (
                    prefix_rightmost
                    if prefix_rightmost >= 0
                    else -locality - 1
                )
                active: List[int] = []
                active_append = active.append
                for v in range(lo, seg_last + 1):
                    load = occ[v]
                    if load >= threshold:
                        last_bad = v
                    if load and last_bad >= v - locality:
                        active_append(v)
                num_active = len(active)
                i = 0
                while i < num_active:
                    v = active[i]
                    queue = queues[v]
                    row = queue.pop() if lifo else queue.popleft()
                    forwarded += 1
                    if carry >= 0:
                        queue.append(carry)
                    else:
                        load = occ[v] - 1
                        occ[v] = load
                        if load == bad_minus:
                            self._num_bad -= 1
                    i += 1
                    if i < num_active and active[i] == v + 1:
                        carry = row
                    else:
                        receiver = v + 1
                        if receiver > last:
                            self._deliver_row(row, round_number)
                            self._delivered += 1
                            self._stored -= 1
                            delivered += 1
                        elif receiver > hi:
                            carry = row  # exits the segment below
                            break
                        else:
                            queues[receiver].append(row)
                            load = occ[receiver] + 1
                            occ[receiver] = load
                            touch_append(receiver)
                            if load == threshold:
                                self._num_bad += 1
                        carry = -1
            elif kind == _DOWNHILL:
                for v in range(lo, seg_last + 1):
                    load = occ[v]
                    if load:
                        if v != seg_last:
                            successor_load = occ[v + 1]
                        elif hi < last:
                            successor_load = right_first_load
                        else:
                            successor_load = 0
                        queue = queues[v]
                        if load >= successor_load:
                            row = queue.pop() if lifo else queue.popleft()
                            forwarded += 1
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
                policy = self._policy_code
                col_pid = self._col_pid
                col_dst = self._col_dst
                col_injr = self._col_injr
                col_arr = self._col_arr
                for v in range(lo, hi + 1):
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
                        forwarded += 1
                        if carry >= 0:
                            if col_dst[carry] == v:
                                self._deliver_row(carry, round_number)
                                self._delivered += 1
                                self._stored -= 1
                                delivered += 1
                                occ[v] = load - 1
                            else:
                                col_arr[carry] = round_number
                                queue.append(carry)
                        else:
                            occ[v] = load - 1
                        carry = row
                    elif carry >= 0:
                        if col_dst[carry] == v:
                            self._deliver_row(carry, round_number)
                            self._delivered += 1
                            self._stored -= 1
                            delivered += 1
                        else:
                            col_arr[carry] = round_number
                            queues[v].append(carry)
                            occ[v] = 1
                            touch_append(v)
                        carry = -1
        # Trailing carry: exits at the segment's right edge.
        handoff: Optional[Tuple[int, int, int, int, int]] = None
        if carry >= 0:
            if kind == _GREEDY:
                exits = (
                    hi >= self._n - 1 or self._col_dst[carry] == hi + 1
                )
            else:
                exits = hi >= last
            if exits:
                self._deliver_row(carry, round_number)
                self._delivered += 1
                self._stored -= 1
                delivered += 1
            else:
                handoff = (
                    self._col_pid[carry],
                    self._col_src[carry],
                    self._col_dst[carry],
                    self._col_injr[carry],
                    self._col_arr[carry],
                )
                packet = self._row_packet[carry]
                if packet is not None:
                    # Ownership transfers with the row: the right neighbour
                    # stores the packet (and keeps its delivered record),
                    # whether or not this table has published it yet.
                    self._packets.pop(packet.packet_id, None)
                    self._row_packet[carry] = None
                self._col_dlv[carry] = _HANDED_OFF
                self._stored -= 1
        return handoff, forwarded, delivered

    def _ingest(
        self, round_number: int, block: Optional[Sequence[int]]
    ) -> None:
        """Land the left neighbour's hand-off after the own scan.

        Equivalent to the global scan's carry landing at ``lo`` (the pop ran
        first in both engines; occupancy and bad-count deltas cancel
        symmetrically) — see the module docstring.
        """
        if block is None:
            return
        pid, src, dst, injr, arr = block
        lo = self.lo
        greedy = self._kind == _GREEDY
        row = len(self._row_packet)
        self._col_pid.append(pid)
        self._col_src.append(src)
        self._col_dst.append(dst)
        self._col_injr.append(injr)
        self._col_arr.append(round_number if greedy else arr)
        self._col_dlv.append(_LIVE)
        self._row_packet.append(None)
        self._queues[lo].append(row)
        load = self._occ[lo] + 1
        self._occ[lo] = load
        self._touch.append(lo)
        if self._kind in (_PTS, _LOCAL) and load == self._bad_threshold:
            self._num_bad += 1
        self._stored += 1
        self._handoff_trace.extend(
            (round_number, pid, src, dst, injr, arr)
        )

    def _close(self, round_number: int) -> None:
        """End-of-round bookkeeping (after scan + ingest)."""
        if self.record_history:
            injected, occupancy_before = self._scratch
            forwarded, delivered = self._moves
            occ = self._occ
            max_before = 0
            for load in occupancy_before.values():
                if load > max_before:
                    max_before = load
            max_after = 0
            for node in range(self.lo, self.hi + 1):
                load = occ[node]
                if load > max_after:
                    max_after = load
            self._history.append(
                RoundRecord(
                    round=round_number,
                    injected=injected,
                    forwarded=forwarded,
                    delivered=delivered,
                    max_occupancy=max_before,
                    max_occupancy_after_forwarding=max_after,
                    staged=0,
                    occupancy=dict(occupancy_before)
                    if self.record_occupancy_vectors
                    else None,
                )
            )
        self._round = round_number + 1

    # -- windows: free-running rounds over shared-memory rings ----------------------

    def run_window(
        self,
        t0: int,
        t1: int,
        *,
        inject: bool,
        left_in=None,
        right_out=None,
        right_in=None,
        left_out=None,
        ring_timeout: float = RING_TIMEOUT,
    ) -> Dict[str, array]:
        """Free-run rounds ``t0 .. t1-1``, exchanging boundary facts directly.

        ``left_in``/``right_out`` carry the left-to-right lane (merged prefix
        view + hand-off); ``right_in``/``left_out`` the right-to-left lane
        (first load / suffix-bad), created only when
        :attr:`needs_reverse_lane`.  Returns per-round ``forwarded`` counts
        and the post-round ``stored`` totals, from which the coordinator
        replays the global drain stop rule exactly.
        """
        self.ensure_kernel()
        kind = self._kind
        chained_suffix = kind == _PTS and self._work_conserving
        trace_forwarded = array("q")
        trace_stored = array("q")
        for round_number in range(t0, t1):
            view = self._begin(round_number, inject)
            suffix_any_bad = False
            right_first_load = 0
            if self.needs_reverse_lane:
                if chained_suffix:
                    # Suffix facts chain right-to-left: merge the right
                    # neighbour's word before publishing our own.
                    if right_in is not None:
                        slot = right_in.recv_block(timeout=ring_timeout)
                        if slot[0] != round_number:
                            raise ShardingProtocolError(
                                f"reverse-lane block for round {slot[0]} "
                                f"arrived in round {round_number}"
                            )
                        suffix_any_bad = bool(slot[2])
                    if left_out is not None:
                        any_bad = suffix_any_bad or view["any_bad"]
                        left_out.send_block(
                            (round_number, view["first_load"],
                             1 if any_bad else 0),
                            timeout=ring_timeout,
                        )
                else:  # downhill: only the immediate neighbour's first load
                    if left_out is not None:
                        left_out.send_block(
                            (round_number, view["first_load"], 0),
                            timeout=ring_timeout,
                        )
                    if right_in is not None:
                        slot = right_in.recv_block(timeout=ring_timeout)
                        if slot[0] != round_number:
                            raise ShardingProtocolError(
                                f"reverse-lane block for round {slot[0]} "
                                f"arrived in round {round_number}"
                            )
                        right_first_load = slot[1]
            prefix_leftmost = -1
            prefix_rightmost = -1
            block_in: Optional[Tuple[int, ...]] = None
            if left_in is not None:
                slot = left_in.recv_block(timeout=ring_timeout)
                if slot[0] != round_number:
                    raise ShardingProtocolError(
                        f"boundary block for round {slot[0]} arrived in "
                        f"round {round_number}"
                    )
                prefix_leftmost = slot[1]
                prefix_rightmost = slot[2]
                if slot[3]:
                    block_in = tuple(slot[4:4 + HANDOFF_WORDS])
            block_out, forwarded, delivered = self._scan(
                round_number, prefix_leftmost, prefix_rightmost,
                suffix_any_bad, right_first_load,
            )
            self._moves = (forwarded, delivered)
            if right_out is not None:
                out_leftmost = (
                    prefix_leftmost
                    if prefix_leftmost >= 0
                    else view["leftmost_bad"]
                )
                out_rightmost = (
                    view["rightmost_bad"]
                    if view["rightmost_bad"] >= 0
                    else prefix_rightmost
                )
                if block_out is not None:
                    right_out.send_block(
                        (round_number, out_leftmost, out_rightmost, 1)
                        + block_out,
                        timeout=ring_timeout,
                    )
                else:
                    right_out.send_block(
                        (round_number, out_leftmost, out_rightmost, 0),
                        timeout=ring_timeout,
                    )
            elif block_out is not None:
                raise ShardingProtocolError(
                    "right-most segment produced a hand-off past the line end"
                )
            self._ingest(round_number, block_in)
            self._close(round_number)
            trace_forwarded.append(forwarded)
            trace_stored.append(self._stored)
        return {"forwarded": trace_forwarded, "stored": trace_stored}
