"""Shared-memory boundary rings for the batch×sharded engine.

Adjacent segment workers exchange one fixed-size columnar int64 block per
round per direction (the merged prefix/suffix view plus at most one packet
hand-off — see ``docs/SHARDING.md``).  This module gives each directed
segment boundary its own single-producer/single-consumer ring over
:class:`multiprocessing.shared_memory.SharedMemory`, so neighbours exchange
blocks directly, without the coordinator, with two int64 counter updates and
a 96-byte copy.

Layout (all little-endian int64 words)::

    [0..7]    tail  — total blocks published (writer-owned, word 0)
    [8..15]   head  — total blocks consumed (reader-owned, word 8)
    [16..]    data  — ``capacity`` slots of :data:`SLOT_WORDS` words each

The tail and head counters live on separate 64-byte cache lines so the two
sides never write the same line.  The writer fills slot ``tail % capacity``
and *then* publishes the new tail; the reader observes the tail, copies the
slot, and then publishes the new head.  CPython's memoryview stores on an
int64-aligned buffer are single interpreter operations under the GIL-free
process boundary, and x86/arm64 total-store ordering makes the
write-slot-then-bump-tail sequence a safe publication without extra fences.

The ring is a *transport*, never a scheduler: block contents and ordering are
fully determined by the per-round boundary protocol, so simulation results
cannot depend on ring timing.  Timeouts exist only for supervision — a
vanished neighbour surfaces as :class:`~repro.network.errors.WorkerFailedError`,
which the coordinator's recovery machinery treats exactly like a dead pipe.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence, Tuple

from .errors import ShardingProtocolError, WorkerFailedError

__all__ = ["SLOT_WORDS", "BoundaryRing"]

#: Words per ring slot: round stamp + 3 view words + hand-off flag + 5
#: hand-off columns, padded to 12 for a 96-byte (1.5 cache line) slot.
SLOT_WORDS = 12

_SLOT_BYTES = SLOT_WORDS * 8
_HEADER_WORDS = 16  # two 64-byte cache lines: tail @ word 0, head @ word 8
_TAIL = 0
_HEAD = 8

#: Busy-poll iterations before the waiter starts yielding the CPU.
_SPIN_FAST = 512
#: Yield-only (``sleep(0)``) iterations before backing off to short naps.
_SPIN_YIELD = 4096
_NAP_SECONDS = 0.0005

_DEFAULT_TIMEOUT = 60.0


class BoundaryRing:
    """A SPSC ring of fixed-size int64 blocks in POSIX shared memory.

    Exactly one process writes (:meth:`send_block`) and exactly one process
    reads (:meth:`recv_block`); the coordinator creates one ring per directed
    segment boundary and hands each end to its owning worker by name.
    """

    __slots__ = ("_shm", "_words", "_capacity", "_owner", "_closed")

    def __init__(
        self, name: Optional[str] = None, capacity: int = 256
    ) -> None:
        from multiprocessing import shared_memory

        if name is None:
            if capacity < 2:
                raise ShardingProtocolError(
                    f"ring capacity must be at least 2 slots, got {capacity}"
                )
            size = (_HEADER_WORDS + capacity * SLOT_WORDS) * 8
            self._shm = shared_memory.SharedMemory(create=True, size=size)
            self._owner = True
        else:
            # CPython < 3.13 has no track=False: attaching would re-register
            # the segment with the attacher's resource tracker, which then
            # tries to unlink it at process exit (the coordinator owns ring
            # lifetime) and warns about the already-unlinked name.  Suppress
            # registration for the attach only; the creator's registration
            # is untouched and unlink() retires it.
            from multiprocessing import resource_tracker

            original_register = resource_tracker.register
            resource_tracker.register = lambda *args, **kwargs: None
            try:
                self._shm = shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original_register
            self._owner = False
        self._words = memoryview(self._shm.buf).cast("q")
        if self._owner:
            self._words[_TAIL] = 0
            self._words[_HEAD] = 0
            self._capacity = capacity
        else:
            self._capacity = (len(self._words) - _HEADER_WORDS) // SLOT_WORDS
        self._closed = False

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def capacity(self) -> int:
        return self._capacity

    def send_block(
        self, words: Sequence[int], timeout: float = _DEFAULT_TIMEOUT
    ) -> None:
        """Publish one block, blocking while the ring is full.

        ``words`` may be shorter than :data:`SLOT_WORDS`; the tail of the
        slot is zero-filled so receivers always see a deterministic block.
        """
        if len(words) > SLOT_WORDS:
            raise ShardingProtocolError(
                f"boundary block has {len(words)} words; slots hold {SLOT_WORDS}"
            )
        view = self._words
        capacity = self._capacity
        tail = view[_TAIL]
        if tail - view[_HEAD] >= capacity:
            self._wait(lambda: view[_TAIL] - view[_HEAD] < capacity, timeout,
                       "ring full: neighbouring segment worker stopped consuming")
        base = _HEADER_WORDS + (tail % capacity) * SLOT_WORDS
        count = len(words)
        for index in range(count):
            view[base + index] = words[index]
        for index in range(count, SLOT_WORDS):
            view[base + index] = 0
        view[_TAIL] = tail + 1

    def recv_block(self, timeout: float = _DEFAULT_TIMEOUT) -> Tuple[int, ...]:
        """Consume the next block, blocking while the ring is empty."""
        view = self._words
        head = view[_HEAD]
        if view[_TAIL] <= head:
            self._wait(lambda: view[_TAIL] > head, timeout,
                       "ring empty: neighbouring segment worker stopped producing")
        base = _HEADER_WORDS + (head % self._capacity) * SLOT_WORDS
        block = tuple(view[base:base + SLOT_WORDS])
        view[_HEAD] = head + 1
        return block

    def _wait(self, ready, timeout: float, what: str) -> None:
        # Clock-free supervision: the budget is decremented by the nominal
        # nap length, so the effective timeout is a floor on slept wall-clock
        # rather than an exact deadline.  Precision is irrelevant here — the
        # timeout only exists to surface a vanished neighbour — and avoiding
        # a wall-clock source keeps the engine's determinism lint scope
        # (RPR001) meaningful for this module.
        spins = 0
        remaining = timeout
        while not ready():
            spins += 1
            if spins <= _SPIN_FAST:
                continue
            if spins <= _SPIN_YIELD:
                time.sleep(0)
                continue
            time.sleep(_NAP_SECONDS)
            remaining -= _NAP_SECONDS
            if remaining <= 0:
                raise WorkerFailedError(
                    f"shared-memory hand-off timed out after {timeout:.1f}s "
                    f"({what})"
                )

    def close(self) -> None:
        """Release this process's mapping (the segment itself survives)."""
        if self._closed:
            return
        self._closed = True
        self._words.release()
        self._shm.close()

    def destroy(self) -> None:
        """Close and, if this end created the ring, unlink the segment.

        ``unlink()`` unregisters from the resource tracker itself; no manual
        ledger maintenance here (see the attach-mode note in ``__init__``).
        """
        owner = self._owner
        try:
            self.close()
        except (OSError, BufferError):  # pragma: no cover - teardown best-effort
            pass
        if owner:
            try:
                self._shm.unlink()
            except OSError:  # pragma: no cover - already unlinked elsewhere
                pass
