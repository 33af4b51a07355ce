"""Incrementally maintained indices over (pseudo-)buffer occupancy.

The delta-driven engine replaces the per-round linear scans of PTS, PPTS,
HPTS and the tree algorithms ("find the left-most bad buffer") with sorted
sets of buffer positions that are updated whenever a pseudo-buffer's length
crosses the relevant thresholds:

* *nonempty* — the pseudo-buffer holds at least one packet (threshold 1);
* *bad*      — the pseudo-buffer holds at least ``bad_threshold`` packets
  (Definition 3.3 / 4.4 uses 2; :class:`repro.core.local` rules may use a
  configurable congestion threshold).

:class:`SortedIndexSet` is a sorted list + membership set (``bisect``-based;
insertions shift the underlying list, but the sets track only nonempty/bad
positions so they stay small, and updates happen only when a threshold is
actually crossed — O(packets moved), not O(n), per round).
:class:`BufferIndex` groups one pair of index sets per pseudo-buffer key.
:meth:`repro.core.scheduler.ForwardingAlgorithm._buffer_changed` feeds it
every pseudo-buffer length change, once, and forwards the rare transitions
where a key's whole nonempty set turns empty or nonempty to
:meth:`~repro.core.scheduler.ForwardingAlgorithm.on_key_presence_change`.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, Hashable, Iterator, List, Optional

__all__ = ["SortedIndexSet", "BufferIndex"]


class SortedIndexSet:
    """A set of integer positions supporting ordered queries.

    Backed by a sorted list (for ``first_in`` / ``range_iter``) and a set
    (for O(1) membership checks that keep ``add``/``discard`` idempotent).
    """

    __slots__ = ("_items", "_members")

    def __init__(self) -> None:
        self._items: List[int] = []
        self._members: set = set()

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __contains__(self, value: int) -> bool:
        return value in self._members

    def __iter__(self) -> Iterator[int]:
        """Iterate positions in ascending order."""
        return iter(self._items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SortedIndexSet({self._items})"

    def add(self, value: int) -> None:
        if value in self._members:
            return
        self._members.add(value)
        insort(self._items, value)

    def discard(self, value: int) -> None:
        if value not in self._members:
            return
        self._members.discard(value)
        index = bisect_left(self._items, value)
        del self._items[index]

    def first(self) -> Optional[int]:
        """The smallest position, or ``None`` if empty."""
        return self._items[0] if self._items else None

    def first_in(self, lo: int, hi: int) -> Optional[int]:
        """The smallest position in ``[lo, hi]``, or ``None``."""
        index = bisect_left(self._items, lo)
        if index < len(self._items) and self._items[index] <= hi:
            return self._items[index]
        return None

    def range_iter(self, lo: int, hi: int) -> Iterator[int]:
        """All positions in ``[lo, hi]``, ascending."""
        index = bisect_left(self._items, lo)
        while index < len(self._items) and self._items[index] <= hi:
            yield self._items[index]
            index += 1


class BufferIndex:
    """Per-key nonempty/bad position indices for one forwarding algorithm.

    ``update`` is a no-op unless the length change crossed a threshold;
    when it did, the insort/delete costs O(s) worst case in the size ``s``
    of the affected index set (the backing list shifts).  Queries are
    O(log s).  The aggregate maintenance cost per round stays proportional
    to the number of packets that moved, with a list-shift constant that is
    tiny in practice because membership only churns at threshold crossings.
    """

    __slots__ = ("bad_threshold", "_nonempty", "_bad")

    def __init__(self, bad_threshold: int = 2) -> None:
        self.bad_threshold = bad_threshold
        self._nonempty: Dict[Hashable, SortedIndexSet] = {}
        self._bad: Dict[Hashable, SortedIndexSet] = {}

    # -- maintenance -----------------------------------------------------------

    def update(
        self, node: int, key: Hashable, old_len: int, new_len: int
    ) -> Optional[bool]:
        """Fold one pseudo-buffer length change into the indices.

        Returns ``True`` when ``key``'s nonempty set just turned nonempty,
        ``False`` when it just turned empty, and ``None`` otherwise — the
        only transitions per-key structures layered on top of the index
        (HPTS's per-level destination sets) need to hear about.
        """
        presence = None
        if old_len == 0:
            if new_len:
                index_set = self._set_for(self._nonempty, key)
                if not index_set:
                    presence = True
                index_set.add(node)
        elif not new_len:
            index_set = self._nonempty.get(key)
            if index_set is not None:
                index_set.discard(node)
                if not index_set:
                    presence = False
        threshold = self.bad_threshold
        if old_len < threshold:
            if new_len >= threshold:
                self._set_for(self._bad, key).add(node)
        elif new_len < threshold:
            index_set = self._bad.get(key)
            if index_set is not None:
                index_set.discard(node)
        return presence

    def _set_for(
        self, table: Dict[Hashable, SortedIndexSet], key: Hashable
    ) -> SortedIndexSet:
        index_set = table.get(key)
        if index_set is None:
            index_set = SortedIndexSet()
            table[key] = index_set
        return index_set

    # -- queries ----------------------------------------------------------------

    def nonempty(self, key: Hashable) -> SortedIndexSet:
        """Positions whose ``key`` pseudo-buffer holds >= 1 packet."""
        return self._nonempty.get(key) or _EMPTY

    def bad(self, key: Hashable) -> SortedIndexSet:
        """Positions whose ``key`` pseudo-buffer holds >= ``bad_threshold``."""
        return self._bad.get(key) or _EMPTY

    def leftmost_bad(self, key: Hashable, lo: int, hi: int) -> Optional[int]:
        """Smallest bad position in ``[lo, hi]`` for ``key``, or ``None``."""
        return self.bad(key).first_in(lo, hi)

    def nonempty_in(self, key: Hashable, lo: int, hi: int) -> Iterator[int]:
        """Nonempty positions in ``[lo, hi]`` for ``key``, ascending."""
        return self.nonempty(key).range_iter(lo, hi)

    def has_nonempty_in(self, key: Hashable, lo: int, hi: int) -> bool:
        return self.nonempty(key).first_in(lo, hi) is not None


#: Shared immutable empty set returned for keys that never saw a packet.
_EMPTY = SortedIndexSet()
