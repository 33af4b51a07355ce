"""Incrementally maintained bad-buffer positions.

PTS, PPTS and HPTS pick what to activate by starting at the left-most *bad*
pseudo-buffer, one that holds at least ``bad_threshold`` packets (Definition
3.3 / 4.4 uses 2; :mod:`repro.core.local` rules may use a configurable
congestion threshold), and the tree algorithms start from the bad antichain.
So bad positions are the one thing the delta engine indexes; the walk from
the left-most bad buffer reads the node loads directly.

:class:`SortedIndexSet` is a sorted list + membership set (``bisect``-based;
insertions shift the underlying list, but the sets track only bad positions
so they stay small, and updates happen only when the threshold is actually
crossed — O(packets moved), not O(n), per round).
:class:`BufferIndex` keeps one such set per pseudo-buffer key.
The forwarding algorithm's change listener
(``repro.core.scheduler._BufferChanges``) feeds it each pseudo-buffer
length change that crosses the threshold, once.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, Hashable, Iterator, List, Optional

__all__ = ["SortedIndexSet", "BufferIndex"]


class SortedIndexSet:
    """A set of integer positions supporting ordered queries.

    Backed by a sorted list (for ascending iteration and ``first_in``) and a
    set (for O(1) membership checks that keep ``add``/``discard``
    idempotent).
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

    def first_in(self, lo: int, hi: int) -> Optional[int]:
        """The smallest position in ``[lo, hi]``, or ``None``."""
        index = bisect_left(self._items, lo)
        if index < len(self._items) and self._items[index] <= hi:
            return self._items[index]
        return None


class BufferIndex:
    """Per-key sorted bad positions for one forwarding algorithm.

    ``update`` sets one position's membership from its new length, so it
    is idempotent; the engine's listener calls it only when a change
    crosses the bad threshold, and then the insort/delete costs O(s) worst
    case in the size ``s`` of the affected set (the backing list shifts).
    Queries are O(log s).  A key whose last bad position goes is dropped,
    so :meth:`bad_keys` names exactly the keys that have a bad buffer.
    """

    __slots__ = ("bad_threshold", "_bad")

    def __init__(self, bad_threshold: int = 2) -> None:
        self.bad_threshold = bad_threshold
        self._bad: Dict[Hashable, SortedIndexSet] = {}

    def update(self, node: int, key: Hashable, old_len: int, new_len: int) -> None:
        """Fold one pseudo-buffer length change into the bad sets: ``node``
        is in ``key``'s set exactly when ``new_len`` reaches the threshold.

        Takes a node buffer's change-listener arguments; ``old_len`` is not
        needed, since adding and discarding are idempotent.
        """
        if new_len >= self.bad_threshold:
            index_set = self._bad.get(key)
            if index_set is None:
                index_set = self._bad[key] = SortedIndexSet()
            index_set.add(node)
        else:
            index_set = self._bad.get(key)
            if index_set is not None:
                index_set.discard(node)
                if not index_set:
                    del self._bad[key]

    def clear(self) -> None:
        """Forget every bad position, before a bulk rebuild."""
        self._bad.clear()

    # -- queries ----------------------------------------------------------------

    def bad(self, key: Hashable) -> SortedIndexSet:
        """Positions whose ``key`` pseudo-buffer holds >= ``bad_threshold``."""
        return self._bad.get(key) or _EMPTY

    def bad_keys(self) -> List[Hashable]:
        """The keys with at least one bad position, in no particular order."""
        return list(self._bad)

    def leftmost_bad(self, key: Hashable, lo: int, hi: int) -> Optional[int]:
        """Smallest bad position in ``[lo, hi]`` for ``key``, or ``None``."""
        return self.bad(key).first_in(lo, hi)


#: Shared immutable empty set returned for keys with no bad position.
_EMPTY = SortedIndexSet()
