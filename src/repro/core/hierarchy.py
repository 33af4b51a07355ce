"""Hierarchical partition of the line (Section 4.1, Definitions 4.2-4.3).

HPTS relies on writing each buffer index in base ``m`` with ``ell`` digits and
partitioning the line into nested intervals:

* the level-``j`` interval ``I_{j,r}`` contains the ``m**(j+1)`` buffers whose
  most significant ``ell - j - 1`` digits equal ``r``;
* a packet at buffer ``i`` with destination ``w`` travels in *segments*: if
  the most significant digit in which ``i`` and ``w`` differ is position
  ``j``, the packet's current segment has level ``j`` and ends at the
  intermediate destination ``x(i, w) = floor(w / m**j) * m**j``.

This module implements those definitions exactly, plus the virtual-trajectory
computation illustrated in Figure 1 of the paper (and regenerated by the E6
benchmark).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..network.errors import ConfigurationError

__all__ = [
    "HierarchicalPartition",
    "Segment",
    "base_m_digits",
    "digits_to_index",
    "is_perfect_power",
    "factor_as_power",
]


def base_m_digits(index: int, base: int, num_digits: int) -> List[int]:
    """The base-``m`` representation ``i_{ell-1} ... i_1 i_0`` of ``index``.

    Returned least-significant digit first (``result[j]`` is the digit in
    position ``j``), which matches the paper's subscript convention.
    """
    if index < 0:
        raise ConfigurationError(f"index must be non-negative, got {index}")
    if base < 2:
        raise ConfigurationError(f"base must be at least 2, got {base}")
    digits = []
    value = index
    for _ in range(num_digits):
        digits.append(value % base)
        value //= base
    if value != 0:
        raise ConfigurationError(
            f"index {index} does not fit in {num_digits} base-{base} digits"
        )
    return digits


def digits_to_index(digits: Sequence[int], base: int) -> int:
    """Inverse of :func:`base_m_digits` (digits least-significant first)."""
    return sum(digit * base**position for position, digit in enumerate(digits))


def is_perfect_power(n: int, base: int, exponent: int) -> bool:
    """Whether ``n == base ** exponent`` exactly."""
    return base >= 1 and exponent >= 0 and base**exponent == n


def factor_as_power(n: int, exponent: int) -> Optional[int]:
    """Find ``m`` such that ``m ** exponent == n``, or ``None`` if none exists.

    Used to pick the branching factor ``m = n**(1/ell)`` for HPTS when the
    caller only specifies the number of levels ``ell``.
    """
    if n < 1 or exponent < 1:
        return None
    # Integer root by search: exponentiation is cheap at these sizes.
    m = round(n ** (1.0 / exponent))
    for candidate in (m - 1, m, m + 1):
        if candidate >= 1 and candidate**exponent == n:
            return candidate
    return None


@dataclass(frozen=True, slots=True)
class Segment:
    """One leg of a packet's virtual trajectory (Definition 4.2).

    Attributes
    ----------
    start:
        The buffer at which the segment begins.
    end:
        The segment's intermediate destination ``x(start, final_destination)``.
    level:
        The segment's level ``lv(start, final_destination)`` — the most
        significant digit position in which ``start`` and the final
        destination differ.
    """

    start: int
    end: int
    level: int

    @property
    def length(self) -> int:
        """Number of hops in this segment."""
        return self.end - self.start


class HierarchicalPartition:
    """The nested interval structure used by HPTS.

    Parameters
    ----------
    num_nodes:
        The line length ``n``.  Must equal ``branching ** levels``.
    levels:
        The number of hierarchy levels ``ell``.
    branching:
        The branching factor ``m``.  If omitted it is derived from
        ``num_nodes`` and ``levels``.
    """

    __slots__ = ("num_nodes", "levels", "branching", "_blocks")

    def __init__(
        self,
        num_nodes: int,
        levels: int,
        branching: Optional[int] = None,
    ) -> None:
        if levels < 1:
            raise ConfigurationError(f"levels must be >= 1, got {levels}")
        if branching is None:
            branching = factor_as_power(num_nodes, levels)
            if branching is None:
                raise ConfigurationError(
                    f"num_nodes={num_nodes} is not a perfect {levels}-th power; "
                    f"pass branching explicitly or choose n = m**ell"
                )
        if branching < 2 and levels > 1:
            raise ConfigurationError(
                f"branching must be >= 2 for multi-level partitions, got {branching}"
            )
        if branching**levels != num_nodes:
            raise ConfigurationError(
                f"num_nodes={num_nodes} != branching**levels = {branching}**{levels}"
            )
        self.num_nodes = num_nodes
        self.levels = levels
        self.branching = branching
        #: ``(j, m**j)`` for ``j = ell-1 .. 1``: the digit positions in the
        #: order :meth:`pseudo_buffer_key` compares them (two indices that
        #: agree on all of them differ in digit 0).
        self._blocks: Tuple[Tuple[int, int], ...] = tuple(
            (j, branching**j) for j in range(levels - 1, 0, -1)
        )

    # -- digit helpers -----------------------------------------------------------

    def digits(self, index: int) -> List[int]:
        """Base-``m`` digits of ``index``, least significant first."""
        return base_m_digits(index, self.branching, self.levels)

    # -- intervals (Section 4.1) ---------------------------------------------------

    def interval(self, level: int, rank: int) -> Tuple[int, int]:
        """The level-``j`` interval ``I_{j,r}`` as an inclusive ``(start, end)`` pair.

        ``I_{j,r}`` contains the ``m**(j+1)`` buffers starting at
        ``r * m**(j+1)``.
        """
        self._check_level(level)
        size = self.branching ** (level + 1)
        num_intervals = self.num_nodes // size
        if not (0 <= rank < num_intervals):
            raise ConfigurationError(
                f"rank {rank} outside [0, {num_intervals - 1}] for level {level}"
            )
        start = rank * size
        return (start, start + size - 1)

    def num_intervals(self, level: int) -> int:
        """How many level-``j`` intervals partition the line (``m**(ell-j-1)``)."""
        self._check_level(level)
        return self.num_nodes // self.branching ** (level + 1)

    def level_partition(self, level: int) -> List[Tuple[int, int]]:
        """All level-``j`` intervals, left to right."""
        return [self.interval(level, r) for r in range(self.num_intervals(level))]

    def all_partitions(self) -> Dict[int, List[Tuple[int, int]]]:
        """``{level: [intervals]}`` for every level — the family ``I`` of Sec. 4.1."""
        return {j: self.level_partition(j) for j in range(self.levels)}

    def interval_containing(self, level: int, index: int) -> Tuple[int, int]:
        """The level-``j`` interval ``I_j(i)`` containing buffer ``index``."""
        self._check_level(level)
        self._check_index(index)
        size = self.branching ** (level + 1)
        rank = index // size
        return self.interval(level, rank)

    def subinterval_endpoints(self, level: int, index: int) -> List[int]:
        """Left endpoints of the level-``(j-1)`` subintervals of ``I_j(i)``.

        These are the ``m`` intermediate destinations ``W_j(i)`` available to
        packets at level ``j`` inside the interval containing ``index``
        (Definition 4.3).  For level 0 the "subintervals" are the individual
        buffers of the level-0 interval.
        """
        start, _end = self.interval_containing(level, index)
        size = self.branching**level
        return [start + k * size for k in range(self.branching)]

    # -- segments and intermediate destinations (Definition 4.2) --------------------

    def pseudo_buffer_key(self, position: int, destination: int) -> Tuple[int, int]:
        """The ``(level, intermediate destination)`` key of a packet at ``position``.

        This is the ``(j, k)``-pseudo-buffer assignment of Definition 4.3,
        with the intermediate destination spelled out as a node index rather
        than a rank ``k`` (the two are in bijection within an interval):
        ``j = lv(i, w)`` is the most significant base-``m`` digit position in
        which ``i`` and ``w`` differ, i.e. the largest ``j`` with
        ``i // m**j != w // m**j``, and ``x(i, w) = (w // m**j) * m**j``.

        HPTS calls this on every packet move, so it works on the block sizes
        ``m**j`` precomputed at construction instead of digit lists, and pays
        for the detailed argument checks only when the one range test fails.
        """
        if not 0 <= position < destination <= self.num_nodes:
            self._check_segment_arguments(position, destination)
        if destination == self.num_nodes:
            # Virtual sink one past the end of the line: treat as differing in
            # the most significant digit (the packet must leave the top-level
            # interval), matching the lower-bound construction's type-1 packets.
            return (self.levels - 1, destination)
        for level, block in self._blocks:
            head = destination // block
            if position // block != head:
                return (level, head * block)
        return (0, destination)

    def segment_level(self, position: int, destination: int) -> int:
        """``lv(i, w)``: the most significant digit position where ``i`` and ``w`` differ."""
        return self.pseudo_buffer_key(position, destination)[0]

    def intermediate_destination(self, position: int, destination: int) -> int:
        """``x(i, w) = floor(w / m**j) * m**j`` where ``j = lv(i, w)``."""
        return self.pseudo_buffer_key(position, destination)[1]

    def segment(self, position: int, destination: int) -> Segment:
        """The current segment of a packet at ``position`` heading to ``destination``."""
        level, end = self.pseudo_buffer_key(position, destination)
        return Segment(start=position, end=end, level=level)

    def virtual_trajectory(self, source: int, destination: int) -> List[Segment]:
        """The full segment decomposition of ``Path(source, destination)``.

        The trajectory is the sequence of segments
        ``[i, x(i, w)], [x(i, w), x(x(i, w), w)], ...`` whose levels strictly
        decrease (Section 4.1), ending when the packet reaches ``destination``.
        This is exactly the virtual motion drawn in Figure 1.
        """
        self._check_index(source)
        self._check_destination(destination)
        if destination <= source:
            raise ConfigurationError(
                f"destination {destination} must be to the right of source {source}"
            )
        segments: List[Segment] = []
        position = source
        while position < destination:
            seg = self.segment(position, destination)
            segments.append(seg)
            if seg.end <= position:
                raise ConfigurationError(
                    f"segment from {position} did not advance (got end {seg.end})"
                )
            position = seg.end
        return segments

    # -- figure 1 support -----------------------------------------------------------

    def figure_rows(self) -> List[Dict[str, object]]:
        """Rows describing the partition, one per (level, interval) pair.

        Used by the Figure 1 benchmark and the quickstart example to print the
        nested box structure of the hierarchy.
        """
        rows: List[Dict[str, object]] = []
        for level in range(self.levels - 1, -1, -1):
            for rank, (start, end) in enumerate(self.level_partition(level)):
                rows.append(
                    {
                        "level": level,
                        "rank": rank,
                        "start": start,
                        "end": end,
                        "size": end - start + 1,
                    }
                )
        return rows

    # -- validation helpers -----------------------------------------------------------

    def _check_level(self, level: int) -> None:
        if not (0 <= level < self.levels):
            raise ConfigurationError(
                f"level {level} outside [0, {self.levels - 1}]"
            )

    def _check_index(self, index: int) -> None:
        if not (0 <= index < self.num_nodes):
            raise ConfigurationError(
                f"buffer index {index} outside [0, {self.num_nodes - 1}]"
            )

    def _check_destination(self, destination: int) -> None:
        if not (0 <= destination <= self.num_nodes):
            raise ConfigurationError(
                f"destination {destination} outside [0, {self.num_nodes}]"
            )

    def _check_segment_arguments(self, position: int, destination: int) -> None:
        """Raise the specific error for a ``(position, destination)`` pair
        that fails ``0 <= position < destination <= n``."""
        self._check_index(position)
        self._check_destination(destination)
        if destination <= position:
            raise ConfigurationError(
                f"destination {destination} must be to the right of position {position}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HierarchicalPartition(n={self.num_nodes}, m={self.branching}, "
            f"ell={self.levels})"
        )
