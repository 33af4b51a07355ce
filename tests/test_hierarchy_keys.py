"""Differential test: integer pseudo-buffer keys against a digit-list reference.

:meth:`HierarchicalPartition.pseudo_buffer_key` (and the ``segment_level`` /
``intermediate_destination`` / ``segment`` views of it) compares
``i // m**j`` with ``w // m**j`` over precomputed block sizes.  The reference
below is the literal Definition 4.2 — write both indices in base ``m`` and
find the most significant differing digit — with the argument checks in the
order the partition reports them.  Every ``0 <= i < w <= n`` pair is compared
for each shape, and invalid arguments must fail with the same message.
"""

from __future__ import annotations

import pytest

from repro.core.hierarchy import HierarchicalPartition
from repro.network.errors import ConfigurationError

SHAPES = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 3), (4, 3), (14, 2), (16, 2)]


def _digits(index, base, num_digits):
    """Base-``base`` digits of ``index``, least significant first."""
    digits = []
    for _ in range(num_digits):
        digits.append(index % base)
        index //= base
    assert index == 0
    return digits


def _reference_check(n, position, destination):
    if not 0 <= position < n:
        raise ConfigurationError(f"buffer index {position} outside [0, {n - 1}]")
    if not 0 <= destination <= n:
        raise ConfigurationError(f"destination {destination} outside [0, {n}]")
    if destination <= position:
        raise ConfigurationError(
            f"destination {destination} must be to the right of position {position}"
        )


def reference_key(m, ell, position, destination):
    """``(lv(i, w), x(i, w))`` from base-``m`` digit lists."""
    n = m**ell
    _reference_check(n, position, destination)
    if destination == n:
        return ell - 1, n
    position_digits = _digits(position, m, ell)
    destination_digits = _digits(destination, m, ell)
    for j in range(ell - 1, -1, -1):
        if position_digits[j] != destination_digits[j]:
            return j, (destination // m**j) * m**j
    raise AssertionError("valid arguments always differ in some digit")


def _error(call, *args):
    with pytest.raises(ConfigurationError) as info:
        call(*args)
    return str(info.value)


@pytest.mark.parametrize("m, ell", SHAPES)
def test_every_valid_pair_matches_the_digit_reference(m, ell):
    partition = HierarchicalPartition(m**ell, ell, m)
    n = m**ell
    for position in range(n):
        for destination in range(position + 1, n + 1):
            level, intermediate = reference_key(m, ell, position, destination)
            assert partition.pseudo_buffer_key(position, destination) == (
                level,
                intermediate,
            )
            assert partition.segment_level(position, destination) == level
            assert (
                partition.intermediate_destination(position, destination)
                == intermediate
            )
            segment = partition.segment(position, destination)
            assert (segment.start, segment.end, segment.level) == (
                position,
                intermediate,
                level,
            )


@pytest.mark.parametrize("m, ell", SHAPES)
def test_invalid_arguments_raise_the_reference_messages(m, ell):
    partition = HierarchicalPartition(m**ell, ell, m)
    n = m**ell
    edges = sorted({-2, -1, 0, 1, n // 2, n - 1, n, n + 1, n + 2})
    for position in edges:
        for destination in edges:
            if 0 <= position < destination <= n:
                continue
            expected = _error(reference_key, m, ell, position, destination)
            for call in (partition.pseudo_buffer_key, partition.segment_level,
                         partition.intermediate_destination, partition.segment):
                assert _error(call, position, destination) == expected, (
                    call.__name__, position, destination,
                )


def test_virtual_sink_with_a_position_off_the_line_is_refused():
    # intermediate_destination(i, n) used to return n without looking at i;
    # it now validates i like every other key query.
    partition = HierarchicalPartition(16, 4)
    assert partition.intermediate_destination(15, 16) == 16
    with pytest.raises(ConfigurationError, match="buffer index 16 outside"):
        partition.intermediate_destination(16, 16)
    with pytest.raises(ConfigurationError, match="buffer index -1 outside"):
        partition.intermediate_destination(-1, 16)
