"""Property-based tests for badness accounting and the Lemma 3.4 step.

These tests build random line configurations directly (bypassing the
simulator) and check:

* the badness helpers agree with a brute-force recomputation from the raw
  pseudo-buffer loads,
* one step of PPTS-style interval forwarding never increases badness and
  strictly decreases it at every buffer inside the forwarded interval —
  exactly the statement of Lemma 3.4.
"""

from __future__ import annotations

import random as random_module

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.badness import (
    line_badness_by_destination,
    line_total_badness,
    pseudo_buffer_badness,
)
from repro.core.packet import Packet, make_injection
from repro.core.pseudobuffer import NodeBuffer


def _random_configuration(num_nodes, destinations, loads_seed):
    """Random per-(node, destination) loads, returned as NodeBuffers plus a load map."""
    rng = random_module.Random(loads_seed)
    buffers = {i: NodeBuffer(i) for i in range(num_nodes)}
    loads = {}
    for i in range(num_nodes):
        for w in destinations:
            if w <= i:
                continue
            load = rng.choice([0, 0, 0, 1, 1, 2, 3])
            loads[(i, w)] = load
            for _ in range(load):
                packet = Packet.from_injection(make_injection(0, i, w))
                packet.location = i
                buffers[i].store(packet, w)
    return buffers, loads


def _brute_force_badness(loads, num_nodes, destinations):
    """B(i) computed directly from the load map."""
    result = {}
    for i in range(num_nodes):
        total = 0
        for w in destinations:
            if w <= i:
                continue
            for j in range(0, i + 1):
                total += max(loads.get((j, w), 0) - 1, 0)
        result[i] = total
    return result


class TestBadnessAgreesWithBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(
        num_nodes=st.integers(min_value=2, max_value=20),
        seed=st.integers(min_value=0, max_value=10_000),
        data=st.data(),
    )
    def test_total_badness(self, num_nodes, seed, data):
        num_destinations = data.draw(
            st.integers(min_value=1, max_value=max(1, num_nodes - 1))
        )
        destinations = sorted(
            random_module.Random(seed).sample(
                range(1, num_nodes), min(num_destinations, num_nodes - 1)
            )
        )
        buffers, loads = _random_configuration(num_nodes, destinations, seed + 7)
        computed = line_total_badness(buffers, destinations)
        expected = _brute_force_badness(loads, num_nodes, destinations)
        assert computed == expected

    @settings(max_examples=40, deadline=None)
    @given(
        num_nodes=st.integers(min_value=2, max_value=16),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_per_destination_badness_sums_to_total(self, num_nodes, seed):
        destinations = sorted(
            random_module.Random(seed).sample(
                range(1, num_nodes), min(3, num_nodes - 1)
            )
        )
        buffers, _ = _random_configuration(num_nodes, destinations, seed + 3)
        per = line_badness_by_destination(buffers, destinations)
        total = line_total_badness(buffers, destinations)
        for i in range(num_nodes):
            assert total[i] == sum(per[(i, w)] for w in destinations if w > i)


class TestLemma34SingleStep:
    @settings(max_examples=60, deadline=None)
    @given(
        num_nodes=st.integers(min_value=3, max_value=20),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_forwarding_an_interval_decreases_badness(self, num_nodes, seed):
        """Forward one packet from every non-empty k-pseudo-buffer in an
        interval [a, b] with L_k(a) >= 2 and b < w_k: the k-badness of every
        buffer in [a, b] strictly decreases, and no buffer's badness grows
        except possibly b + 1 (which Lemma 3.4 excludes by requiring b < w_k
        and accounting the arrival there)."""
        rng = random_module.Random(seed)
        destination = num_nodes  # a single destination past the right end
        destinations = [destination]
        buffers, loads = _random_configuration(num_nodes + 1, destinations, seed + 11)
        # Find a buffer with load >= 2 to play the role of a_k.
        bad_candidates = [
            i for i in range(num_nodes) if buffers[i].load_of(destination) >= 2
        ]
        if not bad_candidates:
            return  # nothing to forward; the property is vacuous here
        a = rng.choice(bad_candidates)
        b = rng.randint(a, num_nodes - 1)

        before = line_badness_by_destination(buffers, destinations)

        # Simultaneously forward one packet from every non-empty pseudo-buffer
        # in [a, b]: pop first, then place at the successor.
        moved = []
        for i in range(a, b + 1):
            if buffers[i].load_of(destination) > 0:
                moved.append((i, buffers[i].take(destination)))
        for i, packet in moved:
            if i + 1 < destination:
                packet.location = i + 1
                buffers[i + 1].store(packet, destination)

        after = line_badness_by_destination(buffers, destinations)

        for i in range(num_nodes):
            if a <= i <= b:
                expected_cap = max(before[(i, destination)] - 1, 0)
                assert after[(i, destination)] <= expected_cap
            elif i < a:
                assert after[(i, destination)] == before[(i, destination)]
            elif i > b:
                # Buffers right of the interval can gain at most the one
                # packet that arrived at b + 1.
                assert after[(i, destination)] <= before[(i, destination)] + 1


class TestPseudoBufferBadnessProperties:
    @settings(max_examples=50, deadline=None)
    @given(load=st.integers(min_value=0, max_value=50))
    def test_matches_definition(self, load):
        assert pseudo_buffer_badness(load) == max(load - 1, 0)

    @settings(max_examples=50, deadline=None)
    @given(load=st.integers(min_value=0, max_value=50))
    def test_monotone_and_lipschitz(self, load):
        assert pseudo_buffer_badness(load + 1) >= pseudo_buffer_badness(load)
        assert pseudo_buffer_badness(load + 1) - pseudo_buffer_badness(load) <= 1
