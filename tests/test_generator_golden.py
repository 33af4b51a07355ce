"""Golden rows: the bounded generators' output, pinned bit for bit.

``tests/regressions/generator_rows.json`` holds, per case, the sha256 of
the rows a bucket-driven generator emits together with its final RNG state
(``random.Random.getstate()``) and token levels (``TokenBucket.state()``).
The digests were recorded from the generators as they stood before their
draws were inlined and their admission moved to a dry-buffer list, so any
change to a drawn bit, a skipped draw or a token level fails here.

The cases cover the ``bounded`` builder on lines and trees, ``single``,
``saturating`` and ``bursty``; two seeds; dyadic and non-dyadic
``(rho, sigma)``; ``intensity < 1``; 1, 3 and 8 destinations; and a
destination (node 1) whose only source is node 0.

Regenerate only when a generator's output is *meant* to change::

    PYTHONPATH=src python tests/test_generator_golden.py --write

The second half pins the draw loop the generators inline against
``random.choice`` / ``random.randrange``, including the RNG state after, so
a CPython release that changes how :mod:`random` draws fails here first.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Callable, Dict, List

import pytest

from repro.adversary import generators
from repro.adversary.base import encode_rng_state
from repro.core.packet import packet_id_scope
from repro.network.topology import LineTopology, binary_tree

GOLDEN = Path(__file__).parent / "regressions" / "generator_rows.json"

SEEDS = (1, 2)
#: Two dyadic envelopes (exact float arithmetic) and two non-dyadic ones.
ENVELOPES = ((1.0, 4.0), (0.5, 2.0), (0.3, 2.5), (0.7, 1.0))
ROUNDS = 40


def _line_cases() -> List[tuple]:
    # (nodes, num_destinations): on 4 nodes, 3 destinations are {1, 2, 3},
    # so destination 1 can only be reached from node 0.
    return [(33, 1), (33, 3), (33, 8), (4, 3)]


def _cases() -> Dict[str, Callable]:
    tree = binary_tree(4)
    cases: Dict[str, Callable] = {}
    for seed in SEEDS:
        for rho, sigma in ENVELOPES:
            tag = f"rho{rho}/sigma{sigma}/seed{seed}"
            for n, d in _line_cases():
                line = LineTopology(n)
                for intensity in (1.0, 0.6):
                    cases[f"bounded-line/n{n}/d{d}/i{intensity}/{tag}"] = (
                        lambda stream, line=line, rho=rho, sigma=sigma, d=d,
                        seed=seed, intensity=intensity:
                        generators.random_line_adversary(
                            line, rho, sigma, ROUNDS, d, seed=seed,
                            intensity=intensity, stream=stream,
                        )
                    )
                cases[f"saturating/n{n}/d{d}/{tag}"] = (
                    lambda stream, line=line, rho=rho, sigma=sigma, d=d, seed=seed:
                    generators.saturating_line_adversary(
                        line, rho, sigma, ROUNDS, d, seed=seed, stream=stream
                    )
                )
                cases[f"bursty/n{n}/d{d}/{tag}"] = (
                    lambda stream, line=line, rho=rho, sigma=sigma, d=d, seed=seed:
                    generators.bursty_adversary(
                        line, rho, sigma, ROUNDS, d, burst_period=5, seed=seed,
                        stream=stream,
                    )
                )
            for destination in (32, 1):
                cases[f"single/n33/w{destination}/{tag}"] = (
                    lambda stream, rho=rho, sigma=sigma, w=destination, seed=seed:
                    generators.single_destination_adversary(
                        LineTopology(33), rho, sigma, ROUNDS, destination=w,
                        seed=seed, stream=stream,
                    )
                )
            for name, destinations in (("root", None), ("root-1-2", [0, 1, 2])):
                cases[f"bounded-tree/depth4/{name}/{tag}"] = (
                    lambda stream, rho=rho, sigma=sigma, ws=destinations, seed=seed:
                    generators.random_tree_adversary(
                        tree, rho, sigma, ROUNDS, ws, seed=seed, stream=stream
                    )
                )
    return cases


def _digest(build: Callable) -> str:
    """sha256 of the streamed rows plus the row source's final state."""
    with packet_id_scope():
        stream = build(True)
        rows = [
            [p.round, p.source, p.destination]
            for t in range(ROUNDS)
            for p in stream.injections_for_round(t)
        ]
        state = stream.cursor()["rows"]["state"]
    with packet_id_scope():
        eager = [
            [p.round, p.source, p.destination]
            for p in build(False).all_injections()
        ]
    # The eager pattern orders a round's packets by route, not by draw.
    assert sorted(eager) == sorted(rows), "eager and streamed rows differ"
    assert rows, "the case injected nothing; it pins nothing"
    blob = json.dumps({"rows": rows, "state": state}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


CASES = _cases()


def _golden() -> Dict[str, str]:
    return json.loads(GOLDEN.read_text())["digests"]


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_generator_rows_match_golden(case):
    assert _digest(CASES[case]) == _golden()[case]


# -- the inlined draw loop -----------------------------------------------------------

DRAW_SIZES = (1, 2, 3, 7, 8, 9, 196)


@pytest.mark.parametrize("n", DRAW_SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_randbelow_matches_choice_and_randrange(n, seed):
    population = list(range(100, 100 + n))
    mine, choice, randrange = (random.Random(seed) for _ in range(3))
    getrandbits = mine.getrandbits
    for _ in range(500):
        expected = choice.choice(population)
        assert randrange.randrange(0, n) == expected - 100
        assert population[generators._randbelow(getrandbits, n)] == expected
    assert mine.getstate() == choice.getstate() == randrange.getstate()


class _ProposalLog:
    """A bucket that refuses every route and logs what it was offered.

    With no dry buffer to report, the rows' refusal threshold lets every
    proposal through to :meth:`admit_line`, so the log holds every draw."""

    log: List[tuple] = []

    def __init__(self, num_nodes, rho, sigma) -> None:
        self.proposals = _ProposalLog.log = []

    def start_round(self) -> None:
        pass

    def last_exhausted(self, stop) -> int:
        return -1

    def admit_line(self, source, destination) -> bool:
        self.proposals.append((source, destination))
        return False

    def state(self) -> dict:
        return {}


@pytest.mark.parametrize("n", DRAW_SIZES)
def test_random_line_draws_match_choice_and_randrange(monkeypatch, n):
    """The random-line rows' inlined hot loop, offered routes and RNG state
    after, against ``random()``, ``choice`` and ``randrange``."""
    monkeypatch.setattr(generators, "TokenBucket", _ProposalLog)
    line, intensity, rounds = LineTopology(n + 1 + n % 3), 0.7, 5
    stream = generators.random_line_adversary(
        line, 0.5, 4.0, rounds, n, seed=n, intensity=intensity, stream=True
    )
    for t in range(rounds):
        stream.injections_for_round(t)
    reference = random.Random(n)
    destinations = generators._pick_destinations(line, n, reference)
    expected = []
    for _ in range(rounds * (int(2 * 4.5 * n) + 4)):
        if reference.random() > intensity:
            continue
        destination = reference.choice(destinations)
        expected.append((reference.randrange(0, destination), destination))
    assert _ProposalLog.log == expected
    assert stream.cursor()["rows"]["state"]["rng"] == encode_rng_state(
        reference.getstate()
    )


def _write() -> None:
    digests = {case: _digest(CASES[case]) for case in sorted(CASES)}
    GOLDEN.write_text(
        json.dumps(
            {
                "description": (
                    "sha256 of (rows, final rng.getstate(), bucket.state()) per "
                    "generator case; see tests/test_generator_golden.py"
                ),
                "python": sys.version.split()[0],
                "digests": digests,
            },
            indent=1,
        )
        + "\n"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_generator_golden.py --write")
    _write()
