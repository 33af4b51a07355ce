"""The batch kernel's packet table, published on first read, against the
delta engine.

:class:`~repro.network.batch.BatchSimulator` builds a
:class:`~repro.core.packet.Packet` for each live row at a sync and leaves
delivered rows in its columns until ``simulator.packets`` is read.  Every
cell of {PTS, work-conserving PTS, PPTS, HPTS, greedy, local} x {summary,
full, streaming} x {straight run, split run, checkpoint cut mid-run, run
that raises mid-window} must leave the table the object engine leaves: the
same insertion order and every field.  The live packets must be the objects
the algorithm's buffers hold, two reads must return the same objects, and a
retaining run must build no packet for a delivered row before the read.
"""

from __future__ import annotations

import gc

import pytest

from repro.adversary.generators import trickle_adversary
from repro.analysis.latency import delivery_rate, latency_breakdown
from repro.baselines.greedy import GreedyForwarding
from repro.checkpoint import load_checkpoint
from repro.core.hpts import HierarchicalPeakToSink
from repro.core.local import LocalThresholdForwarding
from repro.core.packet import Packet, packet_id_scope
from repro.core.ppts import ParallelPeakToSink
from repro.core.pts import PeakToSink
from repro.network.batch import BatchSimulator
from repro.network.errors import ConfigurationError
from repro.network.simulator import Simulator
from repro.network.topology import LineTopology

N = 16
ROUNDS = 60
SEED = 11
#: Inside the first 64-round batch window, so the raise lands mid-window.
RAISE_AT = 37
CHECKPOINT_EVERY = 16

KINDS = ("pts", "pts-wc", "ppts", "hpts", "greedy", "local")
HISTORY_MODES = {
    "summary": {},
    "full": {"record_history": True, "record_occupancy_vectors": True},
    "streaming": {"history": "streaming"},
}
RUNS = ("straight", "split", "cut", "raise")


class _Stop(Exception):
    """Raised by the pattern at ``RAISE_AT``."""


class _RaisingRows(dict):
    """A pattern's round index that raises when ``RAISE_AT`` is looked up.

    Both engines read the eager pattern's rows through it (the batch kernel
    on its object-free fast path), so both stop at the start of the same
    round.
    """

    def get(self, round_number, default=None):
        if round_number == RAISE_AT:
            raise _Stop(f"stopped at round {round_number}")
        return super().get(round_number, default)


def _make(kind, *, raising=False):
    topology = LineTopology(N, allow_virtual_sink=kind != "local")
    if kind in ("pts", "pts-wc"):
        algorithm = PeakToSink(
            topology, destination=N, work_conserving=kind == "pts-wc"
        )
        destinations = [N]
    elif kind == "local":
        algorithm = LocalThresholdForwarding(topology, 2, destination=N - 1)
        destinations = [N - 1]
    else:
        if kind == "ppts":
            algorithm = ParallelPeakToSink(topology)
        elif kind == "hpts":
            algorithm = HierarchicalPeakToSink(topology, levels=2)
        else:
            algorithm = GreedyForwarding(topology)
        destinations = [N // 3, (2 * N) // 3, N]
    adversary = trickle_adversary(
        topology, 0.9, 2.0, ROUNDS, destinations=destinations, seed=SEED
    )
    if raising:
        adversary._by_round = _RaisingRows(adversary._by_round)
    return topology, algorithm, adversary


def _table(simulator):
    """Insertion order and every field of the packet table."""
    return [
        (
            pid,
            packet.packet_id,
            packet.source,
            packet.destination,
            packet.injected_round,
            packet.location,
            packet.state,
            packet.accepted_round,
            packet.delivered_round,
            packet.hops,
        )
        for pid, packet in simulator.packets.items()
    ]


def _live_packets(algorithm):
    live = [
        packet
        for node_buffer in algorithm.buffers.values()
        for pseudo in node_buffer.pseudo_buffers()
        for packet in pseudo.packets()
    ]
    return live + list(getattr(algorithm, "_staged", ()))


def _assert_same_table(batch, delta):
    assert _table(batch) == _table(delta)
    live = _live_packets(batch.algorithm)
    assert len(live) == len(_live_packets(delta.algorithm))
    packets = batch.packets
    for packet in live:
        assert packets[packet.packet_id] is packet
    # A second read returns the very same objects.
    assert all(
        first is second
        for first, second in zip(packets.values(), batch.packets.values())
    )


def _run(engine, kind, history, run, tmp_path):
    """Run one cell on ``engine`` (a ``split`` run only up to its split);
    returns the simulator and, for a ``cut`` run, its last checkpoint."""
    with packet_id_scope():
        simulator = engine(*_make(kind, raising=run == "raise"),
                           **HISTORY_MODES[history])
        if engine is BatchSimulator:
            # Every cell runs the object-free injection path.
            assert simulator._fast_rows is not None
        if run == "straight":
            simulator.run()
        elif run == "split":
            simulator.run(ROUNDS, drain=False)
        elif run == "cut":
            path = tmp_path / f"{engine.__name__}.ckpt"
            simulator.run(checkpoint_every=CHECKPOINT_EVERY,
                          checkpoint_path=str(path))
            return simulator, load_checkpoint(str(path))
        else:
            with pytest.raises(_Stop):
                simulator.run()
            assert simulator._round == RAISE_AT
    return simulator, None


@pytest.mark.parametrize("run", RUNS)
@pytest.mark.parametrize("history", sorted(HISTORY_MODES))
@pytest.mark.parametrize("kind", KINDS)
def test_table_equals_the_delta_engine(kind, history, run, tmp_path):
    delta, delta_cut = _run(Simulator, kind, history, run, tmp_path)
    batch, batch_cut = _run(BatchSimulator, kind, history, run, tmp_path)
    _assert_same_table(batch, delta)
    if run == "split":
        with packet_id_scope():
            delta_result = delta.run(ROUNDS)
            batch_result = batch.run(ROUNDS)
        assert batch_result == delta_result
        _assert_same_table(batch, delta)
    if run == "cut":
        assert batch_cut.round == delta_cut.round == 48
        for name, column in delta_cut.sections.items():
            assert batch_cut.sections[name] == column, name
    assert batch._delivered == delta._delivered > 0
    if history == "streaming":
        for analysis in (latency_breakdown, delivery_rate):
            with pytest.raises(ConfigurationError):
                analysis(batch)
    else:
        assert latency_breakdown(batch) == latency_breakdown(delta)
        assert delivery_rate(batch) == delivery_rate(delta)


@pytest.mark.parametrize("history", sorted(HISTORY_MODES))
@pytest.mark.parametrize("kind", KINDS)
def test_split_run_delivers_unread_live_packets(kind, history):
    """A packet live at the split and delivered by the second call leaves
    (streaming) or keeps its place in (retaining) a table nobody read in
    between; a retained one is still the object the buffers held."""
    tables = []
    for engine in (Simulator, BatchSimulator):
        with packet_id_scope():
            simulator = engine(*_make(kind), **HISTORY_MODES[history])
            # Split mid-injection: at the horizon some kinds (PTS, PPTS)
            # already sit at a fixed point that delivers nothing more.
            simulator.run(ROUNDS // 2, drain=False)
            held = _live_packets(simulator.algorithm)
            simulator.run(ROUNDS)
        assert any(packet.delivered for packet in held)
        tables.append(_table(simulator))
        if simulator.retain_packets:
            for packet in held:
                assert simulator.packets[packet.packet_id] is packet
    assert tables[0] == tables[1]


def _packet_count():
    gc.collect()
    return sum(type(item) is Packet for item in gc.get_objects())


@pytest.mark.parametrize("history", ("summary", "full"))
@pytest.mark.parametrize("kind", ("pts", "hpts", "greedy"))
def test_delivered_rows_build_no_packet_until_read(kind, history):
    baseline = _packet_count()
    with packet_id_scope():
        simulator = BatchSimulator(*_make(kind), **HISTORY_MODES[history])
        result = simulator.run()
    assert result.packets_delivered > 0
    pending = simulator.algorithm.pending_packets()
    assert pending == result.packets_undelivered
    # Only the live packets the algorithm's buffers need exist.
    assert _packet_count() - baseline == pending
    assert len(simulator.packets) == result.packets_injected
    assert _packet_count() - baseline == result.packets_injected
