"""Differential oracle: the batch kernel against the per-round object engine.

Every scenario here runs twice from identical seeds — once on
:class:`repro.network.simulator.Simulator` (the oracle) and once on
:class:`repro.network.batch.BatchSimulator` — and the results must be
*bit-identical*: the full :class:`SimulationResult` (including per-round
records), the retained packet table (insertion order and every field), and
the streamed injection log.  The matrix covers every kernel kind
({PTS, local, downhill, greedy, PPTS, HPTS} x {trickle, bounded, explicit}
x three history modes, each run straight and split into
``run(h, drain=False)`` then a drain-only ``run(h)``), plus the edges that
historically break lockstep engines: round-0 injections, drain tails (a run
stopped short of its pattern, a drain cap hit mid-drain, a drain that ends
on the quiescence window), the minimal line, the error paths (invalid
routes, wrong destinations), PTS's segment shift (several, adjacent and
last-node bad buffers in one round, both PTS flavours and disciplines, an
interior destination and the virtual sink) with its maxima folded at the
next measurement, never at the shift (``run(h, drain=False)`` and checkpoint
cuts), PTS's kept bad-buffer list under a streaming adversary, whose rows
take the checked injection path, and for the pseudo-buffer kind: HPTS with one, two and three levels
and each of its variants, PPTS with a declared destination set, drains
that stop with HPTS packets still staged, the key-major segment shift
(the same arrangements of PPTS and HPTS stacks, HPTS re-keying and
cascading, both disciplines, every horizon with ``drain=False``, and
checkpoint cuts in all four engine pairings), and the quiet drain tail
the kernel counts instead of running (it must wait for every HPTS level
and stop at a cap inside it; the drain's window returns after ``ell`` quiet
rounds).
"""

from __future__ import annotations

import random

import pytest

from repro.adversary.adaptive import HotspotAdversary
from repro.adversary.bounded import check_bounded
from repro.adversary.generators import (
    build_explicit_adversary,
    random_line_adversary,
    trickle_adversary,
)
from repro.baselines.greedy import GreedyForwarding
from repro.baselines.policies import ALL_POLICIES
from repro.checkpoint import load_checkpoint, restore_into
from repro.core.hpts import HierarchicalPeakToSink
from repro.core.local import DownhillForwarding, LocalThresholdForwarding
from repro.core.packet import packet_id_scope
from repro.core.ppts import ParallelPeakToSink
from repro.core.pseudobuffer import QueueDiscipline
from repro.core.pts import PeakToSink
from repro.network.batch import BatchSimulator
from repro.network.errors import (
    SchedulingError,
    TopologyError,
    UnbatchableScenarioError,
)
from repro.network.simulator import Simulator, quiescence_window
from repro.network.topology import LineTopology

N = 16
ROUNDS = 150
SEED = 23

#: Every kernel kind: the fused-scan family, then the pseudo-buffer kind.
ALGORITHMS = ("pts", "local", "downhill", "greedy", "ppts", "hpts")
#: The multi-destination algorithms.
MULTI_DESTINATION = ("greedy", "ppts", "hpts")


# -- scenario construction ---------------------------------------------------------


def _make_algorithm(name, topology):
    n = topology.num_nodes
    if name == "pts":
        destination = n if topology.allow_virtual_sink else n - 1
        return PeakToSink(topology, destination=destination)
    if name == "local":
        return LocalThresholdForwarding(topology, 2, destination=n - 1)
    if name == "downhill":
        return DownhillForwarding(topology, destination=n - 1)
    if name == "ppts":
        return ParallelPeakToSink(topology)
    if name == "hpts":
        return HierarchicalPeakToSink(topology, levels=2)
    return GreedyForwarding(topology)


def _make_topology(name, n=N, adversary="trickle"):
    # PTS and the multi-destination algorithms exercise the virtual sink;
    # local and downhill the ordinary last-node destination.  The bounded
    # generator never draws the sink, so its runs use a sink-free line.
    with_sink = name in ("pts",) + MULTI_DESTINATION and adversary != "bounded"
    return LineTopology(n, allow_virtual_sink=with_sink)


def _destinations(name, topology):
    n = topology.num_nodes
    if name == "pts":
        return [n if topology.allow_virtual_sink else n - 1]
    if name in MULTI_DESTINATION:
        # Interior nodes plus the virtual sink.
        return [n // 3, (2 * n) // 3, n]
    return [n - 1]


_EXPLICIT_GREEDY = [
    # Round-0 burst, interleaved destinations, repeated sources.
    (0, 0, 5), (0, 0, 10), (0, 3, 5), (1, 2, 16), (1, 4, 10),
    (3, 0, 16), (3, 1, 5), (3, 3, 10), (3, 3, 16), (8, 9, 10),
    (8, 14, 16), (20, 0, 16), (20, 5, 10), (21, 6, 16), (40, 15, 16),
]


def _make_adversary(kind, name, topology, rounds=ROUNDS, seed=SEED):
    destinations = _destinations(name, topology)
    if kind == "trickle":
        return trickle_adversary(
            topology, 0.9, 2.0, rounds, destinations=destinations, seed=seed
        )
    if kind == "bounded":
        # Several destinations for the multi-destination algorithms.
        num_destinations = 3 if name in MULTI_DESTINATION else 1
        return random_line_adversary(
            topology, 0.8, 3.0, rounds, num_destinations, seed=seed
        )
    routes = (
        _EXPLICIT_GREEDY
        if name in MULTI_DESTINATION
        else [
            (t, s, destinations[0])
            for (t, s, _w) in _EXPLICIT_GREEDY
            if s < destinations[0]
        ]
    )
    return build_explicit_adversary(
        topology, rho=1.0, sigma=4.0, rounds=rounds, routes=routes
    )


HISTORY_MODES = {
    "summary": {},
    "full": {"record_history": True, "record_occupancy_vectors": True},
    "streaming": {"history": "streaming"},
}


def _packet_table(simulator):
    """Insertion order and every observable field of the packet table."""
    return [
        (
            pid,
            packet.source,
            packet.destination,
            packet.injected_round,
            packet.location,
            packet.state.value,
            packet.accepted_round,
            packet.delivered_round,
            packet.hops,
        )
        for pid, packet in simulator.packets.items()
    ]


def _stream_log(simulator):
    store = simulator.packet_store
    if store is None:
        return None
    return (
        tuple(store.rounds),
        tuple(store.sources),
        tuple(store.destinations),
        tuple(store.packet_ids),
    )


def _run_delta(make, sim_kwargs, run_kwargs):
    with packet_id_scope():
        simulator = Simulator(*make(), **sim_kwargs)
        result = simulator.run(**run_kwargs)
    return simulator, result


def _run_batch(make, sim_kwargs, run_kwargs, batch_rounds=64, split=False):
    """Run the batch kernel; ``split`` runs the injection phase with
    ``run(h, drain=False)`` first, so the second ``run(h)`` resumes at round
    ``h`` and only drains (the split the per-layer tracer times)."""
    with packet_id_scope():
        simulator = BatchSimulator(*make(), batch_rounds=batch_rounds, **sim_kwargs)
        if split:
            horizon = run_kwargs.get("num_rounds", simulator.adversary.horizon)
            simulator.run(**{**run_kwargs, "num_rounds": horizon, "drain": False})
            run_kwargs = {**run_kwargs, "num_rounds": horizon}
        result = simulator.run(**run_kwargs)
    return simulator, result


def _assert_identical(make, sim_kwargs=None, run_kwargs=None, **batch_opts):
    sim_kwargs = dict(sim_kwargs or {})
    run_kwargs = dict(run_kwargs or {})
    oracle_sim, oracle = _run_delta(make, sim_kwargs, run_kwargs)
    batch_sim, result = _run_batch(make, sim_kwargs, run_kwargs, **batch_opts)
    assert result == oracle
    assert _packet_table(batch_sim) == _packet_table(oracle_sim)
    assert _stream_log(batch_sim) == _stream_log(oracle_sim)
    return oracle


def _trickle(algorithm):
    """The ``make`` factory for ``algorithm`` against the trickle adversary."""

    def make():
        topology = _make_topology(algorithm)
        return (
            topology,
            _make_algorithm(algorithm, topology),
            _make_adversary("trickle", algorithm, topology),
        )

    return make


# -- the full matrix ---------------------------------------------------------------


@pytest.mark.parametrize("run", ("straight", "split"))
@pytest.mark.parametrize("history", sorted(HISTORY_MODES))
@pytest.mark.parametrize("adversary", ("trickle", "bounded", "explicit"))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_matrix_bit_identical(algorithm, adversary, history, run):
    def make():
        topology = _make_topology(algorithm, adversary=adversary)
        return (
            topology,
            _make_algorithm(algorithm, topology),
            _make_adversary(adversary, algorithm, topology),
        )

    result = _assert_identical(
        make, sim_kwargs=HISTORY_MODES[history], split=run == "split"
    )
    assert result.packets_injected > 0


# -- edges -------------------------------------------------------------------------


@pytest.mark.parametrize("algorithm", ("pts", "local", "downhill", "greedy"))
def test_minimal_line(algorithm):
    """n=2 — the smallest LineTopology — with a round-0 burst."""

    def make():
        topology = _make_topology(algorithm, n=2)
        destination = _destinations(algorithm, topology)[-1]
        adversary = build_explicit_adversary(
            topology,
            rho=1.0,
            sigma=3.0,
            rounds=6,
            routes=[(0, 0, destination), (0, 0, destination),
                    (2, 0, destination), (5, 0, destination)],
        )
        return topology, _make_algorithm(algorithm, topology), adversary

    _assert_identical(make)


@pytest.mark.parametrize("algorithm", ("pts", "local", "downhill", "greedy"))
def test_no_drain_leaves_identical_flight_state(algorithm):
    """drain=False: undelivered packets, locations and counters must agree."""
    result = _assert_identical(_trickle(algorithm), run_kwargs={"drain": False})
    assert result.packets_undelivered > 0


# -- drain edges: every drain round runs the same fused scan -----------------------


DRAIN_HISTORY_MODES = ("summary", "full")


@pytest.mark.parametrize("history", DRAIN_HISTORY_MODES)
@pytest.mark.parametrize("algorithm", ("pts", "local", "downhill", "greedy"))
def test_drain_after_short_run_never_injects_the_rest(algorithm, history):
    """run(h // 2) drains without injecting the pattern's later rows."""
    make = _trickle(algorithm)
    adversary = make()[2]
    first_half = sum(
        len(adversary.injections_for_round(t)) for t in range(ROUNDS // 2)
    )
    assert adversary.total_packets > first_half
    result = _assert_identical(
        make,
        sim_kwargs=HISTORY_MODES[history],
        run_kwargs={"num_rounds": ROUNDS // 2},
    )
    assert result.packets_injected == first_half
    assert result.rounds_executed > ROUNDS // 2


@pytest.mark.parametrize("history", DRAIN_HISTORY_MODES)
@pytest.mark.parametrize("algorithm", ("pts", "local", "downhill", "greedy"))
def test_drain_cap_hit_mid_drain(algorithm, history):
    """max_drain_rounds stops the drain with packets still in flight."""
    make = _trickle(algorithm)
    result = _assert_identical(
        make,
        sim_kwargs=HISTORY_MODES[history],
        run_kwargs={"max_drain_rounds": 3},
    )
    assert not result.drained
    assert result.rounds_executed == make()[2].horizon + 3


@pytest.mark.parametrize("history", DRAIN_HISTORY_MODES)
@pytest.mark.parametrize("algorithm", ("pts", "local"))
def test_drain_ends_on_quiescence_window(algorithm, history):
    """Packets stranded below the threshold: the drain stops after the
    quiescence window of rounds that forward nothing."""

    def make():
        topology = _make_topology(algorithm)
        w = _destinations(algorithm, topology)[0]
        adversary = build_explicit_adversary(
            topology, rho=1.0, sigma=2.0, rounds=4,
            routes=[(0, 2, w), (0, 5, w), (1, 9, w)],
        )
        return topology, _make_algorithm(algorithm, topology), adversary

    result = _assert_identical(make, sim_kwargs=HISTORY_MODES[history])
    assert not result.drained
    assert result.packets_undelivered == 3
    assert result.rounds_executed == make()[2].horizon + quiescence_window(N)


def test_empty_pattern():
    def make():
        topology = LineTopology(N)
        adversary = build_explicit_adversary(
            topology, rho=1.0, sigma=1.0, rounds=10, routes=[]
        )
        return topology, PeakToSink(topology), adversary

    result = _assert_identical(make)
    assert result.packets_injected == 0
    assert result.drained


def test_batch_window_size_does_not_change_results():
    def make():
        topology = _make_topology("pts")
        return (
            topology,
            _make_algorithm("pts", topology),
            _make_adversary("trickle", "pts", topology),
        )

    baseline = _run_batch(make, {}, {}, batch_rounds=64)[1]
    for batch_rounds in (1, 7, 1024):
        assert (
            _run_batch(make, {}, {}, batch_rounds=batch_rounds)[1]
            == baseline
        )


def test_variant_knobs():
    """Work-conserving PTS, FIFO PTS, threshold-1 local, locality-0 local."""

    def pts_wc():
        topology = LineTopology(N, allow_virtual_sink=True)
        algorithm = PeakToSink(topology, destination=N, work_conserving=True)
        return topology, algorithm, _make_adversary("trickle", "pts", topology)

    def pts_fifo():
        topology = LineTopology(N, allow_virtual_sink=True)
        algorithm = PeakToSink(
            topology, destination=N, discipline=QueueDiscipline.FIFO
        )
        return topology, algorithm, _make_adversary("trickle", "pts", topology)

    def local_t1():
        topology = LineTopology(N)
        algorithm = LocalThresholdForwarding(
            topology, 3, destination=N - 1, threshold=1
        )
        return topology, algorithm, _make_adversary("trickle", "local", topology)

    def local_r0():
        topology = LineTopology(N)
        algorithm = LocalThresholdForwarding(topology, 0, destination=N - 1)
        return topology, algorithm, _make_adversary("trickle", "local", topology)

    for make in (pts_wc, pts_fifo, local_t1, local_r0):
        _assert_identical(make)


@pytest.mark.parametrize("policy", sorted(ALL_POLICIES, key=lambda p: p.name),
                         ids=lambda p: p.name)
def test_greedy_policies(policy):
    def make():
        topology = LineTopology(N, allow_virtual_sink=True)
        algorithm = GreedyForwarding(topology, policy)
        return topology, algorithm, _make_adversary("trickle", "greedy", topology)

    _assert_identical(make)


# -- PTS segment shift: bad buffers in every arrangement, deferred maxima ----------


SHIFT_N = 12
SHIFT_SIGMA = 6.0


def _shift_routes(last, w):
    """A (1, 6)-bounded burst: round 0 makes 1, 2 and ``last`` bad at once
    (two of them adjacent), then one packet a round, with a four-round pause
    that saves the tokens for a second burst of adjacent bad buffers."""
    routes = [(0, 1, w)] * 2 + [(0, 2, w)] * 2 + [(0, last, w)] * 2 + [(0, 5, w)]
    for t in range(1, 30):
        if 10 <= t < 14:
            continue
        if t == 14:
            routes += [(t, 3, w)] * 2 + [(t, 4, w)] * 2 + [(t, last, w)]
        else:
            routes.append((t, (3 * t) % (last + 1), w))
    return routes


def _pts_shift(work_conserving, discipline, destination):
    """PTS on ``SHIFT_N`` nodes against :func:`_shift_routes`; ``destination``
    is ``"interior"`` (``w < n - 1``) or ``"sink"`` (the virtual sink)."""

    def make():
        sink = destination == "sink"
        topology = LineTopology(SHIFT_N, allow_virtual_sink=sink)
        w = SHIFT_N if sink else SHIFT_N - 3
        last = min(w - 1, SHIFT_N - 1)
        algorithm = PeakToSink(
            topology, destination=w, work_conserving=work_conserving,
            discipline=discipline,
        )
        adversary = build_explicit_adversary(
            topology, rho=1.0, sigma=SHIFT_SIGMA, rounds=30,
            routes=_shift_routes(last, w),
        )
        return topology, algorithm, adversary

    return make


def test_shift_routes_are_bounded_and_reach_every_bad_arrangement():
    """The shift cases below rest on this: the pattern is a real (1, 6)
    adversary, and one measured round holds several bad buffers, two of
    them adjacent, and one at ``last``."""
    for destination in ("interior", "sink"):
        topology, algorithm, adversary = _pts_shift(
            False, QueueDiscipline.LIFO, destination
        )()
        assert check_bounded(adversary, topology, 1.0, SHIFT_SIGMA).bounded
        last = min(algorithm.destination - 1, SHIFT_N - 1)
        with packet_id_scope():
            result = Simulator(
                topology, algorithm, adversary,
                record_history=True, record_occupancy_vectors=True,
            ).run()
        bad_sets = [
            [v for v, load in record.occupancy.items() if load >= 2]
            for record in result.history
        ]
        assert any(
            len(bad) >= 3
            and last in bad
            and any(v + 1 in bad for v in bad)
            for bad in bad_sets
        )


@pytest.mark.parametrize("batch_rounds", (1, 7, 64))
@pytest.mark.parametrize("destination", ("interior", "sink"))
@pytest.mark.parametrize("discipline", tuple(QueueDiscipline), ids=lambda d: d.name)
@pytest.mark.parametrize("work_conserving", (True, False), ids=("wc", "plain"))
def test_pts_segment_shift(work_conserving, discipline, destination, batch_rounds):
    """Several, adjacent and last-node bad buffers in one round, under both
    PTS flavours and disciplines, straight and split, with full history."""
    make = _pts_shift(work_conserving, discipline, destination)
    for split in (False, True):
        result = _assert_identical(
            make, sim_kwargs=HISTORY_MODES["full"],
            batch_rounds=batch_rounds, split=split,
        )
    assert result.packets_delivered > 0


def _six_node_wc():
    """Work-conserving PTS on six nodes: round 0 makes node 0 bad, later
    rounds inject one packet each."""
    topology = LineTopology(6)
    adversary = build_explicit_adversary(
        topology, rho=1.0, sigma=2.0, rounds=3,
        routes=[(0, 0, 5), (0, 0, 5), (1, 2, 5), (2, 1, 5)],
    )
    return topology, PeakToSink(topology, work_conserving=True), adversary


def _maxima(simulator):
    timeline = simulator._timeline
    return timeline.max_occupancy, timeline.per_node_maxima()


@pytest.mark.parametrize("batch_rounds", (1, 64))
def test_six_node_line_measures_every_shifted_node(batch_rounds):
    """No packet is injected at nodes 3 and 4: their maxima come from
    shifted segments alone, including the one that ends at ``last``."""
    result = _assert_identical(
        _six_node_wc, sim_kwargs=HISTORY_MODES["full"], batch_rounds=batch_rounds
    )
    assert result.max_occupancy_per_node == {0: 2, 1: 2, 2: 1, 3: 1, 4: 1}


@pytest.mark.parametrize("batch_rounds", (1, 64))
def test_first_injection_left_of_every_measured_node(batch_rounds):
    """Nodes 3 and 4 hold packets first, which settles the shifted-segment
    fold; a later first packet at node 0 must restart it, or the maxima of
    nodes 1 and 2, which only that packet's shifts reach, stay 0."""

    def make():
        topology = LineTopology(6)
        adversary = build_explicit_adversary(
            topology, rho=1.0, sigma=2.0, rounds=8,
            routes=[(0, 3, 5), (1, 3, 5), (5, 0, 5)],
        )
        return topology, PeakToSink(topology, work_conserving=True), adversary

    result = _assert_identical(
        make, sim_kwargs=HISTORY_MODES["full"], batch_rounds=batch_rounds
    )
    assert result.max_occupancy_per_node == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}


@pytest.mark.parametrize("horizon", (1, 2, 3))
def test_last_round_loads_are_not_measured(horizon):
    """``run(h, drain=False)`` stops after round ``h - 1``'s forwarding, whose
    loads no engine measures: the batch kernel folds shifted segments at
    the next measurement, never at the shift."""
    with packet_id_scope():
        delta = Simulator(*_six_node_wc())
        expected = delta.run(horizon, drain=False)
    for batch_rounds in (1, 64):
        with packet_id_scope():
            batch = BatchSimulator(*_six_node_wc(), batch_rounds=batch_rounds)
            result = batch.run(horizon, drain=False)
        assert result == expected
        assert _maxima(batch) == _maxima(delta)
    if horizon == 1:
        assert _maxima(delta) == (2, {0: 2})


@pytest.mark.parametrize("horizon, cut", ((2, 1), (3, 1), (3, 2)))
def test_last_round_loads_are_not_measured_across_a_checkpoint(
    tmp_path, horizon, cut
):
    """The same at a checkpoint cut: the snapshot holds only measured loads
    (both engines write the same bytes), and the resumed run agrees."""
    engines = {"delta": Simulator, "batch": BatchSimulator}
    saved = {}
    tails = {}
    for name, engine in engines.items():
        path = tmp_path / f"{name}.ckpt"
        with packet_id_scope():
            head = engine(*_six_node_wc())
            head.run(cut, drain=False)
            head.save_checkpoint(str(path))
        saved[name] = path.read_bytes()
        checkpoint = load_checkpoint(str(path))
        with packet_id_scope():
            tail = engine(*_six_node_wc())
            restore_into(tail, checkpoint)
            result = tail.run(horizon, drain=False)
        tails[name] = (result, _maxima(tail))
    assert saved["batch"] == saved["delta"]
    assert tails["batch"] == tails["delta"]
    with packet_id_scope():
        straight = Simulator(*_six_node_wc())
        assert tails["delta"][0] == straight.run(horizon, drain=False)


def _pts_stream(work_conserving, discipline):
    """PTS against a streaming bounded adversary that saves up its budget
    (low intensity) for bursts that make bad buffers all through the run:
    every row goes through the checked injection path."""

    def make():
        topology = LineTopology(N)
        algorithm = PeakToSink(
            topology, work_conserving=work_conserving, discipline=discipline
        )
        adversary = random_line_adversary(
            topology, 1.0, 8.0, ROUNDS, seed=SEED, intensity=0.1, stream=True
        )
        return topology, algorithm, adversary

    return make


@pytest.mark.parametrize("batch_rounds", (1, 7, 64))
@pytest.mark.parametrize("discipline", tuple(QueueDiscipline), ids=lambda d: d.name)
@pytest.mark.parametrize("work_conserving", (True, False), ids=("wc", "plain"))
def test_pts_streaming_adversary(
    tmp_path, monkeypatch, work_conserving, discipline, batch_rounds
):
    """The window keeps PTS's bad buffers as a list; a round injected through
    the checked path must update it.  Straight, split and resumed from a
    checkpoint cut while a burst holds a bad buffer, under every history
    mode."""
    make = _pts_stream(work_conserving, discipline)
    opened_bad = []
    real_window = BatchSimulator._window

    def window(simulator, t0, t1, drain=None):
        opened_bad.append(simulator._num_bad > 0)
        return real_window(simulator, t0, t1, drain)

    monkeypatch.setattr(BatchSimulator, "_window", window)
    with packet_id_scope():
        probe = Simulator(*make(), record_history=True).run()
    cut = 1 + next(
        record.round
        for record in probe.history
        if record.round >= ROUNDS // 3 and record.max_occupancy_after_forwarding >= 2
    )
    for history, sim_kwargs in sorted(HISTORY_MODES.items()):
        for split in (False, True):
            _assert_identical(
                make, sim_kwargs=sim_kwargs, batch_rounds=batch_rounds,
                split=split,
            )
        path = str(tmp_path / f"{history}.ckpt")
        with packet_id_scope():
            head = BatchSimulator(*make(), batch_rounds=batch_rounds, **sim_kwargs)
            head.run(cut, drain=False)
            head.save_checkpoint(path)
        with packet_id_scope():
            tail = BatchSimulator(*make(), batch_rounds=batch_rounds, **sim_kwargs)
            restore_into(tail, load_checkpoint(path))
            resumed = tail.run()
        with packet_id_scope():
            straight = Simulator(*make(), **sim_kwargs)
            assert resumed == straight.run()
        assert _maxima(tail) == _maxima(straight)
    assert probe.max_occupancy >= 3
    assert any(opened_bad)


# -- error-path parity -------------------------------------------------------------


def _raises_identically(make, exc_type, run_kwargs=None):
    run_kwargs = dict(run_kwargs or {})
    with packet_id_scope():
        oracle = Simulator(*make())
        with pytest.raises(exc_type) as delta_error:
            oracle.run(**run_kwargs)
    with packet_id_scope():
        batch = BatchSimulator(*make())
        with pytest.raises(exc_type) as batch_error:
            batch.run(**run_kwargs)
    assert str(batch_error.value) == str(delta_error.value)
    assert batch.packets.keys() == oracle.packets.keys()


def test_invalid_route_raises_identical_error():
    def make():
        topology = LineTopology(N)
        adversary = build_explicit_adversary(
            topology, rho=1.0, sigma=2.0, rounds=10,
            routes=[(0, 0, N - 1), (3, 7, 3)],  # round-3 route goes backward
        )
        return topology, PeakToSink(topology), adversary

    _raises_identically(make, TopologyError)


def test_wrong_destination_raises_identical_error():
    def make():
        topology = LineTopology(N)
        adversary = build_explicit_adversary(
            topology, rho=1.0, sigma=2.0, rounds=10,
            routes=[(0, 0, N - 1), (2, 1, N - 1), (2, 4, 8)],  # 8 != w
        )
        return topology, PeakToSink(topology), adversary

    _raises_identically(make, SchedulingError)


# -- the pseudo-buffer kind: HPTS shapes, PPTS destination sets, staging -----------


def _hpts_variant(n, levels, variant):
    def make():
        topology = LineTopology(n, allow_virtual_sink=True)
        options = {
            "default": {},
            "branching": {"branching": round(n ** (1 / levels))},
            "ascending": {"level_schedule": "ascending"},
            "fifo": {"discipline": QueueDiscipline.FIFO},
        }[variant]
        algorithm = HierarchicalPeakToSink(topology, levels=levels, **options)
        adversary = trickle_adversary(
            topology, 0.9, 3.0, 10 * n,
            destinations=[n // 3, (2 * n) // 3, n - 1, n], seed=SEED,
        )
        return topology, algorithm, adversary

    return make


@pytest.mark.parametrize("variant", ("default", "branching", "ascending", "fifo"))
@pytest.mark.parametrize("n, levels", ((8, 1), (16, 2), (27, 3)))
def test_hpts_levels_and_variants(n, levels, variant):
    make = _hpts_variant(n, levels, variant)
    for history in ("summary", "full"):
        result = _assert_identical(make, sim_kwargs=HISTORY_MODES[history])
    assert result.packets_delivered > 0
    assert result.max_staged > 0


def test_ppts_declared_destinations_strand_undeclared_packet():
    """Declared W = {5, 10}: the bad stack for undeclared 12 is never
    selected, so its packets stay at their source while the declared ones
    move, and the drain ends on the quiescence window."""

    def make():
        topology = LineTopology(N)
        algorithm = ParallelPeakToSink(topology, destinations=[5, 10])
        adversary = build_explicit_adversary(
            topology, rho=1.0, sigma=4.0, rounds=12,
            routes=[(0, 4, 5), (0, 8, 10), (1, 2, 12), (1, 2, 12)]
            + [(t, 4, 5) for t in range(6)]
            + [(t, 8, 10) for t in range(2, 9)],
        )
        return topology, algorithm, adversary

    for history in ("summary", "full", "streaming"):
        result = _assert_identical(make, sim_kwargs=HISTORY_MODES[history])
    assert not result.drained
    assert result.packets_delivered > 0
    oracle_sim, _ = _run_delta(make, {}, {})
    stranded = [
        packet for packet in oracle_sim.packets.values()
        if packet.destination == 12
    ]
    assert [packet.location for packet in stranded] == [2, 2]


def _hpts_staged_tail(rounds):
    """HPTS (ell=2): packets injected in round ``r`` wait staged until the
    first even round after ``r``; the last three, injected in the final
    (even) round, are still staged two drain rounds later."""

    def make():
        topology = LineTopology(N)
        algorithm = HierarchicalPeakToSink(topology, levels=2)
        adversary = build_explicit_adversary(
            topology, rho=1.0, sigma=3.0, rounds=rounds,
            routes=[(1, 0, 15), (1, 1, 15), (1, 2, 9), (3, 4, 15),
                    (rounds - 1, 3, 12), (rounds - 1, 6, 13),
                    (rounds - 1, 9, 14)],
        )
        return topology, algorithm, adversary

    return make


@pytest.mark.parametrize("history", DRAIN_HISTORY_MODES)
def test_hpts_drain_ends_on_quiescence_window_with_staged_packets(history):
    """The drain starts with three packets staged; the second drain round
    accepts them (the staged count's change resets the quiet count), they
    and the earlier packets sit stranded below the bad threshold, and the
    drain stops on the quiescence window."""
    make = _hpts_staged_tail(11)
    with packet_id_scope():
        probe = Simulator(*make())
        probe.run(11, drain=False)
        assert probe.algorithm.staged_count() == 3
    result = _assert_identical(make, sim_kwargs=HISTORY_MODES[history])
    assert not result.drained
    assert result.packets_undelivered == 7
    assert result.rounds_executed == 11 + 2 + quiescence_window(N)


@pytest.mark.parametrize("run", ("straight", "split"))
@pytest.mark.parametrize("history", sorted(HISTORY_MODES))
def test_hpts_drain_cap_hit_mid_phase(history, run):
    """max_drain_rounds=1 stops an odd-round drain before the phase
    boundary: the packets stay staged, unaccepted, in both engines."""
    result = _assert_identical(
        _hpts_staged_tail(11),
        sim_kwargs=HISTORY_MODES[history],
        run_kwargs={"max_drain_rounds": 1},
        split=run == "split",
    )
    assert not result.drained
    assert result.rounds_executed == 12
    assert result.max_staged >= 3


@pytest.mark.parametrize("algorithm", ("ppts", "hpts"))
def test_pseudo_kind_lazy_adversary(algorithm):
    """A streaming adversary bypasses the pattern fast path: packets are
    built per round through the checked path, HPTS's staged ones included."""

    def make():
        topology = _make_topology(algorithm)
        adversary = trickle_adversary(
            topology, 0.9, 2.0, ROUNDS,
            destinations=_destinations(algorithm, topology), seed=SEED,
            stream=True,
        )
        return topology, _make_algorithm(algorithm, topology), adversary

    for history in sorted(HISTORY_MODES):
        for split in (False, True):
            _assert_identical(make, sim_kwargs=HISTORY_MODES[history],
                              split=split)


@pytest.mark.parametrize("algorithm", ("ppts", "hpts"))
def test_pseudo_kind_invalid_route_raises_identical_error(algorithm):
    def make():
        topology = LineTopology(N)
        adversary = build_explicit_adversary(
            topology, rho=1.0, sigma=2.0, rounds=10,
            routes=[(0, 0, N - 1), (1, 2, 9), (3, 4, 12), (3, 7, 3)],
        )
        return topology, _make_algorithm(algorithm, topology), adversary

    _raises_identically(make, TopologyError)


def test_pseudo_kind_window_size_does_not_change_results():
    make = _hpts_variant(16, 2, "default")
    baseline = _run_batch(make, {}, {}, batch_rounds=64)[1]
    for batch_rounds in (1, 2, 3, 1024):
        assert _run_batch(make, {}, {}, batch_rounds=batch_rounds)[1] == baseline


# -- pseudo-buffer segment shift: PPTS and HPTS stacks shifted by key ---------------


PSEUDO_N = 16
PSEUDO_ROUNDS = 40


def _dense_routes(seed, destinations):
    """Seeded random routes on ``PSEUDO_N`` nodes with the virtual sink: six
    packets every ninth round, one in the others, each for one of
    ``destinations`` (``None``: any node right of its source).  Enough
    traffic that a round holds several bad stacks of one key, adjacent
    ones, one at the end of its range, and empty stacks between occupied
    ones."""
    rng = random.Random(seed)
    routes = []
    for t in range(PSEUDO_ROUNDS):
        for _ in range(6 if t % 9 == 0 else 1):
            if destinations is None:
                source = rng.randrange(PSEUDO_N)
                destination = rng.randrange(source + 1, PSEUDO_N + 1)
            else:
                destination = rng.choice(destinations)
                source = rng.randrange(destination)
            routes.append((t, source, destination))
    return routes


def _pseudo_shift(algorithm, discipline):
    """PPTS (three destinations, the sink among them) or HPTS (two levels of
    four, any destination) against :func:`_dense_routes`."""

    def make():
        topology = LineTopology(PSEUDO_N, allow_virtual_sink=True)
        if algorithm == "hpts":
            algo = HierarchicalPeakToSink(topology, levels=2, discipline=discipline)
        else:
            algo = ParallelPeakToSink(topology, discipline=discipline)
        adversary = build_explicit_adversary(
            topology, rho=1.0, sigma=8.0, rounds=PSEUDO_ROUNDS,
            routes=_dense_routes(
                SEED, None if algorithm == "hpts" else (6, 11, PSEUDO_N)
            ),
        )
        return topology, algo, adversary

    return make


def _pseudo_arrangements(make):
    """What the object engine's activations meet, round by round: the
    stacks of each activated key from its first activated node to its last
    (PPTS activates only nonempty stacks, HPTS the whole range), read
    before the round moves."""
    topology, algorithm, adversary = make()
    seen = set()
    select = algorithm.select_activations

    def observed(round_number):
        activations = select(round_number)
        by_key = {}
        for activation in activations:
            by_key.setdefault(activation.key, []).append(activation.node)
        level = (
            algorithm._level_for_round(round_number)
            if isinstance(algorithm, HierarchicalPeakToSink)
            else 0
        )
        for key, nodes in by_key.items():
            w = key[1] if isinstance(key, tuple) else key
            if isinstance(key, tuple) and key[0] < level:
                seen.add("cascade")
            span = range(min(nodes), min(max(nodes), w - 1) + 1)
            loads = {v: algorithm.buffers[v].load_of(key) for v in span}
            bad = [v for v in span if loads[v] >= 2]
            single = [loads[v] for v in span if loads[v] < 2]
            if len(bad) >= 2:
                seen.add("several bad")
            if any(v + 1 in bad for v in bad):
                seen.add("adjacent bad")
            if w - 1 in bad:
                seen.add("bad at range end")
            if 0 in single and 1 in single:
                seen.add("empty between occupied")
            if w - 1 in span and loads[w - 1]:
                top = algorithm.buffers[w - 1].existing(key).peek()
                seen.add("delivery" if top.destination == w else "re-key")
        return activations

    algorithm.select_activations = observed
    with packet_id_scope():
        Simulator(topology, algorithm, adversary).run()
    return seen


SHIFT_ARRANGEMENTS = {
    "several bad", "adjacent bad", "bad at range end", "empty between occupied",
    "delivery",
}


@pytest.mark.parametrize("discipline", tuple(QueueDiscipline), ids=lambda d: d.name)
@pytest.mark.parametrize("algorithm", ("ppts", "hpts"))
def test_pseudo_shift_routes_reach_every_arrangement(algorithm, discipline):
    """The shift cases below rest on this: HPTS also re-keys at an interval
    end and cascades."""
    expected = SHIFT_ARRANGEMENTS | (
        {"re-key", "cascade"} if algorithm == "hpts" else set()
    )
    assert expected <= _pseudo_arrangements(_pseudo_shift(algorithm, discipline))


@pytest.mark.parametrize("batch_rounds", (1, 7, 64))
@pytest.mark.parametrize("discipline", tuple(QueueDiscipline), ids=lambda d: d.name)
@pytest.mark.parametrize("algorithm", ("ppts", "hpts"))
def test_pseudo_segment_shift(algorithm, discipline, batch_rounds):
    """Every arrangement above, straight and split, with full history."""
    make = _pseudo_shift(algorithm, discipline)
    for split in (False, True):
        result = _assert_identical(
            make, sim_kwargs=HISTORY_MODES["full"],
            batch_rounds=batch_rounds, split=split,
        )
    assert result.packets_delivered > 0


@pytest.mark.parametrize("algorithm", ("ppts", "hpts"))
def test_pseudo_last_round_loads_are_not_measured(algorithm):
    """``run(h, drain=False)`` for every horizon: the loads a shift leaves
    are folded at the next measurement, which the last round never has."""
    make = _pseudo_shift(algorithm, QueueDiscipline.LIFO)
    for horizon in range(1, PSEUDO_ROUNDS + 1):
        with packet_id_scope():
            delta = Simulator(*make())
            expected = delta.run(horizon, drain=False)
        with packet_id_scope():
            batch = BatchSimulator(*make(), batch_rounds=7)
            result = batch.run(horizon, drain=False)
        assert result == expected
        assert _maxima(batch) == _maxima(delta)


ENGINES = {"delta": Simulator, "batch": BatchSimulator}


@pytest.mark.parametrize(
    "pairing", [(a, b) for a in ENGINES for b in ENGINES], ids="-".join
)
@pytest.mark.parametrize("algorithm", ("ppts", "hpts"))
def test_pseudo_checkpoint_cuts(tmp_path, algorithm, pairing):
    """Cut with ``run(cut, drain=False)`` (odd cuts are mid-phase for HPTS),
    resume under either engine with ``run(h, drain=False)``: the straight
    run's result and maxima."""
    make = _pseudo_shift(algorithm, QueueDiscipline.FIFO)
    horizon = 30
    with packet_id_scope():
        straight = Simulator(*make())
        expected = (straight.run(horizon, drain=False), _maxima(straight))
    first, second = (ENGINES[name] for name in pairing)
    options = {BatchSimulator: {"batch_rounds": 7}, Simulator: {}}
    for cut in (7, 13, 20):
        path = str(tmp_path / f"{cut}.ckpt")
        with packet_id_scope():
            head = first(*make(), **options[first])
            head.run(cut, drain=False)
            head.save_checkpoint(path)
        with packet_id_scope():
            tail = second(*make(), **options[second])
            restore_into(tail, load_checkpoint(path))
            result = tail.run(horizon, drain=False)
        assert (result, _maxima(tail)) == expected


# -- the quiet drain tail: counted, not run -------------------------------------------


QUIET_HISTORY_MODES = {
    **HISTORY_MODES,
    "full-no-vectors": {"record_history": True},
}


def _hpts3_late_move():
    """HPTS with three levels of three: two packets for node 2 enter at node
    0 in round 0 and are accepted in round 3.  Run to ``h = 4``, the drain
    starts at round 4, which serves level 1 and moves nothing; round 5
    serves level 0 and moves one of them, after which nothing is bad."""

    def make():
        topology = LineTopology(27)
        algorithm = HierarchicalPeakToSink(topology, levels=3)
        adversary = build_explicit_adversary(
            topology, rho=1.0, sigma=2.0, rounds=4, routes=[(0, 0, 2)] * 2
        )
        return topology, algorithm, adversary

    return make


@pytest.mark.parametrize("history", sorted(QUIET_HISTORY_MODES))
def test_quiet_tail_waits_for_every_level(history):
    """A quiet round at one level, then a moving one at another: the tail
    starts only after ``ell`` quiet rounds."""
    make = _hpts3_late_move()
    with packet_id_scope():
        oracle = Simulator(*make(), record_history=True).run(4)
    assert [record.forwarded for record in oracle.history[4:7]] == [0, 1, 0]
    result = _assert_identical(
        make, sim_kwargs=QUIET_HISTORY_MODES[history], run_kwargs={"num_rounds": 4}
    )
    assert result.rounds_executed == 6 + quiescence_window(27)
    assert result.packets_undelivered == 2


@pytest.mark.parametrize("history", sorted(QUIET_HISTORY_MODES))
def test_quiet_tail_stops_at_a_cap_inside_it(history):
    """The tail starts after drain round 8 (rounds 6-8 are quiet); a cap
    of ten drain rounds ends it five rounds later."""
    result = _assert_identical(
        _hpts3_late_move(),
        sim_kwargs=QUIET_HISTORY_MODES[history],
        run_kwargs={"num_rounds": 4, "max_drain_rounds": 10},
    )
    assert not result.drained
    assert result.rounds_executed == 4 + 10


def _stranded(algorithm):
    """PTS or local with three packets stranded below the threshold."""

    def make():
        topology = _make_topology(algorithm)
        w = _destinations(algorithm, topology)[0]
        adversary = build_explicit_adversary(
            topology, rho=1.0, sigma=2.0, rounds=4,
            routes=[(0, 2, w), (0, 5, w), (1, 9, w)],
        )
        return topology, _make_algorithm(algorithm, topology), adversary

    return make


@pytest.mark.parametrize("cap", (None, 1, 2, 7))
@pytest.mark.parametrize("history", sorted(QUIET_HISTORY_MODES))
@pytest.mark.parametrize("algorithm", ("pts", "local"))
def test_fused_quiet_tail(algorithm, history, cap):
    """The fused family's tail starts after one quiet round and ends on the
    window or on a cap inside it."""
    make = _stranded(algorithm)
    result = _assert_identical(
        make,
        sim_kwargs=QUIET_HISTORY_MODES[history],
        run_kwargs={"max_drain_rounds": cap},
    )
    drained_for = quiescence_window(N) if cap is None else cap
    assert result.rounds_executed == make()[2].horizon + drained_for
    assert result.packets_undelivered == 3
    if history.startswith("full"):
        assert len(result.history) == result.rounds_executed


@pytest.mark.parametrize(
    "make, horizon, n, first, ell",
    (
        # The pattern ends after round 1 and drain round 2 is quiet: the
        # tail starts at round 3.
        (_stranded("pts"), None, N, 3, 1),
        (_stranded("local"), None, N, 3, 1),
        # Round 5 moves, rounds 6-8 are quiet: the tail starts at round 9.
        (_hpts3_late_move(), 4, 27, 9, 3),
    ),
    ids=("pts", "local", "hpts3"),
)
def test_drain_window_returns_after_ell_quiet_rounds(
    monkeypatch, make, horizon, n, first, ell
):
    """The drain's window call runs only until ``ell`` quiet rounds; the
    rest of the quiescence window is counted, not run."""
    tails = []
    real_quiet_rounds = BatchSimulator._quiet_rounds

    def quiet_rounds(simulator, start, count):
        tails.append((start, count))
        return real_quiet_rounds(simulator, start, count)

    monkeypatch.setattr(BatchSimulator, "_quiet_rounds", quiet_rounds)
    _assert_identical(make, run_kwargs={"num_rounds": horizon})
    assert tails == [(first, quiescence_window(n) - ell)]


# -- refusal surface ---------------------------------------------------------------


def test_unbatchable_scenarios_refused_before_side_effects():
    """An adaptive adversary is refused at construction, before the kernel
    or the base simulator touches anything."""
    topology = LineTopology(N)
    adversary = HotspotAdversary(topology, 0.5, 2.0, 20, [N - 1], seed=SEED)
    with pytest.raises(UnbatchableScenarioError, match="adaptive"):
        BatchSimulator(topology, PeakToSink(topology), adversary)
    assert adversary.cursor() == HotspotAdversary(
        topology, 0.5, 2.0, 20, [N - 1], seed=SEED
    ).cursor()


@pytest.mark.parametrize("switch", ("activate_pre_bad", "batch_acceptance"))
def test_hpts_ablations_refused(switch):
    topology = LineTopology(N)
    algorithm = HierarchicalPeakToSink(topology, levels=2, **{switch: False})
    adversary = _make_adversary("trickle", "hpts", LineTopology(N))
    with pytest.raises(UnbatchableScenarioError, match=switch):
        BatchSimulator(topology, algorithm, adversary)
