"""Differential resume-equivalence suite for :mod:`repro.checkpoint`.

The headline claim of the checkpoint subsystem is test-shaped: for every
algorithm x adversary x history-mode combination,

    ``run(T)``  ==  ``run to k; checkpoint; restore; run to T``

bit for bit, where equality is on the full :class:`SimulationResult`
(including per-round records under ``history="full"``).  The grid below
covers the six algorithm families {PTS, PPTS, HPTS, tree, local, greedy}
against bounded / trickle / stress / adaptive traffic under all three
history policies, plus the round-0 and final-round checkpoint edge cases.

Also here: the checkpoint-format fuzz/negative tests (truncation, version
mismatch, spec mismatch, a header missing a field the restore reads, a
buffer directory listing one packet twice — each a typed error, exercised
through the CLI with non-zero exit codes), the
:class:`StreamingAdversary` packet-id alignment regression around empty
rounds, and a file written before the layout was canonical, which must
still load and resume on both engines.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path

import pytest

from repro.adversary.generators import (
    build_explicit_adversary,
    bursty_adversary,
    trickle_adversary,
)
from repro.api import Scenario, ScenarioSpec, Session
from repro.checkpoint import (
    FORMAT_VERSION,
    _encode,
    load_checkpoint,
    restore_into,
    resume_spec_hash,
    save_checkpoint,
)
from repro.cli import main as cli_main
from repro.core.packet import current_allocator, packet_id_scope
from repro.core.pts import PeakToSink
from repro.network.batch import BatchSimulator
from repro.network.errors import (
    CheckpointError,
    CheckpointFormatError,
    CheckpointSpecMismatchError,
    CheckpointVersionError,
    SpentAlgorithmError,
)
from repro.network.simulator import Simulator
from repro.network.topology import LineTopology

N = 16
ROUNDS = 36
MID = 17  # deliberately not a divisor of ROUNDS: a mid-run round boundary

# -- the scenario grid ----------------------------------------------------------

#: (adversary name, rho, sigma, extra params) menus per destination pattern.
SINGLE_DEST_ADVERSARIES = [
    ("single", 1.0, 2.0, {}),              # bounded family, one destination
    ("trickle", 0.7, 1.0, {}),             # O(1)/round streaming workhorse
    ("burst", 1.0, 2.0, {}),               # deterministic stress pattern
    ("hotspot", 0.9, 2.0, {}),             # adaptive, configuration-aware
]
MULTI_DEST_ADVERSARIES = [
    ("bounded", 0.8, 3.0, {"num_destinations": 3}),
    ("trickle", 0.7, 1.0, {"destinations": [5, 11, 15]}),
    ("burst", 1.0, 2.0, {}),
    ("hotspot", 0.9, 2.0, {"destinations": [7, 15]}),
]
HPTS_ADVERSARIES = [  # Theorem 4.1 wants rho * ell <= 1 with ell = 2
    ("bounded", 0.5, 2.0, {"num_destinations": 3}),
    ("trickle", 0.5, 1.0, {}),
    ("burst", 0.5, 2.0, {}),
    ("hotspot", 0.5, 2.0, {"destinations": [7, 15]}),
]

LINE_ALGORITHMS = [
    ("pts", {}, SINGLE_DEST_ADVERSARIES),
    ("local", {"locality": 2}, SINGLE_DEST_ADVERSARIES),
    ("ppts", {}, MULTI_DEST_ADVERSARIES),
    ("greedy", {}, MULTI_DEST_ADVERSARIES),
    ("hpts", {"levels": 2}, HPTS_ADVERSARIES),
]
TREE_ADVERSARIES = [
    ("bounded", 0.8, 3.0, {}),
    ("convergecast", 1.0, 2.0, {}),
]
HISTORIES = ("summary", "streaming", "full")

#: Adversary builders that can produce the lazy StreamingAdversary front end.
STREAMABLE = {"bounded", "single", "trickle"}


def _grid():
    cases = []
    for algorithm, algo_params, adversaries in LINE_ALGORITHMS:
        for adversary, rho, sigma, params in adversaries:
            for history in HISTORIES:
                cases.append(
                    ("line", algorithm, algo_params, adversary, rho, sigma,
                     params, history)
                )
    for adversary, rho, sigma, params in TREE_ADVERSARIES:
        for history in HISTORIES:
            cases.append(
                ("tree", "tree-ppts", {}, adversary, rho, sigma, params, history)
            )
    return cases


def _case_id(case) -> str:
    kind, algorithm, _, adversary, _, _, _, history = case
    return f"{kind}-{algorithm}-{adversary}-{history}"


def build_spec(kind, algorithm, algo_params, adversary, rho, sigma,
               adv_params, history) -> ScenarioSpec:
    if kind == "tree":
        scenario = Scenario.tree("binary", depth=3)
    else:
        scenario = Scenario.line(N)
    adv_params = dict(adv_params)
    if history == "streaming" and adversary in STREAMABLE:
        # Exercise the lazy front end exactly where the memory-lean runs do.
        adv_params["stream"] = True
    scenario.algorithm(algorithm, **algo_params)
    scenario.adversary(adversary, rho=rho, sigma=sigma, rounds=ROUNDS, **adv_params)
    scenario.policy(history=history, seed=23, engine="delta")
    return scenario.build()


def checkpoint_at(spec: ScenarioSpec, k: int, path: str) -> None:
    """Run ``spec`` to round ``k`` only, then snapshot it to ``path``.

    ``k`` is clamped to the adversary's horizon: an eager pattern trims
    trailing empty rounds, and running past its horizon would execute rounds
    the uninterrupted ``Session.run`` never does.
    """
    session = Session()
    policy = spec.policy
    with packet_id_scope():
        prepared = session.prepare(spec)
        simulator = Simulator(
            prepared.topology, prepared.algorithm, prepared.adversary,
            record_history=policy.record_history,
            record_occupancy_vectors=policy.record_occupancy_vectors,
            history=policy.history,
            validate_capacity=policy.validate_capacity,
        )
        simulator.run(min(k, prepared.adversary.horizon), drain=False)
        simulator.save_checkpoint(path, spec=spec)


def assert_resume_equivalent(spec: ScenarioSpec, k: int, tmp_path) -> None:
    path = str(tmp_path / "run.ckpt")
    full = Session().run(spec)
    checkpoint_at(spec, k, path)
    resumed = Session().resume(path)
    assert resumed.result == full.result
    assert resumed.bound == full.bound
    assert resumed.within_bound == full.within_bound


class TestDifferentialGrid:
    @pytest.mark.parametrize("case", _grid(), ids=_case_id)
    def test_save_restore_matches_uninterrupted(self, case, tmp_path):
        spec = build_spec(*case)
        assert_resume_equivalent(spec, MID, tmp_path)

    @pytest.mark.parametrize("k", [0, 1, ROUNDS - 1, ROUNDS], ids=lambda k: f"k{k}")
    @pytest.mark.parametrize(
        "case",
        [
            ("line", "ppts", {}, "bounded", 0.8, 3.0, {"num_destinations": 3},
             "summary"),
            ("line", "hpts", {"levels": 2}, "trickle", 0.5, 1.0, {}, "streaming"),
            ("line", "pts", {}, "hotspot", 0.9, 2.0, {}, "full"),
        ],
        ids=_case_id,
    )
    def test_round_boundary_edges(self, case, k, tmp_path):
        # k=0: nothing has happened yet (allocator and cursors at origin);
        # k=ROUNDS-1 / k=ROUNDS: the snapshot brackets the final injection.
        spec = build_spec(*case)
        assert_resume_equivalent(spec, k, tmp_path)

    def test_occupancy_vector_history_round_trips(self, tmp_path):
        spec = (
            Scenario.line(N)
            .algorithm("ppts")
            .adversary("bounded", rho=0.8, sigma=3.0, rounds=ROUNDS,
                       num_destinations=3)
            .policy(record_history=True, record_occupancy_vectors=True, seed=23,
                    engine="delta")
            .build()
        )
        assert_resume_equivalent(spec, MID, tmp_path)

    def test_periodic_checkpoints_through_run_policy(self, tmp_path):
        path = str(tmp_path / "periodic.ckpt")
        spec = (
            Scenario.line(N)
            .algorithm("ppts")
            .adversary("bounded", rho=0.8, sigma=3.0, rounds=ROUNDS,
                       num_destinations=3)
            .policy(seed=23, engine="delta")
            .build()
        )
        full = Session().run(spec)
        with_ckpt = (
            Scenario.from_spec(spec)
            .policy(checkpoint_every=10, checkpoint_path=path)
            .build()
        )
        observed = Session().run(with_ckpt)
        # Saving snapshots is observation-only.
        assert observed.result == full.result
        # The surviving file is the last multiple of 10 (round 30).
        checkpoint = load_checkpoint(path)
        assert checkpoint.round == 30
        resumed = Session().resume(path)
        assert resumed.result == full.result

    def test_resume_accepts_spec_modulo_checkpoint_policy(self, tmp_path):
        path = str(tmp_path / "mod.ckpt")
        spec = build_spec("line", "ppts", {}, "bounded", 0.8, 3.0,
                          {"num_destinations": 3}, "summary")
        with_ckpt = (
            Scenario.from_spec(spec)
            .policy(checkpoint_every=MID, checkpoint_path=path)
            .build()
        )
        full = Session().run(with_ckpt)
        # The plain spec (no checkpoint fields) names the same execution.
        assert resume_spec_hash(spec) == resume_spec_hash(with_ckpt)
        resumed = Session().resume(path, spec=spec)
        assert resumed.result == full.result


# -- streaming packet-id alignment (regression) ----------------------------------


class TestStreamingIdAlignment:
    def _eager_ids(self, horizon):
        topology = LineTopology(N)
        adversary = bursty_adversary(
            topology, 1.0, 2.0, horizon, 2, burst_period=16, seed=5
        )
        return [
            [p.packet_id for p in adversary.injections_for_round(t)]
            for t in range(horizon)
        ]

    @pytest.mark.parametrize("stop", [3, 15, 16, 31], ids=lambda s: f"stop{s}")
    def test_resumed_stream_ids_match_eager_pattern(self, stop):
        """Resuming mid-stream (including mid-silence and just after a burst)
        must keep allocating exactly the ids the eager pattern holds.

        Bursty traffic injects only in rounds 15, 31, ...; every other round
        is empty, so a cursor taken there must not cause any earlier round to
        be replayed (re-spending ids) nor any pending row to be skipped.
        """
        horizon = 48
        with packet_id_scope():
            eager_ids = self._eager_ids(horizon)
        with packet_id_scope():
            topology = LineTopology(N)
            stream = bursty_adversary(
                topology, 1.0, 2.0, horizon, 2, burst_period=16, seed=5,
                stream=True,
            )
            consumed = [
                [p.packet_id for p in stream.injections_for_round(t)]
                for t in range(stop)
            ]
            assert consumed == eager_ids[:stop]
            cursor = stream.cursor()
            next_id = current_allocator().next_value
        with packet_id_scope() as allocator:
            fresh = bursty_adversary(
                LineTopology(N), 1.0, 2.0, horizon, 2, burst_period=16, seed=5,
                stream=True,
            )
            fresh.resume(cursor)
            allocator.reset(next_id)
            resumed_ids = [
                [p.packet_id for p in fresh.injections_for_round(t)]
                for t in range(stop, horizon)
            ]
        assert resumed_ids == eager_ids[stop:]

    def test_resume_requires_fresh_stream(self):
        topology = LineTopology(N)
        stream = trickle_adversary(topology, 0.7, 1.0, 20, seed=3, stream=True)
        stream.injections_for_round(0)
        cursor = stream.cursor()
        with pytest.raises(CheckpointError):
            stream.resume(cursor)  # already consumed

    def test_cursor_on_unstarted_stream_restarts_cleanly(self):
        with packet_id_scope():
            topology = LineTopology(N)
            stream = trickle_adversary(topology, 0.7, 1.0, 20, seed=3, stream=True)
            cursor = stream.cursor()
            assert cursor == {"next_round": 0, "rows": None}
            fresh = trickle_adversary(topology, 0.7, 1.0, 20, seed=3, stream=True)
            fresh.resume(cursor)
            assert fresh.rounds_generated == 0
            assert [p.packet_id for p in fresh.injections_for_round(1)] == [0]


# -- format fuzz / negative tests -------------------------------------------------


def _make_checkpoint(tmp_path) -> str:
    path = str(tmp_path / "victim.ckpt")
    spec = build_spec("line", "ppts", {}, "bounded", 0.8, 3.0,
                      {"num_destinations": 3}, "summary")
    checkpoint_at(spec, MID, path)
    return path


def _header_and_sections(checkpoint):
    """The header (less what ``_encode`` adds) and sections of a loaded
    checkpoint, to edit and write back with ``_encode``."""
    header = {
        key: value for key, value in checkpoint.header.items()
        if key not in ("version", "sections")
    }
    sections = [
        (entry["name"], checkpoint.sections[entry["name"]])
        for entry in checkpoint.header["sections"]
    ]
    return header, sections


class TestFormatNegative:
    def test_truncated_file_raises_typed_error(self, tmp_path):
        path = _make_checkpoint(tmp_path)
        data = open(path, "rb").read()
        for cut in (0, 5, len(data) // 2, len(data) - 3):
            (tmp_path / "cut.ckpt").write_bytes(data[:cut])
            with pytest.raises(CheckpointFormatError):
                load_checkpoint(str(tmp_path / "cut.ckpt"))

    def test_bad_magic_raises_format_error(self, tmp_path):
        path = _make_checkpoint(tmp_path)
        data = bytearray(open(path, "rb").read())
        data[:4] = b"NOPE"
        (tmp_path / "magic.ckpt").write_bytes(bytes(data))
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(str(tmp_path / "magic.ckpt"))

    def test_flipped_payload_byte_fails_crc(self, tmp_path):
        path = _make_checkpoint(tmp_path)
        data = bytearray(open(path, "rb").read())
        data[-20] ^= 0xFF  # somewhere inside the payload columns
        (tmp_path / "flip.ckpt").write_bytes(bytes(data))
        with pytest.raises(CheckpointFormatError, match="CRC"):
            load_checkpoint(str(tmp_path / "flip.ckpt"))

    def test_version_mismatch_raises_version_error(self, tmp_path):
        import struct

        path = _make_checkpoint(tmp_path)
        data = bytearray(open(path, "rb").read())
        # The u32 version sits directly after the 9-byte magic.
        struct.pack_into("<I", data, 9, FORMAT_VERSION + 1)
        (tmp_path / "ver.ckpt").write_bytes(bytes(data))
        with pytest.raises(CheckpointVersionError) as excinfo:
            load_checkpoint(str(tmp_path / "ver.ckpt"))
        assert excinfo.value.found == FORMAT_VERSION + 1
        assert excinfo.value.supported == FORMAT_VERSION

    def test_resume_under_different_spec_is_refused(self, tmp_path):
        path = _make_checkpoint(tmp_path)
        other = build_spec("line", "ppts", {}, "bounded", 0.8, 3.0,
                          {"num_destinations": 4}, "summary")
        with pytest.raises(CheckpointSpecMismatchError):
            Session().resume(path, spec=other)

    @pytest.mark.parametrize("block, field", [
        ("algorithm", "name"),
        ("algorithm", "state"),
        ("timeline", "max_occupancy"),
        ("timeline", "max_staged"),
        ("adversary", "kind"),
        ("adversary", "cursor"),
    ])
    def test_missing_header_field_raises_format_error(self, tmp_path, block,
                                                      field):
        """A CRC-valid file whose header lacks a field ``restore_into``
        reads is refused at load, naming the field."""
        checkpoint = load_checkpoint(_make_checkpoint(tmp_path))
        header, sections = _header_and_sections(checkpoint)
        header[block] = dict(header[block])
        del header[block][field]
        (tmp_path / "field.ckpt").write_bytes(_encode(header, sections))
        with pytest.raises(CheckpointFormatError, match=f"{block}.*{field!r}"):
            load_checkpoint(str(tmp_path / "field.ckpt"))

    def test_packet_listed_twice_in_buffers_raises_format_error(self, tmp_path):
        """A CRC-valid file whose buffer directory lists one packet id at
        two places is refused at restore, naming the packet."""
        checkpoint = load_checkpoint(_make_checkpoint(tmp_path))
        header, sections = _header_and_sections(checkpoint)
        ids = array("q", checkpoint.section("buffers/packet_ids"))
        assert len(set(ids)) == len(ids) >= 2
        twice = ids[-1] = ids[0]
        sections = [
            (name, ids if name == "buffers/packet_ids" else column)
            for name, column in sections
        ]
        path = tmp_path / "twice.ckpt"
        path.write_bytes(_encode(header, sections))
        with pytest.raises(CheckpointFormatError,
                           match=f"packet {twice} more than once"):
            Session().resume(str(path))

    def test_restore_under_wrong_ingredients_is_refused(self, tmp_path):
        path = _make_checkpoint(tmp_path)
        checkpoint = load_checkpoint(path)
        from repro.core.ppts import ParallelPeakToSink
        from repro.checkpoint import restore_simulator

        wrong_size = LineTopology(N + 1)
        with pytest.raises(CheckpointSpecMismatchError):
            restore_simulator(
                checkpoint, wrong_size, ParallelPeakToSink(wrong_size), None
            )


# -- CLI integration ---------------------------------------------------------------


CLI_SCENARIO = [
    "simulate", "--algorithm", "pts", "--rho", "1.0", "--sigma", "2",
    "--rounds", "60", "--seed", "3",
]


class TestCheckpointCli:
    def test_checkpoint_resume_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "cli.ckpt")
        assert cli_main(CLI_SCENARIO + ["--json"]) == 0
        baseline = json.loads(capsys.readouterr().out)
        assert cli_main(
            CLI_SCENARIO
            + ["--checkpoint-every", "25", "--checkpoint", path, "--json"]
        ) == 0
        checkpointed = json.loads(capsys.readouterr().out)
        assert checkpointed == baseline
        assert cli_main(["simulate", "--resume", path, "--json"]) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert resumed == baseline

    def test_resume_keeps_checkpointing_when_asked(self, tmp_path, capsys):
        """--checkpoint-every on the resumed leg must produce fresh snapshots
        even when the original run never checkpointed through its policy."""
        first = str(tmp_path / "first.ckpt")
        second = str(tmp_path / "second.ckpt")
        spec = build_spec("line", "pts", {}, "single", 1.0, 2.0, {}, "summary")
        checkpoint_at(spec, 10, first)  # engine-level save: plain policy
        assert cli_main(
            ["simulate", "--resume", first,
             "--checkpoint-every", "20", "--checkpoint", second, "--json"]
        ) == 0
        resumed = json.loads(capsys.readouterr().out)
        later = load_checkpoint(second)
        assert later.round > 10
        # ... and the new snapshot itself resumes to the same answer.
        assert cli_main(["simulate", "--resume", second, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == resumed

    def test_checkpoint_every_without_file_is_an_error(self, capsys):
        code = cli_main(CLI_SCENARIO + ["--checkpoint-every", "10"])
        assert code == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_truncated_checkpoint_exits_nonzero(self, tmp_path, capsys):
        path = str(tmp_path / "cli.ckpt")
        assert cli_main(
            CLI_SCENARIO + ["--checkpoint-every", "25", "--checkpoint", path]
        ) == 0
        capsys.readouterr()
        data = open(path, "rb").read()
        open(path, "wb").write(data[: len(data) - 10])
        code = cli_main(["simulate", "--resume", path])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_version_mismatch_exits_nonzero(self, tmp_path, capsys):
        import struct

        path = str(tmp_path / "cli.ckpt")
        assert cli_main(
            CLI_SCENARIO + ["--checkpoint-every", "25", "--checkpoint", path]
        ) == 0
        capsys.readouterr()
        data = bytearray(open(path, "rb").read())
        struct.pack_into("<I", data, 9, 999)
        open(path, "wb").write(bytes(data))
        code = cli_main(["simulate", "--resume", path])
        assert code == 2
        assert "version" in capsys.readouterr().err

    def test_resume_with_mismatching_spec_exits_nonzero(self, tmp_path, capsys):
        path = str(tmp_path / "cli.ckpt")
        assert cli_main(
            CLI_SCENARIO + ["--checkpoint-every", "25", "--checkpoint", path]
        ) == 0
        capsys.readouterr()
        other = (
            Scenario.line(8)
            .algorithm("pts")
            .adversary("single", rho=1.0, sigma=2.0, rounds=60)
            .build()
        )
        spec_path = tmp_path / "other.json"
        spec_path.write_text(other.to_json())
        code = cli_main(
            ["simulate", "--resume", path, "--spec", str(spec_path)]
        )
        assert code == 2
        assert "spec hash" in capsys.readouterr().err


# -- direct engine API --------------------------------------------------------------


class TestEngineApi:
    def test_from_checkpoint_continues_bit_identically(self, tmp_path):
        path = str(tmp_path / "engine.ckpt")

        def ingredients():
            topology = LineTopology(N)
            from repro.core.ppts import ParallelPeakToSink

            adversary = trickle_adversary(
                topology, 0.7, 1.0, ROUNDS, destinations=[5, 11, 15], seed=9,
                stream=True,
            )
            return topology, ParallelPeakToSink(topology), adversary

        with packet_id_scope():
            topology, algorithm, adversary = ingredients()
            full = Simulator(
                topology, algorithm, adversary, history="streaming"
            ).run(ROUNDS)
        with packet_id_scope():
            topology, algorithm, adversary = ingredients()
            simulator = Simulator(
                topology, algorithm, adversary, history="streaming"
            )
            simulator.run(MID, drain=False)
            written = save_checkpoint(simulator, path)
            assert written > 0
        with packet_id_scope():
            topology, algorithm, adversary = ingredients()
            restored = Simulator.from_checkpoint(
                path, topology=topology, algorithm=algorithm, adversary=adversary
            )
            resumed = restored.run(ROUNDS)
        assert resumed == full

    @pytest.mark.parametrize("engine", (Simulator, BatchSimulator))
    def test_restore_refuses_an_algorithm_holding_packets(self, tmp_path, engine):
        """The refusal ``Session.run`` makes of a spent PreparedRun."""
        checkpoint = load_checkpoint(_make_checkpoint(tmp_path))
        with packet_id_scope():
            topology = LineTopology(N)
            algorithm = PeakToSink(topology)
            adversary = build_explicit_adversary(
                topology, rho=1.0, sigma=2.0, rounds=4,
                routes=[(0, 0, N - 1), (0, 0, N - 1)],
            )
            Simulator(topology, algorithm, adversary).run(drain=False)
            assert algorithm.pending_packets()
            fresh = engine(topology, algorithm, adversary)
            with pytest.raises(SpentAlgorithmError, match="restore_into"):
                restore_into(fresh, checkpoint)

    def test_loaded_checkpoint_survives_a_resume(self, tmp_path):
        """Resuming must not mutate the loaded Checkpoint: a second restore
        from the same object gets the identical engine (streaming included,
        where the restored PacketStore keeps appending)."""
        path = str(tmp_path / "twice.ckpt")
        spec = build_spec("line", "ppts", {}, "bounded", 0.8, 3.0,
                          {"num_destinations": 3}, "streaming")
        full = Session().run(spec)
        checkpoint_at(spec, MID, path)
        loaded = load_checkpoint(path)
        store_rows = len(loaded.section("store/rounds"))
        first = Session().resume(loaded)
        assert len(loaded.section("store/rounds")) == store_rows
        second = Session().resume(loaded)
        assert first.result == full.result
        assert second.result == full.result

    def test_resume_under_different_generator_is_refused(self, tmp_path):
        from repro.adversary.generators import saturating_line_adversary
        from repro.core.pts import PeakToSink

        path = str(tmp_path / "mixed.ckpt")
        with packet_id_scope():
            topology = LineTopology(N)
            adversary = saturating_line_adversary(
                topology, 0.8, 2.0, ROUNDS, seed=3, stream=True
            )
            simulator = Simulator(topology, PeakToSink(topology), adversary,
                                  history="streaming")
            simulator.run(MID, drain=False)
            simulator.save_checkpoint(path)
        with packet_id_scope():
            topology = LineTopology(N)
            # Same cursor shape (rng + bucket), different generator class:
            # must be refused, not silently mixed.
            other = trickle_adversary(topology, 0.8, 2.0, ROUNDS, seed=3,
                                      stream=True)
            with pytest.raises(CheckpointError):
                Simulator.from_checkpoint(
                    path, topology=topology, algorithm=PeakToSink(topology),
                    adversary=other,
                )

    def test_streaming_checkpoint_restores_injection_log(self, tmp_path):
        path = str(tmp_path / "log.ckpt")

        def ingredients():
            topology = LineTopology(N)
            from repro.core.pts import PeakToSink

            return (
                topology,
                PeakToSink(topology),
                trickle_adversary(topology, 1.0, 1.0, ROUNDS, seed=4, stream=True),
            )

        with packet_id_scope():
            topology, algorithm, adversary = ingredients()
            simulator = Simulator(topology, algorithm, adversary, history="streaming")
            simulator.run(MID, drain=False)
            expected = [simulator.packet_store.row_tuple(i)
                        for i in range(len(simulator.packet_store))]
            simulator.save_checkpoint(path)
        with packet_id_scope():
            topology, algorithm, adversary = ingredients()
            restored = Simulator.from_checkpoint(
                path, topology=topology, algorithm=algorithm, adversary=adversary
            )
            rows = [restored.packet_store.row_tuple(i)
                    for i in range(len(restored.packet_store))]
            assert rows == expected
            restored.run(ROUNDS)
            assert len(restored.packet_store) == restored._injected


# -- files written before the layout was canonical ----------------------------------

#: Written by the delta engine before checkpoints were a function of state
#: alone: work-conserving PTS on six nodes cut after ``run(2, drain=False)``.
#: Its header carries the pseudo-buffer GC countdown ``rounds_until_gc`` and
#: lists node 0's emptied pseudo-buffer.
PRE_CANONICAL = (
    Path(__file__).parent / "regressions" / "checkpoint_pre_canonical_six_node_pts.ckpt"
)


def _six_node_wc():
    topology = LineTopology(6)
    adversary = build_explicit_adversary(
        topology, rho=1.0, sigma=2.0, rounds=3,
        routes=[(0, 0, 5), (0, 0, 5), (1, 2, 5), (2, 1, 5)],
    )
    return topology, PeakToSink(topology, work_conserving=True), adversary


class TestPreCanonicalFile:
    def test_fixture_has_the_old_layout(self):
        checkpoint = load_checkpoint(str(PRE_CANONICAL))
        assert checkpoint.round == 2
        assert "rounds_until_gc" in checkpoint.header["algorithm"]
        assert checkpoint.header["buffers"][0] == [0, [[5, 0]]]

    @pytest.mark.parametrize(
        "engine", (Simulator, BatchSimulator), ids=("delta", "batch")
    )
    def test_loads_and_resumes_to_the_uninterrupted_result(self, engine,
                                                           tmp_path):
        with packet_id_scope():
            expected = Simulator(*_six_node_wc()).run()
        with packet_id_scope():
            cut = Simulator(*_six_node_wc())
            cut.run(2, drain=False)
            canonical = str(tmp_path / "canonical.ckpt")
            cut.save_checkpoint(canonical)
        with packet_id_scope():
            resumed = engine(*_six_node_wc())
            restore_into(resumed, load_checkpoint(str(PRE_CANONICAL)))
            # Re-saved, the old file becomes today's layout of the same cut.
            resaved = str(tmp_path / "resaved.ckpt")
            resumed.save_checkpoint(resaved)
            assert Path(resaved).read_bytes() == Path(canonical).read_bytes()
            assert resumed.run() == expected
