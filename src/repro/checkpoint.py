"""Versioned checkpoint/restore for mid-flight simulations.

A checkpoint is a single file capturing *everything* the engine needs to
continue a run bit-identically from a round boundary:

* the engine counters (round number, injected/delivered totals, the latency
  folds) and the running :class:`~repro.network.events.OccupancyTimeline`
  maxima,
* every retained :class:`~repro.core.packet.Packet` (in-flight only under
  ``history="streaming"``; all packets otherwise), stored columnar,
* the per-node pseudo-buffer layout — every nonempty key, sorted, with its
  packet ids in queue order — from which the node loads and the incremental
  :class:`~repro.core.indexset.BufferIndex` bad sets are rebuilt by
  replaying the stores,
* algorithm-specific extra state (HPTS staged packets, PPTS discovered
  destinations, greedy arrival rounds) via
  :meth:`~repro.core.scheduler.ForwardingAlgorithm.checkpoint_state`,
* the adversary's resume cursor (RNG, token-bucket and credit state for
  streaming generators; bucket + realized history for adaptive adversaries),
* the packet-id allocator position, so ids allocated after the resume stay
  aligned with the uninterrupted run (and with the eager
  :class:`~repro.adversary.base.InjectionPattern` built from the same rows),
* under ``history="streaming"``, the columnar injection log
  (:class:`~repro.core.packet.PacketStore`); under ``history="full"``, the
  per-round records,
* optionally, the originating :class:`~repro.api.specs.ScenarioSpec`, so
  :meth:`repro.api.session.Session.resume` can rebuild the run's ingredients
  without being told anything else.

The layout is a function of that state alone: the same configuration gives
the same bytes whichever engine wrote it.

File layout (all integers little-endian; see ``docs/CHECKPOINT.md``)::

    MAGIC ("REPROCKPT", 9 bytes)
    u32   format version
    u64   header length in bytes
    .. .  header: canonical JSON (sorted keys, utf-8)
    ...   payload: the raw bytes of each section named in header["sections"],
          concatenated in order; every section is a flat int64 column
    u32   CRC-32 of everything above

Readers raise :class:`~repro.network.errors.CheckpointFormatError` on
truncation/corruption, :class:`~repro.network.errors.CheckpointVersionError`
on an unknown version, and
:class:`~repro.network.errors.CheckpointSpecMismatchError` when a checkpoint
is resumed under a scenario that hashes differently from the one that
produced it (``checkpoint_every`` / ``checkpoint_path`` are normalised out of
the hash: *where* snapshots are written does not change the execution).
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import sys
import tempfile
import zlib
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Hashable, List, Optional, Tuple

from .core.packet import Injection, Packet, PacketState, PacketStore, current_allocator
from .network.errors import (
    CheckpointError,
    CheckpointFormatError,
    CheckpointSpecMismatchError,
    CheckpointVersionError,
)
from .network.events import HistoryPolicy, RoundRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance, typing only
    from .adversary.base import Adversary
    from .api.specs import ScenarioSpec
    from .core.scheduler import ForwardingAlgorithm
    from .network.simulator import Simulator
    from .network.topology import Topology

__all__ = [
    "FORMAT_VERSION",
    "Checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "restore_into",
    "restore_simulator",
    "resume_spec_hash",
    "verify_spec",
]

MAGIC = b"REPROCKPT"
FORMAT_VERSION = 1

#: Fixed-size framing around the header: magic + u32 version + u64 length.
_PREFIX = struct.Struct(f"<{len(MAGIC)}sIQ")
_TRAILER = struct.Struct("<I")

_STATE_CODES = {
    PacketState.STAGED: 0,
    PacketState.IN_TRANSIT: 1,
    PacketState.DELIVERED: 2,
}
_CODE_STATES = {code: state for state, code in _STATE_CODES.items()}

#: Column order of the packet table (each a flat int64 section).
_PACKET_COLUMNS = (
    "ids", "sources", "destinations", "injected_rounds", "locations",
    "states", "accepted_rounds", "delivered_rounds", "hops",
)
#: Column order of the streaming injection log (mirrors PacketStore).
_STORE_COLUMNS = ("rounds", "sources", "destinations", "ids")
#: Column order of the full-history round records.
_HISTORY_COLUMNS = (
    "rounds", "injected", "forwarded", "delivered", "max_occupancy",
    "max_occupancy_after", "staged",
)
#: The fields :func:`restore_into` reads from each header block.
_BLOCK_FIELDS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("engine", (
        "round", "injected", "delivered", "latency_sum", "latency_max",
        "num_nodes", "history_policy", "record_history",
        "record_occupancy_vectors", "validate_capacity",
    )),
    ("algorithm", ("name", "state")),
    ("timeline", ("max_occupancy", "max_staged")),
    ("adversary", ("kind", "cursor")),
)


# ---------------------------------------------------------------------------
# Pseudo-buffer key codec.  Keys are ints (destinations), strings (greedy's
# single queue) or tuples of ints (HPTS ``(level, destination)``); JSON lists
# unambiguously stand in for tuples because lists are unhashable and can
# therefore never be keys themselves.
# ---------------------------------------------------------------------------


def _encode_key(key: Hashable) -> Any:
    if isinstance(key, tuple):
        return [_encode_key(item) for item in key]
    if isinstance(key, (int, str)):
        return key
    raise CheckpointError(
        f"cannot serialise pseudo-buffer key {key!r} of type {type(key).__name__}"
    )


def _decode_key(data: Any) -> Hashable:
    if isinstance(data, list):
        return tuple(_decode_key(item) for item in data)
    return data


# ---------------------------------------------------------------------------
# Snapshot (simulator -> header + sections)
# ---------------------------------------------------------------------------


def resume_spec_hash(spec: "ScenarioSpec") -> str:
    """The spec hash used for resume verification.

    ``checkpoint_every`` / ``checkpoint_path`` are cleared first: they control
    where snapshots land, not what the simulation computes, so a run resumed
    with different checkpointing settings is still the same run.  ``shards``
    is cleared for the same reason — the sharded engine is proven
    bit-identical to the single-process one.  ``engine`` / ``batch_rounds``
    are likewise cleared — the batch kernel is proven bit-identical to the
    object engine, so a checkpoint taken by either engine (at any batch
    cadence) resumes under the other.  The retired recovery keys
    (:data:`~repro.api.specs.RETIRED_POLICY_FIELDS`) are hashed at their old
    defaults, so checkpoints written while they existed still verify.
    """
    from .api.specs import RETIRED_POLICY_FIELDS

    payload = spec.to_dict()
    policy = dict(payload.get("policy") or {})
    policy["checkpoint_every"] = None
    policy["checkpoint_path"] = None
    policy["shards"] = None
    policy["engine"] = None
    policy["batch_rounds"] = 64
    payload["policy"] = policy
    canonical = type(spec).from_dict(payload).to_dict()
    canonical["policy"].update(RETIRED_POLICY_FIELDS)
    return hashlib.sha256(
        json.dumps(canonical, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]


def _snapshot(
    simulator: "Simulator", spec: Optional["ScenarioSpec"]
) -> Tuple[Dict[str, Any], List[Tuple[str, array]]]:
    algorithm = simulator.algorithm
    sections: List[Tuple[str, array]] = []

    # -- packet table ------------------------------------------------------------
    columns = {name: array("q") for name in _PACKET_COLUMNS}
    for packet in simulator.packets.values():
        columns["ids"].append(packet.packet_id)
        columns["sources"].append(packet.source)
        columns["destinations"].append(packet.destination)
        columns["injected_rounds"].append(packet.injected_round)
        columns["locations"].append(packet.location)
        columns["states"].append(_STATE_CODES[packet.state])
        columns["accepted_rounds"].append(
            -1 if packet.accepted_round is None else packet.accepted_round
        )
        columns["delivered_rounds"].append(
            -1 if packet.delivered_round is None else packet.delivered_round
        )
        columns["hops"].append(packet.hops)
    sections.extend((f"packets/{name}", columns[name]) for name in _PACKET_COLUMNS)

    # -- buffer layout: nonempty pseudo-buffers only, each node's keys sorted
    #    (tuples as their JSON lists), so equal state gives equal bytes
    #    whichever engine, and whichever order of creation and garbage
    #    collection, produced it -------------------------------------------------
    buffer_directory: List[List[Any]] = []
    buffer_ids = array("q")
    for node, node_buffer in algorithm.buffers.items():
        keys = node_buffer.nonempty_keys()
        if not keys:
            continue
        entry: List[Any] = []
        for key in sorted(keys, key=_encode_key):
            packets = node_buffer.existing(key).packets()  # queue order
            entry.append([_encode_key(key), len(packets)])
            buffer_ids.extend(packet.packet_id for packet in packets)
        buffer_directory.append([node, entry])
    sections.append(("buffers/packet_ids", buffer_ids))

    # -- timeline maxima, by node ------------------------------------------------
    timeline = simulator._timeline
    timeline_nodes = array("q")
    timeline_loads = array("q")
    for node, load in sorted(timeline.per_node_maxima().items()):
        timeline_nodes.append(node)
        timeline_loads.append(load)
    sections.append(("timeline/nodes", timeline_nodes))
    sections.append(("timeline/loads", timeline_loads))

    # -- streaming injection log -------------------------------------------------
    store = simulator.packet_store
    if store is not None:
        sections.extend(
            (f"store/{name}", getattr(store, "packet_ids" if name == "ids" else name))
            for name in _STORE_COLUMNS
        )

    # -- full-history round records ----------------------------------------------
    history_occupancy: Optional[List[Optional[List[List[int]]]]] = None
    if simulator.record_history:
        history_columns = {name: array("q") for name in _HISTORY_COLUMNS}
        if simulator.record_occupancy_vectors:
            history_occupancy = []
        for record in simulator._history:
            history_columns["rounds"].append(record.round)
            history_columns["injected"].append(record.injected)
            history_columns["forwarded"].append(record.forwarded)
            history_columns["delivered"].append(record.delivered)
            history_columns["max_occupancy"].append(record.max_occupancy)
            history_columns["max_occupancy_after"].append(
                record.max_occupancy_after_forwarding
            )
            history_columns["staged"].append(record.staged)
            if history_occupancy is not None:
                history_occupancy.append(
                    None
                    if record.occupancy is None
                    else [[node, load] for node, load in record.occupancy.items()]
                )
        sections.extend(
            (f"history/{name}", history_columns[name]) for name in _HISTORY_COLUMNS
        )

    # -- adversary cursor ----------------------------------------------------------
    cursor_fn = getattr(simulator.adversary, "cursor", None)
    adversary_cursor = None if cursor_fn is None else cursor_fn()
    realized_in_sections = False
    if isinstance(adversary_cursor, dict) and isinstance(
        adversary_cursor.get("realized"), list
    ):
        # Adaptive adversaries carry their whole realized injection history;
        # keep it out of the JSON header (O(total injections) text per save)
        # and in int64 columns like every other per-packet table.
        adversary_cursor = dict(adversary_cursor)
        realized_rows = adversary_cursor.pop("realized")
        realized_columns = [array("q") for _ in range(4)]
        for row in realized_rows:
            for column, value in zip(realized_columns, row):
                column.append(value)
        sections.extend(
            (f"adversary/realized_{name}", column)
            for name, column in zip(_STORE_COLUMNS, realized_columns)
        )
        realized_in_sections = True

    header: Dict[str, Any] = {
        "format": "repro-checkpoint",
        "spec": None if spec is None else spec.to_dict(),
        "spec_hash": None if spec is None else resume_spec_hash(spec),
        "engine": {
            "round": simulator._round,
            "injected": simulator._injected,
            "delivered": simulator._delivered,
            "latency_sum": simulator._latency_sum,
            "latency_max": simulator._latency_max,
            "num_nodes": simulator.topology.num_nodes,
            "history_policy": simulator.history_policy.value,
            "record_history": simulator.record_history,
            "record_occupancy_vectors": simulator.record_occupancy_vectors,
            "validate_capacity": simulator.validate_capacity,
        },
        "timeline": {
            "max_occupancy": timeline.max_occupancy,
            "max_staged": timeline.max_staged,
        },
        "next_packet_id": current_allocator().next_value,
        "algorithm": {
            "name": algorithm.name,
            "state": algorithm.checkpoint_state(),
        },
        "buffers": buffer_directory,
        "adversary": {
            "kind": type(simulator.adversary).__name__,
            "cursor": adversary_cursor,
            "realized_in_sections": realized_in_sections,
        },
        "history_occupancy": history_occupancy,
    }
    return header, sections


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------


def _to_bytes(column: array) -> bytes:
    if sys.byteorder == "big":  # pragma: no cover - exotic platforms
        column = array("q", column)
        column.byteswap()
    return column.tobytes()


def _from_bytes(data: bytes) -> array:
    column = array("q")
    column.frombytes(data)
    if sys.byteorder == "big":  # pragma: no cover - exotic platforms
        column.byteswap()
    return column


def _encode(header: Dict[str, Any], sections: List[Tuple[str, array]]) -> bytes:
    directory = [{"name": name, "count": len(column)} for name, column in sections]
    full_header = dict(header, version=FORMAT_VERSION, sections=directory)
    header_bytes = json.dumps(
        full_header, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    parts = [
        _PREFIX.pack(MAGIC, FORMAT_VERSION, len(header_bytes)),
        header_bytes,
    ]
    parts.extend(_to_bytes(column) for _, column in sections)
    body = b"".join(parts)
    return body + _TRAILER.pack(zlib.crc32(body))


@dataclass
class Checkpoint:
    """A parsed checkpoint: the JSON header plus the named int64 columns."""

    header: Dict[str, Any]
    sections: Dict[str, array]

    @property
    def spec(self) -> Optional[Dict[str, Any]]:
        """The embedded scenario spec payload, if one was recorded."""
        return self.header.get("spec")

    @property
    def spec_hash(self) -> Optional[str]:
        return self.header.get("spec_hash")

    @property
    def round(self) -> int:
        """The round boundary this checkpoint was taken at."""
        return self.header["engine"]["round"]

    @property
    def history_policy(self) -> HistoryPolicy:
        return HistoryPolicy(self.header["engine"]["history_policy"])

    def section(self, name: str) -> array:
        try:
            return self.sections[name]
        except KeyError:
            raise CheckpointFormatError(
                f"checkpoint is missing required section {name!r}"
            ) from None


def _decode(data: bytes, source: str) -> Checkpoint:
    minimum = _PREFIX.size + _TRAILER.size
    if len(data) < minimum:
        raise CheckpointFormatError(
            f"{source}: {len(data)} bytes is too short to be a checkpoint "
            f"(need at least {minimum})"
        )
    magic, version, header_len = _PREFIX.unpack_from(data, 0)
    if magic != MAGIC:
        raise CheckpointFormatError(f"{source}: bad magic bytes {magic!r}")
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(version, FORMAT_VERSION)
    body, trailer = data[: -_TRAILER.size], data[-_TRAILER.size:]
    (expected_crc,) = _TRAILER.unpack(trailer)
    if zlib.crc32(body) != expected_crc:
        raise CheckpointFormatError(
            f"{source}: CRC mismatch (file corrupt or truncated)"
        )
    header_start = _PREFIX.size
    header_end = header_start + header_len
    if header_end > len(body):
        raise CheckpointFormatError(
            f"{source}: header length {header_len} overruns the file"
        )
    try:
        header = json.loads(body[header_start:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise CheckpointFormatError(f"{source}: invalid header JSON: {error}") from None
    if not isinstance(header, dict) or header.get("format") != "repro-checkpoint":
        raise CheckpointFormatError(f"{source}: header is not a checkpoint header")
    for field, expected in (
        ("engine", dict), ("algorithm", dict), ("adversary", dict),
        ("timeline", dict), ("buffers", list), ("next_packet_id", int),
    ):
        if not isinstance(header.get(field), expected):
            raise CheckpointFormatError(
                f"{source}: header field {field!r} is missing or not a "
                f"{expected.__name__}"
            )
    for block, fields in _BLOCK_FIELDS:
        for field in fields:
            if field not in header[block]:
                raise CheckpointFormatError(
                    f"{source}: header {block} block is missing {field!r}"
                )
    directory = header.get("sections")
    if not isinstance(directory, list):
        raise CheckpointFormatError(f"{source}: header has no section directory")
    sections: Dict[str, array] = {}
    offset = header_end
    for entry in directory:
        if not isinstance(entry, dict):
            raise CheckpointFormatError(
                f"{source}: malformed section-directory entry {entry!r}"
            )
        name, count = entry.get("name"), entry.get("count")
        if not isinstance(name, str) or not isinstance(count, int) or count < 0:
            raise CheckpointFormatError(
                f"{source}: malformed section-directory entry {entry!r}"
            )
        end = offset + 8 * count
        if end > len(body):
            raise CheckpointFormatError(
                f"{source}: section {name!r} overruns the file (truncated?)"
            )
        sections[name] = _from_bytes(body[offset:end])
        offset = end
    if offset != len(body):
        raise CheckpointFormatError(
            f"{source}: {len(body) - offset} trailing bytes after the last section"
        )
    return Checkpoint(header=header, sections=sections)


def save_checkpoint(
    simulator: "Simulator", path: str, *, spec: Optional["ScenarioSpec"] = None
) -> int:
    """Write a checkpoint of ``simulator`` to ``path``; returns bytes written.

    The write is atomic and durable: the blob is written to a temp file,
    fsync'd, renamed over ``path``, and the directory entry is fsync'd too —
    so both a process crash mid-save and a system crash shortly after a save
    leave a complete snapshot behind (the previous one, or the new one).
    """
    header, sections = _snapshot(simulator, spec)
    blob = _encode(header, sections)
    _atomic_write(path, blob)
    return len(blob)


def _atomic_write(path: str, blob: bytes) -> None:
    """Write ``blob`` to ``path`` atomically and durably (fsync + rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    descriptor, temp_path = tempfile.mkstemp(
        prefix=".ckpt-", dir=directory or None
    )
    try:
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
        # Persist the rename itself; without this a power loss can resurrect
        # the old directory entry pointing at the unlinked previous file.
        # Best-effort: directories cannot be opened on some platforms.
        try:
            directory_fd = os.open(directory or ".", os.O_RDONLY)
        except OSError:
            pass
        else:
            try:
                os.fsync(directory_fd)
            finally:
                os.close(directory_fd)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def load_checkpoint(path: str) -> Checkpoint:
    """Read and validate a checkpoint file (raises the typed errors above)."""
    with open(path, "rb") as handle:
        data = handle.read()
    return _decode(data, source=str(path))


# ---------------------------------------------------------------------------
# Restore
# ---------------------------------------------------------------------------


def verify_spec(checkpoint: Checkpoint, spec: "ScenarioSpec") -> None:
    """Raise :class:`CheckpointSpecMismatchError` unless ``spec`` matches the
    scenario that produced ``checkpoint`` (checkpoint-policy fields ignored)."""
    recorded = checkpoint.spec_hash
    if recorded is None:
        return  # engine-level checkpoint with no embedded spec: nothing to check
    offered = resume_spec_hash(spec)
    if offered != recorded:
        raise CheckpointSpecMismatchError(
            f"checkpoint was produced by spec hash {recorded} but resume was "
            f"asked for spec hash {offered} ({spec.label!r}); refusing to mix "
            f"executions"
        )


def _rebuild_packets(checkpoint: Checkpoint) -> Dict[int, Packet]:
    columns = {
        name: checkpoint.section(f"packets/{name}") for name in _PACKET_COLUMNS
    }
    packets: Dict[int, Packet] = {}
    for row in range(len(columns["ids"])):
        injection = Injection(
            columns["injected_rounds"][row],
            columns["sources"][row],
            columns["destinations"][row],
            columns["ids"][row],
        )
        accepted = columns["accepted_rounds"][row]
        delivered = columns["delivered_rounds"][row]
        packet = Packet(
            injection,
            location=columns["locations"][row],
            state=_CODE_STATES[columns["states"][row]],
            accepted_round=None if accepted < 0 else accepted,
            delivered_round=None if delivered < 0 else delivered,
            hops=columns["hops"][row],
        )
        packets[packet.packet_id] = packet
    return packets


def restore_into(simulator: "Simulator", checkpoint: Checkpoint) -> "Simulator":
    """Load ``checkpoint`` into a freshly built (never-run) simulator.

    The simulator's topology/algorithm/adversary must match the snapshot
    structurally; buffers, indices and occupancy maps are rebuilt by
    replaying the recorded stores, the adversary is fast-forwarded via its
    cursor, and the packet-id allocator of the current scope is positioned so
    post-resume ids continue exactly where the checkpointed run stopped.
    """
    engine = checkpoint.header["engine"]
    algorithm = simulator.algorithm
    adversary = simulator.adversary

    if simulator._round or simulator._injected or simulator.packets:
        raise CheckpointError("restore_into() requires a freshly built simulator")
    if algorithm.pending_packets():
        raise CheckpointError("restore_into() requires a never-run algorithm")
    if simulator.topology.num_nodes != engine["num_nodes"]:
        raise CheckpointSpecMismatchError(
            f"checkpoint was taken on {engine['num_nodes']} nodes, the given "
            f"topology has {simulator.topology.num_nodes}"
        )
    recorded_algorithm = checkpoint.header["algorithm"]["name"]
    if algorithm.name != recorded_algorithm:
        raise CheckpointSpecMismatchError(
            f"checkpoint was taken under algorithm {recorded_algorithm!r}, "
            f"got {algorithm.name!r}"
        )
    if simulator.history_policy.value != engine["history_policy"]:
        raise CheckpointSpecMismatchError(
            f"checkpoint used history={engine['history_policy']!r}, the "
            f"simulator was built with history={simulator.history_policy.value!r}"
        )

    # -- packets -----------------------------------------------------------------
    packets = _rebuild_packets(checkpoint)
    simulator.packets = packets

    # -- buffers (replaying stores through NodeBuffer.store rebuilds the node
    #    loads and the BufferIndex bad sets) ---------------------------------
    buffer_ids = checkpoint.section("buffers/packet_ids")
    position = 0
    for node, entry in checkpoint.header["buffers"]:
        node_buffer = algorithm.buffers.get(node)
        if node_buffer is None:
            raise CheckpointSpecMismatchError(
                f"checkpoint references node {node} absent from the topology"
            )
        for key_data, count in entry:
            # Files written before the layout was canonical may list an
            # emptied pseudo-buffer (count 0); it restores nothing.
            key = _decode_key(key_data)
            for _ in range(count):
                packet_id = buffer_ids[position]
                position += 1
                try:
                    packet = packets[packet_id]
                except KeyError:
                    raise CheckpointFormatError(
                        f"buffer at node {node} references unknown packet "
                        f"{packet_id}"
                    ) from None
                node_buffer.store(packet, key)
    if position != len(buffer_ids):
        raise CheckpointFormatError(
            f"buffer directory consumed {position} packet ids, section has "
            f"{len(buffer_ids)}"
        )

    # -- algorithm extra state -----------------------------------------------------
    # (Older files also carry ``algorithm.rounds_until_gc``, a countdown the
    # round number now determines; it is ignored.)
    algorithm.restore_checkpoint_state(
        checkpoint.header["algorithm"]["state"], packets
    )

    # -- engine counters and running statistics ------------------------------------
    simulator._round = engine["round"]
    simulator._injected = engine["injected"]
    simulator._delivered = engine["delivered"]
    simulator._latency_sum = engine["latency_sum"]
    simulator._latency_max = engine["latency_max"]
    timeline = simulator._timeline
    timeline.max_occupancy = checkpoint.header["timeline"]["max_occupancy"]
    timeline.max_staged = checkpoint.header["timeline"]["max_staged"]
    nodes = checkpoint.section("timeline/nodes")
    loads = checkpoint.section("timeline/loads")
    timeline.load_maxima(dict(zip(nodes, loads)))

    # -- streaming injection log ---------------------------------------------------
    if simulator.packet_store is not None:
        simulator.packet_store = PacketStore.from_columns(
            checkpoint.section("store/rounds"),
            checkpoint.section("store/sources"),
            checkpoint.section("store/destinations"),
            checkpoint.section("store/ids"),
        )

    # -- full-history round records --------------------------------------------------
    if simulator.record_history:
        columns = {
            name: checkpoint.section(f"history/{name}") for name in _HISTORY_COLUMNS
        }
        occupancy_rows = checkpoint.header.get("history_occupancy")
        records: List[RoundRecord] = []
        for row in range(len(columns["rounds"])):
            occupancy = None
            if occupancy_rows is not None and occupancy_rows[row] is not None:
                occupancy = {node: load for node, load in occupancy_rows[row]}
            records.append(
                RoundRecord(
                    round=columns["rounds"][row],
                    injected=columns["injected"][row],
                    forwarded=columns["forwarded"][row],
                    delivered=columns["delivered"][row],
                    max_occupancy=columns["max_occupancy"][row],
                    max_occupancy_after_forwarding=columns["max_occupancy_after"][row],
                    staged=columns["staged"][row],
                    occupancy=occupancy,
                )
            )
        simulator._history = records

    # -- packet-id alignment ---------------------------------------------------------
    # The eager path re-allocates its whole schedule during prepare(), ending
    # exactly at the recorded value; streaming/adaptive adversaries allocate
    # nothing until resumed.  Either way the recorded position is where the
    # next id must come from.
    current_allocator().reset(checkpoint.header["next_packet_id"])

    # -- adversary cursor -------------------------------------------------------------
    cursor = checkpoint.header["adversary"]["cursor"]
    if cursor is not None and checkpoint.header["adversary"].get(
        "realized_in_sections"
    ):
        realized_columns = [
            checkpoint.section(f"adversary/realized_{name}")
            for name in _STORE_COLUMNS
        ]
        cursor = dict(cursor)
        cursor["realized"] = [list(row) for row in zip(*realized_columns)]
    offered_kind = type(adversary).__name__
    if cursor is not None:
        recorded_kind = checkpoint.header["adversary"]["kind"]
        if offered_kind != recorded_kind:
            raise CheckpointSpecMismatchError(
                f"checkpoint was taken under a {recorded_kind} adversary, "
                f"got {offered_kind}"
            )
        resume_fn = getattr(adversary, "resume", None)
        if resume_fn is None:
            raise CheckpointSpecMismatchError(
                f"checkpoint carries a cursor for a {recorded_kind} "
                f"adversary, but the given {type(adversary).__name__} "
                f"cannot resume"
            )
        resume_fn(cursor)
    elif hasattr(adversary, "resume"):
        raise CheckpointSpecMismatchError(
            f"checkpoint was taken with a static (cursor-free) adversary but "
            f"the given {type(adversary).__name__} is stateful; resuming it "
            f"from round 0 would diverge"
        )
    return simulator


def restore_simulator(
    checkpoint: Checkpoint,
    topology: "Topology",
    algorithm: "ForwardingAlgorithm",
    adversary: "Adversary",
) -> "Simulator":
    """Build a :class:`~repro.network.simulator.Simulator` positioned at the
    checkpoint's round boundary, from freshly constructed ingredients."""
    from .network.simulator import Simulator

    engine = checkpoint.header["engine"]
    simulator = Simulator(
        topology,
        algorithm,
        adversary,
        record_history=engine["record_history"],
        record_occupancy_vectors=engine["record_occupancy_vectors"],
        history=engine["history_policy"],
        validate_capacity=engine["validate_capacity"],
    )
    return restore_into(simulator, checkpoint)
