"""Exception hierarchy for the AQT simulator.

All library errors derive from :class:`ReproError` so callers can catch the
whole family with a single ``except`` clause while still distinguishing
specific failure modes (capacity violations, malformed topologies, adversaries
that exceed their declared ``(rho, sigma)`` bound, ...).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "TopologyError",
    "CapacityViolationError",
    "BoundednessViolationError",
    "SchedulingError",
    "ConfigurationError",
    "SpentAlgorithmError",
    "CheckpointError",
    "CheckpointFormatError",
    "CheckpointVersionError",
    "CheckpointSpecMismatchError",
    "ShardingError",
    "UnshardableScenarioError",
    "ShardingProtocolError",
    "WorkerFailedError",
    "BatchingError",
    "UnbatchableScenarioError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class TopologyError(ReproError):
    """Raised when a topology is malformed or a route does not exist.

    Examples: asking for the path between two nodes that are not connected by
    a directed path, building a tree whose edges do not all point toward the
    root, or referring to a node outside the vertex set.
    """


class CapacityViolationError(ReproError):
    """Raised when a forwarding decision would send two packets over one edge.

    The AQT model (Section 2 of the paper) allows at most one packet per link
    per round.  The simulator enforces this invariant and raises this error if
    an algorithm's activation set is infeasible, which is exactly the property
    established by Lemma B.1 (PPTS) and Lemma 4.7 (HPTS).
    """

    def __init__(self, edge: tuple, round_number: int, detail: str = "") -> None:
        self.edge = edge
        self.round_number = round_number
        message = (
            f"capacity violation on edge {edge} in round {round_number}: "
            f"more than one packet scheduled"
        )
        if detail:
            message = f"{message} ({detail})"
        super().__init__(message)


class BoundednessViolationError(ReproError):
    """Raised when an injection pattern exceeds its declared (rho, sigma) bound.

    The violation records the buffer, the time interval and the amount by
    which ``N_T(v)`` exceeded ``rho |T| + sigma`` so tests and adversary
    generators can report precisely where a pattern went wrong.
    """

    def __init__(
        self,
        buffer: int,
        interval: tuple,
        observed: float,
        allowed: float,
    ) -> None:
        self.buffer = buffer
        self.interval = interval
        self.observed = observed
        self.allowed = allowed
        super().__init__(
            f"(rho, sigma) bound violated at buffer {buffer} over interval "
            f"{interval}: observed {observed} crossings, allowed {allowed:.3f}"
        )


class SchedulingError(ReproError):
    """Raised when a forwarding algorithm produces an invalid activation.

    Examples: activating an empty pseudo-buffer, activating two pseudo-buffers
    at the same node in the same round, or returning a node outside the
    topology.
    """


class ConfigurationError(ReproError):
    """Raised when simulation or experiment parameters are inconsistent.

    Examples: ``rho * ell > 1`` for HPTS, ``n`` not of the form ``m**ell`` for
    the hierarchical partition, or a sweep that asks for more destinations
    than there are nodes.
    """


class SpentAlgorithmError(ReproError):
    """Raised when a run would start on an algorithm an earlier run left
    holding packets.

    A forwarding algorithm owns its buffers, so a second run of the same
    ingredients (a spent :class:`~repro.api.session.PreparedRun`, or a
    checkpoint restored into a used algorithm) would start from the first
    run's undelivered packets and report different numbers.  A run that
    drained every packet leaves nothing behind and may run again.
    """


class CheckpointError(ReproError):
    """Base class for checkpoint/restore failures (:mod:`repro.checkpoint`).

    Also raised directly for logical misuse: resuming an already-consumed
    stream, restoring into an engine whose ingredients do not match the
    snapshot, or checkpointing an adversary that cannot produce a cursor.
    """


class CheckpointFormatError(CheckpointError):
    """Raised when a checkpoint file is truncated, corrupt or not a checkpoint.

    Covers bad magic bytes, a header that is not valid JSON, payload sections
    shorter than the header promises, and CRC mismatches.
    """


class CheckpointVersionError(CheckpointError):
    """Raised when a checkpoint's format version is not supported.

    The format is versioned explicitly (see ``docs/CHECKPOINT.md``); readers
    refuse rather than guess when the version does not match.
    """

    def __init__(self, found: int, supported: int) -> None:
        self.found = found
        self.supported = supported
        super().__init__(
            f"checkpoint format version {found} is not supported "
            f"(this library reads version {supported})"
        )


class CheckpointSpecMismatchError(CheckpointError):
    """Raised when a checkpoint is resumed under a different scenario.

    A checkpoint records the spec hash (and structural facts: node count,
    algorithm name, history policy) of the run that produced it; resuming
    under a :class:`~repro.api.specs.ScenarioSpec` that hashes differently
    would silently produce a different execution, so it is refused.
    """


class ShardingError(ReproError):
    """Base class for sharded-execution failures (:mod:`repro.network.sharded`).

    Like the checkpoint family, every sharding error derives from
    :class:`ReproError`, so the CLI maps the whole family to exit code 2.
    """


class UnshardableScenarioError(ShardingError):
    """Raised when a scenario cannot be partitioned across worker processes.

    Examples: a tree topology (only :class:`~repro.network.topology.LineTopology`
    segments have the contiguous left-to-right structure the hand-off protocol
    relies on), an adaptive adversary (its injections observe the *global*
    configuration, which no single segment can see), a policy that does not
    select the batch kernel (``engine`` ``None`` or ``"delta"``), PPTS or
    HPTS (the batch kernel's segment scans cover only its regular family),
    a scenario the batch kernel refuses (a custom greedy policy) — the batch
    kernel is the only segment engine — or a
    :class:`~repro.api.session.PreparedRun` whose live ingredients cannot be
    shipped to worker processes.
    """


class ShardingProtocolError(ShardingError):
    """Raised when the coordinator/worker window protocol breaks down.

    Examples: a worker process died mid-run, a reply arrived for the wrong
    round, or the per-segment engines disagree on the round counter.
    """


def _rebuild_worker_failed(
    message: str,
    segment: "int | None",
    round_number: "int | None",
    phase: "str | None",
) -> "WorkerFailedError":
    """Pickle helper: rebuild a :class:`WorkerFailedError` with its context."""
    return WorkerFailedError(
        message, segment=segment, round_number=round_number, phase=phase
    )


class WorkerFailedError(ShardingProtocolError):
    """Raised when one segment worker dies or its pipe breaks.

    The sharded coordinator tears every worker and boundary ring down and
    raises this; nothing is retried.  The attributes identify which worker
    failed and where (``segment``, ``round_number``, ``phase``).

    Raised for worker-level failures only (the worker process exited, its
    pipe closed).  A *logic* error raised inside a worker is forwarded as
    its original typed exception.
    """

    def __init__(
        self,
        message: str,
        *,
        segment: "int | None" = None,
        round_number: "int | None" = None,
        phase: "str | None" = None,
    ) -> None:
        self.segment = segment
        self.round_number = round_number
        self.phase = phase
        super().__init__(message)

    def __reduce__(self):  # keyword-only context survives the worker pipe
        return (
            _rebuild_worker_failed,
            (str(self), self.segment, self.round_number, self.phase),
        )


class BatchingError(ReproError):
    """Base class for batch-engine failures (:mod:`repro.network.batch`).

    Like the checkpoint and sharding families, every batching error derives
    from :class:`ReproError`, so the CLI maps the whole family to exit code 2.
    """


class UnbatchableScenarioError(BatchingError):
    """Raised when a scenario cannot run on the vectorized batch kernel.

    Examples: a tree topology (the flat-array layout encodes the line's
    ``i -> i+1`` structure directly in index arithmetic), an adaptive
    adversary (its injections observe the global configuration between
    rounds, which a k-round batch cannot replay), an algorithm outside the
    kernel's regular family (PTS, local, downhill, greedy with a stock
    policy) and its pseudo-buffer kind (PPTS, HPTS), HPTS with an ablation
    switch off, or a greedy priority that is not one of the built-in
    :data:`~repro.baselines.policies.ALL_POLICIES`.

    ``RunPolicy.engine="auto"`` catches this error and falls back to the
    object engine; ``engine="batch"`` propagates it.
    """
