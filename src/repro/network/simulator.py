"""The synchronous AQT simulation engine.

Each round consists of an injection step and a forwarding step (Section 2):

1. **Injection.**  The adversary's packets for this round are materialised and
   handed to the forwarding algorithm (which stores or stages them).
2. **Measurement.**  The configuration ``L^t`` — occupancy after injection,
   before forwarding — is recorded.  This is the quantity every bound in the
   paper refers to.
3. **Forwarding.**  The algorithm's activation set is validated against the
   capacity constraint (one packet per edge per round) and executed
   *simultaneously*: all activated packets are popped first, then placed at
   their next hops, so a packet cannot traverse two edges in one round.
4. **Post-measurement.**  ``L^{t+}`` is recorded and end-of-round hooks run.

After the adversary's horizon, the simulator keeps running ("drain rounds")
until every packet is delivered or a safety cap is reached, so latency and
delivery statistics are complete.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from ..core.packet import Packet, PacketStore
from ..core.scheduler import Activation, ForwardingAlgorithm
from ..network.errors import CapacityViolationError, ConfigurationError, SchedulingError
from ..network.topology import Topology
from .events import HistoryPolicy, OccupancyTimeline, RoundRecord, SimulationResult

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance, typing only
    from ..adversary.base import Adversary

__all__ = [
    "DrainStop",
    "HistoryPolicy",
    "Simulator",
    "check_checkpoint_every",
    "run_simulation",
    "default_max_drain_rounds",
    "quiescence_window",
]


def default_max_drain_rounds(num_nodes: int, pending: int) -> int:
    """Safety cap on drain rounds when the caller does not pass one.

    Every packet needs at most ``num_nodes`` hops and at most one packet
    leaves each buffer per round, so ``pending * n`` is a safe cap even for
    very lazy algorithms; slack added for phase-based algorithms.  Every
    engine's drain applies it through :class:`DrainStop` — the engines must
    agree bit for bit on how long a drain may run.
    """
    return (pending + 1) * (num_nodes + 2) + 64


def check_checkpoint_every(
    checkpoint_every: Optional[int], checkpoint_path: Optional[str]
) -> None:
    """Every engine's ``run`` check of its periodic-checkpoint arguments."""
    if checkpoint_every is None:
        return
    if checkpoint_every < 1:
        raise ConfigurationError(
            f"checkpoint_every must be >= 1, got {checkpoint_every}"
        )
    if checkpoint_path is None:
        raise ConfigurationError("checkpoint_every requires a checkpoint_path")


def quiescence_window(num_nodes: int) -> int:
    """Consecutive no-progress rounds before a drain declares a fixed point.

    The paper's algorithms are not work-conserving: a configuration with no
    bad (pseudo-)buffer never changes once injections stop.  Applied through
    :class:`DrainStop` for the same bit-identity reason as the drain cap.
    """
    return 2 * num_nodes + 8


class DrainStop:
    """The drain stop rule every engine applies, one round at a time.

    A drain runs while packets are pending and this rule has not stopped:
    it stops after ``cap`` drain rounds (``None`` = the
    :func:`default_max_drain_rounds` cap for ``pending`` packets) or after
    :func:`quiescence_window` consecutive rounds that forwarded nothing and
    left the staged count unchanged.  ``staged`` is the staged count before
    the first drain round.
    """

    __slots__ = ("cap", "window", "rounds", "quiet", "staged", "stopped")

    def __init__(
        self,
        num_nodes: int,
        pending: int,
        cap: Optional[int] = None,
        staged: int = 0,
    ) -> None:
        if cap is None:
            cap = default_max_drain_rounds(num_nodes, pending)
        self.cap = cap
        self.window = quiescence_window(num_nodes)
        self.rounds = 0
        self.quiet = 0
        self.staged = staged
        self.stopped = cap <= 0

    def step(self, forwarded: int, staged: int = 0) -> bool:
        """Count one executed drain round; returns whether the drain stops."""
        self.rounds += 1
        if not forwarded and staged == self.staged:
            self.quiet += 1
        else:
            self.quiet = 0
        self.staged = staged
        self.stopped = self.quiet >= self.window or self.rounds >= self.cap
        return self.stopped


class Simulator:
    """Drives one forwarding algorithm against one adversary on one topology.

    Parameters
    ----------
    topology:
        The network (a :class:`~repro.network.topology.LineTopology` or
        :class:`~repro.network.topology.TreeTopology`).
    algorithm:
        The forwarding algorithm under test; it owns the buffers.
    adversary:
        The injection process.
    record_history:
        When ``True``, keep a per-round :class:`RoundRecord` list in the
        result (memory grows linearly with the execution length).  Shorthand
        for ``history=HistoryPolicy.FULL``.
    record_occupancy_vectors:
        When ``True`` (implies ``record_history``), each round record also
        stores the full per-node occupancy vector.
    history:
        The retention policy (:class:`HistoryPolicy` or its string value);
        ``None`` derives ``FULL`` or ``SUMMARY`` from the two flags above.
        ``STREAMING`` releases packets at delivery and logs injections into
        a compact :class:`~repro.core.packet.PacketStore` instead, so a run's
        footprint is O(packets in flight) rather than O(packets injected).
    validate_capacity:
        When ``True`` (default), raise on any activation set that would push
        two packets over one edge or forward from an empty pseudo-buffer.
        The paper proves PPTS/HPTS activations are always feasible
        (Lemmas B.1 and 4.7); the tests rely on this flag to check that.
    """

    def __init__(
        self,
        topology: Topology,
        algorithm: ForwardingAlgorithm,
        adversary: "Adversary",
        *,
        record_history: bool = False,
        record_occupancy_vectors: bool = False,
        history: Optional[Union[HistoryPolicy, str]] = None,
        validate_capacity: bool = True,
    ) -> None:
        self.topology = topology
        self.algorithm = algorithm
        self.adversary = adversary
        if history is None:
            policy = (
                HistoryPolicy.FULL
                if (record_history or record_occupancy_vectors)
                else HistoryPolicy.SUMMARY
            )
        else:
            policy = HistoryPolicy.coerce(history)
            if (record_history or record_occupancy_vectors) and policy is not HistoryPolicy.FULL:
                raise ConfigurationError(
                    f"record_history/record_occupancy_vectors require "
                    f"history='full', got history={policy.value!r}"
                )
        self.history_policy = policy
        self.record_history = policy is HistoryPolicy.FULL
        self.record_occupancy_vectors = record_occupancy_vectors
        self.validate_capacity = validate_capacity
        #: Whether delivered packets stay reachable after the run (FULL and
        #: SUMMARY).  Under STREAMING, :attr:`packets` holds in-flight packets
        #: only and :attr:`packet_store` keeps the compact injection log.
        self.retain_packets = policy is not HistoryPolicy.STREAMING
        #: Every packet the simulator is tracking, keyed by packet id: all
        #: packets ever created when :attr:`retain_packets`, else only the
        #: undelivered ones.
        self.packets: Dict[int, Packet] = {}
        #: Columnar ``(round, source, destination, packet_id)`` log of every
        #: injection (streaming runs only; ``None`` otherwise).
        self.packet_store: Optional[PacketStore] = (
            PacketStore() if policy is HistoryPolicy.STREAMING else None
        )
        self._timeline = OccupancyTimeline()
        self._history: List[RoundRecord] = []
        self._round = 0
        self._injected = 0
        self._delivered = 0
        #: Latency aggregates folded in at delivery time, so building the
        #: result does not re-walk every packet ever injected.
        self._latency_sum = 0
        self._latency_max: Optional[int] = None
        #: Precomputed next-hop table consulted on every forwarded packet.
        self._next_hop = topology.next_hop_table()

    # -- public API --------------------------------------------------------------

    def run(
        self,
        num_rounds: Optional[int] = None,
        *,
        drain: bool = True,
        max_drain_rounds: Optional[int] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_spec: Optional[object] = None,
    ) -> SimulationResult:
        """Execute the simulation and return a :class:`SimulationResult`.

        Parameters
        ----------
        num_rounds:
            How many injection rounds to run *in total* (an absolute round
            count, not an increment).  Defaults to the adversary's horizon.
            A simulator restored from a checkpoint continues from its saved
            round, so ``run(T)`` on it executes only the remaining rounds.
        drain:
            Keep executing (with no further injections) after ``num_rounds``
            until all packets are delivered.
        max_drain_rounds:
            Safety cap on drain rounds; defaults to a generous function of the
            network size and the number of pending packets.
        checkpoint_every:
            Write a checkpoint to ``checkpoint_path`` after every this-many
            injection rounds (atomically overwriting the previous snapshot).
        checkpoint_path:
            Where the periodic checkpoints go; required with
            ``checkpoint_every``.
        checkpoint_spec:
            Optional :class:`~repro.api.specs.ScenarioSpec` embedded into the
            periodic checkpoints so ``Session.resume`` can rebuild the run.
        """
        check_checkpoint_every(checkpoint_every, checkpoint_path)
        horizon = num_rounds if num_rounds is not None else self.adversary.horizon
        for t in range(self._round, horizon):
            self._execute_round(t, inject=True)
            if checkpoint_every is not None and (t + 1) % checkpoint_every == 0:
                self.save_checkpoint(checkpoint_path, spec=checkpoint_spec)
        drained = True
        if drain:
            drained = self._drain(max(horizon, self._round), max_drain_rounds)
        else:
            drained = self._pending() == 0
        return self._build_result(drained)

    def save_checkpoint(self, path: str, *, spec: Optional[object] = None) -> int:
        """Snapshot the engine to ``path`` (see :mod:`repro.checkpoint`).

        Valid at any injection-round boundary; returns the bytes written.
        ``spec`` optionally embeds the originating scenario spec so the file
        is self-describing for :meth:`repro.api.session.Session.resume`.
        """
        from ..checkpoint import save_checkpoint

        return save_checkpoint(self, path, spec=spec)

    @classmethod
    def from_checkpoint(
        cls,
        path: str,
        *,
        topology: Topology,
        algorithm: ForwardingAlgorithm,
        adversary: "Adversary",
    ) -> "Simulator":
        """Rebuild a mid-flight simulator from a checkpoint file.

        ``topology``/``algorithm``/``adversary`` must be freshly constructed
        (never run) and structurally identical to the checkpointed scenario's;
        run policy flags (history retention, capacity validation) are taken
        from the snapshot itself.  Calling :meth:`run` afterwards continues
        the execution bit-identically from the saved round.
        """
        from ..checkpoint import load_checkpoint, restore_simulator

        return restore_simulator(
            load_checkpoint(path), topology, algorithm, adversary
        )

    # -- round mechanics --------------------------------------------------------

    def _materialize_injections(self, round_number: int, *, inject: bool) -> List[Packet]:
        """The injection step: ask the adversary, create and store packets."""
        if not inject:
            injections = []
        elif getattr(self.adversary, "adaptive", False):
            # Adaptive adversaries (repro.adversary.adaptive) observe the
            # configuration left by the previous round before injecting.
            injections = self.adversary.adaptive_injections(
                round_number, self.algorithm.occupancy_vector()
            )
        else:
            injections = self.adversary.injections_for_round(round_number)
        new_packets: List[Packet] = []
        store = self.packet_store
        for injection in injections:
            self.topology.validate_route(injection.source, injection.destination)
            packet = Packet.from_injection(injection)
            self.packets[injection.packet_id] = packet
            if store is not None:
                store.append_injection(injection)
            new_packets.append(packet)
        self._injected += len(new_packets)
        self.algorithm.on_inject(round_number, new_packets)
        return new_packets

    def _measure_before_forwarding(self, staged: int) -> Optional[Dict[int, int]]:
        """Record ``L^t`` (after injection, before forwarding).

        Folds the nodes whose load changed since the previous measurement.
        Returns the full occupancy snapshot when per-round history is being
        recorded (the round record needs it), ``None`` otherwise.
        """
        self._timeline.observe(self.algorithm.occupancy_delta(), staged)
        return self.algorithm.occupancy_vector() if self.record_history else None

    def _execute_round(self, round_number: int, *, inject: bool) -> int:
        new_packets = self._materialize_injections(round_number, inject=inject)

        # L^t: after injection, before forwarding.  Only the nodes whose
        # load changed since the previous measurement are folded into the
        # running maxima; full snapshots are taken only for round records.
        staged = self.algorithm.staged_count()
        occupancy_before = self._measure_before_forwarding(staged)

        activations = self.algorithm.select_activations(round_number)
        if self.validate_capacity:
            self._validate_activations(activations, round_number)
        forwarded, delivered = self._apply_activations(activations, round_number)
        self._delivered += delivered

        occupancy_after = (
            self.algorithm.occupancy_vector() if self.record_history else None
        )
        self.algorithm.on_round_end(round_number)

        if self.record_history:
            self._history.append(
                RoundRecord(
                    round=round_number,
                    injected=len(new_packets),
                    forwarded=forwarded,
                    delivered=delivered,
                    max_occupancy=max(occupancy_before.values(), default=0),
                    max_occupancy_after_forwarding=max(
                        occupancy_after.values(), default=0
                    ),
                    staged=staged,
                    occupancy=occupancy_before
                    if self.record_occupancy_vectors
                    else None,
                )
            )
        self._round = round_number + 1
        return forwarded

    def _validate_activations(
        self, activations: List[Activation], round_number: int
    ) -> None:
        seen_nodes = set()
        for activation in activations:
            node = activation.node
            if node not in self.algorithm.buffers:
                raise SchedulingError(
                    f"round {round_number}: activation names unknown node {node}"
                )
            if node in seen_nodes:
                next_hop = self._next_hop.get(node)
                raise CapacityViolationError(
                    edge=(node, next_hop),
                    round_number=round_number,
                    detail="two pseudo-buffers activated at the same node",
                )
            seen_nodes.add(node)

    def _apply_activations(
        self, activations: List[Activation], round_number: int
    ) -> Tuple[int, int]:
        """Pop all activated packets simultaneously, then place them."""
        buffers = self.algorithm.buffers
        next_hops = self._next_hop
        moves: List[Tuple[Packet, int]] = []
        for node, key, chosen in activations:
            # The paper's wording is "each nonempty activated buffer
            # forwards": an activation of an empty pseudo-buffer is a silent
            # no-op, not an error.
            packet = buffers[node].take(key, chosen)
            if packet is None:
                continue
            next_hop = next_hops.get(node)
            if next_hop is None:
                raise SchedulingError(
                    f"round {round_number}: node {node} has no outgoing edge"
                )
            moves.append((packet, next_hop))

        delivered = 0
        retain = self.retain_packets
        on_arrival = self.algorithm.on_arrival
        for packet, next_hop in moves:
            packet.advance(next_hop)
            if next_hop == packet.destination:
                packet.deliver(round_number)
                delivered += 1
                latency = round_number - packet.injected_round
                self._latency_sum += latency
                if self._latency_max is None or latency > self._latency_max:
                    self._latency_max = latency
                if not retain:
                    # Streaming: the folded statistics above are the packet's
                    # only remaining trace; release the object.
                    del self.packets[packet.packet_id]
            else:
                on_arrival(packet, next_hop, round_number)
        return len(moves), delivered

    def _pending(self) -> int:
        return self.algorithm.pending_packets()

    def _drain(self, start_round: int, max_drain_rounds: Optional[int]) -> bool:
        rule = DrainStop(
            self.topology.num_nodes,
            self._pending(),
            max_drain_rounds,
            self.algorithm.staged_count(),
        )
        round_number = start_round
        while self._pending() > 0 and not rule.stopped:
            forwarded = self._execute_round(round_number, inject=False)
            round_number += 1
            rule.step(forwarded, self.algorithm.staged_count())
        return self._pending() == 0

    # -- result assembly -----------------------------------------------------------

    def _build_result(self, drained: bool) -> SimulationResult:
        # Latency maxima/sums and the delivered count are folded in at
        # delivery time (latencies are integers, so the running sum is exact
        # and the mean matches a from-scratch recomputation bit for bit).
        delivered = self._delivered
        undelivered = self._injected - delivered
        return SimulationResult(
            algorithm=self.algorithm.name,
            num_nodes=self.topology.num_nodes,
            rounds_executed=self._round,
            max_occupancy=self._timeline.max_occupancy,
            max_occupancy_per_node=self._timeline.per_node_maxima(),
            max_staged=self._timeline.max_staged,
            packets_injected=self._injected,
            packets_delivered=delivered,
            packets_undelivered=undelivered,
            max_latency=self._latency_max,
            mean_latency=(self._latency_sum / delivered) if delivered else None,
            drained=drained,
            history=self._history,
        )


def run_simulation(
    topology: Topology,
    algorithm: ForwardingAlgorithm,
    adversary: "Adversary",
    *,
    num_rounds: Optional[int] = None,
    drain: bool = True,
    record_history: bool = False,
    history: Optional[Union[HistoryPolicy, str]] = None,
) -> SimulationResult:
    """One-call convenience wrapper around :class:`Simulator`.

    This is the function most examples and benchmarks use: build the three
    ingredients, call :func:`run_simulation`, read ``result.max_occupancy``.
    """
    simulator = Simulator(
        topology,
        algorithm,
        adversary,
        record_history=record_history,
        history=history,
    )
    return simulator.run(num_rounds, drain=drain)
