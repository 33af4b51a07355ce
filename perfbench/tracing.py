"""Spans around the calls into each layer of the program, recorded from the
benchmark's side of the public API.

Nothing here edits the program: the benchmark swaps a public method or
function for a timed wrapper, runs, and puts the original back.  A span's
*self* time is its duration minus the spans nested in it, so the layers of a
run add up to its wall time; ``wall`` keeps the duration of the outermost
span of each name.

Layers, by module: ``setup`` (``repro.api.session`` and the registry
builders), ``adversary`` (``repro.adversary``), ``core`` (the
``ForwardingAlgorithm`` hooks of ``repro.core`` and ``repro.baselines``),
``simulator`` (the delta engine), ``batch`` (``repro.network.batch``) and
``sharded`` (``repro.network.sharded`` with its batch and shared-memory
parts).
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import time
from collections import defaultdict, deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.api import registry
from repro.api.session import PreparedRun, Session
from repro.network import batch, batch_sharded, sharded
from repro.network.simulator import Simulator

#: Spans a sharded worker reports back: its whole set-up.
SETUP_SPANS = (
    "setup.prepare", "setup.topology", "setup.adversary", "setup.algorithm",
    "setup.engine",
)
_ENGINE_CLASSES = (
    Simulator, batch.BatchSimulator, sharded.SegmentSimulator,
    batch_sharded.BatchSegmentSimulator,
)


#: The sample loop's duration on the host the benchmark was written on (a
#: 2-CPU x86_64 VM, Python 3.11) when its cores are not contended.
REFERENCE_SAMPLE_S = 250e-6


class HostSpeed:
    """Samples how fast the host runs Python while a pass executes.

    Every 50 ms a ``SIGALRM`` handler times a fixed loop of the operations a
    simulation spends its time on: deque pushes and pops, small tuples, dict
    stores.  Under contention from other tenants that loop slows in
    proportion to the workloads (fitted exponent 0.99 on ``line-pts-steady``
    and 0.87 on ``line-hpts-multidest``); an arithmetic loop that stays in
    the L1 cache slowed only two thirds as much.
    """

    INTERVAL_S = 0.05
    #: A forked worker writes the mean of every this many samples.
    REPORT_EVERY = 20

    def __init__(self, report_fd: Optional[int] = None) -> None:
        #: The benchmark sets this to what the pass is doing, so that set-up
        #: and execution are each scaled by the speed seen while they ran.
        self.phase = "run"
        self.samples: Dict[str, List[float]] = {"setup": [], "run": []}
        #: Where a forked worker writes its sample means.
        self.report_fd = report_fd

    def _sample(self, *_: Any) -> None:
        start = time.perf_counter()
        queue: deque = deque()
        latest = {}
        total = 0
        for i in range(1200):
            queue.append((i, i & 7))
            latest[i & 63] = queue[-1]
            if len(queue) > 40:
                total += queue.popleft()[1]
        samples = self.samples[self.phase]
        samples.append(time.perf_counter() - start)
        if self.report_fd is not None and len(samples) == self.REPORT_EVERY:
            self.flush(self.phase)

    def flush(self, phase: str) -> None:
        """Write ``phase``'s samples to ``report_fd`` as one mean."""
        samples = self.samples[phase]
        if samples:
            line = json.dumps(
                {"phase": phase, "speed": statistics.mean(samples), "n": len(samples)}
            )
            os.write(self.report_fd, (line + "\n").encode())
            samples.clear()

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *_: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not any(self.samples.values()):
            self._sample()

    def factor(self, phase: Optional[str] = None) -> float:
        """Raw seconds spent in ``phase`` (default: the whole pass) times
        this are reference seconds."""
        chosen = self.samples.get(phase) or self.samples["setup"] + self.samples["run"]
        return REFERENCE_SAMPLE_S / statistics.mean(chosen)


def reference_factor(batches: List[Tuple[float, int]]) -> float:
    """The factor for (mean, count) batches of samples a worker reported."""
    count = sum(n for _, n in batches)
    return REFERENCE_SAMPLE_S * count / sum(mean * n for mean, n in batches)


class Tracer:
    """Per-name span totals for one process."""

    def __init__(self) -> None:
        #: Write end of a pipe a forked worker reports its set-up spans to.
        self.report_fd: Optional[int] = None
        self.root_pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.wall: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[List[float]] = []
        self._open: Dict[str, int] = defaultdict(int)

    def _enter(self, name: str) -> float:
        self._stack.append([0.0])
        self._open[name] += 1
        return time.perf_counter()

    def _exit(self, name: str, start: float) -> None:
        elapsed = time.perf_counter() - start
        children = self._stack.pop()[0]
        self.self_s[name] += elapsed - children
        if self._stack:
            self._stack[-1][0] += elapsed
        self._open[name] -= 1
        if not self._open[name]:
            self.wall[name] += elapsed
            if name == "setup.engine" and self.pid != self.root_pid:
                self._report_setup()

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Optional[str] = None,
        size: Optional[Callable[[Any], int]] = None,
    ) -> Callable:
        """``fn`` timed as span ``name``; ``count`` adds 1 per call, or
        ``size(result)`` when given."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            start = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, start)
            if count is not None:
                self.counts[count] += 1 if size is None else size(result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def span(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        start = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(name, start)

    # -- forked sharded workers ----------------------------------------------------

    def enter_process(self) -> None:
        """Called at each set-up: a forked worker starts from clean totals,
        and samples its own speed for the pass."""
        if os.getpid() != self.pid:
            self.reset()
            if self.report_fd is not None:
                # Runs until the worker exits; the pass reads what it wrote.
                self._speed = HostSpeed(self.report_fd)
                self._speed.phase = "setup"
                self._speed.__enter__()

    def _report_setup(self) -> None:
        if self.report_fd is None:
            return
        line = json.dumps({name: self.wall.get(name, 0.0) for name in SETUP_SPANS})
        os.write(self.report_fd, (line + "\n").encode())
        self._speed.phase = "run"
        self._speed.flush("setup")


class Patches:
    """Attribute swaps that :meth:`undo` reverts, last first."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        own = vars(owner)
        self._undo.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, had, old = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)


def install_boundaries(tracer: Tracer, patches: Patches) -> None:
    """Always on: ``Session.prepare`` and engine construction, the two parts
    of ``setup_s``.  Both are entered once per scenario."""
    prepare = Session.prepare

    def timed_prepare(session: Session, spec: Any) -> PreparedRun:
        tracer.enter_process()
        return tracer.span("setup.prepare", prepare, session, spec)

    patches.set(Session, "prepare", timed_prepare)
    for engine in _ENGINE_CLASSES:
        patches.set(engine, "__init__", tracer.wrap("setup.engine", engine.__init__))


def install_setup_layers(tracer: Tracer, patches: Patches) -> None:
    """Traced runs: the three registry builders ``Session.prepare`` calls."""
    patches.set(Session, "topology", tracer.wrap("setup.topology", Session.topology))
    for table, name in (
        (registry.ADVERSARIES, "setup.adversary"),
        (registry.ALGORITHMS, "setup.algorithm"),
    ):
        lookup = table.get
        patches.set(
            table, "get",
            lambda key, _lookup=lookup, _name=name: tracer.wrap(_name, _lookup(key)),
        )


def install_engine_layers(tracer: Tracer, patches: Patches) -> None:
    """Traced single-process runs: the delta engine's run loop, and the batch
    engine's run split into its injection phase and its drain.

    The batch split runs ``BatchSimulator.run(h, drain=False)`` and then
    ``run(h)``; the second call resumes at round ``h`` and only drains, which
    the digest comparison with the untraced run proves result-neutral.
    """
    patches.set(Simulator, "run", tracer.wrap("simulator", Simulator.run))
    batch_run = batch.BatchSimulator.run

    def split_run(engine: Any, num_rounds: Optional[int] = None, *,
                  drain: bool = True, **kwargs: Any) -> Any:
        horizon = num_rounds if num_rounds is not None else engine.adversary.horizon
        if not drain:
            return tracer.span("batch.inject_phase", batch_run, engine, horizon,
                               drain=False, **kwargs)
        tracer.span("batch.inject_phase", batch_run, engine, horizon,
                    drain=False, **kwargs)
        tracer.counts["batch.in_flight_at_horizon"] += (
            engine.algorithm.pending_packets()
        )
        result = tracer.span("batch.drain", batch_run, engine, horizon,
                             drain=True, **kwargs)
        tracer.counts["batch.rounds"] += result.rounds_executed
        return result

    patches.set(batch.BatchSimulator, "run", split_run)


def install_sharded_layer(tracer: Tracer, patches: Patches) -> None:
    """Traced sharded runs: the coordinator's ``run_sharded`` call, which
    ``Session.run`` looks up on the module at call time."""
    patches.set(sharded, "run_sharded", tracer.wrap("sharded.run", sharded.run_sharded))


def wrap_hooks(tracer: Tracer, prepared: PreparedRun) -> None:
    """Traced runs: the public hooks the delta engine calls every round, on
    this run's own algorithm and adversary instances."""
    adversary = prepared.adversary
    adversary.injections_for_round = tracer.wrap(
        "adversary.rows", adversary.injections_for_round
    )
    algorithm = prepared.algorithm
    for attr, name, count, size in (
        ("on_inject", "core.inject", None, None),
        ("occupancy_delta", "core.measure", None, None),
        ("staged_count", "core.measure", None, None),
        ("select_activations", "core.select", "core.activations", len),
        ("on_arrival", "core.arrival", "core.arrivals", None),
        ("on_round_end", "core.round_end", None, None),
    ):
        setattr(algorithm, attr, tracer.wrap(name, getattr(algorithm, attr), count, size))
