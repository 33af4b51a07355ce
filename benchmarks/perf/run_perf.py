#!/usr/bin/env python
"""Engine micro-benchmarks: rounds/sec and peak memory per engine.

This is the perf-regression harness the CI ``perf`` job runs (and the one to
run by hand before/after engine changes):

* **engine cases** time the raw round loop of the delta engine —
  ``Simulator.run`` with a fixed number of injection rounds and no drain —
  on line and tree topologies with PTS / PPTS / HPTS / greedy / tree-PPTS at
  ``n`` in {64, 256};
* **stream cases** run the memory-lean path (``history="streaming"`` plus a
  lazy ``stream=True`` adversary) at ``n = 4096``;
* **batch cases** time the vectorized batch-round kernel
  (:mod:`repro.network.batch`) on the same line specs, publishing
  ``speedup_vs_delta`` next to each row's ``engine/`` twin;
* **batch_sharded cases** time the batch kernel split across worker
  processes (window mode over shared-memory boundary rings) on a heavy
  n=4096 line/PTS case at 1/2/4 workers, publishing ``speedup_vs_batch``
  next to the single-process ``batch/`` twin.  These rows record the
  machine's core count and are gated only where cores >= workers — on a
  single-core runner the workers timeshare one CPU and wall-clock says
  nothing about the parallel path;
* one **checkpoint case** records the snapshot size of the streaming case
  halfway through its run.

Every case is timed :data:`REPEATS` times, each inside the benchmark's
``HostSpeed`` (``perfbench/tracing.py``): every 50 ms it times a fixed
deque/dict loop under the same contention as the case, and the repeat's
seconds are scaled by ``factor()`` into *reference seconds* — the seconds it
would have taken had the host run at the benchmark's reference speed.  The
row keeps the repeat with the median reference time.  Rows
record raw ``rounds_per_sec`` and ``reference_rounds_per_sec``; the gate
reads the latter, so a busy neighbour on a shared host does not read as a
regression and the committed baseline does not encode one machine's speed.

Every engine/stream/batch case also reports **peak memory** (tracemalloc,
covering topology + algorithm construction and the full run), and ``--check``
gates both directions: reference throughput must not drop more than
``--tolerance`` below the baseline, peak memory (and the checkpoint size)
must not grow more than ``--mem-tolerance`` above it.

``--smoke-mem`` ignores the case table and instead runs the million-node
streaming smoke: an ``n = 10^6`` line, ``10^4`` injection rounds of the
trickle adversary under PTS with ``history="streaming"``, asserting the
process's peak RSS stays under ``--smoke-limit-mb`` (default 2048).
``--smoke-batch-shards`` runs the batch x shards worker-failure smoke.

Usage::

    python benchmarks/perf/run_perf.py --output BENCH_engine.json
    python benchmarks/perf/run_perf.py --check benchmarks/perf/baseline.json

``--check`` exits non-zero if any case regressed past its gate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import tracemalloc
from typing import Any, Callable, Dict, List, Optional, Tuple

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if not any(os.path.basename(p) == "src" for p in sys.path):
    sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))
sys.path.insert(0, os.path.join(_REPO_ROOT, "perfbench"))

from repro.api.session import PreparedRun, Session  # noqa: E402
from repro.api.specs import ScenarioSpec  # noqa: E402
from repro.core.packet import packet_id_scope  # noqa: E402
from repro.network.batch import BatchSimulator  # noqa: E402
from repro.network.simulator import Simulator  # noqa: E402
from tracing import HostSpeed  # noqa: E402

SCHEMA = "BENCH_engine/v6"

#: Timings per case; the median (in reference seconds) is kept.
REPEATS = 3

#: (n, engine rounds) per case tier.
SIZES = [(64, 1024), (256, 512)]

#: (n, rounds) of the streaming (memory-lean) case.  It runs the lazy
#: trickle adversary with ``history="streaming"`` — footprint is dominated by
#: per-node construction plus packets in flight, not by the horizon.
STREAM_SIZE = (4096, 2048)

#: (n, rounds) of the batch x shards cases.  The single-process ``batch/``
#: twin runs about 0.1 s at this horizon; at 1024 rounds it ran about 20 ms,
#: less than ``HostSpeed``'s 50 ms sampling interval, and its scaled rate
#: swung past the 30% gate.
BATCH_SHARDED_SIZE = (4096, 4096)

#: The million-node smoke scenario (``--smoke-mem``).
SMOKE_NODES = 1_000_000
SMOKE_ROUNDS = 10_000

#: Memory gates only fire above this baseline peak: tiny-case peaks are
#: allocator-jitter territory and would make the gate flaky.
MEM_GATE_FLOOR_BYTES = 512 * 1024

#: Binary-tree depth giving roughly n nodes (2**(depth+1) - 1).
TREE_DEPTHS = {64: 5, 256: 7}

_ENGINES = {"delta": Simulator, "batch": BatchSimulator}


def _line_spec(algorithm: str, n: int, rounds: int) -> ScenarioSpec:
    algo_params: Dict[str, Any] = {}
    adversary: Dict[str, Any] = {
        "name": "bounded",
        "rho": 0.9,
        "sigma": 4.0,
        "rounds": rounds,
        "params": {"num_destinations": 8},
    }
    if algorithm == "pts":
        adversary = {
            "name": "single",
            "rho": 1.0,
            "sigma": 4.0,
            "rounds": rounds,
            "params": {},
        }
    elif algorithm == "hpts":
        algo_params = {"levels": 2}
        adversary["rho"] = 0.5  # Theorem 4.1 needs rho * ell <= 1
    return ScenarioSpec.from_dict(
        {
            "name": f"perf/line/{algorithm}/n{n}",
            "topology": {"kind": "line", "params": {"num_nodes": n}},
            "algorithm": {"name": algorithm, "params": algo_params},
            "adversary": adversary,
            "policy": {"seed": 7, "drain": True},
        }
    )


def _tree_spec(n: int, rounds: int) -> ScenarioSpec:
    depth = TREE_DEPTHS[n]
    return ScenarioSpec.from_dict(
        {
            "name": f"perf/tree/tree-ppts/n{n}",
            "topology": {"kind": "tree", "params": {"family": "binary", "depth": depth}},
            "algorithm": {"name": "tree-ppts", "params": {}},
            "adversary": {
                "name": "bounded",
                "rho": 0.9,
                "sigma": 4.0,
                "rounds": rounds,
                "params": {},
            },
            "policy": {"seed": 7, "drain": True},
        }
    )


def _stream_spec(n: int, rounds: int) -> ScenarioSpec:
    """The memory-lean path: lazy trickle injections, streaming history."""
    return ScenarioSpec.from_dict(
        {
            "name": f"perf/stream/pts/n{n}",
            "topology": {"kind": "line", "params": {"num_nodes": n}},
            "algorithm": {"name": "pts", "params": {}},
            "adversary": {
                "name": "trickle",
                "rho": 1.0,
                "sigma": 1.0,
                "rounds": rounds,
                "params": {"stream": True},
            },
            "policy": {"seed": 7, "drain": False, "history": "streaming"},
        }
    )


def _sharded_smoke_spec(
    n: int, rounds: int, extra_policy: Optional[Dict[str, Any]] = None
) -> ScenarioSpec:
    """The batch x shards smoke workload: enough per-round move work (greedy
    visits every nonempty buffer) that boundary exchange is a small
    fraction."""
    policy: Dict[str, Any] = {"seed": 7, "drain": False, "history": "streaming"}
    if extra_policy:
        policy.update(extra_policy)
    return ScenarioSpec.from_dict(
        {
            "name": f"perf/sharded/greedy/n{n}",
            "topology": {"kind": "line", "params": {"num_nodes": n}},
            "algorithm": {"name": "greedy", "params": {}},
            "adversary": {
                "name": "trickle",
                "rho": 1.0,
                "sigma": 1.0,
                "rounds": rounds,
                "params": {
                    "stream": True,
                    "destinations": [n // 4, n // 2, n - 1],
                },
            },
            "policy": policy,
        }
    )


def _batch_sharded_spec(n: int, rounds: int,
                        extra_policy: Optional[Dict[str, Any]] = None) -> ScenarioSpec:
    """The batch x shards workload: work-conserving line/PTS under the
    saturating single adversary (rho=1.0).  Work-conserving mode forwards
    from *every* non-empty buffer each round, so per-round cost grows with
    the packets in flight (~n at this rho) — heavy enough that splitting
    the line across workers buys real wall-clock on a multi-core machine
    instead of measuring spawn overhead."""
    policy: Dict[str, Any] = {
        "seed": 7, "drain": False, "engine": "batch", "batch_rounds": 64,
    }
    if extra_policy:
        policy.update(extra_policy)
    return ScenarioSpec.from_dict(
        {
            "name": f"perf/batch-sharded/pts/n{n}",
            "topology": {"kind": "line", "params": {"num_nodes": n}},
            "algorithm": {"name": "pts", "params": {"work_conserving": True}},
            "adversary": {
                "name": "single",
                "rho": 1.0,
                "sigma": 4.0,
                "rounds": rounds,
                "params": {},
            },
            "policy": policy,
        }
    )


def _specs() -> List[ScenarioSpec]:
    specs = []
    for n, rounds in SIZES:
        for algorithm in ("pts", "ppts", "hpts", "greedy"):
            specs.append(_line_spec(algorithm, n, rounds))
        specs.append(_tree_spec(n, rounds))
    return specs


def _build(session: Session, spec: ScenarioSpec,
           engine: str = "delta") -> Tuple[PreparedRun, Any]:
    """Prepare ``spec`` and construct its engine; call inside a
    ``packet_id_scope`` so every build numbers its packets alike."""
    prepared = session.prepare(spec)
    simulator = _ENGINES[engine](
        prepared.topology, prepared.algorithm, prepared.adversary,
        history=spec.policy.history,
    )
    return prepared, simulator


def _timed(fn: Callable[..., Any], *args: Any,
           **kwargs: Any) -> Tuple[Any, Tuple[float, float]]:
    """Call ``fn`` inside a ``HostSpeed``: its result and the (reference,
    raw) seconds it took.

    ``factor()`` turns raw seconds into reference seconds.  A call shorter
    than the 50 ms sampling interval gets the one sample ``HostSpeed`` takes
    as it exits, right after the call.
    """
    with HostSpeed() as speed:
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        took = time.perf_counter() - start
    return result, (took * speed.factor(), took)


def _row(name: str, kind: str, spec: ScenarioSpec, n: int,
         timings: List[Tuple[float, float]]) -> Dict[str, Any]:
    """One timed case, from the repeat with the median reference time.

    Each repeat is scaled by the host speed sampled while it ran.  On a
    shared 2-CPU host the median scaled repeat varied less from run to run
    than the fastest scaled repeat, and far less than the fastest raw one.
    """
    reference, elapsed = sorted(timings)[len(timings) // 2]
    rounds = spec.adversary.rounds
    return {
        "case": name,
        "kind": kind,
        "n": n,
        "algorithm": spec.algorithm.name,
        "topology": spec.topology.kind,
        "rounds": rounds,
        "elapsed_sec": elapsed,
        "rounds_per_sec": rounds / elapsed,
        "host_factor": reference / elapsed,
        "reference_rounds_per_sec": rounds / reference,
    }


def _time_case(session: Session, spec: ScenarioSpec, engine: str,
               kind: str) -> Dict[str, Any]:
    """Time the raw round loop: fixed injection rounds, no drain.

    Each repeat rebuilds the run from the spec in a fresh packet-id scope,
    so every timing measures the identical execution; ``engine/`` and
    ``batch/`` rows of one spec differ only in the engine class.
    """
    timings = []
    for _ in range(REPEATS):
        with packet_id_scope():
            prepared, simulator = _build(session, spec, engine)
            _, timing = _timed(simulator.run, spec.adversary.rounds, drain=False)
            timings.append(timing)
    prefix = "batch" if engine == "batch" else "engine"
    return _row(f"{prefix}/{spec.label}", kind, spec,
                prepared.topology.num_nodes, timings)


def _time_batch_sharded(spec: ScenarioSpec, shards: int) -> Dict[str, Any]:
    """Time the batch kernel split across worker processes (window mode).

    The row records ``cpus`` because its throughput is only meaningful as a
    *parallel* speedup when the machine has at least ``shards`` cores: on
    fewer cores the workers timeshare one CPU and the ring waits dominate,
    so :func:`check_regression` skips these rows there (the smokes likewise
    gate memory, never wall-clock).
    """
    from repro.network.sharded import run_sharded

    timings = []
    for _ in range(REPEATS):
        (result, extras), timing = _timed(run_sharded, spec, shards=shards)
        timings.append(timing)
    case = _row(f"batch_sharded{shards}/{spec.label}", "batch_sharded", spec,
                result.num_nodes, timings)
    case.update(shards=shards, cpus=os.cpu_count(),
                transport=extras["engine"]["transport"])
    return case


def _measure_peak_memory(spec: ScenarioSpec, engine: str) -> int:
    """Peak tracemalloc bytes for one prepared run (construction included).

    Uses an uncached Session so topology construction — the n-proportional
    part of a scenario's footprint — is traced along with the round loop.
    tracemalloc numbers are Python-allocation counts, so they transfer
    across machines (unlike RSS) and can live in the committed baseline.
    """
    tracemalloc.start()
    try:
        with packet_id_scope():
            _, simulator = _build(Session(cache_topologies=False), spec, engine)
            simulator.run(spec.adversary.rounds, drain=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak


def _checkpoint_case(spec: ScenarioSpec) -> Dict[str, Any]:
    """Measure the checkpoint round trip on the streaming case: run to the
    halfway round, save, load + restore; publish the file size so regressions
    in snapshot footprint show up in BENCH_engine.json like memory does."""
    import tempfile

    from repro.checkpoint import load_checkpoint, restore_into

    session = Session(cache_topologies=False)
    rounds = spec.adversary.rounds
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "bench.ckpt")
        with packet_id_scope():
            prepared, simulator = _build(session, spec)
            simulator.run(rounds // 2, drain=False)
            start = time.perf_counter()
            ckpt_bytes = simulator.save_checkpoint(path, spec=spec)
            save_sec = time.perf_counter() - start
        with packet_id_scope():
            _, restored = _build(session, spec)
            start = time.perf_counter()
            restore_into(restored, load_checkpoint(path))
            load_sec = time.perf_counter() - start
    return {
        "case": f"checkpoint/{spec.label}",
        "kind": "checkpoint",
        "n": prepared.topology.num_nodes,
        "rounds": rounds // 2,
        "ckpt_bytes": ckpt_bytes,
        "save_sec": save_sec,
        "load_sec": load_sec,
    }


def _print_row(case: Dict[str, Any], note: str) -> None:
    print(f"{case['case']:<44} {case['rounds_per_sec']:>8.0f} r/s raw "
          f"{case['reference_rounds_per_sec']:>8.0f} ref ({note})")


def run_suite() -> Dict[str, Any]:
    session = Session()
    cases: List[Dict[str, Any]] = []
    timed = [(spec, "engine") for spec in _specs()]
    timed.append((_stream_spec(*STREAM_SIZE), "stream"))
    for spec, kind in timed:
        case = _time_case(session, spec, "delta", kind)
        case["peak_mem_bytes"] = _measure_peak_memory(spec, "delta")
        cases.append(case)
        _print_row(case, f"{case['peak_mem_bytes'] / 1e6:.1f} MB peak")
    # The batch kernel on every line spec (the fused scan for pts/greedy,
    # the pseudo-buffer kind for ppts/hpts), one row per (algorithm, n) next
    # to its engine/ twin so the speedup is visible in the JSON.
    delta_by_case = {case["case"]: case for case in cases}
    for n, rounds in SIZES:
        for algorithm in ("pts", "ppts", "hpts", "greedy"):
            spec = _line_spec(algorithm, n, rounds)
            case = _time_case(session, spec, "batch", "batch")
            case["peak_mem_bytes"] = _measure_peak_memory(spec, "batch")
            twin = delta_by_case[f"engine/{spec.label}"]
            case["speedup_vs_delta"] = (
                case["reference_rounds_per_sec"] / twin["reference_rounds_per_sec"]
            )
            cases.append(case)
            _print_row(case, f"{case['speedup_vs_delta']:.1f}x vs engine, "
                             f"{case['peak_mem_bytes'] / 1e6:.1f} MB peak")
    # Batch x shards: the window-mode engine (k-round free-running workers
    # exchanging boundary blocks over shared-memory rings) on the heavy
    # line/PTS case, next to its single-process batch/ twin.  The 1-worker
    # row isolates the sharding overhead itself.
    bs_spec = _batch_sharded_spec(*BATCH_SHARDED_SIZE)
    bs_twin = _time_case(session, bs_spec, "batch", "batch")
    cases.append(bs_twin)
    _print_row(bs_twin, "1 process")
    for shards in (1, 2, 4):
        case = _time_batch_sharded(bs_spec, shards)
        case["speedup_vs_batch"] = (
            case["reference_rounds_per_sec"] / bs_twin["reference_rounds_per_sec"]
        )
        cases.append(case)
        _print_row(case, f"{shards} workers, {case['speedup_vs_batch']:.2f}x vs "
                         f"batch, {case['transport']} transport")
    # Checkpoint round trip on the streaming case: snapshot size is part of
    # the published surface (resume cost scales with it).
    case = _checkpoint_case(_stream_spec(*STREAM_SIZE))
    cases.append(case)
    print(
        f"{case['case']:<44} {case['ckpt_bytes'] / 1e3:>8.1f} KB ckpt  "
        f"(save {case['save_sec'] * 1e3:.1f} ms, load {case['load_sec'] * 1e3:.1f} ms)"
    )
    return {
        "schema": SCHEMA,
        "repeats": REPEATS,
        "cpus": os.cpu_count(),
        "cases": cases,
    }


def check_regression(
    current: Dict[str, Any],
    baseline_path: str,
    tolerance: float,
    mem_tolerance: float = 0.30,
) -> List[str]:
    """Compare reference throughput, peak memory and checkpoint size per case.

    Throughput gates downward (slower than baseline - tolerance fails);
    memory gates upward (fatter than baseline + mem_tolerance fails, for
    cases whose baseline peak exceeds :data:`MEM_GATE_FLOOR_BYTES`), and so
    does the checkpoint size.
    """
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    baseline_by_case = {case["case"]: case for case in baseline.get("cases", [])}
    failures = []
    matched = 0
    for case in current["cases"]:
        reference = baseline_by_case.get(case["case"])
        if reference is None:
            print(f"warning: no baseline entry for {case['case']} "
                  f"(regenerate {baseline_path}?)")
            continue
        matched += 1
        if case.get("kind") == "batch_sharded":
            shards = case.get("shards", 1)
            cpus = case.get("cpus") or 1
            if cpus < shards:
                # Fewer cores than workers: the workers timeshare one CPU
                # and ring waits dominate wall-clock, so neither the
                # throughput nor the parallel speedup is meaningful (the
                # smokes likewise never gate wall-clock).
                print(f"note: skipping gate for {case['case']} "
                      f"({cpus} cpus < {shards} workers)")
                continue
            reference_speedup = reference.get("speedup_vs_batch")
            current_speedup = case.get("speedup_vs_batch")
            if reference_speedup is not None and current_speedup is not None:
                floor = reference_speedup * (1.0 - tolerance)
                if current_speedup < floor:
                    failures.append(
                        f"{case['case']}: speedup_vs_batch "
                        f"{current_speedup:.2f}x < {floor:.2f}x "
                        f"(baseline {reference_speedup:.2f}x - {tolerance:.0%})"
                    )
        reference_throughput = reference.get("reference_rounds_per_sec")
        current_throughput = case.get("reference_rounds_per_sec")
        if reference_throughput is not None and current_throughput is not None:
            floor = reference_throughput * (1.0 - tolerance)
            if current_throughput < floor:
                failures.append(
                    f"{case['case']}: reference throughput "
                    f"{current_throughput:.0f} r/s < {floor:.0f} r/s "
                    f"(baseline {reference_throughput:.0f} r/s - {tolerance:.0%})"
                )
        # Checkpoint size gates upward like memory: a fatter snapshot is a
        # regression in resume cost.
        reference_ckpt = reference.get("ckpt_bytes")
        current_ckpt = case.get("ckpt_bytes")
        if reference_ckpt is not None and current_ckpt is not None:
            ceiling = reference_ckpt * (1.0 + mem_tolerance)
            if current_ckpt > ceiling:
                failures.append(
                    f"{case['case']}: checkpoint size {current_ckpt / 1e3:.1f} KB > "
                    f"{ceiling / 1e3:.1f} KB (baseline {reference_ckpt / 1e3:.1f} KB "
                    f"+ {mem_tolerance:.0%})"
                )
        reference_peak = reference.get("peak_mem_bytes")
        current_peak = case.get("peak_mem_bytes")
        if (
            reference_peak is not None
            and current_peak is not None
            and reference_peak >= MEM_GATE_FLOOR_BYTES
        ):
            ceiling = reference_peak * (1.0 + mem_tolerance)
            if current_peak > ceiling:
                failures.append(
                    f"{case['case']}: peak memory {current_peak / 1e6:.1f} MB > "
                    f"{ceiling / 1e6:.1f} MB (baseline {reference_peak / 1e6:.1f} MB "
                    f"+ {mem_tolerance:.0%})"
                )
    if matched == 0:
        # Renamed cases must not turn the gate green vacuously.
        failures.append(
            f"no current case matched any baseline entry in {baseline_path}; "
            f"regenerate the baseline"
        )
    return failures


def run_smoke(limit_mb: float, nodes: int = SMOKE_NODES,
              rounds: int = SMOKE_ROUNDS, checkpoint: bool = False) -> int:
    """The million-node streaming smoke: bounded-memory proof at full scale.

    Runs ``n = nodes`` line/PTS for ``rounds`` injection rounds with the lazy
    trickle adversary and ``history="streaming"``, then checks the process's
    peak RSS (``ru_maxrss`` — the honest whole-process number, which is why
    this is a standalone mode and not a tracemalloc case) against the limit.

    With ``checkpoint=True`` the same scenario is additionally run as a
    save/restore round trip — run to the halfway round, snapshot, rebuild
    from the file, finish — asserting the resumed ``SimulationResult`` is
    identical to the uninterrupted one and that the whole exercise stays
    inside the same RSS budget.  The batch kernel then writes the same
    halfway snapshot, which must be byte-identical to the delta engine's.
    The snapshot size is reported.
    """
    import filecmp
    import gc
    import resource
    import tempfile

    spec = _stream_spec(nodes, rounds)
    session = Session(cache_topologies=False)
    start = time.perf_counter()
    with packet_id_scope():
        prepared, simulator = _build(session, spec)
        build_elapsed = time.perf_counter() - start
        result = simulator.run(rounds, drain=False)
    elapsed = time.perf_counter() - start
    in_flight = len(simulator.packets)
    print(f"smoke: n={nodes} rounds={rounds} "
          f"injected={result.packets_injected} delivered={result.packets_delivered} "
          f"in_flight={in_flight} max_occupancy={result.max_occupancy}")
    print(f"smoke: construction {build_elapsed:.1f}s, total {elapsed:.1f}s, "
          f"{rounds / max(elapsed - build_elapsed, 1e-9):.0f} rounds/s")

    roundtrip_failed = False
    if checkpoint:
        # Free the reference engine before the round trip so the peak RSS
        # measures one live engine at a time, as a real resume would.
        del simulator, prepared
        gc.collect()
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "smoke.ckpt")
            with packet_id_scope():
                prepared, partial = _build(session, spec)
                partial.run(rounds // 2, drain=False)
                ckpt_bytes = partial.save_checkpoint(path, spec=spec)
            del partial, prepared
            gc.collect()
            resumed = Session(cache_topologies=False).resume(path)
            batch_path = os.path.join(scratch, "smoke-batch.ckpt")
            with packet_id_scope():
                prepared, partial = _build(session, spec, engine="batch")
                partial.run(rounds // 2, drain=False)
                partial.save_checkpoint(batch_path, spec=spec)
            del partial, prepared
            gc.collect()
            same_bytes = filecmp.cmp(path, batch_path, shallow=False)
        print(f"smoke: checkpoint round trip at round {rounds // 2}, "
              f"{ckpt_bytes / 1e6:.1f} MB snapshot")
        if resumed.result != result:
            print("SMOKE FAILURE: resumed result differs from the "
                  "uninterrupted run")
            roundtrip_failed = True
        else:
            print("smoke: resumed result is identical to the uninterrupted run")
        if not same_bytes:
            print("SMOKE FAILURE: the batch kernel's halfway snapshot differs "
                  "from the delta engine's")
            roundtrip_failed = True
        else:
            print("smoke: batch and delta halfway snapshots are byte-identical")

    # ru_maxrss is kilobytes on Linux but bytes on macOS.
    rss_divisor = 1024.0 ** 2 if sys.platform == "darwin" else 1024.0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / rss_divisor
    print(f"smoke: peak RSS {peak_rss_mb:.0f} MB (limit {limit_mb:.0f} MB)")
    if peak_rss_mb > limit_mb:
        print("SMOKE FAILURE: peak RSS exceeds the documented memory bound")
        return 1
    if roundtrip_failed:
        return 1
    print("smoke ok: streaming run stayed within the memory bound")
    return 0


def run_smoke_batch_shards(limit_mb: float, nodes: int = 100_000,
                           rounds: int = 2_000, shards: int = 2) -> int:
    """The batch x shards smoke: a streaming n=1e5 line split across batch
    segment workers, one of which is killed mid-window.

    Runs the greedy/trickle streaming workload with ``engine="batch"`` on
    ``shards`` workers, with ``BatchSegmentSimulator.run_window`` patched
    before the workers fork so that segment 0 exits hard (``os._exit``, as a
    SIGKILL'd or OOM-killed worker would) at round 780, inside the window
    [768, 832).  Gates: the run raises the typed ``WorkerFailedError``
    naming segment 0, no worker process survives it, no shared-memory ring
    is left in ``/dev/shm``, and the whole-tree peak-RSS estimate
    (coordinator + ``shards`` x largest worker: ``ru_maxrss`` for children
    reports the max over reaped workers, not a sum, so the gate
    conservatively assumes every worker hit that max at once) stays under
    ``limit_mb``.
    """
    import multiprocessing
    import resource

    from repro.network.batch_sharded import BatchSegmentSimulator
    from repro.network.errors import WorkerFailedError
    from repro.network.sharded import run_sharded

    def shm_names() -> set:
        try:
            return set(os.listdir("/dev/shm"))
        except OSError:
            return set()

    kill_round, kill_segment = 780, 0
    real_run_window = BatchSegmentSimulator.run_window

    def run_window(simulator, t0, t1, **kwargs):
        if simulator.segment_index == kill_segment and t0 <= kill_round < t1:
            real_run_window(simulator, t0, kill_round, **kwargs)
            os._exit(70)
        return real_run_window(simulator, t0, t1, **kwargs)

    spec = _sharded_smoke_spec(nodes, rounds, {"engine": "batch",
                                               "batch_rounds": 64})
    shm_before = shm_names()
    failure: Optional[WorkerFailedError] = None
    BatchSegmentSimulator.run_window = run_window
    start = time.perf_counter()
    try:
        run_sharded(spec, shards=shards)
    except WorkerFailedError as error:
        failure = error
    finally:
        BatchSegmentSimulator.run_window = real_run_window
    elapsed = time.perf_counter() - start
    survivors = multiprocessing.active_children()
    leaked = shm_names() - shm_before
    print(f"batch-shards smoke: n={nodes} rounds={rounds} shards={shards}, "
          f"segment {kill_segment} killed at round {kill_round}, "
          f"run ended after {elapsed:.1f}s")
    if failure is None:
        print("SMOKE FAILURE: the run did not raise WorkerFailedError")
        return 1
    print(f"batch-shards smoke: WorkerFailedError: {failure}")
    if failure.segment != kill_segment:
        print(f"SMOKE FAILURE: the error names segment {failure.segment}, "
              f"not the killed segment {kill_segment}")
        return 1
    if survivors:
        print(f"SMOKE FAILURE: worker processes survived: {survivors}")
        return 1
    if leaked:
        print(f"SMOKE FAILURE: shared-memory rings left behind: "
              f"{sorted(leaked)}")
        return 1
    print("batch-shards smoke: no worker and no ring survived the failure")

    rss_divisor = 1024.0 ** 2 if sys.platform == "darwin" else 1024.0
    peak_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / rss_divisor
    peak_worker = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / rss_divisor
    )
    tree_estimate = peak_self + shards * peak_worker
    print(f"batch-shards smoke: peak RSS coordinator {peak_self:.0f} MB, "
          f"largest worker {peak_worker:.0f} MB -> whole-tree estimate "
          f"{tree_estimate:.0f} MB (limit {limit_mb:.0f} MB)")
    if tree_estimate > limit_mb:
        print("SMOKE FAILURE: estimated whole-tree peak RSS exceeds the "
              "documented memory bound")
        return 1
    print("smoke ok: a dead batch x shards worker fails the run cleanly "
          "within the memory bound")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_engine.json", help="result JSON path")
    parser.add_argument("--check", default=None, metavar="BASELINE",
                        help="fail if throughput or memory regressed vs this baseline JSON")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional reference-throughput regression "
                             "for --check (default 0.30)")
    parser.add_argument("--mem-tolerance", type=float, default=0.30,
                        help="allowed fractional peak-memory growth for --check "
                             "(default 0.30)")
    parser.add_argument("--smoke-mem", action="store_true",
                        help=f"run the n={SMOKE_NODES} streaming smoke instead of the "
                             f"case table and check its peak RSS")
    parser.add_argument("--smoke-limit-mb", type=float, default=2048.0,
                        help="peak-RSS bound for --smoke-mem (default 2048)")
    parser.add_argument("--smoke-checkpoint", action="store_true",
                        help="with --smoke-mem: also run a save/restore round "
                             "trip at the halfway round and require the "
                             "resumed result to be identical (same RSS budget)")
    parser.add_argument("--smoke-batch-shards", action="store_true",
                        help="run the batch x shards smoke instead of the case "
                             "table: an n=1e5 streaming line on 2 batch "
                             "segment workers, one killed mid-window, "
                             "requiring a typed WorkerFailedError with no "
                             "surviving worker or ring, inside the RSS "
                             "budget (default limit 768 MB; override with "
                             "--smoke-limit-mb)")
    parser.add_argument("--smoke-nodes", type=int, default=SMOKE_NODES,
                        help=argparse.SUPPRESS)
    parser.add_argument("--smoke-rounds", type=int, default=SMOKE_ROUNDS,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.smoke_batch_shards:
        limit = args.smoke_limit_mb
        if limit == parser.get_default("smoke_limit_mb"):
            limit = 768.0
        return run_smoke_batch_shards(limit)

    if args.smoke_mem:
        return run_smoke(args.smoke_limit_mb, args.smoke_nodes, args.smoke_rounds,
                         checkpoint=args.smoke_checkpoint)

    results = run_suite()
    with open(args.output, "w") as handle:
        json.dump(results, handle, indent=2)
    print(f"\nwrote {args.output} ({len(results['cases'])} cases)")

    if args.check:
        failures = check_regression(
            results, args.check, args.tolerance, args.mem_tolerance
        )
        if failures:
            print("\nPERF/MEM REGRESSION:")
            for failure in failures:
                print(f"  {failure}")
            return 1
        print(f"no regression vs {args.check} "
              f"(throughput tolerance {args.tolerance:.0%}, "
              f"memory tolerance {args.mem_tolerance:.0%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
