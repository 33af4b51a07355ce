"""Measurement of one workload: passes, metrics, oracle check and output.

Imported by ``run.py`` once ``src/`` is on the import path; see ``run.py``
for what a run does and prints.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

from oracle import Oracle, combined_digest, load_stored, result_digest, write_stored
from repro.api.session import Session
from repro.core.packet import packet_id_scope
from tracing import (HostSpeed, Patches, Tracer, install_boundaries,
                     install_engine_layers, install_setup_layers,
                     install_sharded_layer, reference_factor, wrap_hooks)
from workloads import DEFAULT_SEED, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
clock = time.perf_counter


@dataclasses.dataclass
class Pass:
    """One execution of every scenario of a workload, in reference seconds."""

    wall: float
    setup: float
    #: ``wall`` minus ``setup``: the engines' execution, scaled by the speed
    #: sampled while it ran.
    execution: float
    rounds: int
    latencies: List[float]
    digests: List[Optional[str]]
    failed: int
    #: The engine each scenario ran on (``None`` where it raised).
    engines: List[Optional[str]]
    cpu_util: float
    layers: Dict[str, float]
    #: The pass's wall and set-up seconds before scaling.
    raw_wall: float
    raw_setup: float


def _cpu() -> tuple:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime, children.ru_utime + children.ru_stime)


def _engine_label(report: Any) -> str:
    engine = report.engine or {"selected": "delta"}
    label = engine["selected"]
    if engine.get("transport"):
        label += "/" + engine["transport"]
    return label


def _p95(values: List[float]) -> float:
    """Nearest-rank 95th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]


class Bench:
    def __init__(self, workload: Any, seed: int) -> None:
        self.workload = workload
        self.specs = workload.specs(seed)
        self.tracer = Tracer()
        self.patches = Patches()
        install_boundaries(self.tracer, self.patches)
        self._report_read: Optional[int] = None
        #: (mean, count) speed samples the sharded workers reported during a
        #: pass, by phase.
        self._worker_samples: Dict[str, List[Tuple[float, int]]] = {}
        self._speed = HostSpeed()
        if workload.sharded:
            self._report_read, self.tracer.report_fd = os.pipe()
            os.set_blocking(self._report_read, False)

    def close(self) -> None:
        self.patches.undo()
        if self._report_read is not None:
            os.close(self._report_read)
            os.close(self.tracer.report_fd)

    # -- passes ---------------------------------------------------------------------

    def passes(self, budget: float, minimum: int, traced: bool,
               specs: Optional[list] = None) -> List[Pass]:
        done: List[Pass] = []
        start = clock()
        while len(done) < minimum or clock() - start < budget:
            done.append(self.run_pass(traced, specs or self.specs))
        return done

    def run_pass(self, traced: bool, specs: list) -> Pass:
        tracer = self.tracer
        tracer.reset()
        session = Session()
        sharded = specs[0].policy.shards is not None
        reports: List[Any] = []
        latencies: List[float] = []
        setup = 0.0
        failed = 0
        cpu_before = _cpu()
        self._worker_samples = {"setup": [], "run": []}
        with HostSpeed() as self._speed:
            start = clock()
            for spec in specs:
                try:
                    if sharded:
                        report, scenario_setup, took = self._run_sharded(
                            session, spec
                        )
                    else:
                        report, scenario_setup, took = self._run_scenario(
                            session, spec, traced
                        )
                except Exception:  # a failed run is counted; the pass goes on
                    traceback.print_exc(file=sys.stderr)
                    failed += 1
                    reports.append(None)
                    continue
                reports.append(report)
                latencies.append(took)
                setup += scenario_setup
            wall = clock() - start
        cpu_after = _cpu()
        speed = self._speed
        factor = speed.factor()
        setup_factor = speed.factor("setup")
        run_factor = speed.factor("run")
        worker_setup, worker_run = self._worker_samples.values()
        if worker_setup and worker_run:
            factor = reference_factor(worker_setup + worker_run)
            setup_factor = reference_factor(worker_setup)
            run_factor = reference_factor(worker_run)
        digests: List[Optional[str]] = []
        engines: List[Optional[str]] = []
        rounds = 0
        for report in reports:
            if report is None:
                digests.append(None)
                engines.append(None)
                continue
            if not report.within_bound:
                failed += 1
            digests.append(result_digest(report.result))
            engines.append(_engine_label(report))
            rounds += report.result.rounds_executed
        cpu = (cpu_after[0] - cpu_before[0], cpu_after[1] - cpu_before[1])
        layers = self._layers(reports, wall, cpu) if traced else {}
        for name in [name for name in layers if name.endswith("_s")]:
            if name.startswith("setup."):
                layers[name] *= setup_factor
            elif name.startswith("sharded."):
                layers[name] *= factor
            else:
                layers[name] *= run_factor
        setup_s = setup * setup_factor
        execution_s = (wall - setup) * run_factor
        return Pass(setup_s + execution_s, setup_s, execution_s, rounds,
                    [took * factor for took in latencies], digests, failed,
                    engines, (cpu[0] + cpu[1]) / wall, layers, wall, setup)

    def _run_scenario(self, session: Any, spec: Any, traced: bool) -> tuple:
        wall = self.tracer.wall

        def ran() -> float:
            return wall["simulator"] + wall["batch.inject_phase"] + wall["batch.drain"]

        engine_before = wall["setup.engine"]
        ran_before = ran()
        self._speed.phase = "setup"
        start = clock()
        with packet_id_scope():
            prepared = session.prepare(spec)
            prepared_at = clock()
            self._speed.phase = "run"
            if traced:
                wrap_hooks(self.tracer, prepared)
            report = session.run(prepared)
        end = clock()
        engine = wall["setup.engine"] - engine_before
        if traced:
            wall["session.report"] += (
                (end - prepared_at) - engine - (ran() - ran_before)
            )
        return report, (prepared_at - start) + engine, end - start

    def _run_sharded(self, session: Any, spec: Any) -> tuple:
        wall = self.tracer.wall
        sharded_before = wall["sharded.run"]
        start = clock()
        report = session.run(spec)
        end = clock()
        workers = self._worker_reports()
        if len(workers) != spec.policy.shards:
            raise RuntimeError(
                f"{len(workers)} of {spec.policy.shards} workers reported their "
                f"set-up; the sharded engine must fork its workers"
            )
        critical = max(workers, key=lambda w: w["setup.prepare"] + w["setup.engine"])
        for name, seconds in critical.items():
            wall["worker." + name] = seconds
        sharded_run = wall["sharded.run"] - sharded_before
        if sharded_run:
            wall["session.report"] += (end - start) - sharded_run
        return report, critical["setup.prepare"] + critical["setup.engine"], end - start

    def _worker_reports(self) -> List[Dict[str, float]]:
        """The workers' set-up spans; their speed samples go to the pass."""
        chunks = []
        while True:
            try:
                chunk = os.read(self._report_read, 65536)
            except BlockingIOError:
                break
            if not chunk:
                break
            chunks.append(chunk)
        setups = []
        for line in b"".join(chunks).decode().splitlines():
            report = json.loads(line)
            if "speed" in report:
                self._worker_samples[report["phase"]].append(
                    (report["speed"], report["n"])
                )
            else:
                setups.append(report)
        return setups

    def _layers(self, reports: List[Any], wall_s: float, cpu: tuple) -> Dict[str, float]:
        """This pass's per-layer values, from the tracer's span totals."""
        tracer = self.tracer
        wall, own, counts = tracer.wall, tracer.self_s, tracer.counts
        setup_source = "worker." if self.workload.sharded else ""
        done = [r for r in reports if r is not None]
        delta_runs = [r for r in done if _engine_label(r) == "delta"]
        sharded_run = wall["sharded.run"]
        layers = {
            "setup.topology_s": wall[setup_source + "setup.topology"],
            "setup.adversary_s": wall[setup_source + "setup.adversary"],
            "setup.algorithm_s": wall[setup_source + "setup.algorithm"],
            "setup.engine_s": wall[setup_source + "setup.engine"],
            "adversary.packets": sum(r.result.packets_injected for r in done),
            "adversary.rows_s": own["adversary.rows"],
            "core.inject_s": own["core.inject"],
            "core.measure_s": own["core.measure"],
            "core.select_s": own["core.select"],
            "core.arrival_s": own["core.arrival"],
            "core.round_end_s": own["core.round_end"],
            "simulator.self_s": own["simulator"],
            "core.activations": counts["core.activations"],
            "core.arrivals": counts["core.arrivals"],
            "simulator.rounds": sum(r.result.rounds_executed for r in delta_runs),
            "simulator.delivered": sum(r.result.packets_delivered for r in delta_runs),
            "batch.inject_phase_s": wall["batch.inject_phase"],
            "batch.drain_s": wall["batch.drain"],
            "batch.rounds": counts["batch.rounds"],
            "batch.in_flight_at_horizon": counts["batch.in_flight_at_horizon"],
            "sharded.run_s": sharded_run,
            "sharded.coordinator_cpu_s": cpu[0] if sharded_run else 0.0,
            "sharded.worker_cpu_s": cpu[1] if sharded_run else 0.0,
            "sharded.worker_busy_frac": (
                cpu[1] / (2 * sharded_run) if sharded_run else 0.0
            ),
            "session.report_s": wall["session.report"],
            "cpu_util": (cpu[0] + cpu[1]) / wall_s,
        }
        return layers


# -- metrics ------------------------------------------------------------------------


def _rounds_per_s(passes: List[Pass], sharded: bool) -> float:
    """Rounds over execution time; over the whole pass when sharded, where
    the workers' set-up overlaps the coordinator's run."""
    return median([p.rounds / (p.wall if sharded else p.execution) for p in passes])


def end_to_end(passes: List[Pass], sharded: bool) -> Dict[str, float]:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if sharded else 0
    return {
        "setup_s": median([p.setup for p in passes]),
        "run_s": median([p.wall for p in passes]),
        "rounds_per_s": _rounds_per_s(passes, sharded),
        "peak_rss_mb": (own + child) / 1024,
    }


def latency_record(passes: List[Pass], scenarios: int) -> Dict[str, Any]:
    """Per-scenario latency: the median, the 95th percentile where at least
    ten samples lie beyond it, and the sample count."""
    latencies = [t for p in passes for t in p.latencies]
    record = {
        "samples": len(latencies),
        "p50_ms": 1000 * median(latencies),
        "scenarios_per_s": median([scenarios / p.wall for p in passes]),
    }
    if len(latencies) >= 200:
        record["p95_ms"] = 1000 * _p95(latencies)
    return record


def per_layer(traced: List[Pass], untraced: List[Pass],
              single_rate: Optional[float]) -> Dict[str, float]:
    names = traced[0].layers
    metrics = {name: median([p.layers[name] for p in traced]) for name in names}
    metrics["trace.overhead_frac"] = (
        median([p.wall for p in traced]) / median([p.wall for p in untraced]) - 1
    )
    metrics["sharded.vs_single"] = 0.0
    if single_rate:
        metrics["sharded.vs_single"] = _rounds_per_s(untraced, True) / single_rate
    return metrics


def host_record() -> Dict[str, Any]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
    }


def _pass_rows(passes: List[Pass]) -> List[Dict[str, Any]]:
    return [
        {"run_s": p.wall, "setup_s": p.setup, "raw_run_s": p.raw_wall,
         "raw_setup_s": p.raw_setup, "rounds": p.rounds,
         "cpu_util": p.cpu_util, "failed": p.failed,
         "engines": {e: p.engines.count(e) for e in sorted(set(p.engines), key=str)}}
        for p in passes
    ]


# -- entry points ---------------------------------------------------------------------


def measure(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    workload = WORKLOADS[workload_name]
    bench = Bench(workload, seed)
    try:
        budget = seconds / 2 if trace else seconds
        untraced = bench.passes(budget, 2, traced=False)
        metrics = end_to_end(untraced, workload.sharded)
        first = untraced[0]
        oracle = Oracle()
        reference = [
            got if engine == "delta" else oracle.digest(spec)
            for spec, engine, got in zip(bench.specs, first.engines, first.digests)
        ]
        oracle.save()
        identity_ok = True
        if first.engines[0] == "delta":
            identity_ok = (
                result_digest(Session().run(bench.specs[0]).result) == reference[0]
            )
        single_rate = None
        if trace and workload.sharded:
            unsharded = [
                dataclasses.replace(
                    spec, policy=dataclasses.replace(spec.policy, shards=None)
                )
                for spec in bench.specs
            ]
            single = bench.passes(0, 1, traced=False, specs=unsharded)[0]
            single_rate = single.rounds / single.execution
        traced: List[Pass] = []
        if trace:
            install_setup_layers(bench.tracer, bench.patches)
            install_sharded_layer(bench.tracer, bench.patches)
            if not workload.sharded:
                install_engine_layers(bench.tracer, bench.patches)
            traced = bench.passes(budget, 2, traced=True)
    finally:
        bench.close()

    measured = untraced + traced
    attempted = len(bench.specs) * len(measured)
    failed = sum(p.failed for p in measured)
    for p in measured:
        failed += sum(
            1 for got, want in zip(p.digests, reference)
            if got is not None and got != want
        )
    stored_ok = True
    if seed == DEFAULT_SEED:
        stored_ok = load_stored()[workload_name]["digest"] == combined_digest(reference)

    record: Dict[str, Any] = {
        "workload": workload_name,
        "seed": seed,
        "host": host_record(),
        "scenarios_per_pass": len(bench.specs),
        "passes": _pass_rows(untraced),
        "latency": latency_record(untraced, len(bench.specs)),
        "oracle": {"digest": combined_digest(reference), "identity_ok": identity_ok,
                   "stored_checked": seed == DEFAULT_SEED, "stored_ok": stored_ok},
        "fail_rate": failed / attempted,
    }
    if trace:
        metrics = per_layer(traced, untraced, single_rate)
        record["traced_passes"] = _pass_rows(traced)
        record["layers"] = metrics
        record["checks"] = _checks(metrics, traced, bench, single_rate)
        wanted = [m["name"] for m in declared["per_layer"]]
    else:
        wanted = [m["name"] for m in declared["end_to_end"]]
    units = {m["name"]: m["unit"] for m in declared["per_layer"] + declared["end_to_end"]}
    print(json.dumps(record, sort_keys=True))
    missing = [name for name in wanted if name not in metrics]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    print(json.dumps({
        "correct": failed == 0 and stored_ok and identity_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in wanted
        },
    }))
    return 0


def _checks(metrics: Dict[str, float], traced: List[Pass], bench: Bench,
            single_rate: Optional[float]) -> Dict[str, Any]:
    """How the layers add up, on the traced passes' medians."""
    setup_s = median([p.setup for p in traced])
    run_s = median([p.wall for p in traced])
    setup_layers = sum(metrics[f"setup.{part}_s"] for part in
                       ("topology", "adversary", "algorithm", "engine"))
    run_layers = sum(metrics[name] for name in (
        "adversary.rows_s", "core.inject_s", "core.measure_s", "core.select_s",
        "core.arrival_s", "core.round_end_s", "simulator.self_s",
        "batch.inject_phase_s", "batch.drain_s", "session.report_s",
    ))
    if bench.workload.sharded:
        # The workers' set-up runs inside run_sharded.
        run_layers = metrics["sharded.run_s"] + metrics["session.report_s"] - setup_s
    checks = {
        "setup_s": setup_s,
        "setup_layers_s": setup_layers,
        "run_minus_setup_s": run_s - setup_s,
        "run_layers_s": run_layers,
    }
    if len(bench.specs) == 1 and metrics["batch.in_flight_at_horizon"]:
        nodes = bench.specs[0].topology.params["num_nodes"]
        checks["in_flight_per_node"] = metrics["batch.in_flight_at_horizon"] / nodes
    if single_rate:
        checks["single_rounds_per_s"] = single_rate
        checks["sharded_rounds_per_s"] = metrics["sharded.vs_single"] * single_rate
    return checks


def record_digests() -> int:
    oracle = Oracle()
    stored = {
        name: {
            "seed": DEFAULT_SEED,
            "digest": combined_digest(
                [oracle.digest(spec) for spec in workload.specs(DEFAULT_SEED)]
            ),
        }
        for name, workload in WORKLOADS.items()
    }
    oracle.save()
    write_stored(stored)
    print(json.dumps(stored, indent=2, sort_keys=True))
    return 0
