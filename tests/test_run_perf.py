"""The CI perf gate (``benchmarks/perf/run_perf.py``'s ``check_regression``)
on synthetic case rows: no case is timed here."""

import importlib.util
import json
import pathlib

_PATH = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "perf" / "run_perf.py"
_SPEC = importlib.util.spec_from_file_location("run_perf", _PATH)
run_perf = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run_perf)

MB = 1_000_000


def _check(tmp_path, baseline_cases, current_cases, tolerance=0.30):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"schema": run_perf.SCHEMA, "cases": baseline_cases}))
    return run_perf.check_regression({"cases": current_cases}, str(path), tolerance)


def _timed(name="engine/x", kind="engine", throughput=1000.0, **extra):
    return {"case": name, "kind": kind, "reference_rounds_per_sec": throughput, **extra}


class TestThroughputFloor:
    def test_within_tolerance_passes(self, tmp_path):
        assert _check(tmp_path, [_timed()], [_timed(throughput=701.0)]) == []

    def test_below_floor_fails(self, tmp_path):
        failures = _check(tmp_path, [_timed()], [_timed(throughput=699.0)])
        assert len(failures) == 1
        assert "engine/x: reference throughput" in failures[0]

    def test_gate_reads_reference_units_not_raw(self, tmp_path):
        current = _timed(throughput=1000.0, rounds_per_sec=10.0)
        assert _check(tmp_path, [_timed(rounds_per_sec=5000.0)], [current]) == []

    def test_tighter_tolerance_bites_earlier(self, tmp_path):
        assert _check(tmp_path, [_timed()], [_timed(throughput=850.0)],
                      tolerance=0.10)


class TestMemoryCeiling:
    def test_growth_above_ceiling_fails(self, tmp_path):
        failures = _check(tmp_path, [_timed(peak_mem_bytes=2 * MB)],
                          [_timed(peak_mem_bytes=2.7 * MB)])
        assert len(failures) == 1
        assert "peak memory" in failures[0]

    def test_growth_within_tolerance_passes(self, tmp_path):
        assert _check(tmp_path, [_timed(peak_mem_bytes=2 * MB)],
                      [_timed(peak_mem_bytes=2.5 * MB)]) == []

    def test_baseline_below_floor_is_not_gated(self, tmp_path):
        small = run_perf.MEM_GATE_FLOOR_BYTES - 1
        assert _check(tmp_path, [_timed(peak_mem_bytes=small)],
                      [_timed(peak_mem_bytes=10 * small)]) == []

    def test_baseline_at_floor_is_gated(self, tmp_path):
        floor = run_perf.MEM_GATE_FLOOR_BYTES
        assert _check(tmp_path, [_timed(peak_mem_bytes=floor)],
                      [_timed(peak_mem_bytes=2 * floor)])


class TestCheckpointCeiling:
    @staticmethod
    def _ckpt(size):
        return {"case": "checkpoint/x", "kind": "checkpoint", "ckpt_bytes": size}

    def test_fatter_snapshot_fails(self, tmp_path):
        failures = _check(tmp_path, [self._ckpt(100_000)], [self._ckpt(131_000)])
        assert len(failures) == 1
        assert "checkpoint size" in failures[0]

    def test_snapshot_within_tolerance_passes(self, tmp_path):
        assert _check(tmp_path, [self._ckpt(100_000)], [self._ckpt(129_000)]) == []


class TestBatchShardedRows:
    @staticmethod
    def _row(speedup, throughput=1000.0, cpus=2, shards=2):
        return _timed("batch_sharded2/x", "batch_sharded", throughput,
                      shards=shards, cpus=cpus, speedup_vs_batch=speedup)

    def test_fewer_cpus_than_workers_skips_every_gate(self, tmp_path, capsys):
        slow = self._row(0.01, throughput=1.0, cpus=1)
        assert _check(tmp_path, [self._row(1.0)], [slow]) == []
        assert "skipping gate" in capsys.readouterr().out

    def test_speedup_below_floor_fails(self, tmp_path):
        failures = _check(tmp_path, [self._row(1.0)], [self._row(0.6)])
        assert len(failures) == 1
        assert "speedup_vs_batch" in failures[0]

    def test_enough_cpus_gates_throughput_too(self, tmp_path):
        failures = _check(tmp_path, [self._row(1.0)], [self._row(1.0, throughput=10.0)])
        assert len(failures) == 1
        assert "reference throughput" in failures[0]


class TestMatching:
    def test_no_case_matched_fails(self, tmp_path, capsys):
        failures = _check(tmp_path, [_timed("engine/old")], [_timed("engine/new")])
        assert len(failures) == 1
        assert "no current case matched" in failures[0]
        assert "no baseline entry for engine/new" in capsys.readouterr().out

    def test_unmatched_case_is_only_a_warning_when_others_match(self, tmp_path):
        current = [_timed(), _timed("engine/new", throughput=1.0)]
        assert _check(tmp_path, [_timed()], current) == []


def test_host_speed_is_the_benchmarks_own():
    assert run_perf.HostSpeed.__module__ == "tracing"
    assert pathlib.Path(run_perf.sys.modules["tracing"].__file__).parent.name == "perfbench"
