"""Unit tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import WORKLOAD_KINDS, build_parser, main

_SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.algorithm == "ppts"
        assert args.nodes == 64
        assert args.rho == 1.0

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--algorithm", "magic"])


class TestExperimentCommands:
    def test_experiments_lists_all_nine(self, capsys):
        assert main(["experiments"]) == 0
        output = capsys.readouterr().out
        for experiment_id in (f"E{i}" for i in range(1, 10)):
            assert experiment_id in output

    def test_experiment_detail(self, capsys):
        assert main(["experiment", "e4"]) == 0
        output = capsys.readouterr().out
        assert "Theorem 4.1" in output
        assert "bench_thm_4_1_hpts.py" in output

    def test_unknown_experiment_is_an_error(self, capsys):
        assert main(["experiment", "E42"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment 'E42'" in err
        assert "E9" in err


class TestSimulateCommand:
    def test_ppts_run_prints_bound_row(self, capsys):
        code = main(
            [
                "simulate", "--algorithm", "ppts", "--nodes", "32",
                "--destinations", "4", "--rounds", "60",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "PPTS" in output
        assert "within_bound" in output
        assert "yes" in output

    def test_pts_run(self, capsys):
        assert main(
            ["simulate", "--algorithm", "pts", "--nodes", "24", "--rounds", "50"]
        ) == 0
        assert "PTS" in capsys.readouterr().out

    def test_hpts_run_derives_branching(self, capsys):
        assert main(
            [
                "simulate", "--algorithm", "hpts", "--nodes", "64", "--levels", "3",
                "--rho", "0.33", "--rounds", "60",
            ]
        ) == 0
        assert "HPTS" in capsys.readouterr().out

    @pytest.mark.parametrize("levels, rho", [(2, 0.5), (3, 1 / 3)])
    def test_hpts_default_rho_is_one_over_levels(self, capsys, levels, rho):
        # --rho defaults to 1.0 for the other algorithms, which Theorem 4.1
        # refuses for ell > 1; without --rho, HPTS runs at rho = 1/ell.
        assert main(
            [
                "simulate", "--algorithm", "hpts", "--nodes", "25",
                "--levels", str(levels), "--rounds", "40", "--json",
            ]
        ) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["rho"] == rho
        assert row["within_bound"]

    def test_hpts_explicit_rho_above_one_over_levels_exits_2(self, capsys):
        assert main(
            [
                "simulate", "--algorithm", "hpts", "--nodes", "25",
                "--rho", "1.0", "--rounds", "40",
            ]
        ) == 2
        assert "rho * ell <= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("algorithm", ["ppts", "greedy"])
    def test_default_destinations_fit_a_short_line(self, capsys, algorithm):
        # --destinations defaults to 8, which an 8-node line cannot place;
        # without the flag the count is capped at nodes - 1.
        assert main(
            [
                "simulate", "--algorithm", algorithm, "--nodes", "8",
                "--rounds", "20", "--json",
            ]
        ) == 0
        assert json.loads(capsys.readouterr().out)["num_destinations"] == 7

    @pytest.mark.parametrize("algorithm", ["ppts", "greedy"])
    def test_explicit_destinations_too_many_exit_2(self, capsys, algorithm):
        assert main(
            [
                "simulate", "--algorithm", algorithm, "--nodes", "8",
                "--destinations", "8", "--rounds", "20",
            ]
        ) == 2
        assert "cannot place 8 destinations on 8 nodes" in capsys.readouterr().err

    def test_local_and_downhill_runs(self, capsys):
        assert main(
            ["simulate", "--algorithm", "local", "--locality", "3", "--nodes", "24",
             "--rounds", "40"]
        ) == 0
        assert "Local-r3" in capsys.readouterr().out
        assert main(
            ["simulate", "--algorithm", "downhill", "--nodes", "24", "--rounds", "40"]
        ) == 0
        assert "Downhill" in capsys.readouterr().out

    def test_greedy_run_with_policy(self, capsys):
        assert main(
            ["simulate", "--algorithm", "greedy", "--policy", "ntg", "--nodes", "24",
             "--rounds", "40"]
        ) == 0
        assert "Greedy-NTG" in capsys.readouterr().out

    @pytest.mark.parametrize("levels", ["0", "-1"])
    def test_hpts_levels_below_one_exits_2(self, capsys, levels):
        assert main(["simulate", "--algorithm", "hpts", "--levels", levels]) == 2
        err = capsys.readouterr().err
        assert f"--levels must be >= 1, got {levels}" in err
        assert "rho" not in err

    @pytest.mark.parametrize(
        "algorithm, kind",
        [(algorithm, kind) for algorithm, kinds in WORKLOAD_KINDS.items()
         for kind in kinds],
    )
    def test_workload_override(self, capsys, algorithm, kind):
        """Every kind an algorithm accepts is built, never replaced by the
        algorithm's default."""
        assert main(
            ["simulate", "--algorithm", algorithm, "--workload", kind,
             "--nodes", "32", "--destinations", "4", "--rounds", "40",
             "--seed", "1", "--json"]
        ) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["scenario"].endswith(f"/{kind}")


class TestSpecAndJsonFlags:
    def test_simulate_json_emits_machine_readable_row(self, capsys):
        import json

        assert main(
            ["simulate", "--algorithm", "pts", "--nodes", "24", "--rounds", "50",
             "--json"]
        ) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["algorithm"] == "PTS"
        assert row["within_bound"] is True
        assert row["max_occupancy"] <= row["bound"]

    def test_simulate_from_spec_file(self, tmp_path, capsys):
        import json

        from repro.api import Scenario

        spec = (
            Scenario.line(24)
            .algorithm("pts")
            .adversary("burst", rho=1.0, sigma=2, rounds=50)
            .named("from-file")
            .build()
        )
        spec_file = tmp_path / "scenario.json"
        spec_file.write_text(spec.to_json(indent=2))
        assert main(["simulate", "--spec", str(spec_file), "--json"]) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["scenario"] == "from-file"
        assert row["n"] == 24

    @pytest.mark.parametrize("algorithm", ["pts", "ppts"])
    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_simulate_non_finite_sigma_exits_2_promptly(self, algorithm, sigma):
        # Run out of process: before validation, burst traffic with a
        # non-finite sigma looped forever.
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "simulate", "--algorithm", algorithm,
             "--nodes", "16", "--rounds", "20", "--sigma", sigma],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": _SRC_DIR},
        )
        assert completed.returncode == 2
        assert "AdversarySpec.sigma must be a finite real number" in completed.stderr
        assert "Traceback" not in completed.stderr

    def test_simulate_missing_spec_file_is_an_error(self, tmp_path, capsys):
        assert main(["simulate", "--spec", str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("destination", [0, -3, 40])
    def test_simulate_out_of_range_destination_exits_2(
        self, tmp_path, capsys, destination
    ):
        from repro.api import Scenario

        spec = (
            Scenario.line(16)
            .algorithm("pts")
            .adversary("single", rho=1.0, sigma=2, rounds=20, destination=destination)
            .build()
        )
        spec_file = tmp_path / "stray.json"
        spec_file.write_text(spec.to_json())
        assert main(["simulate", "--spec", str(spec_file)]) == 2
        err = capsys.readouterr().err
        assert f"destination {destination} outside [1, 16]" in err
        assert "Traceback" not in err

    def test_simulate_exits_nonzero_when_bound_exceeded(self, tmp_path, capsys):
        import json

        from repro.adversary.base import InjectionPattern
        from repro.adversary.stress import pts_burst_stress
        from repro.api import ADVERSARIES, Scenario, register_adversary

        # An adversary that under-declares its burstiness: the real traffic is
        # (1, 6)-bounded but the declared envelope is (rho, 0), so PTS's
        # 2 + sigma bound is measured as violated and the CLI must exit 1.
        @register_adversary("test-underdeclared")
        def build_underdeclared(topology, *, rho, sigma, rounds, **_params):
            pattern = pts_burst_stress(topology, 1.0, 6, rounds)
            return InjectionPattern(pattern.all_injections(), rho=rho, sigma=0)

        try:
            spec = (
                Scenario.line(16)
                .algorithm("pts")
                .adversary("test-underdeclared", rho=1.0, sigma=0, rounds=40)
                .build()
            )
            spec_file = tmp_path / "hostile.json"
            spec_file.write_text(spec.to_json())
            code = main(["simulate", "--spec", str(spec_file), "--json"])
            row = json.loads(capsys.readouterr().out)
            assert row["within_bound"] is False
            assert code == 1
        finally:
            ADVERSARIES._entries.pop("test-underdeclared", None)

    def test_bounds_json(self, capsys):
        import json

        assert main(["bounds", "--nodes", "64", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["parameters"]["nodes"] == 64
        assert payload["bounds"]["PTS (Prop 3.1)"] == 4.0


class TestBoundsAndFigureCommands:
    def test_bounds_table(self, capsys):
        assert main(
            ["bounds", "--nodes", "64", "--destinations", "12", "--rho", "0.5",
             "--sigma", "2"]
        ) == 0
        output = capsys.readouterr().out
        assert "PTS (Prop 3.1)" in output
        assert "Thm 4.1" in output
        assert "Thm 5.1" in output

    def test_figure1_plain(self, capsys):
        assert main(["figure1"]) == 0
        output = capsys.readouterr().out
        assert "j=3" in output
        assert "0000" in output

    def test_figure1_with_trajectory(self, capsys):
        assert main(
            ["figure1", "--source", "2", "--destination", "13"]
        ) == 0
        output = capsys.readouterr().out
        assert "*" in output
        assert "Segments of 2 -> 13" in output


def _case_spec_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "surprise_key": 1}')
    return ["simulate", "--spec", str(bad)], "unknown key(s)"


def _case_repro_error(tmp_path):
    return (
        ["simulate", "--algorithm", "pts", "--checkpoint-every", "5"],
        "--checkpoint-every requires --checkpoint",
    )


def _case_checkpoint_mismatch(tmp_path):
    ckpt = str(tmp_path / "run.ckpt")
    assert main(
        ["simulate", "--algorithm", "pts", "--nodes", "16", "--rounds", "30",
         "--checkpoint-every", "10", "--checkpoint", ckpt]
    ) == 0
    other = tmp_path / "other.json"
    from repro.api import Scenario

    other.write_text(
        Scenario.line(16)
        .algorithm("greedy")
        .adversary("burst", rho=1.0, sigma=2, rounds=30)
        .build()
        .to_json()
    )
    return (
        ["simulate", "--resume", ckpt, "--spec", str(other)],
        "refusing to mix executions",
    )


def _case_recovery_exhausted(tmp_path):
    from repro.network.faults import FaultEvent, FaultPlan

    plan = tmp_path / "plan.json"
    plan.write_text(
        FaultPlan(events=(FaultEvent(kind="crash", round=2, segment=0),)).to_json()
    )
    return (
        ["simulate", "--algorithm", "pts", "--nodes", "16", "--rounds", "20",
         "--shards", "2", "--engine", "batch",
         "--recovery", "restart", "--max-worker-restarts", "0",
         "--checkpoint-every", "5", "--checkpoint", str(tmp_path / "s.ckpt"),
         "--faults", str(plan)],
        "max_worker_restarts=0",
    )


def _case_unknown_greedy_policy(tmp_path):
    return (
        ["simulate", "--algorithm", "greedy", "--policy", "BOGUS", "--nodes", "24",
         "--rounds", "40"],
        "unknown greedy policy 'BOGUS'; known greedy policy names: FIFO",
    )


def _case_workload_unfit_for_pts(tmp_path):
    return (
        ["simulate", "--algorithm", "pts", "--workload", "nested",
         "--nodes", "16", "--rounds", "20"],
        "--workload nested does not fit --algorithm pts, which accepts: "
        "stress, random",
    )


def _case_workload_unfit_for_hpts(tmp_path):
    return (
        ["simulate", "--algorithm", "hpts", "--workload", "stress",
         "--nodes", "16", "--rounds", "20"],
        "--workload stress does not fit --algorithm hpts, which accepts: "
        "hierarchy, random",
    )


def _case_service_unavailable(tmp_path):
    return (
        ["service", "ls", "--data", str(tmp_path / "no-server")],
        "repro service serve",
    )


def _case_job_not_found(tmp_path):
    from repro.service import JobService

    service = JobService(
        str(tmp_path / "svc"), poll_interval=0.05, fsync=False
    ).start()
    return (
        ["service", "info", "job-999999", "--socket", service.socket_path],
        "service ls",
        service.stop,
    )


def _explicit_route_case(route, fragment):
    """A spec whose ``explicit`` adversary holds one malformed route."""

    def case(tmp_path):
        import json

        spec = tmp_path / "explicit.json"
        spec.write_text(json.dumps({
            "name": "explicit",
            "topology": {"kind": "line", "params": {"num_nodes": 8}},
            "algorithm": {"name": "pts", "params": {}},
            "adversary": {
                "name": "explicit", "rho": 1.0, "sigma": 2.0, "rounds": 4,
                "params": {"routes": [[0, 0, 7], route]},
            },
        }))
        return ["simulate", "--spec", str(spec)], fragment

    return case


TYPED_ERROR_CASES = {
    "ConfigurationError-explicit-bool": _explicit_route_case(
        [True, 0, 7], "holds True, which is not an integer"
    ),
    "ConfigurationError-explicit-float": _explicit_route_case(
        [0, 0.9, 7], "holds 0.9, which is not an integer"
    ),
    "ConfigurationError-explicit-string": _explicit_route_case(
        [0, 0, "7"], "holds '7', which is not an integer"
    ),
    "ConfigurationError-explicit-negative-round": _explicit_route_case(
        [-1, 0, 7], "round must be non-negative, got -1"
    ),
    "ConfigurationError-explicit-two-items": _explicit_route_case(
        [0, 7], "is not a (round, source, destination) triple"
    ),
    "SpecError": _case_spec_error,
    "SpecError-workload-pts": _case_workload_unfit_for_pts,
    "SpecError-workload-hpts": _case_workload_unfit_for_hpts,
    "ReproError": _case_repro_error,
    "CheckpointSpecMismatchError": _case_checkpoint_mismatch,
    "RecoveryExhaustedError": _case_recovery_exhausted,
    "RegistryError": _case_unknown_greedy_policy,
    "ServiceUnavailableError": _case_service_unavailable,
    "JobNotFoundError": _case_job_not_found,
}


class TestTypedErrorsExitTwo:
    """Every typed error family surfaces as exit code 2 with an actionable
    message on stderr — never a traceback, never a bare non-zero."""

    @pytest.mark.parametrize("family", sorted(TYPED_ERROR_CASES))
    def test_typed_error_maps_to_exit_2(self, tmp_path, capsys, family):
        case = TYPED_ERROR_CASES[family](tmp_path)
        argv, fragment = case[0], case[1]
        cleanup = case[2] if len(case) > 2 else None
        try:
            capsys.readouterr()  # drop any setup output
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert fragment in err, f"{family}: {fragment!r} not in {err!r}"
            assert "Traceback" not in err
        finally:
            if cleanup is not None:
                cleanup()


class TestServiceRecoveryTelemetry:
    def test_sharded_json_row_carries_recovery(self, capsys):
        import json

        assert main(
            ["simulate", "--algorithm", "pts", "--nodes", "16", "--rounds",
             "30", "--shards", "2", "--engine", "batch", "--json"]
        ) == 0
        row = json.loads(capsys.readouterr().out)
        assert "recovery" in row
        assert row["recovery"]["restarts"] == 0

    def test_single_process_json_row_has_no_recovery_key(self, capsys):
        import json

        assert main(
            ["simulate", "--algorithm", "pts", "--nodes", "16", "--rounds",
             "30", "--json"]
        ) == 0
        assert "recovery" not in json.loads(capsys.readouterr().out)
