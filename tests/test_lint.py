"""The contract linter, tested against good/bad fixture pairs.

Every rule (RPR001–RPR003 and RPR005–RPR007; RPR004 is retired) has at
least one fixture-proven true positive and one clean counterpart; pragmas,
the committed baseline, ``--stats`` and the self-hosted run on
``src/repro`` are covered as well.  Fixtures live in
``tests/lint_fixtures/`` and are copied into a throwaway package tree at the
path that puts them in the relevant rule's scope.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools.lint import Baseline, LintConfig, run_lint
from repro.devtools.lint.cli import main as lint_main

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO_ROOT = Path(__file__).parent.parent

#: Config whose hot-path list points at the fixture location used below.
FIXTURE_CONFIG = LintConfig(hot_path_modules=("repro/core/hot.py",))


def plant(tmp_path: Path, fixture: str, rel_path: str) -> Path:
    """Copy a fixture into a tmp package tree at a rule-relevant path."""
    dest = tmp_path / rel_path
    dest.parent.mkdir(parents=True, exist_ok=True)
    shutil.copy(FIXTURES / fixture, dest)
    package_root = tmp_path / rel_path.split("/", 1)[0]
    (package_root / "__init__.py").touch()
    return package_root


def lint_tree(root: Path, select, **kwargs):
    kwargs.setdefault("config", FIXTURE_CONFIG)
    return run_lint([root], select=select, **kwargs)


def codes(result):
    return [f.code for f in result.active]


class TestRuleFixtures:
    """One bad/good pair per rule: the bad tree fires, the good one is clean."""

    def test_rpr001_bad(self, tmp_path):
        root = plant(tmp_path, "rpr001_bad.py", "repro/core/algo.py")
        result = lint_tree(root, ["RPR001"])
        assert codes(result) == ["RPR001", "RPR001"]
        messages = " ".join(f.message for f in result.active)
        assert "random.random" in messages and "raw set" in messages

    def test_rpr001_good(self, tmp_path):
        root = plant(tmp_path, "rpr001_good.py", "repro/core/algo.py")
        assert codes(lint_tree(root, ["RPR001"])) == []

    def test_rpr001_out_of_engine_scope_is_clean(self, tmp_path):
        root = plant(tmp_path, "rpr001_bad.py", "repro/analysis/algo.py")
        assert codes(lint_tree(root, ["RPR001"])) == []

    def test_rpr002_bad(self, tmp_path):
        root = plant(tmp_path, "rpr002_bad.py", "repro/core/hot.py")
        result = lint_tree(root, ["RPR002"])
        assert codes(result) == ["RPR002", "RPR002"]
        flagged = {f.symbol for f in result.active}
        assert flagged == {"HotRecord", "HotRow"}  # Enum and Error exempt

    def test_rpr002_good(self, tmp_path):
        root = plant(tmp_path, "rpr002_good.py", "repro/core/hot.py")
        assert codes(lint_tree(root, ["RPR002"])) == []

    def test_rpr003_bad(self, tmp_path):
        root = plant(tmp_path, "rpr003_bad.py", "repro/adversary/rows.py")
        result = lint_tree(root, ["RPR003"])
        assert {f.symbol for f in result.active} == {"Leaky", "BrokenRows"}

    def test_rpr003_good(self, tmp_path):
        root = plant(tmp_path, "rpr003_good.py", "repro/adversary/rows.py")
        assert codes(lint_tree(root, ["RPR003"])) == []

    def test_rpr005_bad(self, tmp_path):
        root = plant(tmp_path, "rpr005_module.py", "repro/core/extra.py")
        result = lint_tree(
            root, ["RPR005"], doc_surfaces={"docs/X.md": "nothing relevant"}
        )
        assert codes(result) == ["RPR005"]
        assert "mystery-algo" in result.active[0].message

    def test_rpr005_good(self, tmp_path):
        root = plant(tmp_path, "rpr005_module.py", "repro/core/extra.py")
        surfaces = {"docs/X.md": "use `mystery-algo` (alias `mystery_algo`)"}
        assert codes(lint_tree(root, ["RPR005"], doc_surfaces=surfaces)) == []

    def test_rpr006_bad(self, tmp_path):
        root = plant(tmp_path, "rpr006_bad.py", "repro/network/io.py")
        result = lint_tree(root, ["RPR006"])
        assert codes(result) == ["RPR006"] * 3  # swallow, bare, print

    def test_rpr006_good(self, tmp_path):
        root = plant(tmp_path, "rpr006_good.py", "repro/network/io.py")
        assert codes(lint_tree(root, ["RPR006"])) == []

    def test_rpr006_print_allowed_in_cli(self, tmp_path):
        root = plant(tmp_path, "rpr006_bad.py", "repro/cli.py")
        result = lint_tree(root, ["RPR006"])
        assert len(codes(result)) == 2  # excepts still flagged, print is not
        assert all("print" not in f.message for f in result.active)

    def test_rpr007_bad(self, tmp_path):
        root = plant(tmp_path, "rpr007_module.py", "repro/api/other.py")
        result = lint_tree(root, ["RPR007"])
        assert codes(result) == ["RPR007"]
        assert result.active[0].symbol == "FrozenThing.__post_init__"

    def test_rpr007_good_inside_specs(self, tmp_path):
        root = plant(tmp_path, "rpr007_module.py", "repro/api/specs.py")
        assert codes(lint_tree(root, ["RPR007"])) == []


class TestSuppression:
    def test_pragmas_silence_trailing_and_own_line(self, tmp_path):
        root = plant(tmp_path, "pragmas.py", "repro/network/io.py")
        assert codes(lint_tree(root, ["RPR006"])) == []

    def test_disable_file_pragma(self, tmp_path):
        root = plant(tmp_path, "rpr006_bad.py", "repro/network/io.py")
        target = root / "network" / "io.py"
        target.write_text(
            "# repro-lint: disable-file=RPR006\n" + target.read_text()
        )
        assert codes(lint_tree(root, ["RPR006"])) == []

    def test_unrelated_pragma_does_not_silence(self, tmp_path):
        root = plant(tmp_path, "rpr006_bad.py", "repro/network/io.py")
        target = root / "network" / "io.py"
        target.write_text(
            "# repro-lint: disable-file=RPR001\n" + target.read_text()
        )
        assert codes(lint_tree(root, ["RPR006"])) == ["RPR006"] * 3

    def test_baseline_round_trip(self, tmp_path):
        root = plant(tmp_path, "rpr006_bad.py", "repro/network/io.py")
        first = lint_tree(root, ["RPR006"])
        assert first.exit_code == 1

        baseline_path = tmp_path / "lint_baseline.json"
        Baseline.write(baseline_path, first.active, justification="legacy")
        baseline = Baseline.load(baseline_path)
        second = lint_tree(root, ["RPR006"], baseline=baseline)
        assert second.exit_code == 0
        assert codes(second) == []
        assert len(second.baselined) == 3
        assert second.stale_baseline == []

    def test_baseline_reports_stale_entries_after_fix(self, tmp_path):
        root = plant(tmp_path, "rpr006_bad.py", "repro/network/io.py")
        first = lint_tree(root, ["RPR006"])
        baseline_path = tmp_path / "lint_baseline.json"
        Baseline.write(baseline_path, first.active, justification="legacy")

        shutil.copy(FIXTURES / "rpr006_good.py", root / "network" / "io.py")
        result = lint_tree(
            root, ["RPR006"], baseline=Baseline.load(baseline_path)
        )
        assert result.exit_code == 0
        assert len(result.stale_baseline) == 3  # debt already paid: remove


class TestCli:
    def _tree(self, tmp_path):
        return plant(tmp_path, "rpr006_bad.py", "repro/network/io.py")

    def test_json_output_and_exit_code(self, tmp_path, capsys):
        root = self._tree(tmp_path)
        code = lint_main(
            [str(root), "--format", "json", "--no-baseline", "--select", "RPR006"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["exit_code"] == 1
        assert [f["code"] for f in payload["findings"]] == ["RPR006"] * 3
        assert payload["stats"]["active"] == {"RPR006": 3}

    def test_stats_mode(self, tmp_path, capsys):
        root = self._tree(tmp_path)
        code = lint_main(
            [str(root), "--no-baseline", "--stats", "--select", "RPR006"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "RPR006" in out and "baseline debt: 0" in out

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        root = self._tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert (
            lint_main(
                [str(root), "--baseline", str(baseline), "--write-baseline",
                 "--justification", "legacy io.py handlers, tracked in #42"]
            )
            == 0
        )
        capsys.readouterr()
        code = lint_main([str(root), "--baseline", str(baseline), "--stats"])
        out = capsys.readouterr().out
        assert code == 0
        assert "baseline debt: 3" in out

    def test_write_baseline_requires_justification(self, tmp_path, capsys):
        root = self._tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        with pytest.raises(SystemExit):
            lint_main([str(root), "--baseline", str(baseline), "--write-baseline"])
        assert "--justification" in capsys.readouterr().err
        assert not baseline.exists()

    def test_blank_justification_is_rejected(self, tmp_path, capsys):
        root = self._tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        with pytest.raises(SystemExit):
            lint_main(
                [str(root), "--baseline", str(baseline), "--write-baseline",
                 "--justification", "   "]
            )
        assert "empty" in capsys.readouterr().err
        assert not baseline.exists()

    def test_justification_without_write_baseline_is_rejected(self, tmp_path, capsys):
        root = self._tree(tmp_path)
        with pytest.raises(SystemExit):
            lint_main([str(root), "--justification", "why not"])
        assert "--write-baseline" in capsys.readouterr().err

    def test_justification_is_recorded_on_every_entry(self, tmp_path, capsys):
        root = self._tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        reason = "inherited from the pre-lint era"
        assert (
            lint_main(
                [str(root), "--baseline", str(baseline), "--write-baseline",
                 "--justification", reason]
            )
            == 0
        )
        assert reason in capsys.readouterr().out
        payload = json.loads(baseline.read_text())
        entries = payload["entries"] if isinstance(payload, dict) else payload
        assert len(entries) == 3
        assert all(entry["justification"] == reason for entry in entries)

    def test_unknown_rule_code_rejected(self, tmp_path):
        root = self._tree(tmp_path)
        with pytest.raises(SystemExit):
            lint_main([str(root), "--select", "RPR999"])


class TestSelfLint:
    def test_src_repro_is_clean_modulo_committed_baseline(self):
        """The self-hosted run that CI executes: src/repro must be clean."""
        process = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.devtools.lint",
                "src/repro",
                "--format",
                "json",
            ],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin:/usr/local/bin"},
        )
        payload = json.loads(process.stdout)
        assert process.returncode == 0, payload["findings"]
        assert payload["findings"] == []
        assert payload["stale_baseline"] == []

    def test_every_rule_is_registered(self):
        from repro.devtools.lint import RULES

        # RPR004 (segment-selection hooks) is retired with the hooks; codes
        # are never reused, so findings stay comparable across versions.
        assert sorted(RULES) == [
            "RPR001", "RPR002", "RPR003", "RPR005", "RPR006", "RPR007",
        ]
