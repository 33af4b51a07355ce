"""Unit tests for figure data and the experiment registry."""

from __future__ import annotations

import pytest

from repro.experiments.figures import figure1_data, render_figure1, trajectory_table
from repro.experiments.registry import EXPERIMENTS, get_experiment, list_experiments


class TestFigures:
    def test_figure1_data_matches_paper_parameters(self):
        data = figure1_data(2, 4)
        assert data["num_nodes"] == 16
        assert data["labels"][:3] == ["0000", "0001", "0010"]
        assert len(data["rows"]) == 15

    def test_render_figure1_ascii(self):
        art = render_figure1(2, 4)
        lines = art.splitlines()
        assert len(lines) == 1 + 4  # header + one row per level
        assert "j=3" in art and "j=0" in art

    def test_render_figure1_with_trajectory(self):
        art = render_figure1(2, 4, trajectory=(2, 13))
        assert "*" in art
        assert "2 -> 13" in art

    def test_trajectory_table(self):
        rows = trajectory_table(2, 4, source=2, destination=13)
        assert rows[0]["start"] == 2
        assert rows[-1]["end"] == 13
        levels = [row["level"] for row in rows]
        assert levels == sorted(levels, reverse=True)


class TestRegistry:
    def test_all_nine_experiments_present(self):
        assert len(EXPERIMENTS) == 9
        assert [e.id for e in list_experiments()] == [f"E{i}" for i in range(1, 10)]

    def test_lookup(self):
        experiment = get_experiment("e4")
        assert "HPTS" in experiment.paper_item or "4.1" in experiment.paper_item
        with pytest.raises(KeyError):
            get_experiment("E99")

    def test_benchmarks_referenced_exist(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
        for experiment in list_experiments():
            assert (root / experiment.benchmark).exists(), experiment.benchmark

    def test_modules_referenced_importable(self):
        import importlib

        for experiment in list_experiments():
            for module in experiment.modules:
                importlib.import_module(module)
