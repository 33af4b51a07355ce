"""Figure data and the E1-E9 experiment registry."""

from .figures import figure1_data, render_figure1, trajectory_table
from .registry import EXPERIMENTS, Experiment, get_experiment, list_experiments

__all__ = [
    "figure1_data",
    "render_figure1",
    "trajectory_table",
    "EXPERIMENTS",
    "Experiment",
    "get_experiment",
    "list_experiments",
]
