"""The experiment harness — now a thin compatibility layer over the API.

Historically each benchmark hand-wired ``Simulator(...)`` through this
module; today every execution path funnels into
:class:`repro.api.session.Session`.  :func:`run_workload` wraps one
``(workload, algorithm factory)`` pair as a :class:`repro.api.PreparedRun`
and :func:`sweep` batches the cartesian product through
:meth:`Session.run_many`, in order.  The row type (:class:`ExperimentRow`)
and table helpers are unchanged, so existing callers keep working verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from ..analysis.tables import format_table
from ..api.session import PreparedRun, RunReport, Session
from ..api.specs import RunPolicy
from ..core.scheduler import ForwardingAlgorithm
from ..network.events import SimulationResult
from .workloads import Workload

__all__ = ["ExperimentRow", "run_workload", "sweep", "rows_to_table"]

#: A factory building a forwarding algorithm for a given workload.
AlgorithmFactory = Callable[[Workload], ForwardingAlgorithm]


@dataclass
class ExperimentRow:
    """One (workload, algorithm) measurement."""

    workload: str
    algorithm: str
    max_occupancy: int
    bound: Optional[float]
    within_bound: bool
    packets: int
    delivered: int
    max_latency: Optional[int]
    params: Dict[str, object] = field(default_factory=dict)
    result: Optional[SimulationResult] = None

    def as_dict(self) -> Dict[str, object]:
        """Flatten to a dict row for the table formatter."""
        row: Dict[str, object] = {
            "workload": self.workload,
            "algorithm": self.algorithm,
        }
        row.update(self.params)
        row.update(
            {
                "max_occupancy": self.max_occupancy,
                "bound": None if self.bound is None else round(self.bound, 2),
                "within_bound": self.within_bound,
                "packets": self.packets,
                "delivered": self.delivered,
                "max_latency": self.max_latency,
            }
        )
        return row


def _prepare(
    workload: Workload,
    algorithm_factory: AlgorithmFactory,
    *,
    record_history: bool,
    drain: bool,
) -> PreparedRun:
    return PreparedRun(
        topology=workload.topology,  # type: ignore[arg-type]
        algorithm=algorithm_factory(workload),
        adversary=workload.pattern,
        policy=RunPolicy(drain=drain, record_history=record_history),
        name=workload.name,
        params=dict(workload.params),
        sigma=workload.sigma,
    )


def _report_to_row(report: RunReport, *, keep_result: bool) -> ExperimentRow:
    return ExperimentRow(
        workload=report.name,
        algorithm=report.algorithm,
        max_occupancy=report.result.max_occupancy,
        bound=report.bound,
        within_bound=report.within_bound,
        packets=report.result.packets_injected,
        delivered=report.result.packets_delivered,
        max_latency=report.result.max_latency,
        params=dict(report.params),
        result=report.result if keep_result else None,
    )


def run_workload(
    workload: Workload,
    algorithm_factory: AlgorithmFactory,
    *,
    record_history: bool = False,
    drain: bool = True,
    keep_result: bool = False,
    session: Optional[Session] = None,
) -> ExperimentRow:
    """Run one workload against one algorithm and summarise the outcome."""
    prepared = _prepare(
        workload, algorithm_factory, record_history=record_history, drain=drain
    )
    report = (session or Session()).run(prepared)
    return _report_to_row(report, keep_result=keep_result)


def sweep(
    workloads: Iterable[Workload],
    algorithm_factories: Dict[str, AlgorithmFactory],
    *,
    record_history: bool = False,
    drain: bool = True,
) -> List[ExperimentRow]:
    """Cartesian product of workloads and algorithms, one row per pair."""
    prepared = [
        _prepare(workload, factory, record_history=record_history, drain=drain)
        for workload in workloads
        for _, factory in algorithm_factories.items()
    ]
    reports = Session().run_many(prepared)
    return [_report_to_row(report, keep_result=False) for report in reports]


def rows_to_table(
    rows: Iterable[ExperimentRow],
    columns: Optional[List[str]] = None,
    *,
    title: Optional[str] = None,
) -> str:
    """Render experiment rows with the shared ASCII table formatter."""
    return format_table([row.as_dict() for row in rows], columns, title=title)
