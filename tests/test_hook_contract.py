"""The delta engine calls its per-round hooks through the instances.

A profiler (or the perf harness's per-layer split) wraps five hooks as
*instance* attributes of one run's ingredients: the adversary's
``injections_for_round`` and the algorithm's ``on_inject``,
``occupancy_delta``, ``select_activations`` and ``on_arrival``.  Those
wrappers see every call only while the engine looks the hooks up on the
instances each round, not on the classes or from data read past them.
These tests pin the call counts a wrapper must see, and that wrapping leaves
the result unchanged.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict

import pytest

from repro.api.session import Session
from repro.api.specs import ScenarioSpec
from repro.core.packet import packet_id_scope

ADVERSARY_HOOKS = ("injections_for_round",)
ALGORITHM_HOOKS = ("on_inject", "occupancy_delta", "select_activations", "on_arrival")

_LINE = {"kind": "line", "params": {"num_nodes": 16}}
_TREE = {"kind": "tree", "params": {"family": "binary", "depth": 4}}

#: name -> (topology, algorithm, algorithm params, adversary params, rho,
#: engine).  Trees fall back to the delta engine under ``auto``, as in the
#: perf harness's sweep; the line cases ask for it.
SCENARIOS = {
    "tree-ppts": (_TREE, "tree-ppts", {}, {}, 1.0, "auto"),
    "tree-ppts-fifo": (_TREE, "tree-ppts", {"discipline": "FIFO"}, {}, 1.0, "auto"),
    "ppts": (_LINE, "ppts", {}, {"num_destinations": 4}, 1.0, "delta"),
    "hpts": (_LINE, "hpts", {"levels": 2}, {"num_destinations": 4}, 0.5, "delta"),
    "greedy": (_LINE, "greedy", {}, {"num_destinations": 4}, 1.0, "delta"),
}


def _spec(name: str) -> ScenarioSpec:
    topology, algorithm, params, adversary_params, rho, engine = SCENARIOS[name]
    return ScenarioSpec.from_dict(
        {
            "name": name,
            "topology": topology,
            "algorithm": {"name": algorithm, "params": params},
            "adversary": {
                "name": "bounded", "rho": rho, "sigma": 4.0, "rounds": 60,
                "params": adversary_params,
            },
            "policy": {"seed": 5, "history": "full", "engine": engine},
        }
    )


def _wrap(owner: Any, attr: str, calls: Counter, arguments: Dict[str, list]) -> None:
    hook = getattr(owner, attr)

    def counted(*args: Any, **kwargs: Any) -> Any:
        calls[attr] += 1
        arguments.setdefault(attr, []).append(args)
        return hook(*args, **kwargs)

    setattr(owner, attr, counted)


def _run(name: str, wrapped: bool):
    session = Session()
    calls: Counter = Counter()
    arguments: Dict[str, list] = {}
    with packet_id_scope():
        prepared = session.prepare(_spec(name))
        if wrapped:
            for attr in ADVERSARY_HOOKS:
                _wrap(prepared.adversary, attr, calls, arguments)
            for attr in ALGORITHM_HOOKS:
                _wrap(prepared.algorithm, attr, calls, arguments)
        report = session.run(prepared)
    return report, prepared, calls, arguments


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_instance_wrappers_see_every_hook_call(name):
    report, prepared, calls, arguments = _run(name, wrapped=True)
    if report.engine is not None:
        assert report.engine["selected"] == "delta"
    result = report.result
    history = result.history
    rounds = result.rounds_executed
    horizon = prepared.adversary.horizon
    assert len(history) == rounds > horizon
    # One adversary call per injection round, none in the drain.
    assert calls["injections_for_round"] == horizon
    assert [args[0] for args in arguments["injections_for_round"]] == list(range(horizon))
    # One selection, one injection hand-off and one measurement per round.
    assert calls["select_activations"] == rounds
    assert [args[0] for args in arguments["select_activations"]] == list(range(rounds))
    assert calls["on_inject"] == rounds
    assert sum(len(args[1]) for args in arguments["on_inject"]) == result.packets_injected
    assert calls["occupancy_delta"] == rounds
    # One arrival per move that does not deliver.
    moves = sum(record.forwarded for record in history)
    delivered = sum(record.delivered for record in history)
    assert delivered == result.packets_delivered > 0
    assert calls["on_arrival"] == moves - delivered > 0


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_wrapping_the_hooks_leaves_the_result_unchanged(name):
    wrapped, *_ = _run(name, wrapped=True)
    plain, *_ = _run(name, wrapped=False)
    assert wrapped.result == plain.result
