"""repro.api — the declarative front door for every simulation run.

Everything the paper measures is an instance of one shape: *topology x
adversary x forwarding algorithm x run policy*.  This package makes that
quadruple a first-class, serialisable object (:class:`ScenarioSpec`) and
provides one engine (:class:`Session`) that executes it, replacing the
hand-wired constructor plumbing previously duplicated across the CLI,
benchmarks, examples and the experiment harness.

Quickstart
----------

Fluent builder (the usual entry point)::

    from repro.api import Scenario

    report = (
        Scenario.line(64)
        .algorithm("hpts", levels=3)
        .adversary("hierarchy", rho=1 / 3, sigma=2, rounds=300,
                   branching=4, levels=3)
        .run()
    )
    print(report.max_occupancy, "<=", report.bound)

Batched sweeps share one :class:`Session` (cached topologies, per-run
packet-id scoping, an opt-in process pool)::

    from repro.api import Scenario, Session

    session = Session()
    specs = [
        Scenario.line(128).algorithm("ppts")
        .adversary("round-robin", rho=1.0, sigma=2, rounds=300,
                   num_destinations=d)
        .build()
        for d in (1, 2, 4, 8, 16)
    ]
    reports = session.run_many(specs)

Spec schema
-----------

A :class:`ScenarioSpec` round-trips through ``to_dict``/``from_dict`` and
``to_json``/``from_json``.  The JSON layout::

    {
      "name": "optional label",
      "topology":  {"kind": "line",  "params": {"num_nodes": 64}},
      "algorithm": {"name": "ppts",  "params": {}},
      "adversary": {"name": "round-robin", "rho": 1.0, "sigma": 2.0,
                    "rounds": 300, "params": {"num_destinations": 8}},
      "policy":    {"rounds": null, "drain": true, "max_drain_rounds": null,
                    "record_history": false, "record_occupancy_vectors": false,
                    "validate_capacity": true, "seed": null}
    }

* ``topology.kind`` selects a :data:`TOPOLOGIES` entry.  Built-ins:
  ``"line"`` (``num_nodes``, ``allow_virtual_sink``), ``"tree"``
  (``family``: ``caterpillar`` / ``star`` / ``binary`` / ``random`` /
  ``parent`` plus family params), ``"forest"`` (``components``: a list of
  tree param dicts).
* ``algorithm.name`` selects an :data:`ALGORITHMS` entry.  Built-ins:
  ``"pts"``, ``"ppts"``, ``"hpts"`` (``levels``, optional ``branching``,
  ``rho``), ``"local"`` (``locality``), ``"downhill"``, ``"greedy"``
  (``policy`` name), ``"tree-pts"``, ``"tree-ppts"`` (``destinations``).
* ``adversary.name`` selects an :data:`ADVERSARIES` entry; ``rho``/``sigma``
  are the Definition 2.1 envelope and ``rounds`` the injection horizon.
  Built-ins: ``"burst"`` (alias ``stress``), ``"round-robin"``, ``"nested"``,
  ``"hierarchy"``, ``"bounded"`` (alias ``random``), ``"single"``,
  ``"bursty"``, ``"convergecast"``, ``"hotspot"``, ``"blocking"``,
  ``"lower-bound"``.
* ``policy`` drives the engine: injection-round override, drain behaviour,
  history recording, capacity validation, and the per-run RNG ``seed``
  (forwarded to adversary builders that accept one).

Extension points
----------------

New components plug in with a decorator — no changes to this package::

    from repro.api import register_algorithm, register_adversary, register_topology

    @register_algorithm("my-algo")
    class MyAlgorithm(ForwardingAlgorithm):
        ...                           # entry(topology, **params)

    @register_adversary("my-traffic")
    def build_my_traffic(topology, *, rho, sigma, rounds, **params):
        return InjectionPattern(...)  # any Adversary

    @register_topology("ring")
    def build_ring(num_nodes=8):
        return RingTopology(num_nodes)

After registration the component is addressable from specs, the fluent
builder, JSON files and the ``--spec`` CLI flag alike.
"""

from __future__ import annotations

from .builder import Scenario
from .registry import (
    ADVERSARIES,
    ALGORITHMS,
    TOPOLOGIES,
    Registry,
    RegistryError,
    register_adversary,
    register_algorithm,
    register_topology,
)
from .session import (
    PreparedRun,
    RunReport,
    Session,
    build_topology,
    reports_to_table,
)
from .specs import (
    AdversarySpec,
    AlgorithmSpec,
    RunPolicy,
    ScenarioSpec,
    SpecError,
    TopologySpec,
)

# Importing the component modules applies their registration decorators, so
# `import repro.api` alone is enough to populate the registries.
from .. import baselines as _baselines  # noqa: F401
from ..adversary import adaptive as _adaptive  # noqa: F401
from ..adversary import generators as _generators  # noqa: F401
from ..adversary import lower_bound as _lower_bound  # noqa: F401
from ..adversary import stress as _stress  # noqa: F401
from ..core import hpts as _hpts  # noqa: F401
from ..core import local as _local  # noqa: F401
from ..core import ppts as _ppts  # noqa: F401
from ..core import pts as _pts  # noqa: F401
from ..core import tree as _tree  # noqa: F401
from ..network import forest as _forest  # noqa: F401
from ..network import topology as _topology  # noqa: F401

__all__ = [
    "Scenario",
    "Session",
    "RunReport",
    "PreparedRun",
    "build_topology",
    "reports_to_table",
    "ScenarioSpec",
    "TopologySpec",
    "AlgorithmSpec",
    "AdversarySpec",
    "RunPolicy",
    "SpecError",
    "Registry",
    "RegistryError",
    "ALGORITHMS",
    "ADVERSARIES",
    "TOPOLOGIES",
    "register_algorithm",
    "register_adversary",
    "register_topology",
]
