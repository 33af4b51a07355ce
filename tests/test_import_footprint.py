"""Running a scenario never loads networkx.

networkx is imported only by the topology export/import helpers
(``to_networkx`` / ``from_networkx``); the package import and every engine
work from parent pointers and DFS stamps.  Loading it anyway costs every CLI
call, service worker and benchmark run about a quarter of its peak RSS, so a
fresh interpreter checks that neither ``import repro`` nor a ``Session`` run
on the batch kernel or the delta engine pulls it in.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import repro

_SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

_PROBE = textwrap.dedent(
    """
    import sys

    import repro
    from repro import ScenarioSpec, Session

    assert "networkx" not in sys.modules, "import repro loaded networkx"

    def spec(name, topology, algorithm, engine):
        return ScenarioSpec.from_dict({
            "name": name,
            "topology": topology,
            "algorithm": {"name": algorithm, "params": {}},
            "adversary": {"name": "bounded", "rho": 1.0, "sigma": 2.0, "rounds": 40},
            "policy": {"seed": 3, "engine": engine},
        })

    session = Session()
    line = session.run(spec(
        "line-batch", {"kind": "line", "params": {"num_nodes": 16}}, "pts", "batch",
    ))
    tree = session.run(spec(
        "tree-delta", {"kind": "tree", "params": {"family": "binary", "depth": 3}},
        "tree-ppts", "auto",
    ))
    assert line.engine["selected"] == "batch", line.engine
    assert tree.engine["selected"] == "delta", tree.engine
    assert line.within_bound and tree.within_bound
    assert "networkx" not in sys.modules, "a Session run loaded networkx"
    print("ok")
    """
)


def test_import_and_runs_on_both_engines_leave_networkx_unloaded():
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": _SRC_DIR},
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "ok"
