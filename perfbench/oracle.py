"""Result digests and the delta-engine oracle.

Every measured run is checked against the delta engine, the program's one
reference engine, by the digest of its
:class:`~repro.network.events.SimulationResult` (every field, with the
per-node maxima).  A scenario the program ran on another engine is run again,
untimed, with ``engine="delta"`` through ``Session.run(spec)``, and the two
digests must match.  A scenario the program itself ran on the delta engine is
its own reference; for those, ``Session.run(spec)`` of the first scenario is
checked once against the benchmark's own ``prepare`` +
``Session.run(prepared)`` path inside a ``packet_id_scope``.  Every later
pass of a run must repeat the first pass's digests.

Delta digests are cached per program source in ``perfbench/.oracle-cache``,
so repeated runs of one seed, and the two workloads that share a spec, pay
for the reference run once.  A change to any file under ``src/repro``
changes the cache file.

``digests.json`` pins the reference digests of every workload at the default
seed, so a change of the delta engine's results shows too.  Regenerate it with
``python3 perfbench/run.py --record-digests`` only when a change of the
program's results is intended.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Dict, Sequence

import repro
from repro.api.session import Session
from repro.api.specs import ScenarioSpec
from repro.network.events import SimulationResult

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")
CACHE_DIR = os.path.join(HERE, ".oracle-cache")


def result_digest(result: SimulationResult) -> str:
    payload = {}
    for field in dataclasses.fields(result):
        value = getattr(result, field.name)
        if field.name == "max_occupancy_per_node":
            value = sorted(value.items())
        elif field.name == "history":
            value = [dataclasses.asdict(record) for record in value]
        payload[field.name] = value
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def combined_digest(digests: Sequence[str]) -> str:
    """One digest for a whole pass, in scenario order."""
    return hashlib.sha256(",".join(digests).encode()).hexdigest()[:20]


def delta_spec(spec: ScenarioSpec) -> ScenarioSpec:
    """The same scenario on the reference engine, in one process."""
    policy = dataclasses.replace(spec.policy, engine="delta", shards=None)
    return dataclasses.replace(spec, policy=policy)


def _source_hash() -> str:
    root = os.path.dirname(os.path.abspath(repro.__file__))
    paths = sorted(
        os.path.join(folder, name)
        for folder, _, names in os.walk(root)
        for name in names
        if name.endswith(".py")
    )
    digest = hashlib.sha256()
    for path in paths:
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


class Oracle:
    """Delta-engine digests of specs, cached per program source."""

    def __init__(self) -> None:
        self.path = os.path.join(CACHE_DIR, _source_hash()[:32] + ".json")
        self.known: Dict[str, str] = {}
        if os.path.exists(self.path):
            with open(self.path) as handle:
                self.known = json.load(handle)
        self._added = False

    def digest(self, spec: ScenarioSpec) -> str:
        spec = delta_spec(spec)
        key = spec.spec_hash()
        if key not in self.known:
            self.known[key] = result_digest(Session().run(spec).result)
            self._added = True
        return self.known[key]

    def save(self) -> None:
        if not self._added:
            return
        os.makedirs(CACHE_DIR, exist_ok=True)
        partial = f"{self.path}.{os.getpid()}"
        with open(partial, "w") as handle:
            json.dump(self.known, handle)
        os.replace(partial, self.path)


def load_stored() -> Dict[str, Dict[str, object]]:
    with open(DIGESTS_PATH) as handle:
        return json.load(handle)


def write_stored(stored: Dict[str, Dict[str, object]]) -> None:
    with open(DIGESTS_PATH, "w") as handle:
        json.dump(stored, handle, indent=2, sort_keys=True)
        handle.write("\n")
