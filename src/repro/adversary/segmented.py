"""Segment-filtered adversary views for the sharded execution engine.

The sharded engine (:mod:`repro.network.sharded`) gives every worker process
its own copy of the scenario's adversary and lets each worker keep only the
injections whose source lies inside its segment.  Filtering — rather than
splitting — is what keeps packet ids bit-identical with the single-process
run: every worker drives the *full* row stream through its own packet-id
allocator, so the id sequence is the global one, and the filter merely drops
the materialised records that belong to other segments.  Relative injection
order within a round is preserved per node (filtering is order-stable), which
is what the per-buffer push order depends on.

The wrapper is deliberately thin:

* ``injections_for_round`` delegates and filters;
* everything else (``horizon``/``rho``/``sigma``/...) is forwarded to the
  wrapped adversary, so the engine probes exactly what the wrapped
  adversary offers.

Adaptive adversaries are refused: their injections observe the global
configuration, which no single segment can reproduce.
"""

from __future__ import annotations

from typing import List

from ..core.packet import Injection
from ..network.errors import UnshardableScenarioError
from .base import Adversary

__all__ = ["SegmentFilteredAdversary"]


class SegmentFilteredAdversary(Adversary):
    """An adversary restricted to injections with source in ``[lo, hi]``.

    Parameters
    ----------
    base:
        The full-line adversary (eager or streaming).  It is consumed through
        this wrapper and must not be driven directly afterwards.
    lo, hi:
        The segment's inclusive node bounds.
    """

    def __init__(self, base: Adversary, lo: int, hi: int) -> None:
        if getattr(base, "adaptive", False):
            raise UnshardableScenarioError(
                f"{type(base).__name__} is adaptive: its injections observe "
                f"the global configuration, which a segment cannot see; run "
                f"with shards=1"
            )
        if lo > hi:
            raise UnshardableScenarioError(f"empty segment [{lo}, {hi}]")
        self.base = base
        self.lo = lo
        self.hi = hi

    # -- Adversary interface -----------------------------------------------------

    def injections_for_round(self, round_number: int) -> List[Injection]:
        lo, hi = self.lo, self.hi
        return [
            injection
            for injection in self.base.injections_for_round(round_number)
            if lo <= injection.source <= hi
        ]

    @property
    def horizon(self) -> int:
        return self.base.horizon

    # rho/sigma are *class* attributes on Adversary, so they must be forwarded
    # explicitly (``__getattr__`` only fires when normal lookup fails).
    @property
    def rho(self):
        return self.base.rho

    @property
    def sigma(self):
        return self.base.sigma

    def __getattr__(self, name: str):
        # Forward everything else so hasattr-based protocol probes see
        # exactly what the wrapped adversary offers.
        if name == "base":  # guard: unpickling probes before __init__ runs
            raise AttributeError(name)
        return getattr(self.base, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SegmentFilteredAdversary([{self.lo}, {self.hi}], {self.base!r})"
        )
