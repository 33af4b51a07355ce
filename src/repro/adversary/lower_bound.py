"""The Section 5 lower-bound adversary (Theorem 5.1).

The construction works on a line of ``n = (ell + 1) * m**ell`` buffers and
runs for ``m**ell`` phases of ``m`` rounds each.  Writing a round number in
base ``m`` as ``t_ell t_{ell-1} ... t_0``, the *phase* containing ``t`` is
identified by the digits ``t_ell ... t_1`` and during that phase the adversary
injects ``rho * m`` packets of each of ``ell + 1`` types along edge-disjoint
routes:

* type-1 packets at buffer ``v_1`` with destination ``n`` (a virtual sink
  past the end of the line),
* type-``k`` packets (``2 <= k <= ell``) at buffer ``v_k`` with destination
  ``v_{k-1}``,
* type-``(ell+1)`` packets at buffer 0 with destination ``v_ell``,

where ``v_i(t_ell ... t_1) = sum_{k=i}^{ell} ((k+1) m^k - (t_k+1) k m^{k-1})``.
The front ``F(t) = v_1`` sweeps left over time; the potential argument shows
that for *any* forwarding protocol either many packets pile up in a short
suffix interval or many "fresh" packets accumulate behind the front, giving
the ``Omega(((ell+1) rho - 1) / (2 ell) * n^{1/ell})`` bound.

The injections are spread inside each phase at token rate ``rho`` (burst 1),
so the produced pattern is ``(rho, sigma)``-bounded for a small constant
``sigma`` — the tests measure the tightest sigma and pin it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from ..api.registry import register_adversary
from ..core.packet import Injection, make_injection
from ..network.errors import ConfigurationError
from ..network.topology import LineTopology
from .base import InjectionPattern

__all__ = [
    "LowerBoundConstruction",
    "lower_bound_network_size",
    "injection_site",
    "front_position",
]


def lower_bound_network_size(branching: int, levels: int) -> int:
    """``n = (ell + 1) * m**ell`` — the line length the construction needs."""
    if branching < 2:
        raise ConfigurationError(f"branching m must be >= 2, got {branching}")
    if levels < 1:
        raise ConfigurationError(f"levels ell must be >= 1, got {levels}")
    return (levels + 1) * branching**levels


def _phase_digits(phase_index: int, branching: int, levels: int) -> List[int]:
    """Digits ``t_1 .. t_ell`` (least significant first) of a phase index.

    A phase index ``p`` corresponds to round numbers whose base-``m`` digits
    ``t_ell ... t_1`` spell ``p``; i.e. ``p = sum_k t_k m^{k-1}``.
    """
    digits = []
    value = phase_index
    for _ in range(levels):
        digits.append(value % branching)
        value //= branching
    if value != 0:
        raise ConfigurationError(
            f"phase index {phase_index} does not fit in {levels} base-{branching} digits"
        )
    return digits  # digits[k-1] is t_k


def injection_site(
    site_index: int,
    phase_digits: List[int],
    branching: int,
    levels: int,
) -> int:
    """``v_i(t_ell ... t_1)`` for ``i = site_index`` (1-based, as in the paper)."""
    if not (1 <= site_index <= levels):
        raise ConfigurationError(
            f"site index must be in [1, {levels}], got {site_index}"
        )
    m = branching
    total = 0
    for k in range(site_index, levels + 1):
        t_k = phase_digits[k - 1]
        total += (k + 1) * m**k - (t_k + 1) * k * m ** (k - 1)
    return total


def front_position(round_number: int, branching: int, levels: int) -> int:
    """``F(t) = v_1(t_ell ... t_1)`` — the front during the phase containing ``t``."""
    phase_index = round_number // branching
    digits = _phase_digits(phase_index, branching, levels)
    return injection_site(1, digits, branching, levels)


@dataclass(frozen=True)
class PhasePlan:
    """The injection plan for one phase of the lower-bound construction."""

    phase_index: int
    first_round: int
    digits: List[int]
    #: ``v_1 .. v_ell`` (index 0 is ``v_1``).
    sites: List[int]
    #: ``(source, destination)`` for each of the ``ell + 1`` packet types,
    #: type-1 first.
    routes: List[tuple]


class LowerBoundConstruction:
    """Builds and describes the Theorem 5.1 adversary.

    Parameters
    ----------
    branching:
        The parameter ``m``.
    levels:
        The parameter ``ell`` (the theorem needs ``ell >= 2``; ``ell = 1`` is
        accepted for completeness and reduces to a single-level front sweep).
    rho:
        The injection rate; the theorem requires ``rho > 1 / (ell + 1)`` for
        the bound to be non-trivial, but the construction itself is valid for
        any ``0 < rho <= 1``.
    """

    def __init__(self, branching: int, levels: int, rho: float) -> None:
        if branching < 2:
            raise ConfigurationError(f"branching m must be >= 2, got {branching}")
        if levels < 1:
            raise ConfigurationError(f"levels ell must be >= 1, got {levels}")
        if not (0 < rho <= 1):
            raise ConfigurationError(f"rho must be in (0, 1], got {rho}")
        self.branching = branching
        self.levels = levels
        self.rho = float(rho)
        self.num_nodes = lower_bound_network_size(branching, levels)
        self.num_phases = branching**levels
        self.phase_length = branching
        self.num_rounds = self.num_phases * self.phase_length
        #: Packets of each type injected per phase (the paper's ``rho m``).
        self.packets_per_type = int(self.rho * self.phase_length)

    # -- structural queries -----------------------------------------------------

    def topology(self) -> LineTopology:
        """The line this construction runs on (virtual sink enabled)."""
        return LineTopology(self.num_nodes, allow_virtual_sink=True)

    def phase_plan(self, phase_index: int) -> PhasePlan:
        """Sites and routes used during the given phase."""
        if not (0 <= phase_index < self.num_phases):
            raise ConfigurationError(
                f"phase index {phase_index} outside [0, {self.num_phases - 1}]"
            )
        digits = _phase_digits(phase_index, self.branching, self.levels)
        sites = [
            injection_site(i, digits, self.branching, self.levels)
            for i in range(1, self.levels + 1)
        ]
        routes: List[tuple] = []
        # type-1: v_1 -> n (virtual sink)
        routes.append((sites[0], self.num_nodes))
        # type-k for k = 2 .. ell: v_k -> v_{k-1}
        for k in range(2, self.levels + 1):
            routes.append((sites[k - 1], sites[k - 2]))
        # type-(ell+1): 0 -> v_ell
        routes.append((0, sites[self.levels - 1]))
        return PhasePlan(
            phase_index=phase_index,
            first_round=phase_index * self.phase_length,
            digits=digits,
            sites=sites,
            routes=routes,
        )

    def front(self, round_number: int) -> int:
        """``F(t)`` for any round within the construction's horizon."""
        if not (0 <= round_number < self.num_rounds):
            raise ConfigurationError(
                f"round {round_number} outside [0, {self.num_rounds - 1}]"
            )
        return front_position(round_number, self.branching, self.levels)

    def theoretical_bound(self) -> float:
        """The Theorem 5.1 buffer-space lower bound for these parameters.

        The theorem's ``((ell + 1) * rho - 1) / (2 * ell) * n**(1/ell)`` at
        the rate the construction injects, ``packets_per_type /
        phase_length = floor(rho * m) / m``, which is below the nominal
        ``rho`` whenever ``rho * m`` is not an integer.  The sign test is
        exact, on integers: ``(m, ell, rho) = (3, 2, 0.5)`` injects at 1/3,
        right at the threshold, and forces nothing.
        """
        excess = (self.levels + 1) * self.packets_per_type - self.phase_length
        if excess <= 0:
            return 0.0
        return (
            excess
            / self.phase_length
            / (2.0 * self.levels)
            * self.num_nodes ** (1.0 / self.levels)
        )

    # -- pattern construction -----------------------------------------------------

    def _injection_offsets(self) -> List[int]:
        """Offsets within a phase at which each type emits one packet.

        Spreads the ``rho * m`` packets of a type evenly over the phase's
        ``m`` rounds (one packet whenever the cumulative rate crosses an
        integer), so each route is fed at rate ``rho`` with burst 1.
        """
        offsets = []
        for s in range(self.phase_length):
            if int((s + 1) * self.rho) > int(s * self.rho):
                offsets.append(s)
        return offsets

    def build_pattern(self, num_phases: Optional[int] = None) -> InjectionPattern:
        """Materialise the injection pattern (optionally truncated to fewer phases)."""
        phases = self.num_phases if num_phases is None else min(num_phases, self.num_phases)
        offsets = self._injection_offsets()
        injections: List[Injection] = []
        for phase_index in range(phases):
            plan = self.phase_plan(phase_index)
            for source, destination in plan.routes:
                if destination <= source:
                    # Degenerate route (can occur for ell = 1 edge cases); skip.
                    continue
                for offset in offsets:
                    injections.append(
                        make_injection(plan.first_round + offset, source, destination)
                    )
        return InjectionPattern(injections, rho=self.rho, sigma=None)

    # -- fresh / stale analysis ---------------------------------------------------

    def classify_packets(
        self,
        locations: Mapping[int, Optional[int]],
        round_number: int,
    ) -> Dict[str, int]:
        """Count fresh and stale packets given current packet locations.

        Parameters
        ----------
        locations:
            Maps packet id to the buffer currently storing it, or ``None`` if
            the packet has been delivered (delivered packets are stale by
            Lemma 5.3, but they no longer occupy buffers so they are counted
            separately).
        round_number:
            The round at which the snapshot was taken.

        Returns
        -------
        dict
            ``{"fresh": ..., "stale": ..., "delivered": ...}``.
        """
        front = self.front(min(round_number, self.num_rounds - 1))
        fresh = stale = delivered = 0
        for location in locations.values():
            if location is None:
                delivered += 1
            elif location <= front:
                fresh += 1
            else:
                stale += 1
        return {"fresh": fresh, "stale": stale, "delivered": delivered}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LowerBoundConstruction(m={self.branching}, ell={self.levels}, "
            f"rho={self.rho}, n={self.num_nodes}, rounds={self.num_rounds})"
        )


@register_adversary("lower-bound", aliases=("lower_bound",))
def build_lower_bound_adversary(
    topology: LineTopology,
    *,
    rho: float,
    sigma: float,
    rounds: int,
    branching: int,
    levels: int,
    num_phases: Optional[int] = None,
) -> InjectionPattern:
    """Registry entry point for the Theorem 5.1 construction.

    ``sigma`` and ``rounds`` are ignored: the construction fixes its own
    horizon and its effective burst is close to 1 by design (the returned
    pattern declares ``sigma=None`` so no upper bound is claimed against it).
    The topology must be the construction's own line,
    ``LineTopology(lower_bound_network_size(branching, levels))``.
    """
    construction = LowerBoundConstruction(branching, levels, rho)
    if topology.num_nodes != construction.num_nodes:
        raise ConfigurationError(
            f"lower-bound adversary with m={branching}, ell={levels} needs a line "
            f"of {construction.num_nodes} nodes, got {topology.num_nodes}"
        )
    return construction.build_pattern(num_phases)
