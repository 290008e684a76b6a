"""Timing taps on the simulator's two plane seams.

``FarmSimulation`` sends every planner query through ``sim.decisions``
(a :class:`~repro.farm.planes.DecisionPlane`) and every energy, state
and traffic write through ``sim.ledger`` (an
:class:`~repro.farm.planes.AccountingLedger`).  The taps below replace
those two attributes on a constructed, unrun simulation and delegate
each call unchanged, timing it on the way.  They draw no random number
and return what the inner plane returns, so a tapped day's results are
identical to an untapped one; the benchmark checks that on every traced
day by comparing fingerprints.

Both taps subclass their seam's abstract base, so a method added to
either seam leaves the tap abstract (it cannot be built) until it is
timed here too.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional

from repro.core.plan import ActivationDecision, ConsolidationPlan, ExchangePlan
from repro.farm.planes import AccountingLedger, DecisionPlane
from repro.vm.machine import VirtualMachine

from spans import SpanRecorder

__all__ = ["DecisionTap", "LedgerTap", "install_taps"]


class DecisionTap(DecisionPlane):
    """Times planner queries and counts what the returned plans hold.

    The two periodic passes (288 calls each per day) become spans; the
    per-activation queries are summed into ``folded``.
    """

    def __init__(self, inner: DecisionPlane, recorder: SpanRecorder) -> None:
        self.inner = inner
        self.recorder = recorder
        self.folded: Dict[str, List[float]] = {
            "core.decide_activation": [0.0, 0],
            "core.reroute_activation": [0.0, 0],
        }
        self.exchanges_planned = 0
        self.vacations_planned = 0
        self.migrations_planned = 0

    def plan_exchanges(self) -> List[ExchangePlan]:
        clock = self.recorder.clock
        start = clock()
        plans = self.inner.plan_exchanges()
        self.recorder.add("core.plan_exchanges", start, clock())
        self.exchanges_planned += len(plans)
        return plans

    def plan_consolidation(
        self, compact_consolidation: bool = True
    ) -> ConsolidationPlan:
        clock = self.recorder.clock
        start = clock()
        plan = self.inner.plan_consolidation(
            compact_consolidation=compact_consolidation
        )
        self.recorder.add("core.plan_consolidation", start, clock())
        self.vacations_planned += len(plan.vacations)
        self.migrations_planned += sum(
            len(host_plan.migrations)
            for host_plan in plan.vacations + plan.compactions
        )
        return plan

    def decide_activation(self, vm: VirtualMachine) -> ActivationDecision:
        clock = self.recorder.clock
        start = clock()
        decision = self.inner.decide_activation(vm)
        total = self.folded["core.decide_activation"]
        total[0] += clock() - start
        total[1] += 1
        return decision

    def reroute_activation(self, vm: VirtualMachine) -> Optional[int]:
        clock = self.recorder.clock
        start = clock()
        destination = self.inner.reroute_activation(vm)
        total = self.folded["core.reroute_activation"]
        total[0] += clock() - start
        total[1] += 1
        return destination


class LedgerTap(AccountingLedger):
    """Times every ledger call into one ``seconds``/``calls`` total.

    Shares the inner ledger's traffic, counter and fault records, as the
    engine writes some counters through ``ledger.traffic`` and
    ``ledger.counters`` directly.  Those direct writes are not calls
    into the ledger and are not counted.
    """

    def __init__(
        self, inner: AccountingLedger, clock: Callable[[], float]
    ) -> None:
        self.inner = inner
        self.traffic = inner.traffic
        self.counters = inner.counters
        self.faults = inner.faults
        self.clock = clock
        self.seconds = 0.0
        self.calls = 0

    def _done(self, start: float) -> None:
        self.seconds += self.clock() - start
        self.calls += 1

    def set_power(self, entity: Hashable, watts: float, now: float) -> None:
        start = self.clock()
        self.inner.set_power(entity, watts, now)
        self._done(start)

    def add_energy(self, entity: Hashable, joules: float) -> None:
        start = self.clock()
        self.inner.add_energy(entity, joules)
        self._done(start)

    def set_state(self, entity: Hashable, state: str, now: float) -> None:
        start = self.clock()
        self.inner.set_state(entity, state, now)
        self._done(start)

    def record_partial_migration(
        self, descriptor_mib: float, upload_mib: float
    ) -> None:
        start = self.clock()
        self.inner.record_partial_migration(descriptor_mib, upload_mib)
        self._done(start)

    def record_on_demand(self, demand_mib: float) -> None:
        start = self.clock()
        self.inner.record_on_demand(demand_mib)
        self._done(start)

    def finish(self, horizon: float) -> None:
        start = self.clock()
        self.inner.finish(horizon)
        self._done(start)

    def total_joules(self) -> float:
        start = self.clock()
        value = self.inner.total_joules()
        self._done(start)
        return value

    def energy_joules(self, entity: Hashable) -> float:
        start = self.clock()
        value = self.inner.energy_joules(entity)
        self._done(start)
        return value

    def state_duration(self, entity: Hashable, state: str) -> float:
        start = self.clock()
        value = self.inner.state_duration(entity, state)
        self._done(start)
        return value

    def state_time_s(self) -> Dict[str, float]:
        start = self.clock()
        value = self.inner.state_time_s()
        self._done(start)
        return value

    def state_energy_j(self) -> Dict[str, float]:
        start = self.clock()
        value = self.inner.state_energy_j()
        self._done(start)
        return value


def install_taps(simulation, recorder: SpanRecorder):
    """Tap ``simulation``'s two planes; returns ``(decisions, ledger)``."""
    decisions = DecisionTap(simulation.decisions, recorder)
    ledger = LedgerTap(simulation.ledger, recorder.clock)
    simulation.decisions = decisions
    simulation.ledger = ledger
    return decisions, ledger
