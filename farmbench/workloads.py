"""The benchmark's workloads and the loops that measure them.

Every workload runs *rounds*.  A round is one trace day, drawn from the
workload seed, run through each of the workload's policies; a
*simulated day* is one ``FarmSimulation.run()`` (one policy on one
trace day) or, in ``zoned-5k``, one whole ``GlobalController.run``.
Rounds repeat until the time budget is spent and at least
``Workload.stat_rounds`` rounds are done.

Untraced, only public calls are timed: ``generate_ensemble`` and
``FarmSimulation(...)`` (or ``GlobalController(...)``) as set-up, and
``run`` as the day.  Traced, each simulated day is run twice from the
same inputs: once untraced, once with the plane taps installed and
spans around every public call.  The two runs' fingerprints must match.
"""

from __future__ import annotations

import gc
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.equiv import fingerprint_from_result
from repro.errors import SimulationError
from repro.farm.config import FarmConfig
from repro.farm.runner import SweepRunner
from repro.farm.simulation import FarmSimulation
from repro.farm.validate import validate_simulation
from repro.farm.zones import GlobalController, ZonedFarmResult, zone_run_specs
from repro.faults import FaultProfile
from repro.simulator.randomness import RngStreams, derive_seed
from repro.traces.edges import ActivityEdgeSchedule
from repro.traces.model import DayType
from repro.traces.sampler import generate_ensemble
from repro.units import INTERVALS_PER_DAY

from measure import Tally, cpu_count, straggler_ratio
from spans import SpanRecorder, fold
from taps import install_taps

__all__ = ["Workload", "WORKLOADS", "Measurement", "measure", "day_seed"]

_clock = time.perf_counter
_DAY = DayType.WEEKDAY
_ZONED_SETUP_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    policies: Tuple[str, ...]
    config: FarmConfig
    #: Availability zones; 0 runs one unsharded simulation per policy.
    zones: int = 0
    #: Rounds whose simulated statistics are reported.  Fixed per
    #: workload (never "as many as fit"), so the statistics and their
    #: digest do not depend on how fast the host is.
    stat_rounds: int = 2


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "paper-weekday",
            ("OnlyPartial", "Default", "FulltoPartial", "NewHome"),
            FarmConfig(),
            stat_rounds=3,
        ),
        Workload(
            "gamma-faults",
            ("GammaRobust@1", "GammaRobust@3"),
            FarmConfig(faults=FaultProfile.heavy()),
        ),
        Workload(
            "zoned-5k",
            ("Default",),
            FarmConfig(home_hosts=168, consolidation_hosts=16,
                       vms_per_host=30),
            zones=8,
        ),
    )
}


def day_seed(workload_seed: int, index: int) -> int:
    """Simulation seed of round ``index``; the round's traces derive
    from it exactly as in ``simulate_day``, so any round can be rerun
    with ``python -m repro simulate --seed``."""
    return derive_seed(workload_seed, f"farmbench.round.{index}")


def _trace_seed(sim_seed: int) -> int:
    return RngStreams(sim_seed).get("traces").randrange(2**31)


@dataclass
class Measurement:
    workload: Workload
    seed: int
    trace: bool
    tally: Tally = field(default_factory=Tally)
    recorder: Optional[SpanRecorder] = None
    round_seeds: List[int] = field(default_factory=list)
    #: Set-up seconds per simulated day (one sample per round; several
    #: in zoned-5k), and per round the mean untraced ``run`` seconds.
    setup_samples: List[float] = field(default_factory=list)
    day_samples: List[float] = field(default_factory=list)
    #: Simulated days that produced a result, and their summed untraced
    #: and traced ``run`` seconds.
    days: int = 0
    day_seconds: float = 0.0
    traced_seconds: float = 0.0
    vm_intervals: int = 0
    workers: int = 0
    #: Exact per-layer counts from traced days.
    counts: Counter = field(default_factory=Counter)
    #: Per traced zoned day: runner utilization and straggler ratio.
    utilization: List[float] = field(default_factory=list)
    stragglers: List[float] = field(default_factory=list)
    #: policy -> per-day simulated statistics of the first stat_rounds.
    sim_days: Dict[str, List[Dict[str, float]]] = field(default_factory=dict)

    @property
    def rounds(self) -> int:
        return len(self.round_seeds)


def measure(
    workload: Workload, seed: int, seconds: float, trace: bool
) -> Measurement:
    """Run rounds for ``seconds`` of host time (and at least
    ``stat_rounds`` of them)."""
    m = Measurement(workload, seed, trace)
    if trace:
        m.recorder = SpanRecorder(_clock)
    run_round = _zoned_round if workload.zones else _farm_round
    started = _clock()
    index = 0
    while index < workload.stat_rounds or _clock() - started < seconds:
        # Garbage left by the previous round is collected here, not
        # inside a timed region.
        gc.collect()
        sim_seed = day_seed(seed, index)
        m.round_seeds.append(sim_seed)
        if m.recorder is not None:
            m.recorder.day = index
        run_round(m, index, sim_seed)
        index += 1
    return m


def _record_stats(m: Measurement, index: int, policy: str, result) -> None:
    if index >= m.workload.stat_rounds:
        return
    counters = result.counters
    row = {
        "savings_fraction": result.savings_fraction,
        "full_migrations": counters.full_migrations,
        "partial_migrations": counters.partial_migrations,
        "reintegrations": counters.reintegrations,
        "home_wakeups": counters.home_wakeups,
        "network_mib": result.traffic.network_total_mib(),
    }
    m.sim_days.setdefault(policy, []).append(row)


def _count_faults(m: Measurement, result) -> None:
    faults = result.faults
    m.counts["faults.migration_aborts"] += faults.migration_aborts
    m.counts["faults.wake_retries"] += faults.wake_retries
    m.counts["faults.wake_give_ups"] += faults.wake_give_ups
    m.counts["faults.page_fetch_timeouts"] += faults.page_fetch_timeouts


def _validation_error(simulation: FarmSimulation) -> Optional[str]:
    try:
        validate_simulation(simulation)
    except SimulationError as error:
        return str(error)
    return None


# ----------------------------------------------------------------------
# unsharded workloads
# ----------------------------------------------------------------------


def _farm_round(m: Measurement, index: int, sim_seed: int) -> None:
    workload = m.workload
    config = workload.config
    start = _clock()
    ensemble = generate_ensemble(
        config.total_vms, _DAY, seed=_trace_seed(sim_seed),
        config=config.traces,
    )
    setup = _clock() - start
    if m.recorder is not None:
        m.recorder.add("traces.ensemble", start, start + setup)
    run_seconds = 0.0
    ran = 0
    for policy in workload.policies:
        where = f"round {index} {policy}"
        m.tally.begin_day()
        try:
            start = _clock()
            simulation = FarmSimulation(config, policy, ensemble, seed=sim_seed)
            setup += _clock() - start
            start = _clock()
            result = simulation.run()
            elapsed = _clock() - start
        except Exception as error:  # a failed day is counted, not fatal
            m.tally.guard(where, error)
            continue
        ran += 1
        run_seconds += elapsed
        m.days += 1
        m.day_seconds += elapsed
        m.vm_intervals += config.total_vms * INTERVALS_PER_DAY
        error = _validation_error(simulation)
        m.tally.check(where, error is None, f"validate_simulation: {error}")
        _record_stats(m, index, policy, result)
        if m.recorder is not None:
            try:
                _traced_farm_day(m, where, ensemble, sim_seed, policy,
                                 fingerprint_from_result(result))
            except Exception as error:
                m.tally.guard(where + " (traced)", error)
    m.setup_samples.append(setup / len(workload.policies))
    if ran:
        m.day_samples.append(run_seconds / ran)


def _traced_farm_day(
    m: Measurement, where: str, ensemble, sim_seed: int, policy: str,
    expected,
) -> None:
    recorder = m.recorder
    config = m.workload.config
    with recorder.span("farm.day", label=policy):
        with recorder.span("traces.edges"):
            edges = ActivityEdgeSchedule.compile(ensemble).edge_count
        with recorder.span("farm.init"):
            simulation = FarmSimulation(config, policy, ensemble, seed=sim_seed)
        decisions, ledger = install_taps(simulation, recorder)
        with recorder.span("farm.run") as run_span:
            result = simulation.run()
        for name, (seconds, calls) in decisions.folded.items():
            fold(run_span, name, seconds, calls)
        fold(run_span, "ledger", ledger.seconds, ledger.calls)
        with recorder.span("validate"):
            error = _validation_error(simulation)
    m.traced_seconds += run_span.duration
    m.tally.check(where, error is None,
                  f"traced validate_simulation: {error}")
    m.tally.check(where, fingerprint_from_result(result) == expected,
                  "traced fingerprint differs from the untraced run")
    counts = m.counts
    counts["traces.edges"] += edges
    counts["engine.events"] += simulation.sim.events_fired
    counts["core.exchanges_planned"] += decisions.exchanges_planned
    counts["core.vacations_planned"] += decisions.vacations_planned
    counts["core.migrations_planned"] += decisions.migrations_planned
    _count_faults(m, result)


# ----------------------------------------------------------------------
# the zoned workload
# ----------------------------------------------------------------------


class _TimedRunner(SweepRunner):
    """A process runner whose fan-out is a span."""

    def __init__(self, recorder: SpanRecorder, **kwargs) -> None:
        super().__init__(**kwargs)
        self.recorder = recorder

    def run(self, specs):
        with self.recorder.span("runner.fanout"):
            return super().run(specs)


def _zone_sum_error(zoned: ZonedFarmResult) -> Optional[str]:
    parts = zoned.zone_managed_joules()
    if sum(parts) != zoned.energy.managed_joules:
        return (f"zone energies sum to {sum(parts)!r}, aggregate is "
                f"{zoned.energy.managed_joules!r}")
    if len(zoned.aggregate.sample_times_s) != INTERVALS_PER_DAY:
        return "aggregate lacks one sample per interval"
    return None


def _zoned_round(m: Measurement, index: int, sim_seed: int) -> None:
    workload = m.workload
    config = workload.config
    policy = workload.policies[0]
    m.workers = min(8, cpu_count())
    where = f"round {index} {policy}"
    m.tally.begin_day()
    try:
        # Construction takes well under a millisecond; repeating it gives
        # the set-up median enough samples to hold still.
        setups = []
        for _ in range(_ZONED_SETUP_REPEATS):
            start = _clock()
            controller = GlobalController(
                config, policy, _DAY, zones=workload.zones, seed=sim_seed
            )
            setups.append(_clock() - start)
        runner = SweepRunner(backend="process", workers=m.workers)
        start = _clock()
        zoned = controller.run(runner=runner)
        elapsed = _clock() - start
    except Exception as error:  # a failed day is counted, not fatal
        m.tally.guard(where, error)
        return
    m.setup_samples.extend(setups)
    m.day_samples.append(elapsed)
    m.days += 1
    m.day_seconds += elapsed
    m.vm_intervals += config.total_vms * INTERVALS_PER_DAY
    error = _zone_sum_error(zoned)
    m.tally.check(where, error is None, str(error))
    _record_stats(m, index, policy, zoned.aggregate)
    if m.recorder is not None:
        try:
            _traced_zoned_day(m, where, sim_seed, policy,
                              fingerprint_from_result(zoned.aggregate))
        except Exception as error:
            m.tally.guard(where + " (traced)", error)


def _traced_zoned_day(
    m: Measurement, where: str, sim_seed: int, policy: str, expected
) -> None:
    recorder = m.recorder
    workload = m.workload
    config = workload.config
    with recorder.span("zones.day", label=policy):
        with recorder.span("zones.setup"):
            controller = GlobalController(
                config, policy, _DAY, zones=workload.zones, seed=sim_seed
            )
        runner = _TimedRunner(recorder, backend="process", workers=m.workers)
        with recorder.span("zones.controller") as controller_span:
            zoned = controller.run(runner=runner)
        with recorder.span("validate"):
            error = _zone_sum_error(zoned)
        # The shards build their traces inside the workers; build them
        # again here so the trace layer is timed at this scale too.
        for _zone, spec in zone_run_specs(
            controller.partition, config, policy, _DAY
        ):
            with recorder.span("traces.ensemble"):
                ensemble = generate_ensemble(
                    spec.config.total_vms, spec.day_type,
                    seed=spec.trace_seed, config=spec.config.traces,
                )
            with recorder.span("traces.edges"):
                m.counts["traces.edges"] += (
                    ActivityEdgeSchedule.compile(ensemble).edge_count
                )
    m.traced_seconds += controller_span.duration
    m.tally.check(where, error is None, f"traced: {error}")
    m.tally.check(
        where, fingerprint_from_result(zoned.aggregate) == expected,
        "traced fingerprint differs from the untraced run",
    )
    summary = runner.last_summary
    m.utilization.append(summary.worker_utilization)
    m.stragglers.append(
        straggler_ratio(summary.run_wall_max_s, summary.run_wall_mean_s)
    )
    m.counts["runner.ensemble_cache_hits"] += summary.ensemble_cache_hits
    _count_faults(m, zoned.aggregate)
