"""Metrics collected by a farm run — one field per evaluation figure.

* Figure 7 — per-interval active-VM and powered-host time series;
* Figure 8 / 12 / Table 3 — the energy report;
* Figure 9 — per-interval per-consolidation-host VM counts;
* Figure 10 — the traffic ledger;
* Figure 11 — idle-to-active transition delay samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple

from repro.energy.report import EnergyReport
from repro.errors import ConfigError
from repro.faults.model import FaultCounters
from repro.migration.traffic import TrafficLedger


class DelaySample(NamedTuple):
    """One idle-to-active transition and the delay the user saw (§5.5).

    A named tuple rather than a frozen dataclass: a day records one per
    activation (about 30k at paper scale), zoned shards pickle them back
    to the parent, and tuple construction and pickling cost about half
    the dataclass's.  Fields, keyword construction and immutability are
    the dataclass's.
    """

    time_s: float
    vm_id: int
    delay_s: float
    #: How the transition was handled (ActivationAction value).
    action: str


@dataclass
class MigrationCounters:
    """How many operations of each kind the day required."""

    partial_migrations: int = 0
    partial_relocations: int = 0
    full_migrations: int = 0
    reintegrations: int = 0
    conversions_in_place: int = 0
    rehomings: int = 0
    exchanges: int = 0
    home_wakeups: int = 0
    consolidation_wakeups: int = 0
    suspends: int = 0
    #: Expected suspend/resume cycles spent serving page requests when
    #: the memory server is absent (the §3.3 ablation); fractional
    #: because it accumulates analytical expectations per interval.
    page_request_wake_cycles: float = 0.0


@dataclass
class FarmResult:
    """Everything measured over one simulated day."""

    policy_name: str
    day_type: str
    seed: int
    horizon_s: float

    #: Mid-interval samples, one per 5-minute interval.
    sample_times_s: List[float] = field(default_factory=list)
    active_vms: List[int] = field(default_factory=list)
    powered_hosts: List[int] = field(default_factory=list)
    powered_home_hosts: List[int] = field(default_factory=list)
    powered_consolidation_hosts: List[int] = field(default_factory=list)

    #: VMs per powered, occupied consolidation host, one sample per host
    #: per interval (Figure 9's CDF population).
    consolidation_ratio_samples: List[int] = field(default_factory=list)

    delays: List[DelaySample] = field(default_factory=list)
    traffic: TrafficLedger = field(default_factory=TrafficLedger)
    counters: MigrationCounters = field(default_factory=MigrationCounters)
    #: Injected faults and their recovery costs; all-zero on a run with
    #: the null fault profile.
    faults: FaultCounters = field(default_factory=FaultCounters)

    energy: EnergyReport = None  # type: ignore[assignment]
    #: Seconds each home host spent asleep, keyed by host id.
    home_sleep_s: Dict[int, float] = field(default_factory=dict)
    #: Seconds per power state summed over all hosts (ledger read-back;
    #: feeds the repro.equiv run fingerprint).
    state_time_s: Dict[str, float] = field(default_factory=dict)
    #: Joules per power state, plus the "surcharge" lump bucket; sums to
    #: ``energy.managed_joules`` up to float reassociation.
    state_energy_j: Dict[str, float] = field(default_factory=dict)

    # -- derived metrics ------------------------------------------------

    @property
    def savings_fraction(self) -> float:
        if self.energy is None:
            raise ConfigError("run has no energy report yet")
        return self.energy.savings_fraction

    @property
    def peak_active_vms(self) -> int:
        return max(self.active_vms) if self.active_vms else 0

    @property
    def min_powered_hosts(self) -> int:
        return min(self.powered_hosts) if self.powered_hosts else 0

    def mean_home_sleep_fraction(self) -> float:
        """Average fraction of the day home hosts spent asleep."""
        if not self.home_sleep_s:
            return 0.0
        total = sum(self.home_sleep_s.values())
        return total / (len(self.home_sleep_s) * self.horizon_s)

    def zero_delay_fraction(self) -> float:
        """Fraction of idle-to-active transitions with no delay (§5.5)."""
        if not self.delays:
            return 1.0
        zero = sum(1 for sample in self.delays if sample.delay_s <= 1e-9)
        return zero / len(self.delays)

    def delay_values(self) -> List[float]:
        return [sample.delay_s for sample in self.delays]

    def __repr__(self) -> str:
        savings = (
            f"{self.energy.savings_fraction:.1%}" if self.energy else "n/a"
        )
        return (
            f"<FarmResult {self.policy_name}/{self.day_type} seed={self.seed} "
            f"savings={savings} peak_active={self.peak_active_vms} "
            f"sleep={self.mean_home_sleep_fraction():.1%}>"
        )
