"""Metrics collected by a farm run — one field per evaluation figure.

* Figure 7 — per-interval active-VM and powered-host time series;
* Figure 8 / 12 / Table 3 — the energy report;
* Figure 9 — per-interval per-consolidation-host VM counts;
* Figure 10 — the traffic ledger;
* Figure 11 — idle-to-active transition delays, in a :class:`DelayLog`.

The delay log is the largest thing a run builds: Figure 11 counts every
transition, the 0 s ones of already-full VMs included (about 21k rows
for a 900-VM day, 118k for a 5k-VM zoned day).  It stores them as four
typed columns rather than one tuple per row.  The engine appends to the
columns directly; a zoned shard's log pickles as its column buffers
(25 bytes a row); and the zoned aggregate concatenates the shards'
columns in zone order, remapping each shard's VM-id column through its
zone's id table once (:meth:`DelayLog.extend`).  Readers still see a
sequence of :class:`DelaySample` rows.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Sequence,
    Union,
    overload,
)

from repro.energy.report import EnergyReport
from repro.errors import ConfigError
from repro.faults.model import FaultCounters
from repro.migration.traffic import TrafficLedger


class DelaySample(NamedTuple):
    """One idle-to-active transition and the delay the user saw (§5.5).

    The row type of a :class:`DelayLog`: what iterating or indexing a
    log yields, and what :meth:`DelayLog.append` takes.
    """

    time_s: float
    vm_id: int
    delay_s: float
    #: How the transition was handled (ActivationAction value).
    action: str


#: Signed 64-bit: wide enough for any VM id.
_VM_ID_TYPECODE = "q"
#: Action codes are single bytes.
_MAX_ACTIONS = 256


class DelayLog:
    """Every idle-to-active transition of a run, stored column-wise.

    ``time_s`` and ``delay_s`` are ``array('d')``, ``vm_id`` an
    ``array('q')``, and ``action`` a ``bytearray`` of codes into the
    log's own table of action names (``actions``), so any action string
    round-trips.  Row ``i`` is ``log[i]``, a :class:`DelaySample`.

    The log reads like the ``list`` of samples it replaces: ``len``,
    iteration, indexing, slices (a slice is a log), ``==`` against
    another log or a list of samples, ``append`` and item assignment.
    A log pickles as its four column buffers.
    """

    __slots__ = ("time_s", "vm_id", "delay_s", "action", "actions")

    def __init__(self, samples: Iterable[DelaySample] = ()) -> None:
        self.time_s = array("d")
        self.vm_id = array(_VM_ID_TYPECODE)
        self.delay_s = array("d")
        #: One byte per row: an index into ``actions``.
        self.action = bytearray()
        #: Action names by code.
        self.actions: List[str] = []
        for sample in samples:
            self.append(sample)

    def code(self, action: str) -> int:
        """The byte standing for ``action``; a new name gets the next
        free code."""
        try:
            return self.actions.index(action)
        except ValueError:
            if len(self.actions) == _MAX_ACTIONS:
                raise ConfigError(
                    f"a delay log names at most {_MAX_ACTIONS} actions"
                ) from None
            self.actions.append(action)
            return len(self.actions) - 1

    def record(
        self, time_s: float, vm_id: int, delay_s: float, action: str
    ) -> None:
        """Append one row given field by field."""
        # Code first: an action past the table's limit raises before
        # any column grows, so the columns never differ in length.
        code = self.code(action)
        self.vm_id.append(vm_id)
        self.time_s.append(time_s)
        self.delay_s.append(delay_s)
        self.action.append(code)

    def append(self, sample: DelaySample) -> None:
        self.record(*sample)

    def extend(self, other: "DelayLog", vm_ids: Sequence[int]) -> None:
        """Append every row of ``other``, column by column, mapping a
        row's VM id ``v`` to ``vm_ids[v]`` (a shard-local id through its
        zone's global-id table)."""
        ids = array(_VM_ID_TYPECODE, map(vm_ids.__getitem__, other.vm_id))
        codes = bytes(self.code(name) for name in other.actions)
        actions = other.action.translate(codes.ljust(_MAX_ACTIONS, b"\0"))
        self.time_s.extend(other.time_s)
        self.vm_id.extend(ids)
        self.delay_s.extend(other.delay_s)
        self.action.extend(actions)

    # -- the list surface -------------------------------------------------

    def __len__(self) -> int:
        return len(self.action)

    def __iter__(self) -> Iterator[DelaySample]:
        return map(
            DelaySample,
            self.time_s,
            self.vm_id,
            self.delay_s,
            map(self.actions.__getitem__, self.action),
        )

    @overload
    def __getitem__(self, index: int) -> DelaySample: ...

    @overload
    def __getitem__(self, index: slice) -> "DelayLog": ...

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[DelaySample, "DelayLog"]:
        if isinstance(index, slice):
            part = DelayLog()
            part.time_s = self.time_s[index]
            part.vm_id = self.vm_id[index]
            part.delay_s = self.delay_s[index]
            part.action = self.action[index]
            part.actions = list(self.actions)
            return part
        return DelaySample(
            self.time_s[index],
            self.vm_id[index],
            self.delay_s[index],
            self.actions[self.action[index]],
        )

    def __setitem__(self, index: int, sample: DelaySample) -> None:
        time_s, vm_id, delay_s, action = sample
        self.action[index] = self.code(action)
        self.time_s[index] = time_s
        self.vm_id[index] = vm_id
        self.delay_s[index] = delay_s

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DelayLog):
            if self.actions != other.actions:
                return list(self) == list(other)
            return (
                self.action == other.action
                and self.time_s == other.time_s
                and self.vm_id == other.vm_id
                and self.delay_s == other.delay_s
            )
        if isinstance(other, list):
            return len(other) == len(self) and list(self) == other
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<DelayLog rows={len(self)} actions={self.actions}>"


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

    delays: DelayLog = field(default_factory=DelayLog)
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
        delays = self.delays.delay_s
        if not delays:
            return 1.0
        zero = sum(1 for delay in delays if delay <= 1e-9)
        return zero / len(delays)

    def delay_values(self) -> List[float]:
        return self.delays.delay_s.tolist()

    def __repr__(self) -> str:
        savings = (
            f"{self.energy.savings_fraction:.1%}" if self.energy else "n/a"
        )
        return (
            f"<FarmResult {self.policy_name}/{self.day_type} seed={self.seed} "
            f"savings={savings} peak_active={self.peak_active_vms} "
            f"sleep={self.mean_home_sleep_fraction():.1%}>"
        )
