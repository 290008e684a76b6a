"""Γ-robust consolidation (the ``GammaRobust`` strategy family).

Oasis packs VMs with *point estimates* of demand, so a handful of
simultaneous working-set spikes can overflow a consolidation host that
looked safe on paper.  Following the Γ-robustness (Bertsimas-Sim)
treatment of bin packing, every idle VM's demand is modelled as an
interval ``[uc - ur, uc + ur]`` around a nominal working set ``uc``,
and a placement is *Γ-robust* when every host still fits if any Γ of
its VMs spike to their interval maximum while the rest sit at nominal:

    sum(uc) + (sum of the Γ largest ur) <= capacity

The module has three layers:

* a pure interval bin-packing core (:func:`gamma_first_fit` plus the
  exact :func:`minimum_bins` branch-and-bound oracle and the
  independent :func:`brute_force_minimum_bins` cross-check) used by the
  property/oracle test batteries and the ``micro gamma`` report;
* :class:`DemandIntervalModel`, which derives each VM's interval
  deterministically from the simulation seed (see below);
* :class:`GammaRobustPlanner` / :class:`GammaRobustStrategy`, the
  farm-facing planner that mirrors the greedy vacate/compaction
  structure of :class:`~repro.core.placement.GreedyVacatePlanner` but
  places with a Γ-aware first-fit over the same shadow-capacity index.
  It keeps only a top-Γ summary of each host's spike rooms (the Γ
  largest, descending, restored LIFO on rollback), so a fit check costs
  O(Γ) rather than O(residents) and sums exactly the floats, in exactly
  the order, that the core's ``sum(nlargest(Γ, ...))`` would.

Determinism contract (the ``gamma.intervals`` stream family): VM
``v``'s spike fraction is the single ``random()`` draw of a
``random.Random`` seeded with ``derive_seed(root_seed,
f"gamma.intervals:{v}")``.  Intervals are therefore a pure function of
``(root seed, vm id)`` — independent of planning order, of how often
the planner runs, and of every other named stream — so adding or
consulting them never perturbs existing streams, and zone-sharded runs
see the same intervals as the equivalent single-zone run of each shard
seed.  The planner itself draws nothing: Γ-robust placement is
deterministic first-fit (powered hosts before sleeping ones, ascending
host id within each tier).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from heapq import nlargest
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.host import Host
from repro.cluster.topology import Cluster
from repro.core.placement import (
    DestinationStrategy,
    GreedyVacatePlanner,
    _ShadowCapacity,
)
from repro.core.plan import (
    ConsolidationPlan,
    HostVacatePlan,
    MigrationMode,
    PlannedMigration,
)
from repro.core.policies import PolicySpec
from repro.core.strategies import PlacementStrategy, register_family
from repro.errors import ConfigError
from repro.simulator.randomness import RngStreams, derive_seed
from repro.vm.machine import VirtualMachine
from repro.vm.state import Residency, VmActivity
from repro.vm.workingset import WorkingSetSampler

__all__ = [
    "GAMMA_ROBUST_POLICY",
    "GammaInstance",
    "GammaItem",
    "GammaRobustPlanner",
    "GammaRobustStrategy",
    "DemandIntervalModel",
    "brute_force_minimum_bins",
    "gamma_first_fit",
    "minimum_bins",
    "oracle_gap_report",
    "render_gap_report",
    "robust_fits",
    "robust_load",
    "seeded_instance",
]

#: Numerical slack for capacity comparisons, matching the shadow index.
_EPS = 1e-9


# ----------------------------------------------------------------------
# pure interval bin packing
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GammaItem:
    """One VM's demand interval ``[nominal - deviation, nominal + deviation]``."""

    item_id: int
    nominal: float
    deviation: float

    def __post_init__(self) -> None:
        if self.nominal < 0.0:
            raise ConfigError(
                f"item {self.item_id}: nominal demand must be >= 0, "
                f"got {self.nominal}"
            )
        if self.deviation < 0.0:
            raise ConfigError(
                f"item {self.item_id}: deviation must be >= 0, "
                f"got {self.deviation}"
            )


def robust_load(items: Sequence[GammaItem], gamma: int) -> float:
    """Worst-case load with up to ``gamma`` items at their interval max."""
    if gamma < 0:
        raise ConfigError(f"gamma must be >= 0, got {gamma}")
    total = 0.0
    for item in items:
        total += item.nominal
    if gamma > 0 and items:
        total += sum(nlargest(gamma, (item.deviation for item in items)))
    return total


def robust_fits(
    items: Sequence[GammaItem], gamma: int, capacity: float
) -> bool:
    """Whether ``items`` are Γ-robust-feasible on one ``capacity`` bin."""
    return robust_load(items, gamma) <= capacity + _EPS


def _check_instance(
    items: Sequence[GammaItem], gamma: int, capacity: float
) -> None:
    if gamma < 0:
        raise ConfigError(f"gamma must be >= 0, got {gamma}")
    if capacity <= 0.0:
        raise ConfigError(f"capacity must be > 0, got {capacity}")
    for item in items:
        worst = item.nominal + (item.deviation if gamma > 0 else 0.0)
        if worst > capacity + _EPS:
            raise ConfigError(
                f"item {item.item_id} needs {worst} alone; no bin of "
                f"capacity {capacity} can ever hold it"
            )


def gamma_first_fit(
    items: Sequence[GammaItem], gamma: int, capacity: float
) -> List[List[GammaItem]]:
    """Γ-aware First-Fit: each item goes to the first bin it robustly
    fits, in the order given; a new bin opens only when none fits.

    With ``gamma == 0`` this is exactly point-estimate First-Fit over
    the nominal demands.
    """
    _check_instance(items, gamma, capacity)
    bins: List[List[GammaItem]] = []
    loads: List[float] = []  # nominal sums, one per bin
    for item in items:
        for position, packed in enumerate(bins):
            load = loads[position] + item.nominal
            if gamma > 0:
                load += sum(nlargest(
                    gamma,
                    [other.deviation for other in packed] + [item.deviation],
                ))
            if load <= capacity + _EPS:
                packed.append(item)
                loads[position] += item.nominal
                break
        else:
            bins.append([item])
            loads.append(item.nominal)
    return bins


def brute_force_minimum_bins(
    items: Sequence[GammaItem], gamma: int, capacity: float
) -> int:
    """Exact optimum by enumerating every set partition (<= 10 items).

    Deliberately shares no search machinery with :func:`minimum_bins`:
    it is the differential reference the oracle battery checks the
    branch-and-bound solver against.
    """
    _check_instance(items, gamma, capacity)
    if len(items) > 10:
        raise ConfigError(
            f"brute force is capped at 10 items, got {len(items)}"
        )
    if not items:
        return 0
    best: List[int] = [len(items)]
    bins: List[List[GammaItem]] = []

    def assign(position: int) -> None:
        if position == len(items):
            best[0] = min(best[0], len(bins))
            return
        item = items[position]
        for packed in bins:
            packed.append(item)
            if robust_fits(packed, gamma, capacity):
                assign(position + 1)
            packed.pop()
        # Canonical set partitions: the item may also open exactly one
        # new bin (opening "the second empty bin" would be symmetric).
        bins.append([item])
        assign(position + 1)
        bins.pop()

    assign(0)
    return best[0]


def minimum_bins(
    items: Sequence[GammaItem], gamma: int, capacity: float
) -> int:
    """Exact minimum bin count via branch-and-bound.

    Items are branched largest-first (by worst-case size); the First-Fit
    solution primes the incumbent; identical partial bins are branched
    once; and the search stops early when the incumbent meets the
    nominal-volume lower bound.  Pure python, small-scale by design —
    the oracle scores heuristic optimality gaps on test instances, it is
    not a production planner.
    """
    _check_instance(items, gamma, capacity)
    if not items:
        return 0
    order = sorted(
        items,
        key=lambda item: (
            item.nominal + item.deviation, item.nominal, item.item_id,
        ),
        reverse=True,
    )
    incumbent = len(gamma_first_fit(order, gamma, capacity))
    nominal_total = sum(item.nominal for item in order)
    lower_bound = max(1, math.ceil(nominal_total / capacity - _EPS))
    if incumbent <= lower_bound:
        return incumbent
    best: List[int] = [incumbent]
    bins: List[List[GammaItem]] = []

    def branch(position: int) -> None:
        if len(bins) >= best[0]:
            return
        if position == len(order):
            best[0] = len(bins)
            return
        item = order[position]
        seen_signatures = set()
        for packed in bins:
            signature = tuple(sorted(
                (other.nominal, other.deviation) for other in packed
            ))
            if signature in seen_signatures:
                continue
            seen_signatures.add(signature)
            packed.append(item)
            if robust_fits(packed, gamma, capacity):
                branch(position + 1)
            packed.pop()
            if best[0] <= lower_bound:
                return
        if len(bins) + 1 < best[0]:
            bins.append([item])
            branch(position + 1)
            bins.pop()

    branch(0)
    return best[0]


# ----------------------------------------------------------------------
# seeded oracle instances and the optimality-gap report
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GammaInstance:
    """A seeded bin-packing instance for the oracle battery."""

    seed: int
    gamma: int
    capacity: float
    items: Tuple[GammaItem, ...]


#: Instance count of the default oracle battery (tests, ``micro gamma``).
DEFAULT_ORACLE_INSTANCES = 30


def _instance_rng(seed: int) -> random.Random:
    """The ``gamma.oracle`` stream: one generator per instance seed."""
    return random.Random(derive_seed(seed, "gamma.oracle.instance"))


def seeded_instance(seed: int, max_items: int = 12) -> GammaInstance:
    """A deterministic random instance sized for the exact oracle."""
    if max_items < 2:
        raise ConfigError(f"max_items must be >= 2, got {max_items}")
    rng = _instance_rng(seed)
    count = rng.randint(3, max_items)
    capacity = 8192.0
    items = []
    for item_id in range(count):
        nominal = rng.uniform(0.10, 0.55) * capacity
        deviation = rng.uniform(0.0, 0.6) * (capacity - nominal)
        items.append(GammaItem(item_id, nominal, deviation))
    gamma = rng.randint(0, 3)
    return GammaInstance(
        seed=seed, gamma=gamma, capacity=capacity, items=tuple(items)
    )


def oracle_gap_report(
    instance_count: int = DEFAULT_ORACLE_INSTANCES, max_items: int = 12
) -> Dict[str, object]:
    """Score Γ-first-fit against the exact oracle on seeded instances."""
    if instance_count < 1:
        raise ConfigError(
            f"instance_count must be >= 1, got {instance_count}"
        )
    rows: List[Dict[str, object]] = []
    for seed in range(instance_count):
        instance = seeded_instance(seed, max_items=max_items)
        heuristic = len(gamma_first_fit(
            instance.items, instance.gamma, instance.capacity
        ))
        optimal = minimum_bins(
            instance.items, instance.gamma, instance.capacity
        )
        rows.append({
            "seed": instance.seed,
            "gamma": instance.gamma,
            "items": len(instance.items),
            "ff_bins": heuristic,
            "optimal_bins": optimal,
            "gap": heuristic - optimal,
        })
    gaps = [int(row["gap"]) for row in rows]
    return {
        "schema": "repro.gamma-oracle/1",
        "instances": rows,
        "summary": {
            "count": len(rows),
            "mean_gap": sum(gaps) / len(gaps),
            "max_gap": max(gaps),
            "optimal_fraction": gaps.count(0) / len(gaps),
        },
    }


def render_gap_report(report: Dict[str, object]) -> str:
    """The ``micro gamma`` table: per-instance gaps plus a summary."""
    rows = report["instances"]
    summary = report["summary"]
    assert isinstance(rows, list) and isinstance(summary, dict)
    lines = [
        "Gamma-robust first-fit vs exact branch-and-bound oracle",
        f"{'seed':>6} {'gamma':>6} {'items':>6} "
        f"{'FF bins':>8} {'optimal':>8} {'gap':>4}",
    ]
    for row in rows:
        lines.append(
            f"{row['seed']:>6} {row['gamma']:>6} {row['items']:>6} "
            f"{row['ff_bins']:>8} {row['optimal_bins']:>8} {row['gap']:>4}"
        )
    lines.append(
        f"instances: {summary['count']}  "
        f"mean gap: {summary['mean_gap']:.3f}  "
        f"max gap: {summary['max_gap']}  "
        f"optimal: {100.0 * summary['optimal_fraction']:.1f}%"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# farm-facing planner
# ----------------------------------------------------------------------

#: Behavioural switches of the GammaRobust family: hybrid migration with
#: in-place conversion (Default's event handling); no exchange/rehome
#: refinements, so the family isolates the effect of robust placement.
GAMMA_ROBUST_POLICY = PolicySpec(
    name="GammaRobust",
    full_migrate_active=True,
    convert_in_place=True,
    exchange_idle_full=False,
    rehome_on_exhaustion=False,
)


class DemandIntervalModel:
    """Deterministic per-VM demand intervals (``gamma.intervals``).

    The nominal demand ``uc`` is the working-set distribution's mean
    (capped at the VM's memory).  The deviation ``ur`` covers a per-VM
    fraction of the remaining headroom, drawn once per VM id from its
    own derived seed — see the module docstring for the contract.
    """

    __slots__ = ("_sampler", "_root_seed", "_spike_min", "_spike_max",
                 "_cache")

    def __init__(
        self,
        working_sets: WorkingSetSampler,
        root_seed: int,
        spike_min: float = 0.25,
        spike_max: float = 0.75,
    ) -> None:
        if not 0.0 <= spike_min <= spike_max <= 1.0:
            raise ConfigError(
                "spike fractions must satisfy 0 <= spike_min <= "
                f"spike_max <= 1, got [{spike_min}, {spike_max}]"
            )
        self._sampler = working_sets
        self._root_seed = root_seed
        self._spike_min = spike_min
        self._spike_max = spike_max
        self._cache: Dict[int, Tuple[float, float]] = {}

    def interval(self, vm: VirtualMachine) -> Tuple[float, float]:
        """``(nominal, deviation)`` MiB for ``vm``; pure in (seed, id)."""
        cached = self._cache.get(vm.vm_id)
        if cached is not None:
            return cached
        memory = vm.memory_mib
        nominal = self._sampler.expected_mib()
        if nominal > memory:
            nominal = memory
        fraction = random.Random(derive_seed(
            self._root_seed, f"gamma.intervals:{vm.vm_id}"
        )).random()
        spike = self._spike_min + (self._spike_max - self._spike_min) * fraction
        deviation = spike * (memory - nominal)
        result = (nominal, deviation)
        self._cache[vm.vm_id] = result
        return result


def _with_spike(
    top: Tuple[float, ...], spike: float, gamma: int
) -> Tuple[float, ...]:
    """A host's top-Γ summary after ``spike`` joins it.

    ``top`` holds the ``gamma`` largest spike rooms committed to a host,
    descending, duplicates and zeros kept.  The ``gamma`` largest of a
    multiset with one value added are always among its old ``gamma``
    largest plus that value, so the result equals ``tuple(nlargest(
    gamma, spikes + [spike]))`` over the full list ``spikes`` — the same
    values in the same order — at O(Γ) cost instead of O(len(spikes)).
    """
    for rank, value in enumerate(top):
        if spike > value:
            return top[:rank] + (spike,) + top[rank:gamma - 1]
    if len(top) < gamma:
        return top + (spike,)
    return top


#: One trial placement's undo record: destination host id, its shadow
#: position, the size placed there and the summary it replaced.
_Placed = Tuple[int, int, float, Tuple[float, ...]]


def _rollback(
    placed: List[_Placed],
    shadow: _ShadowCapacity,
    tops: List[Tuple[float, ...]],
) -> None:
    """Undo trial placements newest-first: return each one's memory to
    its destination and restore the summary it replaced."""
    for destination, position, size, previous in reversed(placed):
        shadow.unplace(destination, size)
        tops[position] = previous


class GammaRobustPlanner:
    """Γ-aware first-fit vacate/compaction planner.

    Mirrors :class:`~repro.core.placement.GreedyVacatePlanner`'s plan
    structure (cheapest-host-first vacations, low-water compaction over
    the same shadow-capacity index) but admits a placement only while
    the destination stays Γ-robust-feasible, counting the spike room of
    VMs already resident there.  Destination choice is deterministic
    first-fit — powered (or already-woken) consolidation hosts before
    sleeping ones, ascending host id within each tier — so the planner
    consumes no randomness at all.

    The robust state of each consolidation host is a *top-Γ summary*:
    the descending tuple of the Γ largest spike rooms committed to it
    (resident partial VMs' remaining room plus the deviation of every
    VM this pass has planned onto it).  The Bertsimas-Sim test needs
    nothing more, so one fit check costs O(Γ), not O(residents):

    * reject when the nominal size alone does not fit
      (``free + eps < size + reserve``).  This is exact: float addition
      is monotone and the robust excess is never negative;
    * otherwise merge the VM's deviation into the summary
      (:func:`_with_spike`) and admit iff ``free + eps >= size +
      sum(merged) + reserve``.  ``merged`` holds the same values in the
      same descending order as ``nlargest(Γ, spikes + [deviation])``
      over the host's full spike list, so the float sum — and with it
      every decision and every plan — is bit-identical to the
      list-based check.

    An admitted placement stores ``merged`` as the host's summary and
    logs the summary it replaced.  Rollback is always LIFO (a vacation
    or compaction undoes only its own placements, newest first), so
    restoring those snapshots in reverse recomputes nothing.
    """

    def __init__(
        self,
        policy: PolicySpec,
        working_sets: WorkingSetSampler,
        intervals: DemandIntervalModel,
        gamma: int,
        min_idle_intervals: int = 1,
    ) -> None:
        if gamma < 0:
            raise ConfigError(f"gamma must be >= 0, got {gamma}")
        if min_idle_intervals < 1:
            raise ConfigError("min_idle_intervals must be >= 1")
        self.policy = policy
        self.working_sets = working_sets
        self.intervals = intervals
        self.gamma = gamma
        self.min_idle_intervals = min_idle_intervals

    # -- public API -----------------------------------------------------

    def plan(
        self, cluster: Cluster, compact_consolidation: bool = True
    ) -> ConsolidationPlan:
        shadow = _ShadowCapacity(cluster)
        tops, resident_spikes = self._spike_state(cluster)
        vacations: List[HostVacatePlan] = []
        for host in self._vacate_queue(cluster):
            migrations = self._try_vacate(host, shadow, tops)
            if migrations is not None:
                vacations.append(HostVacatePlan(host.host_id, migrations))
        compactions: List[HostVacatePlan] = []
        if compact_consolidation:
            compactions = self._plan_compaction(
                cluster, shadow, tops, resident_spikes
            )
        return ConsolidationPlan(
            vacations=vacations,
            hosts_to_wake=set(shadow.woken),
            compactions=compactions,
        )

    # -- robust state ---------------------------------------------------

    def _spike_state(
        self, cluster: Cluster
    ) -> Tuple[List[Tuple[float, ...]], Dict[int, float]]:
        """Per shadow position, the top-Γ summary of resident spike
        rooms; and each resident's positive room by VM id (compaction
        carries it along when it moves the VM).

        A resident's spike room is its interval maximum (capped at full
        memory) minus what it already holds.  Full VMs hold everything
        and can never spike further.
        """
        gamma = self.gamma
        interval = self.intervals.interval
        partial = Residency.PARTIAL
        tops: List[Tuple[float, ...]] = []
        resident_spikes: Dict[int, float] = {}
        for host in cluster.consolidation_hosts:
            spikes: List[float] = []
            for vm in host._vms.values():
                if vm.residency is not partial:
                    continue
                nominal, deviation = interval(vm)
                worst = nominal + deviation
                memory = vm.memory_mib
                if worst > memory:
                    worst = memory
                spike = worst - vm.resident_mib
                if spike > 0.0:
                    spikes.append(spike)
                    resident_spikes[vm.vm_id] = spike
            tops.append(tuple(nlargest(gamma, spikes)))
        return tops, resident_spikes

    # -- vacations ------------------------------------------------------

    def _vacate_queue(self, cluster: Cluster) -> List[Host]:
        """Powered compute hosts with VMs, cheapest robust demand first
        (active VMs at full memory, idle VMs at nominal — the same
        ordering the greedy planner derives from expected working sets)."""
        candidates = [
            host
            for host in cluster.home_hosts
            if host.is_powered and host.vm_count > 0
        ]
        return sorted(candidates, key=self._memory_demand)

    def _memory_demand(self, host: Host) -> float:
        demand = 0.0
        for vm in host.vms():
            if vm.activity is VmActivity.ACTIVE:
                demand += vm.memory_mib
            else:
                nominal, _ = self.intervals.interval(vm)
                demand += nominal
        return demand

    def _try_vacate(
        self,
        host: Host,
        shadow: _ShadowCapacity,
        tops: List[Tuple[float, ...]],
    ) -> Optional[List[PlannedMigration]]:
        """Plan all of one host's VMs, or None if any cannot move.

        The planner's innermost loop, fused like the greedy planner's:
        the first-fit scan and the robust fit check (see the class
        docstring) run inline over hoisted locals.
        """
        gamma = self.gamma
        interval = self.intervals.interval
        min_idle = self.min_idle_intervals
        full_migrate_active = self.policy.full_migrate_active
        ids = shadow.ids
        free = shadow.free
        effective = shadow.effective
        positions = range(len(ids))
        source_id = host.host_id
        active = VmActivity.ACTIVE
        migrations: List[PlannedMigration] = []
        placed: List[_Placed] = []
        for vm in host._vms.values():
            if vm.activity is active:
                if not full_migrate_active:
                    _rollback(placed, shadow, tops)
                    return None
                size = vm.memory_mib
                deviation = 0.0
                working_set = None
                mode = MigrationMode.FULL
            else:
                if vm.idle_intervals < min_idle:
                    _rollback(placed, shadow, tops)
                    return None
                size, deviation = interval(vm)
                working_set = size
                mode = MigrationMode.PARTIAL
            target = -1
            for tier in (True, False):  # powered or woken, then sleeping
                for position in positions:
                    if effective[position] != tier:
                        continue
                    room = free[position] + _EPS
                    if room < size:
                        continue
                    if gamma:
                        top = _with_spike(tops[position], deviation, gamma)
                        if room < size + sum(top):
                            continue
                    target = position
                    break
                if target >= 0:
                    break
            if target < 0:
                _rollback(placed, shadow, tops)
                return None
            destination = ids[target]
            placed.append((destination, target, size, tops[target]))
            if gamma:
                tops[target] = top
            shadow.place(destination, size)
            migrations.append(PlannedMigration(
                vm_id=vm.vm_id,
                source_id=source_id,
                destination_id=destination,
                mode=mode,
                working_set_mib=working_set,
            ))
        return migrations

    # -- compaction -----------------------------------------------------

    def _plan_compaction(
        self,
        cluster: Cluster,
        shadow: _ShadowCapacity,
        tops: List[Tuple[float, ...]],
        resident_spikes: Dict[int, float],
    ) -> List[HostVacatePlan]:
        """Empty lightly-loaded powered consolidation hosts into peers
        that stay Γ-robust (same low-water/headroom levers as greedy).

        Destinations are originally-powered peers not being emptied
        themselves, first fit by ascending host id, and each keeps the
        compaction headroom free on top of its worst case.
        """
        low_water = GreedyVacatePlanner.COMPACTION_LOW_WATER
        candidates = sorted(
            (
                host
                for host in cluster.consolidation_hosts
                if host.is_powered
                and host.vm_count > 0
                and host.used_mib < low_water * host.capacity_mib
            ),
            key=lambda host: host.used_mib,
        )
        gamma = self.gamma
        headroom = GreedyVacatePlanner.COMPACTION_HEADROOM
        reserves = [headroom * capacity for capacity in shadow.capacity]
        ids = shadow.ids
        free = shadow.free
        powered = shadow.powered
        woken = shadow.woken
        positions = range(len(ids))
        compactions: List[HostVacatePlan] = []
        emptied: set = set()
        for host in candidates:
            source_id = host.host_id
            migrations: List[PlannedMigration] = []
            placed: List[_Placed] = []
            feasible = True
            for vm in host._vms.values():
                size = vm.resident_mib
                deviation = resident_spikes.get(vm.vm_id, 0.0)
                target = -1
                for position in positions:
                    host_id = ids[position]
                    if host_id == source_id or host_id in emptied:
                        continue
                    if not powered[position] or host_id in woken:
                        continue
                    room = free[position] + _EPS
                    reserve = reserves[position]
                    if room < size + reserve:
                        continue
                    if gamma:
                        top = _with_spike(tops[position], deviation, gamma)
                        if room < size + sum(top) + reserve:
                            continue
                    target = position
                    break
                if target < 0:
                    feasible = False
                    break
                destination = ids[target]
                placed.append((destination, target, size, tops[target]))
                if gamma:
                    tops[target] = top
                shadow.place(destination, size)
                partial = vm.residency is Residency.PARTIAL
                migrations.append(PlannedMigration(
                    vm_id=vm.vm_id,
                    source_id=source_id,
                    destination_id=destination,
                    mode=(
                        MigrationMode.PARTIAL if partial
                        else MigrationMode.FULL
                    ),
                    working_set_mib=vm.working_set_mib if partial else None,
                ))
            if feasible and migrations:
                compactions.append(HostVacatePlan(source_id, migrations))
                emptied.add(source_id)
            else:
                _rollback(placed, shadow, tops)
        return compactions


# ----------------------------------------------------------------------
# the registered strategy family
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GammaRobustStrategy(PlacementStrategy):
    """``GammaRobust@Γ``: Γ-robust first-fit placement (picklable)."""

    gamma: int = 1
    spike_min: float = 0.25
    spike_max: float = 0.75

    def __post_init__(self) -> None:
        if self.gamma < 0:
            raise ConfigError(f"gamma must be >= 0, got {self.gamma}")
        if not 0.0 <= self.spike_min <= self.spike_max <= 1.0:
            raise ConfigError(
                "spike fractions must satisfy 0 <= spike_min <= "
                f"spike_max <= 1, got [{self.spike_min}, {self.spike_max}]"
            )

    @property
    def name(self) -> str:
        return f"GammaRobust@{self.gamma}"

    @property
    def spec(self) -> PolicySpec:
        return GAMMA_ROBUST_POLICY

    def build_planner(
        self,
        working_sets: WorkingSetSampler,
        rng: random.Random,
        min_idle_intervals: int = 1,
        destination: DestinationStrategy = DestinationStrategy.RANDOM,
        streams: Optional[RngStreams] = None,
    ) -> GammaRobustPlanner:
        # ``rng`` and ``destination`` are part of the strategy protocol
        # but deliberately unused: robust placement is deterministic
        # first-fit and must not advance the manager's stream.
        root_seed = streams.seed if streams is not None else 0
        intervals = DemandIntervalModel(
            working_sets,
            root_seed,
            spike_min=self.spike_min,
            spike_max=self.spike_max,
        )
        return GammaRobustPlanner(
            policy=self.spec,
            working_sets=working_sets,
            intervals=intervals,
            gamma=self.gamma,
            min_idle_intervals=min_idle_intervals,
        )


def _gamma_factory(argument: str) -> GammaRobustStrategy:
    """Registry factory for ``GammaRobust`` / ``GammaRobust@N`` names."""
    if not argument:
        return GammaRobustStrategy()
    try:
        gamma = int(argument)
    except ValueError:
        raise ConfigError(
            f"GammaRobust parameter must be an integer Γ, got {argument!r}"
        )
    return GammaRobustStrategy(gamma=gamma)


register_family("GammaRobust", _gamma_factory)
