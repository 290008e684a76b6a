"""Top-Γ spike summaries of the Γ-robust planner, checked exactly.

``GammaRobustPlanner`` keeps only the Γ largest committed spike rooms of
each consolidation host (a descending tuple) and restores the earlier
tuple when a trial placement rolls back.  Two properties pin that this
loses nothing:

* under random place / roll back / re-place sequences, with duplicate
  and zero spikes, every host's summary equals ``nlargest(Γ, ...)`` of
  its full spike multiset;
* whole plans on random small farms equal those of a reference planner
  written against the pure core's :func:`robust_fits`, so every vacate
  and compaction fit decision (compaction with its headroom reserve) is
  the Bertsimas-Sim test on the same host state.

Every farm quantity is a multiple of 1/4 MiB far inside float
precision, so both sides compute exactly and are compared with ``==``.
"""

import dataclasses
from heapq import nlargest

from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster, PowerState
from repro.core.placement import GreedyVacatePlanner, _ShadowCapacity
from repro.core.plan import MigrationMode
from repro.policies import (
    GAMMA_ROBUST_POLICY,
    DemandIntervalModel,
    GammaItem,
    GammaRobustPlanner,
    robust_fits,
)
from repro.policies.gamma import _rollback, _with_spike
from repro.vm import VirtualMachine, VmActivity, WorkingSetSampler
from repro.vm.state import Residency

GAMMAS = st.sampled_from([0, 1, 2, 3, 5])
#: A small pool, so duplicate and zero spikes are common.
SPIKES = st.sampled_from([0.0, 0.0, 0.25, 1.0, 1.0, 2.5, 7.0, 7.0, 64.0])
#: 0.2 * CAPACITY is exactly 1024.0, so the compaction reserve is exact.
CAPACITY = 5 * 1024.0


# ----------------------------------------------------------------------
# the summary against the full multiset
# ----------------------------------------------------------------------


@st.composite
def trial_sequences(draw):
    """Initial spikes per host, then trials: placements (host, spike)
    followed by a commit (True) or a rollback (False)."""
    hosts = draw(st.integers(1, 3))
    initial = draw(st.lists(
        st.lists(SPIKES, max_size=6), min_size=hosts, max_size=hosts
    ))
    trials = draw(st.lists(
        st.tuples(
            st.lists(
                st.tuples(st.integers(0, hosts - 1), SPIKES), max_size=6
            ),
            st.booleans(),
        ),
        max_size=12,
    ))
    return initial, trials


@settings(max_examples=300, deadline=None)
@given(gamma=GAMMAS, sequence=trial_sequences())
def test_summary_equals_nlargest_through_place_and_rollback(gamma, sequence):
    initial, trials = sequence
    hosts = len(initial)
    shadow = _ShadowCapacity(Cluster(1, hosts, CAPACITY))
    full = [list(spikes) for spikes in initial]
    tops = [tuple(nlargest(gamma, spikes)) for spikes in full]
    for placements, commit in trials:
        placed = []
        for position, spike in placements:
            destination = shadow.ids[position]
            placed.append((destination, position, 1.0, tops[position]))
            tops[position] = _with_spike(tops[position], spike, gamma)
            shadow.place(destination, 1.0)
            full[position].append(spike)
            assert tops[position] == tuple(nlargest(gamma, full[position]))
        if not commit:
            _rollback(placed, shadow, tops)
            for position, _ in reversed(placements):
                full[position].pop()
        for position in range(hosts):
            assert tops[position] == tuple(nlargest(gamma, full[position]))
            assert shadow.free[position] == (
                CAPACITY - (len(full[position]) - len(initial[position]))
            )


def test_summary_keeps_duplicates_and_zeros():
    assert _with_spike((7.0, 7.0), 7.0, 3) == (7.0, 7.0, 7.0)
    assert _with_spike((7.0, 0.0), 2.5, 2) == (7.0, 2.5)
    assert _with_spike((0.0,), 0.0, 2) == (0.0, 0.0)
    assert _with_spike((), 4.0, 0) == ()


# ----------------------------------------------------------------------
# whole plans against a reference built on robust_fits
# ----------------------------------------------------------------------


@st.composite
def farms(draw):
    """A small farm: residents on consolidation hosts (some partial,
    some full, empty hosts possibly asleep), VMs on home hosts (active,
    idle, or idle below the hysteresis), and exact demand intervals."""
    homes = draw(st.integers(1, 3))
    consolidation = draw(st.integers(1, 4))
    cluster = Cluster(homes, consolidation, CAPACITY)
    memories = st.integers(64, 1024)
    vm_id = 0
    for host in cluster.consolidation_hosts:
        residents = draw(st.lists(
            st.tuples(memories, st.booleans(), st.integers(1, 1024)),
            max_size=6,
        ))
        for memory, partial, working_set in residents:
            vm = VirtualMachine(vm_id, 0, float(memory))
            vm_id += 1
            if partial:
                vm.become_partial(host.host_id, float(min(working_set, memory)))
            host.attach(vm)
        if not residents and draw(st.booleans()):
            host.power_state = PowerState.SLEEPING
    for host in cluster.home_hosts:
        for memory, active, streak in draw(st.lists(
            st.tuples(memories, st.booleans(), st.sampled_from([0, 3, 3])),
            max_size=5,
        )):
            vm = VirtualMachine(vm_id, host.host_id, float(memory))
            vm_id += 1
            vm.set_activity(VmActivity.ACTIVE if active else VmActivity.IDLE)
            vm.idle_intervals = 0 if active else streak
            host.attach(vm)
    # spike_min == spike_max makes every deviation spike * (memory -
    # nominal): a multiple of 1/4 MiB, like every other quantity here.
    spike = draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
    sampler = WorkingSetSampler(mean_mib=float(draw(st.integers(16, 1024))))
    intervals = DemandIntervalModel(
        sampler, root_seed=0, spike_min=spike, spike_max=spike
    )
    policy = dataclasses.replace(
        GAMMA_ROBUST_POLICY, full_migrate_active=draw(st.booleans())
    )
    return cluster, sampler, intervals, policy


def _resident_item(vm, intervals):
    spike = 0.0
    if vm.residency is Residency.PARTIAL:
        nominal, deviation = intervals.interval(vm)
        spike = max(
            min(nominal + deviation, vm.memory_mib) - vm.resident_mib, 0.0
        )
    return GammaItem(vm.vm_id, vm.resident_mib, spike)


def _reference_plan(cluster, policy, intervals, gamma):
    """The planner's contract spelled out over ``GammaItem`` lists."""
    hosts = cluster.consolidation_hosts
    items = {
        host.host_id: [_resident_item(vm, intervals) for vm in host.vms()]
        for host in hosts
    }
    effective = {host.host_id: host.is_powered for host in hosts}
    woken = set()

    def demand(home):
        total = 0.0
        for vm in home.vms():
            if vm.activity is VmActivity.ACTIVE:
                total += vm.memory_mib
            else:
                total += intervals.interval(vm)[0]
        return total

    def first_fit(trial, item, allowed, capacity):
        for host in hosts:
            host_id = host.host_id
            if allowed(host) and robust_fits(
                trial[host_id] + [item], gamma, capacity
            ):
                return host_id
        return None

    vacations = []
    queue = sorted(
        (h for h in cluster.home_hosts if h.is_powered and h.vm_count > 0),
        key=demand,
    )
    for home in queue:
        trial = {host_id: list(packed) for host_id, packed in items.items()}
        moves = []
        for vm in home.vms():
            if vm.activity is VmActivity.ACTIVE:
                if not policy.full_migrate_active:
                    break
                item = GammaItem(vm.vm_id, vm.memory_mib, 0.0)
                move = (MigrationMode.FULL, None)
            else:
                if vm.idle_intervals < 1:
                    break
                nominal, deviation = intervals.interval(vm)
                item = GammaItem(vm.vm_id, nominal, deviation)
                move = (MigrationMode.PARTIAL, nominal)
            destination = None
            for tier in (True, False):
                destination = first_fit(
                    trial, item,
                    lambda host: effective[host.host_id] == tier, CAPACITY,
                )
                if destination is not None:
                    break
            if destination is None:
                break
            trial[destination].append(item)
            # A wake decision survives the trial's rollback.
            if not effective[destination]:
                effective[destination] = True
                woken.add(destination)
            moves.append((vm.vm_id, destination) + move)
        else:
            items = trial
            vacations.append((home.host_id, moves))

    low_water = GreedyVacatePlanner.COMPACTION_LOW_WATER
    reserve = GreedyVacatePlanner.COMPACTION_HEADROOM * CAPACITY
    compactions = []
    emptied = set()
    candidates = sorted(
        (
            host for host in hosts
            if host.is_powered and host.vm_count > 0
            and host.used_mib < low_water * host.capacity_mib
        ),
        key=lambda host: host.used_mib,
    )
    for source in candidates:
        trial = {host_id: list(packed) for host_id, packed in items.items()}
        moves = []
        for vm in source.vms():
            item = _resident_item(vm, intervals)
            destination = first_fit(
                trial, item,
                lambda host: (
                    host.host_id != source.host_id
                    and host.host_id not in emptied
                    and host.is_powered
                    and host.host_id not in woken
                ),
                CAPACITY - reserve,
            )
            if destination is None:
                break
            trial[destination].append(item)
            partial = vm.residency is Residency.PARTIAL
            moves.append((
                vm.vm_id,
                destination,
                MigrationMode.PARTIAL if partial else MigrationMode.FULL,
                vm.working_set_mib if partial else None,
            ))
        else:
            items = trial
            emptied.add(source.host_id)
            compactions.append((source.host_id, moves))
    return vacations, compactions, woken


def _as_tuples(host_plans):
    return [
        (
            plan.host_id,
            [
                (m.vm_id, m.destination_id, m.mode, m.working_set_mib)
                for m in plan.migrations
            ],
        )
        for plan in host_plans
    ]


@settings(max_examples=300, deadline=None)
@given(gamma=GAMMAS, farm=farms())
def test_plans_equal_the_robust_fits_reference(gamma, farm):
    cluster, sampler, intervals, policy = farm
    planner = GammaRobustPlanner(policy, sampler, intervals, gamma)
    plan = planner.plan(cluster)
    vacations, compactions, woken = _reference_plan(
        cluster, policy, intervals, gamma
    )
    assert _as_tuples(plan.vacations) == vacations
    assert _as_tuples(plan.compactions) == compactions
    assert plan.hosts_to_wake == woken
