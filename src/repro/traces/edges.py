"""Activity edge compilation: turn interval traces into change events.

The farm simulation's interval handler originally re-read every VM's
activity bit every five simulated minutes — O(V) work per interval even
when nobody's state changed.  An :class:`ActivityEdgeSchedule` compiles
an ensemble once into the *transitions*: per VM, the intervals at which
its activity flips, and per interval, the list of VMs that flip there.
The interval handler then touches only the flipping VMs (O(edges) per
interval); a typical user-day has a handful of active episodes, so the
edge count is a small multiple of the VM count rather than ``V × 288``.

Ordering contract (load-bearing for byte-identical replay): within each
interval the edge list is in ascending ``vm_id`` order — exactly the
order the eager per-VM scan visited newly-flipped VMs — so activation
jitter draws and delay-sample appends replay in the historical order.
Every trace implicitly starts idle (interval ``-1`` is inactive), which
matches the simulation's initial VM state.

A schedule is immutable (tuples all the way down), so one compile can
serve every simulation of an ensemble: :attr:`TraceEnsemble.edges
<repro.traces.sampler.TraceEnsemble.edges>` caches it.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.traces.model import UserDayTrace
from repro.units import INTERVALS_PER_DAY

__all__ = ["ActivityEdgeSchedule"]

#: The ``(interval, True)`` / ``(interval, False)`` pairs every VM shares.
_RISES = tuple((index, True) for index in range(INTERVALS_PER_DAY))
_FALLS = tuple((index, False) for index in range(INTERVALS_PER_DAY))


class ActivityEdgeSchedule:
    """Compiled activity transitions for one aligned trace ensemble."""

    __slots__ = ("vm_count", "by_interval", "by_vm")

    def __init__(
        self,
        vm_count: int,
        by_interval: Tuple[Tuple[Tuple[int, bool], ...], ...],
        by_vm: Tuple[Tuple[Tuple[int, bool], ...], ...],
    ) -> None:
        #: Number of VMs (traces) the schedule was compiled from.
        self.vm_count = vm_count
        #: ``by_interval[i]`` — ``(vm_id, active)`` flips at interval ``i``,
        #: in ascending ``vm_id`` order.
        self.by_interval = by_interval
        #: ``by_vm[vm_id]`` — ``(interval, active)`` flips for one VM,
        #: in ascending interval order.
        self.by_vm = by_vm

    @classmethod
    def compile(
        cls, traces: Iterable[UserDayTrace]
    ) -> "ActivityEdgeSchedule":
        """Compile an ensemble (or any iterable of aligned user-days).

        The ``vm_id`` of each trace is its position in the iterable —
        the same convention :class:`repro.farm.FarmSimulation` uses to
        pair traces with VMs.  Edge tuples are shared, not copied: every
        VM's flips point into one ``(interval, active)`` table, and each
        VM contributes one rise and one fall pair to ``by_interval``.
        """
        by_interval: List[List[Tuple[int, bool]]] = [
            [] for _ in range(INTERVALS_PER_DAY)
        ]
        by_vm: List[Tuple[Tuple[int, bool], ...]] = []
        for vm_id, trace in enumerate(traces):
            intervals = trace.intervals
            rise, fall = (vm_id, True), (vm_id, False)
            vm_edges: List[Tuple[int, bool]] = []
            index = 0
            try:
                # Every trace starts idle, so flips alternate rise, fall;
                # tuple.index finds each one in C.
                while True:
                    index = intervals.index(True, index)
                    vm_edges.append(_RISES[index])
                    by_interval[index].append(rise)
                    index = intervals.index(False, index)
                    vm_edges.append(_FALLS[index])
                    by_interval[index].append(fall)
            except ValueError:  # no further flip
                pass
            by_vm.append(tuple(vm_edges))
        return cls(len(by_vm), tuple(map(tuple, by_interval)), tuple(by_vm))

    @property
    def edge_count(self) -> int:
        """Total number of activity flips across the whole ensemble."""
        return sum(len(edges) for edges in self.by_vm)

    def activity_at(self, vm_id: int, index: int) -> bool:
        """Reconstruct one VM's activity at ``index`` from its edges
        (reference implementation for differential tests)."""
        active = False
        for edge_index, edge_active in self.by_vm[vm_id]:
            if edge_index > index:
                break
            active = edge_active
        return active

    def __repr__(self) -> str:
        return (
            f"<ActivityEdgeSchedule vms={self.vm_count} "
            f"edges={self.edge_count}>"
        )
