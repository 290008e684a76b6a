"""Trace ensembles: the population of user-days that drives one run.

The paper samples 900 user-days from its trace archive, aligns them into a
single day, and treats them as 900 distinct users (§5.1).  An ensemble
here is exactly that aligned population.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, List, Sequence, Tuple

from repro.errors import TraceFormatError
from repro.traces.edges import ActivityEdgeSchedule
from repro.traces.generator import SyntheticTraceGenerator, TraceGeneratorConfig
from repro.traces.model import DayType, UserDayTrace
from repro.units import INTERVALS_PER_DAY


@dataclass(frozen=True)
class TraceEnsemble:
    """An aligned population of user-days, one per simulated user."""

    day_type: DayType
    traces: Tuple[UserDayTrace, ...]

    def __post_init__(self) -> None:
        if not self.traces:
            raise TraceFormatError("an ensemble must contain at least one trace")
        for trace in self.traces:
            if trace.day_type is not self.day_type:
                raise TraceFormatError(
                    f"trace for user {trace.user_id} is {trace.day_type.value}; "
                    f"ensemble is {self.day_type.value}"
                )

    def __len__(self) -> int:
        return len(self.traces)

    def __iter__(self):
        return iter(self.traces)

    def __getitem__(self, index: int) -> UserDayTrace:
        return self.traces[index]

    @cached_property
    def edges(self) -> ActivityEdgeSchedule:
        """The ensemble compiled to activity flips, once per ensemble;
        every simulation of the ensemble shares it (it is immutable)."""
        return ActivityEdgeSchedule.compile(self.traces)

    def __getstate__(self) -> Dict[str, Any]:
        # The compiled edges are a cache: pickles carry the traces only.
        state = dict(self.__dict__)
        state.pop("edges", None)
        return state

    def concurrent_active(self) -> List[int]:
        """Number of simultaneously active users for each interval."""
        counts = [0] * INTERVALS_PER_DAY
        for trace in self.traces:
            for interval, active in enumerate(trace.intervals):
                if active:
                    counts[interval] += 1
        return counts

    def peak_concurrency(self) -> Tuple[int, int]:
        """``(peak_count, interval_of_peak)`` over the day."""
        counts = self.concurrent_active()
        peak = max(counts)
        return peak, counts.index(peak)

    def resampled(self, count: int, rng: random.Random) -> "TraceEnsemble":
        """Sample ``count`` user-days with replacement, renumbering users."""
        picks = [rng.choice(self.traces) for _ in range(count)]
        renumbered = tuple(
            UserDayTrace(user_id, self.day_type, trace.intervals)
            for user_id, trace in enumerate(picks)
        )
        return TraceEnsemble(self.day_type, renumbered)


def generate_ensemble(
    count: int,
    day_type: DayType,
    seed: int,
    config: TraceGeneratorConfig = TraceGeneratorConfig(),
) -> TraceEnsemble:
    """Generate a synthetic ensemble of ``count`` user-days.

    This is the standard entry point used by the farm simulation: it mirrors
    the paper's procedure of drawing 900 user-days of one day type.
    """
    generator = SyntheticTraceGenerator(config, rng=random.Random(seed))
    traces = tuple(generator.generate_many(count, day_type))
    return TraceEnsemble(day_type, traces)


def partition_users(
    ensemble: TraceEnsemble, group_size: int
) -> List[Sequence[UserDayTrace]]:
    """Split an ensemble into consecutive groups of ``group_size`` users.

    Mirrors the assignment of 30 VMs to each home host; the final group may
    be short if the population is not divisible.
    """
    if group_size <= 0:
        raise TraceFormatError(f"group_size must be positive, got {group_size}")
    groups = []
    for start in range(0, len(ensemble), group_size):
        groups.append(ensemble.traces[start : start + group_size])
    return groups
