"""Synthetic diurnal user-day generator.

The generator models an office user's day as a *presence session* (arrive
in the morning, leave in the evening, optionally step out for lunch)
during which activity alternates between active bursts and idle gaps,
plus sparse background activity outside the session (researchers who poke
their machines at night).  Weekends replace the presence session with a
small number of short sessions occurring with low probability.

Default parameters were calibrated so the generated ensemble matches the
aggregate statistics the paper reports for its real traces (§5.1-5.2):

* weekday concurrent activity peaks in the early afternoon, with a peak
  below ~46% of users active simultaneously;
* the trough falls in the early morning (around 6:30 am);
* a group of 30 weekday users is simultaneously idle ~13% of the time;
* weekends show much lower activity.

``tests/test_traces_calibration.py`` asserts these targets.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import ConfigError
from repro.traces.model import DayType, UserDayTrace
from repro.units import INTERVALS_PER_DAY

_HOURS_PER_INTERVAL = 24.0 / INTERVALS_PER_DAY
#: Hour of day at the start of each interval, ascending.
_INTERVAL_HOURS = tuple(
    index * _HOURS_PER_INTERVAL for index in range(INTERVALS_PER_DAY)
)
#: Slice source for writing runs of activity.
_ONES = [1] * INTERVALS_PER_DAY


@dataclass(frozen=True)
class BurstModel:
    """Alternating active-burst / idle-gap process within a session.

    Run lengths are geometric; ``active_mean_intervals`` and
    ``idle_mean_intervals`` give the mean lengths in 5-minute intervals.
    """

    active_mean_intervals: float = 2.1
    idle_mean_intervals: float = 2.6

    def __post_init__(self) -> None:
        if self.active_mean_intervals < 1.0 or self.idle_mean_intervals < 1.0:
            raise ConfigError("burst run means must be >= 1 interval")

    @property
    def duty_cycle(self) -> float:
        """Long-run fraction of session intervals that are active."""
        total = self.active_mean_intervals + self.idle_mean_intervals
        return self.active_mean_intervals / total

    def sample_run(self, active: bool, rng: random.Random) -> int:
        """Sample one run length (in intervals) for the given state.

        The generator inlines this loop; tests compare against it.
        """
        mean = self.active_mean_intervals if active else self.idle_mean_intervals
        # Geometric with support {1, 2, ...} and the requested mean.
        success = 1.0 / mean
        length = 1
        while rng.random() > success:
            length += 1
        return length


@dataclass(frozen=True)
class TraceGeneratorConfig:
    """Tunable parameters of the synthetic diurnal model.

    Times are hours-of-day as floats (e.g. ``9.5`` is 9:30 am); durations
    are hours.
    """

    # -- weekday presence session --------------------------------------
    weekday_absence_probability: float = 0.12
    arrival_mean_h: float = 9.5
    arrival_std_h: float = 1.0
    departure_mean_h: float = 18.1
    departure_std_h: float = 1.4
    lunch_probability: float = 0.80
    lunch_start_mean_h: float = 12.3
    lunch_start_std_h: float = 0.4
    lunch_duration_mean_h: float = 0.75
    lunch_duration_std_h: float = 0.25
    weekday_bursts: BurstModel = field(default_factory=BurstModel)

    # -- weekend sessions ------------------------------------------------
    weekend_session_probability: float = 0.45
    weekend_max_sessions: int = 2
    weekend_session_start_low_h: float = 9.0
    weekend_session_start_high_h: float = 21.0
    weekend_session_duration_mean_h: float = 1.6
    weekend_session_duration_std_h: float = 1.0
    weekend_bursts: BurstModel = field(
        default_factory=lambda: BurstModel(
            active_mean_intervals=2.2, idle_mean_intervals=2.4
        )
    )

    # -- background (out-of-session) activity ----------------------------
    #: Marginal probability that a given out-of-session interval starts a
    #: background burst (e-mail check, remote login, etc.).
    weekday_background_start_probability: float = 0.028
    weekend_background_start_probability: float = 0.012
    background_burst_mean_intervals: float = 2.0
    #: Hour-of-day multipliers on the background start probability: the
    #: real traces are quietest just before dawn (the Figure 7 trough
    #: sits at ~6:30 am) and busier in the evening than deep at night.
    background_evening_factor: float = 1.5   # 18:00 - 23:00
    background_night_factor: float = 0.8     # 23:00 - 05:00
    background_predawn_factor: float = 0.35  # 05:00 - 08:00

    def __post_init__(self) -> None:
        for name in (
            "weekday_absence_probability",
            "lunch_probability",
            "weekend_session_probability",
            "weekday_background_start_probability",
            "weekend_background_start_probability",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be a probability, got {value}")
        if self.arrival_mean_h >= self.departure_mean_h:
            raise ConfigError("mean arrival must precede mean departure")
        if self.weekend_max_sessions < 1:
            raise ConfigError("weekend_max_sessions must be >= 1")
        if self.background_burst_mean_intervals < 1.0:
            raise ConfigError("background_burst_mean_intervals must be >= 1")
        for name in (
            "background_evening_factor",
            "background_night_factor",
            "background_predawn_factor",
        ):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be non-negative")

    def background_weight(self, hour: float) -> float:
        """Hour-of-day multiplier on background activity."""
        if 18.0 <= hour < 23.0:
            return self.background_evening_factor
        if hour >= 23.0 or hour < 5.0:
            return self.background_night_factor
        if 5.0 <= hour < 8.0:
            return self.background_predawn_factor
        return 1.0


class SyntheticTraceGenerator:
    """Generates :class:`UserDayTrace` objects from the diurnal model.

    The generator is table-driven: the per-interval background start
    probability is computed once per generator, and every run of
    activity is written as one slice.  Every random draw is still made
    one interval or one geometric trial at a time, in the historical
    order, so a given seed yields the same traces as the per-interval
    loop this replaced (``tests/test_traces_ensemble_golden.py``).
    """

    def __init__(
        self,
        config: TraceGeneratorConfig = TraceGeneratorConfig(),
        rng: Optional[random.Random] = None,
    ) -> None:
        self.config = config
        self._rng = rng if rng is not None else random.Random(0)
        self._weekday_background = _background_table(
            config, config.weekday_background_start_probability
        )
        self._weekend_background = _background_table(
            config, config.weekend_background_start_probability
        )

    # -- public API -----------------------------------------------------

    def generate(self, user_id: int, day_type: DayType) -> UserDayTrace:
        """Generate one synthetic user-day of the given type."""
        if day_type is DayType.WEEKDAY:
            bits = self._weekday_bits()
        else:
            bits = self._weekend_bits()
        return UserDayTrace.from_bits(user_id, day_type, bits)

    def generate_many(
        self, count: int, day_type: DayType, first_user_id: int = 0
    ) -> List[UserDayTrace]:
        """Generate ``count`` user-days with consecutive user ids."""
        return [
            self.generate(first_user_id + offset, day_type)
            for offset in range(count)
        ]

    # -- weekday model ----------------------------------------------------

    def _weekday_bits(self) -> List[int]:
        rng = self._rng
        config = self.config
        bits = [0] * INTERVALS_PER_DAY
        self._add_background(bits, self._weekday_background)
        if rng.random() < config.weekday_absence_probability:
            return bits

        arrival = self._clamped_gauss(
            config.arrival_mean_h, config.arrival_std_h, 5.5, 12.5
        )
        departure = self._clamped_gauss(
            config.departure_mean_h, config.departure_std_h, arrival + 2.0, 23.5
        )
        # Intervals [lunch_from, lunch_to) are away at lunch: those whose
        # start hour h has lunch_start <= h < lunch_end.
        lunch_from = lunch_to = INTERVALS_PER_DAY
        if rng.random() < config.lunch_probability:
            lunch_start = self._clamped_gauss(
                config.lunch_start_mean_h, config.lunch_start_std_h, 11.0, 14.0
            )
            lunch_length = self._clamped_gauss(
                config.lunch_duration_mean_h,
                config.lunch_duration_std_h,
                0.25,
                1.5,
            )
            lunch_end = min(lunch_start + lunch_length, departure)
            lunch_from = bisect_left(_INTERVAL_HOURS, lunch_start)
            lunch_to = bisect_left(_INTERVAL_HOURS, lunch_end)

        first = self._hour_to_interval(arrival)
        last = self._hour_to_interval(departure)
        self._fill_bursts(
            bits, first, last, config.weekday_bursts, lunch_from, lunch_to
        )
        return bits

    # -- weekend model ----------------------------------------------------

    def _weekend_bits(self) -> List[int]:
        rng = self._rng
        config = self.config
        bits = [0] * INTERVALS_PER_DAY
        self._add_background(bits, self._weekend_background)
        if rng.random() >= config.weekend_session_probability:
            return bits
        sessions = rng.randint(1, config.weekend_max_sessions)
        for _ in range(sessions):
            start = rng.uniform(
                config.weekend_session_start_low_h,
                config.weekend_session_start_high_h,
            )
            duration = self._clamped_gauss(
                config.weekend_session_duration_mean_h,
                config.weekend_session_duration_std_h,
                0.25,
                5.0,
            )
            first = self._hour_to_interval(start)
            last = self._hour_to_interval(min(start + duration, 24.0 - 1e-9))
            self._fill_bursts(bits, first, last, config.weekend_bursts)
        return bits

    # -- shared machinery ---------------------------------------------------

    def _fill_bursts(
        self,
        bits: List[int],
        first: int,
        last: int,
        bursts: BurstModel,
        skip_from: int = INTERVALS_PER_DAY,
        skip_to: int = INTERVALS_PER_DAY,
    ) -> None:
        """Fill ``bits[first..last]`` with an alternating burst process,
        leaving ``bits[skip_from:skip_to]`` untouched.

        Run lengths are :meth:`BurstModel.sample_run`'s geometric draws,
        inlined: one ``random()`` per trial, active run first.
        """
        random_ = self._rng.random
        active_success = 1.0 / bursts.active_mean_intervals
        idle_success = 1.0 / bursts.idle_mean_intervals
        end = min(last, INTERVALS_PER_DAY - 1) + 1
        index = first
        # Sessions begin with activity: the user just sat down.
        while index < end:
            run = 1
            while random_() > active_success:
                run += 1
            # Write the run [index, stop) around the skipped span.
            stop = min(index + run, end)
            head = min(stop, skip_from)
            if index < head:
                bits[index:head] = _ONES[index:head]
            tail = max(index, skip_to)
            if tail < stop:
                bits[tail:stop] = _ONES[tail:stop]
            index += run
            if index >= end:
                break
            run = 1
            while random_() > idle_success:
                run += 1
            index += run

    def _add_background(
        self, bits: List[int], table: Optional[Tuple[float, ...]]
    ) -> None:
        """Overlay sparse background activity bursts on the whole day;
        ``table[i]`` is the probability that interval ``i`` starts one
        (``None`` when the start probability is zero: no draws)."""
        if table is None:
            return
        random_ = self._rng.random
        success = 1.0 / self.config.background_burst_mean_intervals
        index = 0
        while index < INTERVALS_PER_DAY:
            if random_() < table[index]:
                run = 1
                while random_() > success:
                    run += 1
                stop = min(index + run, INTERVALS_PER_DAY)
                bits[index:stop] = _ONES[index:stop]
                index += run
            else:
                index += 1

    def _clamped_gauss(self, mean, std, low, high) -> float:
        value = self._rng.gauss(mean, std)
        return min(max(value, low), high)

    @staticmethod
    def _hour_to_interval(hour: float) -> int:
        return min(int(hour / _HOURS_PER_INTERVAL), INTERVALS_PER_DAY - 1)


def _background_table(
    config: TraceGeneratorConfig, start_probability: float
) -> Optional[Tuple[float, ...]]:
    """Per-interval background start probability, hour-weighted; the
    same product the per-interval loop computed, so the same floats."""
    if start_probability <= 0.0:
        return None
    return tuple(
        start_probability * config.background_weight(hour)
        for hour in _INTERVAL_HOURS
    )
