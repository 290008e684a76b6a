"""Ensemble golden: ``generate_ensemble`` output is pinned bit for bit.

``tests/golden/ensemble_golden.json`` holds a SHA-256 over weekday and
weekend ensembles for seeds 0–19, under the default generator config
and under a "quiet" variant (no background activity outside office
hours, no lunch breaks, up to three weekend sessions).  The digests
were computed with the per-interval generator that preceded the
table-driven one, so a pass shows that every draw and every bit is
unchanged.  Never regenerate them for a refactor.

The second half compares the generator with that per-interval loop,
kept here as the reference, over random configs and seeds.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces import (
    DayType,
    SyntheticTraceGenerator,
    TraceGeneratorConfig,
    UserDayTrace,
)
from repro.traces.generator import BurstModel
from repro.traces.sampler import generate_ensemble
from repro.units import INTERVALS_PER_DAY

ENSEMBLE_GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "ensemble_golden.json"
)

#: Users per pinned ensemble; 2 day types x 20 seeds x 2 configs.
USERS = 300
SEEDS = range(20)

VARIANTS = {
    "default": TraceGeneratorConfig(),
    "quiet": TraceGeneratorConfig(
        background_evening_factor=0.0,
        background_night_factor=0.0,
        background_predawn_factor=0.0,
        lunch_probability=0.0,
        weekend_max_sessions=3,
    ),
}


def ensemble_digest(config: TraceGeneratorConfig) -> str:
    """SHA-256 over every trace of the pinned ensembles, in order."""
    digest = hashlib.sha256()
    for day_type in (DayType.WEEKDAY, DayType.WEEKEND):
        for seed in SEEDS:
            for trace in generate_ensemble(USERS, day_type, seed, config):
                digest.update(
                    f"{trace.user_id}:{trace.day_type.value}:".encode()
                )
                digest.update(bytes(trace.intervals))
    return digest.hexdigest()


def test_ensembles_match_golden_digests():
    with open(ENSEMBLE_GOLDEN_PATH, encoding="utf-8") as handle:
        golden = json.load(handle)
    assert golden["users"] == USERS
    assert golden["seeds"] == len(SEEDS)
    for name, config in VARIANTS.items():
        assert ensemble_digest(config) == golden["digests"][name], name


# ----------------------------------------------------------------------
# the per-interval reference generator
# ----------------------------------------------------------------------

_HOURS_PER_INTERVAL = 24.0 / INTERVALS_PER_DAY


class _ReferenceGenerator:
    """The generator as it was before it became table-driven: the
    background weight is looked up per interval, every run length comes
    from ``BurstModel.sample_run`` and every bit is written one at a
    time, with lunch tested by a per-interval predicate."""

    def __init__(self, config: TraceGeneratorConfig, rng: random.Random):
        self.config = config
        self._rng = rng

    def generate_many(self, count, day_type):
        return [
            UserDayTrace.from_bits(
                user_id,
                day_type,
                self._weekday_bits()
                if day_type is DayType.WEEKDAY
                else self._weekend_bits(),
            )
            for user_id in range(count)
        ]

    def _clamped_gauss(self, mean, std, low, high):
        return min(max(self._rng.gauss(mean, std), low), high)

    @staticmethod
    def _hour_to_interval(hour):
        return min(int(hour / _HOURS_PER_INTERVAL), INTERVALS_PER_DAY - 1)

    def _weekday_bits(self):
        rng = self._rng
        config = self.config
        bits = [0] * INTERVALS_PER_DAY
        self._add_background(bits, config.weekday_background_start_probability)
        if rng.random() < config.weekday_absence_probability:
            return bits
        arrival = self._clamped_gauss(
            config.arrival_mean_h, config.arrival_std_h, 5.5, 12.5
        )
        departure = self._clamped_gauss(
            config.departure_mean_h, config.departure_std_h, arrival + 2.0, 23.5
        )
        lunch_span = None
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
            lunch_span = (lunch_start, min(lunch_start + lunch_length, departure))
        first = self._hour_to_interval(arrival)
        last = self._hour_to_interval(departure)
        self._fill_bursts(
            bits, first, last, config.weekday_bursts,
            skip=_interval_predicate(lunch_span),
        )
        return bits

    def _weekend_bits(self):
        rng = self._rng
        config = self.config
        bits = [0] * INTERVALS_PER_DAY
        self._add_background(bits, config.weekend_background_start_probability)
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

    def _fill_bursts(self, bits, first, last, bursts: BurstModel, skip=None):
        rng = self._rng
        index = first
        active = True
        while index <= min(last, INTERVALS_PER_DAY - 1):
            run = bursts.sample_run(active, rng)
            for _ in range(run):
                if index > min(last, INTERVALS_PER_DAY - 1):
                    break
                if active and not (skip is not None and skip(index)):
                    bits[index] = 1
                index += 1
            active = not active

    def _add_background(self, bits, start_probability):
        if start_probability <= 0.0:
            return
        rng = self._rng
        mean = self.config.background_burst_mean_intervals
        index = 0
        while index < INTERVALS_PER_DAY:
            hour = index * _HOURS_PER_INTERVAL
            weighted = start_probability * self.config.background_weight(hour)
            if rng.random() < weighted:
                run = 1
                while rng.random() > 1.0 / mean:
                    run += 1
                for offset in range(run):
                    if index + offset < INTERVALS_PER_DAY:
                        bits[index + offset] = 1
                index += run
            else:
                index += 1


def _interval_predicate(span_hours):
    if span_hours is None:
        return None
    start, end = span_hours

    def in_span(interval: int) -> bool:
        return start <= interval * _HOURS_PER_INTERVAL < end

    return in_span


_probability = st.floats(min_value=0.0, max_value=1.0)
_factor = st.sampled_from([0.0, 0.35, 1.0, 2.5]) | st.floats(0.0, 4.0)
_run_mean = st.floats(min_value=1.0, max_value=6.0)


@st.composite
def _configs(draw):
    arrival = draw(st.floats(6.0, 12.0))
    return TraceGeneratorConfig(
        weekday_absence_probability=draw(_probability),
        arrival_mean_h=arrival,
        arrival_std_h=draw(st.floats(0.0, 3.0)),
        departure_mean_h=draw(st.floats(arrival + 0.5, 23.0)),
        departure_std_h=draw(st.floats(0.0, 3.0)),
        lunch_probability=draw(_probability),
        lunch_start_mean_h=draw(st.floats(10.0, 15.0)),
        lunch_duration_mean_h=draw(st.floats(0.0, 2.0)),
        weekday_bursts=BurstModel(draw(_run_mean), draw(_run_mean)),
        weekend_session_probability=draw(_probability),
        weekend_max_sessions=draw(st.integers(1, 4)),
        weekend_bursts=BurstModel(draw(_run_mean), draw(_run_mean)),
        weekday_background_start_probability=draw(
            st.sampled_from([0.0, 0.028, 1.0]) | _probability
        ),
        weekend_background_start_probability=draw(_probability),
        background_burst_mean_intervals=draw(_run_mean),
        background_evening_factor=draw(_factor),
        background_night_factor=draw(_factor),
        background_predawn_factor=draw(_factor),
    )


@settings(max_examples=60, deadline=None)
@given(
    config=_configs(),
    seed=st.integers(0, 2**31 - 1),
    day_type=st.sampled_from([DayType.WEEKDAY, DayType.WEEKEND]),
)
def test_generator_matches_per_interval_reference(config, seed, day_type):
    generator = SyntheticTraceGenerator(config, rng=random.Random(seed))
    reference = _ReferenceGenerator(config, rng=random.Random(seed))
    assert generator.generate_many(12, day_type) == reference.generate_many(
        12, day_type
    )
    # Both consumed exactly the same draws.
    assert generator._rng.random() == reference._rng.random()
