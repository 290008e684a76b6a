"""The columnar delay log: a list of samples in behaviour, columns inside.

:class:`~repro.farm.metrics.DelayLog` replaced a ``list`` of
:class:`~repro.farm.metrics.DelaySample` tuples.  These tests pin that
it still reads like that list, that a pickle round-trip is bit-exact,
that the zoned column merge equals the per-sample remap it replaced,
and that a real shard's log ships in about 25 bytes a row.
"""

import pickle
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.farm import FarmConfig, build_partition, simulate_day
from repro.farm.metrics import DelayLog, DelaySample
from repro.traces import DayType

floats = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308]),
)

actions = st.one_of(
    st.sampled_from(["already_full", "convert_in_place", "wake_home"]),
    st.text(max_size=12),
)


def samples_of(vm_ids=st.integers(0, 2**63 - 1)):
    return st.lists(
        st.builds(
            DelaySample,
            time_s=floats,
            vm_id=vm_ids,
            delay_s=floats,
            action=actions,
        ),
        max_size=40,
    )


def bits(values):
    """Each float's IEEE-754 bytes: tells -0.0 from 0.0."""
    return [struct.pack("<d", value) for value in values]


class TestListSurface:
    @settings(max_examples=150, deadline=None)
    @given(samples=samples_of())
    def test_reads_like_the_list_it_replaces(self, samples):
        log = DelayLog(samples)
        assert len(log) == len(samples)
        assert bool(log) == bool(samples)
        assert list(log) == samples
        assert log == samples
        assert log == DelayLog(samples)
        assert all(isinstance(row, DelaySample) for row in log)
        assert bits(row.delay_s for row in log) == bits(
            sample.delay_s for sample in samples
        )
        assert bits(row.time_s for row in log) == bits(
            sample.time_s for sample in samples
        )
        for index in range(-len(samples), len(samples)):
            assert log[index] == samples[index]

    @settings(max_examples=100, deadline=None)
    @given(
        samples=samples_of(),
        start=st.none() | st.integers(-45, 45),
        stop=st.none() | st.integers(-45, 45),
        step=st.none() | st.integers(-3, 3).filter(bool),
    )
    def test_slices_match_list_slices(self, samples, start, stop, step):
        part = DelayLog(samples)[start:stop:step]
        assert isinstance(part, DelayLog)
        assert part == samples[start:stop:step]

    @settings(max_examples=100, deadline=None)
    @given(samples=samples_of(), extra=samples_of())
    def test_append_and_item_assignment_match_the_list(self, samples, extra):
        log = DelayLog(samples)
        expected = list(samples)
        for sample in extra:
            log.append(sample)
            expected.append(sample)
        assert log == expected
        if expected:
            log[-1] = log[0]._replace(action="replaced")
            expected[-1] = expected[0]._replace(action="replaced")
            assert log == expected

    @settings(max_examples=100, deadline=None)
    @given(samples=samples_of(), other=samples_of())
    def test_equality_is_row_equality(self, samples, other):
        assert (DelayLog(samples) == DelayLog(other)) == (samples == other)
        assert (DelayLog(samples) == other) == (samples == other)

    def test_equal_rows_under_different_action_tables(self):
        rows = [
            DelaySample(1.0, 3, 0.0, "already_full"),
            DelaySample(2.0, 4, 1.5, "wake_home"),
        ]
        log = DelayLog()
        log.code("wake_home")
        for row in rows:
            log.append(row)
        assert log.actions != DelayLog(rows).actions
        assert log == DelayLog(rows)
        assert log != DelayLog(rows[::-1])

    def test_out_of_range_index_raises_like_a_list(self):
        log = DelayLog([DelaySample(0.0, 1, 0.0, "x")])
        with pytest.raises(IndexError):
            log[1]
        with pytest.raises(IndexError):
            log[-2]

    def test_unhashable_like_a_list(self):
        with pytest.raises(TypeError):
            hash(DelayLog())

    def test_more_than_256_actions_rejected(self):
        log = DelayLog(
            DelaySample(0.0, 0, 0.0, f"action-{code}") for code in range(256)
        )
        with pytest.raises(ConfigError):
            log.append(DelaySample(0.0, 0, 0.0, "one-too-many"))
        assert len(log) == 256
        assert len(log.time_s) == len(log.vm_id) == len(log.delay_s) == 256


class TestPickle:
    @settings(max_examples=100, deadline=None)
    @given(samples=samples_of())
    def test_round_trip_is_bit_exact(self, samples):
        log = DelayLog(samples)
        clone = pickle.loads(pickle.dumps(log))
        assert clone.time_s.tobytes() == log.time_s.tobytes()
        assert clone.vm_id.tobytes() == log.vm_id.tobytes()
        assert clone.delay_s.tobytes() == log.delay_s.tobytes()
        assert bytes(clone.action) == bytes(log.action)
        assert clone.actions == log.actions
        assert clone == samples
        # The rebuilt action table keeps coding new rows.
        clone.append(DelaySample(0.0, 0, 0.0, "after-pickle"))
        assert clone[-1].action == "after-pickle"

    def test_real_shard_log_ships_in_about_25_bytes_a_row(self):
        # One zoned-5k shard: 21 home hosts x 30 VMs.
        config = FarmConfig(
            home_hosts=21, consolidation_hosts=2, vms_per_host=30
        )
        assert config.total_vms == 630
        log = simulate_day(config, "Default", DayType.WEEKDAY, seed=3).delays
        assert len(log) > 1000
        assert len(pickle.dumps(log)) <= 26 * len(log) + 512


class TestColumnMerge:
    @settings(max_examples=80, deadline=None)
    @given(
        home_hosts=st.integers(1, 12),
        vms_per_host=st.integers(1, 6),
        zones=st.integers(1, 5),
        seed=st.integers(0, 2**31 - 1),
        data=st.data(),
    )
    def test_merge_equals_per_sample_remap_in_zone_order(
        self, home_hosts, vms_per_host, zones, seed, data
    ):
        config = FarmConfig(
            home_hosts=home_hosts,
            consolidation_hosts=min(zones, home_hosts),
            vms_per_host=vms_per_host,
        )
        partition = build_partition(config, zones, seed)
        shards = [
            (
                zone,
                data.draw(samples_of(
                    st.integers(0, len(partition.zone_vm_ids(zone)) - 1)
                )),
            )
            for zone in partition.nonempty_zones
        ]
        merged = DelayLog()
        for zone, samples in shards:
            merged.extend(
                DelayLog(samples), vm_ids=partition.zone_vm_ids(zone)
            )
        expected = [
            DelaySample(t, vm_ids[v], d, a)
            for zone, samples in shards
            for vm_ids in (partition.zone_vm_ids(zone),)
            for t, v, d, a in samples
        ]
        assert merged == expected
        assert bits(merged.delay_s) == bits(row.delay_s for row in expected)

    def test_out_of_zone_local_id_leaves_the_log_unchanged(self):
        merged = DelayLog([DelaySample(0.0, 0, 0.0, "a")])
        with pytest.raises(IndexError):
            merged.extend(
                DelayLog([DelaySample(0.0, 5, 0.0, "b")]), vm_ids=(10, 11)
            )
        assert merged == [DelaySample(0.0, 0, 0.0, "a")]
