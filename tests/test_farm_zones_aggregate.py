"""Zoned aggregation: the per-zone id table, and the post-run checks.

The aggregate remaps each shard's delay samples through the zone's
global-id table (``partition.zone_vm_ids(zone)[local]``).  These tests
pin that table against the per-id ``global_vm_id`` map, the aggregate
against the per-sample construction it replaced, and
:func:`validate_zoned_result` against a corrupted copy of each invariant
it checks.
"""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.farm import FarmConfig, GlobalController, build_partition
from repro.farm.metrics import DelaySample
from repro.farm.validate import validate_zoned_result
from repro.traces import DayType

CONFIG = FarmConfig(home_hosts=7, consolidation_hosts=3, vms_per_host=4)


@pytest.fixture(scope="module")
def zoned():
    controller = GlobalController(
        CONFIG, "Default", DayType.WEEKDAY, zones=3, seed=11
    )
    return controller.run()


class TestZoneIdTable:
    @settings(max_examples=60, deadline=None)
    @given(
        home_hosts=st.integers(1, 40),
        vms_per_host=st.integers(1, 9),
        zones=st.integers(1, 12),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_table_matches_global_vm_id(
        self, home_hosts, vms_per_host, zones, seed
    ):
        config = FarmConfig(
            home_hosts=home_hosts,
            consolidation_hosts=min(zones, home_hosts),
            vms_per_host=vms_per_host,
        )
        partition = build_partition(config, zones, seed)
        for zone in range(zones):
            table = partition.zone_vm_ids(zone)
            for local in range(len(table)):
                assert table[local] == partition.global_vm_id(zone, local)

    def test_aggregate_delays_match_per_sample_remap(self, zoned):
        partition = zoned.partition
        expected = [
            DelaySample(
                time_s=sample.time_s,
                vm_id=partition.global_vm_id(zone, sample.vm_id),
                delay_s=sample.delay_s,
                action=sample.action,
            )
            for zone, result in enumerate(zoned.zone_results)
            if result is not None
            for sample in result.delays
        ]
        assert expected
        assert zoned.aggregate.delays == expected

    def test_shard_result_survives_pickling(self, zoned):
        for result in zoned.zone_results:
            if result is not None:
                assert pickle.loads(pickle.dumps(result)) == result


class TestValidateZonedResult:
    def test_clean_run_passes(self, zoned):
        validate_zoned_result(zoned)

    def test_extra_delay_sample_is_caught(self, zoned):
        broken = copy.deepcopy(zoned)
        broken.aggregate.delays.append(broken.aggregate.delays[0])
        with pytest.raises(SimulationError, match="delay samples"):
            validate_zoned_result(broken)

    def test_sample_in_the_wrong_zone_is_caught(self, zoned):
        broken = copy.deepcopy(zoned)
        partition = broken.partition
        first_zone = partition.nonempty_zones[0]
        foreign = next(
            vm_id
            for zone in partition.nonempty_zones
            if zone != first_zone
            for vm_id in partition.zone_vm_ids(zone)
        )
        delays = broken.aggregate.delays
        delays[0] = delays[0]._replace(vm_id=foreign)
        with pytest.raises(SimulationError, match="does not own it"):
            validate_zoned_result(broken)

    def test_energy_that_does_not_sum_is_caught(self, zoned):
        broken = copy.deepcopy(zoned)
        energy = broken.aggregate.energy
        broken.aggregate.energy = dataclasses.replace(
            energy, managed_joules=energy.managed_joules * (1 + 1e-12)
        )
        with pytest.raises(SimulationError, match="managed energies"):
            validate_zoned_result(broken)

    @pytest.mark.parametrize(
        "series", ["sample_times_s", "active_vms", "powered_hosts"]
    )
    def test_short_aggregate_series_is_caught(self, zoned, series):
        broken = copy.deepcopy(zoned)
        getattr(broken.aggregate, series).pop()
        with pytest.raises(SimulationError, match=series):
            validate_zoned_result(broken)

    def test_short_shard_series_is_caught(self, zoned):
        broken = copy.deepcopy(zoned)
        shard = next(r for r in broken.zone_results if r is not None)
        shard.powered_consolidation_hosts.append(0)
        with pytest.raises(SimulationError, match="zone .*powered_consol"):
            validate_zoned_result(broken)

    def test_controller_runs_the_check(self, monkeypatch):
        import repro.farm.zones as zones

        seen = []
        monkeypatch.setattr(zones, "validate_zoned_result", seen.append)
        small = FarmConfig(home_hosts=2, consolidation_hosts=2, vms_per_host=2)
        result = GlobalController(
            small, "Default", DayType.WEEKDAY, zones=2, seed=1
        ).run()
        assert seen == [result]
