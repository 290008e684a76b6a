"""FarmResult derived metrics and the control-plane message types."""

import pytest

from repro.deploy.messages import (
    CreateVmCall,
    MigrationOrder,
    MigrationType,
    StatsReport,
)
from repro.energy import EnergyReport
from repro.errors import ConfigError
from repro.farm.metrics import DelayLog, DelaySample, FarmResult


def make_result(**kwargs):
    defaults = dict(
        policy_name="FulltoPartial", day_type="weekday", seed=0,
        horizon_s=86400.0,
    )
    defaults.update(kwargs)
    return FarmResult(**defaults)


class TestFarmResultDerived:
    def test_savings_requires_energy(self):
        with pytest.raises(ConfigError):
            _ = make_result().savings_fraction

    def test_savings_delegates_to_report(self):
        result = make_result()
        result.energy = EnergyReport(managed_joules=60.0, baseline_joules=100.0)
        assert result.savings_fraction == pytest.approx(0.4)

    def test_peak_and_min_on_empty_series(self):
        result = make_result()
        assert result.peak_active_vms == 0
        assert result.min_powered_hosts == 0

    def test_peak_and_min_with_data(self):
        result = make_result()
        result.active_vms = [3, 9, 1]
        result.powered_hosts = [5, 2, 7]
        assert result.peak_active_vms == 9
        assert result.min_powered_hosts == 2

    def test_zero_delay_fraction_empty_is_one(self):
        assert make_result().zero_delay_fraction() == 1.0

    def test_zero_delay_fraction_counts_exact_zeros(self):
        result = make_result()
        result.delays = DelayLog([
            DelaySample(0.0, 1, 0.0, "already_full"),
            DelaySample(1.0, 2, 3.7, "convert_in_place"),
        ])
        assert result.zero_delay_fraction() == pytest.approx(0.5)
        assert result.delay_values() == [0.0, 3.7]

    def test_mean_home_sleep_fraction(self):
        result = make_result()
        result.home_sleep_s = {0: 43200.0, 1: 0.0}
        assert result.mean_home_sleep_fraction() == pytest.approx(0.25)

    def test_mean_home_sleep_empty(self):
        assert make_result().mean_home_sleep_fraction() == 0.0


class TestMessageValidation:
    def test_create_call_needs_path(self):
        with pytest.raises(ConfigError):
            CreateVmCall("")

    def test_partial_order_needs_working_set(self):
        with pytest.raises(ConfigError):
            MigrationOrder(1, MigrationType.PARTIAL, destination=2)
        MigrationOrder(1, MigrationType.PARTIAL, 2, working_set_mib=100.0)

    def test_full_order_without_working_set(self):
        order = MigrationOrder(1, MigrationType.FULL, destination=2)
        assert order.working_set_mib is None

    def test_stats_report_utilization(self):
        report = StatsReport(
            host_id=0, time_s=0.0, memory_used_mib=50.0,
            memory_capacity_mib=200.0, cpu_utilization=0.1,
            io_utilization=0.0,
        )
        assert report.memory_utilization == pytest.approx(0.25)

    def test_stats_report_validation(self):
        with pytest.raises(ConfigError):
            StatsReport(0, 0.0, 1.0, 0.0, 0.1, 0.0)
        with pytest.raises(ConfigError):
            StatsReport(0, 0.0, 1.0, 10.0, 1.5, 0.0)
