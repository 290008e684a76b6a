"""The post-run validator itself: it must catch corrupted state."""

import pytest

from repro.core import FULL_TO_PARTIAL
from repro.errors import SimulationError
from repro.farm import FarmConfig, FarmSimulation, validate_simulation
from repro.traces import DayType, TraceEnsemble, UserDayTrace


@pytest.fixture
def finished_simulation():
    config = FarmConfig(home_hosts=2, consolidation_hosts=1, vms_per_host=2)
    ensemble = TraceEnsemble(
        DayType.WEEKDAY,
        tuple(UserDayTrace.all_idle(u, DayType.WEEKDAY) for u in range(4)),
    )
    simulation = FarmSimulation(config, FULL_TO_PARTIAL, ensemble, seed=0)
    simulation.run()
    return simulation


class TestValidator:
    def test_clean_run_passes(self, finished_simulation):
        validate_simulation(finished_simulation)

    def test_unfinished_run_rejected(self):
        config = FarmConfig(home_hosts=2, consolidation_hosts=1,
                            vms_per_host=2)
        ensemble = TraceEnsemble(
            DayType.WEEKDAY,
            tuple(UserDayTrace.all_idle(u, DayType.WEEKDAY)
                  for u in range(4)),
        )
        simulation = FarmSimulation(config, FULL_TO_PARTIAL, ensemble)
        with pytest.raises(SimulationError, match="not run"):
            validate_simulation(simulation)

    def test_catches_lost_vm(self, finished_simulation):
        vm = finished_simulation.vms[0]
        finished_simulation.cluster.host(vm.host_id).detach(vm.vm_id)
        with pytest.raises(SimulationError, match="conservation"):
            validate_simulation(finished_simulation)

    def test_catches_accounting_drift(self, finished_simulation):
        host = finished_simulation.cluster.host(2)
        host._used_mib += 123.0
        with pytest.raises(SimulationError, match="accounting"):
            validate_simulation(finished_simulation)

    def test_catches_orphan_served_image(self, finished_simulation):
        finished_simulation.cluster.host(0).add_served_image(999)
        with pytest.raises(SimulationError, match="image"):
            validate_simulation(finished_simulation)

    def test_catches_negative_delay(self, finished_simulation):
        from repro.farm.metrics import DelaySample

        finished_simulation.result.delays.append(
            DelaySample(time_s=1.0, vm_id=0, delay_s=-1.0, action="x")
        )
        with pytest.raises(SimulationError, match="negative"):
            validate_simulation(finished_simulation)

    def test_catches_negative_delay_among_valid_ones(
        self, finished_simulation
    ):
        from repro.farm.metrics import DelaySample

        delays = finished_simulation.result.delays
        for delay_s in (0.0, 2.5, -1e-9, 0.0):
            delays.append(DelaySample(1.0, 0, delay_s, "already_full"))
        with pytest.raises(SimulationError, match="negative"):
            validate_simulation(finished_simulation)
