"""The benchmark's own tests.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest -q farmbench
"""

from __future__ import annotations

import inspect
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.equiv import fingerprint_from_result  # noqa: E402
from repro.errors import SimulationError  # noqa: E402
from repro.farm.config import FarmConfig  # noqa: E402
from repro.farm.planes import AccountingLedger, DecisionPlane  # noqa: E402
from repro.farm.simulation import FarmSimulation  # noqa: E402
from repro.faults import FaultProfile  # noqa: E402
from repro.obs.export import validate_chrome_trace  # noqa: E402
from repro.traces.model import DayType  # noqa: E402
from repro.traces.sampler import generate_ensemble  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from measure import (  # noqa: E402
    Tally, fig8_error_pp, sim_digest, straggler_ratio, tail_percentile,
)
from spans import SpanRecorder, fold, layer_totals, self_times, to_chrome  # noqa: E402
from taps import DecisionTap, LedgerTap, install_taps  # noqa: E402

TINY = FarmConfig(home_hosts=3, consolidation_hosts=1, vms_per_host=4)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# the percentile rule
# ----------------------------------------------------------------------


@pytest.mark.parametrize("count", [0, 1, 10, 20])
def test_no_percentile_beyond_the_median_with_20_samples_or_fewer(count):
    assert tail_percentile([float(i) for i in range(count)]) is None


@pytest.mark.parametrize("count, p", [(21, 52), (30, 66), (100, 90),
                                      (200, 95), (1000, 99), (5000, 99)])
def test_percentile_keeps_ten_samples_beyond_it(count, p):
    samples = [float(i) for i in range(count, 0, -1)]  # any order
    found, value = tail_percentile(samples)
    assert found == p
    beyond = sum(1 for sample in samples if sample > value)
    assert beyond >= 10
    if p < 99:  # the next percentile up would leave fewer than ten
        rank = -(-(p + 1) * count // 100)
        assert count - rank < 10


# ----------------------------------------------------------------------
# spans and self time
# ----------------------------------------------------------------------


def _nested_recording():
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    with recorder.span("day"):
        clock.now = 1.0
        with recorder.span("run") as run_span:
            recorder.add("plan", 2.0, 3.5)
            recorder.add("plan", 4.0, 4.5)
            clock.now = 10.0
        fold(run_span, "ledger", 1.25, 7)
        fold(run_span, "ledger", 0.25, 3)
        clock.now = 11.0
    return recorder


def test_self_time_subtracts_children_and_folded_calls():
    spans = _nested_recording().spans
    names = [span.name for span in spans]
    assert names == ["day", "run", "plan", "plan"]
    assert [span.parent for span in spans] == [None, 0, 1, 1]
    own = self_times(spans)
    assert own[0] == pytest.approx(11.0 - 9.0)
    # run: 9 s, minus 2 s of plan spans, minus 1.5 s folded ledger time
    assert own[1] == pytest.approx(9.0 - 2.0 - 1.5)
    assert own[2:] == [pytest.approx(1.5), pytest.approx(0.5)]
    totals = layer_totals(spans)
    assert totals["plan"] == {"seconds": 2.0, "self_s": 2.0, "calls": 2}
    assert totals["ledger"] == {"seconds": 1.5, "self_s": 1.5, "calls": 10}
    assert totals["run"]["self_s"] == pytest.approx(5.5)
    assert sum(row["self_s"] for row in totals.values()) == pytest.approx(
        spans[0].duration
    )


def test_chrome_export_is_valid_and_nested():
    spans = _nested_recording().spans
    document = to_chrome(spans)
    assert validate_chrome_trace(document) == 1 + 2 * len(spans)
    phases = [(e["ph"], e["name"]) for e in document["traceEvents"][1:]]
    assert phases == [
        ("B", "day"), ("B", "run"), ("B", "plan"), ("E", "plan"),
        ("B", "plan"), ("E", "plan"), ("E", "run"), ("E", "day"),
    ]
    run_begin = document["traceEvents"][2]
    assert run_begin["args"]["ledger_calls"] == 10
    assert run_begin["args"]["parent"] == 0


# ----------------------------------------------------------------------
# the straggler ratio and failure counting
# ----------------------------------------------------------------------


def test_straggler_ratio_is_slowest_over_mean():
    assert straggler_ratio(3.0, 2.0) == 1.5
    assert straggler_ratio(2.0, 2.0) == 1.0
    with pytest.raises(ValueError):
        straggler_ratio(1.0, 0.0)


def test_a_day_fails_once_however_many_checks_fail():
    tally = Tally()
    tally.begin_day()
    tally.check("day 0", True, "fine")
    tally.begin_day()
    tally.check("day 1", False, "energy")
    tally.check("day 1", False, "fingerprint")
    tally.begin_day()
    tally.guard("day 2", RuntimeError("crashed"))
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.failures == [
        "day 1: energy", "day 1: fingerprint", "day 2: RuntimeError: crashed",
    ]


TINY_WORKLOAD = workloads.Workload("tiny", ("Default", "FulltoPartial"),
                                   TINY, stat_rounds=1)


def test_failed_output_checks_count_as_failed_days(monkeypatch):
    def broken(simulation):
        raise SimulationError("injected")

    monkeypatch.setattr(workloads, "validate_simulation", broken)
    m = workloads.measure(TINY_WORKLOAD, seed=3, seconds=0.01, trace=False)
    assert m.tally.attempted == 2 and m.tally.failed == 2
    assert all("injected" in failure for failure in m.tally.failures)


def test_zone_energy_mismatch_is_a_failure():
    class Fake:
        def __init__(self, parts, total):
            self._parts = parts
            self.energy = type("E", (), {"managed_joules": total})()
            self.aggregate = type("A", (), {"sample_times_s": [0.0] * 288})()

        def zone_managed_joules(self):
            return self._parts

    assert workloads._zone_sum_error(Fake([1.0, 2.0], 3.0)) is None
    assert "sum to" in workloads._zone_sum_error(Fake([1.0, 2.0], 3.5))


# ----------------------------------------------------------------------
# the taps
# ----------------------------------------------------------------------


@pytest.mark.parametrize("tap, seam", [(DecisionTap, DecisionPlane),
                                       (LedgerTap, AccountingLedger)])
def test_taps_subclass_the_seams_and_time_every_method(tap, seam):
    assert issubclass(tap, seam)
    assert not tap.__abstractmethods__
    public = {
        name for name, member in inspect.getmembers(seam, inspect.isfunction)
        if not name.startswith("_")
    }
    assert public >= set(seam.__abstractmethods__)
    untimed = sorted(name for name in public if name not in tap.__dict__)
    assert untimed == []


@pytest.mark.parametrize("faults", ["none", "heavy"])
def test_taps_observe_without_changing_a_result(faults):
    config = TINY.with_overrides(
        faults=FaultProfile.heavy() if faults == "heavy" else FaultProfile.none()
    )
    ensemble = generate_ensemble(config.total_vms, DayType.WEEKDAY, seed=5,
                                 config=config.traces)
    plain = FarmSimulation(config, "FulltoPartial", ensemble, seed=9).run()
    simulation = FarmSimulation(config, "FulltoPartial", ensemble, seed=9)
    recorder = SpanRecorder()
    with recorder.span("farm.run"):
        decisions, ledger = install_taps(simulation, recorder)
        tapped = simulation.run()
    assert fingerprint_from_result(tapped) == fingerprint_from_result(plain)
    assert ledger.calls > 0 and ledger.seconds > 0.0
    assert ledger.traffic is tapped.traffic
    names = [span.name for span in recorder.spans]
    assert names.count("core.plan_consolidation") == 288
    assert names.count("core.plan_exchanges") == 288
    assert decisions.folded["core.decide_activation"][1] > 0


def test_traced_measurement_matches_and_reports_every_layer():
    m = workloads.measure(TINY_WORKLOAD, seed=4, seconds=0.01, trace=True)
    assert m.tally.failed == 0 and m.days == 2
    layers = run.layer_metrics(m)
    assert set(layers) == set(run.LAYER_UNITS)
    assert layers["core.plan_consolidation_calls"] == 288
    assert layers["engine.events"] > 0 and layers["ledger.calls"] > 0
    assert 0.0 < layers["core.share"] < 1.0


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------


def test_benchmark_json_declares_what_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == (
        run.LAYER_UNITS
    )
    assert {w["name"] for w in declared["workloads"]} == set(
        workloads.WORKLOADS
    )


def test_digest_moves_with_any_statistic():
    rows = {"Default": {"savings_fraction": 0.19, "full_migrations": 6.0}}
    same = {"Default": {"full_migrations": 6.0, "savings_fraction": 0.19}}
    moved = {"Default": {"savings_fraction": 0.19 + 1e-15,
                         "full_migrations": 6.0}}
    assert sim_digest(rows) == sim_digest(same)
    assert sim_digest(rows) != sim_digest(moved)


def test_fig8_error_in_percentage_points():
    errors = fig8_error_pp({"OnlyPartial": 0.074, "FulltoPartial": 0.281,
                            "Default": 0.18})
    assert errors == {"OnlyPartial": pytest.approx(1.4),
                      "FulltoPartial": pytest.approx(0.1)}
