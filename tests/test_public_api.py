"""Public API surface sanity."""

import importlib

import pytest

import repro


PACKAGES = [
    "repro.analysis",
    "repro.checkers",
    "repro.checkers.rules",
    "repro.cluster",
    "repro.core",
    "repro.energy",
    "repro.equiv",
    "repro.farm",
    "repro.memserver",
    "repro.migration",
    "repro.pagesim",
    "repro.prototype",
    "repro.simulator",
    "repro.traces",
    "repro.vm",
]


class TestImports:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_package_imports(self, name):
        module = importlib.import_module(name)
        assert module is not None

    @pytest.mark.parametrize("name", PACKAGES)
    def test_all_names_resolve(self, name):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            assert hasattr(module, symbol), f"{name}.{symbol} missing"

    def test_top_level_quickstart_symbols(self):
        for symbol in ("FarmConfig", "simulate_day", "FULL_TO_PARTIAL",
                       "DayType", "generate_ensemble"):
            assert hasattr(repro, symbol)

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_errors_form_a_hierarchy(self):
        from repro import errors

        for name in ("ConfigError", "CapacityError", "PowerStateError",
                     "MigrationError", "TraceFormatError", "SimulationError",
                     "CompressionError"):
            exc = getattr(errors, name)
            assert issubclass(exc, errors.ReproError)

    def test_farm_exports_the_delay_log(self):
        from repro import farm

        for symbol in ("DelayLog", "DelaySample", "FarmResult"):
            assert symbol in farm.__all__
        result = farm.FarmResult("Default", "weekday", 0, 86400.0)
        assert isinstance(result.delays, farm.DelayLog)
        assert result.delays == []
