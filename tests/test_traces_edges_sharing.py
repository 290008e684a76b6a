"""One compiled edge schedule per ensemble, shared by its simulations.

``TraceEnsemble.edges`` compiles the ensemble once; every
``FarmSimulation`` of that ensemble reads the same schedule.  Sharing is
safe because the schedule is immutable, and invisible because a shared
schedule drives the same day as a freshly compiled one.  The cache is
not part of the ensemble's value: equality, hashing and pickles are
unchanged by it.
"""

import pickle

import pytest

from repro.equiv import fingerprint_from_result
from repro.farm import FarmConfig, FarmSimulation
from repro.farm.runner import RunSpec, _ensemble_for, clear_ensemble_cache
from repro.traces import DayType, TraceEnsemble
from repro.traces.sampler import generate_ensemble

CONFIG = FarmConfig(home_hosts=4, consolidation_hosts=2, vms_per_host=5)


@pytest.fixture
def ensemble():
    return generate_ensemble(CONFIG.total_vms, DayType.WEEKDAY, seed=17)


def _fresh(ensemble):
    """An equal ensemble whose edges have never been compiled."""
    return TraceEnsemble(ensemble.day_type, ensemble.traces)


class TestSharing:
    def test_simulations_share_the_ensembles_schedule(self, ensemble):
        first = FarmSimulation(CONFIG, "Default", ensemble, seed=3)
        second = FarmSimulation(CONFIG, "NewHome", ensemble, seed=4)
        assert first._edge_schedule is ensemble.edges
        assert second._edge_schedule is ensemble.edges

    @pytest.mark.parametrize("policy", ["Default", "FulltoPartial"])
    def test_shared_runs_fingerprint_like_fresh_compiles(
        self, ensemble, policy
    ):
        shared = [
            fingerprint_from_result(
                FarmSimulation(CONFIG, policy, ensemble, seed=seed).run()
            )
            for seed in (5, 6)
        ]
        fresh = [
            fingerprint_from_result(
                FarmSimulation(CONFIG, policy, _fresh(ensemble), seed=seed).run()
            )
            for seed in (5, 6)
        ]
        assert shared == fresh

    def test_schedule_cannot_be_mutated(self, ensemble):
        edges = ensemble.edges
        assert isinstance(edges.by_interval, tuple)
        assert all(isinstance(flips, tuple) for flips in edges.by_interval)
        assert isinstance(edges.by_vm, tuple)
        assert all(isinstance(flips, tuple) for flips in edges.by_vm)
        with pytest.raises(TypeError):
            edges.by_interval[0] = ()  # type: ignore[index]
        with pytest.raises(AttributeError):
            edges.by_vm[0].append((0, True))  # type: ignore[attr-defined]

    def test_runner_cache_hits_reuse_the_schedule(self):
        clear_ensemble_cache()
        spec = RunSpec(CONFIG, "Default", DayType.WEEKDAY, seed=9)
        ensemble, cached = _ensemble_for(spec)
        assert not cached
        edges = ensemble.edges
        again, cached = _ensemble_for(spec)
        assert cached and again.edges is edges
        clear_ensemble_cache()


class TestEnsembleValue:
    def test_equality_and_hash_ignore_the_cache(self, ensemble):
        other = _fresh(ensemble)
        ensemble.edges
        assert ensemble == other
        assert hash(ensemble) == hash(other)

    def test_pickle_is_unchanged_by_the_cache(self, ensemble):
        before = pickle.dumps(ensemble)
        ensemble.edges
        assert pickle.dumps(ensemble) == before
        loaded = pickle.loads(before)
        assert loaded == ensemble
        assert "edges" not in vars(loaded)
        assert loaded.edges.by_interval == ensemble.edges.by_interval
