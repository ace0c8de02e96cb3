"""The unified engine pipeline: registry coverage, determinism, shims.

Every parallel family now prices through the shared runner
(:mod:`repro.engine.runner`). These tests gate the refactor's contract:

* the capability registry covers all five parallel families, and every
  subsystem hook resolves by canonical name only;
* pricing is bitwise deterministic per engine (two fresh runs agree on
  every bit of every numeric field);
* the legacy ``repro.core`` adapters and a direct ``run_engine`` call on
  the registry-resolved pipeline class agree on every result field except
  the wall clock;
* the ``repro.core.result`` import shim still exposes the one shared
  :class:`~repro.engine.result.ParallelRunResult`.
"""

import numpy as np
import pytest

from repro.core import (
    ParallelLatticePricer,
    ParallelLSMPricer,
    ParallelMCGreeks,
    ParallelMCPricer,
    ParallelPDEPricer,
)
from repro.engine import PARALLEL_ENGINES, REFERENCE_FAMILIES, run_engine
from repro.engine.names import GREEKS, LATTICE, LSM, MC, PDE
from repro.engine.registry import (
    EngineCapabilities,
    EngineRegistry,
    EngineSpec,
    default_registry,
)
from repro.errors import ValidationError
from repro.workloads.suites import scaling_workload

#: Per-family factory: a fresh legacy config plus the rank count to run at.
#: Sizes are small — the whole module prices in a few seconds.
CONFIGS = {
    MC: lambda: (ParallelMCPricer(4_000, seed=3), 4),
    LATTICE: lambda: (ParallelLatticePricer(24), 3),
    PDE: lambda: (ParallelPDEPricer(n_space=24, n_time=6), 2),
    LSM: lambda: (ParallelLSMPricer(2_000, 4, seed=5), 3),
    GREEKS: lambda: (ParallelMCGreeks(2_000, seed=7), 2),
}

#: Every ParallelRunResult field except wall_time (backend-dependent) and
#: meta (may carry non-comparable diagnostics like the recorded cluster).
COMPARED_FIELDS = ("price", "stderr", "p", "sim_time", "compute_time",
                   "comm_time", "idle_time", "messages", "bytes_moved",
                   "engine")


def _run_legacy(name):
    cfg, p = CONFIGS[name]()
    w = scaling_workload(name)
    return cfg.price(w.model, w.payoff, w.expiry, p)


class TestRegistryCoverage:
    def test_every_parallel_family_is_registered(self):
        assert default_registry().names(parallel=True) == PARALLEL_ENGINES

    def test_reference_families_match_constant(self):
        assert default_registry().names(reference=True) == REFERENCE_FAMILIES

    def test_every_parallel_family_has_a_test_config(self):
        assert set(CONFIGS) == set(PARALLEL_ENGINES)

    @pytest.mark.parametrize("name", PARALLEL_ENGINES)
    def test_pipeline_hook_resolves_matching_engine_class(self, name):
        engine_cls = default_registry().get(name).pipeline()
        assert engine_cls.name == name

    def test_servable_families(self):
        assert default_registry().names(servable=True) == (MC, LATTICE, PDE, LSM)

    def test_scalable_and_traceable_families(self):
        reg = default_registry()
        assert reg.names(scalable=True) == (MC, LATTICE, PDE, LSM)
        assert reg.names(traceable=True) == (MC, LATTICE, PDE, LSM)

    def test_unknown_engine_raises(self):
        with pytest.raises(ValidationError, match="unknown engine"):
            default_registry().get("fft")

    def test_duplicate_registration_raises(self):
        reg = EngineRegistry()
        reg.register(EngineSpec(name="x", summary="first"))
        with pytest.raises(ValidationError, match="already registered"):
            reg.register(EngineSpec(name="x", summary="second"))

    def test_capability_flags(self):
        reg = default_registry()
        assert reg.get(MC).capabilities.degradable
        assert reg.get(MC).capabilities.supports_qmc
        assert not reg.get(MC).capabilities.american
        for name in (LATTICE, PDE, LSM):
            assert reg.get(name).capabilities.american, name
        assert reg.get(PDE).capabilities.max_dim == 2
        assert EngineCapabilities(stochastic=True, american=True).flags() == (
            "stochastic", "american")

    def test_only_mc_uses_a_real_backend_in_the_trace_cli(self):
        reg = default_registry()
        assert reg.get(MC).uses_backend
        assert not any(reg.get(n).uses_backend
                       for n in (LATTICE, PDE, LSM, GREEKS))


class TestPipelineDeterminism:
    @pytest.mark.parametrize("name", PARALLEL_ENGINES)
    def test_two_fresh_runs_are_bitwise_identical(self, name):
        a = _run_legacy(name)
        b = _run_legacy(name)
        for f in COMPARED_FIELDS:
            assert getattr(a, f) == getattr(b, f), f

    def test_greeks_arrays_are_bitwise_deterministic(self):
        w = scaling_workload(GREEKS)
        runs = [ParallelMCGreeks(2_000, seed=7).compute(
            w.model, w.payoff, w.expiry, 2) for _ in range(2)]
        for f in ("delta", "gamma", "vega"):
            assert np.array_equal(getattr(runs[0], f), getattr(runs[1], f)), f


class TestLegacyAdapterRegression:
    @pytest.mark.parametrize("name", PARALLEL_ENGINES)
    def test_adapter_matches_registry_resolved_pipeline(self, name):
        # The legacy repro.core entry point and a raw run_engine call on
        # the registry's pipeline class must agree bitwise on everything
        # but the wall clock.
        legacy = _run_legacy(name)
        cfg, p = CONFIGS[name]()
        w = scaling_workload(name)
        engine_cls = default_registry().get(name).pipeline()
        direct = run_engine(engine_cls(cfg), w.model, w.payoff, w.expiry, p)
        for f in COMPARED_FIELDS:
            assert getattr(legacy, f) == getattr(direct, f), f

    def test_result_class_import_shim(self):
        from repro.core import ParallelRunResult as from_core_pkg
        from repro.core.result import ParallelRunResult as from_core_mod
        from repro.engine.result import ParallelRunResult as from_engine

        assert from_core_mod is from_engine
        assert from_core_pkg is from_engine

    @pytest.mark.parametrize("name", PARALLEL_ENGINES)
    def test_result_is_stamped_with_canonical_name(self, name):
        assert _run_legacy(name).engine == name


def _series_keys(metrics):
    snap = metrics.snapshot()
    return sorted(key for group in snap.values() for key in group)


class TestDefaultDispatchRecord:
    """An unset scheduler dispatches through the static scheduler object
    but records exactly what the pre-scheduler runner recorded."""

    #: Config digests of the default configurations below; a change here
    #: breaks ledger comparability with every committed baseline.
    MC_DIGEST = "a07ed155d985"
    LATTICE_DIGEST = "f51eea9e3671"
    STAGES = {"plan", "partition", "execute", "reduce", "report"}

    def _attach(self, cfg, tmp_path):
        from repro.obs import MetricsRegistry, RunLedger

        cfg.ledger = RunLedger(tmp_path / "runs.jsonl")
        cfg.metrics = MetricsRegistry()
        return cfg

    def test_default_run_records_no_sched(self, tmp_path):
        cfg = self._attach(ParallelMCPricer(4_000, seed=3), tmp_path)
        w = scaling_workload(MC)
        cfg.price(w.model, w.payoff, w.expiry, 4)
        (rec,) = cfg.ledger.records()
        assert rec.kind == "engine"
        assert rec.config == self.MC_DIGEST
        assert "sched" not in (rec.extra or {})
        assert set(rec.stages) == self.STAGES
        assert _series_keys(cfg.metrics) == [
            "engine.runs{engine=mc}", "engine.sim_s{engine=mc}",
            "engine.wall_s{engine=mc}"]

    def test_default_faulted_run_records_no_sched(self, tmp_path):
        from repro.parallel import FaultPlan

        cfg = self._attach(ParallelMCPricer(
            4_000, seed=3, faults=FaultPlan.single_crash(1)), tmp_path)
        w = scaling_workload(MC)
        res = cfg.price(w.model, w.payoff, w.expiry, 4)
        (rec,) = cfg.ledger.records()
        assert "sched" not in (rec.extra or {})
        assert rec.faults["recovered"] == 1
        assert res.meta["fault_report"].sched.strategy == "static"
        assert not any(k.startswith("sched.")
                       for k in _series_keys(cfg.metrics))

    @pytest.mark.parametrize("name", [MC, LATTICE])
    def test_strip_records_the_same_five_stages(self, name, tmp_path):
        from repro.engine.runner import run_pipeline, run_strip
        from repro.market.gbm import MultiAssetGBM
        from repro.payoffs import Call

        cfg, p = CONFIGS[name]()
        cfg = self._attach(cfg, tmp_path)
        model = MultiAssetGBM.equicorrelated(1, spot=100.0, vol=0.2,
                                             rate=0.05, rho=0.0)
        engine = default_registry().get(name).pipeline()(cfg)
        run_pipeline(engine, model, Call(100.0), 1.0, p)
        results = run_strip(engine, model, [Call(90.0), Call(100.0)], 1.0, p)
        single, strip = cfg.ledger.records()
        assert (single.kind, strip.kind) == ("engine", "strip")
        assert set(single.stages) == set(strip.stages) == self.STAGES
        assert strip.config == single.config == {
            MC: self.MC_DIGEST, LATTICE: self.LATTICE_DIGEST}[name]
        assert strip.extra["contracts"] == 2
        assert "sched" not in strip.extra
        assert [r.meta["strip"] for r in results] == [
            {"contracts": 2, "index": 0}, {"contracts": 2, "index": 1}]
        assert _series_keys(cfg.metrics) == sorted([
            f"engine.runs{{engine={name}}}",
            f"engine.strip_runs{{engine={name}}}",
            f"engine.strip_contracts{{engine={name}}}",
            f"engine.sim_s{{engine={name}}}",
            f"engine.wall_s{{engine={name}}}"])
