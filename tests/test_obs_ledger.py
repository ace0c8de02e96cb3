"""Run ledger: record round-trips, schema stability, runner/serve wiring."""

import json
from pathlib import Path

import pytest

from repro.errors import ValidationError
from repro.core import ParallelMCPricer
from repro.obs import (
    LEDGER_SCHEMA_VERSION,
    RunLedger,
    RunRecord,
    config_digest,
    new_run_id,
    read_ledger,
    set_active_ledger,
)
from repro.parallel import ThreadBackend
from repro.parallel.faults import FaultPlan
from repro.workloads import basket_workload


def _record(**over) -> RunRecord:
    doc = dict(run_id="abc123def456", kind="engine", engine="mc",
               config="0011223344ff", backend="thread", workers=2, p=4,
               stages={"plan": 0.001, "execute": 0.5},
               wall_s=0.51, sim_s=0.2, faults={"injected": 1, "retries": 1},
               extra={"price": 10.5}, git="deadbee")
    doc.update(over)
    return RunRecord(**doc)


class TestRunRecord:
    def test_round_trip_preserves_every_field(self):
        rec = _record()
        clone = RunRecord.from_dict(json.loads(rec.to_json()))
        assert clone == rec
        assert clone.to_json() == rec.to_json()

    def test_canonical_json_is_sorted_and_compact(self):
        text = _record().to_json()
        doc = json.loads(text)
        assert list(doc) == sorted(doc)
        assert ": " not in text and ", " not in text
        assert doc["schema"] == LEDGER_SCHEMA_VERSION

    def test_schema_stability_golden_shape(self):
        # The v1 wire shape is frozen: adding/renaming a field must bump
        # LEDGER_SCHEMA_VERSION (and extend this set).
        assert set(json.loads(_record().to_json())) == {
            "schema", "run_id", "kind", "engine", "config", "backend",
            "workers", "p", "stages", "wall_s", "sim_s", "faults",
            "extra", "git",
        }

    def test_newer_schema_is_rejected(self):
        doc = json.loads(_record().to_json())
        doc["schema"] = LEDGER_SCHEMA_VERSION + 1
        with pytest.raises(ValidationError, match="newer"):
            RunRecord.from_dict(doc)

    def test_missing_schema_and_malformed_doc_raise(self):
        with pytest.raises(ValidationError):
            RunRecord.from_dict({"run_id": "x"})
        with pytest.raises(ValidationError):
            RunRecord.from_dict([1, 2])
        doc = json.loads(_record().to_json())
        del doc["engine"]
        with pytest.raises(ValidationError, match="malformed"):
            RunRecord.from_dict(doc)


class TestLedgerFile:
    def test_append_and_read_back(self, tmp_path):
        ledger = RunLedger(tmp_path / "sub" / "runs.jsonl")
        for i in range(3):
            ledger.append(_record(run_id=f"{i:012d}"))
        assert ledger.appended == 3
        recs = ledger.records()
        assert [r.run_id for r in recs] == ["000000000000", "000000000001",
                                           "000000000002"]
        assert len(ledger) == 3

    def test_read_missing_and_corrupt_lines(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            list(read_ledger(tmp_path / "nope.jsonl"))
        bad = tmp_path / "bad.jsonl"
        bad.write_text(_record().to_json() + "\nnot json\n")
        with pytest.raises(ValidationError, match="not valid JSON"):
            list(read_ledger(bad))

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text("\n" + _record().to_json() + "\n\n")
        assert len(list(read_ledger(path))) == 1


class TestHelpers:
    def test_new_run_id_shape_and_uniqueness(self):
        ids = {new_run_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(i) == 12 for i in ids)
        assert all(c in "0123456789abcdef" for i in ids for c in i)

    def test_config_digest_ignores_machinery_and_order(self):
        class Cfg:
            pass

        a, b = Cfg(), Cfg()
        a.n_paths, a.seed, a.backend = 1000, 7, ThreadBackend(2)
        b.seed, b.n_paths = 7, 1000  # different insertion order, no backend
        a.backend.close()
        assert config_digest(a) == config_digest(b)
        b.seed = 8
        assert config_digest(a) != config_digest(b)

    def test_config_digest_accepts_mappings(self):
        assert config_digest({"a": 1}) != config_digest({"a": 2})
        assert len(config_digest({"a": 1})) == 12


class TestRunnerIntegration:
    def test_pipeline_run_appends_stage_timed_record(self, tmp_path):
        w = basket_workload(2)
        pricer = ParallelMCPricer(4000, seed=1)
        pricer.ledger = RunLedger(tmp_path / "runs.jsonl")
        res = pricer.price(w.model, w.payoff, w.expiry, 4)
        (rec,) = pricer.ledger.records()
        assert rec.kind == "engine" and rec.engine == "mc"
        assert rec.backend == "serial" and rec.p == 4
        assert set(rec.stages) == {"plan", "partition", "execute",
                                   "reduce", "report"}
        assert all(t >= 0.0 for t in rec.stages.values())
        assert rec.wall_s == res.wall_time
        assert rec.extra["price"] == res.price
        assert len(rec.run_id) == 12

    def test_fault_tallies_and_run_id_correlation(self, tmp_path):
        w = basket_workload(2)
        pricer = ParallelMCPricer(4000, seed=1,
                                  faults=FaultPlan.single_crash(1),
                                  policy="retry")
        pricer.ledger = RunLedger(tmp_path / "runs.jsonl")
        res = pricer.price(w.model, w.payoff, w.expiry, 4)
        (rec,) = pricer.ledger.records()
        assert rec.faults == {"injected": 1, "retries": 1,
                              "recovered": 1, "lost": 0}
        # The RunReport carries the same correlation id as the ledger row.
        assert res.meta["fault_report"].run_id == rec.run_id

    def test_no_ledger_means_no_writes(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        set_active_ledger(None)
        w = basket_workload(2)
        ParallelMCPricer(2000, seed=1).price(w.model, w.payoff, w.expiry, 2)
        assert list(tmp_path.iterdir()) == []

    def test_ambient_ledger_via_set_active(self, tmp_path):
        ledger = set_active_ledger(tmp_path / "ambient.jsonl")
        try:
            w = basket_workload(2)
            ParallelMCPricer(2000, seed=1).price(w.model, w.payoff,
                                                 w.expiry, 2)
            assert len(ledger.records()) == 1
        finally:
            set_active_ledger(None)

    def test_run_id_stays_out_of_canonical_report(self, tmp_path):
        # Byte-reproducibility contract: the correlation id never enters
        # RunReport's canonical serialization, so replayed chaos runs
        # still compare byte-for-byte.
        w = basket_workload(2)

        def report_json(with_ledger: bool):
            pricer = ParallelMCPricer(2000, seed=1,
                                      faults=FaultPlan.single_crash(0),
                                      policy="retry")
            if with_ledger:
                pricer.ledger = RunLedger(tmp_path / "r.jsonl")
            res = pricer.price(w.model, w.payoff, w.expiry, 2)
            return res.meta["fault_report"].to_json()

        assert report_json(True) == report_json(False)


# ---------------------------------------------------------------------------
# Record pinning: what every ledger writer under src/ appends
# ---------------------------------------------------------------------------

#: Pinned records per writer: ``own`` lands in the writer's ledger
#: (explicit, else ambient); ``inner`` comes from the engine runs a
#: serving writer prices through, which always use the ambient ledger.
PINS_PATH = Path(__file__).parent / "golden" / "ledger_record_pins.json"


def _write_engine(ledger, *, name="mc", strip=False):
    from repro.engine.registry import default_registry
    from repro.engine.runner import run_engine, run_strip
    from repro.payoffs import Call

    if name == "mc":
        cfg = ParallelMCPricer(2_000, seed=3, faults=FaultPlan.single_crash(1),
                               policy="retry")
    else:
        from repro.core import ParallelLatticePricer

        cfg = ParallelLatticePricer(24)
    if ledger is not None:
        cfg.ledger = ledger
    engine = default_registry().get(name).pipeline()(cfg)
    w = basket_workload(1)
    if strip:
        run_strip(engine, w.model, [Call(90.0), Call(110.0)], w.expiry, 2)
    else:
        run_engine(engine, w.model, w.payoff, w.expiry, 3)


def _pin_requests():
    from repro.serve import PricingRequest
    from repro.workloads.generators import strike_strip

    book = strike_strip(3, dim=2)
    reqs = [PricingRequest(w, engine="mc", n_paths=800, seed=5, p=2,
                           name=w.name) for w in book]
    return reqs + reqs[:1]            # one in-batch duplicate


def _write_service(ledger, *, batched):
    from repro.serve import PriceCache, PricingService

    reqs = _pin_requests()
    with PricingService(max_batch=4, cache=PriceCache(32), batched=batched,
                        ledger=ledger) as svc:
        svc.price_many(reqs)
        svc.price_many(reqs[:2])      # an all-hit batch


def _write_revalue_book(ledger):
    from repro.risk import revalue_book, stress_scenarios
    from repro.workloads.generators import strike_strip

    revalue_book(strike_strip(2, dim=2), stress_scenarios(2, 2, seed=1),
                 n_paths=500, seed=1, ledger=ledger)


def _write_run_schedule(ledger):
    from repro.gateway import CostModel, LoadgenConfig, open_loop_schedule
    from repro.gateway.simulate import run_schedule

    cfg = LoadgenConfig(seed=3, rate=400.0, duration_s=0.1, n_paths=300,
                        unique=False)
    run_schedule(open_loop_schedule(cfg), n_shards=2, cost=CostModel(),
                 duration_s=cfg.duration_s, ledger=ledger)


def _write_closed_loop(ledger):
    from repro.gateway import CostModel, LoadgenConfig
    from repro.gateway.simulate import run_closed_loop

    run_closed_loop(LoadgenConfig(seed=3, duration_s=0.1, n_paths=300),
                    n_shards=2, cost=CostModel(), n_clients=3, think_s=0.01,
                    ledger=ledger)


def _write_risk_sweep(ledger):
    from repro.risk import run_risk_sweep, stress_scenarios
    from repro.workloads.generators import strike_strip

    run_risk_sweep(strike_strip(2, dim=2), stress_scenarios(2, 2, seed=2),
                   n_shards=2, n_paths=300, seed=2, ledger=ledger)


def _write_cli_gateway_risk(ledger):
    from repro.cli import main

    argv = ["gateway", "--book", "risk", "--contracts", "8", "--paths",
            "300", "--duration", "0.5", "--shards", "2"]
    if ledger is not None:
        argv += ["--ledger", str(ledger.path)]
    assert main(argv) == 0


WRITERS = {
    "run_engine/mc-faulted": _write_engine,
    "run_engine/lattice": lambda ledger: _write_engine(ledger,
                                                       name="lattice"),
    "run_strip/mc": lambda ledger: _write_engine(ledger, strip=True),
    "service/unbatched": lambda ledger: _write_service(ledger,
                                                       batched=False),
    "service/batched": lambda ledger: _write_service(ledger, batched=True),
    "revalue_book": _write_revalue_book,
    "run_schedule": _write_run_schedule,
    "run_closed_loop": _write_closed_loop,
    "run_risk_sweep": _write_risk_sweep,
    "cli/gateway-book-risk": _write_cli_gateway_risk,
}


def _pin(rec: RunRecord) -> dict:
    """Every field except run_id, git and the measured times (stage names
    stay; revalue_book's wall-clock scenarios/sec is a measured time)."""
    doc = rec.to_dict()
    for key in ("run_id", "git", "wall_s"):
        del doc[key]
    doc["stages"] = sorted(doc["stages"])
    if rec.kind == "risk" and rec.backend == "serve":
        del doc["extra"]["scenarios_per_s"]
    return doc


def _records(ledger: RunLedger) -> list[RunRecord]:
    return ledger.records() if ledger.path.exists() else []


def _canonical(docs) -> list[str]:
    return sorted(json.dumps(d, sort_keys=True) for d in docs)


@pytest.fixture
def ambient(tmp_path):
    ledger = set_active_ledger(tmp_path / "ambient.jsonl")
    try:
        yield ledger
    finally:
        set_active_ledger(None)


class TestRecordPinning:
    """Each writer's records match the pinned fields, in both the explicit
    and the ambient ledger, and an explicit ledger keeps the writer's own
    records out of the ambient one."""

    @pytest.fixture(scope="class")
    def pins(self):
        return json.loads(PINS_PATH.read_text())

    def test_every_writer_is_pinned(self, pins):
        assert sorted(pins) == sorted(WRITERS)

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_explicit_ledger(self, writer, pins, tmp_path, ambient):
        explicit = RunLedger(tmp_path / "explicit.jsonl")
        WRITERS[writer](explicit)
        pins = pins[writer]
        assert [_pin(r) for r in _records(explicit)] == pins["own"]
        assert [_pin(r) for r in _records(ambient)] == pins["inner"]

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_ambient_ledger(self, writer, pins, ambient):
        WRITERS[writer](None)
        pins = pins[writer]
        assert _canonical(_pin(r) for r in _records(ambient)) == \
            _canonical(pins["own"] + pins["inner"])

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_wall_s_is_the_execute_or_the_only_stage(self, writer, ambient):
        WRITERS[writer](None)
        records = _records(ambient)
        assert records
        for rec in records:
            if rec.kind in ("engine", "strip"):
                assert rec.wall_s == rec.stages["execute"]
            else:
                (stage,) = rec.stages.values()
                assert rec.wall_s == stage


class TestFailedRunsWriteNothing:
    """A run that raises appends no record and the exception propagates."""

    def test_engine_plan_error(self, tmp_path, ambient, monkeypatch):
        from repro.engine.registry import default_registry
        from repro.engine.runner import run_engine

        cfg = ParallelMCPricer(2_000, seed=3)
        cfg.ledger = RunLedger(tmp_path / "runs.jsonl")
        engine = default_registry().get("mc").pipeline()(cfg)

        def bad_plan(job):
            raise ValidationError("plan rejected")

        monkeypatch.setattr(engine, "plan", bad_plan)
        w = basket_workload(2)
        with pytest.raises(ValidationError, match="plan rejected"):
            run_engine(engine, w.model, w.payoff, w.expiry, 2)
        assert _records(cfg.ledger) == [] and _records(ambient) == []

    def test_service_worker_error(self, tmp_path, ambient, monkeypatch):
        import repro.serve.service as service_mod
        from repro.serve import PricingService

        def broken_worker(request):
            raise RuntimeError("worker failed")

        monkeypatch.setattr(service_mod, "price_request", broken_worker)
        ledger = RunLedger(tmp_path / "runs.jsonl")
        with PricingService(max_batch=4, ledger=ledger) as svc:
            with pytest.raises(RuntimeError, match="worker failed"):
                svc.price_many(_pin_requests())
        assert _records(ledger) == [] and _records(ambient) == []


class TestOneWriter:
    """Records are minted only by ``obs.ledger.measured()``: no other
    module under ``src/repro`` builds a record, an id or a git stamp, or
    looks up the ambient ledger itself."""

    def test_no_hand_rolled_writers(self):
        import re

        import repro

        root = Path(repro.__file__).parent
        pattern = re.compile(
            r"\b(RunRecord|new_run_id|git_sha|active_ledger)\(")
        offenders = [
            f"{path.relative_to(root)}:{lineno}: {line.strip()}"
            for path in sorted(root.rglob("*.py"))
            if path != root / "obs" / "ledger.py"
            for lineno, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)
        ]
        assert offenders == []
