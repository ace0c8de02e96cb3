"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestPrice:
    def test_basket_prints_price_and_ci(self, capsys):
        code = main(["price", "--contract", "basket", "--dim", "2",
                     "--paths", "20000", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "price" in out and "95% CI" in out
        assert "arithmetic-basket-d2" in out

    def test_qmc_rounds_path_count(self, capsys):
        code = main(["price", "--paths", "10001", "--qmc", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "qmc-sobol" in out

    @pytest.mark.parametrize("contract", ["rainbow", "spread"])
    def test_other_contracts(self, capsys, contract):
        code = main(["price", "--contract", contract, "--paths", "10000"])
        assert code == 0
        assert contract.split("-")[0] in capsys.readouterr().out or True


class TestScaling:
    def test_mc_report(self, capsys):
        code = main(["scaling", "--engine", "mc", "--plist", "1,2,4",
                     "--paths", "20000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "speedup" in out
        assert "Amdahl fit" in out

    def test_lattice_report(self, capsys):
        code = main(["scaling", "--engine", "lattice", "--plist", "1,4",
                     "--steps", "40"])
        assert code == 0
        assert "lattice" in capsys.readouterr().out

    def test_pde_report(self, capsys):
        code = main(["scaling", "--engine", "pde", "--plist", "1,2",
                     "--grid", "48", "--steps", "32"])
        assert code == 0
        assert "PDE" in capsys.readouterr().out

    def test_bad_plist_is_exit_code_2(self, capsys):
        assert main(["scaling", "--plist", "1,two,3"]) == 2
        assert main(["scaling", "--plist", "0,2"]) == 2

    def test_scheduler_on_inline_engine_is_exit_code_2(self, capsys):
        code = main(["scaling", "--engine", "lattice", "--plist", "1,2",
                     "--steps", "16", "--scheduler", "steal"])
        assert code == 2
        err = capsys.readouterr().err
        assert "runs inline" in err and "'steal'" in err

    def test_scheduler_on_mc_runs(self, capsys):
        code = main(["scaling", "--engine", "mc", "--plist", "1,2",
                     "--paths", "4000", "--scheduler", "lpt"])
        assert code == 0
        assert "speedup" in capsys.readouterr().out

    def test_machine_parameters_accepted(self, capsys):
        code = main(["scaling", "--plist", "1,2", "--paths", "10000",
                     "--alpha", "5e-6", "--beta", "1e-9"])
        assert code == 0

    def test_emit_trace_writes_artifacts(self, capsys, tmp_path):
        prefix = str(tmp_path / "scale")
        code = main(["scaling", "--plist", "1,2", "--paths", "8000",
                     "--emit-trace", prefix])
        out = capsys.readouterr().out
        assert code == 0
        assert "trace summary" in out
        doc = json.loads((tmp_path / "scale.trace.json").read_text())
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])
        metrics = json.loads((tmp_path / "scale.metrics.json").read_text())
        assert "sim.messages" in metrics["counters"]


class TestTrace:
    def test_mc_trace_writes_trace_and_metrics(self, capsys, tmp_path):
        prefix = str(tmp_path / "run")
        code = main(["trace", "--engine", "mc", "--p", "4",
                     "--paths", "8000", "--out", prefix])
        out = capsys.readouterr().out
        assert code == 0
        assert "trace summary" in out and "price" in out
        doc = json.loads((tmp_path / "run.trace.json").read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert "mc.paths" in names and "mc.reduce" in names
        metrics = json.loads((tmp_path / "run.metrics.json").read_text())
        assert metrics["gauges"]["sim.p"] == 4

    def test_chaos_trace_has_fault_instants(self, capsys, tmp_path):
        prefix = str(tmp_path / "chaos")
        code = main(["trace", "--engine", "mc", "--p", "8",
                     "--paths", "8000", "--fault-seed", "7",
                     "--crash-rate", "0.5", "--out", prefix])
        out = capsys.readouterr().out
        assert code == 0
        assert "faults" in out
        doc = json.loads((tmp_path / "chaos.trace.json").read_text())
        assert any(e.get("ph") == "i" for e in doc["traceEvents"])

    @pytest.mark.parametrize("engine,extra", [
        ("lattice", ["--steps", "24"]),
        ("pde", ["--grid", "32", "--steps", "16"]),
        ("lsm", ["--paths", "2000", "--steps", "8"]),
    ])
    def test_other_engines(self, capsys, tmp_path, engine, extra):
        prefix = str(tmp_path / engine)
        code = main(["trace", "--engine", engine, "--p", "2",
                     "--out", prefix, *extra])
        assert code == 0
        assert (tmp_path / f"{engine}.trace.json").exists()

    def test_process_backend_writes_worker_trace(self, capsys, tmp_path):
        prefix = str(tmp_path / "mcp")
        code = main(["trace", "--engine", "mc", "--p", "2",
                     "--paths", "4000", "--backend", "process",
                     "--out", prefix])
        assert code == 0
        doc = json.loads((tmp_path / "mcp.workers.trace.json").read_text())
        assert any(e["name"] == "task" for e in doc["traceEvents"])


class TestPortfolio:
    def test_all_schedules_reported(self, capsys):
        code = main(["portfolio", "--contracts", "6", "--paths", "5000",
                     "--ranks", "3"])
        out = capsys.readouterr().out
        assert code == 0
        for sched in ("block", "cyclic", "lpt", "dynamic"):
            assert sched in out


class TestPortfolioCache:
    def test_shared_cache_replays_three_of_four_schedules(self, capsys):
        code = main(["portfolio", "--contracts", "4", "--paths", "3000",
                     "--ranks", "2"])
        out = capsys.readouterr().out
        assert code == 0
        # 4 contracts valued once, then replayed by the other 3 schedules.
        assert "4 contracts valued, 12 replayed" in out
        assert "hit rate 75%" in out


class TestServe:
    def test_stream_with_cache_and_replay(self, capsys):
        code = main(["serve", "--requests", "12", "--contracts", "4",
                     "--paths", "1500", "--batch", "4", "--repeat", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "req/s" in out and "hit rate" in out
        # Pass 2 is a pure replay: zero backend map calls, 100 % hit rate.
        rows = [ln.split("|") for ln in out.splitlines() if "|" in ln]
        pass2 = next(r for r in rows if r[0].strip() == "2")
        assert int(pass2[3]) == 0
        assert float(pass2[4]) == 1.0

    def test_cache_disabled(self, capsys):
        code = main(["serve", "--requests", "4", "--contracts", "4",
                     "--paths", "1000", "--batch", "2", "--cache", "0",
                     "--repeat", "1", "--chunksize", "none"])
        assert code == 0

    def test_bad_chunksize_is_exit_code_2(self, capsys):
        assert main(["serve", "--requests", "2", "--chunksize", "bogus"]) == 2


def _write_ledger(path, times, engine="mc"):
    from repro.obs import RunLedger, RunRecord

    ledger = RunLedger(path)
    for t in times:
        ledger.append(RunRecord(run_id="0" * 12, kind="engine",
                                engine=engine, config="c" * 12,
                                backend="serial", workers=1, p=4,
                                stages={"execute": t}, wall_s=t))
    return path


class TestObs:
    def test_report_summarizes_ledger(self, tmp_path, capsys):
        path = _write_ledger(tmp_path / "runs.jsonl", [0.1, 0.2])
        code = main(["obs", "report", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "p50 [s]" in out and "mc" in out

    def test_report_missing_ledger_is_exit_2(self, tmp_path, capsys):
        assert main(["obs", "report", str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().err

    def test_diff_self_replay_is_quiet(self, tmp_path, capsys):
        path = _write_ledger(tmp_path / "base.jsonl", [0.1, 0.11, 0.09])
        code = main(["obs", "diff", str(path), str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 failures" in out

    def test_diff_injected_2x_slowdown_exits_1(self, tmp_path, capsys):
        base = _write_ledger(tmp_path / "base.jsonl", [0.1, 0.1, 0.1])
        slow = _write_ledger(tmp_path / "slow.jsonl", [0.2, 0.2, 0.2])
        code = main(["obs", "diff", str(base), str(slow)])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out

    def test_flame_writes_collapsed_profile(self, tmp_path, capsys):
        out_path = tmp_path / "mc.collapsed"
        code = main(["obs", "flame", "--engine", "mc", "--p", "2",
                     "--paths", "40000", "--repeat", "2",
                     "--interval-ms", "1", "--seed", "3",
                     "--out", str(out_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "collapsed:" in out and "price" in out
        assert out_path.exists()

    def test_serve_ledger_flag_appends_batch_records(self, tmp_path, capsys):
        from repro.obs import read_ledger

        path = tmp_path / "serve.jsonl"
        code = main(["serve", "--requests", "6", "--contracts", "3",
                     "--paths", "1000", "--batch", "3", "--repeat", "1",
                     "--ledger", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "ledger" in out
        records = list(read_ledger(path))
        assert records and all(r.kind == "serve" for r in records)


class TestGateway:
    def test_overload_sweep_reports_and_sheds(self, capsys):
        code = main(["gateway", "--shards", "4", "--overload", "2x",
                     "--duration", "2", "--seed", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "4 shards" in out and "2x capacity" in out
        assert "goodput" in out and "shed rate" in out
        assert "latency by lane" in out and "interactive" in out
        assert "per-shard queues and caches" in out

    def test_repeat_book_priced_prints_digests(self, capsys):
        code = main(["gateway", "--shards", "2", "--overload", "0.5",
                     "--duration", "0.5", "--paths", "400",
                     "--repeat-book", "--priced", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "digests" in out and "prices" in out

    def test_closed_loop_mode(self, capsys):
        code = main(["gateway", "--shards", "2", "--closed", "4",
                     "--think", "0.02", "--duration", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "closed loop, 4 clients" in out

    def test_ledger_flag_appends_gateway_record(self, tmp_path, capsys):
        from repro.obs import read_ledger

        path = tmp_path / "gateway.jsonl"
        code = main(["gateway", "--shards", "2", "--duration", "1",
                     "--ledger", str(path)])
        assert code == 0
        assert "ledger" in capsys.readouterr().out
        records = list(read_ledger(path))
        assert len(records) == 1 and records[0].kind == "gateway"
        assert records[0].extra["goodput"] > 0

    def test_bad_overload_is_a_usage_error(self, capsys):
        assert main(["gateway", "--overload", "fast"]) == 2
        assert main(["gateway", "--overload", "0x"]) == 2
        err = capsys.readouterr().err
        assert "--overload" in err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])
