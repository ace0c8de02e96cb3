"""The shared pipeline runner: one place for every cross-cutting concern.

Before this runner existed, each parallel pricer hand-wired the same
skeleton — wall-clock timing, fault-resilient mapping, simulated-cluster
construction, tracer plumbing, result assembly — five times over. The
runner applies them **once**, as a fixed middleware order around the
engine's stages:

1. ``plan`` / ``partition`` (engine) — validation and work splitting;
2. **cluster middleware** — one :class:`SimulatedCluster` per run, built
   with the config's machine spec, fault plan and tracer;
3. **execution middleware** — mapped engines dispatch through the
   config's :class:`~repro.parallel.sched.Scheduler` (``pricer.scheduler
   = "steal"``; unset resolves to the static scheduler, one chunked
   ``backend.map``), wrapped in
   :func:`~repro.parallel.faults.resilient_map` when a non-empty fault
   plan is configured; inline engines run their loops and then pass
   through :func:`~repro.parallel.faults.simulate_recovery`. LPT (over
   the engine's ``task_costs`` estimates) and work stealing re-place
   mapped tasks across workers without moving a price bit; their stats
   land in engine metrics and the ledger record's ``extra["sched"]``.
   Either way the dispatch's wall time is the run's ``execute`` stage
   and its ``wall_s``;
4. ``account`` / ``reduce`` (engine) — simulated cost charging and the
   reduction, which travels the modeled machine's schedule;
5. **report middleware** — the runner assembles the
   :class:`~repro.engine.result.ParallelRunResult` from the cluster
   report, attaches the recorded cluster when asked and feeds the
   optional :class:`~repro.obs.metrics.MetricsRegistry`. The whole run
   sits inside :func:`~repro.obs.ledger.measured`, which times the stages
   and appends one :class:`~repro.obs.ledger.RunRecord` (per-stage wall
   timings, fault tallies, ``run_id``) to the configured or ambient run
   ledger.

Observability attachments follow one idiom — plain attribute assignment
on the engine config: ``pricer.tracer = Tracer()``,
``pricer.ledger = RunLedger(path)``, ``pricer.profiler =
SamplingProfiler()``. Each costs a single ``getattr`` when absent. The
run's ``run_id`` is threaded into
:func:`~repro.parallel.faults.resilient_map`, so fault/retry trace
instants, the :class:`~repro.parallel.faults.RunReport` and the ledger
row all correlate.

Single-contract runs (:func:`run_pipeline` / :func:`run_engine`) and
fused strip runs (:func:`run_strip`) share one staged driver; the choice
selects only the engine's stage methods, the ledger ``kind`` and the
strip bookkeeping, so both record the same five stages.

Because the middleware only *wraps* the engine's arithmetic (it never
reorders it), a pricer ported onto the pipeline produces bitwise-identical
prices — the property the verification subsystem's golden masters and
determinism checks gate on.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import (
    Any,
    Callable,
    ContextManager,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.engine.pipeline import (
    Estimate,
    ExecutionPlan,
    PipelineContext,
    PipelineEngine,
    PricingJob,
    RankTask,
    StripJob,
)
from repro.engine.result import ParallelRunResult
from repro.errors import ValidationError
from repro.obs.ledger import measured
from repro.parallel.backends import SerialBackend
from repro.parallel.faults import FaultPolicy, resilient_map, simulate_recovery
from repro.parallel.sched import Scheduler, resolve_scheduler
from repro.parallel.simcluster import SimulatedCluster

__all__ = ["run_pipeline", "run_engine", "run_strip"]


def _profile_ctx(cfg: Any, label: str) -> ContextManager[Any]:
    """The execute-stage profiler context (no-op unless one is attached)."""
    profiler = getattr(cfg, "profiler", None)
    if profiler is None:
        return nullcontext()
    ctx: ContextManager[Any] = profiler.profile(label)
    return ctx


def _scheduler_for(cfg: Any, engine: PipelineEngine,
                   tasks: Optional[Sequence[RankTask]]) -> Scheduler:
    """Resolve the config's execute-stage scheduler, gated by capability.

    ``cfg.scheduler`` follows the obs attachment idiom (plain attribute
    assignment; absent resolves to the static scheduler). A non-static
    strategy requires a mapped engine that declares ``schedulable`` —
    inline engines run their own loops and have nothing to steal, and
    non-schedulable mapped engines have order-dependent reassembly the
    scheduler must not touch.
    """
    scheduler = resolve_scheduler(getattr(cfg, "scheduler", None))
    if scheduler.name == "static":
        return scheduler
    if tasks is None:
        raise ValidationError(
            f"engine {engine.name!r} runs inline; only the 'static' "
            f"scheduler applies (got {scheduler.name!r})"
        )
    if not engine.schedulable:
        raise ValidationError(
            f"engine {engine.name!r} is not schedulable; see "
            f"EngineCapabilities.schedulable"
        )
    return scheduler


def _observe_sched(cfg: Any, engine: PipelineEngine, sched_stats: Any,
                   extra: dict) -> None:
    """Fold non-static scheduling stats into engine metrics and the
    ledger extra."""
    recorded = sched_stats.ledger_extra() if sched_stats is not None else None
    if recorded is None:
        return
    metrics = getattr(cfg, "metrics", None)
    if metrics is not None:
        metrics.counter("sched.steals", engine=engine.name).inc(
            sched_stats.steals)
        metrics.counter("sched.tasks_moved", engine=engine.name).inc(
            sched_stats.tasks_moved)
    extra["sched"] = recorded


def _run_staged(
    engine: PipelineEngine,
    job: Any,
    *,
    strip: bool,
) -> Tuple[List[ParallelRunResult], List[Estimate]]:
    """The one staged driver behind :func:`run_pipeline` and :func:`run_strip`.

    ``strip`` selects only the engine's stage methods and worker
    (``plan``/``execute``/``reduce`` or their ``_strip`` variants), the
    ledger ``kind``, and the strip ``meta``/metric names; every
    middleware concern runs the same code for both. Returns one result
    and one estimate per contract (a single run has exactly one).
    """
    cfg = engine.config
    plan_stage: Callable[[Any], ExecutionPlan]
    if strip:
        plan_stage, execute_stage = engine.plan_strip, engine.execute_strip
        worker, label = engine.strip_worker, f"{engine.name}.execute_strip"
    else:
        plan_stage, execute_stage = engine.plan, engine.execute
        worker, label = engine.worker, f"{engine.name}.execute"
    backend = getattr(cfg, "backend", None)

    with measured("strip" if strip else "engine", engine=engine.name,
                  config=cfg, backend=getattr(backend, "name", "none"),
                  workers=int(getattr(backend, "max_workers", 1) or 1),
                  p=job.p, ledger=getattr(cfg, "ledger", None)) as run:
        with run.stage("plan"):
            plan = plan_stage(job)
        with run.stage("partition"):
            tasks = engine.partition(plan)
        run.p = plan.p

        faults = getattr(cfg, "faults", None)
        policy: FaultPolicy = (getattr(cfg, "policy", None)
                               or FaultPolicy.parse(None))
        tracer = getattr(cfg, "tracer", None)
        record = bool(getattr(cfg, "record", False))
        scheduler = _scheduler_for(cfg, engine, tasks)
        cluster = SimulatedCluster(plan.p, cfg.spec, record=record,
                                   faults=faults, tracer=tracer)
        ctx = PipelineContext(cluster=cluster, tracer=tracer)
        sched_stats: Optional[Any] = None

        if tasks is not None:
            # Mapped engine: scheduler + fault + chunking middleware around
            # the backend map (one scheduler.map when no fault plan is set).
            assert worker is not None, f"{engine.name} engine has no worker"
            executor = backend if backend is not None else SerialBackend()
            chunksize = getattr(cfg, "chunksize", None)
            payloads = [task.payload for task in tasks]
            costs = engine.task_costs(plan)
            with run.stage("execute"), _profile_ctx(cfg, label):
                if faults is not None and not faults.is_empty:
                    state, fault_report = resilient_map(
                        executor, worker, payloads,
                        plan=faults, policy=policy, chunksize=chunksize,
                        run_id=run.run_id, scheduler=scheduler, costs=costs,
                    )
                    sched_stats = fault_report.sched
                else:
                    state, sched_stats = scheduler.map(
                        executor, worker, payloads,
                        costs=costs, chunksize=chunksize)
                    fault_report = None
            engine.account(plan, ctx, fault_report)
        else:
            # Inline engine: the arithmetic is the sequential reference, so
            # faults stretch the simulated timeline only (recovery is
            # charged after the compute loops, and rank loss raises).
            with run.stage("execute"), _profile_ctx(cfg, label):
                state = execute_stage(plan, ctx)
            fault_report = simulate_recovery(cluster, faults, policy,
                                             engine=engine.name)
        wall = run.wall_s = run.stages["execute"]

        with run.stage("reduce"):
            if strip:
                estimates = list(engine.reduce_strip(plan, state, ctx,
                                                     fault_report))
            else:
                estimates = [engine.reduce(plan, state, ctx, fault_report)]
        with run.stage("report"):
            rep = cluster.report()
            metas = [engine.report(plan, estimate, ctx, fault_report)
                     for estimate in estimates]

        results: List[ParallelRunResult] = []
        for index, (estimate, meta) in enumerate(zip(estimates, metas)):
            if strip:
                meta["strip"] = {"contracts": len(estimates), "index": index}
            if record:
                meta["cluster"] = cluster
            results.append(ParallelRunResult(
                price=estimate.price,
                stderr=estimate.stderr,
                p=plan.p,
                sim_time=rep["elapsed"],
                wall_time=wall,
                compute_time=rep["compute_time"],
                comm_time=rep["comm_time"],
                idle_time=rep["idle_time"],
                messages=rep["messages"],
                bytes_moved=rep["bytes_moved"],
                engine=engine.name,
                meta=meta,
            ))

        metrics = getattr(cfg, "metrics", None)
        if metrics is not None:
            if strip:
                metrics.counter("engine.strip_runs", engine=engine.name).inc()
                metrics.histogram("engine.strip_contracts",
                                  engine=engine.name).observe(
                                      float(len(results)))
            else:
                metrics.counter("engine.runs", engine=engine.name).inc()
            metrics.histogram("engine.wall_s", engine=engine.name).observe(
                wall)
            metrics.histogram("engine.sim_s", engine=engine.name).observe(
                rep["elapsed"])
        run.sim_s = rep["elapsed"]
        if fault_report is not None:
            run.faults = {
                "injected": fault_report.faults_injected,
                "retries": fault_report.n_retries,
                "recovered": len(fault_report.recovered_ranks),
                "lost": len(fault_report.lost_ranks),
            }
        run.extra = {"price": results[0].price, "stderr": results[0].stderr}
        if strip:
            run.extra["contracts"] = len(results)
        _observe_sched(cfg, engine, sched_stats, run.extra)
    return results, estimates


def run_pipeline(
    engine: PipelineEngine,
    model: Any,
    payoff: Any,
    expiry: float,
    p: int,
) -> Tuple[ParallelRunResult, Estimate]:
    """Drive one engine through the five stages; returns (result, estimate).

    Most callers want :func:`run_engine`; adapters that need reduce-stage
    extras (e.g. the greeks arrays) use this and read ``estimate.extras``.
    """
    job = PricingJob(model=model, payoff=payoff, expiry=expiry, p=p)
    results, estimates = _run_staged(engine, job, strip=False)
    return results[0], estimates[0]


def run_engine(
    engine: PipelineEngine,
    model: Any,
    payoff: Any,
    expiry: float,
    p: int,
) -> ParallelRunResult:
    """Run the pipeline and return just the :class:`ParallelRunResult`."""
    result, _ = run_pipeline(engine, model, payoff, expiry, p)
    return result


def run_strip(
    engine: PipelineEngine,
    model: Any,
    payoffs: Sequence[Any],
    expiry: float,
    p: int,
) -> List[ParallelRunResult]:
    """Price a homogeneous contract strip through one fused engine run.

    The same staged driver as :func:`run_pipeline` — identical middleware,
    all five stages timed — around the engine's *strip* stages
    (``plan_strip`` / ``execute_strip`` / ``reduce_strip``). Because the
    middleware never reorders the engine's arithmetic and the fused
    kernels share draws that are identical to each single run's, every
    returned result is bitwise equal to the matching :func:`run_engine`
    call (asserted by the strip-equivalence test tier).

    Returns one :class:`~repro.engine.result.ParallelRunResult` per payoff,
    in strip order; timing/communication columns describe the *fused* run
    and are therefore shared by all members.
    """
    if not engine.batchable:
        raise ValidationError(
            f"engine {engine.name!r} is not batchable; see "
            f"EngineCapabilities.batchable"
        )
    job = StripJob.from_payoffs(model, payoffs, expiry, p)
    results, _ = _run_staged(engine, job, strip=True)
    return results
