"""Traced-run instrumentation: spans around each layer's public entry points.

The benchmark measures layers from the outside. :class:`LayerTracer`
replaces a layer's public function (or method) with a wrapper that
records one span per call into a :class:`repro.obs.Tracer`, tagged with
the span's id, its parent span's id and the benchmark operation it
served. Nothing under ``src/`` changes; :meth:`LayerTracer.restore` puts
every original back.

A function imported by name into other modules (``request_key`` in
``gateway.core``, ``serve.service`` and ``batch.strip``) is patched in
every ``repro`` module that holds it, otherwise those call sites would
bypass the wrapper.

:func:`self_times` computes a span's self time as its duration minus the
part of its interval that its child spans cover.
"""

from __future__ import annotations

import contextvars
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict

#: The benchmark operation the calling code is working on. Set by the
#: workload driver around each operation; spans opened while no op is
#: known inherit it, or their parent span's op.
current_op: contextvars.ContextVar = contextvars.ContextVar("perfbench_op",
                                                            default=None)


class LayerTracer:
    """Wraps layer entry points and records a span per call.

    ``op_of`` maps ``id(request)`` to the op that request belongs to, for
    spans opened on threads that did not set :data:`current_op` (the
    gateway's executor threads and drain task).
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.op_of: dict[int, object] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, *, op_in=None, tag=None):
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``op_in(args, kwargs)`` names the op from the call's arguments;
        ``tag(args, kwargs, result)`` returns extra span args (work
        counts the per-layer rates divide by).
        """
        self._set(owner, attr,
                  self._wrapper(getattr(owner, attr), name, op_in, tag))

    def wrap_everywhere(self, module, attr: str, name: str, *, op_in=None,
                        tag=None) -> None:
        """Wrap ``module.attr`` and every ``repro`` module bound to it."""
        original = getattr(module, attr)
        wrapper = self._wrapper(original, name, op_in, tag)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro")
                    and getattr(mod, attr, None) is original):
                self._set(mod, attr, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put back every wrapped original (last wrapped, first restored)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrapper(self, fn, name: str, op_in, tag):
        local = self._local
        ids = self._ids
        add_span = self.tracer.add_span
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            op = op_in(args, kwargs) if op_in is not None else None
            parent = None
            if stack:
                parent, parent_op = stack[-1]
                if op is None:
                    op = parent_op
            if op is None:
                op = current_op.get()
            sid = next(ids)
            stack.append((sid, op))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            fields = {"id": sid, "parent": parent, "op": op}
            if tag is not None:
                fields.update(tag(args, kwargs, result))
            add_span(name, t0, t1, track=threading.current_thread().name,
                     **fields)
            return result

        return traced


# ---------------------------------------------------------------------------
# Span analysis
# ---------------------------------------------------------------------------


def union_seconds(intervals) -> float:
    """Length of the union of ``(t0, t1)`` intervals."""
    total = 0.0
    end = None
    start = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            if end is not None:
                total += end - start
            start, end = a, b
        elif b > end:
            end = b
    if end is not None:
        total += end - start
    return total


def children_of(spans) -> dict:
    kids: dict[int, list] = defaultdict(list)
    for s in spans:
        parent = s.args.get("parent")
        if parent is not None:
            kids[parent].append(s)
    return kids


def self_times(spans, kids) -> dict[int, float]:
    """Span id -> duration minus the part its child spans cover."""
    out = {}
    for s in spans:
        sid = s.args["id"]
        covered = union_seconds((max(c.t0, s.t0), min(c.t1, s.t1))
                         for c in kids.get(sid, ()))
        out[sid] = s.duration - covered
    return out


def covered_by(span, kids, names) -> float:
    """Time of ``span`` covered by descendants named in ``names``."""
    found = []
    todo = list(kids.get(span.args["id"], ()))
    while todo:
        c = todo.pop()
        if c.name in names:
            found.append((max(c.t0, span.t0), min(c.t1, span.t1)))
        else:
            todo.extend(kids.get(c.args["id"], ()))
    return union_seconds(found)


# ---------------------------------------------------------------------------
# Instrumentation: the entry points each layer is timed at
# ---------------------------------------------------------------------------


def _first_request(args, kwargs):
    requests = args[1] if len(args) > 1 else kwargs.get("requests")
    return requests[0] if isinstance(requests, list) and requests else None


def instrument(lt: LayerTracer) -> None:
    """Wrap every layer entry point the per-layer metrics read."""
    import repro.batch.kernels as kernels
    import repro.batch.plan as plan
    import repro.engine.runner as runner
    import repro.risk.var as var
    import repro.serve.batching as batching
    from repro.engine.lattice import LatticeEngine
    from repro.engine.pde import PDEEngine
    from repro.gateway.core import GatewayCore
    from repro.market.gbm import MultiAssetGBM
    from repro.mc.variance_reduction import PlainMC
    from repro.obs.ledger import RunLedger
    from repro.parallel.backends import ProcessBackend
    from repro.risk.scenarios import Scenario
    from repro.rng.base import BitGenerator
    from repro.rng.philox import Philox4x32
    from repro.serve.cache import PriceCache
    from repro.serve.service import PricingService

    op_of = lt.op_of

    def by_request(args, kwargs):
        request = _first_request(args, kwargs)
        return op_of.get(id(request)) if request is not None else None

    def by_pending(args, kwargs):
        return op_of.get(id(args[2].greq.request))

    # serve: request identity, cache, the service's own work
    lt.wrap_everywhere(batching, "request_key", "serve.request_key")
    lt.wrap(PriceCache, "get", "serve.cache_get",
            tag=lambda a, k, r: {"hit": int(r is not None)})
    lt.wrap(PriceCache, "put", "serve.cache_put")
    lt.wrap(PricingService, "price_many", "serve.price_many", op_in=by_request)
    # risk and market model construction
    lt.wrap(Scenario, "apply", "risk.apply")
    lt.wrap_everywhere(var, "var_es", "risk.var_es")
    lt.wrap(MultiAssetGBM, "__init__", "market.gbm_model")
    # engine runner and the kernels inside it
    lt.wrap_everywhere(runner, "run_engine", "engine.run")
    lt.wrap_everywhere(runner, "run_strip", "engine.run_strip")
    lt.wrap(PlainMC, "partial", "mc.partial",
            tag=lambda a, k, r: {"paths": a[4]})
    lt.wrap_everywhere(kernels, "strip_partial", "batch.strip_partial",
                       tag=lambda a, k, r: {"contract_paths": len(a[2]) * a[4]})
    lt.wrap_everywhere(plan, "plan_batches", "batch.plan",
                       tag=lambda a, k, r: {"fused": r.fused_contracts,
                                            "total": r.fused_contracts
                                            + len(r.singles)})
    lt.wrap(Philox4x32, "random_raw", "rng.philox",
            tag=lambda a, k, r: {"words": a[1]})
    lt.wrap(BitGenerator, "normals", "rng.normals",
            tag=lambda a, k, r: {"n": a[1]})
    lt.wrap(LatticeEngine, "execute", "lattice.execute")
    lt.wrap(PDEEngine, "execute", "pde.execute")
    # parallel process dispatch
    lt.wrap(ProcessBackend, "map", "parallel.map")
    # gateway: admission at the door, dispatch on the shard
    lt.wrap(GatewayCore, "offer", "gateway.offer")
    lt.wrap(GatewayCore, "next_request", "gateway.next_request",
            tag=lambda a, k, r: ({} if r is None
                                 else {"op": op_of.get(id(r.greq.request))}))
    lt.wrap(GatewayCore, "start", "gateway.start", op_in=by_pending,
            tag=lambda a, k, r: {"wait": a[3] - a[2].arrival})
    lt.wrap(GatewayCore, "complete", "gateway.complete", op_in=by_pending)
    # ledger writes
    lt.wrap(RunLedger, "append", "obs.ledger_append")


# ---------------------------------------------------------------------------
# Per-layer metrics from the recorded spans
# ---------------------------------------------------------------------------

#: Spans whose time is the technique's own work inside an engine run;
#: the rest of the run's wall time is the engine framework's tax.
_ENGINE_WORK = ("mc.partial", "batch.strip_partial", "lattice.execute",
                "pde.execute")


class SpanSet:
    """Per-name aggregates over a set of :class:`LayerTracer` spans."""

    def __init__(self, spans):
        self.kids = children_of(spans)
        self.self = self_times(spans, self.kids)
        self.by_name: dict[str, list] = defaultdict(list)
        for s in spans:
            self.by_name[s.name].append(s)

    def count(self, *names) -> int:
        return sum(len(self.by_name[n]) for n in names)

    def self_us(self, name: str) -> float:
        """Mean self time of one call, in microseconds."""
        spans = self.by_name[name]
        if not spans:
            return 0.0
        return 1e6 * sum(self.self[s.args["id"]] for s in spans) / len(spans)

    def total_self(self, *names) -> float:
        return sum(self.self[s.args["id"]] for n in names
                   for s in self.by_name[n])

    def tag_sum(self, name: str, key: str) -> float:
        return float(sum(s.args[key] for s in self.by_name[name]))

    def rate(self, name: str, key: str) -> float:
        """Work units (span tag ``key``) per second of the spans' time."""
        busy = sum(s.duration for s in self.by_name[name])
        return self.tag_sum(name, key) / busy if busy > 0 else 0.0

    def mean_duration(self, name: str) -> float:
        spans = self.by_name[name]
        return sum(s.duration for s in spans) / len(spans) if spans else 0.0

    def engine_tax_us(self) -> float:
        runs = self.by_name["engine.run"] + self.by_name["engine.run_strip"]
        if not runs:
            return 0.0
        tax = sum(r.duration - covered_by(r, self.kids, _ENGINE_WORK)
                  for r in runs)
        return 1e6 * tax / len(runs)


def percentile(values, q: int) -> float:
    """The ``q``-th percentile (exclusive method); 0 with no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100)[q - 1])


def _op_kind(span):
    op = span.args.get("op")
    return op[0] if isinstance(op, tuple) else None


def _gateway(g: SpanSet, late_ms) -> dict:
    waits = [1e3 * s.args["wait"] for s in g.by_name["gateway.start"]]
    done = g.count("gateway.complete")
    starts = {s.args["op"]: s for s in g.by_name["gateway.start"]}
    priced = {s.args["op"]: s for s in g.by_name["serve.price_many"]}
    hops = [c.t0 - starts[c.args["op"]].t1 - priced[c.args["op"]].duration
            for c in g.by_name["gateway.complete"]
            if c.args["op"] in starts and c.args["op"] in priced]
    dispatch = g.total_self("gateway.next_request", "gateway.start",
                            "gateway.complete")
    return {
        "gateway.offer_us": g.self_us("gateway.offer"),
        "gateway.dispatch_us": 1e6 * dispatch / done if done else 0.0,
        "gateway.queue_wait_ms_p50": percentile(waits, 50),
        "gateway.queue_wait_ms_p99": percentile(waits, 99),
        "gateway.executor_hop_us": 1e6 * sum(hops) / len(hops) if hops else 0.0,
        "gateway.generator_late_ms": percentile(late_ms, 99),
    }


def _parallel(rounds: SpanSet, tasks, ops: int, extra: dict) -> dict:
    from repro.perf.laws import karp_flatt

    maps = rounds.by_name["parallel.map"]
    dispatch, busy, capacity = [], 0.0, 0.0
    workers = extra.get("p", 1)
    for m in maps:
        inside = [(max(t.t0, m.t0), min(t.t1, m.t1)) for t in tasks
                  if t.t1 > m.t0 and t.t0 < m.t1]
        dispatch.append(m.duration - union_seconds(inside))
        busy += sum(b - a for a, b in inside)
        capacity += m.duration * workers
    t1, tp, p = extra.get("T1_s", 0.0), extra.get("Tp_s", 0.0), workers
    speedup = t1 / tp if tp > 0 else 0.0
    sim = extra.get("sim", {})
    return {
        "parallel.map_calls_per_op": len(maps) / ops if ops else 0.0,
        "parallel.dispatch_us": (1e6 * sum(dispatch) / len(dispatch)
                                 if dispatch else 0.0),
        "parallel.worker_busy_share": busy / capacity if capacity else 0.0,
        "parallel.T1_s": t1,
        "parallel.Tp_s": tp,
        "parallel.speedup_p": speedup,
        "parallel.efficiency_p": speedup / p if speedup else 0.0,
        "parallel.serial_fraction": (karp_flatt(speedup, p)
                                     if speedup and p >= 2 else 0.0),
        "parallel.sim_Tp_s": sim.get("sim_Tp_s", 0.0),
        "parallel.sim_messages": sim.get("sim_messages", 0),
        "parallel.sim_bytes": sim.get("sim_bytes", 0.0),
    }


def layer_metrics(workload: str, tracer, traced, untraced) -> dict:
    """Every per-layer metric of one traced run.

    ``traced``/``untraced`` are the two halves' outcomes. On
    ``book-batch`` the in-process layers come from the traced 1-worker
    pass (spans recorded inside forked workers never reach this
    process), the parallel ones from the ``nproc``-worker books; the
    paper's T1/Tp quantities come from the untraced half.
    """
    # Spans without an id are the pool's own task spans.
    spans = [s for s in tracer.spans
             if "id" in s.args and _op_kind(s) != "check"]
    ops = traced.ops
    if workload == "book-batch":
        inproc = SpanSet([s for s in spans if _op_kind(s) == "serial"])
        rounds = SpanSet([s for s in spans if _op_kind(s) == "book"])
        tasks = [s for s in tracer.spans if s.name == "task"]
        par = _parallel(rounds, tasks, len(traced.counts["book"]) * ops,
                        {**traced.extra, **untraced.extra})
    else:
        inproc = rounds = SpanSet(spans)
        par = _parallel(rounds, [], ops, {})
    s = inproc
    gets = s.count("serve.cache_get")
    plan_total = s.tag_sum("batch.plan", "total")
    out = {
        "serve.request_key_us": s.self_us("serve.request_key"),
        "serve.request_key_calls_per_op": s.count("serve.request_key") / ops,
        "serve.cache_get_us": s.self_us("serve.cache_get"),
        "serve.cache_put_us": s.self_us("serve.cache_put"),
        "serve.cache_hit_ratio": (s.tag_sum("serve.cache_get", "hit") / gets
                                  if gets else 0.0),
        "serve.service_self_us": s.self_us("serve.price_many"),
        "risk.apply_us": s.self_us("risk.apply"),
        "market.gbm_model_us": s.self_us("market.gbm_model"),
        "risk.var_es_us": s.self_us("risk.var_es"),
        "engine.runs_per_op": s.count("engine.run", "engine.run_strip") / ops,
        "engine.tax_us": s.engine_tax_us(),
        "rng.philox_words_per_s": s.rate("rng.philox", "words"),
        "rng.normals_per_s": s.rate("rng.normals", "n"),
        "mc.partial_paths_per_s": s.rate("mc.partial", "paths"),
        "batch.strip_contract_paths_per_s": s.rate("batch.strip_partial",
                                                   "contract_paths"),
        "batch.plan_us": s.self_us("batch.plan"),
        "batch.fused_share": (s.tag_sum("batch.plan", "fused") / plan_total
                              if plan_total else 0.0),
        **par,
        "lattice.execute_s": s.mean_duration("lattice.execute"),
        "pde.execute_s": s.mean_duration("pde.execute"),
        **_gateway(rounds, traced.extra.get("late_ms", [])),
        "obs.ledger_append_us": s.self_us("obs.ledger_append"),
        "obs.ledger_records_per_op": s.count("obs.ledger_append") / ops,
    }
    return out
