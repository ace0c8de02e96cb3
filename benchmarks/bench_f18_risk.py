"""F18 — Risk-scenario workload: sweep throughput scaling and cache
hit-rate structure.

The risk tier turns the Premia/Nsp-style risk-management benchmark into
gated CI claims. Seeded stress scenarios revalue a fixed strike-ladder
book, first as lane-tagged traffic through the virtual-time gateway
(deterministic in the seed), then as an axis-bump sweep through one
shared :class:`PricingService`/:class:`PriceCache`.

Two experiments:

* **F18a — sweep throughput scaling.** One scenario sweep (base book
  interactive, revaluations bulk, two passes) replayed at shards ∈
  {1, 2, 4}, offered at 1.5× each cell's all-miss capacity. Virtual
  time makes scenarios/sec a pure function of the seed. Gated claims:

  - **shard scaling**: scenarios/sec at 4 shards is ≥ 2.5× the 1-shard
    rate (disjoint queues and caches, near-linear drain);
  - **cache-hot second pass**: every cell completes with a nonzero
    aggregate hit rate — the repeated pass is served from shard caches.

* **F18b — exact hit/miss structure.** The axis-bump sweep
  (spot/vol/rate ladders, each led by the identity scenario) through a
  shared cache: after the base pass primes it, axis-base points are
  pure hits and bumped points pure misses, so the split is *counted*,
  not approximated. A second full pass is all hits. Gated claims: the
  exact counts match the formula and the two-pass aggregate hit rate
  clears the floor.

Every cell appends ``kind="risk"`` (and the drive's ``kind="gateway"``)
records to the active run ledger (``REPRO_LEDGER``), so the CI perf
job's ledger diff tracks risk sweep times next to the other stages.

``--smoke`` shrinks scenario counts and path budgets; the gates are
identical — they are the PR's acceptance criteria.
"""

from __future__ import annotations

import sys

from repro.obs import MetricsRegistry, active_ledger, set_active_ledger
from repro.risk.bridge import risk_run_record, run_risk_sweep
from repro.risk.scenarios import SWEEP_AXES, axis_sweep, stress_scenarios
from repro.risk.var import revalue_book
from repro.serve import PriceCache, PricingService
from repro.utils import Table
from repro.workloads.generators import strike_strip

SEED = 23
SHARD_LIST = (1, 2, 4)
N_CONTRACTS = 4
REPEATS = 2

SCALING_GATE = 2.5      # scenarios/sec (4 shards) / (1 shard)
HIT_RATE_FLOOR = 0.5    # two-pass aggregate hit rate of the axis sweep


def build_f18a_scaling(n_scenarios: int = 32, n_paths: int = 2_000):
    book = strike_strip(N_CONTRACTS, dim=2)
    scenarios = stress_scenarios(2, n_scenarios, seed=SEED)
    table = Table(
        ["shards", "offered", "completed", "shed", "scen/s", "hit rate"],
        title=(f"F18a — risk sweep throughput (virtual time, seed {SEED}, "
               f"{n_scenarios} scenarios x {N_CONTRACTS} contracts, "
               f"{REPEATS} passes)"),
        floatfmt=".4g",
    )
    cells = {}
    for n_shards in SHARD_LIST:
        result = run_risk_sweep(book, scenarios, n_shards=n_shards,
                                n_paths=n_paths, seed=SEED, repeats=REPEATS)
        extra = risk_run_record(result, n_scenarios=n_scenarios,
                                n_contracts=N_CONTRACTS, repeats=REPEATS)
        cells[n_shards] = extra
        table.add_row([n_shards, result.offered, result.completed,
                       result.shed_total, extra["scenarios_per_s"],
                       extra["hit_rate"]])
    return table, cells


def build_f18b_cache(n_contracts: int = 4, n_paths: int = 1_000):
    book = strike_strip(n_contracts, dim=2)
    sweep = axis_sweep()
    metrics = MetricsRegistry()
    cache = PriceCache(max(64, 4 * n_contracts * (len(sweep) + 1)),
                       metrics=metrics)
    # Suspend the ambient ledger for the real revaluations: the per-batch
    # serve records and per-run engine records of a smoke-scale sweep
    # would pollute the (kind, engine, stage) groups the scaling baseline
    # owns. Only the two kind="risk" sweep summaries reach it, through
    # revalue_book's explicit ledger.
    ledger = active_ledger()
    set_active_ledger(None)
    try:
        with PricingService(cache=cache, max_batch=n_contracts,
                            metrics=metrics) as service:
            reports = [revalue_book(book, sweep, n_paths=n_paths, seed=SEED,
                                    levels=(0.95,), service=service,
                                    metrics=metrics, ledger=ledger)
                       for _ in range(2)]
    finally:
        set_active_ledger(ledger)
    n_axes, n_bumped = len(SWEEP_AXES), len(sweep) - len(SWEEP_AXES)
    expected = {
        "cold hits": n_axes * n_contracts,
        "cold misses": (1 + n_bumped) * n_contracts,
        "hot hits": (1 + len(sweep)) * n_contracts,
        "hot misses": 0,
    }
    observed = {
        "cold hits": reports[0].cache_hits,
        "cold misses": reports[0].cache_misses,
        "hot hits": reports[1].cache_hits,
        "hot misses": reports[1].cache_misses,
    }
    table = Table(["pass", "hits", "misses", "hit rate"],
                  title=(f"F18b — axis-sweep cache structure "
                         f"({n_contracts}-contract book, "
                         f"{len(sweep)}-scenario sweep, exact counts)"),
                  floatfmt=".3g")
    for label, rep in zip(("cold", "cache-hot"), reports):
        table.add_row([label, rep.cache_hits, rep.cache_misses,
                       rep.hit_rate])
    hits = sum(r.cache_hits for r in reports)
    total = hits + sum(r.cache_misses for r in reports)
    aggregate = hits / total if total else 0.0
    return table, expected, observed, aggregate


def check_gates(cells, expected, observed, aggregate) -> list[str]:
    """Every failed acceptance gate as a message (empty == all pass)."""
    failures = []
    r1 = cells[1]["scenarios_per_s"]
    r4 = cells[4]["scenarios_per_s"]
    if r4 < SCALING_GATE * r1:
        failures.append(f"scenarios/sec scaling {r4 / max(r1, 1e-9):.2f}x "
                        f"(1->4 shards) < {SCALING_GATE}x gate")
    for n_shards, extra in cells.items():
        if extra["hit_rate"] <= 0.0:
            failures.append(f"{n_shards}-shard sweep finished with zero "
                            f"cache hits — repeated pass not cache-hot")
        if extra["completed"] <= 0:
            failures.append(f"{n_shards}-shard sweep completed nothing")
    if expected != observed:
        failures.append(f"axis-sweep hit/miss structure drifted: "
                        f"expected {expected}, observed {observed}")
    if aggregate < HIT_RATE_FLOOR:
        failures.append(f"two-pass aggregate hit rate {aggregate:.1%} < "
                        f"{HIT_RATE_FLOOR:.0%} floor")
    return failures


# ---------------------------------------------------------------------------
# pytest lane (smoke scale; the gates are the acceptance criteria)
# ---------------------------------------------------------------------------

def test_f18_risk(benchmark, show):
    table, cells = build_f18a_scaling(n_scenarios=12, n_paths=500)
    show(table.render())
    cache_table, expected, observed, aggregate = build_f18b_cache(
        n_contracts=3, n_paths=500)
    show(cache_table.render())
    failures = check_gates(cells, expected, observed, aggregate)
    assert not failures, "; ".join(failures)

    book = strike_strip(N_CONTRACTS, dim=2)
    scenarios = stress_scenarios(2, 8, seed=SEED)

    def sweep_once():
        return run_risk_sweep(book, scenarios, n_shards=2, n_paths=500,
                              seed=SEED)

    benchmark(sweep_once)


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv[1:]
    table, cells = build_f18a_scaling(
        n_scenarios=12 if smoke else 32, n_paths=500 if smoke else 2_000)
    print(table.render())
    print()
    cache_table, expected, observed, aggregate = build_f18b_cache(
        n_contracts=3 if smoke else 4, n_paths=500 if smoke else 1_000)
    print(cache_table.render())
    failures = check_gates(cells, expected, observed, aggregate)
    if failures:
        for msg in failures:
            print(f"FAIL: {msg}", file=sys.stderr)
        raise SystemExit(1)
    scaling = cells[4]["scenarios_per_s"] / cells[1]["scenarios_per_s"]
    print(f"OK: scenarios/sec scales {scaling:.2f}x from 1 to 4 shards; "
          f"axis-sweep hit/miss structure exact; two-pass hit rate "
          f"{aggregate:.0%}")
