"""The three benchmark workloads, each generated from the run's seed.

Every workload repeats one *unit* (a quote-desk cycle, a risk cycle, a
book) until ``--seconds`` have passed, always finishing the unit it is
in. The units of a run do the same work (quote-desk draws fresh
requests for each, in the same counts), which makes every per-unit count
repeat exactly for a given seed: a count that differs between units or
from the reference is workload drift, not speed.

End-to-end metrics use one name per meaning across workloads:

* ``ops_per_s`` - throughput with the caches as the workload leaves them;
* ``cold_ops_per_s`` - throughput when every operation misses the cache;
* ``p50_ms`` - median latency of one operation as its user sees it.

quote-desk and book-batch report the median over the run's units.
risk-sweep reads the slow tail of its passes instead (:data:`TAIL`): the
rate 95% of passes reach, the per-pass median latency 95% of hot passes
beat. A shared host moves between fast and slow spells lasting seconds,
about 1.5x apart, and risk-sweep's passes split between the two in a
share that changes from run to run, so its median pass reads which
spell a run fell into, while the slow tail is there in every run. Its
medians are printed next to the metrics.

``metrics.json`` maps each to the workload-specific name it stands for.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import sys
import time
from dataclasses import dataclass, field

from layers import current_op, percentile
from repro.batch.plan import plan_batches
from repro.core import ParallelLatticePricer, ParallelMCPricer, ParallelPDEPricer
from repro.gateway import GatewayRequest, ShardedGateway
from repro.obs import RunLedger
from repro.parallel import ProcessBackend, SerialBackend
from repro.risk import revalue_book, stress_scenarios
from repro.serve import PriceCache, PricingRequest, PricingService, price_request
from repro.serve.service import PriceQuote
from repro.verify.determinism import float_bits
from repro.workloads.generators import (basket_workload, rainbow_workload,
                                        random_portfolio, spread_workload,
                                        strike_strip)


def units(seconds: float):
    """Unit indices 0, 1, ... until ``seconds`` have passed (at least one)."""
    t0 = time.perf_counter()
    n = 0
    while True:
        yield n
        n += 1
        if time.perf_counter() - t0 >= seconds:
            return


def quote_bits(quote) -> tuple[str, str]:
    return float_bits(quote.price), float_bits(quote.stderr)


def median(values) -> float:
    return float(statistics.median(values))


#: The slowest share of passes the risk-sweep metrics read.
TAIL = 0.05


def quantile(values, q: float) -> float:
    """The ``q`` quantile (0..1) of ``values``, linearly interpolated."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


@dataclass
class Outcome:
    """What one measured run of a workload produced."""

    e2e: dict[str, float]
    #: Workload-specific names printed next to the end-to-end metrics.
    named: dict[str, tuple[float, str]]
    attempted: int
    failed: int = 0
    wrong: int = 0
    #: unit type -> list of per-unit count dicts (each must be identical).
    counts: dict[str, list[dict]] = field(default_factory=dict)
    #: Operations the run performed, for the per-op layer counts.
    ops: int = 0
    #: Workload extras the per-layer metrics read (lateness, sim counts).
    extra: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# quote-desk: the interactive user, through the sharded gateway
# ---------------------------------------------------------------------------


class QuoteDesk:
    """Seeded MC quote stream into a one-shard ``ShardedGateway``.

    One shard and one closed-loop client: on the 2-vCPU reference host a
    shard per vCPU priced no faster (pricing holds the GIL), and fewer
    threads leave less to the shared host's scheduler.

    The book mixes a dim-1 and a dim-3 strike ladder with a seeded dim-4
    portfolio. About half the requests repeat an earlier (contract,
    seed) pair. A repeat routes to the shard that priced the original
    and queues behind it, so with caches large enough never to evict,
    hits and misses are an exact function of the request list.

    Every cycle draws fresh request streams and open-loop arrival times
    from ``(seed, cycle)``. Which contracts repeat, and how the arrivals
    bunch, then average out over a run instead of being fixed per seed;
    the per-round counts stay the same.
    """

    name = "quote-desk"
    SHARDS = 1
    CLIENTS = 1            # closed-loop clients
    ROUND = 96             # requests per closed-loop round
    OPEN_RATE = 60.0       # offered quotes/s: a tenth of the closed-loop
                           # rate, so a host slowed 3x still keeps up
    OPEN_SEGMENT_S = 1.0   # open-loop arrivals per cycle, in seconds
    DEADLINE_S = 30.0      # loose: nothing sheds on the reference box
    CHECK_EVERY = 16       # every 16th reply is re-priced directly

    def __init__(self, seed: int):
        self.seed = seed
        # Path budgets even out the cost of a miss across dimensions.
        self.book = ([(w, 12_000) for w in strike_strip(8, dim=1)]
                     + [(w, 4_000) for w in strike_strip(8, dim=3)]
                     + [(w, 3_000) for w in random_portfolio(4, dim=4,
                                                             seed=seed)])
        self._fresh = 0
        self._direct: dict[tuple[int, int], tuple[str, str]] = {}

    def _stream(self, rng: random.Random, n: int, *, repeat: float):
        """(contract index, request seed) pairs; an exact ``repeat`` share
        of them reuse an earlier pair of the same stream. New pairs cycle through
        the book in a seeded order, so every contract is equally common."""
        repeats = [False] * (n - round(n * repeat)) + [True] * round(n * repeat)
        rng.shuffle(repeats)
        first_new = repeats.index(False)
        repeats[0], repeats[first_new] = False, repeats[0]
        order = list(range(len(self.book)))
        rng.shuffle(order)
        pairs: list[tuple[int, int]] = []
        firsts: list[tuple[int, int]] = []
        for is_repeat in repeats:
            if is_repeat:
                pairs.append(rng.choice(firsts))
            else:
                self._fresh += 1
                pair = (order[len(firsts) % len(order)],
                        self.seed * 1_000_003 + self._fresh)
                firsts.append(pair)
                pairs.append(pair)
        return pairs

    def _requests(self, pairs) -> list[PricingRequest]:
        """Fresh request objects, as a client would send them."""
        out = []
        for idx, req_seed in pairs:
            workload, n_paths = self.book[idx]
            out.append(PricingRequest(workload, n_paths=n_paths,
                                      seed=req_seed, name=workload.name))
        return out

    def _gateway(self) -> ShardedGateway:
        return ShardedGateway(n_shards=self.SHARDS, max_queue=1024,
                              cache_capacity=1 << 16)

    def _greq(self, request) -> GatewayRequest:
        return GatewayRequest(request, lane="interactive",
                              deadline_s=self.DEADLINE_S)

    @staticmethod
    def _tag(lt, request, op) -> None:
        current_op.set(op)
        if lt is not None:
            lt.op_of[id(request)] = op

    async def _closed(self, requests, op: tuple, lt):
        """``nproc`` clients, each waiting for its reply before sending."""
        replies: list = [None] * len(requests)
        todo = iter(range(len(requests)))

        async def client(gw):
            for i in todo:
                self._tag(lt, requests[i], (*op, i))
                try:
                    replies[i] = await gw.submit(self._greq(requests[i]))
                except Exception as exc:  # counted failed by _check
                    replies[i] = exc

        async with self._gateway() as gw:
            t0 = time.perf_counter()
            await asyncio.gather(*(client(gw) for _ in range(self.CLIENTS)))
            wall = time.perf_counter() - t0
            counts = self._counts(gw)
        return replies, wall, counts

    async def _open(self, requests, due, cycle: int, lt):
        """Poisson arrivals at the fixed offered rate, timed from due."""
        replies: list = [None] * len(requests)
        latency = [0.0] * len(requests)
        late = [0.0] * len(requests)

        async def one(gw, i, due_at):
            self._tag(lt, requests[i], ("open", cycle, i))
            try:
                replies[i] = await gw.submit(self._greq(requests[i]))
            except Exception as exc:
                replies[i] = exc
            latency[i] = time.perf_counter() - due_at

        async with self._gateway() as gw:
            tasks = []
            start = time.perf_counter()
            for i, offset in enumerate(due):
                due_at = start + offset
                delay = due_at - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                late[i] = time.perf_counter() - due_at
                tasks.append(asyncio.create_task(one(gw, i, due_at)))
            await asyncio.gather(*tasks)
            counts = self._counts(gw)
        return replies, latency, late, counts

    @staticmethod
    def _counts(gw) -> dict:
        return {"requests": gw.core.admitted + gw.core.shed_total,
                "hits": sum(s.cache.hits for s in gw.services),
                "misses": sum(s.cache.misses for s in gw.services),
                "map_calls": sum(s.map_calls for s in gw.services),
                "shed": gw.core.shed_total}

    def _check(self, pairs, requests, replies) -> tuple[int, int]:
        """(failed, wrong): sheds/errors, and sampled quotes that are not
        bitwise equal to a direct ``price_request`` of the same request.
        The direct pricing runs under the ``check`` op, which the layer
        metrics leave out."""
        token = current_op.set(("check",))
        failed = wrong = 0
        try:
            for i, reply in enumerate(replies):
                if not isinstance(reply, PriceQuote):
                    if not failed:  # a shed Decision or the exception raised
                        print(f"quote {i} failed: {reply!r}", file=sys.stderr)
                    failed += 1
                    continue
                if i % self.CHECK_EVERY:
                    continue
                if pairs[i] not in self._direct:
                    self._direct[pairs[i]] = quote_bits(
                        price_request(requests[i]))
                if quote_bits(reply) != self._direct[pairs[i]]:
                    failed += 1
                    wrong += 1
        finally:
            current_op.reset(token)
        return failed, wrong

    def setup(self) -> None:
        """Start the event loop every round runs on (its executor threads
        then outlive single rounds), and warm up with one short closed
        loop over the book."""
        self._runner = asyncio.Runner()
        pairs = [(i, self.seed) for i in range(len(self.book))]
        self._runner.run(self._closed(self._requests(pairs), ("warmup", 0),
                                      None))

    def run(self, seconds: float, lt=None) -> Outcome:
        """Cycles of one mixed round, one all-miss round and one open-loop
        segment, so a slow spell of the host spreads over every metric
        instead of landing on one phase."""
        n_open = round(self.OPEN_RATE * self.OPEN_SEGMENT_S)
        failed = wrong = attempted = 0
        rates: dict[str, list[float]] = {"mixed": [], "cold": []}
        counts: dict[str, list[dict]] = {"mixed": [], "cold": [], "open": []}
        lat_ms: list[float] = []
        late_ms: list[float] = []
        for cycle in units(seconds):
            rng = random.Random(f"{self.seed}-{cycle}")
            for phase, repeat in (("mixed", 0.5), ("cold", 0.0)):
                pairs = self._stream(rng, self.ROUND, repeat=repeat)
                requests = self._requests(pairs)
                replies, wall, c = self._runner.run(
                    self._closed(requests, (phase, cycle), lt))
                rates[phase].append(len(requests) / wall)
                counts[phase].append(c)
                f, w = self._check(pairs, requests, replies)
                failed, wrong = failed + f, wrong + w
                attempted += len(requests)
            open_pairs = self._stream(rng, n_open, repeat=0.5)
            requests = self._requests(open_pairs)
            # Given their count, Poisson arrivals are uniform in time.
            due = sorted(rng.uniform(0.0, self.OPEN_SEGMENT_S)
                         for _ in range(n_open))
            replies, latency, late, c = self._runner.run(
                self._open(requests, due, cycle, lt))
            counts["open"].append(c)
            lat_ms.extend(1e3 * x for x in latency)
            late_ms.extend(1e3 * x for x in late)
            f, w = self._check(open_pairs, requests, replies)
            failed, wrong = failed + f, wrong + w
            attempted += len(requests)
        return Outcome(
            e2e={"ops_per_s": median(rates["mixed"]),
                 "cold_ops_per_s": median(rates["cold"]),
                 "p50_ms": median(lat_ms)},
            named={"quotes_per_s": (median(rates["mixed"]), "1/s"),
                   "quote_cold_per_s": (median(rates["cold"]), "1/s"),
                   "quote_p50_ms": (median(lat_ms), "ms"),
                   "quote_p99_ms": (percentile(lat_ms, 99), "ms"),
                   "quote_latency_samples": (len(lat_ms), "count"),
                   "open_rate_per_s": (self.OPEN_RATE, "1/s"),
                   "generator_late_p99_ms": (percentile(late_ms, 99), "ms")},
            attempted=attempted, failed=failed, wrong=wrong, counts=counts,
            ops=attempted, extra={"late_ms": late_ms})

    def close(self) -> None:
        """Stop the event loop and its executor threads; every gateway
        already closed with its round."""
        self._runner.close()


# ---------------------------------------------------------------------------
# risk-sweep: the batch risk user, cold then hot through one service
# ---------------------------------------------------------------------------


class RiskSweep:
    """``revalue_book`` of a dim-3 strike ladder under seeded stress
    scenarios (each with a correlation shift), common random numbers.

    A cycle is one cold pass on a fresh cache followed by ``HOT`` passes
    that hit it entirely, all through one ``PricingService`` with a
    ``RunLedger`` attached. The hot passes must reproduce the cold
    pass's ``pnl_digest``; a fixed seed-independent reference sweep must
    reproduce the digest kept in ``reference.json``.
    """

    name = "risk-sweep"
    CONTRACTS = 8
    SCENARIOS = 24
    PATHS = 2_000
    HOT = 3
    REF_SCENARIOS = 6      # scenarios of the reference sweep

    def __init__(self, seed: int, nproc: int, out_dir, reference: dict):
        self.seed = seed
        self.book = strike_strip(self.CONTRACTS, dim=3)
        self.scenarios = stress_scenarios(3, self.SCENARIOS, seed=seed)
        self.ledger_path = out_dir / "risk-ledger.jsonl"
        self.reference = reference["risk_reference_digest"]
        self.ref_failed = 0

    def _sweep(self, service, book, scenarios, seed, ledger):
        return revalue_book(book, scenarios, n_paths=self.PATHS, seed=seed,
                            service=service, ledger=ledger)

    def _service(self, ledger) -> PricingService:
        return PricingService(SerialBackend(), cache=PriceCache(1 << 14),
                              max_batch=self.CONTRACTS, ledger=ledger)

    def setup(self) -> None:
        """Fresh ledger, then the reference sweep (it doubles as warm-up)."""
        self.ledger_path.parent.mkdir(parents=True, exist_ok=True)
        self.ledger_path.write_text("")
        self.ledger = RunLedger(self.ledger_path)
        with self._service(None) as service:
            report = self._sweep(service, strike_strip(4, dim=3),
                                 stress_scenarios(3, self.REF_SCENARIOS,
                                                  seed=0), 0, None)
        self.ref_failed = int(report.pnl_digest() != self.reference)

    def run(self, seconds: float, lt=None) -> Outcome:
        cold_rates, hot_rates, hot_lat_ms, hot_p50_ms = [], [], [], []
        counts: dict[str, list[dict]] = {"cold": [], "hot": []}
        ref_wrong = self.REF_SCENARIOS * self.ref_failed
        failed = wrong = ref_wrong
        ops = 0
        for cycle in units(seconds):
            ops += (1 + self.HOT) * self.SCENARIOS
            with self._service(self.ledger) as service:
                records0 = self.ledger.appended
                current_op.set(("cold", cycle))
                cold = self._sweep(service, self.book, self.scenarios,
                                   self.seed, self.ledger)
                cold_rates.append(cold.scenarios_per_s)
                counts["cold"].append(self._counts(cold, service, records0))
                digest = cold.pnl_digest()
                for h in range(self.HOT):
                    records0 = self.ledger.appended
                    current_op.set(("hot", cycle, h))
                    hot = self._sweep(service, self.book, self.scenarios,
                                      self.seed, self.ledger)
                    hot_rates.append(hot.scenarios_per_s)
                    hot_lat_ms.extend(1e3 * s for s in hot.per_scenario_s)
                    hot_p50_ms.append(1e3 * median(hot.per_scenario_s))
                    counts["hot"].append(self._counts(hot, service, records0))
                    if hot.pnl_digest() != digest:
                        failed += hot.n_scenarios
                        wrong += hot.n_scenarios
        e2e = {"ops_per_s": quantile(hot_rates, TAIL),
               "cold_ops_per_s": quantile(cold_rates, TAIL),
               "p50_ms": quantile(hot_p50_ms, 1 - TAIL)}
        return Outcome(
            e2e=e2e,
            named={"risk_hot_scenarios_per_s": (e2e["ops_per_s"], "1/s"),
                   "risk_cold_scenarios_per_s": (e2e["cold_ops_per_s"], "1/s"),
                   "risk_hot_scenario_p50_ms": (e2e["p50_ms"], "ms"),
                   "median_pass_hot_scenarios_per_s": (median(hot_rates),
                                                       "1/s"),
                   "median_pass_cold_scenarios_per_s": (median(cold_rates),
                                                        "1/s"),
                   "all_hot_scenarios_p50_ms": (median(hot_lat_ms), "ms"),
                   "risk_hot_scenario_p99_ms": (percentile(hot_lat_ms, 99),
                                                "ms"),
                   "risk_latency_samples": (len(hot_lat_ms), "count")},
            attempted=ops + ref_wrong, failed=failed, wrong=wrong,
            counts=counts, ops=ops)

    @staticmethod
    def _counts(report, service, records0) -> dict:
        return {"hits": report.cache_hits, "misses": report.cache_misses,
                "ledger_records": service.ledger.appended - records0,
                "scenarios": report.n_scenarios}

    def close(self) -> None:
        """Nothing outlives a run: every service closes with its cycle."""


# ---------------------------------------------------------------------------
# book-batch: the nightly book on a process pool
# ---------------------------------------------------------------------------


class BookBatch:
    """A cold book on ``ProcessBackend(nproc)``.

    Four fused strike strips (dims 1-4, one seed each) and a dim-4
    portfolio that cannot fuse go through one batched
    ``PricingService``; a d=8 basket goes through ``ParallelMCPricer``
    with P=nproc ranks on the same pool; a 2-asset BEG lattice and a 2-d
    ADI PDE price inline. Every price must be bitwise equal between the
    ``nproc``-worker pass and a 1-worker (in-process) pass.
    """

    name = "book-batch"
    STRIKES = 8
    STRIP_PATHS = {1: 100_000, 2: 50_000, 3: 50_000, 4: 50_000}
    PORTFOLIO = 6
    PORTFOLIO_PATHS = 30_000
    BASKET_PATHS = 400_000
    LATTICE_STEPS = 150
    PDE_GRID = (80, 40)

    def __init__(self, seed: int, nproc: int):
        self.seed = seed
        self.nproc = nproc
        self.strips = [(strike_strip(self.STRIKES, dim=d), self.STRIP_PATHS[d],
                        seed * 100 + d) for d in (1, 2, 3, 4)]
        self.portfolio = random_portfolio(self.PORTFOLIO, dim=4, seed=seed)
        self.basket = basket_workload(8)
        self.rainbow = rainbow_workload()
        self.spread = spread_workload()
        self.n_contracts = (4 * self.STRIKES + self.PORTFOLIO + 3)
        self.fused = plan_batches(self._requests()).fused_contracts
        self.backend = None

    def _requests(self) -> list[PricingRequest]:
        out = [PricingRequest(w, n_paths=paths, seed=s, name=w.name)
               for ladder, paths, s in self.strips for w in ladder]
        out += [PricingRequest(w, n_paths=self.PORTFOLIO_PATHS,
                               seed=self.seed, name=w.name)
                for w in self.portfolio]
        return out

    def _book(self, backend):
        """Price the book once: (price bits, big-job results, wall seconds,
        service map calls)."""
        requests = self._requests()
        with PricingService(backend, cache=PriceCache(1 << 10), batched=True,
                            max_batch=len(requests)) as service:
            t0 = time.perf_counter()
            quotes = service.price_many(requests)
            b = self.basket
            big = [ParallelMCPricer(self.BASKET_PATHS, seed=self.seed,
                                    backend=backend).price(
                       b.model, b.payoff, b.expiry, self.nproc),
                   ParallelLatticePricer(self.LATTICE_STEPS).price(
                       self.rainbow.model, self.rainbow.payoff,
                       self.rainbow.expiry, self.nproc),
                   ParallelPDEPricer(n_space=self.PDE_GRID[0],
                                     n_time=self.PDE_GRID[1]).price(
                       self.spread.model, self.spread.payoff,
                       self.spread.expiry, self.nproc)]
            wall = time.perf_counter() - t0
            map_calls = service.map_calls
        prices = [quote_bits(q) for q in quotes] + [quote_bits(r) for r in big]
        return prices, big, wall, map_calls

    def setup(self) -> None:
        """Spawn the pool and warm it with one book."""
        self.backend = ProcessBackend(self.nproc)
        self._book(self.backend)

    def serial_pass(self):
        """The 1-worker pass: the same book in-process."""
        with SerialBackend() as backend:
            return self._book(backend)

    def run(self, seconds: float, lt=None) -> Outcome:
        walls, books = [], []
        counts: dict[str, list[dict]] = {"book": []}
        for k in units(seconds):
            current_op.set(("book", k))
            prices, big, wall, map_calls = self._book(self.backend)
            walls.append(wall)
            books.append(prices)
            counts["book"].append({
                "contracts": len(prices), "service_map_calls": map_calls,
                "fused_contracts": self.fused,
                "sim_messages": sum(r.messages for r in big),
                "sim_bytes": sum(r.bytes_moved for r in big),
                "sim_Tp_s": sum(r.sim_time for r in big)})
        current_op.set(("serial", 0))
        serial, _, t1, _ = self.serial_pass()
        wrong = sum(1 for prices in books for a, b in zip(prices, serial)
                    if a != b)
        tp = median(walls)
        rate = self.n_contracts / tp
        return Outcome(
            e2e={"ops_per_s": rate, "cold_ops_per_s": rate,
                 "p50_ms": 1e3 * tp},
            named={"book_contracts_per_s": (rate, "1/s"),
                   "book_p50_ms": (1e3 * tp, "ms"),
                   "books": (len(walls), "count"),
                   "book_contracts": (self.n_contracts, "count")},
            attempted=len(books) * self.n_contracts, failed=wrong,
            wrong=wrong, counts=counts, ops=self.n_contracts,
            extra={"T1_s": t1, "Tp_s": tp, "p": self.nproc,
                   "sim": counts["book"][0]})

    def close(self) -> None:
        if self.backend is not None:
            self.backend.close()
