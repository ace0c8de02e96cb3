"""Repository benchmark: three seeded workloads, end to end or traced.

Run from the repository root::

    python3 perfbench/run.py --workload quote-desk --seed 0 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` measures half the run untraced and half with a span
around every layer entry point (see ``layers.py``), prints every
per-layer metric with the end-to-end metric it should move, the tracing
overhead, and writes the spans once to ``perfbench/out/``.

Human-readable lines come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The metric names and units are those of ``BENCHMARK.json``;
``metrics.json`` describes each one.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("quote-desk", "risk-sweep", "book-batch")
SETUP_SAMPLES = 5


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit "
                         "(one set-up sample)")
    return ap.parse_args(argv)


def host_probe_ms() -> float:
    """Median wall time of a fixed pure-Python plus numpy loop, in ms.

    Printed at the start and end of every run, next to the metrics: a
    host that slowed down shows here as well as in the metrics, a
    program that slowed down only in the metrics.
    """
    import numpy as np

    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        a = np.arange(400_000, dtype=float)
        for _ in range(20):
            a = np.sqrt(a * a + 1.0)
        times.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(times)


def _hwm_kb(pid) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its live children."""
    children = set()
    for task in Path("/proc/self/task").iterdir():
        try:
            children.update((task / "children").read_text().split())
        except OSError:
            pass
    return (_hwm_kb("self") + sum(_hwm_kb(pid) for pid in children)) / 1024.0


def make_workload(name: str, seed: int, nproc: int, reference: dict):
    import workloads

    if name == "quote-desk":
        return workloads.QuoteDesk(seed)
    if name == "risk-sweep":
        return workloads.RiskSweep(seed, nproc, HERE / "out", reference)
    return workloads.BookBatch(seed, nproc)


def setup_samples(args, n: int) -> list[float]:
    """Set-up times of ``n`` fresh processes (run one after another)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--setup-only"]
    out = []
    for _ in range(n):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=150, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1].split()[-1]))
    return out


def check_counts(counts: dict, reference: dict) -> list[str]:
    """Exact-count guard: every unit of a type must repeat the same
    counts, and match the reference counts kept for this seed."""
    drift = [f"{kind}: units differ {per_unit}"
             for kind, per_unit in counts.items()
             if any(c != per_unit[0] for c in per_unit[1:])]
    for kind, expected in reference.items():
        for key in (kind, f"{kind} (traced)"):
            got = counts.get(key, [None])[0]
            if key in counts and got != expected:
                drift.append(f"{key}: {got} != reference {expected}")
    return drift


def counts_digest(counts: dict) -> str:
    doc = json.dumps({k: v[0] for k, v in sorted(counts.items())},
                     sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Ledger records carry this instead of asking git (the benchmark
    # checkout need not be a repository); no ambient ledger is used.
    os.environ["REPRO_GIT_SHA"] = "perfbench"
    os.environ.pop("REPRO_LEDGER", None)

    catalogue = json.loads((HERE / "metrics.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    nproc = len(os.sched_getaffinity(0))

    wl = make_workload(args.workload, args.seed, nproc, reference)
    wl.setup()
    setup_self = time.perf_counter() - _T_START
    if args.setup_only:
        wl.close()
        print(f"setup_s {setup_self!r}")
        return 0

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} nproc={nproc}")
    try:
        setups = [setup_self] + setup_samples(args, SETUP_SAMPLES - 1)
        probe_start = host_probe_ms()
        if args.trace:
            outcome, layer, overhead = traced_run(wl, args)
            # Per-op layer counts repeat exactly: every unit is identical.
            outcome.counts["layers per op (traced)"] = [{
                name: value for name, value in layer.items()
                if catalogue["per_layer"][name]["clock"]
                in ("count", "simulated")}]
        else:
            outcome = wl.run(args.seconds)
        probe_end = host_probe_ms()
        rss = peak_rss_mb()
    finally:
        wl.close()

    e2e = {"setup_s": statistics.median(setups), "peak_rss_mb": rss,
           **outcome.e2e}
    ref_counts = (reference.get("counts", {}).get(args.workload, {})
                  .get(str(args.seed), {}))
    drift = check_counts(outcome.counts, ref_counts)

    print(f"host probe (fixed loop, wall ms): start {probe_start:.2f}, "
          f"end {probe_end:.2f}")
    print("setup samples [s]: " + ", ".join(f"{s:.4f}" for s in setups))
    defs = catalogue["end_to_end"]
    print("end-to-end metrics (wall-clock, untraced):")
    for name, value in e2e.items():
        meaning = defs[name].get(args.workload, defs[name].get("all", ""))
        print(f"  {name:<16} {fmt(value):>14} {defs[name]['unit']:<6} "
              f"{meaning}")
    for name, (value, unit) in outcome.named.items():
        print(f"  {name:<26} {fmt(value):>14} {unit}")
    share = outcome.failed / outcome.attempted
    print(f"  failed_share {share:.6g} ({outcome.failed} of "
          f"{outcome.attempted}; {outcome.wrong} wrong outputs)")
    print(f"exact counts {counts_digest(outcome.counts)}: "
          + json.dumps({k: v[0] for k, v in outcome.counts.items()},
                       sort_keys=True))
    if not ref_counts:
        print(f"exact counts: no reference for seed {args.seed}")
    for line in drift:
        print(f"WORKLOAD DRIFT (a count changed, not a speed): {line}")

    if args.trace:
        print_layers(catalogue["per_layer"], layer, overhead)
        names = [m["name"] for m in bench["per_layer"]]
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        metrics = {n: {"value": layer[n], "unit": units[n]} for n in names}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    print(json.dumps({"correct": outcome.wrong == 0,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


def traced_run(wl, args):
    """Half the run untraced, half traced; spans written once at the end."""
    from layers import LayerTracer, instrument, layer_metrics
    from repro.obs import Tracer, write_chrome_trace

    half = args.seconds / 2
    untraced = wl.run(half)
    tracer = Tracer()
    lt = LayerTracer(tracer)
    instrument(lt)
    # book-batch: the pool's own per-task spans give worker busy time.
    backend = getattr(wl, "backend", None)
    if backend is not None:
        backend.tracer = tracer
    try:
        traced = wl.run(half, lt)
    finally:
        lt.restore()
        if backend is not None:
            backend.tracer = None
    layer = layer_metrics(args.workload, tracer, traced, untraced)
    overhead = {k: (traced.e2e[k] / untraced.e2e[k] - 1.0, untraced.e2e[k],
                    traced.e2e[k]) for k in untraced.e2e}
    path = HERE / "out" / f"{args.workload}.trace.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    write_chrome_trace(tracer, path)
    print(f"trace: {len(tracer.spans)} spans written to "
          f"{path.relative_to(ROOT)}")
    traced.counts = {f"{k} (traced)": v for k, v in traced.counts.items()}
    untraced.counts.update(traced.counts)
    untraced.attempted += traced.attempted
    untraced.failed += traced.failed
    untraced.wrong += traced.wrong
    return untraced, layer, overhead


def print_layers(catalogue: dict, layer: dict, overhead: dict) -> None:
    print("per-layer metrics (traced half):")
    for name, value in layer.items():
        info = catalogue[name]
        print(f"  {name:<34} {fmt(value):>14} {info['unit']:<6} "
              f"[{info['clock']}] moves: {info['moves']}")
    print("tracing overhead (traced / untraced - 1, end-to-end):")
    for name, (rel, plain, traced) in overhead.items():
        print(f"  {name:<16} {rel:+.2%}  ({fmt(plain)} -> {fmt(traced)})")


if __name__ == "__main__":
    sys.exit(main())
