"""End-to-end and per-layer benchmark of the ``repro`` CLI, warehouse and service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload estimation-sweep --seed 1 --seconds 40 --trace 0

``--workload`` is one of ``estimation-sweep``, ``network-sweep``,
``service-mix`` or ``all``.  With ``--trace 0`` the run measures the
end-to-end metrics with tracing off; with ``--trace 1`` it runs one
untraced reference round, then traced rounds that wrap each layer's entry
points in the child processes (``tracer.py``), and reports per-layer self
times and counts per round.  Every run checks the program's outputs
(outside the timed window) and prints, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import service
import sweeps
from harness import Bench, peak_child_rss_mb
from stats import (
    SPAN_END,
    SPAN_NAME,
    SPAN_START,
    interval_union,
    layer_totals,
    median,
    parse_importtime,
    self_times,
    tail_percentile,
    tree_residuals,
    tree_roots,
)

HERE = Path(__file__).resolve().parent
PINS = HERE / "baseline.json"
WORKLOADS = ("estimation-sweep", "network-sweep", "service-mix")
DEFAULT_SEED = 1

#: End-to-end metrics, all measured with tracing off: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("trials_per_s", "1/s"),
    ("ingest_trials_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("job_latency_p50_s", "s"),
    ("job_latency_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Spans that are not a layer of the program: the driver's own time, a
#: child interpreter outside its CLI, and the server idling between requests.
NOT_LAYERS = ("workload", "proc", "service.serve")

#: Import-time children per traced run (the median is reported).
IMPORTTIME_RUNS = 3


# --------------------------------------------------------------------------- #
# rounds
# --------------------------------------------------------------------------- #
def run_rounds(bench: Bench, workload: str, seed: int, seconds: float, trace: bool):
    """Untraced (or traced, then one untraced reference) rounds for ``seconds``.

    At least one round runs; another starts only while the mean round
    time says it will end within ``seconds``.

    Returns ``(reference_round, measured_rounds)``; only the last measured
    round's directory is kept, for the correctness checks.
    """
    # the jobs' spec dicts come from the program's own CLI, before any timing
    specs = service.plan_specs(bench, seed, bench.work) if workload == "service-mix" else {}

    def one_round(index: int, traced: bool):
        directory = bench.work / f"round-{index}"
        os.sync()  # start from no pending write-back of the previous round
        if workload == "service-mix":
            return service.run_round(bench, seed, directory, traced, specs), directory
        forms = sweeps.forms(workload, seed)
        return sweeps.run_round(bench, forms, directory, traced), directory

    started = time.monotonic()
    measured = []
    previous = None
    opened = bench.open_span("workload")
    while True:
        result, directory = one_round(len(measured), trace)
        measured.append(result)
        if previous is not None:
            shutil.rmtree(previous, ignore_errors=True)
        previous = directory
        # start another round only if it is expected to end within the time,
        # leaving room for the untraced reference round of a traced run
        now = time.monotonic()
        mean_round = (now - started) / len(measured)
        if bench.failures or now + mean_round * (1 + trace) - started > seconds:
            break
    bench.close_span(opened, "workload")
    reference = None
    if trace:
        # the reference runs after the traced rounds, so that both see the
        # same warm file-system caches
        reference, directory = one_round(len(measured), False)
        shutil.rmtree(directory, ignore_errors=True)
    return reference, measured


# --------------------------------------------------------------------------- #
# end-to-end metrics
# --------------------------------------------------------------------------- #
def ingest_rate(rounds: list) -> float:
    """Trials indexed per second of ``repro ingest`` time after setup."""
    ingests = [r.ingest for r in rounds if r.ingest is not None and r.ingest.child.ok]
    if not ingests:
        return math.nan
    return sum(sum(i.trials_added) for i in ingests) / sum(i.child.body_s for i in ingests)


def round_tails(per_round: list[list[float]]) -> tuple[float, tuple]:
    """The median over rounds of each round's tail latency, and how it was taken.

    A round's tail is the highest percentile with 10 of its jobs beyond it
    (its maximum below 20 jobs); a median over rounds keeps one slow round
    from setting the figure.
    """
    tails = [tail_percentile(latencies) for latencies in per_round]
    return median([t[1] for t in tails]), (tails[0][0], tails[0][2], len(per_round[0]))


def sweep_end_to_end(rounds: list[sweeps.SweepRound]) -> tuple[dict, tuple]:
    setups = [c.setup_s for r in rounds for c in r.children if c.ok]
    sweep_children = [c for r in rounds for c in r.sweeps]
    tail, how = round_tails([[c.wall_s for c in r.sweeps] for r in rounds])
    metrics = {
        "setup_s": median(setups),
        "trials_per_s": sum(r.trials for r in rounds) / sum(c.body_s for c in sweep_children),
        "ingest_trials_per_s": ingest_rate(rounds),
        "jobs_per_s": len(sweep_children) / sum(r.wall_s for r in rounds),
        "job_latency_p50_s": median([c.wall_s for c in sweep_children]),
        "job_latency_tail_s": tail,
    }
    return metrics, how


def service_end_to_end(rounds: list[service.ServiceRound]) -> tuple[dict, tuple]:
    """Each metric per round, then the median over rounds, so one slow round does not set it."""
    tail, how = round_tails([[o.latency_s for o in r.outcomes] for r in rounds])
    ingests = [ingest_rate([r]) for r in rounds]
    metrics = {
        "setup_s": median([r.setup_s for r in rounds]),
        "trials_per_s": median([
            sum(o.num_trials for o in r.outcomes if not o.deduplicated) / r.timed_s
            for r in rounds
        ]),
        "ingest_trials_per_s": median([rate for rate in ingests if math.isfinite(rate)]),
        "jobs_per_s": median([len(r.outcomes) / r.timed_s for r in rounds]),
        "job_latency_p50_s": median([median([o.latency_s for o in r.outcomes]) for r in rounds]),
        "job_latency_tail_s": tail,
    }
    return metrics, how


def mix_shares(rounds: list[service.ServiceRound]) -> str:
    """The measured service traffic: deduplicated jobs and cache-read trials."""
    outcomes = [o for r in rounds for o in r.outcomes]
    executed = [o.payload.get("stats") or {} for o in outcomes if not o.deduplicated]
    trials = sum(stats.get("num_trials", 0) for stats in executed)
    hits = sum(stats.get("cache_hits", 0) for stats in executed)
    return (f"  mix: {sum(o.deduplicated for o in outcomes) / len(outcomes):.1%} of jobs "
            f"joined an existing job; {hits / max(trials, 1):.1%} of the trials of the "
            f"other jobs were cache reads")


# --------------------------------------------------------------------------- #
# per-layer metrics (traced run)
# --------------------------------------------------------------------------- #
PER_LAYER_UNITS = {
    "cli.import_s": "s", "cli.self_s": "s",
    "import.numpy_s": "s", "import.scipy_s": "s", "import.networkx_s": "s",
    "import.repro_s": "s",
    "spec.expand_s": "s", "runner.trials": "count", "runner.self_s": "s",
    "registry.trial_calls": "count", "registry.trial_s": "s",
    "registry.problem_build_s": "s",
    "cache.get_calls": "count", "cache.get_s": "s", "cache.hit_ratio": "ratio",
    "cache.put_calls": "count", "cache.put_s": "s",
    "store.write_s": "s", "store.bytes": "B",
    "modem.link_calls": "count", "modem.link_s": "s",
    "core.fixedpoint_calls": "count", "core.fixedpoint_s": "s",
    "core.fixedpoint_rows_per_call": "rows/call",
    "core.ipcore_calls": "count", "core.ipcore_s": "s", "core.ipcore_rows_per_call": "rows/call",
    "core.mp_s": "s",
    "network.build_s": "s", "network.engine_calls": "count", "network.engine_s": "s",
    "network.lifetime_s": "s",
    "warehouse.ingest_trials": "count", "warehouse.ingest_s": "s",
    "warehouse.db_bytes_per_trial": "B/trial", "warehouse.query_s": "s",
    "service.queue_wait_s": "s", "service.run_s": "s", "service.ingest_lag_s": "s",
    "service.done_unqueryable": "count", "service.dedup_ratio": "ratio",
    "service.requests": "count", "service.poll_p50_ms": "ms",
    "bench.span_coverage": "ratio", "bench.trace_overhead_frac": "ratio",
    "bench.unaccounted_s": "s", "bench.selfcheck_residual_s": "s",
}


def import_breakdown(bench: Bench) -> dict[str, float]:
    """Median self import time per package of ``import repro.cli`` (fresh interpreters)."""
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORTTIME_RUNS):
        completed = bench.python("import repro.cli", bench.work, ["-X", "importtime"])
        if not bench.check(completed.returncode == 0, "python -X importtime failed"):
            continue
        for package, seconds in parse_importtime(completed.stderr).items():
            samples.setdefault(package, []).append(seconds)
    return {
        f"import.{package}_s": median(samples.get(package, [0.0]))
        for package in ("numpy", "scipy", "networkx", "repro")
    }


def per_layer(bench: Bench, workload: str, reference, rounds: list) -> tuple[dict, dict]:
    """Per-round layer metrics from the traced rounds' spans, plus the accounting."""
    spans = bench.spans
    selfs = self_times(spans)
    totals = layer_totals(spans, selfs)
    roots = tree_roots(spans)
    residuals = tree_residuals(spans, selfs, roots)
    n = len(rounds)

    def calls(name: str) -> float:
        return totals.get(name, {}).get("calls", 0) / n

    def busy(*names: str) -> float:
        return sum(totals.get(name, {}).get("self_s", 0.0) for name in names) / n

    def counted(name: str) -> float:
        return totals.get(name, {}).get("count", 0.0) / n

    def per_call(name: str) -> float:
        return counted(name) / calls(name) if calls(name) else 0.0

    workload_span = next(s for s in spans if s[SPAN_NAME] == "workload")
    wall = workload_span[SPAN_END] - workload_span[SPAN_START]
    covered = interval_union(
        (s[SPAN_START], s[SPAN_END]) for s in spans if s[SPAN_NAME] not in NOT_LAYERS
    )
    unaccounted = busy("workload", "proc")
    imports = [s[SPAN_END] - s[SPAN_START] for s in spans if s[SPAN_NAME] == "cli.import"]

    if workload == "service-mix":
        outcomes = [o for r in rounds for o in r.outcomes]
        fresh = [o for o in outcomes if not o.deduplicated]
        payloads = [o.payload for o in fresh]
        service_metrics = {
            "service.queue_wait_s": median([p["started_s"] - p["submitted_s"] for p in payloads]),
            "service.run_s": median([p["finished_s"] - p["started_s"] for p in payloads]),
            "service.ingest_lag_s": median([o.ingest_lag_s for o in outcomes]),
            "service.done_unqueryable": sum(o.unqueryable for o in outcomes) / n,
            "service.dedup_ratio": sum(o.deduplicated for o in outcomes) / len(outcomes),
            "service.requests": sum(r.requests for r in rounds) / n,
            "service.poll_p50_ms": 1e3 * median([t for r in rounds for t in r.poll_s]),
        }
    else:
        service_metrics = {name: 0.0 for name in PER_LAYER_UNITS if name.startswith("service.")}
    ingested = sum(sum(r.ingest.trials_added) for r in rounds if r.ingest is not None)
    db_bytes = sum(r.ingest.db_bytes for r in rounds if r.ingest is not None)

    metrics = {
        "cli.import_s": median(imports),
        "cli.self_s": busy("cli.main"),
        **import_breakdown(bench),
        "spec.expand_s": busy("spec.expand"),
        "runner.trials": counted("runner.execute"),
        "runner.self_s": busy("runner.sweep", "runner.execute"),
        "registry.trial_calls": calls("registry.trial"),
        "registry.trial_s": busy("registry.trial"),
        "registry.problem_build_s": busy("registry.problem_build"),
        "cache.get_calls": calls("cache.get"),
        "cache.get_s": busy("cache.get"),
        "cache.hit_ratio": per_call("cache.get"),
        "cache.put_calls": calls("cache.put"),
        "cache.put_s": busy("cache.put"),
        "store.write_s": busy("store.write"),
        "store.bytes": counted("store.write"),
        "modem.link_calls": calls("modem.link"),
        "modem.link_s": busy("modem.link"),
        "core.fixedpoint_calls": calls("core.fixedpoint"),
        "core.fixedpoint_s": busy("core.fixedpoint"),
        "core.fixedpoint_rows_per_call": per_call("core.fixedpoint"),
        "core.ipcore_calls": calls("core.ipcore"),
        "core.ipcore_s": busy("core.ipcore"),
        "core.ipcore_rows_per_call": per_call("core.ipcore"),
        "core.mp_s": busy("core.mp"),
        "network.build_s": busy("network.build"),
        "network.engine_calls": calls("network.engine"),
        "network.engine_s": busy("network.engine"),
        "network.lifetime_s": busy("network.lifetime"),
        "warehouse.ingest_trials": counted("warehouse.ingest"),
        "warehouse.ingest_s": busy("warehouse.ingest"),
        "warehouse.db_bytes_per_trial": db_bytes / ingested if ingested else 0.0,
        "warehouse.query_s": busy("warehouse.query"),
        **service_metrics,
        "bench.span_coverage": covered / wall,
        "bench.trace_overhead_frac": median([r.wall_s for r in rounds]) / reference.wall_s - 1.0,
        "bench.unaccounted_s": unaccounted,
        "bench.selfcheck_residual_s": max(abs(r) for r in residuals),
    }
    # the accounting identity: every span tree's self times add up to its
    # root's duration, so the driver's tree — the synchronous child
    # processes, the server's main thread idling in serve(), and the
    # unaccounted remainder — adds up to the workload's wall time
    bench.check(metrics["bench.selfcheck_residual_s"] < 1e-6,
                f"span self times miss their tree's duration by "
                f"{metrics['bench.selfcheck_residual_s']:.3g} s")
    main_tree = [s for s in spans if roots[s[0]] == workload_span[0]]
    in_main = sum(selfs[s[0]] for s in main_tree if s[SPAN_NAME] not in NOT_LAYERS)
    concurrent = sum(selfs[s[0]] for s in spans if roots[s[0]] != workload_span[0])
    accounting = {
        "wall_s": wall / n,
        "layers_s": in_main / n,
        "idle_s": busy("service.serve"),
        "unaccounted_s": unaccounted,
        "concurrent_busy_s": concurrent / n,
    }
    return metrics, accounting


# --------------------------------------------------------------------------- #
# the run
# --------------------------------------------------------------------------- #
def run_workload(bench: Bench, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    # bytecode of a fresh checkout is compiled here, outside every timing
    warm = bench.python("import compileall, sys; sys.exit(not compileall.compile_dir("
                        f"{str(bench.root / 'src')!r}, quiet=1))", bench.work)
    if not bench.check(warm.returncode == 0, f"compiling src failed: {warm.stderr[-600:]}"):
        return {}
    reference, rounds = run_rounds(bench, workload, seed, seconds, trace)
    checks = bench.work / "checks"
    if workload == "service-mix":
        digest = service.check(bench, seed, DEFAULT_SEED, rounds[-1], checks)
        metrics, tail = service_end_to_end(rounds)
    else:
        digest = sweeps.check(bench, workload, seed, DEFAULT_SEED, rounds, checks)
        metrics, tail = sweep_end_to_end(rounds)
    metrics["peak_rss_mb"] = peak_child_rss_mb()

    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    bench.check(digest == pins.get("digests", {}).get(workload),
                f"{workload}: default-seed records digest {digest} does not match baseline.json")

    error_rate = len(bench.failures) / bench.attempted
    print(f"{workload}  seed={seed}  rounds={len(rounds)}  trace={int(trace)}")
    if not trace:
        for name, unit in END_TO_END:
            print(f"  {name:24s} {metrics[name]:14.6g} {unit}")
        print(f"  {'error_rate':24s} {error_rate:14.6g} ratio "
              f"({len(bench.failures)} of {bench.attempted} operations failed)")
        print(f"  job_latency_tail_s is the median over rounds of p{tail[0]:.1f} of "
              f"{tail[2]} jobs per round ({tail[1]} beyond it)")
        if workload == "service-mix":
            print(mix_shares(rounds))
        return {name: metrics[name] for name, _ in END_TO_END}

    layers, accounting = per_layer(bench, workload, reference, rounds)
    for name, unit in PER_LAYER_UNITS.items():
        print(f"  {name:30s} {layers[name]:14.6g} {unit}")
    print(f"  per round: wall {accounting['wall_s']:.4f} s = layer self time "
          f"{accounting['layers_s']:.4f} s + server idle {accounting['idle_s']:.4f} s "
          f"+ unaccounted {accounting['unaccounted_s']:.4f} s (driver, interpreter "
          f"start/exit); threads beside the driver's add "
          f"{accounting['concurrent_busy_s']:.4f} s of busy time")
    print(f"  error_rate {error_rate:.6g} ({len(bench.failures)} of {bench.attempted})")
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {root / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    if args.workload == "all":
        return run_all(args)
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    bench = Bench(root=root, work=work, trace=bool(args.trace))
    work.mkdir(parents=True)
    try:
        metrics = run_workload(bench, args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:  # a broken program must still yield a result that says so
        bench.check(False, f"benchmark aborted: {traceback.format_exc()}")
        metrics = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER_UNITS if args.trace else dict(END_TO_END)
    print(json.dumps({
        "correct": not bench.failures and bool(metrics),
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own driver process and merge their results.

    A separate process per workload keeps each one's peak child RSS its own.
    """
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, stdin=subprocess.DEVNULL,
        )
        lines = completed.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1]) if completed.returncode == 0 and lines else None
        if result is None:
            merged["correct"] = False
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update(
            {f"{name}.{metric}": value for metric, value in result["metrics"].items()}
        )
    print(json.dumps(merged))
    return 0

if __name__ == "__main__":
    sys.exit(main())
