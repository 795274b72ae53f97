"""Benchmark — batched IP-core engine vs the scalar FC-block walk.

Runs a stack of Monte-Carlo channel estimations through the scalar
:class:`~repro.core.ipcore.simulator.IPCoreSimulator` (one Python walk over
the FC blocks per trial — the executable specification) and through
:class:`~repro.core.ipcore.batch.BatchIPCoreEngine` (the same blocks driven
once over registers with a leading trial axis) at equal trial counts, and
records the speed-up.  The engine's datapath is pinned bit-identical on raw
integer codes, so besides being faster it returns *identical* results —
which this benchmark also asserts trial by trial with ``==`` at benchmark
scale, making it an end-to-end conformance check.

The hard gate is >= 5x (the ISSUE 5 acceptance threshold); at the paper's
14-block design the scalar walk pays ~100 small NumPy calls per estimation
while the engine amortises them over the whole stack, so a CI-class
single-core container typically measures 15-40x.  The measured ratio is
stored in ``extra_info`` (and the benchmark JSON artifact in CI, where
``benchmarks/compare.py`` tracks regressions against the previous run).

A second, end-to-end case times ``run_sweep`` of the ``ipcore-parallelism``
scenario — whose ``run_batch`` hook stacks each design point's trials into
one engine call — against a plain loop of ``scenario.run_trial`` over the
same points, asserts the records ``==``, and gates the speed-up at >= 3x.
"""

from __future__ import annotations

import time

import numpy as np

from repro.channel.multipath import random_sparse_channel
from repro.channel.simulator import add_noise_for_snr
from repro.core.ipcore import BatchIPCoreEngine, IPCoreConfig
from repro.experiments import get_scenario, run_sweep
from repro.experiments.runner import trial_record
from repro.utils.tables import format_table

NUM_FC_BLOCKS = 14
WORD_LENGTH = 12
TRIALS = 96
ROUNDS = 3
MIN_SPEEDUP = 5.0
SWEEP_REPLICATES = 8
MIN_SWEEP_SPEEDUP = 3.0


def _problem_stack(matrices) -> np.ndarray:
    rows = []
    for seed in range(TRIALS):
        channel = random_sparse_channel(
            num_paths=4, max_delay=100, rng=seed, min_separation=4
        )
        rows.append(add_noise_for_snr(
            matrices.synthesize(channel.coefficient_vector(matrices.num_delays)),
            22.0, rng=seed + 1_000,
        ))
    return np.stack(rows)


def test_bench_ipcore_batch(benchmark, aquamodem_matrices):
    engine = BatchIPCoreEngine(
        aquamodem_matrices,
        IPCoreConfig(num_fc_blocks=NUM_FC_BLOCKS, word_length=WORD_LENGTH, num_paths=6),
    )
    received = _problem_stack(aquamodem_matrices)

    # Interleave the engine and scalar measurements round by round so
    # machine-load drift hits both equally; the gate uses the interleaved
    # minima.  Both paths share one simulator instance (same quantised
    # matrices, same control unit), so the comparison is pure datapath.
    times = {True: float("inf"), False: float("inf")}
    results = {}
    for _ in range(ROUNDS):
        for batch in (False, True):
            start = time.perf_counter()
            if batch:
                outcome = engine.estimate_batch(received)
                results[batch] = [outcome.result[t] for t in range(TRIALS)]
            else:
                runs = [engine.core.estimate(row) for row in received]
                results[batch] = [run.result for run in runs]
            times[batch] = min(times[batch], time.perf_counter() - start)

    # result identity at benchmark scale: raw integer codes, trial by trial
    assert results[True] == results[False], "batched IP core diverged from the scalar walk"

    # the recorded pytest-benchmark timing is the batched engine's full stack
    benchmark.pedantic(lambda: engine.estimate_batch(received), iterations=1, rounds=1)

    speedup = times[False] / times[True]
    benchmark.extra_info["num_fc_blocks"] = NUM_FC_BLOCKS
    benchmark.extra_info["word_length"] = WORD_LENGTH
    benchmark.extra_info["trials"] = TRIALS
    benchmark.extra_info["scalar_walk_s"] = round(times[False], 4)
    benchmark.extra_info["batch_s"] = round(times[True], 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)

    print()
    print(
        format_table(
            ["Path", "Time (s)", "Speed-up"],
            [
                ("scalar FC-block walk (reference)", round(times[False], 3), "1.0x"),
                ("batched engine", round(times[True], 3), f"{speedup:.1f}x"),
            ],
            title=(
                f"IP core — batched engine vs scalar walk "
                f"(P={NUM_FC_BLOCKS}, w={WORD_LENGTH}, {TRIALS} trials)"
            ),
        )
    )

    assert speedup >= MIN_SPEEDUP, (
        f"batched IP-core engine only {speedup:.2f}x faster (gate: {MIN_SPEEDUP}x)"
    )


def test_bench_ipcore_sweep_hook(benchmark):
    scenario = get_scenario("ipcore-parallelism")
    spec = scenario.spec.with_seed(base_seed=0, replicates=SWEEP_REPLICATES)

    def per_trial_loop():
        return [
            trial_record(scenario.name, point, scenario.run_trial(point.params, point.seed))
            for point in spec.expand()
        ]

    # interleaved minima, as above; round 1 also warms the memoised channel
    # problems and engines both paths share
    times = {"loop": float("inf"), "sweep": float("inf")}
    records = {}
    for _ in range(ROUNDS):
        for path, run in (("loop", per_trial_loop), ("sweep", lambda: run_sweep(spec).records)):
            start = time.perf_counter()
            records[path] = run()
            times[path] = min(times[path], time.perf_counter() - start)

    assert records["sweep"] == records["loop"], "batched sweep diverged from the trial loop"

    benchmark.pedantic(lambda: run_sweep(spec), iterations=1, rounds=1)

    speedup = times["loop"] / times["sweep"]
    benchmark.extra_info["trials"] = spec.num_trials
    benchmark.extra_info["trial_loop_s"] = round(times["loop"], 4)
    benchmark.extra_info["sweep_s"] = round(times["sweep"], 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)

    print()
    print(
        format_table(
            ["Path", "Time (s)", "Speed-up"],
            [
                ("run_trial loop (reference)", round(times["loop"], 3), "1.0x"),
                ("run_sweep (run_batch hook)", round(times["sweep"], 3), f"{speedup:.1f}x"),
            ],
            title=(
                f"ipcore-parallelism sweep — batch hook vs per-trial loop "
                f"({spec.num_trials} trials)"
            ),
        )
    )

    assert speedup >= MIN_SWEEP_SPEEDUP, (
        f"batched ipcore-parallelism sweep only {speedup:.2f}x faster "
        f"(gate: {MIN_SWEEP_SPEEDUP}x)"
    )
