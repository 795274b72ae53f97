"""The cold-cache CLI sweep workloads: ``estimation-sweep`` and ``network-sweep``.

One round runs, each in its own fresh ``repro`` process and against an empty
cache: one ``repro sweep --jobs 1`` per scenario of the workload, then
``repro ingest`` of all their outputs into a fresh warehouse, then
``repro query --trials --format json`` over it.  Rounds repeat the same
inputs until the measuring time is spent.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from harness import Bench, Child, Ingest, SweepForm, read_jsonl, records_digest, run_ingest


@dataclass(frozen=True)
class SweepJob:
    """One scenario of a sweep workload: fixed overrides and raised replicates."""

    scenario: str
    overrides: tuple[tuple[str, tuple], ...]
    replicates: int


#: Replicates are raised so each sweep of a workload takes a similar time
#: (a few seconds on a 2-core machine): a median over the sweep commands then
#: stays inside one class of command.
WORKLOADS: dict[str, tuple[SweepJob, ...]] = {
    # the core/modem engines do the work; per-trial runner overhead shows
    "estimation-sweep": (
        SweepJob("fixedpoint-bitwidth", (("batch", (True,)),), 96),
        SweepJob("ipcore-parallelism", (), 8),
        SweepJob("modem-ser-vs-snr", (), 16),
    ),
    # ~10^4 cheap analytic lifetime trials (runner, cache writes, store,
    # ingest) plus the engine-heavy contention simulator
    "network-sweep": (
        SweepJob("network-lifetime", (), 334),
        SweepJob("network-contention", (), 4),
    ),
}

#: Trials one round's ingest indexes at least (over a second of it).
INGEST_TRIALS = 10000

#: Replicates of the scalar re-run sample and of the pinned default-seed run.
CHECK_REPLICATES = 2

#: Record columns that legitimately differ between a batched run and its
#: scalar re-run of the same trials.
BATCH_ONLY_KEYS = ("batch",)


def forms(workload: str, seed: int, replicates: int | None = None) -> list[SweepForm]:
    """The workload's sweeps for one seed (each scenario gets its own base seed)."""
    rng = random.Random(f"{workload}:{seed}")
    return [
        SweepForm(job.scenario, job.overrides, rng.randrange(2**31),
                  replicates if replicates is not None else job.replicates)
        for job in WORKLOADS[workload]
    ]


@dataclass
class SweepRound:
    """Measurements and outputs of one round."""

    children: list[Child] = field(default_factory=list)
    sweeps: list[Child] = field(default_factory=list)
    trials: int = 0
    ingest: Ingest | None = None
    wall_s: float = 0.0
    outputs: list[Path] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)


def run_round(bench: Bench, sweep_forms: list[SweepForm], directory: Path,
              traced: bool) -> SweepRound:
    directory.mkdir(parents=True)
    cache = directory / "cache"
    result = SweepRound()
    started = time.monotonic()
    all_records = []
    for index, form in enumerate(sweep_forms):
        out = directory / f"out-{index}-{form.scenario}"
        child = bench.run(
            ["sweep", *form.argv(), "--jobs", "1", "--cache-dir", str(cache),
             "--output", str(out)],
            f"sweep-{form.scenario}", directory, traced,
        )
        result.children.append(child)
        if not child.ok:
            continue
        records = read_jsonl(out / "results.jsonl")
        stats = json.loads((out / "manifest.json").read_text())["stats"]
        bench.check(
            stats["cache_hits"] == 0 and stats["executed"] == stats["num_trials"] == len(records),
            f"{form.scenario}: cold sweep reported {stats['executed']} executed, "
            f"{stats['cache_hits']} cache hits for {len(records)} records",
        )
        result.sweeps.append(child)
        result.trials += len(records)
        result.outputs.append(out)
        result.digests.append(records_digest(records))
        all_records.extend(records)

    ingest = run_ingest(bench, result.outputs, len(all_records), INGEST_TRIALS,
                        directory, traced)
    result.ingest = ingest
    result.children.append(ingest.child)
    if ingest.child.ok:
        bench.check(ingest.trials_added == [len(all_records)] * len(ingest.trials_added),
                    f"ingest indexed {ingest.trials_added} of {len(all_records)} trials")

    query = bench.run(["query", "--db", str(ingest.first_db), "--trials", "--format", "json"],
                      "query", directory, traced)
    result.children.append(query)
    if query.ok:
        rows = json.loads(query.stdout.read_text())
        # the warehouse must hand back exactly the records the sweeps wrote
        canonical = sorted(json.dumps(record, sort_keys=True) for record in all_records)
        queried = sorted(
            json.dumps({k: v for k, v in row.items() if k != "run_id"}, sort_keys=True)
            for row in rows
        )
        bench.check(queried == canonical,
                    f"query returned {len(rows)} records that differ from the "
                    f"{len(all_records)} the sweeps wrote")
    result.wall_s = time.monotonic() - started
    return result


def _sample(bench: Bench, rng: random.Random, form: SweepForm, output: Path
            ) -> tuple[SweepForm, list[dict]]:
    """A seeded one-point, ``CHECK_REPLICATES``-replicate scalar re-run of ``form``.

    Returns the re-run's form and the records of the round it must match
    (compared without the columns that only name the batch path).
    """
    spec = json.loads((output / "manifest.json").read_text())["spec"]
    records = read_jsonl(output / "results.jsonl")
    chosen = rng.choice([r for r in records if r["replicate"] < CHECK_REPLICATES])
    pins = [(name, (chosen[name],)) for name in spec["grid"]]
    pins += [(name, (chosen[name],)) for name in list(spec["zipped"])[:1]]
    fixed = tuple((name, values) for name, values in form.overrides if name != "batch")
    sample = SweepForm(form.scenario, fixed + tuple(pins) + (("batch", (False,)),),
                       form.seed, CHECK_REPLICATES)
    expected = [
        r for r in records
        if r["replicate"] < CHECK_REPLICATES
        and all(r[name] == values[0] for name, values in pins)
    ]
    return sample, expected


def _comparable(records: list[dict]) -> list[dict]:
    dropped = BATCH_ONLY_KEYS + ("trial_index",)
    return sorted(({k: v for k, v in r.items() if k not in dropped} for r in records),
                  key=lambda r: json.dumps(r, sort_keys=True))


def check(bench: Bench, workload: str, seed: int, default_seed: int,
          rounds: list[SweepRound], directory: Path) -> str:
    """Correctness checks outside the timed window; returns the pin digest.

    * every round wrote byte-identical records;
    * a seeded sample of each sweep, re-run through the scalar executable
      spec (``--set batch=false``), gives ``==`` records;
    * the workload's sweeps at the default seed (``CHECK_REPLICATES``
      replicates) give the records digest pinned in ``baseline.json``.
    """
    directory.mkdir(parents=True)
    for other in rounds[1:]:
        bench.check(other.digests == rounds[0].digests,
                    f"{workload}: rounds of one seed wrote different records")
    rng = random.Random(f"{workload}:{seed}:sample")
    sweep_forms = forms(workload, seed)
    commands, expectations = [], []
    for index, (form, output) in enumerate(zip(sweep_forms, rounds[-1].outputs)):
        sample, expected = _sample(bench, rng, form, output)
        out = directory / f"scalar-{index}"
        commands.append(["sweep", *sample.argv(), "--no-cache", "--output", str(out)])
        expectations.append((form.scenario, out, expected))
    pin_outputs = []
    for index, form in enumerate(forms(workload, default_seed, CHECK_REPLICATES)):
        out = directory / f"pin-{index}"
        commands.append(["sweep", *form.argv(), "--no-cache", "--output", str(out)])
        pin_outputs.append(out)
    batch = directory / "commands.json"
    batch.write_text(json.dumps(commands))
    child = bench.run(["--batch", str(batch)], "checks", directory)
    if not child.ok:
        return ""
    for scenario, out, expected in expectations:
        rerun = read_jsonl(out / "results.jsonl")
        bench.check(
            bool(expected) and _comparable(rerun) == _comparable(expected),
            f"{scenario}: scalar re-run of {len(rerun)} sampled trials differs "
            f"from the batched sweep",
        )
    pinned = []
    for out in pin_outputs:
        pinned.extend(read_jsonl(out / "results.jsonl"))
    return records_digest(pinned)
