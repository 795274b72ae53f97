"""The ``service-mix`` workload: a seeded mix of small jobs against ``repro serve``.

One round starts a fresh ``repro serve --port 0`` child (its own data
directory, cache and warehouse), warms it up with one job per scenario, then
runs a closed loop of ``CLIENTS`` driver threads, each submitting its next
job only after its previous one is queryable, over the round's seeded job
list.  After the server stops, ``repro ingest`` re-indexes the round's job
store into fresh warehouses.

A job is timed from submit until ``/api/v1/runs`` lists it — never until
DONE.  The client polls the job every ``POLL_S`` seconds; once it reads
DONE it asks ``/api/v1/runs``, and if the job is not listed yet it counts a
*done-but-unqueryable* sighting and keeps polling the runs list at the same
period until it is, recording the gap as the ingest lag.  Nothing retries a
request or waits around the race: the lag and the count are reported.
Latency resolution is one poll period plus one request round trip (a few
milliseconds against a median job latency of tens of milliseconds).
"""

from __future__ import annotations

import http.client
import json
import random
import select
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from harness import (Bench, Ingest, SweepForm, read_jsonl, records_digest, resolve_specs,
                     run_ingest, stop)

#: Concurrent closed-loop clients: the core count of the reference machine.
CLIENTS = 2
#: Seconds between two polls of one job.
POLL_S = 0.002
#: Seconds a job may take from submit to queryable before it counts as failed.
JOB_TIMEOUT_S = 60.0
#: Timed jobs per round, in blocks of 6: 4 fresh (one per scenario), 1 exact
#: repeat of an earlier job (deduplicated) and 1 copy of an earlier fresh job
#: narrowed to one axis value (every trial a cache read).  The proportions are
#: a synthetic choice, not measured traffic.  Fresh jobs are two thirds, so
#: the median latency falls inside the executing jobs, not on the edge
#: between them and the fast cached and deduplicated ones.
BLOCKS_PER_ROUND = 16

#: Trials one round's re-ingest indexes at least.  The job store holds many
#: small runs, and ingest pays a fixed cost per run, so fewer trials than
#: the sweeps' already take over a second.
INGEST_TRIALS = 2500

#: Fresh-job shape per scenario: fixed overrides and replicates.
FRESH: dict[str, tuple[tuple[tuple[str, tuple], ...], int]] = {
    "platform-energy": ((), 1),
    "mp-refinement": ((("num_paths", (2, 4)),), 1),
    "network-lifetime": ((("report_interval_s", (60.0,)),), 1),
    "fixedpoint-bitwidth": ((("word_length", (8, 12)),), 2),
}
#: The axis a narrowed copy pins to one value (its trials are all cached).
NARROW: dict[str, tuple[str, tuple]] = {
    "platform-energy": ("platform", ("Virtex-4 112FC 8bit",)),
    "mp-refinement": ("num_paths", (4,)),
    "network-lifetime": ("topology", ("grid",)),
    "fixedpoint-bitwidth": ("word_length", (8,)),
}


def fresh_form(scenario: str, seed: int) -> SweepForm:
    overrides, replicates = FRESH[scenario]
    return SweepForm(scenario, overrides, seed, replicates)


def narrowed(form: SweepForm) -> SweepForm:
    name, values = NARROW[form.scenario]
    kept = tuple((axis, vals) for axis, vals in form.overrides if axis != name)
    return SweepForm(form.scenario, kept + ((name, values),), form.seed, form.replicates)


def job_plan(seed: int) -> tuple[list[SweepForm], list[tuple[str, SweepForm]]]:
    """A round's warm-up jobs and its timed ``(kind, form)`` sequence.

    Every round of one seed runs the same plan against a fresh server.
    """
    rng = random.Random(f"service-mix:{seed}")
    warmup = [fresh_form(scenario, rng.randrange(2**31)) for scenario in FRESH]
    history = list(warmup)
    fresh_history = list(warmup)
    plan: list[tuple[str, SweepForm]] = []
    for _ in range(BLOCKS_PER_ROUND):
        # sources come from earlier blocks
        earlier, earlier_fresh = list(history), list(fresh_history)
        block = [("fresh", fresh_form(s, rng.randrange(2**31))) for s in FRESH]
        block += [("repeat", rng.choice(earlier)), ("narrow", narrowed(rng.choice(earlier_fresh)))]
        rng.shuffle(block)
        plan.extend(block)
        history.extend(form for _, form in block)
        fresh_history.extend(form for kind, form in block if kind == "fresh")
    return warmup, plan


@dataclass
class JobOutcome:
    kind: str
    form: SweepForm
    job_id: str = ""
    deduplicated: bool = False
    num_trials: int = 0
    latency_s: float = 0.0
    ingest_lag_s: float = 0.0
    unqueryable: bool = False
    payload: dict[str, Any] = field(default_factory=dict)


class Client:
    """One closed-loop client and its request counters.

    Like the program's own ``SweepServiceClient``, it opens one connection
    per request (``Connection: close``).
    """

    def __init__(self, port: int, specs: dict[SweepForm, dict]) -> None:
        self.port = port
        self.specs = specs
        self.requests = 0
        self.poll_s: list[float] = []

    def request(self, method: str, path: str, body: Any = None, poll: bool = False):
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Connection": "close"}
        if payload is not None:
            headers["Content-Type"] = "application/json"
        started = time.monotonic()
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            data = response.read()
        finally:
            connection.close()
        self.requests += 1
        if poll:
            self.poll_s.append(time.monotonic() - started)
        if response.status not in (200, 202):
            raise RuntimeError(f"{method} {path} answered {response.status}: {data[:300]!r}")
        return json.loads(data)

    def run_job(self, kind: str, form: SweepForm) -> JobOutcome:
        outcome = JobOutcome(kind, form)
        spec = self.specs[form]
        submitted = time.monotonic()
        deadline = submitted + JOB_TIMEOUT_S
        answer = self.request("POST", "/api/v1/jobs", {"spec": spec})
        job = answer["job"]
        outcome.job_id = job["job_id"]
        outcome.deduplicated = answer["deduplicated"]
        outcome.num_trials = job["num_trials"]
        while job["state"] not in ("done", "failed"):
            if time.monotonic() > deadline:
                raise TimeoutError(f"{outcome.job_id} still {job['state']}")
            time.sleep(POLL_S)
            job = self.request("GET", f"/api/v1/jobs/{outcome.job_id}", poll=True)
        if job["state"] == "failed":
            raise RuntimeError(f"{outcome.job_id} FAILED: {job['error']}")
        done_seen = time.monotonic()
        outcome.payload = job
        path = f"/api/v1/runs?scenario={form.scenario}&source=service"
        while True:
            runs = self.request("GET", path, poll=True)["runs"]
            if any(Path(run["source_path"]).name == outcome.job_id for run in runs):
                break
            outcome.unqueryable = True
            if time.monotonic() > deadline:
                raise TimeoutError(f"{outcome.job_id} done but never listed by /runs")
            time.sleep(POLL_S)
        listed = time.monotonic()
        outcome.latency_s = listed - submitted
        outcome.ingest_lag_s = listed - done_seen
        return outcome


@dataclass
class ServiceRound:
    """Measurements and outputs of one round."""

    setup_s: float = 0.0
    timed_s: float = 0.0
    outcomes: list[JobOutcome] = field(default_factory=list)
    requests: int = 0
    poll_s: list[float] = field(default_factory=list)
    ingest: Ingest | None = None
    checked_form: SweepForm | None = None
    checked_records: list[dict] = field(default_factory=list)
    wall_s: float = 0.0


def _start_server(bench: Bench, directory: Path, traced: bool):
    args = ["serve", "--port", "0", "--data-dir", str(directory / "svc"),
            "--cache-dir", str(directory / "cache"), "--max-workers", "2"]
    started = bench.popen(args, "serve", directory, traced, stdout_pipe=True)
    process, _, _, spawn = started
    ready, _, _ = select.select([process.stdout], [], [], 120.0)
    line = process.stdout.readline().decode() if ready else ""
    listening = time.monotonic()
    if "listening on http://" not in line:
        stop(process, signal.SIGKILL)
        bench.finish(*started, args)
        raise RuntimeError(f"repro serve did not start: {line!r}")
    port = int(line.rsplit(":", 1)[1].split()[0].strip("/"))
    return started, args, port, listening - spawn


def plan_specs(bench: Bench, seed: int, directory: Path) -> dict[SweepForm, dict]:
    """Every job's spec dict for ``seed``'s plan, resolved by the program's CLI."""
    warmup, plan = job_plan(seed)
    return resolve_specs(bench, warmup + [form for _, form in plan], directory)


def run_round(bench: Bench, seed: int, directory: Path, traced: bool,
              specs: dict[SweepForm, dict]) -> ServiceRound:
    directory.mkdir(parents=True)
    result = ServiceRound()
    round_started = time.monotonic()
    started, args, port, result.setup_s = _start_server(bench, directory, traced)
    process = started[0]
    try:
        warmup, plan = job_plan(seed)
        warm = Client(port, specs)
        warm_outcomes = [warm.run_job("warmup", form) for form in warmup]

        queue = iter(plan)
        lock = threading.Lock()
        clients = [Client(port, specs) for _ in range(CLIENTS)]
        outcomes: list[JobOutcome] = []
        errors: list[str] = []

        def loop(client: Client) -> None:
            while True:
                with lock:
                    item = next(queue, None)
                if item is None:
                    return
                try:
                    outcome = client.run_job(*item)
                except Exception as error:  # counted as a failed operation below
                    with lock:
                        errors.append(f"{item[1].scenario}: {type(error).__name__}: {error}")
                    continue
                with lock:
                    outcomes.append(outcome)

        threads = [threading.Thread(target=loop, args=(c,)) for c in clients]
        timed_start = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        result.timed_s = time.monotonic() - timed_start
        for client in clients:
            result.requests += client.requests
            result.poll_s.extend(client.poll_s)
        for message in errors:
            bench.check(False, f"service job: {message}")
        result.outcomes = outcomes
        _check_outcomes(bench, warm_outcomes + outcomes)

        # outside the timed window: keep one fresh job's records for the
        # service-vs-CLI comparison (chosen from the plan, not the finishing order)
        fresh_forms = [form for kind, form in plan if kind == "fresh"]
        chosen = random.Random(f"service-mix:{seed}:check").choice(fresh_forms)
        job_ids = [o.job_id for o in outcomes if o.form == chosen]
        if job_ids:
            answer = Client(port, specs).request("GET", f"/api/v1/jobs/{job_ids[0]}/records")
            result.checked_form = chosen
            result.checked_records = answer["records"]
        distinct = {o.job_id: o.num_trials for o in warm_outcomes + outcomes}
        expected_trials = sum(distinct.values())
    finally:
        stop(process)
        bench.finish(*started, args)
        process.stdout.close()

    jobs = directory / "svc" / "jobs"
    result.ingest = run_ingest(bench, [jobs], expected_trials, INGEST_TRIALS, directory, traced)
    if result.ingest.child.ok:
        added = result.ingest.trials_added
        bench.check(added == [expected_trials] * len(added),
                    f"re-ingest indexed {added} of {expected_trials} job trials")
    result.wall_s = time.monotonic() - round_started
    return result


def _check_outcomes(bench: Bench, outcomes: list[JobOutcome]) -> None:
    """Singleflight: all submissions of one spec share one job, executed once.

    Which submission creates the job depends on arrival order (a repeat can
    reach the server before its source), so only the grouping is checked.
    """
    by_form: dict[SweepForm, list[JobOutcome]] = {}
    for outcome in outcomes:
        by_form.setdefault(outcome.form, []).append(outcome)
    for form, group in by_form.items():
        job_ids = {o.job_id for o in group}
        created = sum(not o.deduplicated for o in group)
        bench.check(len(job_ids) == 1 and created == 1,
                    f"{len(group)} submissions of one {form.scenario} spec got jobs "
                    f"{sorted(job_ids)}, {created} of them not deduplicated")


def check(bench: Bench, seed: int, default_seed: int, last: ServiceRound,
          directory: Path) -> str:
    """Service-vs-CLI ``==`` check and the pinned default-seed digest."""
    directory.mkdir(parents=True)
    commands = []
    if last.checked_form is not None:
        commands.append(["sweep", *last.checked_form.argv(), "--no-cache",
                         "--output", str(directory / "cli")])
    rng = random.Random(f"service-mix:{default_seed}:pin")
    pin_forms = [fresh_form(scenario, rng.randrange(2**31)) for scenario in FRESH]
    for index, form in enumerate(pin_forms):
        commands.append(["sweep", *form.argv(), "--no-cache",
                         "--output", str(directory / f"pin-{index}")])
    batch = directory / "commands.json"
    batch.write_text(json.dumps(commands))
    child = bench.run(["--batch", str(batch)], "checks", directory)
    if not child.ok:
        return ""
    if last.checked_form is not None:
        cli_records = read_jsonl(directory / "cli" / "results.jsonl")
        bench.check(cli_records == last.checked_records,
                    f"service job records of {last.checked_form.scenario} differ "
                    f"from a CLI sweep of the same spec")
    else:
        bench.check(False, "no fresh service job to compare with the CLI")
    pinned = []
    for index in range(len(pin_forms)):
        pinned.extend(read_jsonl(directory / f"pin-{index}" / "results.jsonl"))
    return records_digest(pinned)
