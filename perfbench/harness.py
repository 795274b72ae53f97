"""Driver-side plumbing: child processes, driver spans, failures, spec helpers.

The driver never imports ``repro``: every command of the program under test
runs in a fresh child interpreter started through ``child.py``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

HERE = Path(__file__).resolve().parent

#: Seconds a single child command may take before it counts as failed.
CHILD_TIMEOUT_S = 100.0

@dataclass
class Child:
    """What one finished child command did."""

    returncode: int
    spawn_s: float
    ready_s: float | None
    done_s: float | None
    exit_s: float
    stdout: Path

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and self.ready_s is not None and self.done_s is not None

    @property
    def setup_s(self) -> float:
        """Spawn until ``repro.cli`` is imported and the command starts."""
        return self.ready_s - self.spawn_s

    @property
    def body_s(self) -> float:
        """The command itself, after setup."""
        return self.done_s - self.ready_s

    @property
    def wall_s(self) -> float:
        return self.exit_s - self.spawn_s


@dataclass
class Bench:
    """One benchmark run: its work directory, counters and driver spans."""

    root: Path
    work: Path
    trace: bool = False
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    spans: list[list] = field(default_factory=list)
    _ids: Any = field(default_factory=itertools.count)
    _open: list[str] = field(default_factory=list)
    _serial: Any = field(default_factory=itertools.count)

    # ------------------------------------------------------------------ #
    # outcome accounting
    # ------------------------------------------------------------------ #
    def check(self, condition: bool, message: str) -> bool:
        """Count one attempted operation; record it as failed unless ``condition``."""
        self.attempted += 1
        if not condition:
            self.failures.append(message)
            print(f"FAILED: {message}", file=sys.stderr, flush=True)
        return condition

    # ------------------------------------------------------------------ #
    # driver spans (traced runs only)
    # ------------------------------------------------------------------ #
    def open_span(self, name: str) -> tuple[str, str | None, float] | None:
        if not self.trace:
            return None
        span_id = f"{os.getpid()}.d{next(self._ids)}"
        parent = self._open[-1] if self._open else None
        self._open.append(span_id)
        return span_id, parent, time.monotonic()

    def close_span(self, opened, name: str) -> None:
        if opened is None:
            return
        self._open.pop()
        self.spans.append([opened[0], opened[1], name, opened[2], time.monotonic(), 0])

    def collect_spans(self, path: Path) -> None:
        """Adopt the spans a traced child wrote at exit."""
        if self.trace and path.exists():
            self.spans.extend(json.loads(path.read_text()))

    # ------------------------------------------------------------------ #
    # child processes
    # ------------------------------------------------------------------ #
    def env(self) -> dict[str, str]:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["TMPDIR"] = str(self.work)
        for name in ("PERFBENCH_MARKS", "PERFBENCH_SPANS", "PERFBENCH_PARENT"):
            env.pop(name, None)
        return env

    def _child_files(self, label: str) -> tuple[Path, Path, Path, Path]:
        serial = next(self._serial)
        stem = self.work / "logs" / f"{serial:04d}-{label}"
        stem.parent.mkdir(parents=True, exist_ok=True)
        return (stem.with_suffix(".out"), stem.with_suffix(".err"),
                stem.with_suffix(".marks"), stem.with_suffix(".spans"))

    def popen(self, args: Sequence[str], label: str, cwd: Path, traced: bool,
              stdout_pipe: bool = False):
        """Start ``child.py <args>``; returns (process, files, opened span, spawn time)."""
        out, err, marks, spans = self._child_files(label)
        env = self.env()
        env["PERFBENCH_MARKS"] = str(marks)
        opened = self.open_span("proc") if traced else None
        if traced:
            env["PERFBENCH_SPANS"] = str(spans)
            env["PERFBENCH_PARENT"] = opened[0]
        stdout = subprocess.PIPE if stdout_pipe else out.open("wb")
        stderr = err.open("wb")
        spawn = time.monotonic()
        try:
            process = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), *args],
                cwd=cwd, env=env, stdout=stdout, stderr=stderr, stdin=subprocess.DEVNULL,
            )
        finally:
            if not stdout_pipe:
                stdout.close()
            stderr.close()
        return process, (out, err, marks, spans), opened, spawn

    def finish(self, process, files, opened, spawn: float, args: Sequence[str],
               timeout_s: float = CHILD_TIMEOUT_S) -> Child:
        """Wait for a child started by :meth:`popen` and read its marks."""
        out, err, marks, spans = files
        try:
            process.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            stop(process)
        exit_s = time.monotonic()
        self.close_span(opened, "proc")
        self.collect_spans(spans)
        stamps = {}
        if marks.exists():
            for line in marks.read_text().splitlines():
                label, _, value = line.partition(" ")
                stamps[label] = float(value)
        child = Child(process.returncode, spawn, stamps.get("ready"), stamps.get("done"),
                      exit_s, out)
        message = ""
        if not child.ok:
            tail = err.read_text(errors="replace")[-600:] if err.exists() else ""
            message = f"`repro {' '.join(args)}` exited {process.returncode}: {tail}"
        self.check(child.ok, message)
        return child

    def run(self, args: Sequence[str], label: str, cwd: Path, traced: bool = False) -> Child:
        """Run one child command to completion."""
        return self.finish(*self.popen(args, label, cwd, traced), args)

    def python(self, code: str, cwd: Path, extra: Sequence[str] = (),
               stdin: str = "") -> subprocess.CompletedProcess:
        """Run a plain ``python -c`` helper with the program on its path."""
        return subprocess.run(
            [sys.executable, *extra, "-c", code], cwd=cwd, env=self.env(), input=stdin,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )


def stop(process: subprocess.Popen, sig: int = signal.SIGINT, grace_s: float = 30.0) -> None:
    """Ask a child to stop with ``sig``, kill it after ``grace_s``, and reap it."""
    if process.poll() is None:
        process.send_signal(sig)
        try:
            process.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


def peak_child_rss_mb() -> float:
    """Largest resident set of any child reaped so far, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def read_jsonl(path: Path) -> list[dict[str, Any]]:
    with path.open() as handle:
        return [json.loads(line) for line in handle if line.strip()]


@dataclass
class Ingest:
    """One round's ingest: the child, trials each copy indexed, bytes written."""

    child: Child
    trials_added: list[int]
    db_bytes: int
    first_db: Path


def run_ingest(bench: Bench, paths: Sequence[Path], trials: int, target: int,
               directory: Path, traced: bool) -> Ingest:
    """``repro ingest paths`` into ``ceil(target / trials)`` fresh warehouses.

    A round with fewer than ``target`` trials is indexed into several fresh
    warehouses, all by one ``repro`` process, so the timed ingest is long
    enough to measure.
    """
    copies = max(1, math.ceil(target / max(trials, 1)))
    dbs = [directory / f"warehouse-{copy}.sqlite" for copy in range(copies)]
    commands = [["ingest", *map(str, paths), "--db", str(db)] for db in dbs]
    batch = directory / "ingest.json"
    batch.write_text(json.dumps(commands))
    # SQLite syncs every commit; flush the round's earlier writes first, so
    # the ingest's syncs do not also pay for writing back the sweeps' files
    os.sync()
    child = bench.run(["--batch", str(batch)], "ingest", directory, traced)
    if not child.ok:
        return Ingest(child, [], 0, dbs[0])
    # each `repro ingest` ends with its "name: count  name: count ..." summary
    summaries = [line for line in child.stdout.read_text().splitlines()
                 if line.startswith("sources_scanned: ")]
    added = [int(dict(item.split(": ") for item in line.split("  "))["trials_added"])
             for line in summaries]
    return Ingest(child, added, sum(db.stat().st_size for db in dbs), dbs[0])


def records_digest(records: Sequence[dict[str, Any]]) -> str:
    """sha256 of records in canonical JSON, one per line, in the given order."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(json.dumps(record, sort_keys=True, separators=(",", ":")).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def axis_token(value: Any) -> str:
    """A parameter value as ``repro sweep --set`` parses it back."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


@dataclass(frozen=True)
class SweepForm:
    """A sweep as a user types it: scenario, ``--set`` overrides, seed, replicates."""

    scenario: str
    overrides: tuple[tuple[str, tuple], ...] = ()
    seed: int | None = None
    replicates: int | None = None

    def argv(self) -> list[str]:
        args = [self.scenario]
        for name, values in self.overrides:
            args += ["--set", f"{name}=" + ",".join(axis_token(v) for v in values)]
        if self.seed is not None:
            args += ["--seed", str(self.seed)]
        if self.replicates is not None:
            args += ["--replicates", str(self.replicates)]
        return args


#: Resolves a JSON list of ``repro sweep`` argument lists (on stdin) to spec
#: dicts with the CLI's own parser and ``_resolve_spec``.
_RESOLVE = """
import json, sys
from repro.cli import _resolve_spec, build_parser
argvs = json.load(sys.stdin)
json.dump([_resolve_spec(build_parser().parse_args(a))[1].to_dict() for a in argvs], sys.stdout)
"""


def resolve_specs(bench: Bench, forms: Sequence[SweepForm], cwd: Path) -> dict[SweepForm, dict]:
    """The spec dict ``repro sweep`` resolves each form to, computed by the program."""
    distinct = list(dict.fromkeys(forms))
    completed = bench.python(_RESOLVE, cwd, stdin=json.dumps([["sweep", *f.argv()] for f in distinct]))
    if not bench.check(completed.returncode == 0,
                       f"resolving sweep specs failed: {completed.stderr[-600:]}"):
        return {}
    return dict(zip(distinct, json.loads(completed.stdout)))
