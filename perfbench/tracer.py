"""Layer spans for a traced run, recorded from outside the program.

:meth:`Tracer.install` wraps the public entry points of each layer of the
``repro`` package in place (module globals and class attributes), so the
program's own files stay untouched.  Spans are kept in memory and written
once, when the process ends (:meth:`Tracer.dump`).

Each span records the layer name, start and end on the system-wide
monotonic clock, its parent span, and a work counter (rows of a batch,
bytes written, trials ingested, 1 for a cache hit).  A call into a layer
that is already the innermost open span of the thread (``run`` calling
``run_dsss`` on the same engine) belongs to the outer span.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable


def _rows(args: tuple, kwargs: dict, result: Any) -> int:
    received = args[1] if len(args) > 1 else kwargs["received"]
    return int(received.shape[0]) if getattr(received, "ndim", 1) == 2 else 1


def _one(args: tuple, kwargs: dict, result: Any) -> int:
    return 1


def _hit(args: tuple, kwargs: dict, result: Any) -> int:
    return int(result is not None)


def _bytes_written(args: tuple, kwargs: dict, result: Any) -> int:
    return sum(os.path.getsize(path) for path in result.values())


def _trials_added(args: tuple, kwargs: dict, result: Any) -> int:
    return int(result.trials_added)


def _pending_trials(args: tuple, kwargs: dict, result: Any) -> int:
    trials = args[1] if len(args) > 1 else kwargs["trials"]
    return len(trials)


#: (module, attribute path, span name, work counter) of every wrapped entry point.
PATCHES: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("repro.cli", "main", "cli.main", None),
    ("repro.experiments.spec", "SweepSpec.expand", "spec.expand", None),
    ("repro.experiments.runner", "run_sweep", "runner.sweep", None),
    ("repro.experiments.runner", "execute_trials", "runner.execute", _pending_trials),
    ("repro.experiments.registry", "trial_channel_problem", "registry.problem_build", None),
    ("repro.experiments.registry", "trial_float_reference", "registry.problem_build", None),
    ("repro.experiments.registry", "trial_estimator", "registry.problem_build", None),
    ("repro.experiments.registry", "trial_ipcore_engine", "registry.problem_build", None),
    ("repro.experiments.cache", "ResultCache.get", "cache.get", _hit),
    ("repro.experiments.cache", "ResultCache.put", "cache.put", None),
    ("repro.experiments.store", "ResultStore.write", "store.write", _bytes_written),
    ("repro.modem.batch", "BatchLinkEngine.run", "modem.link", None),
    ("repro.modem.batch", "BatchLinkEngine.run_dsss", "modem.link", None),
    ("repro.modem.batch", "BatchLinkEngine.run_fsk", "modem.link", None),
    ("repro.core.fixedpoint_mp", "FixedPointMatchingPursuit.estimate", "core.fixedpoint", _one),
    ("repro.core.fixedpoint_mp", "FixedPointMatchingPursuit.estimate_batch",
     "core.fixedpoint", _rows),
    ("repro.core.ipcore.simulator", "IPCoreSimulator.estimate", "core.ipcore", _one),
    ("repro.core.ipcore.batch", "BatchIPCoreEngine.estimate_batch", "core.ipcore", _rows),
    ("repro.core.matching_pursuit", "matching_pursuit", "core.mp", None),
    ("repro.core.matching_pursuit", "matching_pursuit_batch", "core.mp", None),
    ("repro.network.simulator", "NetworkSimulator.__init__", "network.build", None),
    ("repro.network.simulator", "NetworkSimulator.run", "network.engine", None),
    ("repro.network.lifetime", "lifetime_by_platform", "network.lifetime", None),
    ("repro.warehouse.db", "Warehouse.ingest", "warehouse.ingest", _trials_added),
    ("repro.warehouse.db", "Warehouse.runs", "warehouse.query", None),
    ("repro.warehouse.db", "Warehouse.trials", "warehouse.query", None),
    ("repro.service.jobs", "JobQueue._run", "service.job", None),
    ("repro.service.jobs", "JobQueue._ingest", "service.ingest", None),
    ("repro.service.app", "SweepServiceHandler._dispatch", "service.request", None),
    ("repro.service.app", "serve", "service.serve", None),
)


class Tracer:
    """In-memory span recorder of one process."""

    def __init__(self, root_parent: str | None = None) -> None:
        #: Parent of spans opened with an empty stack on the main thread: the
        #: span of the process that started this one, so the trees join.
        self.root_parent = root_parent
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._prefix = f"{os.getpid()}."
        self._local = threading.local()

    def _stack(self) -> list[tuple[str, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[str, str | None] | None:
        stack = self._stack()
        if stack and stack[-1][1] == name:
            return None
        if stack:
            parent = stack[-1][0]
        elif threading.current_thread() is threading.main_thread():
            parent = self.root_parent
        else:
            parent = None
        span_id = self._prefix + str(next(self._ids))
        stack.append((span_id, name))
        return span_id, parent

    def _close(self, opened: tuple[str, str | None], name: str, start: float,
               count: float) -> None:
        end = time.monotonic()
        self._stack().pop()
        self.spans.append([opened[0], opened[1], name, start, end, count])

    @contextmanager
    def span(self, name: str):
        opened = self._open(name)
        start = time.monotonic()
        try:
            yield
        finally:
            if opened is not None:
                self._close(opened, name, start, 0)

    def wrap(self, name: str, function: Callable, counter: Callable | None) -> Callable:
        @functools.wraps(function)
        def traced(*args, **kwargs):
            opened = self._open(name)
            if opened is None:
                return function(*args, **kwargs)
            start = time.monotonic()
            count = 0
            try:
                result = function(*args, **kwargs)
                if counter is not None:
                    count = counter(args, kwargs, result)
                return result
            finally:
                self._close(opened, name, start, count)

        return traced

    def install(self) -> None:
        """Wrap every entry point in :data:`PATCHES` and every scenario's trial."""
        import importlib

        for module_name, path, name, counter in PATCHES:
            module = importlib.import_module(module_name)
            owner_name, _, attribute = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                setattr(owner, attribute,
                        self.wrap(name, owner.__dict__[attribute], counter))
                continue
            original = getattr(module, attribute)
            wrapped = self.wrap(name, original, counter)
            # rebind every module-level reference (`from x import f` copies)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name.split(".")[0] != "repro" or loaded is None:
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapped)

        from repro.experiments.registry import list_scenarios

        for scenario in list_scenarios():
            # Scenario is a frozen dataclass; the trial function is its field
            object.__setattr__(
                scenario, "run_trial", self.wrap("registry.trial", scenario.run_trial, None)
            )

    def dump(self, path: str) -> None:
        """Write the recorded spans as one JSON list (called at process exit)."""
        with open(path, "w") as handle:
            json.dump(list(self.spans), handle)
