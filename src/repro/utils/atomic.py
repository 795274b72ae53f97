"""Atomic file writes: same-directory temp file + :func:`os.replace`.

Every artefact the experiments subsystem persists (cache records, JSONL
results, manifests, CSV exports, trace files) goes through this helper, so a
process killed mid-write — including ``kill -9``, which runs no cleanup —
never leaves a torn file behind.  Readers either see the previous complete
version of the file or the new complete version, nothing in between:

* the temp file ``.<name>.<pid>.<counter>.tmp`` is created exclusively in the
  *destination directory* (``os.replace`` is only atomic within one
  filesystem);
* the payload is fully written and the file closed before the rename, so the
  rename never publishes a partially-written file;
* concurrent writers of the same path are safe in the last-write-wins sense:
  both renames succeed, the file ends up as one writer's complete payload.

The destination directory is created only when the temp file cannot be
opened for lack of it, so the hot path (one cache record per trial) costs a
single ``open``/``write``/``close``/``rename`` and still recovers when a
long-lived process finds its directory deleted.
"""

from __future__ import annotations

import itertools
import os
from pathlib import Path
from typing import IO, Any, Callable

__all__ = ["atomic_write_text", "atomic_writer"]

#: Per-process temp-name counter (``next`` on it is atomic under the GIL, so
#: writer threads never draw the same name).
_temp_counter = itertools.count()


def _open_temp(path: str) -> tuple[int, str]:
    """Exclusively create a temp file beside ``path``; returns ``(fd, name)``.

    A name left behind by an earlier process with the same pid is skipped,
    and a missing destination directory is created once, then the open is
    retried.
    """
    directory, name = os.path.split(path)
    made_directory = False
    while True:
        temp = os.path.join(directory, f".{name}.{os.getpid()}.{next(_temp_counter)}.tmp")
        try:
            return os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600), temp
        except FileExistsError:
            continue
        except FileNotFoundError:
            if made_directory or not directory:
                raise
            os.makedirs(directory, exist_ok=True)
            made_directory = True


def _discard(temp: str) -> None:
    """Remove the temp file of a failed write (best effort)."""
    try:
        os.unlink(temp)
    except FileNotFoundError:
        pass


def atomic_writer(path: Path | str, write: Callable[[IO[str]], Any], *, newline: str | None = None) -> Path:
    """Stream output through ``write(handle)`` and atomically publish it at ``path``.

    ``write`` receives a text handle for a temp file in ``path``'s directory;
    when it returns, the temp file replaces ``path`` in one ``os.replace``
    step.  If ``write`` raises, the temp file is removed and ``path`` is left
    exactly as it was (the atomicity contract interrupted sweeps rely on).
    """
    target = os.fspath(path)
    fd, temp = _open_temp(target)
    try:
        with os.fdopen(fd, "w", newline=newline) as handle:
            write(handle)
        os.replace(temp, target)
    except BaseException:
        _discard(temp)
        raise
    return Path(target)


def atomic_write_text(path: Path | str, text: str) -> Path:
    """Atomically write ``text`` (UTF-8) at ``path`` (see :func:`atomic_writer`).

    The whole payload goes through raw ``os.write`` calls — looping over
    partial writes — with no buffered text layer in between.
    """
    target = os.fspath(path)
    fd, temp = _open_temp(target)
    try:
        try:
            remaining = memoryview(text.encode("utf-8"))
            while remaining:
                remaining = remaining[os.write(fd, remaining):]
        finally:
            os.close(fd)
        os.replace(temp, target)
    except BaseException:
        _discard(temp)
        raise
    return Path(target)
