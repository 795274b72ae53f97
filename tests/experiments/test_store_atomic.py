"""Atomicity tests for the sweep artefact writes (store, export, traces).

An interrupted write must leave the previous complete file — or no file —
never a torn one.  These tests inject failures mid-write and assert the
destination is untouched and no temp files leak.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis.export import write_csv
from repro.experiments.store import ResultStore, read_jsonl, write_jsonl
from repro.utils import atomic
from repro.utils.atomic import atomic_write_text, atomic_writer


class _Boom(Exception):
    pass


def _exploding_records(good: int):
    """Yield ``good`` records, then blow up mid-stream."""
    for i in range(good):
        yield {"trial_index": i, "value": i * 2.0}
    raise _Boom("simulated crash mid-write")


class TestAtomicWriter:
    def test_writes_and_returns_path(self, tmp_path):
        path = atomic_write_text(tmp_path / "deep" / "file.txt", "payload")
        assert path.read_text() == "payload"

    def test_failure_leaves_previous_version(self, tmp_path):
        target = tmp_path / "file.txt"
        atomic_write_text(target, "version 1")
        with pytest.raises(_Boom):
            atomic_writer(target, lambda handle: (_ for _ in ()).throw(_Boom()))
        assert target.read_text() == "version 1"

    def test_failure_leaves_no_file_when_none_existed(self, tmp_path):
        target = tmp_path / "fresh.txt"
        with pytest.raises(_Boom):
            atomic_writer(target, lambda handle: (_ for _ in ()).throw(_Boom()))
        assert not target.exists()

    def test_no_temp_files_leak(self, tmp_path):
        target = tmp_path / "file.txt"
        atomic_write_text(target, "ok")
        with pytest.raises(_Boom):
            atomic_writer(target, lambda handle: (_ for _ in ()).throw(_Boom()))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file.txt"]


class TestAtomicWriteText:
    """The raw ``os.open``/``os.write`` path of :func:`atomic_write_text`."""

    @pytest.mark.parametrize("call", ["write", "replace"])
    def test_failure_keeps_previous_version_and_leaks_nothing(
        self, tmp_path, monkeypatch, call
    ):
        target = tmp_path / "file.txt"
        atomic_write_text(target, "version 1")

        def fail(*args):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(atomic.os, call, fail)
        with pytest.raises(OSError):
            atomic_write_text(target, "version 2")
        monkeypatch.undo()
        assert target.read_text() == "version 1"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file.txt"]

    def test_partial_writes_are_completed(self, tmp_path, monkeypatch):
        real_write = os.write
        sizes: list[int] = []

        def trickle(fd, data):
            sizes.append(real_write(fd, bytes(data[:3])))
            return sizes[-1]

        monkeypatch.setattr(atomic.os, "write", trickle)
        text = "déjà vu " * 5
        path = atomic_write_text(tmp_path / "file.txt", text)
        monkeypatch.undo()
        assert path.read_text(encoding="utf-8") == text
        assert len(sizes) > 1 and sum(sizes) == len(text.encode("utf-8"))

    def test_existing_temp_name_is_skipped(self, tmp_path, monkeypatch):
        monkeypatch.setattr(atomic, "_temp_counter", iter(range(7, 100)))
        stale = tmp_path / f".file.txt.{os.getpid()}.7.tmp"
        stale.write_text("orphan of an earlier process")
        atomic_write_text(tmp_path / "file.txt", "fresh")
        assert (tmp_path / "file.txt").read_text() == "fresh"
        assert stale.read_text() == "orphan of an earlier process"
        assert sorted(p.name for p in tmp_path.iterdir()) == [stale.name, "file.txt"]

    def test_missing_directory_is_created(self, tmp_path):
        path = atomic_write_text(str(tmp_path / "a" / "b" / "file.txt"), "x")
        assert path == tmp_path / "a" / "b" / "file.txt"
        assert path.read_text() == "x"


class TestWriteJsonlAtomicity:
    def test_round_trip(self, tmp_path):
        records = [{"a": 1}, {"a": 2}]
        path = write_jsonl(tmp_path / "results.jsonl", records)
        assert read_jsonl(path) == records

    def test_interrupted_write_preserves_previous_results(self, tmp_path):
        target = tmp_path / "results.jsonl"
        original = [{"trial_index": 0, "value": 1.0}]
        write_jsonl(target, original)
        with pytest.raises(_Boom):
            write_jsonl(target, _exploding_records(good=3))
        # the torn write never reached the destination
        assert read_jsonl(target) == original
        assert list(tmp_path.glob("*.tmp")) == []

    def test_interrupted_first_write_leaves_nothing(self, tmp_path):
        target = tmp_path / "results.jsonl"
        with pytest.raises(_Boom):
            write_jsonl(target, _exploding_records(good=2))
        assert not target.exists()


class TestWriteCsvAtomicity:
    def test_interrupted_write_preserves_previous_csv(self, tmp_path):
        target = tmp_path / "results.csv"
        write_csv(target, ["a"], [[1], [2]])
        before = target.read_text()

        def _exploding_rows():
            yield [3]
            raise _Boom()

        with pytest.raises(_Boom):
            write_csv(target, ["a"], _exploding_rows())
        assert target.read_text() == before


class TestManifestAtomicity:
    def test_manifest_is_complete_json(self, tmp_path):
        store = ResultStore(tmp_path)
        written = store.write(
            [{"trial_index": 0, "value": 1.0}],
            spec={"scenario": "s"},
            stats={"executed": 1},
        )
        manifest = json.loads(written["manifest"].read_text())
        assert manifest == {"spec": {"scenario": "s"}, "stats": {"executed": 1}}

    def test_unserialisable_stats_leave_previous_manifest(self, tmp_path):
        store = ResultStore(tmp_path)
        store.write([{"a": 1}], spec={"scenario": "s"}, stats={"executed": 1})
        before = (tmp_path / "manifest.json").read_text()
        with pytest.raises(TypeError):
            store.write([{"a": 1}], spec={"scenario": "s"}, stats={"bad": object()})
        assert (tmp_path / "manifest.json").read_text() == before
        assert list(tmp_path.glob("*.tmp")) == []
