"""Tests for the shared benchmark helpers in ``benchmarks/_common.py``."""

from __future__ import annotations

import pathlib
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


def _common_module():
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    import _common

    return _common


class TestAtomicEmit:
    def test_emit_creates_results_dir_and_writes_atomically(
        self, tmp_path, monkeypatch, capsys
    ):
        _common = _common_module()
        results = tmp_path / "nested" / "results"
        monkeypatch.setattr(_common, "RESULTS_DIR", str(results))
        _common.emit("atomic_check", "title\n=====\nrow\n")
        out_file = results / "atomic_check.txt"
        assert out_file.read_text().startswith("title")
        assert [p.name for p in results.iterdir()] == ["atomic_check.txt"]
