"""Shared helpers for the per-figure/table benchmark harnesses.

Every bench writes its paper-style table both to stdout and to
``benchmarks/results/<name>.txt`` so the numbers recorded in
EXPERIMENTS.md can be regenerated with
``pytest benchmarks --ignore=benchmarks/ledger --benchmark-disable``.
The benches reproduce the paper's figure *shapes* and assert on them;
the perf instrument is the ledger (``benchmarks/ledger/README.md``).

Scale note: the paper's Section 7.3 simulations use the full AT&T
backbone with 10 000 chains and CPLEX; this harness runs the identical
formulations on the synthetic 25-PoP backbone with a reduced chain count
so that SB-LP (which took the authors up to 3 hours) completes in
seconds-to-minutes.  Trends, orderings, and gap magnitudes are the
reproduction target, not absolute Gbps.
"""

from __future__ import annotations

import os
import tempfile
from typing import Sequence

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def metrics_enabled() -> bool:
    """True when the REPRO_METRICS environment variable opts in."""
    return os.environ.get("REPRO_METRICS", "0") not in ("", "0")


@pytest.fixture
def obs_registry():
    """Opt-in observability for benchmark runs.

    Yields ``None`` by default, so instrumented code paths stay on their
    zero-cost branch and benchmark numbers are unaffected.  Run with
    ``REPRO_METRICS=1`` to get a live :class:`repro.obs.MetricsRegistry`
    instead; its full report is printed at teardown (use ``pytest -s``).
    """
    if not metrics_enabled():
        yield None
        return
    from repro.obs import MetricsRegistry, render_report

    registry = MetricsRegistry()
    yield registry
    print("\n" + render_report(registry, title="benchmark metrics"))


def format_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    notes: Sequence[str] = (),
) -> str:
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(str(cell).ljust(w) for cell, w in zip(row, widths))
        )
    for note in notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically (tmp file + ``os.replace``).

    Parallel benchmark runs (``pytest -n``) may emit the same result
    file concurrently; the unique tmp name keeps writers from
    clobbering each other mid-write and the rename makes the final
    file appear whole or not at all.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=f".{os.path.basename(path)}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def emit(name: str, table: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    print("\n" + table)
    write_atomic(os.path.join(RESULTS_DIR, f"{name}.txt"), table)


def fmt(value: float, digits: int = 2) -> str:
    if value == float("inf"):
        return "inf"
    return f"{value:.{digits}f}"
