"""Environment fingerprint and git identity for result documents.

Benchmark numbers are only comparable within an environment; the
fingerprint lets the comparator (and a human reading a ``BENCH_*.json``
artifact) see at a glance whether two documents came from the same kind
of machine.  The fingerprint is informational -- comparisons never fail
on a mismatch, they just record it.
"""

from __future__ import annotations

import os
import platform
import subprocess
from typing import Any


def environment_fingerprint() -> dict[str, Any]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "ci": bool(os.environ.get("CI")),
    }


def git_sha(cwd: str | None = None) -> str:
    """Current commit SHA: ``GITHUB_SHA`` in CI, ``git rev-parse`` locally.

    Returns ``"unknown"`` outside a git checkout -- the document stays
    writable from an exported tarball.
    """
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip() or "unknown"
