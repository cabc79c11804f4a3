"""Schedule minimization: delta debugging over workload ops + faults.

When the fuzzer finds a violating composed schedule, raw reports are
painful -- dozens of ops and fault events, most of them irrelevant.
:func:`ddmin` is Zeller's classic delta-debugging algorithm over the
schedule's tagged item list: it keeps splitting the item set into
chunks, testing whether a chunk or its complement still violates, and
recurses on whatever smaller set does; a final greedy pass then tries
dropping each surviving item one by one.  The result is a 1-minimal
repro: removing any single remaining item makes the violation vanish.

The predicate re-runs a full soak per test, so the call budget is
capped (``max_tests``); with the default CI-scale cases (sub-second
soaks) a full minimization is a few seconds of wall clock.  The
algorithm itself is deterministic -- chunk boundaries derive only from
item order -- so one violating seed always minimizes to the same
digest, which is what the fuzz report commits to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from repro.core.errors import ReproError

T = TypeVar("T")


@dataclass
class MinimizeResult:
    """Outcome of one minimization run."""

    items: list
    original_length: int
    tests_run: int
    #: True when the greedy pass confirmed 1-minimality within budget.
    one_minimal: bool

    @property
    def length(self) -> int:
        return len(self.items)

    @property
    def reduction(self) -> float:
        """Fraction of the original schedule removed (0..1)."""
        if self.original_length == 0:
            return 0.0
        return 1.0 - len(self.items) / self.original_length


def ddmin(
    items: Sequence[T],
    violates: Callable[[list[T]], bool],
    max_tests: int = 256,
) -> MinimizeResult:
    """Shrink ``items`` to a smaller list that still violates.

    ``violates`` must be deterministic and must hold for the full input
    (checked; raises ``ValueError`` otherwise so vacuous minimizations
    cannot slip through).  Items keep their relative order throughout.
    """
    current = list(items)
    tests = 0

    def test(candidate: list[T]) -> bool:
        nonlocal tests
        tests += 1
        return violates(candidate)

    if not test(current):
        raise ReproError("full schedule does not violate; nothing to minimize")

    granularity = 2
    while len(current) >= 2 and tests < max_tests:
        chunks = _split(current, granularity)
        reduced = False

        # Try each chunk alone, then each complement.
        for chunk in chunks:
            if tests >= max_tests:
                break
            if len(chunk) < len(current) and test(chunk):
                current = chunk
                granularity = 2
                reduced = True
                break
        if not reduced:
            for i in range(len(chunks)):
                if tests >= max_tests:
                    break
                complement = [
                    item for j, chunk in enumerate(chunks)
                    if j != i for item in chunk
                ]
                if len(complement) < len(current) and test(complement):
                    current = complement
                    granularity = max(granularity - 1, 2)
                    reduced = True
                    break
        if not reduced:
            if granularity >= len(current):
                break
            granularity = min(len(current), granularity * 2)

    # Greedy 1-minimality pass: try dropping each item once.
    one_minimal = True
    i = 0
    while i < len(current) and len(current) > 1:
        if tests >= max_tests:
            one_minimal = False
            break
        candidate = current[:i] + current[i + 1:]
        if test(candidate):
            current = candidate
        else:
            i += 1

    return MinimizeResult(
        items=current,
        original_length=len(items),
        tests_run=tests,
        one_minimal=one_minimal,
    )


def _split(items: list[T], n: int) -> list[list[T]]:
    """Split into ``n`` contiguous chunks as evenly as possible."""
    n = min(n, len(items))
    size, rest = divmod(len(items), n)
    chunks: list[list[T]] = []
    start = 0
    for i in range(n):
        end = start + size + (1 if i < rest else 0)
        chunks.append(items[start:end])
        start = end
    return chunks
