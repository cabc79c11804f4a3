"""The install protocol core: one sans-I/O two-phase commit.

A Switchboard install is one idea (paper Section 3, Figure 4): the
coordinator plans a route, asks every participant on it to *prepare*,
and only when all agreed tells them to *commit*; a rejection aborts the
attempt and the next attempt re-plans.  This module is that protocol
and nothing else -- ``(state, event) -> (state, actions)``, with no
clock, transport, store or registered callback -- in the manner of
NetChain's split between the coordination state machine and the fabric
that carries it.  DESIGN.md "Install protocol core" has the state table
and what each of the four drivers keeps on its side of the seam.

The abort rule is one rule: everyone who was *sent* a prepare this
attempt, except the culprits (the rejecter, the unreachable one, or at
a timeout everyone still awaited).  With every prepare in flight at
once that is "all others"; one at a time it is "the prepared ones".
After the decide point nothing aborts: a commit that cannot be
confirmed is reported ``owed`` and the driver chooses what that means.

The fence rule (per participant key, epoch 0 at first): a message of
attempt ``a`` is stale iff ``a < epoch``.  A prepare raises the epoch to
``a``; an abort to ``a + 1``, so retransmits of the aborted attempt are
fenced while the next attempt passes; a teardown past :data:`TOMBSTONE`.
The regional participant used to stop at ``a`` on abort and at exactly
``TOMBSTONE`` on teardown; every committed replay digest is unchanged
under the stricter VNF-side values, so there is one rule
(``RegionalNode._apply_reconcile`` compares ``epoch <= upto`` against
real attempt numbers only, which neither difference can cross).

The recovery rule is one rule too: :func:`recover` decides a standby's
takeover from the durable install records alone -- release what was
preparing, re-drive what was committing -- for both standbys.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable

#: Action kinds.  An action is the plain tuple ``(kind, arg, attempt)``:
#: ``arg`` is a tuple of participant keys for the three message kinds,
#: and one key (or None) otherwise.
PREPARE, COMMIT, ABORT = "prepare", "commit", "abort"
#: The commit point: durable records land before any commit leaves.
DECIDE = "decide"
#: A commit could not be confirmed at ``arg`` (refused or unreachable).
OWED = "owed"
#: Verdicts, one per attempt.  ``retry``: rejected by ``arg`` with budget
#: left -- re-plan and :meth:`Install.start` again; ``rejected``: budget
#: spent; ``unavailable``: ``arg`` unreachable before the decide point;
#: ``installed``: every commit is confirmed or owed.
RETRY, REJECTED = "retry", "rejected"
UNAVAILABLE, INSTALLED = "unavailable", "installed"
VERDICTS = frozenset((RETRY, REJECTED, UNAVAILABLE, INSTALLED))

#: Phases; while PREPARING / COMMITTING the replies of that kind count.
IDLE, DONE, FAILED = "idle", "done", "failed"
PREPARING, COMMITTING = PREPARE, COMMIT


class AttemptCounter:
    """Monotonic source of attempt numbers, the epochs participants
    fence on: private to an install (0, 1, 2, ...), or shared by every
    install of a coordinator whose participants fence across installs."""

    __slots__ = ("last",)

    def __init__(self, last: int = -1):
        self.last = last

    def next(self) -> int:
        self.last += 1
        return self.last


class Install:
    """The coordinator side of one install, over all its attempts.

    ``fan_out`` fixes the prepare window: every participant at once, or
    one at a time (the next prepare leaves when the previous is acked).
    Every event returns the actions the driver must carry out, in order.
    """

    __slots__ = (
        "max_attempts", "fan_out", "phase", "attempt_no", "attempt",
        "_attempts", "_participants", "_sent", "_awaited", "_aborted",
    )

    def __init__(
        self,
        max_attempts: int,
        fan_out: bool,
        attempts: AttemptCounter | None = None,
    ):
        self.max_attempts = max_attempts
        self.fan_out = fan_out
        self.phase = IDLE
        #: Attempts already spent (the planner's retry lever).
        self.attempt_no = 0
        #: Fencing number of the current (or last) attempt.
        self.attempt = -1
        self._attempts = attempts if attempts is not None else AttemptCounter()
        self._participants: tuple = ()
        #: How many of ``_participants`` (a prefix) were sent a prepare.
        self._sent = 0
        #: Keys whose prepare or commit reply is outstanding.
        self._awaited: set = set()
        #: Abort set of the last failed attempt.
        self._aborted: tuple = ()

    def start(self, participants: Iterable[Hashable]) -> tuple:
        """Begin an attempt over the planned participants (in the order
        their messages should leave)."""
        if self.phase != IDLE:
            raise RuntimeError(f"start() in phase {self.phase!r}")
        self._participants = tuple(participants)
        attempt = self.attempt = self._attempts.next()
        if not self._participants:
            self.phase = DONE
            return ((DECIDE, None, attempt), (INSTALLED, None, attempt))
        self.phase = PREPARING
        self._sent = len(self._participants) if self.fan_out else 1
        window = self._participants[: self._sent]
        self._awaited = set(window)
        return ((PREPARE, window, attempt),)

    def reply(self, kind: str, key: Hashable, attempt: int, ok: bool) -> tuple:
        """``key`` answered the ``kind`` (prepare / commit) message of
        ``attempt``.  Ignored unless exactly that answer is awaited."""
        if (
            kind != self.phase
            or attempt != self.attempt
            or key not in self._awaited
        ):
            return ()
        if kind == COMMIT:
            return self._settle(key, owed=not ok)
        if not ok:
            return self._end_attempt((key,), RETRY)
        self._awaited.discard(key)
        if self._awaited:
            return ()
        if self._sent < len(self._participants):
            nxt = self._participants[self._sent]
            self._sent += 1
            self._awaited.add(nxt)
            return ((PREPARE, (nxt,), attempt),)
        self.phase = COMMITTING
        self._awaited = set(self._participants)
        return ((DECIDE, None, attempt), (COMMIT, self._participants, attempt))

    def unreachable(self, key: Hashable, attempt: int) -> tuple:
        """The transport gave up on the message awaiting ``key``'s reply."""
        if attempt != self.attempt or key not in self._awaited:
            return ()
        if self.phase == PREPARING:
            return self._end_attempt((key,), UNAVAILABLE)
        return self._settle(key, owed=True)

    def timeout(self) -> tuple:
        """The driver's deadline fired: every reply still awaited is
        treated as unreachable."""
        awaited = tuple(k for k in self._participants if k in self._awaited)
        if self.phase == PREPARING:
            return self._end_attempt(awaited, UNAVAILABLE)
        if self.phase == COMMITTING:
            return sum((self._settle(k, owed=True) for k in awaited), ())
        if self.phase != IDLE:
            return ()
        # Between attempts.  The driver ends the install on this verdict,
        # which stops the retransmits of the failed attempt's aborts:
        # re-issue them once more first.
        self.phase = FAILED
        again = ((ABORT, self._aborted, self.attempt),) if self._aborted else ()
        return (*again, (UNAVAILABLE, None, self.attempt))

    def _end_attempt(self, culprits: tuple, cause: str) -> tuple:
        sent = self._participants[: self._sent]
        self._aborted = tuple(k for k in sent if k not in culprits)
        self._awaited = set()
        if cause == RETRY and self.attempt_no + 1 < self.max_attempts:
            self.attempt_no += 1
            self.phase = IDLE
        else:
            self.phase = FAILED
            cause = REJECTED if cause == RETRY else UNAVAILABLE
        verdict = (cause, culprits[0], self.attempt)
        if self._aborted:
            return ((ABORT, self._aborted, self.attempt), verdict)
        return (verdict,)

    def _settle(self, key: Hashable, owed: bool) -> tuple:
        self._awaited.discard(key)
        actions = ((OWED, key, self.attempt),) if owed else ()
        if not self._awaited:
            self.phase = DONE
            actions += ((INSTALLED, None, self.attempt),)
        return actions


#: Recovery actions, :func:`recover`'s plain tuples ``(kind, name,
#: record)``: forget a ``PREPARING`` install after releasing its
#: participants (its outcome is unknown -- the fence makes the release
#: safe), and drive a ``COMMITTING`` one on (the durable record owns the
#: capacity).
RELEASE, REDRIVE = "release", "redrive"


def recover(records: dict, attempt_high_water: int) -> tuple[tuple, int]:
    """A standby's takeover, decided from the install records a dead
    coordinator left: name -> ``{"phase", "participants", "attempt",
    "origin"}``.  Returns the actions in name order, and the attempt to
    resume from -- above every epoch the old coordinator fenced with."""
    actions = tuple(
        (RELEASE if records[name]["phase"] == PREPARING else REDRIVE,
         name, records[name])
        for name in sorted(records)
    )
    resume = max(
        [attempt_high_water, *(r["attempt"] for r in records.values())]
    )
    return actions, resume


def run_attempt(
    install: Install,
    participants: Iterable[Hashable],
    prepare: Callable[[Hashable, int], bool],
    commit: Callable[[Hashable, int], bool],
    abort: Callable[[Hashable, int], object],
    decide: Callable[[int], object] = lambda attempt: None,
) -> tuple:
    """Drive one attempt to its verdict over a synchronous transport:
    the four callables carry the actions out by direct call, and each
    participant's answer is fed straight back into the machine."""
    queue = list(install.start(participants))
    reply = install.reply
    for kind, arg, attempt in queue:  # the loop also sees what it appends
        if kind == PREPARE or kind == COMMIT:
            send = prepare if kind == PREPARE else commit
            for key in arg:
                queue += reply(kind, key, attempt, send(key, attempt))
        elif kind in VERDICTS:
            return kind, arg, attempt
        elif kind == DECIDE:
            decide(attempt)
        elif kind == ABORT:
            for key in arg:
                abort(key, attempt)
    raise RuntimeError("attempt ended without a verdict")


#: Attempt number carried by teardown messages: larger than any real
#: attempt, so a teardown permanently fences late prepares and commits
#: for the key at that participant.
TOMBSTONE = 1 << 30

STALE, CURRENT, SUPERSEDING = "stale", "current", "superseding"


class Fence:
    """Per-key attempt epochs at a 2PC participant.

    The fence only classifies and records; what a participant answers to
    a stale message (drop it, or reply ``ok=False``) and how it releases
    a superseded reservation stay with the participant."""

    __slots__ = ("_epochs",)

    def __init__(self) -> None:
        self._epochs: dict[Hashable, int] = {}

    def epoch(self, key: Hashable) -> int:
        """Lowest attempt still accepted for ``key`` (0 if never seen)."""
        return self._epochs.get(key, 0)

    def prepare(self, key: Hashable, attempt: int) -> str:
        """Classify a prepare and adopt its attempt unless stale."""
        epoch = self._epochs.get(key, 0)
        if attempt < epoch:
            return STALE
        self._epochs[key] = attempt
        return SUPERSEDING if attempt > epoch else CURRENT

    def admits(self, key: Hashable, attempt: int) -> bool:
        """Whether a commit of ``attempt`` is not stale."""
        return attempt >= self._epochs.get(key, 0)

    def abort(self, key: Hashable, attempt: int) -> bool:
        """Fence the aborted attempt; False if the abort itself is stale."""
        if attempt < self._epochs.get(key, 0):
            return False
        self._epochs[key] = attempt + 1
        return True

    def teardown(self, key: Hashable, attempt: int = TOMBSTONE) -> None:
        self.adopt(key, attempt + 1)

    def adopt(self, key: Hashable, attempt: int) -> None:
        """Raise the epoch to ``attempt`` (reconciliation installed the
        key as of it); never lowers it."""
        self._epochs[key] = max(self._epochs.get(key, 0), attempt)

    def clear(self) -> None:
        self._epochs.clear()
