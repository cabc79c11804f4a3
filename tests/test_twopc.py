"""The install-protocol core as tables: every (phase, event) pair of the
coordinator machine, every (fence state, message) pair of the
participant fence, and one seeded random-interleaving property run.
No simulator, transport or store is involved -- the core has none."""

from __future__ import annotations

import random
import re
from pathlib import Path

import pytest

from repro.controller import twopc
from repro.controller.twopc import (
    ABORT, COMMIT, COMMITTING, CURRENT, DECIDE, DONE, FAILED, IDLE,
    INSTALLED, OWED, PREPARE, PREPARING, REDRIVE, REJECTED, RELEASE, RETRY,
    STALE, SUPERSEDING, TOMBSTONE, UNAVAILABLE, AttemptCounter, Fence,
    Install,
)

P = ("a", "b", "c")


def machine(phase, fan_out=False, max_attempts=2):
    """An install over ``P`` driven to the named phase (attempt 0)."""
    m = Install(max_attempts, fan_out)
    if phase == IDLE:
        return m
    m.start(P)
    if phase == PREPARING:
        return m
    if phase == "backoff":  # IDLE again, one attempt spent
        m.reply(PREPARE, "a", 0, True)
        m.reply(PREPARE, "b", 0, False)
        return m
    if phase == FAILED:
        m.unreachable("a", 0)
        return m
    for key in P:
        m.reply(PREPARE, key, 0, True)
    if phase == COMMITTING:
        return m
    for key in P:
        m.reply(COMMIT, key, 0, True)
    assert phase == DONE
    return m


EVENTS = {
    "prepare_ok": lambda m: m.reply(PREPARE, "a", 0, True),
    "prepare_no": lambda m: m.reply(PREPARE, "a", 0, False),
    "commit_ok": lambda m: m.reply(COMMIT, "a", 0, True),
    "commit_no": lambda m: m.reply(COMMIT, "a", 0, False),
    "unreachable": lambda m: m.unreachable("a", 0),
    "timeout": lambda m: m.timeout(),
    "stale_prepare": lambda m: m.reply(PREPARE, "a", 7, False),
    "stale_commit": lambda m: m.reply(COMMIT, "a", 7, False),
    "stale_unreachable": lambda m: m.unreachable("a", 7),
    "unknown_key": lambda m: m.reply(PREPARE, "zz", 0, False),
}

#: (phase, event) -> (next phase, actions); pairs not listed are no-ops.
TABLE = {
    (IDLE, "timeout"): (FAILED, ((UNAVAILABLE, None, -1),)),
    (PREPARING, "prepare_ok"): (PREPARING, ((PREPARE, ("b",), 0),)),
    (PREPARING, "prepare_no"): (IDLE, ((RETRY, "a", 0),)),
    (PREPARING, "unreachable"): (FAILED, ((UNAVAILABLE, "a", 0),)),
    (PREPARING, "timeout"): (FAILED, ((UNAVAILABLE, "a", 0),)),
    ("backoff", "timeout"): (
        FAILED, ((ABORT, ("a",), 0), (UNAVAILABLE, None, 0)),
    ),
    (COMMITTING, "commit_ok"): (COMMITTING, ()),
    (COMMITTING, "commit_no"): (COMMITTING, ((OWED, "a", 0),)),
    (COMMITTING, "unreachable"): (COMMITTING, ((OWED, "a", 0),)),
    (COMMITTING, "timeout"): (
        DONE,
        ((OWED, "a", 0), (OWED, "b", 0), (OWED, "c", 0), (INSTALLED, None, 0)),
    ),
}
PHASES = (IDLE, PREPARING, "backoff", COMMITTING, DONE, FAILED)


@pytest.mark.parametrize("event", sorted(EVENTS))
@pytest.mark.parametrize("phase", PHASES)
def test_every_phase_event_pair(phase, event):
    m = machine(phase)
    before = IDLE if phase == "backoff" else phase
    want_phase, want_actions = TABLE.get((phase, event), (before, ()))
    assert EVENTS[event](m) == want_actions
    assert m.phase == want_phase


def test_start_only_from_idle():
    for phase in (PREPARING, COMMITTING, DONE, FAILED):
        with pytest.raises(RuntimeError):
            machine(phase).start(P)
    assert machine("backoff").start(P) == ((PREPARE, ("a",), 1),)


def test_no_participants_decides_at_once():
    m = Install(3, fan_out=True)
    assert m.start(()) == ((DECIDE, None, 0), (INSTALLED, None, 0))
    assert m.phase == DONE


def test_sequential_window_and_decide_point():
    m = Install(1, fan_out=False)
    assert m.start(P) == ((PREPARE, ("a",), 0),)
    assert m.reply(PREPARE, "a", 0, True) == ((PREPARE, ("b",), 0),)
    assert m.reply(PREPARE, "a", 0, True) == ()  # duplicate ack
    assert m.reply(PREPARE, "b", 0, True) == ((PREPARE, ("c",), 0),)
    assert m.reply(PREPARE, "c", 0, True) == (
        (DECIDE, None, 0), (COMMIT, P, 0),
    )
    assert m.reply(COMMIT, "b", 0, True) == ()
    assert m.reply(COMMIT, "b", 0, True) == ()  # duplicate ack
    assert m.reply(COMMIT, "a", 0, True) == ()
    assert m.reply(COMMIT, "c", 0, True) == ((INSTALLED, None, 0),)
    assert m.reply(COMMIT, "c", 0, True) == ()  # reply after done


def test_abort_set_is_everyone_sent_except_the_culprit():
    """One rule, two windows: "all others" under fan-out, "the prepared
    ones" one at a time."""
    fan = Install(2, fan_out=True)
    assert fan.start(P) == ((PREPARE, P, 0),)
    assert fan.reply(PREPARE, "b", 0, False) == (
        (ABORT, ("a", "c"), 0), (RETRY, "b", 0),
    )
    seq = machine(PREPARING)
    seq.reply(PREPARE, "a", 0, True)
    assert seq.reply(PREPARE, "b", 0, False) == (
        (ABORT, ("a",), 0), (RETRY, "b", 0),
    )
    # Unreachable before the decide point: same set, but no retry.
    seq = machine(PREPARING)
    seq.reply(PREPARE, "a", 0, True)
    assert seq.unreachable("b", 0) == (
        (ABORT, ("a",), 0), (UNAVAILABLE, "b", 0),
    )
    # A timeout's culprits are everyone still awaited.
    fan = Install(2, fan_out=True)
    fan.start(P)
    fan.reply(PREPARE, "b", 0, True)
    assert fan.timeout() == ((ABORT, ("b",), 0), (UNAVAILABLE, "a", 0))


def test_retry_budget_and_attempt_numbers():
    m = Install(3, fan_out=True)
    verdicts = []
    for attempt in range(3):
        assert m.attempt_no == attempt
        assert m.start(("a",)) == ((PREPARE, ("a",), attempt),)
        # A late rejection of an earlier attempt changes nothing.
        assert m.reply(PREPARE, "a", attempt - 1, False) == ()
        verdicts.append(m.reply(PREPARE, "a", attempt, False)[-1])
    assert verdicts == [(RETRY, "a", 0), (RETRY, "a", 1), (REJECTED, "a", 2)]
    assert m.phase == FAILED


def test_shared_counter_numbers_attempts_across_installs():
    counter = AttemptCounter(0)
    first, second = Install(2, False, counter), Install(2, False, counter)
    assert first.start(("a",))[0][2] == 1
    assert second.start(("a",))[0][2] == 2
    first.reply(PREPARE, "a", 1, False)
    assert first.start(("a",))[0][2] == 3
    assert counter.last == 3


def test_unreachable_after_decide_is_owed_not_aborted():
    m = machine(COMMITTING)
    assert m.reply(COMMIT, "a", 0, True) == ()
    assert m.unreachable("b", 0) == ((OWED, "b", 0),)
    assert m.unreachable("b", 0) == ()
    assert m.reply(COMMIT, "c", 0, False) == (
        (OWED, "c", 0), (INSTALLED, None, 0),
    )
    assert m.phase == DONE


# -- the fence ---------------------------------------------------------------

def fence_in(state):
    f = Fence()
    if state == "current":      # epoch == 3, message attempt 3
        f.prepare("k", 3)
    elif state == "stale":      # epoch 4 after an abort of 3
        f.prepare("k", 3)
        f.abort("k", 3)
        f.prepare("k", 4)
    elif state == "superseding":  # epoch 2 < message attempt 3
        f.prepare("k", 2)
    elif state == "tombstoned":
        f.teardown("k")
    return f


#: (state, op) -> (result of op with attempt 3, epoch afterwards)
FENCE_TABLE = {
    ("stale", "prepare"): (STALE, 4),
    ("stale", "commit"): (False, 4),
    ("stale", "abort"): (False, 4),
    ("stale", "teardown"): (None, TOMBSTONE + 1),
    ("current", "prepare"): (CURRENT, 3),
    ("current", "commit"): (True, 3),
    ("current", "abort"): (True, 4),
    ("current", "teardown"): (None, TOMBSTONE + 1),
    ("superseding", "prepare"): (SUPERSEDING, 3),
    ("superseding", "commit"): (True, 2),
    ("superseding", "abort"): (True, 4),
    ("superseding", "teardown"): (None, TOMBSTONE + 1),
    ("tombstoned", "prepare"): (STALE, TOMBSTONE + 1),
    ("tombstoned", "commit"): (False, TOMBSTONE + 1),
    ("tombstoned", "abort"): (False, TOMBSTONE + 1),
    ("tombstoned", "teardown"): (None, TOMBSTONE + 1),
}


@pytest.mark.parametrize("state,op", sorted(FENCE_TABLE))
def test_fence_table(state, op):
    f = fence_in(state)
    result = {
        "prepare": lambda: f.prepare("k", 3),
        "commit": lambda: f.admits("k", 3),
        "abort": lambda: f.abort("k", 3),
        "teardown": lambda: f.teardown("k", TOMBSTONE),
    }[op]()
    assert (result, f.epoch("k")) == FENCE_TABLE[(state, op)]


def test_fence_keys_are_independent_and_adopt_never_lowers():
    f = fence_in("stale")
    assert f.epoch("other") == 0 and f.prepare("other", 0) == CURRENT
    f.adopt("k", 2)
    assert f.epoch("k") == 4
    f.adopt("k", 9)
    assert f.epoch("k") == 9
    f.clear()
    assert f.epoch("k") == 0


# -- random interleavings ----------------------------------------------------

def _interleave(seed: int) -> None:
    rng = random.Random(seed)
    keys = [f"p{i}" for i in range(rng.randint(1, 4))]
    counter = AttemptCounter(rng.randint(-1, 5))
    m = Install(rng.randint(1, 3), rng.random() < 0.5, counter)
    sent: dict[int, set] = {}      # attempt -> keys sent a prepare
    acked: dict[int, set] = {}     # attempt -> keys whose ok reached m
    decided: dict[int, dict] = {}  # attempt -> key -> [commits, aborts]
    culprits: dict[int, set] = {}
    planned: dict[int, tuple] = {}
    in_flight: list[tuple] = []    # (kind, key, attempt, ok) replies due
    delivered: list[tuple] = []
    verdicts: list[tuple] = []

    def absorb(actions, blamed=None):
        for kind, arg, attempt in actions:
            if kind == PREPARE:
                sent[attempt].update(arg)
                in_flight.extend(
                    (PREPARE, k, attempt, rng.random() < 0.8) for k in arg
                )
            elif kind == COMMIT:
                # Never before every prepare of the attempt was acked.
                assert acked[attempt] == set(planned[attempt]) == sent[attempt]
                in_flight.extend(
                    (COMMIT, k, attempt, rng.random() < 0.9) for k in arg
                )
            if kind in (COMMIT, ABORT):
                for k in arg:
                    decided[attempt].setdefault(k, [0, 0])[kind == ABORT] += 1
            elif kind in twopc.VERDICTS:
                verdicts.append((kind, attempt))
                if kind != INSTALLED:
                    culprits[attempt] = blamed(attempt)

    def start():
        plan = tuple(rng.sample(keys, rng.randint(1, len(keys))))
        actions = m.start(plan)
        attempt = actions[0][2]
        assert attempt not in planned  # attempt numbers never repeat
        planned[attempt] = plan
        sent[attempt], acked[attempt], decided[attempt] = set(), set(), {}
        absorb(actions)

    def feed(reply, lost=False):
        kind, key, attempt, ok = reply
        if lost:
            absorb(m.unreachable(key, attempt), lambda a: {key})
        elif kind == PREPARE:
            actions = m.reply(PREPARE, key, attempt, ok)
            if ok and m.attempt == attempt and key in sent[attempt]:
                acked[attempt].add(key)
            absorb(actions, lambda a: {key})
        else:
            absorb(m.reply(COMMIT, key, attempt, ok))

    start()
    for _ in range(200):
        if m.phase in (DONE, FAILED):
            break
        roll = rng.random()
        if m.phase == IDLE and roll < 0.9:
            start()
        elif roll < 0.03 or (not in_flight and m.phase != IDLE):
            absorb(m.timeout(), lambda a: sent[a] - acked[a])
        elif roll < 0.15 and delivered:
            feed(rng.choice(delivered))             # duplicate
        elif in_flight:
            reply = in_flight.pop(rng.randrange(len(in_flight)))  # reorder
            delivered.append(reply)
            feed(reply, lost=rng.random() < 0.15)   # drop -> give-up
    else:
        raise AssertionError("no verdict in 200 steps")
    # Anything still due arrives after the end: no further effect.
    for reply in in_flight + delivered:
        before = len(verdicts)
        feed(reply, lost=rng.random() < 0.3)
        assert len(verdicts) == before

    assert len(planned) <= m.max_attempts
    assert [kind for kind, _ in verdicts[:-1]] == [RETRY] * (len(verdicts) - 1)
    assert verdicts[-1][0] in (INSTALLED, REJECTED, UNAVAILABLE)
    for attempt, keys_sent in sent.items():
        for key in keys_sent:
            commits, aborts = decided[attempt].get(key, (0, 0))
            assert commits <= 1 and not (commits and aborts)
            if key not in culprits.get(attempt, ()):
                assert commits + aborts >= 1, (attempt, key)


def test_random_interleavings_keep_the_2pc_invariants():
    for seed in range(400):
        _interleave(seed)


def record(phase, attempt=0, origin=None):
    return {"phase": phase, "participants": {"a": 1.0}, "attempt": attempt,
            "origin": origin}


#: case -> (records, attempt high water, actions (kind, name), resume).
RECOVER = {
    "preparing_is_released": (
        {"x": record(PREPARING)}, 0, ((RELEASE, "x"),), 0,
    ),
    "committing_is_redriven": (
        {"x": record(COMMITTING)}, 0, ((REDRIVE, "x"),), 0,
    ),
    "resume_above_every_record": (
        {"x": record(PREPARING, 9), "y": record(COMMITTING, 4)}, 6,
        ((RELEASE, "x"), (REDRIVE, "y")), 9,
    ),
    "resume_at_the_high_water": (
        {"x": record(COMMITTING, 2)}, 7, ((REDRIVE, "x"),), 7,
    ),
    "actions_in_name_order": (
        {"c": record(COMMITTING), "a": record(PREPARING),
         "b": record(COMMITTING)}, 0,
        ((RELEASE, "a"), (REDRIVE, "b"), (REDRIVE, "c")), 0,
    ),
    "no_records_no_actions": ({}, 3, (), 3),
}


@pytest.mark.parametrize("case", sorted(RECOVER))
def test_recover_decides_from_the_records_alone(case):
    records, high_water, want, resume = RECOVER[case]
    actions, got = twopc.recover(records, high_water)
    assert [(kind, name) for kind, name, _ in actions] == list(want)
    # Each action carries its record, so a driver needs nothing else.
    assert all(rec is records[name] for _, name, rec in actions)
    assert got == resume


def test_core_is_sans_io():
    source = Path(twopc.__file__).read_text()
    imports = re.findall(r"^(?:from|import)\s+(\S+)", source, re.M)
    assert sorted(set(imports)) == ["__future__", "typing"]
