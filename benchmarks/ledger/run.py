#!/usr/bin/env python3
"""The perf ledger: one end-to-end benchmark for this repository.

Four ways to call it, all from the repository root:

``run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload in this process (what ``BENCHMARK.json``'s
    command does).  Generates the inputs from the seed, repeats the
    workload's lap (fresh set-up, then the timed op stream) for ``S``
    seconds, checks every output, prints each metric with its unit and,
    as the last line, one JSON result object.  ``--trace 1`` measures one
    plain lap and one lap with spans on and reports the per-layer
    metrics instead.  Exits 1 when a correctness check failed.

``run.py [--workloads a,b] [--runs K] [--seed N] [--traced] [--out DIR]``
    The ledger itself: ``K`` runs of each workload, each in a fresh
    subprocess, one result document per run under ``DIR``, then the
    median, quartiles and n of every metric.

``run.py --selfcheck``
    Determinism: the same seed twice gives identical digests, simulated
    metrics and exact counts; another seed gives another digest.

``run.py --agree A B``
    Compares two directories of result documents against the bounds in
    ``BENCHMARK.json``; exits 1 when they disagree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from catalog import (  # noqa: E402
    BYPASSED,
    DOMINANT,
    END_TO_END,
    EXACT,
    LEDGER_BOUNDS,
    PER_LAYER,
    TAKEOVER,
    TracedLap,
    median,
    percentile,
)

clock = time.perf_counter
#: What the calibration loop takes on the box the workloads were sized
#: on, in a quiet minute.
NOMINAL_CALIBRATION_S = 0.0055
#: Documents keep at most this many op samples per lap, evenly thinned
#: (percentiles are computed from all of them first).
KEEP_SAMPLES = 5_000


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def warm_up() -> None:
    """Untimed: import everything and push one tiny instance through
    each path, so scipy/HiGHS and module caches are loaded before the
    first lap."""
    from workloads import WORKLOADS

    for workload in WORKLOADS.values():
        workload.lap(workload.generate(0, scale=0.01))


def calibration_s() -> float:
    """Median time of five passes over a fixed loop of dict, list and
    str work: how fast this machine is right now.

    The box this was written on runs identical work 1.5x slower for
    minutes at a time (its neighbours, not this process: CPU time moves
    with wall time).  No amount of repetition inside one run averages
    that out, so every lap is bracketed by two calibrations and its
    timings are reported at nominal machine speed."""
    passes = []
    for _ in range(5):
        began, table, tail = clock(), {}, []
        for i in range(20_000):
            table[i & 1023] = (i, str(i & 63))
            tail.append(table[i & 1023][0] * 3 % 7)
            if len(tail) > 256:
                tail = tail[128:]
        passes.append(clock() - began)
    return median(passes)


def calibrated_lap(workload, inputs, tracer=None):
    """Run one lap; ``lap.slowdown`` says how much slower than nominal
    the machine ran around it."""
    before = calibration_s()
    lap = workload.lap(inputs, tracer)
    lap.slowdown = (before + calibration_s()) / 2 / NOMINAL_CALIBRATION_S
    return lap


def run_one(name: str, seed: int, seconds: float, trace: bool, scale: float) -> dict:
    """Measure one workload; returns the result document."""
    from spans import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    started = clock()
    first = workload.generate(seed, 0, scale)
    laps, digests, tracer = [calibrated_lap(workload, first)], [first.digest], None
    if trace:
        # the same stream again with spans on: the overhead is the
        # difference, and the program must have done exactly the same
        with Tracer(contexts=(TAKEOVER,)) as tracer:
            laps.append(calibrated_lap(workload, first, tracer))
    while not trace and clock() - started < seconds:
        inputs = workload.generate(seed, len(laps), scale)
        digests.append(inputs.digest)
        laps.append(calibrated_lap(workload, inputs))

    failures = [f"lap {i}: {line}" for i, lap in enumerate(laps) for line in lap.failures]
    if trace:
        failures += _changed_by_tracing(*laps)
    plain = laps[:-1] if trace else laps
    attempted = sum(lap.attempted for lap in laps)
    # a failed end-of-lap check can add lines beyond the ops themselves
    failed = sum(min(lap.attempted, len(lap.failures)) for lap in laps)
    if trace:
        traced = TracedLap(tracer, laps[-1], laps[0].wall_s)
        metrics = {
            name_: {"value": formula(traced), "unit": unit}
            for name_, unit, _better, formula in PER_LAYER
        }
    else:
        values = {
            "setup_s": median(lap.setup_s / lap.slowdown for lap in plain),
            "ops_per_s": median(
                lap.attempted / lap.wall_s * lap.slowdown for lap in plain
            ),
            "op_wall_ms_p50": median(
                percentile(lap.op_ms, 0.50) / lap.slowdown for lap in plain
            ),
            "op_wall_ms_p95": median(
                percentile(lap.op_ms, 0.95) / lap.slowdown for lap in plain
            ),
            "carried_fraction": laps[0].facts["carried_fraction"],
            "success_share": 1.0 - failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {
            name_: {"value": values[name_], "unit": unit}
            for name_, unit, _better, _bound in END_TO_END
        }
    document = {
        "schema": "ledger/v1",
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "scale": scale,
        "traced": trace,
        "params": first.params,
        "digest": first.digest,
        "lap_digests": digests,
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
        "failures": failures[:50],
        "laps": [_lap_document(lap) for lap in laps],
    }
    if trace:
        document["layers"] = _layer_table(name, tracer, laps[-1])
        document["chrome_trace"] = tracer.chrome_trace()
    return document


def _changed_by_tracing(plain, traced) -> list[str]:
    """The traced lap ran the plain lap's stream: every fact, count and
    simulated latency must be identical, or the wrappers changed what
    the program did (or the program is not deterministic)."""
    return [
        f"traced lap: {field} differ from the plain lap on the same stream"
        for field in ("attempted", "facts", "counters", "sim_latency_ms")
        if getattr(plain, field) != getattr(traced, field)
    ]


def _thin(samples: list[float]) -> list[float]:
    step = max(1, -(-len(samples) // KEEP_SAMPLES))
    return [round(s, 5) for s in samples[::step]]


def _lap_document(lap) -> dict:
    return {
        "machine_slowdown": lap.slowdown,
        "setup_s": lap.setup_s,
        "wall_s": lap.wall_s,
        "attempted": lap.attempted,
        "failed": len(lap.failures),
        "facts": lap.facts,
        "counters": lap.counters,
        "op_ms_count": len(lap.op_ms),
        "op_ms": _thin(lap.op_ms),
        "sim_latency_ms": _thin(lap.sim_latency_ms),
        "generator_lateness_ms_max": max(lap.lateness_ms, default=0.0),
    }


def _layer_table(name: str, tracer, lap) -> dict:
    """Per-layer self time over the timed section.  The rows plus
    ``unattributed_s`` (the benchmark's own loop) sum to ``wall_s``."""
    layers = tracer.layer_self_s("timed")
    attributed = sum(layers.values())
    table = {
        "wall_s": lap.wall_s,
        "rows": [
            {"layer": layer, "self_s": self_s, "share": self_s / lap.wall_s}
            for layer, self_s in layers.items()
        ],
        "unattributed_s": lap.wall_s - attributed,
        "attributed_share": attributed / lap.wall_s,
        "spans": {
            span: {"calls": row[0], "self_s": row[1], "total_s": row[2]}
            for span, row in sorted(tracer.totals.get("timed", {}).items())
        },
        "warnings": [],
    }

    def share(group) -> float:
        return sum(layers.get(layer, 0.0) for layer in group) / lap.wall_s

    if table["attributed_share"] < 0.90:
        gap_s, before_op = tracer.largest_gap(lap.t0, lap.t1)
        table["warnings"].append(
            f"attributed share {table['attributed_share']:.3f} < 0.90; largest "
            f"gap outside any span: {gap_s * 1e3:.3f} ms before op {before_op}"
        )
    dominant = share(DOMINANT[name])
    others = [
        share(group) for group in DOMINANT.values() if group != DOMINANT[name]
    ]
    table["dominant_share"] = dominant
    if others and dominant <= max(others):
        table["warnings"].append(
            f"{'+'.join(DOMINANT[name])} hold {dominant:.3f} of the wall, "
            "not the largest share"
        )
    for group in BYPASSED.get(name, ()):
        if share(group) >= 0.10:
            table["warnings"].append(
                f"bypassed layers {'+'.join(group)} hold {share(group):.3f} >= 0.10"
            )
    return table


def print_metrics(document: dict) -> None:
    result = document["result"]
    print(
        f"{document['workload']} seed={document['seed']} "
        f"digest={document['digest'][:16]} laps={len(document['laps'])} "
        f"attempted={result['attempted']} failed={result['failed']}"
    )
    for name, entry in result["metrics"].items():
        print(f"  {name:<52} {entry['value']:>16.6f} {entry['unit']}")
    for row in document.get("layers", {}).get("rows", []):
        print(f"  layer {row['layer']:<40} {row['self_s']:>10.4f} s {row['share']:>7.1%}")
    for warning in document.get("layers", {}).get("warnings", []):
        print(f"  WARNING {warning}")
    for line in document["failures"][:10]:
        print(f"  FAILED {line}")


def environment() -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_sha": sha,
    }


def write_document(document: dict, out: Path, tag: str) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    document["environment"] = environment()
    stem = f"ledger-{document['workload']}-seed{document['seed']}{tag}"
    chrome = document.pop("chrome_trace", None)
    if chrome is not None:
        (out / f"{stem}.trace.json").write_text(json.dumps(chrome))
        document["chrome_trace_file"] = f"{stem}.trace.json"
    path = out / f"{stem}.json"
    path.write_text(json.dumps(document, indent=1))
    return path


def driver_mode(args) -> int:
    warm_up()
    document = run_one(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale
    )
    print_metrics(document)
    if args.out:
        write_document(document, Path(args.out), args.tag)
    print(json.dumps(document["result"]))
    return 0 if document["result"]["correct"] else 1


# ---------------------------------------------------------------------------
# the ledger: K runs per workload, each in its own process
# ---------------------------------------------------------------------------


def spread(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def child(args, workload: str, trace: int, tag: str, seed: int, out) -> dict | None:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--scale", str(args.scale), f"--tag={tag}",
    ]
    if out is not None:
        command += ["--out", str(out)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        print(done.stdout, done.stderr, file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(done.stdout, file=sys.stderr)
    return result


def ledger_mode(args) -> int:
    from workloads import WORKLOADS

    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    out = Path(args.out)
    status = 0
    for name in names:
        results = [
            child(args, name, 0, f"-run{k}", args.seed, out) for k in range(args.runs)
        ]
        if args.traced:
            results.append(child(args, name, 1, "-traced", args.seed, out))
        if any(r is None or not r["correct"] for r in results):
            status = 1
        plain = [r for r in results[: args.runs] if r is not None]
        print(f"{name}: {len(plain)} run(s), seed {args.seed}")
        for metric, unit, better, bound in END_TO_END:
            values = [r["metrics"][metric]["value"] for r in plain]
            if not values:
                continue
            q1, q2, q3 = spread(values)
            print(
                f"  {metric:<20} median {q2:>14.6f} {unit:<5} "
                f"q1 {q1:.6f} q3 {q3:.6f} n={len(values)} "
                f"spread {((q3 - q1) / q2 if q2 else 0.0):.4f} (bound {bound}, {better} is better)"
            )
        if args.traced and results[-1] is not None:
            for metric, entry in results[-1]["metrics"].items():
                print(f"  {metric:<52} {entry['value']:>16.6f} {entry['unit']}")
    print(f"documents under {out}")
    return status


# ---------------------------------------------------------------------------
# --selfcheck
# ---------------------------------------------------------------------------


def selfcheck_mode(args) -> int:
    from workloads import WORKLOADS

    problems = []
    for name in WORKLOADS:
        docs = []
        for seed in (args.seed, args.seed, args.seed + 1):
            out = Path(args.out) / "selfcheck"
            tag = f"-check{len(docs)}"
            if child(args, name, 1, tag, seed, out) is None:
                problems.append(f"{name}: run failed")
                break
            docs.append(json.loads((out / f"ledger-{name}-seed{seed}{tag}.json").read_text()))
        else:
            a, b, other = docs
            if a["digest"] != b["digest"]:
                problems.append(f"{name}: one seed, two digests")
            if a["digest"] == other["digest"]:
                problems.append(f"{name}: two seeds, one digest")
            for metric in EXACT:
                if metric not in a["result"]["metrics"]:
                    continue
                va = a["result"]["metrics"][metric]["value"]
                vb = b["result"]["metrics"][metric]["value"]
                if va != vb:
                    problems.append(f"{name}: {metric} {va!r} != {vb!r} on one seed")
            for lap_a, lap_b in zip(a["laps"], b["laps"]):
                for field in ("facts", "counters", "sim_latency_ms"):
                    if lap_a[field] != lap_b[field]:
                        problems.append(f"{name}: lap {field} differ on one seed")
            print(f"{name}: digest {a['digest'][:16]} repeats; seed+1 gives {other['digest'][:16]}")
    for problem in problems:
        print(f"SELFCHECK FAILED {problem}")
    if not problems:
        print("selfcheck ok: digests, simulated metrics and exact counts repeat")
    return 1 if problems else 0


# ---------------------------------------------------------------------------
# --agree A B
# ---------------------------------------------------------------------------


def load_set(directory: Path) -> dict:
    """workload -> {"plain": [documents], "traced": [documents]}"""
    sets: dict = {}
    for path in sorted(directory.glob("ledger-*.json")):
        if path.name.endswith(".trace.json"):
            continue
        document = json.loads(path.read_text())
        kind = "traced" if document["traced"] else "plain"
        sets.setdefault(document["workload"], {"plain": [], "traced": []})[kind].append(document)
    return sets


def agree_mode(args) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {
        m["name"]: (m["better"], m["bound"]) for m in benchmark["end_to_end"]
    }
    bounds.update(LEDGER_BOUNDS)
    end_to_end = {m["name"] for m in benchmark["end_to_end"]}
    a_sets, b_sets = load_set(Path(args.agree[0])), load_set(Path(args.agree[1]))
    disagreements = unresolved = 0
    for workload in sorted(set(a_sets) | set(b_sets)):
        for metric in [*bounds, *(m for m in EXACT if m not in bounds)]:
            kind = "plain" if metric in end_to_end else "traced"
            a_docs = a_sets.get(workload, {}).get(kind, [])
            b_docs = b_sets.get(workload, {}).get(kind, [])
            a, b = (
                [
                    d["result"]["metrics"][metric]["value"] for d in docs
                    if metric in d["result"]["metrics"]
                ]
                for docs in (a_docs, b_docs)
            )
            if not a or not b or not (any(a) or any(b)):
                continue  # absent, or a layer this workload never enters
            (a1, a2, a3), (b1, b2, b3) = spread(a), spread(b)
            same_seeds = {d["seed"] for d in a_docs} == {d["seed"] for d in b_docs}
            if metric in EXACT and same_seeds and set(a) != set(b):
                verdict = "DISAGREE (deterministic value differs)"
            elif metric not in bounds:
                verdict = "identical" if same_seeds else "not compared (other seeds)"
            else:
                better, bound = bounds[metric]
                worse = (b2 - a2) / a2 if a2 else 0.0
                if better == "higher":
                    worse = -worse
                if abs(worse) > bound:
                    verdict = f"DISAGREE (B {'worse' if worse > 0 else 'better'} by {abs(worse):.4f} > {bound})"
                elif max(a3 - a1, b3 - b1) > bound * abs(a2):
                    verdict = f"unresolved (spread exceeds bound {bound})"
                else:
                    verdict = f"agree (B worse by {worse:+.4f}, bound {bound})"
            disagreements += verdict.startswith("DISAGREE")
            unresolved += verdict.startswith("unresolved")
            print(
                f"{workload:<17} {metric:<32} "
                f"A {a2:.6g} [{a1:.6g}, {a3:.6g}] n={len(a)}  "
                f"B {b2:.6g} [{b1:.6g}, {b3:.6g}] n={len(b)}  {verdict}"
            )
    print(f"{disagreements} disagreement(s), {unresolved} unresolved")
    return 1 if disagreements else 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every workload (smoke tests)")
    parser.add_argument("--out", help="directory for result documents")
    parser.add_argument("--tag", default="", help=argparse.SUPPRESS)
    parser.add_argument("--workloads", help="comma-separated; default all five")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--traced", action="store_true",
                        help="one extra traced run per workload")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--agree", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)

    if args.agree:
        return agree_mode(args)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.workload:
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; one of {list(WORKLOADS)}")
        return driver_mode(args)
    if args.out is None:
        args.out = str(HERE / "out")
    if args.selfcheck:
        return selfcheck_mode(args)
    return ledger_mode(args)


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # The program iterates sets of strings (the participants of a
        # 2PC round, a partition's chains): message order, hence which
        # message a loss window eats, follows the interpreter's hash
        # seed.  Pin it, or one seed gives different simulated results
        # in different processes.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
