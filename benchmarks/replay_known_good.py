"""Replay gate for the seeded chaos / federation reports.

``benchmarks/baselines/chaos_known_good.json`` pins SHA-256 digests of
the report documents the CLI writes for sixteen seeded runs (chaos soak
with and without ``--control-faults``, the federated chaos soak, seeds
1-5 each, plus the 3-region federation fault soak).  The simulations
are pure functions of their seed, so a digest that moves means the
install protocol, failover, or a probe changed behaviour.

    PYTHONPATH=src python benchmarks/replay_known_good.py            # check all
    PYTHONPATH=src python benchmarks/replay_known_good.py --seed 1   # seed 1 only
    PYTHONPATH=src python benchmarks/replay_known_good.py --write    # re-record
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

KNOWN_GOOD = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "baselines",
    "chaos_known_good.json",
)
SEEDS = (1, 2, 3, 4, 5)

#: kind -> CLI arguments (the seed and ``--out`` are appended).
KINDS = {
    "chaos": ["chaos", "--duration", "20"],
    "chaos_control": ["chaos", "--duration", "20", "--control-faults"],
    "federation_chaos": ["federation", "--chaos-soak"],
}
#: The one fixed-seed run: its ``metrics`` key embeds wall-clock
#: histograms and is dropped before hashing.
FEDERATION_SOAK = (
    "federation_soak_seed7",
    [
        "federation", "--pops", "24", "--chains", "96", "--regions", "3",
        "--seed", "7", "--soak", "40", "--reject-rate", "0.25",
        "--crash-rate", "0.25",
    ],
)


def _report_bytes(argv: list[str]) -> bytes:
    """Run one CLI command in-process and return the report it wrote."""
    from repro.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main([*argv, "--out", out])
        if rc != 0:
            raise SystemExit(f"{' '.join(argv)} exited {rc}")
        with open(out, "rb") as handle:
            return handle.read()


def digest(name: str) -> str:
    """SHA-256 of the named run's report document."""
    if name == FEDERATION_SOAK[0]:
        doc = json.loads(_report_bytes(FEDERATION_SOAK[1]))
        doc.pop("metrics", None)
        data = json.dumps(doc, indent=1, sort_keys=True).encode()
    else:
        kind, _, seed = name.rpartition("_seed")
        data = _report_bytes([*KINDS[kind], "--seed", seed])
    return hashlib.sha256(data).hexdigest()


def run_names(seeds=SEEDS) -> list[str]:
    names = [f"{kind}_seed{seed}" for kind in KINDS for seed in seeds]
    return [*names, FEDERATION_SOAK[0]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, action="append",
                        help="replay only this seed (repeatable)")
    parser.add_argument("--write", action="store_true",
                        help="record the digests instead of checking them")
    args = parser.parse_args(argv)
    names = run_names(tuple(args.seed) if args.seed else SEEDS)
    if args.write:
        doc = {name: digest(name) for name in names}
        with open(KNOWN_GOOD, "w") as handle:
            json.dump(doc, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {len(doc)} digests to {KNOWN_GOOD}")
        return 0
    with open(KNOWN_GOOD) as handle:
        known = json.load(handle)
    moved = []
    for name in names:
        got = digest(name)
        status = "ok" if got == known[name] else "MOVED"
        print(f"{status:5s} {name} {got}")
        if got != known[name]:
            moved.append(name)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
