#!/usr/bin/env python3
"""Compare a freshly measured bench JSON line against a committed snapshot.

Usage: compare_bench.py SNAPSHOT.json CURRENT.json FIELD [TOLERANCE]

Fails (exit 1) if CURRENT[FIELD] < SNAPSHOT[FIELD] * (1 - TOLERANCE),
i.e. the measured value regressed more than TOLERANCE (default 0.10)
below the committed snapshot. Both files hold a single JSON object as
emitted by the bench harnesses (`BENCH_* {...}` lines with the prefix
stripped); CI applies it to the BENCH_INFER and BENCH_INCR `speedup`
fields. Stdlib only — CI runners need nothing installed.
"""

import json
import sys


def main(argv):
    if len(argv) < 4 or len(argv) > 5:
        sys.exit(f"usage: {argv[0]} SNAPSHOT.json CURRENT.json FIELD [TOLERANCE]")
    snapshot_path, current_path, field = argv[1:4]
    tolerance = float(argv[4]) if len(argv) == 5 else 0.10

    with open(snapshot_path) as f:
        snapshot = json.load(f)
    with open(current_path) as f:
        current = json.load(f)

    try:
        want = float(snapshot[field])
        got = float(current[field])
    except KeyError as missing:
        sys.exit(f"field {missing} absent from bench JSON")

    floor = want * (1.0 - tolerance)
    verdict = "ok" if got >= floor else "REGRESSION"
    print(
        f"{field}: snapshot {want:.3f}, measured {got:.3f}, "
        f"floor {floor:.3f} ({tolerance:.0%} tolerance) -> {verdict}"
    )
    if got < floor:
        sys.exit(1)


if __name__ == "__main__":
    main(sys.argv)
