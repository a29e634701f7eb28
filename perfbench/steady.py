"""Steadiness check: run one workload k times and compare spreads to bounds.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload farm-small --runs 10

Each run gets its own seed (``--seed0``, ``--seed0 + 1``, ...).  For
every end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread — the
interquartile distance as a share of the median — and that metric's
bound from ``BENCHMARK.json``.  A spread at or above a third of its
bound is flagged (``setup_s`` excepted: its runs are compared by median
only).  The share of failed ops must be identical in every run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    rows, shares = [], set()
    for i in range(args.runs):
        seed = args.seed0 + i
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        doc, last = (json.loads(line)
                     for line in proc.stdout.strip().splitlines()[-2:])
        if not last["correct"]:
            print(f"seed {seed}: incorrect output: {doc['problems']}",
                  file=sys.stderr)
            return 1
        shares.add(last["failed"] / last["attempted"])
        rows.append({k: v["value"] for k, v in last["metrics"].items()})
        print(f"seed {seed}: steal={doc['host_steal_pct']:.1f}% "
              f"quiet={doc['quiet_steal_pct']:.1f}% "
              f"probe={doc['quiet_probe_ms']:.3f}ms " + " ".join(
            f"{k}={v:.4g}" for k, v in rows[-1].items()), flush=True)
        for err in doc["errors"]:
            print(f"  failed op: {err}", flush=True)

    ok = len(shares) == 1
    print(f"\n{args.workload}: {args.runs} runs of {seconds}s, "
          f"failed share {sorted(shares)}")
    print(f"{'metric':<16}{'q1':>12}{'median':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>8}")
    for name in rows[0]:
        q1, med, q3, sp = spread([r[name] for r in rows])
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and sp >= bound / 3:
            flag, ok = "  <-- spread >= bound/3", False
        print(f"{name:<16}{q1:>12.4g}{med:>12.4g}{q3:>12.4g}"
              f"{sp:>9.3f}{bound if bound is not None else '-':>8}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
