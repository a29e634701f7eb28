"""Run one benchmark workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload farm-small --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced pass.
``--trace 1`` runs an untraced and a traced pass of ``--seconds / 2``
each and prints the per-layer metrics.  Either way the line before the
last holds the full document (both metric sets, with units, the tail
percentile and sample counts); ``--out FILE`` also writes it to a file.
The last line is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from typing import Dict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: name -> (unit, better); the end-to-end metrics every workload reports
#: (the two ``model_*`` ones on ``sim-stream`` only).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "rate_per_s": ("1/s", "higher"),
    "p50_ms": ("ms", "lower"),
    "tail_ms": ("ms", "lower"),
    "cpu_ms_per_op": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "model_p50_ms": ("ms", "lower"),
    "model_tail_ms": ("ms", "lower"),
}

#: name -> (unit, better) of the per-layer metrics every workload
#: prints on its last line with ``--trace 1`` (``BENCHMARK.json``).
#: Each is measured on every workload's own program; the counts read 0
#: where the workload does not run that layer.
PER_LAYER = {
    "minicaml.compile_ms": ("ms", "lower"),
    "pnt.expand_ms": ("ms", "lower"),
    "pnt.processes": ("count", "lower"),
    "syndex.map_ms": ("ms", "lower"),
    "syndex.deadlock_ms": ("ms", "lower"),
    "codegen.generate_ms": ("ms", "lower"),
    "codegen.source_kb": ("KiB", "lower"),
    "codegen.load_ms": ("ms", "lower"),
    "sched.assign_ms": ("ms", "lower"),
    "serve.build_hit_ms": ("ms", "lower"),
    "serve.build_miss_ms": ("ms", "lower"),
    "serve.cache_hits": ("count", "higher"),
    "net.encode_us": ("us", "lower"),
    "net.decode_us": ("us", "lower"),
    "realtime.deadline_misses": ("count", "lower"),
    "faults.hedges": ("count", "lower"),
    "faults.redispatches": ("count", "lower"),
    "health.limping": ("count", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

#: Per-layer metrics of single workloads: printed in the full document
#: (the line before the last) of the workloads that run the layer.
WORKLOAD_LAYERS = {
    "backends.fixed_ms": ("ms", "lower"),
    "backends.slope_us_per_pkt": ("us", "lower"),
    "compute.ms_per_op": ("ms", "lower"),
    "runtime.ms_per_op": ("ms", "lower"),
    "vision.detect_ms_per_frame": ("ms", "lower"),
    "tracking.predict_ms_per_frame": ("ms", "lower"),
    "machine.us_per_packet": ("us", "lower"),
    "trace.compute_pct": ("%", "higher"),
    "trace.send_pct": ("%", "lower"),
    "trace.unattributed_pct": ("%", "lower"),
}
LAYER_UNITS = {**PER_LAYER, **WORKLOAD_LAYERS}


def workloads():
    import w_farm
    import w_serve
    import w_sim
    import w_track

    return {w.name: w for w in (w_farm.FarmSmall, w_track.TrackCase,
                                w_serve.ServeMix, w_sim.SimStream)}


def with_units(values: Dict[str, float], table) -> Dict[str, Dict]:
    return {k: {"value": v, "unit": table[k][0]} for k, v in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full document here")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import harness as H
    import measure as M

    known = workloads()
    if args.workload not in known:
        print(f"error: unknown workload {args.workload!r} "
              f"(known: {', '.join(known)})", file=sys.stderr)
        return 2
    # A terminated run still tears down, and so stops the pool it spawned.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    w = known[args.workload](args.seed)
    measured: Dict[str, float] = {}
    pinned = None
    try:
        setups = H.setup_times(w)
        if w.pin:
            pinned = H.pin_to_one_cpu()
        if args.trace:
            plain = H.timed_pass(w, args.seconds / 2, traced=False,
                                 warmup_rounds=w.warmup, cpu=pinned)
            traced = H.timed_pass(w, args.seconds / 2, traced=True,
                                  warmup_rounds=1, cpu=pinned)
            measured = w.layers(traced, plain)
            measured["trace.overhead_pct"] = 100.0 * (
                H.rate(H.quiet(plain, w.quiet_share), w.scaled)
                / H.rate(H.quiet(traced, w.quiet_share), w.scaled) - 1.0)
            passes = [plain, traced]
        else:
            plain = H.timed_pass(w, args.seconds, traced=False,
                                 warmup_rounds=w.warmup, cpu=pinned)
            passes = [plain]
        e2e = H.end_to_end(w, setups, plain)
        unscaled = H.timings(w, setups, plain, scaled=False)
    finally:
        w.teardown()

    problems = [p for ps in passes for p in ps.problems]
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    attempted = sum(ps.attempted for ps in passes)
    failed = sum(ps.failed for ps in passes)
    quiet = H.quiet(plain, w.quiet_share)
    samples = sum(len(r.latencies_ms) for r in quiet)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(plain.rounds),
        "quiet_rounds": len(quiet),
        "samples": samples,
        "host_steal_pct": plain.steal_pct,
        "quiet_steal_pct": M.mean([r.steal_pct for r in quiet]),
        "probe_ms": M.median([r.probe_ms for r in plain.rounds]),
        "quiet_probe_ms": M.median([r.probe_ms for r in quiet]),
        "pinned_cpu": pinned,
        "tail_pct": H.tail_pct(w, samples),
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "errors": [e for ps in passes for e in ps.errors][:20],
        "end_to_end": with_units(e2e, END_TO_END),
        "end_to_end_unscaled": with_units(unscaled, END_TO_END),
    }
    if args.trace:
        doc["per_layer"] = with_units(measured, LAYER_UNITS)
    print(json.dumps(doc))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
    if args.trace:
        metrics = {k: float(measured.get(k, 0.0)) for k in PER_LAYER}
        metrics = with_units(metrics, PER_LAYER)
    else:
        metrics = with_units(e2e, END_TO_END)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
