"""``farm-small``: back-to-back one-int-packet ``df`` farm jobs on threads.

Compute is next to nothing, so a job's time is the kernel primitives
(``send_``/``recv_``/ALT poll), master dispatch and executive load.
Op = one job; unit = one packet.  Each job's result must equal
Σ(x + 1) over its packets, summed here in the benchmark.
"""

from __future__ import annotations

import random
from typing import Dict

import harness as H
import measure as M

WORKERS = 2
#: Packets per job: seeded, uneven, in this range.
PACKETS = (60, 140)
#: Two job sizes for the traced fixed/slope fit, and jobs of each.
FIT_SIZES = (50, 200)
FIT_JOBS = 6
#: Seeded jobs the simulator prices for the ``model_*`` metrics.
MODEL_JOBS = 401
TIMEOUT_S = 5.0

SOURCE = f"let main xs = df {WORKERS} inc add 0 xs;;\n"


def inc(x):
    return x + 1


def add(a, b):
    return a + b


def make_table():
    from repro import FunctionTable

    table = FunctionTable()
    table.register("inc", ins=["int"], outs=["int"])(inc)
    table.register("add", ins=["int", "int"], outs=["int"],
                   properties=["commutative", "associative"])(add)
    return table


class FarmSmall:
    name = "farm-small"
    tail_pct = 95.0
    warmup = 3
    setups = 15
    quiet_share = 0.5
    pin = True  # the executive's threads share one interpreter lock
    scaled = False  # jobs wait on polls and timers too
    source = SOURCE
    n_workers = WORKERS
    packet = 123_456

    def __init__(self, seed: int):
        from repro.backends import get_backend
        from repro.syndex import ring

        self.seed = seed
        self.rng = random.Random(seed)
        self.table = make_table()
        self.arch = ring(WORKERS + 1)
        self.backend = get_backend("threads")
        self.log = H.CallLog()
        self.traced_table = H.timed_table(self.table, self.log)

    def setup(self) -> None:
        self.mapping = H.compile_path(SOURCE, self.table, self.arch)[0]

    def teardown(self) -> None:
        pass

    def job(self, n: int, traced: bool = False):
        xs = [self.rng.randrange(-10**6, 10**6) for _ in range(n)]
        table = self.traced_table if traced else self.table
        t0 = M.now()
        report = self.backend.run(self.mapping, table, args=(xs,),
                                  timeout=TIMEOUT_S, record_trace=traced)
        ms = (M.now() - t0) * 1e3
        want = sum(x + 1 for x in xs)
        got = report.one_shot_results[0]
        problem = None if got == want else f"job of {n}: {got} != {want}"
        return ms, report, problem

    def round(self, traced: bool) -> H.Round:
        self.log.take()  # drop calls a failed traced round left behind
        n = self.rng.randint(*PACKETS)
        try:
            ms, report, problem = self.job(n, traced)
        except Exception as exc:  # a stalled or crashed job: one failed op
            return H.Round([], 0, failed=1, info={"error": repr(exc)})
        r = H.Round([ms], n, problems=[problem] if problem else [])
        if traced:
            r.info["calls"] = self.log.take()
            r.info["shares"] = H.span_shares(report.trace, report.makespan)
        return r

    def model_metrics(self, tail_p: float) -> Dict[str, float]:
        """Virtual job latency on the T9000 model, over seeded jobs."""
        from repro import pipeline

        rng = random.Random(f"model-{self.seed}")
        lat = []
        for _ in range(MODEL_JOBS):
            xs = [rng.randrange(-10**6, 10**6)
                  for _ in range(rng.randint(*PACKETS))]
            report = pipeline.run(self.mapping, self.table, args=(xs,))
            lat.append(report.makespan / 1e3)
        return {"model_p50_ms": M.percentile(lat, 50.0),
                "model_tail_ms": M.percentile(lat, tail_p)}

    def layers(self, traced: H.PassResult, plain: H.PassResult) -> Dict[str, float]:
        out = H.common_layers(self)
        out.update(H.compute_runtime(traced))
        out.update(H.mean_shares(traced))
        points = []
        for _ in range(FIT_JOBS):
            for n in FIT_SIZES:
                ms, _report, problem = self.job(n)
                if problem:
                    raise RuntimeError(problem)
                points.append((n, ms))
        fixed, slope = M.fit_fixed_slope(points)
        out["backends.fixed_ms"] = fixed
        out["backends.slope_us_per_pkt"] = slope * 1e3
        return out
