"""``sim-stream``: a seeded stream program on the simulator, in virtual time.

``itermem`` over a ``df`` of six workers with cheap sequential functions
on an 8-processor ring, fault supervision and health scoring armed with
an empty plan.  Each frame carries a seeded, uneven number of packets,
each with a seeded modelled cost.  Op = one ``simulate`` call over all
frames; unit = one simulated frame.

Checks: every output is recomputed here; every call's virtual times
equal the first call's; the virtual makespan is at least the modelled
work divided by the processor count.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import harness as H
import measure as M

PROCESSORS = 8
WORKERS = 6
FRAMES = 100
#: Packets per frame (2..24) and modelled µs per packet (10..400):
#: uneven, in an order the seed shuffles.  Every seed gets the same
#: multiset of both, so the work per call does not depend on the seed.
COUNTS = [2 + (7 * i) % 23 for i in range(FRAMES)]
WORK_US = [10 + (37 * i) % 391 for i in range(sum(COUNTS))]

SOURCE = f"""
let nproc = {WORKERS};;
let loop (state, frame) =
  let xs = explode frame in
  let total = df nproc work gather 0 xs in
  step state frame total;;
let main = itermem grab loop sink 0 (0, 0);;
"""

# Modelled costs (µs on the reference processor).
GRAB_US, STEP_US, SINK_US, GATHER_US = 10.0, 10.0, 5.0, 5.0


def explode_us(frame) -> float:
    return 5.0 + 2.0 * len(frame[1])


def work_us(piece) -> float:
    return 20.0 + piece[1]


def checksum(k: int, w: int) -> int:
    return (w * 7919 + k) % 65521


class Frames:
    """The seeded frame list and the program's table over it."""

    def __init__(self, seed: int):
        rng = random.Random(seed)
        counts, work = list(COUNTS), list(WORK_US)
        rng.shuffle(counts)
        rng.shuffle(work)
        self.frames: List[Tuple[int, List[int]]] = []
        for k, n in enumerate(counts):
            self.frames.append((k, work[:n]))
            work = work[n:]
        self.next = 0

    def rewind(self) -> None:
        self.next = 0

    def table(self):
        from repro import FunctionTable
        from repro.core import EndOfStream

        def grab(_source):
            if self.next >= len(self.frames):
                raise EndOfStream
            self.next += 1
            return self.frames[self.next - 1]

        def explode(frame):
            k, ws = frame
            return [(k, w) for w in ws]

        def work(piece):
            return checksum(*piece)

        def gather(a, b):
            return a + b

        def step(state, frame, total):
            return state + 1, (frame[0], total)

        def sink(_y):
            return None

        t = FunctionTable()
        t.register("grab", ins=["int * int"], outs=["frame"],
                   cost=GRAB_US)(grab)
        t.register("explode", ins=["frame"], outs=["piece list"],
                   cost=explode_us)(explode)
        t.register("work", ins=["piece"], outs=["int"], cost=work_us)(work)
        t.register("gather", ins=["int", "int"], outs=["int"],
                   cost=GATHER_US,
                   properties=["commutative", "associative"])(gather)
        t.register("step", ins=["int", "frame", "int"],
                   outs=["int", "pair"], cost=STEP_US)(step)
        t.register("sink", ins=["pair"], cost=SINK_US)(sink)
        return t

    def expected(self) -> List[Tuple[int, int]]:
        return [(k, sum(checksum(k, w) for w in ws)) for k, ws in self.frames]

    def modelled_work_us(self) -> float:
        """Σ of every function call's modelled cost over all frames."""
        total = 0.0
        for frame in self.frames:
            ws = frame[1]
            total += GRAB_US + explode_us(frame) + STEP_US + SINK_US
            total += sum(work_us((0, w)) for w in ws) + GATHER_US * len(ws)
        return total

    @property
    def packets(self) -> int:
        return sum(len(ws) for _, ws in self.frames)


class SimStream:
    name = "sim-stream"
    tail_pct = 90.0
    warmup = 2
    setups = 15
    quiet_share = 0.5
    pin = True  # one thread: pinning only stops it migrating
    scaled = True  # all interpreter work on one thread
    source = SOURCE
    n_workers = WORKERS
    packet = (7, 123)

    def __init__(self, seed: int):
        from repro.faults.plan import FaultPlan
        from repro.faults.policy import FaultPolicy
        from repro.health import HealthPolicy
        from repro.syndex import ring

        self.frames = Frames(seed)
        self.table = self.frames.table()
        self.arch = ring(PROCESSORS)
        self.plan = FaultPlan(events=[])
        self.policy = FaultPolicy(health=HealthPolicy())
        self.log = H.CallLog()
        self.traced_table = H.timed_table(self.table, self.log)
        self.first = None  # the first call's virtual times

    def setup(self) -> None:
        self.mapping = H.compile_path(SOURCE, self.table, self.arch)[0]

    def teardown(self) -> None:
        pass

    def simulate(self, traced: bool):
        from repro import pipeline

        self.frames.rewind()
        return pipeline.run(
            self.mapping, self.traced_table if traced else self.table,
            backend="simulate", fault_plan=self.plan,
            fault_policy=self.policy,
        )

    def round(self, traced: bool) -> H.Round:
        t0 = M.now()
        try:
            report = self.simulate(traced)
        except Exception as exc:  # a crashed simulation: one failed op
            return H.Round([], 0, failed=1, info={"error": repr(exc)})
        ms = (M.now() - t0) * 1e3
        r = H.Round([ms], len(report.iterations))
        times = ([it.latency for it in report.iterations], report.makespan)
        if self.first is None:
            self.first = times
            r.problems.extend(self.check(report))
        elif times != self.first:
            r.problems.append("two simulate calls gave different virtual times")
        if report.outputs != self.frames.expected():
            r.problems.append("outputs differ from the recomputed checksums")
        if traced:
            r.info["calls"] = self.log.take()
            r.info["faults"] = report.faults
        return r

    def check(self, report) -> List[str]:
        bound = self.frames.modelled_work_us() / PROCESSORS
        if report.makespan < bound:
            return [f"virtual makespan {report.makespan:.0f} us below "
                    f"work/processors {bound:.0f} us"]
        return []

    def model_metrics(self, tail_p: float) -> Dict[str, float]:
        lat = [x / 1e3 for x in self.first[0]]
        return {"model_p50_ms": M.percentile(lat, 50.0),
                "model_tail_ms": M.percentile(lat, tail_p)}

    def layers(self, traced: H.PassResult, plain: H.PassResult) -> Dict[str, float]:
        out = H.common_layers(self)
        out.update(H.compute_runtime(traced))
        out.update(H.fault_counts(r.info.get("faults")
                                  for r in traced.rounds))
        out["machine.us_per_packet"] = (
            1e3 * M.percentile(plain.latencies_ms, 50.0) / self.frames.packets)
        return out
