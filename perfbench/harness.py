"""The measurement loop every workload shares.

A workload is an object with:

* ``name``, ``tail_pct`` (the percentile ``tail_ms`` reports),
  ``warmup`` (rounds before the timed phase), ``setups``,
  ``quiet_share`` (the share of timed rounds the wall-clock metrics are
  taken over, see :func:`quiet`), ``pin`` (run the timed passes
  pinned to one CPU, see :func:`pin_to_one_cpu`) and ``scaled``
  (report times at the reference speed, see :func:`timings`);
* ``setup()`` — everything up to the first timed op (compile, map,
  executive load, pool spawn); ``setup_s`` is the median of ``setups``;
* ``teardown()`` — undo one ``setup()``;
* ``round(traced)`` — one whole round of ops, returning a :class:`Round`;
  ``traced=True`` runs the same ops with the benchmark's timers on;
* ``model_metrics(tail_p)`` — the virtual-time ``model_*`` metrics;
* ``layers(traced, plain)`` — the per-layer metrics, given the traced
  and the untraced :class:`PassResult`.

Each round checks its own outputs and appends any mismatch to
``Round.problems``; one problem makes the run incorrect.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import measure as M

@dataclass
class Round:
    """One round of ops: a latency per op, the work units completed."""

    latencies_ms: List[float]
    units: int
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Anything the workload's ``layers()`` wants from a traced round.
    info: Dict[str, Any] = field(default_factory=dict)
    #: Set by :func:`timed_pass`: the round's wall time and process-tree
    #: CPU, the share (%) of CPU time other guests stole while it ran,
    #: and the reference loop's time around it (see there).
    wall_s: float = 0.0
    cpu_s: float = 0.0
    steal_pct: float = 0.0
    probe_ms: float = 0.0

    @property
    def scale(self) -> float:
        """Factor that brings this round's times to the reference
        speed (:data:`measure.PROBE_REF_MS`); 1 for an unprobed round."""
        return M.PROBE_REF_MS / self.probe_ms if self.probe_ms else 1.0

    @property
    def disturbance(self) -> Tuple[float, float]:
        """How much the host disturbed this round, for ordering: the
        share of CPU stolen outright, then, between rounds that lost the
        same share (most often none), the reference loop's time."""
        return self.steal_pct, self.probe_ms

    @property
    def ops(self) -> int:
        return len(self.latencies_ms) + self.failed


@dataclass
class PassResult:
    """The rounds of one timed phase."""

    rounds: List[Round]
    phase: M.Phase
    warm: List[Round] = field(default_factory=list)
    #: Share (%) of the host's CPU time stolen by other guests.
    steal_pct: float = 0.0

    @property
    def latencies_ms(self) -> List[float]:
        return [x for r in self.rounds for x in r.latencies_ms]

    @property
    def ops(self) -> int:
        return sum(r.ops for r in self.rounds)

    @property
    def attempted(self) -> int:
        """Ops attempted, warm-up included."""
        return sum(r.ops for r in self.warm + self.rounds)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.warm + self.rounds)

    @property
    def problems(self) -> List[str]:
        return [p for r in self.warm + self.rounds for p in r.problems]

    @property
    def errors(self) -> List[str]:
        """Why failed ops failed (one entry per failed round)."""
        return [r.info["error"] for r in self.warm + self.rounds
                if "error" in r.info]


def timed_pass(workload, seconds: float, *, traced: bool,
               warmup_rounds: int, cpu: Optional[int] = None) -> PassResult:
    """Warm up, then run whole rounds until ``seconds`` have elapsed.

    Around each round it times the reference loop
    (:func:`measure.cpu_probe_ms`) and reads the CPU steal: that of
    ``cpu`` when the pass is pinned to it, else the whole host's.
    """
    warm = [workload.round(traced) for _ in range(warmup_rounds)]
    host0 = M.host_cpu_ticks()
    phase = M.Phase(start=M.now())
    rounds: List[Round] = []
    while True:
        probe0 = M.cpu_probe_ms()
        h0, c0, t0 = M.host_cpu_ticks(cpu), M.tree_sample(), M.now()
        r = workload.round(traced)
        t1 = M.now()
        r.cpu_s = M.tree_cpu_between(c0, M.tree_sample())
        r.steal_pct = M.steal_pct(h0, M.host_cpu_ticks(cpu))
        r.probe_ms = (probe0 + M.cpu_probe_ms()) / 2.0
        r.wall_s = t1 - t0
        phase.add(t1, r.units, r.ops)
        rounds.append(r)
        if t1 - phase.start >= seconds:
            break
    return PassResult(rounds, phase, warm,
                      M.steal_pct(host0, M.host_cpu_ticks()))


def quiet(p: PassResult, share: float) -> List[Round]:
    """The ``share`` of ``p``'s timed rounds the host disturbed least.

    Other guests of a shared host slow its CPUs for seconds at a time:
    they steal them outright, or share their cores and caches, which
    shows in no counter but makes the same Python loop take up to half
    again as long.  :attr:`Round.disturbance` measures both, and the
    wall-clock and CPU metrics are taken over the rounds where it was
    lowest.  It is measured outside the round's own timing, so a slow
    round of the program's making is not left out for being slow.
    """
    keep = M.quiet_rounds([r.disturbance for r in p.rounds], share)
    return [p.rounds[i] for i in keep]


def rate(rounds: List[Round], scaled: bool) -> float:
    """Units per wall second over ``rounds``, at the reference speed
    with ``scaled``."""
    wall = sum(r.wall_s * (r.scale if scaled else 1.0) for r in rounds)
    if wall <= 0:
        raise ValueError("no timed round to take a rate over")
    return sum(r.units for r in rounds) / wall


def pin_to_one_cpu() -> int:
    """Pin every thread of this process, and so every thread it starts
    later, to the lowest CPU it may run on.  Child processes already
    running are left alone.  Returns that CPU.
    """
    cpu = min(os.sched_getaffinity(0))
    for tid in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(tid), {cpu})
        except OSError:  # the thread ended meanwhile
            pass
    return cpu


def setup_times(workload) -> List[Tuple[float, float]]:
    """Run ``setup()`` ``workload.setups`` times, keeping the last one up.

    Returns each set-up's wall time with the reference loop's time
    just before it.
    """
    times = []
    n = workload.setups
    for i in range(n):
        probe = M.cpu_probe_ms()
        t0 = M.now()
        workload.setup()
        times.append((M.now() - t0, probe))
        if i < n - 1:
            workload.teardown()
    return times


def tail_pct(workload, n: int) -> float:
    """The workload's tail percentile, lowered when ``n`` samples leave
    fewer than ten beyond it (the median below forty samples)."""
    return min(workload.tail_pct, M.tail_percentile(n) or 50.0)


def timings(workload, setups: List[Tuple[float, float]], p: PassResult,
            scaled: bool) -> Dict[str, float]:
    """Set-up, wall-clock and CPU figures over the quiet rounds.

    With ``scaled``, each time is brought to the reference speed: this
    is right for an op that is all interpreter work on one thread, whose
    time is the reference loop's time times a constant.  An op that
    also waits on timers or on other processes is taken as measured.
    """
    rounds = quiet(p, workload.quiet_share)
    k = {id(r): r.scale if scaled else 1.0 for r in rounds}
    lat = [x * k[id(r)] for r in rounds for x in r.latencies_ms]
    return {
        "setup_s": M.median([t * (M.PROBE_REF_MS / probe if scaled else 1.0)
                             for t, probe in setups]),
        "rate_per_s": rate(rounds, scaled),
        "p50_ms": M.percentile(lat, 50.0),
        "tail_ms": M.percentile(lat, tail_pct(workload, len(lat))),
        "cpu_ms_per_op": 1e3 * sum(r.cpu_s * k[id(r)] for r in rounds)
                         / sum(r.ops for r in rounds),
    }


def end_to_end(workload, setups: List[Tuple[float, float]],
               p: PassResult) -> Dict[str, float]:
    out = timings(workload, setups, p, workload.scaled)
    n = sum(len(r.latencies_ms) for r in quiet(p, workload.quiet_share))
    out["peak_rss_mb"] = M.tree_peak_rss_mb(
        M.live_hwm_kb(pid) for pid in M.descendants())
    out.update(workload.model_metrics(tail_pct(workload, n)))
    return out


# -- timing wrappers around table functions ------------------------------------

class CallLog:
    """Wall-clock intervals spent inside table functions (thread-safe)."""

    def __init__(self):
        self._lock = threading.Lock()
        self.calls: List[Tuple[str, float, float]] = []

    def record(self, name: str, t0: float, t1: float) -> None:
        with self._lock:
            self.calls.append((name, t0, t1))

    def take(self) -> List[Tuple[str, float, float]]:
        with self._lock:
            out, self.calls = self.calls, []
        return out


def timed_table(table, log: CallLog):
    """A copy of ``table`` whose functions record into ``log``."""
    from repro import FunctionTable

    out = FunctionTable()
    for spec in table:
        out.add(dataclasses.replace(spec, fn=_timed(spec.name, spec.fn, log)))
    return out


def _timed(name: str, fn: Callable, log: CallLog) -> Callable:
    def wrapper(*args):
        t0 = M.now()
        try:
            return fn(*args)
        finally:
            log.record(name, t0, M.now())

    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def union_s(intervals) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def span_shares(trace, wall_us: float) -> Dict[str, float]:
    """Compute / send / unattributed shares (%) of one recorded run.

    Each share is the union of the span kind's intervals over the run's
    wall time, so overlapping spans on several processors count once.
    """
    comp = [(s.start, s.end) for s in trace.compute]
    send = [(s.start, s.end) for s in trace.transfer]
    both = union_s(comp + send)
    return {
        "compute": 100.0 * union_s(comp) / wall_us,
        "send": 100.0 * union_s(send) / wall_us,
        "unattributed": max(0.0, 100.0 - 100.0 * both / wall_us),
    }


def compute_runtime(p: PassResult) -> Dict[str, float]:
    """Wall time per op inside table functions, and the rest."""
    calls = [c for r in p.rounds for c in r.info.get("calls", ())]
    busy_ms = union_s((t0, t1) for _, t0, t1 in calls) * 1e3
    wall_ms = p.phase.seconds * 1e3
    # Rounds are back to back, so the phase's wall time is the ops' time.
    compute = busy_ms / p.ops
    return {"compute.ms_per_op": compute,
            "runtime.ms_per_op": wall_ms / p.ops - compute}


def mean_shares(p: PassResult) -> Dict[str, float]:
    """Span shares of the traced rounds' recorded runs, averaged."""
    rows = [r.info["shares"] for r in p.rounds if "shares" in r.info]
    if not rows:
        return {}
    return {f"trace.{k}_pct": sum(row[k] for row in rows) / len(rows)
            for k in ("compute", "send", "unattributed")}


def fault_counts(reports) -> Dict[str, float]:
    """Wasted-work counts of the fault and health layers, summed."""
    out = {"faults.hedges": 0.0, "faults.redispatches": 0.0,
           "health.limping": 0.0}
    for rep in reports:
        if rep is not None:
            out["faults.hedges"] += rep.hedges
            out["faults.redispatches"] += rep.redispatches
            out["health.limping"] += len(rep.limping)
    return out


def compile_path(source: str, table, arch):
    """Compile, expand, map, check and load one program, stage by stage.

    Returns ``(mapping, stage_ms, counts)``; the stages are the public
    calls a ``repro run`` makes before its first op.
    """
    from repro import pipeline
    from repro.codegen.pygen import generate_python, load_executive
    from repro.syndex.deadlock import check_deadlock_freedom

    ms: Dict[str, float] = {}
    t = M.now()
    compiled = pipeline.compile_source(source, table)
    ms["minicaml.compile_ms"] = (M.now() - t) * 1e3
    t = M.now()
    graph = pipeline.expand(compiled.ir, table)
    ms["pnt.expand_ms"] = (M.now() - t) * 1e3
    t = M.now()
    mapping = pipeline.map_onto(graph, arch, check=False)
    ms["syndex.map_ms"] = (M.now() - t) * 1e3
    t = M.now()
    report = check_deadlock_freedom(mapping)
    ms["syndex.deadlock_ms"] = (M.now() - t) * 1e3
    if not report.ok:
        raise RuntimeError(report.render())
    t = M.now()
    code = generate_python(mapping)
    ms["codegen.generate_ms"] = (M.now() - t) * 1e3
    t = M.now()
    load_executive(code)
    ms["codegen.load_ms"] = (M.now() - t) * 1e3
    counts = {
        "pnt.processes": float(len(graph.processes)),
        "codegen.source_kb": len(code.encode("utf-8")) / 1024.0,
    }
    return mapping, ms, counts


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t = M.now()
        fn()
        times.append((M.now() - t) * 1e3)
    return M.median(times)


#: Repeats of each probe in :func:`common_layers`.
COMPILES = 5
ASSIGNS = 50
CODEC_CALLS = 200


def common_layers(w) -> Dict[str, float]:
    """Per-layer metrics every workload measures on its own program.

    Uses ``w.source``, ``w.table``, ``w.arch``, ``w.mapping``,
    ``w.n_workers`` and ``w.packet`` (one typical farm packet).
    """
    from repro.net import codec
    from repro.sched.registry import resolve_scheduler
    from repro.serve.cache import CompileCache

    runs = [compile_path(w.source, w.table, w.arch) for _ in range(COMPILES)]
    out = {k: M.median([r[1][k] for r in runs]) for k in runs[0][1]}
    out.update(runs[0][2])

    procs = [p for p in w.mapping.arch.processor_ids()
             if w.mapping.processes_on(p)]
    workers = [f"w{i}" for i in range(w.n_workers)]
    sched = resolve_scheduler()
    out["sched.assign_ms"] = _median_ms(
        lambda: sched.assign(w.mapping, procs, workers), ASSIGNS)

    miss, hit = [], []
    for _ in range(COMPILES):
        cache = CompileCache()
        for sink in (miss, hit):
            t = M.now()
            cache.build(w.source, w.table, w.arch)
            sink.append((M.now() - t) * 1e3)
    out["serve.build_miss_ms"] = M.median(miss)
    out["serve.build_hit_ms"] = M.median(hit)

    wire = b"".join(bytes(b) for b in codec.encode(w.packet))
    out["net.encode_us"] = 1e3 * _median_ms(
        lambda: codec.encode(w.packet), CODEC_CALLS)
    out["net.decode_us"] = 1e3 * _median_ms(
        lambda: codec.decode(wire), CODEC_CALLS)
    return out
