"""The benchmark's own arithmetic: percentiles, fits, rates, CPU and RSS.

Everything here is plain Python over numbers the workloads collect, so
it can be unit-tested apart from the program (``test_measure.py``).
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles the tail rule may pick from, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
#: Below this many samples only the median is a meaningful figure.
MIN_TAIL_SAMPLES = 40
#: A tail percentile needs at least this many samples beyond it.
BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile (0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    if len(xs) == 1:
        return float(xs[0])
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with at least ten samples beyond it.

    ``None`` below :data:`MIN_TAIL_SAMPLES` samples: a "tail" of fewer
    than forty samples is no tail, so only the median is reported.
    """
    if n < MIN_TAIL_SAMPLES:
        return None
    for p in TAIL_LADDER:
        # n·(100 − p)/100 ≥ BEYOND, in integers (tenths of a percent).
        if n * (1000 - round(p * 10)) >= BEYOND * 1000:
            return p
    return None


def fit_fixed_slope(points: Iterable[Tuple[float, float]]) -> Tuple[float, float]:
    """Least-squares ``y = fixed + slope * x`` over ``(x, y)`` points.

    Needs at least two distinct ``x`` values (jobs of two sizes).
    """
    pts = list(points)
    xs = {x for x, _ in pts}
    if len(xs) < 2:
        raise ValueError("a fixed/slope fit needs jobs of two sizes")
    n = len(pts)
    mx = sum(x for x, _ in pts) / n
    my = sum(y for _, y in pts) / n
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    slope = sxy / sxx
    return my - slope * mx, slope


@dataclass
class Phase:
    """Work completed between the end of warm-up and the end of the run.

    Rounds are recorded with their wall-clock end time; rounds that end
    at or before ``start`` are warm-up and do not count.
    """

    start: float
    units: int = 0
    ops: int = 0
    end: Optional[float] = None

    def add(self, finished_at: float, units: int, ops: int) -> None:
        if finished_at <= self.start:
            return
        self.units += units
        self.ops += ops
        self.end = finished_at

    @property
    def seconds(self) -> float:
        return (self.end or self.start) - self.start


def quiet_rounds(disturbance: Sequence, share: float) -> List[int]:
    """Indices, in order, of the ``share`` of rounds least disturbed.

    ``disturbance`` holds one comparable value per round, lower meaning
    less disturbed by the host.  Ties keep the earlier round; at least
    one round is kept.
    """
    if not disturbance:
        raise ValueError("no rounds to choose from")
    n = max(1, round(len(disturbance) * share))
    order = sorted(range(len(disturbance)),
                   key=lambda i: (disturbance[i], i))
    return sorted(order[:n])


#: Iterations of the reference loop :func:`cpu_probe_ms` times.
PROBE_LOOPS = 20_000
#: The loop's time (ms) on the reference host (2-vCPU x86-64, Python
#: 3.11) when other guests leave it alone; times measured while the
#: loop takes longer are scaled down by the same factor.
PROBE_REF_MS = 1.25


def cpu_probe_ms() -> float:
    """CPU time (ms) the calling thread spends on a fixed pure-Python
    loop: how fast the host runs this interpreter at this moment.

    Thread CPU time leaves out the time other threads hold the
    interpreter lock, so the program's own threads do not enter it.
    """
    t = time.thread_time()
    x = 0
    for i in range(PROBE_LOOPS):
        x += i * i % 7
    return (time.thread_time() - t) * 1e3


# -- process-tree CPU and memory ----------------------------------------------

_TICK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def _proc_stat(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            raw = fh.read()
    except OSError:
        return None
    # The command name may contain spaces; fields resume after ')'.
    return raw[raw.rindex(")") + 2:].split()


def descendants(root: Optional[int] = None) -> List[int]:
    """Live descendant pids of ``root`` (default: this process)."""
    root = os.getpid() if root is None else root
    parent: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _proc_stat(int(entry))
            if fields is not None:
                parent[int(entry)] = int(fields[1])
    out, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        kids = [c for c, p in parent.items() if p == pid]
        out.extend(kids)
        frontier.extend(kids)
    return sorted(out)


def live_cpu_s(pid: int) -> float:
    """User+system CPU seconds of one live process (0 if it is gone)."""
    fields = _proc_stat(pid)
    if fields is None:
        return 0.0
    # utime, stime are fields 14 and 15 of stat; index 11/12 after ')'.
    return (int(fields[11]) + int(fields[12])) / _TICK


def live_hwm_kb(pid: int) -> int:
    """Peak resident set (VmHWM, KiB) of one live process (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


@dataclass(frozen=True)
class TreeSample:
    """CPU seconds of the process tree at one instant.

    ``live`` maps each live descendant to its CPU so far; ``reaped`` is
    what waited-for children used in total (``RUSAGE_CHILDREN``).  A
    child counted live in one sample and reaped in the next is counted
    once: its live figure is taken back out of the reaped total.
    """

    self_s: float
    reaped_s: float
    live: Dict[int, float]


def tree_sample() -> TreeSample:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return TreeSample(
        own.ru_utime + own.ru_stime,
        kids.ru_utime + kids.ru_stime,
        {pid: live_cpu_s(pid) for pid in descendants()},
    )


def tree_cpu_between(a: TreeSample, b: TreeSample) -> float:
    """CPU seconds the whole tree used between two samples."""
    total = (b.self_s - a.self_s) + (b.reaped_s - a.reaped_s)
    for pid, cpu in b.live.items():
        total += cpu - a.live.get(pid, 0.0)
    for pid, cpu in a.live.items():
        if pid not in b.live:
            # Reaped since ``a``: its CPU before ``a`` sits in the
            # reaped delta but was spent outside the window.
            total -= cpu
    return total


def tree_peak_rss_mb(children_hwm_kb: Iterable[int] = ()) -> float:
    """Peak RSS of the tree, MB: this process, plus the largest reaped
    child, plus each live (or just-sampled) child's own peak.

    Per-process peaks are summed, so the figure bounds the tree's
    simultaneous peak from above.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    live = sum(children_hwm_kb)
    return (own + reaped + live) / 1024.0


def host_cpu_ticks(cpu: Optional[int] = None) -> Tuple[int, int]:
    """(steal, total) jiffies of the whole host, or of one CPU, from
    ``/proc/stat``.

    Steal is time a virtual CPU was runnable but the hypervisor ran
    another guest: the share of it over a phase says how much other
    tenants of the host disturbed the measurement.
    """
    tag = "cpu" if cpu is None else f"cpu{cpu}"
    with open("/proc/stat") as fh:
        for line in fh:
            name, *rest = line.split()
            if name == tag:
                fields = [int(x) for x in rest]
                break
        else:
            raise ValueError(f"no {tag} line in /proc/stat")
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def steal_pct(a: Tuple[int, int], b: Tuple[int, int]) -> float:
    """Share (%) of the host's CPU time stolen between two
    :func:`host_cpu_ticks` readings."""
    steal, total = b[0] - a[0], b[1] - a[1]
    return 100.0 * steal / total if total > 0 else 0.0


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values))


def now() -> float:
    return time.perf_counter()
