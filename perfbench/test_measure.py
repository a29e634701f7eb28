"""Unit tests of the benchmark's own arithmetic.

Run from the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness as H  # noqa: E402
import measure as M  # noqa: E402


# -- the tail-percentile rule ----------------------------------------------------

@pytest.mark.parametrize("n", [0, 1, 10, 39])
def test_median_only_below_forty_samples(n):
    assert M.tail_percentile(n) is None


@pytest.mark.parametrize("n, p", [
    (40, 75.0),     # 10 beyond p75; 4 beyond p90
    (99, 75.0),     # 9.9 beyond p90 is not ten
    (100, 90.0),
    (199, 90.0),
    (200, 95.0),
    (1000, 99.0),
    (10_000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, p):
    assert M.tail_percentile(n) == p
    assert n * (100 - p) / 100 >= M.BEYOND - 1e-9


def test_percentile_interpolates():
    xs = list(range(1, 11))  # 1..10
    assert M.percentile(xs, 50) == pytest.approx(5.5)
    assert M.percentile(xs, 0) == 1
    assert M.percentile(xs, 100) == 10
    assert M.percentile([3.0], 90) == 3.0
    with pytest.raises(ValueError):
        M.percentile([], 50)


def test_end_to_end_tail_falls_back_to_the_rule():
    class W:
        tail_pct = 90.0
        quiet_share = 1.0
        scaled = False

        def model_metrics(self, tail_p):
            return {"tail_p": tail_p}

    def pass_of(n):
        phase = M.Phase(start=0.0)
        phase.add(1.0, n, n)
        return H.PassResult([H.Round([float(i) for i in range(n)], n,
                                     wall_s=1.0, cpu_s=0.5)], phase)

    setups = [(1.0, M.PROBE_REF_MS)]
    assert H.end_to_end(W(), setups, pass_of(150))["tail_p"] == 90.0
    assert H.end_to_end(W(), setups, pass_of(60))["tail_p"] == 75.0
    short = H.end_to_end(W(), setups, pass_of(20))
    assert short["tail_p"] == 50.0
    assert short["tail_ms"] == short["p50_ms"]


# -- the fixed/slope fit ----------------------------------------------------------

def test_fit_recovers_an_exact_line():
    pts = [(n, 40.0 + 0.25 * n) for n in (50, 200) for _ in range(3)]
    fixed, slope = M.fit_fixed_slope(pts)
    assert fixed == pytest.approx(40.0)
    assert slope == pytest.approx(0.25)


def test_fit_is_least_squares_over_noise():
    pts = [(50, 51.0), (50, 53.0), (200, 88.0), (200, 92.0)]
    fixed, slope = M.fit_fixed_slope(pts)
    # Means 52 at 50 and 90 at 200: the line through the two means.
    assert slope == pytest.approx(38.0 / 150.0)
    assert fixed == pytest.approx(52.0 - 50 * 38.0 / 150.0)


def test_fit_needs_two_sizes():
    with pytest.raises(ValueError):
        M.fit_fixed_slope([(100, 1.0), (100, 2.0)])


# -- rate over the timed phase ----------------------------------------------------

def test_phase_excludes_warmup_rounds():
    phase = M.Phase(start=10.0)
    phase.add(9.0, 1000, 1)   # warm-up round, ended before the phase
    phase.add(10.0, 1000, 1)  # ended exactly at the start: still warm-up
    phase.add(11.0, 30, 1)
    phase.add(12.0, 50, 1)
    assert phase.units == 80 and phase.ops == 2
    assert phase.seconds == pytest.approx(2.0)


def test_rate_is_units_over_the_rounds_wall_time():
    rounds = [H.Round([1.0], 30, wall_s=1.0), H.Round([1.0], 50, wall_s=1.0)]
    assert H.rate(rounds, scaled=False) == pytest.approx(40.0)
    with pytest.raises(ValueError):
        H.rate([], scaled=False)


def test_rate_excludes_warmup_rounds():
    class W:
        def __init__(self):
            self.calls = 0

        def round(self, traced):
            self.calls += 1
            # Warm-up rounds are slow and large: counted, they would
            # show in the rate.
            if self.calls <= 2:
                time.sleep(0.05)
                return H.Round([50.0], units=1000)
            time.sleep(0.01)
            return H.Round([10.0], units=5)

    p = H.timed_pass(W(), 0.05, traced=False, warmup_rounds=2)
    assert all(r.units == 5 for r in p.rounds)
    wall = H.rate(p.rounds, scaled=False)
    assert wall == pytest.approx(5 / statistics.mean(r.wall_s for r in p.rounds))
    assert wall < 600  # 5 per >= 10 ms


# -- the quiet rounds -------------------------------------------------------------

def test_quiet_rounds_keep_the_least_stolen_share_in_order():
    steal = [5.0, 0.0, 9.0, 1.0, 0.0, 3.0]
    assert M.quiet_rounds(steal, 0.5) == [1, 3, 4]
    assert M.quiet_rounds(steal, 1.0) == list(range(6))
    # Ties keep the earlier round; at least one round is kept.
    assert M.quiet_rounds([2.0, 2.0, 2.0, 2.0], 0.5) == [0, 1]
    assert M.quiet_rounds([4.0, 1.0], 0.1) == [1]
    with pytest.raises(ValueError):
        M.quiet_rounds([], 0.5)


def test_end_to_end_takes_wall_clock_over_quiet_rounds_cpu_over_all():
    class W:
        tail_pct = 50.0
        quiet_share = 0.5
        scaled = False

        def model_metrics(self, tail_p):
            return {}

    def rnd(lat, wall, cpu, probe, steal):
        return H.Round(lat, 2, wall_s=wall, cpu_s=cpu, probe_ms=probe,
                       steal_pct=steal)

    ref = M.PROBE_REF_MS
    quiet = [rnd([10.0, 12.0], 0.5, 0.1, ref, 0.0) for _ in range(2)]
    slow = rnd([40.0, 44.0], 2.0, 0.4, 1.5 * ref, 0.0)  # a slower CPU
    stolen = rnd([40.0, 44.0], 2.0, 0.4, ref, 40.0)     # CPU stolen
    phase = M.Phase(start=0.0)
    phase.add(5.0, 8, 8)
    p = H.PassResult([slow, quiet[0], stolen, quiet[1]], phase)
    out = H.end_to_end(W(), [(1.0, ref)], p)
    assert out["rate_per_s"] == pytest.approx(4.0)  # 4 units in 1 s
    assert out["p50_ms"] == pytest.approx(11.0)
    assert out["cpu_ms_per_op"] == pytest.approx(50.0)  # 0.2 s / 4 ops


def test_times_are_scaled_to_the_reference_speed():
    class W:
        tail_pct = 50.0
        quiet_share = 1.0

    ref = M.PROBE_REF_MS
    # The host ran the reference loop at half speed in this round, and
    # in the set-up: every time is halved, the rate doubled.
    r = H.Round([20.0, 24.0], 2, wall_s=1.0, cpu_s=0.5, probe_ms=2 * ref)
    phase = M.Phase(start=0.0)
    phase.add(1.0, 2, 2)
    p = H.PassResult([r], phase)
    setups = [(0.4, 2 * ref)]
    out = H.timings(W(), setups, p, scaled=True)
    assert out["setup_s"] == pytest.approx(0.2)
    assert out["rate_per_s"] == pytest.approx(4.0)
    assert out["p50_ms"] == pytest.approx(11.0)
    assert out["cpu_ms_per_op"] == pytest.approx(125.0)
    raw = H.timings(W(), setups, p, scaled=False)
    assert raw["setup_s"] == pytest.approx(0.4)
    assert raw["rate_per_s"] == pytest.approx(2.0)
    assert raw["p50_ms"] == pytest.approx(22.0)
    # A round built by hand, never probed, is taken as it is.
    assert H.Round([1.0], 1).scale == 1.0


def test_disturbance_orders_by_steal_then_by_probe():
    rounds = [H.Round([], 0, probe_ms=1.2, steal_pct=3.0),
              H.Round([], 0, probe_ms=1.6, steal_pct=0.0),
              H.Round([], 0, probe_ms=1.3, steal_pct=0.0),
              H.Round([], 0, probe_ms=1.0, steal_pct=6.0)]
    assert M.quiet_rounds([r.disturbance for r in rounds], 0.5) == [1, 2]
    assert M.quiet_rounds([r.disturbance for r in rounds], 0.25) == [2]


def test_cpu_probe_times_a_fixed_loop():
    times = [M.cpu_probe_ms() for _ in range(5)]
    assert all(0.0 < t < 1000.0 for t in times)


def test_steal_share_between_two_readings():
    assert M.steal_pct((10, 1000), (35, 1100)) == pytest.approx(25.0)
    assert M.steal_pct((10, 1000), (10, 1000)) == 0.0


def test_steal_of_one_cpu_is_part_of_the_hosts():
    cpu = min(os.sched_getaffinity(0))
    steal1, total1 = M.host_cpu_ticks(cpu)
    steal, total = M.host_cpu_ticks()
    assert 0 < total1 <= total and 0 <= steal1 <= steal
    with pytest.raises(ValueError):
        M.host_cpu_ticks(10**6)


def test_timed_pass_records_each_rounds_wall_and_steal():
    class W:
        def round(self, traced):
            time.sleep(0.01)
            return H.Round([10.0], units=1)

    for cpu in (None, min(os.sched_getaffinity(0))):
        p = H.timed_pass(W(), 0.03, traced=False, warmup_rounds=0, cpu=cpu)
        assert all(0.01 <= r.wall_s < 1.0 for r in p.rounds)
        assert all(0.0 <= r.steal_pct <= 100.0 for r in p.rounds)
        assert all(r.probe_ms > 0.0 for r in p.rounds)
        # Sleeping uses next to no CPU.
        assert all(0.0 <= r.cpu_s < r.wall_s for r in p.rounds)


def test_pin_moves_threads_started_later_too():
    code = (
        "import os, sys, threading\n"
        f"sys.path.insert(0, {HERE!r})\n"
        "import harness\n"
        "cpu = harness.pin_to_one_cpu()\n"
        "seen = []\n"
        "t = threading.Thread(target=lambda: seen.append("
        "os.sched_getaffinity(0)))\n"
        "t.start(); t.join()\n"
        "assert os.sched_getaffinity(0) == {cpu} == seen[0], seen\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def test_timed_pass_runs_whole_rounds_after_warmup():
    class W:
        def __init__(self):
            self.calls = 0

        def round(self, traced):
            self.calls += 1
            time.sleep(0.01)
            return H.Round([10.0, 10.0], units=5)

    w = W()
    p = H.timed_pass(w, 0.05, traced=False, warmup_rounds=2)
    assert len(p.warm) == 2 and w.calls == 2 + len(p.rounds)
    assert p.phase.units == 5 * len(p.rounds)
    assert p.attempted == 2 * (2 + len(p.rounds))
    assert p.phase.seconds >= 0.05


def test_union_counts_overlaps_once():
    assert H.union_s([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert H.union_s([]) == 0.0


# -- CPU and RSS of the process tree ----------------------------------------------

_SPIN = "import time\nt=time.process_time()\nwhile time.process_time()-t<{s}: pass\n"


def test_cpu_includes_reaped_children():
    a = M.tree_sample()
    subprocess.run([sys.executable, "-c", _SPIN.format(s=0.3)], check=True)
    used = M.tree_cpu_between(a, M.tree_sample())
    assert 0.3 <= used < 1.5


def test_cpu_includes_live_children_once_when_reaped_later():
    child = subprocess.Popen(
        [sys.executable, "-c",
         _SPIN.format(s=0.3) + "import sys\nsys.stdin.read()\n"],
        stdin=subprocess.PIPE)
    try:
        deadline = time.time() + 20
        while M.live_cpu_s(child.pid) < 0.3 and time.time() < deadline:
            time.sleep(0.05)
        a = M.tree_sample()  # the child's 0.3 s is before the window
        assert child.pid in a.live
        child.stdin.close()
        child.wait(timeout=20)
        used = M.tree_cpu_between(a, M.tree_sample())
        assert used < 0.2  # not counted again once reaped
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


def test_cpu_counts_live_pool_workers():
    child = subprocess.Popen(
        [sys.executable, "-c",
         "import sys\nsys.stdin.readline()\n" + _SPIN.format(s=0.3)
         + "sys.stdin.read()\n"],
        stdin=subprocess.PIPE, text=True)
    try:
        a = M.tree_sample()
        child.stdin.write("go\n")
        child.stdin.flush()
        deadline = time.time() + 20
        while M.live_cpu_s(child.pid) < 0.3 and time.time() < deadline:
            time.sleep(0.05)
        used = M.tree_cpu_between(a, M.tree_sample())
        assert 0.3 <= used < 1.5  # the worker is still alive here
    finally:
        child.stdin.close()
        child.wait(timeout=20)


def test_peak_rss_adds_live_children():
    child = subprocess.Popen(
        [sys.executable, "-c",
         "b = bytearray(64 << 20)\nimport sys\nsys.stdin.read()\n"],
        stdin=subprocess.PIPE)
    try:
        deadline = time.time() + 20
        while M.live_hwm_kb(child.pid) < 60 << 10 and time.time() < deadline:
            time.sleep(0.05)
        alone = M.tree_peak_rss_mb()
        assert child.pid in M.descendants()
        both = M.tree_peak_rss_mb(M.live_hwm_kb(p) for p in M.descendants())
        assert both - alone >= 60
    finally:
        child.stdin.close()
        child.wait(timeout=20)


# -- the metric lists agree with BENCHMARK.json -------------------------------------

def test_metric_lists_match_benchmark_json():
    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == run.PER_LAYER
    # farm-small runs on its own but is not gated: see the README.
    assert {w["name"] for w in bench["workloads"]} \
        == set(run.workloads()) - {"farm-small"}
