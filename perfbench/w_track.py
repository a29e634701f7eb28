"""``track-case``: the §4 vehicle-tracking case study on threads.

Three vehicles in seeded 512×512 synthetic video, a ``df`` of two
detection workers, the 25 Hz ``LatencyBudget`` (40 ms deadline) in a
closed loop (one frame in flight, ``block`` policy) and fault
supervision armed with an empty plan.  Op = unit = one frame, timed by
the frame ledger from admission to delivery.

Checks, against the synthetic scene's ground truth (never against the
tracker's own output): per-frame detection recall of the displayed
marks, and the final 3D depth error of every track.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Tuple

import harness as H
import measure as M

WORKERS = 2
FRAMES = 20
FRAME_SIZE = 512
TIMEOUT_S = 10.0
#: A displayed mark matches a true one within this many pixels.
TOLERANCE_PX = 3.0
#: Mean recall over a round's frames, and final depth error, required.
MIN_RECALL = 0.9
MAX_DEPTH_ERROR_M = 1.0


def true_marks(scene, frame: int) -> List[Tuple[float, float]]:
    """Pinhole projection of every vehicle's three marks at ``frame``.

    Written out here from the scene's vehicle states so the check does
    not reuse the program's projection code.
    """
    cam = scene.camera
    out = []
    for v in scene.vehicles_at(frame):
        lay = v.layout
        half = lay.baseline / 2.0
        y0 = lay.bottom_height
        for dx, y in ((-half, y0), (half, y0), (0.0, y0 + lay.top_height)):
            if v.z <= 0.5:
                continue
            row = cam.cy - cam.focal * y / v.z
            col = cam.cx + cam.focal * (v.x + dx) / v.z
            if 0 <= row < cam.nrows and 0 <= col < cam.ncols:
                out.append((row, col))
    return out


def recall(truth: List[Tuple[float, float]], shown) -> float:
    """Share of true marks with a distinct displayed mark nearby."""
    pairs = sorted(
        (math.hypot(m.row - r, m.col - c), i, j)
        for i, (r, c) in enumerate(truth)
        for j, m in enumerate(shown)
    )
    used_t, used_s, hit = set(), set(), 0
    for d, i, j in pairs:
        if d > TOLERANCE_PX:
            break
        if i not in used_t and j not in used_s:
            used_t.add(i)
            used_s.add(j)
            hit += 1
    return hit / len(truth) if truth else 1.0


class FrameStore:
    """Serves pre-rendered frames in place of rendering them per read.

    The paper's frame grabber is hardware: a frame costs the tracker no
    CPU before ``read_img`` returns it.  Rendering the synthetic video
    (~10 ms a frame) inside the timed loop would charge the benchmark's
    own camera to the program, so each round's frames are rendered once
    and every read returns a fresh copy.
    """

    def __init__(self, scene, n_frames: int):
        from repro.vision.image import Image

        self._image = Image
        self._frames = [scene.render(k).pixels for k in range(n_frames)]

    def render(self, frame: int):
        return self._image(self._frames[frame].copy())


def seeded_scene(seed: int):
    """The default three-vehicle scene, positions jittered by ``seed``."""
    from repro.tracking import default_scene

    rng = random.Random(seed)
    scene = default_scene(n_vehicles=3, frame_size=FRAME_SIZE, seed=seed)
    for v in scene.vehicles:
        v.x += rng.uniform(-0.1, 0.1)
        v.z += rng.uniform(-0.5, 0.5)
    return scene


class TrackCase:
    name = "track-case"
    tail_pct = 95.0
    warmup = 1
    setups = 15
    quiet_share = 0.5
    pin = True  # the executive's threads share one interpreter lock
    scaled = True  # most of a frame is interpreter work on one CPU
    n_workers = WORKERS

    def __init__(self, seed: int):
        from repro.backends import get_backend
        from repro.faults.plan import FaultPlan
        from repro.realtime import LatencyBudget
        from repro.syndex import ring
        from repro.tracking import build_tracking_app
        from repro.tracking.app import FRAME_PERIOD_MS

        self.app = build_tracking_app(nproc=WORKERS, n_frames=FRAMES,
                                      scene=seeded_scene(seed))
        # The video source reads frames through ``scene.render``.
        self.app.video.scene = FrameStore(self.app.scene, FRAMES)
        self.source, self.table = self.app.source, self.app.table
        self.arch = ring(WORKERS + 1)
        # The paper's 40 ms deadline, unpaced: a closed loop of one
        # frame in flight.
        self.budget = LatencyBudget(deadline_ms=FRAME_PERIOD_MS,
                                    policy="block", max_in_flight=1)
        self.plan = FaultPlan(events=[])
        self.backend = get_backend("threads")
        self.log = H.CallLog()
        self.traced_table = H.timed_table(self.table, self.log)
        # One detection window's pixels: what a farm packet carries.
        self.packet = self.app.scene.render(0).pixels[:64, :64].copy()

    def setup(self) -> None:
        self.mapping = H.compile_path(self.source, self.table,
                                      self.arch)[0]

    def teardown(self) -> None:
        pass

    def round(self, traced: bool) -> H.Round:
        self.log.take()  # drop calls a failed traced round left behind
        self.app.rewind()
        try:
            report = self.backend.run(
                self.mapping, self.traced_table if traced else self.table,
                budget=self.budget, fault_plan=self.plan,
                timeout=TIMEOUT_S, record_trace=traced,
            )
        except Exception as exc:  # a stalled or crashed run: all its frames
            return H.Round([], 0, failed=FRAMES, info={"error": repr(exc)})
        ledger = report.realtime.ledger
        delivered = ledger.delivered
        r = H.Round([f.latency_us / 1e3 for f in delivered], len(delivered),
                    failed=len(ledger.failed))
        r.problems.extend(self.check(report))
        if traced:
            r.info["calls"] = self.log.take()
            r.info["shares"] = H.span_shares(report.trace, report.makespan)
            r.info["misses"] = ledger.deadline_misses
            r.info["faults"] = report.faults
        return r

    def check(self, report) -> List[str]:
        ledger, scene = report.realtime.ledger, self.app.scene
        problems = []
        if not ledger.conserved() or ledger.submitted != FRAMES:
            problems.append(f"ledger: {ledger.submitted} submitted, "
                            f"{len(ledger.delivered)} delivered")
        shown = self.app.displayed
        if len(shown) != FRAMES:
            problems.append(f"{len(shown)} frames displayed of {FRAMES}")
            return problems
        mean = sum(recall(true_marks(scene, k), ms)
                   for k, ms in enumerate(shown)) / FRAMES
        if mean < MIN_RECALL:
            problems.append(f"mean detection recall {mean:.3f}")
        truth = scene.vehicles_at(FRAMES - 1)
        tracks = report.final_state.tracks
        if len(tracks) != len(truth):
            problems.append(f"{len(tracks)} tracks for {len(truth)} vehicles")
        for t in tracks:
            near = min(truth, key=lambda v: abs(v.x - t.x) + abs(v.z - t.z))
            if abs(near.z - t.z) > MAX_DEPTH_ERROR_M:
                problems.append(f"depth error {abs(near.z - t.z):.2f} m")
        return problems

    def model_metrics(self, tail_p: float) -> Dict[str, float]:
        """Per-frame latency of the same frames on the simulated ring."""
        from repro import pipeline

        self.app.rewind()
        report = pipeline.run(self.mapping, self.table, real_time=True)
        self.app.rewind()
        lat = [it.latency / 1e3 for it in report.iterations]
        return {"model_p50_ms": M.percentile(lat, 50.0),
                "model_tail_ms": M.percentile(lat, tail_p)}

    def layers(self, traced: H.PassResult, plain: H.PassResult) -> Dict[str, float]:
        out = H.common_layers(self)
        out.update(H.compute_runtime(traced))
        out.update(H.mean_shares(traced))
        frames = sum(r.units for r in traced.rounds)
        calls = [c for r in traced.rounds for c in r.info.get("calls", ())]
        for key, fn in (("vision.detect_ms_per_frame", "detect_mark"),
                        ("tracking.predict_ms_per_frame", "predict")):
            out[key] = 1e3 * sum(t1 - t0 for n, t0, t1 in calls
                                 if n == fn) / frames
        out["realtime.deadline_misses"] = sum(r.info.get("misses", 0)
                                              for r in traced.rounds)
        out.update(H.fault_counts(r.info.get("faults") for r in traced.rounds))
        return out
