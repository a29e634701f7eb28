"""``serve-mix``: ``SkipperService`` over a two-worker tcp pool.

Two tenants, one client thread each, submit in a closed loop.  Each
client's round is four requests: three repeat submits of the seeded
soak-stream program (compile-cache hits) and one fresh source (a cold
compile), at a seeded position.  A fresh source is the same program
with an unused, uniquely salted top-level binding, so it misses the
cache but does the same work.  Op = unit = one request, timed from
submit to result.

Checks: every result equals the soak checksum recomputed here; each
request hits or misses the cache as it should; each tenant's ledger
has delivered + shed + failed == submitted.
"""

from __future__ import annotations

import importlib
import random
import threading
from typing import Dict, List, Tuple

import harness as H
import measure as M

POOL = 2
TENANTS = ("alpha", "beta")
REQUESTS = 4  # per client per round, one of them fresh
NPROC, FRAMES, PIECES = 2, 10, 4
WORK_US = (190, 210)
TIMEOUT_S = 30.0


def checksum(k: int, pieces: int) -> int:
    """The soak program's value for frame ``k``, written out here."""
    return sum((k * 2_654_435_761 + j * 40_503) % 100_003
               for j in range(pieces))


def make_table():
    """The soak functions, with modelled costs that follow ``work_us``."""
    from repro import FunctionTable
    from repro.realtime import soak as S

    t = FunctionTable()
    t.register("grab", ins=["int * int * int"], outs=["frame"],
               cost=10.0)(S.grab)
    t.register("shatter", ins=["frame"], outs=["piece list"],
               cost=10.0)(S.shatter)
    t.register("crunch", ins=["piece"], outs=["int"],
               cost=lambda p: 20.0 + p[2])(S.crunch)
    t.register("gather", ins=["int", "int"], outs=["int"], cost=5.0,
               properties=["commutative", "associative"])(S.gather)
    t.register("pack", ins=["int", "frame", "int"], outs=["int", "pair"],
               cost=10.0)(S.pack)
    t.register("emit", ins=["pair"], cost=5.0)(S.emit)
    return t


class ServeMix:
    name = "serve-mix"
    # p90: a quarter of a 30 s run's rounds is ~200 requests, too few
    # for ten beyond p95 on every run.
    tail_pct = 90.0
    warmup = 1
    setups = 5
    # Two processes and several threads per request: steal reaches it
    # more than the in-process workloads, so it keeps fewer rounds.
    quiet_share = 0.25
    pin = False  # the pool's worker processes run on any CPU
    scaled = False  # requests wait on the pool's processes
    n_workers = 1  # workers per run

    def __init__(self, seed: int):
        from repro.serve.soak import soak_source
        from repro.syndex import ring

        self.rng = random.Random(seed)
        work = self.rng.randint(*WORK_US)
        self.source = soak_source(nproc=NPROC, frames=FRAMES, pieces=PIECES,
                                  work_us=work)
        self.table = make_table()
        self.arch = ring(NPROC + 1)
        self.packet = (3, 1, work)
        self.expected = [(k, checksum(k, PIECES)) for k in range(FRAMES)]
        self.svc = None

    def setup(self) -> None:
        from repro.serve.service import SkipperService

        svc = SkipperService(cluster_size=POOL, workers_per_run=1)
        try:
            # Wait until every pool worker has connected.
            svc.harness.release(svc.harness.checkout(POOL, timeout=TIMEOUT_S))
            self.mapping = svc.cache.build(self.source, self.table,
                                           self.arch).mapping
        except BaseException:
            svc.close()
            raise
        self.svc = svc

    def teardown(self) -> None:
        if self.svc is not None:
            self.svc.close()
            self.svc = None

    def client(self, tenant: str, salts: List, out: List) -> None:
        from repro.serve.scheduler import RunRequest

        for salt in salts:
            source = self.source
            if salt is not None:
                source += f"let salt_{salt} = {salt};;\n"
            t0 = M.now()
            try:
                ticket = self.svc.run(
                    RunRequest(source=source, table=self.table,
                               arch=self.arch, tenant=tenant,
                               timeout=TIMEOUT_S),
                    timeout=TIMEOUT_S)
            except Exception as exc:  # a stalled request: one failed op
                out.append((salt, None, repr(exc)))
                continue
            out.append((salt, (M.now() - t0) * 1e3, ticket))

    def round(self, traced: bool) -> H.Round:
        plans = []
        for _ in TENANTS:
            salts: List = [None] * REQUESTS
            salts[self.rng.randrange(REQUESTS)] = self.rng.getrandbits(48)
            plans.append(salts)
        hits0 = self.svc.cache.stats()["hits"]
        outs: List[List[Tuple]] = [[] for _ in TENANTS]
        threads = [threading.Thread(target=self.client, args=(t, p, o))
                   for t, p, o in zip(TENANTS, plans, outs)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        r = H.Round([], 0)
        repeats = 0
        for salt, ms, ticket in (x for o in outs for x in o):
            if ms is None or ticket.status != "ok":
                r.failed += 1
                r.info["error"] = (ticket if ms is None else
                                   f"{ticket.status}: {ticket.error[-300:]}")
                continue
            r.latencies_ms.append(ms)
            r.units += 1
            repeats += salt is None
            if ticket.report.outputs != self.expected:
                r.problems.append(f"request {ticket.id}: wrong outputs")
            if ticket.cache_hit != (salt is None):
                r.problems.append(f"request {ticket.id}: cache_hit "
                                  f"{ticket.cache_hit} for salt {salt}")
        r.info["hits"] = self.svc.cache.stats()["hits"] - hits0
        if r.info["hits"] != repeats:
            r.problems.append(f"{r.info['hits']} cache hits for "
                              f"{repeats} repeat submits")
        for row in self.svc.stats()["tenants"]:
            if row["delivered"] + row["shed"] + row["failed"] \
                    != row["submitted"]:
                r.problems.append(f"tenant {row['tenant']} ledger: {row}")
        return r

    def model_metrics(self, tail_p: float) -> Dict[str, float]:
        """Virtual makespan of one request's program on the T9000 model."""
        from repro import pipeline
        from repro.realtime import soak

        # Reset the stream source the way a pool worker does per run.
        importlib.reload(soak)
        ms = pipeline.run(self.mapping, self.table).makespan / 1e3
        return {"model_p50_ms": ms, "model_tail_ms": ms}

    def layers(self, traced: H.PassResult, plain: H.PassResult) -> Dict[str, float]:
        out = H.common_layers(self)
        out["serve.cache_hits"] = sum(r.info["hits"] for r in traced.rounds)
        return out
