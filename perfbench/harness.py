"""Closed-loop measuring harness shared by the workloads.

One client on one thread: the next operation is issued when the
previous call returns.  Every call into the engine goes through one of
the methods below, which time it, take the responses it completed and
settle them.  Update latency runs from an update's ``submit`` to the
return of the call in which its committed response was taken; read
latency is the wall time of the read call.
"""

from __future__ import annotations

import gc
import resource
import statistics
from array import array
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional

from repro.service.requests import STATUS_COMMITTED, STATUS_PENDING

from tracer import Tracer


#: p99 is taken over blocks of whole consecutive measured rounds, each
#: holding at least this many samples, so that each block's p99 has at
#: least ten samples beyond it
TAIL_BLOCK = 1000


def percentile(data, p: int) -> float:
    """The ``p``-th percentile, linearly interpolated between ranks."""
    if len(data) < 2:
        return data[0] if data else 0.0
    return statistics.quantiles(data, n=100, method="inclusive")[p - 1]


class Harness:
    def __init__(self, seed: int, seconds: float, trace: bool,
                 workdir: str) -> None:
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.tracer: Optional[Tracer] = Tracer() if trace else None
        self.tracing = False
        self.update_s = 0.0
        self.query_s = 0.0
        self.updates = 0  # committed update operations, expiries included
        self.reads = 0    # answered reads
        #: the current round's latency samples in seconds, unboxed
        self.update_lat = array("d")
        self.query_lat = array("d")
        self.samples = {"update": 0, "query": 0}
        self.round_p50: Dict[str, List[float]] = {"update": [], "query": []}
        #: measured samples not yet in a full tail block, and the p99 of
        #: every full block; only these are kept, so the benchmark's own
        #: memory does not grow with the rounds a run gets through and
        #: move ``peak_rss_mb``
        self._block = {"update": array("d"), "query": array("d")}
        self.block_p99: Dict[str, List[float]] = {"update": [], "query": []}
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()
        self.setup_s: List[float] = []
        self.restart_s: List[float] = []
        self.errors: List[str] = []
        self.round_s: List[List[float]] = []  # [update s, read s] per round
        #: called with every committed update response
        self.on_commit: Optional[Callable] = None
        self._t_submit: Dict[str, float] = {}

    def reset(self) -> None:
        """Forget what the warm-up round measured (set-up samples and
        correctness findings stay)."""
        self.update_s = self.query_s = 0.0
        self.updates = self.reads = self.attempted = self.failed = 0
        self.update_lat, self.query_lat = array("d"), array("d")
        self.failures = Counter()

    def end_round(self) -> None:
        """Keep a measured round's latencies: its median, and its
        samples towards the current tail block."""
        for kind, lat in (("update", self.update_lat),
                          ("query", self.query_lat)):
            self.round_p50[kind].append(percentile(lat, 50))
            self.samples[kind] += len(lat)
            block = self._block[kind]
            block.extend(lat)
            if len(block) >= TAIL_BLOCK:
                self.block_p99[kind].append(percentile(block, 99))
                self._block[kind] = array("d")
        self.update_lat, self.query_lat = array("d"), array("d")

    # -- calls into the engine -------------------------------------------
    def _enter(self, root: str) -> None:
        if self.tracing:
            self.tracer.push(root)

    def _leave(self, dt: float) -> None:
        if self.tracing:
            self.tracer.pop(dt)

    def submit(self, eng, request):
        """Submit one update request."""
        self.attempted += 1
        self._enter("update")
        t0 = perf_counter()
        try:
            resp = eng.submit(request)
            done = eng.take_completed()
        finally:
            t1 = perf_counter()
            self.update_s += t1 - t0
            self._leave(t1 - t0)
        if resp.status == STATUS_PENDING:
            self._t_submit[resp.id] = t0
        else:
            self._settle_one(resp, t0, t1)
        self._settle(done, t1)
        return resp

    def call(self, eng, fn: Callable, *args) -> None:
        """An update-path call that takes no request: ``advance_to``,
        ``flush``, ``drain_window``."""
        self._enter("update")
        t0 = perf_counter()
        try:
            out = fn(*args)
            done = eng.take_completed()
        finally:
            t1 = perf_counter()
            self.update_s += t1 - t0
            self._leave(t1 - t0)
        if out:
            self._settle(out, t1)
        self._settle(done, t1)

    def read(self, fn: Callable, *args):
        """One read call; the workload calls :meth:`read_failed` if the
        answer is a refusal."""
        self.attempted += 1
        self._enter("query")
        t0 = perf_counter()
        try:
            out = fn(*args)
        finally:
            t1 = perf_counter()
            self.query_s += t1 - t0
            self._leave(t1 - t0)
        self.query_lat.append(t1 - t0)
        self.reads += 1
        return out

    def read_failed(self, code: str) -> None:
        self.reads -= 1
        self.failed += 1
        self.failures[code] += 1

    def lose(self, ids: Iterable[str], code: str) -> None:
        """Count submitted updates that can no longer complete (their
        batch raised) as failed."""
        for rid in ids:
            if self._t_submit.pop(rid, None) is not None:
                self.failed += 1
                self.failures[code] += 1

    def _settle(self, responses, t1: float) -> None:
        for r in responses:
            t0 = self._t_submit.pop(r.id, None)
            if t0 is None:
                self.attempted += 1  # an expiry the engine fired itself
            self._settle_one(r, t0, t1)

    def _settle_one(self, r, t0: Optional[float], t1: float) -> None:
        if r.status == STATUS_COMMITTED:
            self.updates += 1
            if t0 is not None:
                self.update_lat.append(t1 - t0)
            if self.on_commit is not None:
                self.on_commit(r)
        else:
            self.failed += 1
            self.failures[(r.error or {}).get("code", r.status)] += 1

    # -- set-up and restart ----------------------------------------------
    def _timed(self, root: str, fn: Callable, into: List[float]):
        gc.collect()
        self._enter(root)
        t0 = perf_counter()
        try:
            out = fn()
        finally:
            dt = perf_counter() - t0
            self._leave(dt)
        into.append(dt)
        return out

    def setup(self, fn: Callable):
        return self._timed("setup", fn, self.setup_s)

    def restart(self, fn: Callable):
        return self._timed("restart", fn, self.restart_s)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    # -- results ---------------------------------------------------------
    def end_to_end(self) -> Dict[str, float]:
        """Over the measured rounds.  The host runs in fast and slow
        phases, and a median over rounds jumps when the fast rounds
        become the majority, so rates are totals over total call time
        and p50 is the mean of the rounds' medians.  p99 is the mean of
        the tail blocks' p99s: pooled over the whole run, a p99 is set
        by the run's slowest few rounds."""
        return {
            "setup_s": statistics.median(self.setup_s),
            "update_ops_per_s": self.updates / self.update_s,
            "update_p50_ms": statistics.mean(self.round_p50["update"]) * 1e3,
            "update_p99_ms": statistics.mean(self.block_p99["update"]) * 1e3,
            "query_ops_per_s": self.reads / self.query_s,
            "query_p50_us": statistics.mean(self.round_p50["query"]) * 1e6,
            "query_p99_us": statistics.mean(self.block_p99["query"]) * 1e6,
            "peak_rss_mb": peak_rss_mb(),
        }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
