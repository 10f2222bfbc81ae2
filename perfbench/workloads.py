"""The three workloads, each driven through the public ``repro.service``
surface with the default ``sim`` backend and a file-backed journal.

A run is a sequence of whole rounds.  Each round returns the exact
counts it produced; the counts of the first round depend only on the
seed, never on how long the run lasts, so they are the determinism
guard.
"""

from __future__ import annotations

import heapq
import os
import random
import shutil
from collections import namedtuple
from typing import Dict, List, Optional, Tuple

from repro.core.maintainer import OrderMaintainer
from repro.graph import DynamicGraph, barabasi_albert, rmat
from repro.parallel.runtime import SimDeadlockError
from repro.service import Engine, EngineConfig, Request, SnapshotReader
from repro.service.requests import STATUS_COMMITTED
from repro.traffic import generate_trace

from oracle import accounting_gap, cores_digest, mismatches, peel

Edge = Tuple[int, int]
#: one trace arrival: an insert's canonical edge, or a query's
#: (kind, args)
Arrival = namedtuple("Arrival", "t edge query")


def _canon(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Workload:
    name = ""
    #: set up once per round (read-mostly) instead of once per run
    setup_in_round = False
    #: a warm-up round and three measured ones: >= 1 000 latency samples
    min_rounds = 4
    #: a fixed round count, whatever ``--seconds`` says (None: rounds
    #: are started until ``--seconds`` have passed)
    rounds: Optional[int] = None
    #: round 0's sequential stream is the commit order of the responses
    record_commits = True
    #: set-up is an ``Engine.from_journal`` restart
    setup_restarts = False

    def __init__(self) -> None:
        self.eng: Optional[Engine] = None
        self.wal = ""
        #: round 0's committed update stream and its starting edge set,
        #: replayed through the sequential kernel in traced runs
        self.seq_start: List[Edge] = []
        self.seq_stream: List[Tuple[str, Edge]] = []
        self.recording = False
        self._ids: Dict[str, Tuple[str, Edge]] = {}
        self._sim = {"sim_events": 0, "sim_makespan": 0.0, "lock_failures": 0}
        #: cut counts of engines that died inside the current round
        self._cut_carry: Dict[str, int] = {}

    # -- shared helpers --------------------------------------------------
    def submit(self, h, kind: str, e: Edge):
        resp = h.submit(self.eng, Request(kind, u=e[0], v=e[1]))
        self._ids[resp.id] = (kind, e)
        return resp

    def committed(self, resp) -> Optional[Tuple[str, Edge]]:
        """The (kind, edge) of a committed response this workload
        submitted (None for engine-fired expiries)."""
        op = self._ids.pop(resp.id, None)
        if (op is not None and self.recording and self.record_commits
                and resp.detail != "cancelled"):
            self.seq_stream.append(op)
        return op

    def drain_results(self) -> None:
        for res in self.eng.take_batch_results():
            rep = res.report
            self._sim["sim_events"] += rep.events
            self._sim["sim_makespan"] += rep.makespan
            self._sim["lock_failures"] += rep.lock_failures

    def mark(self) -> Dict:
        mc = self.eng.metrics_collector
        return {
            "epoch": self.eng.epoch,
            "cuts": {k: n + self._cut_carry.get(k, 0)
                     for k, n in mc.cuts.items()},
            "fired": mc.window["fired"],
            "journal_bytes": os.path.getsize(self.wal),
            "journal_records": len(self.eng.journal),
        }

    def counts(self, h, before: Dict, updates0: int, **extra) -> Dict:
        """Exact counts of the round that started at ``before``."""
        self.drain_results()
        after = self.mark()
        out = {
            "epochs": after["epoch"] - before["epoch"],
            "updates": h.updates - updates0,
            "journal_bytes": after["journal_bytes"] - before["journal_bytes"],
            "journal_records": (after["journal_records"]
                                - before["journal_records"]),
            "cuts": {k: after["cuts"][k] - before["cuts"][k]
                     for k in after["cuts"]},
            "expiries_fired": after["fired"] - before["fired"],
            "cores_digest": cores_digest(self.eng.cores()),
            **dict(self._sim),
            **extra,
        }
        for k in self._sim:
            self._sim[k] = 0
        return out

    def check_cores(self, h, want: Dict, where: str) -> None:
        bad = mismatches(self.eng.cores(), want)
        h.check(not bad, f"{self.name} {where}: cores differ from the "
                         f"peeling: {bad}")

    def check_accounting(self, h, eng: Engine, lost: int = 0) -> None:
        gap = accounting_gap(eng.metrics_collector, in_flight=lost)
        h.check(gap == 0, f"{self.name}: admitted != committed + quarantined"
                          f" + timed_out + abandoned (gap {gap})")

    def teardown(self) -> None:
        if self.eng is not None:
            self.eng.close()
            self.eng = None

    def sample_setup(self, h) -> None:
        """One more set-up sample, between rounds, of a workload that
        serves every round from one engine."""
        raise NotImplementedError


class BurstBA(Workload):
    """The paper's burst on a Barabási–Albert graph: (almost) every
    vertex has core K, so the parallel kernel does nearly all the work."""

    name = "burst-ba"
    #: re-inserting a burst the engine has already seen is far cheaper
    #: than the first time, so every round starts from a fresh engine
    setup_in_round = True
    N, K = 5_000, 8
    #: the graph and the burst (its edges and their order) are the same
    #: for every --seed, which draws only the interleaved reads: insert
    #: cost is heavy-tailed in |V+|, so a per-seed burst moves the update
    #: figures more from seed to seed than the host's noise does
    GRAPH_SEED = 0
    HELD = 512
    #: the remove phase takes back the first half of the burst: inserts
    #: cost ~18x removes, so with equal counts the median update latency
    #: would sit on the gap between the two modes
    REMOVED = 256
    MAX_BATCH = 128
    READ_EVERY = 2  # one Engine.query point read per this many updates

    def prepare(self, h) -> None:
        edges = barabasi_albert(self.N, self.K, seed=self.GRAPH_SEED)
        random.Random(self.GRAPH_SEED).shuffle(edges)
        self.held = [_canon(*e) for e in edges[:self.HELD]]
        self.base = edges[self.HELD:]
        self.removed = self.held[:self.REMOVED]
        self.targets = sorted({w for e in self.base for w in e})
        self.rng = random.Random(h.seed)
        self.p_base = peel(self.base)
        self.p_full = peel(self.base + self.held)
        self.p_end = peel(self.base + self.held[self.REMOVED:])
        self.wal = os.path.join(h.workdir, "burst-ba.wal")
        self.cfg = EngineConfig(max_batch=self.MAX_BATCH,
                                journal_path=self.wal)
        self.expect: Dict[int, Dict] = {}
        h.on_commit = self.committed

    def setup(self, h) -> None:
        self.eng = Engine(DynamicGraph(self.base), self.cfg)
        self.expect = {self.eng.epoch: self.p_base}

    def _phase(self, h, kind: str, edges: List[Edge]) -> None:
        for i, e in enumerate(edges):
            self.submit(h, kind, e)
            if i % self.READ_EVERY == 0:
                v = self.targets[self.rng.randrange(len(self.targets))]
                resp = h.read(self.eng.query, "core", v)
                if resp.status != STATUS_COMMITTED:
                    h.read_failed((resp.error or {}).get("code", resp.status))
                    continue
                want = self.expect.get(resp.epoch)
                if want is not None:
                    h.check(resp.value == want.get(v, 0),
                            f"burst-ba read core({v}) = {resp.value} at "
                            f"epoch {resp.epoch}, peeling says "
                            f"{want.get(v, 0)}")
        h.call(self.eng, self.eng.flush)

    def round(self, h, r: int) -> Dict:
        self.recording = r == 0
        if self.recording:
            self.seq_start = list(self.base)
        before, updates0 = self.mark(), h.updates
        self._phase(h, "insert", self.held)
        self.check_cores(h, self.p_full, "after the inserts")
        self.expect = {self.eng.epoch: self.p_full}
        self._phase(h, "remove", self.removed)
        self.check_cores(h, self.p_end, "after the removes")
        self.check_accounting(h, self.eng)
        return self.counts(h, before, updates0)


class SlidingWindow(Workload):
    """A ``repro.traffic`` uniform trace replayed in engine mode: the
    engine's window plane fires the expiry removes."""

    name = "sliding-window"
    record_commits = False  # the window model records the stream
    setup_restarts = True
    #: every round is served by one engine, whose journal and metrics
    #: grow with each round, so a run is a fixed number of rounds: a
    #: faster or slower program does the same work and its memory and
    #: rates cover the same rounds.  16 rounds took 16-23 s of wall
    #: time on a 2-vCPU host, leaving room for its slow phases.
    rounds = 16
    VERTICES = 2000
    #: event-clock retention; 0.8 * DEFAULT_RATE * WINDOW = 1500 edges
    WINDOW = 375_000.0
    WARM = 2400    # arrivals replayed before the restart (> one window)
    CHUNK = 2000   # arrivals per round

    def prepare(self, h) -> None:
        trace = generate_trace(
            "uniform", ops=self.WARM + self.rounds * self.CHUNK,
            vertices=self.VERTICES, window=self.WINDOW, seed=h.seed,
            query_mix=0.2,
        )
        # expiry records are the engine's job in engine mode; the
        # arrivals are kept compact and split into the warm-up and whole
        # rounds by arrival count
        arrivals = [Arrival(rec.t, _canon(rec.u, rec.v), None)
                    if rec.op == "insert"
                    else Arrival(rec.t, None, (rec.q, tuple(rec.args)))
                    for rec in trace if not rec.expiry]
        del trace
        self.warm = arrivals[:self.WARM]
        self.chunks = [arrivals[i:i + self.CHUNK]
                       for i in range(self.WARM, len(arrivals), self.CHUNK)]
        del arrivals
        self.wal = os.path.join(h.workdir, "sliding-window.wal")
        self.cfg = EngineConfig(
            max_batch=16, max_delay=256.0, window=self.WINDOW,
            checkpoint_every=256, journal_path=self.wal,
        )
        self.rng = random.Random(h.seed + 1)
        # the benchmark's model of the engine's window: edge -> due time
        # (authoritative) over a due-ordered heap with lazy deletion
        self.due: Dict[Edge, float] = {}
        self._heap: List[Tuple[float, int, Edge]] = []
        self._armed = 0
        self.known: List[int] = []
        self._known = set()
        self.skipped = 0
        self._warm_up(h)
        h.on_commit = self._on_commit

    def _arm(self, e: Edge, due: float) -> None:
        self.due[e] = due
        heapq.heappush(self._heap, (due, self._armed, e))
        self._armed += 1

    def _expire(self, t: float) -> None:
        heap = self._heap
        while heap and heap[0][0] <= t:
            due, _, e = heapq.heappop(heap)
            if self.due.get(e) == due:
                del self.due[e]
                if self.recording:
                    self.seq_stream.append(("remove", e))

    def _learn(self, e: Edge) -> None:
        for w in e:
            if w not in self._known:
                self._known.add(w)
                self.known.append(w)

    def _warm_up(self, h) -> None:
        """Untimed: fill the window and leave a quiescent journal."""
        eng = Engine(DynamicGraph(), self.cfg)
        for t, e, _query in self.warm:
            eng.advance_to(t)
            self._expire(t)
            if e is not None:
                self._arm(e, t + self.WINDOW)
                eng.insert(*e)
                self._learn(e)
        eng.drain_window()
        self.t_restart = self.warm[-1].t
        self.warm = None
        self._expire(self.t_restart)
        self.restart_cores = peel(self.due)
        bad = mismatches(eng.cores(), self.restart_cores)
        h.check(not bad, f"sliding-window warm-up: cores differ from the "
                         f"peeling: {bad}")
        mc = eng.metrics_collector
        h.check(mc.committed == mc.admitted,
                f"sliding-window warm-up: {mc.admitted - mc.committed} "
                f"operation(s) did not commit")
        eng.close()
        # the serving engine appends to the warm-up journal; the set-up
        # samples after each round restart from this copy of it (a
        # restart writes nothing to its journal)
        self.pristine = self.wal + ".setup"
        shutil.copyfile(self.wal, self.pristine)
        # the journal does not hold the expiry schedule: a restarted
        # engine grants every surviving edge a fresh window
        for e in list(self.due):
            self._arm(e, self.t_restart + self.WINDOW)

    def _restart(self, path: str) -> Engine:
        eng = Engine.from_journal(path, self.cfg)
        eng.rearm_window(asof=self.t_restart)
        return eng

    def setup(self, h) -> None:
        self.eng = self._restart(self.wal)
        self.expect = (self.eng.epoch, self.restart_cores)

    def sample_setup(self, h) -> None:
        h.setup(lambda: self._restart(self.pristine)).close()

    def _on_commit(self, resp) -> None:
        op = self.committed(resp)
        if op is not None:
            self._learn(op[1])

    def round(self, h, r: int) -> Dict:
        self.recording = r == 0
        if self.recording:
            self.seq_start = sorted(self.due)
        eng = self.eng
        before, updates0, skipped0 = self.mark(), h.updates, self.skipped
        epoch, want = self.expect
        chunk, self.chunks[r] = self.chunks[r], None
        for t, e, query in chunk:
            h.call(eng, eng.advance_to, t)
            self._expire(t)
            if e is not None:
                if e in self.due:
                    # still held under the restart's fresh window grant,
                    # though the trace's own window let it expire
                    self.skipped += 1
                    continue
                self._arm(e, t + self.WINDOW)
                if self.recording:
                    self.seq_stream.append(("insert", e))
                self.submit(h, "insert", e)
                continue
            kind, args = query
            if kind == "core" and args[0] not in self._known:
                args = (self.known[self.rng.randrange(len(self.known))],)
            resp = h.read(eng.query, kind, *args)
            if resp.status != STATUS_COMMITTED:
                h.read_failed((resp.error or {}).get("code", resp.status))
            elif resp.epoch == epoch:
                h.check(self._answer_ok(kind, args, resp.value, want),
                        f"sliding-window read {kind}{args} = {resp.value!r}"
                        f" at epoch {epoch} disagrees with the peeling")
        h.call(eng, eng.drain_window)
        want = peel(self.due)
        self.check_cores(h, want, f"after round {r}")
        edges = eng.graph.num_edges
        h.check(edges == len(self.due),
                f"sliding-window: engine holds {edges} edges, the window "
                f"model {len(self.due)}")
        self.expect = (eng.epoch, want)
        self.check_accounting(h, eng)
        self.recording = False
        return self.counts(h, before, updates0, window_edges=edges,
                           skipped_inserts=self.skipped - skipped0)

    @staticmethod
    def _answer_ok(kind: str, args: Tuple, value, want: Dict) -> bool:
        if kind == "core":
            return value == want.get(args[0], 0)
        if kind == "degeneracy":
            return value == max(want.values(), default=0)
        hist: Dict[int, int] = {}
        for k in want.values():
            hist[k] = hist.get(k, 0) + 1
        # the engine keeps every vertex it has seen; isolated ones sit
        # at core 0 where the peeling does not list them
        return {k: c for k, c in value.items() if k} == hist


class ReadMostly(Workload):
    """RMAT with the wait-free query plane: ~98% of operations are reads
    answered by an in-process ``SnapshotReader``."""

    name = "read-mostly"
    setup_in_round = True
    SCALE, EDGE_FACTOR = 13, 8
    #: the graph and its update batches are the same for every --seed,
    #: which draws only the reads: insert cost is heavy-tailed in V+, and
    #: a batch the simulator's livelock guard rejects must fail in every
    #: round of every run alike, so that the failed share never varies
    GRAPH_SEED = 0
    HELD = 400
    BATCH = 50
    READS_PER_UPDATE = 49
    #: cumulative shares of ``core`` and ``in_k_core`` reads, the rest
    #: ``k_shell``: the read-heavy mix of ``repro.bench``'s query-plane
    #: experiment (core 0.55, in_k_core 0.30, k_shell 0.05, and 0.05
    #: each of two aggregates not measured here), renormalised to the
    #: three kinds
    CORE, IN_K_CORE = 0.55 / 0.90, 0.85 / 0.90

    def prepare(self, h) -> None:
        edges = rmat(self.SCALE, self.EDGE_FACTOR, seed=self.GRAPH_SEED)
        self.held = [_canon(*e) for e in edges[:self.HELD]]
        self.base = edges[self.HELD:]
        self.targets = sorted({w for e in self.base for w in e})
        self.rng = random.Random(h.seed)
        self._peelings: Dict[frozenset, Dict] = {
            frozenset(): peel(self.base)}
        self.kmax = max(self._peelings[frozenset()].values())
        self.wal = os.path.join(h.workdir, "read-mostly.wal")
        self.cfg = EngineConfig(journal_path=self.wal)
        self.pub = None
        self.reader: Optional[SnapshotReader] = None
        h.on_commit = self.committed

    def _peeling(self, extra: frozenset) -> Dict:
        got = self._peelings.get(extra)
        if got is None:
            got = self._peelings[extra] = peel(self.base + sorted(extra))
        return got

    def setup(self, h) -> None:
        self.eng = Engine(DynamicGraph(self.base), self.cfg)
        self.pub = self.eng.enable_queryplane()
        self.reader = SnapshotReader(self.pub.ctrl_name)

    def _restart(self) -> Engine:
        eng = Engine.from_journal(self.wal, self.cfg)
        eng.enable_queryplane(publisher=self.pub)
        return eng

    def _reads(self, h, expect: Dict[int, Dict]) -> None:
        rng, targets = self.rng, self.targets
        for _ in range(self.READS_PER_UPDATE):
            x = rng.random()
            v = targets[rng.randrange(len(targets))]
            if x < self.CORE:
                kind, args = "core", (v,)
            elif x < self.IN_K_CORE:
                kind, args = "in_k_core", (v, rng.randint(1, self.kmax))
            else:
                kind, args = "k_shell", (rng.randint(1, self.kmax),)
            value, epoch, _stale, err = h.read(self.reader.answer, kind, args)
            if err is not None:
                h.read_failed(err[0])
                continue
            want = expect.get(epoch)
            if want is None:
                continue
            if kind == "core":
                ok = value == want.get(v, 0)
            elif kind == "in_k_core":
                ok = value == (want.get(v, 0) >= args[1])
            else:
                ok = value == {x for x, k in want.items() if k == args[0]}
            h.check(ok, f"read-mostly read {kind}{args} = {value!r} at "
                        f"epoch {epoch} disagrees with the peeling")

    def _batch(self, h, kind: str, batch: List[Edge], extra: set,
               expect: Dict[int, Dict], stats: Dict) -> None:
        ids = []
        for e in batch:
            ids.append(self.submit(h, kind, e).id)
            self._reads(h, expect)
        try:
            h.call(self.eng, self.eng.flush)
        except SimDeadlockError:
            # the simulator's livelock guard rejected a valid batch: its
            # operations fail and the engine restarts from its journal
            stats["livelock_batches"] += 1
            h.lose(ids, "SimDeadlockError")
            for rid in ids:
                self._ids.pop(rid, None)
            self.drain_results()
            self.check_accounting(h, self.eng, lost=len(batch))
            for k, n in self.eng.metrics_collector.cuts.items():
                self._cut_carry[k] = self._cut_carry.get(k, 0) + n
            self.eng.close()
            self.eng = h.restart(self._restart)
            return
        if kind == "insert":
            extra.update(batch)
        else:
            extra.difference_update(batch)

    def round(self, h, r: int) -> Dict:
        self._cut_carry = {}
        stats = {"livelock_batches": 0}
        failed0 = h.failed
        self.recording = r == 0
        if self.recording:
            self.seq_start = list(self.base)
        retries0 = self.reader.retries
        before, updates0 = self.mark(), h.updates
        extra: set = set()
        expect = {self.eng.epoch: self._peeling(frozenset())}
        batches = [self.held[i:i + self.BATCH]
                   for i in range(0, self.HELD, self.BATCH)]
        for kind in ("insert", "remove"):
            for batch in batches:
                if kind == "remove":
                    batch = [e for e in batch if e in extra]
                if batch:
                    self._batch(h, kind, batch, extra, expect, stats)
            want = self._peeling(frozenset(extra))
            self.check_cores(h, want, f"round {r} after the {kind}s")
            expect = {self.eng.epoch: want}
        self.check_accounting(h, self.eng)
        return self.counts(
            h, before, updates0, livelock_batches=stats["livelock_batches"],
            failed=h.failed - failed0,
            queryplane_retries=self.reader.retries - retries0,
        )

    def teardown(self) -> None:
        if self.reader is not None:
            self.reader.close()
            self.reader = None
        super().teardown()
        if self.pub is not None:
            self.pub.close()
            self.pub = None


WORKLOADS = {w.name: w for w in (BurstBA, SlidingWindow, ReadMostly)}


def sequential_baseline(start: List[Edge],
                        stream: List[Tuple[str, Edge]]) -> Dict[str, float]:
    """Replay a committed update stream through the sequential OI/OR
    kernel (``OrderMaintainer``): the single-core baseline."""
    from time import perf_counter

    om = OrderMaintainer(DynamicGraph(start))
    spent = {"insert": 0.0, "remove": 0.0}
    n = {"insert": 0, "remove": 0}
    for kind, (u, v) in stream:
        t0 = perf_counter()
        if kind == "insert":
            om.insert_edge(u, v)
        else:
            om.remove_edge(u, v)
        spent[kind] += perf_counter() - t0
        n[kind] += 1
    return {k: (spent[k] / n[k] * 1e6 if n[k] else 0.0) for k in spent}
