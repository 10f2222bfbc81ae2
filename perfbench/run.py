"""Benchmark of the core-maintenance serving engine.

    python3 perfbench/run.py --workload burst-ba --seed 1 --seconds 20 --trace 0

Runs one workload (``burst-ba``, ``sliding-window`` or ``read-mostly``)
through ``repro.service.Engine`` in this process, on one thread, for
about ``--seconds`` seconds of whole rounds (``sliding-window``: a fixed
number of rounds), checks every answer it can
against its own peeling, and prints as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` gives
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
rounds and gives the per-layer metrics and the tracing overhead.  The
line before it holds the run's context and its exact counts.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["burst-ba", "sliding-window", "read-mostly"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_rounds(h, wl):
    """Whole rounds: the workload's fixed count, or until ``--seconds``
    of wall time have passed.  Round 0 warms the interpreter up and is
    not measured; in a traced run the odd rounds, with their set-ups,
    are traced and the even ones are not."""
    tracer = h.tracer
    rounds = []
    measured = []  # per measured round: its operations and timed seconds
    start = perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install(layer_wraps(tracer))
            h.tracing = True
        u0, q0, n0 = h.update_s, h.query_s, h.attempted
        try:
            if wl.setup_in_round:
                h.setup(lambda: wl.setup(h))
            gc.collect()
            rounds.append(wl.round(h, len(rounds)))
            if wl.setup_in_round:
                wl.teardown()
            else:
                # one set-up sample per round spreads them over the run
                wl.sample_setup(h)
        finally:
            if traced:
                h.tracing = False
                tracer.uninstall()
        h.round_s.append([h.update_s - u0, h.query_s - q0])
        if len(rounds) == 1:
            h.reset()
        else:
            h.end_round()
            measured.append({"seconds": sum(h.round_s[-1]),
                             "ops": h.attempted - n0, "traced": traced})
        if wl.rounds is not None:
            if len(rounds) == wl.rounds:
                break
        elif (len(rounds) >= wl.min_rounds
                and perf_counter() - start >= h.seconds):
            break
    return rounds, measured


def layer_wraps(tracer):
    """The public layer functions the traced rounds wrap."""
    from repro.core.state import OrderState
    from repro.graph.dynamic_graph import DynamicGraph
    from repro.parallel.batch import ParallelOrderMaintainer
    from repro.service.journal import EdgeJournal
    from repro.service.queryplane import EpochPublisher, SnapshotReader
    from repro.service.snapshots import SnapshotStore, SnapshotView

    edges = tracer.edges

    def kernel(kind):
        def on_result(root, args, result):
            edges[root, kind] += len(args[1])
        return on_result

    return [
        (DynamicGraph, "__init__", "graph.build"),
        (OrderState, "from_graph", "core.bootstrap"),
        (ParallelOrderMaintainer, "insert_edges", "kernel.insert",
         kernel("insert")),
        (ParallelOrderMaintainer, "remove_edges", "kernel.remove",
         kernel("remove")),
        (EdgeJournal, "append", "journal.append"),
        (SnapshotStore, "commit", "snapshots.commit"),
        (SnapshotStore, "view", "snapshots.view"),
        (SnapshotView, "__init__", "snapshots.view_built"),
        (EpochPublisher, "publish", "queryplane.publish"),
        (SnapshotReader, "answer", "queryplane.answer"),
    ]


def per_layer(h, wl, rounds, measured):
    """Per-layer metrics: times are per traced round (mean), counts are
    the exact counts of the first traced round."""
    from workloads import sequential_baseline

    tr = h.tracer
    n = max(1, len(rounds) // 2)  # traced rounds: 1, 3, 5, ...
    first = rounds[1]
    kernel_ins = tr.spent("kernel.insert", "update")
    kernel_rem = tr.spent("kernel.remove", "update")
    e_ins = tr.edges["update", "insert"]
    e_rem = tr.edges["update", "remove"]
    seq = sequential_baseline(wl.seq_start, wl.seq_stream)
    restarts = h.setup_s if wl.setup_restarts else h.restart_s
    per_op = {}  # traced? -> timed seconds per operation
    for traced in (False, True):
        mine = [m for m in measured if m["traced"] == traced]
        ops = sum(m["ops"] for m in mine)
        secs = sum(m["seconds"] for m in mine)
        per_op[traced] = secs / ops if ops else 0.0
    committed = first["updates"]
    m = {
        # every traced round takes one set-up sample
        ("graph.build_s", "s"): tr.spent("graph.build", "setup") / n,
        ("core.bootstrap_s", "s"): tr.spent("core.bootstrap", "setup") / n,
        ("core.seq_insert_us_per_edge", "us"): seq["insert"],
        ("core.seq_remove_us_per_edge", "us"): seq["remove"],
        ("parallel.kernel_s", "s"): (kernel_ins + kernel_rem) / n,
        ("parallel.insert_us_per_edge", "us"):
            kernel_ins / e_ins * 1e6 if e_ins else 0.0,
        ("parallel.remove_us_per_edge", "us"):
            kernel_rem / e_rem * 1e6 if e_rem else 0.0,
        ("parallel.sim_events", "count"): first["sim_events"],
        ("parallel.lock_failures", "count"): first["lock_failures"],
        ("parallel.sim_makespan", "work"): first["sim_makespan"],
        ("parallel.livelock_batches", "count"):
            first.get("livelock_batches", 0),
        ("service.epochs", "count"): first["epochs"],
        ("service.ops_per_epoch", "ops"):
            committed / first["epochs"] if first["epochs"] else 0.0,
        ("service.update_self_s", "s"): tr.self_time("update") / n,
        ("journal.busy_s", "s"): tr.spent("journal.append", "update") / n,
        ("journal.bytes", "B"): first["journal_bytes"],
        ("journal.records", "count"): first["journal_records"],
        ("journal.restart_s", "s"):
            statistics.median(restarts) if restarts else 0.0,
        ("snapshots.commit_s", "s"):
            tr.spent("snapshots.commit", "update") / n,
        ("snapshots.view_s", "s"): tr.spent("snapshots.view", "query") / n,
        ("snapshots.views_built", "count"):
            (tr.count("snapshots.view_built", "update")
             + tr.count("snapshots.view_built", "query")) / n,
        ("queryplane.publish_s", "s"):
            tr.spent("queryplane.publish", "update") / n,
        ("queryplane.read_s", "s"):
            tr.spent("queryplane.answer", "query") / n,
        ("queryplane.retries", "count"): first.get("queryplane_retries", 0),
        ("traffic.expiries_fired", "count"): first["expiries_fired"],
        ("traffic.window_edges", "count"): first.get("window_edges", 0),
        ("runtime.gc_s", "s"): tr.gc_s / n,
        ("runtime.gc_collections", "count"): tr.gc_collections / n,
        ("trace.overhead_pct", "%"):
            (per_op[True] / per_op[False] - 1.0) * 100.0
            if per_op[False] else 0.0,
    }
    for reason, count in sorted(first["cuts"].items()):
        m[f"service.cuts_{reason}", "count"] = count
    return m




def main(argv=None) -> int:
    args = parse(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # set iteration order feeds the simulator's schedule: pin it so
        # a seed reproduces its counts exactly
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable,
                 [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]])
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from harness import Harness
    from workloads import WORKLOADS

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=str(ROOT))
    h = Harness(args.seed, args.seconds, bool(args.trace), workdir)
    wl = WORKLOADS[args.workload]()
    try:
        wl.prepare(h)
        if not wl.setup_in_round:
            h.setup(lambda: wl.setup(h))
        rounds, measured = run_rounds(h, wl)
        if args.trace:
            metrics = per_layer(h, wl, rounds, measured)
        else:
            e2e = h.end_to_end()
            metrics = {(k, u): e2e[k] for k, u in END_TO_END}
    finally:
        wl.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
        stop_resource_tracker()
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "commit": git_commit(ROOT), "python": platform.python_version(),
        "cpus": os.cpu_count(), "rounds": len(rounds),
        "samples": {"update_latency": h.samples["update"],
                    "query_latency": h.samples["query"],
                    "setup": len(h.setup_s), "restart": len(h.restart_s),
                    "update_p99_blocks": len(h.block_p99["update"]),
                    "query_p99_blocks": len(h.block_p99["query"])},
        "failures": dict(h.failures),
        "round_seconds": h.round_s,
        "round_p50_s": h.round_p50,
        "determinism": rounds[0],
        "errors": h.errors[:10],
    }
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": not h.errors,
        "attempted": h.attempted,
        "failed": h.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for (k, u), v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not h.errors else 1


END_TO_END = [
    ("setup_s", "s"), ("update_ops_per_s", "1/s"), ("update_p50_ms", "ms"),
    ("update_p99_ms", "ms"), ("query_ops_per_s", "1/s"),
    ("query_p50_us", "us"), ("query_p99_us", "us"), ("peak_rss_mb", "MB"),
]


def stop_resource_tracker() -> None:
    """Reap the shared-memory resource tracker process, if this run
    started one (the query plane's segments are already unlinked)."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    sys.exit(main())
