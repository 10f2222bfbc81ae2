"""The benchmark's own correctness oracle.

Core numbers are recomputed here by plain bucket peeling, written
independently of ``repro.core.decomposition``, so a fault in the
program's decomposition cannot hide behind a matching fault in the
check.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Hashable, Iterable, List, Mapping, Tuple

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]


def peel(edges: Iterable[Edge]) -> Dict[Vertex, int]:
    """Core number of every vertex of ``edges`` (Batagelj–Zaversnik).

    Buckets are plain lists with lazy deletion: a vertex whose degree
    dropped is pushed again into its new bucket, and stale entries are
    skipped on pop.  A neighbour's degree never drops below the level
    being peeled, so the scan only moves upwards.
    """
    adj: Dict[Vertex, List[Vertex]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    deg = {u: len(nb) for u, nb in adj.items()}
    top = max(deg.values(), default=0)
    buckets: List[List[Vertex]] = [[] for _ in range(top + 1)]
    for u, d in deg.items():
        buckets[d].append(u)
    core: Dict[Vertex, int] = {}
    level = 0
    while level <= top:
        bucket = buckets[level]
        if not bucket:
            level += 1
            continue
        u = bucket.pop()
        if u in core or deg[u] != level:
            continue
        core[u] = level
        for w in adj[u]:
            if w not in core and deg[w] > level:
                deg[w] -= 1
                buckets[deg[w]].append(w)
    return core


def mismatches(got: Mapping[Vertex, int], want: Mapping[Vertex, int],
               limit: int = 5) -> List[str]:
    """Vertices whose core differs, over the union of both vertex sets;
    a vertex absent from one side counts as core 0 there."""
    out: List[str] = []
    for x in set(got) | set(want):
        a = got.get(x) or 0
        b = want.get(x) or 0
        if a != b:
            out.append(f"vertex {x!r}: engine {a}, peeling {b}")
            if len(out) >= limit:
                break
    return out


def accounting_gap(c, in_flight: int = 0) -> int:
    """``admitted - (committed + quarantined + timed_out + abandoned)``
    of an engine's ``metrics_collector``, minus the operations the caller
    knows were lost with a failed batch; 0 when the engine accounted for
    every admitted request."""
    return c.admitted - (c.committed + c.quarantined + c.timed_out
                         + c.abandoned + in_flight)


def cores_digest(cores: Mapping[Vertex, int]) -> str:
    """Order-independent fingerprint of a core map (core-0 vertices
    included, since the engine keeps every vertex it has seen)."""
    items = sorted(cores.items())
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()[:16]
