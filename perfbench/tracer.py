"""Per-layer tracing from outside the program.

The traced run wraps public functions of each layer with timing spans;
the untraced run installs nothing.  Spans nest: the benchmark opens a
root span around every call it makes into the engine (``update``,
``query``, ``setup``, ``restart``), and a wrapped layer function records
its time under the root it ran in, together with the time its own
wrapped callees took, so a root's self time is its duration minus the
layer time inside it.
"""

from __future__ import annotations

import functools
import gc
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


class Tracer:
    def __init__(self) -> None:
        #: (root, span) -> seconds / calls, accumulated while installed
        self.time: Dict[Tuple[str, str], float] = defaultdict(float)
        self.calls: Dict[Tuple[str, str], int] = defaultdict(int)
        #: root -> seconds of its direct wrapped children
        self.child_time: Dict[str, float] = defaultdict(float)
        self.root_time: Dict[str, float] = defaultdict(float)
        #: (root, kind) -> edges handed to the kernel
        self.edges: Dict[Tuple[str, str], int] = defaultdict(int)
        self.gc_s = 0.0
        self.gc_collections = 0
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._gc_t0: Optional[float] = None

    # -- spans -----------------------------------------------------------
    def push(self, root: str) -> None:
        self._stack.append([root, 0.0])

    def pop(self, dt: float) -> None:
        root, child = self._stack.pop()
        self.root_time[root] += dt
        self.child_time[root] += child

    def wrap(self, owner, attr: str, name: str,
             on_result: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.
        ``on_result(root, args, result)`` sees every successful call."""
        orig = owner.__dict__[attr]
        is_cm = isinstance(orig, classmethod)
        func = orig.__func__ if is_cm else orig
        stack, time, calls = self._stack, self.time, self.calls

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not stack:
                return func(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stack[-1][1] += dt
                root = stack[0][0]
                time[root, name] += dt
                calls[root, name] += 1
            if on_result is not None:
                on_result(root, args, result)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_cm else wrapper)
        self._patches.append((owner, attr, orig))

    # -- lifecycle -------------------------------------------------------
    def install(self, wraps: List[Tuple]) -> None:
        for w in wraps:
            self.wrap(*w)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: Dict) -> None:
        if phase == "start":
            self._gc_t0 = perf_counter()
        elif self._gc_t0 is not None:
            self.gc_s += perf_counter() - self._gc_t0
            self.gc_collections += 1
            self._gc_t0 = None

    # -- queries ---------------------------------------------------------
    def spent(self, span: str, root: Optional[str] = None) -> float:
        return sum(t for (r, s), t in self.time.items()
                   if s == span and (root is None or r == root))

    def count(self, span: str, root: Optional[str] = None) -> int:
        return sum(c for (r, s), c in self.calls.items()
                   if s == span and (root is None or r == root))

    def self_time(self, root: str) -> float:
        return self.root_time[root] - self.child_time[root]
