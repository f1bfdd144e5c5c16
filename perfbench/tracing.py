"""In-memory spans around the program's public entry points.

The benchmark measures each layer from the outside: it times the calls
it makes itself (:meth:`Tracer.span`, in every run) and, only in a
traced run, replaces a handful of public functions and methods with
timing wrappers (:func:`instrument`).  Spans stay in memory and are written
once, at the end, as Chrome trace-event JSON that Perfetto and
``chrome://tracing`` open directly.

A span records its name, start, end, the span that was open when it
began (its parent, per thread and per asyncio task through a context
variable) and optional arguments such as a serve request id.  A
layer's self time is its duration minus the part of it covered by its
children.
"""

from __future__ import annotations

import contextvars
import functools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

_CURRENT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)


@dataclass
class Span:
    sid: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    tid: int
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Collects spans; ``wrap`` installs timing wrappers until ``close``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._next = 0
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, Any]] = []

    # ------------------------------------------------------------------
    def _new_id(self) -> int:
        with self._lock:
            self._next += 1
            return self._next

    @contextmanager
    def span(self, name: str, **args: Any):
        sid = self._new_id()
        parent = _CURRENT.get()
        token = _CURRENT.set(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            _CURRENT.reset(token)
            span = Span(sid, name, start, end, parent, threading.get_ident(), args)
            with self._lock:
                self.spans.append(span)

    def wrap(self, owner: object, attr: str, name: str, describe=None) -> None:
        """Replace ``owner.attr`` with a wrapper recording ``name`` spans.

        ``describe(*args, **kwargs)`` may return extra span arguments.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            extra = describe(*args, **kwargs) if describe is not None else {}
            with tracer.span(name, **extra):
                return original(*args, **kwargs)

        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, traced)

    def close(self) -> None:
        """Restore every wrapped attribute (last wrapped first)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def record(self, name: str, start_ns: int, end_ns: int, **args: Any) -> None:
        """Add a span measured elsewhere (a request from its due time)."""
        span = Span(self._new_id(), name, start_ns, end_ns, None,
                    threading.get_ident(), args)
        with self._lock:
            self.spans.append(span)

    # ------------------------------------------------------------------
    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time its children cover."""
        children: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
        result: dict[str, float] = defaultdict(float)
        for s in self.spans:
            covered = 0
            cursor = s.start_ns
            for c in sorted(children[s.sid], key=lambda c: c.start_ns):
                lo, hi = max(c.start_ns, cursor), min(c.end_ns, s.end_ns)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result[s.name] += (s.end_ns - s.start_ns - covered) / 1e9
        return dict(result)

    def write_chrome(self, path: Path) -> None:
        """Write the spans as Chrome trace-event JSON (complete events)."""
        pid = os.getpid()
        origin = min((s.start_ns for s in self.spans), default=0)
        events = []
        for s in sorted(self.spans, key=lambda s: s.start_ns):
            args = {"id": s.sid, "parent": s.parent, **s.args}
            events.append(
                {
                    "name": s.name,
                    "cat": s.name.split(".", 1)[0],
                    "ph": "X",
                    "ts": (s.start_ns - origin) / 1e3,
                    "dur": (s.end_ns - s.start_ns) / 1e3,
                    "pid": pid,
                    "tid": s.tid,
                    "args": args,
                }
            )
        path.write_text(
            json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})
        )


def instrument(tracer: Tracer, describe_group=None) -> None:
    """Wrap the public entry points whose time the per-layer metrics
    report.  Work inside pool workers shows as the parent's wait."""
    from repro.campaign.store import ResultStore
    from repro.execution import fleet_replay
    from repro.execution.simulator import ExecutionSimulator
    from repro.serve import batcher

    tracer.wrap(ResultStore, "get", "campaign.store_get")
    tracer.wrap(ResultStore, "put", "campaign.store_put")
    tracer.wrap(fleet_replay, "fleet_run", "execution.fleet_run")
    tracer.wrap(ExecutionSimulator, "run", "execution.sim_run")
    tracer.wrap(batcher, "answer_group", "serve.answer_group", describe_group)
