"""In-memory span tracer for the benchmark's traced runs.

The program has no tracing of its own yet, so the traced run wraps the
program's public functions at the module attributes their callers look
them up through (``repro.simulation.io.read_table_dump``,
``RoutingTable.from_entries`` on its class, ...).  No program file
changes; :meth:`Tracer.restore` puts every original back.

Each span records name, start, end, parent span id and run id.  Spans
stay in memory and are written as JSON lines by :meth:`Tracer.dump` when
the run ends.  A layer's self time is its span time minus the part of
that interval its child spans cover.  Counters are bumped at the same
boundaries.  ``gc.callbacks`` timestamps collector pauses.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Span = Dict[str, Any]


class Tracer:
    """Spans, counters and GC pauses of one traced process."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self.gc_pauses: List[Tuple[int, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._gc_started: Optional[float] = None

    # -- spans -------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span named *name* around the ``with`` body."""
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _open(self, name: str) -> Span:
        stack = self._stack()
        record: Span = {
            "id": next(self._ids),
            "parent": stack[-1] if stack else None,
            "name": name,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(record["id"])
        return record

    def _close(self, record: Span) -> None:
        record["end"] = time.perf_counter()
        self._stack().pop()
        self.spans.append(record)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- patching ----------------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str,
             counter: Optional[Callable[[Any], Dict[str, float]]] = None
             ) -> None:
        """Record a span named *name* around every call of ``owner.attr``.

        *owner* is a module or a class; a classmethod stays one.  *counter* maps the call's result to
        counts added under their own names.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        is_classmethod = isinstance(raw, classmethod)
        function = raw.__func__ if is_classmethod else raw
        tracer = self

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            record = tracer._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._close(record)
            if counter is not None:
                for key, value in counter(result).items():
                    tracer.count(key, value)
            return result

        self._patches.append((owner, attr, raw))
        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)

    def count_calls(self, owner: Any, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` under *name* (no span)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        tracer = self

        @functools.wraps(raw)
        def counted(*args: Any, **kwargs: Any) -> Any:
            tracer.count(name)
            return raw(*args, **kwargs)

        self._patches.append((owner, attr, raw))
        setattr(owner, attr, counted)

    def watch_gc(self) -> None:
        """Record every collector pause (generation, seconds)."""
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.gc_pauses.append(
                (info["generation"], time.perf_counter() - self._gc_started)
            )
            self._gc_started = None

    def restore(self) -> None:
        """Undo every patch and GC hook, newest first."""
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- aggregation -------------------------------------------------------
    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, *names: str) -> float:
        return sum(sum(self.durations(name)) for name in names)

    def self_time(self, name: str) -> float:
        """Span time of *name* minus the time its child spans cover."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(span)
        total = 0.0
        for span in self.spans:
            if span["name"] != name:
                continue
            covered = 0.0
            cursor = span["start"]
            for child in sorted(children.get(span["id"], ()),
                                key=lambda c: c["start"]):
                start = max(child["start"], cursor)
                end = min(child["end"], span["end"])
                if end > start:
                    covered += end - start
                    cursor = end
            total += span["end"] - span["start"] - covered
        return total

    def covered(self, parent_name: str) -> float:
        """Share of *parent_name* spans covered by their direct children."""
        parent_total = self.total(parent_name)
        if parent_total <= 0:
            return 0.0
        return 1.0 - self.self_time(parent_name) / parent_total

    def gc_summary(self) -> Dict[str, float]:
        return {
            "gen2_collections": float(
                sum(1 for generation, _ in self.gc_pauses if generation == 2)
            ),
            "pause_ms": 1000.0 * sum(pause for _, pause in self.gc_pauses),
        }

    def dump(self, path: Path) -> None:
        """Write spans, then counters, as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")
            handle.write(json.dumps(
                {"run": self.run_id, "counters": self.counters,
                 "gc": self.gc_summary()},
                sort_keys=True,
            ) + "\n")


class NullTracer:
    """The untraced run's tracer: spans record nothing."""

    def span(self, name: str) -> contextlib.AbstractContextManager:
        return contextlib.nullcontext()
