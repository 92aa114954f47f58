"""Span tracing from outside the program.

:class:`Tracer` times calls into a layer's public entry points without
touching the layer's source: :class:`Instrumentation` swaps each entry
point for a wrapper on its class or module, and puts the original back
when the traced run ends.

Every wrapped call is a span with a parent (the span open when it began).
A span's *self time* is its duration minus the part of it covered by its
child spans, so summing self time over all spans attributes each wall
second to exactly one layer.  To stay bounded at millions of calls the
tracer aggregates per span name (calls, total, self, tally) and keeps
full spans only for root operations — the simulator's event handlers and
the benchmark's own phases — plus per-call durations for the few names
that ask for samples.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Index of each field in a per-name statistics record.
CALLS, TOTAL, SELF, TALLY = 0, 1, 2, 3


class Tracer:
    """Aggregating span recorder.

    Args:
        clock: monotonic seconds source (injectable for tests).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Open spans, innermost last: ``[child_seconds, name]``.
        self._stack: List[list] = []
        #: name -> ``[calls, total_s, self_s, tally]``.
        self.stats: Dict[str, list] = {}
        #: name -> per-call durations, for names traced with samples.
        self.samples: Dict[str, List[float]] = {}
        #: Full root spans: ``(name, parent, start, end)``.
        self.roots: List[Tuple[str, Optional[str], float, float]] = []

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0])

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        *,
        tally: Optional[Callable[[Any], float]] = None,
        samples: bool = False,
        root: bool = False,
    ) -> Callable[..., Any]:
        """Return ``fn`` wrapped in a span called ``name``.

        Args:
            tally: maps the call's result to a number summed into the
                name's tally (e.g. 1 for a useful outcome), so ratios are
                counted where the work happens.
            samples: keep every call's duration.
            root: keep the full span (a root operation).
        """
        stack = self._stack
        stat = self._stat(name)
        clock = self.clock
        durations = self.samples.setdefault(name, []) if samples else None
        roots = self.roots

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1][1] if stack else None
            frame = [0.0, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat[CALLS] += 1
                stat[TOTAL] += elapsed
                stat[SELF] += elapsed - frame[0]
                if durations is not None:
                    durations.append(elapsed)
                if root:
                    roots.append((name, parent, start, end))
            if tally is not None:
                stat[TALLY] += tally(result)
            return result

        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A root span around a block of the benchmark's own code."""
        stack = self._stack
        parent = stack[-1][1] if stack else None
        frame = [0.0, name]
        stack.append(frame)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            elapsed = end - start
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            stat = self._stat(name)
            stat[CALLS] += 1
            stat[TOTAL] += elapsed
            stat[SELF] += elapsed - frame[0]
            self.roots.append((name, parent, start, end))

    def summary(self) -> Dict[str, Any]:
        """Aggregates, samples and root spans as plain JSON-able data."""
        return {
            "stats": {
                name: {
                    "calls": s[CALLS],
                    "total_s": s[TOTAL],
                    "self_s": s[SELF],
                    "tally": s[TALLY],
                }
                for name, s in sorted(self.stats.items())
            },
            "samples": {name: list(d) for name, d in sorted(self.samples.items())},
            "roots": [list(r) for r in self.roots],
        }


class Instrumentation:
    """Replaces entry points with traced wrappers; restores them on exit.

    Use as a context manager so the originals come back even when the
    traced run raises::

        with Instrumentation(tracer) as inst:
            inst.patch(Transport, "probe", "transport.probe")
            ...
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: List[Tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, name: str, **options: Any) -> None:
        """Wrap ``owner.attr`` (a class or module attribute) as span ``name``.

        Only an attribute defined on ``owner`` itself is replaced, so an
        inherited method is traced once, on the class that defines it.
        """
        raw = vars(owner)[attr]
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, self.tracer.wrap(raw, name, **options))

    def restore(self) -> None:
        """Put every original back, last patched first."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Instrumentation":
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()
