"""Layer spans recorded from outside the program.

The benchmark never edits the program to time it.  Instead a
:class:`Tracer` rebinds a layer's public functions, for the duration of
one traced operation, to wrappers that time each call and keep a
per-thread stack of open spans, so every span's *self* time (its
duration minus the part its child spans cover) is known.  The sum of
all self times over the traced wall is the share of the wall charged to
a named layer; the rest is driver logic nobody wrapped.

Rules the wrap list follows:

* A callee imported by name is rebound where the *caller* looks it up
  (``repro.core.pipeline.verify_ruling_set``, not
  ``repro.core.verify.verify_ruling_set``), or the wrapper is never
  reached.
* The recursive global ``repro.mpc.machine.words_of`` is never rebound:
  every nested container would pay the wrapper, which once added tens
  of seconds to a streamed run.  Only the shard backend's by-name import
  (one call per spilled store or inbox) is wrapped.
* Every rebinding is undone when the ``installed()`` block exits, even
  on error.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Optional per-call observer: ``(args, kwargs, result, seconds)``.
OnExit = Callable[[tuple, dict, object, float], None]


class SpanStats:
    """Aggregate of every call recorded under one layer name."""

    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Times wrapped functions; aggregates per layer name."""

    def __init__(self) -> None:
        self.stats: Dict[str, SpanStats] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._targets: List[Tuple[object, str, str, Optional[OnExit]]] = []
        self._saved: List[Tuple[object, str, object]] = []

    def add(
        self,
        owner: object,
        attr: str,
        name: str,
        on_exit: Optional[OnExit] = None,
    ) -> bool:
        """Register ``owner.attr`` (module or class) under layer ``name``.

        Returns False, registering nothing, when ``owner`` does not
        define ``attr``: the layer then reads zero and its time shows up
        as uncharged driver time instead of failing the run.
        """
        self.stats.setdefault(name, SpanStats())
        if attr not in vars(owner):
            return False
        self._targets.append((owner, attr, name, on_exit))
        return True

    def reset(self) -> None:
        """Drop recorded numbers (the wrap list stays)."""
        with self._lock:
            self.stats = {name: SpanStats() for name in self.stats}

    def self_total_s(self) -> float:
        """Sum of self times over every layer: the charged wall."""
        return sum(span.self_s for span in self.stats.values())

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Rebind every registered target; restore them all on exit."""
        try:
            for owner, attr, name, on_exit in self._targets:
                raw = vars(owner)[attr]
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, self._wrapped(raw, name, on_exit))
            yield self
        finally:
            while self._saved:
                owner, attr, raw = self._saved.pop()
                setattr(owner, attr, raw)

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrapped(self, raw: object, name: str, on_exit: Optional[OnExit]):
        if isinstance(raw, classmethod):
            return classmethod(self._timed(raw.__func__, name, on_exit))
        if isinstance(raw, staticmethod):
            return staticmethod(self._timed(raw.__func__, name, on_exit))
        return self._timed(raw, name, on_exit)

    def _timed(self, fn, name: str, on_exit: Optional[OnExit]):
        clock = time.perf_counter

        def span(*args, **kwargs):
            # Each stack slot accumulates the time of the open span's
            # children, so self time is exact without storing a tree.
            stack = self._stack()
            stack.append(0.0)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._lock:
                    record = self.stats[name]
                    record.calls += 1
                    record.total_s += elapsed
                    record.self_s += elapsed - children
            if on_exit is not None:
                on_exit(args, kwargs, result, elapsed)
            return result

        span.__wrapped__ = fn
        return span
