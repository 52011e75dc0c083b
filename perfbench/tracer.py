"""Outside tracing: spans around the program's entry points, from the bench.

The program under test carries no benchmark hooks.  :class:`Tracer`
installs wrappers by dotted name (``"package.module:Class.method"`` or
``"package.module:function"``) at the name each caller resolves — a
module-level function is wrapped in the *importing* module's namespace,
a method on its class — so the wrappers survive refactors that keep the
entry points' names.  A target that no longer exists is reported as
absent and the run goes on without it.

Spans are kept in memory (name, thread, start, end, parent) and written
out once, at the end.  A span's self time is its duration minus the
durations of its child spans; children nest strictly inside their parent
on one thread, so their durations never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: ``(tracer, args, kwargs, result)``: derives counts from one call.
CountHook = Callable[["Tracer", tuple, dict, Any], None]
#: ``(tracer, args, kwargs)``: samples state just before one call.
BeforeHook = Callable[["Tracer", tuple, dict], None]


@dataclass(frozen=True)
class Target:
    """One entry point to wrap.

    ``span`` names the layer span (``"<layer>.<operation>"``); ``timed``
    false makes the wrapper count calls and run its hooks without a span
    (for generator entry points, whose call returns before the work, and
    for pure sampling hooks).
    """

    span: str
    path: str
    after: Optional[CountHook] = None
    timed: bool = True
    before: Optional[BeforeHook] = None


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: ``[name, thread_id, start, end, parent_index]`` per span.
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: Dotted paths that could not be resolved, with the reason.
        self.absent: Dict[str, str] = {}
        #: Count hooks that raised, by span name (the call itself still ran).
        self.hook_errors: Dict[str, str] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: List[Tuple[Any, str, Any, bool]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        span = [name, threading.get_ident(), time.perf_counter(), 0.0,
                stack[-1] if stack else -1]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack().pop()

    def add(self, key: str, value: float = 1.0) -> None:
        """Add to a count (server threads count concurrently)."""
        with self._lock:
            self.counts[key] += value

    def peak(self, key: str, value: float) -> None:
        """Raise a high-water count to ``value`` if it is higher."""
        with self._lock:
            self.counts[key] = max(self.counts[key], value)

    # -- installation ------------------------------------------------------

    def _wrap(self, target: Target, function: Callable) -> Callable:
        tracer = self
        count_key = target.span + ".calls"

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            tracer.add(count_key)
            if target.before is not None:
                tracer._run_hook(target, target.before, args, kwargs)
            if target.timed:
                index = tracer.begin(target.span)
                try:
                    result = function(*args, **kwargs)
                finally:
                    tracer.end(index)
            else:
                result = function(*args, **kwargs)
            if target.after is not None:
                tracer._run_hook(target, target.after, args, kwargs, result)
            return result

        return wrapper

    def _run_hook(self, target: Target, hook: Callable, *args: Any) -> None:
        try:
            hook(self, *args)
        except Exception as exc:  # a count must never fail the run
            self.hook_errors[target.span] = repr(exc)

    def install(self, targets: Sequence[Target]) -> Dict[str, str]:
        """Wrap every resolvable target; returns the absent ones."""
        for target in targets:
            module_name, _, qualname = target.path.partition(":")
            try:
                owner: Any = importlib.import_module(module_name)
                *parents, attribute = qualname.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attribute)
            except (ImportError, AttributeError, ValueError) as exc:
                self.absent[target.path] = f"{type(exc).__name__}: {exc}"
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped: Any = type(raw)(self._wrap(target, raw.__func__))
            elif callable(raw):
                wrapped = self._wrap(target, raw)
            else:
                self.absent[target.path] = "not callable"
                continue
            owned = attribute in vars(owner)
            self._installed.append((owner, attribute, raw, owned))
            setattr(owner, attribute, wrapped)
        return dict(self.absent)

    def uninstall(self) -> None:
        """Put every original back, newest first."""
        while self._installed:
            owner, attribute, raw, owned = self._installed.pop()
            if owned:
                setattr(owner, attribute, raw)
            else:
                delattr(owner, attribute)

    # -- analysis ----------------------------------------------------------

    def reset_counts(self) -> None:
        """Start counting afresh (spans are kept for the final dump)."""
        with self._lock:
            self.counts = defaultdict(float)

    def layer_seconds(self, since: int = 0) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``.

        ``since`` restricts the tally to spans recorded from that index on
        (one pass of a multi-pass run).
        """
        spans = self.spans
        child_seconds = [0.0] * len(spans)
        for _, _, start, end, parent in spans[since:]:
            if parent >= 0:
                child_seconds[parent] += end - start
        stats: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0.0, "total_s": 0.0, "self_s": 0.0}
        )
        for index in range(since, len(spans)):
            name, _, start, end, _ = spans[index]
            entry = stats[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_seconds[index]
        return dict(stats)

    def write(self, path: Path, extra: Optional[Dict[str, Any]] = None) -> None:
        """Dump spans, counts and absent targets as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            header = {"absent": self.absent, "hook_errors": self.hook_errors,
                      "counts": dict(self.counts), **(extra or {})}
            handle.write(json.dumps(header) + "\n")
            for name, thread, start, end, parent in self.spans:
                handle.write(json.dumps([name, thread, start, end, parent]) + "\n")

