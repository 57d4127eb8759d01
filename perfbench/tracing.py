"""In-memory span recorder, self-time arithmetic and function patching.

A :class:`Tracer` records one :class:`Span` per wrapped call — name, start,
end, the enclosing span on the same thread, and the campaign interval it
belongs to — and keeps them in memory until the run ends.  A span's *self
time* is its duration minus the part of it that its child spans cover.

:class:`Patcher` swaps wrappers in for functions and methods of the program
under test and restores the originals afterwards; nothing in the program is
edited.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Iterable

__all__ = ["Patcher", "Span", "Tracer", "self_times"]


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "interval")

    def __init__(
        self,
        id: int,
        parent: int | None,
        name: str,
        start: float,
        end: float | None = None,
        interval: int | None = None,
    ) -> None:
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.interval = interval

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans (per-thread nesting), counters, marks and named samples."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.marks: dict[str, dict[int, float]] = defaultdict(dict)
        #: Named duration samples (e.g. request latency per route class).
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: Objects kept for counting after the run, off the timed path.
        self.kept: list[Any] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str, interval: int | None = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if interval is None and parent is not None:
            interval = parent.interval
        span = Span(
            next(self._ids),
            parent.id if parent is not None else None,
            name,
            self.clock(),
            interval=interval,
        )
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def count(self, name: str, amount: int = 1) -> None:
        # Wrapped calls run on the HTTP server's threads too.
        with self._lock:
            self.counts[name] += amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def mark(self, kind: str, key: int) -> None:
        """Timestamp the first event ``kind`` for ``key``."""
        now = self.clock()
        with self._lock:
            self.marks[kind].setdefault(key, now)

    def wrap(self, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        """``function`` recording one ``name`` span per call."""

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = self.start(name)
            try:
                return function(*args, **kwargs)
            finally:
                self.finish(span)

        wrapper.__wrapped__ = function
        return wrapper


def _union_length(ranges: Iterable[tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(ranges):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the time its children cover (by span id)."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    by_id = {span.id: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is not None:
            children[parent.id].append(
                (max(span.start, parent.start), min(span.end, parent.end))
            )
    return {
        span.id: span.duration - _union_length(children.get(span.id, ()))
        for span in spans
    }


class Patcher:
    """Replaces attributes of the program under test; :meth:`restore` undoes it."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def method(self, owner: type, attribute: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.attribute`` with ``make(original)``."""
        original = owner.__dict__[attribute]
        self._undo.append((owner, attribute, original))
        setattr(owner, attribute, make(original))

    def function(self, module: str, attribute: str, make: Callable[[Any], Any]) -> None:
        """Replace a module-level function everywhere the package bound it.

        A ``from module import name`` elsewhere binds the same object under
        another module's namespace, so every loaded module of the package
        holding that object is patched too.
        """
        original = getattr(sys.modules[module], attribute)
        replacement = make(original)
        package = module.split(".", 1)[0]
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == package or name.startswith(package + ".")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._undo.append((loaded, key, original))
                    setattr(loaded, key, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)
