"""Spans and counters recorded around calls into contact3, for the traced run.

The hooks wrap names in the module namespaces where callers look them up
(``classification.is_contact_form``, not only ``contact_structures``), so
no file of the library is edited.  Every patched attribute is restored
when the run ends; a target a later version removed or renamed is
reported as absent instead of failing the run.  The untraced run never
imports this module.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field


@dataclass
class Tracer:
    """Spans kept in memory: parallel lists of name, start, end, parent and op.

    Counters are also kept as they stood after the first ``counted_ops``
    ops, so that counts over that fixed prefix of the corpus repeat
    exactly for a seed, however many ops the time budget allowed.
    Spans are timed in process CPU time, as the ops are.
    """

    clock: Callable[[], float] = time.process_time
    counted_ops: int = 8
    names: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    ends: list = field(default_factory=list)
    parents: list = field(default_factory=list)
    ops: list = field(default_factory=list)
    nested: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    prefix_counts: Counter | None = None
    op: int = -1
    _stack: list = field(default_factory=list)

    def next_op(self) -> None:
        """Mark the start of the next op."""
        self.op += 1
        if self.op == self.counted_ops:
            self.prefix_counts = Counter(self.counts)

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(self.clock())
        self.ends.append(None)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        # an inner span of the same name (construct_case5 -> construct_case1)
        # is not counted again in that name's calls and total time
        self.nested.append(any(self.names[i] == name for i in self._stack))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its children cover."""
        children: dict[int, list[int]] = {}
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                children.setdefault(parent, []).append(i)
        out = []
        for i, (start, end) in enumerate(zip(self.starts, self.ends)):
            covered = 0.0
            reach = start
            for s, e in sorted((self.starts[c], self.ends[c]) for c in children.get(i, ())):
                s, e = max(s, reach), min(e, end)
                if e > s:
                    covered += e - s
                    reach = e
            out.append(end - start - covered)
        return out

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: total and self seconds, and outermost calls in the counted ops."""
        out: dict[str, dict[str, float]] = {}
        for i, own in enumerate(self.self_times()):
            t = out.setdefault(self.names[i], {"calls": 0, "s": 0.0, "self_s": 0.0})
            t["self_s"] += own
            if not self.nested[i]:
                t["s"] += self.ends[i] - self.starts[i]
                if self.ops[i] < self.counted_ops:
                    t["calls"] += 1
        return out

    def counted(self) -> tuple[Counter, int]:
        """Counters over the counted ops, and how many ops that is."""
        if self.prefix_counts is not None:
            return self.prefix_counts, self.counted_ops
        return self.counts, self.op + 1


def span_wrapper(tracer: Tracer, name: str, collect=None):
    """Wrap a function in a span; ``collect(counts, args, kwargs, result)`` adds counts."""

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if collect is not None:
                try:
                    collect(tracer.counts, args, kwargs, result)
                except (IndexError, KeyError, TypeError):
                    # the hooked function changed its arguments or result
                    tracer.counts[f"{name}.uncollected"] += 1
            return result

        return wrapper

    return make


def count_wrapper(tracer: Tracer, name: str):
    """Count calls without a span (for names called hundreds of times per op)."""

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    return make


def yield_counter(tracer: Tracer, name: str):
    """Count the items a generator function yields."""

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                tracer.counts[name] += 1
                yield item

        return wrapper

    return make


class Patches:
    """Attribute replacements that are undone in reverse order on restore."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def wrap(self, module, label: str, attr: str, make) -> bool:
        """Replace ``module.attr`` by ``make(original)``; record it absent if missing."""
        if module is None or not hasattr(module, attr):
            self.absent.append(f"{label}.{attr}")
            return False
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))
        return True

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
