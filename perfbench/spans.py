"""Named perf_counter spans around marscost functions, recorded from outside.

A :class:`Tracer` replaces a function at every module attribute of the
package that is bound to it -- the attribute its callers resolve, such as
``marscost.net.pillarize`` for the call inside ``net.forward_cached`` -- with
a wrapper that records one span per call: name, start, end and the index of
the enclosing span. :meth:`Tracer.restore` puts the originals back.

An optional hook sees each call's arguments, result and span after the span
closes, so counters are read from return values without touching the
program. A layer's self time is its spans' durations minus the time of their
direct child spans; calls run on one thread, so children never overlap.
"""

import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Target:
    """One function to wrap: ``module.attr`` in the package, recorded as ``name``."""

    path: str  # e.g. "bev.pillar_encode_cached"
    name: str = None  # span name; defaults to ``path``
    hook: object = None  # hook(tracer, args, kwargs, result, span) after the call

    def __post_init__(self):
        if self.name is None:
            self.name = self.path


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    package: str = "marscost"
    after: object = None  # called with no arguments after every wrapped call
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=lambda: defaultdict(float))
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)

    def _wrap(self, func, name, hook):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        after = self.after

        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result, span)
            if after is not None:
                after()
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", name)
        return wrapper

    def patch(self, targets):
        """Wrap every target at each package module attribute bound to it."""
        prefix = self.package + "."
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == self.package or n.startswith(prefix))
        ]
        for t in targets:
            mod_name, attr = t.path.rsplit(".", 1)
            original = getattr(sys.modules[prefix + mod_name], attr)
            wrapper = self._wrap(original, t.name, t.hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, original))
        return self

    def restore(self):
        for m, key, original in reversed(self._patched):
            setattr(m, key, original)
        self._patched.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def parent_name(self, span) -> str:
        return self.spans[span.parent].name if span.parent >= 0 else ""

    def stats(self) -> dict:
        """Span name -> calls, inclusive seconds and self seconds."""
        child_s = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_s[s.parent] += s.seconds
        out = defaultdict(SpanStats)
        for s, inner in zip(self.spans, child_s):
            st = out[s.name]
            st.calls += 1
            st.total_s += s.seconds
            st.self_s += s.seconds - inner
        return dict(out)

    def top_level_seconds(self) -> float:
        """Time inside any span: the sum of all spans' self times."""
        return sum(s.seconds for s in self.spans if s.parent < 0)
