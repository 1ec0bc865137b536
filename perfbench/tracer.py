"""In-memory span tracer for the benchmark's traced run.

Spans are recorded by wrapping module attributes from outside the package:
``Tracer.wrap(module, "name", ...)`` replaces the attribute with a function
that records ``(name, start, end, parent, op)`` around the original call.
ttpsolve looks its collaborators up as module attributes at call time
(``fr.surface``, ``pwt_dp.dp_front``, ``_kernels.dp_merge``, ...), so the
wrappers see every call without any edit to the package.  ``unwrap_all``
restores the originals.

Spans stay in memory until ``write`` dumps them as JSON lines.  A span's
self time is its duration minus the durations of its direct children;
calls are strictly nested on one thread, so children never overlap.
"""

import json
from collections import defaultdict
from time import perf_counter


class Timed:
    """Context manager that times the block it guards."""

    def __enter__(self):
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = perf_counter()
        self.seconds = self.end - self.start
        return False


class NullTracer:
    """Stand-in used by untraced episodes: times roots, records nothing."""

    op = 0

    def root(self, name):
        return Timed()


class _RootSpan(Timed):
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.span = [self.name, 0.0, 0.0, t._stack[-1], t.op]
        t._stack.append(len(t.spans))
        t.spans.append(self.span)
        super().__enter__()
        self.span[1] = self.start
        return self

    def __exit__(self, *exc):
        super().__exit__(*exc)
        self.span[2] = self.end
        self.tracer._stack.pop()
        return False


class Tracer:
    """Records spans and per-name counters while wrappers are installed."""

    def __init__(self):
        self.spans = []                      # [name, start, end, parent, op]
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.op = 0                          # id shared by the spans of one op
        self._stack = [-1]
        self._patches = []

    def root(self, name):
        """Span around one timed job; its duration is the job's wall time."""
        return _RootSpan(self, name)

    def wrap(self, owner, attr, name, count=None):
        """Replace ``owner.attr`` with a recording wrapper.

        ``count(tracer, args, result)`` runs after the span closes and may
        add to ``tracer.counts`` / ``tracer.maxima``.
        """
        orig = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1], self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, traced)

    def unwrap_all(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def totals(self):
        """Per-name ``{"s", "self_s", "calls"}`` plus per-span self times."""
        dur = [end - start for _, start, end, _, _ in self.spans]
        self_s = list(dur)
        for d, (_, _, _, parent, _) in zip(dur, self.spans):
            if parent >= 0:
                self_s[parent] -= d
        out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for (name, _, _, _, _), d, own in zip(self.spans, dur, self_s):
            agg = out[name]
            agg["s"] += d
            agg["self_s"] += own
            agg["calls"] += 1
        return out, self_s

    def children_named(self, parent_name, child_name):
        """Number of ``parent_name`` spans with at least one such child."""
        parents = {p for name, _, _, p, _ in self.spans
                   if name == child_name and p >= 0 and self.spans[p][0] == parent_name}
        return len(parents)

    def write(self, path):
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op}) + "\n")
