"""Span tracer for the traced benchmark run.

The tracer wraps public calls of the hbdsim package from the outside: it
replaces a module attribute or a method on its class with a wrapper that
records one span per call and adds exact counts at the same boundary.
Nothing inside the package changes, and ``restore`` puts every original
back. The untraced run never constructs a tracer.

A span is ``(id, parent, name, run, thread, start, end, nested)``:

* ``parent`` is the innermost open span on the same thread. A thread with
  no open span (a worker of ``integrate_ensemble``) takes the innermost
  open span of the thread that built the tracer, so the tree stays whole.
* ``run`` names the CLI call the span belongs to.
* ``nested`` marks a span opened inside an open span of the same name on
  the same thread (a relabelled foliation calling its base); such spans
  add no counts and no busy time.

Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.run_id = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._stacks = {}
        self._main = threading.get_ident()
        self._undo = []

    # -- recording ----------------------------------------------------------
    def add(self, key, amount):
        with self._lock:
            self.counts[key] += amount

    def _fallback_parent(self):
        main = self._stacks.get(self._main)
        try:
            return main[-1][0]
        except (IndexError, TypeError):
            return None

    def wrap(self, name, fn, rows=None, on_exit=None, track=()):
        """Return ``fn`` wrapped in a span called ``name``.

        ``rows(args, kwargs, result)`` gives the work done by one call;
        ``on_exit(args, kwargs, result, deltas, seconds)`` receives the
        growth of the counters named in ``track`` over the call.
        """
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = self._stacks.setdefault(tid, [])
            parent = stack[-1][0] if stack else self._fallback_parent()
            nested = any(open_name == name for _, open_name in stack)
            sid = next(self._ids)
            before = ({k: self.counts[k] for k in track}
                      if track and not nested else None)
            stack.append((sid, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, self.run_id, tid,
                                   start, end, nested))
            if not nested:
                self.add(name + ".calls", 1)
                if rows is not None:
                    self.add(name + ".rows", rows(args, kwargs, result))
                if on_exit is not None:
                    deltas = {k: self.counts[k] - v
                              for k, v in (before or {}).items()}
                    on_exit(args, kwargs, result, deltas, end - start)
            return result

        return traced

    def patch(self, owner, attr, name, **options):
        """Replace ``owner.attr`` by its traced wrapper until ``restore``."""
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **options))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reduction ----------------------------------------------------------
    def busy(self):
        """Summed duration per span name, over all threads, outermost only."""
        out = defaultdict(float)
        for _, _, name, _, _, start, end, nested in self.spans:
            if not nested:
                out[name] += end - start
        return out

    def self_times(self):
        """Self time per span name: duration minus the part of it covered
        by child spans on the same thread."""
        by_id = {s[0]: s for s in self.spans}
        children = defaultdict(list)
        for s in self.spans:
            parent = by_id.get(s[1])
            if parent is not None and parent[4] == s[4]:
                children[s[1]].append((s[5], s[6]))
        out = defaultdict(float)
        for sid, _, name, _, _, start, end, _ in self.spans:
            covered = 0.0
            reach = start
            for lo, hi in sorted(children.get(sid, ())):
                lo = max(lo, reach)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[name] += (end - start) - covered
        return out

    def write_spans(self, path):
        """Write every span as one JSON list per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
