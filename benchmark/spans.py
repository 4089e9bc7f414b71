"""Spans around the program's layer-boundary functions, installed at run
time from the benchmark's own files.

Each traced function is replaced, under every module-global name that
refers to it, by a wrapper that records a span (operation id, span id,
parent span id, name, start, end). Callers that imported a function by
name (`experiment` does `from barriersmc.simkernel import simulate`) hold
their own global, so every such global is patched, not only the defining
module's attribute. Spans stay in memory until the run ends.

Per-step functions (controller laws, gain evaluations, disturbance
samples) are deliberately not wrapped: a span costs about as much as one
~2 us Euler step, so their time is reported inside `simulate`'s self time
and timed separately in isolation (see microbench.py).
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

ROOT_SPAN = "op"
PACKAGE = "barriersmc"


class Tracer:
    """Records spans and boundary counts for the operations it is armed for.

    `targets` maps a span name ("module.function") to the function object;
    `hooks` maps a span name to `hook(counts, args, kwargs, result)`, which
    adds the work counted at that boundary to `counts`. A hook runs after
    its span closes, so its cost lands in the caller's self time: keep it
    to a few attribute reads.
    """

    def __init__(self, targets, hooks):
        self.spans = []
        self.counts = Counter()
        self.ops = 0
        self._stack = []
        self._op = None
        self._patches = []
        for name, fn in targets.items():
            wrapper = self._wrap(name, fn, hooks.get(name))
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == PACKAGE
                                       or mod_name.startswith(PACKAGE + ".")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, attr, fn, wrapper))

    def _wrap(self, name, fn, hook):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1]
            sid = len(self.spans)
            self.spans.append(None)
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[sid] = (self._op, sid, parent, name, start, end)
            if hook:
                hook(self.counts, args, kwargs, result)
            return result

        return wrapper

    def begin(self, op_id):
        """Install the wrappers and open the root span of one operation."""
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        self._op = op_id
        sid = len(self.spans)
        self.spans.append(None)
        self._stack = [sid]

    def end(self, start, end):
        """Close the root span with the operation's timed interval and
        restore the original functions."""
        for mod, attr, fn, _ in self._patches:
            setattr(mod, attr, fn)
        sid = self._stack.pop()
        self.spans[sid] = (self._op, sid, None, ROOT_SPAN, start, end)
        self.ops += 1

    def self_times(self):
        """Total self time per span name: its duration minus the part of
        it that its direct children cover."""
        child = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = defaultdict(float)
        for _, sid, _, name, start, end in self.spans:
            totals[name] += (end - start) - child[sid]
        return totals

    def call_counts(self):
        return Counter(span[3] for span in self.spans)

    def write(self, path):
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("op", "id", "parent", "name", "start", "end")
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")
