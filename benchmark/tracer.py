"""Span tracer that wraps the library's public functions from outside.

Nothing under src/ is changed: each traced function is replaced, for the
length of a traced pass, in its defining module and in every beltbound
module that bound it with ``from ... import`` (the benchmark's own code calls
through the module, as ``estimator.beta_estimate``).  Class methods are
patched on the class.

A span records (name, start, end, parent).  Spans are recorded only inside a
root span that the benchmark itself opens (a set-up or a job), so calls made
by correctness checks stay out of the figures.  Leaf functions that run very
often (``PeriodicField.eval_at``) are timed but aggregated per parent span
instead of stored one by one, which keeps memory flat.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

# (module, attribute path, leaf?)  -- the public functions each layer exposes
TARGETS = (
    ("periodic_fields", "PeriodicField.eval_at", True),
    ("reduction", "BeltramiPair.on_circle", False),
    ("reduction", "BeltramiPair.from_profiles", False),
    ("reduction", "BeltramiPair.from_angular", False),
    ("reduction", "beltrami_to_matrices", False),
    ("stretching", "find_periodic_alpha", False),
    ("stretching", "monodromy", False),
    ("stretching", "phase_advance", False),
    ("stretching", "solve_system", False),
    ("stretching", "injectivity_check", False),
    ("sharp_family", "build_family", False),
    ("sharp_family", "build_maps", False),
    ("estimator", "beta_estimate", False),
    ("estimator", "corollary_bound", False),
    ("estimator", "classical_bound", False),
    ("verify", "beltrami_residual", False),
    ("verify", "weak_form_residual", False),
    ("verify", "weak_residual_vector", False),
    ("verify", "empirical_holder", False),
    ("cli", "run", False),
)


class Tracer:
    """In-memory spans plus per-name hooks that count what a call returned."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.leaves = {}  # (name, parent index) -> [calls, seconds]
        self.counters = {}
        self._stack = []
        self._patches = []
        self._hooks = {}

    # -- recording -------------------------------------------------------

    @contextmanager
    def span(self, name):
        """A root or nested span opened by the benchmark's own code."""
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def on_result(self, name, hook):
        """Call hook(result) after each recorded call of the named function."""
        self._hooks[name] = hook

    def _wrap(self, name, fn, leaf):
        stack, spans, leaves = self._stack, self.spans, self.leaves
        hooks = self._hooks

        if leaf:
            def leaf_wrapper(*args, **kwargs):
                if not stack:
                    return fn(*args, **kwargs)
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    agg = leaves.setdefault((name, stack[-1]), [0, 0.0])
                    agg[0] += 1
                    agg[1] += time.perf_counter() - t0
            return leaf_wrapper

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1]])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            hook = hooks.get(name)
            if hook is not None:
                hook(result)
            return result

        return wrapper

    # -- patching --------------------------------------------------------

    def install(self):
        """Patch every target wherever a beltbound module binds it."""
        import beltbound.cli  # noqa: F401  (with the package, loads every submodule)

        holders = [m for n, m in sys.modules.items()
                   if m is not None and (n == "beltbound" or n.startswith("beltbound."))]
        for mod_name, path, leaf in TARGETS:
            module = sys.modules[f"beltbound.{mod_name}"]
            name = f"{mod_name}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, leaf))
                else:
                    new = self._wrap(name, raw, leaf)
                self._patches.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            original = getattr(module, path)
            new = self._wrap(name, original, leaf)
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, attr, original))
                        setattr(holder, attr, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- derived figures -------------------------------------------------

    def _children(self):
        kids = [[] for _ in self.spans]
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                kids[parent].append(i)
        leaf_time = [0.0] * len(self.spans)
        for (_, parent), (_, secs) in self.leaves.items():
            leaf_time[parent] += secs
        return kids, leaf_time

    def calls(self, name):
        spans = sum(1 for s in self.spans if s[0] == name)
        return spans + sum(c for (n, _), (c, _) in self.leaves.items() if n == name)

    def total(self, names, under=None):
        """Wall time of the named spans, nested repeats counted once.

        With ``under``, only spans that descend from a span of that name.
        """
        names = set(names)
        out = 0.0
        for i, (name, start, end, _) in enumerate(self.spans):
            if name not in names or self._has_ancestor(i, names):
                continue
            if under is not None and not self._has_ancestor(i, {under}):
                continue
            out += end - start
        out += sum(secs for (n, parent), (_, secs) in self.leaves.items()
                   if n in names and (under is None or self._has_ancestor(parent, {under}, True)))
        return out

    def self_time(self, names):
        """Time in the named spans minus the time of their child spans."""
        names = set(names)
        kids, leaf_time = self._children()
        out = 0.0
        for i, (name, start, end, _) in enumerate(self.spans):
            if name in names:
                child = sum(self.spans[k][2] - self.spans[k][1] for k in kids[i])
                out += (end - start) - child - leaf_time[i]
        return out

    def _has_ancestor(self, i, names, inclusive=False):
        j = i if inclusive else self.spans[i][3]
        while j >= 0:
            if self.spans[j][0] in names:
                return True
            j = self.spans[j][3]
        return False

    def write(self, path, extra):
        doc = {
            "spans": [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans],
            "leaf_totals": [{"name": n, "parent": p, "calls": c, "seconds": s}
                            for (n, p), (c, s) in self.leaves.items()],
            "counters": self.counters,
            **extra,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
