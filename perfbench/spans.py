"""In-memory spans around calls into reflexive_lab, recorded from the
benchmark's own code.

`instrument(tracer)` replaces every binding of the traced functions in the
loaded reflexive_lab modules with a wrapper that opens a span, and restores
the originals on exit.  The modules import names directly (search calls
`decompose`, not `freesum.decompose`), so the binding each caller looks up is
the one replaced.  Nothing inside the program changes.
"""

import functools
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from workloads import failed_rc

# layer -> functions whose calls become spans named "<layer>.<function>"
TRACED = {
    "core": ("is_reflexive",),
    "ehrhart": (
        "hstar_closed_form",
        "hstar_oracle_parallelepiped",
        "hstar_oracle_interpolation",
    ),
    "lattice": (
        "fundamental_parallelepiped_histogram",
        "count_dilate_points",
        "enumerate_dilate_points",
    ),
    "linalg": ("integer_adjugate", "solve_affine"),
    "idp": ("idp_check", "necessary_condition", "idp_oracle_bruteforce"),
    "freesum": ("decompose",),
    "support": ("solve_positive", "expand_solution"),
    "search": ("evaluate_candidate",),
}
# generator functions: each __next__ is one "search.generate" span
GENERATORS = ("iter_qvectors", "iter_reflexive_qvectors")


class Tracer:
    """Spans as parallel lists; self time and call counts kept per name."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.failed = {}  # span index -> (error code, q entries or None)
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._stack = []
        self._child_s = []

    def open(self, name):
        idx = len(self.names)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        self._child_s.append(0.0)
        self.names.append(name)
        self.ends.append(0.0)
        self.starts.append(perf_counter())
        return idx

    def close(self):
        end = perf_counter()
        idx = self._stack.pop()
        child_s = self._child_s.pop()
        self.ends[idx] = end
        duration = end - self.starts[idx]
        name = self.names[idx]
        self.calls[name] += 1
        self.self_s[name] += duration - child_s
        if self._child_s:
            self._child_s[-1] += duration

    def fail(self, idx, code, args=()):
        entries = getattr(args[0], "entries", None) if args else None
        self.failed[idx] = (code, list(entries) if entries else None)

    def failed_calls(self, name):
        return sum(1 for idx in self.failed if self.names[idx] == name)

    def origin(self, root):
        """The failed span where the failure of `root` started: follow the
        failed child that ended last (the one the error propagated from)."""
        children = defaultdict(list)
        for idx in self.failed:
            children[self.parents[idx]].append(idx)
        node = root
        while children.get(node):
            node = max(children[node], key=lambda idx: self.ends[idx])
        return node

    def wrap(self, name, fn, failed_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.fail(idx, getattr(exc, "code", type(exc).__name__), args)
                raise
            finally:
                self.close()
            if failed_result is not None and failed_result(result):
                self.fail(idx, f"exit {result}")
            return result

        return traced

    def wrap_generator(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return _TracedIterator(self, name, fn(*args, **kwargs))

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for idx, name in enumerate(self.names):
                record = [idx, name, self.starts[idx], self.ends[idx], self.parents[idx]]
                if idx in self.failed:
                    record.append(self.failed[idx][0])
                fh.write(json.dumps(record) + "\n")


class _TracedIterator:
    def __init__(self, tracer, name, iterator):
        self._tracer = tracer
        self._name = name
        self._iterator = iterator

    def __iter__(self):
        return self

    def __next__(self):
        self._tracer.open(self._name)
        try:
            item = next(self._iterator)
        finally:
            self._tracer.close()
        self._tracer.counts[self._name + ".count"] += 1
        return item


class _JsonProxy:
    """Stands in for `search.json` so record encoding shows as spans."""

    def __init__(self, tracer, real):
        self._real = real
        self.dumps = tracer.wrap("search.encode", real.dumps)

    def __getattr__(self, attr):
        return getattr(self._real, attr)


def _rebind(original, replacement, saved):
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("reflexive_lab"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                saved.append((module, attr, value))
                setattr(module, attr, replacement)


@contextmanager
def instrument(tracer):
    """Trace calls into reflexive_lab for the duration of the block."""
    import reflexive_lab.cli as cli
    import reflexive_lab.search as search

    saved = []
    try:
        for layer, names in TRACED.items():
            module = sys.modules["reflexive_lab." + layer]
            for name in names:
                original = getattr(module, name)
                _rebind(original, tracer.wrap(f"{layer}.{name}", original), saved)
        for name in GENERATORS:
            original = getattr(search, name)
            _rebind(original, tracer.wrap_generator("search.generate", original), saved)
        original = cli.main
        _rebind(
            original,
            tracer.wrap("cli.main", original, failed_rc),
            saved,
        )
        report = search.CandidateReport
        saved.append((report, "to_json_dict", report.to_json_dict))
        report.to_json_dict = tracer.wrap("search.encode", report.to_json_dict)
        saved.append((search, "json", search.json))
        search.json = _JsonProxy(tracer, search.json)
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
