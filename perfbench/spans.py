"""In-memory span recorder that wraps operlax's public functions from outside.

Every public function of ``multilinear``, ``calculus``, ``oscillator`` and
``evolution`` (the names in each module's ``__all__``), plus ``cli.main``,
is replaced by a wrapper that records one span per call.  A module that
imported a function by name holds its own reference, so every ``operlax``
namespace that binds the original object is patched, e.g. both
``operlax.evolution.evolve`` and ``operlax.cli.evolve``.  ``Operation``
constructions are counted by wrapping ``Operation.__post_init__``.

A span is (run id, name, parent, start, end) in integer nanoseconds, kept in
column arrays so that a few hundred thousand spans stay small.  Self time is
a span's duration minus the durations of its direct children; the program is
single-threaded and calls nest, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter_ns

LAYER_MODULES = ("multilinear", "calculus", "oscillator", "evolution")
PASS_SPAN = "bench.pass"
# Counts taken at module boundaries, beside the spans.
COUNTERS = ("evolution.steps", "evolution.records", "evolution.csv_bytes",
            "cli.bytes_written", "cli.exit_nonzero")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.run = array("q")
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.run_id = -1
        self.counts: Counter = Counter(dict.fromkeys(COUNTERS, 0))
        self.active = False

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.run.append(self.run_id)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int):
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def pass_span(self, run_id: int):
        """Root span of one workload pass; every span inside it carries run_id."""
        self.run_id = run_id
        idx = self._open(self._name_id(PASS_SPAN))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, after=None):
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def wrap_generator(self, fn, name: str, on_item):
        """Span over the iteration of a generator, opened at its first item."""
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                for item in fn(*args, **kwargs):
                    on_item(item)
                    yield item
            finally:
                self._close(idx)

        return traced

    def install(self):
        """Patch every operlax namespace; call once, after operlax is imported."""
        from operlax import cli, evolution, multilinear

        wrappers = {}
        for short in LAYER_MODULES:
            mod = sys.modules[f"operlax.{short}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self.wrap(fn, f"{short}.{attr}")

        def after_evolve(args, kwargs, traj):
            cfg = args[0] if args else kwargs["config"]
            self.counts["evolution.steps"] += max(1, round(cfg.t_end / cfg.dt))
            self.counts["evolution.records"] += len(getattr(traj, "records", ()))

        def count_csv(line):
            self.counts["evolution.csv_bytes"] += len(line) + 1

        wrappers[evolution.evolve] = self.wrap(evolution.evolve, "evolution.evolve", after_evolve)
        csv_lines = evolution.trajectory_csv_lines
        wrappers[csv_lines] = self.wrap_generator(
            csv_lines, "evolution.trajectory_csv_lines", count_csv
        )
        wrappers[cli.main] = self.wrap(cli.main, "cli.main")

        for modname, mod in list(sys.modules.items()):
            if modname != "operlax" and not modname.startswith("operlax."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
        op = multilinear.Operation
        op.__post_init__ = self.wrap(op.__post_init__, "multilinear.Operation")
        self.active = True

    def self_times(self) -> array:
        """Self time of every span in ns; raises if a child escapes its parent."""
        n = len(self.start)
        own = array("q", (self.end[i] - self.start[i] for i in range(n)))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                if self.start[i] < self.start[p] or self.end[i] > self.end[p]:
                    raise RuntimeError(f"span {self.names[self.name[i]]} escapes its parent")
                own[p] -= self.end[i] - self.start[i]
        if n and min(own) < 0:
            raise RuntimeError("negative self time: spans overlap")
        return own

    def summary(self) -> dict:
        """Per-name totals over all spans: calls, self_ns, total_ns, and per-run self sums.

        Every wrapped name is present, with zeros when it was never called."""
        own = self.self_times()
        calls = Counter(dict.fromkeys(self.names, 0))
        self_ns = Counter(calls)
        total_ns = Counter(calls)
        run_self: defaultdict = defaultdict(int)
        for i in range(len(self.start)):
            name = self.names[self.name[i]]
            calls[name] += 1
            self_ns[name] += own[i]
            total_ns[name] += self.end[i] - self.start[i]
            run_self[self.run[i]] += own[i]
        return {"calls": calls, "self_ns": self_ns, "total_ns": total_ns, "run_self_ns": run_self}

    def write_csv(self, path):
        """Write all spans as gzip-compressed CSV."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("run,span,parent,name,start_ns,end_ns\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.run[i]},{i},{self.parent[i]},{self.names[self.name[i]]},"
                    f"{self.start[i]},{self.end[i]}\n"
                )
