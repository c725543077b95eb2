"""Span recorder for the traced run.

Timing wrappers are installed around the library's public functions from
outside: each wrapper replaces the function under every name a caller looks
it up by (module globals such as `monarch.projection.rank1_approx`, or the
class attribute for methods), and `restore()` puts the originals back. The
library itself is not modified.

A span is (id, name, start, end, parent id, op id, continuation). Spans stay
in memory until the run ends. A span's self time is its duration minus the
time its direct children cover; children of one span never overlap, because
the workload has a single caller in one thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

# (module, attribute or Class.method, span name): one timed span per call
SPANNED = [
    ("monarch.numerics", "svd", "numerics.svd"),
    ("monarch.numerics", "eig", "numerics.eig"),
    ("monarch.numerics", "lu_invert", "numerics.lu_invert"),
    ("monarch.numerics", "matmul", "numerics.matmul"),
    ("monarch.indexing", "permute_vector", "indexing.permute_vector"),
    ("monarch.indexing", "permute_rows", "indexing.permute_rows"),
    ("monarch.indexing", "permute_cols", "indexing.permute_cols"),
    ("monarch.structured", "bd_matvec", "structured.bd_matvec"),
    ("monarch.structured", "bd_matvec_adjoint", "structured.bd_matvec_adjoint"),
    ("monarch.structured", "BlockDiagMatrix.matmul", "structured.blockdiag_matmul"),
    ("monarch.structured", "db_to_bd", "structured.db_to_bd"),
    ("monarch.core", "monarch_matvec", "core.monarch_matvec"),
    ("monarch.core", "monarch_matvec_adjoint", "core.monarch_matvec_adjoint"),
    ("monarch.core", "product_matvec", "core.product_matvec"),
    ("monarch.core", "monarch_to_dense", "core.monarch_to_dense"),
    ("monarch.butterfly", "butterfly_to_monarch", "butterfly.butterfly_to_monarch"),
    ("monarch.butterfly", "ButterflyFactorMatrix.bd_blocks", "butterfly.bd_blocks"),
    ("monarch.butterfly", "ButterflyFactorMatrix.db_entries", "butterfly.db_entries"),
    ("monarch.projection", "project", "projection.project"),
    ("monarch.projection", "rank1_approx", "projection.rank1_approx"),
    ("monarch.projection", "slice_singular_ratios", "projection.slice_singular_ratios"),
    ("monarch.projection", "slice_view", "projection.slice_view"),
    ("monarch.factorization", "factorize_mm_star", "factorization.factorize_mm_star"),
    ("monarch.factorization", "MMStarFactorization.to_dense", "factorization.to_dense"),
    ("monarch.factorization", "simultaneous_diagonalize", "factorization.simultaneous_diagonalize"),
    ("monarch.factorization", "assumption1_check", "factorization.assumption1_check"),
    ("monarch.gradients", "matvec_vjp", "gradients.matvec_vjp"),
    ("monarch.io", "read_any", "io.read_any"),
    ("monarch.io", "read_dmat", "io.read_dmat"),
    ("monarch.io", "read_mon", "io.read_mon"),
    ("monarch.io", "write_dmat", "io.write_dmat"),
    ("monarch.io", "write_mon", "io.write_mon"),
    ("monarch.cli", "main", "cli.main"),
    ("monarch.cli", "cmd_gen", "cli.gen"),
    ("monarch.cli", "cmd_matvec", "cli.matvec"),
    ("monarch.cli", "cmd_project", "cli.project"),
    ("monarch.cli", "cmd_factorize", "cli.factorize"),
    ("monarch.cli", "cmd_verify", "cli.verify"),
]

PARALLEL_MAP = "parallel.parallel_map"
IO_READS = ("io.read_any", "io.read_dmat", "io.read_mon")
IO_WRITES = ("io.write_dmat", "io.write_mon")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.names: list[str] = []  # span id -> name, filled at span start
        self.op_id = -1
        self.op_kinds: list[str] = []
        self.op_labels: list[str] = []
        # counters keyed by op id
        self.multiplies = defaultdict(int)
        self.multiply_calls = defaultdict(int)
        self.perm_builds = defaultdict(int)
        self.opens_in_read_any = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self._pending_writes: list[str] = []
        self._restore: list[tuple] = []

    # -- ops ---------------------------------------------------------------

    def begin_op(self, kind: str, label: str) -> None:
        self.op_id = len(self.op_kinds)
        self.op_kinds.append(kind)
        self.op_labels.append(label)

    def end_op(self) -> None:
        for path in self._pending_writes:
            if os.path.exists(path):
                self.bytes_written += os.path.getsize(path)
        self._pending_writes.clear()
        self.op_id = -1

    # -- spans -------------------------------------------------------------

    def _timed(self, fn, name, continuation=False):
        names, stack, spans = self.names, self.stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.op_id, continuation))

        return wrapper

    def _parallel_map(self, fn):
        """parallel_map's own dispatch is its span; the mapped work belongs to its caller."""

        @functools.wraps(fn)
        def wrapper(work, items, *args, **kwargs):
            caller = self.names[self.stack[-1]] if self.stack else "untraced"
            inner = self._timed(work, caller, continuation=True)
            return self._timed(fn, PARALLEL_MAP)(inner, items, *args, **kwargs)

        return wrapper

    def _add_multiplies(self, fn):
        @functools.wraps(fn)
        def wrapper(count):
            self.multiply_calls[self.op_id] += 1
            self.multiplies[self.op_id] += count
            return fn(count)

        return wrapper

    def _perm_init(self, fn):
        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            self.perm_builds[self.op_id] += 1
            return fn(obj, *args, **kwargs)

        return wrapper

    def _open(self, path, mode="r", *args, **kwargs):
        if "r" in mode:
            if any(self.names[s] == "io.read_any" for s in self.stack):
                self.opens_in_read_any += 1
            if os.path.exists(path):
                self.bytes_read += os.path.getsize(path)
        else:
            self._pending_writes.append(path)
        return open(path, mode, *args, **kwargs)

    # -- install / restore -------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        """Rebind every monarch module global that refers to `original`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "monarch" or mod_name.startswith("monarch.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _replace_attr(self, owner, attr, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for mod_name, target, name in SPANNED:
            mod = importlib.import_module(mod_name)
            if "." in target:
                cls_name, meth = target.split(".")
                cls = getattr(mod, cls_name)
                self._replace_attr(cls, meth, self._timed(vars(cls)[meth], name))
            else:
                original = getattr(mod, target)
                self._replace_everywhere(original, self._timed(original, name))
        parallel = importlib.import_module("monarch.parallel")
        self._replace_everywhere(parallel.parallel_map, self._parallel_map(parallel.parallel_map))
        counting = importlib.import_module("monarch.counting")
        self._replace_everywhere(counting.add_multiplies, self._add_multiplies(counting.add_multiplies))
        indexing = importlib.import_module("monarch.indexing")
        perm = indexing.BlockPermutation
        self._replace_attr(perm, "__init__", self._perm_init(vars(perm)["__init__"]))
        io_mod = importlib.import_module("monarch.io")
        self._restore.append((io_mod, "open", None))
        io_mod.open = self._open

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_times(self):
        """{name: (calls, self seconds)}; continuation spans add time, not calls."""
        child_time = defaultdict(float)
        for _sid, _name, start, end, parent, _op, _cont in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for sid, name, start, end, _parent, _op, cont in self.spans:
            entry = out[name]
            entry[0] += 0 if cont else 1
            entry[1] += end - start - child_time[sid]
        return out

    def durations(self, names) -> float:
        """Summed duration of the outermost spans among `names`."""
        by_id = {s[0]: s for s in self.spans}
        total = 0.0
        for sid, name, start, end, parent, _op, _cont in self.spans:
            if name not in names:
                continue
            p = parent
            nested = False
            while p >= 0:
                if by_id[p][1] in names:
                    nested = True
                    break
                p = by_id[p][4]
            if not nested:
                total += end - start
        return total

    def fast_path_ratio(self) -> float:
        """Share of factorize_mm_star calls with no simultaneous_diagonalize below them."""
        by_id = {s[0]: s for s in self.spans}
        staged = set()
        for sid, name, *_rest in self.spans:
            if name != "factorization.simultaneous_diagonalize":
                continue
            p = by_id[sid][4]
            while p >= 0:
                if by_id[p][1] == "factorization.factorize_mm_star" and not by_id[p][6]:
                    staged.add(p)
                    break
                p = by_id[p][4]
        calls = [s[0] for s in self.spans if s[1] == "factorization.factorize_mm_star" and not s[6]]
        return (len(calls) - len(staged)) / len(calls) if calls else 0.0

    def per_label(self, counter) -> dict[str, float]:
        """Mean of a per-op counter over the ops of each label."""
        sums, ops = defaultdict(int), defaultdict(int)
        for op_id, label in enumerate(self.op_labels):
            sums[label] += counter[op_id]
            ops[label] += 1
        return {label: sums[label] / ops[label] for label in ops}

    def write(self, path) -> None:
        t0 = min((s[2] for s in self.spans), default=0.0)
        doc = {
            "fields": ["id", "name", "start_us", "end_us", "parent", "op", "continuation"],
            "ops": self.op_labels,
            "spans": [
                [sid, name, round((start - t0) * 1e6, 3), round((end - t0) * 1e6, 3), parent, op, int(cont)]
                for sid, name, start, end, parent, op, cont in sorted(self.spans)
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
