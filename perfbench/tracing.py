"""Span tracing for the benchmark's traced run.

Tracing changes no switchseir code.  `install` rebinds public names in
the modules that consume them (for example `switchseir.pg.run_csmc_as`)
to timing wrappers and `uninstall` puts the originals back.  A span is
named `<layer>.<function>`, where the layer is the switchseir module that
defines the function.  Spans stay in memory as parallel lists and are
written out once, at the end; all spans of one work unit carry its id.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

_now = time.perf_counter_ns


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.rows: list[int] = []
        self.units: list[int] = []
        self.unit = -1
        self._stack: list[int] = []

    def open(self, name: str, rows: int = 0) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.rows.append(rows)
        self.units.append(self.unit)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(_now())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = _now()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.names[idx]} closed out of order")

    @contextmanager
    def span(self, name: str, rows: int = 0):
        idx = self.open(name, rows)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn, name: str, rows=None, observe=None):
        """Return fn wrapped in a span.

        rows maps the call's arguments to the number of rows of work it
        does; observe is handed the result after the span closes, inside
        a `trace.observe` span so its cost counts as tracing overhead and
        never as the caller's self time.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name, rows(*args, **kwargs) if rows else 0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if observe is not None:
                with self.span("trace.observe"):
                    observe(result)
            return result

        return traced

    def write(self, path: str) -> None:
        """Write every span as one CSV row (times in ns from the first span)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        origin = self.starts[0] if self.starts else 0
        with open(path, "w") as fh:
            fh.write("id,parent,unit,name,start_ns,end_ns,rows\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i},{self.parents[i]},{self.units[i]},{name},"
                    f"{self.starts[i] - origin},{self.ends[i] - origin},"
                    f"{self.rows[i]}\n"
                )


def self_times(starts, ends, parents) -> list[int]:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap each other or stick out of their parent; only
    the union of their intervals clipped to the parent is subtracted.
    """
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered = 0
        cur_lo = cur_hi = None
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            lo, hi = max(starts[c], s), min(ends[c], e)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(e - s - covered)
    return out


@dataclass(frozen=True)
class LayerStats:
    """Totals of one span name: calls, ns including children, self ns, rows."""

    calls: int
    total_ns: int
    self_ns: int
    rows: int
    durations_ns: tuple[int, ...]


def aggregate(tracer: Tracer) -> dict[str, LayerStats]:
    """Per-span-name totals over everything the tracer recorded."""
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    acc: dict[str, list] = defaultdict(lambda: [0, 0, 0, 0, []])
    for i, name in enumerate(tracer.names):
        dur = tracer.ends[i] - tracer.starts[i]
        a = acc[name]
        a[0] += 1
        a[1] += dur
        a[2] += selfs[i]
        a[3] += tracer.rows[i]
        a[4].append(dur)
    return {
        name: LayerStats(a[0], a[1], a[2], a[3], tuple(a[4]))
        for name, a in acc.items()
    }


def _state_rows(state, *args, **kwargs) -> int:
    """Rows of a (..., 4) state array."""
    return math.prod(np.shape(state)[:-1])


def _dirichlet_rows(x, params, *args, **kwargs) -> int:
    conc = params.concentration
    return max(getattr(x, "size", 1), conc.size) // conc.shape[-1]


def _draw_rows(params, *args, **kwargs) -> int:
    conc = params.concentration
    return conc.size // conc.shape[-1]


def _filter_rows(y, params, priors, n_particles, *args, **kwargs) -> int:
    return len(y) * n_particles


def _file_bytes(path, *args, **kwargs) -> int:
    return os.path.getsize(path)


@dataclass(frozen=True)
class Hook:
    """One rebinding: consumer module, attribute, span name, row counter."""

    module: str
    attr: str
    span: str
    rows: Callable | None = None
    observed: bool = False


# The layer boundaries the traced run measures.  Each entry rebinds the
# name where it is looked up at call time, so nested calls nest spans.
HOOKS = (
    Hook("switchseir.cli", "run_pg", "pg.run_pg"),
    Hook("switchseir.cli", "write_checkpoint", "data_io.write_checkpoint"),
    Hook("switchseir.cli", "append_chain_record", "data_io.append_chain_record"),
    Hook("switchseir.cli", "read_chain", "data_io.read_chain", _file_bytes),
    Hook("switchseir.cli", "summarize", "diagnostics.summarize"),
    Hook("switchseir.cli", "gelman_rubin_table", "diagnostics.gelman_rubin_table"),
    Hook("switchseir.pg", "run_smc", "smc.run_smc", _filter_rows),
    Hook("switchseir.pg", "run_csmc_as", "smc.run_csmc_as", observed=True),
    Hook("switchseir.pg", "sample_reference", "smc.sample_reference"),
    Hook("switchseir.pg", "joint_log_posterior", "model.joint_log_posterior"),
    Hook("switchseir.smc", "transition_mean", "model.transition_mean", _state_rows),
    Hook("switchseir.smc", "sample_dirichlet", "distributions.sample_dirichlet", _draw_rows),
    Hook("switchseir.smc", "dirichlet_logpdf", "distributions.dirichlet_logpdf", _dirichlet_rows),
    Hook("switchseir.model", "dirichlet_logpdf", "distributions.dirichlet_logpdf", _dirichlet_rows),
    Hook("switchseir.smc", "logsumexp", "distributions.logsumexp"),
    Hook("switchseir.model", "rk4_step", "seir.rk4_step", _state_rows),
)


def install(tracer: Tracer, observe=None) -> list:
    """Rebind every hook to a traced wrapper; return what uninstall needs.

    observe, when given, is handed the result of every observed hook (each
    CSMC pass).  A hook whose name no longer exists is skipped with a
    warning on standard error, so the affected span reads as zero.
    """
    saved = []
    for hook in HOOKS:
        mod = importlib.import_module(hook.module)
        original = getattr(mod, hook.attr, None)
        if original is None:
            print(f"trace: {hook.module}.{hook.attr} not found; "
                  f"span {hook.span} not recorded", file=sys.stderr)
            continue
        setattr(mod, hook.attr, tracer.wrap(
            original, hook.span, hook.rows, observe if hook.observed else None))
        saved.append((mod, hook.attr, original))
    return saved


def uninstall(saved: list) -> None:
    for mod, attr, original in reversed(saved):
        setattr(mod, attr, original)
