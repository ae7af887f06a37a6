"""Outside-in span tracer for the mbem benchmark.

Spans are recorded by wrappers installed at the call sites the program's
modules use.  ``engine`` and ``experiment`` bind names at import time
(``from .families import mean_sbar``), so a wrapper must replace the name in
the module that calls it, not only in the module that defines it.

A span is ``(name, start_ns, end_ns, parent, cell, rows)``: ``parent`` is the
index of the enclosing span (-1 at the root), ``cell`` the id shared by every
span of one grid cell (0 outside a cell), and ``rows`` the number of
observations passed in, for the sites that take a data matrix (-1 elsewhere).
Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import gzip
import importlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Any, Callable

NAME, START, END, PARENT, CELL, ROWS = range(6)


@dataclass(frozen=True)
class Site:
    """One call site: ``owner.attr`` is replaced by a wrapper named ``name``."""

    owner: str  # dotted module path, or "module:Class"
    attr: str
    name: str
    rows: bool = False  # record len(first argument)
    cell: bool = False  # each call opens a new grid cell


#: Every wrapped call site; the per-layer metrics are derived from these names.
SITES = (
    Site("mbem.cli", "run_experiment", "experiment.run_experiment"),
    Site("mbem.cli", "write_results_csv", "experiment.writers"),
    Site("mbem.cli", "write_summary", "experiment.writers"),
    Site("mbem.cli", "write_boxplot_csv", "experiment.writers"),
    Site("mbem.cli", "write_meta", "experiment.writers"),
    Site("mbem.experiment", "_run_task", "experiment.cell", cell=True),
    Site("mbem.experiment", "resolve_source", "experiment.resolve_source"),
    Site("mbem.experiment", "sample", "families.sample"),
    Site("mbem.experiment", "random_partition_init", "data.random_partition_init"),
    Site("mbem.experiment", "run", "engine.run"),
    Site("mbem.experiment", "kmeans", "data.kmeans"),
    Site("mbem.experiment", "dataset_loglik", "metrics.dataset_loglik"),
    Site("mbem.experiment", "map_labels", "metrics.map_labels"),
    Site("mbem.experiment", "adjusted_rand_index", "metrics.adjusted_rand_index"),
    Site("mbem.experiment", "squared_error", "metrics.squared_error"),
    Site("mbem.engine", "batch_em_step", "engine.batch_em_step"),
    Site("mbem.engine", "minibatch_step", "engine.minibatch_step"),
    Site("mbem.engine", "truncated_minibatch_step", "engine.truncated_minibatch_step"),
    Site("mbem.engine", "mean_sbar", "families.mean_sbar", rows=True),
    Site("mbem.engine", "theta_bar", "families.theta_bar"),
    Site("mbem.engine", "region_contains", "engine.region_contains"),
    Site("mbem.engine", "reset_stat", "engine.reset_stat"),
    Site("mbem.engine", "polyak_update", "engine.polyak_update"),
    Site("mbem.families", "responsibilities_batch", "families.responsibilities_batch", rows=True),
    Site("mbem.metrics", "responsibilities_batch", "families.responsibilities_batch", rows=True),
    Site("mbem.metrics", "log_densities", "families.log_densities", rows=True),
    Site("mbem.families:SuffStats", "blend", "families.blend"),
    Site("mbem.families:Gaussian", "__post_init__", "families.gaussian"),
    Site("mbem.families:MixtureParams", "__post_init__", "families.mixture"),
)

#: Sites traced with tracing off: they only mark the first engine entry.
ENTRY_SITES = tuple(s for s in SITES if s.name in ("engine.run", "data.kmeans"))


def _row_count(args: tuple) -> int:
    try:
        return len(args[0])
    except (IndexError, TypeError):
        return -1


@dataclass
class Tracer:
    """In-memory span recorder; one per traced grid."""

    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _cell: int = 0
    _cells: int = 0

    def wrap(self, fn: Callable, name: str, rows: bool = False, cell: bool = False) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args: Any, **kwargs: Any):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            outer_cell = self._cell
            if cell:
                self._cells += 1
                self._cell = self._cells
            spans.append(None)
            stack.append(idx)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (
                    name, start, end, parent, self._cell, _row_count(args) if rows else -1
                )
                self._cell = outer_cell

        return traced

    def write(self, path, origin_ns: int) -> None:
        """Write spans as gzip CSV, times in ns relative to ``origin_ns``."""
        with gzip.open(path, "wt") as f:
            f.write("name,start_ns,end_ns,parent,cell,rows\n")
            for name, start, end, parent, cell, rows in self.spans:
                f.write(f"{name},{start - origin_ns},{end - origin_ns},{parent},{cell},{rows}\n")


@contextmanager
def installed(tracer: Tracer, sites=SITES):
    """Wrap ``sites`` with ``tracer`` for the duration of the block.

    Yields the list of sites the program no longer has; they are skipped and
    their metrics read zero.
    """
    saved, missing = [], []
    try:
        for site in sites:
            module, _, cls = site.owner.partition(":")
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls)
            original = vars(owner).get(site.attr)
            if original is None:
                missing.append(f"{site.owner}.{site.attr}")
                continue
            saved.append((owner, site.attr, original))
            setattr(owner, site.attr, tracer.wrap(original, site.name, site.rows, site.cell))
        yield missing
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list) -> list:
    """Self time of every span in ns: its duration minus the part of its
    interval that its direct children cover (overlapping children counted
    once, children clipped to the parent's interval)."""
    children: dict = {}
    for idx, span in enumerate(spans):
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(idx)
    out = []
    for idx, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0, start
        for c in sorted(children.get(idx, ()), key=lambda k: spans[k][START]):
            lo, hi = max(spans[c][START], reach), min(spans[c][END], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out
