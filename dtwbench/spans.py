"""Spans around the program's public functions, recorded from outside it.

While a ``Tracer`` is active it replaces the module attributes through which
``search``, ``bounds`` and the benchmark itself reach each layer, so every
call records a span (name, parent, query, start, end) and, for a few
functions, work counts taken from the call's arguments and result. The
spans stay in memory until the run writes them out. Nothing under ``src/``
changes; leaving the tracer puts every attribute back.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import oracle

# (module that makes the call, attribute it calls through, span name).
TARGETS = (
    ("cli", "ingest_csv", "cli.ingest_csv"),
    ("search", "infer_most_similar", "search.infer_most_similar"),
    ("search", "top_k_search", "search.top_k_search"),
    ("search", "z_normalize", "metrics.z_normalize"),
    ("search", "distance_matrix", "metrics.distance_matrix"),
    ("search", "compute_bounds", "bounds.compute_bounds"),
    ("bounds", "min_pool", "bounds.min_pool"),
    ("bounds", "lower_bound_matrix", "bounds.lower_bound_matrix"),
    ("bounds", "upper_bound_matrix", "bounds.upper_bound_matrix"),
    ("bounds", "upper_bound_matrix_banded", "bounds.upper_bound_matrix_banded"),
    ("search", "find_candidates", "search.find_candidates"),
    ("search", "find_optimal_solutions", "search.find_optimal_solutions"),
    ("search", "dtw_batch", "dtw.dtw_batch"),
    ("evaluation", "lead_difference", "evaluation.lead_difference"),
)

ENTRIES = ("search.infer_most_similar", "search.top_k_search")

MB = 2.0**20


@dataclass
class Span:
    name: str
    parent: int
    query: int
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """Records spans while active; ``with tracer:`` patches, leaving restores."""

    def __init__(self, modules: dict):
        self.spans: list[Span] = []
        self.query = -1
        self.held: dict = {}  # arrays one query's summary needs after it returns
        self._stack: list[int] = []
        self._band_cells: dict = {}
        self.unobserved: set = set()
        self._patches = []  # (module, attribute, original, wrapper)
        for module_name, attr, span_name in TARGETS:
            module = modules[module_name]
            fn = getattr(module, attr, None)
            if fn is not None:  # a function the program no longer has reads 0
                self._patches.append((module, attr, fn, self._wrap(span_name, fn)))

    def __enter__(self):
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, fn, _ in self._patches:
            setattr(module, attr, fn)

    def _wrap(self, name, fn):
        signature = inspect.signature(fn)
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else -1, self.query)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                try:
                    observe(span, bound.arguments, result)
                except (KeyError, AttributeError, TypeError) as exc:
                    # The program changed the call's shape; its counts read 0.
                    if name not in self.unobserved:
                        self.unobserved.add(name)
                        print(f"cannot count work of {name}: {exc!r}", file=sys.stderr)
            return result

        return wrapper

    def begin_query(self, index: int) -> Span:
        self.query = index
        self.held = {}
        span = Span("query", -1, index)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def end_query(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()
        self.query = -1

    def _observe_dtw_dtw_batch(self, span, args, result):
        wu, ww, radius = args["omega_u"], args["omega_w"], args.get("radius")
        key = (wu, ww, radius)
        if key not in self._band_cells:
            self._band_cells[key] = int(oracle.band_mask(wu, ww, radius).sum())
        placements = int(np.size(args["a0"]))
        span.counts = {"placements": placements, "cells": placements * self._band_cells[key]}

    def _observe_bounds_compute_bounds(self, span, args, result):
        m = args["m"]
        grids = (getattr(m, "entries", m), result.min_pool, result.min_path, result.max_path)
        span.counts = {"grid_bytes": sum(np.asarray(g).nbytes for g in grids)}
        self.held["min_path"] = result.min_path

    def _observe_search_find_candidates(self, span, args, result):
        span.counts = {"candidates": len(result)}
        self.held["candidate_lbs"] = result.lower_bounds


def query_layers(spans: list, root: Span) -> dict:
    """Per-layer times and counts of one traced query, from its spans.

    The evaluation layer has no function of its own in ``top_k_search``, so
    for both entry points it is the part of the entry's span after the
    last candidate filter returned.
    """
    total = {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + s.ms

    def ms(name):
        return total.get(name, 0.0)

    entry = next((s for s in spans if s.name in ENTRIES), None)
    filters = [s for s in spans if s.name == "search.find_candidates"]
    evaluate = (entry.end - filters[-1].end) * 1e3 if entry and filters else 0.0
    batches = [s for s in spans if s.name == "dtw.dtw_batch"]
    batch_ms = ms("dtw.dtw_batch")
    cells = sum(s.counts.get("cells", 0) for s in batches)
    bounds = [s for s in spans if s.name == "bounds.compute_bounds"]
    layers = {
        "metrics.normalize_ms": ms("metrics.z_normalize"),
        "metrics.distance_ms": ms("metrics.distance_matrix"),
        "bounds.ms": ms("bounds.compute_bounds"),
        "search.candidates_ms": ms("search.find_candidates"),
        "search.evaluate_self_ms": evaluate - batch_ms,
        "dtw.batch_ms": batch_ms,
        "evaluation.lead_ms": ms("evaluation.lead_difference"),
    }
    query_ms = root.ms
    out = dict(layers)
    out.update(
        {
            "bounds.min_pool_ms": ms("bounds.min_pool"),
            "bounds.lower_ms": ms("bounds.lower_bound_matrix"),
            "bounds.upper_ms": ms("bounds.upper_bound_matrix") + ms("bounds.upper_bound_matrix_banded"),
            "bounds.grid_mb": max((s.counts.get("grid_bytes", 0) for s in bounds), default=0) / MB,
            "search.evaluate_ms": evaluate,
            "search.candidates": filters[-1].counts.get("candidates", 0) if filters else 0,
            "dtw.batch_calls": len(batches),
            "dtw.evaluations": sum(s.counts.get("placements", 0) for s in batches),
            "dtw.cells": cells,
            "dtw.cells_per_s": cells / (batch_ms / 1e3) if batch_ms > 0 else 0.0,
            "trace.query_ms": query_ms,
            "trace.coverage": sum(layers.values()) / query_ms,
        }
    )
    return out


def spans_json(spans: list) -> list:
    return [
        {
            "name": s.name,
            "query": s.query,
            "parent": s.parent,
            "start": s.start,
            "end": s.end,
            **({"counts": s.counts} if s.counts else {}),
        }
        for s in spans
    ]
