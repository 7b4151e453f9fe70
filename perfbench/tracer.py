"""Spans and counters at the module boundaries of heronian, from outside.

The tracer replaces the attributes that callers look up (for example
heronian.verify.triangles_with_perimeter, the name check_lemma2 calls)
with wrappers, so the program itself is not edited. Each wrapped call
records a span [name, start, end, parent, request]; hot inner calls
(isqrt, perfect_square_root) are only counted, and heron_area is read
from its lru_cache statistics. Spans stay in memory until write().
"""

from __future__ import annotations

import collections
import contextlib
import functools
import gzip
import importlib
import json
import os
import statistics
from time import perf_counter


def _add_len(key):
    def hook(tracer, rec, fn, args, result):
        tracer.counts[key] += len(result)
    return hook


def _lemma2_hook(tracer, rec, fn, args, result):
    tracer.counts["verify.lemma2.triangles_checked"] += result.witnesses[0].get(
        "triangles_checked", 0
    )


def _build_hook(tracer, rec, fn, args, result):
    tracer.counts["catalog.records"] += len(result)


def _save_hook(tracer, rec, fn, args, result):
    tracer.counts["catalog.bytes"] += os.path.getsize(args[1])


def _core_hook(tracer, rec, fn, args, result):
    # _cycle_core is an lru_cache: a call that raised the miss count built
    # a core; the others were cache hits.
    misses = fn.cache_info().misses
    if misses > tracer.core_misses:
        tracer.core_misses = misses
        rec[0] = "cycles.core_build"
        tracer.counts["cycles.core_builds"] += 1
        tracer.counts["cycles.core_vertices_total"] += len(result[0])


# (module, attribute callers look up, span name, hook run on the result)
SPANS = (
    ("heronian.cli", "main", "cli.main", None),
    ("heronian.verify", "check_lemma2", "verify.lemma2", _lemma2_hook),
    ("heronian.verify", "check_lemma3", "verify.lemma3", None),
    ("heronian.verify", "check_theorem2", "verify.theorem2", None),
    ("heronian.verify", "check_theorem3", "verify.theorem3", None),
    ("heronian.verify", "check_gersonides", "verify.gersonides", None),
    ("heronian.verify", "check_equable_census", "verify.equable-five", None),
    ("heronian.verify", "triangles_with_perimeter", "enumeration.triangles_with_perimeter",
     _add_len("enumeration.triangles_with_perimeter.triangles")),
    ("heronian.verify", "deficient_triangles", "enumeration.deficient_triangles", None),
    ("heronian.verify", "find_cycles", "cycles.find_cycles", None),
    ("heronian.catalog", "triangles_with_perimeter", "enumeration.triangles_with_perimeter",
     _add_len("enumeration.triangles_with_perimeter.triangles")),
    ("heronian.catalog", "build", "catalog.build", _build_hook),
    ("heronian.catalog", "save", "catalog.save", _save_hook),
    ("heronian.catalog", "load", "catalog.load", None),
    ("heronian.cycles", "triangles_with_area", "enumeration.triangles_with_area", None),
    ("heronian.cycles", "triangles_with_perimeter", "enumeration.triangles_with_perimeter",
     _add_len("enumeration.triangles_with_perimeter.triangles")),
    ("heronian.cycles", "_cycle_core", "cycles.core_hit", _core_hook),
    ("heronian.cycles", "closed_walks", "cycles.closed_walks", None),
    ("heronian.cycles", "find_cycles", "cycles.find_cycles", None),
    ("heronian.cycles", "trace_chain", "cycles.trace_chain", _add_len("cycles.trace_chain.paths")),
    ("heronian.enumeration", "triangles_with_area", "enumeration.triangles_with_area", None),
    ("heronian.enumeration", "triangles_with_perimeter", "enumeration.triangles_with_perimeter",
     _add_len("enumeration.triangles_with_perimeter.triangles")),
    ("heronian.necklace", "enumerate_words", "necklace.enumerate_words",
     _add_len("necklace.enumerate_words.words")),
)

# Hot inner calls: counted in aggregate, no span per call.
COUNTED = (
    ("heronian.enumeration", "isqrt", "core.isqrt.calls"),
    ("heronian.enumeration", "perfect_square_root", "core.perfect_square_root.calls"),
    ("heronian.verify", "perfect_square_root", "core.perfect_square_root.calls"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1, request]
        self.counts: collections.Counter = collections.Counter()
        self.request = None
        self.core_misses = 0
        self.heron_area_base = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._cells: list[tuple] = []

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.request]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def region(self, name: str):
        """A span around code of the benchmark itself."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _spanned(self, name, fn, hook):
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if hook is not None:
                hook(self, rec, fn, args, result)
            return result
        return functools.update_wrapper(wrapper, fn)

    def _counted(self, key, fn):
        cell = [0]  # cheaper to bump than a Counter entry; folded in by uninstall
        self._cells.append((key, cell))

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)
        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        core = importlib.import_module("heronian.core")
        cycles = importlib.import_module("heronian.cycles")
        self.heron_area_base = core.heron_area.cache_info()
        self.core_misses = cycles._cycle_core.cache_info().misses
        for module_name, attr, name, hook in SPANS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._spanned(name, fn, hook))
        for module_name, attr, key in COUNTED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._counted(key, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        for key, cell in self._cells:
            self.counts[key] += cell[0]
        self._cells.clear()

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")

    def summary(self) -> dict:
        """Per-layer metrics of the traced run, by their BENCHMARK.json names.

        A layer's self time is its spans' duration minus the time covered by
        their child spans; calls are sequential, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        durations = collections.defaultdict(list)
        selfs = collections.defaultdict(list)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            durations[name].append(end - start)
            selfs[name].append(end - start - child[i])

        def total(name):
            return sum(durations[name])

        def own(name):
            return sum(selfs[name])

        def median(values):
            return statistics.median(values) if values else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        c = self.counts
        core = importlib.import_module("heronian.core")
        info = core.heron_area.cache_info()
        hits = info.hits - self.heron_area_base.hits
        misses = info.misses - self.heron_area_base.misses
        # The tail of the area queries the workload sends, not of the many
        # small calls a cycle-core build makes.
        queried = [end - start for name, start, end, parent, _ in self.spans
                   if name == "enumeration.triangles_with_area" and parent >= 0
                   and self.spans[parent][0].startswith("bench.")]
        p99 = (statistics.quantiles(queried, n=100, method="inclusive")[98]
               if len(queried) > 1 else sum(queried))
        cli_total = total("cli.main")
        m = {
            "core.isqrt.calls": c["core.isqrt.calls"],
            "core.isqrt.per_triangle": ratio(
                c["core.isqrt.calls"], c["enumeration.triangles_with_perimeter.triangles"]),
            "core.perfect_square_root.calls": c["core.perfect_square_root.calls"],
            "core.heron_area.calls": hits + misses,
            "core.heron_area.hit_ratio": ratio(hits, hits + misses),
            "core.heron_area.entries": info.currsize,
            "enumeration.triangles_with_perimeter.calls":
                len(durations["enumeration.triangles_with_perimeter"]),
            "enumeration.triangles_with_perimeter.self_s":
                own("enumeration.triangles_with_perimeter"),
            "enumeration.triangles_with_perimeter.triangles":
                c["enumeration.triangles_with_perimeter.triangles"],
            "enumeration.triangles_with_area.calls": len(durations["enumeration.triangles_with_area"]),
            "enumeration.triangles_with_area.self_s": own("enumeration.triangles_with_area"),
            "enumeration.triangles_with_area.p99_ms": 1000 * p99,
            "enumeration.deficient_triangles.self_s": own("enumeration.deficient_triangles"),
            "cycles.core_builds": c["cycles.core_builds"],
            "cycles.core_build.self_s": own("cycles.core_build"),
            "cycles.core_vertices": ratio(c["cycles.core_vertices_total"], c["cycles.core_builds"]),
            "cycles.closed_walks.self_s": own("cycles.closed_walks"),
            "cycles.trace_chain.self_s": own("cycles.trace_chain"),
            "cycles.trace_chain.paths": c["cycles.trace_chain.paths"],
            "necklace.enumerate_words.self_s": own("necklace.enumerate_words"),
            "necklace.enumerate_words.words": c["necklace.enumerate_words.words"],
            "necklace.enumerate_words.words_per_s": ratio(
                c["necklace.enumerate_words.words"], own("necklace.enumerate_words")),
            "verify.lemma2.share": ratio(total("verify.lemma2"), cli_total),
            "verify.lemma2.triangles_checked": c["verify.lemma2.triangles_checked"],
            "catalog.build.self_s": own("catalog.build"),
            "catalog.save_s": total("catalog.save"),
            "catalog.bytes": c["catalog.bytes"],
            "catalog.records": c["catalog.records"],
            "catalog.load_s": median(durations["catalog.load"]),
            "catalog.query.self_s": median(selfs["catalog.query_batch"]),
            "cli.self_s": own("cli.main"),
            "cli.stdout_bytes": c["cli.stdout_bytes"],
        }
        for claim in ("lemma2", "lemma3", "theorem2", "theorem3", "gersonides", "equable-five"):
            m[f"verify.{claim}.s"] = total(f"verify.{claim}")
        return m
