"""One long-lived heronian session: runs the requests the benchmark hands it.

    python3 perfbench/session.py run REQUESTS.json ANSWERS.jsonl [--trace SPANS.jsonl.gz]
    python3 perfbench/session.py probe

`run` reads {"blocks": [[request, ...], ...], "seconds": S, "min_blocks": N},
answers the blocks in order and stops at a block boundary once S seconds
have passed and N blocks are done. It writes one line per request
(block, latency, CPU time, answer) and prints a JSON summary. With
--trace every call crosses the tracer's wrappers and the summary holds the
per-layer metrics. `probe` times single layers at two bounds each, for the
scaling exponents and the process-pool speed-up. Both are run by run.py,
with heronian importable.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import sys
from time import perf_counter, process_time

import heronian.catalog as catalog
import heronian.cli as cli
import heronian.core as core
import heronian.cycles as cycles
import heronian.enumeration as enumeration
import heronian.necklace as necklace
from heronian.core import Triangle

import peak_rss


def _sides(triangles) -> list:
    return [[t.a, t.b, t.c] for t in triangles]


def _cli(argv, tracer):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
    out = buf.getvalue()
    if tracer is not None:
        tracer.counts["cli.stdout_bytes"] += len(out.encode())
    return {"rc": rc, "stdout": out}


def _read(req, tracer):
    cat = catalog.load(req["path"])
    region = tracer.region("catalog.query_batch") if tracer else contextlib.nullcontext()
    with region:
        by_perimeter = [cat.query_by_perimeter(p) for p in req["perimeters"]]
        by_area = [cat.query_by_area(a) for a in req["areas"]]
    return {"perimeters": [[_sides(ts), ok] for ts, ok in by_perimeter],
            "areas": [[_sides(ts), ok] for ts, ok in by_area]}


def execute(op, arg, tracer):
    """Answer one request through the module attributes callers use."""
    if op == "area":
        return _sides(enumeration.triangles_with_area(arg))
    if op == "perimeter":
        return _sides(enumeration.triangles_with_perimeter(arg))
    if op == "trace":
        traces = cycles.trace_chain(Triangle(*arg), cycles.ChainDirection.PREDECESSOR, 6)
        return [[[[t.a, t.b, t.c, link] for t, link in tr.steps], tr.end.value]
                for tr in traces]
    if op == "cycles":
        return [_sides(c.members) for c in cycles.find_cycles(*arg)]
    if op == "words":
        return [w.symbols for w in necklace.enumerate_words(arg)]
    if op == "read":
        return _read(arg, tracer)
    if op == "cli":
        return _cli(arg, tracer)
    raise ValueError(f"unknown request {op!r}")


def run(requests_path: str, answers_path: str, trace_path: str | None) -> dict:
    with open(requests_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    tracer = None
    if trace_path:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    done = 0
    start = perf_counter()
    with open(answers_path, "w", encoding="utf-8") as out:
        for b, block in enumerate(plan["blocks"]):
            if b >= plan["min_blocks"] and perf_counter() - start >= plan["seconds"]:
                break
            for op, arg in block:
                region = contextlib.nullcontext()
                if tracer is not None:
                    tracer.request = done
                    region = tracer.region(f"bench.{op}")
                with region:
                    c0, t0 = process_time(), perf_counter()
                    answer = execute(op, arg, tracer)
                    t1, c1 = perf_counter(), process_time()
                out.write(json.dumps({"block": b, "latency_s": t1 - t0, "cpu_s": c1 - c0,
                                      "answer": answer}, separators=(",", ":")) + "\n")
                done += 1
    summary = {"requests": done, "loop_s": perf_counter() - start}
    if tracer is not None:
        tracer.uninstall()
        summary["layers"] = tracer.summary()
        tracer.write(trace_path)
    return summary


def _timed(fn, *args, **kwargs):
    def cpu():
        own = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    c0, t0 = cpu(), perf_counter()
    result = fn(*args, **kwargs)
    return result, perf_counter() - t0, cpu() - c0


def probe() -> dict:
    """Single layers at two bounds each, untraced, from cold caches."""
    def cold(fn, *args, **kwargs):
        core.heron_area.cache_clear()
        cycles._cycle_core.cache_clear()
        return _timed(fn, *args, **kwargs)

    workers = min(2, os.cpu_count() or 1)
    _, build_1000, _ = cold(catalog.build, 1000)
    serial, build_2000, serial_cpu = cold(catalog.build, 2000)
    pooled, pooled_s, pooled_cpu = cold(catalog.build, 2000, workers=workers)
    _, core_2000, _ = cold(cycles._cycle_core, 2000)
    _, core_4000, _ = cold(cycles._cycle_core, 4000)
    _, words_20, _ = cold(necklace.enumerate_words, 20)
    _, words_22, _ = cold(necklace.enumerate_words, 22)
    return {
        "pool_matches_serial": pooled.records == serial.records,
        "workers": workers,
        "layers": {
            "catalog.build.exponent": math.log2(build_2000 / build_1000),
            "catalog.build.pool2_speedup": build_2000 / pooled_s,
            "catalog.build.pool1_cpu_s": serial_cpu,
            "catalog.build.pool2_cpu_s": pooled_cpu,
            "cycles.core_build.exponent": math.log2(core_4000 / core_2000),
            "necklace.enumerate_words.growth_per_2n": words_22 / words_20,
        },
    }


def main(argv: list[str]) -> int:
    peak_rss.install()
    if argv == ["probe"]:
        result = probe()
    elif argv[:1] == ["run"] and len(argv) == 3:
        result = run(argv[1], argv[2], None)
    elif argv[:1] == ["run"] and len(argv) == 5 and argv[3] == "--trace":
        result = run(argv[1], argv[2], argv[4])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
