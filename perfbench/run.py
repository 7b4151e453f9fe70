"""Benchmark of heronian: three workloads, checked answers, one JSON result.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout; it imports the program from src/. With
--trace 0 it prints the end-to-end metrics of BENCHMARK.json, with --trace 1
the per-layer metrics of a separate traced run. A table with units and
sample counts comes first; the last line of stdout is the JSON result. The
exit code is 0 only when every answer checked out. See perfbench/README.md
for the workloads and what each metric means on each of them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import peak_rss
from checks import CatalogFile, answers_digest, check_query
from inputs import (
    BLOCK_SIZE,
    CATALOG_P_MAX,
    READS_PER_ROUND,
    load_inputs,
    query_blocks,
    read_requests,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PY = sys.executable

DEFAULT_SEED = 1
BUDGET_S = 170            # every run ends well inside the 180 s limit
SETUP_SPAWNS = 10
IMPORT_SPAWNS = 5
MIN_BLOCKS = 25           # query-mix blocks every run answers (1000 queries)
VERIFY_ARGV = ["verify", "--claim", "all", "--format", "json"]
BUILD_ARGV = ["catalog", "build", "--p-max", str(CATALOG_P_MAX), "--out"]


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Bench:
    """One run: the time budget, the child processes and the tally of checks."""

    def __init__(self, seed: int, seconds: int) -> None:
        self.seed = seed
        self.seconds = seconds
        self.start = perf_counter()
        self.attempted = 0
        self.failed = 0
        self.peak_rss_kb = 0      # largest peak RSS a measured child reported
        self.peak_rss_reports = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        with open(HERE / "golden" / "expected.json", encoding="utf-8") as fh:
            self.expected = json.load(fh)
        self.golden_verify = (HERE / "golden" / "verify_all.json").read_text(encoding="utf-8")
        self.inputs = load_inputs()

    def record(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def spawn(self, argv: list[str]) -> tuple:
        """Run a child to completion: (exit code, stdout, stderr, wall s, CPU s).

        CPU time is user + sys of the child and everything it waited for.
        A child still running when the budget ends is killed with its
        process group and reported with exit code None.
        """
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, BUDGET_S - (t0 - self.start)))
            rc = proc.returncode
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            rc = None
        wall = perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        if rc != 0:
            sys.stderr.write(err.decode(errors="replace"))
        for line in err.decode(errors="replace").splitlines():
            if line.startswith(peak_rss.MARKER):
                self.peak_rss_kb = max(self.peak_rss_kb, int(line.split()[1]))
                self.peak_rss_reports += 1
        return rc, out, err, wall, cpu

    def heron(self, args: list[str]) -> tuple:
        """`python3 -m heronian args`, reporting its own peak RSS."""
        return self.spawn([PY, str(HERE / "peak_rss.py"), "heronian", *args])

    def session(self, tag: str, blocks, min_blocks: int, seconds: float,
                trace: bool = False) -> tuple[dict, list[dict]]:
        """Answer blocks of requests in one session.py process."""
        requests = OUT / f"{tag}-requests.json"
        answers = OUT / f"{tag}-answers.jsonl"
        requests.write_text(json.dumps(
            {"blocks": blocks, "min_blocks": min_blocks, "seconds": seconds}), encoding="utf-8")
        argv = [PY, str(HERE / "session.py"), "run", str(requests), str(answers)]
        if trace:
            argv += ["--trace", str(OUT / f"{tag}-spans.jsonl.gz")]
        rc, out, _, _, _ = self.spawn(argv)
        if rc != 0:
            self.record(False, f"session {tag} exited with {rc}")
            return {}, []
        with open(answers, encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh]
        return json.loads(out.decode().splitlines()[-1]), lines

    def rounds(self, minimum: int):
        """Yield round numbers until the next round would overrun --seconds."""
        start, last, n = perf_counter(), 0.0, 0
        while n < minimum or perf_counter() - start + last <= self.seconds:
            t0 = perf_counter()
            yield n
            last, n = perf_counter() - t0, n + 1

    def setup_samples(self, count: int) -> list[float]:
        """Wall times of fresh `python3 -c "import heronian"` processes."""
        walls = []
        for _ in range(count):
            rc, _, _, wall, _ = self.spawn([PY, "-c", "import heronian"])
            self.record(rc == 0, "import heronian")
            walls.append(wall)
        return walls

    def import_core_s(self) -> float:
        """Self import time of heronian.core (residue tables), via -X importtime."""
        values = []
        for _ in range(IMPORT_SPAWNS):
            rc, _, err, _, _ = self.spawn([PY, "-X", "importtime", "-c", "import heronian"])
            for line in err.decode().splitlines():
                fields = line.split("|")
                if len(fields) == 3 and fields[2].strip() == "heronian.core":
                    values.append(int(fields[0].split(":")[1]) / 1e6)
            self.record(rc == 0, "import heronian with -X importtime")
        return statistics.median(values) if values else 0.0

    def check_verify_stdout(self, rc, stdout: str) -> None:
        try:
            verdicts = [r["verdict"] for r in json.loads(stdout)["reports"]]
        except (ValueError, KeyError, TypeError):
            verdicts = []
        self.record(rc == 0 and stdout == self.golden_verify and len(verdicts) == 6
                    and all(v == "verified-within-bounds" for v in verdicts),
                    "verify --claim all output")

    def check_catalog_file(self, path: Path) -> CatalogFile:
        catalog = CatalogFile(str(path), self.expected)
        self.record(catalog.ok, "catalog record digest and count")
        return catalog

    def check_queries(self, blocks, lines) -> list:
        requests = [req for block in blocks for req in block]
        for (op, arg), line in zip(requests, lines):
            self.record(check_query(op, arg, line["answer"]), f"{op} {arg}")
        return [line["answer"] for line in lines]


# ---- untraced workloads: each returns {metric: (value, unit, samples)} ----

def _request_metrics(latencies_s: list[float], busy_s: float) -> dict:
    """Throughput and latency of a run's requests.

    The gated tail figure is the mean of the slowest 1% of requests (at
    least one): the requests at or beyond the p99. The p99 itself is
    printed beside it. The host alternates between a fast and a slow
    speed, and a single order statistic in the tail jumps with the share
    of the run spent slow; the mean over the whole tail moves in step
    with it.
    """
    ms = [1000 * v for v in latencies_s]
    n = len(ms)
    tail = sorted(ms)[-math.ceil(n / 100):]
    return {
        "qps": (n / busy_s, "1/s", n),
        "latency_p50_ms": (statistics.median(ms), "ms", n),
        "latency_top1pct_mean_ms": (statistics.fmean(tail), "ms", len(tail)),
        "latency_p99_ms": (percentile(ms, 99), "ms", n),
    }


def verify_all(b: Bench) -> dict:
    walls, cpus = [], []
    for _ in b.rounds(minimum=3):
        rc, out, _, wall, cpu = b.heron(VERIFY_ARGV)
        b.check_verify_stdout(rc, out.decode(errors="replace"))
        walls.append(wall)
        cpus.append(cpu)
    return {
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "cpu_s": (statistics.median(cpus), "s", len(cpus)),
        **_request_metrics(walls, sum(walls)),
    }


def catalog_roundtrip(b: Bench) -> dict:
    """A request is one roundtrip: the build process, then its reads.

    Reads are timed one by one, but they all cost the same, so on a host
    that switches between a fast and a slow speed every few seconds their
    median jumps between two values. Roundtrips of ~10 s average that out.
    """
    path = OUT / "catalog.jsonl"
    walls, cpus, reads, roundtrips = [], [], [], []
    for n in b.rounds(minimum=2):
        rc, _, _, wall, cpu = b.heron(BUILD_ARGV + [str(path)])
        b.record(rc == 0, "catalog build exit code")
        walls.append(wall)
        cpus.append(cpu)
        catalog = b.check_catalog_file(path)
        requests = read_requests(b.seed * 1000 + n, str(path), READS_PER_ROUND)
        _, lines = b.session("catalog-reads", [requests], 1, 0)
        for (_, req), line in zip(requests, lines):
            b.record(catalog.check_read(req, line["answer"]), "catalog read")
        b.record(len(lines) == len(requests), "every catalog read answered")
        round_reads = [line["latency_s"] for line in lines]
        reads += round_reads
        roundtrips.append(wall + sum(round_reads))
    build = (statistics.median(walls), "s", len(walls))
    return {
        "wall_s": build,
        "cpu_s": (statistics.median(cpus), "s", len(cpus)),
        **_request_metrics(roundtrips, sum(roundtrips)),
        # The write and the read under their catalog names; printed, not gated.
        "catalog_build_s": build,
        "catalog_load_s": (statistics.median(reads), "s", len(reads)),
    }


def query_mix(b: Bench) -> dict:
    blocks = query_blocks(b.seed, max(MIN_BLOCKS, 25 * b.seconds), b.inputs)
    summary, lines = b.session("query-mix", blocks, MIN_BLOCKS, b.seconds)
    answers = b.check_queries(blocks, lines)
    b.record(len(lines) >= MIN_BLOCKS * BLOCK_SIZE, "query-mix answered its minimum")
    check_stream_digest(b, answers)
    # Per block, averaged: blocks share a composition but not their arguments,
    # so the mean is the steadier figure.
    blocks_done = len(lines) // BLOCK_SIZE
    latencies = [line["latency_s"] for line in lines]
    return {
        "wall_s": (sum(latencies) / blocks_done, "s", blocks_done),
        "cpu_s": (sum(line["cpu_s"] for line in lines) / blocks_done, "s", blocks_done),
        **_request_metrics(latencies, summary["loop_s"]),
    }


def check_stream_digest(b: Bench, answers: list) -> None:
    recorded = b.expected["query_mix"]
    if b.seed == recorded["seed"]:
        prefix = answers[:recorded["blocks"] * BLOCK_SIZE]
        b.record(answers_digest(prefix) == recorded["answers_sha256"],
                 "query-mix answer stream digest")


# ---- traced runs: the same work, once untraced and once traced ----

def traced_plan(b: Bench, workload: str):
    """(blocks, checker) for the fixed work a traced run repeats."""
    if workload == "verify-all":
        def check(lines):
            for line in lines:
                b.check_verify_stdout(line["answer"]["rc"], line["answer"]["stdout"])
        return [[["cli", VERIFY_ARGV]]], check
    if workload == "catalog-roundtrip":
        path = OUT / "catalog.jsonl"
        requests = read_requests(b.seed * 1000, str(path), READS_PER_ROUND)

        def check(lines):
            b.record(bool(lines) and lines[0]["answer"]["rc"] == 0, "catalog build exit code")
            catalog = b.check_catalog_file(path)
            for (_, req), line in zip(requests, lines[1:]):
                b.record(catalog.check_read(req, line["answer"]), "catalog read")
        return [[["cli", BUILD_ARGV + [str(path)]]], requests], check
    blocks = query_blocks(b.seed, MIN_BLOCKS, b.inputs)
    return blocks, lambda lines: check_stream_digest(b, b.check_queries(blocks, lines))


def traced(b: Bench, workload: str) -> dict:
    blocks, check = traced_plan(b, workload)
    layers = {"core.import_s": b.import_core_s()}
    latencies = []
    for trace in (False, True):
        summary, lines = b.session(f"{workload}-trace{int(trace)}", blocks, len(blocks), 0, trace)
        b.record(len(lines) == sum(len(block) for block in blocks), "traced run complete")
        check(lines)
        latencies.append(sum(line["latency_s"] for line in lines))
        layers.update(summary.get("layers", {}))
    layers["bench.trace_overhead_ratio"] = latencies[1] / latencies[0] - 1 if latencies[0] else 0.0
    rc, out, _, _, _ = b.spawn([PY, str(HERE / "session.py"), "probe"])
    probe = json.loads(out.decode().splitlines()[-1]) if rc == 0 else {}
    b.record(probe.get("pool_matches_serial", False), "pooled catalog equals serial catalog")
    layers.update(probe.get("layers", {}))
    return layers


WORKLOADS = {
    "verify-all": verify_all,
    "catalog-roundtrip": catalog_roundtrip,
    "query-mix": query_mix,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "heronian" / "__init__.py").is_file():
        print(f"error: no heronian sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    OUT.mkdir(exist_ok=True)

    b = Bench(args.seed, args.seconds)
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = traced(b, args.workload)
        names = list(units)
        table = {name: (values[name], units[name], 1) for name in names}
    else:
        # One uncounted spawn byte-compiles a fresh checkout. Half the setup
        # samples come before the measured part and half after it, so the
        # median spans the run rather than one moment of a host whose speed
        # drifts.
        b.setup_samples(1)
        setup = b.setup_samples(SETUP_SPAWNS // 2)
        table = WORKLOADS[args.workload](b)
        setup += b.setup_samples(SETUP_SPAWNS - len(setup))
        table["setup_s"] = (statistics.median(setup), "s", len(setup))
        table["peak_rss_mb"] = (b.peak_rss_kb / 1024, "MB", b.peak_rss_reports)
        names = [m["name"] for m in spec["end_to_end"]]
        if set(names) - set(table):
            raise RuntimeError(f"BENCHMARK.json names {names}, measured {sorted(table)}")
        table = {**{name: table[name] for name in names}, **table}

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print(f"{'metric':48} {'value':>14} {'unit':>7} {'samples':>8}")
    for name, (value, unit, samples) in table.items():
        print(f"{name:48} {value:14.6g} {unit:>7} {samples:8d}")
    print(f"{'error_rate':48} {b.failed / max(1, b.attempted):14.6g} {'ratio':>7} "
          f"{b.attempted:8d}")
    result = {
        "correct": b.failed == 0,
        "attempted": max(1, b.attempted),
        "failed": b.failed,
        "metrics": {name: {"value": table[name][0], "unit": table[name][1]}
                    for name in names},
    }
    print(json.dumps(result))
    return 0 if b.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
