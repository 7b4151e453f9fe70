"""Record the benchmark's expected answers from the current program.

    python3 perfbench/record_golden.py

Run from the root of a checkout whose outputs are known good. It writes
golden/verify_all.json (the stdout of `heron verify --claim all --format
json`), data/inputs.json (the catalog perimeters and chain starts the
query-mix stream draws from) and golden/expected.json (the SHA-256 and
count of the p_max 2000 catalog's record lines, and the digest of the
query-mix answers for the default seed). Re-recording is only right when
an intended change of outputs has been checked by other means.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from checks import answers_digest
from inputs import BLOCK_SIZE, CATALOG_P_MAX, query_blocks
from run import DEFAULT_SEED, MIN_BLOCKS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHAIN_START_STRIDE = 24


def heron(env, *args) -> bytes:
    return subprocess.run([sys.executable, "-m", "heronian", *args], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, check=True).stdout


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    (HERE / "golden").mkdir(exist_ok=True)
    (HERE / "data").mkdir(exist_ok=True)

    verify = heron(env, "verify", "--claim", "all", "--format", "json")
    if any(r["verdict"] != "verified-within-bounds" for r in json.loads(verify)["reports"]):
        raise RuntimeError("verify --claim all did not verify every claim")
    (HERE / "golden" / "verify_all.json").write_bytes(verify)

    catalog = OUT / "catalog.jsonl"
    heron(env, "catalog", "build", "--p-max", str(CATALOG_P_MAX), "--out", str(catalog))
    lines = catalog.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines[1:]]
    inputs = {
        "catalog_perimeters": sorted({r["perimeter"] for r in records}),
        "chain_starts": [[r["a"], r["b"], r["c"]] for r in records[::CHAIN_START_STRIDE]],
    }
    (HERE / "data" / "inputs.json").write_text(json.dumps(inputs) + "\n", encoding="utf-8")
    body = "".join(line + "\n" for line in lines[1:])
    expected = {
        "catalog_p_max": CATALOG_P_MAX,
        "catalog_records": len(records),
        "catalog_records_sha256": hashlib.sha256(body.encode()).hexdigest(),
    }

    blocks = query_blocks(DEFAULT_SEED, MIN_BLOCKS, inputs)
    requests, answers = OUT / "record-requests.json", OUT / "record-answers.jsonl"
    requests.write_text(json.dumps({"blocks": blocks, "min_blocks": MIN_BLOCKS, "seconds": 0}),
                        encoding="utf-8")
    subprocess.run([sys.executable, str(HERE / "session.py"), "run", str(requests), str(answers)],
                   cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=True)
    with open(answers, encoding="utf-8") as fh:
        stream = [json.loads(line)["answer"] for line in fh]
    if len(stream) != MIN_BLOCKS * BLOCK_SIZE:
        raise RuntimeError(f"query-mix answered {len(stream)} requests")
    expected["query_mix"] = {"seed": DEFAULT_SEED, "blocks": MIN_BLOCKS,
                             "answers_sha256": answers_digest(stream)}
    (HERE / "golden" / "expected.json").write_text(json.dumps(expected, indent=2) + "\n",
                                                   encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
