import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

from oracles import naive_integer_area

import heronian.cli as cli
from heronian.catalog import Catalog, build, save
from heronian.core import Triangle
from heronian.verify import check_theorem1


def run_cli(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_enumerate_by_area_json(capsys):
    code, out, _ = run_cli(["enumerate", "--area", "36", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["query"] == {"area": 36}
    assert [(t["a"], t["b"], t["c"]) for t in payload["triangles"]] == [
        (3, 25, 26),
        (9, 10, 17),
    ]


def test_enumerate_empty_result_is_success(capsys):
    code, out, _ = run_cli(["enumerate", "--perimeter", "6", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["triangles"] == []


def test_enumerate_area_large_prime_answers_quickly():
    # multiples of 6, so they pass the 6 | area test and get factorized:
    # 6 * (10^18 + 3) leaves a prime cofactor for Miller-Rabin, and
    # 6 * 1000000007 * 1000000009 a semiprime for Pollard rho; trial
    # division alone would run to about 10^9
    for area in (6000000000000000018, 6000000096000000378):
        proc = subprocess.run(
            [sys.executable, "-m", "heronian", "enumerate", "--area", str(area),
             "--format", "json"],
            capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"query": {"area": area}, "triangles": []}


def test_enumerate_area_refuses_uncertifiable_prime(capsys):
    code, out, err = run_cli(["enumerate", "--area", str(6 * (2**89 - 1))], capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "3317044064679887385961981" in err


def test_enumerate_area_not_a_multiple_of_6_is_empty(capsys):
    # 2^89 - 1 is a prime beyond the primality certificate, but it is odd,
    # so it is no Heronian area and needs no factorizing
    code, out, err = run_cli(
        ["enumerate", "--area", str(2**89 - 1), "--format", "json"], capsys)
    assert code == 0
    assert err == ""
    assert json.loads(out) == {"query": {"area": 2**89 - 1}, "triangles": []}


def test_enumerate_large_perimeter_answers_within_time_limit():
    proc = subprocess.run(
        [sys.executable, "-m", "heronian", "enumerate", "--perimeter", "100000",
         "--format", "json"],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 0
    rows = json.loads(proc.stdout)["triangles"]
    assert len(rows) > 1000
    triples = [(r["a"], r["b"], r["c"]) for r in rows]
    assert triples == sorted(set(triples))
    for r in rows[::50]:
        assert r["a"] + r["b"] + r["c"] == r["perimeter"] == 100000
        assert naive_integer_area(r["a"], r["b"], r["c"]) == r["area"]


def test_enumerate_csv(capsys):
    code, out, _ = run_cli(["enumerate", "--perimeter", "12", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "a,b,c,perimeter,area,classification",
        "3,4,5,12,6,deficient",
    ]


def test_enumerate_flag_conflict_is_usage_error(capsys):
    code, _, err = run_cli(["enumerate", "--area", "36", "--perimeter", "6"], capsys)
    assert code == 2
    assert "not allowed" in err
    code, _, _ = run_cli(["enumerate"], capsys)
    assert code == 2


def test_cycles_symbolic(capsys):
    code, out, _ = run_cli(["cycles", "--n", "5", "--symbolic"], capsys)
    assert code == 0
    assert out.splitlines() == ["UVUVW", "UVWWW"]


def test_cycles_symbolic_empty(capsys):
    code, out, _ = run_cli(["cycles", "--n", "1", "--symbolic", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["cycles"] == []


def test_cycles_concrete(capsys):
    code, out, _ = run_cli(
        ["cycles", "--n", "2", "--concrete", "--p-max", "100", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["cycles"] == [[[3, 25, 26], [9, 12, 15]]]


def test_cycles_concrete_requires_p_max(capsys):
    code, _, err = run_cli(["cycles", "--n", "2", "--concrete"], capsys)
    assert code == 2
    assert "--p-max" in err


@pytest.mark.parametrize("mode", [[], ["--symbolic"]])
def test_cycles_p_max_requires_concrete(mode, capsys):
    # a symbolic listing has no perimeter bound to apply
    code, out, err = run_cli(["cycles", "--n", "3", *mode, "--p-max", "5"], capsys)
    assert code == 2
    assert out == ""
    assert "--p-max requires --concrete" in err


@pytest.mark.parametrize("p_max", ["0", "-1"])
def test_cycles_concrete_empty_bound_is_usage_error(p_max, capsys):
    code, out, err = run_cli(["cycles", "--n", "2", "--concrete", "--p-max", p_max], capsys)
    assert code == 2
    assert out == ""
    assert "p_max must be at least 1" in err


def test_cycles_modes_agree_in_count(capsys):
    for n in range(2, 9):
        code, sym, _ = run_cli(["cycles", "--n", str(n), "--symbolic", "--format", "json"], capsys)
        assert code == 0
        code, conc, _ = run_cli(
            ["cycles", "--n", str(n), "--concrete", "--p-max", "1000", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert len(json.loads(sym)["cycles"]) == len(json.loads(conc)["cycles"])


def test_verify_equable_five(capsys):
    code, out, _ = run_cli(["verify", "--claim", "equable-five", "--format", "json"], capsys)
    assert code == 0
    reports = json.loads(out)["reports"]
    assert len(reports) == 1
    assert reports[0]["verdict"] == "verified-within-bounds"
    assert len(reports[0]["witnesses"]) == 5


def test_verify_theorem1_point_check(capsys):
    code, out, _ = run_cli(
        ["verify", "--claim", "theorem1", "--x", "1", "--y", "2", "--z", "864",
         "--n", "2", "--format", "json"],
        capsys,
    )
    assert code == 1
    report = json.loads(out)["reports"][0]
    assert report["verdict"] == "counterexample"
    assert report["witnesses"][0]["divides"] is False

    code, out, _ = run_cli(
        ["verify", "--claim", "theorem1", "--x", "1", "--y", "2", "--z", "864",
         "--n", "3", "--format", "json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["reports"][0]["witnesses"][0]["divides"] is True


@pytest.mark.parametrize("n", [2, 3])
def test_verify_theorem1_prints_the_check_theorem1_report(n, capsys):
    code, out, _ = run_cli(
        ["verify", "--claim", "theorem1", "--x", "1", "--y", "2", "--z", "864",
         "--n", str(n), "--format", "json"],
        capsys,
    )
    report = check_theorem1(1, 2, 864, n)
    assert code == (0 if report.ok else 1)
    assert json.loads(out) == {"reports": [report.to_dict()]}


@pytest.mark.parametrize("missing", ["--x", "--y", "--z"])
def test_verify_theorem1_requires_point(missing, capsys):
    point = {"--x": "1", "--y": "2", "--z": "864"}
    del point[missing]
    argv = ["verify", "--claim", "theorem1", *(arg for flag in point.items() for arg in flag)]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert "--claim theorem1 requires --x, --y and --z" in err


def test_verify_unknown_claim(capsys):
    code, _, _ = run_cli(["verify", "--claim", "lemma99"], capsys)
    assert code == 2


def test_verify_theorem3_with_bounds(capsys):
    code, out, _ = run_cli(
        ["verify", "--claim", "theorem3", "--p-max", "1000", "--n-max", "8",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["reports"][0]["verdict"] == "verified-within-bounds"


def test_verify_empty_bound_is_usage_error(capsys):
    code, out, err = run_cli(["verify", "--claim", "all", "--p-max", "0"], capsys)
    assert code == 2
    assert out == ""
    assert "p_max" in err


def test_verify_counterexample_exits_1_with_json_report(monkeypatch, capsys):
    stray = SimpleNamespace(members=(Triangle(3, 25, 26), Triangle(13, 14, 15)))
    monkeypatch.setattr("heronian.verify.find_cycles", lambda n, p_max: [stray])
    code, out, err = run_cli(["verify", "--claim", "theorem3", "--format", "json"], capsys)
    assert code == 1
    assert err == ""
    report = json.loads(out)["reports"][0]
    assert report["verdict"] == "counterexample"
    assert report["witnesses"][0]["unexpected_member"] == [13, 14, 15]


def test_catalog_build_info(tmp_path, capsys):
    path = str(tmp_path / "c.jsonl")
    code, out, err = run_cli(["catalog", "build", "--p-max", "12", "--out", path], capsys)
    assert code == 0
    assert out == ""  # data channel stays clean; summary goes to stderr
    assert "1 records" in err
    code, out, _ = run_cli(["catalog", "info", "--in", path, "--format", "json"], capsys)
    assert code == 0
    header = json.loads(out)
    assert header["count"] == 1
    assert header["p_max"] == 12


def test_catalog_build_empty_is_success(tmp_path, capsys):
    path = str(tmp_path / "c.jsonl")
    code, _, _ = run_cli(["catalog", "build", "--p-max", "2", "--out", path], capsys)
    assert code == 0
    code, out, _ = run_cli(["catalog", "info", "--in", path, "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["count"] == 0


def test_catalog_info_truncated_file(tmp_path, capsys):
    path = tmp_path / "c.jsonl"
    run_cli(["catalog", "build", "--p-max", "100", "--out", str(path)], capsys)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    code, _, err = run_cli(["catalog", "info", "--in", str(path)], capsys)
    assert code == 1
    assert "error" in err


def test_catalog_info_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "c.jsonl"
    path.write_bytes(b"\xff\xfe\n")
    code, out, err = run_cli(["catalog", "info", "--in", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err == "error: line 1: not valid UTF-8\n"


@pytest.mark.parametrize("line, detail", [
    pytest.param(b'{"p_max":' + b"9" * 5000 + b"}\n", "Exceeds the limit",
                 id="integer-too-long"),
    pytest.param(b"[" * 100_000 + b"\n", "maximum recursion depth", id="deep-nesting"),
])
def test_catalog_info_undecodable_json(tmp_path, capsys, line, detail):
    path = tmp_path / "c.jsonl"
    path.write_bytes(line)
    code, out, err = run_cli(["catalog", "info", "--in", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: line 1: invalid JSON ({detail}")
    assert len(err.splitlines()) == 1


def test_catalog_build_empty_bound_is_usage_error(tmp_path, capsys):
    path = tmp_path / "c.jsonl"
    code, out, err = run_cli(["catalog", "build", "--p-max", "0", "--out", str(path)], capsys)
    assert (code, out) == (2, "")
    assert "p_max must be at least 1" in err
    assert not path.exists()


def test_catalog_build_missing_flags(capsys):
    code, _, _ = run_cli(["catalog", "build", "--p-max", "10"], capsys)
    assert code == 2


@pytest.mark.parametrize("extra", [["--format", "json"], ["--in", "other.jsonl"]])
def test_catalog_build_rejects_info_flags(extra, tmp_path, capsys):
    path = tmp_path / "c.jsonl"
    code, out, _ = run_cli(["catalog", "build", "--p-max", "10", "--out", str(path), *extra],
                           capsys)
    assert (code, out) == (2, "")
    assert not path.exists()


@pytest.mark.parametrize("extra", [["--p-max", "5"], ["--out", "other.jsonl"]])
def test_catalog_info_rejects_build_flags(extra, tmp_path, capsys):
    path = str(tmp_path / "c.jsonl")
    run_cli(["catalog", "build", "--p-max", "12", "--out", path], capsys)
    code, out, _ = run_cli(["catalog", "info", "--in", path, *extra], capsys)
    assert (code, out) == (2, "")


def test_catalog_build_has_no_workers_flag(tmp_path, capsys):
    path = str(tmp_path / "c.jsonl")
    code, _, err = run_cli(
        ["catalog", "build", "--p-max", "10", "--out", path, "--workers", "2"], capsys
    )
    assert code == 2
    assert "unrecognized arguments: --workers 2" in err


def test_catalog_build_unwritable_path(capsys):
    code, _, err = run_cli(
        ["catalog", "build", "--p-max", "10", "--out", "/nonexistent/dir/c.jsonl"],
        capsys,
    )
    assert code == 1
    assert "error" in err


def test_bad_preconditions_are_usage_errors(capsys):
    code, _, _ = run_cli(["cycles", "--n", "0", "--symbolic"], capsys)
    assert code == 2
    code, _, _ = run_cli(["verify", "--claim", "theorem2", "--n", "0"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv, lines_read", [
    (["cycles", "--n", "26"], 1),
    (["cycles", "--n", "5"], 0),
    (["--help"], 0),
    (["verify", "--help"], 0),
], ids=["closed-mid-listing", "closed-before-the-flush-at-exit", "help", "verify-help"])
def test_closed_stdout_pipe_is_a_file_error(argv, lines_read):
    # the reader closes the pipe while 10,461 words of length 26 are written,
    # or before the 2 of length 5 or a help text leave the buffer (argparse
    # prints help and exits inside parse_args). stdout is block-buffered, as
    # for any pipe, so bytes can wait for the flush at exit.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for _ in range(5):
        proc = subprocess.Popen([sys.executable, "-m", "heronian", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        for _ in range(lines_read):
            proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=30) == 1
        assert "Traceback" not in err and "Exception ignored" not in err
        assert err == "error: [Errno 32] Broken pipe\n"


def test_catalog_info_env_var(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "c.jsonl")
    run_cli(["catalog", "build", "--p-max", "12", "--out", path], capsys)
    monkeypatch.setenv(cli.CATALOG_ENV_VAR, path)
    code, out, _ = run_cli(["catalog", "info", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["count"] == 1
    monkeypatch.delenv(cli.CATALOG_ENV_VAR)
    code, _, _ = run_cli(["catalog", "info"], capsys)
    assert code == 2


def test_json_outputs_are_deterministic(capsys):
    commands = [
        ["enumerate", "--area", "36", "--format", "json"],
        ["enumerate", "--perimeter", "54", "--format", "json"],
        ["cycles", "--n", "5", "--symbolic", "--format", "json"],
        ["cycles", "--n", "3", "--concrete", "--p-max", "100", "--format", "json"],
        ["verify", "--claim", "gersonides", "--format", "json"],
        ["verify", "--claim", "lemma2", "--p-max", "200", "--format", "json"],
    ]
    for argv in commands:
        first = run_cli(argv, capsys)
        second = run_cli(argv, capsys)
        assert first == second


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "heronian", "enumerate", "--area", "54", "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "9,12,15,36,54,abundant"


def test_cli_import_leaves_the_process_pool_unloaded():
    # only catalog.build(workers > 1) needs it, so no CLI process pays to import it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, heronian.cli; print('concurrent.futures.process' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "False\n"


TABLE_CASES = {
    "enumerate-area": (
        ["enumerate", "--area", "36"],
        "a  b   c   perimeter  area  classification\n"
        "3  25  26  54         36    deficient     \n"
        "9  10  17  36         36    equable       \n",
    ),
    "cycles-concrete": (
        ["cycles", "--n", "3", "--concrete", "--p-max", "100"],
        "cycle 0: (3,25,26) -> (9,10,17) -> (9,12,15)\n",
    ),
    "cycles-concrete-empty": (
        ["cycles", "--n", "1", "--concrete", "--p-max", "100"],
        "(no cycles)\n",
    ),
    "verify-lemma3": (
        ["verify", "--claim", "lemma3", "--p-max", "200"],
        "lemma3: verified-within-bounds  bounds={'p_max': 200}\n"
        "  {'deficient_triangles_checked': 6}\n",
    ),
    "catalog-info": (
        ["catalog", "info", "--in", "{catalog}"],
        "format_version: 1\n"
        "p_max: 12\n"
        "count: 1\n"
        "built_at: 2000-01-01T00:00:00+00:00\n",
    ),
}


@pytest.mark.parametrize("case", sorted(TABLE_CASES))
def test_table_output_is_pinned(case, tmp_path, capsys):
    argv, expected = TABLE_CASES[case]
    path = tmp_path / "c.jsonl"
    save(Catalog(12, build(12).records, "2000-01-01T00:00:00+00:00"), path)
    argv = [arg.format(catalog=path) for arg in argv]
    assert run_cli(argv, capsys) == (0, expected, "")
