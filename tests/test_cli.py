import hashlib
import io
import json
import random

import pytest

from ramsey_jahangir import (
    Path,
    Thm2EvenM,
    Thm2OddM,
    build,
    complete,
    disjoint_union,
    empty,
    extract,
    from_edges,
    to_graph6,
    trace_document,
)
from ramsey_jahangir.cli import run

from helpers_naive import shuffled_complete_bipartite


def triangles_code():
    g = empty(1)
    for _ in range(8):
        g = disjoint_union(g, complete(3))
    return to_graph6(g)


def test_build_graph6(capsys):
    assert run(["build", "J2,2"]) == 0
    assert capsys.readouterr().out == "Dlg\n"


def test_build_json(capsys):
    assert run(["build", "J2,2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pattern"] == "J2,2"
    assert doc["order"] == 5
    assert doc["graph6"] == "Dlg"
    assert len(doc["edges"]) == 6


def test_build_human(capsys):
    assert run(["build", "P3", "--format", "human"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("P3: order 3, 2 edges")


def test_build_to_file(tmp_path, capsys):
    target = tmp_path / "out.g6"
    assert run(["build", "J2,2", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == "Dlg\n"


def test_build_rejects_bad_pattern(capsys):
    assert run(["build", "Q7"]) == 2
    assert "error:" in capsys.readouterr().err


def test_witness_single_host(tmp_path, capsys):
    hosts = tmp_path / "hosts.g6"
    hosts.write_text(triangles_code() + "\n")
    rc = run(["witness", str(hosts), "--theorem", "1", "-n", "23", "-s", "2", "-m", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("{\n")  # one host: indented document
    doc = json.loads(out)
    assert doc["case"] == "Thm1-Case1"
    assert doc["verified"] is True


def test_witness_settles_complete_bipartite_host(tmp_path, capsys):
    # K_{10,30} holds no P23: a Thm1-Case2 Jahangir well inside the budget.
    host = shuffled_complete_bipartite(random.Random(5), 10, 30)
    hosts = tmp_path / "k1030.g6"
    hosts.write_text(to_graph6(host) + "\n")
    rc = run(["witness", str(hosts), "--theorem", "1", "-n", "23", "-s", "2", "-m", "3",
              "--budget", "1000000"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["case"] == "Thm1-Case2"
    assert doc["verified"] is True


def test_witness_stdin_many(monkeypatch, capsys):
    code = triangles_code()
    monkeypatch.setattr("sys.stdin", io.StringIO(code + "\n" + code + "\n"))
    rc = run(["witness", "-", "--theorem", "1", "-n", "23", "-s", "2", "-m", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2  # several hosts: one compact JSON line each
    for line in lines:
        assert json.loads(line)["verified"] is True


def test_witness_theorem3(monkeypatch, capsys):
    host = disjoint_union(disjoint_union(complete(23), complete(23)), empty(2))
    monkeypatch.setattr("sys.stdin", io.StringIO(to_graph6(host) + "\n"))
    rc = run(
        ["witness", "-", "--theorem", "3", "-t", "2", "-n", "23", "-s", "2", "-m", "3"]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["witness"]["pattern"] == "2P23"
    assert doc["verified"] is True


def test_witness_human(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(triangles_code() + "\n"))
    rc = run(
        ["witness", "-", "--theorem", "1", "-n", "23", "-s", "2", "-m", "3",
         "--format", "human"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "Thm1-Case1" in out and "verified: yes" in out


def test_witness_usage_errors(tmp_path, monkeypatch, capsys):
    hosts = tmp_path / "hosts.g6"
    hosts.write_text(triangles_code() + "\n")
    assert run(["witness", str(hosts), "--theorem", "1", "-n", "23", "-s", "2",
                "-m", "3", "--format", "graph6"]) == 2
    assert run(["witness", str(hosts), "--theorem", "1", "-n", "23", "-s", "2",
                "-m", "3", "-t", "2"]) == 2
    blank = tmp_path / "blank.g6"
    blank.write_text("\n")
    assert run(["witness", str(blank), "--theorem", "1", "-n", "23", "-s", "2",
                "-m", "3"]) == 2
    assert run(["witness", str(tmp_path / "absent.g6"), "--theorem", "1",
                "-n", "23", "-s", "2", "-m", "3"]) == 2
    capsys.readouterr()


def test_witness_theorem2_picks_the_case_by_spoke_parity(monkeypatch, capsys):
    # The hosts of test_even_spokes_via_wheel and test_odd_spokes_short_paths.
    even = empty(2)
    for _ in range(3):
        even = disjoint_union(even, build(Path(7)))
    odd = empty(1)
    for _ in range(9):
        odd = disjoint_union(odd, build(Path(7)))
    for host, case in ((even, Thm2EvenM(12, 3, 2)), (odd, Thm2OddM(32, 3, 3))):
        monkeypatch.setattr("sys.stdin", io.StringIO(to_graph6(host) + "\n"))
        rc = run(["witness", "-", "--theorem", "2", "-n", str(case.n),
                  "-s", str(case.s), "-m", str(case.m)])
        assert rc == 0
        doc = trace_document(host, extract(host, case))
        assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"


def test_witness_rejects_the_regime_before_reading_hosts(tmp_path, capsys):
    absent = str(tmp_path / "absent.g6")
    assert run(["witness", absent, "--theorem", "1", "-n", "23", "-s", "2",
                "-m", "3", "-t", "2"]) == 2
    assert "-t applies to --theorem 3 only" in capsys.readouterr().err
    assert run(["witness", absent, "--theorem", "2", "-n", "12", "-s", "2",
                "-m", "2"]) == 2
    assert "this regime needs odd s >= 3" in capsys.readouterr().err


def test_witness_precondition_exit(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(to_graph6(empty(6)) + "\n"))
    rc = run(["witness", "-", "--theorem", "1", "-n", "23", "-s", "2", "-m", "3"])
    assert rc == 2
    capsys.readouterr()


def test_witness_force_keeps_the_shape_check(monkeypatch, capsys):
    host = disjoint_union(build(Path(20)), empty(5))
    monkeypatch.setattr("sys.stdin", io.StringIO(to_graph6(host) + "\n"))
    rc = run(["witness", "-", "--theorem", "1", "-n", "23", "-s", "3", "-m", "3",
              "--force"])
    assert rc == 2
    assert "this regime needs even s >= 2" in capsys.readouterr().err


def test_witness_maximality_exit(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(to_graph6(empty(6)) + "\n"))
    rc = run(["witness", "-", "--theorem", "1", "-n", "23", "-s", "2", "-m", "3",
              "--force"])
    assert rc == 3
    capsys.readouterr()


def test_witness_budget_exit(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(triangles_code() + "\n"))
    rc = run(["witness", "-", "--theorem", "1", "-n", "23", "-s", "2", "-m", "3",
              "--budget", "1"])
    assert rc == 4
    capsys.readouterr()


def test_witness_wheel_budget_exit(monkeypatch, capsys):
    host = from_edges(23, [(2 * i, 2 * i + 1) for i in range(11)])
    monkeypatch.setattr("sys.stdin", io.StringIO(to_graph6(host) + "\n"))
    rc = run(["witness", "-", "--theorem", "2", "-n", "12", "-s", "3", "-m", "2",
              "--budget", "4"])
    assert rc == 4
    err = capsys.readouterr().err
    assert err == "error: budget ran out searching the complement for a wheel with rim 6\n"


def test_ramsey_json(capsys):
    assert run(["ramsey", "P3", "P3", "--cap", "6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == 3
    assert doc["g"] == "P3" and doc["h"] == "P3"


def test_ramsey_human(capsys):
    assert run(["ramsey", "P3", "P3", "--cap", "6", "--format", "human"]) == 0
    assert "R(P3, P3) = 3" in capsys.readouterr().out


# stdout sha256 of the benchmark's three scans, recorded before a scan grew
# each order once (they cover the certificate checksums and lower witnesses)
SCAN_DIGESTS = [
    ("P4", "8", "9d4da500905f5aab6ee636b7a88a35791e187760d3bd1854f1857c130e691612"),
    ("P5", "8", "0b1dffef5a5d44f7168129fa1c0619085575a068f8050cbfb27364039a91b6aa"),
    ("P6", "9", "b1ceb66d1d8eb23191fced20219032729681bcfb0a5743d58b85f5631ab7ba54"),
]


@pytest.mark.parametrize("path, cap, digest", SCAN_DIGESTS, ids=["P4", "P5", "P6"])
def test_ramsey_scan_bytes_are_pinned(capsys, path, cap, digest):
    assert run(["ramsey", path, "J2,2", "--cap", cap]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_ramsey_indeterminate_exit(capsys):
    rc = run(["ramsey", "P6", "J2,3", "--cap", "4"])
    assert rc == 5
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["value"] is None
    assert report["cap"] == 4
    assert report["last_order"] == 3
    assert report["last_counterexample"]
    assert "error:" in captured.err


def test_ramsey_indeterminate_report_goes_to_out(capsys, tmp_path):
    out = tmp_path / "report.json"
    rc = run(["ramsey", "P6", "J2,3", "--cap", "4", "--out", str(out)])
    assert rc == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err
    report = json.loads(out.read_text())
    assert report["value"] is None
    assert report["last_order"] == 3


def test_ramsey_indeterminate_human(capsys):
    rc = run(["ramsey", "P6", "J2,3", "--cap", "4", "--format", "human"])
    assert rc == 5
    captured = capsys.readouterr()
    assert captured.out == "R(P6, J2,3) >= 4 (cap 4 reached; order 3 counterexample B?)\n"
    assert "error:" in captured.err


def test_suite_json(capsys):
    assert run(["suite", "thm2-s3m2", "--seed", "3", "--count", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert len(doc["cases"]) == 2


def test_suite_human(capsys):
    assert run(["suite", "thm2-s3m2", "--seed", "3", "--count", "2",
                "--format", "human"]) == 0
    assert "all verified" in capsys.readouterr().out


def test_suite_unknown_name(capsys):
    assert run(["suite", "nope"]) == 2
    capsys.readouterr()


def test_suite_help_names_every_suite(capsys, monkeypatch):
    # The names come from the suite table, read only when this help prints.
    monkeypatch.setenv("COLUMNS", "200")
    assert run(["suite", "--help"]) == 0
    assert (
        "one of: thm1-s2m3, thm2-s3m2, thm2-s3m3, thm3-t2s2m3, thm3-t2s2m3-paths\n"
        in capsys.readouterr().out
    )


def test_suite_seed_outside_64_bits(capsys):
    # -1 would otherwise replay the cases of seed 2^64 - 1 under "seed": -1.
    for seed in ("-1", str(1 << 64)):
        assert run(["suite", "thm1-s2m3", "--seed", seed, "--count", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: seed {seed} outside" in captured.err
    assert run(["suite", "thm1-s2m3", "--seed", str((1 << 64) - 1), "--count", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == (1 << 64) - 1


def test_no_arguments(capsys):
    assert run([]) == 2
    capsys.readouterr()
