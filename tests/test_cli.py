import hashlib
import io
import json

import pytest

from ramsey_jahangir import Path, build, complete, disjoint_union, empty, to_graph6
from ramsey_jahangir.cli import run


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


def test_no_arguments(capsys):
    assert run([]) == 2
    capsys.readouterr()
