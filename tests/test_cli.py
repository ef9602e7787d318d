import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path as FilePath

import pytest

from ramsey_jahangir import (
    SUITES,
    Path,
    Thm1,
    Thm2EvenM,
    Thm2OddM,
    build,
    complete,
    disjoint_union,
    empty,
    extract,
    from_edges,
    parse_spec,
    run_suite,
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


def test_build_writes_graph6_a_window_at_a_time(monkeypatch, tmp_path, capsys):
    # A window of 4 bytes, so that each body spans more than two windows.
    monkeypatch.setattr("ramsey_jahangir.graphs._G6_WINDOW", 4)
    target = tmp_path / "out.g6"
    for pattern in ("P40", "K12+K9+K3", "J5,4", "C30"):
        code = to_graph6(build(parse_spec(pattern)))
        assert len(code) - 1 > 8
        assert run(["build", pattern]) == 0
        assert capsys.readouterr().out == code + "\n"
        assert run(["build", pattern, "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text() == code + "\n"


def test_build_past_the_graph6_headers_writes_no_file(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr("ramsey_jahangir.graphs._G6_MAX_LONG", 100)
    target = tmp_path / "out.g6"
    assert run(["build", "P101", "--out", str(target)]) == 2
    assert "beyond supported graph6 headers" in capsys.readouterr().err
    assert not target.exists()


def test_build_to_an_unwritable_file_exits_2(tmp_path, capsys):
    assert run(["build", "J2,2", "--out", str(tmp_path / "missing" / "out.g6")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "J2,3"],
        ["suite", "thm1-s2m3", "--count", "20"],
        ["build", "P1000", "--format", "json"],  # one piece over 64 KiB
        ["suite", "thm2-s3m2", "--count", "20", "--format", "human"],
    ],
    ids=["short", "long", "sliced", "suite-human"],
)
def test_a_closed_standard_output_exits_141_silently(argv):
    # The reader is gone before the child writes, as in ``... | head -c 10``
    # once head has exited: 128 + SIGPIPE, as a shell reports for a Unix
    # tool, and nothing on stderr, at the write or at interpreter shutdown.
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = FilePath(__file__).resolve().parents[1] / "src"
    try:
        child = subprocess.run(
            [sys.executable, "-m", "ramsey_jahangir", *argv],
            stdout=write_end, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
    finally:
        os.close(write_end)
    assert (child.returncode, child.stderr) == (141, b"")


def test_a_one_piece_document_over_64_kib_keeps_its_bytes(tmp_path):
    # P1000's pattern document is one piece of about 117,000 characters,
    # written whole to a pipe and to a file.
    g = build(Path(1000))
    doc = {
        "pattern": "P1000",
        "order": 1000,
        "graph6": to_graph6(g),
        "edges": [[u, v] for u, v in g.edges()],
    }
    expected = (json.dumps(doc, indent=2) + "\n").encode("ascii")
    assert len(expected) > 65_536
    argv = ["build", "P1000", "--format", "json"]
    src = FilePath(__file__).resolve().parents[1] / "src"
    child = subprocess.run(
        [sys.executable, "-m", "ramsey_jahangir", *argv],
        capture_output=True, check=True, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert (child.stdout, child.stderr) == (expected, b"")
    target = tmp_path / "p1000.json"
    assert run([*argv, "--out", str(target)]) == 0
    assert target.read_bytes() == expected


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


def test_witness_settles_complete_bipartite_host_with_an_odd_edge(monkeypatch, capsys):
    # One edge inside the 30-side of K_{10,30}: the longest path has 22
    # vertices, no P23, and twin pruning proves that well inside the budget.
    edges = [(u, v) for u in range(10) for v in range(10, 40)] + [(10, 11)]
    monkeypatch.setattr("sys.stdin", io.StringIO(to_graph6(from_edges(40, edges)) + "\n"))
    rc = run(["witness", "-", "--theorem", "1", "-n", "23", "-s", "2", "-m", "3",
              "--budget", "10000"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["case"] == "Thm1-Case2"
    assert doc["k"] == 22


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
    # A path witness lies in the host; a Case 1 rim lists its augmented edges.
    for host, line in (
        (complete(30), "P23 in the host"),
        (disjoint_union(complete(2), empty(23)), "\n  augmented edges: 2-3"),
    ):
        monkeypatch.setattr("sys.stdin", io.StringIO(to_graph6(host) + "\n"))
        rc = run(["witness", "-", "--theorem", "1", "-n", "23", "-s", "2", "-m", "3",
                  "--format", "human"])
        assert rc == 0
        assert line in capsys.readouterr().out


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


def test_witness_forced_run_out_of_host_exits_3(monkeypatch, capsys):
    # P3 + K1 holds one short path where Case 1 peels two: the forced
    # construction fails as a maximality violation, not a precondition.
    host = disjoint_union(build(Path(3)), empty(1))
    monkeypatch.setattr("sys.stdin", io.StringIO(to_graph6(host) + "\n"))
    rc = run(["witness", "-", "--theorem", "1", "-n", "23", "-s", "2", "-m", "3",
              "--force"])
    assert rc == 3
    assert capsys.readouterr().err == "error: host exhausted after 1 of 2 paths\n"


def test_witness_even_spokes_without_a_wheel_exit_3(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(to_graph6(complete(7)) + "\n"))
    rc = run(["witness", "-", "--theorem", "2", "-n", "12", "-s", "3", "-m", "2",
              "--force"])
    assert rc == 3
    assert capsys.readouterr().err == (
        "error: complement holds no wheel with rim 6; the hypotheses cannot hold\n"
    )


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


def test_ramsey_undecided_class_exits_4(capsys):
    assert run(["ramsey", "P6", "J2,2", "--cap", "9", "--budget", "489"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: undecided: P6 in class 24 of order 6\n"


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


def _stdout_and_file(capsys, tmp_path, argv):
    """What ``argv`` prints, and what it writes with ``--out``, as bytes."""
    assert run(argv) == 0
    printed = capsys.readouterr().out.encode("ascii")
    target = tmp_path / "out.txt"
    assert run([*argv, "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    return printed, target.read_bytes()


def _witness_hosts():
    """Four hosts, each settled on a different side or case."""
    return [
        complete(30),
        disjoint_union(complete(2), empty(23)),
        build(Path(25)),
        disjoint_union(complete(20), complete(5)),
    ]


@pytest.mark.parametrize("fmt", ["json", "human"])
def test_suite_out_file_holds_the_printed_bytes(capsys, tmp_path, fmt):
    argv = ["suite", "thm2-s3m2", "--count", "40", "--format", fmt]
    printed, written = _stdout_and_file(capsys, tmp_path, argv)
    assert written == printed
    if fmt == "json":
        expected = json.dumps(run_suite("thm2-s3m2", 0, 40), indent=2) + "\n"
        assert printed == expected.encode("ascii")
    else:
        lines = printed.decode("ascii").splitlines()
        assert lines[0] == "suite thm2-s3m2 seed 0 count 40: all verified"
        assert len(lines) == 41 and lines[40].startswith("  39: Thm2-EvenM J3,2 ")


@pytest.mark.parametrize("fmt", ["json", "human"])
def test_many_host_witness_out_file_holds_the_printed_bytes(capsys, tmp_path, fmt):
    hosts = _witness_hosts()
    source = tmp_path / "hosts.g6"
    source.write_text("".join(to_graph6(g) + "\n" for g in hosts))
    argv = ["witness", str(source), "--theorem", "1", "-n", "23", "-s", "2", "-m", "3",
            "--format", fmt]
    printed, written = _stdout_and_file(capsys, tmp_path, argv)
    assert written == printed
    docs = [trace_document(g, extract(g, Thm1(23, 2, 3))) for g in hosts]
    if fmt == "json":
        expected = "".join(json.dumps(doc) + "\n" for doc in docs)
        assert printed == expected.encode("ascii")
    else:
        heads = [line for line in printed.decode("ascii").splitlines()
                 if not line.startswith("  ")]
        assert heads == [
            f"graph {i}: Thm1 {doc['case']} (longest path found: {doc['k']})"
            for i, doc in enumerate(docs)
        ]


def test_a_suite_that_fails_a_later_case_prints_nothing(capsys, tmp_path):
    # Case 0 of thm2-s3m2 at seed 0 spends 16 nodes and case 1 spends 17:
    # a per-case budget of 16 settles the first and runs out on the second.
    target = tmp_path / "suite.json"
    for fmt in ("json", "human"):
        first = ["suite", "thm2-s3m2", "--count", "1", "--budget", "16", "--format", fmt]
        assert run(first) == 0
        capsys.readouterr()
        argv = ["suite", "thm2-s3m2", "--count", "3", "--budget", "16", "--format", fmt]
        assert run(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert run([*argv, "--out", str(target)]) == 4
        assert capsys.readouterr().out == ""
        assert not target.exists()


def test_suite_memory_grows_with_its_text_not_its_records(tmp_path):
    # The command keeps each case's encoded text, never its record: doubling
    # the cases raises the traced peak by little more than the document
    # grows.  Holding every record until the end raises it about 4.2 times
    # as much.
    assert run(["suite", "thm1-s2m3", "--count", "1", "--out", str(tmp_path / "w")]) == 0
    peaks, sizes = [], []
    for count in (600, 1200):
        target = tmp_path / f"suite-{count}.json"
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            argv = ["suite", "thm1-s2m3", "--count", str(count), "--out", str(target)]
            assert run(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        sizes.append(target.stat().st_size)
    assert peaks[1] - peaks[0] <= 1.5 * (sizes[1] - sizes[0]), (peaks, sizes)


# Every indented document the CLI prints, each of which must be the bytes
# json.dumps(doc, indent=2) gives: a pattern, a certificate, the
# indeterminate report (with its null value), a path trace, a Jahangir trace
# with augmented edges and selections, and the five suites.
INDENTED_OUTPUTS = [
    ("build", ["build", "J2,3", "--format", "json"], None, 0),
    ("certificate", ["ramsey", "P4", "J2,2", "--cap", "8"], None, 0),
    ("indeterminate", ["ramsey", "P6", "J2,3", "--cap", "4"], None, 5),
    ("path-trace", ["witness", "-", "--theorem", "1", "-n", "23", "-s", "2", "-m", "3"],
     lambda: build(Path(25)), 0),
    ("jahangir-trace", ["witness", "-", "--theorem", "3", "-t", "2", "-n", "23", "-s", "2",
                        "-m", "3"],
     lambda: disjoint_union(disjoint_union(complete(23), complete(3)), empty(22)), 0),
] + [
    (f"suite-{name}", ["suite", name, "--seed", "0", "--count", "40"], None, 0)
    for name in sorted(SUITES)
]


@pytest.mark.parametrize(
    "argv, make_host, code",
    [row[1:] for row in INDENTED_OUTPUTS],
    ids=[row[0] for row in INDENTED_OUTPUTS],
)
def test_indented_output_is_json_dumps_bytes(monkeypatch, capsys, argv, make_host, code):
    if make_host is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(to_graph6(make_host()) + "\n"))
    assert run(argv) == code
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2) + "\n"
    if argv[0] == "witness":
        assert doc["paths"] and doc["verified"] is True
        if doc["witness"]["pattern"].startswith("J"):
            assert doc["augmented_edges"] and doc["selections"]


def test_no_arguments(capsys):
    assert run([]) == 2
    capsys.readouterr()
