"""Start-up and exit cost: a command line run loads only the modules it
uses, and its shutdown does not sweep the objects still alive.

Each run happens in a fresh interpreter, as on the command line, which
reports the modules that importing ``ramsey_jahangir.cli`` added to
``sys.modules`` and those the command then added, or whether the
collector was frozen when the interpreter began to shut down.  A plainly
spelled line loads no argparse (nor its ``gettext`` and ``locale``); help,
a usage error and any other spelling do, and exit as they always have.
"""

import gc
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ramsey_jahangir import complete, to_graph6
from ramsey_jahangir.cli import run

from helpers_naive import shuffled_complete_bipartite

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import contextlib, io, json, sys
argv, stdin = json.loads(sys.argv[1])
before = set(sys.modules)
from ramsey_jahangir.cli import run
imported = set(sys.modules)
sys.stdin = io.StringIO(stdin)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = run(argv)
print(json.dumps({
    "code": code,
    "import": sorted(imported - before),
    "run": sorted(set(sys.modules) - imported),
}))
"""

ORACLE = "ramsey_jahangir.oracle"
WITNESS = "ramsey_jahangir.witness"
EMBEDDING = "ramsey_jahangir.embedding"
SUITES = "ramsey_jahangir.suites"
# OpenSSL's bindings: a sweep's checksum uses the interpreter's own SHA-256
OPENSSL = {"hashlib", "_hashlib"}
# argparse and what it imports: only lines that are not plain need them
PARSER = {"argparse", "gettext", "locale"}
EDGELESS_25 = "X" + "?" * 50  # graph6 of the edgeless graph on 25 vertices
# graph6 of K_{10,30}, labels shuffled: the path search needs more than 5 nodes
K10_30 = to_graph6(shuffled_complete_bipartite(random.Random(5), 10, 30))
# two hosts: the witness prints one line per host
TWO_K30 = (to_graph6(complete(30)) + "\n") * 2


def _probe(argv: list[str], stdin: str = "") -> tuple[int, set[str], set[str]]:
    """Exit code, modules the import added, modules the run added.

    The child runs with ``-S``: no ``site``, so no ``.pth`` file of the
    host's site-packages preloads a module the package would import.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-S", "-c", _PROBE, json.dumps([argv, stdin])],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    report = json.loads(out.splitlines()[-1])
    return report["code"], set(report["import"]), set(report["run"])


def test_importing_the_cli_loads_no_engine_and_build_loads_none_either():
    code, imported, ran = _probe(["build", "J2,3"])
    assert code == 0
    assert "ramsey_jahangir.cli" in imported
    unloaded = {"dataclasses", "pathlib", ORACLE, WITNESS, EMBEDDING} | OPENSSL | PARSER
    assert not imported & unloaded
    assert not ran & ({ORACLE, WITNESS, EMBEDDING} | OPENSSL | PARSER)


@pytest.mark.parametrize(
    "argv, stdin, code, loaded, unloaded",
    [
        (["witness", "-", "--theorem", "1", "-n", "23", "-s", "2", "-m", "3"],
         EDGELESS_25, 0, {WITNESS}, {ORACLE} | PARSER),
        (["ramsey", "P4", "J2,2", "--cap", "5"], "", 5, {ORACLE}, {WITNESS} | PARSER),
        (["witness", "-", "--theorem", "1", "-n", "23", "-s", "2", "-m", "3",
          "--budget", "5"], K10_30, 4, {WITNESS}, {ORACLE} | PARSER),
        (["suite", "thm1-s2m3", "--count", "3"], "", 0, {SUITES}, {ORACLE} | PARSER),
        # the help lists the suites, and running none needs no engine
        (["suite", "--help"], "", 0, {SUITES, "argparse"}, {ORACLE, WITNESS, EMBEDDING}),
        # argparse reports the usage error, and reads the abbreviated --bud
        (["witness", "-", "--theorem", "4", "-n", "23", "-s", "2", "-m", "3"],
         EDGELESS_25, 2, {"argparse"}, {ORACLE, WITNESS, EMBEDDING}),
        (["witness", "-", "--theorem", "1", "-n", "23", "-s", "2", "-m", "3",
          "--bud", "5"], K10_30, 4, {WITNESS, "argparse"}, {ORACLE}),
    ],
    ids=["witness", "ramsey", "witness-budget", "suite", "suite-help", "usage-error",
         "abbreviated-option"],
)
def test_each_command_loads_only_its_own_engine(argv, stdin, code, loaded, unloaded):
    got, imported, ran = _probe(argv, stdin)
    assert got == code
    assert loaded <= ran
    assert not (unloaded | OPENSSL) & (imported | ran)


# A build without the built-in hash modules, as seen by an import that finds
# None in sys.modules: the sweep falls back to hashlib, with the same bytes.
_NO_BUILTIN_SHA = """
import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from ramsey_jahangir.cli import run
code = run(sys.argv[1:])
sys.stdout.flush()
sys.stderr.write(" ".join(sorted({"hashlib", "_hashlib"} & set(sys.modules))))
sys.exit(code)
"""


def test_a_scan_without_the_built_in_sha256_falls_back_to_hashlib(capsys):
    argv = ["ramsey", "P4", "J2,2", "--cap", "8"]
    assert run(argv) == 0
    expected = capsys.readouterr().out.encode("ascii")
    child = subprocess.run(
        [sys.executable, "-c", _NO_BUILTIN_SHA, *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, check=True,
    )
    assert child.stdout == expected
    assert child.stderr == b"_hashlib hashlib"


def test_a_scan_resolves_the_sha256_constructor_once():
    # A failed import is not cached, so a lookup per sweep would try the
    # missing _sha2 again for every order swept (six times here on 3.10
    # and 3.11); -X importtime lists each attempt.
    child = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "ramsey_jahangir",
         "ramsey", "P4", "J2,2", "--cap", "8"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, check=True,
    )
    attempts = [line for line in child.stderr.splitlines() if line.split("|")[-1].strip() == "_sha2"]
    assert len(attempts) <= 1


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["ramsey", "P4", "J2,2", "--cap", "8"], ""),
        (["suite", "thm1-s2m3", "--count", "3"], ""),
        (["witness", "-", "--theorem", "1", "-n", "23", "-s", "2", "-m", "3"], EDGELESS_25),
        (["witness", "-", "--theorem", "1", "-n", "23", "-s", "2", "-m", "3"], TWO_K30),
    ],
    ids=["ramsey", "suite", "witness", "witness-two-hosts"],
)
def test_commands_load_no_json_package(argv, stdin):
    # Documents quote their strings through _json, the C module behind
    # json.encoder; only a certificate check loads the json package.
    # -X importtime lists every module a run imports.
    child = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "ramsey_jahangir", *argv],
        input=stdin, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, check=True,
    )
    loaded = {line.split("|")[-1].strip() for line in child.stderr.splitlines()}
    assert "_json" in loaded
    assert not {name for name in loaded if name.split(".")[0] == "json"}


# An interpreter without the C accelerator, as seen by an import that finds
# None in sys.modules: strings are quoted by json.encoder, with the same bytes.
_NO_C_JSON = """
import sys
sys.modules["_json"] = None
from ramsey_jahangir.cli import run
sys.exit(run(sys.argv[1:]))
"""


def test_a_suite_without_the_c_json_module_prints_the_same_bytes(capsys):
    argv = ["suite", "thm1-s2m3", "--count", "3"]
    assert run(argv) == 0
    expected = capsys.readouterr().out.encode("ascii")
    child = subprocess.run(
        [sys.executable, "-c", _NO_C_JSON, *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, check=True,
    )
    assert child.stdout == expected


# The entry point as ``python -m ramsey_jahangir`` runs it, with an atexit
# hook: atexit handlers run at shutdown, before its last collections.
_FROZEN_AT_EXIT = """
import atexit, gc, runpy, sys
atexit.register(lambda: sys.stderr.write(f"frozen {gc.get_freeze_count() > 0}"))
runpy.run_module("ramsey_jahangir", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize(
    "argv, stdin, code",
    [
        (["witness", "-", "--theorem", "1", "-n", "23", "-s", "2", "-m", "3"], TWO_K30, 0),
        (["witness", "-", "--theorem", "1", "-n", "23", "-s", "2", "-m", "3",
          "--budget", "5"], K10_30, 4),
    ],
    ids=["witness-two-hosts", "witness-budget"],
)
def test_the_entry_point_exits_with_the_collector_frozen(argv, stdin, code, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert run(argv) == code
    expected = capsys.readouterr()
    # run() in process leaves the collector live
    assert gc.get_freeze_count() == 0
    child = subprocess.run(
        [sys.executable, "-c", _FROZEN_AT_EXIT, *argv], input=stdin.encode("ascii"),
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
    )
    assert child.returncode == code
    assert child.stdout == expected.out.encode("ascii")
    assert child.stderr == expected.err.encode("ascii") + b"frozen True"
