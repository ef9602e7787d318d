"""Start-up cost: a command line run loads only the modules it uses.

Each run happens in a fresh interpreter, as on the command line, which
reports the modules that importing ``ramsey_jahangir.cli`` added to
``sys.modules`` and those the command then added.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ramsey_jahangir import to_graph6
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
EDGELESS_25 = "X" + "?" * 50  # graph6 of the edgeless graph on 25 vertices
# graph6 of K_{10,30}, labels shuffled: the path search needs more than 5 nodes
K10_30 = to_graph6(shuffled_complete_bipartite(random.Random(5), 10, 30))


def _probe(argv: list[str], stdin: str = "") -> tuple[int, set[str], set[str]]:
    """Exit code, modules the import added, modules the run added."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps([argv, stdin])],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    report = json.loads(out.splitlines()[-1])
    return report["code"], set(report["import"]), set(report["run"])


def test_importing_the_cli_loads_no_engine_and_build_loads_none_either():
    code, imported, ran = _probe(["build", "J2,3"])
    assert code == 0
    assert "ramsey_jahangir.cli" in imported
    assert not imported & ({"dataclasses", ORACLE, WITNESS, EMBEDDING} | OPENSSL)
    assert not ran & ({ORACLE, WITNESS, EMBEDDING} | OPENSSL)


@pytest.mark.parametrize(
    "argv, stdin, code, loaded, unloaded",
    [
        (["witness", "-", "--theorem", "1", "-n", "23", "-s", "2", "-m", "3"],
         EDGELESS_25, 0, WITNESS, {ORACLE}),
        (["ramsey", "P4", "J2,2", "--cap", "5"], "", 5, ORACLE, {WITNESS}),
        (["witness", "-", "--theorem", "1", "-n", "23", "-s", "2", "-m", "3",
          "--budget", "5"], K10_30, 4, WITNESS, {ORACLE}),
        (["suite", "thm1-s2m3", "--count", "3"], "", 0, SUITES, {ORACLE}),
        # the help lists the suites, and running none needs no engine
        (["suite", "--help"], "", 0, SUITES, {ORACLE, WITNESS, EMBEDDING}),
    ],
    ids=["witness", "ramsey", "witness-budget", "suite", "suite-help"],
)
def test_each_command_loads_only_its_own_engine(argv, stdin, code, loaded, unloaded):
    got, imported, ran = _probe(argv, stdin)
    assert got == code
    assert loaded in ran
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
    ],
    ids=["ramsey", "suite", "witness"],
)
def test_commands_load_no_json_package(argv, stdin):
    # Documents quote their strings through _json, the C module behind
    # json.encoder; only a multi-host witness and a certificate check load
    # the json package.  -X importtime lists every module a run imports.
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
