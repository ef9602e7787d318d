"""Start-up cost: a command line run loads only the modules it uses.

Each run happens in a fresh interpreter, as on the command line, which
reports the modules that importing ``ramsey_jahangir.cli`` added to
``sys.modules`` and those the command then added.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
EDGELESS_25 = "X" + "?" * 50  # graph6 of the edgeless graph on 25 vertices


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
    assert not imported & {"dataclasses", "hashlib", ORACLE, WITNESS}
    assert not ran & {ORACLE, WITNESS}


@pytest.mark.parametrize(
    "argv, stdin, code, loaded, unloaded",
    [
        (["witness", "-", "--theorem", "1", "-n", "23", "-s", "2", "-m", "3"],
         EDGELESS_25, 0, WITNESS, ORACLE),
        (["ramsey", "P4", "J2,2", "--cap", "5"], "", 5, ORACLE, WITNESS),
    ],
    ids=["witness", "ramsey"],
)
def test_each_command_loads_only_its_own_engine(argv, stdin, code, loaded, unloaded):
    got, imported, ran = _probe(argv, stdin)
    assert got == code
    assert loaded in ran
    assert unloaded not in imported | ran
