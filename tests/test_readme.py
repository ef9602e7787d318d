"""The README's library tour runs as written, and its API list names every
export, so a renamed, removed or added name fails the suite rather than
leaving the README stale."""

import importlib
import re
import types
from pathlib import Path

import ramsey_jahangir

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_tour_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert '"theorem": "Thm1"' in capsys.readouterr().out


def test_readme_lists_the_public_api():
    text = README.read_text(encoding="utf-8")
    section = re.search(r"^### Public API\n(.*?)^#", text, re.S | re.M).group(1)
    listed = set()
    for module, names in re.findall(r"^- \*\*(\w+)\*\*: (.*)$", section, re.M):
        names = re.findall(r"`(\w+)`", names)
        home = importlib.import_module(f"ramsey_jahangir.{module}")
        assert all(hasattr(home, name) for name in names), module
        listed.update(names)
    # The package loads each name on first use, so the names it exports are
    # its __all__, and each must resolve to its module's object.
    exported = set(ramsey_jahangir.__all__)
    for name in exported:
        value = getattr(ramsey_jahangir, name)
        assert not isinstance(value, types.ModuleType), name
    assert listed == exported
