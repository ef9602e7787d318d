"""The README's library tour runs as written, and its API list names every
export, so a renamed, removed or added name fails the suite rather than
leaving the README stale."""

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
        home = getattr(ramsey_jahangir, module)
        assert all(hasattr(home, name) for name in names), module
        listed.update(names)
    exported = {
        name for name, value in vars(ramsey_jahangir).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert listed == exported
