"""The README's library tour runs as written, so a renamed or removed name
fails the suite rather than leaving the tour stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_tour_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert '"theorem": "Thm1"' in capsys.readouterr().out
