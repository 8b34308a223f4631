"""README's Quick tour runs as written.

The tour's three Python blocks are run in order in one namespace, in a
temporary directory, as a reader would paste them into one session.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour_blocks() -> list[str]:
    tour = README.read_text(encoding="utf-8").split("## Quick tour", 1)[1]
    tour = tour.split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", tour, re.S)


def test_quick_tour_runs(tmp_path, monkeypatch, capsys):
    blocks = quick_tour_blocks()
    assert len(blocks) == 3
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md Quick tour block {k + 1}", "exec"), namespace)
    assert (tmp_path / "series.csv").exists()
    assert "equipartition_within_2pct" in capsys.readouterr().out
