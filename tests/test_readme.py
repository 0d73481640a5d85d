"""The README's Library example runs as written, from the repository root."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def library_example() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_example_runs(monkeypatch, capsys):
    # one train of the reference glasso_out config, then a theta prune
    monkeypatch.chdir(ROOT)
    exec(compile(library_example(), "README.md", "exec"), {})
    removed, before, after = capsys.readouterr().out.split()
    assert int(removed) > 0
    assert 0.0 <= float(after) <= 1.0 and 0.0 <= float(before) <= 1.0
