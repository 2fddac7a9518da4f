"""The README's library example runs as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    (tmp_path / "sys.txt").write_text("ring x0 x1 over qq\nx0^2 - 1\nx1^2 - x1\n")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(code, namespace)
    assert len(namespace["roots"]) == 4
    assert namespace["roots"].mnacr < 1e-9
