"""The README's Library example runs as documented."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_example_runs(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    library = readme[readme.index("## Library"):]
    code = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    # The example opens demo.ham from the working directory.
    monkeypatch.chdir(ROOT / "tests" / "golden")
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert len(namespace["cover"]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("CoverStats(n_groups=2,")
    assert out[1:] == ["[0, 1, 2, 3] 0:Z 1:Z 2:Z 3:Z", "[4, 5, 6] 0:Y 1:Y 2:X 3:X"]
