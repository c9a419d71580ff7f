"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_its_comments():
    text = README.read_text()
    library = text[text.index("## Library"):]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    prints = [re.fullmatch(r"print\(.*\)\s+# (.*)", line) for line in code.splitlines()
              if line.startswith("print(")]
    assert prints and all(prints), "every print needs a comment with its output"
    expected = [m.group(1) for m in prints]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
