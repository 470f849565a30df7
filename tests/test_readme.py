"""README's examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_what_its_comments_say(capsys):
    """The Library section's python block runs, and its output is the
    `# ...` comment lines under its prints, in order."""
    block = re.search(r"^## Library\n.*?^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    code = block.group(1)
    expected = [line[2:] for line in code.splitlines() if line.startswith("# ")]
    assert expected == ["DivergesNeg", "((0,), (4,), (5,))"]
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
