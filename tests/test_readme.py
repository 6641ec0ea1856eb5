"""The README's quick start runs as printed: each `print(...)  # value`
line prints that value ("0.760..." means a value starting with 0.760)."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    text = README.read_text()
    section = text.split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_prints_its_figures():
    code = _quick_start()
    claimed = re.findall(r"^print\(.*\)\s*#\s*(\S+)$", code, re.M)
    assert claimed == ["1.0", "0.845", "0.760..."]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().split()
    assert len(printed) == len(claimed)
    for value, claim in zip(printed, claimed):
        if claim.endswith("..."):
            assert value.startswith(claim[:-3]), (value, claim)
        else:
            assert value == claim, (value, claim)
