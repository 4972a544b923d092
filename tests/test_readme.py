import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str) -> str:
    """The first python block under the README section ``heading``."""
    section = README.read_text().split(f"## {heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_library_quickstart_prints_what_its_comments_say():
    code = _block("Library quickstart")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    rank_hard, value, exact, bound = out.getvalue().splitlines()
    assert rank_hard == "1 [3]"  # "# 1, [3]"
    assert float(value) == pytest.approx(-1.6, abs=1e-12)
    assert exact == "True"
    assert bound.startswith("0.0697")
    for shown in ("# 1, [3]", "# -1.6,", "# True,", ">= 0.0697 "):
        assert shown in code
