"""The README's library quick start runs against the library as it is."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_prints_what_its_comments_say():
    # The README has one python block, the quick start; CI runs it on every Python too.
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[0] == "gained-ess"
    assert any(line.startswith("Equilibrium(x=1.0, y=0.0,") and line.endswith(" stable-node")
               for line in lines)
    assert lines[-1].startswith("converged")
