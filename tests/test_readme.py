"""The README's library quick start and CLI examples run against the code as it is."""

import contextlib
import io
import pathlib
import re

from quantum_replicator.cli import main

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


def test_cli_examples_run_on_the_spec_block(tmp_path, monkeypatch, capsys):
    # The README's JSON block is its example spec.json; each line of its sh block
    # that starts with the command runs in the directory that holds it.
    text = README.read_text(encoding="utf-8")
    (spec,) = re.findall(r"^```json\n(.*?)^```$", text, re.S | re.M)
    (tmp_path / "spec.json").write_text(spec, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    commands = [line.split()[1:]
                for block in re.findall(r"^```sh\n(.*?)^```$", text, re.S | re.M)
                for line in block.splitlines() if line.startswith("quantum-replicator ")]
    assert len(commands) == 4
    for argv in commands:
        assert main(argv) == 0, argv
        printed = capsys.readouterr().out
        if "--out" in argv:
            assert (tmp_path / argv[argv.index("--out") + 1]).stat().st_size > 0
        else:
            assert printed
