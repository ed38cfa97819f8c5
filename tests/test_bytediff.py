"""tools/bytediff.py: its draws cover what it promises, a copy of the source
tree shows no difference, and one changed output line shows."""

import importlib.util
import json
import re
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bytediff", ROOT / "tools" / "bytediff.py")
bytediff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bytediff)


def copy_tree(tmp_path):
    tree = tmp_path / "copy"
    shutil.copytree(ROOT / "src", tree / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return tree


def run(capsys, change):
    code = bytediff.main(["--parent", str(ROOT), "--change", str(change),
                          "--seed", "1", "--calls", "150"])
    return code, capsys.readouterr().out


def test_draws_are_seeded_and_cover_the_promised_inputs():
    calls = bytediff.draw_calls(3, 500)
    text = json.dumps(calls)  # a drawn NaN equals no NaN, its text does
    assert text == json.dumps(bytediff.draw_calls(3, 500))
    assert text != json.dumps(bytediff.draw_calls(4, 500))
    argvs = [call["argv"] for call in calls]
    assert {argv[0] for argv in argvs} == set(bytediff.COMMAND_FLAGS)
    words = [word for argv in argvs for word in argv]
    assert "--out" in words and any("--out" not in argv for argv in argvs)
    assert "-o.csv" in words and "-1e-3" in words  # dash values as separate words
    texts = [bytediff.spec_text(call["files"]["spec.json"])
             for call in calls if "spec.json" in call["files"]]
    assert any("1e400" in text for text in texts)
    assert any("1e+308" in text for text in texts)
    assert any(text in bytediff.MALFORMED_SPECS for text in texts)


def test_a_copy_has_no_differences(tmp_path, capsys):
    code, out = run(capsys, copy_tree(tmp_path))
    assert code == 0
    assert out.startswith("bytediff: seed 1, 150 calls, 0 differ;")
    assert out.count("\n") == 1


def test_one_changed_output_line_shows(tmp_path, capsys):
    tree = copy_tree(tmp_path)
    cli = tree / "src" / "quantum_replicator" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    line = '    return "\\n".join(lines) + "\\n"\n'
    assert text.count(line) == 1
    cli.write_text(text.replace(line, line.replace('+ "\\n"', '+ " \\n"')),
                   encoding="utf-8")
    code, out = run(capsys, tree)
    assert code == 1
    summary, *groups = [line for line in out.splitlines() if not line.startswith(" ")]
    assert summary.startswith("bytediff: seed 1, 150 calls, ")
    assert int(summary.split(", ")[2].split()[0]) > 0
    # only CSV differs: the last line of a chunk gained a space
    assert groups and all(group.split()[0] in ("portrait", "scan", "simulate")
                          for group in groups)
    details = [line for line in out.splitlines() if line.startswith("    ")]
    assert details and all(re.search(r"line \d+: parent '(.*)', change '\1 '$", line)
                           for line in details)
