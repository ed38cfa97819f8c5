"""tools/bytediff.py: its draws cover what it promises, a copy of the source
tree shows no difference, and one changed output line shows, also one that
only a portrait worker writes."""

import collections
import contextlib
import importlib.util
import io
import json
import math
import re
import shutil
from fractions import Fraction
from pathlib import Path

from quantum_replicator import ValidationError, cli
from quantum_replicator.scenarios import _EXACT_PAYOFF_LIMIT, RESOLUTION_LIMIT

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bytediff", ROOT / "tools" / "bytediff.py")
bytediff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bytediff)


def copy_tree(tmp_path):
    tree = tmp_path / "copy"
    shutil.copytree(ROOT / "src", tree / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return tree


def plant(tree, old, new):
    """Replace the one occurrence of old in the tree's cli.py with new."""
    path = tree / "src" / "quantum_replicator" / "cli.py"
    text = path.read_text(encoding="utf-8")
    assert text.count(old) == 1
    path.write_text(text.replace(old, new), encoding="utf-8")


def run(capsys, change):
    code = bytediff.main(["--parent", str(ROOT), "--change", str(change),
                          "--seed", "1", "--calls", "150"])
    return code, capsys.readouterr().out


def requested(call, *names):
    """The values of the named options of a drawn call, its flags over its
    spec's options; Nones where its words do not parse."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            args = cli._parse_args(call["argv"])
    except SystemExit:
        return [None] * len(names)
    spec = call["files"].get("spec.json")
    options = spec.get("options") if isinstance(spec, dict) else None
    spec = {"options": options} if isinstance(options, dict) else {}
    return [cli._option(args, spec, name, None) for name in names]


def requested_steps(call):
    """grid * grid * max-steps of a drawn portrait call; 0 where its words do not
    parse or the two are not integers."""
    grid, steps = requested(call, "grid", "max_steps")
    return grid * grid * steps if type(grid) is type(steps) is int else 0


def integer_payoff_size(call):
    """The largest payoff size of the reduced game of a drawn call's spec, where
    the spec holds a valid game of integer payoffs; else None."""
    spec = call["files"].get("spec.json")
    try:
        game = cli._parse_game(spec if isinstance(spec, dict) else {})
    except ValidationError:
        return None
    payoffs = (game.a, game.b, game.c, game.d)
    return max(map(abs, payoffs)) if all(p.is_integer() for p in payoffs) else None


def has_zero_bracket(call):
    """Whether a drawn call's spec holds an integer game (a, b, c, d) and weights
    that round lattice weights k / q, q <= 30, at which a face bracket is exactly
    zero as a sum of two nonzero terms, computed in Fraction."""
    spec = call["files"].get("spec.json")
    game = spec.get("game") if isinstance(spec, dict) else None
    weights = spec.get("weights") if isinstance(spec, dict) else None
    if not (isinstance(game, dict) and list(game) == list("abcd")
            and all(type(p) is int for p in game.values())
            and isinstance(weights, list) and len(weights) == 4
            and all(type(w) in (int, float) and math.isfinite(w) for w in weights)):
        return False
    k = [Fraction(w).limit_denominator(30) for w in weights]
    if list(map(float, k)) != weights or sum(k) != 1:
        return False
    a, b, c, d = game.values()
    K1, K2 = k[0] - k[2], k[3] - k[1]
    # the two terms of p, p + q, r and r + s of exact.brackets, up to sign
    terms = ((a * K1, b * K2), (a * K2, b * K1), (c * K1, d * K2), (c * K2, d * K1))
    return any(u + v == 0 and u != 0 for u, v in terms)


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
    # portraits that split their orbits across worker processes
    portraits = [call for call in calls if call["argv"][0] == "portrait"]
    assert sum(requested_steps(call) >= cli._FORK_MIN_STEPS for call in portraits) >= 10
    # scans whose hits can fill more than one CSV chunk
    resolutions = [requested(call, "resolution")[0] for call in calls
                   if call["argv"][0] == "scan"]
    assert sum(type(r) is int and 30 <= r <= RESOLUTION_LIMIT for r in resolutions) >= 10
    # scans of integer games on both sides of the bound of exact scans, near it
    sizes = {integer_payoff_size(call) for call in calls if call["argv"][0] == "scan"}
    sizes.discard(None)
    bound = _EXACT_PAYOFF_LIMIT
    assert any(bound // 2 < size <= bound for size in sizes)
    assert any(bound < size <= 2 * bound for size in sizes)
    # integer games with a face bracket exactly zero at lattice weights
    zero = collections.Counter(call["argv"][0] for call in calls if has_zero_bracket(call))
    assert zero["classify"] >= 5 and zero["portrait"] >= 5


def test_command_flags_are_the_cli_flags():
    # A flag the CLI gains must be drawn too.
    assert bytediff.COMMAND_FLAGS == {
        name: tuple(f for f in command.flags if f.startswith("--"))
        for name, command in cli.COMMANDS.items()}


def test_a_copy_has_no_differences(tmp_path, capsys):
    code, out = run(capsys, copy_tree(tmp_path))
    assert code == 0
    assert out.startswith("bytediff: seed 1, 150 calls, 0 differ;")
    assert out.count("\n") == 1


def test_one_changed_output_line_shows(tmp_path, capsys):
    tree = copy_tree(tmp_path)
    line = '    return "\\n".join(lines) + "\\n"\n'
    plant(tree, line, line.replace('+ "\\n"', '+ " \\n"'))
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


def test_a_changed_worker_output_shows(tmp_path, capsys):
    # Only a portrait that splits its orbits runs _start_worker.  The copy splits
    # them also where one CPU is usable, in bytes that are those of one process.
    tree = copy_tree(tmp_path)
    plant(tree, "fh.flush()\n", 'fh.write("worker\\n")\n            fh.flush()\n')
    plant(tree, "return min(_usable_cpus(), ", "return min(max(_usable_cpus(), 2), ")
    code, out = run(capsys, tree)
    assert code == 1
    summary, *groups = [line for line in out.splitlines() if not line.startswith(" ")]
    assert int(summary.split(", ")[2].split()[0]) > 0
    assert groups and all(group.split()[0] == "portrait" for group in groups)
    details = [line for line in out.splitlines() if line.startswith("    ")]
    assert details and all(line.endswith("change 'worker'") for line in details)
