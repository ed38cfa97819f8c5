#!/usr/bin/env python3
"""Byte differential of the quantum-replicator CLI between two source trees.

Usage::

    python tools/bytediff.py --parent DIR --change DIR --seed N --calls M

Draws M seeded calls of all seven CLI commands: valid and malformed specs,
output to ``--out`` and to stdout, flag values that start with "-", payloads
near 1e308, ``1e400`` written in a spec, games scaled by ``2**k``, integer
games with one payoff at ``2**16``, the largest scanned exactly, or just past
it, and integer games with a face bracket that is exactly zero at lattice
weights, such as (1, -3, 5, 1) at (4, 9, 7, 8)/28.  Each DIR is a source tree
holding ``src/quantum_replicator``.  The calls are drawn here, so both trees
get the same ones.  Each tree runs all of them in one fresh interpreter, with
its ``src`` first on ``sys.path``, through ``cli.main`` in process; the README
guarantees that a call in process gives the bytes of the same command in a
fresh process.  Every call runs in a directory of its own.  Its exit code, stdout, stderr and the bytes of every
file left in that directory are compared.

Prints the calls that differ, grouped by command and flags, and exits 1 if
any call differs or a tree's run fails, 0 if none does.  The calls are kept
small (grid at most 3, max-steps at most 200, resolution at most 8), so that a
tree runs 500 of them in about a second.  The exceptions are a share of the
portraits, with grid 3 and 2300 to 2499 steps: enough that the CLI splits their
orbits across worker processes; and a share of the scans, with resolution 30 to
48: enough that a scan with many hits writes more than one CSV chunk.  Among
those are every 25th call, a scan of an integer game at the bound of exact
scans, alternately within it and just past it, so that each seed draws both.
"""

import argparse
import collections
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile

COMMAND_FLAGS = {
    "transform": ("--spec", "--out", "--renormalize"),
    "classify": ("--spec", "--out", "--tol", "--renormalize"),
    "ess": ("--spec", "--out", "--tol", "--renormalize"),
    "simulate": ("--spec", "--out", "--tol", "--renormalize", "--start", "--step",
                 "--max-steps"),
    "portrait": ("--spec", "--out", "--tol", "--renormalize", "--grid", "--step",
                 "--max-steps"),
    "scan": ("--spec", "--out", "--resolution"),
    "demo": ("--out",),
}
GAME_KEYS = ("a", "b", "c", "d")
BIMATRIX_KEYS = ("a11", "a12", "a21", "a22", "b11", "b12", "b21", "b22")
WEIGHT_KEYS = ("w11", "w12", "w21", "w22")
NEAR_MAX = (1e308, 1.7976931348623157e308, 8.98846567431158e307, 5e307)
# A spec value that json.dumps cannot write: the number text 1e400, which
# json.load reads as inf.
OVERFLOW = "@1e400@"
MALFORMED_SPECS = ("", "{", "[1, 2]", '"game"', "null", '{"game": }', "[" * 5000,
                   "\udcff{}")  # the lone surrogate is written as the byte 0xff

# The largest payoff size of an integer game that a scan decides exactly, and
# how often a scan of such a game at that bound is drawn.
EXACT_SCAN_BOUND = 2 ** 16
BOUND_SCAN_EVERY = 25

# How many calls of each differing group are printed, and how much of a line.
SHOWN_CALLS = 3
SHOWN_CHARS = 100


def draw_calls(seed, count):
    """count calls drawn from seed, each {"argv": [...], "files": {name: spec}}
    with each spec as spec_text writes it.  Every BOUND_SCAN_EVERY-th call is a
    scan of an integer game at the bound of exact scans, alternately within it
    and just past it, drawn from a stream of its own: the other calls are those
    the seed draws without them."""
    rng, bound_rng = random.Random(seed), random.Random(f"bound-scan:{seed}")
    return [_draw_bound_scan(bound_rng, past=index // BOUND_SCAN_EVERY % 2 == 1)
            if index % BOUND_SCAN_EVERY == 0 else _draw_call(rng)
            for index in range(count)]


def _draw_bound_scan(rng, past):
    """A scan of an integer game with one payoff of size in (2**15, 2**16], or
    in (2**16, 2**17] if past, often at the edge, at a resolution whose hits can
    fill more than one CSV chunk."""
    bound = EXACT_SCAN_BOUND
    low, high = (bound + 1, 2 * bound) if past else (bound // 2 + 1, bound)
    size = rng.choice((low if past else high, rng.randint(low, high)))
    game = {key: rng.randint(-6, 6) for key in GAME_KEYS}
    game[rng.choice(GAME_KEYS)] = rng.choice((1, -1)) * size
    flags = [("--spec", "spec.json"), ("--resolution", str(rng.randint(30, 48))),
             *_draw_out(rng, "scan")]
    rng.shuffle(flags)
    argv = ["scan"]
    for flag, value in flags:
        argv.extend(_flag_words(rng, "scan", flag, value))
    return {"argv": argv, "files": {"spec.json": {"game": game}}}


def _draw_call(rng):
    command = rng.choice(sorted(COMMAND_FLAGS))
    flags, options, files = [], {}, {}
    if command == "demo":
        argv = ["demo", rng.choice("aaabbbcccd")]  # d is refused
    else:
        argv = [command]
        spec = _draw_spec(rng, command)
        where = rng.random()
        if where < 0.95:
            flags.append(("--spec", "spec.json"))
            files["spec.json"] = spec
        elif where < 0.97:
            flags.append(("--spec", "missing.json"))
        elif where < 0.99:
            flags.append(("--spec", "."))
        if command in ("simulate", "portrait"):
            # Grid 3 and 2300 steps or more: 9 seeds request 20 700 steps, above
            # the CLI's floor of 20 000 for splitting a portrait's orbits across
            # worker processes, which it does where two CPUs are usable.
            forks = command == "portrait" and rng.random() < 0.6
            _draw_knob(rng, flags, options, "--max-steps", "max_steps",
                       range(2300, 2500) if forks else range(0, 201),
                       (-1, 10 ** 8, "1e3", 2.0, True, OVERFLOW))
            _draw_knob(rng, flags, options, "--step", "step",
                       (0.1, 0.05, 0.25, 1.0, 0.01, 1e-3),
                       (0, -0.1, 1e300, "nan", "inf", 5e-324, OVERFLOW), required=False)
        if command == "portrait":
            _draw_knob(rng, flags, options, "--grid", "grid", (3,) if forks else range(2, 4),
                       (1, 0, -1, 1001, "2.5", 2.0, "3"))
        if command == "scan":
            # From resolution 30 the lattice has 5456 points or more, so its hits
            # can fill more than one chunk of the CLI's 4096 CSV rows.
            chunks = rng.random() < 0.3
            _draw_knob(rng, flags, options, "--resolution", "resolution",
                       range(30, 49) if chunks else range(1, 9),
                       (0, -2, 251, "4.0", 4.0, None))
        if "--tol" in COMMAND_FLAGS[command]:
            _draw_knob(rng, flags, options, "--tol", "tol",
                       (1e-9, 1e-6, 1e-3, 1e-12),
                       (0.0, -1e-3, "nan", "inf", "abc", OVERFLOW), required=False)
        if command == "simulate":
            _draw_start(rng, flags, options)
        if "--renormalize" in COMMAND_FLAGS[command] and rng.random() < 0.3:
            flags.append(("--renormalize", None))
        if files and (options or rng.random() < 0.1):
            _add_options(rng, files, options)
    flags.extend(_draw_out(rng, command))
    rng.shuffle(flags)
    for flag, value in flags:
        argv.extend(_flag_words(rng, command, flag, value))
    odd = rng.random()
    if odd < 0.01:
        argv.append("--help")
    elif odd < 0.02:
        argv.append("--bogus")
    elif odd < 0.03:
        argv.extend(["--", "x"])
    return {"argv": argv, "files": files}


def _draw_knob(rng, flags, options, flag, option, valid, invalid, required=True):
    """Set one value in the flag, the spec's options or both.  A required knob
    bounds the work, so it always gets a value: the default would be too large."""
    mode = rng.random()
    if not required and mode < 0.4:
        return
    if mode < 0.55:
        flags.append((flag, _text(rng.choice(valid))))
    elif mode < 0.8:
        options[option] = rng.choice(valid)
    elif mode < 0.94:  # the flag wins over the option
        flags.append((flag, _text(rng.choice(valid))))
        options[option] = rng.choice((*valid, *invalid))
    elif mode < 0.97:
        flags.append((flag, _text(rng.choice((-1, "-1e-3", *invalid)))))
    else:
        options[option] = rng.choice(invalid)


def _text(value):
    if value == OVERFLOW:
        return "1e400"
    return value if isinstance(value, str) else repr(value)


def _draw_start(rng, flags, options):
    starts = ("0.3,0.4", "-0.1,0.5", "0.5,1.2", "0.5", "a,b", "1e308,0.5", "0.5,0.5",
              "0.9,0.1", "0,0", "nan,0.5")
    mode = rng.random()
    if mode < 0.6:
        flags.append(("--start", rng.choice(starts)))
    elif mode < 0.95:
        options["start"] = rng.choice(([0.2, 0.7], [0.5, 0.5], [-0.1, 0.5], [0.5],
                                       "0.3,0.4", [OVERFLOW, 0.5], [0.99, 0.01]))
    # else no start point anywhere: refused


def _add_options(rng, files, options):
    """Move the drawn options into the spec, where the spec is an object."""
    spec = files["spec.json"]
    if not isinstance(spec, dict):
        return
    start = options.pop("start", None)
    if start is not None:
        spec["start"] = start
    if options or rng.random() < 0.5:
        spec["options"] = dict(options)
    if rng.random() < 0.02:
        spec.setdefault("options", {})["bogus"] = 1
    if rng.random() < 0.02:
        spec["options"] = [1]


def _draw_out(rng, command):
    where = rng.random()
    if where < 0.55:
        return []
    suffix = ".json" if command in ("transform", "classify", "ess", "demo") else ".csv"
    if where < 0.8:
        name = "out" + suffix
    elif where < 0.9:
        name = "-o" + suffix  # a dash value
    else:
        name = rng.choice(("sub/out" + suffix, ".", "/dev/full", "spec.json"))
    return [("--out", name)]


def _flag_words(rng, command, flag, value):
    """The words of flag and value: the flag sometimes abbreviated, the value
    sometimes joined by "="."""
    if rng.random() < 0.1:
        flag = _shortest_prefix(flag, COMMAND_FLAGS[command])
    if value is None:
        return [flag]
    if rng.random() < 0.2:
        return [f"{flag}={value}"]
    return [flag, value]


def _shortest_prefix(flag, flags):
    for end in range(3, len(flag)):
        prefix = flag[:end]
        if sum(other.startswith(prefix) for other in (*flags, "--help")) == 1:
            return prefix
    return flag


def _draw_spec(rng, command):
    """The spec as a JSON-ready object, or as text when it is malformed."""
    if rng.random() < 0.04:
        return rng.choice(MALFORMED_SPECS)
    if command != "scan" and rng.random() < 0.15:  # a scan reads no weights
        return _draw_zero_bracket(rng)
    spec = {}
    if rng.random() < 0.98:
        spec["game"] = _draw_game(rng)
    if rng.random() < 0.98:
        spec["weights"] = _draw_weights(rng)
    if rng.random() < 0.02:
        spec["extra"] = 1
    return spec


def _draw_game(rng):
    keys = BIMATRIX_KEYS if rng.random() < 0.25 else GAME_KEYS
    kind = rng.random()
    if kind < 0.3:  # a small integer game scaled by 2**k, exactly
        scale = 2.0 ** rng.randint(-60, 60)
        game = {key: rng.randint(-6, 6) * scale for key in keys}
    elif kind < 0.4:  # an integer game at the bound of exact scans or just past it
        game = {key: rng.randint(-6, 6) for key in keys}
        game[rng.choice(keys)] = rng.choice((1, -1)) * rng.choice((2 ** 16, 2 ** 16 + 1))
    else:
        game = {key: _draw_payoff(rng) for key in keys}
    shape = rng.random()
    if shape < 0.02:
        game.pop(rng.choice(keys))
    elif shape < 0.03:
        game["e"] = 1
    elif shape < 0.04:
        return [1, 2, 3, 4]
    return game


def _draw_zero_bracket(rng):
    """A spec of an integer game and lattice weights k / q at which a face bracket
    of the quantum field is exactly zero, as (1, -3, 5, 1) at (4, 9, 7, 8)/28.

    With K1 = w11 - w21 and K2 = w22 - w12, the brackets on the faces are
    a K1 + b K2 and a K2 + b K1, up to sign, and the same forms in c and d.
    One of them is made zero as a sum of two terms; in floats the weights are
    rounded, and the bracket may come out a rounding error away from zero.
    """
    q = rng.randint(2, 30)
    cuts = sorted(rng.randint(0, q) for _ in range(3))
    parts = [b - a for a, b in zip([0, *cuts], [*cuts, q])]
    k1, k2 = parts[0] - parts[2], parts[3] - parts[1]
    if rng.random() < 0.5:  # the bracket on the opposite face
        k1, k2 = k2, k1
    g, m = math.gcd(k1, k2) or 1, rng.choice((-2, -1, 1, 2))
    zero = [m * k2 // g, -m * k1 // g]  # u k1 + v k2 = 0
    other = [rng.randint(-6, 6), rng.randint(-6, 6)]
    game = zero + other if rng.random() < 0.5 else other + zero
    return {"game": dict(zip(GAME_KEYS, game)), "weights": [k / q for k in parts]}


def _draw_payoff(rng):
    kind = rng.random()
    if kind < 0.65:
        return rng.randint(-6, 6)
    if kind < 0.82:
        return round(rng.uniform(-5, 5), rng.randint(0, 3))
    if kind < 0.97:
        return rng.choice((1, -1)) * rng.choice(NEAR_MAX)
    if kind < 0.985:
        return OVERFLOW
    return rng.choice(("3", None, True, [1], float("nan"), 10 ** 400))


def _draw_weights(rng):
    kind = rng.random()
    if kind < 0.65:  # a lattice point k / q of the weight simplex
        q = rng.randint(1, 8)
        cuts = sorted(rng.randint(0, q) for _ in range(3))
        parts = [b - a for a, b in zip([0, *cuts], [*cuts, q])]
        values = [k / q for k in parts]
    elif kind < 0.8:
        values = [0, 0, 0, 0]
        values[rng.randrange(4)] = 1
    elif kind < 0.9:  # not normalised: refused unless --renormalize
        values = [rng.randint(0, 9) for _ in range(4)]
    elif kind < 0.95:
        values = [rng.choice((-0.1, 1.5, OVERFLOW, float("nan"), "0.5", 0.25))
                  for _ in range(4)]
    else:
        return rng.choice(([0.5, 0.5, 0], "uniform", {"w11": 1, "w12": 0, "w21": 0},
                           {"w11": 1, "w12": 0, "w21": 0, "w22": 0, "w32": 0}))
    if rng.random() < 0.3:
        return dict(zip(WEIGHT_KEYS, values))
    return values


def spec_text(spec):
    """The file text of a drawn spec: JSON, with 1e400 written as a number."""
    if isinstance(spec, str):
        return spec
    return json.dumps(spec).replace(f'"{OVERFLOW}"', "1e400")


def run_tree(src, calls_path, results_path, work):
    """Run the calls in calls_path through the cli.main of the package under src
    and write their results to results_path, one directory under work a call."""
    sys.path.insert(0, src)
    from quantum_replicator import cli
    package = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    if not os.path.samefile(package, src):
        raise SystemExit(f"bytediff: imported quantum_replicator from {package}, not {src}")
    with open(calls_path, encoding="utf-8") as fh:
        calls = json.load(fh)
    results = [_run_call(cli.main, call, os.path.join(work, str(i)))
               for i, call in enumerate(calls)]
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)


def _run_call(main, call, directory):
    os.mkdir(directory)
    for name, spec in call["files"].items():
        with open(os.path.join(directory, name), "w", encoding="utf-8",
                  errors="surrogateescape", newline="") as fh:
            fh.write(spec_text(spec))
    # Text streams as Python sets up stdout and stderr under a UTF-8 locale.
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace",
                           newline="\n")
    saved = os.getcwd(), sys.stdout, sys.stderr
    os.chdir(directory)
    sys.stdout, sys.stderr = out, err
    try:
        code = main(list(call["argv"]))
    except SystemExit as exc:  # argparse: --help, or a refused argument
        code = exc.code
    except Exception as exc:  # a crash is an outcome to compare too
        code = f"{type(exc).__name__}: {exc}"
    finally:
        os.chdir(saved[0])
        sys.stdout, sys.stderr = saved[1:]
    result = {"exit": code, "stdout": _drain(out), "stderr": _drain(err), "files": {}}
    for root, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                result["files"][os.path.relpath(path, directory)] = fh.read().decode("latin-1")
    return result


def _drain(stream):
    stream.flush()
    data = stream.buffer.getvalue().decode("latin-1")  # any bytes, one char each
    stream.close()
    return data


def _run_trees(trees, calls):
    """The results of calls in each of trees, run side by side."""
    tools = os.path.dirname(os.path.abspath(__file__))
    code = "import sys; sys.path.insert(0, sys.argv[1]); import bytediff; " \
           "bytediff.run_tree(*sys.argv[2:])"
    with tempfile.TemporaryDirectory(prefix="bytediff-") as work:
        calls_path = os.path.join(work, "calls.json")
        with open(calls_path, "w", encoding="utf-8") as fh:
            json.dump(calls, fh)
        runs = []
        for side, tree in trees.items():
            os.mkdir(os.path.join(work, side))
            results_path = os.path.join(work, side + ".json")
            src = os.path.abspath(os.path.join(tree, "src"))
            # -I: no PYTHONPATH, user site or current directory on sys.path; -B:
            # no bytecode written into the tree
            proc = subprocess.Popen([sys.executable, "-I", "-B", "-c", code, tools, src,
                                     calls_path, results_path, os.path.join(work, side)])
            runs.append((side, proc, results_path))
        results = {}
        for side, proc, results_path in runs:
            proc.wait()
        for side, proc, results_path in runs:
            if proc.returncode != 0:
                raise SystemExit(f"bytediff: the {side} tree's run failed "
                                 f"(exit status {proc.returncode})")
            with open(results_path, encoding="utf-8") as fh:
                results[side] = json.load(fh)
    return results


def _shape(argv):
    """The command and flags of argv, without their values."""
    flags = sorted({word.split("=", 1)[0] for word in argv[1:] if word.startswith("--")})
    return " ".join([argv[0], *flags])


def _describe(parent, change):
    """One line per part of a call's result that differs."""
    lines = []
    if parent["exit"] != change["exit"]:
        lines.append(f"exit: parent {parent['exit']!r}, change {change['exit']!r}")
    for part in ("stdout", "stderr"):
        if parent[part] != change[part]:
            lines.append(f"{part}: {_first_difference(parent[part], change[part])}")
    for name in sorted(set(parent["files"]) | set(change["files"])):
        a, b = parent["files"].get(name), change["files"].get(name)
        if a is None or b is None:
            lines.append(f"file {name}: only in the {'change' if a is None else 'parent'}")
        elif a != b:
            lines.append(f"file {name}: {_first_difference(a, b)}")
    return lines


def _first_difference(a, b):
    a_lines, b_lines = a.split("\n"), b.split("\n")
    for number, (x, y) in enumerate(zip(a_lines, b_lines), 1):
        if x != y:
            return (f"line {number}: parent {x[:SHOWN_CHARS]!r}, "
                    f"change {y[:SHOWN_CHARS]!r}")
    return f"parent {len(a_lines)} lines, change {len(b_lines)} lines"


def _exit_counts(results):
    counts = collections.Counter(str(r["exit"]) for r in results)
    return ", ".join(f"{code} x{n}" for code, n in sorted(counts.items()))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Compare the CLI's exit codes, stdout, stderr and --out bytes "
                    "between two source trees over seeded calls.")
    parser.add_argument("--parent", required=True, help="tree with the reference src/")
    parser.add_argument("--change", required=True, help="tree with the changed src/")
    parser.add_argument("--seed", type=int, required=True, help="seed of the drawn calls")
    parser.add_argument("--calls", type=int, required=True, help="number of calls")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent, "change": args.change}
    for side, tree in trees.items():
        if not os.path.isdir(os.path.join(tree, "src", "quantum_replicator")):
            parser.error(f"--{side} {tree}: no src/quantum_replicator there")
    calls = draw_calls(args.seed, args.calls)
    results = _run_trees(trees, calls)
    groups = collections.defaultdict(list)
    for i, (call, a, b) in enumerate(zip(calls, results["parent"], results["change"])):
        if a != b:
            groups[_shape(call["argv"])].append((i, call["argv"], _describe(a, b)))
    differing = sum(map(len, groups.values()))
    print(f"bytediff: seed {args.seed}, {len(calls)} calls, {differing} differ; "
          f"parent exit codes: {_exit_counts(results['parent'])}")
    for shape in sorted(groups):
        print(f"{shape}: {len(groups[shape])} calls differ")
        for i, call_argv, lines in groups[shape][:SHOWN_CALLS]:
            print(f"  call {i}: {' '.join(call_argv)}")
            for line in lines:
                print(f"    {line}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
