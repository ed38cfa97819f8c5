"""Command-line front end.

Reads a JSON problem spec (game, initial-state weights, analysis options),
runs the requested analysis and writes a JSON report or CSV data to stdout or
to --out.  Numbers are emitted in shortest round-trip decimal form so
identical specs produce byte-identical outputs.

Exit codes: 0 success, 2 validation failure (including a malformed spec),
3 I/O failure, or a failed portrait worker process.
"""

import argparse
import collections
import functools
import json
import os
import sys
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import add

from .dynamics import (DEFAULT_CONVERGENCE_TOL, DEFAULT_MAX_STEPS, DEFAULT_STEP,
                       MAX_STEPS_LIMIT, ReplicatorField, _portrait_seeds, integrate)
from .ess import compare_classical_quantum
from .games import (ClassicalBimatrix, InitialStateWeights, SimplifiedGame,
                    ValidationError, _require_choice, k_params, quantum_transform)
from .scenarios import _scan_runs, make_case
from .stability import DEFAULT_ZERO_TOL, DEGENERATE, interior_point, linearize

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
# CSV rows formatted and written at a time, so a large CSV is never held whole.
CSV_CHUNK_ROWS = 4096
# Requested RK4 steps (kept seeds x max_steps) below which a portrait runs in
# the calling process alone.  A worker costs about 3 ms to fork and to hand its
# CSV back through a temporary file, and uneven slices cost more: on 2 CPUs, 4
# orbits of 2500 steps took 37 ms in two processes against 30 ms in one, and
# of 5000 steps 49 ms against 75 ms.
_FORK_MIN_STEPS = 20_000
# Characters of a worker's CSV copied to the output at a time.
_COPY_CHARS = 1 << 16

WEIGHT_KEYS = ("w11", "w12", "w21", "w22")
# The library's parameter names that start its error messages, and the spec key
# and flag by which a CLI user sets each.
_USER_NAMES = {"grid_n": "grid", "zero_tol": "tol", "convergence_tol": "tol"}


def _open(path, mode, **kwargs):
    try:
        return open(path, mode, encoding="utf-8", **kwargs)
    except ValueError as exc:  # a NUL or a lone surrogate in path: an I/O failure too
        raise OSError(exc) from exc


def _load_spec(path):
    if path is None:
        return {}
    try:
        with _open(path, "r") as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read spec file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, too deep
        raise ValidationError(f"spec file {path} is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise ValidationError(f"spec must be a JSON object, got {json.dumps(spec)}")
    options = spec.get("options", {})
    if not isinstance(options, dict):
        raise ValidationError(f"options must be an object, got {json.dumps(options)}")
    for key in spec:
        _require_choice("spec key", key, ("game", "weights", "start", "options"))
    for key in options:
        _require_choice("option", key, ("step", "max_steps", "grid", "resolution", "tol"))
    return spec


def _parse_game(spec, bimatrix=False):
    """The spec's game as the reduced SimplifiedGame, or as the full
    ClassicalBimatrix when bimatrix is true, converted if given in the other form."""
    game = spec.get("game")
    if game is None:
        raise ValidationError("spec is missing the 'game' object")
    if not isinstance(game, dict):
        raise ValidationError(f"game must be an object, got {json.dumps(game)}")
    keys = set(game)
    if keys == {"a", "b", "c", "d"}:
        game = SimplifiedGame(**game)
        return game.to_bimatrix() if bimatrix else game
    if keys == {"a11", "a12", "a21", "a22", "b11", "b12", "b21", "b22"}:
        game = ClassicalBimatrix(**game)
        return game if bimatrix else SimplifiedGame.from_bimatrix(game)
    raise ValidationError(
        "game must have exactly the keys a,b,c,d or a11..a22,b11..b22; "
        f"got {sorted(keys)}")


def _parse_weights(spec, renormalize):
    weights = spec.get("weights")
    if weights is None:
        raise ValidationError("spec is missing 'weights'")
    if isinstance(weights, dict):
        for key in weights:
            _require_choice("weights key", key, WEIGHT_KEYS)
        try:
            values = [weights[k] for k in WEIGHT_KEYS]
        except KeyError as exc:
            raise ValidationError(f"weights is missing {exc.args[0]}") from exc
    elif isinstance(weights, list) and len(weights) == 4:
        values = weights
    else:
        raise ValidationError("weights must be a 4-list or an object with w11..w22")
    if renormalize:
        return InitialStateWeights.renormalized(*values)
    return InitialStateWeights(*values)


def _field(args, spec):
    return ReplicatorField.quantum(_parse_game(spec),
                                   _parse_weights(spec, args.renormalize))


def _option(args, spec, name, default):
    # flags win over the spec's options object; names use underscores in both
    value = getattr(args, name, None)
    return spec.get("options", {}).get(name, default) if value is None else value


def _parse_start(args, spec):
    if args.start is None:  # only the flag takes the X,Y syntax
        start = spec.get("start")
        if start is None:
            raise ValidationError("simulate needs a start point: --start X,Y")
        return start  # integrate checks that it is a pair of numbers
    try:
        x, y = map(float, args.start.split(","))
    except ValueError:
        raise ValidationError(
            f"--start must be numbers X,Y; got {args.start!r}") from None
    return (x, y)


def _integration_options(args, spec):
    return {"step": _option(args, spec, "step", DEFAULT_STEP),
            "max_steps": _option(args, spec, "max_steps", DEFAULT_MAX_STEPS),
            "convergence_tol": _option(args, spec, "tol", DEFAULT_CONVERGENCE_TOL)}


def _emit_json(payload):
    """``json.dumps(payload, indent=2) + "\\n"``, built in one pass.

    Any other object prints as the object of ``vars(obj)``: a report object's
    fields in declaration order.  A tuple prints as a list.  Dict keys must be
    strings; a set, a complex or an object without ``__dict__`` raises TypeError.
    """
    pieces = []
    _json_pieces(payload, "\n", pieces.append)
    pieces.append("\n")
    return "".join(pieces)


# float.__repr__ of the non-finite floats, and their JSON text
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_pieces(value, newline, put):
    """Pass the JSON text of value to put, piece by piece; newline starts each
    of its lines."""
    if isinstance(value, float):
        text = float.__repr__(value)
        put(_NON_FINITE.get(text, text))
    elif isinstance(value, str):
        put(encode_basestring_ascii(value))
    elif value is None:
        put("null")
    elif value is True:
        put("true")
    elif value is False:
        put("false")
    elif isinstance(value, int):
        put(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            put("[]")
            return
        inner = newline + "  "
        separator, comma = "[" + inner, "," + inner
        for item in value:
            put(separator)
            _json_pieces(item, inner, put)
            separator = comma
        put(newline + "]")
    else:
        items = (value if isinstance(value, dict) else vars(value)).items()
        if not items:
            put("{}")
            return
        inner = newline + "  "
        separator, comma = "{" + inner, "," + inner
        for key, item in items:
            put(separator + encode_basestring_ascii(key) + ": ")
            _json_pieces(item, inner, put)
            separator = comma
        put(newline + "}")


def _write_file(path, pieces):
    """Write the pieces to the file at path, or to stdout when path is None."""
    try:
        if path is None:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
        else:
            with _open(path, "w", newline="") as fh:
                fh.writelines(pieces)
    except OSError as exc:
        if path is not None:
            raise OSError(f"cannot write {path}: {exc}") from exc
        # Python flushes stdout again at exit, which would fail the same way and
        # print a second report; send what is left to the null device.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise OSError(f"cannot write to stdout: {exc}") from exc


def _csv_chunks(lines):
    """The text of lines in pieces of at most CSV_CHUNK_ROWS lines."""
    lines = iter(lines)
    while chunk := list(islice(lines, CSV_CHUNK_ROWS)):
        yield _csv_piece(chunk)


def _csv_piece(lines):
    # perfbench/test_perfbench.py corrupts this line to check its output gate.
    return "\n".join(lines) + "\n"


def _transform(args, spec):
    game = _parse_game(spec, bimatrix=True)
    state = _parse_weights(spec, args.renormalize)
    pair = quantum_transform(game, state)
    k = k_params(state)
    return {"omega": pair.omega, "chi": pair.chi, "K1": k.K1, "K2": k.K2}, None


def _classify(args, spec):
    fld = _field(args, spec)
    tol = _option(args, spec, "tol", DEFAULT_ZERO_TOL)
    reports = linearize(fld, tol)
    payload = {"K1": fld.K1, "K2": fld.K2, "equilibria": [{
        **vars(r.equilibrium),
        "jacobian": r.jacobian,
        "eigenvalues": [(z.real, z.imag) for z in r.eigs],
        "tag": r.tag,
    } for r in reports]}
    if reports[-1].equilibrium.kind != "interior":
        payload["interior_omitted_reason"] = interior_point(fld)[1]
    tol = float(tol)  # linearize accepted tol, so it is an int or a float
    warnings = [f"equilibrium ({r.equilibrium.x}, {r.equilibrium.y}) "
                f"is degenerate at tol {tol}" for r in reports if r.tag == DEGENERATE]
    if warnings:
        payload["warnings"] = warnings
    return payload, None


def _ess(args, spec):
    game = _parse_game(spec)
    state = _parse_weights(spec, args.renormalize)
    tol = _option(args, spec, "tol", DEFAULT_ZERO_TOL)
    return compare_classical_quantum(game, state, tol=tol), None


def _simulate(args, spec):
    fld = _field(args, spec)
    start = _parse_start(args, spec)
    traj = integrate(fld, start, **_integration_options(args, spec))
    return (_csv_chunks(map(",".join, zip(map(repr, traj.times), map(repr, traj.xs),
                                          map(repr, traj.ys)))),
            f"status: {traj.status} after {len(traj) - 1} steps\n")


def _portrait(args, spec):
    fld = _field(args, spec)
    grid_n = _option(args, spec, "grid", 5)
    options = _integration_options(args, spec)
    seeds = _portrait_seeds(fld, grid_n, **options)
    return _portrait_pieces(fld, seeds, options), None


class _WorkerFailed(Exception):
    """A portrait worker process ended without writing all of its CSV."""


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _worker_count(seeds, max_steps):
    """How many processes draw the orbits from seeds, each of at most max_steps steps.

    One where os.fork is missing, where another thread runs (it may hold a
    lock the forked worker needs), where SIGCHLD is not at its default (the
    kernel reaps the workers when it is ignored, and a handler may reap them,
    before waitpid can), and below _FORK_MIN_STEPS requested steps.  At most
    MAX_STEPS_LIMIT // max_steps, so that the samples held at once by all of
    them stay within the bound of one trajectory.
    """
    import signal
    import threading
    if (not hasattr(os, "fork") or threading.active_count() > 1
            or signal.getsignal(signal.SIGCHLD) is not signal.SIG_DFL
            or len(seeds) * max_steps < _FORK_MIN_STEPS):
        return 1
    return min(_usable_cpus(), len(seeds), MAX_STEPS_LIMIT // max_steps)


def _portrait_pieces(fld, seeds, options):
    """The CSV pieces of the orbits from seeds, drawn by up to _worker_count processes.

    The seeds are split into contiguous slices.  This process draws the first
    while a forked worker draws each of the others into a temporary file, and
    the files follow in slice order; the bytes are those of one process.  A
    slice whose worker cannot be started (no process or no temporary file) is
    drawn here, after the workers' files.  Every worker is reaped before this
    generator finishes, and closing it early kills the ones still running.
    """
    n = len(seeds)
    k = _worker_count(seeds, options["max_steps"])
    bounds = [n * i // k for i in range(k + 1)]
    workers = []  # (pid, file) of each worker started, in slice order
    reaped = 0
    try:
        for lo, hi in zip(bounds[1:], bounds[2:]):
            try:
                workers.append(_start_worker(fld, seeds, lo, hi, options))
            except OSError:
                break
        yield from _slice_pieces(fld, seeds, 0, bounds[1], options)
        for lo, hi, (pid, fh) in zip(bounds[1:], bounds[2:], workers):
            status = os.waitpid(pid, 0)[1]
            reaped += 1
            code = os.waitstatus_to_exitcode(status)
            if code != 0:
                why = f"exit status {code}" if code > 0 else f"signal {-code}"
                raise _WorkerFailed(
                    f"portrait worker for orbits {lo}-{hi - 1} failed ({why})")
            fh.seek(0)
            while piece := fh.read(_COPY_CHARS):
                yield piece
        yield from _slice_pieces(fld, seeds, bounds[len(workers) + 1], n, options)
    finally:
        import signal
        for pid, _ in workers[reaped:]:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for _, fh in workers:
            fh.close()


def _slice_pieces(fld, seeds, lo, hi, options):
    """The CSV pieces of the orbits from seeds[lo:hi], integrated one at a time:
    the line ``<id>,<t>,<x>,<y>`` of every sample, with no Python step per line.

    The ids count the seeds from lo.  The orbits share one step, so sample i of
    each has t = i * step: each t cell is formatted once, for the first orbit
    that reaches it.  Pieces span orbits: cut at each orbit, tiny ones cost more.
    """
    t_cells = []

    def orbit_lines(tid, seed):
        traj = integrate(fld, seed, **options)
        if len(traj) > len(t_cells):
            t_cells.extend([f"{t}," for t in traj.times[len(t_cells):]])
        return map("".join, zip(repeat(f"{tid},"), t_cells, map(repr, traj.xs),
                                repeat(","), map(repr, traj.ys)))

    return _csv_chunks(chain.from_iterable(map(orbit_lines, range(lo, hi), seeds[lo:hi])))


def _start_worker(fld, seeds, lo, hi, options):
    """(pid, file) of a forked process that writes the CSV pieces of the orbits
    from seeds[lo:hi] to the unlinked temporary file and exits."""
    import gc
    import tempfile
    fh = tempfile.TemporaryFile("w+", encoding="utf-8", newline="")
    try:
        pid = os.fork()
    except BaseException:
        fh.close()
        raise
    if pid == 0:
        # The worker leaves only through os._exit: it never returns into the
        # caller, nor flushes (its own file aside) or collects what it inherited.
        status = 1
        try:
            gc.disable()
            fh.writelines(_slice_pieces(fld, seeds, lo, hi, options))
            fh.flush()
            status = 0
        finally:
            os._exit(status)
    return pid, fh


def _scan(args, spec):
    game = _parse_game(spec)
    r = _option(args, spec, "resolution", 10)
    # _scan_runs checks r before main opens --out: the rows are made as written.
    return _run_chunks(_scan_runs(game, r), r), None


def _run_chunks(runs, r):
    """The CSV text of the scan runs (k11, k12, lo, hi, flip), whole runs at a time
    in pieces of CSV_CHUNK_ROWS lines or a run more.

    Row k21 of a run is the cells of k11, k12, k21 and k22 = r - k11 - k12 - k21,
    then the flip: the rows of a run are one join of its k21 and k22 cells, in step.
    """
    # Every weight is some k / r: format each of them once, not once per cell.
    cells = [f"{k / r}," for k in range(r + 1)]
    k22_cells = cells[::-1]  # k22_cells[k11 + k12 + k21] is the k22 cell
    texts, rows = [], 0
    for k11, k12, lo, hi, flip in runs:
        head, skip = cells[k11] + cells[k12], k11 + k12
        joined = f"{flip}\n{head}".join(map(add, cells[lo:hi],
                                             k22_cells[skip + lo:skip + hi]))
        # The run's rows, without the newline after the last: _csv_piece adds it.
        texts.append(f"{head}{joined}{flip}")
        rows += hi - lo
        if rows >= CSV_CHUNK_ROWS:
            yield _csv_piece(texts)
            texts, rows = [], 0
    if texts:
        yield _csv_piece(texts)


def _demo(args, spec):
    instance = make_case(args.case)
    return {
        "case": instance.case_label,
        "game": instance.game,
        "weights": instance.state,
        "checks": instance.verification,
        "comparison": compare_classical_quantum(instance.game, instance.state),
    }, None


FLAGS = {
    "case": {"choices": ("a", "b", "c")},
    "--spec": {"help": "JSON problem spec file"},
    "--out": {"help": "output file (default: stdout)"},
    "--tol": {"type": float, "help": "tolerance override"},
    "--renormalize": {"action": "store_true",
                      "help": "rescale weights to sum to 1 instead of rejecting"},
    "--start": {"help": "starting point X,Y"},
    "--step": {"type": float, "help": "integration step size"},
    "--max-steps": {"type": int, "help": "step limit"},
    "--grid": {"type": int, "help": "seeds per axis"},
    "--resolution": {"type": int, "help": "lattice subdivisions"},
}
ANALYSIS_FLAGS = ("--spec", "--out", "--tol", "--renormalize")
_VALUE_FLAGS = frozenset(flag for flag, kwargs in FLAGS.items()
                         if flag.startswith("--") and "action" not in kwargs)


# handler: (args, spec) -> (JSON payload or a generator of CSV text pieces, which
# main closes after writing, stderr line or None);
# header: the CSV header, or None for a JSON report.
Command = collections.namedtuple("Command", "handler help flags header", defaults=(None,))


COMMANDS = {
    "transform": Command(_transform, "quantized payoff matrices and K parameters",
                         ("--spec", "--out", "--renormalize")),
    "classify": Command(_classify, "equilibria with Jacobians, eigenvalues, tags",
                        ANALYSIS_FLAGS),
    "ess": Command(_ess, "ESS/attractor verdicts and flip descriptor", ANALYSIS_FLAGS),
    "simulate": Command(_simulate, "integrate one trajectory to CSV",
                        ANALYSIS_FLAGS + ("--start", "--step", "--max-steps"),
                        ("t", "x", "y")),
    "portrait": Command(_portrait, "grid of trajectories to CSV",
                        ANALYSIS_FLAGS + ("--grid", "--step", "--max-steps"),
                        ("id", "t", "x", "y")),
    "scan": Command(_scan, "scan the weight simplex for stability flips",
                    ("--spec", "--out", "--resolution"),
                    ("w11", "w12", "w21", "w22", "flip")),
    "demo": Command(_demo, "one of the verified showcase instances", ("case", "--out")),
}


def _one_line(text):
    """text on one line: each unprintable character escaped as repr escapes it."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(text))


class _Parser(argparse.ArgumentParser):
    """An argument parser whose refusals, like main's, print one ``error:`` line."""

    def error(self, message):
        super().error(_one_line(message))


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared after it.

    Sharing is safe: every flag has an immutable default and ``parse_args``
    returns a fresh namespace, so no value carries from one call to the next.
    Its ``command_parsers`` maps each command's name to that command's parser.
    """
    parser = _Parser(
        prog="quantum-replicator",
        description="Classical and quantized replicator dynamics of 2x2 bi-matrix "
                    "games: payoff transforms, equilibrium classification, "
                    "evolutionary-stability reports and trajectory data.")
    sub = parser.add_subparsers(dest="command", required=True)  # makes _Parsers too
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag in command.flags:
            p.add_argument(flag, **FLAGS[flag])
    parser.command_parsers = sub.choices
    return parser


def _parse_args(argv):
    """``build_parser().parse_args(argv)``, with dash values joined to their flags.

    The top parser hands every word after the command to that command's
    parser, so when argv starts with a command, its parser reads the rest
    directly, and a word it leaves is refused as the top parser refuses it.
    """
    parser = build_parser()
    name = argv[0] if argv else None
    command_parser = parser.command_parsers.get(name)
    if command_parser is None:  # no command, -h or an unknown command
        return parser.parse_args(argv)
    args, extras = command_parser.parse_known_args(
        _join_dash_values(argv[1:], COMMANDS[name].flags, command_parser))
    if extras:
        parser.error("unrecognized arguments: " + " ".join(extras))
    args.command = name
    return args


def _join_dash_values(argv, flags, parser):
    """argv with each value flag joined by "=" to the next word when that word
    starts with a single "-" and is not "-h"; no word after "--" is joined.

    argparse would read the word as an option: ``--tol -1e-3`` and ``--out
    -o.json`` fail with "expected one argument".  Only its syntax is tested:
    the flag's type and the library judge the value.  flags are the command's
    ``Command.flags``, and parser, its parser, refuses a value flag given the
    value ``--``: argparse drops that value and stores an empty list, on which
    Pythons before 3.13 crash.
    """
    joined = []
    for i, token in enumerate(argv):
        if token == "--":  # argparse reads every word after it as a positional
            return [*joined, *argv[i:]]
        if token.endswith("=--") and (name := _value_flag(token[:-3], flags)):
            parser.error(f"argument {name}: expected one argument")
        if (joined and token.startswith("-") and not token.startswith("--")
                and token != "-h" and _value_flag(joined[-1], flags)):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def _value_flag(token, flags):
    """The one of flags that takes a value and that argparse reads token as, or
    None: by its full name, or by a prefix that no other option of the command
    shares (``--to`` for ``--tol``).  An ambiguous prefix is left to argparse to
    refuse."""
    if token in flags:
        return token if token in _VALUE_FLAGS else None
    if not token.startswith("--"):
        return None
    matches = [flag for flag in ("--help", *flags) if flag.startswith(token)]
    return matches[0] if len(matches) == 1 and matches[0] in _VALUE_FLAGS else None


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_args(argv)
    command = COMMANDS[args.command]
    try:
        output, note = command.handler(args, _load_spec(getattr(args, "spec", None)))
        if command.header is None:
            _write_file(args.out, [_emit_json(output)])
        else:
            # Closed also when a write fails: a portrait then stops its workers.
            try:
                _write_file(args.out, chain([",".join(command.header) + "\n"], output))
            finally:
                output.close()
    except ValidationError as exc:
        name, space, rest = str(exc).partition(" ")
        error, code = _USER_NAMES.get(name, name) + space + rest, EXIT_VALIDATION
    except (OSError, _WorkerFailed) as exc:  # the spec, the output, or a worker
        error, code = exc, EXIT_IO
    else:
        if note is not None:
            sys.stderr.write(note)
        return EXIT_OK
    # A path may hold a newline or another unprintable character.
    sys.stderr.write(f"error: {_one_line(error)}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
