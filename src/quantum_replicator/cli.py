"""Command-line front end.

Reads a JSON problem spec (game, initial-state weights, analysis options),
runs the requested analysis and writes a JSON report or CSV data to stdout or
to --out.  Numbers are emitted in shortest round-trip decimal form so
identical specs produce byte-identical outputs.

Exit codes: 0 success, 2 validation failure (including a malformed spec),
3 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from itertools import chain, islice, repeat
from typing import Callable, NamedTuple, Optional

from .dynamics import (DEFAULT_CONVERGENCE_TOL, DEFAULT_MAX_STEPS, DEFAULT_STEP,
                       ReplicatorField, Trajectory, integrate, phase_portrait)
from .ess import compare_classical_quantum
from .games import (ClassicalBimatrix, InitialStateWeights, SimplifiedGame,
                    ValidationError, k_params, quantum_transform)
from .scenarios import make_case, scan_flip
from .stability import DEFAULT_ZERO_TOL, DEGENERATE, interior_point, linearize

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
# CSV rows formatted and written at a time, so a large CSV is never held whole.
CSV_CHUNK_ROWS = 4096

WEIGHT_KEYS = ("w11", "w12", "w21", "w22")


class IOFailure(Exception):
    """A spec file could not be read or an output file could not be written."""


def _load_spec(path):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise IOFailure(f"cannot read spec file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, too deep
        raise ValidationError(f"spec file {path} is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise ValidationError(f"spec must be a JSON object, got {json.dumps(spec)}")
    options = spec.get("options", {})
    if not isinstance(options, dict):
        raise ValidationError(f"options must be an object, got {json.dumps(options)}")
    return spec


def _parse_game(spec):
    game = spec.get("game")
    if game is None:
        raise ValidationError("spec is missing the 'game' object")
    if not isinstance(game, dict):
        raise ValidationError(f"game must be an object, got {json.dumps(game)}")
    keys = set(game)
    if keys == {"a", "b", "c", "d"}:
        simplified = SimplifiedGame(**game)
        return simplified.to_bimatrix(), simplified
    if keys == {"a11", "a12", "a21", "a22", "b11", "b12", "b21", "b22"}:
        full = ClassicalBimatrix(**game)
        return full, SimplifiedGame.from_bimatrix(full)
    raise ValidationError(
        "game must have exactly the keys a,b,c,d or a11..a22,b11..b22; "
        f"got {sorted(keys)}")


def _parse_weights(spec, renormalize):
    weights = spec.get("weights")
    if weights is None:
        raise ValidationError("spec is missing 'weights'")
    if isinstance(weights, dict):
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
    _, simplified = _parse_game(spec)
    return ReplicatorField.quantum(simplified, _parse_weights(spec, args.renormalize))


def _option(args, spec, name, default):
    # flags win over the spec's options object; names use underscores in both
    value = getattr(args, name, None)
    return spec.get("options", {}).get(name, default) if value is None else value


def _parse_start(args, spec):
    raw = args.start if args.start is not None else spec.get("start")
    if raw is None:
        raise ValidationError("simulate needs a start point: --start X,Y")
    if isinstance(raw, str):
        try:
            x, y = map(float, raw.split(","))
        except ValueError:
            raise ValidationError(f"--start must be numbers X,Y; got {raw!r}") from None
        return (x, y)
    return raw  # integrate checks that it is a pair of numbers


def _integration_options(args, spec):
    return {"step": _option(args, spec, "step", DEFAULT_STEP),
            "max_steps": _option(args, spec, "max_steps", DEFAULT_MAX_STEPS),
            "convergence_tol": _option(args, spec, "tol", DEFAULT_CONVERGENCE_TOL)}


def _emit_json(payload):
    return json.dumps(payload, indent=2) + "\n"


def _write_file(path, pieces):
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise IOFailure(f"cannot write {path}: {exc}") from exc


def _csv_chunks(header, rows):
    """The CSV text in pieces of at most CSV_CHUNK_ROWS lines, header first."""
    # str of a float is its shortest round-trip repr, so one %s per column
    # covers the float, int and str cells alike.
    formatted = map(",".join(["%s"] * len(header)).__mod__, rows)
    lines = [",".join(header), *islice(formatted, CSV_CHUNK_ROWS - 1)]
    while lines:
        yield _csv_piece(lines)
        lines = list(islice(formatted, CSV_CHUNK_ROWS))


def _csv_piece(lines):
    # perfbench/test_perfbench.py corrupts this line to check its output gate.
    return "\n".join(lines) + "\n"


def _transform(args, spec):
    game, _ = _parse_game(spec)
    state = _parse_weights(spec, args.renormalize)
    pair = quantum_transform(game, state)
    k = k_params(state)
    return {
        "omega": [list(row) for row in pair.omega],
        "chi": [list(row) for row in pair.chi],
        "K1": k.K1,
        "K2": k.K2,
    }


def _classify(args, spec):
    fld = _field(args, spec)
    tol = _option(args, spec, "tol", DEFAULT_ZERO_TOL)
    reports = linearize(fld, tol)
    payload = {"K1": fld.K1, "K2": fld.K2, "equilibria": [{
        **asdict(r.equilibrium),
        "jacobian": [list(row) for row in r.jacobian],
        "eigenvalues": [[z.real, z.imag] for z in r.eigs],
        "tag": r.tag,
    } for r in reports]}
    _, reason = interior_point(fld)
    if reason is not None:
        payload["interior_omitted_reason"] = reason
    tol = float(tol)  # linearize accepted tol, so it is an int or a float
    warnings = [f"equilibrium ({r.equilibrium.x}, {r.equilibrium.y}) "
                f"is degenerate at tol {tol}" for r in reports if r.tag == DEGENERATE]
    if warnings:
        payload["warnings"] = warnings
    return payload


def _ess(args, spec):
    _, simplified = _parse_game(spec)
    state = _parse_weights(spec, args.renormalize)
    tol = _option(args, spec, "tol", DEFAULT_ZERO_TOL)
    return asdict(compare_classical_quantum(simplified, state, tol=tol))


def _simulate(args, spec):
    fld = _field(args, spec)
    start = _parse_start(args, spec)
    return integrate(fld, start, **_integration_options(args, spec))


def _portrait(args, spec):
    fld = _field(args, spec)
    grid_n = _option(args, spec, "grid", 5)
    trajectories = phase_portrait(fld, grid_n, **_integration_options(args, spec))
    return chain.from_iterable(
        zip(repeat(tid), traj.times, traj.xs, traj.ys)
        for tid, traj in enumerate(trajectories))


def _scan(args, spec):
    _, simplified = _parse_game(spec)
    r = _option(args, spec, "resolution", 10)
    hits = scan_flip(simplified, r)
    # Every weight is some k / r: format each of them once, not once per cell.
    cell = {k / r: str(k / r) for k in range(r + 1)}
    return [(cell[s.w11], cell[s.w12], cell[s.w21], cell[s.w22], flip)
            for s, flip in hits]


def _demo(args, spec):
    instance = make_case(args.case)
    return {
        "case": instance.case_label,
        "game": asdict(instance.game),
        "weights": asdict(instance.state),
        "checks": [asdict(c) for c in instance.verification],
        "comparison": asdict(compare_classical_quantum(instance.game, instance.state)),
    }


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


class Command(NamedTuple):
    handler: Callable  # (args, spec) -> JSON payload, CSV rows or a Trajectory
    help: str
    flags: tuple
    header: Optional[tuple] = None  # CSV header; None for a JSON report


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


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared after it.

    Sharing is safe: every flag has an immutable default and ``parse_args``
    returns a fresh namespace, so no value carries from one call to the next.
    """
    parser = argparse.ArgumentParser(
        prog="quantum-replicator",
        description="Classical and quantized replicator dynamics of 2x2 bi-matrix "
                    "games: payoff transforms, equilibrium classification, "
                    "evolutionary-stability reports and trajectory data.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag in command.flags:
            p.add_argument(flag, **FLAGS[flag])
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        output = command.handler(args, _load_spec(getattr(args, "spec", None)))
        status = None
        if isinstance(output, Trajectory):
            status = f"status: {output.status} after {len(output) - 1} steps\n"
            output = zip(output.times, output.xs, output.ys)
        if command.header is None:
            pieces = [_emit_json(output)]
        else:
            pieces = _csv_chunks(command.header, output)
        if args.out is None:
            sys.stdout.writelines(pieces)
        else:
            _write_file(args.out, pieces)
        if status is not None:
            sys.stderr.write(status)
        return EXIT_OK
    except ValidationError as exc:
        error, code = exc, EXIT_VALIDATION
    except IOFailure as exc:
        error, code = exc, EXIT_IO
    sys.stderr.write(f"error: {error}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
