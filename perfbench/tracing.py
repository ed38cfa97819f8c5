"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` rebinds each wrapped name in every module namespace that
holds the original function (``cli.phase_portrait`` and
``dynamics.phase_portrait`` alike), so calls made through any import path are
seen.  Per-step functions (``field_eval``, ``_rk4_step``, ``_clamp``) are not
wrapped: their counts follow exactly from trajectory lengths.  Spans stay in
memory as ``[name, parent, start_ns, end_ns]`` until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import Counter

from reference import FLIPS

PACKAGE = "quantum_replicator"
MODULES = ("", ".cli", ".dynamics", ".stability", ".ess", ".scenarios", ".games")

# (layer, defining module, attribute); private cli helpers are wrapped when present.
WRAPPED = (
    ("cli", "cli", "main"),
    ("cli", "cli", "build_parser"),
    ("cli", "cli", "_csv_text"),
    ("cli", "cli", "_emit_json"),
    ("cli", "cli", "_write_file"),
    ("dynamics", "dynamics", "phase_portrait"),
    ("dynamics", "dynamics", "integrate"),
    ("scenarios", "scenarios", "scan_flip"),
    ("ess", "ess", "compare_classical_quantum"),
    ("ess", "ess", "verdict_10"),
    ("stability", "stability", "equilibria"),
    ("stability", "stability", "interior_point"),
    ("stability", "stability", "jacobian"),
    ("stability", "stability", "eigenvalues"),
    ("stability", "stability", "classify"),
    ("games", "games", "quantum_transform"),
    ("games", "games", "k_params"),
)

STATUSES = ("converged", "max-steps", "left-domain")
FORMAT_SPANS = ("cli._csv_text", "cli._emit_json")
STABILITY_CALLS = ("equilibria", "interior_point", "jacobian", "eigenvalues", "classify")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _after_integrate(counts, args, kwargs, traj):
    steps = len(traj) - 1
    counts["rk4_steps"] += steps
    # One field evaluation per convergence check (steps + 1 of them), four per RK4 step.
    counts["field_evals"] += 5 * steps + 1
    counts["samples_held"] += len(traj)
    counts["status." + traj.status] += 1


def _after_portrait(counts, args, kwargs, trajectories):
    grid_n = _arg(args, kwargs, 1, "grid_n")
    counts["field_evals"] += grid_n * grid_n  # the equilibrium test on each seed
    counts["seeds_skipped"] += grid_n * grid_n - len(trajectories)


def _after_scan(counts, args, kwargs, hits):
    r = _arg(args, kwargs, 1, "resolution")
    counts["lattice_points"] += (r + 1) * (r + 2) * (r + 3) // 6
    counts["hits"] += len(hits)
    for _, flip in hits:
        counts["hits." + flip] += 1


def _after_verdict(counts, args, kwargs, verdict):
    game, state = args[0], args[1]
    tol = args[2] if len(args) > 2 else kwargs.get("tol")
    counts.verdict_keys.add((game.a, game.b, game.c, game.d, state.w11, state.w12,
                             state.w21, state.w22, tol))


def _after_classify(counts, args, kwargs, tag):
    if tag == "degenerate":
        counts["degenerate_tags"] += 1


AFTER = {
    "dynamics.integrate": _after_integrate,
    "dynamics.phase_portrait": _after_portrait,
    "scenarios.scan_flip": _after_scan,
    "ess.verdict_10": _after_verdict,
    "stability.classify": _after_classify,
}


class Counts(Counter):
    def __init__(self):
        super().__init__()
        self.verdict_keys = set()


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counts()
        self._bindings = []

    def reset(self):
        self.spans = []
        self.stack = []
        self.counts = Counts()

    def _wrap(self, name, fn):
        after = AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self.stack
            span = [name, stack[-1] if stack else -1, 0, 0]
            stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                stack.pop()
            if after is not None:
                after(self.counts, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        modules = [importlib.import_module(PACKAGE + m) for m in MODULES]
        for layer, home, attr in WRAPPED:
            original = getattr(importlib.import_module(f"{PACKAGE}.{home}"), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{layer}.{attr}", original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    self._bindings.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings = []

    def layer_metrics(self, out_bytes, out_rows):
        """Per-layer metrics of the spans and counts recorded since ``reset``."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls, total, self_ns = Counter(), Counter(), Counter()
        layer_self = Counter()
        stability_ns = 0
        for i, (name, parent, start, end) in enumerate(spans):
            dur = end - start
            calls[name] += 1
            total[name] += dur
            self_ns[name] += dur - child_ns[i]
            layer_self[name.split(".")[0]] += dur - child_ns[i]
            if name.startswith("stability.") and (
                    parent < 0 or not spans[parent][0].startswith("stability.")):
                stability_ns += dur
        c = self.counts
        s = 1e-9
        format_s = sum(self_ns[n] for n in FORMAT_SPANS) * s
        integrate_s = total["dynamics.integrate"] * s
        m = {
            "cli.main.calls": calls["cli.main"],
            "cli.build_parser.total_s": total["cli.build_parser"] * s,
            "cli.self_s": layer_self["cli"] * s,
            "cli.out_bytes": out_bytes,
            "cli.out_rows": out_rows,
            "cli.format_bytes_per_s": out_bytes / format_s if format_s else 0.0,
            "dynamics.phase_portrait.total_s": total["dynamics.phase_portrait"] * s,
            "dynamics.phase_portrait.self_s": self_ns["dynamics.phase_portrait"] * s,
            "dynamics.integrate.calls": calls["dynamics.integrate"],
            "dynamics.integrate.total_s": integrate_s,
            "dynamics.rk4_steps": c["rk4_steps"],
            "dynamics.field_evals": c["field_evals"],
            "dynamics.ns_per_step": (integrate_s * 1e9 / c["rk4_steps"]
                                     if c["rk4_steps"] else 0.0),
            "dynamics.samples_held": c["samples_held"],
            "dynamics.seeds_skipped": c["seeds_skipped"],
        }
        for status in STATUSES:
            m["dynamics.status." + status] = c["status." + status]
        m.update({
            "scenarios.scan_flip.total_s": total["scenarios.scan_flip"] * s,
            "scenarios.scan_flip.self_s": self_ns["scenarios.scan_flip"] * s,
            "scenarios.lattice_points": c["lattice_points"],
            "scenarios.hits": c["hits"],
            "scenarios.hit_frac": (c["hits"] / c["lattice_points"]
                                   if c["lattice_points"] else 0.0),
        })
        for flip in FLIPS:
            m["scenarios.hits." + flip] = c["hits." + flip]
        verdicts = calls["ess.verdict_10"]
        m.update({
            "ess.compare_classical_quantum.calls": calls["ess.compare_classical_quantum"],
            "ess.compare_classical_quantum.total_s":
                total["ess.compare_classical_quantum"] * s,
            "ess.verdict_10.calls": verdicts,
            "ess.verdict_10.total_s": total["ess.verdict_10"] * s,
            "ess.useful_verdict_frac": len(c.verdict_keys) / verdicts if verdicts else 0.0,
        })
        for fn in STABILITY_CALLS:
            m[f"stability.{fn}.calls"] = calls["stability." + fn]
        m.update({
            "stability.total_s": stability_ns * s,
            "stability.degenerate_tags": c["degenerate_tags"],
            "games.quantum_transform.calls": calls["games.quantum_transform"],
            "games.quantum_transform.total_s": total["games.quantum_transform"] * s,
            "games.k_params.calls": calls["games.k_params"],
            "trace.spans": len(spans),
        })
        return m


def dump(spans, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "parent", "start_ns", "end_ns"], "spans": spans},
                  fh, separators=(",", ":"))


def median_metrics(per_pass):
    """Median of each metric over passes (the lower middle value, so counts stay
    integers; they repeat across passes anyway)."""
    return {k: statistics.median_low(p[k] for p in per_pass) for k in per_pass[0]}
