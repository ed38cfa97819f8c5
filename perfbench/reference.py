"""The benchmark's own model of what the CLI must print.

Nothing here imports ``quantum_replicator``: every expected output is derived
from the formulas the package documents, evaluated in the same floating-point
order, so a run can compare the program's bytes with an independent answer for
any seed.  The integrator advances all seeds of a portrait together with numpy
(element-wise float64 arithmetic is correctly rounded, so each lane matches
the scalar RK4 bit for bit).
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np

STEP = 0.01
MAX_STEPS = 100_000
CONVERGENCE_TOL = 1e-10
ZERO_TOL = 1e-9
STRICTNESS_TOL = 1e-9
CLAMP_GUARD = 1e-9
DOMAIN_MARGIN = 0.1
DENOMINATOR_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-12

FLIPS = ("gained-ess", "lost-ess", "gained-attractor", "lost-attractor")


class Invalid(Exception):
    """The CLI must reject this spec with exit code 2 and write nothing."""


# ---------------------------------------------------------------- formatting

def csv_bytes(header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(repr(v) if isinstance(v, float) else str(v) for v in row)
                 for row in rows)
    return ("\n".join(lines) + "\n").encode()


def json_bytes(payload):
    return (json.dumps(payload, indent=2) + "\n").encode()


# ------------------------------------------------------------- game and state

def coefficients(game, K1, K2):
    """(p, q, r, s) of the flow dx/dt = x(1-x)(p + q y), dy/dt = y(1-y)(r + s x)."""
    a, b, c, d = game
    return (a * K1 + b * K2, -(a + b) * (K1 + K2),
            c * K1 + d * K2, -(c + d) * (K1 + K2))


def k_of(w):
    return w[0] - w[2], w[3] - w[1]


def weights(raw, renormalize):
    """Validated weight tuple, or Invalid when the CLI must refuse it."""
    vals = [float(v) for v in raw]
    if renormalize:
        if any(v < 0.0 for v in vals) or sum(vals) <= 0.0:
            raise Invalid
        total = sum(vals)
        vals = [v / total for v in vals]
    if any(not 0.0 <= v <= 1.0 for v in vals):
        raise Invalid
    if abs(vals[0] + vals[1] + vals[2] + vals[3] - 1.0) > WEIGHT_SUM_TOL:
        raise Invalid
    return tuple(vals)


def game_of(spec):
    """(bimatrix entries a11..b22, reduced a, b, c, d) as floats."""
    g = spec["game"]
    if "a" in g:
        a, b, c, d = (float(g[k]) for k in "abcd")
        return (0.0, a, b, 0.0, 0.0, c, d, 0.0), (a, b, c, d)
    full = tuple(float(g[k]) for k in
                 ("a11", "a12", "a21", "a22", "b11", "b12", "b21", "b22"))
    a11, a12, a21, a22, b11, b12, b21, b22 = full
    return full, (a12 - a22, a21 - a11, b12 - b22, b21 - b11)


# ------------------------------------------------------------------ portraits

def portrait(coeffs, grid_n, step=STEP, max_steps=MAX_STEPS, tol=CONVERGENCE_TOL):
    """Lockstep RK4 over the grid seeds; returns [(xs, ys, status)] in lattice order."""
    p, q, r, s = coeffs

    def field(x, y):
        return x * (1.0 - x) * (p + q * y), y * (1.0 - y) * (r + s * x)

    seeds = []
    for i in range(grid_n):
        for j in range(grid_n):
            sx = (i + 1) / (grid_n + 1)
            sy = (j + 1) / (grid_n + 1)
            vx, vy = field(sx, sy)
            if not (vx == 0.0 and vy == 0.0):
                seeds.append((sx, sy))
    n = len(seeds)
    x = np.array([sx for sx, _ in seeds], dtype=float)
    y = np.array([sy for _, sy in seeds], dtype=float)
    hist_x, hist_y = [x.copy()], [y.copy()]
    steps = np.zeros(n, dtype=np.int64)
    status = [""] * n
    live = np.arange(n)
    h = step
    lo, hi = -DOMAIN_MARGIN, 1.0 + DOMAIN_MARGIN
    for it in range(max_steps + 1):
        xa, ya = x[live], y[live]
        vx, vy = field(xa, ya)
        conv = np.maximum(np.abs(vx), np.abs(vy)) < tol
        gone = ~((lo <= xa) & (xa <= hi) & (lo <= ya) & (ya <= hi))
        stop = conv | gone
        for k in np.nonzero(stop)[0]:
            lane = live[k]
            status[lane] = "converged" if conv[k] else "left-domain"
            steps[lane] = it
        live = live[~stop]
        if it == max_steps:
            for lane in live:
                status[lane] = "max-steps"
                steps[lane] = it
            live = live[:0]
        if live.size == 0:
            break
        xa, ya = x[live], y[live]
        k1x, k1y = field(xa, ya)
        k2x, k2y = field(xa + 0.5 * h * k1x, ya + 0.5 * h * k1y)
        k3x, k3y = field(xa + 0.5 * h * k2x, ya + 0.5 * h * k2y)
        k4x, k4y = field(xa + h * k3x, ya + h * k3y)
        nx = xa + h * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0
        ny = ya + h * (k1y + 2.0 * k2y + 2.0 * k3y + k4y) / 6.0
        x[live] = _clamp(nx)
        y[live] = _clamp(ny)
        hist_x.append(x.copy())
        hist_y.append(y.copy())
    hx, hy = np.array(hist_x), np.array(hist_y)
    return [(hx[:steps[k] + 1, k], hy[:steps[k] + 1, k], status[k]) for k in range(n)]


def _clamp(v):
    v = np.where((-CLAMP_GUARD < v) & (v < 0.0), 0.0, v)
    return np.where((1.0 < v) & (v < 1.0 + CLAMP_GUARD), 1.0, v)


def portrait_csv(trajectories, step=STEP):
    longest = max(len(xs) for xs, _, _ in trajectories)
    times = [0.0] + (np.arange(1, longest, dtype=np.int64) * step).tolist()
    parts = ["id,t,x,y\n"]
    for tid, (xs, ys, _) in enumerate(trajectories):
        parts.extend(f"{tid},{t!r},{x!r},{y!r}\n"
                     for t, x, y in zip(times, xs.tolist(), ys.tolist()))
    return "".join(parts).encode()


def first_integral(coeffs, x, y):
    """H = r ln x - (r+s) ln(1-x) - p ln y + (p+q) ln(1-y), conserved by the flow."""
    p, q, r, s = coeffs
    return (r * math.log(x) - (r + s) * math.log(1.0 - x)
            - p * math.log(y) + (p + q) * math.log(1.0 - y))


# ----------------------------------------------------------------------- scan

def verdict(game, w, tol=STRICTNESS_TOL):
    """(is_attractor, is_ess, marginal, roots, margins) at the corner (1, 0)."""
    a, b, c, d = game
    K1, K2 = k_of(w)
    roots = (-a * K1 - b * K2, -c * K2 - d * K1)
    m_male = a * (w[0] - w[2]) + b * (w[3] - w[1])
    m_female = c * (w[0] - w[1]) + d * (w[3] - w[2])
    marginal = (abs(roots[0]) <= tol or abs(roots[1]) <= tol
                or abs(m_male) <= tol or abs(m_female) <= tol)
    return (roots[0] < -tol and roots[1] < -tol, m_male > tol and m_female > tol,
            marginal, roots, (m_male, m_female))


def flip(classical, quantum):
    (c_att, c_ess, *_), (q_att, q_ess, *_) = classical, quantum
    if q_ess and not c_ess:
        return "gained-ess"
    if c_ess and not q_ess:
        return "lost-ess"
    if q_att and not c_att:
        return "gained-attractor"
    if c_att and not q_att:
        return "lost-attractor"
    return "none"


CLASSICAL = (1.0, 0.0, 0.0, 0.0)


def scan_hits(game, r):
    """[(k11, k12, k21, k22, flip)] over the lattice, in lexicographic order."""
    classical = verdict(game, CLASSICAL)
    hits = []
    for k11 in range(r + 1):
        for k12 in range(r + 1 - k11):
            for k21 in range(r + 1 - k11 - k12):
                k = (k11, k12, k21, r - k11 - k12 - k21)
                f = flip(classical, verdict(game, tuple(v / r for v in k)))
                if f != "none":
                    hits.append(k + (f,))
    return hits


def scan_csv(hits, r):
    return csv_bytes(("w11", "w12", "w21", "w22", "flip"),
                     [tuple(v / r for v in h[:4]) + (h[4],) for h in hits])


# ---------------------------------------------------- transform, classify, ess

def transform_payload(spec, renormalize):
    full, _ = game_of(spec)
    w = weights(spec["weights"], renormalize)
    w11, w12, w21, w22 = w

    def mix(m11, m12, m21, m22):
        return [[m11 * w11 + m12 * w12 + m21 * w21 + m22 * w22,
                 m11 * w12 + m12 * w11 + m21 * w22 + m22 * w21],
                [m11 * w21 + m12 * w22 + m21 * w11 + m22 * w12,
                 m11 * w22 + m12 * w21 + m21 * w12 + m22 * w11]]

    K1, K2 = k_of(w)
    return {"omega": mix(*full[:4]), "chi": mix(*full[4:]), "K1": K1, "K2": K2}


def _eigenvalues(xx, xy, yx, yy):
    tr = xx + yy
    det = xx * yy - xy * yx
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        root = math.sqrt(disc)
        lam1 = 0.5 * (tr + root) if tr >= 0.0 else 0.5 * (tr - root)
        if lam1 == 0.0:
            return (complex(0.0), complex(0.0))
        return (complex(lam1), complex(det / lam1))
    root = cmath.sqrt(complex(disc))
    return (0.5 * (tr + root), 0.5 * (tr - root))


def _tag(eigs, tol):
    l1, l2 = eigs
    if abs(l1.imag) <= tol and abs(l2.imag) <= tol:
        r1, r2 = l1.real, l2.real
        if abs(r1) <= tol or abs(r2) <= tol:
            return "degenerate"
        if r1 < 0.0 and r2 < 0.0:
            return "stable-node"
        if r1 > 0.0 and r2 > 0.0:
            return "unstable-node"
        return "saddle"
    if l1.real < -tol:
        return "stable-spiral"
    if l1.real > tol:
        return "unstable-spiral"
    return "center-linearization"


def classify_payload(spec, renormalize):
    _, game = game_of(spec)
    w = weights(spec["weights"], renormalize)
    tol = float(spec.get("options", {}).get("tol", ZERO_TOL))
    a, b, c, d = game
    K1, K2 = k_of(w)
    p, q, r, s = coefficients(game, K1, K2)
    points = [(0.0, 0.0, "corner", True), (0.0, 1.0, "corner", True),
              (1.0, 0.0, "corner", True), (1.0, 1.0, "corner", True)]
    ksum, ab, cd = K1 + K2, a + b, c + d
    reason = None
    if abs(ksum) <= DENOMINATOR_TOL:
        reason = "K1+K2 = 0"
    elif abs(ab) <= DENOMINATOR_TOL:
        reason = "a+b = 0"
    elif abs(cd) <= DENOMINATOR_TOL:
        reason = "c+d = 0"
    else:
        x = (c * K1 + d * K2) / (cd * ksum)
        y = (a * K1 + b * K2) / (ab * ksum)
        points.append((x, y, "interior", 0.0 < x < 1.0 and 0.0 < y < 1.0))
    reports, warnings = [], []
    for x, y, kind, inside in points:
        jac = [[(1.0 - 2.0 * x) * (p + q * y), x * (1.0 - x) * q],
               [y * (1.0 - y) * s, (1.0 - 2.0 * y) * (r + s * x)]]
        eigs = _eigenvalues(jac[0][0], jac[0][1], jac[1][0], jac[1][1])
        tag = _tag(eigs, tol)
        if tag == "degenerate":
            warnings.append(f"equilibrium ({x}, {y}) is degenerate at tol {tol}")
        reports.append({"x": x, "y": y, "kind": kind, "inside_unit_square": inside,
                        "jacobian": jac,
                        "eigenvalues": [[z.real, z.imag] for z in eigs],
                        "tag": tag})
    payload = {"K1": K1, "K2": K2, "equilibria": reports}
    if reason is not None:
        payload["interior_omitted_reason"] = reason
    if warnings:
        payload["warnings"] = warnings
    return payload


def _verdict_payload(v):
    is_attractor, is_ess, marginal, roots, (m_male, m_female) = v
    return {"is_attractor": is_attractor, "is_ess": is_ess, "marginal": marginal,
            "roots": list(roots), "margins": {"m_male": m_male, "m_female": m_female}}


def ess_payload(spec, renormalize):
    _, game = game_of(spec)
    w = weights(spec["weights"], renormalize)
    tol = float(spec.get("options", {}).get("tol", STRICTNESS_TOL))
    classical, quantum = verdict(game, CLASSICAL, tol), verdict(game, w, tol)
    return {"classical": _verdict_payload(classical),
            "quantum": _verdict_payload(quantum),
            "flip": flip(classical, quantum)}


ANALYSES = {"transform": transform_payload, "classify": classify_payload,
            "ess": ess_payload}


def analysis_bytes(command, spec, renormalize):
    """Expected (exit code, output bytes or None) of one analysis call."""
    try:
        return 0, json_bytes(ANALYSES[command](spec, renormalize))
    except Invalid:
        return 2, None
