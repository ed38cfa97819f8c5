"""Exact signs for integer games (a, b, c, d) at lattice weights k / n.

Every sign the tests decide exactly is that of an integer form: the weights
enter as their lattice parts k = (k11, k12, k21, k22), which sum to n, and a
form scaled by n > 0 keeps its sign.
"""

CLASSICAL = (1, 0, 0, 0)


def parts(n):
    """The lattice parts of n, in scan_flip's order."""
    for k11 in range(n + 1):
        for k12 in range(n + 1 - k11):
            for k21 in range(n + 1 - k11 - k12):
                yield k11, k12, k21, n - k11 - k12 - k21


def verdict(game, k):
    """(is_attractor, is_ess, marginal) at the corner (1, 0).

    From n times the male margin a K1 + b K2 (the negated first corner root),
    the female root form c K2 + d K1 (the negated second) and the female margin.
    """
    a, b, c, d = game
    k11, k12, k21, k22 = k
    male = a * (k11 - k21) + b * (k22 - k12)
    root = c * (k22 - k12) + d * (k11 - k21)
    female = c * (k11 - k12) + d * (k22 - k21)
    return male > 0 and root > 0, male > 0 and female > 0, 0 in (male, root, female)


def flip(classical, quantum):
    """The flip label between two verdicts, an ESS change ranked above an attractor one."""
    (c_attractor, c_ess, _), (q_attractor, q_ess, _) = classical, quantum
    if c_ess != q_ess:
        return "gained-ess" if q_ess else "lost-ess"
    if c_attractor != q_attractor:
        return "gained-attractor" if q_attractor else "lost-attractor"
    return "none"


def scan(game, n):
    """(k, label) of every lattice point of n whose label is not "none", in scan order."""
    classical = verdict(game, CLASSICAL)
    return [(k, label) for k in parts(n)
            if (label := flip(classical, verdict(game, k))) != "none"]


def brackets(game, k):
    """n times the face brackets (p, q, r, s) of the quantum field.

    dx/dt = x(1-x)(p + q y) and dy/dt = y(1-y)(r + s x); n > 0 keeps every sign
    and every ratio.
    """
    a, b, c, d = game
    K1, K2 = k[0] - k[2], k[3] - k[1]
    return a * K1 + b * K2, -(a + b) * (K1 + K2), c * K1 + d * K2, -(c + d) * (K1 + K2)


def orbit_class(p, q, r, s):
    """The class, "corner", "center" or "saddle"; None when a bracket is zero."""
    if 0 in (p, p + q, r, r + s):
        return None
    if (p > 0) == (p + q > 0) or (r > 0) == (r + s > 0):
        return "corner"
    return "center" if q * s < 0 else "saddle"


def sink(p, q, r, s):
    """The corner every interior orbit of a corner-class field tends to."""
    if (p > 0) == (p + q > 0):
        x = 1 if p > 0 else 0
        return x, 1 if r + s * x > 0 else 0
    y = 1 if r > 0 else 0
    return 1 if p + q * y > 0 else 0, y
