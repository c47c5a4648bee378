"""Reference evaluator for the benchmark's checks, independent of troprays.

Values are kept in log scale as plain ``fractions.Fraction`` exponents, with
``None`` for the semifield zero and :data:`INF` for oo.  Addition is the
maximum and multiplication adds exponents, so every quantity below is the
textbook max-plus formula evaluated on the model's raw Gram exponents:

    q(x)     = max(alpha_i + 2 x_i, beta_ij + x_i + x_j  (i < j))
    b(x, y)  = max(beta_ij + x_i + y_j)
    CS(x, y) = 2 b(x, y) - q(x) - q(y)
    pi(lam)  = eps1 + lam * eps2   (coordinatewise max(eps1_i, lam + eps2_i))

Nothing here imports ``troprays``: program values enter only through their
text encoding ("p/q", "-inf", "+inf"), which :func:`parse` reads.
"""

from __future__ import annotations

from fractions import Fraction

INF = "+inf"  # the value oo; only ever a parameter, never a coordinate
SIGNS = "<=>"


def parse(text):
    """Read the text encoding of a semifield value."""
    text = str(text).strip()
    if text == "-inf":
        return None
    if text in ("+inf", "inf"):
        return INF
    return Fraction(text)


def show(value) -> str:
    """The text encoding of a value, as the program prints it."""
    if value is None:
        return "-inf"
    if value == INF:
        return "+inf"
    return str(value)


def vector(items) -> tuple:
    """A coordinate vector from text values; oo is not a coordinate."""
    out = tuple(parse(v) for v in items)
    if INF in out:
        raise ValueError("vector coordinates must lie in [0, oo[")
    return out


class Model:
    """Gram data: diagonal alpha_i = q(e_i) and symmetric beta_ij = b(e_i, e_j)."""

    def __init__(self, q_diag, b_rows):
        self.q_diag = vector(q_diag)
        self.b = tuple(vector(row) for row in b_rows)
        self.dim = len(self.q_diag)
        if len(self.b) != self.dim or any(len(r) != self.dim for r in self.b):
            raise ValueError("Gram data sizes do not match")

    def q(self, x):
        best = None
        n = self.dim
        for i in range(n):
            if x[i] is None:
                continue
            best = maximum(best, _sum(self.q_diag[i], x[i], x[i]))
            for j in range(i + 1, n):
                if x[j] is not None:
                    best = maximum(best, _sum(self.b[i][j], x[i], x[j]))
        return best

    def bil(self, x, y):
        best = None
        for i in range(self.dim):
            for j in range(self.dim):
                best = maximum(best, _sum(self.b[i][j], x[i], y[j]))
        return best

    def cs(self, x, y):
        """CS(x, y); both arguments must be anisotropic."""
        qx, qy = self.q(x), self.q(y)
        if qx is None or qy is None:
            raise ValueError("CS-ratio needs anisotropic arguments")
        bxy = self.bil(x, y)
        return None if bxy is None else 2 * bxy - qx - qy

    def basic(self, terms, x):
        """sum_j coeff_j CS(anchor_j, x); `terms` holds (coeff, anchor vector)."""
        best = None
        for coeff, anchor in terms:
            value = self.cs(anchor, x)
            if value is not None and coeff is not None:
                best = maximum(best, coeff + value)
        return best

    def signs(self, family, x) -> str:
        """Pairwise signs f_k vs f_l (k < l) at x, in the program's order."""
        values = [self.basic(terms, x) for terms in family]
        m = len(values)
        return "".join(compare(values[k], values[l])
                       for k in range(m) for l in range(k + 1, m))


def _sum(*parts):
    """Max-plus product of finite-or-zero values."""
    total = 0
    for p in parts:
        if p is None:
            return None
        total += p
    return total


def maximum(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a if a >= b else b


def rank(value):
    if value is None:
        return (0, 0)
    if value == INF:
        return (2, 0)
    return (1, value)


def compare(a, b) -> str:
    ra, rb = rank(a), rank(b)
    return "<" if ra < rb else (">" if ra > rb else "=")


def less(a, b) -> bool:
    return rank(a) < rank(b)


def add(x, y):
    return tuple(maximum(a, b) for a, b in zip(x, y))


def scale(lam, x):
    if lam == INF:
        raise ValueError("scalars must lie in [0, oo[")
    return tuple(_sum(lam, c) for c in x)


def pi(eps1, eps2, lam):
    """A vector on the ray pi(lam) = ray(eps1 + lam eps2)."""
    if lam is None:
        return eps1
    if lam == INF:
        return eps2
    return add(eps1, scale(lam, eps2))


def canonical(x):
    """The representative of the ray of x whose largest coordinate is e."""
    top = None
    for c in x:
        top = maximum(top, c)
    if top is None:
        raise ValueError("the zero vector has no ray")
    return tuple(None if c is None else c - top for c in x)


def midpoint(a, b):
    """A parameter strictly between a < b, as the program's trace uses it."""
    if a is None:
        return Fraction(0) if b == INF else b - 1
    if b == INF:
        return a + 1
    return (a + b) / 2
