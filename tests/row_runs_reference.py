"""The trace kernel as it stood before it cut each pair of rows at its own
candidate points, frozen for differential tests.

``row_runs``, ``_cut``, ``_probe``, ``_Runs`` and ``_signs`` are
troprays.pmfunc's, and ``_assert_sign_monotone`` is troprays.strata's, as
they stood then: every cell of the global cut is probed and every pair is
labelled there.  tests/test_pm_lattice.py and tests/test_strata.py require
the library to give the same runs and to name the same failing pair.  Keep
it unchanged; it is the reference, not library code.
"""

import re

from troprays.errors import VerificationFailed
from troprays.semifield import INF, ZERO, _value


def row_runs(rows, den: int, degree: int, zero_end: bool = True,
             inf_end: bool = True) -> list:
    """Maximal runs of constant pairwise signs of two-monomial rows along [0, oo].

    A row (A, B) of ints over `den` is N(lam) = max(t^(A/den),
    t^(B/den) lam^degree), degree > 0: in log scale the constant A and the
    line B + degree x; A or B is None for the zero, (None, None) is the zero
    function.  The runs have the form of :func:`sign_runs`.  At oo each row
    is read divided by lam^degree, as B, so the runs are those of the ratios
    N_k / p for any pm function p finite and nonzero on ]0, oo[ (and at 0
    with `zero_end`) with degree `degree` at oo.

    Candidate lemma: every isolated zero of N_i - N_j and every end of an
    interval where they agree is a point x = (A_i - B_j)/degree, i and j in
    either order, where N_i = A_i and N_j = B_j + degree x.  Proof: at x both
    take one value v, each through its constant or its line.  If one goes
    through its constant and the other through its line, x is that point.
    If both go through their constants (lines), they agree near x unless one
    of them leaves its constant (line) at x; by continuity its line
    (constant) takes v there too, so x is that point again.  Each pair thus
    keeps one sign on each open cell between consecutive candidates: it
    agrees on the whole cell or nowhere in it.  Over den the candidate is
    the int A_i - B_j on the lattice degree * den, and at a point or probe v
    over twice that lattice a row is max(2A, 2B + v): two ints per row.
    """
    points = set()
    for i, (a, b) in enumerate(rows):
        for c, e in rows[i + 1:]:
            # the constant of one row meets the line of the other, both maxima
            if (a is not None and e is not None
                    and (b is None or b <= e) and (c is None or c <= a)):
                points.add(a - e)
            if (c is not None and b is not None
                    and (e is None or e <= b) and (a is None or a <= c)):
                points.add(c - b)
    points = sorted(points)
    # a zero monomial is -far, and -far + v stays below every row at every v
    reach = 2 * max([abs(p) for p in points], default=0) + 2
    far = 1 + 2 * max([abs(v) for row in rows for v in row if v is not None], default=0) \
        + 2 * reach
    table = [(-far if a is None else 2 * a, -far if b is None else 2 * b) for a, b in rows]

    def at(v):
        return _signs([a if a > b + v else b + v for a, b in table])

    def at_end(j):
        # j = 0 at 0 reads the constants, j = -1 at oo the lines over lam^degree
        return _signs([row[j] for row in table])

    return _cut(points, degree * den, at, at_end, zero_end, inf_end)


def _cut(points, den, at, at_end, zero_end, inf_end) -> list:
    """The runs of the labels along [0, oo] cut at the sorted int `points`
    over `den`: `at(v)` labels the point or probe v over 2 den, `at_end(0)`
    and `at_end(-1)` the ends 0 and oo, read only when kept."""
    n = len(points)
    runs = _Runs()
    if zero_end:
        runs.cell(0, at_end(0), 0, True)
    for i in range(n + 1):
        b = points[i] if i < n else None
        runs.cell(i + 1, at(_probe(points[i - 1] if i else None, b)), i, False)
        if b is not None:
            runs.cell(i + 1, at(2 * b), i + 1, True)
    if inf_end:
        runs.cell(n + 1, at_end(-1), n + 1, True)
    bounds = [ZERO, *[_value(p, den) for p in points], INF]
    return [(bounds[lo], lc, bounds[hi], hc, label) for lo, lc, hi, hc, label in runs]


def _signs(values) -> str:
    """The pairwise signs "<", "=", ">" of values[k] against values[l], k < l,
    ordered by k, then l."""
    return "".join(["=><"[(a > b) - (a < b)]
                    for k, a in enumerate(values) for b in values[k + 1:]])


class _Runs(list):
    """Runs [lo, lo_closed, hi, hi_closed, label] of cells appended from 0 to
    oo; a cell with the label of the last run extends that run.

    The one builder of every result: sign runs label point and open cells
    with signs; pm results label open cells with monomials (c, k) and need
    only the right ends, so equal neighbours merge and the result comes out
    normal.
    """

    __slots__ = ()

    def cell(self, hi, label, lo=None, closed=False):
        if self and self[-1][4] == label:
            run = self[-1]
            run[2] = hi
            run[3] = closed
        else:
            self.append([lo, closed, hi, closed, label])


def _probe(a, b) -> int:
    """A point of ]a, b[ over the doubled lattice; a = None is 0, b = None oo."""
    if a is None:
        return 0 if b is None else 2 * b - 2
    return 2 * a + 2 if b is None else a + b


_MONOTONE = re.compile(r"<*=*>*|>*=*<*")


def _assert_sign_monotone(labels, m):
    """Each pair's sign sequence along the run labels is monotone with
    half-open boundary structure (its column string matches
    ``<*=*>*|>*=*<*``); CS-families always satisfy this, so a violation here
    means corrupted inputs."""
    pairs = ((k, l) for k in range(m) for l in range(k + 1, m))
    # column i holds the signs of pair i (in pair_index order) along the runs
    for (k, l), signs in zip(pairs, zip(*labels)):
        if _MONOTONE.fullmatch("".join(signs)) is None:
            raise VerificationFailed(
                f"sign pattern of pair ({k},{l}) is not monotone: {list(signs)}")
