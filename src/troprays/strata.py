"""Partitions of the ray space by linear combinations of CS-functions.

A basic function (:class:`troprays.csfun.BasicFunction`) is a tropical sum
f = sum_j gamma_j CS(Y_j, -) over finitely many anisotropic anchor rays.  A
finite family of them partitions the anisotropic ray space into strata: the
sets on which every pairwise comparison f_k vs f_l has a fixed sign.
Restricted to a closed ray interval the strata appear as consecutive pieces
whose boundary rays (separators) are computed exactly from crossing
parameters; endpoint closures are decided by exact evaluation at the
crossing, never by convention.

Sign vectors are labelled on the integer lattice, one sign per pair in
``SignVector.pair_index`` order, the label string kept as
``SignVector.signs``.  At a ray the family values are ints over one
denominator (``csfun._Bound.values``), labelled by ``pmfunc._signs``; on a
trace the numerator rows share one lattice, and ``pmfunc.row_runs`` reads
each pair only at its own candidate point and zips the pairs' column strings
into the label of each cell of the cut.
Both read the family through one binding (``csfun._Bound``), which keeps
each vector's numerators N(v) per lattice frame: the public
:func:`sign_vector_at` and :func:`stratify_interval` bind per call, a trace
then evaluating q once per distinct vector among eps1, eps2 and the live
anchors, b(eps1, eps2), and b(eps1, w), b(eps2, w) per distinct live anchor
(7 on the M1 family, whose anchors are the ends), and a sign vector q(x)
and q(w), b(w, x) per distinct live anchor; :func:`derivation_chart` binds
once per chart, so a trace between two sampled rays adds only b(eps1, eps2).

A trace compares the numerators N_k of f_k = N_k / q, q = q(eps1 + lam eps2)
the denominator shared by the whole family, and builds no pm function: each
N_k is the two-monomial row max(A_k, B_k lam^2), (A_k, B_k) = (N_k(eps1),
N_k(eps2)) from ``csfun._Bound.numerators``, cut by the int kernel
``pmfunc.row_runs`` at degree 2.  The end rule: the value 0 is labelled with
N_k(0) = A_k, which needs q(eps1) != 0, and the value oo with
N_k lam^-2 = B_k, which needs q(eps2) != 0; a kept end whose endpoint is
isotropic raises IsotropicArgument (the proof is in ``_runs``).
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .csfun import _ZERO_ROW, BasicFunction, _Bound
from .errors import (IsotropicArgument, NotStrictPair, VerificationFailed,
                     WitnessNotInStratum)
from .pmfunc import _signs, row_runs
from .quadspace import QuadraticPair
from .rays import Ray, RayInterval
from .semifield import INF, ONE, ZERO, TropValue, midpoint

OPPOSITE = {"<": ">", ">": "<", "=": "="}


def example_family(pair: QuadraticPair, y1: Ray, y2: Ray) -> tuple:
    """The canonical family over an interval: 0, CS(Y1,-), CS(Y2,-), and,
    when CS(Y1,Y2) > e, the two rescaled copies CS(Yi,-)/CS(Y1,Y2)."""
    c = pair.cs(y1.base, y2.base)
    family = [BasicFunction.zero(), BasicFunction.cs(y1), BasicFunction.cs(y2)]
    if c > ONE:
        family.append(BasicFunction.cs(y1, c.inverse()))
        family.append(BasicFunction.cs(y2, c.inverse()))
    return tuple(family)


class SignVector:
    """Signs of all pairwise comparisons f_k vs f_l (k < l) of a family."""

    __slots__ = ("m", "signs")

    def __init__(self, m: int, signs):
        signs = "".join(signs)
        if len(signs) != m * (m - 1) // 2:
            raise ValueError("wrong number of pairwise signs")
        self.m = m
        self.signs = signs

    @staticmethod
    def pair_index(m: int, k: int, l: int) -> int:
        if not 0 <= k < l < m:
            raise ValueError("need 0 <= k < l < m")
        return k * (2 * m - k - 1) // 2 + (l - k - 1)

    def sign(self, k: int, l: int) -> str:
        if k < l:
            return self.signs[self.pair_index(self.m, k, l)]
        return OPPOSITE[self.signs[self.pair_index(self.m, l, k)]]

    def pairs(self):
        for k in range(self.m):
            for l in range(k + 1, self.m):
                yield (k, l), self.sign(k, l)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignVector):
            return NotImplemented
        return self.m == other.m and self.signs == other.signs

    def __hash__(self):
        return hash((self.m, self.signs))

    def __str__(self) -> str:
        return self.signs

    def __repr__(self) -> str:
        body = ", ".join(f"f{k}{s}f{l}" for (k, l), s in self.pairs())
        return f"<{body}>"

    def is_derivate_of(self, base: "SignVector") -> bool:
        """True when this vector weakens `base`: strict signs may become '='."""
        if self.m != base.m:
            return False
        return all(s == b or (s == "=" and b in "<>")
                   for s, b in zip(self.signs, base.signs))


class Relaxation(NamedTuple):
    """A sign vector with some strict signs weakened to '<=', '>='."""

    m: int
    signs: tuple  # entries in {"<", "=", ">", "<=", ">="}

    def satisfied_by(self, sv: SignVector) -> bool:
        if sv.m != self.m:
            return False
        for s, r in zip(sv.signs, self.signs):
            if r in ("<", "=", ">"):
                if s != r:
                    return False
            elif r == "<=":
                if s not in ("<", "="):
                    return False
            elif s not in (">", "="):
                return False
        return True

    def __str__(self) -> str:
        return ",".join(self.signs)


def sign_vector_at(pair: QuadraticPair, family, x: Ray) -> SignVector:
    """Pairwise exact comparison of all family values at the ray x.

    The values are compared as ints on one lattice (the zero below every
    finite value); an isotropic x or anchor raises IsotropicArgument.
    """
    return _sign_vector(_Bound(pair, family), x)


def _sign_vector(bound: _Bound, x: Ray) -> SignVector:
    """:func:`sign_vector_at` through a bound family."""
    nums, _ = bound.values(x.base)
    low = min([n for n in nums if n is not None], default=0) - 1
    return SignVector(len(nums), _signs([low if n is None else n for n in nums]))


def _strata_of(bound: _Bound, rays) -> dict:
    """The rays grouped by their sign vectors through a bound family:
    {sign vector: [rays]}, the vectors and each group's rays in first-seen
    order."""
    groups = {}
    for x in rays:
        groups.setdefault(_sign_vector(bound, x), []).append(x)
    return groups


class TracePiece(NamedTuple):
    signs: SignVector
    lo: TropValue
    lo_closed: bool
    hi: TropValue
    hi_closed: bool

    def is_singleton(self) -> bool:
        return self.lo == self.hi

    def contains(self, lam: TropValue) -> bool:
        if lam == self.lo:
            return self.lo_closed
        if lam == self.hi:
            return self.hi_closed
        return self.lo < lam < self.hi

    def interior_point(self) -> TropValue:
        if self.is_singleton():
            return self.lo
        return midpoint(self.lo, self.hi)

    def __str__(self) -> str:
        lb = "[" if self.lo_closed else "]"
        rb = "]" if self.hi_closed else "["
        return f"{lb}{self.lo}, {self.hi}{rb} {self.signs}"


class StrataTrace(NamedTuple):
    """Ordered strata pieces covering a parameter range, with separator rays.

    boundaries[i] is the (parameter, ray) pair bounding piece i on the left;
    boundaries[i+1] bounds it on the right, so each interior piece satisfies
    ]Z_i, Z_{i+1}[  subset  piece_i  subset  [Z_i, Z_{i+1}].
    """

    interval: RayInterval
    pieces: tuple  # of TracePiece
    boundaries: tuple  # of (TropValue, Ray), length len(pieces) + 1

    def separator_rays(self) -> tuple:
        return tuple(r for _, r in self.boundaries)


def _runs(bound: _Bound, interval: RayInterval,
          drop_zero_end=False, drop_inf_end=False) -> tuple:
    """(m, runs): the family's size m and its maximal runs of constant
    pairwise signs on the interval, (lo, lo_closed, hi, hi_closed, label) as
    ``pmfunc.row_runs`` gives them, each label the pairs' signs as one string.

    Reads every numerator row and cuts the parameter domain at the rows'
    candidate points.  A dropped end (isotropic endpoint) opens the adjacent
    run and belongs to no run; a kept isotropic end raises IsotropicArgument.
    Every run list, with dropped ends or not, runs :func:`_assert_sign_monotone`.

    The signs are read off the numerators N_k = max(A_k, B_k lam^2) of
    f_k = N_k / q, never off the ratios, and that loses nothing.  Claim:
    with q(lam) = a1 + a12 lam + a2 lam^2 the shared denominator, f_k vs f_l
    has the sign of N_k vs N_l at every lam in ]0, oo[, at lam = 0 when
    a1 != 0, and at lam = oo when a2 != 0 if N_k, N_l are read there through
    their last monomials divided by lam^2.  Proof: on ]0, oo[ the value q(lam)
    is the maximum of the three monomials, finite and nonzero unless
    a1 = a12 = a2 = 0; then every function is 0 / 0 and only all-zero
    numerators are admitted (else IsotropicArgument).  Dividing two values by
    one finite nonzero value keeps their order, so the signs agree there.  At
    0, q(0) = a1 is finite and nonzero, so f_k(0) = N_k(0) / a1 and the same
    argument applies.  At oo the last monomial of q is a2 lam^2 with a2 != 0,
    and the last monomial c lam^k of N_k gives f_k(oo) = lim c lam^(k-2) / a2:
    0, c / a2 or oo as k - 2 is negative, zero or positive.  That is the value
    of N_k lam^-2 at oo scaled by the one constant 1 / a2, which keeps every
    order; as k is 2 when B_k is nonzero and 0 otherwise, it is B_k or the
    zero, which is how ``row_runs`` reads oo at degree 2.  The labels thus
    agree at every kept point, so the maximal runs and the separators at their
    ends are those of the ratios.  Inside, one sign per pair and open stretch
    is exact by the kernel's candidate-point lemma: every zero of N_i - N_j
    that is isolated or ends an interval of agreement is among the points
    (A_i - B_j)/2.
    """
    rows, den, (a1, a12, a2) = bound.numerators(interval.y1.base, interval.y2.base)
    if (not drop_zero_end and a1 is None) or (not drop_inf_end and a2 is None):
        raise IsotropicArgument("use the isotropy module for isotropic endpoints")
    if (a1 is None and a12 is None and a2 is None
            and not all(row == _ZERO_ROW for row in rows)):
        raise IsotropicArgument("q vanishes along the whole interval")
    m = len(rows)
    runs = row_runs(rows, den, 2, not drop_zero_end, not drop_inf_end)
    _assert_sign_monotone([run[4] for run in runs], m)
    return m, runs


def _trace(bound: _Bound, interval: RayInterval,
           drop_zero_end=False, drop_inf_end=False) -> StrataTrace:
    """The runs of :func:`_runs` as pieces, with one separator ray formed
    per parameter where pieces meet."""
    m, runs = _runs(bound, interval, drop_zero_end, drop_inf_end)
    pieces = tuple(TracePiece(SignVector(m, signs), lo, lo_closed, hi, hi_closed)
                   for lo, lo_closed, hi, hi_closed, signs in runs)
    # a one-point piece and the piece after it start at one parameter: one ray
    inner, last = [], None
    for piece in pieces[1:]:
        if last is None or last[0] != piece.lo:
            last = (piece.lo, interval.pi(piece.lo))
        inner.append(last)
    return StrataTrace(interval, pieces, ((ZERO, interval.y1), *inner, (INF, interval.y2)))


def _boundary(bound: _Bound, interval: RayInterval, t_vec: SignVector,
              t_prime: SignVector) -> tuple | None:
    """(closed, (lam, Z)) when the interval's trace is one T piece then one T'
    piece, else None: Z is the T' piece's first ray, which it holds (`closed`,
    case1) or not (case2).  Read straight off the runs: the one separator is
    formed only when the run labels are exactly T then T'."""
    _, runs = _runs(bound, interval)
    if len(runs) != 2 or runs[0][4] != t_vec.signs or runs[1][4] != t_prime.signs:
        return None
    return runs[1][1], (runs[1][0], interval.pi(runs[1][0]))


_MONOTONE = re.compile(r"<*=*>*|>*=*<*")
_ALL_MONOTONE = re.compile(rf"(?:{_MONOTONE.pattern})(?:,(?:{_MONOTONE.pattern}))*")


def _assert_sign_monotone(labels, m):
    """Each pair's sign sequence along the run labels is monotone with
    half-open boundary structure (its column string matches
    ``<*=*>*|>*=*<*``); CS-families always satisfy this, so a violation here
    means corrupted inputs.  The columns are matched as one ``,``-joined
    string; only a failed match walks the pairs to name the first failing
    one."""
    # column i holds the signs of pair i (in pair_index order) along the runs
    columns = list(map("".join, zip(*labels)))
    if _ALL_MONOTONE.fullmatch(",".join(columns)) is not None:
        return
    pairs = ((k, l) for k in range(m) for l in range(k + 1, m))
    for (k, l), signs in zip(pairs, columns):
        if _MONOTONE.fullmatch(signs) is None:
            raise VerificationFailed(
                f"sign pattern of pair ({k},{l}) is not monotone: {list(signs)}")


def stratify_interval(pair: QuadraticPair, family, interval: RayInterval) -> StrataTrace:
    """Trace of the family's partition on [Y1, Y2] with separating rays."""
    return _trace(_Bound(pair, family), interval)


def relaxation_components(t_vec: SignVector, relaxed, realized=None):
    """Sign vectors obtained by keeping or equalizing each relaxed strict pair.

    `relaxed` is an iterable of index pairs (k, l); each must carry a strict
    sign in `t_vec`.  When `realized` (a collection of observed sign vectors)
    is given, only combinatorial components realized there are kept.
    """
    relaxed = list(relaxed)
    m = t_vec.m
    idxs = []
    for k, l in relaxed:
        if k > l:
            k, l = l, k
        i = SignVector.pair_index(m, k, l)
        if t_vec.signs[i] == "=":
            raise NotStrictPair(f"pair ({k},{l}) is not strict in the base type")
        idxs.append(i)
    out = []
    for mask in range(1 << len(idxs)):
        signs = list(t_vec.signs)
        for bit, i in enumerate(idxs):
            if mask >> bit & 1:
                signs[i] = "="
        out.append(SignVector(m, signs))
    seen = set()
    unique = [sv for sv in out if not (sv in seen or seen.add(sv))]
    if realized is not None:
        realized = set(realized)
        unique = [sv for sv in unique if sv in realized]
    return unique


def minimal_relaxation(t_vec: SignVector, t_prime: SignVector) -> Relaxation | None:
    """The unique minimal relaxation of T having T' as a component.

    Exists exactly when T' is a derivate of T: pairs agreeing keep their
    sign; pairs strict in T but '=' in T' weaken to '<=' or '>='.
    """
    if not t_prime.is_derivate_of(t_vec):
        return None
    signs = []
    for s, sp in zip(t_vec.signs, t_prime.signs):
        if s == sp:
            signs.append(s)
        else:
            signs.append("<=" if s == "<" else ">=")
    return Relaxation(t_vec.m, tuple(signs))


def is_direct_derivate(pair: QuadraticPair, family, t_vec: SignVector,
                       t_prime: SignVector, w: Ray, w_prime: Ray) -> str:
    """Decide the boundary case between two strata along [W, W'].

    Returns "case1" when the trace is [W, Z[ in T followed by [Z, W'] in T'
    (T' a direct derivate of T), "case2" for the mirrored closure, and
    "not_neighbors" when the interval meets other strata.
    """
    if t_vec == t_prime:
        raise ValueError("the two strata must be different")
    bound = _Bound(pair, family)
    if _sign_vector(bound, w) != t_vec:
        raise WitnessNotInStratum("W does not satisfy T")
    if _sign_vector(bound, w_prime) != t_prime:
        raise WitnessNotInStratum("W' does not satisfy T'")
    entry = _boundary(bound, RayInterval(w, w_prime), t_vec, t_prime)
    if entry is None:
        return "not_neighbors"
    return "case1" if entry[0] else "case2"


class DerivationChart(NamedTuple):
    """Directed graph of certified direct derivations among sampled strata."""

    nodes: tuple  # of SignVector, in first-seen order
    edges: tuple  # of (SignVector, SignVector)
    witnesses: tuple  # of ((T, T'), (W, W')) certificates matching edges

    def successors(self, node: SignVector):
        return tuple(b for a, b in self.edges if a == node)

    def to_dot(self) -> str:
        names = {node: f"T{idx}" for idx, node in enumerate(self.nodes)}
        lines = ["digraph derivations {"]
        for node in self.nodes:
            lines.append(f'  {names[node]} [label="{node}"];')
        for a, b in self.edges:
            lines.append(f"  {names[a]} -> {names[b]};")
        lines.append("}")
        return "\n".join(lines)


def derivation_chart(pair: QuadraticPair, family, sample) -> DerivationChart:
    """Chart of direct derivations realized by a finite sample of rays.

    Nodes are the sign vectors realized by the sample; an edge T -> T' is
    recorded when some sampled witness pair certifies case1.  Every sign
    vector and trace reads one binding of the family (``csfun._Bound``).
    The result is deterministic in the sample order; absences mean "not
    witnessed", not "not neighbors".

    Only ordered pairs with T' a derivate of T (:meth:`SignVector.is_derivate_of`)
    are tried, which loses no edge.  Lemma: a case1 certificate T -> T' forces
    T' to be a derivate of T.  Proof: the trace of [W, W'] is [0, Z[ in T
    followed by [Z, oo] in T', and [0, Z[ is not empty because it holds 0, so
    Z > 0 is a limit of parameters in T.  Every basic function restricts to a
    pm function, which is continuous in the parameter on [0, oo] (at a finite
    Z both functions are monomials on some [Z', Z], at Z = oo their values are
    the limits of their last monomials).  Take a pair (k, l).  If T has
    f_k < f_l, the inequality holds on [0, Z[ and its limit at Z gives
    f_k <= f_l there, so the sign of the pair in T' is '<' or '='; '>' is
    symmetric.  If T has f_k = f_l, equality passes to the limit, so T' has
    '=' as well.  Every sign of T' thus equals that of T or is '=' where T is
    strict, which is what is_derivate_of tests.
    """
    bound = _Bound(pair, family)
    groups = _strata_of(bound, sample)
    edges = []
    witnesses = []
    for t_vec in groups:
        for t_prime in groups:
            if t_vec == t_prime or not t_prime.is_derivate_of(t_vec):
                continue
            found = None
            for w in groups[t_vec]:
                for wp in groups[t_prime]:
                    entry = _boundary(bound, RayInterval(w, wp), t_vec, t_prime)
                    if entry is not None and entry[0]:
                        found = (w, wp)
                        break
                if found:
                    break
            if found:
                edges.append((t_vec, t_prime))
                witnesses.append(((t_vec, t_prime), found))
    return DerivationChart(tuple(groups), tuple(edges), tuple(witnesses))
