"""Partitions of the ray space by linear combinations of CS-functions.

A basic function is a tropical linear combination f = sum_j gamma_j CS(Y_j, -)
over a finite anchor set of anisotropic rays.  A finite family of basic
functions partitions the anisotropic ray space into strata: the sets on which
every pairwise comparison f_k vs f_l has a fixed sign.  Restricted to a
closed ray interval the strata appear as consecutive pieces whose boundary
rays (separators) are computed exactly from crossing parameters; endpoint
closures are decided by exact evaluation at the crossing, never by
convention.
"""

from __future__ import annotations

from dataclasses import dataclass

from .csfun import cs_restriction_pm
from .errors import IsotropicArgument, NotStrictPair, VerificationFailed, WitnessNotInStratum
from .pmfunc import PmFunction, sign_runs
from .quadspace import QuadraticPair
from .rays import Ray, RayInterval
from .semifield import INF, ONE, ZERO, TropValue, compare_sign, midpoint, trop_sum

OPPOSITE = {"<": ">", ">": "<", "=": "="}


@dataclass(frozen=True)
class BasicFunction:
    """f = sum_j coeff_j * CS(anchor_j, -); the empty sum is the zero function."""

    terms: tuple  # of (coeff: TropValue, anchor: Ray)

    @classmethod
    def cs(cls, anchor: Ray, coeff: TropValue = ONE) -> "BasicFunction":
        return cls(((coeff, anchor),))

    @classmethod
    def zero(cls) -> "BasicFunction":
        return cls(())

    def eval(self, pair: QuadraticPair, x: Ray) -> TropValue:
        return trop_sum(coeff * pair.cs(anchor.base, x.base)
                        for coeff, anchor in self.terms)

    def anchors(self):
        return tuple(anchor for _, anchor in self.terms)

    def restrict(self, pair: QuadraticPair, eps1, eps2) -> PmFunction:
        """The pm function of lam -> f(pi(lam)); terms with coefficient 0 or
        orthogonal to both base points are the constant zero and drop out."""
        acc = None
        for coeff, anchor in self.terms:
            if coeff.is_zero():
                continue
            piece = cs_restriction_pm(pair, eps1, eps2, anchor.base)
            if piece.is_constant_zero():
                continue
            piece = piece.scale(coeff)
            acc = piece if acc is None else acc.add(piece)
        return acc if acc is not None else PmFunction.constant(ZERO)


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
        signs = tuple(signs)
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
        return "".join(self.signs)

    def __repr__(self) -> str:
        body = ", ".join(f"f{k}{s}f{l}" for (k, l), s in self.pairs())
        return f"<{body}>"

    def is_derivate_of(self, base: "SignVector") -> bool:
        """True when this vector weakens `base`: strict signs may become '='."""
        if self.m != base.m:
            return False
        return all(s == b or (s == "=" and b in "<>")
                   for s, b in zip(self.signs, base.signs))


@dataclass(frozen=True)
class Relaxation:
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
    """Pairwise exact comparison of all family values at the ray x."""
    if pair.eval_q(x.base).is_zero():
        raise IsotropicArgument("sign vectors live on the anisotropic ray space")
    return _sign_vector([f.eval(pair, x) for f in family])


def _sign_vector(values) -> SignVector:
    m = len(values)
    return SignVector(m, [compare_sign(values[k], values[l])
                          for k in range(m) for l in range(k + 1, m)])


@dataclass(frozen=True)
class TracePiece:
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


@dataclass(frozen=True)
class StrataTrace:
    """Ordered strata pieces covering a parameter range, with separator rays.

    boundaries[i] is the (parameter, ray) pair bounding piece i on the left;
    boundaries[i+1] bounds it on the right, so each interior piece satisfies
    ]Z_i, Z_{i+1}[  subset  piece_i  subset  [Z_i, Z_{i+1}].
    """

    interval: RayInterval
    pieces: tuple  # of TracePiece
    boundaries: tuple  # of (TropValue, Ray), length len(pieces) + 1

    def piece_of(self, lam: TropValue) -> TracePiece:
        for piece in self.pieces:
            if piece.contains(lam):
                return piece
        raise ValueError("parameter not covered by the trace")

    def separator_rays(self) -> tuple:
        return tuple(r for _, r in self.boundaries)

    def strata(self) -> tuple:
        return tuple(p.signs for p in self.pieces)


def _trace(pair: QuadraticPair, family, interval: RayInterval,
           drop_zero_end=False, drop_inf_end=False) -> StrataTrace:
    """The family's pieces on the interval, with the rays bounding them.

    Restricts every basic function to the interval, cuts the parameter domain
    at all pairwise crossings, and merges cells with equal sign vectors into
    consecutive pieces.  When an end is dropped (isotropic interval endpoint)
    the adjacent piece opens there and the endpoint itself belongs to no piece.
    """
    eps1, eps2 = interval.y1.base, interval.y2.base
    pms = [f.restrict(pair, eps1, eps2) for f in family]
    m = len(pms)
    pieces = tuple(TracePiece(SignVector(m, tuple(signs)), lo, lo_closed, hi, hi_closed)
                   for lo, lo_closed, hi, hi_closed, signs
                   in sign_runs(pms, not drop_zero_end, not drop_inf_end))
    boundaries = [(ZERO, interval.y1)]
    boundaries += [(piece.lo, interval.pi(piece.lo)) for piece in pieces[1:]]
    boundaries.append((INF, interval.y2))
    return StrataTrace(interval, pieces, tuple(boundaries))


def _assert_sign_monotone(pieces, m):
    """Each pair's sign sequence along the trace is monotone with half-open
    boundary structure; CS-families always satisfy this, so a violation
    here means corrupted inputs."""
    for k in range(m):
        for l in range(k + 1, m):
            signs = [p.signs.sign(k, l) for p in pieces]
            order = {"<": 0, "=": 1, ">": 2}
            ranks = [order[s] for s in signs]
            ascending = all(a <= b for a, b in zip(ranks, ranks[1:]))
            descending = all(a >= b for a, b in zip(ranks, ranks[1:]))
            if not (ascending or descending):
                raise VerificationFailed(
                    f"sign pattern of pair ({k},{l}) is not monotone: {signs}")


def stratify_interval(pair: QuadraticPair, family, interval: RayInterval) -> StrataTrace:
    """Trace of the family's partition on [Y1, Y2] with separating rays."""
    eps1, eps2 = interval.y1.base, interval.y2.base
    if pair.eval_q(eps1).is_zero() or pair.eval_q(eps2).is_zero():
        raise IsotropicArgument("use the isotropy module for isotropic endpoints")
    trace = _trace(pair, family, interval)
    _assert_sign_monotone(trace.pieces, len(family))
    return trace


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
        out.append(SignVector(m, tuple(signs)))
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


def derivate_piece(trace: StrataTrace, t_vec: SignVector,
                   t_prime: SignVector) -> TracePiece | None:
    """The T' piece of a trace that is one T piece followed by one T' piece,
    else None.

    The T' piece is closed at its first ray in case1 and open there in case2.
    """
    pieces = trace.pieces
    if len(pieces) == 2 and pieces[0].signs == t_vec and pieces[1].signs == t_prime:
        return pieces[1]
    return None


def is_direct_derivate(pair: QuadraticPair, family, t_vec: SignVector,
                       t_prime: SignVector, w: Ray, w_prime: Ray) -> str:
    """Decide the boundary case between two strata along [W, W'].

    Returns "case1" when the trace is [W, Z[ in T followed by [Z, W'] in T'
    (T' a direct derivate of T), "case2" for the mirrored closure, and
    "not_neighbors" when the interval meets other strata.
    """
    if t_vec == t_prime:
        raise ValueError("the two strata must be different")
    if sign_vector_at(pair, family, w) != t_vec:
        raise WitnessNotInStratum("W does not satisfy T")
    if sign_vector_at(pair, family, w_prime) != t_prime:
        raise WitnessNotInStratum("W' does not satisfy T'")
    trace = stratify_interval(pair, family, RayInterval(w, w_prime))
    piece = derivate_piece(trace, t_vec, t_prime)
    if piece is None:
        return "not_neighbors"
    return "case1" if piece.lo_closed else "case2"


@dataclass(frozen=True)
class DerivationChart:
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
    recorded when some sampled witness pair certifies case1.  The result is
    deterministic in the sample order; absences mean "not witnessed", not
    "not neighbors".

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
    groups = {}
    order = []
    for x in sample:
        sv = sign_vector_at(pair, family, x)
        if sv not in groups:
            groups[sv] = []
            order.append(sv)
        groups[sv].append(x)
    edges = []
    witnesses = []
    for t_vec in order:
        for t_prime in order:
            if t_vec == t_prime or not t_prime.is_derivate_of(t_vec):
                continue
            found = None
            for w in groups[t_vec]:
                for wp in groups[t_prime]:
                    if is_direct_derivate(pair, family, t_vec, t_prime, w, wp) == "case1":
                        found = (w, wp)
                        break
                if found:
                    break
            if found:
                edges.append((t_vec, t_prime))
                witnesses.append(((t_vec, t_prime), found))
    return DerivationChart(tuple(order), tuple(edges), tuple(witnesses))
