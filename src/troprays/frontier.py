"""Entrances, sectors, junctions, butterflies, and the alternating junction process.

Throughout, T' is a direct derivate of T (a case1 certificate exists): any
path from a ray of T to a ray of T' stays inside the union of the two strata
and enters T' at a unique first ray, its entrance ray.  The sector of W is
the set of entrance candidates reachable from W without leaving T.  The
junction process alternates entrance computations from two source rays and
either stops with a common entrance (a junction) or keeps producing strictly
growing step scalars; the iteration budget bounds the search and a budget
exhaustion is reported as "no stop within N", never as a proven gorge.

The pool-restricted operators L and S form a Galois connection, so the
saturation identities LSL = L and SLS = S hold exactly on pools.

:func:`scenarios` is the one seeded source of random frontier scenarios:
strata T, T' of a fixed family with two rays of T and one of T', grouped
through the yielded pair's binding.
"""

from __future__ import annotations

from typing import NamedTuple

from .csfun import BasicFunction, _Bound
from .errors import (NoEntrance, NotRegular, TropraysError, VerificationFailed,
                     WitnessNotInStratum)
from .quadspace import QuadraticPair, Vector
from .rays import Ray, RayInterval
from .semifield import ZERO, TropValue
from .strata import SignVector, _boundary, _sign_vector, _strata_of

SCALE_BUDGET = 24  # representatives of z tried by FrontierPair.construct_butterfly
_MISS = object()  # a memo's answer for a key it has not seen
DRY_MODELS = 1000  # models in a row without a scenario before scenarios() gives up


def regularity_bounds(pair: QuadraticPair, anchors, z: Vector, w: Vector,
                      w_prime: Vector):
    """Explicit (c, d) with q(z + mu w + lam w') = q(z) and
    b(z + mu w + lam w', y_j) = b(z, y_j) for all lam <= c, mu <= d.

    Requires b(y_j, z) > 0 for every anchor (z is regular for the family).
    The coupling term mu*lam*b(w,w') is decoupled conservatively by imposing
    the square-root bound on both scalars.  Divisions by zero read as oo.
    """
    qz = pair.eval_q(z)
    if qz.is_zero():
        raise NotRegular("z must be anisotropic")
    bzy = [pair.eval_b(y.base, z) for y in anchors]  # b(z, y_j), read once
    if any(b.is_zero() for b in bzy):
        raise NotRegular("b(y, z) = 0 for an anchor: z is not regular")
    coupling = (qz / pair.eval_b(w, w_prime)).sqrt()

    def direction_bound(v: Vector) -> TropValue:
        bound = (qz / pair.eval_q(v)).sqrt()
        bound = min(bound, qz / pair.eval_b(z, v))
        bound = min(bound, coupling)
        for y, b in zip(anchors, bzy):
            bound = min(bound, b / pair.eval_b(v, y.base))
        return bound

    return direction_bound(w_prime), direction_bound(w)


class JunctionStep(NamedTuple):
    k: int
    lam: TropValue          # step scalar lambda_k (lambda_0 = 0 formally)
    ray: Ray                # Z_k
    vector: Vector          # z_k = z_0 + (even maxima) w + (odd maxima) w'


class JunctionReport(NamedTuple):
    outcome: str            # "junction" | "gorge" | "limit_junction"
    ray: Ray | None
    steps: int
    trace: tuple            # of JunctionStep
    sigma: TropValue        # running maximum of even-index scalars
    tau: TropValue          # running maximum of odd-index scalars
    stop_criterion_held: bool


class ButterflyResult(NamedTuple):
    w: Ray
    w1: Ray
    z: Ray
    z1: Ray
    c: TropValue
    d: TropValue


class FrontierPair:
    """A certified neighbor pair (T, T') with T' a direct derivate of T."""

    def __init__(self, pair: QuadraticPair, family, t_vec: SignVector,
                 t_prime: SignVector):
        self.pair = pair
        self.family = family
        self.t = t_vec
        self.t_prime = t_prime
        self._bound = _Bound(pair, family)  # numerators per vector, for signs and boundaries
        self._signs = {}   # sign memo: ray.rep -> sign vector, whatever the pointed base
        self._boundaries = {}  # (y1.base, y2.base) -> derivate boundary for (T, T'), or None
        self._relations = {}  # (U_pool, P_pool) -> _Relation, see _galois
        self._last = None, None  # the pools and relation of the last _galois query

    @classmethod
    def of_rays(cls, pair, family, w: Ray, u: Ray) -> "FrontierPair":
        """T the stratum of W and T' that of U, read through the pair's binding."""
        fp = cls(pair, family, None, None)
        fp.t, fp.t_prime = fp._sign(w), fp._sign(u)
        return fp

    @classmethod
    def certify(cls, pair, family, w: Ray, w_prime: Ray) -> "FrontierPair":
        """Build from witness rays, requiring a case1 certificate, whose
        boundary of [W, W'] stays memoised for the entrance of W' from W."""
        fp = cls.of_rays(pair, family, w, w_prime)
        if fp.t == fp.t_prime:
            raise ValueError("the two strata must be different")
        entry = fp._boundary_of(w, w_prime)
        if entry is None or not entry[0]:
            case = "not_neighbors" if entry is None else "case2"
            raise VerificationFailed(f"witnesses certify {case}, not case1")
        return fp

    # -- entrances and sectors, read off the sign and boundary memos ---------------

    def _sign(self, x: Ray) -> SignVector:
        """The sign vector of x, memoised by its canonical representative."""
        sv = self._signs.get(x.rep)
        if sv is None:
            sv = self._signs[x.rep] = _sign_vector(self._bound, x)
        return sv

    def _boundary_of(self, y1: Ray, y2: Ray):
        """The derivate boundary of [Y1, Y2] for (T, T') (``strata._boundary``),
        memoised with None answers included.  The key is the pair of pointed
        bases, not of rays: the separator's parameter depends on the scale of
        eps1 and eps2."""
        key = (y1.base, y2.base)
        entry = self._boundaries.get(key, _MISS)
        if entry is _MISS:
            entry = self._boundaries[key] = _boundary(
                self._bound, RayInterval(y1, y2), self.t, self.t_prime)
        return entry

    def entrance_data(self, w: Ray, u: Ray):
        """Entrance ray of [W, U] into T' plus its interval parameter.

        Requires the trace of [W, U] to be exactly a half-open T piece followed
        by a closed T' piece (case1), whose separator is the entrance; anything
        else raises NoEntrance.
        """
        if self._sign(w) != self.t:
            raise WitnessNotInStratum("W does not satisfy T")
        if u == w:
            raise NoEntrance("U is W itself")
        entry = self._boundary_of(w, u)
        if entry is None:
            raise NoEntrance("trace of [W,U] is not a T piece followed by a T' piece")
        closed, (lam, z) = entry
        if not closed:
            raise NoEntrance("boundary case2: T' piece is open at its first ray")
        return z, lam

    def entrance_ray(self, w: Ray, u: Ray) -> Ray:
        return self.entrance_data(w, u)[0]

    def sector_member(self, w: Ray, z: Ray) -> bool:
        """Z in the sector of W: Z satisfies T' and [W, Z[ lies entirely in T.
        Read off the sign and boundary memos; the answer depends on the two
        rays only, whatever their pointed bases."""
        if self._sign(w) != self.t:
            raise WitnessNotInStratum("W does not satisfy T")
        if self._sign(z) != self.t_prime:
            return False
        entry = self._boundary_of(w, z)
        # the T' piece may be a fat parameter interval when the fiber of Z
        # under pi is; membership asks that its rays all equal Z
        return entry is not None and entry[0] and entry[1][1] == z

    def is_junction(self, w: Ray, w_prime: Ray, z: Ray) -> bool:
        """Z lies in the sectors of both W and W'."""
        return self.sector_member(w, z) and self.sector_member(w_prime, z)

    def is_butterfly(self, w: Ray, w_prime: Ray, z: Ray, z_prime: Ray) -> bool:
        """Two different rays Z, Z' are both junctions of W and W'."""
        return (z != z_prime and self.is_junction(w, w_prime, z)
                and self.is_junction(w, w_prime, z_prime))

    # -- the junction process ---------------------------------------------------

    def junction_process(self, w: Ray, w_prime: Ray, u: Ray,
                         max_iter: int = 256) -> JunctionReport:
        """Alternate entrance rays from W and W' per the step recurrences.

        z_{k+1} = z_k + lambda_{k+1} * (w' on odd steps, w on even steps),
        where lambda_{k+1} is the reciprocal of the entrance parameter of
        [source, Z_k].  Stops with a junction at the first repeated ray;
        the scalar criterion lambda_{k+2} <= lambda_k is then re-verified.
        """
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        for src in (w, w_prime):
            if self._sign(src) != self.t:
                raise WitnessNotInStratum("source rays must lie in T")
        z_ray, _ = self.entrance_data(w, u)
        sigma, tau = ZERO, ZERO
        trace = [JunctionStep(0, ZERO, z_ray, z_ray.base)]
        sources = (w, w_prime)  # step k perturbs by sources[k % 2]

        def next_scalar(k: int, z_k: Ray) -> TropValue:
            _, mu = self.entrance_data(sources[k % 2], z_k)
            return mu.inverse()

        for k in range(1, max_iter + 1):
            z_k = trace[-1].ray  # pointed at the vector z_k
            lam = next_scalar(k, z_k)
            step_vec = z_k.base + lam * sources[k % 2].base
            step_ray = Ray(step_vec)
            if k % 2:
                tau = max(tau, lam)
            else:
                sigma = max(sigma, lam)
            trace.append(JunctionStep(k, lam, step_ray, step_vec))
            if step_ray == z_k:
                # ray repeated: the scalar stop criterion lambda_{k+2} <= lambda_k
                # must hold from the now-stationary vector; verify, don't trust
                lam_two_ahead = next_scalar(k + 2, step_ray)
                held = lam_two_ahead <= lam
                junction = step_ray
                if not self.is_junction(w, w_prime, junction):
                    raise VerificationFailed("stopped ray fails the junction test")
                return JunctionReport("junction", junction, k - 1, tuple(trace),
                                      sigma, tau, held)
        # budget exhausted: evaluate the limit candidate of the partial maxima
        z_inf = trace[0].vector + sigma * w.base + tau * w_prime.base
        limit = Ray(z_inf)
        if (self._sign(limit) == self.t_prime
                and self.is_junction(w, w_prime, limit)):
            return JunctionReport("limit_junction", limit, max_iter,
                                  tuple(trace), sigma, tau, False)
        return JunctionReport("gorge", None, max_iter, tuple(trace),
                              sigma, tau, False)

    # -- butterflies -----------------------------------------------------------------

    def construct_butterfly(self, w: Ray, w_prime: Ray, u: Ray) -> ButterflyResult:
        """Entrance plus regularity bounds yield a candidate quadruple, which
        is then re-verified against the butterfly definition by direct
        stratification; sufficiency of the bounds is never trusted.

        The boundary vector z may be taken at any scale t^-k z on its ray.  Every
        term of :func:`regularity_bounds` scales by t^-k, so the bounds are
        computed once, c(k) = t^-k c(0) and d(k) = t^-k d(0), and
        Z1 = ray(z + c(0) w') is one ray at every k: Z1 = Z is rejected at once,
        else k = 0, 1, ... is tried until a candidate passes, up to
        ``SCALE_BUDGET`` scales.  Only W1 = ray(w + c(k) w') moves, toward W,
        and the first W1 = W rejects: as W != W', W1 = W means c(k) w' <= w
        coordinatewise, which then holds at every later k since c decreases.
        """
        if w == w_prime:
            raise VerificationFailed("degenerate source pair W = W'")
        if self._sign(w_prime) != self.t:
            raise WitnessNotInStratum("W' must lie in T")
        if self._sign(u) != self.t_prime:
            raise WitnessNotInStratum("U must lie in T'")
        anchors = tuple(dict.fromkeys(a for f in self.family for a in f.anchors()))
        for y in anchors:
            if self.pair.eval_b(u.base, y.base).is_zero():
                raise NotRegular("U is not regular for the family anchors")
        z_ray, _ = self.entrance_data(w, u)
        c, d = regularity_bounds(self.pair, anchors, z_ray.base, w.base, w_prime.base)
        z1 = Ray(z_ray.base + c * w_prime.base)
        for k in range(SCALE_BUDGET):
            s = TropValue.finite(-k)
            w1 = Ray(w.base + (s * c) * w_prime.base)
            if z1 == z_ray or w1 == w:
                break  # Z1 = Z at every scale, W1 = W at every later one
            if self.is_butterfly(w, w1, z_ray, z1):
                return ButterflyResult(w, w1, z_ray, Ray(s * z1.base), s * c, s * d)
        raise VerificationFailed("candidate quadruple fails the butterfly test")

    # -- pool-restricted Galois operators ------------------------------------------------

    def galois_L(self, rays_u, u_pool, p_pool) -> tuple:
        """Common entrance candidates: rays of P_pool in every sector of U.

        An empty U yields the whole P_pool (empty intersection).
        """
        return self._galois(rays_u, u_pool, p_pool, False)

    def galois_S(self, rays_p, u_pool, p_pool) -> tuple:
        return self._galois(rays_p, u_pool, p_pool, True)

    def _galois(self, query, u_pool, p_pool, dual: bool) -> tuple:
        """Rays of P_pool related to all of a U-query (L) or, when `dual`, rays
        of U_pool related to all of a P-query (S), read off the sector relation
        on U_pool x P_pool (a `_Relation`, shared by pool pairs of equal rays):
        a bitmask per pool ray, a W's row of P_pool indices and a Z's column of
        U_pool indices, each filled by `sector_member` on first use.

        A query is looked up ray by ray in its pool, and every ray must be
        found there; its masks are then ANDed in query order until none is
        left, as a short-circuiting per-ray test would evaluate them.  A
        result no mask cut is the image pool itself.  Any other result, and
        every result of an operator-made query, is an `_Image`: built once per
        result mask, from the pool rays of the call that first reached it, it
        carries that mask.  Given back as the query of the dual operator on
        the relation the pools resolve to now (L(S(L(U))), say), an `_Image`
        is read by its mask alone, in pool order, and its answer is memoised
        by (relation, direction, mask).  That memo serves no plain query: two
        orders of the same rays may differ, one raising where the other runs
        dry first.
        """
        pools = (tuple(u_pool), tuple(p_pool))
        last, rel = self._last
        # the last pools first: tuple == matches identical rays without hashing them
        if pools != last:
            rel = self._relations.get(pools)
            if rel is None:
                rel = self._relations[pools] = _Relation(pools)
            self._last = pools, rel
        image = pools[not dual]
        if query.__class__ is _Image and query.relation is rel and query.side == dual:
            key = query.mask << 1 | dual
            related = rel.answers.get(key)
            if related is None:
                first, mask = rel.first[dual], query.mask
                slots = [first[i] for i in range(len(first)) if mask >> i & 1]
                related = rel.answers[key] = self._meet(rel, dual, query, slots, image)
        else:
            query, index = tuple(query), rel.index[dual]
            slots = [index.get(x.rep) for x in query]
            if None in slots:
                raise ValueError("P must be a subset of P_pool" if dual
                                 else "U must be a subset of U_pool")
            related = self._meet(rel, dual, query, slots, image)
            if related == (1 << len(image)) - 1:
                return image
        answers = rel.images[not dual]
        answer = answers.get(related)
        if answer is None:
            answer = answers[related] = _Image(
                [image[i] for i in range(len(image)) if related >> i & 1])
            answer.relation, answer.side, answer.mask = rel, not dual, related
        return answer

    def _meet(self, rel, dual, query, slots, image) -> int:
        """The AND of the masks at `slots` of the query side, in order, until
        none is left; a mask not yet known is filled from its query ray."""
        masks = rel.masks[dual]
        related = (1 << len(image)) - 1
        for x, k in zip(query, slots):
            if not related:
                break
            mask = masks[k]
            if mask is None:
                mask = masks[k] = sum(
                    1 << i for i, y in enumerate(image)
                    if (self.sector_member(y, x) if dual else self.sector_member(x, y)))
            related &= mask
        return related


class _Relation:
    """The sector relation of `FrontierPair._galois` on one pool pair, read
    per side (0 the U_pool, 1 the P_pool): `index[side]` maps a rep to the
    first position of its ray in that pool, `first[side]` each position to
    that of its ray, `masks[side]` a first position to its ray's mask over
    the other pool (None until filled) and `images[side]` a mask over the pool
    to its `_Image`.  `answers` maps mask << 1 | side, for an `_Image` of that
    side given as a query, to the answer's mask over the other pool."""

    __slots__ = ("index", "first", "masks", "images", "answers")

    def __init__(self, pools):
        self.index = ({}, {})
        self.first = tuple([index.setdefault(x.rep, i) for i, x in enumerate(pool)]
                           for index, pool in zip(self.index, pools))
        self.masks = tuple([None] * len(pool) for pool in pools)
        self.images = ({}, {})
        self.answers = {}


class _Image(tuple):
    """An L or S answer that knows its origin: the rays of the pool on `side`
    of `relation` at the set bits of `mask`."""


def scenarios(sampler):
    """Seeded frontier scenarios (FrontierPair, W, W', U), endlessly.

    Each model is a balanced dimension-3 model from `sampler`, followed by
    ten rays (`sampler.vector(3, p_zero=0.3)`), grouped by their sign vectors
    for the family CS(e1,-), CS(e2,-) through the yielded pair's binding.  A
    model yields when two rays fall in T = (f0 < f1) and one in T' = (f0 = f1):
    the first two of T as W, W' (equal rays are possible) and the first of T'
    as U, with the pair (T, T') uncertified.  After ``DRY_MODELS`` models in
    a row without a scenario it raises TropraysError.
    """
    family = (BasicFunction.cs(Ray(Vector.unit(3, 0))),
              BasicFunction.cs(Ray(Vector.unit(3, 1))))
    below, level = SignVector(2, "<"), SignVector(2, "=")
    dry = 0
    while dry < DRY_MODELS:
        fp = FrontierPair(sampler.anisotropic_pair(3, balanced=True), family, below, level)
        groups = _strata_of(fp._bound, [Ray(sampler.vector(3, p_zero=0.3)) for _ in range(10)])
        sources, targets = groups.get(below, ()), groups.get(level, ())
        if len(sources) < 2 or not targets:
            dry += 1
            continue
        dry = 0
        yield fp, sources[0], sources[1], targets[0]
    raise TropraysError(f"no frontier scenario in {DRY_MODELS} models in a row")
