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
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NoEntrance, NotRegular, VerificationFailed, WitnessNotInStratum
from .quadspace import QuadraticPair, Vector
from .rays import Ray, RayInterval
from .semifield import ZERO, TropValue
from .strata import (SignVector, derivate_piece, is_direct_derivate, sign_vector_at,
                     stratify_interval)


def entrance_data(pair: QuadraticPair, family, t_vec: SignVector,
                  t_prime: SignVector, w: Ray, u: Ray):
    """Entrance ray of [W, U] into T' plus its interval parameter.

    Requires the trace of [W, U] to be exactly a half-open T piece followed
    by a closed T' piece (case1); anything else raises NoEntrance.
    """
    if sign_vector_at(pair, family, w) != t_vec:
        raise WitnessNotInStratum("W does not satisfy T")
    if u == w:
        raise NoEntrance("U is W itself")
    interval = RayInterval(w, u)
    piece = derivate_piece(stratify_interval(pair, family, interval), t_vec, t_prime)
    if piece is None:
        raise NoEntrance("trace of [W,U] is not a T piece followed by a T' piece")
    if not piece.lo_closed:
        raise NoEntrance("boundary case2: T' piece is open at its first ray")
    return interval.pi(piece.lo), piece.lo


def sector_member(pair: QuadraticPair, family, t_vec: SignVector,
                  t_prime: SignVector, w: Ray, z: Ray, _memo=None) -> bool:
    """Z in the sector of W: Z satisfies T' and [W, Z[ lies entirely in T."""
    if _memo is not None:
        key = (w.rep, z.rep)
        hit = _memo.get(key)
        if hit is not None:
            return hit
    if sign_vector_at(pair, family, w) != t_vec:
        raise WitnessNotInStratum("W does not satisfy T")
    result = False
    if sign_vector_at(pair, family, z) == t_prime:
        interval = RayInterval(w, z)
        piece = derivate_piece(stratify_interval(pair, family, interval), t_vec, t_prime)
        # the T' piece may be a fat parameter interval when the fiber of Z
        # under pi is; membership asks that its rays all equal Z
        result = (piece is not None and piece.lo_closed
                  and interval.pi(piece.lo) == z)
    if _memo is not None:
        _memo[key] = result
    return result


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
    for y in anchors:
        if pair.eval_b(y.base, z).is_zero():
            raise NotRegular("b(y, z) = 0 for an anchor: z is not regular")
    coupling = (qz / pair.eval_b(w, w_prime)).sqrt()

    def direction_bound(v: Vector) -> TropValue:
        bound = (qz / pair.eval_q(v)).sqrt()
        bound = min(bound, qz / pair.eval_b(z, v))
        bound = min(bound, coupling)
        for y in anchors:
            bvy = pair.eval_b(v, y.base)
            bound = min(bound, pair.eval_b(z, y.base) / bvy)
        return bound

    return direction_bound(w_prime), direction_bound(w)


@dataclass(frozen=True)
class JunctionStep:
    k: int
    lam: TropValue          # step scalar lambda_k (lambda_0 = 0 formally)
    ray: Ray                # Z_k
    vector: Vector          # z_k = z_0 + (even maxima) w + (odd maxima) w'


@dataclass(frozen=True)
class JunctionReport:
    outcome: str            # "junction" | "gorge" | "limit_junction"
    ray: Ray | None
    steps: int
    trace: tuple            # of JunctionStep
    sigma: TropValue        # running maximum of even-index scalars
    tau: TropValue          # running maximum of odd-index scalars
    stop_criterion_held: bool


@dataclass(frozen=True)
class ButterflyResult:
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
        self._memo = {}

    @classmethod
    def certify(cls, pair, family, w: Ray, w_prime: Ray) -> "FrontierPair":
        """Build from witness rays, requiring a case1 certificate."""
        t_vec = sign_vector_at(pair, family, w)
        t_prime = sign_vector_at(pair, family, w_prime)
        case = is_direct_derivate(pair, family, t_vec, t_prime, w, w_prime)
        if case != "case1":
            raise VerificationFailed(f"witnesses certify {case}, not case1")
        return cls(pair, family, t_vec, t_prime)

    # -- entrances and sectors, sharing one sector memo ---------------------------

    def entrance_data(self, w: Ray, u: Ray):
        return entrance_data(self.pair, self.family, self.t, self.t_prime, w, u)

    def entrance_ray(self, w: Ray, u: Ray) -> Ray:
        return self.entrance_data(w, u)[0]

    def sector_member(self, w: Ray, z: Ray) -> bool:
        return sector_member(self.pair, self.family, self.t, self.t_prime,
                             w, z, self._memo)

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
            if sign_vector_at(self.pair, self.family, src) != self.t:
                raise WitnessNotInStratum("source rays must lie in T")
        z_ray, _ = self.entrance_data(w, u)
        z_vec = z_ray.base
        sigma, tau = ZERO, ZERO
        trace = [JunctionStep(0, ZERO, z_ray, z_vec)]
        lambdas = [ZERO]
        sources = (w.base, w_prime.base)  # step k perturbs by sources[k % 2]

        def next_scalar(k: int, z_k: Vector) -> TropValue:
            _, mu = self.entrance_data(Ray(sources[k % 2]), Ray(z_k))
            return mu.inverse()

        for k in range(1, max_iter + 1):
            lam = next_scalar(k, z_vec)
            lambdas.append(lam)
            step_vec = z_vec + lam * sources[k % 2]
            step_ray = Ray(step_vec)
            if k % 2:
                tau = max(tau, lam)
            else:
                sigma = max(sigma, lam)
            trace.append(JunctionStep(k, lam, step_ray, step_vec))
            if step_ray == Ray(z_vec):
                # ray repeated: the scalar stop criterion lambda_{k+2} <= lambda_k
                # must hold from the now-stationary vector; verify, don't trust
                lam_two_ahead = next_scalar(k + 2, step_vec)
                held = lam_two_ahead <= lam
                junction = step_ray
                if not self.is_junction(w, w_prime, junction):
                    raise VerificationFailed("stopped ray fails the junction test")
                return JunctionReport("junction", junction, k - 1, tuple(trace),
                                      sigma, tau, held)
            z_vec = step_vec
        # budget exhausted: evaluate the limit candidate of the partial maxima
        z_inf = trace[0].vector + sigma * w.base + tau * w_prime.base
        limit = Ray(z_inf)
        if (sign_vector_at(self.pair, self.family, limit) == self.t_prime
                and self.is_junction(w, w_prime, limit)):
            return JunctionReport("limit_junction", limit, max_iter,
                                  tuple(trace), sigma, tau, False)
        return JunctionReport("gorge", None, max_iter, tuple(trace),
                              sigma, tau, False)

    # -- butterflies -----------------------------------------------------------------

    def construct_butterfly(self, w: Ray, w_prime: Ray, u: Ray,
                            scale_budget: int = 24) -> ButterflyResult:
        """Entrance plus regularity bounds yield a candidate quadruple, which
        is then re-verified against the butterfly definition by direct
        stratification; sufficiency of the bounds is never trusted.

        The boundary vector z may be taken at any scale on its ray; the bound
        arithmetic is scale-sensitive (a large z stalls inside its own fibers)
        so representatives t^0 z, t^-1 z, ... are tried until a candidate
        passes the exact verification.
        """
        if w == w_prime:
            raise VerificationFailed("degenerate source pair W = W'")
        if sign_vector_at(self.pair, self.family, w_prime) != self.t:
            raise WitnessNotInStratum("W' must lie in T")
        if sign_vector_at(self.pair, self.family, u) != self.t_prime:
            raise WitnessNotInStratum("U must lie in T'")
        anchors = []
        seen = set()
        for f in self.family:
            for _, anchor in f.terms:
                if anchor.rep not in seen:
                    seen.add(anchor.rep)
                    anchors.append(anchor)
        for y in anchors:
            if self.pair.eval_b(u.base, y.base).is_zero():
                raise NotRegular("U is not regular for the family anchors")
        z_ray, _ = self.entrance_data(w, u)
        for k in range(scale_budget):
            z = TropValue.finite(-k) * z_ray.base
            c, d = regularity_bounds(self.pair, anchors, z, w.base, w_prime.base)
            w1 = Ray(w.base + c * w_prime.base)
            z1 = Ray(z + c * w_prime.base)
            if w1 == w or z1 == z_ray:
                continue
            if self.is_butterfly(w, w1, z_ray, z1):
                return ButterflyResult(w, w1, z_ray, z1, c, d)
        raise VerificationFailed("candidate quadruple fails the butterfly test")

    # -- pool-restricted Galois operators ------------------------------------------------

    def galois_L(self, rays_u, u_pool, p_pool) -> tuple:
        """Common entrance candidates: rays of P_pool in every sector of U.

        An empty U yields the whole P_pool (empty intersection).
        """
        rays_u = list(rays_u)
        if any(w not in u_pool for w in rays_u):
            raise ValueError("U must be a subset of U_pool")
        return tuple(z for z in p_pool
                     if all(self.sector_member(w, z) for w in rays_u))

    def galois_S(self, rays_p, u_pool, p_pool) -> tuple:
        rays_p = list(rays_p)
        if any(z not in p_pool for z in rays_p):
            raise ValueError("P must be a subset of P_pool")
        return tuple(w for w in u_pool
                     if all(self.sector_member(w, z) for z in rays_p))
