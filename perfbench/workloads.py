"""The four benchmark workloads.

Each workload builds its inputs from the seed in :meth:`setup`, runs one
*round* of program calls over all of them in :meth:`round` (the timed part),
turns the round's results into plain text in :meth:`digest` (untimed), and
checks a digest with the reference evaluator in :meth:`check`.  Every round
repeats the same calls on the same inputs, with fresh program objects, so the
first round is checked in full and every later round must give the same
digest.  :meth:`check` raises :class:`CheckFailed` on a wrong result and
returns how many operations of the round failed in a way the workload counts
instead of rejecting (only ``cli-docs`` has such operations).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction

import reference as ref
from clock import Stopwatch


class CheckFailed(Exception):
    """A program output disagrees with the reference or a required property."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def text(v) -> tuple:
    return tuple(str(c) for c in v.coords)


def raw_model(pair) -> ref.Model:
    return ref.Model([str(v) for v in pair.q_diag],
                     [[str(v) for v in row] for row in pair.b])


def raw_family(family) -> list:
    return [[(ref.parse(str(c)), ref.vector(text(a.base))) for c, a in f.terms]
            for f in family]


def random_interval(sampler, pair):
    from troprays.rays import Ray, RayInterval

    while True:
        y1 = Ray(sampler.vector(pair.dim, p_zero=0.0))
        y2 = Ray(sampler.vector(pair.dim, p_zero=0.0))
        if y1 != y2:
            return RayInterval(y1, y2)


def _ranks(values):
    return [ref.rank(v) for v in values]


def _monotone(ranks) -> bool:
    return (all(a <= b for a, b in zip(ranks, ranks[1:]))
            or all(a >= b for a, b in zip(ranks, ranks[1:])))


# -- fw-oracle ----------------------------------------------------------------


class FwOracle:
    """Criterion 2's shape: build f_w once, evaluate it on a dense ladder."""

    name = "fw-oracle"
    MODELS_PER_DIM = 6     # dimensions 2, 3, 4, interleaved
    WITNESSES = 5
    LADDER = 80

    def setup(self, seed):
        from troprays.sampling import Sampler

        sampler = Sampler(seed, num_bound=3, den_bound=2)
        ladder = sampler.many_parameters(self.LADDER)
        scenarios = []
        for _ in range(self.MODELS_PER_DIM):
            for dim in (2, 3, 4):
                pair = sampler.anisotropic_pair(dim)
                interval = random_interval(sampler, pair)
                witnesses = []
                while len(witnesses) < self.WITNESSES:
                    w = sampler.vector(dim)
                    if not (pair.eval_b(interval.y1.base, w).is_zero()
                            and pair.eval_b(interval.y2.base, w).is_zero()):
                        witnesses.append(w)
                scenarios.append((pair, interval, witnesses))
        return {"ladder": ladder, "scenarios": scenarios}

    def round(self, inputs):
        from troprays.csfun import build_fw

        watch = Stopwatch()
        ladder = inputs["ladder"]
        out = []
        for pair, interval, witnesses in inputs["scenarios"]:
            eps1, eps2 = interval.y1.base, interval.y2.base
            for w in witnesses:
                watch.start()
                profile = build_fw(pair, interval, w)
                f = profile.f
                qw = pair.eval_q(w)
                values = []
                for lam in itertools.chain(ladder, f.breakpoints):
                    if lam.is_zero():
                        x = eps1
                    elif lam.is_infinite():
                        x = eps2
                    else:
                        x = eps1 + lam * eps2
                    b = pair.eval_b(x, w)
                    values.append((lam, f.eval(lam), (b * b) / (pair.eval_q(x) * qw)))
                watch.stop("checks")
                out.append(values)
        return out, watch.parts()

    def digest(self, inputs, out):
        return [tuple((str(lam), str(pm), str(direct)) for lam, pm, direct in values)
                for values in out]

    def check(self, inputs, digest):
        cases = [(pair, interval, w) for pair, interval, ws in inputs["scenarios"]
                 for w in ws]
        require(len(digest) == len(cases), "one value list per witness")
        for (pair, interval, w), values in zip(cases, digest):
            model = raw_model(pair)
            eps1 = ref.vector(text(interval.y1.base))
            eps2 = ref.vector(text(interval.y2.base))
            wv = ref.vector(text(w))
            require(len(values) >= self.LADDER, "every ladder point is checked")
            for lam, pm, direct in values:
                want = model.cs(ref.pi(eps1, eps2, ref.parse(lam)), wv)
                require(ref.parse(pm) == want,
                        f"f_w({lam}) = {pm}, reference CS-ratio {ref.show(want)}")
                require(ref.parse(direct) == want,
                        f"direct CS at {lam} = {direct}, reference {ref.show(want)}")
        return 0

    def ops(self, inputs, digest):
        return sum(len(values) for values in digest)

    def named(self, inputs, digest, parts):
        return {"fw_checks_per_s": (self.ops(inputs, digest) / parts["checks"], "checks/s")}


# -- stratify-sweep ---------------------------------------------------------------


class StratifySweep:
    """Criterion 6's shape: many fresh models and intervals, each stratified once."""

    name = "stratify-sweep"
    # per dimension 2 and 3: families of 2 CS anchors, of 3, and canonical
    # five-function ones; fixed counts keep the cost of a round steady
    MIX = (("cs", 2, 150), ("cs", 3, 150), ("canonical", 0, 60))

    def setup(self, seed):
        from troprays.rays import Ray
        from troprays.sampling import Sampler
        from troprays.strata import BasicFunction, example_family

        sampler = Sampler(seed, num_bound=3, den_bound=2)
        scenarios = []
        for dim in (2, 3):
            for kind, anchors, count in self.MIX:
                for _ in range(count):
                    pair = sampler.anisotropic_pair(dim)
                    interval = random_interval(sampler, pair)
                    if kind == "canonical":
                        family = example_family(pair, interval.y1, interval.y2)
                        while len(family) < 5:  # CS(Y1, Y2) <= e gives three
                            pair = sampler.anisotropic_pair(dim)
                            interval = random_interval(sampler, pair)
                            family = example_family(pair, interval.y1, interval.y2)
                    else:
                        family = tuple(BasicFunction.cs(Ray(sampler.vector(dim, p_zero=0.0)))
                                       for _ in range(anchors))
                    scenarios.append((pair, interval, family))
        return {"scenarios": scenarios}

    def round(self, inputs):
        from troprays.strata import stratify_interval

        watch = Stopwatch()
        out = []
        for pair, interval, family in inputs["scenarios"]:
            watch.start()
            out.append(stratify_interval(pair, family, interval))
            watch.stop("intervals")
        return out, watch.parts()

    def digest(self, inputs, out):
        return [trace_digest(trace) for trace in out]

    def check(self, inputs, digest):
        require(len(digest) == len(inputs["scenarios"]), "one trace per interval")
        for (pair, interval, family), trace in zip(inputs["scenarios"], digest):
            check_trace(raw_model(pair), raw_family(family),
                        ref.vector(text(interval.y1.base)),
                        ref.vector(text(interval.y2.base)), trace)
        return 0

    def ops(self, inputs, digest):
        return len(digest)

    def named(self, inputs, digest, parts):
        return {"intervals_per_s": (len(digest) / parts["intervals"], "intervals/s")}


def trace_digest(trace):
    pieces = tuple((str(p.signs), str(p.lo), p.lo_closed, str(p.hi), p.hi_closed)
                   for p in trace.pieces)
    separators = tuple((str(par), text(r.rep)) for par, r in trace.boundaries)
    return pieces, separators


def check_trace(model, family, eps1, eps2, trace):
    """Coverage, per-pair monotone half-open signs, and reference signs."""
    pieces, separators = trace
    m = len(family)
    require(pieces, "a trace has pieces")
    parsed = [(s, ref.parse(lo), lc, ref.parse(hi), hc) for s, lo, lc, hi, hc in pieces]
    require(parsed[0][1] is None and parsed[0][2], "the trace starts closed at 0")
    require(parsed[-1][3] == ref.INF and parsed[-1][4], "the trace ends closed at oo")
    for s, lo, lc, hi, hc in parsed:
        require(len(s) == m * (m - 1) // 2, "one sign per pair")
        require(not ref.less(hi, lo), "pieces run forward")
        require(lo != hi or (lc and hc), "a one-point piece is closed")
    for a, b in zip(parsed, parsed[1:]):
        require(a[3] == b[1], "consecutive pieces meet")
        require(a[4] != b[2], "each meeting point belongs to exactly one piece")
    pair_index = 0
    for k in range(m):
        for l in range(k + 1, m):
            signs = [p[0][pair_index] for p in parsed]
            require(_monotone([ref.SIGNS.index(s) for s in signs]),
                    f"sign pattern of pair ({k},{l}) is not monotone: {signs}")
            for a, b in zip(parsed, parsed[1:]):
                sa, sb = a[0][pair_index], b[0][pair_index]
                if sa != sb:
                    require(sa != "=" or a[4], "an equality run owns its right end")
                    require(sb != "=" or b[2], "an equality run owns its left end")
            pair_index += 1
    for s, lo, lc, hi, hc in parsed:
        probe = lo if lo == hi else ref.midpoint(lo, hi)
        got = model.signs(family, ref.pi(eps1, eps2, probe))
        require(got == s, f"piece {s} has reference signs {got} inside")
    require(len(separators) == len(parsed) + 1, "one separator per piece boundary")
    require(ref.parse(separators[0][0]) is None
            and ref.parse(separators[-1][0]) == ref.INF, "separators span [0, oo]")
    for i, (par, rep) in enumerate(separators):
        lam = ref.parse(par)
        if 0 < i < len(parsed):
            require(lam == parsed[i][1], "a separator starts its piece")
            owner = parsed[i] if parsed[i][2] else parsed[i - 1]
        else:
            owner = parsed[0] if i == 0 else parsed[-1]
        x = ref.pi(eps1, eps2, lam)
        require(ref.canonical(x) == ref.vector(rep), f"separator ray at {par}")
        got = model.signs(family, x)
        require(got == owner[0], f"separator at {par} has reference signs {got}")


# -- frontier ----------------------------------------------------------------------


class Frontier:
    """Repeated restriction on fixed models: chart, junctions, butterflies, Galois."""

    name = "frontier"
    PER_STRATUM = 4
    JUNCTIONS = 40
    BUTTERFLIES = 3        # seeded, on top of the frozen WALL butterfly
    BIG_POOL = 12
    SAMPLED_SUBSETS = 40
    PROBES = [None, Fraction(-6), Fraction(-2), Fraction(-1, 2), Fraction(0),
              Fraction(1), Fraction(4)]

    def setup(self, seed):
        from troprays.errors import TropraysError
        from troprays.frontier import FrontierPair
        from troprays.instances import (CORNER, WALL, corner_family, corner_sample,
                                        wall_family, wall_scenario)
        from troprays.quadspace import Vector, vec
        from troprays.rays import Ray
        from troprays.sampling import Sampler
        from troprays.strata import BasicFunction, derivation_chart, sign_vector_at

        stats = {}
        family = corner_family()
        sample = corner_sample()
        # criterion 8's witness sampler: the chart's cost depends strongly on
        # its witness rays, so every seed gets the same chart
        pools = stratum_witnesses(CORNER, family, sample, self.PER_STRATUM, Sampler(808))
        rich = [z for x in sample for z in pools[sign_vector_at(CORNER, family, x)]]
        chart = {"family": family, "sample": sample, "rich": rich,
                 "base": chart_digest(derivation_chart(CORNER, family, sample))}

        basis = (BasicFunction.cs(Ray(Vector.unit(3, 0))),
                 BasicFunction.cs(Ray(Vector.unit(3, 1))))

        def scenarios(sampler, keep, wanted):
            found, tried = [], 0
            while len(found) < wanted:
                if tried > 100 * wanted:
                    raise RuntimeError("frontier set-up: too few scenarios pass")
                pair = sampler.anisotropic_pair(3, balanced=True)
                rays = [Ray(sampler.vector(3, p_zero=0.3)) for _ in range(10)]
                groups = {}
                for x in rays:
                    groups.setdefault(str(sign_vector_at(pair, basis, x)), []).append(x)
                if len(groups.get("<", [])) < 2 or "=" not in groups:
                    continue
                tried += 1
                w, w2 = groups["<"][:2]
                u = groups["="][0]
                scenario = (pair, basis, w, w2, u,
                            sign_vector_at(pair, basis, w), sign_vector_at(pair, basis, u))
                try:
                    if keep(FrontierPair(pair, basis, scenario[5], scenario[6]), w, w2, u):
                        found.append(scenario)
                except TropraysError:
                    pass
            return found, tried

        junctions, tried = scenarios(
            Sampler(seed * 10 + 2),
            lambda fp, w, w2, u: fp.junction_process(w, w2, u, max_iter=32).outcome != "gorge",
            self.JUNCTIONS)
        stats["junction_scenarios_tried"] = tried
        butterflies, tried = scenarios(
            Sampler(seed * 10 + 3),
            lambda fp, w, w2, u: fp.construct_butterfly(w, w2, u) is not None,
            self.BUTTERFLIES)
        stats["butterfly_scenarios_tried"] = tried
        wfam = wall_family()
        w, w2, u = wall_scenario()
        butterflies.insert(0, (WALL, wfam, w, w2, u, sign_vector_at(WALL, wfam, w),
                               sign_vector_at(WALL, wfam, u)))

        # criterion 11's pools on WALL, then seeded 12-element pools
        t_vec, t_prime = sign_vector_at(WALL, wfam, w), sign_vector_at(WALL, wfam, u)
        fp = FrontierPair(WALL, wfam, t_vec, t_prime)
        z0 = fp.entrance_ray(w, u)
        z1 = fp.entrance_ray(w2, z0)
        u_cand = [w, w2, Ray(vec(0, -2, "-inf")), Ray(vec(0, -5, -5)), Ray(vec(0, -4, 0)),
                  Ray(vec(0, -9, -1)), Ray(vec(0, -3, -2)), Ray(vec(0, -7, 1))]
        p_cand = [z0, z1, u, Ray(vec(-4, -4, 0)), Ray(vec(-1, -3, 0)),
                  Ray(vec(-2, -2, 0)), Ray(vec(-3, -5, 0)), Ray(vec(-1, -1, 0))]
        u_pool = [x for x in u_cand if sign_vector_at(WALL, wfam, x) == t_vec]
        p_pool = [x for x in p_cand if sign_vector_at(WALL, wfam, x) == t_prime]
        queries = [("L", u_pool, p_pool, s) for r in range(len(u_pool) + 1)
                   for s in itertools.combinations(u_pool, r)]
        queries += [("S", u_pool, p_pool, s) for r in range(len(p_pool) + 1)
                    for s in itertools.combinations(p_pool, r)]
        sampler = Sampler(seed * 10 + 4)
        big_u, big_p = list(u_pool), list(p_pool)
        for pool, stratum in ((big_u, t_vec), (big_p, t_prime)):
            while len(pool) < self.BIG_POOL:
                x = Ray(sampler.vector(3, p_zero=0.3))
                try:
                    if sign_vector_at(WALL, wfam, x) == stratum and x not in pool:
                        pool.append(x)
                except TropraysError:
                    continue
        for _ in range(self.SAMPLED_SUBSETS):
            queries.append(("L", big_u, big_p,
                            tuple(x for x in big_u if sampler.rng.random() < 0.4)))
            queries.append(("S", big_u, big_p,
                            tuple(x for x in big_p if sampler.rng.random() < 0.4)))
        galois = {"frontier": (WALL, wfam, t_vec, t_prime), "queries": queries}
        return {"chart": chart, "junctions": junctions, "butterflies": butterflies,
                "galois": galois, "stats": stats}

    def round(self, inputs):
        from troprays.frontier import FrontierPair
        from troprays.instances import CORNER
        from troprays.strata import derivation_chart

        watch = Stopwatch()
        watch.start()
        chart = derivation_chart(CORNER, inputs["chart"]["family"], inputs["chart"]["rich"])
        watch.stop("chart")

        junctions = []
        for pair, family, w, w2, u, t_vec, t_prime in inputs["junctions"]:
            watch.start()
            fp = FrontierPair(pair, family, t_vec, t_prime)
            junctions.append(fp.junction_process(w, w2, u, max_iter=32))
            watch.stop("junctions")

        butterflies = []
        for pair, family, w, w2, u, t_vec, t_prime in inputs["butterflies"]:
            watch.start()
            fp = FrontierPair(pair, family, t_vec, t_prime)
            butterflies.append(fp.construct_butterfly(w, w2, u))
            watch.stop("butterflies")

        fp = FrontierPair(*inputs["galois"]["frontier"])
        identities = []
        for kind, u_pool, p_pool, subset in inputs["galois"]["queries"]:
            watch.start()
            if kind == "L":
                first = fp.galois_L(subset, u_pool, p_pool)
                again = fp.galois_L(fp.galois_S(first, u_pool, p_pool), u_pool, p_pool)
            else:
                first = fp.galois_S(subset, u_pool, p_pool)
                again = fp.galois_S(fp.galois_L(first, u_pool, p_pool), u_pool, p_pool)
            identities.append((first, again))
            watch.stop("galois")
        return (chart, junctions, butterflies, identities), watch.parts()

    def digest(self, inputs, out):
        chart, junctions, butterflies, identities = out
        return {
            "chart": chart_digest(chart),
            "junctions": [(r.outcome, text(r.ray.rep),
                           tuple((s.k, str(s.lam), text(s.ray.rep), text(s.vector))
                                 for s in r.trace)) for r in junctions],
            "butterflies": [(text(b.w.base), text(b.w1.base), text(b.z.base),
                             text(b.z1.base)) for b in butterflies],
            "galois": [(tuple(text(x.rep) for x in first), tuple(text(x.rep) for x in again))
                       for first, again in identities],
        }

    def check(self, inputs, digest):
        from troprays.instances import CHART_TARGET_EDGES, CHART_TARGET_NODES, CORNER

        model = raw_model(CORNER)
        family = raw_family(inputs["chart"]["family"])
        names = {model.signs(family, ref.vector(text(x.base))): name
                 for x, name in zip(inputs["chart"]["sample"], CHART_TARGET_NODES)}
        require(len(names) == 6, "the CORNER sample realizes six strata")
        for chart in (inputs["chart"]["base"], digest["chart"]):
            nodes, edges = chart
            require(set(nodes) == set(names), f"chart nodes {nodes}")
            arrows = {(names[a], names[b]) for a, b in edges}
            require(arrows == set(CHART_TARGET_EDGES) and len(edges) == len(arrows),
                    f"chart arrows {sorted(arrows)} differ from the target")

        require(len(digest["junctions"]) == len(inputs["junctions"]), "every junction ran")
        for scenario, junction in zip(inputs["junctions"], digest["junctions"]):
            check_junction(scenario, junction, self.PROBES)

        require(len(digest["butterflies"]) == len(inputs["butterflies"]),
                "every butterfly was built")
        for scenario, butterfly in zip(inputs["butterflies"], digest["butterflies"]):
            check_butterfly(scenario, butterfly, self.PROBES)

        queries = inputs["galois"]["queries"]
        require(len(digest["galois"]) == len(queries), "every Galois identity ran")
        for (kind, u_pool, p_pool, _), (first, again) in zip(queries, digest["galois"]):
            pool = {text(x.rep) for x in (p_pool if kind == "L" else u_pool)}
            require(set(first) <= pool, "a Galois image lies in its pool")
            require(first == again, f"{kind}{'S' if kind == 'L' else 'L'}{kind} != {kind}")
        return 0

    def ops(self, inputs, digest):
        return (1 + len(digest["junctions"]) + len(digest["butterflies"])
                + len(digest["galois"]))

    def named(self, inputs, digest, parts):
        return {
            "chart_s": (parts["chart"], "s"),
            "junctions_per_s": (len(digest["junctions"]) / parts["junctions"], "processes/s"),
            "butterflies_per_s": (len(digest["butterflies"]) / parts["butterflies"],
                                  "constructions/s"),
            "galois_checks_per_s": (len(digest["galois"]) / parts["galois"], "identities/s"),
        }


def stratum_witnesses(pair, family, sample, per_stratum, sampler):
    """`per_stratum` witnesses for every stratum of `sample` but the one-ray
    crossing, collected from interior points of traces to random rays."""
    from troprays.rays import Ray, RayInterval
    from troprays.strata import sign_vector_at, stratify_interval

    pools = {sign_vector_at(pair, family, x): [x] for x in sample}
    for _ in range(400):  # walls are thin: some seeds need about 80 sweeps
        if sum(len(p) < per_stratum for p in pools.values()) <= 1:
            break
        for x in sample:
            y = Ray(sampler.vector(pair.dim))
            if y == x:
                continue
            interval = RayInterval(x, y)
            for piece in stratify_interval(pair, family, interval).pieces:
                pool = pools.get(piece.signs)
                z = interval.pi(piece.interior_point())
                if pool is not None and len(pool) < per_stratum and z not in pool:
                    pool.append(z)
    if sorted(len(p) for p in pools.values()) != [1] + [per_stratum] * (len(pools) - 1):
        raise RuntimeError("stratum witnesses: a stratum other than the crossing "
                           "did not fill")
    return pools


def chart_digest(chart):
    return (tuple(str(n) for n in chart.nodes),
            tuple((str(a), str(b)) for a, b in chart.edges))


def _sector_ok(model, family, w, z, t_vec, t_prime, probes):
    """Reference test of Z in the sector of W at sampled points of [W, Z]."""
    if model.signs(family, z) != t_prime:
        return False
    zrep = ref.canonical(z)
    for lam in probes + [ref.INF]:
        x = ref.pi(w, z, lam)
        want = t_prime if ref.canonical(x) == zrep else t_vec
        if model.signs(family, x) != want:
            return False
    return True


def check_junction(scenario, junction, probes):
    pair, family, w, w2, u, _, _ = scenario
    outcome, zrep, steps = junction
    model, fam = raw_model(pair), raw_family(family)
    wv, w2v = ref.vector(text(w.base)), ref.vector(text(w2.base))
    t_vec = model.signs(fam, wv)
    t_prime = model.signs(fam, ref.vector(text(u.base)))
    require(model.signs(fam, w2v) == t_vec, "both sources lie in T")
    require(outcome in ("junction", "limit_junction"), f"junction outcome {outcome}")
    z0 = ref.vector(steps[0][3])
    sigma = tau = None
    evens, odds = [], []
    for k, lam, rep, vec in steps[1:]:
        lam = ref.parse(lam)
        if k % 2:
            tau = ref.maximum(tau, lam)
            odds.append(lam)
        else:
            sigma = ref.maximum(sigma, lam)
            evens.append(lam)
        want = ref.add(ref.add(z0, ref.scale(sigma, wv)), ref.scale(tau, w2v))
        require(ref.vector(vec) == want, f"z_{k} != z_0 + sigma w + tau w'")
        require(ref.canonical(want) == ref.vector(rep), f"Z_{k} is the ray of z_{k}")
    require(_ranks(evens) == sorted(_ranks(evens)), "even step scalars grow")
    require(_ranks(odds) == sorted(_ranks(odds)), "odd step scalars grow")
    z = ref.vector(zrep)
    for src in (wv, w2v):
        require(_sector_ok(model, fam, src, z, t_vec, t_prime, probes),
                "the junction lies in the sector of both sources")


def check_butterfly(scenario, butterfly, probes):
    pair, family, _, _, u, _, _ = scenario
    model, fam = raw_model(pair), raw_family(family)
    w, w1, z, z1 = (ref.vector(v) for v in butterfly)
    t_vec = model.signs(fam, w)
    t_prime = model.signs(fam, ref.vector(text(u.base)))
    ends = [None, Fraction(-1), Fraction(0), Fraction(2), ref.INF]
    for a in ends:
        wm = ref.pi(w, w1, a)
        require(model.signs(fam, wm) == t_vec, "the butterfly's sources lie in T")
        for b in ends:
            zm = ref.pi(z, z1, b)
            require(_sector_ok(model, fam, wm, zm, t_vec, t_prime, probes),
                    "closure: an interior target lies in an interior source's sector")


# -- cli-docs ----------------------------------------------------------------------


M1, F1 = "data/m1.json", "data/family_m1.json"
WALL_M, WALL_F = "data/wall.json", "data/family_wall.json"
M3_M, M3_F = "data/m3.json", "data/family_m3.json"
EVAL = ("eval", "--model", M1, "--vec", "0,3", "--vec2", "0,-inf")
README = (
    ("validate", "--model", M1, "--samples", "200"),
    EVAL,
    ("interval-profile", "--model", M1, "--b", F1, "--from", "Y1", "--to", "Y2",
     "--witness", "0,-inf"),
    ("compare", "--model", M1, "--b", F1, "--from", "Y1", "--to", "Y2", "--f", "0", "--g", "1"),
    ("stratify", "--model", M1, "--b", F1, "--from", "Y1", "--to", "Y2"),
    ("chart", "--model", M1, "--b", F1, "--dot", "perfbench/out/chart.dot"),
    ("junction", "--model", WALL_M, "--b", WALL_F, "--w", "W", "--w2", "W2", "--u", "U"),
    ("junction", "--model", M1, "--b", F1, "--w", "W", "--w2", "W2", "--u", "Z"),
    ("butterfly", "--model", WALL_M, "--b", WALL_F, "--w", "W", "--w2", "W2", "--u", "U"),
    ("isotropy-entry", "--model", M3_M, "--b", M3_F, "--from", "Y2", "--to", "Y3",
     "--eps=0,-inf,-inf", "--eta=-inf,-inf,0"),
    ("oracle", "--model", M1, "--samples", "500", "--seed", "7"),
)
# input errors that must exit 2 with one stderr line and no traceback
MALFORMED = (
    ("validate", "--model", "perfbench/inputs/q_diag_scalar.json"),
    ("stratify", "--model", M1, "--b", F1, "--from", "Y1", "--to", "Y1"),
    ("junction", "--model", M1, "--b", F1, "--w", "W", "--w2", "W2", "--u", "Z",
     "--max-iter", "0"),
    ("validate", "--model", M1, "--samples", "-5"),
)


def invoke(argv):
    """troprays.cli.main in-process: (exit code, stdout, stderr, exception name)."""
    from troprays import cli

    out, err = io.StringIO(), io.StringIO()
    code, exc = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as ex:
            code = ex.code
        except Exception as ex:  # a traceback in a shell; recorded, not raised
            exc = type(ex).__name__
    return code, out.getvalue(), err.getvalue(), exc


def seed_of(argv) -> int:
    return int(argv[argv.index("--seed") + 1]) if "--seed" in argv else 0


class CliDocs:
    """The README command list through troprays.cli.main, plus fresh processes.

    The commands are the README's, verbatim, in text and --json form; the
    benchmark seed does not change them, so every seed runs the same work.
    """

    name = "cli-docs"

    def setup(self, seed):
        os.makedirs("perfbench/out", exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath("src")
        commands = [form for argv in README for form in (argv, argv + ("--json",))]
        return {"commands": commands, "fresh": [EVAL, EVAL + ("--json",)], "env": env}

    def round(self, inputs):
        watch = Stopwatch()
        commands, oracle, malformed, fresh = [], [], [], []
        for argv in inputs["commands"]:
            watch.start()
            result = invoke(argv)
            if argv[0] == "oracle":
                watch.stop("oracle")
                oracle.append((argv, result))
            else:
                watch.stop("commands")
                commands.append((argv, result))
        for argv in MALFORMED:
            watch.start()
            malformed.append((argv, invoke(argv)))
            watch.stop("commands")
        for argv in inputs["fresh"]:
            watch.start()
            done = subprocess.run([sys.executable, "-m", "troprays", *argv],
                                  capture_output=True, env=inputs["env"], timeout=120)
            watch.stop("process")
            fresh.append((argv, (done.returncode, done.stdout.decode(),
                                 done.stderr.decode(), None)))
        return {"commands": commands, "oracle": oracle, "malformed": malformed,
                "fresh": fresh}, watch.parts()

    def digest(self, inputs, out):
        return out

    def check(self, inputs, digest):
        docs = {}
        for argv, (code, stdout, stderr, exc) in digest["commands"] + digest["oracle"]:
            require(exc is None, f"{argv[0]} raised {exc}")
            require(code == 0, f"{' '.join(argv)} exited {code}: {stderr.strip()}")
            require(stdout, f"{argv[0]} printed nothing")
            if "--json" in argv:
                doc = json.loads(stdout)
                require("model_hash" in doc and doc.get("seed") == seed_of(argv),
                        f"{argv[0]} --json lacks model_hash or seed")
                key = argv[0] if argv[0] != "junction" else f"junction:{argv[2]}"
                docs[key] = doc
        for argv, (code, stdout, stderr, exc) in digest["fresh"]:
            require(code == 0 and exc is None, "a fresh process succeeds")
            same = [r for a, r in digest["commands"] if a == argv]
            require(same and same[0][1] == stdout,
                    "a fresh process prints what the in-process call prints")
        check_cli_docs(docs)
        failed = 0
        for argv, (code, stdout, stderr, exc) in digest["malformed"]:
            ok = (exc is None and code == 2 and len(stderr.splitlines()) == 1
                  and "Traceback" not in stderr)
            failed += not ok
        return failed

    def ops(self, inputs, digest):
        return (len(digest["commands"]) + len(digest["oracle"]) + len(digest["malformed"])
                + len(digest["fresh"]))

    def named(self, inputs, digest, parts):
        invocations = len(digest["commands"]) + len(digest["malformed"])
        return {
            "cli_commands_per_s": (invocations / parts["commands"], "invocations/s"),
            "oracle_suite_s": (parts["oracle"] / len(digest["oracle"]), "s"),
            "cli_process_s": (parts["process"] / len(digest["fresh"]), "s"),
        }


def check_cli_docs(docs):
    """The README's worked example on data/m1.json, checked by the reference."""
    m1 = ref.Model(["0", "0"], [["0", "2"], ["2", "0"]])
    e1, e2 = ref.vector(["0", "-inf"]), ref.vector(["-inf", "0"])
    for name in ("validate", "oracle"):
        require(docs[name]["ok"] is True, f"{name} reports a failure")

    x, y = ref.vector(["0", "3"]), ref.vector(["0", "-inf"])
    ev = docs["eval"]
    require((ref.parse(ev["q"]), ref.parse(ev["b"]), ref.parse(ev["cs"]))
            == (m1.q(x), m1.bil(x, y), m1.cs(x, y)), "eval disagrees with the reference")

    prof = docs["interval-profile"]
    require(prof["reduced_degrees"] == [0, 1, 0], "e1 profile degrees (0, 1, 0)")
    require(prof["regions"] == {"A": ["-inf", "-2"], "B": ["-2", "2"], "C": ["2", "+inf"]},
            f"e1 profile regions {prof['regions']}")
    bps = [ref.parse(b) for b in prof["pm"]["breakpoints"]]
    segs = [(ref.parse(s["coeff"]), s["degree"]) for s in prof["pm"]["segments"]]
    for k in range(-12, 13):
        lam = Fraction(k, 2)
        cell = max(i for i in range(len(segs)) if bps[i] is None or bps[i] <= lam)
        coeff, degree = segs[cell]
        require(coeff + degree * lam == m1.cs(ref.pi(e1, e2, lam), e1),
                f"profile value at {lam} disagrees with the reference")

    pieces = docs["stratify"]["trace"]["pieces"]
    require([p["signs"] for p in pieces] == ["<", "=", ">"], "trace signs < = >")
    seps = docs["stratify"]["trace"]["separators"]
    require([s["ray"]["rep"] for s in seps[1:-1]] == [["0", "0"], ["0", "0"]],
            "the separator is ray(0, 0)")
    require(docs["junction:" + M1]["ray"]["rep"] == ["0", "0"]
            and docs["junction:" + M1]["outcome"] == "junction",
            "the junction from W, W2 toward Z stops at ray(0, 0)")
    chart = docs["chart"]["chart"]
    labels = [n["signs"] for n in chart["nodes"]]
    arrows = {(labels[a], labels[b]) for a, b in chart["edges"]}
    require(arrows == {("<", "="), (">", "=")}, f"chart arrows {arrows}")


WORKLOADS = {w.name: w for w in (FwOracle(), StratifySweep(), Frontier(), CliDocs())}
