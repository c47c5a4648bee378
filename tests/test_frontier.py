import hashlib
import itertools

import pytest

from troprays import frontier
from troprays.errors import (
    NoEntrance,
    NotRegular,
    TropraysError,
    VerificationFailed,
    WitnessNotInStratum,
)
from troprays.frontier import FrontierPair, regularity_bounds, scenarios
from troprays.instances import WALL, wall_family, wall_scenario
from troprays.quadspace import QuadraticPair, Vector, vec
from troprays.rays import Ray, RayInterval, ray
from troprays.sampling import Sampler
from troprays.semifield import ONE, ZERO, t
from troprays.serialize import model_hash, vector_to_json
from troprays.strata import BasicFunction, sign_vector_at


@pytest.fixture(scope="module")
def m1_frontier(m1, m1_fam):
    lt = sign_vector_at(m1, m1_fam, ray(0, -5))
    eq = sign_vector_at(m1, m1_fam, ray(0, 0))
    return FrontierPair(m1, m1_fam, lt, eq)


@pytest.fixture(scope="module")
def wall_frontier():
    fam = wall_family()
    w, w_prime, u = wall_scenario()
    t_vec = sign_vector_at(WALL, fam, w)
    t_prime = sign_vector_at(WALL, fam, u)
    return FrontierPair(WALL, fam, t_vec, t_prime)


def test_entrance_worked(m1_frontier):
    z, lam = m1_frontier.entrance_data(ray(0, -5), ray(0, 0))
    assert z == ray(0, 0)
    assert lam == t(0)


def test_entrance_degenerate_and_intermediate(m1, m1_fam, m1_frontier):
    # W already in T': WitnessNotInStratum (W must satisfy T)
    with pytest.raises(WitnessNotInStratum):
        m1_frontier.entrance_data(ray(0, 0), ray(0, 1))
    # interval passing through a third stratum
    gt = sign_vector_at(m1, m1_fam, ray("-inf", 0))
    fp = FrontierPair(m1, m1_fam, m1_frontier.t, gt)
    with pytest.raises(NoEntrance):
        fp.entrance_data(ray(0, -5), ray("-inf", 0))
    # case2 direction: from (=) into (>) the T' piece is open
    fp2 = FrontierPair(m1, m1_fam, m1_frontier.t_prime, gt)
    with pytest.raises(NoEntrance):
        fp2.entrance_data(ray(0, 0), ray("-inf", 0))


def test_entrance_ray(m1, m1_fam, m1_frontier):
    fp = FrontierPair(m1, m1_fam, m1_frontier.t, m1_frontier.t_prime)
    z = fp.entrance_ray(ray(0, -5), ray(0, 0))
    assert z == ray(0, 0)


def test_sector_member_cases(m1_frontier):
    assert m1_frontier.sector_member(ray(0, -5), ray(0, 0))
    assert not m1_frontier.sector_member(ray(0, -5), ray(0, -1))  # Z in T
    # memoization keeps answers stable
    assert m1_frontier.sector_member(ray(0, -5), ray(0, 0))


def test_sector_member_rejects_through_stratum(wall_frontier):
    w, w_prime, u = wall_scenario()
    z0 = wall_frontier.entrance_ray(w, u)
    z1 = wall_frontier.entrance_ray(w_prime, z0)
    assert z1 != z0
    # from w', z0 is reachable only through earlier boundary rays
    assert not wall_frontier.sector_member(w_prime, z0)
    assert wall_frontier.sector_member(w_prime, z1)


def test_is_junction_and_butterfly_predicates(wall_frontier):
    w, w_prime, u = wall_scenario()
    z0 = wall_frontier.entrance_ray(w, u)
    z1 = wall_frontier.entrance_ray(w_prime, z0)
    assert wall_frontier.is_junction(w, w, z0)  # degenerate pair is allowed
    assert not wall_frontier.is_junction(w, w_prime, z0)
    assert wall_frontier.is_junction(w, w_prime, z1)
    assert not wall_frontier.is_butterfly(w, w_prime, z1, z1)  # Z = Z'


def test_regularity_bounds_self_case(m1):
    z = vec(0, 0)
    anchors = [ray(0, "-inf")]
    c, d = regularity_bounds(m1, anchors, z, z, z)
    assert c == ONE and d == ONE


def test_regularity_bounds_m1_explicit(m1):
    z, w, w_prime = vec(0, 0), Vector.unit(2, 0), Vector.unit(2, 1)
    anchors = [ray(0, "-inf")]
    c, d = regularity_bounds(m1, anchors, z, w, w_prime)
    # q(z) = t^2, q(w') = e, b(z,w') = t^2, b(w,w') = t^2, b(z,y) = t^2, b(w',y) = t^2
    assert c == min(t(1), t(0), t(0), t(0))
    # verify the postcondition on the grid corners
    for mu in (ZERO, d):
        for lam in (ZERO, c):
            pert = z + mu * w + lam * w_prime
            assert m1.eval_q(pert) == m1.eval_q(z)
            for y in anchors:
                assert m1.eval_b(pert, y.base) == m1.eval_b(z, y.base)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_regularity_bounds_reads_each_anchor_once(m1, gram_calls, k):
    """q(z), q(w'), q(w), b(w, w'), b(z, w'), b(z, w) and, per anchor y,
    b(z, y), b(w', y), b(w, y): 6 + 3k Gram evaluations, where reading b(z, y)
    again in each direction made 6 + 5k."""
    anchors = [ray(0, "-inf"), ray("-inf", 0), ray(0, 0)][:k]
    regularity_bounds(m1, anchors, vec(0, 0), Vector.unit(2, 0), Vector.unit(2, 1))
    assert gram_calls == {"eval_q": 3, "eval_b": 3 + 3 * k}


def test_regularity_bounds_not_regular(m1):
    pair = QuadraticPair.from_rows(
        ["0", "0", "0"],
        [["0", "2", "-inf"], ["2", "0", "0"], ["-inf", "0", "0"]])
    z = Vector.unit(3, 2)  # b(z, e1) = 0
    with pytest.raises(NotRegular):
        regularity_bounds(pair, [Ray(Vector.unit(3, 0))], z, z, z)
    isotropic = QuadraticPair.from_rows(["-inf", "0"], [["-inf", "1"], ["1", "0"]])
    e1 = Vector.unit(2, 0)  # q(e1) = 0
    with pytest.raises(NotRegular, match="anisotropic"):
        regularity_bounds(isotropic, [Ray(Vector.unit(2, 1))], e1, e1, e1)


def test_junction_process_m1_worked(m1_frontier):
    report = m1_frontier.junction_process(ray(0, -5), ray(0, -3), ray(0, 0))
    assert report.outcome == "junction"
    assert report.ray == ray(0, 0)
    assert report.steps == 0
    assert report.stop_criterion_held


def test_junction_process_w_equals_wprime(m1_frontier):
    report = m1_frontier.junction_process(ray(0, -5), ray(0, -5), ray(0, 0))
    assert report.outcome == "junction" and report.steps == 0
    with pytest.raises(ValueError, match="max_iter"):
        m1_frontier.junction_process(ray(0, -5), ray(0, -3), ray(0, 0), max_iter=0)
    with pytest.raises(WitnessNotInStratum):  # W' = ray(0, 0) lies in T'
        m1_frontier.junction_process(ray(0, -5), ray(0, 0), ray(0, 0))


def test_junction_process_wall_multistep(wall_frontier):
    w, w_prime, u = wall_scenario()
    report = wall_frontier.junction_process(w, w_prime, u, max_iter=16)
    assert report.outcome == "junction"
    assert report.steps == 1
    assert report.stop_criterion_held
    assert wall_frontier.is_junction(w, w_prime, report.ray)
    # step-vector identity at every step
    sigma, tau = ZERO, ZERO
    z0 = report.trace[0].vector
    for step in report.trace:
        if step.k == 0:
            continue
        if step.k % 2:
            tau = max(tau, step.lam)
        else:
            sigma = max(sigma, step.lam)
        expect = z0 + sigma * w.base + tau * w_prime.base
        assert step.vector == expect
        assert Ray(step.vector) == step.ray
    # lambda parity chains are monotone
    evens = [s.lam for s in report.trace if s.k % 2 == 0]
    odds = [s.lam for s in report.trace if s.k % 2 == 1]
    assert all(a <= b for a, b in zip(evens, evens[1:]))
    assert all(a <= b for a, b in zip(odds, odds[1:]))


def test_junction_budget_exhaustion_recovers_via_limit(wall_frontier):
    """With a unit budget the one-step scenario exhausts before seeing the
    repeat; the partial-maxima candidate is then verified exactly and names
    the same junction the full run finds."""
    w, w_prime, u = wall_scenario()
    full = wall_frontier.junction_process(w, w_prime, u, max_iter=16)
    report = wall_frontier.junction_process(w, w_prime, u, max_iter=1)
    assert report.outcome == "limit_junction"
    assert report.steps == 1
    assert report.ray == full.ray
    assert wall_frontier.is_junction(w, w_prime, report.ray)
    assert len(report.trace) == 2
    assert report.tau == report.trace[1].lam


def test_junction_propagates_no_entrance(m1, m1_fam):
    # T and T'' = (>) are not neighbors: the very first entrance fails
    lt = sign_vector_at(m1, m1_fam, ray(0, -5))
    gt = sign_vector_at(m1, m1_fam, ray("-inf", 0))
    fp = FrontierPair(m1, m1_fam, lt, gt)
    with pytest.raises(NoEntrance):
        fp.junction_process(ray(0, -5), ray(0, -3), ray("-inf", 0))


def test_junction_random_scenarios_verify():
    verified = 0
    for fp, w, w_prime, u in itertools.islice(scenarios(Sampler(51)), 50):
        report = fp.junction_process(w, w_prime, u, max_iter=32)
        if report.outcome == "junction":
            verified += 1
            assert fp.is_junction(w, w_prime, report.ray)
            assert report.stop_criterion_held
        if verified == 25:
            break
    assert verified == 25


# sha-256 prefixes of the first 20 scenarios and the RNG state after them,
# recorded from the hand-written loops that ``scenarios`` replaced
SCENARIO_FINGERPRINTS = {
    909: "08b17f8886c877c9", 1010: "abfbb7a60c2fbeef", 51: "4d70b47f1d22b950",
    7: "2d730f694e02d39e", 13: "7ad3564b5a468625", 53: "4289b3ec6e2070d4",
    113: "7df404b206b2b55d", 12: "ea5dde12d08ee80a",
}


@pytest.mark.parametrize("seed", SCENARIO_FINGERPRINTS)
def test_scenarios_draw_the_recorded_scenarios(seed):
    """Each scenario hashes as its model hash, the pointed bases of W, W', U
    and the strata T, T' (f0 < f1 and f0 = f1)."""
    sampler = Sampler(seed)
    digest = hashlib.sha256()
    for fp, w, w_prime, u in itertools.islice(scenarios(sampler), 20):
        assert [fp._sign(x) for x in (w, w_prime, u)] == [fp.t, fp.t, fp.t_prime]
        bases = [vector_to_json(x.base) for x in (w, w_prime, u)]
        digest.update(repr((model_hash(fp.pair), bases, str(fp.t), str(fp.t_prime))).encode())
    digest.update(repr(sampler.rng.getstate()).encode())
    assert digest.hexdigest()[:16] == SCENARIO_FINGERPRINTS[seed]


def test_scenarios_yield_pairs_that_read_their_rays_for_free(gram_calls):
    """The rays are grouped through the yielded pair's binding, so reading the
    sign vectors of W, W', U again through the pair reads no Gram value; a
    grouping binding of its own left 1,886 to read over these 160 scenarios,
    up to 15 in one."""
    for seed in SCENARIO_FINGERPRINTS:
        for fp, w, w_prime, u in itertools.islice(scenarios(Sampler(seed)), 20):
            before = dict(gram_calls)
            assert [fp._sign(x) for x in (w, w_prime, u)] == [fp.t, fp.t, fp.t_prime]
            assert gram_calls == before, (seed, fp.pair)


def test_scenarios_give_up_after_the_dry_model_budget():
    """Ten equal rays make no scenario: once every ray is e3, the generator
    raises after ``DRY_MODELS`` models, counted from the last scenario (the
    dry models before it do not count), and draws no more."""
    class Drying(Sampler):
        models, dry = 0, False

        def anisotropic_pair(self, dim, balanced=None):
            self.models += 1
            return super().anisotropic_pair(dim, balanced)

        def vector(self, dim, p_zero=0.15, nonzero=True):
            return Vector.unit(dim, 2) if self.dry else super().vector(dim, p_zero, nonzero)

    sampler = Drying(909)
    drawn = scenarios(sampler)
    next(drawn)
    assert sampler.models > 1
    sampler.dry, sampler.models = True, 0
    with pytest.raises(TropraysError, match=f"no frontier scenario in {frontier.DRY_MODELS}"):
        next(drawn)
    assert sampler.models == frontier.DRY_MODELS == 1000


def test_construct_butterfly_wall(wall_frontier):
    w, w_prime, u = wall_scenario()
    bf = wall_frontier.construct_butterfly(w, w_prime, u)
    assert bf.z != bf.z1 and bf.w != bf.w1
    assert wall_frontier.is_butterfly(bf.w, bf.w1, bf.z, bf.z1)


def test_butterfly_closure_property(wall_frontier):
    """Interior rays of [W, W1] and [Z, Z1] keep the sector property."""
    w, w_prime, u = wall_scenario()
    bf = wall_frontier.construct_butterfly(w, w_prime, u)
    w_interval = RayInterval(bf.w, bf.w1)
    z_interval = RayInterval(bf.z, bf.z1)
    sampler = Sampler(3)
    for _ in range(25):
        w_mid = w_interval.pi(sampler.value())
        z_mid = z_interval.pi(sampler.value())
        assert wall_frontier.sector_member(w_mid, z_mid)


def test_butterfly_impossible_in_two_dims(m1_frontier):
    with pytest.raises(VerificationFailed):
        m1_frontier.construct_butterfly(ray(0, -5), ray(0, -3), ray(0, 0))


def test_butterfly_degenerate_sources_rejected(wall_frontier):
    w, w_prime, u = wall_scenario()
    with pytest.raises(VerificationFailed):
        wall_frontier.construct_butterfly(w, w, u)
    with pytest.raises(WitnessNotInStratum, match="W' must lie in T"):
        wall_frontier.construct_butterfly(w, u, u)
    with pytest.raises(WitnessNotInStratum, match="U must lie in T'"):
        wall_frontier.construct_butterfly(w, w_prime, w)


def test_butterfly_requires_regular_target(m1, m1_fam):
    pair = QuadraticPair.from_rows(
        ["0", "0", "0"],
        [["0", "2", "-inf"], ["2", "0", "0"], ["-inf", "0", "0"]])
    y1, y2 = Ray(Vector.unit(3, 0)), Ray(Vector.unit(3, 1))
    fam = (BasicFunction.cs(y1), BasicFunction.cs(y2))
    w = Ray(vec(0, -5, "-inf"))
    w2 = Ray(vec(0, -3, "-inf"))
    u = Ray(Vector.unit(3, 2))  # b(u, y1) = 0: not regular
    t_vec = sign_vector_at(pair, fam, w)
    t_prime = sign_vector_at(pair, fam, u)
    fp = FrontierPair(pair, fam, t_vec, t_prime)
    with pytest.raises(NotRegular):
        fp.construct_butterfly(w, w2, u)


def test_certify_requires_case1(m1, m1_fam):
    fp = FrontierPair.certify(m1, m1_fam, ray(0, -5), ray(0, 0))
    assert str(fp.t) == "<" and str(fp.t_prime) == "="
    with pytest.raises(VerificationFailed):
        FrontierPair.certify(m1, m1_fam, ray(0, 0), ray("-inf", 0))


def test_certify_keeps_the_boundary_of_its_witnesses(m1, m1_fam, gram_calls):
    """certify reads T at W, T' at W' and the boundary of [W, W'] through the
    pair's own binding (4 q + 5 b), and the first entrance of [W, W'] reads
    that boundary again at no Gram cost; a certificate read on a binding of
    its own left 4 q + 5 b to read."""
    w, w_prime = ray(0, -5), ray(0, 0)
    gram_calls.update(eval_q=0, eval_b=0)
    fp = FrontierPair.certify(m1, m1_fam, w, w_prime)
    assert gram_calls == {"eval_q": 4, "eval_b": 5}
    gram_calls.update(eval_q=0, eval_b=0)
    z, _ = fp.entrance_data(w, w_prime)
    assert gram_calls == {"eval_q": 0, "eval_b": 0}
    assert fp._sign(z) == fp.t_prime


def test_certify_requires_different_strata(m1, m1_fam):
    with pytest.raises(ValueError, match="the two strata must be different"):
        FrontierPair.certify(m1, m1_fam, ray(0, -5), ray(0, -6))


def galois_pools(frontier):
    w, w_prime, u = wall_scenario()
    z0 = frontier.entrance_ray(w, u)
    z1 = frontier.entrance_ray(w_prime, z0)
    u_pool = [w, w_prime, Ray(vec(0, -2, "-inf")), Ray(vec(0, -5, -5)),
              Ray(vec(0, -4, 0)), Ray(vec(0, -9, -1))]
    p_pool = [z0, z1, u, Ray(vec(-4, -4, 0)), Ray(vec(-1, -3, 0)),
              Ray(vec(-2, -2, 0))]
    u_pool = [x for x in u_pool
              if sign_vector_at(frontier.pair, frontier.family, x) == frontier.t]
    p_pool = [x for x in p_pool
              if sign_vector_at(frontier.pair, frontier.family, x) == frontier.t_prime]
    return u_pool, p_pool


def test_galois_definition_and_empty(wall_frontier):
    u_pool, p_pool = galois_pools(wall_frontier)
    w = u_pool[0]
    direct = tuple(z for z in p_pool if wall_frontier.sector_member(w, z))
    assert wall_frontier.galois_L([w], u_pool, p_pool) == direct
    assert wall_frontier.galois_L([], u_pool, p_pool) == tuple(p_pool)
    assert wall_frontier.galois_S([], u_pool, p_pool) == tuple(u_pool)
    with pytest.raises(ValueError):
        wall_frontier.galois_L([Ray(vec(0, -7, "-inf"))], u_pool, p_pool)


def test_galois_saturation_exhaustive(wall_frontier):
    u_pool, p_pool = galois_pools(wall_frontier)
    assert len(u_pool) >= 3 and len(p_pool) >= 3
    for r in range(len(u_pool) + 1):
        for subset in itertools.combinations(u_pool, r):
            l_u = wall_frontier.galois_L(subset, u_pool, p_pool)
            s_l = wall_frontier.galois_S(l_u, u_pool, p_pool)
            assert wall_frontier.galois_L(s_l, u_pool, p_pool) == l_u
    for r in range(len(p_pool) + 1):
        for subset in itertools.combinations(p_pool, r):
            s_p = wall_frontier.galois_S(subset, u_pool, p_pool)
            l_s = wall_frontier.galois_L(s_p, u_pool, p_pool)
            assert wall_frontier.galois_S(l_s, u_pool, p_pool) == s_p


def test_galois_antitone_and_extensive(wall_frontier):
    u_pool, p_pool = galois_pools(wall_frontier)
    small = u_pool[:1]
    large = u_pool[:3]
    l_small = set(wall_frontier.galois_L(small, u_pool, p_pool))
    l_large = set(wall_frontier.galois_L(large, u_pool, p_pool))
    assert l_large <= l_small
    # extensive compositions: U inside SL(U), P inside LS(P)
    for r in (1, 2, 3):
        subset = u_pool[:r]
        sl = wall_frontier.galois_S(
            wall_frontier.galois_L(subset, u_pool, p_pool), u_pool, p_pool)
        assert set(subset) <= set(sl)
        subset_p = p_pool[:r]
        ls = wall_frontier.galois_L(
            wall_frontier.galois_S(subset_p, u_pool, p_pool), u_pool, p_pool)
        assert set(subset_p) <= set(ls)


def fresh_wall_frontier():
    fam = wall_family()
    w, _, u = wall_scenario()
    return FrontierPair(WALL, fam, sign_vector_at(WALL, fam, w),
                        sign_vector_at(WALL, fam, u))


def seeded_wall_pools(fp, seed, extra=3):
    """Criterion 11's pools plus `extra` seeded rays of T and of T' each."""
    u_pool, p_pool = galois_pools(fp)
    sampler = Sampler(seed)
    for pool, stratum in ((u_pool, fp.t), (p_pool, fp.t_prime)):
        target = len(pool) + extra
        while len(pool) < target:
            x = Ray(sampler.vector(3, p_zero=0.3))
            try:
                if sign_vector_at(WALL, fp.family, x) == stratum and x not in pool:
                    pool.append(x)
            except TropraysError:
                continue
    return u_pool, p_pool


def galois_by_definition(fp, query, u_pool, p_pool, dual):
    """L (or S when `dual`) as short-circuiting tests of the sector
    definition, each evaluated afresh with no memo; an error is returned as
    its type."""
    def member(w, z):
        return FrontierPair(fp.pair, fp.family, fp.t, fp.t_prime).sector_member(w, z)
    query = list(query)
    try:
        if any(x not in (p_pool if dual else u_pool) for x in query):
            raise ValueError("query outside its pool")
        if dual:
            return tuple(w for w in u_pool if all(member(w, z) for z in query))
        return tuple(z for z in p_pool if all(member(w, z) for w in query))
    except (ValueError, WitnessNotInStratum) as ex:
        return type(ex)


def galois_by_relation(fp, query, u_pool, p_pool, dual):
    try:
        if dual:
            return fp.galois_S(query, u_pool, p_pool)
        return fp.galois_L(query, u_pool, p_pool)
    except (ValueError, WitnessNotInStratum) as ex:
        return type(ex)


def galois_queries(u_pool, p_pool, orders=False):
    """(query, dual) for every U- and P-query of at most two rays (ordered
    when `orders`), and the whole pools."""
    pick = itertools.permutations if orders else itertools.combinations
    for dual, pool in ((False, u_pool), (True, p_pool)):
        for r in (0, 1, 2):
            for query in pick(pool, r):
                yield query, dual
        yield tuple(pool), dual


@pytest.fixture
def counted_sectors(monkeypatch):
    """Sector evaluations made through FrontierPair, memo hits included."""
    calls = []
    original = FrontierPair.sector_member

    def counted(self, w, z):
        calls.append((w, z))
        return original(self, w, z)

    monkeypatch.setattr(FrontierPair, "sector_member", counted)
    return calls


@pytest.mark.parametrize("seed", [1, 2])
def test_galois_relation_matches_definition(seed, counted_sectors):
    fp = fresh_wall_frontier()
    u_pool, p_pool = seeded_wall_pools(fp, seed)
    images = set()
    for query, dual in galois_queries(u_pool, p_pool):
        got = galois_by_relation(fp, query, u_pool, p_pool, dual)
        assert got == galois_by_definition(fp, query, u_pool, p_pool, dual)
        images.add(got)
    assert len(images) > 4  # the relation is neither empty nor full
    # empty pools: L into an empty P_pool and S into an empty U_pool
    assert fp.galois_L(u_pool[:1], u_pool, []) == ()
    assert fp.galois_S(p_pool[:1], [], p_pool) == ()
    assert fp.galois_L([], [], p_pool) == tuple(p_pool)
    # a repeated pass over the same pools evaluates no sector
    del counted_sectors[:]
    for query, dual in galois_queries(u_pool, p_pool):
        galois_by_relation(fp, query, u_pool, p_pool, dual)
    assert counted_sectors == []


def test_galois_relation_keeps_duplicates_in_pool_order():
    fp = fresh_wall_frontier()
    u_pool, p_pool = seeded_wall_pools(fp, 3)
    # the same rays again, at other bases, inside each pool
    u_dup = u_pool[:2] + [Ray(t(-2) * u_pool[0].base)] + u_pool[2:]
    p_dup = p_pool + [Ray(t(5) * p_pool[1].base)]
    for query, dual in galois_queries(u_dup, p_dup):
        got = galois_by_relation(fp, query, u_dup, p_dup, dual)
        assert got == galois_by_definition(fp, query, u_dup, p_dup, dual)
        image = u_dup if dual else p_dup
        assert [x.base for x in got] == [x.base for x in image if x in got]
    assert fp.galois_L([], u_dup, p_dup) == tuple(p_dup)
    assert fp.galois_S([], u_dup, p_dup) == tuple(u_dup)


def test_galois_non_member_raises_before_any_sector(counted_sectors):
    fp = fresh_wall_frontier()
    u_pool, p_pool = seeded_wall_pools(fp, 1)
    outsider = Ray(vec(0, -7, "-inf"))
    with pytest.raises(ValueError, match="U must be a subset of U_pool"):
        fp.galois_L([u_pool[0], outsider], u_pool, p_pool)
    with pytest.raises(ValueError, match="P must be a subset of P_pool"):
        fp.galois_S([p_pool[0], outsider], u_pool, p_pool)
    assert counted_sectors == []


def test_galois_witness_outside_t_raises_where_the_definition_does():
    """A U_pool ray outside T raises only once a short-circuiting test
    reaches it: in L when the rays before it in the query leave some pool
    candidate, in S for every nonempty P-query."""
    fp = fresh_wall_frontier()
    u_pool, p_pool = seeded_wall_pools(fp, 2)
    bad = p_pool[0]  # a ray of T'
    u_bad = u_pool[:2] + [bad] + u_pool[2:]
    # the P_pool rays outside some sector, so that an L-query can run dry
    sparse = [z for z in p_pool
              if galois_by_definition(fp, [z], u_pool, p_pool, True) != tuple(u_pool)]
    outcomes = set()
    for pool in (p_pool, sparse, []):
        for query, dual in galois_queries(u_bad, pool, orders=True):
            got = galois_by_relation(fp, query, u_bad, pool, dual)
            assert got == galois_by_definition(fp, query, u_bad, pool, dual), query
            outcomes.add((dual, bad in query, got is WitnessNotInStratum))
    # L-queries holding the ray outside T both raise and do not raise
    assert {(False, True, True), (False, True, False), (True, False, True)} <= outcomes


def test_galois_every_subset_of_the_wall_pools_matches_the_definition():
    fp = fresh_wall_frontier()
    u_pool, p_pool = galois_pools(fp)
    for dual, pool in ((False, u_pool), (True, p_pool)):
        for r in range(len(pool) + 1):
            for query in itertools.combinations(pool, r):
                got = galois_by_relation(fp, query, u_pool, p_pool, dual)
                assert got == galois_by_definition(fp, query, u_pool, p_pool, dual), query


def test_galois_empty_query_returns_the_pool_itself():
    fp = fresh_wall_frontier()
    u_pool, p_pool = (tuple(pool) for pool in galois_pools(fp))
    assert fp.galois_L((), u_pool, p_pool) is p_pool
    assert fp.galois_S([], u_pool, p_pool) is u_pool
    assert fp.galois_L([], list(u_pool), list(p_pool)) == p_pool


def test_galois_non_member_after_an_emptying_ray_raises_and_fills_nothing():
    """The query [W, outsider], where W's row of P_pool is empty: a per-ray
    test would stop at W, but the membership check comes first, so the query
    raises, whether W's row is known yet or not, and computes no sign vector
    and no boundary."""
    fp = fresh_wall_frontier()
    u_pool, p_pool = seeded_wall_pools(fp, 1)
    w, z = next((w, z) for w in u_pool for z in p_pool
                if not FrontierPair(fp.pair, fp.family, fp.t, fp.t_prime).sector_member(w, z))
    outsider = Ray(vec(0, -7, "-inf"))
    for _ in range(2):
        signs, boundaries = dict(fp._signs), dict(fp._boundaries)
        with pytest.raises(ValueError, match="U must be a subset of U_pool"):
            fp.galois_L([w, outsider], u_pool, [z])
        assert fp._signs == signs and fp._boundaries == boundaries
        assert fp.galois_L([w], u_pool, [z]) == ()


def test_galois_query_with_equal_rays_fills_their_row_once(counted_sectors):
    fp = fresh_wall_frontier()
    u_pool, p_pool = seeded_wall_pools(fp, 1)
    w = u_pool[0]
    again = Ray(t(-2) * w.base)
    assert again == w and again.base != w.base
    del counted_sectors[:]
    assert fp.galois_L([w, again], u_pool, p_pool) == fp.galois_L([w], u_pool, p_pool) != ()
    assert len(counted_sectors) == len(p_pool)


def galois_op(fp, dual):
    return fp.galois_S if dual else fp.galois_L


@pytest.fixture
def counted_hashes(monkeypatch):
    """Hashes of vectors, as a dict lookup of a ray's rep makes them."""
    calls = []
    original = Vector.__hash__

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Vector, "__hash__", counted)
    return calls


@pytest.mark.parametrize("seed, one_size", [(1, False), (2, False), (1, True)])
def test_galois_closure_chains_match_the_definition(seed, one_size, counted_sectors,
                                                    counted_hashes):
    """Each link of L(S(L(U))) and S(L(S(P))) is the definition's answer to
    the link before it, the chain closes (LSL = L, SLS = S), and a second
    pass evaluates no sector and hashes no vector past its plain first
    query.  On pools of one size a mask of U_pool and one of P_pool can be
    the same number, here the whole pool: an S image that is all of U_pool
    given to L, and an L image that is all of P_pool given to S, have
    different answers."""
    fp = fresh_wall_frontier()
    u_pool, p_pool = seeded_wall_pools(fp, seed)
    if one_size:
        size = min(len(u_pool), len(p_pool))
        u_pool, p_pool = u_pool[:size], p_pool[:size]
        answers = fp.galois_L(u_pool, u_pool, p_pool), fp.galois_S(p_pool, u_pool, p_pool)
        assert [p_pool.index(z) for z in answers[0]] != [u_pool.index(w) for w in answers[1]]
    chains = {}  # (query, dual) -> [A, B, C]: A its image, B the dual image of A, C that of B
    for query, dual in galois_queries(u_pool, p_pool):
        first = galois_op(fp, dual)(query, u_pool, p_pool)
        second = galois_op(fp, not dual)(first, u_pool, p_pool)
        links = chains[query, dual] = [first, second,
                                       galois_op(fp, dual)(second, u_pool, p_pool)]
        for link, (given, side) in zip(links, ((query, dual), (first, not dual),
                                               (second, dual))):
            assert link == galois_by_definition(fp, given, u_pool, p_pool, side), query
        assert links[2] == first
    del counted_sectors[:]
    for query, dual in galois_queries(u_pool, p_pool):
        first = galois_op(fp, dual)(query, u_pool, p_pool)
        del counted_hashes[:]
        second = galois_op(fp, not dual)(first, u_pool, p_pool)
        third = galois_op(fp, dual)(second, u_pool, p_pool)
        if first != tuple(u_pool if dual else p_pool):  # else the plain pool tuple
            assert counted_hashes == [], query
        assert [first, second, third] == chains[query, dual]
    assert counted_sectors == []


def test_galois_image_given_to_s_on_another_pool_pair():
    """An L image read on a pool pair of the same rays in another order, or
    of more rays, is read as its rays, not as its mask."""
    fp = fresh_wall_frontier()
    u_pool, p_pool = seeded_wall_pools(fp, 1)
    more_u, more_p = ([x for x in more if x not in pool]
                      for more, pool in zip(seeded_wall_pools(fp, 2), (u_pool, p_pool)))
    assert more_u and more_p
    others = [(u_pool[::-1], p_pool[::-1]), (u_pool, p_pool[1:] + p_pool[:1]),
              (u_pool + more_u, more_p + p_pool), (u_pool, p_pool + more_p)]
    moved = 0
    for query, dual in galois_queries(u_pool, p_pool):
        if dual:
            continue
        image = fp.galois_L(query, u_pool, p_pool)
        for u_other, p_other in others:
            got = galois_by_relation(fp, image, u_other, p_other, True)
            assert got == galois_by_definition(fp, image, u_other, p_other, True), query
            moved += [p_other.index(z) for z in image] != [p_pool.index(z) for z in image]
    assert moved > 0


@pytest.mark.parametrize("grow", ["append", "insert"])
def test_galois_image_given_to_s_after_its_pools_grow(grow):
    """Pool lists may change between calls: an L image given to S once a ray
    is added to each pool in place is read against the pools as they are."""
    fp = fresh_wall_frontier()
    u_pool, p_pool = seeded_wall_pools(fp, 3)
    more_u, more_p = seeded_wall_pools(fp, 4)
    images = [fp.galois_L(query, u_pool, p_pool)
              for query, dual in galois_queries(u_pool, p_pool) if not dual]
    extra_u = next(x for x in more_u if x not in u_pool)
    extra_p = next(z for z in more_p if z not in p_pool)
    if grow == "append":
        u_pool.append(extra_u)
        p_pool.append(extra_p)
    else:
        u_pool.insert(0, extra_u)
        p_pool.insert(0, extra_p)
    for image in images:
        got = fp.galois_S(image, u_pool, p_pool)
        assert got == galois_by_definition(fp, image, u_pool, p_pool, True), image
        assert galois_by_relation(fp, got, u_pool, p_pool, False) == galois_by_definition(
            fp, got, u_pool, p_pool, False)


def test_galois_image_given_back_to_its_own_operator():
    """An L image is a subset of P_pool, so given to L again it is a query of
    rays, checked against U_pool and read row by row, whatever its mask says."""
    fp = fresh_wall_frontier()
    u_pool, p_pool = seeded_wall_pools(fp, 2)
    both = u_pool + p_pool
    images = [fp.galois_L(query, u_pool, p_pool)
              for query, dual in galois_queries(u_pool, p_pool) if not dual]
    images += [fp.galois_L(query, both, both)
               for query, dual in galois_queries(u_pool, both) if not dual]
    outcomes = set()
    for image in images:
        for u_other, p_other in ((u_pool, p_pool), (both, both), (p_pool, p_pool)):
            got = galois_by_relation(fp, image, u_other, p_other, False)
            assert got == galois_by_definition(fp, image, u_other, p_other, False), image
            outcomes.add(got)
    # outside U_pool, or rows of rays outside T
    assert {ValueError, WitnessNotInStratum} <= outcomes


def test_entrance_trace_memo_is_keyed_by_pointed_bases():
    """[W, U] and [W, t^-3 U] are the same ray interval with different
    parameters: ray(w + lam t^-3 u) = pi(t^-3 lam), so the entrance parameter
    of the second is t^3 times that of the first, even on one memo."""
    fp = fresh_wall_frontier()
    w, _, u = wall_scenario()
    z, lam = fp.entrance_data(w, u)
    scaled = Ray(t(-3) * u.base)
    assert scaled == u and scaled.base != u.base
    z_scaled, lam_scaled = fp.entrance_data(w, scaled)
    assert lam.is_finite()
    assert z_scaled == z
    assert lam_scaled == t(3) * lam


def test_entrance_and_sector_read_the_trace_separator(monkeypatch):
    """A fresh entrance computation forms one ray, the separator of its
    memoised boundary, and returns that ray; a sector test on the same
    boundary forms none."""
    formed = []
    pi = RayInterval.pi

    def counted(self, lam):
        z = pi(self, lam)
        formed.append((lam, z))
        return z

    monkeypatch.setattr(RayInterval, "pi", counted)
    fp = fresh_wall_frontier()
    w, _, u = wall_scenario()
    z, lam = fp.entrance_data(w, u)
    (entry,) = fp._boundaries.values()
    assert len(formed) == 1 and formed[0][0] == lam and formed[0][1] is z
    assert entry == ("case1", lam, z) and entry[2] is z
    del formed[:]
    assert fp.sector_member(w, u) == (z == u)
    assert formed == []


def butterfly_candidates(seed, wanted):
    """Seeded inputs that reach the scale loop of the butterfly construction:
    (frontier, W, W', U, entrance ray Z of [W, U], family anchors) from
    ``frontier.scenarios`` with W != W', U and Z regular."""
    found = []
    for fp, w, w_prime, u in itertools.islice(scenarios(Sampler(seed)), 100):
        anchors = tuple(a for f in fp.family for a in f.anchors())
        if w == w_prime or any(fp.pair.eval_b(u.base, y.base).is_zero() for y in anchors):
            continue
        try:
            z_ray, _ = fp.entrance_data(w, u)
            regularity_bounds(fp.pair, anchors, z_ray.base, w.base, w_prime.base)
        except TropraysError:
            continue
        found.append((fp, w, w_prime, u, z_ray, anchors))
        if len(found) == wanted:
            break
    assert len(found) == wanted, f"seed {seed}: {len(found)} of {wanted} candidates"
    return found


def first_candidate_ray(fp, w, w_prime, z_ray, anchors):
    """Z1 = ray(z + c(0) w') at the first scale of the butterfly construction."""
    c0, _ = regularity_bounds(fp.pair, anchors, z_ray.base, w.base, w_prime.base)
    return Ray(z_ray.base + c0 * w_prime.base)


def test_butterfly_bounds_scale_with_the_boundary_vector():
    """c(k) = t^-k c(0) and d(k) = t^-k d(0) at scale t^-k z, so the
    candidate Z1 = ray(t^-k z + c(k) w') is one ray for every k."""
    same_z = 0
    for fp, w, w_prime, _, z_ray, anchors in butterfly_candidates(7, 12):
        c0, d0 = regularity_bounds(fp.pair, anchors, z_ray.base, w.base, w_prime.base)
        z1 = first_candidate_ray(fp, w, w_prime, z_ray, anchors)
        same_z += z1 == z_ray
        for k in range(1, 4):
            z = t(-k) * z_ray.base
            c, d = regularity_bounds(fp.pair, anchors, z, w.base, w_prime.base)
            assert c == t(-k) * c0 and d == t(-k) * d0
            assert Ray(z + c * w_prime.base) == z1
    assert 0 < same_z < 12


def test_butterfly_with_fixed_z1_is_rejected_at_the_first_scale(monkeypatch):
    fp, w, w_prime, u, z_ray, anchors = next(
        cand for cand in butterfly_candidates(7, 12)
        if first_candidate_ray(*cand[:3], *cand[4:]) == cand[4])
    calls = []
    original = frontier.regularity_bounds
    monkeypatch.setattr(frontier, "regularity_bounds",
                        lambda *args: calls.append(args) or original(*args))
    with pytest.raises(VerificationFailed, match="fails the butterfly test"):
        fp.construct_butterfly(w, w_prime, u)
    assert len(calls) == 1


def scan_every_scale(fp, w, w_prime, u):
    """construct_butterfly as it was when its scale loop skipped W1 = W and
    went on to the next scale instead of stopping."""
    if w == w_prime:
        raise VerificationFailed("degenerate source pair W = W'")
    if (sign_vector_at(fp.pair, fp.family, w_prime) != fp.t
            or sign_vector_at(fp.pair, fp.family, u) != fp.t_prime):
        raise WitnessNotInStratum("W' must lie in T, U in T'")
    anchors = tuple(dict.fromkeys(a for f in fp.family for a in f.anchors()))
    if any(fp.pair.eval_b(u.base, y.base).is_zero() for y in anchors):
        raise NotRegular("U is not regular for the family anchors")
    z_ray, _ = fp.entrance_data(w, u)
    for k in range(frontier.SCALE_BUDGET):
        z = t(-k) * z_ray.base
        c, d = frontier.regularity_bounds(fp.pair, anchors, z, w.base, w_prime.base)
        w1 = Ray(w.base + c * w_prime.base)
        z1 = Ray(z + c * w_prime.base)
        if k == 0 and z1 == z_ray:
            break
        if w1 == w:
            continue
        if fp.is_butterfly(w, w1, z_ray, z1):
            return frontier.ButterflyResult(w, w1, z_ray, z1, c, d)
    raise VerificationFailed("candidate quadruple fails the butterfly test")


def butterfly_selection(seed, construct, wanted=3):
    """The butterflies kept by the `frontier` benchmark set-up at `seed`, and
    the scenarios it tried (``frontier.scenarios``), each kept when
    `construct` returns a butterfly.  At most 100 scenarios are tried (seeds
    3, 5 and 11 try 49, 9 and 26)."""
    found, tried = [], 0
    for fp, w, w2, u in itertools.islice(scenarios(Sampler(seed * 10 + 3)), 100):
        tried += 1
        try:
            found.append(construct(fp, w, w2, u))
        except TropraysError:
            continue
        if len(found) == wanted:
            break
    assert len(found) == wanted, f"seed {seed}: {len(found)} of {wanted} butterflies"
    return found, tried


def test_butterfly_scale_loop_stops_at_the_first_w1_equal_w(monkeypatch):
    """Stopping at the first W1 = W, with the regularity bounds computed once
    per candidate, keeps every butterfly and every rejection of the frontier
    set-up, and computes fewer bounds than scanning every scale: 352 -> 46 at
    seed 3, 38 -> 8 at seed 5 and 80 -> 24 at seed 11."""
    calls = []
    original = frontier.regularity_bounds
    monkeypatch.setattr(frontier, "regularity_bounds",
                        lambda *args: calls.append(args) or original(*args))
    counts = []
    for seed in (3, 5, 11):
        calls.clear()
        kept = butterfly_selection(seed, FrontierPair.construct_butterfly)
        stopping = len(calls)
        calls.clear()
        assert kept == butterfly_selection(seed, scan_every_scale), seed
        counts.append((stopping, len(calls)))
    assert counts == [(46, 352), (8, 38), (24, 80)]


def test_gorge_report_shape_with_stubbed_boundary(wall_frontier, monkeypatch):
    """Contract test of the "no stop within N" report.

    Searches over thousands of rational scenarios found no organically
    non-stopping process (every run repeats a ray within two steps), so the
    boundary oracle is stubbed to keep receding: each entrance comes one unit
    later than the last.  The report must then be a gorge with strictly
    increasing parity chains and no claimed junction ray.
    """
    w, w_prime, u = wall_scenario()
    calls = {"n": 0}
    original = wall_frontier.entrance_data

    def receding_entrance(src, target):
        calls["n"] += 1
        if calls["n"] == 1:
            return original(src, target)
        return target, t(-calls["n"])  # entrance parameter mu: lambda = t^n

    monkeypatch.setattr(wall_frontier, "entrance_data", receding_entrance)
    monkeypatch.setattr(
        wall_frontier.__class__, "is_junction", lambda self, *a: False)
    report = wall_frontier.junction_process(w, w_prime, u, max_iter=7)
    monkeypatch.undo()
    assert report.outcome == "gorge"
    assert report.ray is None
    assert report.steps == 7
    evens = [s.lam for s in report.trace if s.k % 2 == 0]
    odds = [s.lam for s in report.trace if s.k % 2 == 1]
    assert all(a < b for a, b in zip(evens, evens[1:]))
    assert all(a < b for a, b in zip(odds, odds[1:]))
    assert report.sigma == evens[-1] and report.tau == odds[-1]


def test_bound_frontier_gram_counts(gram_calls):
    """One binding per FrontierPair serves its sign vectors and traces, so a
    ray read again costs no Gram value: on WALL the junction process reads
    7 q + 14 b and the butterfly construction 14 q + 37 b, where binding per
    call read 25 + 26 and 62 + 69."""
    fam = wall_family()
    w, w2, u = wall_scenario()
    t_vec, t_prime = sign_vector_at(WALL, fam, w), sign_vector_at(WALL, fam, u)
    gram_calls.update(eval_q=0, eval_b=0)
    FrontierPair(WALL, fam, t_vec, t_prime).junction_process(w, w2, u)
    assert gram_calls == {"eval_q": 7, "eval_b": 14}
    gram_calls.update(eval_q=0, eval_b=0)
    FrontierPair(WALL, fam, t_vec, t_prime).construct_butterfly(w, w2, u)
    assert gram_calls == {"eval_q": 14, "eval_b": 37}
