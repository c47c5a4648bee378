import pytest

from chart_reference import stratum_witnesses, unpruned_chart
from troprays.errors import IsotropicArgument, NotStrictPair, VerificationFailed, WitnessNotInStratum
from troprays.instances import (CHART, CORNER, M1, WALL, chart_family, chart_sample,
                                corner_family, corner_sample, m1_family, wall_family)
from troprays.quadspace import QuadraticPair, Vector
from troprays.rays import Ray, RayInterval, ray
from troprays.sampling import Sampler
from troprays.semifield import INF, ONE, ZERO, t
from troprays.strata import (
    BasicFunction,
    Relaxation,
    SignVector,
    TracePiece,
    _assert_sign_monotone,
    derivation_chart,
    example_family,
    is_direct_derivate,
    minimal_relaxation,
    relaxation_components,
    sign_vector_at,
    stratify_interval,
)


def test_eval_basic_worked(m1, m1_fam):
    assert m1_fam[0].eval(m1, ray(0, 0)) == t(2)
    assert BasicFunction.zero().eval(m1, ray(0, 0)) == ZERO
    c = m1.cs(Vector.unit(2, 0), Vector.unit(2, 1))
    scaled = BasicFunction.cs(ray(0, "-inf"), c.inverse())
    assert scaled.eval(m1, ray("-inf", 0)) == ONE


def test_example_family_sizes(m1):
    y1, y2 = ray(0, "-inf"), ray("-inf", 0)
    fam = example_family(m1, y1, y2)
    assert len(fam) == 5  # CS(Y1,Y2) = t^4 > e
    flat = QuadraticPair.from_rows(["0", "0"], [["0", "0"], ["0", "0"]])
    assert len(example_family(flat, y1, y2)) == 3


def test_sign_vector_worked(m1, m1_fam):
    assert str(sign_vector_at(m1, m1_fam, ray(0, -5))) == "<"
    assert str(sign_vector_at(m1, m1_fam, ray(0, 0))) == "="
    assert str(sign_vector_at(m1, m1_fam, ray("-inf", 0))) == ">"


def test_sign_vector_needs_anisotropic():
    pair = QuadraticPair.from_rows(["-inf", "0"], [["-inf", "1"], ["1", "0"]])
    fam = (BasicFunction.cs(Ray(Vector.unit(2, 1))),)
    with pytest.raises(IsotropicArgument):
        sign_vector_at(pair, fam, Ray(Vector.unit(2, 0)))


def test_pair_index_and_opposite():
    sv = SignVector(3, ("<", "=", ">"))
    assert sv.sign(0, 1) == "<"
    assert sv.sign(1, 0) == ">"
    assert sv.sign(1, 2) == ">"
    assert sv.sign(2, 1) == "<"


def test_stratify_m1_worked(m1, m1_fam, m1_iv):
    trace = stratify_interval(m1, m1_fam, m1_iv)
    signs = [str(p.signs) for p in trace.pieces]
    assert signs == ["<", "=", ">"]
    first, middle, last = trace.pieces
    assert (first.lo, first.hi, first.lo_closed, first.hi_closed) == (ZERO, t(0), True, False)
    assert middle.is_singleton() and middle.lo == t(0)
    assert (last.lo, last.hi, last.lo_closed, last.hi_closed) == (t(0), INF, False, True)
    # separators: Y1, Z, Z, Y2 with Z = ray(0,0)
    rays = trace.separator_rays()
    assert rays[0] == m1_iv.y1 and rays[-1] == m1_iv.y2
    assert rays[1] == rays[2] == ray(0, 0)


def test_non_monotone_sign_pattern_is_verification_failure():
    pieces = [TracePiece(SignVector(2, [s]), ZERO, True, ZERO, True) for s in "<><"]
    with pytest.raises(VerificationFailed, match="not monotone"):
        _assert_sign_monotone(pieces, 2)


def test_stratify_single_stratum(m1, m1_fam):
    interval = RayInterval(ray(0, -5), ray(0, -3))
    trace = stratify_interval(m1, m1_fam, interval)
    assert len(trace.pieces) == 1
    assert str(trace.pieces[0].signs) == "<"


def test_stratify_single_function(m1):
    fam = (BasicFunction.cs(ray(0, "-inf")),)
    trace = stratify_interval(m1, fam, RayInterval(ray(0, "-inf"), ray("-inf", 0)))
    assert len(trace.pieces) == 1


def test_trace_separator_characterization(m1, m1_fam, m1_iv):
    trace = stratify_interval(m1, m1_fam, m1_iv)
    for i, piece in enumerate(trace.pieces):
        lo_param = trace.boundaries[i][0]
        hi_param = trace.boundaries[i + 1][0]
        assert lo_param <= piece.lo and piece.hi <= hi_param
        # open hull inside the piece inside the closed hull
        if lo_param < hi_param:
            from troprays.semifield import midpoint

            assert piece.contains(midpoint(lo_param, hi_param))


def test_zero_member_family_stratifies(m1, m1_iv):
    fam = example_family(m1, m1_iv.y1, m1_iv.y2)
    trace = stratify_interval(m1, fam, m1_iv)
    assert len(trace.pieces) >= 3
    covered = [p.signs for p in trace.pieces]
    assert len(set(covered)) == len(covered)  # consecutive pieces differ


def test_zero_coefficient_term_drops_out(m1, m1_iv):
    """A term with coefficient 0 restricts to the zero it evaluates to."""
    eps1, eps2 = m1_iv.y1.base, m1_iv.y2.base
    f = BasicFunction.cs(ray(0, "-inf"))
    padded = BasicFunction(f.terms + ((ZERO, ray("-inf", 0)),))
    assert padded.restrict(m1, eps1, eps2) == f.restrict(m1, eps1, eps2)
    assert padded.eval(m1, ray(0, 0)) == f.eval(m1, ray(0, 0))
    assert BasicFunction.cs(ray(0, "-inf"), ZERO).restrict(m1, eps1, eps2).is_constant_zero()


def test_relaxation_components_basic():
    sv = SignVector(2, ("<",))
    comps = relaxation_components(sv, [(0, 1)])
    assert {str(c) for c in comps} == {"<", "="}
    assert relaxation_components(sv, []) == [sv]
    with pytest.raises(NotStrictPair):
        relaxation_components(SignVector(2, ("=",)), [(0, 1)])


def test_relaxation_components_filtering():
    sv = SignVector(3, ("<", "<", "<"))
    comps = relaxation_components(sv, [(0, 1), (0, 2)])
    assert len(comps) == 4
    realized = {SignVector(3, ("<", "<", "<")), SignVector(3, ("=", "<", "<"))}
    kept = relaxation_components(sv, [(0, 1), (0, 2)], realized=realized)
    assert set(kept) == realized


def test_minimal_relaxation():
    a = SignVector(2, ("<",))
    b = SignVector(2, ("=",))
    c = SignVector(2, (">",))
    assert minimal_relaxation(a, b) == Relaxation(2, ("<=",))
    assert minimal_relaxation(a, a) == Relaxation(2, ("<",))
    assert minimal_relaxation(a, c) is None
    r = minimal_relaxation(a, b)
    assert r.satisfied_by(a) and r.satisfied_by(b) and not r.satisfied_by(c)


def test_is_direct_derivate_cases(m1, m1_fam):
    lt = sign_vector_at(m1, m1_fam, ray(0, -5))
    eq = sign_vector_at(m1, m1_fam, ray(0, 0))
    gt = sign_vector_at(m1, m1_fam, ray("-inf", 0))
    assert is_direct_derivate(m1, m1_fam, lt, eq, ray(0, -5), ray(0, 0)) == "case1"
    assert is_direct_derivate(m1, m1_fam, eq, gt, ray(0, 0), ray("-inf", 0)) == "case2"
    assert is_direct_derivate(m1, m1_fam, lt, gt, ray(0, -5), ray("-inf", 0)) == "not_neighbors"
    with pytest.raises(ValueError):
        is_direct_derivate(m1, m1_fam, lt, lt, ray(0, -5), ray(0, -7))
    with pytest.raises(WitnessNotInStratum):
        is_direct_derivate(m1, m1_fam, lt, eq, ray(0, 3), ray(0, 0))


def test_neighbor_criterion_witness_independent(m1, m1_fam):
    lt = sign_vector_at(m1, m1_fam, ray(0, -5))
    eq = sign_vector_at(m1, m1_fam, ray(0, 0))
    for w_exp in (-9, -4, -1):
        assert is_direct_derivate(m1, m1_fam, lt, eq, ray(0, w_exp), ray(0, 0)) == "case1"


def test_chart_m1_chain(m1, m1_fam):
    sample = [ray(0, -5), ray(0, 0), ray("-inf", 0), ray(0, 3)]
    chart = derivation_chart(m1, m1_fam, sample)
    names = {str(n): n for n in chart.nodes}
    edges = {(str(a), str(b)) for a, b in chart.edges}
    assert edges == {("<", "="), (">", "=")}
    dot = chart.to_dot()
    assert "digraph" in dot and dot.count("->") == 2


def test_chart_single_node(m1, m1_fam):
    chart = derivation_chart(m1, m1_fam, [ray(0, -5), ray(0, -1)])
    assert len(chart.nodes) == 1 and not chart.edges


def test_canonical_family_sign_vectors_depend_on_ratio_only():
    """Every pairwise comparison in the canonical family cancels q, so two
    rays with the same b(y1,-)/b(y2,-) ratio (and zero pattern) share their
    sign vector.  This is the structural fact behind the zigzag shape of
    derivation charts for this family."""
    sampler = Sampler(71)
    checked = 0
    while checked < 200:
        pair = sampler.anisotropic_pair(3, balanced=True)
        y1, y2 = Ray(Vector.unit(3, 0)), Ray(Vector.unit(3, 1))
        fam = example_family(pair, y1, y2)
        x1, x2 = sampler.vector(3), sampler.vector(3)
        b11, b12 = pair.eval_b(y1.base, x1), pair.eval_b(y2.base, x1)
        b21, b22 = pair.eval_b(y1.base, x2), pair.eval_b(y2.base, x2)
        same_pattern = (b11.is_zero(), b12.is_zero()) == (b21.is_zero(), b22.is_zero())
        if not same_pattern:
            continue
        if not b12.is_zero() and not b22.is_zero():
            if b11 / b12 != b21 / b22:
                continue
        checked += 1
        assert (sign_vector_at(pair, fam, Ray(x1))
                == sign_vector_at(pair, fam, Ray(x2)))


def test_chart_instance_realizes_seven_strata():
    fam = chart_family()
    sample = chart_sample()
    vectors = [sign_vector_at(CHART, fam, x) for x in sample]
    assert len(set(vectors)) == 7


def test_chart_instance_edge_structure():
    """The canonical family's strata are classes of one ratio, so the chart is
    a zigzag path: arrows only from open ratio classes into the adjacent
    threshold classes."""
    fam = chart_family()
    sample = chart_sample()
    chart = derivation_chart(CHART, fam, sample)
    order = {sign_vector_at(CHART, fam, x): i for i, x in enumerate(sample)}
    assert len(chart.edges) == 6
    for a, b in chart.edges:
        assert abs(order[a] - order[b]) == 1
        assert order[b] % 2 == 0  # even sample indices are the threshold classes
    sinks = {b for _, b in chart.edges}
    assert all(not chart.successors(b) for b in sinks)


def test_strata_convexity_sampled():
    sampler = Sampler(41)
    probes = 0
    while probes < 400:
        pair = sampler.anisotropic_pair(sampler.rng.randint(2, 3))
        n = pair.dim
        anchors = [Ray(sampler.vector(n, p_zero=0.0)) for _ in range(2)]
        fam = tuple(BasicFunction.cs(a) for a in anchors)
        x1, x2 = Ray(sampler.vector(n)), Ray(sampler.vector(n))
        if x1 == x2:
            continue
        s1 = sign_vector_at(pair, fam, x1)
        if s1 != sign_vector_at(pair, fam, x2):
            continue
        interval = RayInterval(x1, x2)
        for _ in range(5):
            probes += 1
            between = interval.pi(sampler.value())
            assert sign_vector_at(pair, fam, between) == s1


def test_relaxation_sets_convex_sampled(m1, m1_fam):
    relax = Relaxation(2, ("<=",))
    sampler = Sampler(43)
    for _ in range(100):
        x1, x2 = Ray(sampler.vector(2)), Ray(sampler.vector(2))
        if x1 == x2:
            continue
        if not (relax.satisfied_by(sign_vector_at(m1, m1_fam, x1))
                and relax.satisfied_by(sign_vector_at(m1, m1_fam, x2))):
            continue
        interval = RayInterval(x1, x2)
        mid = interval.pi(sampler.value())
        assert relax.satisfied_by(sign_vector_at(m1, m1_fam, mid))


def test_derivate_path_property(m1, m1_fam):
    # a derivate is reachable through a chain of direct derivations
    sample = [ray(0, -5), ray(0, 0), ray("-inf", 0)]
    chart = derivation_chart(m1, m1_fam, sample)
    lt = sign_vector_at(m1, m1_fam, ray(0, -5))
    eq = sign_vector_at(m1, m1_fam, ray(0, 0))
    assert eq.is_derivate_of(lt)
    assert eq in chart.successors(lt)


def test_trace_boundaries_on_random_models():
    """Boundary rays are pi at the boundary parameters and bracket their
    pieces per the separator characterization."""
    from troprays.semifield import midpoint

    sampler = Sampler(53)
    done = 0
    while done < 40:
        pair = sampler.anisotropic_pair(sampler.rng.randint(2, 3))
        n = pair.dim
        anchors = [Ray(sampler.vector(n, p_zero=0.0)) for _ in range(2)]
        fam = tuple(BasicFunction.cs(a) for a in anchors)
        y1, y2 = Ray(sampler.vector(n)), Ray(sampler.vector(n))
        if y1 == y2:
            continue
        done += 1
        interval = RayInterval(y1, y2)
        trace = stratify_interval(pair, fam, interval)
        assert trace.boundaries[0] == (ZERO, y1)
        assert trace.boundaries[-1][1] == y2
        for param, boundary in trace.boundaries[1:-1]:
            assert interval.pi(param) == boundary
        for i, piece in enumerate(trace.pieces):
            lo_param = trace.boundaries[i][0]
            hi_param = trace.boundaries[i + 1][0]
            assert lo_param <= piece.lo <= piece.hi <= hi_param
            if lo_param < hi_param:
                inner = midpoint(lo_param, hi_param)
                assert piece.contains(inner)
                assert sign_vector_at(pair, fam, interval.pi(inner)) == piece.signs


def test_chart_on_wall_model():
    from troprays.instances import WALL, wall_family

    fam = wall_family()
    sample = [ray(0, -5, "-inf"), ray(-2, -6, 0), ray(-1, -1, 5),
              ray("-inf", 0, "-inf")]
    chart = derivation_chart(WALL, fam, sample)
    edges = {(str(a), str(b)) for a, b in chart.edges}
    assert edges == {("<", "="), (">", "=")}


def test_sign_patterns_monotone_along_traces():
    sampler = Sampler(47)
    done = 0
    while done < 60:
        pair = sampler.anisotropic_pair(sampler.rng.randint(2, 3))
        n = pair.dim
        anchors = [Ray(sampler.vector(n, p_zero=0.0)) for _ in range(2)]
        fam = tuple(BasicFunction.cs(a) for a in anchors)
        y1, y2 = Ray(sampler.vector(n)), Ray(sampler.vector(n))
        if y1 == y2:
            continue
        done += 1
        trace = stratify_interval(pair, fam, RayInterval(y1, y2))
        for k in range(len(fam)):
            for l in range(k + 1, len(fam)):
                signs = [p.signs.sign(k, l) for p in trace.pieces]
                rank = [{"<": 0, "=": 1, ">": 2}[s] for s in signs]
                assert (all(a <= b for a, b in zip(rank, rank[1:]))
                        or all(a >= b for a, b in zip(rank, rank[1:])))


def _corner_case(per_stratum):
    family, sample = corner_family(), corner_sample()
    pools = stratum_witnesses(CORNER, family, sample, per_stratum, Sampler(808))
    return CORNER, family, [z for x in sample for z in pools[sign_vector_at(CORNER, family, x)]]


def _random_chart_case(seed):
    """Three CS functions of a random model, sampled at the interior points of
    the pieces of random interval traces, so walls between strata get rays."""
    sampler = Sampler(seed)
    pair = sampler.anisotropic_pair(sampler.rng.randint(2, 3))
    family = tuple(BasicFunction.cs(Ray(sampler.vector(pair.dim, p_zero=0.0)))
                   for _ in range(3))
    sample = []
    while len(sample) < 12:
        y1, y2 = (Ray(sampler.vector(pair.dim, p_zero=0.0)) for _ in range(2))
        if y1 == y2:
            continue
        interval = RayInterval(y1, y2)
        for piece in stratify_interval(pair, family, interval).pieces:
            x = interval.pi(piece.interior_point())
            if x not in sample:
                sample.append(x)
    return pair, family, sample


CHART_CASES = {
    "CHART": lambda: (CHART, chart_family(), chart_sample()),
    "m1": lambda: (M1, m1_family(), [ray(0, -5), ray(0, 0), ray("-inf", 0), ray(0, 3),
                                     ray(0, -1), ray(0, 1)]),
    "WALL": lambda: (WALL, wall_family(), [ray(0, -5, "-inf"), ray(-2, -6, 0),
                                           ray(-1, -1, 5), ray("-inf", 0, "-inf")]),
    "CORNER-4": lambda: _corner_case(4),
    "CORNER-8": lambda: _corner_case(8),
    **{f"random-{seed}": (lambda seed=seed: _random_chart_case(seed)) for seed in range(1, 13)},
}


@pytest.mark.parametrize("name", sorted(CHART_CASES))
def test_pruned_chart_equals_unpruned_chart(name):
    """Skipping pairs that are not derivates loses no case1 edge."""
    pair, family, sample = CHART_CASES[name]()
    pruned = derivation_chart(pair, family, sample)
    full = unpruned_chart(pair, family, sample)
    assert pruned.nodes == full.nodes
    assert pruned.edges == full.edges
    assert pruned.witnesses == full.witnesses


def test_corner_chart_tries_only_derivate_pairs(monkeypatch):
    import troprays.strata as strata

    pair, family, sample = _corner_case(4)
    calls = []
    decide = strata.is_direct_derivate

    def counted(*args):
        calls.append(args[2:4])
        return decide(*args)

    monkeypatch.setattr(strata, "is_direct_derivate", counted)
    chart = derivation_chart(pair, family, sample)
    assert len(chart.edges) == 7
    assert len(calls) <= 20
    assert all(tp.is_derivate_of(tv) for tv, tp in calls)
