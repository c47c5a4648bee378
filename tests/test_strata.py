import itertools
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import row_runs_reference
from chart_reference import stratum_witnesses, unpruned_chart
from troprays import quadspace, strata
from troprays.csfun import cs_restriction_pm
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
    assert list(sv.pairs()) == [((0, 1), "<"), ((0, 2), "="), ((1, 2), ">")]
    assert repr(sv) == "<f0<f1, f0=f2, f1>f2>"
    with pytest.raises(ValueError, match="wrong number"):
        SignVector(3, ("<", "="))
    with pytest.raises(ValueError, match="0 <= k < l < m"):
        sv.sign(1, 1)
    assert not SignVector(2, ("=",)).is_derivate_of(sv)  # different m


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
    # closure at the ends: [0, e[ holds 0 but not e, ]e, oo] holds oo but not e
    assert first.contains(ZERO) and not first.contains(t(0))
    assert last.contains(INF) and not last.contains(t(0))
    assert middle.contains(t(0))


def test_m1_trace_forms_one_separator_ray_per_parameter(m1, m1_fam, m1_iv, monkeypatch):
    """A one-point piece and the piece after it start at one parameter: the
    README trace forms ray(0, 0) once and uses it as both separators, and the
    five-function family forms one ray per distinct parameter."""
    calls = []
    real = RayInterval.pi
    monkeypatch.setattr(RayInterval, "pi", lambda self, lam: calls.append(lam) or real(self, lam))
    trace = stratify_interval(m1, m1_fam, m1_iv)
    assert [str(p.signs) for p in trace.pieces] == ["<", "=", ">"]
    assert calls == [t(0)]
    assert trace.boundaries[1] == trace.boundaries[2] == (t(0), ray(0, 0))
    del calls[:]
    trace = stratify_interval(m1, example_family(m1, m1_iv.y1, m1_iv.y2), m1_iv)
    assert calls == [t(-2), t(0), t(2)]
    assert trace.boundaries[1:-1] == ((t(-2), ray(0, -2)), (t(0), ray(0, 0)),
                                      (t(0), ray(0, 0)), (t(2), ray(-2, 0)))


def test_sign_monotone_check_names_the_pair_the_reference_names():
    """With four of six pairs failing, the one-match check and the frozen
    per-pair loop name the same, first failing pair in pair_index order; the
    pair before it, (0, 1), reads the monotone "<<<>"."""
    labels = ["<<<<=<", "<=><=>", "<<<<<<", ">=<<=<"]
    outcomes = []
    for check in (_assert_sign_monotone, row_runs_reference._assert_sign_monotone):
        with pytest.raises(VerificationFailed) as info:
            check(labels, 4)
        outcomes.append(str(info.value))
    assert outcomes[0] == outcomes[1] == (
        "sign pattern of pair (0,2) is not monotone: ['<', '=', '<', '=']")
    # monotone columns pass both
    _assert_sign_monotone(["<<>", "<=>", "==>"], 3)
    row_runs_reference._assert_sign_monotone(["<<>", "<=>", "==>"], 3)


def _monotone_outcome(check, labels, m):
    """None when the check passes, else the VerificationFailed message."""
    try:
        check(labels, m)
    except VerificationFailed as ex:
        return str(ex)
    return None


def test_sign_monotone_check_agrees_with_the_reference_on_every_short_list():
    """The check returns at once below three labels and changes no verdict:
    on every list of 1-5 labels for m = 2 and of 1-3 labels for m = 3, it and
    the frozen per-pair loop both pass or both raise the same message."""
    failures = 0
    for m, most in ((2, 5), (3, 3)):
        labels = ["".join(p) for p in itertools.product("<=>", repeat=m * (m - 1) // 2)]
        for n in range(1, most + 1):
            for case in itertools.product(labels, repeat=n):
                got = _monotone_outcome(_assert_sign_monotone, list(case), m)
                assert got == _monotone_outcome(
                    row_runs_reference._assert_sign_monotone, list(case), m), case
                failures += got is not None
    assert failures > 0


@settings(max_examples=300)
@given(st.sampled_from([4, 5]).flatmap(lambda m: st.tuples(st.just(m), st.sampled_from(
    ["<=>", "<=", "=>", "<>"]).flatmap(lambda signs: st.lists(st.text(
        signs, min_size=m * (m - 1) // 2, max_size=m * (m - 1) // 2), min_size=1, max_size=6)))))
def test_sign_monotone_check_agrees_with_the_reference_on_drawn_lists(case):
    """The same differential on drawn label lists for m = 4 and 5, each list
    over one alphabet of signs, so that monotone lists are drawn too."""
    m, labels = case
    assert _monotone_outcome(_assert_sign_monotone, labels, m) == _monotone_outcome(
        row_runs_reference._assert_sign_monotone, labels, m)


def test_one_step_labels_keep_the_length_test(m1, m1_fam, m1_iv, monkeypatch):
    """Traces and sign vectors build their SignVectors in one step off kernel
    labels; a label of the wrong length still raises SignVector's ValueError."""
    runs = [(ZERO, True, t(0), False, "<<"), (t(0), True, INF, True, "<=")]
    monkeypatch.setattr(strata, "row_runs", lambda *args: runs)
    with pytest.raises(ValueError, match="wrong number of pairwise signs"):
        strata._trace(strata._Bound(m1, m1_fam), m1_iv)
    monkeypatch.setattr(strata, "_signs", lambda values: "<=")
    with pytest.raises(ValueError, match="wrong number of pairwise signs"):
        sign_vector_at(m1, m1_fam, m1_iv.y1)


def test_non_monotone_sign_pattern_is_verification_failure(m1, m1_fam, m1_iv, monkeypatch):
    with pytest.raises(VerificationFailed, match="not monotone"):
        _assert_sign_monotone(["<", ">", "<"], 2)
    # every trace runs the check, one with an end dropped too
    runs = [(ZERO, True, t(0), False, "<"), (t(0), True, t(0), True, ">"),
            (t(0), False, INF, True, "<")]
    monkeypatch.setattr(strata, "row_runs", lambda *args: runs)
    with pytest.raises(VerificationFailed, match="not monotone"):
        strata._trace(strata._Bound(m1, m1_fam), m1_iv, drop_zero_end=True)


def test_sign_monotone_check_raises_under_optimize():
    """The self-check is a pattern match that raises VerificationFailed, so
    ``python -O``, which strips asserts, keeps it."""
    code = ("from troprays.errors import VerificationFailed\n"
            "from troprays.strata import _assert_sign_monotone\n"
            "try:\n"
            "    _assert_sign_monotone(['<<<', '<=<', '<<<'], 3)\n"
            "except VerificationFailed as ex:\n"
            "    print(ex)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert res.returncode == 0, res.stderr
    assert res.stdout == "sign pattern of pair (0,2) is not monotone: ['<', '=', '<']\n"


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
    padded_pm, f_pm = cs_restriction_pm(m1, eps1, eps2, (padded, f))
    assert padded_pm == f_pm
    assert padded.eval(m1, ray(0, 0)) == f.eval(m1, ray(0, 0))
    (zero_pm,) = cs_restriction_pm(m1, eps1, eps2, (BasicFunction.cs(ray(0, "-inf"), ZERO),))
    assert zero_pm.is_constant_zero()


def test_relaxation_components_basic():
    sv = SignVector(2, ("<",))
    comps = relaxation_components(sv, [(0, 1)])
    assert {str(c) for c in comps} == {"<", "="}
    assert relaxation_components(sv, []) == [sv]
    assert relaxation_components(sv, [(1, 0)]) == comps  # a pair given as (l, k)
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
    assert str(r) == "<="
    assert not r.satisfied_by(SignVector(3, ("<", "<", "<")))  # different m
    ge = Relaxation(3, (">=", "<", "="))
    assert str(ge) == ">=,<,="
    assert ge.satisfied_by(SignVector(3, (">", "<", "=")))
    assert ge.satisfied_by(SignVector(3, ("=", "<", "=")))
    assert not ge.satisfied_by(SignVector(3, ("<", "<", "=")))  # fails >=
    assert not ge.satisfied_by(SignVector(3, (">", "=", "=")))  # strict sign differs


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
    with pytest.raises(WitnessNotInStratum, match="W' does not satisfy T'"):
        is_direct_derivate(m1, m1_fam, lt, eq, ray(0, -5), ray(0, -6))


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
    pieces per the separator characterization.  Families of two, three and
    five functions: a pair of functions has at most one candidate point, so
    only the larger families give traces with several inner separators."""
    from troprays.semifield import midpoint

    sampler = Sampler(53)
    done = 0
    for _ in range(60):  # 40 draws keep the 40 cases
        if done == 40:
            break
        pair = sampler.anisotropic_pair(sampler.rng.randint(2, 3))
        n = pair.dim
        anchors = [Ray(sampler.vector(n, p_zero=0.0)) for _ in range((2, 3, 5)[done % 3])]
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
    assert done == 40


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
    for _ in range(80):  # 61 draws keep the 60 cases
        if done == 60:
            break
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
    assert done == 60


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
    decide = strata._boundary

    # every witness pair the chart tries is decided by one _boundary
    def counted(bound, interval, t_vec, t_prime):
        calls.append((t_vec, t_prime))
        return decide(bound, interval, t_vec, t_prime)

    monkeypatch.setattr(strata, "_boundary", counted)
    chart = derivation_chart(pair, family, sample)
    assert len(chart.edges) == 7
    assert 7 <= len(calls) <= 20
    assert all(tp.is_derivate_of(tv) for tv, tp in calls)


def test_sign_vector_gram_count(gram_calls):
    """q(x) once per sign vector, plus q(anchor) and b(anchor, x) per term:
    7 Gram evaluations per ray of the three-function CORNER family."""
    family, sample = corner_family(), corner_sample()
    for x in sample:
        sign_vector_at(CORNER, family, x)
    assert gram_calls == {"eval_q": 6 + 18, "eval_b": 18}
    assert sum(gram_calls.values()) == 42


def test_derivation_chart_gram_count(gram_calls):
    """The chart binds its family once: a sampled ray's q, column and
    numerators are formed once per lattice frame, and a trace between two
    sampled rays adds only b(eps1, eps2).  Binding per call, it read 69 q
    and 81 b."""
    derivation_chart(CORNER, corner_family(), corner_sample())
    assert gram_calls == {"eval_q": 14, "eval_b": 33}


def test_derivation_chart_forms_one_column_per_vector_and_lattice(monkeypatch):
    """The chart's binding keeps one frame entry per vector and lattice, and
    a vector's column B (x) x is formed once on it, however often traces and
    sign vectors read the vector: the six CORNER rays on their own lattices
    (dB, the one ray over 2, on the finer frame), and the two rays that a
    trace reads with dB once more on that frame, 8 columns."""
    columns = []
    kernel = quadspace._column

    def counted(rows, s, xs):
        columns.append(tuple(xs))
        return kernel(rows, s, xs)

    monkeypatch.setattr(quadspace, "_column", counted)
    derivation_chart(CORNER, corner_family(), corner_sample())
    assert len(columns) == 8
    assert len(set(columns)) == 8


def test_sign_vector_rejects_isotropic_anchor():
    pair = QuadraticPair.from_rows(["-inf", "0"], [["-inf", "1"], ["1", "0"]])
    fam = (BasicFunction.zero(), BasicFunction.cs(Ray(Vector.unit(2, 0))))
    with pytest.raises(IsotropicArgument):
        sign_vector_at(pair, fam, Ray(Vector.unit(2, 1)))


def test_stratify_interval_gram_count(m1, m1_fam, m1_iv, gram_calls):
    """q once per distinct vector, b(eps1, eps2) and each distinct anchor's
    b(eps1, w), b(eps2, w) once: the anchors of the M1 family are the
    interval's ends, so their q is a1 and a2, and 2 + 5 evaluations remain;
    the three CORNER anchors are not ends, so 3 + 3 * 3."""
    stratify_interval(m1, m1_fam, m1_iv)
    assert gram_calls == {"eval_q": 2, "eval_b": 1 + 4}
    family = corner_family()
    for k, (x, y) in enumerate(zip(corner_sample(), corner_sample()[1:]), 1):
        stratify_interval(CORNER, family, RayInterval(x, y))
        assert sum(gram_calls.values()) == 7 + 12 * k


def test_stratify_interval_rejects_isotropic_endpoints():
    pair = QuadraticPair.from_rows(["-inf", "0"], [["-inf", "1"], ["1", "0"]])
    fam = (BasicFunction.cs(Ray(Vector.unit(2, 1))),)
    e1, e2 = Ray(Vector.unit(2, 0)), Ray(Vector.unit(2, 1))
    for interval in (RayInterval(e1, e2), RayInterval(e2, e1)):
        with pytest.raises(IsotropicArgument):
            stratify_interval(pair, fam, interval)
