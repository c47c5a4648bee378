import pytest

from troprays.csfun import BasicFunction
from troprays.errors import IllposedApproach, NoAnisotropicInterior
from troprays.instances import M3, M3_C1
from troprays.isotropy import (
    entrance_stratum,
    stability_check,
    stratify_halfopen,
)
from troprays.quadspace import QuadraticPair, Vector, vec
from troprays.rays import Ray, RayInterval, ray
from troprays.semifield import INF, ZERO, t
from troprays.strata import TracePiece, _sign_vector, example_family, sign_vector_at


def units(n=3):
    return tuple(Vector.unit(n, i) for i in range(n))


# the worked models of cases A, B, C2a and the swap, each with eps = e1 on the
# interval (ray(e2), ray(e3))
MODEL_A = QuadraticPair.from_rows(
    ["-inf", "0", "0"],
    [["-inf", "2", "1"],
     ["2", "0", "0"],
     ["1", "0", "0"]])
# eps orthogonal to both base points
MODEL_B = QuadraticPair.from_rows(
    ["-inf", "0", "0"],
    [["-inf", "-inf", "-inf"],
     ["-inf", "0", "0"],
     ["-inf", "0", "0"]])
# CS(eps2, eps3) > e via beta23 = 3
MODEL_C2A = QuadraticPair.from_rows(
    ["-inf", "0", "0"],
    [["-inf", "1", "-inf"],
     ["1", "0", "3"],
     ["-inf", "3", "0"]])
# alpha12 = 0 < alpha13
MODEL_SWAP = QuadraticPair.from_rows(
    ["-inf", "0", "0"],
    [["-inf", "-inf", "1"],
     ["-inf", "0", "0"],
     ["1", "0", "0"]])


@pytest.fixture(scope="module")
def m3_setup():
    e1, e2, e3 = units()
    fam = example_family(M3, Ray(e2), Ray(e3))
    return M3, fam, Ray(e2), Ray(e3), e1, e2, e3


def test_is_isotropic_worked():
    e1, e2, e3 = units()
    assert M3.is_isotropic(e1)
    assert not M3.is_isotropic(e2)
    # cross term makes e1 + e2 anisotropic
    assert not M3.is_isotropic(vec(0, 0, "-inf"))


def test_entrance_m3_case_c2b(m3_setup):
    pair, fam, y2, y3, e1, e2, e3 = m3_setup
    approach = entrance_stratum(pair, fam, y2, y3, e1, e3)
    assert approach.case == "C2b"
    assert approach.t0 == t(1)
    assert approach.strict
    assert not approach.swapped
    # sign vectors straddle the threshold exactly
    below = sign_vector_at(pair, fam, Ray(e1 + t("1/2") * e3))
    above = sign_vector_at(pair, fam, Ray(e1 + t(2) * e3))
    assert below == approach.entrance
    assert above != below


def test_entrance_m3_case_c1():
    e1, e2, e3 = units()
    fam = example_family(M3_C1, Ray(e2), Ray(e3))
    approach = entrance_stratum(M3_C1, fam, Ray(e2), Ray(e3), e1, e2)
    assert approach.case == "C1"
    assert approach.t0 == INF
    assert approach.profile is not None
    # profile is the reciprocal of the interval's q polynomial
    assert approach.profile.reduced_degrees() == (0, -2)


def test_entrance_case_b_stratum_of_eta():
    # eps orthogonal to both base points: stratum of ray(eta) itself
    pair = MODEL_B
    e1, e2, e3 = units()
    fam = example_family(pair, Ray(e2), Ray(e3))
    eta = vec("-inf", 0, 1)
    approach = entrance_stratum(pair, fam, Ray(e2), Ray(e3), e1, eta)
    assert approach.case == "B"
    assert approach.t0 == INF
    assert approach.entrance == sign_vector_at(pair, fam, Ray(eta))


def test_entrance_case_a_bound():
    pair = MODEL_A
    e1, e2, e3 = units()
    fam = example_family(pair, Ray(e2), Ray(e3))
    eta = vec("-inf", 0, 0)
    approach = entrance_stratum(pair, fam, Ray(e2), Ray(e3), e1, eta)
    assert approach.case == "A"
    # min(alpha12/b(eta,eps2), alpha13/b(eta,eps3)) = min(t^2/e, t^1/e)
    assert approach.t0 == t(1)
    assert not approach.strict
    report = stability_check(pair, fam, approach,
                             [t(k) for k in range(-8, 2)] + [approach.t0])
    assert report.ok
    # 0, oo and samples past the inclusive bound are skipped, t0 itself is not
    report = stability_check(pair, fam, approach,
                             [ZERO, INF, t(2), approach.t0, t(-1)])
    assert report.ok and set(report.observed) == {approach.t0, t(-1)}


def test_entrance_case_a_infinite_denominators():
    pair = MODEL_A
    e1, e2, e3 = units()
    fam = example_family(pair, Ray(e2), Ray(e3))
    approach = entrance_stratum(pair, fam, Ray(e2), Ray(e3), e1, e1 + e2)
    # b(eta, eps_i) with eta touching only isotropic directions stays finite
    assert approach.case == "A"


def test_entrance_case_c2a():
    # CS(eps2, eps3) > e via beta23 = 3: bound (alpha12 alpha2)/(alpha23 b(eta,eps3))
    pair = MODEL_C2A
    e1, e2, e3 = units()
    fam = example_family(pair, Ray(e2), Ray(e3))
    approach = entrance_stratum(pair, fam, Ray(e2), Ray(e3), e1, e3)
    assert approach.case == "C2a"
    assert approach.strict
    assert approach.t0 == (t(1) * t(0)) / (t(3) * t(0))  # = t^-2
    report = stability_check(pair, fam, approach, [t(k) for k in range(-12, 0)])
    assert report.ok


def test_entrance_mixed_case_swaps():
    # alpha12 = 0 < alpha13: the analysis swaps the interval base points
    pair = MODEL_SWAP
    e1, e2, e3 = units()
    fam = example_family(pair, Ray(e2), Ray(e3))
    approach = entrance_stratum(pair, fam, Ray(e2), Ray(e3), e1, e2)
    assert approach.swapped
    assert approach.case.startswith("C")


def test_entrance_illposed():
    pair = QuadraticPair.from_rows(
        ["-inf", "0", "-inf"],
        [["-inf", "1", "-inf"],
         ["1", "0", "-inf"],
         ["-inf", "-inf", "-inf"]])
    e1, e2, e3 = units()
    fam = (example_family(pair, Ray(e2), Ray(vec(0, 0, "-inf"))))
    with pytest.raises(IllposedApproach):
        entrance_stratum(pair, fam, Ray(e2), Ray(vec(0, 0, "-inf")), e3, e3)


def test_entrance_requires_isotropic_eps(m3_setup):
    pair, fam, y2, y3, e1, e2, e3 = m3_setup
    with pytest.raises(ValueError):
        entrance_stratum(pair, fam, y2, y3, e2, e3)


def test_stability_detects_change_across_threshold(m3_setup):
    pair, fam, y2, y3, e1, e2, e3 = m3_setup
    approach = entrance_stratum(pair, fam, y2, y3, e1, e3)
    # include samples beyond t0: they are skipped, so the check passes
    inside = [t(k) for k in range(-10, 1)]
    report = stability_check(pair, fam, approach, inside + [t(2), t(5)])
    assert report.ok
    assert report.samples_checked == len(inside)
    # forcing a sample beyond the bound into a fake approach shows the change
    beyond = sign_vector_at(pair, fam, Ray(e1 + t(2) * e3))
    assert beyond != approach.entrance
    unbounded = approach._replace(t0=INF, strict=False)
    report = stability_check(pair, fam, unbounded, inside + [t(2), t(5)])
    assert not report.ok
    assert report.first_violation == (t(2), beyond)
    assert report.samples_checked == len(inside) + 1  # counted up to the first violation


def test_stability_case_c1_wide_range():
    e1, e2, e3 = units()
    fam = example_family(M3_C1, Ray(e2), Ray(e3))
    approach = entrance_stratum(M3_C1, fam, Ray(e2), Ray(e3), e1, e2)
    samples = [t(k) for k in range(-10, 11, 2)]  # ten orders of magnitude
    report = stability_check(M3_C1, fam, approach, samples)
    assert report.ok
    assert report.samples_checked == len(samples)


def in_bound(approach, samples):
    """The samples a stability check reads, ascending: 0, oo and those past
    the bound (at t0 itself for a strict bound) left out."""
    t0 = approach.t0
    return [t_val for t_val in sorted(set(samples))
            if not (t_val.is_zero() or t_val.is_infinite() or (
                t0.is_finite() and (t_val >= t0 if approach.strict else t_val > t0)))]


def stop_at_first_violation(pair, fam, approach, samples):
    """A check that stops at its first in-bound sample off the entrance, each
    sample bound on its own: (ok, samples_checked, first_violation, observed)."""
    observed = {}
    for t_val in in_bound(approach, samples):
        sv = observed[t_val] = sign_vector_at(pair, fam, Ray(approach.eps + t_val * approach.eta))
        if sv != approach.entrance:
            return False, len(observed), (t_val, sv), observed
    return True, len(observed), None, observed


def scaled_m3_family():
    """CS(Y2,-) scaled by -3 and CS(Y3,-) by -1 on M3: the entrance <<= at
    e1 toward e3 holds at t = 0 only."""
    e1, e2, e3 = units()
    return (BasicFunction.zero(), BasicFunction.cs(Ray(e2), t(-3)),
            BasicFunction.cs(Ray(e3), t(-1)))


def stability_cases():
    """(pair, family, approach, samples) of the stability checks above, the
    failing ones included."""
    e1, e2, e3 = units()
    fam_m3 = example_family(M3, Ray(e2), Ray(e3))
    m3 = entrance_stratum(M3, fam_m3, Ray(e2), Ray(e3), e1, e3)
    inside = [t(k) for k in range(-10, 1)]
    fam_a = example_family(MODEL_A, Ray(e2), Ray(e3))
    case_a = entrance_stratum(MODEL_A, fam_a, Ray(e2), Ray(e3), e1, vec("-inf", 0, 0))
    fam_c2a = example_family(MODEL_C2A, Ray(e2), Ray(e3))
    c2a = entrance_stratum(MODEL_C2A, fam_c2a, Ray(e2), Ray(e3), e1, e3)
    fam_c1 = example_family(M3_C1, Ray(e2), Ray(e3))
    c1 = entrance_stratum(M3_C1, fam_c1, Ray(e2), Ray(e3), e1, e2)
    scaled = scaled_m3_family()
    fails = entrance_stratum(M3, scaled, Ray(e2), Ray(e3), e1, e3)
    return [
        (MODEL_A, fam_a, case_a, [t(k) for k in range(-8, 2)] + [case_a.t0]),
        (MODEL_A, fam_a, case_a, [ZERO, INF, t(2), case_a.t0, t(-1)]),
        (MODEL_C2A, fam_c2a, c2a, [t(k) for k in range(-12, 0)]),
        (M3, fam_m3, m3, inside + [t(2), t(5)]),
        (M3, fam_m3, m3._replace(t0=INF, strict=False), inside + [t(2), t(5)]),
        (M3_C1, fam_c1, c1, [t(k) for k in range(-10, 11, 2)]),
        (M3, scaled, fails, [fails.t_checked * t(-k) for k in range(5)]),
        (M3, scaled, fails, [t(k) for k in range(-3, 3)]),
    ]


@pytest.mark.parametrize("case", range(8), ids=[
    "A", "A-skips", "C2a", "C2b", "C2b-unbounded", "C1", "scaled-cli", "scaled"])
def test_stability_reads_past_the_first_violation(case):
    """The verdict, the count and the first violation are those of a check
    that stops at the first violation; ``observed`` holds every in-bound
    sample, those past the violation included."""
    pair, fam, approach, samples = stability_cases()[case]
    ok, checked, first, stopped = stop_at_first_violation(pair, fam, approach, samples)
    report = stability_check(pair, fam, approach, samples)
    assert (report.ok, report.samples_checked, report.first_violation) == (ok, checked, first)
    assert report.observed.items() >= stopped.items()
    assert list(report.observed) == in_bound(approach, samples)


@pytest.mark.parametrize("model, eta", [
    (MODEL_C2A, ("-inf", "-inf", 0)),
    (M3, ("-inf", "-inf", 0)),
    (MODEL_SWAP, ("-inf", 0, "-inf")),
], ids=["C2a", "C2b", "swapped"])
def test_strict_bound_skips_a_sample_at_t0(model, eta):
    """Under a strict bound the ray at t0 leaves the entrance stratum, and a
    sample there is skipped."""
    e1, e2, e3 = units()
    fam = example_family(model, Ray(e2), Ray(e3))
    approach = entrance_stratum(model, fam, Ray(e2), Ray(e3), e1, vec(*eta))
    assert approach.strict
    assert sign_vector_at(model, fam, Ray(e1 + approach.t0 * vec(*eta))) != approach.entrance
    below = approach.t0 * t(-1)
    report = stability_check(model, fam, approach, [approach.t0, below])
    assert report.ok and set(report.observed) == {below}


def test_halfopen_trace_m3(m3_setup):
    pair, fam, y2, y3, e1, e2, e3 = m3_setup
    trace = stratify_halfopen(pair, fam, Ray(e1), y2)
    assert not trace.pieces[0].lo_closed
    assert trace.pieces[0].lo == ZERO
    assert trace.pieces[-1].hi_closed
    # every interior sample is anisotropic and lands in its piece's stratum
    for piece in trace.pieces:
        lam = piece.interior_point()
        if lam.is_zero():
            continue
        witness = trace.interval.pi(lam)
        assert not pair.eval_q(witness.base).is_zero()
        assert sign_vector_at(pair, fam, witness) == piece.signs


def test_halfopen_gram_count(gram_calls, m3_setup):
    """One binding of the family serves the half-open trace of ]e1, Y2] on
    M3 and both separator re-checks.  Binding once per trace, it read 11 q
    and 15 b."""
    pair, fam, y2, y3, e1, e2, e3 = m3_setup
    gram_calls.update(eval_q=0, eval_b=0)
    stratify_halfopen(pair, fam, Ray(e1), y2)
    assert gram_calls == {"eval_q": 7, "eval_b": 11}


def test_halfopen_entrance_matches_classification(m3_setup):
    pair, fam, y2, y3, e1, e2, e3 = m3_setup
    approach = entrance_stratum(pair, fam, y2, y3, e1, e3)
    trace = stratify_halfopen(pair, fam, Ray(e1), y3)
    # the interval [ray(e1), Y3] is parametrized by eps + t*e3: the first
    # piece is exactly the classified entrance stratum
    assert trace.pieces[0].signs == approach.entrance
    assert trace.pieces[0].hi == approach.t0


def test_halfopen_doubly_isotropic():
    pair = QuadraticPair.from_rows(
        ["-inf", "0", "-inf"],
        [["-inf", "1", "2"],
         ["1", "0", "1"],
         ["2", "1", "-inf"]])
    e1, e2, e3 = units()
    fam = example_family(pair, Ray(e2), Ray(vec(0, 0, "-inf")))
    trace = stratify_halfopen(pair, fam, Ray(e1), Ray(e3))
    assert not trace.pieces[0].lo_closed
    assert not trace.pieces[-1].hi_closed
    for piece in trace.pieces:
        lam = piece.interior_point()
        if lam.is_zero() or lam.is_infinite():
            continue
        assert sign_vector_at(pair, fam, trace.interval.pi(lam)) == piece.signs


@pytest.mark.parametrize("end", [("0", "0", "-inf"), ("0", "0", "0"), ("0", "-inf", "0"),
                                 ("0", "-1", "-1")])
def test_halfopen_one_piece_with_w_prime_reached_at_e(m3_setup, end):
    """pi(lam) = W' from lam = e on: W~ is picked below e, not at pi(e) = W'."""
    pair, fam, y2, y3, e1, e2, e3 = m3_setup
    w_prime = ray(*end)
    trace = stratify_halfopen(pair, fam, Ray(e1), w_prime)
    assert trace.interval.locate(w_prime) == t(0)
    signs = sign_vector_at(pair, fam, trace.interval.pi(t(-1)))
    assert trace.pieces == (TracePiece(signs, ZERO, False, INF, True),)
    assert trace.separator_rays() == (Ray(e1), w_prime)


def test_halfopen_doubly_isotropic_one_piece():
    """W~ and W~' are distinct rays inside the one piece."""
    pair = QuadraticPair.from_rows(
        ["-inf", "-inf", "0"],
        [["-inf", "0", "-inf"],
         ["0", "-inf", "-inf"],
         ["-inf", "-inf", "0"]])
    e1, e2, e3 = units()
    fam = (BasicFunction.zero(), BasicFunction.cs(Ray(e3)))
    trace = stratify_halfopen(pair, fam, Ray(e1), Ray(e2))
    signs = sign_vector_at(pair, fam, trace.interval.pi(t(0)))
    assert trace.pieces == (TracePiece(signs, ZERO, False, INF, False),)
    assert trace.separator_rays() == (Ray(e1), Ray(e2))


def test_halfopen_no_anisotropic_interior():
    pair = QuadraticPair.from_rows(
        ["-inf", "-inf", "0"],
        [["-inf", "-inf", "-inf"],
         ["-inf", "-inf", "-inf"],
         ["-inf", "-inf", "0"]])
    e1, e2, e3 = units()
    fam = (example_family(pair, Ray(e3), Ray(vec("-inf", 0, 0))))
    with pytest.raises(NoAnisotropicInterior):
        stratify_halfopen(pair, fam, Ray(e1), Ray(e2))


def test_halfopen_requires_isotropic_w(m1, m1_fam):
    with pytest.raises(ValueError, match="W must be isotropic"):
        stratify_halfopen(m1, m1_fam, ray(0, -5), ray(0, 0))


def test_halfopen_interior_all_anisotropic(m3_setup):
    # ]W, W'] lies entirely inside the anisotropic ray space
    pair, fam, y2, y3, e1, e2, e3 = m3_setup
    interval = RayInterval(Ray(e1), y2)
    for k in range(-6, 7, 2):
        assert not pair.eval_q(interval.pi(t(k)).base).is_zero()


def test_isotropy_entry_evaluates_each_sample_once(monkeypatch, capsys):
    """The README isotropy-entry command: one sign vector for the entrance
    witness and one per sample (the first sample is that witness again),
    none recomputed for the table."""
    import os

    import troprays.cli as cli
    import troprays.isotropy as isotropy
    import troprays.strata as strata

    data = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "data")
    calls = []

    def counted(bound, x):
        calls.append(x)
        return _sign_vector(bound, x)

    monkeypatch.setattr(strata, "_sign_vector", counted)
    monkeypatch.setattr(isotropy, "_sign_vector", counted)
    code = cli.main(["isotropy-entry", "--model", os.path.join(data, "m3.json"),
                     "--b", os.path.join(data, "family_m3.json"), "--from", "Y2",
                     "--to", "Y3", "--eps=0,-inf,-inf", "--eta=-inf,-inf,0"])
    assert code == 0
    assert "stability over 25 samples: pass" in capsys.readouterr().out
    assert len(calls) == 26


def test_isotropy_entry_binds_the_family_twice(monkeypatch, capsys):
    """The README isotropy-entry command binds the family once for the
    entrance witness and once for the stability check; the table reads the
    check's readings and binds nothing."""
    import os

    import troprays.cli as cli
    import troprays.csfun as csfun

    data = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "data")
    bindings = []
    init = csfun._Bound.__init__

    def counted(self, *args):
        bindings.append(args)
        init(self, *args)

    monkeypatch.setattr(csfun._Bound, "__init__", counted)
    code = cli.main(["isotropy-entry", "--model", os.path.join(data, "m3.json"),
                     "--b", os.path.join(data, "family_m3.json"), "--from", "Y2",
                     "--to", "Y3", "--eps=0,-inf,-inf", "--eta=-inf,-inf,0"])
    assert code == 0
    assert "stability over 25 samples: pass" in capsys.readouterr().out
    assert len(bindings) == 2


def test_isotropy_entry_rows_are_the_failing_checks_readings(
        monkeypatch, capsys, tmp_path, gram_calls):
    """With CS(Y2,-) scaled by -3 and CS(Y3,-) by -1, the entrance <<= holds
    at t = 0 only: the check reads every sample, once, through its one
    binding and fails at the smallest, and the table is those readings, none
    read again (a binding per row read 22 q)."""
    import json
    import os

    import troprays.cli as cli
    import troprays.isotropy as isotropy
    import troprays.strata as strata

    data = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "data")
    family = tmp_path / "family.json"
    family.write_text(json.dumps({
        "rays": {"Y2": ["-inf", "0", "-inf"], "Y3": ["-inf", "-inf", "0"]},
        "functions": [{"name": "zero", "terms": []},
                      {"name": "cs_y2", "terms": [{"coeff": "-3", "anchor": "Y2"}]},
                      {"name": "cs_y3", "terms": [{"coeff": "-1", "anchor": "Y3"}]}]}))
    argv = ["isotropy-entry", "--model", os.path.join(data, "m3.json"), "--b", str(family),
            "--from", "Y2", "--to", "Y3", "--eps=0,-inf,-inf", "--eta=-inf,-inf,0",
            "--samples", "5"]
    calls = []

    def counted(bound, x):
        calls.append(x)
        return _sign_vector(bound, x)

    monkeypatch.setattr(strata, "_sign_vector", counted)
    monkeypatch.setattr(isotropy, "_sign_vector", counted)
    assert cli.main(argv) == 1
    out = capsys.readouterr().out.splitlines()
    assert "entrance sign vector: <<=" in out
    assert out[-6:] == ["0         <<=        yes",
                        *(f"{k:<9} <<>        NO" for k in range(-1, -5, -1)),
                        "stability over 1 samples: FAIL"]
    assert len(calls) == 6
    assert gram_calls == {"eval_q": 14, "eval_b": 18}
    assert cli.main([*argv, "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["stable"] is False and doc["samples_checked"] == 1
    assert [s["match"] for s in doc["samples"]] == [True, False, False, False, False]


@pytest.mark.parametrize("model, eta, case, count", [
    (M3, ("-inf", "-inf", 0), "C2b", 14),
    (M3_C1, ("-inf", 0, "-inf"), "C1", 14),
    (MODEL_A, ("-inf", 0, 0), "A", 14),
    (MODEL_B, ("-inf", 0, 1), "B", 15),
    (MODEL_C2A, ("-inf", "-inf", 0), "C2a", 14),
    (MODEL_SWAP, ("-inf", 0, "-inf"), "C2b", 14),
], ids=["C2b", "C1", "A", "B", "C2a", "swapped"])
def test_entrance_gram_count(gram_calls, model, eta, case, count):
    """The worked examples above, with the closing sign vector: nine Gram
    values for the entrance (q(eta) only in case B, where b(eps, eta) = 0)
    off one frame, and those of the sign vector."""
    e1, e2, e3 = units()
    fam = example_family(model, Ray(e2), Ray(e3))
    gram_calls.update(eval_q=0, eval_b=0)
    approach = entrance_stratum(model, fam, Ray(e2), Ray(e3), e1, vec(*eta))
    assert approach.case == case
    assert sum(gram_calls.values()) == count
