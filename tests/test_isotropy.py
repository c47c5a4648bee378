import pytest

from troprays.errors import IllposedApproach, NoAnisotropicInterior
from troprays.instances import M3, M3_C1
from troprays.isotropy import (
    entrance_stratum,
    stability_check,
    stratify_halfopen,
)
from troprays.quadspace import QuadraticPair, Vector, vec
from troprays.rays import Ray, RayInterval
from troprays.semifield import INF, ZERO, t
from troprays.strata import example_family, sign_vector_at


def units(n=3):
    return tuple(Vector.unit(n, i) for i in range(n))


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
    pair = QuadraticPair.from_rows(
        ["-inf", "0", "0"],
        [["-inf", "-inf", "-inf"],
         ["-inf", "0", "0"],
         ["-inf", "0", "0"]])
    e1, e2, e3 = units()
    fam = example_family(pair, Ray(e2), Ray(e3))
    eta = vec("-inf", 0, 1)
    approach = entrance_stratum(pair, fam, Ray(e2), Ray(e3), e1, eta)
    assert approach.case == "B"
    assert approach.t0 == INF
    assert approach.entrance == sign_vector_at(pair, fam, Ray(eta))


def test_entrance_case_a_bound():
    pair = QuadraticPair.from_rows(
        ["-inf", "0", "0"],
        [["-inf", "2", "1"],
         ["2", "0", "0"],
         ["1", "0", "0"]])
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


def test_entrance_case_a_infinite_denominators():
    pair = QuadraticPair.from_rows(
        ["-inf", "0", "0"],
        [["-inf", "2", "1"],
         ["2", "0", "0"],
         ["1", "0", "0"]])
    e1, e2, e3 = units()
    fam = example_family(pair, Ray(e2), Ray(e3))
    approach = entrance_stratum(pair, fam, Ray(e2), Ray(e3), e1, e1 + e2)
    # b(eta, eps_i) with eta touching only isotropic directions stays finite
    assert approach.case == "A"


def test_entrance_case_c2a():
    # CS(eps2, eps3) > e via beta23 = 3: bound (alpha12 alpha2)/(alpha23 b(eta,eps3))
    pair = QuadraticPair.from_rows(
        ["-inf", "0", "0"],
        [["-inf", "1", "-inf"],
         ["1", "0", "3"],
         ["-inf", "3", "0"]])
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
    pair = QuadraticPair.from_rows(
        ["-inf", "0", "0"],
        [["-inf", "-inf", "1"],
         ["-inf", "0", "0"],
         ["1", "0", "0"]])
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


def test_stability_case_c1_wide_range():
    e1, e2, e3 = units()
    fam = example_family(M3_C1, Ray(e2), Ray(e3))
    approach = entrance_stratum(M3_C1, fam, Ray(e2), Ray(e3), e1, e2)
    samples = [t(k) for k in range(-10, 11, 2)]  # ten orders of magnitude
    report = stability_check(M3_C1, fam, approach, samples)
    assert report.ok
    assert report.samples_checked == len(samples)


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

    data = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "data")
    calls = []

    def counted(*args):
        calls.append(args[2])
        return sign_vector_at(*args)

    monkeypatch.setattr(cli, "sign_vector_at", counted)
    monkeypatch.setattr(isotropy, "sign_vector_at", counted)
    code = cli.main(["isotropy-entry", "--model", os.path.join(data, "m3.json"),
                     "--b", os.path.join(data, "family_m3.json"), "--from", "Y2",
                     "--to", "Y3", "--eps=0,-inf,-inf", "--eta=-inf,-inf,0"])
    assert code == 0
    assert "stability over 25 samples: pass" in capsys.readouterr().out
    assert len(calls) == 26
