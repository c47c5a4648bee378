from collections import Counter

import pytest

import rays_reference
import troprays.rays as rays_module
from troprays.errors import NotOnInterval, ZeroVector
from troprays.quadspace import Vector, _vector, vec
from troprays.rays import Ray, RayInterval, ray
from troprays.sampling import Sampler
from troprays.semifield import INF, ZERO, t


def test_canonicalize_examples():
    assert Ray(vec(3, 1)).rep == vec(0, -2)
    assert Ray(vec(0, "-inf")).rep == vec(0, "-inf")
    assert Ray(vec(-5, -5)).rep == vec(0, 0)
    with pytest.raises(ZeroVector):
        Ray(vec("-inf", "-inf"))


def test_canonicalize_idempotent_and_scale_invariant():
    sampler = Sampler(1)
    for _ in range(300):
        x = sampler.vector(sampler.rng.randint(1, 5))
        r = Ray(x)
        assert Ray(r.rep).rep == r.rep
        assert Ray(sampler.value() * x) == r


def test_ray_equality_ignores_base():
    a = Ray(vec(1, -1))
    b = Ray(vec(4, 2))
    assert a == b
    assert a.base != b.base
    assert hash(a) == hash(b)


def test_with_base_checks_membership():
    r = ray(0, -2)
    r2 = r.with_base(vec(5, 3))
    assert r2 == r
    with pytest.raises(ValueError):
        r.with_base(vec(0, 0))


def test_pi_endpoints_and_example(m1_iv):
    assert m1_iv.pi(ZERO) == m1_iv.y1
    assert m1_iv.pi(INF) == m1_iv.y2
    assert m1_iv.pi(t(2)).rep == vec(-2, 0)
    assert m1_iv.pi(t(0)).rep == vec(0, 0)


def test_locate_examples(m1_iv):
    assert m1_iv.locate(ray(0, 0)) == t(0)
    assert m1_iv.locate(m1_iv.y1) == ZERO
    assert m1_iv.locate(ray(0, -7)) == t(-7)


def test_locate_off_interval():
    interval = RayInterval(Ray(Vector.unit(3, 0)), Ray(Vector.unit(3, 1)))
    assert interval.locate(ray(1, "-inf", 0)) is None
    assert interval.locate(Ray(Vector.unit(3, 2))) is None


def test_locate_fat_fiber_returns_smallest():
    # eps2 never overtakes the second coordinate, so Y1 has a fat fiber
    interval = RayInterval(Ray(vec(0, -3)), Ray(vec(0, "-inf")))
    assert interval.locate(interval.y1) == ZERO
    # the ray (0, -5) is reached first at lam = 0 relative to base points
    assert interval.pi(t(1)).rep == vec(0, -4)
    assert interval.locate(interval.pi(t(1))) == t(1)


def test_locate_of_y2_returns_fiber_start():
    # eps1 = (0,-2) is dominated by lam*(0,0) from lam = e on: fat fiber at Y2
    interval = RayInterval(Ray(vec(0, -2)), Ray(vec(0, 0)))
    assert interval.pi(t(0)) == interval.y2
    assert interval.pi(t(2)) == interval.y2
    assert interval.locate(interval.y2) == t(0)


def test_interval_leq(m1_iv):
    a, b = m1_iv.pi(t(1)), m1_iv.pi(t(2))
    assert m1_iv.leq(a, b)
    assert not m1_iv.leq(b, a)
    assert m1_iv.leq(a, a)
    with pytest.raises(NotOnInterval):
        three = RayInterval(Ray(Vector.unit(3, 0)), Ray(Vector.unit(3, 1)))
        three.leq(Ray(Vector.unit(3, 2)), three.y1)


def test_pi_monotone_under_leq():
    sampler = Sampler(2)
    for _ in range(150):
        n = sampler.rng.randint(2, 4)
        y1, y2 = Ray(sampler.vector(n)), Ray(sampler.vector(n))
        if y1 == y2:
            continue
        interval = RayInterval(y1, y2)
        lam, mu = sampler.parameter(), sampler.parameter()
        if mu < lam:
            lam, mu = mu, lam
        assert interval.leq(interval.pi(lam), interval.pi(mu))


def test_fibers_are_convex():
    sampler = Sampler(6)
    checked = 0
    for _ in range(400):
        n = sampler.rng.randint(2, 4)
        y1, y2 = Ray(sampler.vector(n)), Ray(sampler.vector(n))
        if y1 == y2:
            continue
        interval = RayInterval(y1, y2)
        lam, mu = sampler.value(), sampler.value()
        if mu < lam:
            lam, mu = mu, lam
        if lam == mu or interval.pi(lam) != interval.pi(mu):
            continue
        checked += 1
        mid = (lam * mu).sqrt()
        assert interval.pi(mid) == interval.pi(lam)
    assert checked > 0


def test_reverse_identity_worked(m1_iv):
    assert m1_iv.reverse_identity_check(t(2))
    assert m1_iv.reverse_identity_check(ZERO)
    assert m1_iv.reverse_identity_check(INF)


def test_reverse_identity_random():
    sampler = Sampler(9)
    for _ in range(300):
        n = sampler.rng.randint(2, 4)
        y1, y2 = Ray(sampler.vector(n)), Ray(sampler.vector(n))
        if y1 == y2:
            continue
        interval = RayInterval(y1, y2)
        assert interval.reverse_identity_check(sampler.parameter())


def test_locate_inverts_pi_everywhere():
    sampler = Sampler(12)
    for _ in range(300):
        n = sampler.rng.randint(2, 4)
        y1, y2 = Ray(sampler.vector(n)), Ray(sampler.vector(n))
        if y1 == y2:
            continue
        interval = RayInterval(y1, y2)
        lam = sampler.parameter()
        z = interval.pi(lam)
        found = interval.locate(z)
        assert found is not None
        assert interval.pi(found) == z
        assert found <= lam


def locate_cases(seed, count):
    """Seeded (interval, target) pairs: dimensions 2-5, about a third of the
    coordinates zero, exponent denominators up to 4.  Each interval comes
    with its endpoints as targets, points pi(lam) (lam = 0 and oo
    included), random rays, and interval points with one coordinate zeroed
    or moved."""
    sampler = Sampler(seed, num_bound=6, den_bound=4)
    while count > 0:
        n = sampler.rng.randint(2, 5)
        y1, y2 = Ray(sampler.vector(n, p_zero=0.35)), Ray(sampler.vector(n, p_zero=0.35))
        if y1 == y2:
            continue
        interval = RayInterval(y1, y2)
        targets = [y1, y2, interval.pi(sampler.parameter(0.1, 0.1)),
                   Ray(sampler.vector(n, p_zero=0.35))]
        base = interval.pi(sampler.value()).rep
        nums = list(base.nums)
        k = sampler.rng.randrange(n)
        nums[k] = None if nums[k] is not None and sampler.rng.random() < 0.5 \
            else sampler.rng.randint(-8, 2)
        if any(x is not None for x in nums):
            targets.append(Ray(_vector(base.d, tuple(nums))))
        count -= len(targets)
        for z in targets:
            yield interval, z


LOCATE_EDGES = [
    # fat fiber at Y1: pi(lam) = Y1 for every lam <= e
    (RayInterval(Ray(vec(0, -3)), Ray(vec(0, "-inf"))), ray(0, -4)),
    # fat fiber at Y2: pi(lam) = Y2 from lam = t^(-2) on
    (RayInterval(Ray(vec(0, -2)), Ray(vec(2, 2))), ray(0, 0)),
    # Y2 reached only at oo
    (RayInterval(Ray(vec(0, "-inf")), Ray(vec("-inf", 0))), ray("-inf", 0)),
    # zero coordinates in eps1, eps2 and z, fractional answer t^(-7/3)
    (RayInterval(Ray(vec(0, "-inf", "-1/3")), Ray(vec("-inf", 0, "-inf"))),
     ray(0, "-7/3", "-1/3")),
    # a zero coordinate of z where eps1 is nonzero: off the interval
    (RayInterval(Ray(vec(0, "-inf", "-1/3")), Ray(vec("-inf", 0, "-inf"))),
     ray(0, "-7/3", "-inf")),
    # a zero coordinate of z where only eps2 is nonzero: only Y1 has it
    (RayInterval(Ray(vec(0, "-inf", "-1/3")), Ray(vec("-inf", 0, "-inf"))),
     ray(0, "-inf", "-1/3")),
    # off the interval with every coordinate finite
    (RayInterval(Ray(vec(0, -1, "1/2")), Ray(vec(-2, 0, "-3/4"))), ray(0, 5, 0)),
]


def test_locate_matches_frozen_reference():
    seen = Counter()
    for interval, z in [*LOCATE_EDGES, *locate_cases(17, 3000)]:
        found = interval.locate(z)
        assert found == rays_reference.locate(interval, z), (interval, z)
        seen["on" if found is not None else "off"] += 1
        for name, v in (("eps1", interval.y1.base), ("eps2", interval.y2.base), ("z", z.rep)):
            if None in v.nums:
                seen["zero in " + name] += 1
        if found is not None and found.is_finite() and found.exp.denominator > 1:
            seen["fractional"] += 1
        if z == interval.y2:
            seen["Y2 only at oo" if found == INF else "fat fiber at Y2"] += 1
        if z == interval.y1:
            last = rays_reference.locate(interval.reversed(), z)
            if last is not None and last.is_finite():
                seen["fat fiber at Y1"] += 1
    assert len(seen) == 9 and min(seen.values()) >= 5, seen


def test_locate_zero_coordinate_leaves_only_infinity(monkeypatch):
    # a zero coordinate of z that eps1 or eps2 fills is zero in no pi(lam)
    # with 0 < lam < oo, so only pi(oo) is tried and no rows are cut
    calls = []
    real = rays_module.row_runs

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(rays_module, "row_runs", counted)
    interval = RayInterval(Ray(vec(0, "-inf", "-1/3")), Ray(vec("-inf", 0, "-inf")))
    assert interval.locate(ray(0, "-7/3", "-inf")) is None
    assert interval.locate(ray("-inf", 0, "-inf")) == INF
    assert RayInterval(Ray(vec(0, "-inf")), Ray(vec("-inf", 0))).locate(ray("-inf", 0)) == INF
    assert calls == []
    assert interval.locate(ray(0, "-7/3", "-1/3")) == t("-7/3")
    assert len(calls) == 1
