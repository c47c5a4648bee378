from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from troprays.errors import DimensionMismatch, IsotropicArgument, SchemaError, ZeroVector
from troprays.quadspace import QuadraticPair, Vector, validate_pair, vec
from troprays.rays import ray
from troprays.sampling import Sampler
from troprays.semifield import INF, ONE, ZERO, TropValue, t


def trop_sum(values, start: TropValue = ZERO) -> TropValue:
    """Tropical sum (maximum) of an iterable of values."""
    acc = start
    for v in values:
        if acc < v:
            acc = v
    return acc


def test_vector_rejects_infinity():
    with pytest.raises(ValueError):
        Vector([INF, ZERO])


def test_eval_q_worked_examples(m1):
    e1 = Vector.unit(2, 0)
    assert m1.eval_q(e1) == t(0)
    assert m1.eval_q(vec(0, 0)) == t(2)
    assert m1.eval_q(vec(0, 3)) == t(6)
    assert m1.eval_q(vec("-inf", "-inf")) == ZERO


def test_eval_b_worked_examples(m1):
    e1, e2 = Vector.unit(2, 0), Vector.unit(2, 1)
    assert m1.eval_b(e1, e2) == t(2)
    assert m1.eval_b(e1, e1) == t(0)
    assert m1.eval_b(vec(0, "-inf"), vec(0, -5)) == t(0)



def test_vector_sum_comes_out_reduced():
    """The one-pass sum reduces once at the end: on one denominator 2 the
    maxima (2, 4)/2 are the integer vector (1, 2)."""
    s = vec("1/2", 2) + vec(1, "1/2")
    assert s == vec(1, 2) and s.d == 1 and hash(s) == hash(vec(1, 2))
    s = vec("1/2", "-inf") + vec("1/3", "2/3")
    assert s == vec("1/2", "2/3") and s.d == 6
    s = vec("1/3", "-inf") + vec("1/2", "-inf")
    assert s == vec("1/2", "-inf") and s.d == 2
    assert (vec("-inf", "-inf") + vec("-inf", "-inf")).d == 1


def test_vector_scaling_comes_out_reduced():
    s = vec("1/2", "3/2").scale(t("1/2"))
    assert s == vec(1, 2) and s.d == 1 and s.nums == (1, 2)
    assert t("1/2") * vec("1/2", "-inf") == vec(1, "-inf")
    s = vec("1/2", 1).scale(t(3))
    assert s == vec("7/2", 4) and s.d == 2
    s = vec(1, "-inf").scale(t("1/3"))
    assert s == vec("4/3", "-inf") and s.d == 3
    assert vec("1/2", 1).scale(ZERO) == vec("-inf", "-inf") and vec("1/2", 1).scale(ZERO).d == 1
    with pytest.raises(ValueError):
        vec(1, 2).scale(INF)


@pytest.mark.parametrize("call", [
    lambda v: v + 3, lambda v: 3 + v, lambda v: v + t(1), lambda v: v.scale(2),
    lambda v: 2 * v, lambda v: v.scale(Fraction(1, 2)),
], ids=["add-int", "radd-int", "add-value", "scale-int", "rmul-int", "scale-fraction"])
def test_vector_mixed_operands_raise_type_error(call):
    with pytest.raises(TypeError):
        call(vec(1, 2))


def test_gram_values_on_mixed_denominators(m1):
    """A model over d = 1 with vectors over d = 2, and the reverse: each value
    agrees with the semifield reference and comes out reduced."""
    x, y = vec("1/2", "-inf"), vec("-inf", "3/2")
    assert m1.eval_q(x) == t(1) and m1.eval_q(x).den == 1
    assert m1.eval_b(x, y) == t(4) and m1.eval_b(x, y).den == 1
    assert m1.eval_q(vec("1/2", "1/3")) == t(Fraction(17, 6))
    half = QuadraticPair.from_rows(["1/2", "1/2"], [["1/2", "3/2"], ["3/2", "1/2"]])
    assert half.eval_q(vec(0, "-inf")) == t("1/2")
    assert half.eval_q(vec(0, 0)) == t("3/2")
    assert half.eval_b(vec(0, "-inf"), vec("-inf", 1)) == t("5/2")
    assert half.eval_b(vec("1/2", "-inf"), vec("-inf", 1)) == t(3)
    assert half.eval_b(vec("1/2", "-inf"), vec("-inf", 1)).den == 1
    for pair, u, v in ((m1, x, y), (m1, vec("1/2", "1/3"), vec(1, 0)),
                       (half, vec(0, 0), vec("-inf", 1)), (half, vec("1/2", "-inf"), vec(2, "1/2"))):
        assert_kernel_matches(pair, u, v)

def test_dimension_mismatch(m1):
    with pytest.raises(DimensionMismatch):
        m1.eval_q(vec(0, 0, 0))
    with pytest.raises(DimensionMismatch):
        m1.eval_b(vec(0, 0), vec(0, 0, 0))


def test_cs_worked_examples(m1):
    e1, e2 = Vector.unit(2, 0), Vector.unit(2, 1)
    assert m1.cs(e1, e2) == t(4)
    assert m1.cs(e1, e1) == t(0)  # balanced: CS(X, X) = e
    assert m1.cs(e1, t(3) * e1) == t(0)  # scaling invariance


def test_cs_requires_anisotropic():
    pair = QuadraticPair.from_rows(["-inf", "0"], [["-inf", "0"], ["0", "0"]])
    with pytest.raises(IsotropicArgument):
        pair.cs(Vector.unit(2, 0), Vector.unit(2, 1))


def test_is_isotropic():
    pair = QuadraticPair.from_rows(["-inf", "0"], [["-inf", "0"], ["0", "0"]])
    assert pair.is_isotropic(Vector.unit(2, 0))
    assert not pair.is_isotropic(Vector.unit(2, 1))
    with pytest.raises(ZeroVector):
        pair.is_isotropic(vec("-inf", "-inf"))


@pytest.mark.parametrize("q_diag, b_rows, message", [
    (["0", "0"], [["0", "2"], ["1", "0"]], "must be symmetric"),
    ([], [], "dimension must be >= 1"),
    (["0", "0"], [["0", "0"]], "sizes do not match"),
    (["0", "0"], [["0", "0"], ["0"]], "not square"),
    (["+inf", "0"], [["0", "0"], ["0", "0"]], "q values must lie"),
    (["0", "0"], [["0", "+inf"], ["+inf", "0"]], "b values must lie"),
], ids=["asymmetric", "dim-0", "sizes", "non-square", "inf-q", "inf-b"])
def test_bad_gram_data_rejected(q_diag, b_rows, message):
    with pytest.raises(SchemaError, match=message):
        QuadraticPair.from_rows(q_diag, b_rows)


@pytest.mark.parametrize("q_diag, b_rows", [
    ([1.5], [[1]]),
    ([1], [[1.5]]),
    (["0", None], [["0", "0"], ["0", "0"]]),
    ([True], [["0"]]),
])
def test_from_rows_rejects_entries_of_other_types(q_diag, b_rows):
    with pytest.raises(SchemaError, match="not a str, an int or a TropValue"):
        QuadraticPair.from_rows(q_diag, b_rows)


@pytest.mark.parametrize("text", ["1/0", "abc", "1.5.2"])
def test_from_rows_rejects_bad_text(text):
    with pytest.raises(SchemaError, match="bad semifield value"):
        QuadraticPair.from_rows([text], [["0"]])


@pytest.mark.parametrize("build", [vec, ray])
@pytest.mark.parametrize("entry", [0.1, -1e400, True, None, "1/0"])
def test_vec_and_ray_take_entries_by_the_from_rows_rule(build, entry):
    """No float reaches a vector: 0.1 once read as 1/10, -1e400 as the zero."""
    with pytest.raises(SchemaError):
        build(entry, 0)


def test_vec_reads_ints_text_and_tropvalues():
    assert vec(1, "1/2", "-inf", t(-3)) == Vector([t(1), t(Fraction(1, 2)), ZERO, t(-3)])


def test_from_rows_reads_str_int_and_tropvalue_entries():
    pair = QuadraticPair.from_rows([t(1), "1/2"], [[1, "-inf"], ["-inf", "0.5"]])
    assert pair.q_diag == (t(1), t(Fraction(1, 2)))
    assert pair.b == ((t(1), ZERO), (ZERO, t(Fraction(1, 2))))


def test_validate_passes_on_m1(m1):
    report = validate_pair(m1, samples=1000, rng=5)
    assert report.ok
    assert report.balanced


def test_validate_detects_diagonal_violation():
    # b(e1, e1) > q(e1) breaks q(x + x) = q(x) on the basis pair (e1, e1)
    pair = QuadraticPair.from_rows(["0", "0"], [["3", "2"], ["2", "0"]])
    report = validate_pair(pair)
    assert not report.ok
    x, y, lhs, rhs = report.failures[0]
    assert lhs != rhs


def test_validate_dimension_one():
    pair = QuadraticPair.from_rows(["1"], [["0"]])
    report = validate_pair(pair, samples=10, rng=0)
    assert report.ok
    assert not report.balanced


def test_homogeneity_and_bilinearity_random():
    sampler = Sampler(3)
    for _ in range(200):
        pair = sampler.anisotropic_pair(sampler.rng.randint(1, 4))
        n = pair.dim
        x, y = sampler.vector(n), sampler.vector(n)
        lam = sampler.value()
        assert pair.eval_q(lam * x) == lam * lam * pair.eval_q(x)
        assert pair.eval_b(x, y) == pair.eval_b(y, x)
        assert pair.eval_b(lam * x, y) == lam * pair.eval_b(x, y)
        z = sampler.vector(n)
        assert pair.eval_b(x + z, y) == pair.eval_b(x, y) + pair.eval_b(z, y)


def test_cs_depends_only_on_rays():
    sampler = Sampler(4)
    for _ in range(200):
        pair = sampler.anisotropic_pair(sampler.rng.randint(2, 4))
        n = pair.dim
        x, y = sampler.vector(n), sampler.vector(n)
        lam, mu = sampler.value(), sampler.value()
        assert pair.cs(lam * x, mu * y) == pair.cs(x, y)
        assert pair.cs(x, y) == pair.cs(y, x)


def test_balanced_cs_self_is_unit():
    sampler = Sampler(5)
    for _ in range(100):
        pair = sampler.anisotropic_pair(sampler.rng.randint(1, 4), balanced=True)
        x = sampler.vector(pair.dim)
        assert pair.cs(x, x) == ONE


# -- the integer-lattice Gram kernel against semifield arithmetic -----------

def ref_q(pair, x):
    """q(x) as a tropical sum of TropValue products over the Gram formula."""
    n = pair.dim
    return trop_sum([pair.q_diag[i] * x[i] * x[i] for i in range(n)]
                    + [pair.b[i][j] * x[i] * x[j]
                       for i in range(n) for j in range(i + 1, n)])


def ref_b(pair, x, y):
    n = pair.dim
    return trop_sum(pair.b[i][j] * x[i] * y[j] for i in range(n) for j in range(n))


def assert_same(got, want):
    assert got == want
    assert str(got) == str(want)
    assert hash(got) == hash(want)


def assert_kernel_matches(pair, x, y):
    qx, qy, bxy = ref_q(pair, x), ref_q(pair, y), ref_b(pair, x, y)
    assert_same(pair.eval_q(x), qx)
    assert_same(pair.eval_q(y), qy)
    assert_same(pair.eval_b(x, y), bxy)
    if qx.is_zero() or qy.is_zero():
        with pytest.raises(IsotropicArgument):
            pair.cs(x, y)
    else:
        assert_same(pair.cs(x, y), (bxy * bxy) / (qx * qy))


def exponents(max_denominator):
    """Small rationals with denominators up to `max_denominator`, plus
    numerators far beyond machine words."""
    return st.one_of(
        st.fractions(min_value=-50, max_value=50, max_denominator=max_denominator),
        st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40),
                  st.integers(1, max_denominator)))


def gram_values(max_denominator):
    return st.one_of(st.just(ZERO), exponents(max_denominator).map(TropValue.finite))


@st.composite
def kernel_cases(draw):
    """A model (ZERO Gram entries allowed) and two vectors (ZERO coordinates
    allowed) of dimension 1-4, all integer or with denominators up to 12."""
    n = draw(st.integers(1, 4))
    den = draw(st.sampled_from([1, 12]))
    value = gram_values(den)
    q_diag = tuple(draw(value) for _ in range(n))
    b = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            b[i][j] = b[j][i] = draw(value)
    pair = QuadraticPair(n, q_diag, tuple(tuple(row) for row in b))
    x = Vector(draw(value) for _ in range(n))
    y = Vector(draw(value) for _ in range(n))
    return pair, x, y


@given(kernel_cases())
def test_kernel_matches_semifield_reference(case):
    assert_kernel_matches(*case)


@pytest.mark.parametrize("num_bound,den_bound", [(8, 1), (8, 12), (10 ** 30, 12)])
def test_kernel_matches_semifield_reference_sampled(num_bound, den_bound):
    sampler = Sampler(41, num_bound=num_bound, den_bound=den_bound)
    for _ in range(300):
        n = sampler.rng.randint(1, 4)
        pair = sampler.anisotropic_pair(n)
        x = sampler.vector(n, p_zero=0.3, nonzero=False)
        y = sampler.vector(n, p_zero=0.3, nonzero=False)
        assert_kernel_matches(pair, x, y)


def test_kernel_on_zero_gram_entries():
    # q(e1) = 0 and b(e1, e2) = 0: only the e2 terms survive
    pair = QuadraticPair.from_rows(["-inf", "1/6"], [["-inf", "-inf"], ["-inf", "-1/4"]])
    x = vec("7/12", "-5/3")
    assert_kernel_matches(pair, x, vec(0, "1/2"))
    assert pair.eval_q(vec(3, "-inf")) == ZERO
    assert pair.eval_b(x, vec("2/5", "-inf")) == ZERO
    assert pair.eval_q(x) == t(Fraction(1, 6) - Fraction(10, 3))


# -- Gram counts of the public views ------------------------------------------

@pytest.mark.parametrize("view,counts", [
    (lambda m, x, y: m.eval_q(x), {"eval_q": 1, "eval_b": 0}),
    (lambda m, x, y: m.eval_b(x, y), {"eval_q": 0, "eval_b": 1}),
    (lambda m, x, y: m.cs(x, y), {"eval_q": 2, "eval_b": 1}),
    (lambda m, x, y: m.is_isotropic(x), {"eval_q": 1, "eval_b": 0}),
    (lambda m, x, y: validate_pair(m), {"eval_q": 9, "eval_b": 3}),
], ids=["eval_q", "eval_b", "cs", "is_isotropic", "validate_pair"])
@pytest.mark.parametrize("x,y", [(vec(0, 1), vec(2, "-inf")), (vec("1/2", 0), vec(1, "1/3"))],
                         ids=["integer", "fractional"])
def test_public_views_run_through_the_counted_kernels(m1, gram_calls, view, counts, x, y):
    """Each Gram value of a public view runs through ``_q_max`` or ``_dot``
    once, on integer and on fractional vectors: a fast path may not bypass
    them.  ``validate_pair`` on the three basis pairs of M1 reads q(x + y),
    q(x), q(y) and b(x, y) for each."""
    view(m1, x, y)
    assert gram_calls == counts
