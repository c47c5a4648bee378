"""The relaxation rules of ``troprays.strata`` against brute-force definitions.

Here a relaxed sign is the Python set of the signs it admits, and a strict
sign may weaken only to the set that adds '='.  Every rule is then a set
test: a sign vector satisfies a relaxation when each of its signs lies in
the admitted set, T' derives from T when each sign of T' lies in the
weakening of T's sign, the minimal relaxation of T with T' as a component
is the smallest weakening of T that T' satisfies, and the components of a
relaxation are every sign vector it admits.  Each case is checked for every
sign vector with m = 2 and 3, and on drawn ones with m = 4.
"""

from itertools import combinations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from troprays.errors import NotStrictPair
from troprays.strata import Relaxation, SignVector, minimal_relaxation, relaxation_components

ADMITS = {"<": {"<"}, "=": {"="}, ">": {">"}, "<=": {"<", "="}, ">=": {">", "="}}
WEAKEN = {"<": {"<", "="}, "=": {"="}, ">": {">", "="}}


def all_vectors(m):
    return [SignVector(m, signs) for signs in product("<=>", repeat=m * (m - 1) // 2)]


def all_relaxations(m):
    return [Relaxation(m, signs) for signs in product(ADMITS, repeat=m * (m - 1) // 2)]


def pairs_of(m):
    return list(combinations(range(m), 2))


def satisfies(sv, relax):
    return sv.m == relax.m and all(s in ADMITS[r] for s, r in zip(sv.signs, relax.signs))


def derives(t_prime, t_vec):
    return t_prime.m == t_vec.m and all(s in WEAKEN[b] for s, b in zip(t_prime.signs, t_vec.signs))


def admitted(relax):
    """A relaxation as the tuple of its admitted sets."""
    return tuple(frozenset(ADMITS[r]) for r in relax.signs)


def brute_minimal(t_vec, t_prime):
    """The admitted sets of the smallest weakening of T that T' satisfies, or None."""
    weakenings = product(*[({s}, WEAKEN[s]) for s in t_vec.signs])
    fits = [w for w in weakenings if all(s in a for s, a in zip(t_prime.signs, w))]
    if not fits:
        return None
    smallest = min(fits, key=lambda w: sum(map(len, w)))
    # the smallest is the unique minimal one: it lies inside every other fit
    assert all(all(a <= b for a, b in zip(smallest, w)) for w in fits)
    return tuple(map(frozenset, smallest))


def brute_components(t_vec, relaxed, realized=None):
    """Each sign vector that keeps or equalizes each listed pair, in the order
    of the first bit mask (bit j for the j-th listed pair) that forms it."""
    idxs = [SignVector.pair_index(t_vec.m, min(p), max(p)) for p in relaxed]
    first = {}
    for bits in product((0, 1), repeat=len(idxs)):
        mask = sum(bit << j for j, bit in enumerate(bits))
        signs = list(t_vec.signs)
        for bit, i in zip(bits, idxs):
            if bit:
                signs[i] = "="
        sv = SignVector(t_vec.m, signs)
        first[sv] = min(first.get(sv, mask), mask)
    out = sorted(first, key=first.get)
    return out if realized is None else [sv for sv in out if sv in realized]


def oriented(pairs, flips):
    """The pairs (k, l), each given as (l, k) where its flip is set."""
    return [(l, k) if flip else (k, l) for (k, l), flip in zip(pairs, flips)]


def strict_pairs(t_vec):
    return [p for p in pairs_of(t_vec.m) if t_vec.sign(*p) != "="]


def check_vector(t_vec, relaxations, others):
    """Every rule at the base vector T against every relaxation and every other T'."""
    for relax in relaxations:
        assert relax.satisfied_by(t_vec) == satisfies(t_vec, relax)
    for t_prime in others:
        assert t_prime.is_derivate_of(t_vec) == derives(t_prime, t_vec)
        got, want = minimal_relaxation(t_vec, t_prime), brute_minimal(t_vec, t_prime)
        if want is None:
            assert got is None
            continue
        assert got.m == t_vec.m and set(got.signs) <= set(ADMITS)
        assert admitted(got) == want
        # its components are the sign vectors it admits
        weak = [p for p, r in zip(pairs_of(t_vec.m), got.signs) if len(ADMITS[r]) > 1]
        comps = relaxation_components(t_vec, weak)
        assert len(comps) == 2 ** len(weak) and all(map(got.satisfied_by, comps))
        assert all((sv in comps) == got.satisfied_by(sv) for sv in others)


def check_components(t_vec, relaxed, realized):
    """The components of T over the listed pairs, with and without `realized`;
    the second call passes the pairs as an iterator, which must be read once."""
    assert relaxation_components(t_vec, relaxed) == brute_components(t_vec, relaxed)
    assert (relaxation_components(t_vec, iter(relaxed), realized)
            == brute_components(t_vec, relaxed, realized))


@pytest.mark.parametrize("m", [2, 3])
def test_relaxation_rules_match_the_sets_they_admit(m):
    vectors = all_vectors(m)
    relaxations = all_relaxations(m)
    realized = vectors[::2]
    for t_vec in vectors:
        check_vector(t_vec, relaxations, vectors)
        strict = strict_pairs(t_vec)
        for n in range(len(strict) + 1):
            for chosen in combinations(strict, n):
                for flips in product((False, True), repeat=n):
                    check_components(t_vec, oriented(chosen, flips), realized)
    # a vector of another size satisfies nothing and derives from nothing
    other = all_vectors(m + 1)[0]
    assert not any(r.satisfied_by(other) for r in relaxations)
    assert not any(other.is_derivate_of(t_vec) or t_vec.is_derivate_of(other) for t_vec in vectors)


SIGNS4 = st.text("<=>", min_size=6, max_size=6).map(lambda s: SignVector(4, s))


PAIRS4 = st.lists(st.sampled_from(pairs_of(4)), max_size=5)
FLIPS = st.lists(st.booleans(), min_size=5, max_size=5)


@given(t_vec=SIGNS4, others=st.lists(SIGNS4, min_size=1, max_size=8),
       relaxations=st.lists(st.tuples(*[st.sampled_from(sorted(ADMITS))] * 6).map(
           lambda signs: Relaxation(4, signs)), min_size=1, max_size=8),
       relaxed=PAIRS4, flips=FLIPS, realized=st.lists(SIGNS4, max_size=8))
def test_relaxation_rules_match_on_drawn_vectors_of_four_functions(
        t_vec, others, relaxations, relaxed, flips, realized):
    # T' = T with some strict signs equalized, so that a minimal relaxation exists
    derived = SignVector(4, ["=" if s != "=" and i % 2 else s for i, s in enumerate(t_vec.signs)])
    check_vector(t_vec, relaxations, [t_vec, derived, *others])
    strict = [p for p in relaxed if t_vec.sign(*p) != "="]
    check_components(t_vec, oriented(strict, flips), [derived, *realized])


@given(t_vec=SIGNS4, relaxed=PAIRS4, flips=FLIPS)
def test_an_equal_pair_raises_and_repeated_pairs_form_each_component_once(t_vec, relaxed, flips):
    relaxed = oriented(relaxed, flips)
    if any(t_vec.sign(*p) == "=" for p in relaxed):
        with pytest.raises(NotStrictPair):
            relaxation_components(t_vec, relaxed)
    else:
        assert relaxation_components(t_vec, relaxed) == brute_components(t_vec, relaxed)


def test_not_strict_pair_names_the_first_equal_pair_in_order():
    t_vec = SignVector(3, "<=>")  # f0 < f1, f0 = f2, f1 > f2
    with pytest.raises(NotStrictPair, match=r"^pair \(0,2\) is not strict in the base type$"):
        relaxation_components(t_vec, [(1, 0), (2, 0), (1, 2)])
    with pytest.raises(NotStrictPair, match=r"^pair \(0,2\) is not strict in the base type$"):
        relaxation_components(t_vec, iter([(0, 2)]), realized=[t_vec])
