"""Library records: twelve immutable NamedTuples and the two validating
classes QuadraticPair and BasicFunction.  Each keeps its fields, their
order, value equality and hash, and the repr text ``Name(field=value, ...)``;
no field can be assigned or deleted.  The validation errors of the two
classes are pinned by ``test_quadspace.py::test_bad_gram_data_rejected`` and
``test_csfun.py::test_basic_function_rejects_infinite_coefficient``."""

import copy
import pickle

import pytest

from troprays.csfun import BasicFunction, IntervalCsProfile
from troprays.frontier import ButterflyResult, JunctionReport, JunctionStep
from troprays.isotropy import IsotropicApproach, StabilityReport
from troprays.pmfunc import SignPiece
from troprays.quadspace import QuadraticPair, ValidationReport, vec
from troprays.rays import Ray, RayInterval
from troprays.semifield import INF, ONE, ZERO, t
from troprays.strata import (DerivationChart, Relaxation, SignVector, StrataTrace,
                             TracePiece)

X, Y = Ray(vec(0, -1)), Ray(vec(-1, 0))
IV = RayInterval(X, Y)
SV = SignVector(2, ("<",))

# (build, repr text): each text is the one the frozen dataclasses printed
RECORDS = {
    "QuadraticPair": (
        lambda: QuadraticPair.from_rows([0, 1], [[0, -1], [-1, 1]]),
        "QuadraticPair(dim=2, q_diag=(t^0, t^1), b=((t^0, t^-1), (t^-1, t^1)))"),
    "BasicFunction": (
        lambda: BasicFunction(((t(1), X), (ZERO, Y))),
        "BasicFunction(terms=((t^1, ray(0, -1)), (0, ray(-1, 0))))"),
    "ValidationReport": (
        lambda: ValidationReport(True, False, 3, []),
        "ValidationReport(ok=True, balanced=False, pairs_checked=3, failures=[])"),
    "IntervalCsProfile": (
        lambda: IntervalCsProfile(IV, vec(0, 0), None, True, (ZERO, ONE), (ONE, ONE),
                                  (ONE, INF), ONE, ONE),
        "IntervalCsProfile(interval=[ray(0, -1), ray(-1, 0)], w=(0, 0), f=None, "
        "quasilinear=True, region_a=(0, t^0), region_b=(t^0, t^0), region_c=(t^0, oo), "
        "u_w=t^0, v_w=t^0)"),
    "SignPiece": (
        lambda: SignPiece(ZERO, True, t("1/2"), False, "<"),
        "SignPiece(lo=0, lo_closed=True, hi=t^1/2, hi_closed=False, sign='<')"),
    "IsotropicApproach": (
        lambda: IsotropicApproach(vec(0, 0), vec(0, -1), "C2a", False, t(-2), True, SV,
                                  t(-3), None),
        "IsotropicApproach(eps=(0, 0), eta=(0, -1), case='C2a', swapped=False, t0=t^-2, "
        "strict=True, entrance=<f0<f1>, t_checked=t^-3, profile=None)"),
    "StabilityReport": (
        lambda: StabilityReport(False, SV, 2, (t(1), SV), {t(1): SV}),
        "StabilityReport(ok=False, expected=<f0<f1>, samples_checked=2, "
        "first_violation=(t^1, <f0<f1>), observed={t^1: <f0<f1>})"),
    "JunctionStep": (
        lambda: JunctionStep(1, t(-1), X, vec(0, -1)),
        "JunctionStep(k=1, lam=t^-1, ray=ray(0, -1), vector=(0, -1))"),
    "JunctionReport": (
        lambda: JunctionReport("gorge", None, 3, (), ZERO, t(1), False),
        "JunctionReport(outcome='gorge', ray=None, steps=3, trace=(), sigma=0, tau=t^1, "
        "stop_criterion_held=False)"),
    "ButterflyResult": (
        lambda: ButterflyResult(X, Y, X, Y, t(1), t("-1/3")),
        "ButterflyResult(w=ray(0, -1), w1=ray(-1, 0), z=ray(0, -1), z1=ray(-1, 0), c=t^1, "
        "d=t^-1/3)"),
    "Relaxation": (
        lambda: Relaxation(2, ("<=",)),
        "Relaxation(m=2, signs=('<=',))"),
    "TracePiece": (
        lambda: TracePiece(SV, ZERO, False, INF, True),
        "TracePiece(signs=<f0<f1>, lo=0, lo_closed=False, hi=oo, hi_closed=True)"),
    "StrataTrace": (
        lambda: StrataTrace(IV, (), ((ZERO, X), (INF, Y))),
        "StrataTrace(interval=[ray(0, -1), ray(-1, 0)], pieces=(), "
        "boundaries=((0, ray(0, -1)), (oo, ray(-1, 0))))"),
    "DerivationChart": (
        lambda: DerivationChart((SV,), (), ()),
        "DerivationChart(nodes=(<f0<f1>,), edges=(), witnesses=())"),
}
UNHASHABLE = {"ValidationReport", "StabilityReport"}  # a list or dict field
NAMES = list(RECORDS)


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_the_field_list(name):
    build, text = RECORDS[name]
    assert repr(build()) == text
    assert type(build()).__name__ == name


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_assigned_or_deleted(name):
    record = RECORDS[name][0]()
    for field in (*record._fields, *getattr(type(record), "__slots__", ())):
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is before
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name", NAMES)
def test_equal_fields_give_equal_records_and_hashes(name):
    a, b = RECORDS[name][0](), RECORDS[name][0]()
    assert a is not b and a == b and not a != b
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_records_unpack_and_update_through_replace():
    lo, lo_closed, hi, hi_closed, sign = RECORDS["SignPiece"][0]()
    assert (lo, lo_closed, hi, hi_closed, sign) == (ZERO, True, t("1/2"), False, "<")
    piece = RECORDS["TracePiece"][0]()
    moved = piece._replace(hi=ONE)
    assert moved.hi == ONE and piece.hi == INF and moved.signs == piece.signs
    assert moved != piece


def test_model_equality_reads_every_field():
    build = RECORDS["QuadraticPair"][0]
    pair = build()
    assert pair != QuadraticPair.from_rows([0, 1], [[0, -2], [-2, 1]])  # b differs
    assert pair != QuadraticPair.from_rows([0, 2], [[0, -1], [-1, 1]])  # q differs
    assert pair != QuadraticPair.from_rows([0], [[0]])                  # dim differs
    assert pair != (pair.dim, pair.q_diag, pair.b)
    assert len({pair, build(), QuadraticPair.from_rows([0, 1], [[0, -2], [-2, 1]])}) == 2


def test_family_equality_reads_its_terms():
    f = RECORDS["BasicFunction"][0]()
    assert f != BasicFunction(((t(2), X), (ZERO, Y)))
    assert f != BasicFunction(((t(1), X),))
    assert f != f.terms
    assert BasicFunction.zero() == BasicFunction(())


@pytest.mark.parametrize("name", ["QuadraticPair", "BasicFunction"])
def test_validating_records_copy_and_pickle_through_init(name):
    record = RECORDS[name][0]()
    for clone in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert clone == record and hash(clone) == hash(record)
        if name == "QuadraticPair":
            assert clone._lat == record._lat
