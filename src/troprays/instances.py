"""Frozen worked instances used by tests, the CLI data files, and the docs.

M1     the 2-dimensional model with q(e1) = q(e2) = e and b(e1,e2) = t^2;
       its interval [ray(e1), ray(e2)] carries the standard three-region
       CS profile with breakpoints t^-2 and t^2.
M3     the 3-dimensional model with an isotropic first basis vector, used
       for the entrance-stratum analysis (case C2b, bound t^1).
WALL   a 3-dimensional extension of M1 whose boundary stratum {f1 = f2} is
       an L-shaped set (a diagonal wall joined to a plateau); it admits
       multi-step junction processes and verified butterflies.
CHART  a model realizing seven strata of the canonical five-function family,
       frozen together with sample rays, one per stratum.  The ratio oo is
       never realized: b(e2, x) = 0 forces x = 0.  The family's strata are
       classes of the ratio b(y1,-)/b(y2,-), so its chart is a zigzag path.
CORNER a 3-dimensional model on which the basis family CS(e1,-), CS(e2,-),
       CS(e3,-) has two walls crossing at the single ray ray(-3, 0, -3);
       six strata around the crossing realize the six-type target chart.
       Found by `scripts/search_chart_instance.py 0 1 basis`: the first
       balanced model of Sampler(0, num_bound=4, den_bound=1), with strata
       realized by the trace pieces of 40 random intervals; the sample is
       the search's first ray in each of the six strata.
"""

from __future__ import annotations

from .quadspace import QuadraticPair, Vector
from .rays import Ray, RayInterval
from .strata import BasicFunction, example_family

M1 = QuadraticPair.from_rows(["0", "0"], [["0", "2"], ["2", "0"]])

M3 = QuadraticPair.from_rows(
    ["-inf", "0", "0"],
    [["-inf", "1", "-inf"],
     ["1", "0", "0"],
     ["-inf", "0", "0"]])

# as M3 but with eta = e2 orthogonal to eps3: entrance case C1
M3_C1 = QuadraticPair.from_rows(
    ["-inf", "0", "0"],
    [["-inf", "1", "-inf"],
     ["1", "0", "-inf"],
     ["-inf", "-inf", "0"]])

WALL = QuadraticPair.from_rows(
    ["0", "0", "0"],
    [["0", "2", "0"],
     ["2", "0", "0"],
     ["0", "0", "0"]])

CHART = QuadraticPair.from_rows(
    ["0", "0", "0"],
    [["0", "2", "-inf"],
     ["2", "0", "0"],
     ["-inf", "0", "0"]])


def m1_interval() -> RayInterval:
    return RayInterval(Ray(Vector.unit(2, 0)), Ray(Vector.unit(2, 1)))


def m1_family():
    interval = m1_interval()
    return (BasicFunction.cs(interval.y1), BasicFunction.cs(interval.y2))


def wall_family():
    return (BasicFunction.cs(Ray(Vector.unit(3, 0))), BasicFunction.cs(Ray(Vector.unit(3, 1))))


def wall_scenario():
    """(W, W', U) giving a one-step junction and a verified butterfly."""
    w = Ray(Vector.parse(["0", "-8", "-4"]))
    w_prime = Ray(Vector.parse(["0", "-1", "-6"]))
    u = Ray(Vector.parse(["-6", "-6", "0"]))
    return w, w_prime, u


def chart_family():
    return example_family(CHART, Ray(Vector.unit(3, 0)), Ray(Vector.unit(3, 1)))


def chart_sample():
    """One ray per realized stratum, ordered by the ratio b(y1,-)/b(y2,-).

    The model bounds the ratio by t^2 (its largest column ratio), so the
    seven classes below exhaust the partition: four threshold classes
    (ratio 0, t^-2, e, t^2) interleaved with three open ones.
    """
    rows = [
        ["-inf", "-inf", "0"],   # ratio 0
        ["-5", "-inf", "0"],     # ratio t^-5
        ["-2", "-inf", "0"],     # ratio t^-2 (threshold)
        ["0", "-1", "-inf"],     # ratio t^-1
        ["0", "0", "-inf"],      # ratio e (threshold)
        ["0", "1", "-inf"],      # ratio t^1
        ["0", "2", "-inf"],      # ratio t^2 (threshold)
    ]
    return [Ray(Vector.parse(r)) for r in rows]


CORNER = QuadraticPair.from_rows(
    ["2", "-4", "4"],
    [["2", "0", "-1"],
     ["0", "-4", "-3"],
     ["-1", "-3", "4"]])


def corner_family():
    """CS(e1,-), CS(e2,-), CS(e3,-).

    Every comparison cancels q(x), but the three anchors leave three
    tropical linear forms b(ei, x), so the strata are not classes of one
    ratio.
    """
    return tuple(BasicFunction.cs(Ray(Vector.unit(3, i))) for i in range(3))


def corner_sample():
    """One ray per stratum, in the order of CHART_TARGET_NODES.

    A (f2 > f1 > f3) and B (f1 > f2 > f3) are open strata sharing the wall
    dA; E and dB are their outer walls; dE (all equal) is the crossing.
    """
    rows = [
        ["0", "-inf", "-3"],     # A   <>>
        ["-3", "0", "-5"],       # dA  =>>
        ["-4", "0", "-5"],       # B   >>>
        ["-7/2", "0", "-7/2"],   # dB  >>=
        ["-1", "0", "-2"],       # E   <=>
        ["-3", "0", "-3"],       # dE  ===
    ]
    return [Ray(Vector.parse(r)) for r in rows]


# chart (six ascending profile classes) against which criterion 8 tests
# isomorphism: seven direct derivations among A, dA, B, dB, E, dE
CHART_TARGET_NODES = ("A", "dA", "B", "dB", "E", "dE")
CHART_TARGET_EDGES = (
    ("A", "E"), ("A", "dA"), ("E", "dE"), ("dA", "dE"),
    ("B", "dA"), ("B", "dB"), ("dB", "dE"),
)
