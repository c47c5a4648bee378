"""Reference derivation charts and chart witnesses for the chart tests.

:func:`unpruned_chart` is ``strata.derivation_chart`` without its
``is_derivate_of`` pre-filter: it tries every ordered pair of strata and
every witness pair.  The library chart must equal it in nodes, edges and
witnesses.
"""

from troprays.rays import Ray, RayInterval
from troprays.strata import (DerivationChart, is_direct_derivate, sign_vector_at,
                             stratify_interval)


def unpruned_chart(pair, family, sample) -> DerivationChart:
    groups = {}
    order = []
    for x in sample:
        sv = sign_vector_at(pair, family, x)
        if sv not in groups:
            groups[sv] = []
            order.append(sv)
        groups[sv].append(x)
    edges = []
    witnesses = []
    for t_vec in order:
        for t_prime in order:
            if t_vec == t_prime:
                continue
            found = None
            for w in groups[t_vec]:
                for wp in groups[t_prime]:
                    if is_direct_derivate(pair, family, t_vec, t_prime, w, wp) == "case1":
                        found = (w, wp)
                        break
                if found:
                    break
            if found:
                edges.append((t_vec, t_prime))
                witnesses.append(((t_vec, t_prime), found))
    return DerivationChart(tuple(order), tuple(edges), tuple(witnesses))


def stratum_witnesses(pair, family, sample, per_stratum, sampler):
    """Up to `per_stratum` witnesses for each stratum of `sample`.

    Each sample ray x is joined to random rays Y; every trace piece of
    [x, Y] lying in a sampled stratum adds the ray at its interior point.
    """
    pools = {sign_vector_at(pair, family, x): [x] for x in sample}
    for _ in range(2 * per_stratum):
        for x in sample:
            y = Ray(sampler.vector(pair.dim))
            if y == x:
                continue
            interval = RayInterval(x, y)
            for piece in stratify_interval(pair, family, interval).pieces:
                pool = pools.get(piece.signs)
                z = interval.pi(piece.interior_point())
                if pool is not None and len(pool) < per_stratum and z not in pool:
                    pool.append(z)
    return pools
