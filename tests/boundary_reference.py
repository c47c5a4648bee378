"""The derivate boundary read off a full strata trace, frozen for
differential tests.

This is strata.derivate_boundary as it stood before it was deleted from the
library, whose entrances, sectors and chart edges read ``strata._boundary``
straight off the kernel's runs.  tests/test_boundary.py runs both on the
trace of ``strata._trace`` and requires equal answers.  Keep it unchanged;
it is the reference, not library code.
"""


def derivate_boundary(trace, t_vec, t_prime):
    """(closed, (lam, Z)) for a trace that is one T piece followed by one T'
    piece, else None: (lam, Z) is the separator at the T' piece's first ray,
    which that piece holds (`closed`, case1) or not (case2)."""
    pieces = trace.pieces
    if len(pieces) == 2 and pieces[0].signs == t_vec and pieces[1].signs == t_prime:
        return pieces[1].lo_closed, trace.boundaries[1]
    return None
