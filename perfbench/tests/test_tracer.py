"""The tracer wraps names where callers look them up, and restores them."""

from tracer import Tracer


def test_wraps_imported_names_and_restores_them():
    import troprays.cli
    import troprays.frontier
    from troprays.instances import M1, m1_family, m1_interval
    from troprays.strata import stratify_interval

    original = troprays.cli.build_fw
    tracer = Tracer()
    tracer.install()
    try:
        assert troprays.cli.build_fw is not original
        assert troprays.frontier.stratify_interval.__wrapped__ is stratify_interval
        troprays.frontier.stratify_interval(M1, m1_family(), m1_interval())
    finally:
        tracer.uninstall()
    assert troprays.cli.build_fw is original
    assert troprays.frontier.stratify_interval is stratify_interval
    counts = tracer.counts()
    assert counts["strata.stratify_interval.calls"] == 1
    assert counts["strata.pieces_per_trace"] == 3
    # two CS anchors on one interval: seven Gram evaluations per restriction
    assert counts["csfun.cs_restriction_pm.calls"] == 2
    assert counts["csfun.gram_per_restriction"] == 7
    assert tracer.times()["strata.self_s"] > 0
