"""Benchmark of troprays: seeded workloads, timed end to end, traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fw-oracle --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # all four workloads, one process

With ``--trace 0`` a run sets the workload up three times (reporting the
median), runs one checked warm-up round, then repeats rounds for
``--seconds`` seconds of wall time and reports CPU-time medians.  With
``--trace 1`` it makes one traced pass (set-up, one round, then the layer
probes) for the per-layer metrics, and spends ``--seconds`` alternating
untraced and traced rounds to measure the tracing overhead.  The last line of
standard output is one JSON object; a result document with every figure goes
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

from clock import Stopwatch
from workloads import WORKLOADS, CheckFailed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 3
MIN_ROUNDS = 3


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program() -> float:
    """Import troprays from the checkout's src/; returns the CPU seconds taken."""
    for need in ("src/troprays/__init__.py", "data/m1.json"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail(f"{need} is missing: run from the root of a troprays checkout")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    watch = Stopwatch()
    watch.start()
    import troprays.cli  # noqa: F401
    watch.stop("import")
    return watch.parts()["import"][0]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_setup(workload, seed):
    watch = Stopwatch()
    for _ in range(SETUPS):
        watch.start()
        inputs = workload.setup(seed)
        watch.stop("setup")
    return inputs, statistics.median(watch.parts()["setup"])


def run_rounds(workload, inputs, first, seconds, between=None):
    """Repeat rounds for `seconds` of wall time; each must digest to `first`."""
    rounds = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        if between is not None:
            between()
        out, parts = workload.round(inputs)
        if workload.digest(inputs, out) != first:
            raise CheckFailed("a repeated round gave a different result")
        rounds.append(parts)
    return rounds


def robust(rounds) -> dict:
    """CPU seconds per part: the sum over its units of each unit's median
    across rounds, so a slow spell on a shared machine that hits a unit in
    fewer than half of the rounds does not move the figure."""
    return {part: sum(statistics.median(r[part][i] for r in rounds)
                      for i in range(len(units)))
            for part, units in rounds[0].items()}


def measure(workload, seed, seconds, import_s):
    """End-to-end metrics of one workload, untraced."""
    inputs, setup_s = timed_setup(workload, seed)
    out, _ = workload.round(inputs)
    first = workload.digest(inputs, out)
    failed = workload.check(inputs, first)
    rounds = run_rounds(workload, inputs, first, seconds)
    ops = workload.ops(inputs, first)
    parts = robust(rounds)
    n = len(rounds) + 1
    return {
        "attempted": ops * n, "failed": failed * n, "rounds": n,
        "metrics": {
            "setup_s": (import_s + setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "ops_per_s": (ops / sum(parts.values()), "1/s"),
        },
        "named": workload.named(inputs, first, parts),
        "stats": inputs.get("stats", {}),
    }


def trace(workload, seed, seconds, import_s):
    """Per-layer metrics of one workload, and the tracing overhead."""
    from probes import eval_b_us, probe_pass, semifield_op_ns
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        inputs = workload.setup(seed)
        out, _ = workload.round(inputs)
        probe_pass()
    finally:
        tracer.uninstall()
    first = workload.digest(inputs, out)
    failed = workload.check(inputs, first)
    layer = {**tracer.counts(), **tracer.times()}

    # overhead: untraced and traced rounds alternate on the same inputs
    state = {"traced": False}

    def flip():
        state["traced"] = not state["traced"]
        (tracer.install if state["traced"] else tracer.uninstall)()

    try:
        rounds = run_rounds(workload, inputs, first, seconds, between=flip)
    finally:
        tracer.uninstall()
    plain = sum(robust(rounds[1::2]).values())
    traced = sum(robust(rounds[0::2]).values())
    layer["trace.overhead_pct"] = 100 * (traced / plain - 1)
    layer["semifield.op_ns"] = semifield_op_ns(seed)
    layer["quadspace.eval_b_us"] = eval_b_us(seed)
    layer["cli.import_s"] = import_s
    ops = workload.ops(inputs, first)
    n = len(rounds) + 1
    return {
        "attempted": ops * n, "failed": failed * n, "rounds": n,
        "metrics": {name: (value, unit_of(name)) for name, value in layer.items()},
        "named": {}, "stats": {},
    }


def unit_of(name) -> str:
    """A per-layer metric's unit, read off its name."""
    for suffix, unit in (("_pct", "%"), ("_ns", "ns"), ("_us", "us"), ("_ms", "ms"),
                         ("_s", "s")):
        if name.endswith(suffix):
            return unit
    if name.endswith("bytes_out"):
        return "bytes"
    return "ratio" if "_per_" in name or name.endswith("_ratio") else "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_s = import_program()
    os.chdir(ROOT)
    from troprays.errors import TropraysError

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results, correct, reason = {}, True, None
    for name in names:
        try:
            run = trace if args.trace else measure
            results[name] = run(WORKLOADS[name], args.seed, args.seconds, import_s)
        except (CheckFailed, TropraysError) as ex:
            # a wrong result, or a domain error where a result was due
            correct, reason = False, f"{name}: {type(ex).__name__}: {ex}"
            print(f"perfbench: check failed: {reason}", file=sys.stderr)
            break
        r = results[name]
        print(f"{name}: {r['attempted']} attempted, {r['failed']} failed, "
              f"{r['rounds']} rounds")
        for metric, (value, unit) in {**r["named"], **r["metrics"]}.items():
            print(f"  {metric} = {value:.6g} {unit}")

    attempted = sum(r["attempted"] for r in results.values()) or 1
    failed = sum(r["failed"] for r in results.values())
    if args.workload == "all":
        metrics = {f"{n}.{m}": v for n, r in results.items()
                   for m, v in {**r["named"], **r["metrics"]}.items()}
    else:
        metrics = results[names[0]]["metrics"] if correct else {}
    document = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "reason": reason,
        "python": platform.python_version(), "cpus": os.cpu_count(),
        "results": {n: {**r, "named": {k: list(v) for k, v in r["named"].items()},
                        "metrics": {k: list(v) for k, v in r["metrics"].items()}}
                    for n, r in results.items()},
    }
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
