"""Command-line interface: one binary, subcommand style.

Every run prints a deterministic document: the same model, arguments, and
seed give byte-identical output.  Exit codes: 0 success, 1 verification
failure, 2 input or schema error.
"""

from __future__ import annotations

import argparse
import sys

from . import serialize
from .errors import SchemaError, TropraysError, VerificationFailed, ZeroVector
from .csfun import build_fw
from .frontier import FrontierPair
from .isotropy import entrance_stratum, stability_check
from .oracle import run_suite
from .quadspace import validate_pair
from .rays import Ray, RayInterval
from .semifield import TropValue, t
from .serialize import (
    dumps,
    load_json_file,
    model_from_json,
    model_hash,
    ray_to_json,
)
from .strata import derivation_chart, sign_vector_at, stratify_interval
from .quadspace import Vector


def _resolve_ray(spec: str, rays: dict, dim: int) -> Ray:
    if spec in rays:
        return rays[spec]
    try:
        return Ray(_resolve_vector(spec, dim))
    except ZeroVector as ex:
        raise SchemaError(f"ray {spec!r} is the zero vector") from ex


def _resolve_vector(spec: str, dim: int) -> Vector:
    try:
        vec = Vector(TropValue.parse(p) for p in spec.split(","))
    except (ValueError, ZeroDivisionError) as ex:
        raise SchemaError(f"cannot parse vector {spec!r}: {ex}") from ex
    if len(vec) != dim:
        raise SchemaError(f"vector {spec!r} has dimension {len(vec)}, expected {dim}")
    return vec


def _load_context(args):
    pair = model_from_json(load_json_file(args.model))
    rays, functions, samples = {}, (), []
    if getattr(args, "b", None):
        rays, functions, samples = serialize.family_from_json(load_json_file(args.b), pair)
    return pair, rays, functions, samples


def _emit(args, document, lines):
    if args.json:
        sys.stdout.write(dumps(document))
    else:
        for line in lines:
            sys.stdout.write(line + "\n")
    return 0


def cmd_validate(args):
    pair, _, _, _ = _load_context(args)
    report = validate_pair(pair, samples=args.samples, rng=args.seed)
    doc = {
        "command": "validate",
        "model_hash": model_hash(pair),
        "seed": args.seed,
        "ok": report.ok,
        "balanced": report.balanced,
        "pairs_checked": report.pairs_checked,
        "failures": [f"{x!r} {y!r}" for x, y, _, _ in report.failures],
    }
    lines = [
        f"model {model_hash(pair)} seed {args.seed}",
        f"companion identity: {'pass' if report.ok else 'FAIL'} "
        f"({report.pairs_checked} pairs)",
        f"balanced: {'yes' if report.balanced else 'no'}",
    ]
    _emit(args, doc, lines)
    return 0 if report.ok else 1


def cmd_eval(args):
    pair, _, _, _ = _load_context(args)
    x = _resolve_vector(args.vec, pair.dim)
    doc = {"command": "eval", "model_hash": model_hash(pair), "seed": args.seed,
           "q": str(pair.eval_q(x))}
    lines = [f"model {model_hash(pair)}", f"q(x) = {pair.eval_q(x)}"]
    if args.vec2:
        y = _resolve_vector(args.vec2, pair.dim)
        doc["b"] = str(pair.eval_b(x, y))
        lines.append(f"b(x,y) = {pair.eval_b(x, y)}")
        doc["cs"] = str(pair.cs(x, y))
        lines.append(f"CS(x,y) = {pair.cs(x, y)}")
    return _emit(args, doc, lines)


def _interval_from_args(args, pair, rays) -> RayInterval:
    y1 = _resolve_ray(getattr(args, "from"), rays, pair.dim)
    y2 = _resolve_ray(args.to, rays, pair.dim)
    try:
        return RayInterval(y1, y2)
    except ValueError as ex:
        raise SchemaError(f"bad interval --from {getattr(args, 'from')} "
                          f"--to {args.to}: {ex}") from ex


def cmd_interval_profile(args):
    pair, rays, _, _ = _load_context(args)
    interval = _interval_from_args(args, pair, rays)
    w = _resolve_vector(args.witness, pair.dim)
    profile = build_fw(pair, interval, w)
    doc = {
        "command": "interval-profile",
        "model_hash": model_hash(pair),
        "seed": args.seed,
        "interval": {"y1": ray_to_json(interval.y1), "y2": ray_to_json(interval.y2)},
        "witness": serialize.vector_to_json(w),
        "pm": serialize.pm_to_json(profile.f),
        "reduced_degrees": list(profile.reduced_degrees()),
        "quasilinear": profile.quasilinear,
        "regions": {
            "A": [str(profile.region_a[0]), str(profile.region_a[1])],
            "B": [str(profile.region_b[0]), str(profile.region_b[1])],
            "C": [str(profile.region_c[0]), str(profile.region_c[1])],
        },
    }
    lines = [
        f"model {model_hash(pair)}",
        f"f_w = {profile.f!r}",
        f"reduced degrees: {profile.reduced_degrees()}",
        f"A = [{profile.region_a[0]}, {profile.region_a[1]}]",
        f"B = [{profile.region_b[0]}, {profile.region_b[1]}]",
        f"C = [{profile.region_c[0]}, {profile.region_c[1]}]",
    ]
    return _emit(args, doc, lines)


def cmd_compare(args):
    pair, rays, functions, _ = _load_context(args)
    interval = _interval_from_args(args, pair, rays)
    if not (0 <= args.f < len(functions) and 0 <= args.g < len(functions)):
        raise SchemaError("function index out of range")
    f = functions[args.f]
    g = functions[args.g]
    pf = f.restrict(pair, interval.y1.base, interval.y2.base)
    pg = g.restrict(pair, interval.y1.base, interval.y2.base)
    pieces = pf.compare(pg)
    doc = {
        "command": "compare",
        "model_hash": model_hash(pair),
        "seed": args.seed,
        "pieces": [serialize.sign_piece_to_json(p) for p in pieces],
    }
    lines = [f"model {model_hash(pair)}"] + [str(p) for p in pieces]
    return _emit(args, doc, lines)


def cmd_stratify(args):
    pair, rays, functions, _ = _load_context(args)
    interval = _interval_from_args(args, pair, rays)
    trace = stratify_interval(pair, functions, interval)
    doc = {
        "command": "stratify",
        "model_hash": model_hash(pair),
        "seed": args.seed,
        "trace": serialize.trace_to_json(trace),
    }
    lines = [f"model {model_hash(pair)}", "pieces:"]
    lines += ["  " + str(p) for p in trace.pieces]
    lines.append("separators:")
    lines += [f"  {par} -> {r!r}" for par, r in trace.boundaries]
    return _emit(args, doc, lines)


def cmd_chart(args):
    pair, rays, functions, samples = _load_context(args)
    if not samples:
        raise SchemaError('chart needs sample rays (family "samples" section)')
    chart = derivation_chart(pair, functions, samples)
    dot = chart.to_dot()
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot + "\n")
    doc = {
        "command": "chart",
        "model_hash": model_hash(pair),
        "seed": args.seed,
        "chart": serialize.chart_to_json(chart),
    }
    lines = [f"model {model_hash(pair)}", dot]
    return _emit(args, doc, lines)


def _frontier_from_args(args, pair, rays, functions):
    w = _resolve_ray(args.w, rays, pair.dim)
    w2 = _resolve_ray(args.w2, rays, pair.dim)
    u = _resolve_ray(args.u, rays, pair.dim)
    t_vec = sign_vector_at(pair, functions, w)
    t_prime = sign_vector_at(pair, functions, u)
    return FrontierPair(pair, functions, t_vec, t_prime), w, w2, u


def cmd_junction(args):
    pair, rays, functions, _ = _load_context(args)
    fp, w, w2, u = _frontier_from_args(args, pair, rays, functions)
    report = fp.junction_process(w, w2, u, max_iter=args.max_iter)
    doc = {
        "command": "junction",
        "model_hash": model_hash(pair),
        "seed": args.seed,
        "outcome": report.outcome,
        "steps": report.steps,
        "stop_criterion_held": report.stop_criterion_held,
        "sigma": str(report.sigma),
        "tau": str(report.tau),
        "ray": ray_to_json(report.ray) if report.ray else None,
        "trace": [{"k": s.k, "lambda": str(s.lam), "ray": ray_to_json(s.ray)}
                  for s in report.trace],
    }
    lines = [f"model {model_hash(pair)}",
             "k      lambda    Z_k"]
    for s in report.trace:
        lines.append(f"{s.k:<6} {str(s.lam):<9} {s.ray!r}")
    lines.append(f"outcome: {report.outcome}"
                 + (f" at {report.ray!r}" if report.ray else ""))
    _emit(args, doc, lines)
    return 0 if report.outcome != "gorge" else 1


def cmd_butterfly(args):
    pair, rays, functions, _ = _load_context(args)
    fp, w, w2, u = _frontier_from_args(args, pair, rays, functions)
    try:
        bf = fp.construct_butterfly(w, w2, u)
    except VerificationFailed as ex:
        doc = {"command": "butterfly", "model_hash": model_hash(pair),
               "seed": args.seed, "verified": False, "reason": str(ex)}
        _emit(args, doc, [f"model {model_hash(pair)}", f"no butterfly: {ex}"])
        return 1
    doc = {
        "command": "butterfly",
        "model_hash": model_hash(pair),
        "seed": args.seed,
        "verified": True,
        "w": ray_to_json(bf.w), "w1": ray_to_json(bf.w1),
        "z": ray_to_json(bf.z), "z1": ray_to_json(bf.z1),
        "c": str(bf.c), "d": str(bf.d),
    }
    lines = [
        f"model {model_hash(pair)}",
        f"butterfly verified: ({bf.w!r}, {bf.w1!r}, {bf.z!r}, {bf.z1!r})",
        f"bounds c = {bf.c}, d = {bf.d}",
    ]
    return _emit(args, doc, lines)


def cmd_isotropy_entry(args):
    pair, rays, functions, _ = _load_context(args)
    y2 = _resolve_ray(getattr(args, "from"), rays, pair.dim)
    y3 = _resolve_ray(args.to, rays, pair.dim)
    eps = _resolve_vector(args.eps, pair.dim)
    if eps.is_zero() or not pair.is_isotropic(eps):
        raise SchemaError(f"--eps {args.eps} is not an isotropic vector")
    eta = _resolve_vector(args.eta, pair.dim)
    approach = entrance_stratum(pair, functions, y2, y3, eps, eta)
    samples = [approach.t_checked * t(-k) for k in range(args.samples)]
    stability = stability_check(pair, functions, approach, samples)
    rows = []
    for t_val in samples:
        sv = stability.observed.get(t_val)
        if sv is None:
            sv = sign_vector_at(pair, functions, Ray(eps + t_val * eta))
        rows.append((str(t_val), str(sv), sv == approach.entrance))
    doc = {
        "command": "isotropy-entry",
        "model_hash": model_hash(pair),
        "seed": args.seed,
        "case": approach.case,
        "swapped": approach.swapped,
        "t0": str(approach.t0),
        "strict": approach.strict,
        "entrance": serialize.sign_vector_to_json(approach.entrance),
        "stable": stability.ok,
        "samples_checked": stability.samples_checked,
        "samples": [{"t": a, "signs": b, "match": c} for a, b, c in rows],
    }
    lines = [
        f"model {model_hash(pair)}",
        f"case {approach.case}{' (swapped)' if approach.swapped else ''}",
        f"t0 = {approach.t0} ({'strict' if approach.strict else 'inclusive'})",
        f"entrance sign vector: {approach.entrance}",
        "t         signs      match",
    ]
    for a, b, c in rows:
        lines.append(f"{a:<9} {b:<10} {'yes' if c else 'NO'}")
    lines.append(f"stability over {stability.samples_checked} samples: "
                 f"{'pass' if stability.ok else 'FAIL'}")
    _emit(args, doc, lines)
    return 0 if stability.ok else 1


def cmd_oracle(args):
    pair, _, _, _ = _load_context(args)
    results = run_suite(pair, args.seed, args.samples)
    total = sum(len(v) for v in results.values())
    doc = {
        "command": "oracle",
        "model_hash": model_hash(pair),
        "seed": args.seed,
        "samples": args.samples,
        "failures": {k: v for k, v in results.items() if v},
        "ok": total == 0,
    }
    lines = [f"model {model_hash(pair)} seed {args.seed} samples {args.samples}"]
    for name in sorted(results):
        status = "pass" if not results[name] else f"FAIL ({len(results[name])})"
        lines.append(f"{name}: {status}")
    _emit(args, doc, lines)
    return 0 if total == 0 else 1


class _Parser(argparse.ArgumentParser):
    """Argument errors are input errors: one stderr line and exit code 2."""

    def error(self, message):
        self.exit(2, f"input error: {self.prog}: {message}\n")


def _count(least: int):
    """An argparse type: an integer that is at least `least`."""
    def count(text):
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be an integer >= {least}, got {value}")
        return value
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="troprays",
        description="exact tropical quadratic-form computations on ray spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, family=False, interval=False):
        p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--seed", type=int, default=0)
        if family:
            p.add_argument("--b", required=True, help="family JSON file")
        if interval:
            p.add_argument("--from", required=True, help="interval start ray")
            p.add_argument("--to", required=True, help="interval end ray")

    p = sub.add_parser("validate", help="check the companion identity")
    common(p)
    p.add_argument("--samples", type=_count(0), default=200)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("eval", help="evaluate q, b, CS on vectors")
    common(p)
    p.add_argument("--vec", required=True)
    p.add_argument("--vec2")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("interval-profile", help="CS profile of a witness on an interval")
    common(p, family=True, interval=True)
    p.add_argument("--witness", required=True)
    p.set_defaults(func=cmd_interval_profile)

    p = sub.add_parser("compare", help="sign sequence of two family functions")
    common(p, family=True, interval=True)
    p.add_argument("--f", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("stratify", help="strata trace of an interval")
    common(p, family=True, interval=True)
    p.set_defaults(func=cmd_stratify)

    p = sub.add_parser("chart", help="derivation chart of sampled strata")
    common(p, family=True)
    p.add_argument("--dot", help="write DOT to this path")
    p.set_defaults(func=cmd_chart)

    p = sub.add_parser("junction", help="run the junction process")
    common(p, family=True)
    p.add_argument("--w", required=True)
    p.add_argument("--w2", required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--max-iter", type=_count(1), default=256)
    p.set_defaults(func=cmd_junction)

    p = sub.add_parser("butterfly", help="construct and verify a butterfly")
    common(p, family=True)
    p.add_argument("--w", required=True)
    p.add_argument("--w2", required=True)
    p.add_argument("--u", required=True)
    p.set_defaults(func=cmd_butterfly)

    p = sub.add_parser("isotropy-entry", help="entrance stratum at an isotropic ray")
    common(p, family=True, interval=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--eta", required=True)
    p.add_argument("--samples", type=_count(0), default=25)
    p.set_defaults(func=cmd_isotropy_entry)

    p = sub.add_parser("oracle", help="run the sampling cross-check suite")
    common(p)
    p.add_argument("--samples", type=_count(0), default=500)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as ex:
        print(f"input error: {ex}", file=sys.stderr)
        return 2
    except TropraysError as ex:
        print(f"{type(ex).__name__}: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
