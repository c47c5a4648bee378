"""Command-line interface: one binary, subcommand style.

Every run prints a deterministic document: the same model, arguments, and
seed give byte-identical output.  Exit codes: 0 success, 1 verification
failure, 2 input or schema error.  Each handler imports the layer it runs
when it is called, so a subcommand loads only the modules it uses.  The
parser is built once per process; ``main`` looks the handler up by the
subcommand name (``cmd_`` + the name with ``-`` as ``_``) each time it runs.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import TYPE_CHECKING

from . import serialize
from .errors import IsotropicArgument, SchemaError, TropraysError, VerificationFailed
from .quadspace import Vector, validate_pair
from .semifield import t
from .serialize import dumps, load_json_file, model_from_json, model_hash, ray_to_json

if TYPE_CHECKING:
    from .rays import Ray, RayInterval


def _resolve_ray(spec: str, rays: dict, dim: int) -> Ray:
    if spec in rays:
        return rays[spec]
    return serialize._ray_of_dim(spec.split(","), dim, f"ray {spec!r}")


def _resolve_vector(spec: str, dim: int) -> Vector:
    vec = serialize.vector_from_json(spec.split(","))
    if len(vec) != dim:
        raise SchemaError(f"vector {spec!r} has dimension {len(vec)}, expected {dim}")
    return vec


def _load_context(args):
    pair = model_from_json(load_json_file(args.model))
    rays, functions, samples = {}, (), []
    if getattr(args, "b", None):
        rays, functions, samples = serialize.family_from_json(load_json_file(args.b), pair)
    return pair, rays, functions, samples


def _emit(args, pair, document, lines, header=""):
    """Write the command's document: under --json with the keys command,
    model_hash and seed added, else as text lines after the line
    "model <hash>" + header."""
    digest = model_hash(pair)
    if args.json:
        sys.stdout.write(dumps({"command": args.command, "model_hash": digest,
                                "seed": args.seed, **document}))
    else:
        sys.stdout.write(f"model {digest}{header}\n")
        for line in lines:
            sys.stdout.write(line + "\n")
    return 0


def cmd_validate(args):
    pair, _, _, _ = _load_context(args)
    report = validate_pair(pair, samples=args.samples, rng=args.seed)
    doc = {
        "ok": report.ok,
        "balanced": report.balanced,
        "pairs_checked": report.pairs_checked,
        "failures": [f"{x!r} {y!r}" for x, y, _, _ in report.failures],
    }
    lines = [
        f"companion identity: {'pass' if report.ok else 'FAIL'} "
        f"({report.pairs_checked} pairs)",
        f"balanced: {'yes' if report.balanced else 'no'}",
    ]
    _emit(args, pair, doc, lines, f" seed {args.seed}")
    return 0 if report.ok else 1


def cmd_eval(args):
    pair, _, _, _ = _load_context(args)
    x = _resolve_vector(args.vec, pair.dim)
    doc = {"q": str(pair.eval_q(x))}
    if args.vec2 is not None:
        y = _resolve_vector(args.vec2, pair.dim)
        doc["b"] = str(pair.eval_b(x, y))
        try:
            doc["cs"] = str(pair.cs(x, y))
        except IsotropicArgument as ex:
            raise SchemaError(f"CS(x,y) is undefined: {ex}") from ex
    labels = {"q": "q(x)", "b": "b(x,y)", "cs": "CS(x,y)"}
    return _emit(args, pair, doc, [f"{labels[k]} = {v}" for k, v in doc.items()])


def _interval_from_args(args, pair, rays) -> RayInterval:
    from .rays import RayInterval
    y1 = _resolve_ray(getattr(args, "from"), rays, pair.dim)
    y2 = _resolve_ray(args.to, rays, pair.dim)
    try:
        return RayInterval(y1, y2)
    except ValueError as ex:
        raise SchemaError(f"bad interval --from {getattr(args, 'from')} "
                          f"--to {args.to}: {ex}") from ex


def cmd_interval_profile(args):
    from .csfun import build_fw
    pair, rays, _, _ = _load_context(args)
    interval = _interval_from_args(args, pair, rays)
    w = _resolve_vector(args.witness, pair.dim)
    profile = build_fw(pair, interval, w)
    regions = {"A": profile.region_a, "B": profile.region_b, "C": profile.region_c}
    doc = {
        "interval": {"y1": ray_to_json(interval.y1), "y2": ray_to_json(interval.y2)},
        "witness": serialize.vector_to_json(w),
        "pm": serialize.pm_to_json(profile.f),
        "reduced_degrees": list(profile.reduced_degrees()),
        "quasilinear": profile.quasilinear,
        "regions": {k: [str(lo), str(hi)] for k, (lo, hi) in regions.items()},
    }
    lines = [f"f_w = {profile.f!r}", f"reduced degrees: {profile.reduced_degrees()}",
             *[f"{k} = [{lo}, {hi}]" for k, (lo, hi) in regions.items()]]
    return _emit(args, pair, doc, lines)


def cmd_compare(args):
    from .csfun import cs_restriction_pm
    pair, rays, functions, _ = _load_context(args)
    interval = _interval_from_args(args, pair, rays)
    if not (0 <= args.f < len(functions) and 0 <= args.g < len(functions)):
        raise SchemaError("function index out of range")
    pf, pg = cs_restriction_pm(pair, interval.y1.base, interval.y2.base,
                               (functions[args.f], functions[args.g]))
    pieces = pf.compare(pg)
    doc = {"pieces": [serialize.sign_piece_to_json(p) for p in pieces]}
    return _emit(args, pair, doc, [str(p) for p in pieces])


def cmd_stratify(args):
    from .strata import stratify_interval
    pair, rays, functions, _ = _load_context(args)
    interval = _interval_from_args(args, pair, rays)
    trace = stratify_interval(pair, functions, interval)
    doc = {"trace": serialize.trace_to_json(trace)}
    lines = ["pieces:"]
    lines += ["  " + str(p) for p in trace.pieces]
    lines.append("separators:")
    lines += [f"  {par} -> {r!r}" for par, r in trace.boundaries]
    return _emit(args, pair, doc, lines)


def cmd_chart(args):
    from .strata import derivation_chart
    pair, rays, functions, samples = _load_context(args)
    if not samples:
        raise SchemaError('chart needs sample rays (family "samples" section)')
    chart = derivation_chart(pair, functions, samples)
    dot = chart.to_dot()
    if args.dot:
        try:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(dot + "\n")
        except OSError as ex:
            raise SchemaError(f"cannot write --dot {args.dot}: {ex.strerror}") from ex
    return _emit(args, pair, {"chart": serialize.chart_to_json(chart)}, [dot])


def _frontier_from_args(args, pair, rays, functions):
    from .frontier import FrontierPair
    w = _resolve_ray(args.w, rays, pair.dim)
    w2 = _resolve_ray(args.w2, rays, pair.dim)
    u = _resolve_ray(args.u, rays, pair.dim)
    return FrontierPair.of_rays(pair, functions, w, u), w, w2, u


def cmd_junction(args):
    pair, rays, functions, _ = _load_context(args)
    fp, w, w2, u = _frontier_from_args(args, pair, rays, functions)
    report = fp.junction_process(w, w2, u, max_iter=args.max_iter)
    doc = {
        "outcome": report.outcome,
        "steps": report.steps,
        "stop_criterion_held": report.stop_criterion_held,
        "sigma": str(report.sigma),
        "tau": str(report.tau),
        "ray": ray_to_json(report.ray) if report.ray else None,
        "trace": [{"k": s.k, "lambda": str(s.lam), "ray": ray_to_json(s.ray)}
                  for s in report.trace],
    }
    lines = ["k      lambda    Z_k"]
    for s in report.trace:
        lines.append(f"{s.k:<6} {str(s.lam):<9} {s.ray!r}")
    lines.append(f"outcome: {report.outcome}"
                 + (f" at {report.ray!r}" if report.ray else ""))
    _emit(args, pair, doc, lines)
    return 0 if report.outcome != "gorge" else 1


def cmd_butterfly(args):
    pair, rays, functions, _ = _load_context(args)
    fp, w, w2, u = _frontier_from_args(args, pair, rays, functions)
    if w == w2:
        raise SchemaError(f"--w {args.w} and --w2 {args.w2} must be different rays")
    try:
        bf = fp.construct_butterfly(w, w2, u)
    except VerificationFailed as ex:
        _emit(args, pair, {"verified": False, "reason": str(ex)}, [f"no butterfly: {ex}"])
        return 1
    doc = {
        "verified": True,
        "w": ray_to_json(bf.w), "w1": ray_to_json(bf.w1),
        "z": ray_to_json(bf.z), "z1": ray_to_json(bf.z1),
        "c": str(bf.c), "d": str(bf.d),
    }
    lines = [
        f"butterfly verified: ({bf.w!r}, {bf.w1!r}, {bf.z!r}, {bf.z1!r})",
        f"bounds c = {bf.c}, d = {bf.d}",
    ]
    return _emit(args, pair, doc, lines)


def cmd_isotropy_entry(args):
    from .isotropy import entrance_stratum, stability_check
    pair, rays, functions, _ = _load_context(args)
    interval = _interval_from_args(args, pair, rays)
    eps = _resolve_vector(args.eps, pair.dim)
    if eps.is_zero() or not pair.is_isotropic(eps):
        raise SchemaError(f"--eps {args.eps} is not an isotropic vector")
    eta = _resolve_vector(args.eta, pair.dim)
    approach = entrance_stratum(pair, functions, interval.y1, interval.y2, eps, eta)
    samples = [approach.t_checked * t(-k) for k in range(args.samples)]
    stability = stability_check(pair, functions, approach, samples)
    rows = []
    for t_val in samples:
        sv = stability.observed[t_val]
        rows.append((str(t_val), str(sv), sv == approach.entrance))
    doc = {
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
        f"case {approach.case}{' (swapped)' if approach.swapped else ''}",
        f"t0 = {approach.t0} ({'strict' if approach.strict else 'inclusive'})",
        f"entrance sign vector: {approach.entrance}",
        "t         signs      match",
    ]
    for a, b, c in rows:
        lines.append(f"{a:<9} {b:<10} {'yes' if c else 'NO'}")
    lines.append(f"stability over {stability.samples_checked} samples: "
                 f"{'pass' if stability.ok else 'FAIL'}")
    _emit(args, pair, doc, lines)
    return 0 if stability.ok else 1


def cmd_oracle(args):
    from .oracle import run_suite
    pair, _, _, _ = _load_context(args)
    results = run_suite(pair, args.seed, args.samples)
    total = sum(len(v) for v in results.values())
    doc = {
        "samples": args.samples,
        "failures": {k: v for k, v in results.items() if v},
        "ok": total == 0,
    }
    lines = []
    for name in sorted(results):
        status = "pass" if not results[name] else f"FAIL ({len(results[name])})"
        lines.append(f"{name}: {status}")
    _emit(args, pair, doc, lines, f" seed {args.seed} samples {args.samples}")
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The subcommand table, built on the first call and reused: every
    default is immutable and argparse fills a fresh namespace per parse."""
    parser = _Parser(
        prog="troprays",
        description="exact tropical quadratic-form computations on ray spaces")
    sub = parser.add_subparsers(dest="command", required=True)
    frontier_rays = [(f"--{name}", {"required": True}) for name in ("w", "w2", "u")]
    # (name, help, reads --b, reads --from/--to, own arguments)
    commands = [
        ("validate", "check the companion identity", False, False,
         [("--samples", {"type": _count(0), "default": 200})]),
        ("eval", "evaluate q, b, CS on vectors", False, False,
         [("--vec", {"required": True}), ("--vec2", {})]),
        ("interval-profile", "CS profile of a witness on an interval", True, True,
         [("--witness", {"required": True})]),
        ("compare", "sign sequence of two family functions", True, True,
         [("--f", {"type": int, "required": True}),
          ("--g", {"type": int, "required": True})]),
        ("stratify", "strata trace of an interval", True, True, []),
        ("chart", "derivation chart of sampled strata", True, False,
         [("--dot", {"help": "write DOT to this path"})]),
        ("junction", "run the junction process", True, False,
         frontier_rays + [("--max-iter", {"type": _count(1), "default": 256})]),
        ("butterfly", "construct and verify a butterfly", True, False, frontier_rays),
        ("isotropy-entry", "entrance stratum at an isotropic ray", True, True,
         [("--eps", {"required": True}), ("--eta", {"required": True}),
          ("--samples", {"type": _count(0), "default": 25})]),
        ("oracle", "run the sampling cross-check suite", False, False,
         [("--samples", {"type": _count(0), "default": 500})]),
    ]
    for name, help_text, family, interval, own in commands:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--seed", type=int, default=0)
        if family:
            p.add_argument("--b", required=True, help="family JSON file")
        if interval:
            p.add_argument("--from", required=True, help="interval start ray")
            p.add_argument("--to", required=True, help="interval end ray")
        for flag, options in own:
            p.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # read at call time, so that a cmd_* attribute replaced after import runs
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except TropraysError as ex:
        if ex.input_error:
            print(f"input error: {ex}", file=sys.stderr)
            return 2
        print(f"{type(ex).__name__}: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
