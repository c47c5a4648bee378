"""JSON encoding of models, rays, families, pm functions, and reports.

All semifield values use the text encoding "p/q" / "p" / "-inf" / "+inf".
Documents are emitted with sorted keys and no trailing whitespace so that
identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import hashlib
import json

from .errors import SchemaError
from .pmfunc import PmFunction, SignPiece
from .quadspace import QuadraticPair, Vector
from .rays import Ray
from .semifield import TropValue
from .strata import BasicFunction, DerivationChart, SignVector, StrataTrace


def value_from_text(text) -> TropValue:
    try:
        return TropValue.parse(str(text))
    except (ValueError, ZeroDivisionError) as ex:
        raise SchemaError(f"bad semifield value {text!r}: {ex}") from ex


def _array(obj, what: str) -> list:
    """`obj` itself when it is a JSON array; SchemaError naming `what` otherwise."""
    if not isinstance(obj, list):
        raise SchemaError(f"{what} must be an array")
    return obj


def _object(obj, what: str) -> dict:
    """`obj` itself when it is a JSON object; SchemaError naming `what` otherwise."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} must be an object")
    return obj


def vector_from_json(obj) -> Vector:
    if not isinstance(obj, (list, tuple)) or not obj:
        raise SchemaError("a vector is a non-empty array of values")
    return Vector(value_from_text(x) for x in obj)


def vector_to_json(v: Vector) -> list:
    return [str(c) for c in v.coords]


def ray_from_json(obj) -> Ray:
    if isinstance(obj, dict):
        if "base" not in obj:
            raise SchemaError('a pointed ray object needs a "base" array')
        return Ray(vector_from_json(obj["base"]))
    return Ray(vector_from_json(obj))


def ray_to_json(r: Ray) -> dict:
    return {"base": vector_to_json(r.base), "rep": vector_to_json(r.rep)}


def model_from_json(obj) -> QuadraticPair:
    _object(obj, "model document")
    for key in ("dim", "q_diag", "b"):
        if key not in obj:
            raise SchemaError(f'model document lacks "{key}"')
    dim = obj["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise SchemaError("dim must be a positive integer")
    q_diag = [value_from_text(x) for x in _array(obj["q_diag"], "q_diag")]
    rows = _array(obj["b"], "b")
    if len(q_diag) != dim or len(rows) != dim:
        raise SchemaError("q_diag and b must have length dim")
    b = []
    for row in rows:
        if len(_array(row, "each row of b")) != dim:
            raise SchemaError("b must be a dim x dim matrix")
        b.append(tuple(value_from_text(x) for x in row))
    pair = QuadraticPair(dim, tuple(q_diag), tuple(b))
    for i in range(dim):
        if pair.b[i][i] > pair.q_diag[i]:
            raise SchemaError(
                f"companion violation on basis pair ({i},{i}): "
                f"b[{i}][{i}] exceeds q_diag[{i}]")
    return pair


def model_to_json(pair: QuadraticPair) -> dict:
    return {
        "dim": pair.dim,
        "q_diag": [str(v) for v in pair.q_diag],
        "b": [[str(v) for v in row] for row in pair.b],
    }


def model_hash(pair: QuadraticPair) -> str:
    blob = dumps(model_to_json(pair)).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def family_from_json(obj, pair: QuadraticPair):
    """Returns (named rays, basic functions, sample rays)."""
    _object(obj, "family document")
    rays = {}
    for name, spec in _object(obj.get("rays", {}), "rays").items():
        rays[name] = ray_from_json(spec)
        if len(rays[name].base) != pair.dim:
            raise SchemaError(f'ray "{name}" has the wrong dimension')
    functions = []
    for idx, fn in enumerate(_array(obj.get("functions", []), "functions")):
        terms = []
        for term in _array(_object(fn, f"function {idx}").get("terms", []), "terms"):
            term = _object(term, f"a term of function {idx}")
            coeff = value_from_text(term.get("coeff", "0"))
            anchor_name = term.get("anchor")
            if not isinstance(anchor_name, str) or anchor_name not in rays:
                raise SchemaError(f'function {idx} references unknown ray "{anchor_name}"')
            terms.append((coeff, rays[anchor_name]))
        functions.append(BasicFunction(tuple(terms)))
    samples = [rays[name] if isinstance(name, str) and name in rays else ray_from_json(name)
               for name in _array(obj.get("samples", []), "samples")]
    return rays, tuple(functions), samples


def pm_to_json(f: PmFunction) -> dict:
    return {
        "breakpoints": [str(b) for b in f.breakpoints],
        "segments": [{"coeff": str(c), "degree": d} for c, d in f.segments],
    }


def pm_from_json(obj) -> PmFunction:
    try:
        bps = [value_from_text(b) for b in obj["breakpoints"]]
        segs = [(value_from_text(s["coeff"]), int(s["degree"])) for s in obj["segments"]]
        return PmFunction(bps, segs)
    except (KeyError, TypeError, ValueError) as ex:
        raise SchemaError(f"bad pm document: {ex}") from ex


def sign_piece_to_json(p: SignPiece) -> dict:
    return {"lo": str(p.lo), "lo_closed": p.lo_closed,
            "hi": str(p.hi), "hi_closed": p.hi_closed, "sign": p.sign}


def trace_to_json(trace: StrataTrace) -> dict:
    return {
        "pieces": [{
            "signs": str(piece.signs),
            "lo": str(piece.lo), "lo_closed": piece.lo_closed,
            "hi": str(piece.hi), "hi_closed": piece.hi_closed,
        } for piece in trace.pieces],
        "separators": [{"param": str(par), "ray": ray_to_json(r)}
                       for par, r in trace.boundaries],
    }


def sign_vector_to_json(sv: SignVector) -> dict:
    return {"functions": sv.m, "signs": str(sv)}


def chart_to_json(chart: DerivationChart) -> dict:
    index = {node: i for i, node in enumerate(chart.nodes)}
    return {
        "nodes": [sign_vector_to_json(n) for n in chart.nodes],
        "edges": [[index[a], index[b]] for a, b in chart.edges],
    }


def dumps(document) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"


def load_json_file(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as ex:
        raise SchemaError(f"cannot read {path}: {ex}") from ex
    except json.JSONDecodeError as ex:
        raise SchemaError(f"{path}:{ex.lineno}:{ex.colno}: {ex.msg}") from ex
