"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public functions and methods of each module of
``troprays`` at the places where callers look them up: the module-level name
in every ``troprays`` module namespace (so ``from .csfun import build_fw`` in
``troprays.cli`` is wrapped too) and the attribute of the defining class.
Each wrapped call is a span; spans are folded into counts and times as they
close, so memory stays flat however long a run is.

``troprays.semifield`` is the one layer left unwrapped: its operations run
millions of times per second, so a span around each would measure the
tracer.  Its cost falls into the self time of the layer that calls it and is
measured directly by the ``semifield.op_ns`` probe.

Span times are ``perf_counter_ns`` intervals on the single benchmark thread.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

LAYERS = ("quadspace", "rays", "pmfunc", "csfun", "strata", "frontier",
          "isotropy", "oracle", "serialize", "cli", "sampling")

# run_suite key -> the oracle function that computes it
ORACLE_CHECKS = {
    "semifield_laws": "check_semifield_laws",
    "companion_identity": "check_companion",
    "reverse_identity": "check_reverse_identity",
    "fw_oracle": "check_fw_oracle",
    "pm_identity": "check_pm_identity",
    "regions": "check_regions",
}
CLI_COMMANDS = ("validate", "eval", "interval_profile", "compare", "stratify",
                "chart", "junction", "butterfly", "isotropy_entry", "oracle")
GRAM = ("quadspace.QuadraticPair.eval_q", "quadspace.QuadraticPair.eval_b")
RESTRICTION = "csfun.cs_restriction_pm"


def _targets(module, layer):
    """(owner, attribute name, function, span key) for each public callable."""
    out = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out.append((None, name, obj, f"{layer}.{name}"))
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(member):
                    out.append((obj, attr, member, f"{layer}.{name}.{attr}"))
                elif isinstance(member, (classmethod, staticmethod)):
                    out.append((obj, attr, member, f"{layer}.{name}.{attr}"))
    return out


class Tracer:
    """Installs span wrappers on the troprays layers and folds their spans."""

    def __init__(self):
        self.calls = {}       # span key -> number of calls
        self.total_ns = {}    # span key -> summed span time
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.gram_in_restriction = 0
        self.compare_pieces = 0
        self.trace_pieces = 0
        self.bytes_out = 0
        self.junction_steps = 0
        self.memo_lookups = 0
        self.memos = {}       # id -> sector memo dict seen through a FrontierPair
        self._stack = []
        self._patches = []    # (owner object, attribute, original, wrapper)
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"troprays.{layer}")
            for owner, attr, member, key in _targets(module, layer):
                raw = member.__func__ if isinstance(member, (classmethod, staticmethod)) else member
                wrapped = self._wrap(raw, key, layer)
                if isinstance(member, (classmethod, staticmethod)):
                    wrapped = type(member)(wrapped)
                if owner is None:
                    wrappers[id(member)] = (member, wrapped)
                else:
                    self._patches.append((owner, attr, member, wrapped))
        # every namespace that looks a wrapped function up by name
        for modname, module in sorted(sys.modules.items()):
            if modname != "troprays" and not modname.startswith("troprays."):
                continue
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, name, obj, hit[1]))

    def install(self):
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _wrap(self, fn, key, layer):
        tracer = self
        perf = time.perf_counter_ns
        before = self._before().get(key)
        after = self._after().get(key)

        def span(*args, **kwargs):
            stack = tracer._stack
            if before is not None:
                before(stack, args, kwargs)
            frame = [0, key]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                tracer.calls[key] = tracer.calls.get(key, 0) + 1
                tracer.total_ns[key] = tracer.total_ns.get(key, 0) + elapsed
                tracer.self_ns[layer] += elapsed - frame[0]
            if after is not None:
                after(result)
            return result

        span.__name__ = fn.__name__
        span.__qualname__ = fn.__qualname__
        span.__doc__ = fn.__doc__
        span.__wrapped__ = fn
        return span

    def _before(self):
        """Counters that need a call's arguments or its parent span."""
        tracer = self

        def gram(stack, args, kwargs):
            if stack and stack[-1][1] == RESTRICTION:
                tracer.gram_in_restriction += 1

        def sector(stack, args, kwargs):
            memo = args[6] if len(args) > 6 else kwargs.get("_memo")
            if memo is not None:
                tracer.memo_lookups += 1
                tracer.memos[id(memo)] = memo

        return {GRAM[0]: gram, GRAM[1]: gram, "frontier.sector_member": sector}

    def _after(self):
        """Counters read off a call's result."""
        tracer = self

        def compare(result):
            tracer.compare_pieces += len(result)

        def trace(result):
            tracer.trace_pieces += len(result.pieces)

        def dumps(result):
            tracer.bytes_out += len(result.encode())

        def junction(result):
            tracer.junction_steps += len(result.trace) - 1

        return {
            "pmfunc.PmFunction.compare": compare,
            "strata.stratify_interval": trace,
            "serialize.dumps": dumps,
            "frontier.FrontierPair.junction_process": junction,
        }

    # -- metrics ------------------------------------------------------------

    def counts(self) -> dict:
        """The exact per-layer counts and ratios of everything traced."""
        c = self.calls.get

        def ratio(num, den):
            return num / den if den else 0.0

        restrictions = c(RESTRICTION, 0)
        compares = c("pmfunc.PmFunction.compare", 0)
        traces = c("strata.stratify_interval", 0)
        entries = sum(len(m) for m in self.memos.values())
        return {
            "quadspace.eval_q.calls": c(GRAM[0], 0),
            "quadspace.eval_b.calls": c(GRAM[1], 0),
            "rays.pi.calls": c("rays.RayInterval.pi", 0),
            "pmfunc.eval.calls": c("pmfunc.PmFunction.eval", 0),
            "pmfunc.add.calls": c("pmfunc.PmFunction.add", 0),
            "pmfunc.mul.calls": c("pmfunc.PmFunction.mul", 0),
            "pmfunc.compare.calls": compares,
            "pmfunc.normalize.calls": c("pmfunc.PmFunction.normalize", 0),
            "pmfunc.pieces_per_compare": ratio(self.compare_pieces, compares),
            "csfun.cs_restriction_pm.calls": restrictions,
            "csfun.build_fw.calls": c("csfun.build_fw", 0),
            "csfun.gram_per_restriction": ratio(self.gram_in_restriction, restrictions),
            "strata.stratify_interval.calls": traces,
            "strata.pieces_per_trace": ratio(self.trace_pieces, traces),
            "strata.sign_vector_at.calls": c("strata.sign_vector_at", 0),
            "strata.is_direct_derivate.calls": c("strata.is_direct_derivate", 0),
            "frontier.entrance_data.calls": c("frontier.entrance_data", 0),
            "frontier.sector_member.calls": c("frontier.sector_member", 0),
            "frontier.memo_hit_ratio": ratio(self.memo_lookups - entries, self.memo_lookups),
            "frontier.junction_steps": self.junction_steps,
            "isotropy.entrance_stratum.calls": c("isotropy.entrance_stratum", 0),
            "serialize.bytes_out": self.bytes_out,
        }

    def times(self) -> dict:
        """Self time per layer and mean span time per oracle check and command."""
        out = {f"{layer}.self_s": self.self_ns[layer] / 1e9 for layer in LAYERS
               if layer not in ("oracle", "cli")}
        for check, function in ORACLE_CHECKS.items():
            out[f"oracle.{check}_s"] = self._mean(f"oracle.{function}") / 1e9
        for command in CLI_COMMANDS:
            out[f"cli.{command}_ms"] = self._mean(f"cli.cmd_{command}") / 1e6
        return out

    def _mean(self, key) -> float:
        calls = self.calls.get(key, 0)
        return self.total_ns.get(key, 0) / calls if calls else 0.0
