"""Per-layer tracing of the diffwedge modules, installed from outside.

Layers are the package's modules.  ``Tracer.install`` replaces every
public module-level function and every public method of the classes each
module defines with a timing wrapper, in every ``diffwedge`` module
namespace that binds it (``from .symexpr import simplify`` in
``connection`` gets the same wrapper as ``symexpr.simplify``).

* A call records one span: name, start, end, parent span, request id.
  Spans stay in memory until ``write_spans``.  Times come from a clock that
  stops while the tracer's own probes run, so probes add no span time.
* Recursive re-entry into a function counts once: while a function is
  active, a nested call to it runs unwrapped, and its time stays with the
  enclosing span.  For module-level functions the defining module's global
  is pointed back at the original during the outermost call, so direct
  recursion skips the wrapper altogether.
* ``<module>.self_ms`` charges each instant to the module of the innermost
  open span: a module's wrapped calls minus child spans in other modules.
* Probes on a few functions count work where it is done: expression nodes,
  exact results, repeated arguments within a request, no-op simplifies,
  output sizes.

The tracer is for a separate traced run; end-to-end numbers come from runs
without it.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
from collections import Counter
from fractions import Fraction
from time import perf_counter_ns

MODULES = ("cli", "symexpr", "linalg", "dvspace", "clifford", "wedge",
           "bundle", "forms", "connection", "dirac")


class _Stat:
    __slots__ = ("calls", "ns", "active")

    def __init__(self):
        self.calls = 0
        self.ns = 0
        self.active = False


class Tracer:
    def __init__(self, package="diffwedge"):
        self.modules = {m: importlib.import_module(f"{package}.{m}")
                        for m in MODULES}
        self.symexpr = self.modules["symexpr"]
        sx = self.symexpr
        self._kinds = {t: i + 2 for i, t in enumerate(
            (sx.Neg, sx.Add, sx.Mul, sx.Div, sx.Pow, sx.Exp, sx.Sin, sx.Cos))}
        self.stats = {}                  # span name -> _Stat
        self.self_ns = dict.fromkeys(MODULES, 0)
        self.names = []                  # span name table
        self.spans = []                  # (name id, start, end, parent, request)
        self.counts = Counter()          # probe counters
        self.requests = 0
        self._stack = []                 # (span index, module) of open spans
        self._last = [0]                 # last charged instant
        self._paused = [0]               # total probe time, off the clock
        self._rid = -1
        self._wrappers = {}              # original -> (owner, attribute, wrapper)
        self._patches = []               # (namespace owner, attribute, original)
        self._seen = {}                  # per-request argument sets
        self._probes = {
            "symexpr.evaluate": self._probe_evaluate,
            "symexpr.simplify": self._probe_simplify,
            "symexpr.differentiate": self._probe_differentiate,
            "dvspace.dual_space": self._probe_dual_space,
            "bundle.emat_inverse": self._probe_emat_inverse,
            "cli.render_report": self._probe_render,
        }

    # ------------------------------------------------------------------
    # installation

    def _targets(self):
        """(span name, module, owner, attribute, function) for every target."""
        out = []
        for m, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    out.append((f"{m}.{attr}", m, mod, attr, obj))
                elif inspect.isclass(obj):
                    for meth, fn in vars(obj).items():
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            out.append((f"{m}.{attr}.{meth}", m, obj, meth, fn))
        return out

    def install(self):
        """Patch every binding of every target; wrappers are built once."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        if not self._wrappers:
            for name, m, owner, attr, fn in self._targets():
                swap = fn.__globals__ if owner is self.modules[m] else None
                self._wrappers[fn] = (owner, attr,
                                      self._wrap(fn, name, m, swap, attr))
        for fn, (owner, attr, wrapper) in self._wrappers.items():
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapper)
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    self._patch(mod, attr, self._wrappers[obj][2])
        return self

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, name, module, swap, attr):
        stat = self.stats[name] = _Stat()
        name_id = len(self.names)
        self.names.append(name)
        probe = self._probes.get(name)
        stack, spans, self_ns = self._stack, self.spans, self.self_ns
        last, paused = self._last, self._paused
        tracer = self

        def wrapper(*args, **kwargs):
            if stat.active:
                return fn(*args, **kwargs)
            t0 = perf_counter_ns() - paused[0]
            if stack:
                self_ns[stack[-1][1]] += t0 - last[0]
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append((index, module))
            last[0] = t0
            stat.active = True
            if swap is not None:
                swap[attr] = fn
            try:
                result = fn(*args, **kwargs)
            finally:
                if swap is not None:
                    swap[attr] = wrapper
                stat.active = False
                t1 = perf_counter_ns() - paused[0]
                self_ns[module] += t1 - last[0]
                last[0] = t1
                stack.pop()
                spans[index] = (name_id, t0, t1, parent, tracer._rid)
                stat.calls += 1
                stat.ns += t1 - t0
            if probe is not None:
                p0 = perf_counter_ns()
                probe(args + tuple(kwargs.values()), result)
                paused[0] += perf_counter_ns() - p0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # requests

    def begin_request(self, rid):
        self._rid = rid
        self._seen = {"evaluate": set(), "differentiate": set(),
                      "dual_space": set()}

    def end_request(self):
        self.requests += 1
        self._rid = -1
        self._seen = {}

    # ------------------------------------------------------------------
    # probes

    def _expr_info(self, e, memo=None):
        """(structural hash, tree size) of an expression.

        Equal trees get equal hashes; ``n == -1`` keeps -1 apart from -2,
        whose int hashes coincide.  The memo (by id, for one probe) only
        skips shared subtrees; nothing outlives the probe, so tracing holds
        no expression alive.
        """
        if memo is None:
            memo = {}
        hit = memo.get(id(e))
        if hit is not None:
            return hit
        sx = self.symexpr
        if isinstance(e, sx.Const):
            n, d = e.value.numerator, e.value.denominator
            info = (hash((0, n, d, n == -1)), 1)
        elif isinstance(e, sx.Var):
            info = (1, 1)
        else:
            kids = [self._expr_info(c, memo) for c in e.children]
            k = getattr(e, "exponent", 0)
            info = (hash((self._kinds[type(e)], k, k == -1,
                          *(h for h, _ in kids))),
                    1 + sum(n for _, n in kids))
        memo[id(e)] = info
        return info

    def _repeat(self, kind, key):
        seen = self._seen[kind]
        if key in seen:
            self.counts[f"{kind}.repeats"] += 1
        else:
            seen.add(key)

    def _probe_evaluate(self, args, result):
        e, x = args[0], args[1]
        key, nodes = self._expr_info(e)
        self.counts["evaluate.nodes"] += nodes
        if isinstance(result, Fraction):
            self.counts["evaluate.exact"] += 1
        self._repeat("evaluate", (key, x))

    def _probe_simplify(self, args, result):
        if self._expr_info(args[0])[0] == self._expr_info(result)[0]:
            self.counts["simplify.noop"] += 1

    def _probe_differentiate(self, args, result):
        self._repeat("differentiate", self._expr_info(args[0])[0])

    def _probe_dual_space(self, args, result):
        self._repeat("dual_space", args[0])

    def _probe_emat_inverse(self, args, result):
        self.counts["emat_inverse.out_nodes"] += sum(
            self._expr_info(e)[1] for row in result for e in row)

    def _probe_render(self, args, result):
        self.counts["render_report.bytes"] += len(result.encode())

    # ------------------------------------------------------------------
    # results

    def metrics(self):
        """Every per-layer figure this tracer measures, by metric name.

        ``.calls`` and the probe counts are totals over the traced requests;
        ``.ms`` and ``.self_ms`` are means per traced request.
        """
        per = max(self.requests, 1) * 1e6
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.ms"] = st.ns / per
        for m, ns in self.self_ns.items():
            out[f"{m}.self_ms"] = ns / per
        c = self.counts

        def ratio(num, fn):
            calls = self.stats[fn].calls
            return c[num] / calls if calls else 0.0

        out["symexpr.evaluate.nodes"] = c["evaluate.nodes"]
        out["symexpr.evaluate.exact_ratio"] = ratio("evaluate.exact", "symexpr.evaluate")
        out["symexpr.evaluate.repeat_ratio"] = ratio("evaluate.repeats", "symexpr.evaluate")
        out["symexpr.simplify.noop_ratio"] = ratio("simplify.noop", "symexpr.simplify")
        out["symexpr.differentiate.repeat_ratio"] = ratio(
            "differentiate.repeats", "symexpr.differentiate")
        out["dvspace.dual_space.repeat_ratio"] = ratio("dual_space.repeats", "dvspace.dual_space")
        out["bundle.emat_inverse.out_nodes"] = c["emat_inverse.out_nodes"]
        out["cli.render_report.bytes"] = c["render_report.bytes"]
        return out

    def write_spans(self, path):
        """Spans as gzip'd JSON lines: a name table, then one list per span."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fields": ["name", "start_ns", "end_ns",
                                            "parent", "request"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
