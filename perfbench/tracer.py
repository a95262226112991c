"""Span tracing of dunkl_lab from outside the package.

`Tracer.install()` replaces selected public functions with wrappers that
record one span (name, start, end, parent) per call and bump work
counters.  Modules bind names with `from .x import y`, so every module
namespace (and every dict-valued module attribute such as
`verify.SUITES` or `cli.COMMANDS`) that holds an original function object
is rebound; `GaussPolyFunction.__call__` is replaced on the class.
`assert_no_originals()` is the coverage self-test: after install, no
`dunkl_lab.*` module may still reach an unwrapped target.

Spans live in flat arrays (one process, one thread, so a stack gives the
parent) and are written out once, at the end, by `dump()`.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# (module, attribute, span name); "Class.method" patches the class.  Spans
# of one name are summed into that layer's metrics by run.py.
TARGETS = (
    ("dunkl_lab.dunklcore", "translate", "dunklcore.translate"),
    ("dunkl_lab.dunklcore", "translate_many", "dunklcore.translate"),
    ("dunkl_lab.dunklcore", "convolve", "dunklcore.convolve"),
    ("dunkl_lab.dunklcore", "dunkl_transform", "dunklcore.transform"),
    ("dunkl_lab.dunklcore", "w_total_variation", "dunklcore.w_total_variation"),
    ("dunkl_lab.funcalg", "GaussPolyFunction.__call__", "funcalg.eval"),
    ("dunkl_lab.funcalg", "dunkl_power", "funcalg.dunkl_power"),
    ("dunkl_lab.quad", "lp_norm", "quad.lp_norm"),
    ("dunkl_lab.quad", "lp_norm_full", "quad.lp_norm_full"),
    ("dunkl_lab.quad", "integrate", "quad.integrate"),
    ("dunkl_lab.quad", "jacobi_rule", "quad.jacobi_rule"),
    ("dunkl_lab.special", "dunkl_kernel", "special.kernel"),
    ("dunkl_lab.special", "dunkl_kernel_it", "special.kernel"),
    ("dunkl_lab.taylor", "remainder", "taylor.remainder"),
    ("dunkl_lab.taylor", "iterated_integral_I", "taylor.iterated_integral"),
    ("dunkl_lab.taylor", "theta_mass", "taylor.theta_mass"),
    ("dunkl_lab.taylor", "remainder_profile", "taylor.profile"),
    ("dunkl_lab.taylor", "symmetric_remainder_profile", "taylor.profile"),
    ("dunkl_lab.besov", "omega", "besov.omega"),
    ("dunkl_lab.besov", "omega_tilde", "besov.omega_tilde"),
    ("dunkl_lab.besov", "k_functional_upper", "besov.k_functional_upper"),
    ("dunkl_lab.besov", "conv_norm", "besov.conv_norm"),
    ("dunkl_lab.besov", "equivalence_report", "besov.equivalence_report"),
    ("dunkl_lab.verify", "suite_kernel", "verify.suite_kernel"),
    ("dunkl_lab.verify", "suite_translate", "verify.suite_translate"),
    ("dunkl_lab.verify", "suite_taylor", "verify.suite_taylor"),
    ("dunkl_lab.verify", "suite_norms", "verify.suite_norms"),
    ("dunkl_lab.verify", "suite_besov", "verify.suite_besov"),
    ("dunkl_lab.cli", "main", "cli.main"),
    ("dunkl_lab.cli", "cmd_verify", "cli.verify"),
    ("dunkl_lab.cli", "cmd_sweep", "cli.sweep"),
    ("dunkl_lab.cli", "cmd_taylor", "cli.taylor"),
)

# lru caches whose misses during the timed phase are counted
CACHES = (
    ("dunkl_lab.quad", "_jacobi_ref", "quad.jacobi_ref_misses"),
    ("dunkl_lab.taylor", "_theta_terms", "taylor.theta_terms_misses"),
)


def _arg(args, kwargs, pos, name, default):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _dunkl_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "dunkl_lab" or n.startswith("dunkl_lab."))]


class Tracer:
    """Spans and machine-independent work counters for one process."""

    def __init__(self):
        self.names = []                 # span name table
        self.name_of = array("H")       # per span: index into names
        self.parent = array("q")        # per span: parent span index or -1
        self.start = array("q")         # ns, perf_counter_ns
        self.end = array("q")
        self._stack = [-1]
        self.counters = {}
        self.maxima = {}
        self.originals = []             # every replaced function object
        self.missing = []               # targets the program no longer has
        self._cache_base = {}

    # -- counters ------------------------------------------------------------
    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def peak(self, key, v):
        if v > self.maxima.get(key, float("-inf")):
            self.maxima[key] = v

    # -- wrapping ------------------------------------------------------------
    def _wrap(self, orig, span_name, before=None, after=None):
        if span_name not in self.names:
            self.names.append(span_name)
        nid = self.names.index(span_name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                out = orig(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(out)
            return out

        wrapper.__name__ = getattr(orig, "__name__", span_name)
        wrapper.__qualname__ = getattr(orig, "__qualname__", span_name)
        wrapper.__doc__ = getattr(orig, "__doc__", None)
        wrapper.__wrapped__ = orig
        return wrapper

    def _hooks(self, attr, gpf, default_nodes):
        """Counter hooks (before-call, after-return) for a target."""
        def translate_points(args, kwargs, n_pos):
            # tau_x f(y) for each y of args[3] (x may be an array as well)
            f, x, ys = args[1], args[2], np.asarray(args[3])
            if np.ndim(x) == 0:
                pts = int(ys.size)
                moving = 0 if x == 0.0 else int(np.count_nonzero(ys))
            else:
                xb, yb = np.broadcast_arrays(np.asarray(x), ys)
                pts = int(xb.size)
                moving = int(np.count_nonzero((xb != 0.0) & (yb != 0.0)))
            self.count("dunklcore.translate_calls")
            self.count("dunklcore.translate_points", pts)
            self.count("dunklcore.translate_nodes",
                       moving * _arg(args, kwargs, n_pos, "n", default_nodes))
            if not isinstance(f, gpf):
                self.count("dunklcore.translate_points_callable", pts)

        def after_integrate(out):
            self.peak("quad.integrate_err_max", float(out[1]))

        def after_lp_full(out):
            if out.head > 0.0:
                self.peak("quad.tail_ratio_max", out.tail / out.head)

        def after_suite(out):
            self.count("verify.checks", len(out))

        def before_eval(args, kwargs):
            self.count("funcalg.eval_points", int(np.size(args[1])))

        def before_kernel(args, kwargs):
            self.count("special.kernel_points", int(np.size(args[2])))

        return {
            "translate": (lambda a, k: translate_points(a, k, 5), None),
            "translate_many": (lambda a, k: translate_points(a, k, 4), None),
            "integrate": (None, after_integrate),
            "lp_norm_full": (None, after_lp_full),
            "GaussPolyFunction.__call__": (before_eval, None),
            "dunkl_kernel": (before_kernel, None),
            "dunkl_kernel_it": (before_kernel, None),
        }.get(attr, (None, after_suite if attr.startswith("suite_") else None))

    def install(self):
        """Wrap every target in every dunkl_lab namespace that binds it."""
        import importlib
        for modname in {t[0] for t in TARGETS}:
            importlib.import_module(modname)
        gpf = sys.modules["dunkl_lab.funcalg"].GaussPolyFunction
        nodes = getattr(sys.modules["dunkl_lab.dunklcore"], "TRANSLATE_NODES", 48)
        replace = {}
        for modname, attr, span in TARGETS:
            mod = sys.modules[modname]
            owner, name = mod, attr
            if "." in attr:
                cls_name, name = attr.split(".")
                owner = getattr(mod, cls_name)
            orig = vars(owner).get(name)
            if orig is None:        # gone from the program: reported, not fatal
                self.missing.append(f"{modname}.{attr}")
                continue
            before, after = self._hooks(attr, gpf, nodes)
            wrapper = self._wrap(orig, span, before, after)
            if owner is mod:
                replace[id(orig)] = wrapper
            else:
                setattr(owner, name, wrapper)
            self.originals.append(orig)
        # ids are unique here: self.originals keeps every original alive
        for mod in _dunkl_modules():
            for key, val in list(vars(mod).items()):
                if id(val) in replace:
                    setattr(mod, key, replace[id(val)])
                elif isinstance(val, dict):
                    for dk, dv in list(val.items()):
                        if id(dv) in replace:
                            val[dk] = replace[id(dv)]
        self.assert_no_originals()
        self.reset_cache_base()

    def assert_no_originals(self):
        """Self-test: no dunkl_lab module dict, dict-valued module attribute
        or class dict still holds an original (unwrapped) target."""
        left = []
        for mod in _dunkl_modules():
            for key, val in vars(mod).items():
                vals = [(key, val)]
                if isinstance(val, dict):
                    vals += [(f"{key}[{dk!r}]", dv) for dk, dv in val.items()]
                elif isinstance(val, type) and val.__module__.startswith("dunkl_lab"):
                    vals += [(f"{key}.{ck}", cv) for ck, cv in vars(val).items()]
                for name, v in vals:
                    if any(v is o for o in self.originals):
                        left.append(f"{mod.__name__}.{name}")
        if left:
            raise RuntimeError("unwrapped targets remain: " + ", ".join(left))

    def _cache_misses(self):
        out = {}
        for modname, attr, key in CACHES:
            fn = getattr(sys.modules[modname], attr, None)
            if hasattr(fn, "cache_info"):
                out[key] = fn.cache_info().misses
        return out

    def reset_cache_base(self):
        self._cache_base = self._cache_misses()

    # -- results ---------------------------------------------------------------
    def span_arrays(self):
        # copies, so that the arrays stay free to grow
        name_of = np.frombuffer(self.name_of, dtype=np.uint16).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64).copy()
        start = np.frombuffer(self.start, dtype=np.int64).copy()
        end = np.frombuffer(self.end, dtype=np.int64).copy()
        return name_of, parent, start, end

    def summary(self):
        """Per span name: calls, total (inclusive) and self seconds; plus
        the counters, maxima and cache misses."""
        name_of, parent, start, end = self.span_arrays()
        dur = (end - start).astype(np.float64) * 1e-9
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child],
                              minlength=len(dur))
        self_s = dur - covered
        n = len(self.names)
        spans = {}
        calls = np.bincount(name_of, minlength=n)
        total = np.bincount(name_of, weights=dur, minlength=n)
        selft = np.bincount(name_of, weights=self_s, minlength=n)
        for i, name in enumerate(self.names):
            spans[name] = {"calls": int(calls[i]), "total_s": float(total[i]),
                           "self_s": float(selft[i])}
        counters = dict(self.counters)
        for key, misses in self._cache_misses().items():
            counters[key] = misses - self._cache_base.get(key, 0)
        top = float(dur[~child].sum())
        return {"spans": spans, "counters": counters,
                "maxima": dict(self.maxima), "top_level_s": top,
                "n_spans": int(len(dur)), "missing_targets": self.missing}

    def dump(self, path):
        """Write every span (name index, parent, start, end) to an .npz."""
        name_of, parent, start, end = self.span_arrays()
        np.savez_compressed(path, names=np.array(self.names), name_of=name_of,
                            parent=parent, start_ns=start, end_ns=end)
