"""Spans and counters recorded from outside the program.

While installed, every public function named in FUNCTION_SPANS is replaced
by a timing wrapper in each loaded singular_forge module that holds it, so
a call is traced at whatever name its caller looks it up (including the
`from .solver import picard_solve` inside functions).  Nonlinearity
methods are wrapped on their classes, and scipy.integrate.quad is counted.
Uninstalling puts every original back, so untraced invocations in the same
process run the program unmodified.
"""

import functools
import inspect
import os
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# public function -> span name (layer.function)
FUNCTION_SPANS = {
    "classify": "classification.classify",
    "build_context": "profile.build_context",
    "nonlinear_term": "profile.nonlinear_term",
    "to_radial": "profile.to_radial",
    "convolve_cumulative": "kernels.convolve_cumulative",
    "convolve_Q_cumulative": "kernels.convolve_Q_cumulative",
    "homogeneous_pair": "kernels.homogeneous_pair",
    "select_rho0": "solver.select_rho0",
    "picard_solve": "solver.picard_solve",
    "apply_T": "solver.apply_T",
    "sweep": "solver.sweep",
    "weighted_norm": "solver.weighted_norm",
    "decay_fit": "verify.decay_fit",
    "ode_residual_eta": "verify.residuals",
    "ode_residual_radial": "verify.residuals",
    "radial_residual_grid": "verify.residuals",
    "truncation_effect": "verify.truncation_effect",
    "limit_diagnostics": "verify.limit_diagnostics",
    "lipschitz_check": "verify.lipschitz_check",
    "run_cell": "verify.run_cell",
    "table_report": "verify.table_report",
    "write_profile_csv": "cli.write_profile_csv",
    "write_json": "cli.write_json",
}
# Nonlinearity method -> span name
METHOD_SPANS = {
    "F": "nonlinearity.F",
    "F_inv": "nonlinearity.F_inv",
    "deficit_fpF": "nonlinearity.deficits",
    "deficit_fF": "nonlinearity.deficits",
    "f2": "nonlinearity.f2",
}
ROOT_SPAN = "cli.main"


def _size_of_arg(position):
    return lambda args, kwargs: int(np.size(args[position]))


# work counted per span: nodes evaluated or convolved, bytes written
_SPAN_SIZES = {
    "nonlinearity.F": _size_of_arg(1),  # args[0] is self
    "kernels.convolve_cumulative": _size_of_arg(2),
    "cli.write_profile_csv": lambda args, kwargs: os.path.getsize(args[0]),
}

# span record fields
NAME, START, END, PARENT, INVOCATION, ERROR, SIZE = range(7)


class Tracer:
    """Records spans in memory: [name, start, end, parent index,
    invocation id, raised, size].  Parent -1 marks an invocation root."""

    def __init__(self):
        self.spans = []
        self.quad_calls = {}  # invocation id -> scipy.integrate.quad calls
        self._stack = []
        self._invocation = None
        self._restore = []
        self.missing = []

    # -- recording ----------------------------------------------------------
    def _record(self, name, fn, args, kwargs):
        stack = self._stack
        if stack and self.spans[stack[-1]][NAME] == name:
            # an override calling its base: one span, not two
            return fn(*args, **kwargs)
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
               self._invocation, False, 0]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            rec[ERROR] = True
            raise
        finally:
            rec[END] = time.perf_counter()
            stack.pop()
            size = _SPAN_SIZES.get(name)
            if size is not None and not rec[ERROR]:
                rec[SIZE] = size(args, kwargs)

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._record(name, fn, args, kwargs)
        return traced

    def invoke(self, invocation, fn, *args):
        """Run fn(*args) as one invocation under a root span."""
        self._invocation = invocation
        self.quad_calls[invocation] = 0
        try:
            return self._record(ROOT_SPAN, fn, args, {})
        finally:
            self._invocation = None

    # -- installing ---------------------------------------------------------
    def install(self):
        import scipy.integrate

        from singular_forge import nonlinearity

        modules = [m for name, m in list(sys.modules.items())
                   if name == "singular_forge"
                   or name.startswith("singular_forge.")]
        wrappers = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if not (inspect.isfunction(value)
                        and value.__name__ in FUNCTION_SPANS
                        and value.__module__.startswith("singular_forge")):
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(
                        value, FUNCTION_SPANS[value.__name__])
                self._patch(module, attr, wrappers[id(value)])
        found = {w.__wrapped__.__name__ for w in wrappers.values()}

        families = [c for c in vars(nonlinearity).values()
                    if inspect.isclass(c)
                    and issubclass(c, nonlinearity.Nonlinearity)]
        for cls in families:
            for method, span in METHOD_SPANS.items():
                if inspect.isfunction(cls.__dict__.get(method)):
                    self._patch(cls, method,
                                self._wrap(cls.__dict__[method], span))
                    found.add(method)
        self.missing = sorted(
            (set(FUNCTION_SPANS) | set(METHOD_SPANS)) - found)

        quad = scipy.integrate.quad

        @functools.wraps(quad)
        def counted_quad(*args, **kwargs):
            if self._invocation is not None:
                self.quad_calls[self._invocation] += 1
            return quad(*args, **kwargs)

        self._patch(scipy.integrate, "quad", counted_quad)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is quad:
                    self._patch(module, attr, counted_quad)

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- derived metrics ----------------------------------------------------
    def invocation_metrics(self, invocation):
        """Per-layer metrics of one traced invocation."""
        spans = [(i, s) for i, s in enumerate(self.spans)
                 if s[INVOCATION] == invocation]
        name_of = {i: s[NAME] for i, s in spans}
        dur = {i: s[END] - s[START] for i, s in spans}
        child_s = defaultdict(float)
        for i, s in spans:
            if s[PARENT] >= 0:
                child_s[s[PARENT]] += dur[i]
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        size = defaultdict(int)
        errors = defaultdict(int)
        under = defaultdict(int)  # (parent name, child name) -> calls
        for i, s in spans:
            name = s[NAME]
            calls[name] += 1
            total[name] += dur[i]
            self_s[name] += dur[i] - child_s[i]
            size[name] += s[SIZE]
            errors[name] += s[ERROR]
            if s[PARENT] >= 0:
                under[name_of[s[PARENT]], name] += 1

        def ratio(num, den):
            return num / den if den else 0.0

        probes = under["solver.select_rho0", "profile.build_context"]
        accepted = calls["solver.select_rho0"] - errors["solver.select_rho0"]
        return {
            "nonlinearity.quad.calls": self.quad_calls[invocation],
            "nonlinearity.F.calls": calls["nonlinearity.F"],
            "nonlinearity.F.nodes": size["nonlinearity.F"],
            "nonlinearity.F.s": total["nonlinearity.F"],
            "nonlinearity.F_inv.calls": calls["nonlinearity.F_inv"],
            "nonlinearity.F_inv.s": total["nonlinearity.F_inv"],
            "nonlinearity.F_inv.F_passes": ratio(
                under["nonlinearity.F_inv", "nonlinearity.F"],
                calls["nonlinearity.F_inv"]),
            "nonlinearity.deficits.s": total["nonlinearity.deficits"],
            "nonlinearity.f2.calls": calls["nonlinearity.f2"],
            "nonlinearity.f2.s": total["nonlinearity.f2"],
            "classification.classify.s": total["classification.classify"],
            "profile.build_context.calls": calls["profile.build_context"],
            "profile.build_context.s": total["profile.build_context"],
            "profile.build_context.self_s": self_s["profile.build_context"],
            "profile.nonlinear_term.s": total["profile.nonlinear_term"],
            "profile.to_radial.s": total["profile.to_radial"],
            "kernels.convolve_cumulative.calls":
                calls["kernels.convolve_cumulative"],
            "kernels.convolve_cumulative.s":
                total["kernels.convolve_cumulative"],
            "kernels.convolve_cumulative.ns_per_node": 1e9 * ratio(
                total["kernels.convolve_cumulative"],
                size["kernels.convolve_cumulative"]),
            "kernels.convolve_Q_cumulative.s":
                total["kernels.convolve_Q_cumulative"],
            "kernels.homogeneous_pair.s": total["kernels.homogeneous_pair"],
            "solver.select_rho0.s": total["solver.select_rho0"],
            "solver.select_rho0.probes": probes,
            "solver.select_rho0.accept_ratio": ratio(accepted, probes),
            "solver.picard_solve.calls": calls["solver.picard_solve"],
            "solver.picard_solve.iterations": calls["solver.apply_T"],
            "solver.picard_solve.failures": errors["solver.picard_solve"],
            "solver.picard_solve.s": total["solver.picard_solve"],
            "solver.apply_T.self_s": self_s["solver.apply_T"],
            "solver.sweep.s": total["solver.sweep"],
            "solver.weighted_norm.s": total["solver.weighted_norm"],
            "verify.decay_fit.s": total["verify.decay_fit"],
            "verify.residuals.s": total["verify.residuals"],
            "verify.truncation_effect.s": total["verify.truncation_effect"],
            "verify.limit_diagnostics.s": total["verify.limit_diagnostics"],
            "verify.lipschitz_check.s": total["verify.lipschitz_check"],
            "cli.write_profile_csv.s": total["cli.write_profile_csv"],
            "cli.write_profile_csv.bytes": size["cli.write_profile_csv"],
            "cli.write_json.s": total["cli.write_json"],
            "cli.self_s": self_s[ROOT_SPAN],
        }

    def layer_metrics(self):
        """Median over the traced invocations of each per-layer metric."""
        per_inv = [self.invocation_metrics(inv) for inv in self.quad_calls]
        return {key: statistics.median(m[key] for m in per_inv)
                for key in per_inv[0]}

    def span_dump(self):
        fields = ("name", "start", "end", "parent", "invocation", "raised",
                  "size")
        return [dict(zip(fields, s)) for s in self.spans]
