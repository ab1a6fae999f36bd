"""In-memory spans around the public functions of each koranyi layer.

The tracer replaces each listed function with a timing wrapper in every
loaded ``koranyi`` module that binds it.  Patching only the defining module
would miss calls: ``cli``, ``spectrum``, ``capacity``, ``witness`` and
``evolve`` import these names directly.  ``radial_rhs`` is only counted,
never timed, because a span per right-hand-side evaluation would cost a
large share of a sweep; the per-cell ``integrate`` span carries the time.

Spans stay in memory while a pass runs.  ``layer_metrics`` folds one pass's
spans into the per-layer metrics, and ``dump`` writes the raw spans once the
benchmark ends.  A span's self time is its duration minus the time covered
by its child spans; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("hgroup", "hcalc", "hquad", "spectrum", "capacity", "witness", "evolve", "cli")

# layer -> public functions timed by a span
TIMED = {
    "hgroup": ("compose",),
    "hcalc": ("egrad", "hlap", "hlap_divform"),
    "hquad": ("radial_integral", "mc_annulus", "surface_integral"),
    "spectrum": (
        "check_k_harmonic", "check_k_boundary", "flux_pair", "classify",
        "liminf_probe", "l1plus_test",
    ),
    "capacity": ("j1_time_factor", "j1_space_factor", "j2", "eta", "beta_time_integral"),
    "witness": ("verify_witness", "build_critical"),
    "evolve": ("integrate",),
    "cli": ("main",),
}

# attribute recorded on a span, taken from the call's arguments
_GROUP_N = ("hcalc.egrad", "hcalc.hlap")  # second argument is the point xi
_TIME_ORDER = ("evolve.integrate",)  # first argument is the ProblemParams
# result field recorded on a span: QuadResult.evaluations
_EVALUATIONS = ("hquad.radial_integral", "hquad.mc_annulus")

# span record fields
NAME, PARENT, START, END, ATTR, OUTER, EVALS = range(7)


class Tracer:
    """Installs span wrappers into the koranyi modules and removes them."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.rhs_calls: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.rhs_calls = Counter()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "koranyi" or name.startswith("koranyi."))]
        replacements = {}
        for layer, names in TIMED.items():
            home = sys.modules[f"koranyi.{layer}"]
            for name in names:
                original = getattr(home, name)
                replacements[id(original)] = (original, self._span(f"{layer}.{name}", original))
        rhs = sys.modules["koranyi.evolve"].radial_rhs
        replacements[id(rhs)] = (rhs, self._counter(rhs))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    def _span(self, name: str, fn):
        stack, active = self._stack, self._active
        group_n = name in _GROUP_N
        time_order = name in _TIME_ORDER
        evaluations = name in _EVALUATIONS
        tracer = self

        def wrapper(*args, **kwargs):
            spans = tracer.spans
            attr = None
            if group_n:
                attr = args[1].N
            elif time_order:
                attr = args[0].k
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, attr, active[name] == 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            active[name] += 1
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                active[name] -= 1
                stack.pop()
            if evaluations:
                rec[EVALS] = result.evaluations
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn):
        tracer = self

        def wrapper(u, grid, params, *args, **kwargs):
            tracer.rhs_calls[params.k] += 1
            return fn(u, grid, params, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- aggregation --------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]

        calls: Counter = Counter()
        inclusive: Counter = Counter()  # outermost spans of each name only
        evals: Counter = Counter()
        self_s: Counter = Counter()
        by_attr_calls: Counter = Counter()
        by_attr_s: Counter = Counter()
        cell_max = 0.0
        for i, rec in enumerate(spans):
            name = rec[NAME]
            dur = rec[END] - rec[START]
            calls[name] += 1
            evals[name] += rec[EVALS]
            self_s[name.split(".", 1)[0]] += dur - child[i]
            if rec[OUTER]:
                inclusive[name] += dur
                if rec[ATTR] is not None:
                    by_attr_calls[name, rec[ATTR]] += 1
                    by_attr_s[name, rec[ATTR]] += dur
            if name == "evolve.integrate":
                cell_max = max(cell_max, dur)

        def per(total, count, scale=1.0):
            return scale * total / count if count else 0.0

        m: dict[str, float] = {}
        m["hgroup.compose.calls"] = calls["hgroup.compose"]
        m["hgroup.compose.us_per_call"] = per(
            inclusive["hgroup.compose"], calls["hgroup.compose"], 1e6)
        for fn in ("egrad", "hlap"):
            name = f"hcalc.{fn}"
            m[f"{name}.calls"] = calls[name]
            for n in (1, 2, 4):
                m[f"{name}.us_per_call.N{n}"] = per(
                    by_attr_s[name, n], by_attr_calls[name, n], 1e6)
        m["hcalc.hlap_divform.s"] = inclusive["hcalc.hlap_divform"]

        ri = "hquad.radial_integral"
        m[f"{ri}.calls"] = calls[ri]
        m[f"{ri}.neval"] = evals[ri]
        m[f"{ri}.s"] = inclusive[ri]
        m[f"{ri}.us_per_eval"] = per(inclusive[ri], evals[ri], 1e6)
        mc = "hquad.mc_annulus"
        m[f"{mc}.draws"] = evals[mc]
        m[f"{mc}.draws_per_s"] = per(evals[mc], inclusive[mc])
        m["hquad.surface_integral.calls"] = calls["hquad.surface_integral"]
        m["hquad.surface_integral.s"] = inclusive["hquad.surface_integral"]

        for fn in ("check_k_harmonic", "check_k_boundary", "liminf_probe", "l1plus_test"):
            m[f"spectrum.{fn}.s"] = inclusive[f"spectrum.{fn}"]
        m["spectrum.flux_pair.calls"] = calls["spectrum.flux_pair"]
        m["spectrum.classify.calls"] = calls["spectrum.classify"]

        for fn in ("j1_time_factor", "j1_space_factor", "j2", "eta"):
            m[f"capacity.{fn}.s"] = inclusive[f"capacity.{fn}"]
        m["capacity.beta_time_integral.calls"] = calls["capacity.beta_time_integral"]

        m["witness.verify_witness.calls"] = calls["witness.verify_witness"]
        m["witness.verify_witness.s"] = inclusive["witness.verify_witness"]
        m["witness.build_critical.s"] = inclusive["witness.build_critical"]

        ig = "evolve.integrate"
        for k in (1, 2):
            m[f"evolve.cells.k{k}"] = by_attr_calls[ig, k]
            m[f"evolve.cell_s.k{k}"] = per(by_attr_s[ig, k], by_attr_calls[ig, k])
            m[f"evolve.radial_rhs.calls.k{k}"] = self.rhs_calls[k]
        m["evolve.cell_s.max"] = cell_max

        m["cli.invocations"] = calls["cli.main"]
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_s[layer]
        return m

    def dump(self, path) -> None:
        """Write the recorded spans as one JSON document."""
        fields = ["name", "parent", "start_s", "end_s", "attr", "outermost", "evaluations"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)
            fh.write("\n")
