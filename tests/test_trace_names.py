"""The benchmark's layer tracer wraps library functions by name.

`perfbench/layer_trace.py` looks up every name of its `TIMED` table, and
`evolve.radial_rhs`, in the koranyi modules when `--trace 1` is on; a
renamed or deleted function would break that run, so each must resolve.
The benchmark also calls three library functions directly; their
signatures must still accept those calls.
"""

import importlib
import inspect
import importlib.util
from pathlib import Path

from pytest import mark

TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layer_trace.py"


def _timed():
    spec = importlib.util.spec_from_file_location("layer_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TIMED


@mark.parametrize("qualname", [
    *(f"{layer}.{name}" for layer, names in _timed().items() for name in names),
    "evolve.radial_rhs",
])
def test_traced_name_resolves(qualname):
    layer, name = qualname.split(".")
    assert callable(getattr(importlib.import_module(f"koranyi.{layer}"), name, None))


# the library calls the benchmark makes outside the CLI, with sentinel
# arguments in the shape `make_reference.py` and `workloads.py` pass them
_ARG = object()


@mark.parametrize("qualname, args, kwargs", [
    ("evolve.phase_sweep", (_ARG,) * 4,
     dict(k=_ARG, grid=_ARG, t_end=_ARG, boundary_value=_ARG, threads=_ARG)),
    ("spectrum.liminf_probe", (_ARG,) * 3, {}),
    ("spectrum.l1plus_test", (_ARG,) * 3, {}),
])
def test_benchmark_call_binds(qualname, args, kwargs):
    layer, name = qualname.split(".")
    fn = getattr(importlib.import_module(f"koranyi.{layer}"), name)
    inspect.signature(fn).bind(*args, **kwargs)
