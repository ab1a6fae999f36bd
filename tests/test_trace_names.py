"""The benchmark's layer tracer wraps library functions by name.

`perfbench/layer_trace.py` looks up every name of its `TIMED` table, and
`evolve.radial_rhs`, in the koranyi modules when `--trace 1` is on; a
renamed or deleted function would break that run, so each must resolve.
The benchmark also calls three library functions directly; their
signatures must still accept those calls.  Conversely, every top-level
definition of the package must be reached from the package itself, the
tracer or the benchmark, so that no library code lives for tests alone;
the same holds for the methods, properties and fields of its classes.
"""

import ast
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


SRC = Path(__file__).resolve().parents[1] / "src" / "koranyi"


def _dotted(node) -> str:
    """'a.b.c' for a chain of attributes on a bare name, else ''."""
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else ""


def _src_refs(tree, module: str) -> set:
    """The (module, name) pairs a piece of `src/koranyi` code names: a bare
    name of its own module, or a name imported relatively from another."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add((module, node.id))
        elif isinstance(node, ast.ImportFrom) and node.level and node.module:
            found |= {(node.module, alias.name) for alias in node.names}
    return found


def _bench_refs(tree) -> set:
    """The (module, name) pairs a benchmark file names: names imported from a
    koranyi module, and attributes of a koranyi module, however it was bound."""
    modules = {}  # local name -> koranyi module
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("koranyi"):
            for alias in node.names:
                if node.module == "koranyi":
                    modules[alias.asname or alias.name] = alias.name
                else:
                    found.add((node.module.split(".")[1], alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("koranyi."):
                    modules[alias.asname or alias.name] = alias.name.split(".")[1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            base = _dotted(node.value)
            if base in modules:
                found.add((modules[base], node.attr))
    return found


def test_every_library_definition_has_a_caller():
    """Each top-level def or class of `src/koranyi` is reached from the rest
    of the package, from the tracer's `TIMED` table or `radial_rhs`, or from
    the benchmark's code; a definition only tests reach belongs in the tests.

    Reached means named in module-level code, in a definition that is itself
    reached, or in `perfbench/*.py`: by a bare name in its own module or by
    an import or module attribute elsewhere."""
    wanted = {(layer, name) for layer, names in _timed().items() for name in names}
    wanted.add(("evolve", "radial_rhs"))
    for path in TRACE.parent.glob("*.py"):
        wanted |= _bench_refs(ast.parse(path.read_text()))
    unreached = {}  # (module, name) -> what its body names
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                unreached[path.stem, node.name] = _src_refs(node, path.stem)
            else:
                wanted |= _src_refs(node, path.stem)
    while reached := wanted & unreached.keys():
        for key in reached:
            wanted |= unreached.pop(key)
    names = sorted(".".join(key) for key in unreached)
    assert not names, f"defined in src/koranyi but reached only by tests: {names}"


def test_every_library_method_has_a_caller():
    """Each non-dunder method or property of a `src/koranyi` class is read as
    an attribute, `obj.name`, somewhere in `src/koranyi` or `perfbench/*.py`;
    one that only tests read belongs in the tests.  The match is by name, so
    it catches a member whose name nothing reads at all."""
    read = set()
    members = []  # (class name, member name)
    for path in sorted(SRC.glob("*.py")) + sorted(TRACE.parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        if path.parent != SRC:
            continue
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                members += [(cls.name, node.name) for node in cls.body
                            if isinstance(node, ast.FunctionDef)
                            and not (node.name.startswith("__") and node.name.endswith("__"))]
    names = sorted(f"{cls}.{name}" for cls, name in members if name not in read)
    assert not names, f"class members in src/koranyi read only by tests: {names}"


# fields no library code reads but that belong to a result all the same;
# each with its reason
FIELD_EXCEPTIONS = {
    # the run's end state, which the bit-for-bit tests compare
    "SimResult.final_layers",
}


def test_every_library_field_is_read():
    """Each annotated field of a `src/koranyi` class is read as an attribute,
    `obj.name`, somewhere in `src/koranyi` or `perfbench/*.py`, bar the
    `FIELD_EXCEPTIONS`; a field only tests read is dead weight in every
    constructor call.  The match is by name, so a field that shares its name
    with a field that is read passes unseen."""
    read = set()
    fields = []  # (class name, field name)
    for path in sorted(SRC.glob("*.py")) + sorted(TRACE.parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        if path.parent != SRC:
            continue
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                fields += [(cls.name, node.target.id) for node in cls.body
                           if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
    names = sorted(f"{cls}.{name}" for cls, name in fields
                   if name not in read and f"{cls}.{name}" not in FIELD_EXCEPTIONS)
    assert not names, f"class fields in src/koranyi that only tests read: {names}"
