"""Start-up cost: each stage of the CLI loads only what it calls.

The front end, `koranyi.cli`, is standard library alone.  Importing it,
building its parser, `--help`, a usage error and `report` load neither numpy
nor a library layer.  The first numerical command imports `commands` and
with it every layer, which the benchmark's tracer needs to find loaded.
scipy is imported only inside the time steppers, and the quadrature is
numpy's own, so `classify`, `witness`, `integrate`, `scaling` and
`verify-identities` stay on numpy alone.  `simulate` and `phase-sweep` load
scipy's compiled LAPACK extension, `scipy.linalg._flapack`, for its
tridiagonal routines and nothing of the `scipy.linalg` package, whose
array-API layer loads numpy.f2py, numpy.testing and about 300 more modules,
nor `scipy.integrate`: each of the two costs more than 20 MB of resident
memory.  Only a fresh interpreter shows this: the test process itself has
them all loaded.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def _env():
    """The test's environment with this checkout's `src` first on PYTHONPATH."""
    pythonpath = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=pythonpath)

# Runs in a fresh interpreter; argv[1] is a scratch directory holding a small
# `verify-identities` config and a suite report.  After each stage it records
# the numpy, scipy and koranyi modules loaded so far and the exit code.
SCRIPT = """
import contextlib, io, json, sys
from pathlib import Path

def modules():
    return sorted(name for name in sys.modules
                  if name.split(".")[0] in ("numpy", "scipy", "koranyi"))

tmp = Path(sys.argv[1])
seen = {}
import koranyi.cli
koranyi.cli.build_parser()
seen["import and build_parser"] = modules()
runs = {
    "--help": ["--help"],
    "usage error": ["classify", "--N", "0"],
    "report": ["report", "--inputs", str(tmp / "suite.json"), "--out", str(tmp / "report")],
    # the first numerical command loads every library layer
    "classify": ["classify", "--out", str(tmp / "classify")],
    "witness": ["witness", "--out", str(tmp / "witness")],
    "integrate": ["integrate", "--out", str(tmp / "integrate")],
    "scaling annulus": ["scaling", "--law", "annulus", "--out", str(tmp / "scaling")],
    "verify-identities": ["verify-identities", "--config", str(tmp / "verify.json"),
                          "--out", str(tmp / "verify")],
    # the stepping stages come last: they load scipy's LAPACK extension for good
    "simulate": ["simulate", "--n-cells", "32", "--t-end", "0.02", "--out", str(tmp / "sim")],
    "phase-sweep --k 1": ["phase-sweep", "--k", "1", "--n-cells", "32", "--t-end", "0.02",
                          "--out", str(tmp / "sweep1")],
    "phase-sweep --k 2": ["phase-sweep", "--k", "2", "--n-cells", "32", "--t-end", "0.02",
                          "--out", str(tmp / "sweep2")],
}
codes = {}
for stage, argv in runs.items():
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes[stage] = koranyi.cli.main(argv)
        except SystemExit as exc:
            codes[stage] = exc.code
    seen[stage] = modules()
print(json.dumps({"seen": seen, "codes": codes}))
"""


# the benchmark's warm-up sizes: a few seconds at most
SMALL_VERIFY = {
    "n_triples": 200, "n_points": 200, "n_div_points": 4, "mc_samples": 20_000,
    "harmonic_points": 60, "flux_nodes": 60,
}


# the library layers, which the benchmark's tracer looks up in sys.modules
LAYERS = ("hgroup", "hcalc", "hquad", "spectrum", "capacity", "witness", "evolve")
FRONT_END = ["--help", "usage error", "report"]
# packages no numerical stage loads: the scipy.linalg package (its `lapack`
# module included; only the `_flapack` extension is allowed), scipy.integrate
# and the numpy submodules that scipy.linalg's array-API layer pulls in
HEAVY = [["scipy", "linalg"], ["scipy", "integrate"], ["numpy", "f2py"], ["numpy", "testing"]]
LAPACK = "scipy.linalg._flapack"


def test_scipy_stays_off_the_import_path(tmp_path):
    (tmp_path / "verify.json").write_text(json.dumps(SMALL_VERIFY), encoding="utf-8")
    (tmp_path / "suite.json").write_text(
        json.dumps({"suite": "x", "summary": {"total": 1, "passed": 1}}), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        cwd=tmp_path, env=_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    stepping = ["simulate", "phase-sweep --k 1", "phase-sweep --k 2"]
    for stage, loaded in doc["seen"].items():
        scipy = [m for m in loaded if m.startswith("scipy")]
        if stage in ["import and build_parser", *FRONT_END]:
            assert loaded == ["koranyi", "koranyi.cli"], f"{stage} imported {loaded[:5]}"
            continue
        missing = [layer for layer in LAYERS if f"koranyi.{layer}" not in loaded]
        assert missing == [], f"{stage} left {missing} unloaded"
        heavy = [m for m in loaded if m.split(".")[:2] in HEAVY and m != LAPACK]
        assert heavy == [], f"{stage} imported {heavy[:5]}"
        if stage in stepping:
            assert LAPACK in scipy, f"{stage} did not load LAPACK"
        else:
            assert scipy == [], f"{stage} imported {scipy[:5]}"
    stages = ["classify", "witness", "integrate", "scaling annulus", "verify-identities"]
    assert doc["codes"] == {"--help": 0, "usage error": 2, "report": 0,
                            **dict.fromkeys(stages + stepping, 0)}


# Runs in a fresh interpreter: `newmark` loads `scipy.linalg._flapack` from a
# file in scipy's linalg directory, a private layout that a scipy release
# could move.  argv[1] says which of newmark and scipy.linalg.lapack is
# imported first; either way the three routines must be the same objects.
LAYOUT_SCRIPT = """
import sys
import numpy as np
if sys.argv[1] == "newmark first":
    import koranyi.newmark as newmark
    assert "scipy.linalg" not in sys.modules
    import scipy.linalg
    import scipy.linalg.lapack as lapack
    ab = np.array([[0.0, 1.0, 1.0], [4.0, 4.0, 4.0], [1.0, 1.0, 0.0]])
    x = scipy.linalg.solve_banded((1, 1), ab, np.array([5.0, 6.0, 5.0]))
    assert np.allclose(x, 1.0), x
else:
    import scipy.linalg.lapack as lapack
    import koranyi.newmark as newmark
assert newmark.dgtsv is lapack.dgtsv
assert newmark.dgttrf is lapack.dgttrf
assert newmark.dgttrs is lapack.dgttrs
print("ok")
"""


@pytest.mark.parametrize("order", ["newmark first", "lapack first"])
def test_newmark_lapack_is_scipy_lapack(order):
    proc = subprocess.run(
        [sys.executable, "-c", LAYOUT_SCRIPT, order],
        env=_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok"]


def test_missing_lapack_extension_names_the_directory(monkeypatch, tmp_path):
    import scipy

    from koranyi import newmark

    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(scipy, "__file__", str(tmp_path / "__init__.py"))
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg"))):
        newmark._tridiagonal_lapack()
