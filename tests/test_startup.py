"""Start-up cost: each stage of the CLI loads only what it calls.

The front end, `koranyi.cli`, is standard library alone.  Importing it,
building its parser, `--help`, a usage error and `report` load neither numpy
nor a library layer.  The first numerical command imports `commands` and
with it every layer, which the benchmark's tracer needs to find loaded.
scipy is imported only inside the time steppers, which call LAPACK's
tridiagonal routines, and the quadrature is numpy's own, so `classify`,
`witness`, `integrate`, `scaling` and `verify-identities` stay on numpy
alone.  `simulate` and `phase-sweep` load `scipy.linalg` and never
`scipy.integrate`, whose import alone costs about 24 MB of resident memory.
Only a fresh interpreter shows this: the test process itself has them all
loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

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
    # the stepping stages come last: they load scipy.linalg for good
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


def test_scipy_stays_off_the_import_path(tmp_path):
    (tmp_path / "verify.json").write_text(json.dumps(SMALL_VERIFY), encoding="utf-8")
    (tmp_path / "suite.json").write_text(
        json.dumps({"suite": "x", "summary": {"total": 1, "passed": 1}}), encoding="utf-8")
    pythonpath = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=pythonpath),
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
        if stage in stepping:
            assert "scipy.linalg.lapack" in scipy
            integrate = [m for m in scipy if m.split(".")[:2] == ["scipy", "integrate"]]
            assert integrate == [], f"{stage} imported {integrate[:5]}"
        else:
            assert scipy == [], f"{stage} imported {scipy[:5]}"
    stages = ["classify", "witness", "integrate", "scaling annulus", "verify-identities"]
    assert doc["codes"] == {"--help": 0, "usage error": 2, "report": 0,
                            **dict.fromkeys(stages + stepping, 0)}
