"""Start-up cost: subcommands that call no scipy routine never import scipy.

scipy is imported only inside the time steppers, which call LAPACK's
tridiagonal routines, and the quadrature is numpy's own, so importing the
CLI, building its parser, `--help`, `classify`, `witness`, `integrate`,
`scaling` and `verify-identities` stay on numpy alone.  `simulate` and
`phase-sweep` load `scipy.linalg` and never `scipy.integrate`, whose import
alone costs about 24 MB of resident memory.  Only a fresh interpreter shows
this: the test process itself has scipy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

# Runs in a fresh interpreter; argv[1] is a scratch directory holding a small
# `verify-identities` config.  After each stage it records the scipy modules
# loaded so far and the exit code.
SCRIPT = """
import contextlib, io, json, sys
from pathlib import Path

def scipy_modules():
    return sorted(name for name in sys.modules if name.startswith("scipy"))

tmp = Path(sys.argv[1])
seen = {}
import koranyi.cli
koranyi.cli.build_parser()
seen["import and build_parser"] = scipy_modules()
runs = {
    "classify": ["classify", "--out", str(tmp / "classify")],
    "witness": ["witness", "--out", str(tmp / "witness")],
    "--help": ["--help"],
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
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            codes[stage] = koranyi.cli.main(argv)
        except SystemExit as exc:
            codes[stage] = exc.code
    seen[stage] = scipy_modules()
print(json.dumps({"seen": seen, "codes": codes}))
"""


# the benchmark's warm-up sizes: a few seconds at most
SMALL_VERIFY = {
    "n_triples": 200, "n_points": 200, "n_div_points": 4, "mc_samples": 20_000,
    "harmonic_points": 60, "flux_nodes": 60,
}


def test_scipy_stays_off_the_import_path(tmp_path):
    (tmp_path / "verify.json").write_text(json.dumps(SMALL_VERIFY), encoding="utf-8")
    pythonpath = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    stepping = ["simulate", "phase-sweep --k 1", "phase-sweep --k 2"]
    for stage, modules in doc["seen"].items():
        if stage in stepping:
            assert "scipy.linalg.lapack" in modules
            integrate = [m for m in modules if m.split(".")[:2] == ["scipy", "integrate"]]
            assert integrate == [], f"{stage} imported {integrate[:5]}"
        else:
            assert modules == [], f"{stage} imported {modules[:5]}"
    stages = ["classify", "witness", "--help", "integrate", "scaling annulus", "verify-identities"]
    assert doc["codes"] == dict.fromkeys(stages + stepping, 0)
