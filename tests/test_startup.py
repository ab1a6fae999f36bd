"""Start-up cost: subcommands that call no scipy routine never import scipy.

scipy is imported inside the functions that use it (`radial_integral`,
`capacity._time_quad` and the two solvers), so importing the CLI, building
its parser, `--help`, `classify` and `witness` stay on numpy alone.  Only a
fresh interpreter shows this: the test process itself has scipy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

# Runs in a fresh interpreter; argv[1] is a scratch directory.  After each
# stage it records the scipy modules loaded so far, and finally whether
# `integrate`, which does call quad, still exits 0.
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
}
codes = {}
for stage, argv in runs.items():
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            codes[stage] = koranyi.cli.main(argv)
        except SystemExit as exc:
            codes[stage] = exc.code
    seen[stage] = scipy_modules()
with contextlib.redirect_stdout(io.StringIO()):
    codes["integrate"] = koranyi.cli.main(["integrate", "--out", str(tmp / "integrate")])
print(json.dumps({"seen": seen, "codes": codes}))
"""


def test_scipy_stays_off_the_import_path(tmp_path):
    pythonpath = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    for stage, modules in doc["seen"].items():
        assert modules == [], f"{stage} imported {modules[:5]}"
    assert doc["codes"] == {"classify": 0, "witness": 0, "--help": 0, "integrate": 0}
