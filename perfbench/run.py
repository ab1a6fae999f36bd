"""koranyi benchmark: time three workloads end to end through the CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload identities|certify|sweep \\
        --seed N --seconds S --trace 0|1

Each run starts fresh interpreters with ``PYTHONPATH=src``, one client and no
concurrency: a closed loop in which each operation starts when the previous
one has finished.  With ``--trace 0`` it reports the end-to-end metrics
``wall_s`` (one warm pass, the sum of per-operation medians), ``setup_s``
(median over five fresh interpreters of the time to import ``koranyi`` and
build its parser) and ``peak_rss_mb`` (peak resident memory of the workload
process), and it prints ``fail_frac``, failed over attempted operations.
Both times are rescaled to a reference host speed by ``calibrate.py``; the
raw figures are printed and kept in the result file.  With ``--trace 1`` it
reports the per-layer metrics of ``layer_trace.py`` instead.

The environment pins ``KORANYI_THREADS=1``, the plain single-threaded
baseline, and one BLAS/OpenMP thread.  Scratch output goes to
``.perfbench_out/`` in the checkout.  The last line of standard output is a
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the provenance and each metric by
name with its unit.  The run exits non-zero, without a result, when the
checkout has no ``src/koranyi`` to benchmark or a process fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0  # the whole run, set-up probes included, must end within 180 s
SETUP_PROBES = 5  # fresh interpreters that only set up
WORKLOADS = ("identities", "certify", "sweep")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
THREAD_ENV = {
    "KORANYI_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def layer_units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def spawn(args: list[str], env: dict, timeout: float) -> dict:
    """Run the worker to completion and return its JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--spawned-at", repr(time.monotonic()), *args]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{stderr[-2000:]}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {' '.join(args)} printed nothing:\n{stderr[-2000:]}")
    doc = json.loads(lines[-1])
    if Path(doc["src"]) != ROOT / "src":
        raise BenchError(f"imported koranyi from {doc['src']}, not from {ROOT / 'src'}")
    return doc


def git_commit() -> str | None:
    """HEAD of the checkout, when it is a git work tree of its own."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    """sha256 over the package sources, an identity that needs no git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "koranyi").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="small runs reduced inputs, for the smoke test")
    args = ap.parse_args()

    started = time.monotonic()
    for needed in (ROOT / "src" / "koranyi" / "__init__.py", ROOT / "configs"):
        if not needed.exists():
            print(f"error: {needed} is missing; run from a full checkout", file=sys.stderr)
            return 2

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    def probe_setup(count: int) -> list[float]:
        if args.trace:
            return []
        probes = [spawn(["--setup-only"], env, remaining()) for _ in range(count)]
        return [calibrate.rescale(p["setup_s"], p["kernel_s"]) for p in probes]

    try:
        # probes before and after the workload, so that one burst of load on
        # the host does not decide the median
        setups = probe_setup(SETUP_PROBES // 2)
        work = spawn(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace),
             "--size", args.size, "--out", str(out)],
            env, remaining(),
        )
        setups += probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        units = layer_units()
        missing = sorted(set(units) - set(work["layers"]))
        if missing:
            print(f"error: per-layer metrics not measured: {missing}", file=sys.stderr)
            return 1
        metrics = {name: {"value": work["layers"][name], "unit": unit}
                   for name, unit in units.items()}
    else:
        work["raw_wall_s"] = sum(statistics.median(op) for op in work["op_s"])
        values = {
            "wall_s": sum(statistics.median(op) for op in work["op_scaled_s"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": work["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "nproc": os.cpu_count(),
        **work["versions"], "git_commit": git_commit(), "src_sha256": source_digest(),
        "env": THREAD_ENV,
    }
    attempted, failed = work["attempted"], work["failed"]
    record = {
        "provenance": provenance, "metrics": metrics, "attempted": attempted,
        "failed": failed, "problems": work["problems"], "setup_samples_s": setups,
        "raw_wall_s": work.get("raw_wall_s"),
        "op_s": work.get("op_s"), "op_scaled_s": work.get("op_scaled_s"),
        "untraced_pass_s": work.get("untraced_pass_s"),
        "traced_pass_s": work.get("traced_pass_s"), "spans": work.get("spans"),
    }
    result_path = out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("provenance " + json.dumps(provenance))
    for problem in work["problems"][:20]:
        print(f"FAILED {problem}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(f"raw_wall_s {work['raw_wall_s']:.6g} s (before rescaling to the reference "
              "host speed)")
    print(f"fail_frac {failed / max(attempted, 1):.6g} ratio ({failed} of {attempted} failed)")
    print(f"result {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
