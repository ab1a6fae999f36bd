"""The benchmark's three workloads and the correctness gate of every operation.

A workload is a list of operations.  Each operation calls the program once,
either through ``koranyi.cli.main`` with ``--out`` pointed at its own scratch
directory or through one public library function, and then a gate checks
what it produced.  Only the call is timed; the gate runs afterwards.

One operation of the failure count is one check in a suite JSON, one sweep
cell, one ``classify`` verdict or one library call.  It fails if a check
fails, the exit code is non-zero, the call raises, or the output disagrees
with ``reference.json``.

Why these workloads (see README.md for the layer-to-metric map):

* ``identities`` runs the operator identity suite at N = 1, 2, 4.  It is the
  scalar hyper-dual AD workload: ``egrad`` and ``hlap`` evaluated over many
  separate points, plus the group-law loop and Monte Carlo.
* ``certify`` runs the capacity laws, witnesses, quadrature checks, the
  classifier fixture table and the nonexistence probe.  It uses the same
  hyper-dual type as ``identities`` but as scalar jets inside scipy ``quad``,
  so a change that speeds up batched AD while slowing scalar jets shows here.
* ``sweep`` runs the radial blow-up simulator on a k = 1 (parabolic) and a
  k = 2 (hyperbolic) grid.  A solver change that helps one order and hurts
  the other moves this workload's time the wrong way.  lambda < 0 is left
  out because every lambda < 0 status on this grid is a discretization
  artifact today.
"""

from __future__ import annotations

import csv
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

WORKLOADS = ("identities", "certify", "sweep")
HERE = Path(__file__).resolve().parent

# Scale grids lengthened from the CLI defaults so that quadrature dominates
# the certify pass rather than argument parsing and artifact writing.
QUARTER_DECADES = [f"{10.0 ** (1.0 + 0.25 * i):.6g}" for i in range(13)]
LOG_DECAY_SCALES = [f"{10.0 ** (2.0 + 1.5 * i):.6g}" for i in range(13)]
DOMINATION_SCALES = QUARTER_DECADES[:9]

# The sweeps' grid and boundary value, pinned in a config file so the inputs
# stay the same if the CLI defaults change.
SWEEP_GRID = {"rho_min": 1e-3, "n_cells": 64, "spacing": "uniform", "boundary_value": 0.1}
SWEEPS = {
    "full": (
        {"k": 1, "lambda": [0.0, 0.02], "a": [-3.0, -2.0, 2.0], "p": [2.0, 3.0], "t_end": 0.25},
        {"k": 2, "lambda": [0.0, 0.75, 3.0], "a": [-3.0, -2.0, 0.0, 2.0],
         "p": [1.5, 2.0, 3.0], "t_end": 0.75},
    ),
    "small": (
        {"k": 1, "lambda": [0.0], "a": [-2.0, 2.0], "p": [2.0], "t_end": 0.05},
        {"k": 2, "lambda": [0.75], "a": [2.0], "p": [2.0], "t_end": 0.05},
    ),
}

# verify-identities sizes for the smoke test and the warm-up pass
SMALL_IDENTITIES = {
    "n_triples": 200, "n_points": 200, "n_div_points": 4, "mc_samples": 20_000,
    "harmonic_points": 60, "flux_nodes": 60,
}

# l1plus_test resolution per N; the surface rule grows like nodes^(2N)
SURFACE_NODES = {1: 200, 2: 24}


def load_reference() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Op:
    """One timed call into the program and the gate for its output."""

    label: str
    run: Callable[[], object]
    gate: Callable[[object], tuple[int, list[str]]]  # -> (attempted, problems)
    outputs: list[Path] = field(default_factory=list)  # removed before each run


def _cli(argv: list[str], out: Path) -> Callable[[], tuple[int, str]]:
    def run() -> tuple[int, str]:
        from koranyi import cli  # looked up per call so trace wrappers apply

        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            code = cli.main([*argv, "--out", str(out)])
        return code, sink.getvalue()

    return run


def _read_json(path: Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _tail(text: str) -> str:
    return text.strip().splitlines()[-1] if text.strip() else ""


def suite_op(label: str, argv: list[str], out: Path, suite: str) -> Op:
    """A check-style subcommand: every check in its JSON must pass, exit 0."""
    path = out / f"{suite}.json"

    def gate(result) -> tuple[int, list[str]]:
        code, text = result
        doc = _read_json(path)
        if doc is None:
            return 1, [f"{label}: exit {code}, no {suite}.json ({_tail(text)})"]
        checks = doc["checks"]
        problems = [
            f"{label}: check {c['name']} failed (measured {c['measured']})"
            for c in checks if c["status"] != "pass"
        ]
        if code != 0 and not problems:
            problems.append(f"{label}: exit code {code}")
        return max(len(checks), 1), problems

    return Op(label, _cli(argv, out), gate, [path])


def classify_op(label: str, argv: list[str], out: Path, expected: str) -> Op:
    path = out / "classify.json"

    def gate(result) -> tuple[int, list[str]]:
        code, text = result
        doc = _read_json(path)
        got = None if doc is None else doc.get("verdict")
        if code != 0 or got != expected:
            return 1, [f"{label}: exit {code}, verdict {got}, expected {expected} ({_tail(text)})"]
        return 1, []

    return Op(label, _cli(argv, out), gate, [path])


def library_op(label: str, call: Callable[[], object], check: Callable[[object], str]) -> Op:
    """A library call; ``check`` returns an empty string when the result is right."""

    def gate(result) -> tuple[int, list[str]]:
        problem = check(result)
        return 1, [f"{label}: {problem}"] if problem else []

    return Op(label, call, gate)


def report_op(label: str, inputs: list[Path], out: Path) -> Op:
    path = out / "report.json"
    argv = ["report", "--inputs", *[str(p) for p in inputs]]

    def gate(result) -> tuple[int, list[str]]:
        code, text = result
        doc = _read_json(path)
        if code != 0 or doc is None:
            return 1, [f"{label}: exit {code} ({_tail(text)})"]
        summary = doc["summary"]
        if summary["failed"] != 0 or len(doc["suites"]) != len(inputs):
            return 1, [f"{label}: summary {summary} over {len(doc['suites'])} suites"]
        return 1, []

    return Op(label, _cli(argv, out), gate, [path])


def sweep_op(label: str, spec: dict, rng: random.Random, out: Path, reference: dict) -> Op:
    """One phase-sweep run; each cell is gated against the reference table."""
    lams, avals, pvals = (rng.sample(spec[key], len(spec[key])) for key in ("lambda", "a", "p"))
    config = out / "sweep-grid.json"
    config.write_text(json.dumps(SWEEP_GRID) + "\n", encoding="utf-8")
    argv = [
        "phase-sweep", "--config", str(config), "--k", str(spec["k"]),
        "--lambda-list", *map(repr, lams), "--a-list", *map(repr, avals),
        "--p-list", *map(repr, pvals), "--t-end", repr(spec["t_end"]),
    ]
    path = out / "phase-sweep.csv"
    k, t_end = spec["k"], spec["t_end"]
    cells = {_cell_key(c): c for c in reference["sweep"]}
    screened = {_cell_key(c): c for c in reference["screened"]}
    tol = reference["blow_up_rel_tol"]
    n_cells = len(lams) * len(avals) * len(pvals)

    def gate(result) -> tuple[int, list[str]]:
        code, text = result
        try:
            with open(path, encoding="utf-8", newline="") as fh:
                fh.readline()  # the config comment line
                rows = list(csv.DictReader(fh))
        except OSError:
            return n_cells, [f"{label}: exit {code}, no phase-sweep.csv ({_tail(text)})"] * n_cells
        problems = [f"{label}: exit code {code}"] if code != 0 else []
        problems += [f"{label}: {n_cells - len(rows)} cells missing"] * max(0, n_cells - len(rows))
        for row in rows:
            key = (k, t_end, float(row["lambda"]), float(row["a"]), float(row["p"]))
            where = f"{label} cell lambda={key[2]:g} a={key[3]:g} p={key[4]:g}"
            if key in screened:
                if row["status"] not in ("completed", "blown_up"):
                    problems.append(f"{where}: status {row['status']!r}")
                continue
            ref = cells.get(key)
            if ref is None:
                problems.append(f"{where}: not in the reference table")
                continue
            verdict = row["classifier_verdict"]
            if row["status"] != ref["status"] or verdict != ref["classifier_verdict"]:
                problems.append(
                    f"{where}: {row['status']}/{verdict}, reference "
                    f"{ref['status']}/{ref['classifier_verdict']}"
                )
            elif ref["status"] == "blown_up":
                got, want = float(row["blow_up_time"]), ref["blow_up_time"]
                if not abs(got - want) <= tol * want:
                    problems.append(f"{where}: blow-up time {got:.6g}, reference {want:.6g}")
        return max(n_cells, len(rows)), problems

    return Op(label, _cli(argv, out), gate, [path])


def _cell_key(cell: dict) -> tuple:
    return (cell["k"], cell["t_end"], cell["lambda"], cell["a"], cell["p"])


# ---------------------------------------------------------------------------
# workload builders
# ---------------------------------------------------------------------------

def build(workload: str, seed: int, size: str, out: Path) -> list[Op]:
    """The operations of one pass; the same seed gives the same operations."""
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    builder = {"identities": _identities, "certify": _certify, "sweep": _sweep}[workload]
    return builder(seed, size, out, rng)


def _dirs(out: Path):
    """Yield a fresh output directory per operation."""
    index = 0
    while True:
        path = out / f"op{index:03d}"
        path.mkdir(exist_ok=True)
        yield path
        index += 1


def _identities(seed: int, size: str, out: Path, rng: random.Random) -> list[Op]:
    dirs = _dirs(out)
    extra: list[str] = []
    if size == "small":
        config = out / "identities-small.json"
        config.write_text(json.dumps(SMALL_IDENTITIES) + "\n", encoding="utf-8")
        extra = ["--config", str(config)]
    return [
        suite_op(f"verify-identities N={n}",
                 ["verify-identities", *extra, "--N", str(n), "--seed", str(seed)],
                 next(dirs), "verify-identities")
        for n in (1, 2, 4)
    ]


def _liminf_check(predicted: float):
    def check(values) -> str:
        from koranyi.capacity import scaling_fit

        slope = scaling_fit(values).slope
        if abs(slope - predicted) > 0.1:
            return f"probe slope {slope:.4f}, predicted {predicted:.4f}"
        return ""

    return check


def _library_ops(n: int, small: bool) -> list[Op]:
    import numpy as np
    from koranyi import spectrum  # called through the module so trace wrappers apply
    from koranyi.hgroup import GroupContext

    ctx = GroupContext(n)
    ops = []
    for a in ((-3.0,) if small else (-3.0, 2.0)):
        params = spectrum.ProblemParams(ctx, 0.0, a, 2.0)
        # R^{(a+2p)/(p-1) - Q - alpha-} up to slowly varying factors
        predicted = (a + 4.0) - params.Q - spectrum.alphas(params).alpha_minus
        ops.append(library_op(
            f"liminf_probe N={n} a={a:g}",
            lambda params=params, a=a: spectrum.liminf_probe(
                lambda r: r**a, params, [2.0, 4.0, 8.0, 16.0, 32.0, 64.0]),
            _liminf_check(predicted),
        ))
    nodes = SURFACE_NODES[n]
    cases = (("one", lambda x, y, phi: np.ones(len(phi)), True),
             ("phi", lambda x, y, phi: phi, False))
    for name, f, member in cases[:1] if small else cases:
        ops.append(library_op(
            f"l1plus_test N={n} f={name}",
            lambda f=f: spectrum.l1plus_test(f, nodes, ctx),
            lambda result, member=member: (
                "" if result[1] is member else f"membership {result[1]}, expected {member}"),
        ))
    return ops


def _certify(seed: int, size: str, out: Path, rng: random.Random) -> list[Op]:
    reference = load_reference()
    configs = HERE.parent / "configs"
    dirs = _dirs(out)
    ops: list[Op] = []
    suites: list[Path] = []

    def suite(label: str, argv: list[str], name: str) -> None:
        op = suite_op(label, argv, next(dirs), name)
        ops.append(op)
        suites.append(op.outputs[0])

    ops.append(classify_op("classify configs/classify.json",
                           ["classify", "--config", str(configs / "classify.json")],
                           next(dirs), reference["classify_config"]))
    for name in ("witness", "scaling", "integrate"):
        suite(f"{name} configs/{name}.json",
              [name, "--config", str(configs / f"{name}.json")], name)
    if size == "small":
        ops += _library_ops(1, small=True)
        ops.append(report_op("report", suites, next(dirs)))
        return ops

    for n in (1, 2):
        N = ["--N", str(n)]
        for k in ("1", "2"):
            suite(f"scaling time N={n} k={k}",
                  ["scaling", "--law", "time", *N, "--k", k, "--scales", *QUARTER_DECADES],
                  "scaling")
        for lam in ("0", "3"):
            suite(f"scaling annulus N={n} lambda={lam}",
                  ["scaling", "--law", "annulus", *N, "--lambda", lam,
                   "--scales", *QUARTER_DECADES], "scaling")
        # zero margin at critical coupling: a + 2 = (Q - 2 + alpha-)(p - 1) = N (p - 1)
        p_zero = repr(1.0 + 2.0 / n)
        suite(f"scaling logdecay N={n}",
              ["scaling", "--law", "logdecay", *N, "--lambda-critical", "--a", "0",
               "--p", p_zero, "--scales", *LOG_DECAY_SCALES], "scaling")
        suite(f"scaling domination N={n}",
              ["scaling", "--law", "domination", *N, "--scales", *DOMINATION_SCALES],
              "scaling")
        suite(f"witness subcritical N={n}",
              ["witness", *N, "--lambda", "3", "--seed", str(seed)], "witness")
        suite(f"witness critical N={n}",
              ["witness", *N, "--lambda-critical", "--a", "2", "--seed", str(seed)], "witness")
        suite(f"integrate ball N={n}", ["integrate", *N], "integrate")
        suite(f"integrate annulus N={n}",
              ["integrate", *N, "--s", "-2", "--r-inner", "1e-6", "--r-outer", "1"],
              "integrate")
        fixtures = [f for f in reference["classify"] if f[0] == n]
        for _, lam, a, p, verdict in rng.sample(fixtures, len(fixtures)):
            ops.append(classify_op(
                f"classify N={n} lambda={lam:g} a={a:g} p={p:g}",
                ["classify", *N, "--lambda", repr(lam), "--a", repr(a), "--p", repr(p)],
                next(dirs), verdict,
            ))
        ops += _library_ops(n, small=False)
    ops.append(report_op("report", suites, next(dirs)))
    return ops


def _sweep(seed: int, size: str, out: Path, rng: random.Random) -> list[Op]:
    """One phase-sweep run per (k, lambda): the same cells as one run per k,
    in operations short enough for the host-speed calibration to follow."""
    reference = load_reference()
    dirs = _dirs(out)
    return [
        sweep_op(f"phase-sweep k={spec['k']} lambda={lam:g}", {**spec, "lambda": [lam]},
                 rng, next(dirs), reference)
        for spec in SWEEPS[size]
        for lam in rng.sample(spec["lambda"], len(spec["lambda"]))
    ]


def wall_time(call: Callable[[], object]) -> tuple[float, float]:
    """Time ``call`` without rescaling: (raw, raw) seconds."""
    t0 = perf_counter()
    call()
    elapsed = perf_counter() - t0
    return elapsed, elapsed


def _guarded(run: Callable[[], object]) -> tuple[object, Exception | None]:
    try:
        return run(), None
    except Exception as exc:  # an operation that raises is a failed operation
        return None, exc


def run_pass(ops: list[Op], timer=wall_time) -> tuple[list[tuple[float, float]], int, list[str]]:
    """Run every operation once under ``timer``.

    Returns the (raw, rescaled) seconds of each operation, the number of
    operations attempted and one problem line per failed operation.
    """
    timings: list[tuple[float, float]] = []
    attempted = 0
    problems: list[str] = []
    for op in ops:
        for path in op.outputs:
            path.unlink(missing_ok=True)
        outcome = []
        timings.append(timer(lambda: outcome.append(_guarded(op.run))))
        result, exc = outcome[0]
        if exc is not None:
            attempted += 1
            problems.append(f"{op.label}: raised {exc!r}")
            continue
        try:
            n, found = op.gate(result)
        except (KeyError, TypeError, ValueError) as exc:
            n, found = 1, [f"{op.label}: malformed output ({exc!r})"]
        attempted += n
        problems += found
    return timings, attempted, problems
