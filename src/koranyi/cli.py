"""Command-line front end tying the library together.

Eight subcommands: identity suites (verify-identities), the parameter
classifier (classify), explicit supersolutions (witness), scaling-law fits
(scaling), quadrature cross-checks (integrate), single radial runs
(simulate), status sweeps (phase-sweep), and report aggregation (report).
The seven numerical ones live in `commands`, which loads numpy and every
library layer at the first of them.  Building the parser, `--help`, a usage
error and `report` load neither, so the parser's library values are
literals here, pinned by tests.

Each subcommand has one table of `Key` rows (see `COMMANDS`): name, default,
kind, range, choices, flag and help.  The tables build the argument parser
once per process, and one resolver starts from a table's defaults, overlays
an optional JSON config file, then overlays explicit flags, and checks every
value against its row.  `_emit` is the one writer of artifacts: it heads
every JSON report with the suite name and the resolved configuration, and
every CSV table with that configuration as a `# ` comment line, so each
artifact records how it was produced.  Reports are JSON, and sweeps, fits
and sup-norm histories also land as CSV.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 bad usage
or configuration (including inadmissible parameters).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import re
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional, get_args


class UsageError(ValueError):
    """Bad flags, unreadable config, or inadmissible parameters; exit 2."""


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

class Key(NamedTuple):
    """One config key of a subcommand.

    kind is float, int, bool, str or a list of one of them, e.g. list[float].
    None passes only where the default is None.  Numbers must be finite and
    no smaller than low (larger, if strict).  flag "" derives --name-with-dashes
    and None leaves the key config-only; a bool flag sets the opposite of the
    default.
    """

    name: str
    default: object
    kind: object = float
    low: float = -math.inf
    strict: bool = False
    choices: tuple = ()
    flag: Optional[str] = ""
    help: Optional[str] = None


_KIND_NAMES = {float: "a number", int: "an integer", bool: "true or false", str: "a string"}


def _checked(key: Key, value):
    """value checked against its row: kind, finiteness, choices and range."""
    element = get_args(key.kind)
    if element:
        if not isinstance(value, list):
            raise UsageError(f"{key.name} must be a list, got {value!r}")
        return [_checked(key._replace(kind=element[0]), v) for v in value]
    kind = key.kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(
        value, (int, float) if kind is float else kind
    ):
        raise UsageError(f"{key.name} must be {_KIND_NAMES[kind]}, got {value!r}")
    if kind is float:
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise UsageError(f"{key.name} must be finite, got {value!r}")
    if key.choices and value not in key.choices:
        raise UsageError(f"{key.name} must be one of {list(key.choices)}, got {value!r}")
    if kind in (int, float) and (value < key.low or (key.strict and value == key.low)):
        raise UsageError(
            f"{key.name} must be {'>' if key.strict else '>='} {key.low:g}, got {value:g}"
        )
    return value


def _load_json(path: str, what: str = "config") -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise UsageError(f"cannot read {what} {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what} {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise UsageError(f"{what} {path} must be a JSON object")
    return doc


def resolve(command: str, args: argparse.Namespace) -> dict:
    """defaults <- config file <- explicit flags, later layers winning; every
    value is checked against its row of the command's table."""
    keys = {key.name: key for key in COMMANDS[command][2]}
    cfg = {name: key.default for name, key in keys.items()}
    if args.config:
        file_cfg = _load_json(args.config)
        unknown = set(file_cfg) - set(keys)
        if unknown:
            raise UsageError(f"config keys not understood by {command}: {sorted(unknown)}")
        cfg.update(file_cfg)
    cfg.update((name, getattr(args, name)) for name in keys
               if getattr(args, name, None) is not None)
    for name, key in keys.items():
        if cfg[name] is not None or key.default is not None:
            cfg[name] = _checked(key, cfg[name])
    return cfg


def _emit(suite: str, cfg: dict, body: Optional[dict] = None, tables=()) -> dict:
    """The artifact payload {"suite": suite, "config": cfg without "out",
    **body}.  With an output directory set, write the payload as
    <suite>.json unless body is None, and each (name, header, rows) table as
    CSV under the line `# <config JSON>`.  No other function of this module
    or of `commands` writes a file."""
    config = {k: v for k, v in cfg.items() if k != "out"}
    payload = {"suite": suite, "config": config, **(body or {})}
    if not cfg.get("out"):
        return payload
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    if body is not None:
        with open(out / f"{suite}.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    for name, header, rows in tables:
        with open(out / name, "w", newline="", encoding="utf-8") as fh:
            fh.write(f"# {json.dumps(config)}\n")
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    return payload


# ---------------------------------------------------------------------------
# check records and reports
# ---------------------------------------------------------------------------

def _check(name, ok, measured, expected, tolerance, rule):
    return {
        "name": name,
        "status": "pass" if ok else "fail",
        "measured": measured,
        "expected": expected,
        "tolerance": tolerance,
        "rule": rule,
    }


def _finish(suite: str, cfg: dict, checks: list[dict], extra: Optional[dict] = None) -> int:
    """Print one line per check, write the report, return the exit code."""
    for c in checks:
        print(
            f"[{c['status'].upper():4s}] {c['name']}: measured={c['measured']:.6g} "
            f"expected={c['expected']} tol={c['tolerance']:.3g}"
        )
    failed = sum(1 for c in checks if c["status"] != "pass")
    _emit(suite, cfg, {
        "checks": checks,
        "summary": {"total": len(checks), "passed": len(checks) - failed, "failed": failed},
        **(extra or {}),
    })
    print(f"{suite}: {len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


def cmd_report(cfg: dict) -> int:
    inputs = cfg["inputs"]
    if not inputs:
        raise UsageError("report needs at least one input JSON file")
    suites = []
    total = passed = 0
    for path in inputs:
        doc = _load_json(path, "report")
        summary = doc.get("summary")
        if not isinstance(summary, dict) or "total" not in summary:
            raise UsageError(f"{path} does not look like a suite report")
        n, ok = summary["total"], summary.get("passed")
        if not all(type(c) is int and c >= 0 for c in (n, ok)) or ok > n:
            raise UsageError(f"{path}: summary needs integers 0 <= passed <= total, "
                             f"got passed={ok!r}, total={n!r}")
        suites.append({"suite": doc.get("suite", Path(path).stem), "passed": ok,
                       "failed": n - ok})
        total += n
        passed += ok
    for s in suites:
        print(f"{s['suite']}: {s['passed']} passed, {s['failed']} failed")
    print(f"report: {passed}/{total} checks passed overall")
    _emit("report", cfg, {
        "suites": suites,
        "summary": {"total": total, "passed": passed, "failed": total - passed},
    })
    return 0 if passed == total else 1


@functools.cache
def _commands():
    from . import commands  # numpy and every library layer
    return commands


# ---------------------------------------------------------------------------
# key tables and argument parsing
# ---------------------------------------------------------------------------

_OUT = Key("out", None, str, help="directory for JSON/CSV artifacts")
_N = Key("N", 1, int, 1, help="number of horizontal layer pairs")
_LAMBDA = Key("lambda", 0.0, help="inverse-square coupling")
_CRITICAL = Key("lambda_critical", False, bool, help="use the borderline coupling -((Q-2)/2)^2")
_A = Key("a", 0.0, help="weight exponent")
_P = Key("p", 2.0, help="nonlinearity power (> 1)")
_K = Key("k", 1, int, 1, help="time-derivative order")
_GRID = (
    Key("rho_min", 1e-3),
    Key("n_cells", 64, int, 32),  # evolve.MIN_CELLS
    Key("spacing", "uniform", str, choices=("uniform", "log"), flag=None),
    Key("t_end", 0.25, low=0.0, strict=True),
)
_BOUNDARY = Key("boundary_value", 0.1)

# subcommand -> (help, function, key table); artifacts echo the keys in table order.
# A numerical command's function is None: `main` runs `commands.RUN` for it.
COMMANDS: dict[str, tuple[str, Optional[Callable[[dict], int]], tuple[Key, ...]]] = {
    "verify-identities": ("run the group/calculus/quadrature identity suites", None, (
        _N,
        _LAMBDA,
        Key("seed", 0, int, 0),
        *(Key(name, n, int, low, flag=None) for name, n, low in (
            ("n_triples", 2000, 1), ("n_points", 2000, 1), ("n_div_points", 40, 1),
            ("mc_samples", 200_000, 1000),  # hquad.MC_MIN_SAMPLES
            ("harmonic_points", 800, 1), ("flux_nodes", 600, 1))),
        Key("tol_scale", 1.0, low=0.0, help="multiply every tolerance (0 forces failures)"),
        _OUT,
    )),
    "classify": ("verdict for a parameter tuple", None,
                 (_N, _LAMBDA, _CRITICAL, _A, _P, _OUT)),
    "witness": ("build and verify an explicit supersolution", None, (
        _N, _LAMBDA, _CRITICAL, _A, _P,
        Key("tau", None, help="decay exponent override"),
        Key("eps", None, help="amplitude override"),
        Key("beta", None, help="log-correction exponent override"),
        Key("grid", 200, int, 2, flag=None),
        Key("tol", 1e-10, low=0.0, flag=None),
        Key("seed", 11, int, 0),
        _OUT,
    )),
    "scaling": ("fit a cutoff scaling law", None, (
        Key("law", "time", str, choices=("annulus", "domination", "logdecay", "time"),
            help="which scaling law to fit"),  # sorted(commands.LAWS)
        _N, _K,
        _LAMBDA._replace(default=None), _A._replace(default=None), _P._replace(default=None),
        Key("scales", None, list[float], 0.0, strict=True, help="scale grid"),
        _OUT,
        _CRITICAL,
    )),
    "integrate": ("cross-check weighted quadrature", None, (
        _N,
        Key("s", 0.0, help="gauge power to integrate"),
        Key("r_inner", 0.0, low=0.0),
        Key("r_outer", 1.0, low=0.0, strict=True),
        Key("tol", 1e-9, low=0.0, flag=None),
        _OUT,
    )),
    "simulate": ("run one radial evolution", None, (
        _N, _LAMBDA, _A._replace(default=2.0), _P, _K._replace(choices=(1, 2)),
        *_GRID,
        _BOUNDARY,
        Key("ic", "bump", str, choices=("bump", "zero")),
        Key("nonlinear", True, bool, flag="--linear", help="drop the nonlinear term"),
        _OUT,
        _CRITICAL,
    )),
    "phase-sweep": ("status sweep over parameter grids", None, (
        _N,
        Key("lambda_list", [0.0], list[float]),
        Key("a_list", [-2.0, 2.0], list[float]),
        Key("p_list", [2.0], list[float]),
        _K._replace(choices=(1, 2)),
        *_GRID,
        _BOUNDARY._replace(flag=None),
        _OUT,
    )),
    "report": ("aggregate suite reports", cmd_report, (
        Key("inputs", [], list[str], help="suite report JSON files"),
        _OUT,
    )),
}


# an argument is a value, not a flag, if it starts like a negative number
# (-1e-3, -.5, but not -inf): Python 3.13's rule, where 3.11 refuses -1e-3
_NEGATIVE_NUMBER = re.compile(r"-\.?\d")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every subcommand, built once per process from
    `COMMANDS`.  Sharing one is safe: `parse_args` fills a fresh namespace
    and never mutates the parser, and `COMMANDS` is not mutated after import."""
    parser = argparse.ArgumentParser(
        prog="koranyi",
        description="numerical checks for weighted evolution inequalities on "
        "the gauge ball of a Heisenberg-type group",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, keys) in COMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        sub._negative_number_matcher = _NEGATIVE_NUMBER
        sub.add_argument("--config", help="JSON config file (flags override it)")
        for key in keys:
            if key.flag is None:
                continue
            flag = key.flag or "--" + key.name.replace("_", "-")
            element = get_args(key.kind)
            how = (dict(action="store_const", const=not key.default) if key.kind is bool
                   else dict(type=element[0] if element else key.kind,
                             nargs="+" if element else None, choices=key.choices or None))
            sub.add_argument(flag, dest=key.name, help=key.help, **how)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cmd = args.command
    try:
        cfg = resolve(cmd, args)
        return (COMMANDS[cmd][1] or _commands().RUN[cmd])(cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a quadrature or solver refusal: nothing was certified
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
