"""Command-line front end tying the library together.

Eight subcommands: identity suites (verify-identities), the parameter
classifier (classify), explicit supersolutions (witness), scaling-law fits
(scaling), quadrature cross-checks (integrate), single radial runs
(simulate), status sweeps (phase-sweep), and report aggregation (report).

Each subcommand has one table of `Key` rows (see `COMMANDS`): name, default,
kind, range, choices, flag and help.  The table builds the argument parser,
and one resolver starts from its defaults, overlays an optional JSON config
file, then overlays explicit flags, and checks every value against its row.
The resolved configuration is embedded in whatever a command emits, so each
artifact records how it was produced.  Reports are JSON, sweeps and fits
also land as CSV, and SVG plots appear only when matplotlib is importable.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 bad usage
or configuration (including inadmissible parameters).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional, get_args

import numpy as np

from .hgroup import (
    GroupContext,
    HPoint,
    a_apply,
    compose,
    inverse,
    knorm_of,
    psi,
    psi_of,
    random_points,
)
from .hcalc import egrad, hlap, hlap_divform, radial_lift, radial_lap
from .hquad import MC_MIN_SAMPLES, Annulus, mc_annulus, radial_integral, c_n
from .spectrum import (
    ProblemParams,
    alphas,
    check_k_boundary,
    check_k_harmonic,
    classify,
    existence_margin,
)
from .capacity import (
    DEFAULT_SCALES,
    default_family,
    eta,
    j1_space_factor,
    j1_time_factor,
    j2_space_factor,
    scaling_fit,
)
from .witness import build_critical, build_subcritical, verify_witness, witness_json
from .evolve import MIN_CELLS, RadialGrid, canonical_bump, integrate, phase_sweep


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
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
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


def _echo(cfg: dict) -> dict:
    """The configuration as artifacts record it (the output directory left out)."""
    return {k: v for k, v in cfg.items() if k != "out"}


def _out_dir(cfg: dict) -> Optional[Path]:
    if not cfg.get("out"):
        return None
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(out: Optional[Path], name: str, payload: dict) -> None:
    if out is None:
        return
    with open(out / name, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")


def _write_csv(out, name, header, rows, comment=None):
    if out is None:
        return
    with open(out / name, "w", newline="", encoding="utf-8") as fh:
        if comment is not None:
            fh.write("# " + comment + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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
    payload = {
        "suite": suite,
        "config": _echo(cfg),
        "checks": checks,
        "summary": {"total": len(checks), "passed": len(checks) - failed, "failed": failed},
    }
    if extra:
        payload.update(extra)
    _write_json(_out_dir(cfg), f"{suite}.json", payload)
    print(f"{suite}: {len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# optional SVG emission (matplotlib only if importable)
# ---------------------------------------------------------------------------

def _pyplot():
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return None
    return plt


def _plot_fit(out, name, points, fit, title):
    plt = _pyplot()
    if plt is None or out is None:
        return
    s = np.array([p[0] for p in points])
    v = np.array([p[1] for p in points])
    fig, ax = plt.subplots(figsize=(5, 4))
    ax.loglog(s, v, "o", label="measured")
    ax.loglog(s, np.exp(fit.intercept) * s**fit.slope, "-",
              label=f"fit slope {fit.slope:.3f}")
    ax.set_xlabel("scale")
    ax.set_ylabel("value")
    ax.set_title(title)
    ax.legend()
    fig.tight_layout()
    fig.savefig(out / f"{name}.svg")
    plt.close(fig)


def _plot_sweep(out, rows, ctx):
    """Status scatter over (a, p) for a single-lambda sweep, with the
    zero-margin frontier overlaid."""
    plt = _pyplot()
    if plt is None or out is None:
        return
    lams = sorted({r["lambda"] for r in rows})
    if len(lams) != 1:
        return
    lam = lams[0]
    colors = {"completed": "tab:blue", "blown_up": "tab:red"}
    fig, ax = plt.subplots(figsize=(5, 4))
    for status in sorted({r["status"] for r in rows}):
        pts = [(r["a"], r["p"]) for r in rows if r["status"] == status]
        ax.plot(
            [q[0] for q in pts],
            [q[1] for q in pts],
            "o",
            color=colors.get(status, "tab:gray"),
            label=status,
        )
    a_lo = min(r["a"] for r in rows) - 0.5
    a_hi = max(r["a"] for r in rows) + 0.5
    p_lo = max(1.05, min(r["p"] for r in rows) - 0.5)
    p_hi = max(r["p"] for r in rows) + 0.5
    aa, pp = np.meshgrid(np.linspace(a_lo, a_hi, 81), np.linspace(p_lo, p_hi, 81))
    margin = np.empty_like(aa)
    for idx in np.ndindex(aa.shape):
        margin[idx] = existence_margin(
            ProblemParams(ctx, lam, float(aa[idx]), float(pp[idx]))
        )
    ax.contour(aa, pp, margin, levels=[0.0], colors="k", linestyles="--")
    ax.set_xlabel("a")
    ax.set_ylabel("p")
    ax.set_title(f"status sweep, lambda = {lam:g}")
    ax.legend()
    fig.tight_layout()
    fig.savefig(out / "phase-sweep.svg")
    plt.close(fig)


# ---------------------------------------------------------------------------
# verify-identities
# ---------------------------------------------------------------------------

# tolerance of each identity check; tol_scale multiplies every one of them
IDENTITY_TOLS = dict(group=1e-12, grad=1e-10, lap=1e-10, div=1e-5, harmonic=1e-8, flux=1e-6)


def _max_abs(values) -> float:
    """Largest absolute value (NaN propagates); 0 for no values."""
    return float(np.max(np.abs(values), initial=0.0))


def cmd_verify_identities(cfg: dict) -> int:
    ctx = GroupContext(cfg["N"])
    rng = np.random.default_rng(cfg["seed"])
    scale = cfg["tol_scale"]
    tol = {name: t * scale for name, t in IDENTITY_TOLS.items()}
    checks = []

    # group axioms on random triples, all triples in one batch
    trip = rng.uniform(-1.0, 1.0, size=(cfg["n_triples"], 3, 2 * ctx.N + 1))
    g = [HPoint.from_flat(trip[:, k]) for k in range(3)]
    left = compose(compose(g[0], g[1]), g[2])
    right = compose(g[0], compose(g[1], g[2]))
    worst_assoc = _max_abs(left.flat() - right.flat())
    worst_inv = _max_abs(compose(g[0], inverse(g[0])).flat())
    checks.append(_check(
        "group-associativity", worst_assoc <= tol["group"], worst_assoc, 0.0,
        tol["group"], "composing three elements is independent of bracketing",
    ))
    checks.append(_check(
        "group-inverse", worst_inv <= tol["group"], worst_inv, 0.0,
        tol["group"], "an element composed with its inverse is the identity",
    ))

    # |grad of the gauge|^2 equals the angular weight
    pts = random_points(ctx, rng, cfg["n_points"])
    grad = egrad(radial_lift(lambda r: r), pts)
    weight = psi(pts)
    q = (a_apply(pts, grad) * grad).sum(axis=-1)
    worst = _max_abs((q - weight) / (weight + 1e-15))
    checks.append(_check(
        "gauge-gradient", worst <= tol["grad"], worst, 0.0, tol["grad"],
        "the horizontal gradient of the gauge has squared length psi",
    ))

    # radial form of the operator against the full AD evaluation
    profiles = [lambda r: r**2, lambda r: 1.0 / (1.0 + r**2)]
    pts = random_points(ctx, rng, max(50, cfg["n_points"] // 20))
    rho = knorm_of(*pts.coords())
    weight = psi(pts)
    worst = 0.0
    for F in profiles:
        full = hlap(radial_lift(F), pts)
        rad = weight * radial_lap(F, rho, ctx)
        worst = max(worst, _max_abs((full - rad) / (np.abs(rad) + 1e-15)))
    checks.append(_check(
        "radial-operator", worst <= tol["lap"], worst, 0.0, tol["lap"],
        "on gauge-radial fields the operator reduces to its radial form times psi",
    ))

    # divergence form by central differences
    pts = random_points(ctx, rng, cfg["n_div_points"])
    field = radial_lift(lambda r: r**2)
    worst = _max_abs(hlap(field, pts) - hlap_divform(field, pts))
    checks.append(_check(
        "divergence-form", worst <= tol["div"], worst, 0.0, tol["div"],
        "the operator agrees with div(A grad .) assembled by finite differences",
    ))

    # quadrature vs Monte Carlo on one family member
    ann = Annulus(0.25, 1.0)
    qr = radial_integral(lambda r: r**2, ann, ctx)
    mc = mc_annulus(
        lambda x, y, phi: psi_of(x, y, phi) * knorm_of(x, y, phi) ** 2,
        ann, cfg["mc_samples"], cfg["seed"], ctx,
    )
    band = 3.0 * (mc.error_estimate + qr.error_estimate) * scale
    diff = abs(qr.value - mc.value)
    checks.append(_check(
        "quadrature-vs-mc", diff <= band, diff, 0.0, band,
        "the weighted radial quadrature matches Monte Carlo within 3 sigma",
    ))

    # barrier harmonicity at the configured lambda and at critical coupling
    for lam_label, lam in (("given", cfg["lambda"]), ("critical", -((ctx.Q - 2) / 2.0) ** 2)):
        params = ProblemParams(ctx, lam, 0.0, 2.0)
        rep = check_k_harmonic(params, n_points=cfg["harmonic_points"],
                               tol=tol["harmonic"], seed=cfg["seed"] + 1)
        checks.append(_check(
            f"barrier-harmonic-{lam_label}", rep.passed, rep.max_scaled_residual,
            0.0, tol["harmonic"],
            "the radial barrier is annihilated by the operator away from the origin",
        ))

    # boundary flux identity
    params = ProblemParams(ctx, cfg["lambda"], 0.0, 2.0)
    rep = check_k_boundary(params, nodes=cfg["flux_nodes"], tol=tol["flux"])
    checks.append(_check(
        "boundary-flux", rep.passed, rep.max_scaled_residual, 0.0, tol["flux"],
        "the conormal flux density of the barrier matches its radial slope times "
        "the angular weight",
    ))

    return _finish("verify-identities", cfg, checks)


# ---------------------------------------------------------------------------
# classify / witness
# ---------------------------------------------------------------------------

def _params_from(cfg: dict) -> ProblemParams:
    ctx = GroupContext(cfg["N"])
    lam = -((ctx.Q - 2) / 2.0) ** 2 if cfg["lambda_critical"] else cfg["lambda"]
    return ProblemParams(ctx, lam, cfg["a"], cfg["p"], cfg.get("k", 1))


def cmd_classify(cfg: dict) -> int:
    params = _params_from(cfg)
    result = classify(params)
    payload = {
        "suite": "classify",
        "config": _echo(cfg),
        "params": {
            "N": params.ctx.N,
            "Q": params.Q,
            "lambda": params.lam,
            "a": params.a,
            "p": params.p,
        },
        "verdict": result.verdict.value,
        "rule": result.rule,
        "margin": existence_margin(params),
        "threshold": None
        if result.threshold is None
        else {
            "kind": result.threshold_kind,
            "value": result.threshold,
        },
    }
    print(json.dumps(payload, indent=2))
    _write_json(_out_dir(cfg), "classify.json", payload)
    return 0


def cmd_witness(cfg: dict) -> int:
    params = _params_from(cfg)
    tol = cfg["tol"]
    if params.is_critical:
        w = build_critical(params, beta=cfg["beta"], eps=cfg["eps"])
    else:
        w = build_subcritical(params, tau=cfg["tau"], eps=cfg["eps"])
    report = verify_witness(w, grid=cfg["grid"], tol=tol, seed=cfg["seed"])
    checks = [
        _check(
            "witness-identity", report.max_identity_rel_err <= tol,
            report.max_identity_rel_err, 0.0, tol,
            "the built profile satisfies its stationary identity on sampled radii",
        ),
        _check(
            "witness-slack", report.min_slack >= 0.0, report.min_slack,
            "≥ 0", 0.0,
            "the built profile dominates the weighted power of itself",
        ),
    ]
    payload = witness_json(w, report)
    code = _finish("witness", cfg, checks, extra={"witness": payload})
    if _out_dir(cfg) is None:
        print(json.dumps(payload, indent=2))
    return code


# ---------------------------------------------------------------------------
# scaling laws
# ---------------------------------------------------------------------------

R2_MIN = 0.95  # least r^2 of the log-decay fit


def _slope_check(name, fit, predicted, tol, rule):
    return _check(name, abs(fit.slope - predicted) <= tol, fit.slope, predicted, tol, rule)


def _time_rows(scales, params, iota):
    return [(s, j1_time_factor(s, params, iota).value) for s in scales]


def _j2_rows(cutoff: str, abscissa: Callable):
    """Rows (abscissa(R), J2 space factor) for a cutoff.  J2 is int beta_T
    times this factor, and the time integral does not depend on R."""
    def rows(scales, params, iota):
        return [(abscissa(R), j2_space_factor(cutoff, R, params, iota).value) for R in scales]

    return rows


def _domination_rows(scales, params, iota):
    return [(R, j1_space_factor("gamma", R, params, iota).value, eta(R, params)) for R in scales]


def _time_checks(fit, rows, params, tol):
    return [_slope_check(
        "time-factor-slope", fit, 1.0 - params.k * params.p / (params.p - 1.0), tol,
        "the time factor scales like T to the power 1 - k p/(p-1)",
    )]


def _annulus_checks(fit, rows, params, tol):
    predicted = (params.a + 2.0 * params.p) / (params.p - 1.0) - params.Q \
        - alphas(params).alpha_minus
    return [_slope_check(
        "annulus-slope", fit, predicted, tol,
        "the inner-cutoff elliptic factor grows like R to the predicted power",
    )]


def _logdecay_checks(fit, rows, params, tol):
    onesided = -1.0 / (params.p - 1.0)
    return [
        _check("logdecay-r2", fit.r_squared >= R2_MIN, fit.r_squared, f"≥ {R2_MIN}", R2_MIN,
               "the log-cutoff elliptic factor follows a power of ln R"),
        _slope_check("logdecay-slope", fit, -2.0 / (params.p - 1.0), tol,
                     "the measured ln R power matches the exact cancellation rate -2/(p-1)"),
        _check("logdecay-upper", fit.slope <= onesided + tol, fit.slope, f"≤ {onesided}", tol,
               "the decay is at least as fast as the one-sided rate -1/(p-1)"),
    ]


def _domination_checks(fit, rows, params, tol):
    worst_gap = float(np.max([sf - env for _, sf, env in rows]))
    envs = [-math.inf] + [env for *_, env in rows]
    monotone = all(b >= a - 1e-12 * abs(b) for a, b in zip(envs, envs[1:]))
    return [
        _check("domination-gap", worst_gap <= 1e-9, worst_gap, "≤ 0", 1e-9,
               "every cutoff space factor stays below the envelope integral"),
        _check("domination-monotone", monotone, float(monotone), 1.0, 0.0,
               "the envelope integral is nondecreasing in the scale"),
    ]


class Law(NamedTuple):
    """One scaling law of `cmd_scaling`.

    defaults fill lambda, a and p, in that order, where the config leaves
    them None; a callable default maps the config filled so far to the value.
    rows(scales, params, iota) measures one CSV row per scale, the abscissa
    first, under the header columns, and checks(fit, rows, params, tol_slope)
    judges them.  A law with a plot title is fitted as a power law and
    plotted; a critical law holds only at critical coupling with zero margin.
    """

    defaults: dict
    tol_slope: float
    scales: tuple
    columns: tuple
    rows: Callable
    checks: Callable
    title: Optional[str] = None
    critical: bool = False


_PLAIN = {"lambda": 0.0, "a": 0.0, "p": 2.0}
# critical coupling -((Q-2)/2)^2 = -N^2, and the p of zero margin there: a + 2 = N (p - 1)
_CRITICAL_ZERO_MARGIN = {"lambda": lambda cfg: -float(cfg["N"]) ** 2, "a": 0.0,
                         "p": lambda cfg: 1.0 + (cfg["a"] + 2.0) / cfg["N"]}

LAWS = {
    "time": Law(_PLAIN, 0.05, DEFAULT_SCALES, ("T", "value"), _time_rows, _time_checks,
                "time factor"),
    "annulus": Law(_PLAIN, 0.1, DEFAULT_SCALES, ("R", "value"), _j2_rows("gamma", lambda R: R),
                   _annulus_checks, "inner-cutoff factor"),
    "logdecay": Law(_CRITICAL_ZERO_MARGIN, 0.1,
                    tuple(10.0**e for e in (2, 5, 8, 11, 14, 17, 20)), ("lnR", "value"),
                    _j2_rows("mu", math.log), _logdecay_checks, "log-cutoff factor",
                    critical=True),
    "domination": Law(_PLAIN, 0.0, tuple(10.0**e for e in (1, 1.5, 2, 2.5, 3)),
                      ("R", "space_factor", "eta"), _domination_rows, _domination_checks),
}


def cmd_scaling(cfg: dict) -> int:
    name = cfg["law"]
    law = LAWS[name]
    for key, value in law.defaults.items():
        if cfg[key] is None:
            cfg[key] = value(cfg) if callable(value) else value
    params = _params_from(cfg)
    iota = default_family(params)
    if law.critical:
        margin = existence_margin(params)
        if not params.is_critical or abs(margin) > 1e-9 * (1.0 + abs(params.a)):
            raise UsageError(
                "the log-decay law applies at critical coupling with zero margin; "
                f"got margin {margin:.3e}"
            )
    rows = law.rows(cfg["scales"] or law.scales, params, iota)
    out = _out_dir(cfg)
    _write_csv(out, f"scaling-{name}.csv", law.columns, rows, comment=json.dumps(_echo(cfg)))
    fit, extra = None, {}
    if law.title:
        fit = scaling_fit(rows)
        extra["fit"] = {"slope": fit.slope, "r_squared": fit.r_squared}
        _plot_fit(out, f"scaling-{name}", rows, fit, law.title)
    return _finish("scaling", cfg, law.checks(fit, rows, params, law.tol_slope), extra=extra)


# ---------------------------------------------------------------------------
# integrate / simulate / phase-sweep / report
# ---------------------------------------------------------------------------

def cmd_integrate(cfg: dict) -> int:
    ctx = GroupContext(cfg["N"])
    s, tol = cfg["s"], cfg["tol"]
    ann = Annulus(cfg["r_inner"], cfg["r_outer"])
    expo = ctx.Q + s
    if ann.r_inner == 0.0 and expo <= 0.0:
        raise UsageError(f"power {s} is not integrable down to the origin (needs s > -Q)")
    value = radial_integral(lambda r: r**s, ann, ctx).value
    if expo == 0.0:
        closed = c_n(ctx) * math.log(ann.r_outer / ann.r_inner)
    else:
        closed = c_n(ctx) * (ann.r_outer**expo - ann.r_inner**expo) / expo
    rel = abs(value - closed) / abs(closed)
    checks = [_check(
        "monomial-quadrature", rel <= tol, rel, 0.0, tol,
        "weighted quadrature of a gauge power matches the closed-form antiderivative",
    )]
    return _finish("integrate", cfg, checks, extra={"value": value, "closed_form": closed})


def cmd_simulate(cfg: dict) -> int:
    params = _params_from(cfg)
    grid = RadialGrid(cfg["rho_min"], cfg["n_cells"], cfg["spacing"])
    rho = grid.nodes()
    u0 = canonical_bump(rho) if cfg["ic"] == "bump" else np.zeros_like(rho)
    ic = u0 if params.k == 1 else np.stack([u0, np.zeros_like(u0)])
    result = integrate(params, ic, grid, t_end=cfg["t_end"],
                       boundary_value=cfg["boundary_value"], nonlinear=cfg["nonlinear"])
    payload = {
        "suite": "simulate",
        "config": _echo(cfg),
        "status": result.status,
        "blow_up_time": result.blow_up_time,
        "t_final": result.t_final,
        "dt_policy": result.dt_policy,
        "grid": grid.describe(),
        "sup_final": result.sup_norm_history[-1][1],
        "note": result.note,
        "end_reason": result.end_reason,
        "steps": result.steps,
        "rejected": result.rejected,
        "lu": result.lu,
    }
    print(f"simulate: {result.status} (t_final={result.t_final:.6g}, "
          f"sup={payload['sup_final']:.6g})")
    out = _out_dir(cfg)
    _write_json(out, "simulate.json", payload)
    _write_csv(out, "simulate-history.csv", ("t", "sup_norm"),
               result.sup_norm_history,
               comment=json.dumps(payload["config"]))
    plt = _pyplot()
    if plt is not None and out is not None:
        t = [h[0] for h in result.sup_norm_history]
        v = [h[1] for h in result.sup_norm_history]
        fig, ax = plt.subplots(figsize=(5, 4))
        if any(x > 0 for x in v):
            ax.semilogy(t, v)
        else:
            ax.plot(t, v)
        ax.set_xlabel("t")
        ax.set_ylabel("sup |u|")
        ax.set_title(f"{result.status}, {grid.describe()}")
        fig.tight_layout()
        fig.savefig(out / "simulate.svg")
        plt.close(fig)
    return 0


def cmd_phase_sweep(cfg: dict) -> int:
    ctx = GroupContext(cfg["N"])
    lams, avals, pvals = cfg["lambda_list"], cfg["a_list"], cfg["p_list"]
    if not (lams and avals and pvals):
        raise UsageError("phase-sweep needs nonempty lambda_list, a_list, p_list")
    rows = phase_sweep(
        lams, avals, pvals, ctx, k=cfg["k"],
        grid=RadialGrid(cfg["rho_min"], cfg["n_cells"], cfg["spacing"]),
        t_end=cfg["t_end"], boundary_value=cfg["boundary_value"], threads=cfg["threads"],
    )
    header = ("lambda", "a", "p", "k", "status", "blow_up_time", "classifier_verdict",
              "grid", "dt_policy", "end_reason", "steps", "rejected", "lu")
    csv_rows = [
        tuple("" if row[key] is None else row[key] for key in header) for row in rows
    ]
    out = _out_dir(cfg)
    _write_csv(out, "phase-sweep.csv", header, csv_rows,
               comment=json.dumps(_echo(cfg)))
    _plot_sweep(out, rows, ctx)
    for row in rows:
        print(f"lambda={row['lambda']:g} a={row['a']:g} p={row['p']:g}: "
              f"{row['status']} (verdict {row['classifier_verdict']})")
    if out is None:
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(csv_rows)
    return 0


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
    payload = {
        "suite": "report",
        "config": _echo(cfg),
        "suites": suites,
        "summary": {"total": total, "passed": passed, "failed": total - passed},
    }
    for s in suites:
        print(f"{s['suite']}: {s['passed']} passed, {s['failed']} failed")
    print(f"report: {passed}/{total} checks passed overall")
    _write_json(_out_dir(cfg), "report.json", payload)
    return 0 if passed == total else 1


# ---------------------------------------------------------------------------
# key tables and argument parsing
# ---------------------------------------------------------------------------

_OUT = Key("out", None, str, help="directory for JSON/CSV/SVG artifacts")
_N = Key("N", 1, int, 1, help="number of horizontal layer pairs")
_LAMBDA = Key("lambda", 0.0, help="inverse-square coupling")
_CRITICAL = Key("lambda_critical", False, bool, help="use the borderline coupling -((Q-2)/2)^2")
_A = Key("a", 0.0, help="weight exponent")
_P = Key("p", 2.0, help="nonlinearity power (> 1)")
_K = Key("k", 1, int, 1, help="time-derivative order")
_GRID = (
    Key("rho_min", 1e-3),
    Key("n_cells", 64, int, MIN_CELLS),
    Key("spacing", "uniform", str, choices=("uniform", "log"), flag=None),
    Key("t_end", 0.25, low=0.0, strict=True),
)
_BOUNDARY = Key("boundary_value", 0.1)

# subcommand -> (help, function, key table); artifacts echo the keys in table order
COMMANDS: dict[str, tuple[str, Callable[[dict], int], tuple[Key, ...]]] = {
    "verify-identities": ("run the group/calculus/quadrature identity suites",
                          cmd_verify_identities, (
        _N,
        _LAMBDA,
        Key("seed", 0, int, 0),
        *(Key(name, n, int, low, flag=None) for name, n, low in (
            ("n_triples", 2000, 1), ("n_points", 2000, 1), ("n_div_points", 40, 1),
            ("mc_samples", 200_000, MC_MIN_SAMPLES), ("harmonic_points", 800, 1),
            ("flux_nodes", 600, 1))),
        Key("tol_scale", 1.0, low=0.0, help="multiply every tolerance (0 forces failures)"),
        _OUT,
    )),
    "classify": ("verdict for a parameter tuple", cmd_classify,
                 (_N, _LAMBDA, _CRITICAL, _A, _P, _OUT)),
    "witness": ("build and verify an explicit supersolution", cmd_witness, (
        _N, _LAMBDA, _CRITICAL, _A, _P,
        Key("tau", None, help="decay exponent override"),
        Key("eps", None, help="amplitude override"),
        Key("beta", None, help="log-correction exponent override"),
        Key("grid", 200, int, 2, flag=None),
        Key("tol", 1e-10, low=0.0, flag=None),
        Key("seed", 11, int, 0),
        _OUT,
    )),
    "scaling": ("fit a cutoff scaling law", cmd_scaling, (
        Key("law", "time", str, choices=tuple(sorted(LAWS)), help="which scaling law to fit"),
        _N, _K,
        _LAMBDA._replace(default=None), _A._replace(default=None), _P._replace(default=None),
        Key("scales", None, list[float], 0.0, strict=True, help="scale grid"),
        _OUT,
        _CRITICAL,
    )),
    "integrate": ("cross-check weighted quadrature", cmd_integrate, (
        _N,
        Key("s", 0.0, help="gauge power to integrate"),
        Key("r_inner", 0.0, low=0.0),
        Key("r_outer", 1.0, low=0.0, strict=True),
        Key("tol", 1e-9, low=0.0, flag=None),
        _OUT,
    )),
    "simulate": ("run one radial evolution", cmd_simulate, (
        _N, _LAMBDA, _A._replace(default=2.0), _P, _K._replace(choices=(1, 2)),
        *_GRID,
        _BOUNDARY,
        Key("ic", "bump", str, choices=("bump", "zero")),
        Key("nonlinear", True, bool, flag="--linear", help="drop the nonlinear term"),
        _OUT,
        _CRITICAL,
    )),
    "phase-sweep": ("status sweep over parameter grids", cmd_phase_sweep, (
        _N,
        Key("lambda_list", [0.0], list[float]),
        Key("a_list", [-2.0, 2.0], list[float]),
        Key("p_list", [2.0], list[float]),
        _K._replace(choices=(1, 2)),
        *_GRID,
        _BOUNDARY._replace(flag=None),
        Key("threads", None, int, 1),
        _OUT,
    )),
    "report": ("aggregate suite reports", cmd_report, (
        Key("inputs", [], list[str], help="suite report JSON files"),
        _OUT,
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koranyi",
        description="numerical checks for weighted evolution inequalities on "
        "the gauge ball of a Heisenberg-type group",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, keys) in COMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
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
    try:
        return COMMANDS[args.command][1](resolve(args.command, args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a quadrature or solver refusal: nothing was certified
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
