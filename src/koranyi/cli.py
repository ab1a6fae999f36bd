"""Command-line front end tying the library together.

Eight subcommands: identity suites (verify-identities), the parameter
classifier (classify), explicit supersolutions (witness), scaling-law fits
(scaling), quadrature cross-checks (integrate), single radial runs
(simulate), status sweeps (phase-sweep), and report aggregation (report).

Every command starts from built-in defaults, overlays an optional JSON
config file, then overlays explicit flags, and embeds the effective
configuration in whatever it emits, so each artifact records how it was
produced.  Reports are JSON, sweeps and fits also land as CSV, and SVG
plots appear only when matplotlib is importable.

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
from typing import Optional

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
from .hquad import Annulus, mc_annulus, radial_integral, c_n
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
    beta_time_integral,
    default_family,
    eta,
    j1_space_factor,
    j1_time_factor,
    j2,
    scaling_fit,
)
from .witness import build_critical, build_subcritical, verify_witness, witness_json
from .evolve import RadialGrid, canonical_bump, integrate, phase_sweep


class UsageError(Exception):
    """Bad flags, unreadable config, or inadmissible parameters; exit 2."""


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

DEFAULTS: dict[str, dict] = {
    "verify-identities": {
        "N": 1,
        "lambda": 0.0,
        "seed": 0,
        "n_triples": 2000,
        "n_points": 2000,
        "n_div_points": 40,
        "mc_samples": 200_000,
        "harmonic_points": 800,
        "flux_nodes": 600,
        "tol_group": 1e-12,
        "tol_grad": 1e-10,
        "tol_lap": 1e-10,
        "tol_div": 1e-5,
        "tol_harmonic": 1e-8,
        "tol_flux": 1e-6,
        "tol_scale": 1.0,
        "out": None,
    },
    "classify": {
        "N": 1,
        "lambda": 0.0,
        "lambda_critical": False,
        "a": 0.0,
        "p": 2.0,
        "out": None,
    },
    "witness": {
        "N": 1,
        "lambda": 0.0,
        "lambda_critical": False,
        "a": 0.0,
        "p": 2.0,
        "tau": None,
        "eps": None,
        "beta": None,
        "grid": 200,
        "tol": 1e-10,
        "rho_min": 1e-4,
        "seed": 11,
        "out": None,
    },
    "scaling": {
        "law": "time",
        "N": 1,
        "k": 1,
        "lambda": None,
        "a": None,
        "p": None,
        "iota": None,
        "scales": None,
        "T": 50.0,
        "tol_slope": None,
        "r2_min": 0.95,
        "out": None,
    },
    "integrate": {
        "N": 1,
        "s": 0.0,
        "r_inner": 0.0,
        "r_outer": 1.0,
        "tol": 1e-9,
        "out": None,
    },
    "simulate": {
        "N": 1,
        "lambda": 0.0,
        "a": 2.0,
        "p": 2.0,
        "k": 1,
        "rho_min": 1e-3,
        "n_cells": 64,
        "spacing": "uniform",
        "t_end": 0.25,
        "boundary_value": 0.1,
        "ic": "bump",
        "nonlinear": True,
        "out": None,
    },
    "phase-sweep": {
        "N": 1,
        "lambda_list": [0.0],
        "a_list": [-2.0, 2.0],
        "p_list": [2.0],
        "k": 1,
        "rho_min": 1e-3,
        "n_cells": 64,
        "spacing": "uniform",
        "t_end": 0.25,
        "boundary_value": 0.1,
        "threads": None,
        "out": None,
    },
    "report": {
        "inputs": [],
        "out": None,
    },
}


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise UsageError(f"config {path} must be a JSON object")
    return cfg


def _effective_config(command: str, args: argparse.Namespace) -> dict:
    """defaults <- config file <- explicit flags, later layers winning."""
    cfg = dict(DEFAULTS[command])
    if getattr(args, "config", None):
        file_cfg = _load_config(args.config)
        unknown = set(file_cfg) - set(cfg)
        if unknown:
            raise UsageError(
                f"config keys not understood by {command}: {sorted(unknown)}"
            )
        cfg.update(file_cfg)
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        cfg[key.replace("_flag", "")] = value
    return cfg


def _number(cfg: dict, key: str, low: float = -math.inf, strict: bool = False,
          optional: bool = False, integer: bool = False):
    """cfg[key] as a finite float, or an int if integer, no smaller than low
    (larger, if strict).

    None passes only for optional keys.  Strings and booleans are refused, so
    a config file cannot smuggle in "nan" or true where a number belongs.
    """
    value = cfg[key]
    if value is None and optional:
        return None
    kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    if isinstance(value, bool) or not isinstance(value, kinds):
        kind = "an integer" if integer else "a number"
        raise UsageError(f"{key} must be {kind}, got {value!r}")
    x = int(value) if integer else float(value)
    if not math.isfinite(x):
        raise UsageError(f"{key} must be finite, got {value!r}")
    if x < low or (strict and x == low):
        raise UsageError(f"{key} must be {'>' if strict else '>='} {low:g}, got {x:g}")
    return x


def _numbers(cfg: dict, key: str, low: float = -math.inf, strict: bool = False) -> list[float]:
    """Every entry of the list cfg[key] through `_number`."""
    values = cfg[key]
    if not isinstance(values, (list, tuple)):
        raise UsageError(f"{key} must be a list of numbers, got {values!r}")
    return [_number({key: v}, key, low, strict) for v in values]


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
        "config": {k: v for k, v in cfg.items() if k != "out"},
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

def _max_abs(values) -> float:
    """Largest absolute value (NaN propagates); 0 for no values."""
    return float(np.max(np.abs(values), initial=0.0))


def cmd_verify_identities(cfg: dict) -> int:
    ctx = GroupContext(cfg["N"])
    _number(cfg, "lambda")
    for key in ("seed", "n_triples", "n_points", "n_div_points", "mc_samples",
                "harmonic_points", "flux_nodes"):
        _number(cfg, key, 0 if key == "seed" else 1, integer=True)
    for key in ("tol_group", "tol_grad", "tol_lap", "tol_div", "tol_harmonic", "tol_flux"):
        _number(cfg, key, 0.0)
    rng = np.random.default_rng(int(cfg["seed"]))
    scale = _number(cfg, "tol_scale", 0.0)
    checks = []

    def tol(key):
        return float(cfg[key]) * scale

    # group axioms on random triples, all triples in one batch
    trip = rng.uniform(-1.0, 1.0, size=(int(cfg["n_triples"]), 3, 2 * ctx.N + 1))
    g = [HPoint.from_flat(trip[:, k]) for k in range(3)]
    left = compose(compose(g[0], g[1]), g[2])
    right = compose(g[0], compose(g[1], g[2]))
    worst_assoc = _max_abs(left.flat() - right.flat())
    worst_inv = _max_abs(compose(g[0], inverse(g[0])).flat())
    checks.append(_check(
        "group-associativity", worst_assoc <= tol("tol_group"), worst_assoc, 0.0,
        tol("tol_group"), "composing three elements is independent of bracketing",
    ))
    checks.append(_check(
        "group-inverse", worst_inv <= tol("tol_group"), worst_inv, 0.0,
        tol("tol_group"), "an element composed with its inverse is the identity",
    ))

    # |grad of the gauge|^2 equals the angular weight
    pts = random_points(ctx, rng, int(cfg["n_points"]))
    grad = egrad(radial_lift(lambda r: r), pts)
    weight = psi(pts)
    q = (a_apply(pts, grad) * grad).sum(axis=-1)
    worst = _max_abs((q - weight) / (weight + 1e-15))
    checks.append(_check(
        "gauge-gradient", worst <= tol("tol_grad"), worst, 0.0, tol("tol_grad"),
        "the horizontal gradient of the gauge has squared length psi",
    ))

    # radial form of the operator against the full AD evaluation
    profiles = [lambda r: r**2, lambda r: 1.0 / (1.0 + r**2)]
    pts = random_points(ctx, rng, max(50, int(cfg["n_points"]) // 20))
    rho = knorm_of(*pts.coords())
    weight = psi(pts)
    worst = 0.0
    for F in profiles:
        full = hlap(radial_lift(F), pts)
        rad = weight * radial_lap(F, rho, ctx)
        worst = max(worst, _max_abs((full - rad) / (np.abs(rad) + 1e-15)))
    checks.append(_check(
        "radial-operator", worst <= tol("tol_lap"), worst, 0.0, tol("tol_lap"),
        "on gauge-radial fields the operator reduces to its radial form times psi",
    ))

    # divergence form by central differences
    pts = random_points(ctx, rng, int(cfg["n_div_points"]))
    field = radial_lift(lambda r: r**2)
    worst = _max_abs(hlap(field, pts) - hlap_divform(field, pts))
    checks.append(_check(
        "divergence-form", worst <= tol("tol_div"), worst, 0.0, tol("tol_div"),
        "the operator agrees with div(A grad .) assembled by finite differences",
    ))

    # quadrature vs Monte Carlo on one family member
    ann = Annulus(0.25, 1.0)
    qr = radial_integral(lambda r: r**2, ann, ctx)
    mc = mc_annulus(
        lambda x, y, phi: psi_of(x, y, phi) * knorm_of(x, y, phi) ** 2,
        ann, int(cfg["mc_samples"]), int(cfg["seed"]), ctx,
    )
    band = 3.0 * (mc.error_estimate + qr.error_estimate) * scale
    diff = abs(qr.value - mc.value)
    checks.append(_check(
        "quadrature-vs-mc", diff <= band, diff, 0.0, band,
        "the weighted radial quadrature matches Monte Carlo within 3 sigma",
    ))

    # barrier harmonicity at the configured lambda and at critical coupling
    for lam_label, lam in (("given", float(cfg["lambda"])), ("critical", None)):
        params = ProblemParams(ctx, lam if lam is not None else -((ctx.Q - 2) / 2.0) ** 2,
                               0.0, 2.0)
        rep = check_k_harmonic(params, n_points=int(cfg["harmonic_points"]),
                               tol=tol("tol_harmonic"), seed=int(cfg["seed"]) + 1)
        checks.append(_check(
            f"barrier-harmonic-{lam_label}", rep.passed, rep.max_scaled_residual,
            0.0, tol("tol_harmonic"),
            "the radial barrier is annihilated by the operator away from the origin",
        ))

    # boundary flux identity
    params = ProblemParams(ctx, float(cfg["lambda"]), 0.0, 2.0)
    rep = check_k_boundary(params, nodes=int(cfg["flux_nodes"]), tol=tol("tol_flux"))
    checks.append(_check(
        "boundary-flux", rep.passed, rep.max_scaled_residual, 0.0, tol("tol_flux"),
        "the conormal flux density of the barrier matches its radial slope times "
        "the angular weight",
    ))

    return _finish("verify-identities", cfg, checks)


# ---------------------------------------------------------------------------
# classify / witness
# ---------------------------------------------------------------------------

def _params_from(cfg: dict, k: int = 1) -> ProblemParams:
    ctx = GroupContext(cfg["N"])
    lam = _number(cfg, "lambda")
    if cfg.get("lambda_critical"):
        lam = -((ctx.Q - 2) / 2.0) ** 2
    try:
        return ProblemParams(ctx, lam, _number(cfg, "a"), _number(cfg, "p"), k)
    except ValueError as exc:
        raise UsageError(str(exc))


def cmd_classify(cfg: dict) -> int:
    params = _params_from(cfg)
    result = classify(params)
    payload = {
        "suite": "classify",
        "config": {k: v for k, v in cfg.items() if k != "out"},
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
    tau, eps, beta = (_number(cfg, key, optional=True) for key in ("tau", "eps", "beta"))
    tol = _number(cfg, "tol", 0.0)
    try:
        if params.is_critical:
            w = build_critical(params, beta=beta, eps=eps)
        else:
            w = build_subcritical(params, tau=tau, eps=eps)
    except ValueError as exc:
        raise UsageError(str(exc))
    report = verify_witness(
        w,
        grid=_number(cfg, "grid", 2, integer=True),
        tol=tol,
        rho_bounds=(_number(cfg, "rho_min", 0.0, strict=True), 1.0),
        seed=_number(cfg, "seed", 0, integer=True),
    )
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

_LAW_DEFAULTS = {
    "time": {"lambda": 0.0, "a": 0.0, "p": 2.0, "tol_slope": 0.05},
    "annulus": {"lambda": 0.0, "a": 0.0, "p": 2.0, "tol_slope": 0.1},
    "logdecay": {"lambda": -1.0, "a": 0.0, "p": 3.0, "tol_slope": 0.1},
    "domination": {"lambda": 0.0, "a": 0.0, "p": 2.0, "tol_slope": 0.0},
}


def cmd_scaling(cfg: dict) -> int:
    law = cfg["law"]
    if law not in _LAW_DEFAULTS:
        raise UsageError(f"unknown law {law!r}; pick from {sorted(_LAW_DEFAULTS)}")
    for key, value in _LAW_DEFAULTS[law].items():
        if cfg.get(key) is None:
            cfg[key] = value
    _number(cfg, "tol_slope", 0.0)
    _number(cfg, "r2_min")
    T = _number(cfg, "T", 0.0, strict=True)
    if cfg["scales"] is not None:
        _numbers(cfg, "scales", 0.0, strict=True)

    params = _params_from(cfg, k=_number(cfg, "k", 1, integer=True))
    fam = default_family(params, iota=_number(cfg, "iota", optional=True))
    out = _out_dir(cfg)
    checks = []
    extra: dict = {}

    if law == "time":
        scales = cfg["scales"] or list(DEFAULT_SCALES)
        points = [(T, j1_time_factor(T, params, fam).value) for T in scales]
        fit = scaling_fit(points)
        predicted = 1.0 - params.k * params.p / (params.p - 1.0)
        checks.append(_check(
            "time-factor-slope", abs(fit.slope - predicted) <= cfg["tol_slope"],
            fit.slope, predicted, cfg["tol_slope"],
            "the time factor scales like T to the power 1 - k p/(p-1)",
        ))
        extra["fit"] = {"slope": fit.slope, "r_squared": fit.r_squared}
        _write_csv(out, "scaling-time.csv", ("T", "value"), points,
                   comment=json.dumps({k: v for k, v in cfg.items() if k != "out"}))
        _plot_fit(out, "scaling-time", points, fit, "time factor")

    elif law == "annulus":
        scales = cfg["scales"] or list(DEFAULT_SCALES)
        denom = beta_time_integral(T, fam).value
        points = [(R, j2("gamma", T, R, params, fam).value / denom) for R in scales]
        fit = scaling_fit(points)
        predicted = (params.a + 2.0 * params.p) / (params.p - 1.0) - params.Q \
            - alphas(params).alpha_minus
        checks.append(_check(
            "annulus-slope", abs(fit.slope - predicted) <= cfg["tol_slope"],
            fit.slope, predicted, cfg["tol_slope"],
            "the inner-cutoff elliptic factor grows like R to the predicted power",
        ))
        extra["fit"] = {"slope": fit.slope, "r_squared": fit.r_squared}
        _write_csv(out, "scaling-annulus.csv", ("R", "value"), points,
                   comment=json.dumps({k: v for k, v in cfg.items() if k != "out"}))
        _plot_fit(out, "scaling-annulus", points, fit, "inner-cutoff factor")

    elif law == "logdecay":
        margin = existence_margin(params)
        if not params.is_critical or abs(margin) > 1e-9 * (1.0 + abs(params.a)):
            raise UsageError(
                "the log-decay law applies at critical coupling with zero margin; "
                f"got margin {margin:.3e}"
            )
        scales = cfg["scales"] or [10.0**e for e in (2, 5, 8, 11, 14, 17, 20)]
        denom = beta_time_integral(T, fam).value
        points = [
            (math.log(R), j2("mu", T, R, params, fam).value / denom) for R in scales
        ]
        fit = scaling_fit(points)
        derived = -2.0 / (params.p - 1.0)
        onesided = -1.0 / (params.p - 1.0)
        checks.append(_check(
            "logdecay-r2", fit.r_squared >= cfg["r2_min"], fit.r_squared,
            f"≥ {cfg['r2_min']}", cfg["r2_min"],
            "the log-cutoff elliptic factor follows a power of ln R",
        ))
        checks.append(_check(
            "logdecay-slope", abs(fit.slope - derived) <= cfg["tol_slope"],
            fit.slope, derived, cfg["tol_slope"],
            "the measured ln R power matches the exact cancellation rate -2/(p-1)",
        ))
        checks.append(_check(
            "logdecay-upper", fit.slope <= onesided + cfg["tol_slope"],
            fit.slope, f"≤ {onesided}", cfg["tol_slope"],
            "the decay is at least as fast as the one-sided rate -1/(p-1)",
        ))
        extra["fit"] = {"slope": fit.slope, "r_squared": fit.r_squared}
        _write_csv(out, "scaling-logdecay.csv", ("lnR", "value"), points,
                   comment=json.dumps({k: v for k, v in cfg.items() if k != "out"}))
        _plot_fit(out, "scaling-logdecay", points, fit, "log-cutoff factor")

    else:  # domination
        scales = cfg["scales"] or [10.0**e for e in (1, 1.5, 2, 2.5, 3)]
        rows = []
        worst_gap = -math.inf
        prev_eta = -math.inf
        monotone = True
        for R in scales:
            env = eta(R, params)
            sf = j1_space_factor("gamma", R, params, fam).value
            rows.append((R, sf, env))
            worst_gap = max(worst_gap, sf - env)
            monotone = monotone and env >= prev_eta - 1e-12 * abs(env)
            prev_eta = env
        checks.append(_check(
            "domination-gap", worst_gap <= 1e-9, worst_gap, "≤ 0", 1e-9,
            "every cutoff space factor stays below the envelope integral",
        ))
        checks.append(_check(
            "domination-monotone", monotone, float(monotone), 1.0, 0.0,
            "the envelope integral is nondecreasing in the scale",
        ))
        _write_csv(out, "scaling-domination.csv", ("R", "space_factor", "eta"), rows,
                   comment=json.dumps({k: v for k, v in cfg.items() if k != "out"}))

    return _finish("scaling", cfg, checks, extra=extra)


# ---------------------------------------------------------------------------
# integrate / simulate / phase-sweep / report
# ---------------------------------------------------------------------------

def cmd_integrate(cfg: dict) -> int:
    ctx = GroupContext(cfg["N"])
    s = _number(cfg, "s")
    tol = _number(cfg, "tol", 0.0)
    ann = Annulus(_number(cfg, "r_inner", 0.0), _number(cfg, "r_outer", 0.0, strict=True))
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


def _grid_from(cfg: dict) -> RadialGrid:
    try:
        return RadialGrid(_number(cfg, "rho_min"), _number(cfg, "n_cells", 0, integer=True),
                          cfg["spacing"])
    except ValueError as exc:
        raise UsageError(str(exc))


def cmd_simulate(cfg: dict) -> int:
    params = _params_from(cfg, k=_number(cfg, "k", 1, integer=True))
    if params.k not in (1, 2):
        raise UsageError("only first and second order time derivatives are supported")
    t_end = _number(cfg, "t_end", 0.0, strict=True)
    boundary_value = _number(cfg, "boundary_value")
    grid = _grid_from(cfg)
    rho = grid.nodes()
    if cfg["ic"] == "bump":
        u0 = canonical_bump(rho)
    elif cfg["ic"] == "zero":
        u0 = np.zeros_like(rho)
    else:
        raise UsageError(f"unknown initial profile {cfg['ic']!r}")
    ic = u0 if params.k == 1 else np.stack([u0, np.zeros_like(u0)])
    result = integrate(params, ic, grid, t_end=t_end, boundary_value=boundary_value,
                       nonlinear=bool(cfg["nonlinear"]))
    payload = {
        "suite": "simulate",
        "config": {k: v for k, v in cfg.items() if k != "out"},
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
    lams, avals, pvals = (_numbers(cfg, key) for key in ("lambda_list", "a_list", "p_list"))
    if not (lams and avals and pvals):
        raise UsageError("phase-sweep needs nonempty lambda_list, a_list, p_list")
    rows = phase_sweep(
        lams, avals, pvals, ctx,
        k=_number(cfg, "k", 1, integer=True),
        grid=_grid_from(cfg),
        t_end=_number(cfg, "t_end", 0.0, strict=True),
        boundary_value=_number(cfg, "boundary_value"),
        threads=_number(cfg, "threads", 1, optional=True, integer=True),
    )
    header = ("lambda", "a", "p", "k", "status", "blow_up_time",
              "classifier_verdict", "grid", "dt_policy")
    csv_rows = [
        tuple("" if row[key] is None else row[key] for key in header) for row in rows
    ]
    out = _out_dir(cfg)
    _write_csv(out, "phase-sweep.csv", header, csv_rows,
               comment=json.dumps({k: v for k, v in cfg.items() if k != "out"}))
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
        doc = _load_config(str(path))
        summary = doc.get("summary")
        if not isinstance(summary, dict) or "total" not in summary:
            raise UsageError(f"{path} does not look like a suite report")
        suites.append({
            "suite": doc.get("suite", Path(path).stem),
            "passed": summary.get("passed", 0),
            "failed": summary.get("failed", 0),
        })
        total += summary["total"]
        passed += summary.get("passed", 0)
    payload = {
        "suite": "report",
        "config": {k: v for k, v in cfg.items() if k != "out"},
        "suites": suites,
        "summary": {"total": total, "passed": passed, "failed": total - passed},
    }
    for s in suites:
        print(f"{s['suite']}: {s['passed']} passed, {s['failed']} failed")
    print(f"report: {passed}/{total} checks passed overall")
    _write_json(_out_dir(cfg), "report.json", payload)
    return 0 if passed == total else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--config", help="JSON config file (flags override it)")
    sub.add_argument("--out", help="directory for JSON/CSV/SVG artifacts")


def _add_params(sub, with_k=False):
    sub.add_argument("--N", type=int, help="number of horizontal layer pairs")
    sub.add_argument("--lambda", dest="lambda", type=float,
                     help="inverse-square coupling")
    sub.add_argument("--lambda-critical", dest="lambda_critical",
                     action="store_const", const=True,
                     help="use the borderline coupling -((Q-2)/2)^2")
    sub.add_argument("--a", type=float, help="weight exponent")
    sub.add_argument("--p", type=float, help="nonlinearity power (> 1)")
    if with_k:
        sub.add_argument("--k", type=int, help="time-derivative order")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koranyi",
        description="numerical checks for weighted evolution inequalities on "
        "the gauge ball of a Heisenberg-type group",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("verify-identities",
                          help="run the group/calculus/quadrature identity suites")
    _add_common(sub)
    sub.add_argument("--N", type=int)
    sub.add_argument("--lambda", dest="lambda", type=float)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--tol-scale", dest="tol_scale", type=float,
                     help="multiply every tolerance (0 forces failures)")

    sub = subs.add_parser("classify", help="verdict for a parameter tuple")
    _add_common(sub)
    _add_params(sub)

    sub = subs.add_parser("witness", help="build and verify an explicit supersolution")
    _add_common(sub)
    _add_params(sub)
    sub.add_argument("--tau", type=float, help="decay exponent override")
    sub.add_argument("--eps", type=float, help="amplitude override")
    sub.add_argument("--beta", type=float, help="log-correction exponent override")
    sub.add_argument("--seed", type=int)

    sub = subs.add_parser("scaling", help="fit a cutoff scaling law")
    _add_common(sub)
    _add_params(sub, with_k=True)
    sub.add_argument("--law", choices=sorted(_LAW_DEFAULTS),
                     help="which scaling law to fit")
    sub.add_argument("--scales", type=float, nargs="+", help="scale grid")

    sub = subs.add_parser("integrate", help="cross-check weighted quadrature")
    _add_common(sub)
    sub.add_argument("--N", type=int)
    sub.add_argument("--s", type=float, help="gauge power to integrate")
    sub.add_argument("--r-inner", dest="r_inner", type=float)
    sub.add_argument("--r-outer", dest="r_outer", type=float)

    sub = subs.add_parser("simulate", help="run one radial evolution")
    _add_common(sub)
    _add_params(sub, with_k=True)
    sub.add_argument("--rho-min", dest="rho_min", type=float)
    sub.add_argument("--n-cells", dest="n_cells", type=int)
    sub.add_argument("--t-end", dest="t_end", type=float)
    sub.add_argument("--boundary-value", dest="boundary_value", type=float)
    sub.add_argument("--ic", choices=("bump", "zero"))
    sub.add_argument("--linear", dest="nonlinear", action="store_const", const=False,
                     help="drop the nonlinear term")

    sub = subs.add_parser("phase-sweep", help="status sweep over parameter grids")
    _add_common(sub)
    sub.add_argument("--N", type=int)
    sub.add_argument("--k", type=int)
    sub.add_argument("--lambda-list", dest="lambda_list", type=float, nargs="+")
    sub.add_argument("--a-list", dest="a_list", type=float, nargs="+")
    sub.add_argument("--p-list", dest="p_list", type=float, nargs="+")
    sub.add_argument("--rho-min", dest="rho_min", type=float)
    sub.add_argument("--n-cells", dest="n_cells", type=int)
    sub.add_argument("--t-end", dest="t_end", type=float)
    sub.add_argument("--threads", type=int)

    sub = subs.add_parser("report", help="aggregate suite reports")
    _add_common(sub)
    sub.add_argument("--inputs", nargs="+", help="suite report JSON files")

    return parser


_DISPATCH = {
    "verify-identities": cmd_verify_identities,
    "classify": cmd_classify,
    "witness": cmd_witness,
    "scaling": cmd_scaling,
    "integrate": cmd_integrate,
    "simulate": cmd_simulate,
    "phase-sweep": cmd_phase_sweep,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _effective_config(args.command, args)
        return _DISPATCH[args.command](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
