"""The seven numerical subcommands, which `cli.main` runs through `RUN`.

Each takes the configuration `cli.resolve` checked and returns the exit
code, writing through `cli._finish` and `cli._emit`.  This module imports
numpy and every library layer, so `cli` imports it at the first numerical
command and not before."""

from __future__ import annotations

import csv
import json
import math
import sys
from typing import Callable, NamedTuple

import numpy as np

from .cli import UsageError, _check, _emit, _finish
from .hgroup import (GroupContext, HPoint, a_apply, compose, inverse, knorm_of, psi, psi_of,
                     random_points)
from .hcalc import egrad, hlap, hlap_divform, radial_lift, radial_lap
from .hquad import Annulus, mc_annulus, radial_integral, c_n
from .spectrum import (ProblemParams, alphas, check_k_boundary, check_k_harmonic, classify,
                       critical_lambda, existence_margin)
from .capacity import (DEFAULT_SCALES, FIT_MIN_POINTS, default_family, etas, j1_space_factors,
                       j1_time_factors, j2_space_factors, scaling_fit)
from .witness import build_critical, build_subcritical, verify_witness, witness_json
from .evolve import RadialGrid, canonical_bump, integrate, phase_sweep


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
    checks = []

    def identity(name, kind, worst, rule):
        """Check worst against the tolerance of kind, scaled by tol_scale."""
        tol = IDENTITY_TOLS[kind] * scale
        checks.append(_check(name, worst <= tol, worst, 0.0, tol, rule))

    # group axioms on random triples, all triples in one batch
    trip = rng.uniform(-1.0, 1.0, size=(cfg["n_triples"], 3, 2 * ctx.N + 1))
    g = [HPoint.from_flat(trip[:, k]) for k in range(3)]
    left = compose(compose(g[0], g[1]), g[2])
    right = compose(g[0], compose(g[1], g[2]))
    worst_assoc = _max_abs(left.flat() - right.flat())
    worst_inv = _max_abs(compose(g[0], inverse(g[0])).flat())
    identity("group-associativity", "group", worst_assoc,
             "composing three elements is independent of bracketing")
    identity("group-inverse", "group", worst_inv,
             "an element composed with its inverse is the identity")

    # |grad of the gauge|^2 equals the angular weight
    pts = random_points(ctx, rng, cfg["n_points"])
    grad = egrad(radial_lift(lambda r: r), pts)
    weight = psi(pts)
    q = (a_apply(pts, grad) * grad).sum(axis=-1)
    worst = _max_abs((q - weight) / (weight + 1e-15))
    identity("gauge-gradient", "grad", worst,
             "the horizontal gradient of the gauge has squared length psi")

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
    identity("radial-operator", "lap", worst,
             "on gauge-radial fields the operator reduces to its radial form times psi")

    # divergence form by central differences
    pts = random_points(ctx, rng, cfg["n_div_points"])
    field = radial_lift(lambda r: r**2)
    worst = _max_abs(hlap(field, pts) - hlap_divform(field, pts))
    identity("divergence-form", "div", worst,
             "the operator agrees with div(A grad .) assembled by finite differences")

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
    for lam_label, lam in (("given", cfg["lambda"]), ("critical", critical_lambda(ctx))):
        params = ProblemParams(ctx, lam, 0.0, 2.0)
        worst = check_k_harmonic(params, cfg["harmonic_points"], cfg["seed"] + 1)
        identity(f"barrier-harmonic-{lam_label}", "harmonic", worst,
                 "the radial barrier is annihilated by the operator away from the origin")

    # boundary flux identity
    params = ProblemParams(ctx, cfg["lambda"], 0.0, 2.0)
    worst = check_k_boundary(params, cfg["flux_nodes"])
    identity("boundary-flux", "flux", worst,
             "the conormal flux density of the barrier matches its radial slope times "
             "the angular weight")

    return _finish("verify-identities", cfg, checks)


# ---------------------------------------------------------------------------
# classify / witness
# ---------------------------------------------------------------------------

def _params_from(cfg: dict) -> ProblemParams:
    ctx = GroupContext(cfg["N"])
    lam = critical_lambda(ctx) if cfg["lambda_critical"] else cfg["lambda"]
    if cfg["lambda"] not in (None, 0.0, lam):  # an explicit lambda the flag would override
        raise UsageError(f"lambda = {cfg['lambda']:g} conflicts with lambda_critical, "
                         f"which sets lambda = {lam:g}")
    return ProblemParams(ctx, lam, cfg["a"], cfg["p"], cfg.get("k", 1))


def cmd_classify(cfg: dict) -> int:
    params = _params_from(cfg)
    result = classify(params)
    payload = _emit("classify", cfg, {
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
    })
    print(json.dumps(payload, indent=2))
    return 0


def cmd_witness(cfg: dict) -> int:
    params = _params_from(cfg)
    tol = cfg["tol"]
    # each construction has its own shape key; refuse the other's, not ignore it
    shape, other = ("beta", "tau") if params.is_critical else ("tau", "beta")
    if cfg[other] is not None:
        raise UsageError(f"{other} does not shape the witness at lambda = {params.lam:g}; "
                         f"use {shape}")
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
    if not cfg["out"]:
        print(json.dumps(payload, indent=2))
    return code


# ---------------------------------------------------------------------------
# scaling laws
# ---------------------------------------------------------------------------

R2_MIN = 0.95  # least r^2 of the log-decay fit


def _slope_check(name, fit, predicted, tol, rule):
    return _check(name, abs(fit.slope - predicted) <= tol, fit.slope, predicted, tol, rule)


def _time_rows(scales, params, iota):
    return [(s, q.value) for s, q in zip(scales, j1_time_factors(scales, params, iota))]


def _j2_rows(cutoff: str, abscissa: Callable):
    """Rows (abscissa(R), J2 space factor) for a cutoff.  J2 is int beta_T
    times this factor, and the time integral does not depend on R."""
    def rows(scales, params, iota):
        factors = j2_space_factors(cutoff, scales, params, iota)
        return [(abscissa(R), q.value) for R, q in zip(scales, factors)]

    return rows


def _domination_rows(scales, params, iota):
    factors = j1_space_factors("gamma", scales, params, iota)
    return [(R, q.value, env) for R, q, env in zip(scales, factors, etas(scales, params))]


def _time_checks(fit, rows, params, tol):
    return [_slope_check(
        "time-factor-slope", fit, 1.0 - params.k * params.p / (params.p - 1.0), tol,
        "the time factor scales like T to the power 1 - k p/(p-1)",
    )]


def _annulus_checks(fit, rows, params, tol):
    predicted = (params.a + 2.0 * params.p) / (params.p - 1.0) - params.Q \
        - alphas(params).alpha_minus
    rule = "the inner-cutoff elliptic factor grows like R to the predicted power"
    if params.is_critical:
        # the barrier -s^alpha ln s puts one factor ln R into the space factor;
        # the fit of R^predicted ln R over these scales adds the slope of ln R
        predicted += scaling_fit([(R, math.log(R)) for R, _ in rows]).slope
        rule += " times ln R, as the critical barrier carries a logarithm"
    return [_slope_check("annulus-slope", fit, predicted, tol, rule)]


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
    envs = [-math.inf] + [env for *_, env in sorted(rows)]  # in ascending scale
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
    judges them.  fitted marks a law whose rows are fitted as a power law, and
    critical one that holds only at critical coupling with zero margin.
    """

    defaults: dict
    tol_slope: float
    scales: tuple
    columns: tuple
    rows: Callable
    checks: Callable
    fitted: bool = True
    critical: bool = False


_PLAIN = {"lambda": 0.0, "a": 0.0, "p": 2.0}
# critical coupling -((Q-2)/2)^2 = -N^2, and the p of zero margin there: a + 2 = N (p - 1)
_CRITICAL_ZERO_MARGIN = {"lambda": lambda cfg: critical_lambda(GroupContext(cfg["N"])), "a": 0.0,
                         "p": lambda cfg: 1.0 + (cfg["a"] + 2.0) / cfg["N"]}

LAWS = {
    "time": Law(_PLAIN, 0.05, DEFAULT_SCALES, ("T", "value"), _time_rows, _time_checks),
    "annulus": Law(_PLAIN, 0.1, DEFAULT_SCALES, ("R", "value"), _j2_rows("gamma", lambda R: R),
                   _annulus_checks),
    "logdecay": Law(_CRITICAL_ZERO_MARGIN, 0.1,
                    tuple(10.0**e for e in (2, 5, 8, 11, 14, 17, 20)), ("lnR", "value"),
                    _j2_rows("mu", math.log), _logdecay_checks, critical=True),
    "domination": Law(_PLAIN, 0.0, tuple(10.0**e for e in (1, 1.5, 2, 2.5, 3)),
                      ("R", "space_factor", "eta"), _domination_rows, _domination_checks,
                      fitted=False),
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
    scales = law.scales if cfg["scales"] is None else cfg["scales"]
    least = FIT_MIN_POINTS if law.fitted else 2  # one scale leaves nothing to compare
    if len(scales) < least:
        why = f"the {name} law fits a power law, so " if law.fitted else ""
        raise UsageError(f"{why}scales needs at least {least} values, got {len(scales)}")
    rows = law.rows(scales, params, iota)
    _emit("scaling", cfg, tables=[(f"scaling-{name}.csv", law.columns, rows)])
    fit, extra = None, {}
    if law.fitted:
        fit = scaling_fit(rows)
        extra["fit"] = {"slope": fit.slope, "r_squared": fit.r_squared}
    return _finish("scaling", cfg, law.checks(fit, rows, params, law.tol_slope), extra=extra)


# ---------------------------------------------------------------------------
# integrate / simulate / phase-sweep
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
    result = integrate(params, u0, grid, t_end=cfg["t_end"],
                       boundary_value=cfg["boundary_value"], nonlinear=cfg["nonlinear"])
    sup_final = result.sup_norm_history[-1][1]
    _emit("simulate", cfg, {
        "status": result.status,
        "blow_up_time": result.blow_up_time,
        "t_final": result.t_final,
        "dt_policy": result.dt_policy,
        "grid": grid.describe(),
        "sup_final": sup_final,
        "note": result.note,
        "end_reason": result.end_reason,
        "steps": result.steps,
        "rejected": result.rejected,
    }, tables=[("simulate-history.csv", ("t", "sup_norm"), result.sup_norm_history)])
    print(f"simulate: {result.status} (t_final={result.t_final:.6g}, sup={sup_final:.6g})")
    return 0


def cmd_phase_sweep(cfg: dict) -> int:
    ctx = GroupContext(cfg["N"])
    lams, avals, pvals = cfg["lambda_list"], cfg["a_list"], cfg["p_list"]
    if not (lams and avals and pvals):
        raise UsageError("phase-sweep needs nonempty lambda_list, a_list, p_list")
    rows = phase_sweep(
        lams, avals, pvals, ctx, k=cfg["k"],
        grid=RadialGrid(cfg["rho_min"], cfg["n_cells"], cfg["spacing"]),
        t_end=cfg["t_end"], boundary_value=cfg["boundary_value"],
    )
    header = tuple(rows[0])
    csv_rows = [tuple(row[key] for key in header) for row in rows]
    _emit("phase-sweep", cfg, tables=[("phase-sweep.csv", header, csv_rows)])
    for row in rows:
        print(f"lambda={row['lambda']:g} a={row['a']:g} p={row['p']:g}: "
              f"{row['status']} (verdict {row['classifier_verdict']})")
    if not cfg["out"]:
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(csv_rows)
    return 0


RUN = {"verify-identities": cmd_verify_identities, "classify": cmd_classify,
       "witness": cmd_witness, "scaling": cmd_scaling, "integrate": cmd_integrate,
       "simulate": cmd_simulate, "phase-sweep": cmd_phase_sweep}
