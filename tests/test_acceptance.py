"""Package-level acceptance suite.

Nine end-to-end criteria, one test each, covering the whole toolkit: the
group calculus, the polar integration formula, the radial barrier and its
boundary flux, the existence classifier, witness verification, the capacity
scaling laws, the nonexistence probe, the evolution solver, and the CLI.
Each test prints a single [PASS]/[FAIL] line (visible under pytest -s) and
enforces a wall-clock budget, so the suite doubles as a health report.
"""

import csv
import json
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
from pytest import approx

from koranyi import hgroup, spectrum
from koranyi.hgroup import GroupContext, HPoint, compose, inverse, knorm_of, psi, psi_of
from koranyi.hcalc import hlap, hlap_divform, radial_lap, radial_lift
from koranyi.hquad import Annulus, mc_annulus, radial_integral
from koranyi.spectrum import (
    ProblemParams,
    Verdict,
    check_k_boundary,
    check_k_harmonic,
    classify,
    existence_margin,
    flux_pair,
    liminf_probe,
)
from koranyi.capacity import (
    DEFAULT_SCALES,
    default_family,
    j1_time_factor,
    j2_space_factors,
    scaling_fit,
)
from koranyi.witness import (
    build_critical,
    build_subcritical,
    eps_bound_critical,
    tau_window,
    verify_witness,
)
from koranyi.evolve import RadialGrid, integrate

from conftest import hgrad, mms_initial_layers, mms_neumann, mms_reference, mms_source


CTX1 = GroupContext(1)
CTX2 = GroupContext(2)
REPO = Path(__file__).resolve().parent.parent


def params(lam, a=0.0, p=2.0, k=1, N=1):
    return ProblemParams(GroupContext(N), lam, a, p, k)


@contextmanager
def criterion(index, name, budget_s):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {index}/9 {name}")
        raise
    dt = time.monotonic() - t0
    assert dt < budget_s, f"{name}: {dt:.1f} s exceeds the {budget_s:.0f} s budget"
    print(f"[PASS] {index}/9 {name} ({dt:.1f} s)")


def coord_gap(u: HPoint, v: HPoint) -> float:
    """Largest coordinate difference over a batch of points."""
    return float(np.abs(u.flat() - v.flat()).max())


def batch_points(ctx, n, seed):
    """The points `conftest.random_points` draws from `seed`, as one batch."""
    return hgroup.random_points(ctx, np.random.default_rng(seed), n)


# ---------------------------------------------------------------------------
# 1. group law and calculus identities
# ---------------------------------------------------------------------------

def test_1_group_and_calculus_identities():
    with criterion(1, "group-calculus-identities", 10.0):
        for ctx, n_triples, base in ((CTX1, 10_000, 100), (CTX2, 2_000, 200)):
            a, b, c = (batch_points(ctx, n_triples, seed=base + i) for i in (1, 2, 3))
            e = HPoint(np.zeros((1, ctx.N)), np.zeros((1, ctx.N)), np.zeros(1))
            worst = max(
                coord_gap(compose(compose(a, b), c), compose(a, compose(b, c))),
                coord_gap(compose(a, e), a),
                coord_gap(compose(a, inverse(a)), e),
            )
            assert worst <= 1e-12, f"group axiom residual {worst:.3e} at N={ctx.N}"

        gauge = radial_lift(lambda r: r)
        pts = batch_points(CTX1, 10_000, seed=11)
        g = hgrad(gauge, pts)
        weight = psi(pts)
        gap = np.abs((g * g).sum(axis=-1) - weight)
        assert np.all(gap <= np.maximum(1e-10 * weight, 1e-12))
        assert np.max(gap / np.maximum(weight, 1e-2)) <= 1e-10

        profiles = (lambda r: r**2, lambda r: 1.0 / (1.0 + r * r))
        for ctx, n_pts in ((CTX1, 200), (CTX2, 50)):
            pts = batch_points(ctx, n_pts, seed=23)
            r = knorm_of(pts.x, pts.y, pts.phi)
            for F in profiles:
                assert hlap(radial_lift(F), pts) == approx(
                    psi(pts) * radial_lap(F, r, ctx), rel=1e-10, abs=1e-12
                )

        field = radial_lift(lambda r: r**2)
        pts = batch_points(CTX1, 40, seed=29)
        assert hlap_divform(field, pts) == approx(hlap(field, pts), abs=1e-5)


# ---------------------------------------------------------------------------
# 2. polar formula against Monte Carlo
# ---------------------------------------------------------------------------

def test_2_polar_formula_vs_monte_carlo():
    with criterion(2, "polar-formula-vs-monte-carlo", 60.0):
        res = radial_integral(lambda r: 1.0, Annulus(0.0, 1.0), CTX1)
        assert res.value == approx(math.pi, rel=1e-10)

        bad = []
        case = 0
        for ctx in (CTX1, CTX2):
            for s in (-ctx.Q + 0.5, -2.0, 0.0, 1.0, 3.0):
                for ann in (Annulus(0.1, 1.0), Annulus(0.0, 1.0)):
                    case += 1
                    qr = radial_integral(lambda r: r**s, ann, ctx)
                    mc = mc_annulus(
                        lambda x, y, phi: psi_of(x, y, phi)
                        * knorm_of(x, y, phi) ** s,
                        ann, samples=1_000_000, seed=1009 + 13 * case, ctx=ctx,
                    )
                    band = 3.0 * (mc.error_estimate + qr.error_estimate)
                    if abs(mc.value - qr.value) > band:
                        bad.append((ctx.N, s, ann, mc.value, qr.value, band))
        assert not bad, f"{len(bad)} family members outside 3 sigma: {bad}"


# ---------------------------------------------------------------------------
# 3. radial barrier: interior identity and boundary flux
# ---------------------------------------------------------------------------

def test_3_barrier_harmonicity_and_flux(monkeypatch):
    flux_points = []  # the size of each batch `check_k_boundary` sends to `flux_pair`

    def counted_flux_pair(pp, xi):
        flux_points.append(xi.phi.size)
        return flux_pair(pp, xi)

    monkeypatch.setattr(spectrum, "flux_pair", counted_flux_pair)
    with criterion(3, "barrier-harmonicity-and-flux", 30.0):
        for lam in (-1.0, -0.9, 0.0, 3.0):
            pp = params(lam)
            worst = check_k_harmonic(pp, n_points=2000, seed=5)
            assert worst <= 1e-8, f"lambda={lam}: {worst:.3e}"
            flux_points.clear()
            worst = check_k_boundary(pp, nodes=1200)
            assert sum(flux_points) >= 1000
            assert worst <= 1e-6, f"lambda={lam}: {worst:.3e}"

        measured, predicted = flux_pair(
            params(0.0), HPoint(np.array([[1.0]]), np.array([[0.0]]), np.array([0.0]))
        )
        assert measured == approx(-2.0, rel=1e-10)
        assert predicted == approx(-2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# 4. the existence classifier
# ---------------------------------------------------------------------------

FIXTURES = [
    # (lambda, a, p, verdict): margin = (a+2) - (Q-2+alpha-)(p-1) at Q = 4
    (0.0, -2.0, 2.0, "N"), (0.0, -2.5, 3.0, "N"), (0.0, -1.9, 1.5, "E"),
    (0.0, 2.0, 2.0, "E"), (0.0, 0.0, 5.0, "E"), (0.0, -3.0, 1.2, "N"),
    (3.0, 0.0, 2.0, "E"), (3.0, -2.0, 2.0, "E"), (3.0, -3.0, 1.5, "N"),
    (3.0, -3.0, 2.5, "E"), (3.0, -3.0, 2.0, "N"),
    (-0.75, 0.0, 2.0, "E"), (-0.75, 0.0, 6.0, "N"), (-0.75, 0.0, 5.0, "N"),
    (-0.75, -2.2, 2.0, "N"), (-0.99, 1.0, 3.0, "E"), (-0.99, 1.0, 5.0, "N"),
    (-1.0, 0.0, 3.0, "O"), (-1.0, 1.0, 4.0, "O"), (-1.0, -1.0, 2.0, "O"),
    (-1.0, 0.0, 2.9, "E"), (-1.0, 0.0, 3.1, "N"), (-1.0, 2.0, 2.0, "E"),
    (-1.0, -3.0, 1.5, "N"), (8.0, -4.0, 1.5, "N"), (8.0, -4.0, 3.0, "E"),
    (8.0, 0.0, 10.0, "E"), (-0.96, -2.0, 2.0, "N"),
]

LETTER = {
    "N": Verdict.NONEXISTENCE_ALL_F,
    "E": Verdict.EXISTENCE_WITNESS,
    "O": Verdict.OPEN_CRITICAL,
}


def test_4_classifier_fixture_table():
    with criterion(4, "classifier-fixture-table", 5.0):
        assert len(FIXTURES) >= 25
        for lam, a, p, letter in FIXTURES:
            got = classify(params(lam, a, p)).verdict
            assert got == LETTER[letter], f"({lam}, {a}, {p}): got {got.value}"

        rng = np.random.default_rng(404)
        for _ in range(1000):
            pp = params(
                rng.uniform(-0.999, 10.0),
                rng.uniform(-5.0, 5.0),
                rng.uniform(1.05, 8.0),
            )
            has_window = tau_window(pp) is not None
            is_existence = classify(pp).verdict == Verdict.EXISTENCE_WITNESS
            assert has_window == is_existence, pp


# ---------------------------------------------------------------------------
# 5. witness verification
# ---------------------------------------------------------------------------

def test_5_witness_verification():
    with criterion(5, "witness-verification", 10.0):
        builds = [build_subcritical(params(lam)) for lam in (-0.9, 0.0, 3.0)]
        builds.append(build_critical(params(-1.0, a=2.0)))
        builds.append(build_critical(params(-1.0, a=1.2)))
        for w in builds:
            rep = verify_witness(w, grid=200, tol=1e-10)
            assert rep.n_points == 200
            assert rep.passed, (rep.max_identity_rel_err, rep.min_slack)
            assert rep.max_identity_rel_err <= 1e-10
            assert rep.min_slack >= 0.0

        w = build_critical(params(-1.0, a=2.0))
        inflated = replace(w, eps=4.0 * eps_bound_critical(0.5, w.params))
        rep = verify_witness(inflated, grid=200)
        assert not rep.passed
        assert rep.min_slack < 0.0
        assert rep.max_identity_rel_err <= 1e-10  # identity is amplitude-linear


# ---------------------------------------------------------------------------
# 6. capacity scaling laws
# ---------------------------------------------------------------------------

def test_6_capacity_scaling_laws():
    with criterion(6, "capacity-scaling-laws", 300.0):
        Ts = tuple(10.0 ** (1.0 + 0.5 * i) for i in range(7))
        for k in range(1, 9):
            for p in (1.5, 2.0, 3.0):
                pp = params(0.0, p=p, k=k)
                iota = default_family(pp)
                fit = scaling_fit([(T, j1_time_factor(T, pp, iota).value) for T in Ts])
                expected = 1.0 - k * p / (p - 1.0)
                assert fit.slope == approx(expected, abs=0.05), (k, p)

        for lam, expected in ((0.0, 2.0), (3.0, 3.0), (-0.75, 1.5)):
            pp = params(lam)
            iota = default_family(pp)
            factors = j2_space_factors("gamma", DEFAULT_SCALES, pp, iota)
            fit = scaling_fit([(R, q.value) for R, q in zip(DEFAULT_SCALES, factors)])
            assert fit.slope == approx(expected, abs=0.1), lam
            assert fit.r_squared > 0.99

        pp = params(-1.0, a=0.0, p=3.0)
        assert existence_margin(pp) == approx(0.0, abs=1e-12)
        iota = default_family(pp)
        scales = [10.0**e for e in (2, 4, 8, 12, 16, 20)]
        factors = j2_space_factors("mu", scales, pp, iota)
        pts = [(math.log(R), q.value) for R, q in zip(scales, factors)]
        fit = scaling_fit(pts)
        assert fit.r_squared >= 0.95
        assert fit.slope == approx(-2.0 / (pp.p - 1.0), abs=0.1)
        assert fit.slope <= -1.0 / (pp.p - 1.0) + 0.1


# ---------------------------------------------------------------------------
# 7. the nonexistence probe
# ---------------------------------------------------------------------------

def test_7_liminf_probe():
    with criterion(7, "liminf-probe", 60.0):
        R_list = [2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
        pp = params(0.0, a=-3.0)
        vals = liminf_probe(lambda r: r**pp.a, pp, R_list)
        seq = [v for _, v in vals]
        assert all(u > w for u, w in zip(seq, seq[1:]))
        assert seq[-1] < 0.1 * seq[0]

        pp = params(0.0, a=2.0)
        vals = liminf_probe(lambda r: r**pp.a, pp, R_list)
        fit = scaling_fit(vals)
        assert fit.slope > 0.0


# ---------------------------------------------------------------------------
# 8. evolution solver convergence
# ---------------------------------------------------------------------------

def test_8_evolution_convergence():
    with criterion(8, "evolution-convergence", 120.0):
        from koranyi.evolve import radial_rhs

        for k in (1, 2):
            pp = params(0.0, a=1.0, p=2.0, k=k)
            resids = []
            for n in (64, 128, 256):
                g = RadialGrid(rho_min=0.05, n_cells=n)
                rho = g.nodes()
                u = mms_reference(0.3, rho)
                spatial = radial_rhs(
                    u, g, pp, nonlinear=True,
                    neumann_slope=mms_neumann(g.rho_min)(0.3),
                )
                dk = (-1.0 if k == 1 else 1.0) * mms_reference(0.3, rho)
                resid = dk[1:-1] - (spatial[1:-1] + mms_source(pp)(0.3, rho[1:-1]))
                resids.append(float(np.max(np.abs(resid))))
            order = -np.polyfit(np.log([64, 128, 256]), np.log(resids), 1)[0]
            assert order >= 1.9, f"k={k}: spatial order {order:.2f}"

        pp = params(0.0, a=1.0, p=2.0)
        errs = []
        for n in (32, 64):
            g = RadialGrid(rho_min=0.05, n_cells=n)
            res = integrate(
                pp, mms_initial_layers(pp, g), g, t_end=0.05,
                boundary_value=float(mms_reference(0.0, np.array([1.0]))[0]),
                source=mms_source(pp), neumann_slope=mms_neumann(g.rho_min),
            )
            assert res.status == "completed"
            errs.append(float(np.max(np.abs(
                res.final_layers[0] - mms_reference(res.t_final, g.nodes())
            ))))
        assert math.log2(errs[0] / errs[1]) >= 1.9

        g = RadialGrid(rho_min=0.01, n_cells=64)
        res = integrate(params(0.0), np.zeros(65), g, t_end=0.1, boundary_value=0.0)
        assert res.status == "completed"
        assert all(s == 0.0 for _, s in res.sup_norm_history)


# ---------------------------------------------------------------------------
# 9. CLI end to end from the committed configs
# ---------------------------------------------------------------------------

def run_cli(tmp, *argv):
    # The subprocess runs in tmp, where a relative or missing PYTHONPATH cannot
    # find an uninstalled package, so the absolute src directory goes first.
    pythonpath = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    return subprocess.run(
        [sys.executable, "-m", "koranyi", *argv],
        cwd=tmp, env=env, capture_output=True, text=True, timeout=120,
    )


def test_9_cli_end_to_end(tmp_path):
    with criterion(9, "cli-end-to-end", 60.0):
        cfg = REPO / "configs"
        out = tmp_path / "out"

        for name in ("verify", "classify", "witness", "scaling", "integrate",
                     "simulate", "sweep"):
            command = {"verify": "verify-identities", "sweep": "phase-sweep"}.get(name, name)
            proc = run_cli(tmp_path, command, "--config", str(cfg / f"{name}.json"),
                           "--out", str(out))
            assert proc.returncode == 0, f"{command}: {proc.stderr}"

        doc = json.loads((out / "verify-identities.json").read_text())
        assert doc["summary"] == {"total": 9, "passed": 9, "failed": 0}
        assert all(c["status"] == "pass" for c in doc["checks"])

        assert json.loads((out / "classify.json").read_text())["verdict"] == "NonexistenceAllF"
        assert json.loads((out / "witness.json").read_text())["summary"]["failed"] == 0
        assert json.loads((out / "scaling.json").read_text())["fit"]["slope"] == approx(-1.0, abs=0.05)
        assert json.loads((out / "integrate.json").read_text())["summary"]["failed"] == 0
        assert json.loads((out / "simulate.json").read_text())["status"] == "completed"

        with (out / "phase-sweep.csv").open() as fh:
            comment = fh.readline()
            assert comment.startswith("# ")
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert {r["status"] for r in rows} == {"blown_up", "completed"}
        assert all(float(r["a"]) in (-2.0, 2.0) for r in rows)

        proc = run_cli(tmp_path, "report", "--config", str(cfg / "report.json"),
                       "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        report = json.loads((out / "report.json").read_text())
        assert report["summary"]["failed"] == 0
        assert len(report["suites"]) == 3

        # the artifact contract: one JSON per suite, CSV for the series, nothing else
        assert {f.name for f in out.iterdir()} == {
            "verify-identities.json", "classify.json", "witness.json", "scaling.json",
            "scaling-time.csv", "integrate.json", "simulate.json", "simulate-history.csv",
            "phase-sweep.csv", "report.json",
        }

        # exit-code contract: forced check failure -> 1, inadmissible input -> 2
        strict = tmp_path / "strict.json"
        strict.write_text(json.dumps({"lambda": 3.0, "grid": 40, "tol": 0.0}))
        proc = run_cli(tmp_path, "witness", "--config", str(strict))
        assert proc.returncode == 1
        proc = run_cli(tmp_path, "classify", "--lambda", "-5")
        assert proc.returncode == 2
        assert "error:" in proc.stderr
