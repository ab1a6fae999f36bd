import math
import time

import numpy as np
from pytest import approx, mark, raises

from koranyi import evolve
from koranyi.hgroup import GroupContext
from koranyi.spectrum import ProblemParams
from koranyi.evolve import (
    BLOWUP_SUP,
    STALL_GROWTH,
    RadialGrid,
    canonical_bump,
    integrate,
    linear_part,
    mms_initial_layers,
    mms_neumann,
    mms_reference,
    mms_source,
    phase_sweep,
    radial_rhs,
)


def params(lam, a=0.0, p=2.0, k=1):
    return ProblemParams(GroupContext(1), lam, a, p, k)


class TestRadialGrid:
    def test_node_endpoints(self):
        g = RadialGrid(rho_min=0.01, n_cells=50)
        nodes = g.nodes()
        assert nodes[0] == 0.01
        assert nodes[-1] == 1.0
        assert len(nodes) == 51

    def test_log_spacing_monotone_and_refined_inward(self):
        nodes = RadialGrid(rho_min=1e-3, n_cells=64, spacing="log").nodes()
        d = np.diff(nodes)
        assert (d > 0).all()
        assert d[0] < d[-1]

    def test_describe(self):
        assert RadialGrid(0.001, 64, "uniform").describe() == "uniform[0.001,1]x64"

    def test_validation(self):
        with raises(ValueError, match="rho_min"):
            RadialGrid(rho_min=0.0)
        with raises(ValueError, match="at least 32"):
            RadialGrid(n_cells=16)
        with raises(ValueError, match="spacing"):
            RadialGrid(spacing="chebyshev")


class TestSpatialOperator:
    def test_exact_on_linear_profile(self):
        # u = rho with lambda = 3: u'' + 3u'/rho - 3u/rho^2 = 0 node by node
        g = RadialGrid(rho_min=0.1, n_cells=64)
        rho = g.nodes()
        out = radial_rhs(rho.copy(), g, params(3.0), 1.0, nonlinear=False, neumann_slope=1.0)
        assert np.max(np.abs(out[:-1])) < 1e-10
        assert out[-1] == 0.0

    def test_exact_on_quadratic_profile(self):
        # u = rho^2 with lambda = 0: the operator returns the constant 8
        g = RadialGrid(rho_min=0.1, n_cells=64)
        rho = g.nodes()
        out = radial_rhs(
            rho**2, g, params(0.0), 1.0, nonlinear=False, neumann_slope=2.0 * rho[0]
        )
        assert out[:-1] == approx(np.full(len(rho) - 1, 8.0), abs=1e-8)

    def test_nonlinear_term_added(self):
        g = RadialGrid(rho_min=0.1, n_cells=64)
        rho = g.nodes()
        base = radial_rhs(rho.copy(), g, params(3.0), 1.0, nonlinear=False, neumann_slope=1.0)
        with_np = radial_rhs(rho.copy(), g, params(3.0), 1.0, nonlinear=True, neumann_slope=1.0)
        assert with_np[:-1] - base[:-1] == approx(rho[:-1] ** 0.0 * rho[:-1] ** 2, rel=1e-12)

    def test_harmonic_profile_converges_in_interior(self):
        # u = rho^-2 at lambda = 0 is annihilated; the inner ghost is only
        # first-order accurate pointwise, so measure away from it
        errs = []
        for n in (64, 128, 256):
            g = RadialGrid(rho_min=0.1, n_cells=n)
            rho = g.nodes()
            out = radial_rhs(
                rho**-2.0, g, params(0.0), 1.0,
                nonlinear=False, neumann_slope=-2.0 * rho[0] ** -3.0,
            )
            window = (rho >= 0.3) & (rho < 1.0)
            errs.append(float(np.max(np.abs(out[window]))))
        order = np.polyfit(np.log([64, 128, 256]), np.log(errs), 1)[0]
        assert -order >= 1.7
        assert errs[0] > errs[1] > errs[2]


class TestLinearPart:
    @mark.parametrize("spacing", ["uniform", "log"])
    @mark.parametrize("lam,N,a,p", [(0.0, 1, 2.0, 2.0), (3.0, 2, -2.0, 3.0), (0.75, 1, 0.5, 1.5)])
    def test_matches_radial_rhs(self, spacing, lam, N, a, p):
        # L u + slope term + nonlinearity is radial_rhs up to the rounding of
        # its largest term: the stencil terms reach |lambda|/rho_min^2 |u|
        g = RadialGrid(rho_min=1e-3, n_cells=64, spacing=spacing)
        pr = ProblemParams(GroupContext(N), lam, a, p, 1)
        rho = g.nodes()
        u = canonical_bump(rho) + 0.3 * np.sin(7.0 * rho)
        slope = -0.4
        op = linear_part(g, N, lam)
        nonlin = np.zeros_like(u)
        nonlin[:-1] = rho[:-1] ** a * np.abs(u[:-1]) ** p
        ours = op.apply(u) + nonlin
        ours[0] += op.slope_coef * slope
        ref = radial_rhs(u, g, pr, u[-1], nonlinear=True, neumann_slope=slope)
        size = np.abs(op.bands).max(axis=0) * np.abs(u).max() + np.abs(nonlin) + 1.0
        assert np.max(np.abs(ours - ref) / size) <= 1e-12
        assert ours[-1] == ref[-1] == 0.0

    def test_spectrum_sign(self):
        uniform = RadialGrid(rho_min=1e-3, n_cells=64)
        log = RadialGrid(rho_min=1e-3, n_cells=64, spacing="log")
        assert linear_part(uniform, 1, -1.0).max_real_eig > 1e5
        assert linear_part(uniform, 1, -0.1).max_real_eig > 1e4
        for lam in (0.0, 0.02, 0.75, 3.0):
            assert -30.0 < linear_part(uniform, 1, lam).max_real_eig < -10.0
        for lam in (-1.0, -0.5, -0.1, 0.0, 3.0):
            assert linear_part(log, 1, lam).max_real_eig < 0.0

    def test_positive_spectrum_is_refused(self):
        g = RadialGrid(rho_min=1e-3, n_cells=64)
        ic = canonical_bump(g.nodes())
        with raises(ValueError, match="log"):
            integrate(params(-1.0), ic, g, t_end=0.25, boundary_value=0.1, nonlinear=False)
        log = RadialGrid(rho_min=1e-3, n_cells=64, spacing="log")
        res = integrate(params(-1.0), canonical_bump(log.nodes()), log, t_end=0.02,
                        boundary_value=0.1, nonlinear=False)
        assert res.status == "completed"

    @mark.parametrize("spacing", ["uniform", "log"])
    def test_stencil_past_double_range_is_refused(self, spacing):
        # rho_min^2 (uniform) or the first spacing (log) underflows to 0
        g = RadialGrid(rho_min=1e-300, n_cells=32, spacing=spacing)
        with raises(ValueError, match=rf"on {spacing}\[1e-300,1\]x32 is not finite"):
            linear_part(g, 1, 0.0)


class TestIntegrate:
    def test_zero_data_stays_zero(self):
        g = RadialGrid(rho_min=0.01, n_cells=32)
        res = integrate(params(0.0), np.zeros(33), g, t_end=0.1)
        assert res.status == "completed"
        assert float(np.max(np.abs(res.final_layers))) == 0.0
        assert all(s == 0.0 for _, s in res.sup_norm_history)

    def test_linear_diffusion_decays(self):
        g = RadialGrid(rho_min=0.05, n_cells=48)
        ic = canonical_bump(g.nodes())
        res = integrate(params(0.0), ic, g, t_end=0.2, nonlinear=False)
        assert res.status == "completed"
        sups = [s for _, s in res.sup_norm_history]
        assert sups[-1] < 0.1 * sups[0]
        assert all(b <= a * (1.0 + 1e-12) for a, b in zip(sups, sups[1:]))

    def test_deterministic(self):
        g = RadialGrid(rho_min=0.01, n_cells=32)
        ic = canonical_bump(g.nodes())
        r1 = integrate(params(0.0, a=2.0), ic, g, t_end=0.1)
        r2 = integrate(params(0.0, a=2.0), ic, g, t_end=0.1)
        assert r1.sup_norm_history == r2.sup_norm_history
        assert np.array_equal(r1.final_layers, r2.final_layers)

    def test_policy_string_tracks_time_order(self):
        g = RadialGrid(rho_min=0.05, n_cells=32)
        r1 = integrate(params(0.0), np.zeros(33), g, t_end=0.01)
        assert r1.dt_policy.startswith("lsoda ")
        ic2 = np.zeros((2, 33))
        r2 = integrate(params(0.0, k=2), ic2, g, t_end=0.01)
        assert r2.dt_policy.startswith("newmark beta=1/4 gamma=1/2")

    def test_counters_and_end_reason(self):
        g = RadialGrid(rho_min=0.05, n_cells=32)
        ic = canonical_bump(g.nodes())
        for k in (1, 2):
            layers = ic if k == 1 else np.stack([ic, np.zeros_like(ic)])
            res = integrate(params(0.0, a=2.0, k=k), layers, g, t_end=0.05)
            assert res.end_reason == "completed"
            assert res.steps > 0 and res.rejected >= 0 and res.lu >= 0
            assert res.t_final == approx(0.05)
        # LSODA factorizes only once it has switched to BDF for a stiff problem
        stiff = integrate(params(3.0, a=-2.0), ic, g, t_end=0.05)
        assert stiff.end_reason == "completed" and stiff.lu > 0

    def test_rejected_counts_unaccepted_call_times(self):
        # every distinct right-hand-side time after t0 is an accepted step or a
        # rejected attempt; a zero source sees each of them
        g = RadialGrid(rho_min=0.05, n_cells=32)
        times = set()

        def zero(t, rho):
            times.add(t)
            return np.zeros_like(rho)

        res = integrate(params(0.0, a=2.0), canonical_bump(g.nodes()), g, t_end=0.05,
                        boundary_value=0.1, source=zero)
        assert res.end_reason == "completed" and res.rejected > 0
        assert len(times) == 1 + res.steps + res.rejected

    def test_stall_without_growth_is_not_blow_up(self):
        # a forcing that turns to NaN makes LSODA accept a NaN state; the run
        # ends at the last finite state, and sup|u| has not grown there
        g = RadialGrid(rho_min=0.05, n_cells=32)

        def poisoned(t, rho):
            return np.full_like(rho, np.nan if t > 0.005 else 0.0)

        res = integrate(params(0.0, a=2.0), canonical_bump(g.nodes()), g, t_end=0.02,
                        boundary_value=0.1, source=poisoned)
        assert res.status == "solver_stall"
        assert res.end_reason == "solver_stall"
        assert res.blow_up_time is None
        assert 0.0 < res.t_final <= 0.005
        assert "non-finite right-hand side" in res.note
        assert np.all(np.isfinite(res.sup_norm_history))
        assert np.all(np.isfinite(res.final_layers))
        assert res.sup_norm_history[-1] == (res.t_final, approx(0.1))

    def test_step_budget_ends_a_stalled_run(self, monkeypatch):
        # a huge finite forcing from t = 0.005 on makes LSODA step on with
        # steps that no longer move t; the step budget ends the run
        monkeypatch.setattr(evolve, "K1_MAX_STEPS", 2000)
        g = RadialGrid(rho_min=0.05, n_cells=32)

        def jump(t, rho):
            return np.full_like(rho, 1e100 if t > 0.005 else 0.0)

        res = integrate(params(0.0, a=2.0), canonical_bump(g.nodes()), g, t_end=0.02,
                        boundary_value=0.1, source=jump)
        assert res.status == res.end_reason == "solver_stall"
        assert res.steps == 2000
        assert res.t_final == approx(0.005, rel=1e-9)
        assert "2000 steps" in res.note

    def test_newmark_conserves_discrete_energy(self):
        # linear k = 2 at lambda = 0 with zero boundary value: average
        # acceleration keeps E = |v|_W^2/2 - u.WLu/2 for any dt sequence,
        # where W symmetrizes L (built here from radial_rhs, not linear_part)
        g = RadialGrid(rho_min=0.05, n_cells=32)
        pr = params(0.0, k=2)
        n = g.n_cells + 1
        L = np.column_stack([
            radial_rhs(col, g, pr, 0.0, nonlinear=False) for col in np.eye(n)
        ])[:-1, :-1]
        W = np.ones(n - 1)
        for i in range(n - 2):
            W[i + 1] = W[i] * L[i, i + 1] / L[i + 1, i]
        S = W[:, None] * L
        assert np.max(np.abs(S - S.T)) <= 1e-14 * np.max(np.abs(S))

        def energy(u, v):
            return 0.5 * np.sum(W * v[:-1] ** 2) - 0.5 * u[:-1] @ S @ u[:-1]

        ic = np.stack([canonical_bump(g.nodes()), np.zeros(n)])
        res = integrate(pr, ic, g, t_end=1.0, boundary_value=0.0, nonlinear=False)
        assert res.status == "completed" and res.steps > 100
        assert energy(*res.final_layers) == approx(energy(*ic), rel=1e-12)

    def test_validation(self):
        g = RadialGrid(rho_min=0.05, n_cells=32)
        with raises(ValueError, match="t_end"):
            integrate(params(0.0), np.zeros(33), g, t_end=math.nan)
        with raises(ValueError, match="t_end"):
            integrate(params(0.0), np.zeros(33), g, t_end=-1.0)
        with raises(ValueError, match="boundary_value"):
            integrate(params(0.0), np.zeros(33), g, t_end=0.1, boundary_value=math.inf)
        with raises(ValueError, match="time order"):
            integrate(params(0.0, k=3), np.zeros((3, 33)), g, t_end=0.1)
        with raises(ValueError, match="initial data must be"):
            integrate(params(0.0), np.zeros(10), g, t_end=0.1)
        bad = np.full(33, np.nan)
        with raises(ValueError, match="non-finite"):
            integrate(params(0.0), bad, g, t_end=0.1)


class TestManufactured:
    @mark.parametrize("k", [1, 2])
    def test_source_balances_reference(self, k):
        # the forced equation's residual on the reference profile is pure
        # stencil truncation, so it must shrink at second order
        pr = params(0.0, a=1.0, p=2.0, k=k)
        resids = []
        for n in (64, 128, 256):
            g = RadialGrid(rho_min=0.05, n_cells=n)
            rho = g.nodes()
            u = mms_reference(0.3, rho)
            spatial = radial_rhs(
                u, g, pr, u[-1], nonlinear=True,
                neumann_slope=mms_neumann(g.rho_min)(0.3),
            )
            dk = (-1.0 if k == 1 else 1.0) * mms_reference(0.3, rho)
            resid = dk[1:-1] - (spatial[1:-1] + mms_source(pr)(0.3, rho[1:-1]))
            resids.append(float(np.max(np.abs(resid))))
        order = np.polyfit(np.log([64, 128, 256]), np.log(resids), 1)[0]
        assert -order >= 1.9

    def test_time_integration_is_second_order(self):
        pr = params(0.0, a=1.0, p=2.0)
        errs = []
        for n in (32, 64):
            g = RadialGrid(rho_min=0.05, n_cells=n)
            res = integrate(
                pr, mms_initial_layers(pr, g), g, t_end=0.05,
                boundary_value=float(mms_reference(0.0, np.array([1.0]))[0]),
                source=mms_source(pr), neumann_slope=mms_neumann(g.rho_min),
            )
            assert res.status == "completed"
            ref = mms_reference(res.t_final, g.nodes())
            errs.append(float(np.max(np.abs(res.final_layers[0] - ref))))
        order = math.log2(errs[0] / errs[1])
        assert order >= 1.9


class TestReferenceCells:
    def test_strong_singular_weight_blows_up(self):
        g = RadialGrid(rho_min=1e-3, n_cells=64)
        ic = canonical_bump(g.nodes())
        res = integrate(params(0.0, a=-2.0), ic, g, t_end=0.25, boundary_value=0.1)
        assert res.status == "blown_up"
        assert res.blow_up_time is not None and res.blow_up_time < 0.25
        assert res.sup_norm_history[-1][1] > BLOWUP_SUP
        assert res.end_reason == "sup_threshold"

    def test_second_order_blow_up_crosses_the_threshold(self):
        g = RadialGrid(rho_min=1e-3, n_cells=64)
        ic = canonical_bump(g.nodes())
        res = integrate(params(0.0, a=-2.0, k=2), np.stack([ic, np.zeros_like(ic)]), g,
                        t_end=0.75, boundary_value=0.1)
        assert res.status == "blown_up"
        assert res.end_reason == "sup_threshold"
        assert res.sup_norm_history[-1][1] > BLOWUP_SUP
        assert res.blow_up_time == approx(0.1541, rel=0.02)

    def test_stiff_first_order_cell_is_fast(self):
        # lambda/rho_min^2 = 3e6 capped the old explicit step; LSODA's BDF does not care
        g = RadialGrid(rho_min=1e-3, n_cells=64)
        ic = canonical_bump(g.nodes())
        start = time.perf_counter()
        res = integrate(params(3.0, a=-2.0), ic, g, t_end=0.25, boundary_value=0.1)
        assert time.perf_counter() - start < 1.0
        assert res.status == "completed"

    def test_tame_weight_completes(self):
        g = RadialGrid(rho_min=1e-3, n_cells=64)
        ic = canonical_bump(g.nodes())
        res = integrate(params(0.0, a=2.0), ic, g, t_end=0.25, boundary_value=0.1)
        assert res.status == "completed"
        assert res.blow_up_time is None
        assert res.t_final == approx(0.25)


def tight_reference(pr, grid, t_end, boundary_value):
    """k = 1 by LSODA at rtol 1e-11 on `radial_rhs`, with the full Jacobian
    assembled from `radial_rhs` columns; blow-up is the end of the first step
    with sup|u| > BLOWUP_SUP.  Returns (status, end_reason, blow-up time)."""
    from scipy.integrate import LSODA

    rho = grid.nodes()
    u0 = canonical_bump(rho)
    u0[-1] = boundary_value
    n = rho.size
    L = np.column_stack([radial_rhs(col, grid, pr, 0.0, nonlinear=False) for col in np.eye(n)])

    def jac(t, u):
        d = np.zeros(n)
        d[:-1] = pr.p * rho[:-1] ** pr.a * np.abs(u[:-1]) ** (pr.p - 1.0) * np.sign(u[:-1])
        return L + np.diag(d)

    solver = LSODA(lambda t, u: radial_rhs(u, grid, pr, boundary_value), 0.0, u0, t_end,
                   jac=jac, rtol=1e-11, atol=1e-14)
    while solver.status == "running":
        solver.step()
        if np.max(np.abs(solver.y)) > BLOWUP_SUP:
            return "blown_up", "sup_threshold", solver.t
    if solver.status == "finished":
        return "completed", "completed", None
    if np.max(np.abs(solver.y)) >= STALL_GROWTH * np.max(np.abs(u0)):
        return "blown_up", "step_collapse", solver.t
    return "solver_stall", "solver_stall", None


class TestTightReference:
    # integrate runs LSODA at rtol 1e-7 on the bands of linear_part; the
    # reference runs at rtol 1e-11 on the stencil definition
    @mark.parametrize("grid,cell,reason,blow_time", [
        (RadialGrid(1e-3, 64), (0.0, -2.0, 1.5), "sup_threshold", 3.7377e-4),
        (RadialGrid(1e-3, 64), (0.0, -2.0, 2.0), "sup_threshold", 7.0565e-3),
        (RadialGrid(1e-3, 64), (0.0, 2.0, 2.0), "completed", None),
        (RadialGrid(1e-4, 80, "log"), (-1.0, -1.0, 3.0), "sup_threshold", 0.1067),
    ], ids=["sup_threshold", "sup_threshold_p2", "completed", "log_sup_threshold"])
    def test_matches_tight_reference(self, grid, cell, reason, blow_time):
        pr = params(*cell)
        res = integrate(pr, canonical_bump(grid.nodes()), grid, t_end=0.25, boundary_value=0.1)
        status, end_reason, t_star = tight_reference(pr, grid, 0.25, 0.1)
        assert (res.status, res.end_reason) == (status, end_reason)
        assert res.end_reason == reason
        if blow_time is None:
            assert res.blow_up_time is None and t_star is None
        else:
            assert res.blow_up_time == approx(t_star, rel=1e-5)
            assert res.blow_up_time == approx(blow_time, rel=1e-4)


class TestPhaseSweep:
    def test_rows_and_schema(self, monkeypatch):
        monkeypatch.setenv("KORANYI_THREADS", "1")
        g = RadialGrid(rho_min=0.01, n_cells=32)
        rows = phase_sweep(
            [3.0, -5.0], [-2.0], [2.0], GroupContext(1), grid=g, t_end=0.02
        )
        assert len(rows) == 2
        assert set(rows[0]) == {
            "lambda", "a", "p", "k", "status", "blow_up_time",
            "classifier_verdict", "grid", "dt_policy", "end_reason", "steps", "rejected", "lu",
        }
        ok, bad = rows
        assert ok["status"] == ok["end_reason"] == "completed"
        assert ok["steps"] > 0 and ok["rejected"] >= 0 and ok["lu"] > 0
        assert ok["dt_policy"].startswith("lsoda ")
        assert ok["classifier_verdict"] == "ExistenceWitness"
        assert ok["grid"] == g.describe()
        assert bad["status"].startswith("error:")
        assert bad["classifier_verdict"] == bad["end_reason"] == bad["steps"] == ""

    def test_refused_grid_is_an_error_row(self, monkeypatch):
        monkeypatch.setenv("KORANYI_THREADS", "1")
        g = RadialGrid(rho_min=1e-3, n_cells=64)
        (row,) = phase_sweep([-0.5], [2.0], [2.0], GroupContext(1), grid=g, t_end=0.02)
        assert row["status"].startswith("error:") and "log" in row["status"]
        assert row["classifier_verdict"] != ""

    def test_thread_count_does_not_change_rows(self, monkeypatch):
        g = RadialGrid(rho_min=0.01, n_cells=32)
        monkeypatch.setenv("KORANYI_THREADS", "1")
        cells = ([0.0], [-3.0, -2.0, 2.0], [2.0], GroupContext(1))
        serial = phase_sweep(*cells, grid=g, t_end=0.02)
        monkeypatch.setenv("KORANYI_THREADS", "4")
        threaded = phase_sweep(*cells, grid=g, t_end=0.02)
        assert serial[0]["status"] == "blown_up"
        assert serial == threaded
