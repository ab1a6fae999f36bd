import gc
import math
import time
import tracemalloc
import warnings

import numpy as np
from pytest import approx, mark, raises

from koranyi import evolve, newmark
from koranyi.hgroup import GroupContext
from koranyi.spectrum import ProblemParams
from koranyi.evolve import (
    MAX_CELLS,
    RadialGrid,
    canonical_bump,
    integrate,
    linear_part,
    phase_sweep,
    radial_rhs,
)
from koranyi.newmark import BLOWUP_SUP, STALL_GROWTH

from conftest import mms_initial_layers, mms_neumann, mms_reference, mms_source


def params(lam, a=0.0, p=2.0, k=1):
    return ProblemParams(GroupContext(1), lam, a, p, k)


def layers(ic, k):
    """The initial layers of order k: ic, and zero velocity at k = 2."""
    return ic if k == 1 else np.stack([ic, np.zeros_like(ic)])


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

    def test_grid_over_the_budget_is_refused_before_allocating(self):
        # `linear_part` takes 8 n^2 bytes for each copy of its dense block, so
        # 10 000 cells would ask for gigabytes; the grid is refused first
        assert RadialGrid(n_cells=MAX_CELLS).n_cells >= 1600  # the finest rho_min ladder grid
        tracemalloc.start()
        try:
            for n in (MAX_CELLS + 1, 10_000, 10**9):
                with raises(ValueError, match=f"at most {MAX_CELLS} cells, got {n}"):
                    RadialGrid(n_cells=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestSpatialOperator:
    def test_exact_on_linear_profile(self):
        # u = rho with lambda = 3: u'' + 3u'/rho - 3u/rho^2 = 0 node by node
        g = RadialGrid(rho_min=0.1, n_cells=64)
        rho = g.nodes()
        out = radial_rhs(rho.copy(), g, params(3.0), nonlinear=False, neumann_slope=1.0)
        assert np.max(np.abs(out[:-1])) < 1e-10
        assert out[-1] == 0.0

    def test_exact_on_quadratic_profile(self):
        # u = rho^2 with lambda = 0: the operator returns the constant 8
        g = RadialGrid(rho_min=0.1, n_cells=64)
        rho = g.nodes()
        out = radial_rhs(
            rho**2, g, params(0.0), nonlinear=False, neumann_slope=2.0 * rho[0]
        )
        assert out[:-1] == approx(np.full(len(rho) - 1, 8.0), abs=1e-8)

    def test_nonlinear_term_added(self):
        g = RadialGrid(rho_min=0.1, n_cells=64)
        rho = g.nodes()
        base = radial_rhs(rho.copy(), g, params(3.0), nonlinear=False, neumann_slope=1.0)
        with_np = radial_rhs(rho.copy(), g, params(3.0), nonlinear=True, neumann_slope=1.0)
        assert with_np[:-1] - base[:-1] == approx(rho[:-1] ** 0.0 * rho[:-1] ** 2, rel=1e-12)

    def test_harmonic_profile_converges_in_interior(self):
        # u = rho^-2 at lambda = 0 is annihilated; the inner ghost is only
        # first-order accurate pointwise, so measure away from it
        errs = []
        for n in (64, 128, 256):
            g = RadialGrid(rho_min=0.1, n_cells=n)
            rho = g.nodes()
            out = radial_rhs(
                rho**-2.0, g, params(0.0),
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
        ours = newmark._band_product(newmark._diagonals(op.bands), u) + nonlin
        ours[0] += op.slope_coef * slope
        ref = radial_rhs(u, g, pr, nonlinear=True, neumann_slope=slope)
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

    @mark.parametrize("k", [1, 2])
    def test_history_is_equally_spaced(self, k):
        # both orders record sup|u| at MAX_HISTORY + 1 equally spaced times,
        # from an interpolant within each step; a run that stops at one of
        # those times ends with the same sup|u|, to within the local error
        # tolerance of its own steps (Newmark's is relative to the sup norm)
        g = RadialGrid(rho_min=0.05, n_cells=32)
        ic = layers(canonical_bump(g.nodes()), k)
        res = integrate(params(0.0, a=2.0, k=k), ic, g, t_end=0.25, nonlinear=False)
        times, sups = zip(*res.sup_norm_history)
        assert times == tuple(np.linspace(0.0, 0.25, newmark.MAX_HISTORY + 1))
        assert res.steps < newmark.MAX_HISTORY  # so some steps cover several times
        for i in (7, 40, 160, 333):
            part = integrate(params(0.0, a=2.0, k=k), ic, g, t_end=times[i], nonlinear=False)
            assert sups[i] == approx(np.abs(part.final_layers[0]).max(),
                                     rel=1e-5 if k == 1 else newmark.NEWMARK_RTOL)

    def test_policy_string_tracks_time_order(self):
        g = RadialGrid(rho_min=0.05, n_cells=32)
        r1 = integrate(params(0.0), np.zeros(33), g, t_end=0.01)
        assert r1.dt_policy.startswith("rodas3 ")
        ic2 = np.zeros((2, 33))
        r2 = integrate(params(0.0, k=2), ic2, g, t_end=0.01)
        assert r2.dt_policy.startswith("newmark beta=1/4 gamma=1/2")
        # both orders end runs by the same rule, and say so in the same words
        end_rule = "; blow-up at sup>1e+08 or at dt<16 ulp(t) after 100x growth"
        assert r1.dt_policy.endswith(end_rule) and r2.dt_policy.endswith(end_rule)

    def test_counters_and_end_reason(self):
        g = RadialGrid(rho_min=0.05, n_cells=32)
        ic = canonical_bump(g.nodes())
        for k in (1, 2):
            layers = ic if k == 1 else np.stack([ic, np.zeros_like(ic)])
            res = integrate(params(0.0, a=2.0, k=k), layers, g, t_end=0.05)
            assert res.end_reason == "completed"
            assert res.steps > 0 and res.rejected >= 0 and res.steps + res.rejected >= 0
            assert res.t_final == approx(0.05)
        stiff = integrate(params(3.0, a=-2.0), ic, g, t_end=0.05)
        assert stiff.end_reason == "completed" and stiff.steps + stiff.rejected > 0

    def test_rejected_counts_unaccepted_call_times(self):
        # after one call at t0, each k = 1 attempt calls the source five times:
        # at start + delta and at its start for the time derivative, whose
        # probe stays inside the step, then at its end for the last two stages
        # and for the rates there.  The next attempt starts at the end of an
        # accepted one and where a rejected one started.
        g = RadialGrid(rho_min=1e-3, n_cells=64)
        calls = []

        def zero(t, rho):
            calls.append(t)
            return np.zeros_like(rho)

        res = integrate(params(0.0, a=-3.0), canonical_bump(g.nodes()), g, t_end=0.25,
                        boundary_value=0.1, source=zero)
        assert res.end_reason == "sup_threshold" and res.rejected > 0
        assert calls[0] == 0.0 and len(calls) % 5 == 1
        attempts = [calls[i:i + 5] for i in range(1, len(calls), 5)]
        assert all(start < probe <= end == end2 == end3
                   for probe, start, end, end2, end3 in attempts)
        nexts = [a[1] for a in attempts[1:]]
        assert all(nxt in (a[1], a[2]) for a, nxt in zip(attempts, nexts))
        accepted = sum(a[2] == nxt for a, nxt in zip(attempts, nexts)) + 1
        assert (res.steps, res.rejected) == (accepted, len(attempts) - accepted)
        assert res.steps + res.rejected == len(attempts)

    @mark.parametrize("k", [1, 2])
    def test_stall_without_growth_is_not_blow_up(self, k):
        # a forcing that turns to NaN makes every attempt past t = 0.005
        # non-finite, and each is rejected; the run ends at the dt floor at the
        # last finite state, and sup|u| has not grown there
        g = RadialGrid(rho_min=0.05, n_cells=32)

        def poisoned(t, rho):
            return np.full_like(rho, np.nan if t > 0.005 else 0.0)

        res = integrate(params(0.0, a=2.0, k=k), layers(canonical_bump(g.nodes()), k), g,
                        t_end=0.02, boundary_value=0.1, source=poisoned)
        assert res.status == "solver_stall"
        assert res.end_reason == "solver_stall"
        assert res.blow_up_time is None
        assert 0.0 < res.t_final <= 0.005
        assert "non-finite right-hand side" in res.note
        assert np.all(np.isfinite(res.sup_norm_history))
        assert np.all(np.isfinite(res.final_layers))
        assert res.sup_norm_history[-1] == (res.t_final, approx(0.1))

    @mark.parametrize("k", [1, 2])
    def test_step_budget_ends_a_stalled_run(self, k):
        # a forcing that jumps to a huge value at t = 0.005 cannot be crossed
        # within tolerance (1e250 also overflows the nonlinearity); the steps
        # shrink to the spacing of t there, and sup|u| has not grown
        g = RadialGrid(rho_min=0.05, n_cells=32)
        for size in (1e100, 1e250):
            def jump(t, rho):
                return np.full_like(rho, size if t > 0.005 else 0.0)

            res = integrate(params(0.0, a=2.0, k=k), layers(canonical_bump(g.nodes()), k), g,
                            t_end=0.02, boundary_value=0.1, source=jump)
            assert res.status == res.end_reason == "solver_stall"
            assert res.steps + res.rejected < 1000
            assert res.t_final == approx(0.005, rel=1e-9) and res.t_final <= 0.005
            assert "dt underflow" in res.note
            assert res.sup_norm_history[-1] == (res.t_final, approx(0.1))

    @mark.parametrize("k", [1, 2])
    def test_overflow_is_rejected_without_a_warning(self, k):
        # a boundary value near the top of double range overflows the first
        # attempts; each is rejected as non-finite, inside np.errstate, and the
        # run stalls at the dt floor rather than leaking a RuntimeWarning
        g = RadialGrid(rho_min=0.05, n_cells=32)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = integrate(params(0.0, a=2.0, k=k), layers(canonical_bump(g.nodes()), k), g,
                            t_end=0.02, boundary_value=1e200)
        assert res.status == res.end_reason == "solver_stall"
        assert res.steps == 0 and res.rejected > 0

    def test_newmark_conserves_discrete_energy(self):
        # linear k = 2 at lambda = 0 with zero boundary value: average
        # acceleration keeps E = |v|_W^2/2 - u.WLu/2 for any dt sequence,
        # where W symmetrizes L (built here from radial_rhs, not linear_part)
        g = RadialGrid(rho_min=0.05, n_cells=32)
        pr = params(0.0, k=2)
        n = g.n_cells + 1
        L = np.column_stack([
            radial_rhs(col, g, pr, nonlinear=False) for col in np.eye(n)
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
        with raises(ValueError, match="initial data must be"):
            integrate(params(0.0, k=2), np.zeros(10), g, t_end=0.1)
        with raises(ValueError, match="initial data must be"):
            integrate(params(0.0, k=2), np.zeros((1, 33)), g, t_end=0.1)

    def test_u_alone_starts_the_velocity_at_zero(self):
        g = RadialGrid(rho_min=0.05, n_cells=32)
        ic = canonical_bump(g.nodes())
        alone = integrate(params(0.5, a=-1.0, k=2), ic, g, t_end=0.2)
        both = integrate(params(0.5, a=-1.0, k=2), layers(ic, 2), g, t_end=0.2)
        assert alone.final_layers.tobytes() == both.final_layers.tobytes()
        assert (alone.status, alone.t_final, alone.sup_norm_history, alone.steps) == \
            (both.status, both.t_final, both.sup_norm_history, both.steps)


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
                u, g, pr, nonlinear=True,
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
        # lambda/rho_min^2 = 3e6 capped the old explicit step; the L-stable
        # Rosenbrock step does not care
        g = RadialGrid(rho_min=1e-3, n_cells=64)
        ic = canonical_bump(g.nodes())
        start = time.perf_counter()
        res = integrate(params(3.0, a=-2.0), ic, g, t_end=0.25, boundary_value=0.1)
        assert time.perf_counter() - start < 1.0
        assert res.status == "completed"

    def test_fine_log_grid(self):
        # the finest rung of the rho_min ladder, at 20 cells per decade: both
        # a completion and a blow-up run to their end
        g = RadialGrid(rho_min=1e-10, n_cells=200, spacing="log")
        ic = canonical_bump(g.nodes())
        tame = integrate(params(0.0, a=2.0), ic, g, t_end=0.25, boundary_value=0.1)
        assert tame.status == "completed" and tame.t_final == approx(0.25)
        wild = integrate(params(-0.75, a=-1.5, p=3.0), ic, g, t_end=0.25, boundary_value=0.1)
        assert wild.status == "blown_up" and wild.blow_up_time < 0.25

    def test_runs_retain_no_memory(self):
        # nothing a run allocates outlives it; an integrator that keeps its
        # work arrays alive costs about 5 KB per run here
        g = RadialGrid(rho_min=1e-3, n_cells=32)
        ic = canonical_bump(g.nodes())

        def run():
            return integrate(params(0.0, a=2.0), ic, g, t_end=1e-3, boundary_value=0.1)

        run()  # fills the grid caches and imports the stepper
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(20):
                run()
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 16 * 1024

    def test_tame_weight_completes(self):
        g = RadialGrid(rho_min=1e-3, n_cells=64)
        ic = canonical_bump(g.nodes())
        res = integrate(params(0.0, a=2.0), ic, g, t_end=0.25, boundary_value=0.1)
        assert res.status == "completed"
        assert res.blow_up_time is None
        assert res.t_final == approx(0.25)


def tight_reference(pr, grid, t_end, boundary_value):
    """The canonical run by LSODA at rtol 1e-11 on `radial_rhs`, for k = 2 on
    the first-order system in (u, v) from zero velocity, with the full
    Jacobian assembled from `radial_rhs` columns; blow-up is the end of the
    first step with sup|u| > BLOWUP_SUP.  Returns (status, blow-up time)."""
    from scipy.integrate import LSODA

    rho = grid.nodes()
    u0 = canonical_bump(rho)
    u0[-1] = boundary_value
    n = rho.size
    L = np.column_stack([radial_rhs(col, grid, pr, nonlinear=False) for col in np.eye(n)])

    def jac_u(u):
        d = np.zeros(n)
        d[:-1] = pr.p * rho[:-1] ** pr.a * np.abs(u[:-1]) ** (pr.p - 1.0) * np.sign(u[:-1])
        return L + np.diag(d)

    if pr.k == 1:
        y0 = u0

        def fun(t, u):
            return radial_rhs(u, grid, pr)

        def jac(t, u):
            return jac_u(u)
    else:
        y0 = np.concatenate([u0, np.zeros(n)])
        zero, eye = np.zeros((n, n)), np.eye(n)

        def fun(t, y):
            return np.concatenate([y[n:], radial_rhs(y[:n], grid, pr)])

        def jac(t, y):
            return np.block([[zero, eye], [jac_u(y[:n]), zero]])

    solver = LSODA(fun, 0.0, y0, t_end, jac=jac, rtol=1e-11, atol=1e-14)
    while solver.status == "running":
        solver.step()
        if np.max(np.abs(solver.y[:n])) > BLOWUP_SUP:
            return "blown_up", solver.t
    if solver.status == "finished":
        return "completed", None
    if np.max(np.abs(solver.y[:n])) >= STALL_GROWTH * np.max(np.abs(u0)):
        return "blown_up", solver.t
    return "solver_stall", None


class TestTightReference:
    # integrate runs RODAS3 at rtol 1e-6 on the bands of linear_part; the
    # reference runs LSODA at rtol 1e-11 on the stencil definition.  At p = 3,
    # sup|u| = 1e8 needs T* - t of about 1e-18, below the spacing of t at
    # 0.107, so the log cell ends at the dt floor; LSODA crosses 1e8 there
    # only by overshooting.  On the coarse uniform grid the inner node of
    # (0.75, -3, 2) loses its quasi-steady state at a fold near t = 0.0895
    # and blows up within nanoseconds; a step past the pole of RODAS3's
    # rational function jumps over that blow-up to a finite state.  k = 2
    # runs Newmark at rtol 1e-4 on the sup norm, so it agrees with the
    # reference to 1e-2 relative, on the uniform grid to t_end 0.75.
    @mark.parametrize("k,grid,cell,reason,blow_time", [
        (1, RadialGrid(1e-3, 64), (0.0, -2.0, 1.5), "sup_threshold", 3.7377e-4),
        (1, RadialGrid(1e-3, 64), (0.0, -2.0, 2.0), "sup_threshold", 7.0565e-3),
        (1, RadialGrid(1e-3, 64), (0.0, 2.0, 2.0), "completed", None),
        (1, RadialGrid(1e-4, 80, "log"), (-1.0, -1.0, 3.0), "dt_floor", 0.1067),
        (1, RadialGrid(1e-3, 32), (0.75, -3.0, 2.0), "dt_floor", 0.089538),
        (2, RadialGrid(1e-3, 64), (0.0, -3.0, 3.0), "sup_threshold", 0.095546),
        (2, RadialGrid(1e-3, 64), (0.0, -2.0, 2.0), "sup_threshold", 0.15397),
        (2, RadialGrid(1e-3, 64), (0.0, -3.0, 1.5), "sup_threshold", 6.5943e-3),
    ], ids=["sup_threshold", "sup_threshold_p2", "completed", "log_sup_threshold", "fold",
            "k2_sup_threshold_p3", "k2_sup_threshold_p2", "k2_sup_threshold_p1.5"])
    def test_matches_tight_reference(self, k, grid, cell, reason, blow_time):
        pr = params(*cell, k=k)
        t_end, rel = (0.25, 1e-5) if k == 1 else (0.75, 1e-2)
        res = integrate(pr, layers(canonical_bump(grid.nodes()), k), grid, t_end=t_end,
                        boundary_value=0.1)
        status, t_star = tight_reference(pr, grid, t_end, 0.1)
        assert res.status == status
        assert res.end_reason == reason
        if blow_time is None:
            assert res.blow_up_time is None and t_star is None
        else:
            assert res.blow_up_time == approx(t_star, rel=rel)
            assert res.blow_up_time == approx(blow_time, rel=1e-4)


class TestPhaseSweep:
    def test_rows_and_schema(self):
        g = RadialGrid(rho_min=0.01, n_cells=32)
        rows = phase_sweep(
            [3.0, -5.0], [-2.0], [2.0], GroupContext(1), grid=g, t_end=0.02
        )
        assert len(rows) == 2
        assert set(rows[0]) == {
            "lambda", "a", "p", "k", "status", "blow_up_time",
            "classifier_verdict", "grid", "dt_policy", "end_reason", "steps", "rejected",
        }
        ok, bad = rows
        assert ok["status"] == ok["end_reason"] == "completed"
        assert ok["steps"] > 0 and ok["rejected"] >= 0 and ok["steps"] + ok["rejected"] > 0
        assert ok["dt_policy"].startswith("rodas3 ")
        assert ok["classifier_verdict"] == "ExistenceWitness"
        assert ok["grid"] == g.describe()
        assert bad["status"].startswith("error:")
        assert bad["classifier_verdict"] == bad["end_reason"] == bad["steps"] == ""

    def test_refused_grid_is_an_error_row(self):
        g = RadialGrid(rho_min=1e-3, n_cells=64)
        for k in (1, 2):
            (row,) = phase_sweep([-0.5], [2.0], [2.0], GroupContext(1), k, grid=g, t_end=0.02)
            assert row["status"].startswith("error:") and "log" in row["status"]
            assert row["classifier_verdict"] != ""

    def test_thread_count_does_not_change_rows(self):
        # `threads` is accepted and ignored: every cell runs in one lockstep call
        g = RadialGrid(rho_min=0.01, n_cells=32)
        for k, t_end in ((1, 0.02), (2, 0.5)):
            cells = ([0.0], [-3.0, -2.0, 2.0], [2.0], GroupContext(1), k)
            serial = phase_sweep(*cells, grid=g, t_end=t_end)
            threaded = phase_sweep(*cells, grid=g, t_end=t_end, threads=4)
            assert serial[0]["status"] == "blown_up"
            assert serial == threaded

    # lambda = -0.5 is refused on the uniform grid, so its cells are error rows
    LOCKSTEP_BOX = ([0.0, -0.5, 0.75], [-3.0, -2.0, 2.0], [1.5, 2.0, 3.0, 4.0])

    def test_lockstep_rows_equal_single_runs(self):
        # the cells of either time order advance in lockstep; each row must be
        # the one a lone integrate call gives, field for field, whatever the
        # order of the lists
        g = RadialGrid(rho_min=1e-3, n_cells=32)
        ic0 = canonical_bump(g.nodes())
        cells = [(lam, a, p) for lam in self.LOCKSTEP_BOX[0]
                 for a in self.LOCKSTEP_BOX[1] for p in self.LOCKSTEP_BOX[2]]
        for k, ic in ((1, ic0), (2, np.stack([ic0, np.zeros_like(ic0)]))):
            rows = phase_sweep(*self.LOCKSTEP_BOX, GroupContext(1), k, grid=g, t_end=0.3)
            assert [(r["lambda"], r["a"], r["p"]) for r in rows] == cells
            for row, cell in zip(rows, cells):
                pr = params(*cell, k=k)
                single = {"status": "", "blow_up_time": "", "dt_policy": "", "end_reason": "",
                          "steps": "", "rejected": ""}
                try:
                    res = integrate(pr, ic, g, 0.3, boundary_value=0.1)
                except ValueError as exc:
                    single["status"] = f"error: {exc}"
                else:
                    single.update(
                        status=res.status, dt_policy=res.dt_policy, end_reason=res.end_reason,
                        steps=res.steps, rejected=res.rejected,
                        blow_up_time="" if res.blow_up_time is None else f"{res.blow_up_time:.6g}")
                assert {key: row[key] for key in single} == single, (k, cell)
            reasons = {row["end_reason"] for row in rows}
            assert reasons == {"", "sup_threshold", "dt_floor", "completed"}
            assert sum(row["status"].startswith("error:") for row in rows) == 12

            shuffled = [list(reversed(self.LOCKSTEP_BOX[0])), [2.0, -3.0, -2.0],
                        [3.0, 1.5, 4.0, 2.0]]
            again = phase_sweep(*shuffled, GroupContext(1), k, grid=g, t_end=0.3)
            by_cell = {(r["lambda"], r["a"], r["p"]): r for r in again}
            assert [by_cell[cell] for cell in cells] == rows

    def test_non_finite_run_does_not_spread(self, monkeypatch):
        # zero data against a weight past double range gives inf * 0 = NaN in
        # one run's forcing; a zero coupling between blocks would carry it into
        # every other run of the block solve.  At either order every attempt
        # of that run is rejected until dt reaches its floor.  Each attempt is
        # one step call for the whole batch, and each non-finite one one more
        # with that run's rows cleared: no run steps again on its own.
        g = RadialGrid(rho_min=1e-3, n_cells=32)
        rho = g.nodes()
        ic0 = canonical_bump(rho)
        stop = "solver_stall"
        for k in (2, 1):
            runs = [(params(0.0, a=a, p=p, k=k), data) for a, p, data in (
                (0.0, 2.0, ic0), (-150.0, 2.5, np.zeros_like(ic0)), (2.0, 3.0, ic0))]
            cells = [(pr, *evolve._prepare(pr, np.stack([x, np.zeros_like(x)])[:k], g, 0.3, 0.1))
                     for pr, x in runs]
            name = "_newmark" if k == 2 else "_rodas3"
            step, calls = getattr(newmark, name), []

            def counted(live, *args, step=step, calls=calls):
                calls.append(len(live))
                return step(live, *args)

            with np.errstate(all="ignore"):
                with monkeypatch.context() as m:
                    m.setattr(newmark, name, counted)
                    together = newmark.advance(cells, rho, 0.3, True)
                alone = [newmark.advance([cell], rho, 0.3, True)[0] for cell in cells]
            # each call is one attempt of every live run, or its retake; the
            # longest run took part in all
            assert 1 not in calls
            assert len(calls) == max(x.steps + x.rejected for x in together) + together[1].rejected
            assert together[1].end_reason == stop
            assert "non-finite right-hand side" in together[1].note
            # the floor counts from the first dt at t = 0, not from ulp(0)
            assert together[1].rejected < 30
            for x, y in zip(together, alone):
                assert (x.status, x.end_reason, x.steps, x.rejected, x.t_final) == \
                    (y.status, y.end_reason, y.steps, y.rejected, y.t_final)
                assert np.array_equal(x.final_layers, y.final_layers, equal_nan=True)
            assert [x.end_reason for x in together] == ["completed", stop, "completed"]

    def lockstep_cells(self, k):
        """The admissible LOCKSTEP_BOX cells of order k, prepared for
        `newmark.advance`, and the grid's nodes."""
        g = RadialGrid(rho_min=1e-3, n_cells=32)
        rho = g.nodes()
        cells = []
        for lam in self.LOCKSTEP_BOX[0]:
            for a in self.LOCKSTEP_BOX[1]:
                for p in self.LOCKSTEP_BOX[2]:
                    pr = params(lam, a, p, k)
                    try:
                        cells.append((pr, *evolve._prepare(
                            pr, layers(canonical_bump(rho), k), g, 0.3, 0.1)))
                    except ValueError:  # lambda = -0.5 is refused on the uniform grid
                        pass
        return cells, rho

    def test_lockstep_results_equal_lone_runs_to_the_bit(self):
        # one batch of mixed p raises |u| slice by slice, a lone run in one
        # slice; every field of every result, and the final layers to the
        # bit, must agree, for nonlinear runs and for linear (zero-weight) ones
        for k, nonlinear in ((1, True), (2, True), (1, False), (2, False)):
            cells, rho = self.lockstep_cells(k)
            assert len(cells) == 24
            together = newmark.advance(cells, rho, 0.3, nonlinear)
            reasons = set()
            for cell, x in zip(cells, together):
                (y,) = newmark.advance([cell], rho, 0.3, nonlinear)
                assert (x.status, x.t_final, x.sup_norm_history, x.blow_up_time, x.end_reason,
                        x.note, x.steps, x.rejected) == \
                    (y.status, y.t_final, y.sup_norm_history, y.blow_up_time, y.end_reason,
                     y.note, y.steps, y.rejected), (k, nonlinear, cell[0])
                assert x.final_layers.shape == (k, rho.size)
                assert np.array_equal(x.final_layers, y.final_layers), (k, nonlinear, cell[0])
                reasons.add(x.end_reason)
            assert reasons == ({"sup_threshold", "dt_floor", "completed"} if nonlinear
                               else {"completed"})

    def test_without_a_history_a_run_records_its_start_and_end(self):
        # history=False keeps exactly (0, sup0) and (t_final, sup) for every
        # end, and changes nothing else; with a history a run that did not
        # complete ends with the same point
        g = RadialGrid(rho_min=1e-3, n_cells=32)
        reasons = set()
        for k in (1, 2):
            cells, rho = self.lockstep_cells(k)
            stall = params(0.0, a=-150.0, p=2.5, k=k)  # a non-finite forcing from t = 0
            cells.append((stall, *evolve._prepare(stall, layers(np.zeros_like(rho), k), g,
                                                  0.3, 0.1)))
            bare = newmark.advance(cells, rho, 0.3, True, history=False)
            full = newmark.advance(cells, rho, 0.3, True)
            for (_, start, _), x, y in zip(cells, bare, full):
                sup0, sup = np.abs(start[0]).max(), np.abs(x.final_layers[0]).max()
                assert x.sup_norm_history == ((0.0, sup0), (x.t_final, sup))
                assert (x.status, x.t_final, x.blow_up_time, x.end_reason, x.note, x.steps,
                        x.rejected) == (y.status, y.t_final, y.blow_up_time, y.end_reason,
                                        y.note, y.steps, y.rejected)
                assert np.array_equal(x.final_layers, y.final_layers)
                assert y.sup_norm_history[0] == x.sup_norm_history[0]
                if y.status != "completed":
                    assert y.sup_norm_history[-1] == x.sup_norm_history[-1]
                reasons.add(x.end_reason)
        assert reasons == {"completed", "sup_threshold", "dt_floor", "solver_stall"}

    def test_without_a_history_memory_does_not_grow_with_steps(self):
        # the sweep runs without a history because a run with one keeps each
        # accepted step until its end; without one the peak of a run's
        # allocations is the same over 30 times as many steps
        g = RadialGrid(rho_min=1e-3, n_cells=32, spacing="log")
        rho = g.nodes()
        cells = []
        for a in (-2.0, 0.0, 2.0):
            pr = params(0.0, a=a, k=2)
            cells.append((pr, *evolve._prepare(pr, layers(canonical_bump(rho), 2), g, 10.0, 0.1)))
        peaks, steps = {}, {}
        for history in (False, True):
            for t_end in (0.3, 10.0):
                tracemalloc.start()
                try:
                    res = newmark.advance(cells, rho, t_end, False, history=history)
                    peaks[history, t_end] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert [r.status for r in res] == ["completed"] * 3
                steps[t_end] = res[0].steps
        assert steps[10.0] > 25 * steps[0.3]
        assert peaks[False, 10.0] < 1.25 * peaks[False, 0.3]
        assert peaks[True, 10.0] > 2.0 * peaks[True, 0.3] > 4.0 * peaks[False, 10.0]

    def test_linear_run_is_a_zero_weight_run(self):
        # a linear run has weight 0 and p = 1, so its forcing is 0 to the bit,
        # sign included, wherever rho^a or |u|^(p-1) would overflow
        g = RadialGrid(rho_min=1e-3, n_cells=32)
        rho = g.nodes()
        n = rho.size
        bands = np.stack([linear_part(g, 1, 0.0).bands] * 2, axis=1)
        batch = newmark._Batch(bands, np.zeros((2, n)), np.ones(2), None)
        x = np.stack([np.linspace(-1e300, 1e300, n), -canonical_bump(rho)])
        g_lin, w = batch.forcing(0.0, x)
        assert np.array_equal(g_lin, np.zeros((2, n))) and not np.signbit(g_lin).any()
        assert np.array_equal(w, np.zeros((2, n))) and batch.rate(w) == [0.0, 0.0]
        # so a and p, here overflowing, change no bit of a linear run
        for k in (1, 2):
            runs = []
            for a, p in ((0.0, 2.0), (-400.0, 200.0)):
                pr = params(0.0, a, p, k)
                cell = (pr, *evolve._prepare(pr, layers(canonical_bump(rho), k), g, 0.3, 100.0))
                (res,) = newmark.advance([cell], rho, 0.3, False)
                runs.append(res)
            x, y = runs
            assert x.status == "completed"
            assert (x.status, x.t_final, x.sup_norm_history, x.note, x.steps, x.rejected) == \
                (y.status, y.t_final, y.sup_norm_history, y.note, y.steps, y.rejected)
            assert np.array_equal(x.final_layers, y.final_layers)

    def test_take_rebuilds_every_cache(self):
        # a compacted batch must cache what a batch built from its rows does:
        # the flat diagonals of its own bands, p as a column and the p slices
        g = RadialGrid(rho_min=1e-3, n_cells=32)
        rho = g.nodes()
        lams, avals, ps = (0.0, 0.75, 0.0, 3.0, 0.75), (-3.0, -2.0, 0.0, 2.0, -2.0), \
            np.array([1.5, 1.5, 2.0, 3.0, 3.0])
        bands = np.stack([linear_part(g, 1, lam).bands for lam in lams], axis=1)
        weight = np.stack([rho ** a for a in avals])
        batch = newmark._Batch(bands, weight, ps, None)
        for rows in ([0, 2, 3], [1, 4], [3], [0, 1, 2, 3, 4]):
            taken = batch.take(rows)
            fresh = newmark._Batch(bands[:, rows], weight[rows], ps[rows], None)
            for mine, theirs in zip(taken.diagonals, fresh.diagonals):
                assert np.array_equal(mine, theirs)
                assert np.shares_memory(mine, taken.bands)
            assert taken.p_col.shape == (len(rows), 1)
            assert np.array_equal(taken.p_col, fresh.p_col)
            assert taken.slices == fresh.slices
        assert batch.take([0, 2, 3]).slices == [(1.5, slice(0, 1)), (2.0, slice(1, 2)),
                                                (3.0, slice(2, 3))]

    def test_numpy_error_state_is_restored(self, monkeypatch):
        # advance ignores floating-point errors while it steps and gives the
        # caller's error state back on a normal return, a singular system
        # and an extra callback that raises
        inside = []

        def extra(t, g):
            inside.append(np.geterr())
            if t > 0.0:
                raise ZeroDivisionError("source")

        with np.errstate(all="raise"):
            caller = np.geterr()
            for k, solver in ((1, "dgttrf"), (2, "dgtsv")):
                cells, rho = self.lockstep_cells(k)
                results = newmark.advance(cells[:3], rho, 0.3, True)
                assert [r.status for r in results] == ["blown_up"] * 3
                assert np.geterr() == caller

                lapack = getattr(newmark, solver)

                def singular(*args, lapack=lapack, **kwargs):
                    return (*lapack(*args, **kwargs)[:-1], 1)

                with monkeypatch.context() as m:
                    m.setattr(newmark, solver, singular)
                    (res,) = newmark.advance(cells[:1], rho, 0.3, True)
                assert isinstance(res, RuntimeError) and "singular" in str(res)
                assert np.geterr() == caller

                with raises(ZeroDivisionError):
                    newmark.advance(cells[:1], rho, 0.3, True, extra)
                assert np.geterr() == caller
        assert inside and all(state == dict.fromkeys(caller, "ignore") for state in inside)
