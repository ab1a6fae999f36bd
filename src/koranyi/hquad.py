"""Integration engines for the Koranyi ball.

Three routes, kept deliberately independent so they can cross-check each other:

* `radial_integral` -- the polar formula.  For integrands of the exact shape
  psi(xi) * F(|xi|) the volume integral over an annulus collapses to

      C_N * integral of rho^{2N+1} F(rho) drho,
      C_N = omega_{2N} * int_0^pi sin^N(theta) dtheta,

  with omega_{2N} = 2 pi^N / (N-1)! the area of the unit sphere in R^{2N}
  and int_0^pi sin^N = sqrt(pi) Gamma((N+1)/2) / Gamma(N/2 + 1).
  The 1D integral always runs in t = -ln(rho), which straightens an endpoint
  singularity at rho = 0 and spreads every decade of rho evenly: blocks at
  most RADIAL_BLOCK wide in t, each an interval of `gk21`, the vectorised
  adaptive Gauss-Kronrod G10/K21 rule that the time integrals of `capacity`
  share.  `radial_integrals` runs one `gk21` round for all blocks and
  scales: every panel still open, of every block of every annulus, goes
  through the integrand in one array call per round, so the module needs
  numpy alone.

* `mc_annulus` -- rejection-sampled Monte Carlo over the bounding box, for
  arbitrary integrands.  Counter-based RNG: a fixed seed fixes every draw,
  whatever the block size MC_CHUNK, which sets only the summation order.

* `surface_integral` -- tensor-product quadrature on the unit gauge sphere,
  its points placed by `hgroup.sphere_chart` at r = sqrt(cos chi), where the
  surface element

      dH = (1/2) cos^{N-1}(chi) sqrt(sin^2(chi) + 4 cos^3(chi)) dchi dsigma(omega)

  is smooth on [0, pi/2] (the raw (r, omega) chart is singular at the equator).
  The boundary functional's measure psi/|grad rho| dH is cos^N(chi) dchi
  dsigma(omega) in the same chart, and `surface_nodes` weights it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hgroup import GroupContext, HPoint, sphere_chart

# Largest surface rule `surface_nodes` builds, in points.  It admits 200
# nodes at N = 1 (80 000 points), 24 at N = 2 (165 888) and the smallest rule
# at N = 3 (1 048 576, about 0.13 GB of coordinates and intermediates).
SURFACE_NODE_BUDGET = 2_000_000
# absolute and relative tolerance of every `gk21` integral
RADIAL_TOL = 1e-10
# widest block of t = -ln(rho) that one `gk21` call in `radial_integral` covers
RADIAL_BLOCK = 80.0
# equal panels each `gk21` call starts from: fewer rounds, each one array call
GK_START = 8
# most panels one `gk21` call evaluates; a round that would pass it raises
GK_LIMIT = 4000
# rows of draws per block in `mc_annulus`: one reused buffer of about 0.6 MB
# at N = 4 stays in cache; it sets the summation order, not the draws
MC_CHUNK = 1 << 13
# fewest draws `mc_annulus` accepts
MC_MIN_SAMPLES = 1000

# QUADPACK's dqk21 pair (Piessens et al. 1983), rounded to double: the
# nonnegative Kronrod nodes and weights, largest node first; nodes 1, 3, 5,
# 7, 9 are the 10-point Gauss nodes, with Gauss weights _WG
_XK = (
    0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
    0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
    0.2943928627014602, 0.14887433898163122, 0.0,
)
_WK = (
    0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996,
    0.0931254545836976, 0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
    0.14277593857706009, 0.14773910490133849, 0.1494455540029169,
)
_WG = (
    0.06667134430868814, 0.1494513491505806, 0.21908636251598204, 0.26926671930999635,
    0.29552422471475287,
)
# the 21 nodes in ascending order, and their K21 and G10 weights as columns
_NODES = np.concatenate([-np.array(_XK), _XK[-2::-1]])
_WEIGHTS = np.zeros((21, 2))
_WEIGHTS[:, 0] = np.concatenate([_WK, _WK[-2::-1]])
_WEIGHTS[1:10:2, 1] = _WG
_WEIGHTS[19:10:-2, 1] = _WG


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class Annulus:
    """The hollow ball {r_inner < |xi| < r_outer}; r_inner = 0 gives a ball."""

    r_inner: float
    r_outer: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.r_inner < self.r_outer:
            raise ValueError(f"need 0 <= r_inner < r_outer, got ({self.r_inner}, {self.r_outer})")


def c_n(ctx: GroupContext) -> float:
    """The polar-formula constant C_N = omega_{2N} * int_0^pi sin^N, in closed form.

    The Gamma ratio is evaluated as the Wallis integral c (N-1)!!/N!!, with
    c = pi for even N and 2 for odd N: exact integers, rounded once.
    """
    n = ctx.N
    omega = 2.0 * math.pi**n / math.factorial(n - 1)
    parity = math.pi if n % 2 == 0 else 2.0
    return omega * (parity * math.prod(range(n - 1, 0, -2)) / math.prod(range(n, 0, -2)))


def gk21(f, bounds) -> list[tuple[float, float, int]]:
    """Adaptive Gauss-Kronrod integrals of f over each interval (a, b) of
    bounds: a list of (value, error, evaluations).

    f(nodes, which) maps an array of nodes, one row of 21 per panel, to values
    of that shape; which, of shape (rows, 1), holds each row's position in
    bounds.  Each round sends the open panels of every interval through f in
    one call, and judges each interval alone, bitwise as a lone call would:
    its first round has GK_START equal panels, each panel's error estimate is
    |K21 - G10|, and a round keeps every panel within its share of
    RADIAL_TOL, absolute or relative to the interval's current value, its
    share being its fraction of b - a; it bisects the rest.  A local share
    rather than a global sum keeps bisecting a kink until its own estimate is
    small, where |K21 - G10| understates the K21 error.  Floating-point
    faults are silenced while f runs; a non-finite value raises RuntimeError,
    and so does a bisection that takes an interval past GK_LIMIT panels.
    """
    n = len(bounds)
    half = [np.full(GK_START, 0.5 * (b - a) / GK_START) for a, b in bounds]
    centre = [a + h * np.arange(1, 2 * GK_START, 2) for (a, _), h in zip(bounds, half)]
    value, err, panels, out = [0.0] * n, [0.0] * n, [GK_START] * n, [None] * n
    live = list(range(n))
    while live:
        sizes = [centre[i].size for i in live]
        which = np.repeat(live, sizes)[:, None]
        nodes = np.concatenate([centre[i][:, None] + half[i][:, None] * _NODES for i in live])
        with np.errstate(all="ignore"):
            vals = f(nodes, which)
        if not np.isfinite(vals).all():
            a, b = bounds[which[~np.isfinite(vals).all(axis=1), 0][0]]
            raise RuntimeError(f"non-finite integrand on [{a}, {b}]")
        # each interval's own rows, in a lone call's panel order: a product
        # over rows of several intervals rounds differently
        for i, rows in zip(live, np.split(vals, np.cumsum(sizes)[:-1])):
            a, b = bounds[i]
            kg = (rows @ _WEIGHTS) * half[i][:, None]
            est = np.abs(kg[:, 0] - kg[:, 1])
            total = value[i] + float(kg[:, 0].sum())
            keep = est <= RADIAL_TOL * max(1.0, abs(total)) * (half[i] / (0.5 * (b - a)))
            if keep.all():
                out[i] = (total, err[i] + float(est.sum()), 21 * panels[i])
                continue
            value[i] += float(kg[keep, 0].sum())
            err[i] += float(est[keep].sum())
            c, h = centre[i][~keep], 0.5 * half[i][~keep]
            centre[i], half[i] = np.concatenate([c - h, c + h]), np.concatenate([h, h])
            panels[i] += centre[i].size
            if panels[i] > GK_LIMIT:
                raise RuntimeError(f"adaptive rule did not converge on [{a}, {b}] "
                                   f"within {GK_LIMIT} panels")
        live = [i for i in live if out[i] is None]
    return out


def radial_integral(F, ann: Annulus, ctx: GroupContext) -> QuadResult:
    """integral over the annulus of psi * F(|xi|) = C_N * int rho^{2N+1} F.

    One route for every annulus: t = -ln(rho) runs from -ln(r_outer) to
    -ln(r_inner), or to infinity for a ball, in blocks at most RADIAL_BLOCK
    wide, each one `gk21` interval to RADIAL_TOL, absolute and relative.  Log
    spacing gives every decade of rho the same share of the rule, so a
    transition zone a few per mille of the rho-interval wide is still seen.
    F takes an array of radii; a scalar return stands for a constant.

    For a ball, raises RuntimeError when the profile looks non-integrable at
    the origin, or when its origin tail decays so slowly that double
    precision cannot resolve it (roughly rho^{-Q} within a hundredth of the
    borderline power).  For any region, raises RuntimeError when an
    evaluation leaves double range while its neighbouring nodes still carry
    weight: the part of the integral there cannot be resolved.
    """
    return radial_integrals(lambda rho, _: F(rho), [ann], ctx)[0]


def radial_integrals(F, annuli, ctx: GroupContext) -> list[QuadResult]:
    """`radial_integral` over each of the annuli, bitwise as alone: every block
    of every annulus in one `gk21` call, but a ball's blocks one per call.
    F(rho, which) takes, in shape (rows, 1), the annulus of each row of radii.
    """
    cN = c_n(ctx)
    expo = 2 * ctx.N + 1
    seen = []  # (t, values, annulus of each row) of every round

    def logspace(t: np.ndarray, which: np.ndarray) -> np.ndarray:
        # fused rho^{expo} F(rho) drho at rho = e^{-t}; a value that left
        # double range counts as 0 here and is judged after the march
        rows = owner[which]
        vals = np.exp(-(expo + 1) * t) * F(np.exp(-t), rows)
        seen.append((t, vals, rows[:, 0]))
        return np.where(np.isfinite(vals), vals, 0.0)

    n = len(annuli)
    start = [-math.log(ann.r_outer) for ann in annuli]
    end = [math.inf if ann.r_inner == 0.0 else -math.log(ann.r_inner) for ann in annuli]
    val, err, neval, prev = [0.0] * n, [0.0] * n, [0] * n, [math.inf] * n
    # A ball is marched block by block rather than mapped onto a finite
    # interval: such a map starves tails that decay on a scale of hundreds of
    # t-units, and per-block mass is exactly the quantity that exposes a
    # divergent origin.
    live = list(range(n))
    for _ in range(400):
        blocks = []
        for i in live:
            stop = end[i] if end[i] < math.inf else start[i] + RADIAL_BLOCK
            while start[i] < stop:
                blocks.append((i, start[i], min(start[i] + RADIAL_BLOCK, stop)))
                start[i] = blocks[-1][2]
        owner = np.array([i for i, *_ in blocks])  # the annulus of each block
        for (i, *_), (v, e, m) in zip(blocks, gk21(logspace, [ab for _, *ab in blocks])):
            val[i] += v
            err[i] += e
            neval[i] += m
            prev[i], last = v, prev[i]
            if end[i] < math.inf:
                continue
            floor = RADIAL_TOL * max(1.0, abs(val[i]))
            if abs(v) > 0.5 * abs(last) and abs(last) > floor:
                raise RuntimeError(
                    f"radial integral appears divergent on {annuli[i]}: "
                    "mass per block toward the origin is not halving"
                )
            if abs(v) <= floor and abs(last) <= floor:
                end[i] = start[i]
        live = [i for i in live if start[i] != end[i]]
        if not live:
            break
    else:
        raise RuntimeError(
            f"radial integral appears divergent on {annuli[live[0]]}: "
            "no decay toward the origin after 400 blocks"
        )
    lost = {int(i) for _, vals, rows in seen for i in rows[~np.isfinite(vals).all(axis=1)]}
    out = []
    for i, ann in enumerate(annuli):
        if i in lost:
            # Some nodes left double range.  The finite nodes next to them, in t
            # order over every round and block, bound what was lost: beyond them
            # the profile decays at least as fast as the block check tolerates,
            # so the lost mass is at most their size over that rate.
            t = np.concatenate([nodes[rows == i].ravel() for nodes, _, rows in seen])
            vals = np.concatenate([v[rows == i].ravel() for _, v, rows in seen])
            order = np.argsort(t, kind="stable")
            t, vals = t[order], vals[order]
            bad = ~np.isfinite(vals)
            edge = np.zeros_like(bad)
            edge[:-1] |= bad[1:]
            edge[1:] |= bad[:-1]
            tail = np.abs(vals[edge & ~bad]).max(initial=0.0) / (math.log(2.0) / RADIAL_BLOCK)
            if tail > 1e-6 * max(1.0, abs(val[i])):
                if bad[-1]:
                    where = "origin tail" if ann.r_inner == 0.0 else "inner edge"
                else:
                    where = f"stretch near rho = {math.exp(-t[bad][0]):.6g}"
                raise RuntimeError(
                    f"radial integral on {ann} still carries weight at "
                    f"the edge of double range; the {where} cannot be resolved"
                )
            err[i] += tail
        if not (math.isfinite(val[i]) and math.isfinite(err[i])):
            raise RuntimeError(
                f"radial integral did not converge on {ann}: value={val[i]}, err={err[i]}")
        out.append(QuadResult(cN * val[i], cN * err[i], neval[i]))
    return out


def mc_annulus(f, ann: Annulus, samples: int, seed: int, ctx: GroupContext) -> QuadResult:
    """Monte Carlo integral of f over the annulus by stratified box rejection.

    The annulus is split into dyadic gauge shells, each sampled by rejection
    from its own bounding box |x_i|, |y_i| <= r, |phi| <= r^2 (the gauge
    dominates both |z| and sqrt(|phi|)); the final shell extends down to
    r_inner, so the strata cover the whole annulus.  Stratification keeps the
    integrand bounded on every stratum, which makes the reported standard
    error consistent even for profiles with an integrable origin singularity,
    where a single-box estimator has infinite variance and quietly loses the
    origin mass.  Per-shell counts halve down to a floor, so well-behaved
    integrands still spend most of the budget on the outer shell; the shell
    estimate is box volume times the mean of f * indicator, rejected draws
    contributing zeros, and shell errors combine in quadrature.  Fixed seed
    implies bit-identical results (fixed allocation, per-shell Philox
    substreams, in-order accumulation).  Draws stream through one reused
    buffer of MC_CHUNK rows; a shell's Philox stream does not depend on that
    size, which sets only the order in which accepted values are summed.
    neval reports the draws actually spent, the sum over shells j of
    max(max(1000, samples // 256), samples >> (j + 1)): 150 000 of 200 000
    samples on the two shells of (0.25, 1), and 231 437 on the 40 of the
    ball, where the floor engages.  samples and seed must be integers (not
    bool).
    """
    for name, v in (("samples", samples), ("seed", seed)):
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {v!r}")
    if samples < MC_MIN_SAMPLES:
        raise ValueError(f"need at least {MC_MIN_SAMPLES} samples, got {samples}")
    n = ctx.N
    buf = np.empty((MC_CHUNK, 2 * n + 1))

    m_floor = max(1000, samples // 256)
    if ann.r_inner > 0.0:
        needed = max(1, math.ceil(math.log2(ann.r_outer / ann.r_inner)))
    else:
        needed = 40
    n_shells = min(needed, 40, max(1, samples // (2 * m_floor)))

    value = 0.0
    var_sum = 0.0
    accepted = 0
    neval = 0
    for j in range(n_shells):
        hi = ann.r_outer * 2.0**-j
        lo = ann.r_inner if j == n_shells - 1 else max(ann.r_inner, 0.5 * hi)
        m_shell = max(m_floor, samples >> (j + 1))
        box_vol = (2.0 * hi) ** (2 * n) * 2.0 * hi * hi
        lo4, hi4 = lo**4, hi**4

        rng = np.random.Generator(np.random.Philox(key=seed).jumped(j))
        total = 0.0
        total_sq = 0.0
        done = 0
        while done < m_shell:
            m = min(MC_CHUNK, m_shell - done)
            u = rng.random(out=buf[:m])
            u *= 2.0
            u -= 1.0
            u *= hi  # bitwise rng.uniform(-1, 1) * hi
            u[:, 2 * n] *= hi
            z = u[:, : 2 * n]
            nrm4 = np.einsum("ij,ij->i", z, z) ** 2 + u[:, 2 * n] ** 2
            ok = u[(nrm4 > lo4) & (nrm4 <= hi4)]
            vals = np.empty(len(ok))
            if len(ok):
                vals[:] = f(ok[:, :n], ok[:, n : 2 * n], ok[:, 2 * n])
            if not np.isfinite(vals).all():
                raise RuntimeError("integrand returned non-finite values inside the annulus")
            total += float(vals.sum())
            total_sq += float(vals @ vals)
            accepted += len(ok)
            done += m

        mean = total / m_shell
        var = max(total_sq / m_shell - mean * mean, 0.0) * m_shell / max(m_shell - 1, 1)
        value += box_vol * mean
        var_sum += box_vol**2 * var / m_shell
        neval += m_shell

    if accepted == 0:
        raise RuntimeError(f"no samples accepted in {ann} after {neval} draws")
    return QuadResult(value, math.sqrt(var_sum), neval)


# ---------------------------------------------------------------------------
# unit-sphere surface quadrature
# ---------------------------------------------------------------------------

def sphere_rule(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Product quadrature for the unit sphere S^{d-1} in R^d.

    Trapezoid in the azimuth (exact for trigonometric polynomials), Gauss-
    Legendre with the sin^{d-2} weight in each polar angle.  Returns points
    of shape (m, d) and weights summing to the sphere area.
    """
    if d < 2:
        raise ValueError("sphere_rule needs ambient dimension d >= 2")
    if d == 2:
        ang = 2.0 * math.pi * np.arange(2 * n) / (2 * n)
        pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        wts = np.full(2 * n, math.pi / n)
        return pts, wts
    sub_pts, sub_wts = sphere_rule(d - 1, n)
    t, w = np.polynomial.legendre.leggauss(n)
    theta = 0.5 * math.pi * (t + 1.0)
    w = 0.5 * math.pi * w
    pts = np.empty((n * sub_pts.shape[0], d))
    wts = np.empty(n * sub_pts.shape[0])
    for i, (th, wi) in enumerate(zip(theta, w)):
        s = slice(i * sub_pts.shape[0], (i + 1) * sub_pts.shape[0])
        pts[s, 0] = math.cos(th)
        pts[s, 1:] = math.sin(th) * sub_pts
        wts[s] = wi * math.sin(th) ** (d - 2) * sub_wts
    return pts, wts


def surface_nodes(nodes: int, ctx: GroupContext):
    """Quadrature nodes and weights on the unit gauge sphere.

    Returns (pts, w, w_flux): an `HPoint` batch placed by `sphere_chart` at
    r = sqrt(cos chi), then the weights of dH, so that sum(w * g) approximates
    the surface integral of g, and those of cos^N(chi) dchi dsigma(omega), the
    measure psi/|grad rho| dH.  `nodes` sets the chi resolution; the omega
    grid scales with it.  Gauss-Legendre chi nodes are interior, so the poles
    (r -> 0) and the equator are never sampled exactly.  The rule has
    4 n_chi n_om^(2N-1) points; above SURFACE_NODE_BUDGET it raises
    ValueError before allocating anything.
    """
    n_chi = max(8, nodes)
    n_om = max(8, n_chi // 2)
    # chi nodes x omega rule on S^{2N-1} (2 n_om^{2N-1} points) x two signs
    count = 2 * n_chi * 2 * n_om ** (2 * ctx.N - 1)
    if count > SURFACE_NODE_BUDGET:
        raise ValueError(
            f"a surface rule with {nodes} nodes at N = {ctx.N} has {count:.3g} points, "
            f"over the budget of {SURFACE_NODE_BUDGET:.3g}"
        )
    t, w = np.polynomial.legendre.leggauss(n_chi)
    chi = 0.25 * math.pi * (t + 1.0)
    w_chi = 0.25 * math.pi * w
    cos = np.cos(chi)
    elem = 0.5 * cos ** (ctx.N - 1) * np.sqrt(np.sin(chi) ** 2 + 4.0 * cos**3)
    om_pts, om_wts = sphere_rule(2 * ctx.N, n_om)

    # tensor product (sign x chi x omega), flattened
    r = np.broadcast_to(np.sqrt(cos)[:, None], (2, n_chi, om_wts.size))
    chart = sphere_chart(r, om_pts, np.array([1.0, -1.0])[:, None, None])
    pts = HPoint(chart.x.reshape(-1, ctx.N), chart.y.reshape(-1, ctx.N), chart.phi.ravel())
    w, w_flux = (np.tile(np.outer(w_chi * g, om_wts).ravel(), 2) for g in (elem, cos**ctx.N))
    return pts, w, w_flux


def surface_integral(g, nodes: int, ctx: GroupContext) -> QuadResult:
    """Surface integral of g over the unit gauge sphere, both hemispheres.

    The error estimate compares against a half-resolution rule.
    """
    pts, w, _ = surface_nodes(nodes, ctx)
    vals = np.asarray(g(*pts.coords()), dtype=float)
    if not np.isfinite(vals).all():
        raise RuntimeError("surface integrand returned non-finite values")
    value = float(np.dot(w, vals))

    coarse_pts, wh, _ = surface_nodes(max(8, nodes // 2), ctx)
    coarse = float(np.dot(wh, np.asarray(g(*coarse_pts.coords()), dtype=float)))
    return QuadResult(value, abs(value - coarse), w.size + wh.size)
