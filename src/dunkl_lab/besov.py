"""Moduli of smoothness, K-functional bounds, convolution seminorms, and the
numerical equivalence diagnostics between the four smoothness scales.

Four seminorm kinds are computed on truncated log grids:

  B       from omega(x)        = sup_{|y|<=x} ||R_k(y,f)||_p
  B_tilde from omega_tilde(x)  = ||R_k(x,f) + R_k(-x,f)||_p
  K       from the constructive K-functional upper bound
  C       from ||f * phi_t||_p / t^(beta+k-1), phi a moment-vanishing bump

The convolution with a moment-vanishing bump is evaluated through the exact
identity  (phi_t * f)(u) = int_0^inf phi_t(x) [R_k(x,f)(u) + R_k(-x,f)(u)]
dmu(x): the moment cancellation is analytic, but the symmetric remainder
tau_x f + tau_{-x} f - 2 sum b_2i(x) L^2i f is O(1) term by term and
~x^(2 n0) in sum, so the small-t values carry ~eps / t^(2 n0) relative error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .special import AlphaParam
from .funcalg import GaussPolyFunction, dunkl_power, dilate
from .quad import (LpContext, lp_norm, jacobi_rule, lp_norm_from_nodes,
                   norm_node_values)
from .taylor import (b_coeff, remainder_profile, symmetric_remainder_profile,
                     _theta_weighted_integral)

__all__ = [
    "BesovParams",
    "SeminormEstimate",
    "omega",
    "omega_tilde",
    "k_functional_upper",
    "conv_profile",
    "conv_norm",
    "conv_seminorm_integrand",
    "KINDS",
    "BesovSamples",
    "seminorm_from_samples",
    "slope_estimate",
    "equivalence_report",
    "default_grid",
]


def default_grid(lo: float = 1e-3, hi: float = 1e2,
                 per_decade: int = 12) -> np.ndarray:
    n = int(round(per_decade * math.log10(hi / lo))) + 1
    return np.geomspace(lo, hi, n)


@dataclass(frozen=True)
class BesovParams:
    alpha: AlphaParam
    k: int
    p: float
    q: float            # math.inf for the sup scale
    beta: float
    x_grid: np.ndarray = field(default_factory=default_grid)
    t_grid: np.ndarray = field(default_factory=default_grid)
    norm_T: float = 12.0
    norm_nodes: int = 160

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if self.p < 1.0 or self.k < 1:
            raise ValueError("need p >= 1 and k >= 1")
        if self.q < 1.0:
            raise ValueError("q must be >= 1 (use math.inf for the sup scale)")
        for g in (self.x_grid, self.t_grid):
            g = np.asarray(g)
            if g.ndim != 1 or np.any(np.diff(g) <= 0.0) or np.any(g <= 0.0):
                raise ValueError("grids must be strictly increasing and positive")
            if g[-1] / g[0] < 1e3:
                raise ValueError("grids must span at least three decades")

    def norm_ctx(self, extra: float = 0.0) -> LpContext:
        return LpContext(self.alpha, self.p, self.norm_T + extra,
                         n_nodes=self.norm_nodes)


@dataclass(frozen=True)
class SeminormEstimate:
    kind: str                  # one of B, B_tilde, K, C
    value: float
    diverging: bool
    grid: np.ndarray
    integrand: np.ndarray      # per-point samples (m(x)/x^(beta+k-1))^q-style


def _y_probe_grid(x: float) -> np.ndarray:
    """17 probe points in [-x, x] \\ {0}: log-spaced magnitudes over two
    decades, both signs (the smallest magnitude only on the positive side)."""
    mags = np.geomspace(x * 1e-2, x, 9)
    return np.concatenate([mags, -mags[1:]])


def _row_norms(ctx: LpContext, prof: Callable) -> np.ndarray:
    """L^p norms of the rows of a profile of x of shape (n, 1), each alone."""
    return np.array([lp_norm_from_nodes(ctx, rows).value
                     for rows in zip(*norm_node_values(ctx, prof))])


def omega(params: BesovParams, f: GaussPolyFunction, x):
    """Modulus of smoothness sup_{|y| <= x} ||R_k(y, f)||_{p,alpha} over a
    17-point probe grid, for a scalar x or an array (the result has its
    shape): the distinct probes of all x are one remainder profile."""
    xs = np.asarray(x, dtype=float)
    if np.any(xs <= 0.0):
        raise ValueError("x must be positive")
    probes = np.array([_y_probe_grid(v) for v in xs.ravel().tolist()])
    ys, inv = np.unique(probes.ravel(), return_inverse=True)
    best = _row_norms(params.norm_ctx(), remainder_profile(
        params.alpha, params.k, f, ys[:, None]))[inv].reshape(probes.shape)
    return best.max(axis=-1, initial=0.0).reshape(xs.shape)[()]


def _omega_tilde_profile(params: BesovParams, f: GaussPolyFunction, x):
    if np.any(np.asarray(x) <= 0.0):
        raise ValueError("x must be positive")
    return symmetric_remainder_profile(params.alpha, params.k, f, x)


def omega_tilde(params: BesovParams, f: GaussPolyFunction, x: float) -> float:
    """||R_k(x,f) + R_k(-x,f)||_{p,alpha} via the even-coefficient form."""
    return lp_norm(params.norm_ctx(), _omega_tilde_profile(params, f, x))


def k_functional_upper(params: BesovParams, f: GaussPolyFunction, x):
    """Upper bound for the Peetre K-functional
    K(x,f) = inf{||L^(k-1) f0||_p + x ||L^k f1||_p : f = f0 + f1}:
    the minimum of the two trivial splittings and the constructive one
    (f1 proportional to the iterated integral, so L^k f1 = R_k(x,f)/b_k(x),
    L^(k-1) f0 = -(1/b_k(x)) int Theta_0(x,y) R_k(y,f) A(y) dy), for a
    scalar x or an array: all R_k(x,f) are one remainder profile."""
    xs = np.asarray(x, dtype=float)
    if np.any(xs <= 0.0):
        raise ValueError("x must be positive")
    al, k = params.alpha, params.k
    ctx = params.norm_ctx()
    bound_i = lp_norm(ctx, dunkl_power(al, f, k - 1))
    norm_k = lp_norm(ctx, dunkl_power(al, f, k))
    xv = xs.ravel()
    rk_norms = _row_norms(ctx, remainder_profile(al, k, f, xv[:, None]))
    out = []
    for v, bk, rk in zip(xv.tolist(), b_coeff(al, k, xv).tolist(),
                         rk_norms.tolist()):
        def lkm1_f0(us, v=v, bk=bk):
            # one Theta_0-weighted integral per u, all u as rows, kinked at
            # |u|: the integrand is R_k(y,f)(u) at the u of each row
            u = np.ravel(us)
            rem = lambda ys, rows: remainder_profile(al, k, f, ys)(
                u[rows].reshape(-1, 1, 1))
            lf0 = _theta_weighted_integral(al, 0, v, rem, np.abs(u), n=32)
            return (-lf0 / bk).reshape(np.shape(us))

        out.append(min(bound_i, v * norm_k,
                       lp_norm(ctx, lkm1_f0) + v * rk / abs(bk)))
    return np.reshape(out, xs.shape)[()]


# -- convolution with a moment-vanishing bump ----------------------------------

def conv_profile(params: BesovParams, f: GaussPolyFunction,
                 phi: GaussPolyFunction, t: float) -> Callable:
    """u |-> (f * phi_t)(u), vectorized, via the symmetric-remainder identity
    (exact for phi with order-k vanishing moments) on 80 outer nodes."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    al = params.alpha
    phi_t = dilate(al, phi, t)
    T = phi_t.support_hint or 10.0 * t
    xs, ws = jacobi_rule(80, al.weight_exp, 0.0, 0.0, T)
    coef = ws * phi_t(xs) / al.norm_const
    sym = symmetric_remainder_profile(al, params.k, f, xs[:, None])

    def prof(us):
        us = np.asarray(us, dtype=float)
        return (coef @ sym(us.ravel())).reshape(us.shape)

    return prof


def conv_norm(params: BesovParams, f: GaussPolyFunction,
              phi: GaussPolyFunction, t: float) -> float:
    """||f * phi_t||_{p,alpha}."""
    return lp_norm(params.norm_ctx(), conv_profile(params, f, phi, t))


def conv_seminorm_integrand(params: BesovParams, f: GaussPolyFunction,
                            phi: GaussPolyFunction, t: float) -> float:
    """||f * phi_t||_{p,alpha} / t^(beta+k-1)."""
    return conv_norm(params, f, phi, t) / t ** (params.beta + params.k - 1)


# -- seminorms ------------------------------------------------------------------

def _q_aggregate(grid: np.ndarray, integrand: np.ndarray, q: float):
    if math.isinf(q):
        return float(np.max(integrand))
    lx = np.log(grid)
    return float(np.trapezoid(integrand ** q, lx)) ** (1.0 / q)


def _edge_slopes(grid, integrand):
    """Log-log slopes over the first and last decade of positive samples."""
    g = np.asarray(grid)
    m = np.asarray(integrand)
    pos = m > 0.0
    if pos.sum() < 4:
        return 1.0, -1.0     # vanishing integrand: treat as converging
    g, m = g[pos], m[pos]
    head = g <= g[0] * 10.0
    tail = g >= g[-1] / 10.0
    hs = slope_estimate(list(zip(g[head], m[head]))) if head.sum() >= 4 else 1.0
    ts = slope_estimate(list(zip(g[tail], m[tail]))) if tail.sum() >= 4 else -1.0
    return hs, ts


KINDS = ("B", "B_tilde", "K", "C")


class BesovSamples:
    """The samples behind the four scales for one (alpha, k, grids, norm_T,
    norm_nodes, f, phi), each computed once, on first use, at any x (t for
    C): omega (B) and the K bound (K) at params.p; the omega_tilde profile
    (B_tilde) and f * phi_t (C) on the nodes of the L^p rules, which give
    their norms for every p.  None of them depends on q or beta."""

    def __init__(self, params: BesovParams, f: GaussPolyFunction,
                 phi: Optional[GaussPolyFunction] = None):
        self.params, self.f, self.phi, self._memo = params, f, phi, {}

    def _compute(self, kind: str, vs: np.ndarray):
        pr, f, ctx = self.params, self.f, self.params.norm_ctx()
        if kind in ("B", "K"):
            return (omega if kind == "B" else k_functional_upper)(pr, f, vs)
        if kind == "B_tilde":
            return list(zip(*norm_node_values(
                ctx, _omega_tilde_profile(pr, f, vs[:, None]))))
        return [norm_node_values(ctx, conv_profile(pr, f, self.phi, t))
                for t in vs.tolist()]

    def value(self, kind: str, v, p: Optional[float] = None):
        """A kind's samples at v, a scalar or an array (t for C), in L^p,
        p = params.p unless given (only B_tilde and C take another p).
        The points not sampled yet are computed in one call."""
        pr = self.params
        if kind not in KINDS:
            raise ValueError(f"unknown seminorm kind {kind!r}")
        if kind == "C" and self.phi is None:
            raise ValueError("kind C requires a moment-vanishing phi")
        if kind in ("B", "K") and p not in (None, pr.p):
            raise ValueError(f"{kind} is sampled at p = {pr.p:g} only")
        vs = np.asarray(v, dtype=float)
        keys = [(kind, u) for u in vs.ravel().tolist()]
        new = list(dict.fromkeys(key for key in keys if key not in self._memo))
        if new:
            self._memo.update(zip(new, self._compute(
                kind, np.array([u for _, u in new]))))
        out = [self._memo[key] for key in keys]
        if kind not in ("B", "K"):
            ctx = replace(pr.norm_ctx(), p=pr.p if p is None else p)
            out = [lp_norm_from_nodes(ctx, m).value for m in out]
        return np.reshape(out, vs.shape)[()]

    def samples(self, kind: str, p: Optional[float] = None):
        """(grid, m): a kind's samples on t_grid (C) or x_grid (the rest)."""
        grid = np.asarray(self.params.t_grid if kind == "C"
                          else self.params.x_grid, dtype=float)
        return grid, self.value(kind, grid, p)


def seminorm_from_samples(params: BesovParams, kind: str, grid, m
                          ) -> SeminormEstimate:
    """Aggregate precomputed (grid, m) samples into a SeminormEstimate."""
    grid = np.asarray(grid, dtype=float)
    m = np.asarray(m, dtype=float)
    e = params.beta + params.k - 1
    if kind == "K":
        # the K-scale integrates (K(x,f)/x^beta)^q dx/x, without the k-1 shift
        integrand = m / grid ** params.beta
    else:
        integrand = m / grid ** e
    hs, ts = _edge_slopes(grid, integrand)
    diverging = (hs < 0.05) or (ts > -0.05)
    return SeminormEstimate(kind, _q_aggregate(grid, integrand, params.q),
                            diverging, grid, integrand)


def slope_estimate(values, window=None) -> float:
    """Least-squares slope of log m against log x over the window."""
    pts = [(x, m) for x, m in values
           if (window is None or window[0] <= x <= window[1]) and m > 0.0]
    if len(pts) < 4:
        raise ValueError("slope estimate needs at least 4 positive points")
    lx = np.log([x for x, _ in pts])
    lm = np.log([m for _, m in pts])
    return float(np.polyfit(lx, lm, 1)[0])


# -- equivalence diagnostics ----------------------------------------------------

def _compare_kernel_upper(x, t, al: AlphaParam, r: float):
    return np.minimum((x / t) ** (2.0 * (al.alpha + 1.0)), (t / x) ** r)


def _compare_kernel_lower(x, t, k: int):
    return np.minimum((x / t) ** (k - 1), (x / t) ** k)


def equivalence_report(params: BesovParams, f: GaussPolyFunction,
                       phi: GaussPolyFunction) -> dict:
    """Numerical diagnostics for the four-way equivalence of the smoothness
    scales: the omega/K sandwich, the two one-sided convolution estimates,
    and the four truncated seminorms, all read from one BesovSamples.

    PASS iff the sandwich ratio stays flat (|slope| <= 0.15) and bounded
    (max/min < 50) on 1e-2 <= x <= 1, and both one-sided estimates, probed
    at t and x in {0.05, 0.2, 1}, hold with finite recorded constants.  For
    p = 1 only the direction controlled by the upper convolution estimate is
    asserted (the reverse estimate requires p > 1).  Any sub-computation
    failure yields INCONCLUSIVE, never PASS.  Once every kind's grid is
    sampled, the BesovSamples is returned under "samples", for aggregating
    at other q, beta and p.
    """
    al, k, out = params.alpha, params.k, {}
    try:
        s = BesovSamples(params, f, phi)
        grids = {kind: s.samples(kind) for kind in KINDS}
        out["samples"] = s
        xg, omt = grids["B_tilde"]
        win = (1e-2 <= xg) & (xg <= 1.0)
        xs = xg[win]
        ratio = grids["B"][1][win] / (xs ** (k - 1) * grids["K"][1][win])
        out["sandwich_ratio_min"] = float(ratio.min())
        out["sandwich_ratio_max"] = float(ratio.max())
        out["sandwich_slope"] = slope_estimate(list(zip(xs, ratio)))
        sandwich_ok = (ratio.max() / ratio.min() < 50.0
                       and abs(out["sandwich_slope"]) <= 0.15)

        # upper estimate: ||phi_t * f|| <= c int min{(x/t)^(2(a+1)), (t/x)^r}
        #                 omega_tilde(x) dx/x       (holds for all p >= 1)
        r = params.beta + k + 1.0
        lx = np.log(xg)
        probes = np.array([0.05, 0.2, 1.0])
        rhs = np.trapezoid(_compare_kernel_upper(xg, probes[:, None], al, r)
                           * omt, lx)
        pos = rhs > 0.0
        out["conv_upper_ratio_max"] = float(np.max(
            s.value("C", probes)[pos] / rhs[pos]))
        upper_ok = math.isfinite(out["conv_upper_ratio_max"])

        lower_ok = True
        if params.p > 1.0:
            # reverse estimate: omega_tilde(x) <= c int min{(x/t)^(k-1),
            #                   (x/t)^k} ||phi_t * f|| dt/t
            tg, cn = grids["C"]
            lt = np.log(tg)
            rhs = np.trapezoid(_compare_kernel_lower(probes[:, None], tg, k)
                               * cn, lt)
            pos = rhs > 0.0
            out["conv_lower_ratio_max"] = float(np.max(
                s.value("B_tilde", probes)[pos] / rhs[pos]))
            lower_ok = math.isfinite(out["conv_lower_ratio_max"])

        for kind in KINDS:
            est = seminorm_from_samples(params, kind, *grids[kind])
            out[f"seminorm_{kind}"] = est.value
            out[f"seminorm_{kind}_diverging"] = est.diverging
        out["status"] = ("PASS" if (sandwich_ok and upper_ok and lower_ok)
                         else "FAIL")
    except Exception as exc:   # noqa: BLE001 - any failure is inconclusive
        out["status"] = "INCONCLUSIVE"
        out["error"] = f"{type(exc).__name__}: {exc}"
    return out
