"""Moduli of smoothness, K-functional bounds, convolution seminorms, and the
one-sided convolution constants between the four smoothness scales.  This
module measures; `verify` judges every measurement against its bound.

Four seminorm kinds are computed on truncated log grids:

  B       from omega(x)        = sup_{|y|<=x} ||R_k(y,f)||_p
  B_tilde from omega_tilde(x)  = ||R_k(x,f) + R_k(-x,f)||_p
  K       from min(||L^(k-1) f||_p, x ||L^k f||_p), the two trivial
          splittings of the K-functional (the constructive one matters only
          for functions of finite smoothness, none of them in the catalog)
  C       from ||f * phi_t||_p / t^(beta+k-1), phi = L^(2 n0) e^{-.^2} the
          moment-vanishing bump of order n0 = floor((k-1)/2) + 1

A BesovSamples holds the samples of one (alpha, f), each computed in one
place and read at any order and norm p: values on the 2 NORM_NODES nodes
+-u of the one L^p rule, which truncates at NORM_T and serves every p, of
R_k(y, f) (B is their max over omega's probes y), of the B_tilde and C
profiles per bump order n0 (their only dependence on k), and of L^j f (K).
C is the identity
(phi_t * f)(u) = int_0^inf phi_t(x) [R_k(x,f)(u) + R_k(-x,f)(u)] dmu(x)
over the kept nodes of an 80-node rule on (0, 10 t), blocks of t at once:
the moment cancellation is analytic, and the nodes near 0 sum the b_p
series of the symmetric remainder (taylor.series_rows), ~x^(2 n0) without
cancelling O(1) terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .special import AlphaParam
from .funcalg import GaussPolyFunction, dunkl_power, dilate, hermite_phi
from .quad import (LpContext, jacobi_rule, kept_terms, lp_norm_from_nodes,
                   norm_node_values, NORM_NODES)
from .dunklcore import _distinct, translate_many
from .taylor import (remainder_profile, series_rows,
                     symmetric_remainder_profile)

__all__ = [
    "BesovParams",
    "SeminormEstimate",
    "omega",
    "omega_tilde",
    "k_functional_upper",
    "bump_order",
    "conv_profile",
    "conv_norm",
    "KINDS",
    "BesovSamples",
    "seminorm_from_samples",
    "slope_estimate",
    "equivalence_report",
    "default_grid",
]

#: nodes of the bump's rule; t per C block: each t translates its BUMP_NODES
#: nodes to every node of an L^p sample, so a block is at most 2^16 points
#: (2 x 80 x 320 = 51,200)
BUMP_NODES = 80
C_BLOCK = max(1, 2 ** 16 // (BUMP_NODES * 2 * NORM_NODES))


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
    grid: np.ndarray    # the x grid of B, B_tilde and K, and the t grid of C

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        LpContext(self.alpha, self.p)           # 1 <= p < inf
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not self.q >= 1.0:
            raise ValueError("q must be >= 1 (use math.inf for the sup scale)")
        g = np.asarray(self.grid)
        if g.ndim != 1 or not (np.all(np.isfinite(g) & (g > 0.0))
                               and np.all(np.diff(g) > 0.0)):
            raise ValueError("the grid must be finite, positive, increasing")
        if g[-1] / g[0] < 1e3:
            raise ValueError("the grid must span at least three decades")


@dataclass(frozen=True)
class SeminormEstimate:
    kind: str                  # one of B, B_tilde, K, C
    value: float
    margin: float              # max(0.05 - head slope, tail slope + 0.05)
    grid: np.ndarray
    integrand: np.ndarray      # per-point m(x)/x^(beta+k-1) (K: m(x)/x^beta)


def _y_probe_grid(x: float) -> np.ndarray:
    """17 probe points in [-x, x] \\ {0}: log-spaced magnitudes over two
    decades, both signs (the smallest magnitude only on the positive side)."""
    mags = np.geomspace(x * 1e-2, x, 9)
    return np.concatenate([mags, -mags[1:]])


def bump_order(k: int) -> int:
    """n0 = floor((k-1)/2) + 1, the bump order of the order-k C samples."""
    return (k - 1) // 2 + 1


def conv_profile(alpha: AlphaParam, k: int, f: GaussPolyFunction,
                 t) -> Callable:
    """u |-> (f * phi_t)(u), vectorized, for the bump phi of order
    n0 = bump_order(k), via the symmetric-remainder identity (exact for
    phi with order-k vanishing moments) over the kept nodes (term size
    |c_i| (1 + x_i^(2 n0 - 2))) of the 80-node rule on (0, 10 t).  For a
    1-d array t, one row per t, from one profile of all their nodes."""
    ts = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(ts) & (ts > 0.0)):
        raise ValueError("t must be finite and positive")
    n0, xs, coefs = bump_order(k), [], []
    for v in ts.ravel().tolist():
        x, w = jacobi_rule(BUMP_NODES, alpha.weight_exp, 0.0, 10.0 * v)
        c = w * dilate(alpha, hermite_phi(alpha, n0), v)(x) / alpha.norm_const
        keep = kept_terms(np.abs(c) * (1.0 + x ** (2 * n0 - 2)))
        xs, coefs = xs + [x[keep]], coefs + [c[keep]]
    sym = symmetric_remainder_profile(alpha, k, f, np.concatenate(xs)[:, None])
    ends = np.cumsum([c.size for c in coefs])[:-1]

    def prof(us):
        us = np.asarray(us, dtype=float)
        rows = zip(coefs, np.split(sym(us.ravel()), ends))
        return np.reshape([c @ r for c, r in rows], ts.shape + us.shape)

    return prof


KINDS = ("B", "B_tilde", "K", "C")


class BesovSamples:
    """The samples behind the four scales for one (alpha, f), each computed
    once, on first use, as values on the nodes of the L^p rule, and read
    at any order and norm p (module docstring).  None depends on q or
    beta."""

    def __init__(self, alpha: AlphaParam, f: GaussPolyFunction):
        if not f.is_normable:
            raise ValueError("f is not in L^p(mu_alpha): a polynomial needs "
                             "a Gaussian factor, gauss_scale > 0")
        self.alpha, self.f, self._memo = alpha, f, {}

    def _nodes(self, tag, vs, compute):
        """The rows of node values at the points vs (orders j for L^j f)
        under tag; compute(array of the missing points) gives one each."""
        keys = [(tag, v) for v in vs]
        new = list(dict.fromkeys(key for key in keys if key not in self._memo))
        if new:
            self._memo.update(zip(new, compute(np.array([v for _, v in new]))))
        return np.array([self._memo[key] for key in keys])

    def remainder_norm(self, x, k: int, p: float):
        """||R_k(x, f)||_p at x, a scalar or an array (k = 0: tau_x f).  Each
        order opens one remainder profile of its new x, peeled off the
        stored signed tau_x f (translated only for the rows that do not sum
        the b_p series, taylor.series_rows), and keeps |R_k| per (k, x)."""
        al, f, xs = self.alpha, self.f, np.asarray(x, dtype=float)

        def signed(ys, u):  # one profile call on the L^p nodes u
            far, tau = ~series_rows(k, f, ys), np.zeros((ys.size, u.size))
            if far.any():   # tau is unread on the series rows
                tau[far] = self._nodes("tau", ys[far].tolist(), (
                    lambda y: translate_many(al, f, y[:, None], u)))
            return remainder_profile(al, k, f, ys[:, None])(u, tau=tau)

        rows = self._nodes(("R", k), xs.ravel().tolist(), lambda ys: (
            norm_node_values(al, lambda u: signed(ys, u))))
        return np.reshape(lp_norm_from_nodes(LpContext(al, p), rows),
                          xs.shape)[()]

    def power_norm(self, j, p: float):
        """||L^j f||_p for an order j >= 0 or an array of them."""
        al, f, js = self.alpha, self.f, np.asarray(j)
        ctx = LpContext(al, p)
        rows = self._nodes("L", js.ravel().tolist(), lambda new: [
            norm_node_values(al, dunkl_power(al, f, i)) for i in new.tolist()])
        return np.reshape(lp_norm_from_nodes(ctx, rows), js.shape)[()]

    def value(self, kind: str, v, k: int, p: float):
        """A kind's samples at v, a scalar or an array (t for C), at order k
        in L^p.  New points are computed in one call, and all are reduced in
        one."""
        if kind not in KINDS or k < 1:
            raise ValueError(f"no seminorm kind {kind!r} at order k = {k}")
        vs = np.asarray(v, dtype=float)
        if not np.all(np.isfinite(vs) & (vs > 0.0)):
            raise ValueError("x and t must be finite and positive")
        if kind == "K":
            lo, hi = self.power_norm([k - 1, k], p)
            return np.minimum(lo, vs * hi)[()]
        al, f, ctx = self.alpha, self.f, LpContext(self.alpha, p)
        if not vs.size:
            return np.zeros(vs.shape)
        if kind == "B":
            probes = np.array([_y_probe_grid(x) for x in vs.ravel().tolist()])
            ys, inv = _distinct(probes.ravel())
            out = self.remainder_norm(ys, k, p)[inv.reshape(probes.shape)]
            out = out.max(axis=-1, initial=0.0)
        else:
            def compute(xs):    # depends on k through n0 alone
                if kind == "C":
                    return [row for i in range(0, xs.size, C_BLOCK) for row in
                            norm_node_values(al, conv_profile(
                                al, k, f, xs[i:i + C_BLOCK]))]
                return norm_node_values(al, symmetric_remainder_profile(
                    al, k, f, xs[:, None]))
            out = lp_norm_from_nodes(ctx, self._nodes(
                (kind, bump_order(k)), vs.ravel().tolist(), compute))
        return np.reshape(out, vs.shape)[()]


def omega(params: BesovParams, f: GaussPolyFunction, x):
    """Modulus of smoothness sup_{|y| <= x} ||R_k(y, f)||_{p,alpha} over a
    17-point probe grid, for a scalar x or an array (the result has its
    shape): the distinct probes of all x are one remainder profile."""
    return BesovSamples(params.alpha, f).value("B", x, params.k, params.p)


def omega_tilde(params: BesovParams, f: GaussPolyFunction, x: float) -> float:
    """||R_k(x,f) + R_k(-x,f)||_{p,alpha} via the even-coefficient form."""
    return BesovSamples(params.alpha, f).value("B_tilde", x, params.k,
                                               params.p)


def k_functional_upper(params: BesovParams, f: GaussPolyFunction, x):
    """Upper bound for the Peetre K-functional
    K(x,f) = inf{||L^(k-1) f0||_p + x ||L^k f1||_p : f = f0 + f1}:
    min(||L^(k-1) f||_p, x ||L^k f||_p), the two trivial splittings, for a
    scalar x or an array (the result has its shape).  For the C^inf catalog
    this is the honest bound: the constructive splitting (f1 the iterated
    integral) never fell below it on the verify and sweep grids.  It matters
    only for functions of finite smoothness, where ||L^k f|| is infinite,
    and none of them is in the catalog."""
    return BesovSamples(params.alpha, f).value("K", x, params.k, params.p)


def conv_norm(params: BesovParams, f: GaussPolyFunction, t: float) -> float:
    """||f * phi_t||_{p,alpha}."""
    return BesovSamples(params.alpha, f).value("C", t, params.k, params.p)


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
    return SeminormEstimate(kind, _q_aggregate(grid, integrand, params.q),
                            float(np.fmax(0.05 - hs, ts + 0.05)), grid,
                            integrand)


def slope_estimate(values) -> float:
    """Least-squares slope of log m against log x over the points with m > 0,
    NaN if any m is NaN."""
    pts = [(x, m) for x, m in values if m > 0.0 or math.isnan(m)]
    if len(pts) < 4:
        raise ValueError("slope estimate needs at least 4 positive points")
    lx = np.log([x for x, _ in pts])
    lm = np.log([m for _, m in pts])
    return math.nan if np.isnan(lm).any() else float(np.polyfit(lx, lm, 1)[0])


# -- one-sided convolution constants -------------------------------------------

def _compare_kernel_upper(x, t, al: AlphaParam, r: float):
    """min{(x/t)^(2(alpha+1)), (t/x)^r}, its base at most 1: no overflow."""
    return np.minimum(x / t, t / x) ** np.where(x <= t, 2 * al.alpha + 2, r)


def equivalence_report(params: BesovParams, f: GaussPolyFunction) -> dict:
    """The constants of the one-sided convolution estimates at t and x in
    {0.05, 0.2, 1}: "conv_upper_ratio_max", and for p > 1 (the reverse
    estimate needs it) "conv_lower_ratio_max"; neither has an a-priori
    bound.  A failed sub-computation gives "error" instead.  Every kind is
    sampled on the grid into one BesovSamples, returned under "samples" for
    reading at other k and p and aggregating at other q and beta."""
    al, k, p, out = params.alpha, params.k, params.p, {}
    try:
        s, xg = BesovSamples(al, f), np.asarray(params.grid, dtype=float)
        grids = {kind: s.value(kind, xg, k, p) for kind in KINDS}
        out["samples"] = s

        # upper estimate: ||phi_t * f|| <= c int min{(x/t)^(2(a+1)), (t/x)^r}
        #                 omega_tilde(x) dx/x       (holds for all p >= 1)
        r = params.beta + k + 1.0
        lx = np.log(xg)
        probes = np.array([0.05, 0.2, 1.0])
        rhs = np.trapezoid(_compare_kernel_upper(xg, probes[:, None], al, r)
                           * grids["B_tilde"], lx)
        pos = rhs > 0.0
        out["conv_upper_ratio_max"] = float(np.max(
            s.value("C", probes, k, p)[pos] / rhs[pos]))

        if p > 1.0:
            # reverse estimate: omega_tilde(x) <= c int min{(x/t)^(k-1),
            #                   (x/t)^k} ||phi_t * f|| dt/t
            u = probes[:, None] / xg
            rhs = np.trapezoid(np.minimum(u ** (k - 1), u ** k) * grids["C"],
                               lx)
            pos = rhs > 0.0
            out["conv_lower_ratio_max"] = float(np.max(
                s.value("B_tilde", probes, k, p)[pos] / rhs[pos]))
    except Exception as exc:   # noqa: BLE001 - verify reads it as INCONCLUSIVE
        out["error"] = f"{type(exc).__name__}: {exc}"
    return out
