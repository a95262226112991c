import functools
import math
import warnings

import numpy as np
import pytest

from dunkl_lab import besov as B, dunklcore, quad
from dunkl_lab import verify
from dunkl_lab.special import AlphaParam
from dunkl_lab.funcalg import (GaussPolyFunction, hermite_phi, dilate,
                               dunkl_power, lambda_basis, lambda_coeffs)
from dunkl_lab.quad import (LpContext, lp_norm, lp_norm_from_nodes,
                            norm_node_values)
from dunkl_lab.dunklcore import convolve
from dunkl_lab.taylor import (_theta_weighted_integral, remainder_profile,
                              symmetric_remainder_profile)
from dunkl_lab.besov import (KINDS, BesovParams, BesovSamples,
                             default_grid,
                             omega, omega_tilde, k_functional_upper,
                             conv_profile, conv_norm,
                             seminorm_from_samples, slope_estimate,
                             equivalence_report)
from test_taylor import theta_table

AL = AlphaParam(0.5)
GAUSS = GaussPolyFunction((1.0,), 1.0)
CUBIC = GaussPolyFunction((1.0, 1.0, 0.0, 1.0), 0.5)
GRID = default_grid(1e-3, 1e2, 4)


def make_params(k=2, p=2.0, q=1.0, beta=0.5):
    return BesovParams(AL, k, p, q, beta, GRID)


def norm_ctx(params):
    return LpContext(params.alpha, params.p)


def test_default_grid():
    g = default_grid(1e-2, 1e2, 3)
    assert g[0] == pytest.approx(1e-2) and g[-1] == pytest.approx(1e2)
    assert len(g) == 13
    assert np.all(np.diff(np.log(g)) > 0)


def test_params_validation():
    with pytest.raises(ValueError):
        make_params(beta=1.5)
    with pytest.raises(ValueError):
        make_params(p=0.5)
    with pytest.raises(ValueError):
        make_params(q=0.5)
    with pytest.raises(ValueError):
        BesovParams(AL, 2, 2.0, 1.0, 0.5,
                    np.geomspace(0.1, 1.0, 8))          # < 3 decades
    # the L^p rule takes 1 <= p < inf; a NaN q made every seminorm nan
    for p, q in ((math.inf, 1.0), (math.nan, 1.0), (2.0, math.nan)):
        with pytest.raises(ValueError):
            make_params(p=p, q=q)
    # inf is the sup scale and must be accepted
    make_params(q=math.inf)


def test_a_function_outside_lp_is_rejected():
    # 1 + x^2 has no Gaussian factor: a finite omega (8.25 without the
    # check) would be a plausible wrong number
    poly, pr = GaussPolyFunction((1.0, 0.0, 1.0), 0.0), make_params()
    with pytest.raises(ValueError, match="gauss_scale"):
        BesovSamples(AL, poly)
    for fn in (omega, omega_tilde, conv_norm):
        with pytest.raises(ValueError, match="gauss_scale"):
            fn(pr, poly, 0.5)
    # the zero polynomial is in every L^p
    assert omega(pr, GaussPolyFunction((0.0,), 0.0), 0.5) == 0.0


def test_omega_positive_and_monotone():
    pr = make_params()
    xs = [0.05, 0.2, 0.8, 2.0]
    vals = [omega(pr, GAUSS, x) for x in xs]
    assert all(v > 0 for v in vals)
    assert all(a <= b * (1 + 1e-12) for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        omega(pr, GAUSS, 0.0)


def test_omega_tilde_below_twice_omega():
    pr = make_params()
    for x in (0.1, 0.7, 1.5):
        assert omega_tilde(pr, GAUSS, x) <= 2.0 * omega(pr, GAUSS, x) + 1e-12


def test_k_functional_upper_below_trivial_splittings():
    # the bound is exactly min(||L^(k-1) f||, x ||L^k f||), bit for bit
    xs = np.concatenate([GRID, np.geomspace(1e-2, 1.0, 12)])
    for alpha in (-0.25, 0.5, 1.5):
        al = AlphaParam(alpha)
        for fname in ("gaussian", "wide_gaussian", "cubic_gaussian"):
            f = verify.CATALOG[fname]
            for k in (1, 2, 3):
                for p in (1.0, 2.0):
                    pr = BesovParams(al, k, p, 1.0, 0.5, GRID)
                    n0 = lp_norm(norm_ctx(pr), dunkl_power(al, f, k - 1))
                    n1 = lp_norm(norm_ctx(pr), dunkl_power(al, f, k))
                    assert k_functional_upper(pr, f, xs).tolist() == [
                        min(n0, x * n1) for x in xs.tolist()]
                    ku = k_functional_upper(pr, f, 0.4)
                    assert isinstance(ku, float) and ku == min(n0, 0.4 * n1)
    with pytest.raises(ValueError):
        k_functional_upper(pr, f, 0.0)


def test_conv_profile_matches_direct_convolution():
    phi = hermite_phi(AL, 1)
    t = 0.8
    prof = conv_profile(AL, 2, GAUSS, t)
    phit = dilate(AL, phi, t)
    for u in (0.0, 0.5, -1.2):
        direct = convolve(AL, GAUSS, phit, u)
        assert float(prof(np.array([u]))[0]) == pytest.approx(
            direct, rel=1e-10, abs=1e-12)
    with pytest.raises(ValueError):
        conv_profile(AL, 2, GAUSS, 0.0)


def _exact_conv(al, k, f, t):
    """f * phi_t in closed form: with c = lambda_coeffs(f) and
    sigma = s / (1 + s t^2), f * phi_t = t^(2 n0) (2(1 + s t^2))^-(a+1)
    L^(2 n0) sum_j c_j L^j e^{-sigma .^2}, phi = L^(2 n0) e^{-.^2}."""
    n0, s, a = (k - 1) // 2 + 1, f.gauss_scale, al.alpha
    sigma = s / (1.0 + s * t * t)
    c = lambda_coeffs(a, f)
    g = GaussPolyFunction(tuple(c @ lambda_basis(a, sigma, c.size)), sigma)
    pref = t ** (2 * n0) * (2.0 * (1.0 + s * t * t)) ** -(a + 1.0)
    h = dunkl_power(a, g, 2 * n0)
    return GaussPolyFunction(tuple(pref * v for v in h.coeffs), h.gauss_scale)


def _conv_error(alpha, k, f, t):
    """conv_profile's largest error on [-6, 6] relative to max |f * phi_t|."""
    al, us = AlphaParam(alpha), np.linspace(-6.0, 6.0, 25)
    exact = _exact_conv(al, k, f, t)(us)
    got = conv_profile(al, k, f, t)(us)
    return np.max(np.abs(got - exact)) / np.max(np.abs(exact))


@pytest.mark.parametrize("t", [0.1, 1.0])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("alpha", [-0.25, 0.5, 1.5])
def test_conv_profile_matches_the_exact_convolution(alpha, k, t):
    for name, f in verify.CATALOG.items():
        assert _conv_error(alpha, k, f, t) <= 1e-10, name


# the 80-node rule on (0, 10 t) misses these (ROADMAP item 2): at alpha = 1.5
# and t = 10 by up to 2.0e-3 (wide_gaussian stays within 1e-10), at
# alpha = 40 and t >= 3.16 by many orders of magnitude
@pytest.mark.parametrize("alpha,t,name", [
    (alpha, t, name)
    for alpha, ts, names in ((1.5, (10.0,), ("gaussian", "x_gaussian",
                                             "cubic_gaussian")),
                             (40.0, (10 ** 0.5, 10.0), tuple(verify.CATALOG)))
    for t in ts for name in names])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="80-node C at large t or alpha")
def test_conv_profile_known_bad_cells(k, alpha, t, name):
    assert _conv_error(alpha, k, verify.CATALOG[name], t) <= 1e-10


def test_conv_profile_takes_an_array_of_t():
    # one row per t, each the bits of its scalar-t profile
    ts, us = np.array([1e-3, 0.05, 0.2, 3.0]), np.linspace(-6.0, 6.0, 31)
    for k in (2, 3):
        rows = conv_profile(AL, k, CUBIC, ts)(us.reshape(1, -1))
        assert rows.shape == (ts.size, 1, us.size)
        for t, row in zip(ts.tolist(), rows):
            assert np.array_equal(row[0], conv_profile(AL, k, CUBIC, t)(us))
    assert conv_profile(AL, 2, CUBIC, 0.2)(us).shape == us.shape


# the t of verify's besov grids (its coarse grid, scaling window and
# equivalence probes) and of the benchmark sweep's grid
SKIP_TS = np.unique(np.concatenate([
    verify.COARSE_GRID, np.geomspace(1e-2, 1e-1, 8), [0.05, 0.2, 1.0],
    default_grid(1e-3, 1e2, 3)]))


@pytest.mark.parametrize("n0", [1, 2])
@pytest.mark.parametrize("alpha", [-0.25, 0.5, 1.5, 20.0, 40.0])
def test_dropped_bump_terms_lie_below_rounding(alpha, n0):
    # every term of the bump's 80-node sum at the L^p nodes u: those
    # conv_profile drops sum to at most 2^-60 of the kept terms' sum of
    # moduli (rounding reaches 2^-53 of it); k = 2 n0 - 1 and 2 n0 take the
    # same bump and the same symmetric remainder (its sum runs to 2i < k)
    al = AlphaParam(alpha)
    z, _ = quad._norm_rules(al)
    u = np.concatenate([z, -z])
    rules = [quad.jacobi_rule(80, al.weight_exp, 0.0, 10.0 * t)
             for t in SKIP_TS.tolist()]
    xs = np.array([x for x, _ in rules])
    coef = np.array([w * dilate(al, hermite_phi(al, n0), t)(x) for t, (x, w)
                     in zip(SKIP_TS.tolist(), rules)]) / al.norm_const
    keep = np.array([quad.kept_terms(np.abs(c) * (1.0 + x ** (2 * n0 - 2)))
                     for c, x in zip(coef, xs)])
    assert keep.any(axis=1).all() and not keep.all()
    for _, f in verify.TEST_FUNCTIONS:
        k, other = 2 * n0, 2 * n0 - 1
        sym = symmetric_remainder_profile(al, k, f, xs.reshape(-1, 1))
        assert np.array_equal(sym(u[:9]), symmetric_remainder_profile(
            al, other, f, xs.reshape(-1, 1))(u[:9]))
        terms = coef[..., None] * sym(u).reshape(xs.shape + u.shape)
        dropped = np.where(keep[..., None], 0.0, terms).sum(axis=1)
        kept = np.where(keep[..., None], np.abs(terms), 0.0).sum(axis=1)
        assert np.all(np.abs(dropped).max(axis=1)
                      <= 2.0 ** -60 * kept.max(axis=1))


def test_conv_seminorm_integrand_relation():
    # the C scale integrates ||f * phi_t|| / t^(beta+k-1)
    pr = make_params(k=2, beta=0.3)
    ts = GRID[8:12]
    norms = np.array([conv_norm(pr, GAUSS, t) for t in ts])
    est = seminorm_from_samples(pr, "C", ts, norms)
    np.testing.assert_allclose(est.integrand, norms / ts ** (0.3 + 1.0),
                               rtol=1e-12)


def test_slope_estimate_power_law():
    xs = np.geomspace(0.01, 1.0, 12)
    pts = list(zip(xs, 3.0 * xs ** 1.7))
    assert slope_estimate(pts) == pytest.approx(1.7, abs=1e-12)
    # points off the power law are filtered out by the caller
    mixed = pts + [(10.0, 1e9)]
    assert slope_estimate([(x, m) for x, m in mixed
                           if 0.005 <= x <= 2.0]) == pytest.approx(1.7, abs=1e-12)
    with pytest.raises(ValueError):
        slope_estimate(pts[:3])


def test_slope_estimate_nan_sample_gives_nan():
    # a NaN sample is not dropped like m <= 0 ones: it makes the slope NaN,
    # wherever it sits (the zero and negative points are still dropped)
    xs = np.geomspace(0.01, 1.0, 12)
    pts = list(zip(xs, 3.0 * xs ** 1.7)) + [(2.0, 0.0), (3.0, -1.0)]
    for i in (0, 5, 11):
        bad = pts[:i] + [(xs[i], math.nan)] + pts[i + 1:]
        assert math.isnan(slope_estimate(bad))
    assert slope_estimate(pts) == pytest.approx(1.7, abs=1e-12)


def test_seminorm_q_inf_is_grid_sup():
    grid = GRID
    m = grid ** 2 * np.exp(-grid)          # synthetic modulus samples
    pr_inf = make_params(k=2, q=math.inf, beta=0.5)
    est = seminorm_from_samples(pr_inf, "B", grid, m)
    integrand = m / grid ** (0.5 + 1.0)
    assert est.value == pytest.approx(float(np.max(integrand)))
    assert not est.diverging


def test_seminorm_k_kind_has_no_order_shift():
    grid = GRID
    m = grid * np.exp(-grid)
    pr = make_params(k=3, q=1.0, beta=0.5)
    est_k = seminorm_from_samples(pr, "K", grid, m)
    est_b = seminorm_from_samples(pr, "B", grid, m)
    ik = m / grid ** 0.5                   # beta only
    ib = m / grid ** (0.5 + 2.0)           # beta + k - 1
    np.testing.assert_allclose(est_k.integrand, ik)
    np.testing.assert_allclose(est_b.integrand, ib)


def test_seminorm_divergence_flag():
    grid = GRID
    pr = make_params(k=1, q=1.0, beta=0.5)
    good = grid ** 0.9 * np.exp(-grid)     # integrand decays both ways
    assert not seminorm_from_samples(pr, "B", grid, good).diverging
    bad = grid ** 0.2                      # head of the integrand blows up
    est = seminorm_from_samples(pr, "B", grid, bad)
    assert est.diverging
    # the margin is the head slope's shortfall: 0.05 - (0.2 - 0.5)
    assert est.margin == pytest.approx(0.35, abs=1e-12)
    assert seminorm_from_samples(pr, "B", grid, good).margin < 0.0


# a NaN passes every `v <= 0` test: a grid, x or t holding NaN or inf is a
# ValueError, not an INCONCLUSIVE report (a Gauss-Jacobi overflow over a
# width nan) or a nan sample beside finite ones

@pytest.mark.parametrize("grid", [[1e-3, math.nan, 1.0, 10.0],
                                  [1e-3, 1.0, 10.0, math.inf],
                                  [math.nan, 1.0]])
def test_params_reject_a_non_finite_grid(grid):
    with pytest.raises(ValueError, match="finite"):
        BesovParams(AL, 2, 2.0, 1.0, 0.5, np.array(grid))


@pytest.mark.parametrize("kind", KINDS)
def test_sample_set_rejects_non_finite_points(kind):
    s = BesovSamples(AL, GAUSS)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            s.value(kind, np.array([bad, 0.5]), 2, 2.0)


def test_conv_profile_rejects_a_non_finite_t():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            conv_profile(AL, 2, GAUSS, np.array([0.5, bad]))


def test_seminorm_samples_validation():
    s = BesovSamples(AL, GAUSS)
    with pytest.raises(ValueError):
        s.value("bogus", GRID, 2, 2.0)
    for kind in KINDS:
        with pytest.raises(ValueError):             # order k >= 1
            s.value(kind, 0.5, 0, 2.0)
        with pytest.raises(ValueError):             # x and t > 0
            s.value(kind, np.array([0.5, 0.0]), 2, 2.0)
        with pytest.raises(ValueError):             # p >= 1
            s.value(kind, 0.5, 2, 0.5)
        # no points (a besov table past its x <= 10 cut) read as no samples
        assert s.value(kind, np.zeros(0), 2, 2.0).shape == (0,)


def test_seminorm_c_kind_finite():
    pr = make_params(k=2, q=1.0, beta=0.5)
    est = seminorm_from_samples(pr, "C", GRID, BesovSamples(AL, GAUSS).value(
        "C", GRID, 2, 2.0))
    assert est.kind == "C"
    assert math.isfinite(est.value) and est.value > 0
    assert not est.diverging


def test_equivalence_report_inconclusive_on_failure(monkeypatch):
    # a failed sub-computation leaves an error and no constant, which verify
    # reads as INCONCLUSIVE
    def broken(*args, **kw):
        raise RuntimeError("no bump convolution")

    monkeypatch.setattr(B, "conv_profile", broken)
    rep = equivalence_report(make_params(k=2), GAUSS)
    assert set(rep) == {"error"}
    assert "no bump convolution" in rep["error"]


def test_equivalence_report_passes_for_gaussian():
    # the report measures and judges nothing: the sample set and the two
    # one-sided constants, finite for the Gaussian
    rep = equivalence_report(make_params(k=2), GAUSS)
    assert set(rep) == {"samples", "conv_upper_ratio_max",
                        "conv_lower_ratio_max"}         # p = 2 > 1
    assert math.isfinite(rep["conv_upper_ratio_max"])
    assert math.isfinite(rep["conv_lower_ratio_max"])
    rep = equivalence_report(make_params(k=2, p=1.0), GAUSS)
    assert set(rep) == {"samples", "conv_upper_ratio_max"}


def test_equivalence_report_finite_at_large_alpha():
    # at alpha = 48, (x/t)^(2(alpha+1)) = (1e2/0.05)^98 overflows a float;
    # the comparison kernel raises only ratios <= 1 to a power, so under
    # warnings as errors both constants are finite
    pr = BesovParams(AlphaParam(48.0), 2, 2.0, 1.0, 0.5, GRID)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = equivalence_report(pr, GAUSS)
    assert "error" not in rep, rep.get("error")
    assert math.isfinite(rep["conv_upper_ratio_max"])
    assert math.isfinite(rep["conv_lower_ratio_max"])


# -- the sample set against per-point calls -----------------------------------

_SCALAR = dict(zip(KINDS, (omega, omega_tilde, k_functional_upper, conv_norm)))


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_sample_set_matches_reference_loop(p):
    # each kind on the grid is one module-function call per grid point, bit
    # for bit
    pr = make_params(k=2, p=p)
    s = BesovSamples(AL, CUBIC)
    for kind, fn in _SCALAR.items():
        assert s.value(kind, GRID, 2, p).tolist() == [
            fn(pr, CUBIC, float(x)) for x in GRID], kind


def test_equivalence_report_matches_reference_form():
    # both constants are the ratios of the module functions' samples, the
    # upper one against min{(x/t)^(2(a+1)), (t/x)^r} in its direct form, bit
    # for bit; the constants are verify's reference-gated
    # equivalence-diagnostics[a=0.5,k=2,p=2] detail
    pr = make_params(k=2)
    rep = equivalence_report(pr, GAUSS)
    assert isinstance(rep.pop("samples"), BesovSamples)
    probes, lx, r = np.array([0.05, 0.2, 1.0]), np.log(GRID), 0.5 + 2 + 1.0
    t = probes[:, None]
    upper = np.trapezoid(np.minimum((GRID / t) ** 3.0, (t / GRID) ** r)
                         * omega_tilde(pr, GAUSS, GRID), lx)
    lower = np.trapezoid(np.minimum(t / GRID, (t / GRID) ** 2)
                         * conv_norm(pr, GAUSS, GRID), lx)
    assert rep == {
        "conv_upper_ratio_max": float(np.max(conv_norm(pr, GAUSS, probes)
                                             / upper)),
        "conv_lower_ratio_max": float(np.max(omega_tilde(pr, GAUSS, probes)
                                             / lower))}


def _closed_form_calls(monkeypatch):
    """[(key, points)] of each closed-form translation call, its key the
    call's (alpha, f, x, y, pair)."""
    calls, orig = [], dunklcore._translate_closed

    def wrapper(alpha, f, x, y, pair=False):
        calls.append(((alpha, f, x.shape, x.tobytes(), y.shape, y.tobytes(),
                       pair), int(np.broadcast(x, y).size)))
        return orig(alpha, f, x, y, pair)

    monkeypatch.setattr(dunklcore, "_translate_closed", wrapper)
    return calls


def _repeated(calls):
    seen, out = set(), []
    for key, n in calls:
        if key in seen:
            out.append((key, n))
        seen.add(key)
    return out


def test_besov_slice_computes_each_sample_once(monkeypatch):
    calls = _closed_form_calls(monkeypatch)
    checks = verify.suite_besov(alphas=(-0.25,), ks=(2,))
    assert all(c["status"] == "PASS" for c in checks)
    # no (alpha, f, x, y, pair) is translated twice
    assert calls and _repeated(calls) == []
    assert sum(n for _, n in calls) == 226_240


def test_besov_suite_repeats_only_the_shared_bump_sums(monkeypatch):
    calls = _closed_form_calls(monkeypatch)
    checks = verify.suite_besov()
    assert all(c["status"] == "PASS" for c in checks)
    # C at n0 = 1 (k = 1, 2) and n0 = 2 (k = 3) sums tau_x f + tau_{-x} f
    # on the same 80 outer nodes at each of the 8 conv-scaling t, on the
    # 2 NORM_NODES nodes of the L^p rule: 24 calls of 80 x 320 points over
    # the three alpha, and nothing else repeats
    rep = _repeated(calls)
    assert all(key[-1] for key, _ in rep)
    assert len(rep) <= 24 and sum(n for _, n in rep) <= 614_400
    assert sum(n for _, n in calls) == 760_000


def test_failed_sample_set_leaves_its_checks_inconclusive(monkeypatch):
    value = BesovSamples.value

    def broken(self, kind, *args):
        if kind == "B_tilde":
            raise RuntimeError("no omega_tilde profile")
        return value(self, kind, *args)

    monkeypatch.setattr(BesovSamples, "value", broken)
    checks = verify.suite_besov(alphas=(-0.25,), ks=(1,), qs=(1.0,),
                                betas=(0.3,))
    by_id = {c["id"]: c for c in checks}
    for cid in ("equivalence-diagnostics[a=-0.25,k=2,p=2]",
                "seminorms-finite[a=-0.25,k=2,q=1,beta=0.3]",
                "p1-inclusion-direction[a=-0.25,k=2]"):
        assert by_id[cid]["status"] == "INCONCLUSIVE", cid
        assert "no omega_tilde profile" in by_id[cid]["detail"], cid
    assert by_id["omega-scaling[a=-0.25,k=1]"]["status"] == "PASS"


def test_theta_weighted_integral_evaluates_h_once_per_node_count():
    # one rule per family on (0, 1): at alpha = 1/2 every weighted exponent
    # of Theta_2 is an integer in [0, 6], so its terms form one family; h
    # sees every row and family of one node count (40 per 4 units of |x|)
    # in one call
    al, n = AL, 40
    x = np.array([0.9, 1.3, 0.7, -6.0])
    shapes = []

    def h(ys, rows):
        shapes.append((ys.shape, rows.tolist()))
        return np.cos(ys)

    _theta_weighted_integral(al, 2, x, h)
    terms = {(sp, e, j) for v in (1.0, -1.0)
             for _, sp, e, j in theta_table(al.alpha, 2, v)}
    assert len(terms) > 1
    assert all(not j and (e + al.weight_exp) in range(7) for _, e, j in terms)
    assert shapes == [((3, 1, 2 * n), [0, 1, 2]), ((1, 1, 4 * n), [3])]


# -- grid-at-once sampling against the per-x calls ------------------------------

@functools.cache
def _reference(alpha, kind, k, p, v):
    """CUBIC's sample of a kind at v, from its profile and lp_norm alone."""
    al = AlphaParam(alpha)
    ctx = LpContext(al, p)
    if kind == "B":
        return max(lp_norm(ctx, remainder_profile(al, k, CUBIC, float(y)))
                   for y in B._y_probe_grid(v))
    if kind == "K":
        lo, hi = (lp_norm(ctx, dunkl_power(al, CUBIC, j)) for j in (k - 1, k))
        return min(lo, v * hi)
    return lp_norm(ctx, symmetric_remainder_profile(al, k, CUBIC, v)
                   if kind == "B_tilde" else conv_profile(al, k, CUBIC, v))


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("alpha", [-0.25, 0.5, 1.5])
def test_array_x_equals_scalar_calls_bitwise(alpha, k, p):
    al = AlphaParam(alpha)
    pr = BesovParams(al, k, p, 1.0, 0.5, GRID)
    xs = np.array([2e-3, 0.03, 0.4, 0.4, 3.0])      # a repeated x as well
    ref = {kind: [_reference(alpha, kind, k, p, x) for x in xs.tolist()]
           for kind in KINDS}
    # the row norms of one profile over all x are the per-x norms, bit for bit
    ctx = LpContext(al, p)
    assert lp_norm_from_nodes(ctx, norm_node_values(al, B.remainder_profile(
        al, k, CUBIC, xs[:, None]))).tolist() == [
        lp_norm(ctx, B.remainder_profile(al, k, CUBIC, float(x))) for x in xs]
    for kind, fn in _SCALAR.items():
        got = fn(pr, CUBIC, xs)
        assert got.shape == xs.shape and got.tolist() == ref[kind], kind
        assert fn(pr, CUBIC, xs.reshape(5, 1))[:, 0].tolist() == ref[kind]
        assert isinstance(fn(pr, CUBIC, 0.4), float)
    # a sample set computes each kind's missing points in one call
    s = BesovSamples(al, CUBIC)
    assert s.value("B", xs[1:3], k, p).tolist() == ref["B"][1:3]
    assert s.value("B", GRID, k, p).tolist() == [omega(pr, CUBIC, float(x))
                                                 for x in GRID]
    for kind in KINDS:
        assert s.value(kind, xs, k, p).tolist() == ref[kind], kind
    assert s.value("B", 0.03, k, p) == ref["B"][1]
    # read at every order and norm in turn, the one set gives each fresh
    # reference: order k peels its terms off the stored signed tau_y f
    for kk in (1, 2, 3, 4):
        for pp in (1.0, 1.5, 2.0):
            for kind in KINDS:
                assert s.value(kind, xs[1:4], kk, pp).tolist() == [
                    _reference(alpha, kind, kk, pp, x)
                    for x in xs[1:4].tolist()], (kind, kk, pp)


def test_the_grid_opens_61_probe_profiles(monkeypatch):
    # 21 x of 4 per decade, 17 probes each: 357 probes, of which 61 are
    # distinct floats; one remainder profile takes them all
    rows = []
    orig = B.remainder_profile

    def profile(al, k, f, x):
        rows.append(np.shape(x))
        return orig(al, k, f, x)

    monkeypatch.setattr(B, "remainder_profile", profile)
    pr = make_params()
    assert GRID.size == 21
    omega(pr, GAUSS, GRID)
    assert rows == [(61, 1)]
    probes = np.concatenate([B._y_probe_grid(float(x)) for x in GRID])
    assert probes.size == 357 and np.unique(probes).size == 61
