import math

import numpy as np
import pytest

from dunkl_lab import besov as B
from dunkl_lab import verify
from dunkl_lab.special import AlphaParam
from dunkl_lab.funcalg import GaussPolyFunction, hermite_phi, dilate, dunkl_power
from dunkl_lab.quad import lp_norm
from dunkl_lab.dunklcore import convolve
from dunkl_lab.taylor import _theta_terms, _theta_weighted_integral
from dunkl_lab.besov import (KINDS, BesovParams, BesovSamples, default_grid,
                             omega, omega_tilde, k_functional_upper,
                             conv_profile, conv_norm, conv_seminorm_integrand,
                             seminorm_from_samples, slope_estimate,
                             equivalence_report)

AL = AlphaParam(0.5)
GAUSS = GaussPolyFunction((1.0,), 1.0)
CUBIC = GaussPolyFunction((1.0, 1.0, 0.0, 1.0), 0.5)
GRID = default_grid(1e-3, 1e2, 4)


def make_params(k=2, p=2.0, q=1.0, beta=0.5):
    return BesovParams(AL, k, p, q, beta, x_grid=GRID, t_grid=GRID,
                       norm_T=14.0)


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
                    x_grid=np.geomspace(0.1, 1.0, 8),   # < 3 decades
                    t_grid=GRID)
    # inf is the sup scale and must be accepted
    make_params(q=math.inf)


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
    pr = make_params(k=2)
    n0 = lp_norm(pr.norm_ctx(), dunkl_power(AL, GAUSS, 1))
    n1 = lp_norm(pr.norm_ctx(), dunkl_power(AL, GAUSS, 2))
    for x in (0.05, 0.4, 2.0):
        ku = k_functional_upper(pr, GAUSS, x)
        assert ku <= min(n0, x * n1) + 1e-12
        assert ku > 0


def test_conv_profile_matches_direct_convolution():
    pr = make_params(k=2)
    phi = hermite_phi(AL, 1, 2)
    t = 0.8
    prof = conv_profile(pr, GAUSS, phi, t)
    phit = dilate(AL, phi, t)
    for u in (0.0, 0.5, -1.2):
        direct = convolve(AL, GAUSS, phit, u)
        assert float(prof(np.array([u]))[0]) == pytest.approx(
            direct, rel=1e-10, abs=1e-12)
    with pytest.raises(ValueError):
        conv_profile(pr, GAUSS, phi, 0.0)


def test_conv_seminorm_integrand_relation():
    pr = make_params(k=2, beta=0.3)
    phi = hermite_phi(AL, 1, 2)
    t = 0.5
    assert conv_seminorm_integrand(pr, GAUSS, phi, t) == pytest.approx(
        conv_norm(pr, GAUSS, phi, t) / t ** (0.3 + 1.0), rel=1e-12)


def test_slope_estimate_power_law():
    xs = np.geomspace(0.01, 1.0, 12)
    pts = list(zip(xs, 3.0 * xs ** 1.7))
    assert slope_estimate(pts) == pytest.approx(1.7, abs=1e-12)
    # window restriction
    mixed = pts + [(10.0, 1e9)]
    assert slope_estimate(mixed, window=(0.005, 2.0)) == pytest.approx(
        1.7, abs=1e-12)
    with pytest.raises(ValueError):
        slope_estimate(pts[:3])


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
    assert seminorm_from_samples(pr, "B", grid, bad).diverging


def test_seminorm_samples_validation():
    pr = make_params()
    with pytest.raises(ValueError):
        BesovSamples(pr, GAUSS).samples("C")       # needs phi
    with pytest.raises(ValueError):
        BesovSamples(pr, GAUSS).samples("bogus")
    with pytest.raises(ValueError):                 # B and K only at params.p
        BesovSamples(pr, GAUSS).value("B", 0.5, p=1.0)


def test_seminorm_c_kind_finite():
    pr = make_params(k=2, q=1.0, beta=0.5)
    phi = hermite_phi(AL, 1, 2)
    est = seminorm_from_samples(pr, "C",
                                *BesovSamples(pr, GAUSS, phi).samples("C"))
    assert est.kind == "C"
    assert math.isfinite(est.value) and est.value > 0
    assert not est.diverging


def test_equivalence_report_inconclusive_on_failure():
    pr = make_params(k=2)
    rep = equivalence_report(pr, GAUSS, None)   # phi=None breaks conv_norm
    assert rep["status"] == "INCONCLUSIVE"
    assert "error" in rep


def test_equivalence_report_passes_for_gaussian():
    pr = make_params(k=2)
    phi = hermite_phi(AL, 1, 2)
    rep = equivalence_report(pr, GAUSS, phi)
    assert rep["status"] == "PASS"
    assert rep["sandwich_ratio_max"] / rep["sandwich_ratio_min"] < 50.0
    assert abs(rep["sandwich_slope"]) <= 0.15
    assert math.isfinite(rep["conv_upper_ratio_max"])
    assert math.isfinite(rep["conv_lower_ratio_max"])   # p = 2 > 1
    for kind in ("B", "B_tilde", "K", "C"):
        assert math.isfinite(rep[f"seminorm_{kind}"])


# -- the sample set against the former per-kind loops ---------------------------

def _seminorm_samples_loop(params, f, kind, phi=None):
    """Reference: one module-function call per grid point, as seminorm
    samples were computed before the sample set."""
    if kind == "C":
        grid = np.asarray(params.t_grid, dtype=float)
        return grid, np.array([conv_norm(params, f, phi, float(t)) for t in grid])
    fn = {"B": omega, "B_tilde": omega_tilde, "K": k_functional_upper}[kind]
    grid = np.asarray(params.x_grid, dtype=float)
    return grid, np.array([fn(params, f, float(x)) for x in grid])


def _seminorm_loop(params, f, kind, phi=None):
    return seminorm_from_samples(params, kind,
                                 *_seminorm_samples_loop(params, f, kind, phi))


def _equivalence_report_loop(params, f, phi, sandwich_window=(1e-2, 1.0),
                             probe_ts=(0.05, 0.2, 1.0),
                             probe_xs=(0.05, 0.2, 1.0),
                             max_sandwich_ratio=50.0):
    """Reference: equivalence_report with every sample recomputed where it
    is used."""
    al, k, out = params.alpha, params.k, {}
    xs = np.asarray([x for x in params.x_grid
                     if sandwich_window[0] <= x <= sandwich_window[1]])
    om = np.array([omega(params, f, float(x)) for x in xs])
    ku = np.array([k_functional_upper(params, f, float(x)) for x in xs])
    ratio = om / (xs ** (k - 1) * ku)
    out["sandwich_ratio_min"] = float(ratio.min())
    out["sandwich_ratio_max"] = float(ratio.max())
    out["sandwich_slope"] = slope_estimate(list(zip(xs, ratio)))
    sandwich_ok = (ratio.max() / ratio.min() < max_sandwich_ratio
                   and abs(out["sandwich_slope"]) <= 0.15)
    r = params.beta + k + 1.0
    xg = np.asarray(params.x_grid)
    omt = np.array([omega_tilde(params, f, float(x)) for x in xg])
    ratios_up = []
    for t in probe_ts:
        rhs = float(np.trapezoid(B._compare_kernel_upper(xg, t, al, r) * omt,
                                 np.log(xg)))
        if rhs > 0.0:
            ratios_up.append(conv_norm(params, f, phi, float(t)) / rhs)
    out["conv_upper_ratio_max"] = float(max(ratios_up))
    lower_ok = True
    if params.p > 1.0:
        tg = np.asarray(params.t_grid)
        cn = np.array([conv_norm(params, f, phi, float(t)) for t in tg])
        ratios_lo = []
        for x in probe_xs:
            rhs = float(np.trapezoid(B._compare_kernel_lower(x, tg, k) * cn,
                                     np.log(tg)))
            if rhs > 0.0:
                ratios_lo.append(omega_tilde(params, f, float(x)) / rhs)
        out["conv_lower_ratio_max"] = float(max(ratios_lo))
        lower_ok = math.isfinite(out["conv_lower_ratio_max"])
    for kind in KINDS:
        est = _seminorm_loop(params, f, kind, phi)
        out[f"seminorm_{kind}"] = est.value
        out[f"seminorm_{kind}_diverging"] = est.diverging
    ok = sandwich_ok and math.isfinite(out["conv_upper_ratio_max"]) and lower_ok
    out["status"] = "PASS" if ok else "FAIL"
    return out


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_sample_set_matches_reference_loop(p):
    pr = make_params(k=2, p=p)
    phi = hermite_phi(AL, 1, 2)
    s = BesovSamples(pr, CUBIC, phi)
    for kind in KINDS:
        grid, m = s.samples(kind)
        ref_grid, ref = _seminorm_samples_loop(pr, CUBIC, kind, phi)
        assert np.array_equal(grid, ref_grid)
        assert m.tolist() == ref.tolist(), kind           # bit for bit
    # one set serves the other p from the same profile values
    other = make_params(k=2, p=3.0 - p)
    s2 = BesovSamples(other, CUBIC, phi)
    for kind in ("B_tilde", "C"):
        assert s2.samples(kind, p=p)[1].tolist() == s.samples(kind)[1].tolist()


def test_equivalence_report_matches_reference_form():
    pr = make_params(k=2)
    phi = hermite_phi(AL, 1, 2)
    rep = equivalence_report(pr, GAUSS, phi)
    assert isinstance(rep.pop("samples"), BesovSamples)
    assert rep == _equivalence_report_loop(pr, GAUSS, phi)


def _counting(monkeypatch, names):
    """The number of points of each call of the named besov functions."""
    calls = {name: [] for name in names}
    for name in names:
        orig = getattr(B, name)

        def wrapper(*args, _orig=orig, _name=name, **kw):
            calls[_name].append(int(np.size(args[2])))
            return _orig(*args, **kw)

        monkeypatch.setattr(B, name, wrapper)
    return calls


def test_besov_slice_computes_each_sample_once(monkeypatch):
    calls = _counting(monkeypatch, ("omega", "k_functional_upper"))
    checks = verify.suite_besov(alphas=(-0.25,), ks=(2,))
    assert all(c["status"] == "PASS" for c in checks)
    # one call per kind and point set: omega on the 21 grid points, on the
    # 6 of the 8 omega-scaling points the grid lacks, and on the 12 sandwich
    # points of the wide Gaussian; K on the 21 grid points and the 12
    # sandwich points
    assert calls == {"omega": [21, 6, 12], "k_functional_upper": [21, 12]}


def test_failed_sample_set_leaves_its_checks_inconclusive(monkeypatch):
    def broken(*args, **kw):
        raise RuntimeError("no omega_tilde profile")

    monkeypatch.setattr(B, "_omega_tilde_profile", broken)
    checks = verify.suite_besov(alphas=(-0.25,), ks=(1,), qs=(1.0,),
                                betas=(0.3,))
    by_id = {c["id"]: c for c in checks}
    for cid in ("equivalence-diagnostics[a=-0.25,k=2,p=2]",
                "seminorms-finite[a=-0.25,k=2,q=1,beta=0.3]",
                "p1-inclusion-direction[a=-0.25,k=2]"):
        assert by_id[cid]["status"] == "INCONCLUSIVE", cid
        assert "no omega_tilde profile" in by_id[cid]["detail"], cid
    assert by_id["omega-scaling[a=-0.25,k=1]"]["status"] == "PASS"


def test_kinked_legendre_piece_evaluates_h_once_per_row():
    al, n = AL, 40
    x = np.array([0.9, 1.3, 0.7])
    split = np.array([0.4, 0.0, 0.2])        # rows 0 and 2 have a kink
    shapes = []

    def h(ys, rows):
        shapes.append((ys.shape, rows.tolist()))
        return np.cos(ys)

    _theta_weighted_integral(al, 2, x, h, split, n=n)
    terms = len({(sp, e, j) for v in x.tolist()
                 for _, sp, e, j in _theta_terms(al.alpha, 2, v)})
    assert terms > 1
    assert shapes == [((3, terms, 2 * n), [0, 1, 2]),   # Jacobi, per term
                      ((2, 1, 2 * n), [0, 2])]           # Legendre, shared


# -- grid-at-once sampling against the per-x calls ------------------------------

@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("alpha", [-0.25, 0.5, 1.5])
def test_array_x_equals_scalar_calls_bitwise(alpha, k, p):
    al = AlphaParam(alpha)
    pr = BesovParams(al, k, p, 1.0, 0.5, x_grid=GRID, t_grid=GRID,
                     norm_T=14.0)
    xs = np.array([2e-3, 0.03, 0.4, 0.4, 3.0])      # a repeated x as well
    scalar = {fn: [fn(pr, CUBIC, float(x)) for x in xs]
              for fn in (omega, k_functional_upper)}
    # the former loops: one profile and one lp_norm per probe, and per x
    # for the ||R_k(x,f)|| of the K bound
    ctx = pr.norm_ctx()
    assert scalar[omega] == [
        max(lp_norm(ctx, B.remainder_profile(al, k, CUBIC, float(y)))
            for y in B._y_probe_grid(float(x))) for x in xs]
    assert B._row_norms(ctx, B.remainder_profile(al, k, CUBIC, xs[:, None])
                        ).tolist() == [
        lp_norm(ctx, B.remainder_profile(al, k, CUBIC, float(x))) for x in xs]
    for fn, ref in scalar.items():
        got = fn(pr, CUBIC, xs)
        assert got.shape == xs.shape and got.tolist() == ref, fn.__name__
        assert fn(pr, CUBIC, xs.reshape(5, 1))[:, 0].tolist() == ref
        assert isinstance(fn(pr, CUBIC, 0.4), float)
    # a sample set computes each kind's missing points in one call
    s = BesovSamples(pr, CUBIC, hermite_phi(al, (k - 1) // 2 + 1, k))
    assert s.value("B", xs[1:3]).tolist() == scalar[omega][1:3]
    assert s.samples("B")[1].tolist() == [omega(pr, CUBIC, float(x))
                                          for x in GRID]
    assert s.value("K", xs).tolist() == scalar[k_functional_upper]
    assert s.value("B_tilde", xs).tolist() == [omega_tilde(pr, CUBIC, float(x))
                                               for x in xs]
    assert s.value("C", xs[:3]).tolist() == [conv_norm(pr, CUBIC, s.phi,
                                                       float(t))
                                             for t in xs[:3]]
    assert s.value("B", 0.03) == scalar[omega][1]


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
