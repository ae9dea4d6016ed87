"""Gamma and its gradient on the even half of the grid.

A V and a beta that read the same reversed, bit for bit, on a centred grid
of odd n are solved on nodes 0..c: the outgoing solve for e_even and
R(k)[beta psi], and the reduced-resolvent solve of the gradient.  These
tests compare that path with the full-grid one, which every other input
keeps, and guard the row counts of the solves.
"""
import dataclasses

import numpy as np
import pytest

from test_acceptance import design_for, random_symmetric_potentials
from pdp import fgr, kernels, spectral
from pdp.cli import main
from pdp.grid import BetaMode, PotentialField, make_grid, sech_well, trapz
from pdp.optimizer import OptOptions, barrier_objective, optimize


@pytest.fixture(scope="module")
def design_grid():
    return make_grid(-20, 20, 2001)


def evaluate(V, params):
    """(result, gradient) of V, solved afresh."""
    fgr.clear_cache()
    res = fgr.gamma(V, params)
    g = fgr.gamma_gradient(V, params, res)
    fgr.clear_cache()
    return res, g


def assert_paths_agree(V, params, monkeypatch):
    half, g_half = evaluate(V, params)
    with monkeypatch.context() as m:
        m.setattr(fgr, "_splits_by_parity", lambda V, params: False)
        full, g_full = evaluate(V, params)
    assert half.m_plus == half.m_minus
    assert abs(half.gamma - full.gamma) <= 1e-12 * full.gamma
    for m in (full.m_plus, full.m_minus):
        assert abs(half.m_plus - m) <= 1e-12 * abs(m)
    r_half, r_full = half.source_response, full.source_response
    assert r_half.shape == r_full.shape
    assert np.max(np.abs(r_half - r_full)) <= 1e-12 * np.max(np.abs(r_full))
    # the full-grid gradient is itself mirrored only to about 2e-12 (its
    # reduced-resolvent solve rounds asymmetrically), so the half-grid one,
    # mirrored exactly, is compared with its mirrored part
    assert g_half.tobytes() == g_half[::-1].tobytes()
    g_sym = 0.5 * (g_full + g_full[::-1])
    assert np.linalg.norm(g_half - g_sym) <= 1e-12 * np.linalg.norm(g_full)


@pytest.mark.parametrize(
    "x_max, n, a, mu, b",
    [(20.0, 2001, 12.0, 2.0, 1e3), (80.0, 3001, 64.0, 2.0, 1e3), (20.0, 2001, 8.0, 4.0, 10.0)],
    ids=["headline", "a64", "b-type"],
)
def test_sech_starts_match_the_full_grid_path(x_max, n, a, mu, b, monkeypatch):
    grid = make_grid(-x_max, x_max, n)
    assert_paths_agree(sech_well(1.5, 1.5, a, grid), design_for(grid, a, mu, b), monkeypatch)


def test_criterion_4_wells_match_the_full_grid_path(design_grid, monkeypatch):
    params = design_for(design_grid, a=12.0, mu=2.0)
    for V in random_symmetric_potentials(design_grid, params, np.random.default_rng(102), 20):
        assert_paths_agree(V, params, monkeypatch)


def test_jost_form_agrees_on_criterion_4_wells(design_grid):
    # the Jost form reads the full-grid waves e_+- / t, an assembly
    # independent of the half-grid Gamma
    params = design_for(design_grid, a=12.0, mu=2.0)
    for V in random_symmetric_potentials(design_grid, params, np.random.default_rng(102), 20):
        fgr.clear_cache()
        g = fgr.gamma(V, params).gamma
        assert abs(fgr.gamma_jost_form(V, params) - g) <= 1e-10 * g


def solved_rows(monkeypatch):
    """The forcing's row count of every outgoing and reduced-resolvent solve."""
    rows = []
    for name in ("outgoing_resolvent_solve", "reduced_resolvent_at_eigenvalue"):
        solve = getattr(spectral, name)

        def spy(V, arg, f, _solve=solve):
            rows.append(np.shape(f)[0])
            return _solve(V, arg, f)

        monkeypatch.setattr(spectral, name, spy)
    # fgr calls the reduced resolvent by its own binding, and the outgoing
    # solve through spectral.distorted_plane_waves
    reduced = spectral.reduced_resolvent_at_eigenvalue  # the spy
    monkeypatch.setattr(fgr, "reduced_resolvent_at_eigenvalue", reduced)
    return rows


@pytest.mark.parametrize("case", ["one-ulp", "beta"])
def test_asymmetric_inputs_take_the_full_grid_path(design_grid, case, monkeypatch):
    # Gamma and m_+- have the bits of the full-grid assembly, and no solve
    # is made on the even half
    V = sech_well(1.5, 1.5, 12.0, design_grid)
    params = design_for(design_grid, a=12.0, mu=2.0)
    if case == "one-ulp":
        v = V.values.copy()
        v[800] = np.nextafter(v[800], -np.inf)
        V = V.with_values(v)
    else:
        beta = np.where((design_grid.x >= -2.0) & (design_grid.x <= 2.1), 1.0, 0.0)
        params = dataclasses.replace(params, beta=PotentialField(design_grid, beta, 12.0))
    assert V.mirrored == (case == "beta") and params.beta.mirrored == (case == "one-ulp")
    rows = solved_rows(monkeypatch)
    res, _ = evaluate(V, params)
    assert rows == [design_grid.n, design_grid.n]
    src = params.beta_values(V) * res.bound_state.psi
    (e_p, e_m), rbp = spectral.distorted_plane_waves(spectral.ScatteringState(res.k_res, V), src)
    m_p = complex(trapz(design_grid, src * e_p))
    m_m = complex(trapz(design_grid, src * e_m))
    assert (res.m_plus, res.m_minus) == (m_p, m_m)
    assert res.gamma == (abs(m_p) ** 2 + abs(m_m) ** 2) / (16.0 * res.k_res)
    assert res.source_response.tobytes() == rbp.tobytes()


def test_no_solve_of_a_barrier_evaluation_exceeds_the_even_half(design_grid, monkeypatch):
    # criterion 5's start: the Rayleigh step of the eigensolve, the
    # outgoing solve and the reduced-resolvent solve all run on nodes 0..c
    rows = []
    solve = kernels._gtsv_solve

    def spy(dl, d, du, b, **kwargs):
        rows.append(np.shape(b)[0])
        return solve(dl, d, du, b, **kwargs)

    for mod in (kernels, spectral):
        monkeypatch.setattr(mod, "_gtsv_solve", spy)
    params = design_for(design_grid, a=12.0, mu=2.0)
    fgr.clear_cache()
    barrier_objective(sech_well(1.5, 1.5, 12.0, design_grid), params, 1e-2)
    assert len(rows) >= 3
    assert max(rows) <= design_grid.n // 2 + 1, rows


def test_evaluate_prints_equal_matrix_elements(capsys):
    # the default config is the headline's symmetric sech start
    assert main(["evaluate"]) == 0
    lines = dict(
        line.split(" = ") for line in capsys.readouterr().out.splitlines() if " = " in line
    )
    assert lines["m_plus_sq"] == lines["m_minus_sq"]


# Symmetric mode keeps a mirrored descent mirrored with no projection: a V
# and beta that split by parity give a barrier gradient that reads the
# same reversed, bit for bit, because Gamma's gradient is solved on the even
# half and mirrored, and psi^2, eta_+ eta_- and the H1 gradient of a
# mirrored V are mirrored too.  These guard that invariant.


@pytest.mark.parametrize("mode", ["fixed", "equals_v"])
def test_barrier_gradient_is_mirrored_bit_for_bit(design_grid, mode):
    params = design_for(design_grid, a=12.0, mu=2.0)
    wells = random_symmetric_potentials(design_grid, params, np.random.default_rng(102), 20)
    if mode == "equals_v":
        params = dataclasses.replace(params, beta_mode=BetaMode.EQUALS_V, beta=None)
    for V in [sech_well(1.5, 1.5, 12.0, design_grid)] + wells:
        fgr.clear_cache()
        g = barrier_objective(V, params, 1e-2).gradient
        assert g.tobytes() == g[::-1].tobytes()


def test_symmetric_and_plain_headline_runs_are_the_same_run(design_grid):
    # the mirror average of the mirrored sech start is the start itself,
    # and every step after it stays mirrored
    params = design_for(design_grid, a=12.0, mu=2.0)
    V0 = sech_well(1.5, 1.5, 12.0, design_grid)
    runs = []
    for symmetric in (True, False):
        fgr.clear_cache()
        runs.append(optimize(V0, params, OptOptions(symmetric=symmetric)))
    sym, plain = runs
    assert sym.iterations == plain.iterations > 0
    assert sym.V_opt.values.tobytes() == plain.V_opt.values.tobytes()
    assert sym.trace_rows.tobytes() == plain.trace_rows.tobytes()


def test_even_n_gradient_is_not_mirrored():
    # an even-n grid has no even half: the mirrored sech start's gradient is
    # solved on the full grid and is mirrored only to rounding, which is why
    # symmetric mode needs odd n
    grid = make_grid(-20, 20, 2000)
    V = sech_well(1.5, 1.5, 12.0, grid)
    params = design_for(grid, a=12.0, mu=2.0)
    assert V.mirrored and params.beta.mirrored
    fgr.clear_cache()
    g = barrier_objective(V, params, 1e-2).gradient
    assert g.tobytes() != g[::-1].tobytes()
    np.testing.assert_allclose(g, g[::-1], rtol=0, atol=1e-12 * np.max(np.abs(g)))
