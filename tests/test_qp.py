import numpy as np
import pytest

from cbfsim.acc import AccParams, acc_qp_spec
from cbfsim.controller import build_qp
from cbfsim.qp import (
    QpProblem,
    assemble_h_inner_product,
    closed_form_multipliers,
    solve_active_set,
    solve_two_constraint_closed_form,
)

from oracles import grid_search_qp


def random_problem(rng, n=None, n_rows=2, cond_cap=1e4):
    n = n or int(rng.integers(2, 5))
    while True:
        L = rng.normal(size=(n, n))
        H = L @ L.T + 0.1 * np.eye(n)
        eig = np.linalg.eigvalsh(H)
        if eig[-1] / eig[0] <= cond_cap:
            break
    F = rng.normal(size=n)
    rows = [(rng.normal(size=n), rng.normal()) for _ in range(n_rows)]
    return QpProblem(H, F, rows)


def cruise_scaled_problem(rng, n_rows=2):
    # The cruise cost's shape, H = 2 diag(1/M^2, c): a random problem
    # whose first variable (a force) is scaled by a vehicle mass M.
    M = rng.uniform(800.0, 3000.0)
    H = 2.0 * np.diag([1.0 / M**2, 10.0 ** rng.uniform(-1.0, 3.0)])
    scale = np.array([M, 1.0])
    rows = [(rng.normal(size=2) / scale, rng.normal()) for _ in range(n_rows)]
    return QpProblem(H, rng.normal(size=2) / scale, rows)


def test_problem_validation():
    with pytest.raises(ValueError, match="symmetric"):
        QpProblem(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2), [])
    with pytest.raises(ValueError, match="positive definite"):
        QpProblem(np.array([[1.0, 0.0], [0.0, -1.0]]), np.zeros(2), [])
    with pytest.raises(ValueError, match="dimension"):
        QpProblem(np.eye(2), np.zeros(2), [(np.ones(3), 1.0)])


def test_gram_identity_cost():
    p = QpProblem(np.eye(2), np.zeros(2),
                  [(np.array([1.0, 0.0]), 1.0), (np.array([0.5, 1.0]), 2.0)])
    gd = assemble_h_inner_product(p)
    np.testing.assert_allclose(gd.ybar[0], [1.0, 0.0])
    np.testing.assert_allclose(gd.G, [[1.0, 0.5], [0.5, 1.25]])
    np.testing.assert_allclose(gd.pbar, [1.0, 2.0])


def test_gram_orthogonal_rows_diagonal():
    H = np.diag([2.0, 3.0])
    p = QpProblem(H, np.zeros(2),
                  [(np.array([1.0, 0.0]), 1.0), (np.array([0.0, 1.0]), 1.0)])
    gd = assemble_h_inner_product(p)
    assert gd.G[0][1] == pytest.approx(0.0, abs=1e-15)
    assert gd.G[0][0] == pytest.approx(0.5)
    assert gd.G[1][1] == pytest.approx(1.0 / 3.0)


def test_closed_form_unconstrained_optimum_feasible():
    # Both rows slack at -H^-1 F: multipliers vanish.
    H = np.diag([2.0, 2.0])
    F = np.array([-2.0, 0.0])  # unconstrained optimum at (1, 0)
    p = QpProblem(H, F, [(np.array([1.0, 0.0]), 5.0), (np.array([0.0, 1.0]), 5.0)])
    sol = solve_two_constraint_closed_form(p)
    np.testing.assert_allclose(sol.z, [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(sol.multipliers, [0.0, 0.0])
    assert sol.status == "optimal"


def test_closed_form_projection_example():
    # Projection of the origin onto {z1 <= -1, z2 <= 1}: grid-search oracle
    # confirms (-1, 0).
    H = 2.0 * np.eye(2)
    F = np.zeros(2)
    rows = [(np.array([1.0, 0.0]), -1.0), (np.array([0.0, 1.0]), 1.0)]
    sol = solve_two_constraint_closed_form(QpProblem(H, F, rows))
    np.testing.assert_allclose(sol.z, [-1.0, 0.0], atol=1e-12)
    ref = grid_search_qp(H, F, rows, [-3, -3], [3, 3])
    np.testing.assert_allclose(sol.z, ref, atol=1e-3)
    assert np.all(sol.multipliers <= 0)


def test_closed_form_matches_active_set_on_seeded_draws():
    rng = np.random.default_rng(2024)
    for draw in (random_problem, cruise_scaled_problem):
        checked = 0
        for _ in range(300):
            p = draw(rng)
            cf = solve_two_constraint_closed_form(p)
            if cf.status != "optimal":
                continue
            az = solve_active_set(QpProblem(p.H, p.F, list(p.rows)))
            assert az.status == "optimal"
            assert np.linalg.norm(cf.z - az.z) <= 1e-6 * (1 + np.linalg.norm(az.z))
            checked += 1
        assert checked > 250


def test_active_set_no_rows():
    H = np.diag([2.0, 1.0])
    F = np.array([2.0, -3.0])
    sol = solve_active_set(QpProblem(H, F, []))
    np.testing.assert_allclose(sol.z, [-1.0, 3.0], atol=1e-12)
    assert sol.status == "optimal"
    assert sol.active_set == ()


def test_active_set_box_clip():
    # min (z+3)^2/2-ish: F = -3 pulls to z = 3, box [-1, 1] clips to 1.
    sol = solve_active_set(QpProblem(
        np.array([[1.0]]), np.array([-3.0]),
        [(np.array([1.0]), 1.0), (np.array([-1.0]), 1.0)],
    ))
    assert sol.z[0] == pytest.approx(1.0)
    assert sol.active_set == (0,)
    assert sol.multipliers[0] == pytest.approx(-2.0)  # paper-sign multiplier


def test_active_set_infeasible_certificate():
    sol = solve_active_set(QpProblem(
        np.array([[1.0]]), np.zeros(1),
        [(np.array([1.0]), -1.0), (np.array([-1.0]), -1.0)],
    ))
    assert sol.status == "infeasible"
    cert = sol.info["certificate"]
    y = np.zeros(2)
    for idx, weight in cert.items():
        y[idx] = weight
    assert np.all(y >= 0) and np.any(y > 0)
    # combined row: 0 . z <= negative, unsatisfiable
    comb_a = y[0] * 1.0 + y[1] * -1.0
    comb_b = y[0] * -1.0 + y[1] * -1.0
    assert abs(comb_a) <= 1e-9
    assert comb_b < 0


def small_rows_problem(rng, n_rows=2):
    # Cruise-scaled rows shrunk by up to 1e-4, as a barrier row far from
    # its boundary is: dependence on the working rows must not be judged
    # by the rows' size.
    p = cruise_scaled_problem(rng, n_rows)
    return QpProblem(p.H, p.F, [(a * 10.0 ** rng.uniform(-4.0, 0.0), b)
                                for a, b in p.rows])


def test_active_set_kkt_contract_on_random_instances():
    rng = np.random.default_rng(99)
    for k in range(1200):
        draw = (random_problem, cruise_scaled_problem, small_rows_problem)[k // 400]
        p = draw(rng, n_rows=int(rng.integers(0, 6)))
        sol = solve_active_set(p)
        assert sol.status in ("optimal", "infeasible")
        if sol.status == "infeasible":
            # Non-negative row weights y with sum y_i a_i = 0 and
            # sum y_i b_i < 0: no z satisfies the combined row.
            y = np.zeros(len(p.rows))
            for idx, weight in sol.info["certificate"].items():
                y[idx] = weight
            A = np.array([a for a, _ in p.rows])
            b = np.array([b for _, b in p.rows])
            assert np.all(y >= 0)
            assert (np.linalg.norm(y @ A)
                    <= 1e-9 * float(y @ np.linalg.norm(A, axis=1)))
            assert y @ b < 0
            continue
        scale = 1.0 + float(np.max(np.abs(sol.z)))
        assert sol.info["stationarity"] <= 1e-8 * scale * 10
        assert sol.info["primal"] <= 1e-8 * scale
        assert sol.info["dual"] <= 1e-6
        assert sol.info["complementarity"] <= 1e-6 * scale
        assert np.all(sol.multipliers <= 1e-12)


def test_active_set_small_row_not_dependent():
    # The second row is 1e-4 in size under the cruise cost: its curvature
    # dz' H dz ~ 1e-9 is small in absolute terms, yet the two rows are
    # independent and the vertex is the optimum.
    H = 2.0 * np.diag([1.0 / 1650.0**2, 100.0])
    rows = [(np.array([0.5, -0.5]), -0.5), (np.array([-1e-4, 0.0]), -2.0)]
    sol = solve_active_set(QpProblem(H, np.array([-4e-4, 0.0]), rows))
    assert sol.status == "optimal"
    assert sol.active_set == (0, 1)
    np.testing.assert_allclose(sol.z, [20000.0, 20001.0], rtol=1e-12)


def test_closed_form_result_missing_contract_reported_degenerate():
    # |H^-1 F| ~ 5e5 against |z| ~ 1: the range-space step
    # z = ubar + H^-1 A' lambda cancels and misses the rows by ~1e-6.
    H = 2.0 * np.diag([1.0 / 1650.0**2, 10.0])
    F = np.array([0.4, -0.4])
    rows = [(np.array([1.8, 0.4]), 0.3), (np.array([-0.5, 1.3]), -1.7)]
    cf = solve_two_constraint_closed_form(QpProblem(H, F, rows))
    assert cf.status == "degenerate"
    assert cf.info["reason"] == "KKT residual check failed"
    az = solve_active_set(QpProblem(H, F, rows))
    assert az.status == "optimal"
    assert az.active_set == (0, 1)


def test_active_set_deterministic():
    rng = np.random.default_rng(5)
    p1 = random_problem(rng, n=3, n_rows=5)
    sol_a = solve_active_set(QpProblem(p1.H.copy(), p1.F.copy(), list(p1.rows)))
    sol_b = solve_active_set(QpProblem(p1.H.copy(), p1.F.copy(), list(p1.rows)))
    assert np.array_equal(sol_a.z, sol_b.z)
    assert sol_a.active_set == sol_b.active_set
    assert np.array_equal(sol_a.multipliers, sol_b.multipliers)


def test_degenerate_rows_reported_and_fallback_works():
    # Parallel rows are dependent in any inner product.
    rows = [(np.array([1.0, 0.0]), 1.0), (np.array([2.0, 0.0]), 1.0)]
    p = QpProblem(np.eye(2), np.array([-5.0, 0.0]), rows)
    cf = solve_two_constraint_closed_form(p)
    assert cf.status == "degenerate"
    az = solve_active_set(QpProblem(np.eye(2), np.array([-5.0, 0.0]), rows))
    assert az.status == "optimal"
    assert az.z[0] == pytest.approx(0.5)  # tighter row binds


def test_branch_boundary_consistency():
    # At the gate between "first row inactive" and "both active", the two
    # multiplier formulas agree; likewise for the second gate.
    G = np.array([[1.09, 0.6], [0.6, 1.09]])
    det = G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]

    def both_active(pbar):
        lam1 = min(G[1, 1] * pbar[0] - G[1, 0] * pbar[1], 0.0) / det
        lam2 = min(G[0, 0] * pbar[1] - G[0, 1] * pbar[0], 0.0) / det
        return np.array([lam1, lam2])

    # Gate 1: G21 w(p2) - G22 p1 = 0 with p2 < 0.
    p2 = -1.0
    p1 = G[1, 0] * p2 / G[1, 1]
    lam_first = np.array([0.0, min(p2, 0.0) / G[1, 1]])
    np.testing.assert_allclose(lam_first, both_active([p1, p2]), atol=1e-8)
    # Straddling the gate by 1e-9 changes the multiplier continuously.
    for eps in (-1e-9, 1e-9):
        lam, _ = closed_form_multipliers(G, np.array([p1 + eps, p2]))
        np.testing.assert_allclose(lam, lam_first, atol=1e-8)

    # Gate 2: G12 w(p1) - G11 p2 = 0 with p1 < 0.
    p1 = -2.0
    p2 = G[0, 1] * p1 / G[0, 0]
    lam_second = np.array([min(p1, 0.0) / G[0, 0], 0.0])
    np.testing.assert_allclose(lam_second, both_active([p1, p2]), atol=1e-8)
    for eps in (-1e-9, 1e-9):
        lam, _ = closed_form_multipliers(G, np.array([p1, p2 + eps]))
        np.testing.assert_allclose(lam, lam_second, atol=1e-8)


def test_closed_form_complementary_slackness():
    rng = np.random.default_rng(16)
    for _ in range(100):
        p = random_problem(rng)
        sol = solve_two_constraint_closed_form(p)
        if sol.status != "optimal":
            continue
        for i, (a, b) in enumerate(p.rows):
            resid = float(a @ sol.z - b)
            assert resid <= 1e-8 * (1 + abs(b))
            assert abs(sol.multipliers[i] * resid) <= 1e-6
        scale = 1.0 + float(np.max(np.abs(sol.z)))
        assert sol.info["stationarity"] <= 1e-8 * scale * 10
        assert sol.info["primal"] <= 1e-8 * scale
        assert sol.info["dual"] <= 1e-6
        assert sol.info["complementarity"] <= 1e-6 * scale


def test_scale_invariance_of_argmin():
    rng = np.random.default_rng(33)
    p = random_problem(rng, n=3, n_rows=4)
    base = solve_active_set(p)
    for s in (0.03, 1.0, 250.0):
        scaled = solve_active_set(QpProblem(s * p.H, s * p.F, list(p.rows)))
        assert np.linalg.norm(scaled.z - base.z) <= 1e-9 * (1 + np.linalg.norm(base.z))


def test_closed_form_rows_of_different_scales_not_degenerate():
    # At a gap of 150 m the headway barrier's row is tiny next to the
    # Lyapunov row; the two are far from dependent and the closed form
    # must solve the QP itself.
    qp, _ = build_qp(acc_qp_spec(AccParams(), level="basic"),
                     np.array([18.0, 10.0, 150.0]), np.zeros(1))
    assert solve_two_constraint_closed_form(qp).status == "optimal"


def test_active_set_badly_scaled_vertex():
    # Cruise cost H = 2 diag(1/M^2, 100) with the Lyapunov row and the
    # force bound active: the two rows fix the vertex, and the multipliers
    # differ by a factor of 56.
    params = AccParams()
    spec = acc_qp_spec(params, level="force", variant="optimal", kind="zeroing")
    x = np.array([7.19868467952185, 26.57824431277697, 29.6557805759833])
    qp, _ = build_qp(spec, x, np.array([0.18271806232416868]))
    sol = solve_active_set(qp)
    assert sol.status == "optimal"
    assert sol.active_set == (0, 2)
    # u = a_f M g = 4046.625, the force bound.
    assert sol.z[0] == pytest.approx(params.a_f * params.M * params.g, rel=1e-12)
    np.testing.assert_allclose(sol.multipliers, [-4.2381e5, 0.0, -7.6036e3, 0.0],
                               rtol=1e-4)
