"""Acceptance gate: the package-level guarantees, one test per criterion.

Each test prints a single machine-greppable line

    acceptance <k> <name>: PASS|FAIL <measurements>

outside pytest's capture, then asserts.  Criteria with a stated runtime
budget measure and enforce it.  Criteria 1-7 run the checks of
``qplancherel verify`` (``qplancherel.checks``) on larger inputs, under
the same tolerances.
"""

from __future__ import annotations

import math
import time

import pytest
from oracles import classical_r
from rk4 import polynomial_structure_residual

from qplancherel import (
    QParam,
    h_moments,
    mc_limit_experiment,
    p_moments,
    p_to_h,
    pde_residual,
    simulate_rescaled,
    solve_r_omega,
    to_interlacing,
    transition_measure,
)
from qplancherel.checks import CHECKS, random_partitions


@pytest.fixture
def finish(capsys):
    def _finish(k: int, name: str, ok: bool, details: str) -> None:
        with capsys.disabled():
            print(
                f"acceptance {k} {name}: {'PASS' if ok else 'FAIL'} {details}",
                flush=True,
            )
        assert ok, f"criterion {k} ({name}): {details}"

    return _finish


def run_check(name: str, **inputs) -> tuple[float, float, float]:
    """The check's worst error on ``inputs``, its tolerance, and seconds taken."""
    check, tol = CHECKS[name]
    t0 = time.perf_counter()
    worst = check(**inputs)
    return worst, tol, time.perf_counter() - t0


def test_criterion_1_hook_identity(finish):
    # sum over |lam| = n of q^b dim / prod [h] equals (1-q)^(-n)
    worst, tol, elapsed = run_check("hook_identity", top=20)
    ok = worst < tol and elapsed < 10.0
    finish(
        1,
        "hook identity",
        ok,
        f"worst_rel={worst:.3e} tol={tol:.0e} elapsed={elapsed:.2f}s budget=10s",
    )


def test_criterion_2_kernel_oracle(finish):
    # product-formula weights vs partial-fraction solve on 200 shapes
    shapes = random_partitions(200, max_boxes=25, seed=20240)
    worst, tol, elapsed = run_check("kernel_oracle", shapes=shapes)
    ok = worst < tol and elapsed < 5.0
    finish(
        2,
        "kernel oracle equivalence",
        ok,
        f"worst_abs={worst:.3e} tol={tol:.0e} elapsed={elapsed:.2f}s budget=5s",
    )


def test_criterion_3_pushforward(finish):
    # total variation between the biased shape law and the measure
    worst, tol, elapsed = run_check("pushforward", top=20)
    ok = worst < tol and elapsed < 60.0
    finish(
        3,
        "pushforward agreement",
        ok,
        f"worst_tv={worst:.3e} tol={tol:.0e} elapsed={elapsed:.2f}s budget=60s",
    )


def test_criterion_4_markov_krein(finish):
    # two-route R-function equality and the h = p_to_h(p) identity
    qs = (0.3, 0.6, 0.9)
    shapes = random_partitions(100, max_boxes=15, seed=41)
    worst_r, tol_r, _ = run_check("markov_krein", qs=qs, shapes=shapes)
    worst_h = 0.0
    for q in qs:
        qp = QParam(q)
        for lam in shapes:
            w = to_interlacing(lam)
            direct = h_moments(transition_measure(w, qp), qp, 10)
            routed = p_to_h(p_moments(w, qp, 10))
            for a, b in zip(direct.values, routed.values):
                worst_h = max(worst_h, abs(a - b) / max(1.0, abs(b)))
    ok = worst_r < tol_r and worst_h < 1e-9
    finish(
        4,
        "moment correspondence",
        ok,
        f"worst_r={worst_r:.3e} tol_r={tol_r:.0e} worst_h={worst_h:.3e} tol_h=1e-09",
    )


def test_criterion_5_ode_closed_forms(finish):
    # exact flow vs printed solutions, then the RK4 fit of the degree-(n-1) structure
    sigmas = (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
    worst_rel, tol, _ = run_check("ode_closed_forms", sigmas=sigmas)
    worst_fit = max(polynomial_structure_residual(n) for n in range(1, 7))
    ok = worst_rel < tol and worst_fit < 1e-8
    finish(
        5,
        "moment flow closed forms",
        ok,
        f"worst_rel={worst_rel:.3e} tol={tol:.0e} structure_fit={worst_fit:.3e} tol=1e-08",
    )


def test_criterion_6_limit_shape_moments(finish):
    # series coefficients vs integrated flow, and the classical limit
    worst, tol, _ = run_check("limit_moments")
    orders = []
    for x in (2.2, 2.6, 3.0, 4.0, 5.0, 7.0, 10.0):
        target = classical_r(x)
        e1 = abs(solve_r_omega(x, QParam(1.0 - 1e-4)) - target)
        e2 = abs(solve_r_omega(x, QParam(1.0 - 5e-5)) - target)
        orders.append(math.log2(e1 / e2))
    ok = worst < tol and all(0.9 < order < 1.1 for order in orders)
    finish(
        6,
        "limit-shape moment agreement",
        ok,
        f"worst_rel={worst:.3e} tol={tol:.0e} "
        f"classical_order=[{min(orders):.3f},{max(orders):.3f}] want~1",
    )


def test_criterion_7_growth_pde(finish):
    # finite-difference defect of the conservation law, plus its order
    cases = [
        (q, random_partitions(25, max_boxes=15, seed=seed))
        for q, seed in ((0.5, 7), (0.8, 8))
    ]
    worst, tol, _ = run_check("pde_residual", cases=cases)
    qp = QParam(0.5)
    w = to_interlacing(random_partitions(1, max_boxes=10, seed=3)[0])
    x = w.support_max + 2.0
    coarse = pde_residual(w, qp, x, dx=2e-3)
    fine = pde_residual(w, qp, x, dx=1e-3)
    order = math.log2(coarse / fine)
    ok = worst < tol and 1.7 <= order <= 2.3
    finish(
        7,
        "infinitesimal growth equation",
        ok,
        f"worst_residual={worst:.3e} tol={tol:.0e} order={order:.2f} want=[1.7,2.3]",
    )


def test_criterion_8_monte_carlo_limit(finish):
    # 200 trajectories of 10^4 boxes at the rescaled parameter
    t0 = time.perf_counter()
    report = mc_limit_experiment(
        10**4, QParam(0.5), trials=200, n_max=3, seed=0
    )
    elapsed = time.perf_counter() - t0
    z = report.z_scores()
    ok = all(abs(v) < 3.0 for v in z) and elapsed < 300.0
    finish(
        8,
        "Monte Carlo limit moments",
        ok,
        f"z=({z[0]:+.2f},{z[1]:+.2f},{z[2]:+.2f}) band=3 "
        f"elapsed={elapsed:.1f}s budget=300s",
    )


def test_criterion_9_determinism(finish):
    # randomized experiments reproduce exactly from (seed, config)
    qp = QParam(0.5)
    runs = [
        simulate_rescaled(80, qp, trials=6, n_max=3, seed=17)
        for _ in range(2)
    ]
    samples_equal = runs[0] == runs[1]
    reports = [
        mc_limit_experiment(60, qp, trials=4, n_max=2, seed=5)
        for _ in range(2)
    ]
    reports_equal = reports[0] == reports[1]
    texts = [repr(r) for r in reports]
    ok = samples_equal and reports_equal and texts[0] == texts[1]
    finish(
        9,
        "determinism",
        ok,
        f"samples_equal={samples_equal} reports_equal={reports_equal}",
    )
