"""From the growth chain to its limit profile, entirely in moments.

Along the chain the Rayleigh moments evolve, after a logarithmic time
change, by an autonomous ODE system whose right-hand side is the
p-to-h conversion scaled by n^2.  Run from the all-ones start to time
ln^2(q) the flow lands on the limiting moments of the rescaled
process.  The limit profile itself is pinned down by the implicit
equation for its R-function, and expanding that equation in z = q^x
reproduces the integrated moments: two independent descriptions, one
curve.
"""

import math

from qplancherel import (
    QParam,
    closed_form,
    integrate_moments,
    limit_moments,
    limit_sigma,
    ode_rhs,
    p_to_h,
    series_h_omega,
    solve_r_omega,
)

print("== the first flow equations at the all-ones point ==")
print(f"rhs(1)       = {ode_rhs((1.0,))}")
print(f"rhs(1,1)     = {ode_rhs((1.0, 1.0))}")
print(f"rhs(1,1,1)   = {ode_rhs((1.0, 1.0, 1.0))}")

print()
print("== exact flow vs closed forms ==")
y0 = (1.0, 1.0, 1.0, 1.0)
state = integrate_moments(y0, 1.0)
for n in range(1, 5):
    exact = closed_form(n, 1.0, y0)
    rel = abs(state.y[n - 1] - exact) / exact
    print(f"  y_{n}(1) = {state.y[n - 1]:.10f}  closed {exact:.10f}  rel {rel:.1e}")

print()
print("== limiting moments at q = 1/2 ==")
qp = QParam(0.5)
sigma = limit_sigma(qp)
print(f"time horizon ln^2(2) = {sigma:.6f}")
p_limit = limit_moments(qp, 6)
for n, value in enumerate(p_limit.values, start=1):
    print(f"  p_{n} = {value:.12f}")

print()
print("== the implicit equation and its solution branch ==")
for x in (3.0, 4.0, 6.0, 10.0, 20.0):
    r = solve_r_omega(x, qp)
    c = qp.log_inv / (1.0 - qp.q)
    residual = r * (1.0 - qp.q ** (x - c * r)) - (1.0 - qp.q)
    print(f"  x = {x:>4}: r = {r:.12f}  equation residual {residual:+.1e}")
print(f"  (r tends to 1 - q = {1 - qp.q} as x grows)")

print()
print("== series coefficients vs integrated flow ==")
series = series_h_omega(qp, 6)
flow = p_to_h(p_limit)
print(f"{'n':>3} {'series':>18} {'flow':>18} {'rel diff':>10}")
for n in range(1, 7):
    a, b = series.moment(n), flow.moment(n)
    print(f"{n:>3} {a:>18.10f} {b:>18.10f} {abs(a - b) / b:>10.1e}")

print()
print("== the classical limit of the branch ==")
classical = solve_r_omega(3.0, QParam(1.0))  # the same equation at q = 1
for eps in (1e-2, 1e-3, 1e-4):
    value = solve_r_omega(3.0, QParam(1.0 - eps))
    print(f"  q = 1 - {eps:g}: r(3) = {value:.8f}  "
          f"(classical {classical:.8f}, gap {value - classical:+.2e})")
