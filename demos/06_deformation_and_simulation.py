"""Infinitesimal growth and the Monte Carlo road to the limit shape.

Attaching a square of area mu_k t above each minimum deforms a diagram
continuously; the R-function of the deformed profile obeys a first
order conservation law in (x, t).  This script checks the closed-form
growth derivative against the deformed diagram, then the law's defect
and its order in the x-step, then runs the rescaled simulation: n
growth steps at parameter q^(1/sqrt n), support shrunk by 1/sqrt n,
moments compared against the integrated flow of the previous demo.
"""

import math

from qplancherel import (
    Partition,
    QParam,
    deform,
    growth_derivative,
    mc_limit_experiment,
    pde_residual,
    r_diagram,
    to_interlacing,
    transition_weights,
)

qp = QParam(0.5)
w = to_interlacing(Partition((1,)))
mu = transition_weights(w, qp)

print("== deforming the single box for time t = 0.09 ==")
out = deform(w, mu, 0.09)
print(f"old minima {w.minima}, old maxima {w.maxima}")
print(f"new minima {tuple(round(v, 6) for v in out.minima)}")
print(f"new maxima {out.maxima}")
print(f"area added {out.area - w.area:.12f} (equals t)")

print()
print("== growth derivative: closed form vs the deformed diagram ==")
t = 1e-4
for x in (4.0, 6.0):
    # forward 3-point difference in t: w_t is a diagram only for t > 0
    r_t, r_2t = (r_diagram(deform(w, mu, s), qp, x) for s in (t, 2 * t))
    fd = (4 * r_t - r_2t - 3 * r_diagram(w, qp, x)) / (2 * t)
    cf = growth_derivative(w, qp, x, mu)
    print(f"  x = {x}: closed {cf:.10e}  fd {fd:.10e}  rel "
          f"{abs(cf - fd) / abs(cf):.1e}")

print()
print("== the conservation law, residual and order in dx ==")
shape = to_interlacing(Partition((2, 1)))
x = 4.5
for step in (4e-3, 2e-3, 1e-3):
    print(f"  dx = {step:g}: residual {pde_residual(shape, qp, x, dx=step):.3e}")
coarse = pde_residual(shape, qp, x, dx=2e-3)
fine = pde_residual(shape, qp, x, dx=1e-3)
print(f"  measured order: {math.log2(coarse / fine):.2f} (2 expected)")

print()
print("== rescaled Monte Carlo vs the moment flow ==")
n_boxes, trials = 2000, 60
report = mc_limit_experiment(n_boxes=n_boxes, qp=qp, trials=trials, n_max=3, seed=4)
print(f"n = {n_boxes}, trials = {trials}, q = {qp.q}")
print(f"{'n':>3} {'estimate':>12} {'stderr':>10} {'target':>12} {'z':>7}")
for n in range(1, 4):
    print(f"{n:>3} {report.means[n - 1]:>12.6f} {report.stderrs[n - 1]:>10.6f} "
          f"{report.targets[n - 1]:>12.6f} {report.z_scores()[n - 1]:>+7.2f}")
print("(the acceptance suite runs n = 10^4 with 200 trajectories)")
