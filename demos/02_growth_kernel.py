"""The growth kernel: corner weights, an independent oracle, sampling.

A diagram grows one box at a time at one of its inner corners.  In the
Russian convention the corners sit at integer contents, the minima
x_1 < ... < x_{m+1} alternating with the maxima y_1 < ... < y_m, and
the chance of growing at x_k is a product of paired ratios over the
other corners.  Two very different routes compute the same numbers:

  * the closed product formula, and
  * a linear solve that reads the weights off the partial-fraction
    expansion of the diagram's R-function.

Agreement to near machine precision is the module's oracle test.
"""

from collections import Counter

from qplancherel import (
    Partition,
    QParam,
    grow_trajectory,
    partial_fraction_weights,
    q_measure,
    simulate_rescaled,
    to_interlacing,
    transition_weights,
)

qp = QParam(0.5)

print("== corner weights of lam = (2, 1) at q = 1/2 ==")
w = to_interlacing(Partition((2, 1)))
print(f"minima (contents): {w.minima}")
print(f"maxima (contents): {w.maxima}")
mu = transition_weights(w, qp)
print(f"product formula  : {tuple(round(v, 12) for v in mu)}")
print(f"exact values     : (7/45, 10/45, 28/45) = {(7/45, 10/45, 28/45)}")

print()
print("== oracle equivalence on a bigger shape ==")
big = to_interlacing(Partition((6, 4, 4, 2, 1)))
a = transition_weights(big, qp)
b = partial_fraction_weights(big, qp)
print(f"largest |product - solve| over {len(a)} corners: "
      f"{max(abs(x - y) for x, y in zip(a, b)):.3e}")

print()
print("== sampling the chain ==")
trajectory = grow_trajectory(8, qp, seed=7)
# the chain is kept as the 0-based row of each grown box (its row word);
# the states are the shapes of the word's prefixes
print(f"row word: {trajectory.rows}")
print("states, one per prefix of the word:")
for state in trajectory.states:
    print(f"  {state.parts}")

print()
print("== empirical level-4 marginal vs the exact measure ==")
trials = 20000
# The corner walk draws the same uniforms as grow_trajectory(4, qp,
# seed=123, stream=trial) and grows the same shapes, in a fraction of
# the time: it runs at 0.25^(1/sqrt(4)) = 1/2 exactly.
samples = simulate_rescaled(4, QParam(0.25), trials, 1, seed=123)
counts = Counter(s.shape for s in samples)
print(f"{'shape':<14} {'empirical':>10} {'exact':>10}")
for shape, count in counts.most_common():
    print(f"{str(shape.parts):<14} {count / trials:>10.4f} "
          f"{q_measure(shape, qp):>10.4f}")
