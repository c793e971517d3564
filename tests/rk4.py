"""Fixed-step fourth-order Runge-Kutta integration of the moment flow.

The one route to the flow that does not assume its polynomial
structure.  The tests compare it with the exact flow of
``qplancherel.dynamics`` and fit the degree-(n - 1) structure to it.
"""

from __future__ import annotations

import math

from qplancherel.dynamics import IntegrationAccuracyError, OdeState, ode_rhs

# Bound on the relative Richardson estimate of an RK4 run.
RICHARDSON_TOL = 1e-6


def _rk4(y0: tuple[float, ...], sigma_end: float, steps: int) -> tuple[float, ...]:
    h = sigma_end / steps
    y = list(y0)
    for _ in range(steps):
        k1 = ode_rhs(y)
        k2 = ode_rhs([y[i] + 0.5 * h * k1[i] for i in range(len(y))])
        k3 = ode_rhs([y[i] + 0.5 * h * k2[i] for i in range(len(y))])
        k4 = ode_rhs([y[i] + h * k3[i] for i in range(len(y))])
        y = [
            y[i] + h * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i]) / 6
            for i in range(len(y))
        ]
    return tuple(y)


def _rk4_checkpoints(
    y0: tuple[float, ...],
    sigma_end: float,
    segments: int,
    steps: int,
) -> tuple[list[tuple[float, ...]], float]:
    """RK4 states at sigma_end * j / segments for j = 1..segments.

    Each segment takes ``steps`` steps; a second pass at half the step
    size gives a Richardson estimate (relative, factor 1/15) over all
    checkpoints, and the run is rejected when it exceeds 1e-6.
    """
    length = sigma_end / segments
    coarse, fine = [y0], [y0]
    for _ in range(segments):
        coarse.append(_rk4(coarse[-1], length, steps))
        fine.append(_rk4(fine[-1], length, 2 * steps))
    estimate = max(
        abs(f - c) / max(1.0, abs(f))
        for cs, fs in zip(coarse[1:], fine[1:])
        for c, f in zip(cs, fs)
    ) / 15.0
    if estimate > RICHARDSON_TOL:
        raise IntegrationAccuracyError(
            f"Richardson estimate {estimate:.3e} above {RICHARDSON_TOL:.1e} "
            f"with {steps * segments} steps to sigma = {sigma_end}"
        )
    return coarse[1:], estimate


def integrate_rk4(y0, sigma_end: float, steps: int = 1000) -> OdeState:
    """Classical fixed-step fourth-order integration of the moment flow.

    A second pass at half the step size provides a Richardson error
    estimate (relative, factor 1/15); the run is rejected when the
    estimate exceeds 1e-6.
    """
    y0 = tuple(float(v) for v in y0)
    if steps < 1:
        raise ValueError(f"steps must be positive, got {steps}")
    states, estimate = _rk4_checkpoints(y0, sigma_end, 1, steps)
    return OdeState(float(sigma_end), states[0], estimate)


def polynomial_structure_residual(n: int) -> float:
    """How far y_n(s) e^(-ns) from all-ones is from a degree-(n - 1) polynomial.

    Interpolates through n sample points on (0, 2] and returns the
    worst relative mismatch at the midpoints between them, which is
    zero exactly when the structure claim holds.  For n = 1 the claim
    is that y_1 e^(-s) is constant.  One RK4 run (about 2000 steps,
    with its Richardson check) stops at every node and probe, the
    multiples of 1 / n.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    sigma_max, steps = 2.0, 2000
    segments = 2 * n
    per_segment = -(-steps // segments)
    states, _ = _rk4_checkpoints((1.0,) * n, sigma_max, segments, per_segment)
    sigmas = [sigma_max * j / segments for j in range(1, segments + 1)]
    reduced = [y[n - 1] * math.exp(-n * s) for y, s in zip(states, sigmas)]
    # nodes at the even multiples, probes at the odd ones
    nodes, values = sigmas[1::2], reduced[1::2]
    # Newton divided differences; evaluation by nested multiplication.
    coeffs = list(values)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (nodes[i] - nodes[i - k])

    def interpolant(s: float) -> float:
        acc = coeffs[n - 1]
        for i in range(n - 2, -1, -1):
            acc = acc * (s - nodes[i]) + coeffs[i]
        return acc

    return max(
        abs(interpolant(s) - reference) / abs(reference)
        for s, reference in zip(sigmas[0::2], reduced[0::2])
    )
