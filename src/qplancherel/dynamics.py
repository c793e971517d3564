"""The moment flow of the growth process in logarithmic time.

Along the growth process the Rayleigh moments p_n evolve, after the
time change sigma = t * ln^2(1/q), by the autonomous system

    dy_n / dsigma = n^2 * sum over partitions of n of
                    prod_k y_k^{r_k} / (k^{r_k} r_k!),

whose right-hand side is n^2 times the partition-sum combination that
converts p-moments to h-moments.  The first equations read

    y_1' = y_1
    y_2' = 2 y_1^2 + 2 y_2
    y_3' = (3/2) y_1^3 + (9/2) y_1 y_2 + 3 y_3
    y_4' = (2/3) y_1^4 + 4 y_1^2 y_2 + (16/3) y_1 y_3 + 2 y_2^2 + 4 y_4.

Each y_n is exp(n sigma) times a polynomial P_n of degree n - 1 in
sigma.  The right-hand side is weighted-homogeneous, so the reduced
moments P_n obey P_n' = n sum_{k<n} P_k H_{n-k}, with H the h-moments
of P from the Newton recursion.  From y_n(0) = 1 this integrates
exactly in rationals, and ``limit_moments`` evaluates
y_n = exp(n sigma) P_n(sigma) at sigma = ln^2(q), the limiting Rayleigh
moments of the rescaled process at parameter q.  The fourth-order
Runge-Kutta integrator ``integrate_moments`` and the hand-written
``closed_form`` for n <= 4 stay as independent cross-checks.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .moments import MomentOverflowError, MomentVector, h_from_p_partition_sum
from .qmeasure import QParam

# Largest relative defect of the exact flow against ode_rhs.
_FLOW_DEFECT_TOL = 1e-12
# Default bound on the relative Richardson estimate of an RK4 run.
_RICHARDSON_TOL = 1e-6
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)


class IntegrationAccuracyError(RuntimeError):
    """The flow failed its accuracy check.

    Raised when the Richardson estimate of a Runge-Kutta run is too large,
    or when the exact flow does not satisfy the moment equations.
    """


@dataclass(frozen=True)
class OdeState:
    """Moment vector y at logarithmic time sigma, with an error estimate."""

    sigma: float
    y: tuple[float, ...]
    error_estimate: float = 0.0


def ode_rhs(y) -> tuple[float, ...]:
    """Right-hand side (n^2 times the h-combination of y) for n = 1..len(y)."""
    y = tuple(float(v) for v in y)
    return tuple(
        n * n * h_from_p_partition_sum(y, n) for n in range(1, len(y) + 1)
    )


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
    tol: float,
) -> tuple[list[tuple[float, ...]], float]:
    """RK4 states at sigma_end * j / segments for j = 1..segments.

    Each segment takes ``steps`` steps; a second pass at half the step
    size gives a Richardson estimate (relative, factor 1/15) over all
    checkpoints, and the run is rejected when it exceeds ``tol``.
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
    if estimate > tol:
        raise IntegrationAccuracyError(
            f"Richardson estimate {estimate:.3e} above {tol:.1e} "
            f"with {steps * segments} steps to sigma = {sigma_end}"
        )
    return coarse[1:], estimate


def integrate_moments(
    y0,
    sigma_end: float,
    steps: int = 1000,
    tol: float = _RICHARDSON_TOL,
) -> OdeState:
    """Classical fixed-step fourth-order integration of the moment flow.

    A second pass at half the step size provides a Richardson error
    estimate (relative, factor 1/15); the run is rejected when the
    estimate exceeds ``tol``.
    """
    y0 = tuple(float(v) for v in y0)
    if steps < 1:
        raise ValueError(f"steps must be positive, got {steps}")
    if sigma_end == 0.0:
        return OdeState(0.0, y0, 0.0)
    states, estimate = _rk4_checkpoints(y0, sigma_end, 1, steps, tol)
    return OdeState(float(sigma_end), states[0], estimate)


def closed_form(n: int, sigma: float, y0) -> float:
    """Exact y_n(sigma) for n <= 4: a degree n - 1 polynomial times e^(n sigma).

    ``y0`` supplies the initial values y_1(0)..y_n(0).
    """
    if not 1 <= n <= 4:
        raise ValueError(f"closed forms cover n = 1..4, got {n}")
    y0 = tuple(float(v) for v in y0)
    if len(y0) < n:
        raise ValueError(f"need {n} initial values, got {len(y0)}")
    a = y0[0]
    s = float(sigma)
    if n == 1:
        return a * math.exp(s)
    b = y0[1]
    if n == 2:
        return (b + 2 * a * a * s) * math.exp(2 * s)
    c = y0[2]
    if n == 3:
        return (
            c + 1.5 * a * (3 * b + a * a) * s + 4.5 * a**3 * s * s
        ) * math.exp(3 * s)
    d = y0[3]
    poly = (
        d
        + ((2.0 / 3.0) * a**4 + 4 * a * a * b + (16.0 / 3.0) * a * c + 2 * b * b) * s
        + (16 * a * a * b + 8 * a**4) * s * s
        + (32.0 / 3.0) * a**4 * s**3
    )
    return poly * math.exp(4 * s)


def limit_sigma(qp: QParam) -> float:
    """The logarithmic horizon ln^2(q) of the rescaled process."""
    return qp.log_inv**2


def _poly_mul(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@cache
def _reduced_flow(n: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Exact (P_n, H_n) of the flow from all-ones, ascending in sigma.

    P_n' = n sum_{k<n} P_k H_{n-k} with P_n(0) = 1, and the Newton
    recursion n H_n = P_n + sum_{k<n} P_k H_{n-k}.  All coefficients
    are positive.
    """
    if n == 1:
        return (Fraction(1),), (Fraction(1),)
    slope = [Fraction(0)] * (n - 1)
    for k in range(1, n):
        product = _poly_mul(_reduced_flow(k)[0], _reduced_flow(n - k)[1])
        for i, c in enumerate(product):
            slope[i] += n * c
    p = (Fraction(1),) + tuple(c / (i + 1) for i, c in enumerate(slope))
    h = tuple((p[i] + slope[i] / n) / n for i in range(n - 1)) + (p[-1] / n,)
    return p, h


@cache
def _flow_coefficients(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Float coefficients of P_n and of n P_n + P_n', ascending in sigma.

    These are y_n and dy_n/dsigma with the factor exp(n sigma) taken out.
    """
    p = _reduced_flow(n)[0]
    slope = [n * c for c in p]
    for i in range(1, n):
        slope[i - 1] += i * p[i]
    return tuple(float(c) for c in p), tuple(float(c) for c in slope)


def _horner(coeffs: tuple[float, ...], s: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


def limit_moments(qp: QParam, n_max: int) -> MomentVector:
    """Limiting Rayleigh moments y_n = exp(n sigma) P_n(sigma), sigma = ln^2(q).

    The polynomials P_n are exact; all their coefficients are positive,
    so Horner's rule evaluates them without cancellation.  One call of
    :func:`ode_rhs` on the reduced moments P_n(sigma) checks the result:
    their relative defect against n P_n + P_n' above 1e-12 raises
    IntegrationAccuracyError.  A moment beyond the floating-point range
    raises MomentOverflowError.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    sigma = limit_sigma(qp)
    reduced, slopes, values = [], [], []
    for n in range(1, n_max + 1):
        p_coeffs, slope_coeffs = _flow_coefficients(n)
        p = _horner(p_coeffs, sigma)
        if n * sigma + math.log(p) >= _LOG_DOUBLE_MAX:
            raise MomentOverflowError(
                f"limiting moment p_{n} at q = {qp.q} exceeds the floating-point range"
            )
        reduced.append(p)
        slopes.append(_horner(slope_coeffs, sigma))
        values.append(math.exp(n * sigma) * p)
    # The flow is weighted-homogeneous: rhs_n(y) = exp(n sigma) rhs_n(P).
    defect = max(abs(r - s) / s for r, s in zip(ode_rhs(reduced), slopes))
    if not defect <= _FLOW_DEFECT_TOL:
        raise IntegrationAccuracyError(
            f"exact flow defect {defect:.3e} above {_FLOW_DEFECT_TOL:.0e} "
            f"at q = {qp.q}, order {n_max}"
        )
    return MomentVector("p", tuple(values))


def polynomial_structure_residual(
    n: int,
    y0=None,
    sigma_max: float = 2.0,
    steps: int = 2000,
) -> float:
    """How far y_n(s) e^(-ns) is from a degree-(n - 1) polynomial in s.

    Interpolates through n sample points on (0, sigma_max] and returns
    the worst relative mismatch at the midpoints between them, which is
    zero exactly when the structure claim holds.  For n = 1 the claim
    is that y_1 e^(-s) is constant.  One RK4 run (about ``steps`` steps,
    with its Richardson check) stops at every node and probe, the
    multiples of sigma_max / (2n).
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if y0 is None:
        y0 = (1.0,) * n
    if len(y0) < n:
        raise ValueError(f"y0 has {len(y0)} entries, needs at least {n}")

    segments = 2 * n
    per_segment = -(-steps // segments)
    y0 = tuple(float(v) for v in y0)
    states, _ = _rk4_checkpoints(y0, sigma_max, segments, per_segment, _RICHARDSON_TOL)
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
