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

The right-hand side is weighted-homogeneous, so from any initial data
y0 each y_n is exp(n sigma) times a polynomial P_n of degree n - 1 in
sigma.  Along the characteristics H(z) = H0(z exp(sigma H(z))) of
H = exp(sum_n y_n z^n / n), Lagrange-Buermann inversion (Stanley, EC2,
section 5.4) gives P_n in closed form,

    P_n(sigma) = sum_j (n sigma)^j / j! [w^n] P0(w) h0(w)^j,

with P0(w) = sum_k y0_k w^k and h0 = H0 - 1 the h-moments of y0.  From
all-ones P0 = h0 = w / (1 - w), and P_n(sigma) = L_{n-1}(-n sigma) is a
Laguerre polynomial.  ``integrate_moments`` evaluates
y_n = exp(n sigma) P_n(sigma) from any y0, and ``limit_moments`` is its
all-ones case at sigma = ln^2(q), the limiting Rayleigh moments of the
rescaled process at parameter q.  The hand-written ``closed_form`` for
n <= 4 stays as an independent cross-check.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .diagrams import LEVEL_CAP, CapacityError
from .moments import MomentOverflowError, MomentVector, h_from_p_partition_sum
from .qmeasure import QParam

# Largest relative defect of the exact flow against ode_rhs.
_FLOW_DEFECT_TOL = 1e-12
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)
# Initial vectors whose coefficient tables (all orders) are kept.
_FLOW_CACHE_SIZE = 1024


class IntegrationAccuracyError(RuntimeError):
    """The exact flow does not satisfy the moment equations to 1e-12."""


@dataclass(frozen=True)
class OdeState:
    """Moment vector y at logarithmic time sigma, with its measured flow defect."""

    sigma: float
    y: tuple[float, ...]
    error_estimate: float


def ode_rhs(y) -> tuple[float, ...]:
    """Right-hand side (n^2 times the h-combination of y) for n = 1..len(y)."""
    y = tuple(float(v) for v in y)
    return tuple(
        n * n * h_from_p_partition_sum(y, n) for n in range(1, len(y) + 1)
    )


def closed_form(n: int, sigma: float, y0) -> float:
    """Exact y_n(sigma) for n <= 4: a degree n - 1 polynomial times e^(n sigma).

    ``y0`` supplies the initial values y_1(0)..y_n(0).  Non-finite inputs
    raise ValueError; a value that is not finite raises MomentOverflowError.
    """
    if not 1 <= n <= 4:
        raise ValueError(f"closed forms cover n = 1..4, got {n}")
    y0 = tuple(float(v) for v in y0)
    if len(y0) < n:
        raise ValueError(f"need {n} initial values, got {len(y0)}")
    a, b, c, d = y0[:n] + (0.0,) * (4 - n)
    s = float(sigma)
    if not all(map(math.isfinite, (s,) + y0[:n])):
        raise ValueError(f"sigma and y0 must be finite, got {s} and {y0[:n]}")
    try:
        if n == 1:
            poly = a
        elif n == 2:
            poly = b + 2 * a * a * s
        elif n == 3:
            poly = c + 1.5 * a * (3 * b + a * a) * s + 4.5 * a**3 * s * s
        else:
            poly = (
                d
                + (
                    (2.0 / 3.0) * a**4 + 4 * a * a * b + (16.0 / 3.0) * a * c + 2 * b * b
                ) * s
                + (16 * a * a * b + 8 * a**4) * s * s
                + (32.0 / 3.0) * a**4 * s**3
            )
        value = poly * math.exp(n * s)
    except OverflowError:  # a power of a, or e^(n sigma), past the double range
        value = math.inf
    if not math.isfinite(value):
        raise MomentOverflowError(
            f"closed form of p_{n} at sigma = {s} exceeds the floating-point range"
        )
    return value


def limit_sigma(qp: QParam) -> float:
    """The logarithmic horizon ln^2(q) of the rescaled process."""
    return qp.log_inv**2


@lru_cache(maxsize=_FLOW_CACHE_SIZE)
def _flow_coefficients(
    y0: tuple[float, ...],
) -> tuple[tuple[tuple[float, ...], tuple[float, ...]], ...]:
    """Float coefficients of P_n and of n P_n + P_n' for n = 1..len(y0).

    Entry n - 1 holds both, ascending in sigma: y_n and dy_n/dsigma with
    the factor exp(n sigma) taken out.  Coefficient j of P_n is
    n^j / j! [w^n] P0(w) h0(w)^j, exact in rationals and rounded once.
    The table ends before the first order with a coefficient beyond the
    floating-point range.
    """
    size = len(y0)
    p0 = [Fraction(0)] + [Fraction(v) for v in y0]
    h0 = [Fraction(1)]
    for n in range(1, size + 1):  # Newton: n h_n = sum_k p_k h_{n-k}
        h0.append(sum(p0[k] * h0[n - k] for k in range(1, n + 1)) / n)
    # series[j][m] = [w^m] P0 h0^j, which vanishes for m <= j
    series = [p0]
    for j in range(1, size):
        prev = series[-1]
        series.append([Fraction(0)] * (j + 1) + [
            sum(prev[i] * h0[m - i] for i in range(j, m)) for m in range(j + 1, size + 1)
        ])
    table = []
    for n in range(1, size + 1):
        c = [Fraction(n**j, math.factorial(j)) * series[j][n] for j in range(n)] + [0]
        try:
            table.append((
                tuple(float(c[j]) for j in range(n)),
                tuple(float(n * c[j] + (j + 1) * c[j + 1]) for j in range(n)),
            ))
        except OverflowError:  # float() of an exact coefficient
            break
    return tuple(table)


def _horner(coeffs: tuple[float, ...], s: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


def _exact_flow(y0: tuple[float, ...], sigma: float, where: str) -> tuple[tuple[float, ...], float]:
    """y_n = exp(n sigma) P_n(sigma) for n = 1..len(y0), and the flow defect.

    One call of :func:`ode_rhs` on the reduced moments P_n(sigma) checks
    the polynomials: the flow is weighted-homogeneous, so
    rhs_n(y) = exp(n sigma) rhs_n(P) must equal n P_n + P_n'.  The
    defect is measured relative to rhs_n(A), with A_n = |P_n|(|sigma|)
    the polynomial with its coefficients made positive, which bounds
    both sides' rounding even where P_n or the slope cancels to near
    zero.  When A = P, as for the flow from all-ones at sigma >= 0,
    A needs no second call.  A defect above 1e-12 raises
    IntegrationAccuracyError, and a moment beyond the floating-point
    range, or a polynomial coefficient beyond it, raises
    MomentOverflowError.  The exact coefficient table costs O(N^3)
    rational work at order N, so an order above ``LEVEL_CAP`` raises
    CapacityError before any polynomial is built.
    """
    if len(y0) > LEVEL_CAP:
        raise CapacityError(
            f"moment flow requested to order {len(y0)}, above the cap {LEVEL_CAP}"
        )
    table = _flow_coefficients(y0)
    reduced, amplitudes, slopes, values = [], [], [], []
    for n in range(1, len(y0) + 1):
        if n > len(table):
            raise MomentOverflowError(
                f"moment p_{n} {where}: a coefficient of its flow polynomial "
                "exceeds the floating-point range"
            )
        p_coeffs, slope_coeffs = table[n - 1]
        p = _horner(p_coeffs, sigma)
        # exp(n sigma) itself must stay finite, even where |P_n| < 1
        if n * sigma + math.log(max(abs(p), 1.0)) >= _LOG_DOUBLE_MAX:
            raise MomentOverflowError(
                f"moment p_{n} {where} exceeds the floating-point range"
            )
        reduced.append(p)
        amplitudes.append(_horner([abs(c) for c in p_coeffs], abs(sigma)))
        slopes.append(_horner(slope_coeffs, sigma))
        values.append(math.exp(n * sigma) * p)
    rhs = ode_rhs(reduced)
    scale = rhs if amplitudes == reduced else ode_rhs(amplitudes)
    defect = max(
        abs(r - s) / a if a else abs(r - s) for r, s, a in zip(rhs, slopes, scale)
    )
    if not defect <= _FLOW_DEFECT_TOL:
        raise IntegrationAccuracyError(
            f"exact flow defect {defect:.3e} above {_FLOW_DEFECT_TOL:.0e} "
            f"{where}, order {len(y0)}"
        )
    return tuple(values), defect


def integrate_moments(y0, sigma_end: float) -> OdeState:
    """The moment flow from ``y0`` to ``sigma_end``, exactly.

    Evaluates y_n = exp(n sigma) P_n(sigma) from the exact reduced
    polynomials of ``y0``; ``error_estimate`` is the relative defect
    against :func:`ode_rhs` that gates the result (at most 1e-12).
    """
    y0 = tuple(float(v) for v in y0)
    if not y0 or not all(map(math.isfinite, y0)):
        raise ValueError(f"y0 must be a non-empty vector of finite values, got {y0}")
    sigma = float(sigma_end)
    if not math.isfinite(sigma):
        raise ValueError(f"sigma_end must be finite, got {sigma}")
    y, defect = _exact_flow(y0, sigma, f"at sigma = {sigma}")
    return OdeState(sigma, y, defect)


def limit_moments(qp: QParam, n_max: int) -> MomentVector:
    """Limiting Rayleigh moments y_n = exp(n sigma) P_n(sigma), sigma = ln^2(q).

    This is the flow from all-ones: the polynomials P_n are exact and
    all their coefficients are positive, so Horner's rule evaluates them
    without cancellation.  The same defect gate as for
    :func:`integrate_moments` checks the result with one call of
    :func:`ode_rhs`; a moment beyond the floating-point range raises
    MomentOverflowError.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    values, _ = _exact_flow((1.0,) * n_max, limit_sigma(qp), f"at q = {qp.q}")
    return MomentVector("p", values)
