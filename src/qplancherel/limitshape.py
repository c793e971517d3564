"""The limiting R-function: implicit equation, series moments, self-similarity.

The rescaled growth process has a deterministic limit profile whose
R-function R(x; q) solves the implicit equation

    R * (1 - q^(x - c R)) = 1 - q,        c = ln(1/q) / (1 - q),

on the branch with R -> 1 - q as x -> +infinity.  In the classical
limit q -> 1 the equation degenerates to R (x - R) = 1 with solution
(x - sqrt(x^2 - 4)) / 2.  Writing z = q^x, the normalized expansion

    R(x; q) / (1 - q) = 1 + sum_{n >= 1} h_n z^n

collects the limiting h-moments; the substitution h(z) = R/(1-q) - 1
turns the implicit equation into h = z (1 + h) exp(rho^2 (1 + h)) with
rho = ln(1/q), which the series extraction exploits order by order.
The same curve is self-similar: with Q = e^(-rho) and the rescaling
r = rho R / (1 - Q), the function r(u, rho) satisfies

    r = rho / (1 - e^(-rho (u - r)))       and the quasi-linear PDE
    2 r r_u - u r_u + rho r_rho = r.
"""

from __future__ import annotations

import math

from scipy.optimize import brentq

from .moments import MomentOverflowError, MomentVector
from .qmeasure import QParam

_BRENTQ_RTOL = 4 * math.ulp(1.0)


class BracketingError(RuntimeError):
    """No admissible root in the attempted bracket."""


def _exp_capped(t: float) -> float:
    return math.inf if t > 709.0 else math.exp(t)


def classical_r(x: float) -> float:
    """(x - sqrt(x^2 - 4)) / 2 in cancellation-free form; needs x >= 2."""
    if x < 2.0:
        raise BracketingError(f"the classical branch needs x >= 2, got {x}")
    return 2.0 / (x + math.sqrt(x * x - 4.0))


def solve_r_omega(x: float, qp: QParam) -> float:
    """Root of R (1 - q^(x - c R)) = (1 - q) on the physical branch.

    Safeguarded bracketing: the left end (1 - q)/2 always lies below the
    root, the right end starts at 3 (1 - q) and doubles, clipped at the
    stationary point of the defect function beyond which the second,
    unphysical branch begins.  Raises BracketingError (reporting the
    attempted bracket) when x is below the admissible range.
    """
    if qp.is_classical:
        return classical_r(x)
    q = qp.q
    rho = qp.log_inv
    one_minus_q = 1.0 - q
    z = _exp_capped(-x * rho)
    if z >= 1.0:
        raise BracketingError(f"need q^x < 1, got x = {x} at q = {q}")
    alpha = rho * rho / one_minus_q
    log_z = -x * rho

    def defect(r: float) -> float:
        return r * (1.0 - _exp_capped(log_z + alpha * r)) - one_minus_q

    # g' = 0 where z e^(alpha r)(1 + alpha r) = 1; increasing in r, and
    # taking logs keeps the marker finite for any r.
    def slope_marker(r: float) -> float:
        return log_z + alpha * r + math.log1p(alpha * r)

    hi_marker = one_minus_q
    while slope_marker(hi_marker) <= 0.0:
        hi_marker *= 2.0
    r_hump = brentq(slope_marker, 0.0, hi_marker, rtol=_BRENTQ_RTOL)

    lo = one_minus_q / 2.0
    if defect(r_hump) <= 0.0:
        raise BracketingError(
            f"no root for x = {x} at q = {q}; defect stays negative "
            f"on the bracket [{lo}, {r_hump}]"
        )
    hi = min(3.0 * one_minus_q, r_hump)
    while defect(hi) <= 0.0:
        hi = min(2.0 * hi, r_hump)
        if hi == r_hump:
            break
    return float(brentq(defect, lo, hi, xtol=1e-15 * one_minus_q, rtol=_BRENTQ_RTOL))


def _fsum_or_inf(terms) -> float:
    # fsum raises once a sum of finite terms leaves the double range
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


def _series_by_recursion(qp: QParam, n_max: int) -> list[float]:
    # coefficient recursion for h = z (1 + h) exp(rho^2 (1 + h)); every
    # term is positive, so a coefficient past the double range is inf
    rho2 = qp.log_inv**2
    lead = _exp_capped(rho2)
    h = [0.0] * (n_max + 1)
    exp_part = [1.0] + [0.0] * n_max  # series of exp(rho^2 h(z))
    for n in range(1, n_max + 1):
        h[n] = lead * (
            exp_part[n - 1]
            + _fsum_or_inf(h[i] * exp_part[n - 1 - i] for i in range(1, n))
        )
        if math.isinf(h[n]):
            raise MomentOverflowError(
                f"limiting moment h_{n} at q = {qp.q} exceeds the floating-point range"
            )
        exp_part[n] = rho2 / n * _fsum_or_inf(
            j * h[j] * exp_part[n - j] for j in range(1, n + 1)
        )
    return h[1:]


def series_h_omega(qp: QParam, n_max: int) -> MomentVector:
    """Limiting h-moments: coefficients of z^n in R/(1 - q) - 1, z = q^x.

    Differentiates the implicit equation order by order, exact up to
    rounding for every q in (0, 1]; at q = 1, where rho = 0, every
    coefficient is 1, the h-moments of the all-ones classical p-moments.
    A coefficient beyond the double range raises MomentOverflowError.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    return MomentVector("h", tuple(_series_by_recursion(qp, n_max)))


def automodel_residual(u: float, rho: float) -> float:
    """Defect of the self-similar implicit form at scale rho.

    Solves the limit equation at parameter Q = e^(-rho), rescales to
    r = rho R / (1 - Q), and returns |r (1 - e^(-rho (u - r))) - rho|.
    """
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    r = _r_scaled(u, rho)
    return abs(r * -math.expm1(-rho * (u - r)) - rho)


def _r_scaled(u: float, rho: float) -> float:
    q_param = QParam(math.exp(-rho))
    return rho * solve_r_omega(u, q_param) / (1.0 - q_param.q)


def automodel_pde_residual(u: float, rho: float) -> float:
    """Central-difference defect of 2 r r_u - u r_u + rho r_rho - r = 0."""
    step = 1e-4
    r = _r_scaled(u, rho)
    r_u = (_r_scaled(u + step, rho) - _r_scaled(u - step, rho)) / (2 * step)
    r_rho = (_r_scaled(u, rho + step) - _r_scaled(u, rho - step)) / (2 * step)
    return abs(2.0 * r * r_u - u * r_u + rho * r_rho - r)
