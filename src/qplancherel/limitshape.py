"""The limiting R-function: implicit equation, root solver, series moments.

The rescaled growth process has a deterministic limit profile whose
R-function R(x; q) solves the implicit equation

    R * (1 - q^(x - c R)) = 1 - q,        c = ln(1/q) / (1 - q),

on the branch with R -> 1 - q as x -> +infinity.  In the classical
limit q -> 1 the equation degenerates to R (x - R) = 1 with solution
(x - sqrt(x^2 - 4)) / 2.  The support of the limit shape ends at the
double roots of the equation, in closed form in :func:`support_edges`.
Writing z = q^x, the normalized expansion

    R(x; q) / (1 - q) = 1 + sum_{n >= 1} h_n z^n

collects the limiting h-moments; the substitution h(z) = R/(1-q) - 1
turns the implicit equation into h = z (1 + h) exp(rho^2 (1 + h)) with
rho = ln(1/q), which the series extraction exploits order by order.

The scalar roots come from :func:`brentq`, Brent's method (Brent 1973,
ch. 4) step for step as the widely used C ``brentq`` loop runs it: the
same stopping rule and the same interpolate / extrapolate / bisect
choices, so the tests find the same roots, iteration counts and call
counts as that reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .moments import MomentOverflowError, MomentVector, _fsum
from .qmeasure import QParam

_BRENTQ_XTOL = 2e-12
_BRENTQ_RTOL = 4 * math.ulp(1.0)
_BRENTQ_MAXITER = 100


@dataclass(frozen=True)
class BrentInfo:
    """What :func:`brentq` returns beside the root with ``full_output``."""

    iterations: int
    function_calls: int


def brentq(f, a, b, xtol=_BRENTQ_XTOL, full_output=False):
    """A root of f in [a, b], where f(a) and f(b) differ in sign.

    Stops once half the bracket is below (xtol + 4 eps |x|) / 2.  Raises
    ValueError on a same-sign bracket or a NaN value of f, RuntimeError
    after 100 iterations.  With ``full_output`` returns
    ``(root, BrentInfo)``.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")

    def value(x):
        fx = f(x)
        if fx != fx:
            raise ValueError(
                f"The function value at x={x} is NaN; solver cannot continue."
            )
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    calls, iterations = 2, 0
    if fpre == 0:
        xcur = xpre
    elif fcur != 0:
        if (fpre < 0) == (fcur < 0):
            raise ValueError("f(a) and f(b) must have different signs")
        while True:
            if iterations == _BRENTQ_MAXITER:
                raise RuntimeError(f"Failed to converge after {iterations} iterations.")
            iterations += 1
            if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
                xblk, fblk = xpre, fpre
                spre = scur = xcur - xpre
            if abs(fblk) < abs(fcur):
                xpre, xcur, xblk = xcur, xblk, xcur
                fpre, fcur, fblk = fcur, fblk, fcur
            delta = (xtol + _BRENTQ_RTOL * abs(xcur)) / 2
            sbis = (xblk - xcur) / 2
            if fcur == 0 or abs(sbis) < delta:
                break
            if abs(spre) > delta and abs(fcur) < abs(fpre):
                try:
                    if xpre == xblk:  # interpolate
                        stry = -fcur * (xcur - xpre) / (fcur - fpre)
                    else:  # extrapolate
                        dpre = (fpre - fcur) / (xpre - xcur)
                        dblk = (fblk - fcur) / (xblk - xcur)
                        stry = (
                            -fcur
                            * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre))
                        )
                except ZeroDivisionError:  # IEEE gives an inf or NaN step: bisect
                    stry = math.inf
                if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                    spre, scur = scur, stry  # good short step
                else:
                    spre = scur = sbis
            else:
                spre = scur = sbis
            xpre, fpre = xcur, fcur
            xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
            fcur = value(xcur)
            calls += 1
    if full_output:
        return xcur, BrentInfo(iterations, calls)
    return xcur


class BracketingError(RuntimeError):
    """No admissible root in the attempted bracket."""


def _exp_capped(t: float) -> float:
    return math.inf if t > 709.0 else math.exp(t)


def classical_r(x: float) -> float:
    """(x - sqrt(x^2 - 4)) / 2 in cancellation-free form; needs x >= 2."""
    if math.isnan(x):
        raise ValueError("x must be a number, got nan")
    if x < 2.0:
        raise BracketingError(f"the classical branch needs x >= 2, got {x}")
    return 2.0 / (x + math.sqrt(x * x - 4.0))


def _edge_t(rho: float) -> float:  # t_+, the root > 0 of t^2 - rho t - 1
    return (rho + math.sqrt(rho * rho + 4.0)) / 2.0


def support_edges(qp: QParam) -> tuple[float, float]:
    """The support edges (u_-, u_+): the double roots F = F_w = 0 of
    F(w) = w (1 - q^u e^(alpha w)) - (1 - q), alpha = rho^2 / (1 - q).

    With alpha w = rho t these read t^2 - rho t - 1 = 0, so t_- = -1/t_+,
    and u = t + ln(1 + rho t) / rho (2 t at rho = 0, so -2 and 2 at
    q = 1), free of cancellation for every q; R = t / c at the edge.
    """
    rho = qp.log_inv
    t_plus = _edge_t(rho)

    def edge(t: float) -> float:
        return t + (math.log1p(rho * t) / rho if rho else t)

    return edge(-1.0 / t_plus), edge(t_plus)


def solve_r_omega(x: float, qp: QParam) -> float:
    """Root of R (1 - q^(x - c R)) = (1 - q) on the physical branch.

    The defect g(r) = r (1 - q^(x - c r)) - (1 - q) is concave with
    g(0) < 0, so its first root is the physical one, and (1 - q)/2 lies
    below it.  The bracket's right end is 3 (1 - q) if g is positive
    there, as far above the support, and otherwise t_+/c, R's value at
    the right edge u_+ (:func:`support_edges`): g(t_+/c) rises with x
    and vanishes at u_+, and above the edge the root lies below t_+/c,
    itself below the hump of g.  One :func:`brentq` solve per root.
    Where g(t_+/c) rounds to zero or below although x >= u_+, the root
    is the edge's double root to rounding, and t_+/c is returned.
    Raises BracketingError (reporting the attempted bracket) when x is
    below u_+, and ValueError when x is NaN.
    """
    if math.isnan(x):
        raise ValueError("x must be a number, got nan")
    if qp.is_classical:
        return classical_r(x)
    q = qp.q
    rho = qp.log_inv
    one_minus_q = 1.0 - q
    alpha = rho * rho / one_minus_q
    log_z = -x * rho

    def defect(r: float) -> float:
        # 1 - q^(x - c r) through expm1, without the cancellation of
        # 1 - exp near q = 1; -inf where the power leaves the double range
        t = log_z + alpha * r
        return r * (-math.inf if t > 709.0 else -math.expm1(t)) - one_minus_q

    lo = one_minus_q / 2.0
    hi = 3.0 * one_minus_q
    if defect(hi) <= 0.0:
        hi = _edge_t(rho) / qp.c
        if defect(hi) <= 0.0:
            u_plus = support_edges(qp)[1]
            if x >= u_plus:  # the double root, rounded onto the edge
                return hi
            raise BracketingError(
                f"no root for x = {x} at q = {q}, below the edge "
                f"u_+ = {u_plus}; the defect is not positive on the "
                f"bracket [{lo}, {hi}]"
            )
    return brentq(defect, lo, hi, xtol=1e-15 * one_minus_q)


def _series_by_recursion(qp: QParam, n_max: int) -> list[float]:
    # coefficient recursion for h = z (1 + h) exp(rho^2 (1 + h)); every
    # term is positive, so a coefficient past the double range is inf or nan
    rho2 = qp.log_inv**2
    lead = _exp_capped(rho2)
    h = [0.0] * (n_max + 1)
    exp_part = [1.0] + [0.0] * n_max  # series of exp(rho^2 h(z))
    for n in range(1, n_max + 1):
        h[n] = lead * (
            exp_part[n - 1]
            + _fsum(h[i] * exp_part[n - 1 - i] for i in range(1, n))
        )
        if not math.isfinite(h[n]):
            raise MomentOverflowError(
                f"limiting moment h_{n} at q = {qp.q} exceeds the floating-point range"
            )
        exp_part[n] = rho2 / n * _fsum(
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

