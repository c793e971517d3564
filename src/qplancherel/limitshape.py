"""The limiting R-function: implicit equation, root solver, series moments.

The rescaled growth process has a deterministic limit profile whose
R-function R(x; q) solves the implicit equation

    R * (1 - q^(x - c R)) = 1 - q,        c = ln(1/q) / (1 - q),

on the branch with R -> 1 - q as x -> +infinity.  Divided by 1 - q it
reads R [x - c R]_q = 1 in the q-bracket of :class:`QParam`, one
equation for every q in (0, 1]: at q = 1, where c = 1, it is the
classical R (x - R) = 1.  The support of the limit shape ends at the
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
# Past (x - t_+) rho = 38, q^(x - c R) < e^-38 < 2^-54 and R rounds to 1 - q.
_FAR_FIELD_EXPONENT = 38.0


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
    """Root of R [x - c R]_q = 1 on the physical branch, for q in (0, 1].

    The defect g(r) = r [x - c r]_q - 1 is concave in r > 0 with
    g(0) = -1, so its first root is the physical one.  It lies above
    1/[x]_q, and at or below t_+/c, R's value at the right edge u_+
    (:func:`support_edges`), so x - c r stays positive on the bracket
    and [x - c r]_q cannot overflow.  One :func:`brentq` solve per root.
    Where g(t_+/c) rounds to zero or below, the root is the edge's
    double root to rounding, and t_+/c is returned.  Where
    q^(x - t_+) < e^-38, below a quarter ulp of 1, and at x = inf the
    value is 1 - q.  Raises BracketingError (reporting the bracket on
    which g is negative) when x is below u_+, and ValueError when x is
    NaN.
    """
    if math.isnan(x):
        raise ValueError("x must be a number, got nan")
    rho = qp.log_inv
    t_plus = _edge_t(rho)
    # the limit (at q = 1, lo = 1/[x]_q = 0 brackets nothing), and the far
    # field, where c r <= t_+ leaves R = (1 - q) / (1 - q^(x - c r)) at 1 - q
    if x == math.inf or (x - t_plus) * rho >= _FAR_FIELD_EXPONENT:
        return qp.one_minus_q
    hi = t_plus / qp.c
    u_plus = support_edges(qp)[1]
    if x < u_plus:
        raise BracketingError(
            f"no root for x = {x} at q = {qp.q}, below the edge "
            f"u_+ = {u_plus}; the defect is negative on the "
            f"bracket [0.0, {hi}]"
        )

    bracket, c = qp.bracket, qp.c

    def defect(r: float) -> float:
        return r * bracket(x - c * r) - 1.0

    if defect(hi) <= 0.0:  # the double root, rounded onto the edge
        return hi
    lo = 1.0 / bracket(x)
    return brentq(defect, lo, hi, xtol=1e-15 * lo)


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

