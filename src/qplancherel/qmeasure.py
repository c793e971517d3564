"""The q-deformed Plancherel measure and its hook identity.

Every formula is written in the q-bracket [d]_q = (1 - q^d) / (1 - q),
which tends to d as q -> 1, so the classical case q = 1 is the same
formula at its limit.  The measure of a partition of n is

    M_q(lam) = dim(lam) * q^(b(lam)) / prod_u [h(u)]_q,

with the product over the hook lengths h(u) of lam and
b(lam) = sum_i (i - 1) * lam_i; at q = 1 it is the Plancherel weight
dim(lam) / prod_u h(u) = dim(lam)^2 / n!.  Normalization of M_q over a
level is equivalent to the hook identity

    sum_{|lam| = n} q^(b(lam)) dim(lam) / prod_u (1 - q^(h(u))) = (1 - q)^(-n).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .diagrams import Partition, _level_table, hook_data


class MomentOverflowError(OverflowError):
    """A requested q-moment or normalisation exceeds the floating-point range."""


@dataclass(frozen=True)
class QParam:
    """Deformation parameter q in (0, 1], with q = 1 the classical case.

    ``log_inv`` is ln(1/q), zero only in the classical case;
    ``one_minus_q`` is 1 - q, derived from it so that [1]_q is exactly 1;
    ``c`` is ln(1/q) / (1 - q), which tends to 1 as q -> 1.
    """

    q: float
    log_inv: float = field(init=False, repr=False, compare=False)
    one_minus_q: float = field(init=False, repr=False, compare=False)
    c: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        q = float(self.q)
        object.__setattr__(self, "q", q)
        if not (0.0 < q <= 1.0) or not math.isfinite(q):
            raise ValueError(f"q must lie in (0, 1], got {self.q}")
        # -log(1.0) is -0.0; the classical case carries +0.0 in both fields
        rho = -math.log(q) if q < 1.0 else 0.0
        one_minus_q = -math.expm1(-rho)
        object.__setattr__(self, "log_inv", rho)
        object.__setattr__(self, "one_minus_q", one_minus_q)
        object.__setattr__(self, "c", rho / one_minus_q if q < 1.0 else 1.0)

    @property
    def is_classical(self) -> bool:
        return self.q == 1.0

    def bracket(self, d):
        """[d]_q = (1 - q^d) / (1 - q) for d of either sign; d at q = 1.

        ``d`` is a number or an ndarray, taken elementwise.  Either goes
        through ``math.expm1``, so an array bracket is the scalar bracket
        bit for bit; one beyond the double range raises MomentOverflowError,
        which names the array's first such element.
        """
        if self.is_classical:
            return d
        try:
            if isinstance(d, np.ndarray):
                return -_libm(math.expm1, -d * self.log_inv) / self.one_minus_q
            return -math.expm1(-d * self.log_inv) / self.one_minus_q
        except OverflowError:
            if isinstance(d, np.ndarray):
                # the scalar route names the first element past the range
                _libm(self.bracket, d)
            raise MomentOverflowError(
                f"[{d}]_q at q = {self.q} exceeds the floating-point range"
            ) from None


def _libm(f, a: np.ndarray) -> np.ndarray:
    # libm's f of each element, as a scalar call takes it: numpy's own
    # transcendentals may run SIMD code whose last bits depend on the CPU
    flat = a.ravel().tolist()
    return np.fromiter(map(f, flat), float, len(flat)).reshape(a.shape)


def polynomial_bracket(k: int, q):
    """[k]_q = 1 + q + ... + q^(k-1), in the arithmetic of q; k at q = 1."""
    return sum(q**i for i in range(k))


def _bracket_table(n: int, qp: QParam) -> list[float]:
    # [0]_q .. [n]_q: every hook bracket of a level-n shape, and every
    # corner distance of a shape of fewer than n boxes
    return qp.bracket(np.arange(n + 1.0)).tolist()


def _weights(hooks: np.ndarray, b_stat: list[int], dim: list, qp: QParam) -> list:
    # dim * q^b / prod [h]_q of each shape, from hook columns (row k of
    # ``hooks`` holds every shape's k-th hook) and each shape's b and dim
    # (an exact int or its double).  Every [h]_q is at least 1, so the
    # running quotient only falls: while it ends in the normal range, dim
    # times it is accurate to rounding (a dim past the double range never
    # gets there), and below it in log space, where dim can lift it back.
    # The divisions run row by row, in hook order, each row read in place
    # (IEEE division is correctly rounded in numpy as in Python)
    table = _bracket_table(int(hooks.max(initial=0)), qp)
    brackets = np.array(table)
    value = np.array([qp.q**b for b in b_stat])
    for column in hooks:
        value /= brackets.take(column)
    tiny = sys.float_info.min
    weights = [d * v if v >= tiny else 0.0 for d, v in zip(dim, value.tolist())]
    for r in np.flatnonzero(~(value >= tiny)).tolist():
        weights[r] = _log_weight(dim[r], b_stat[r], hooks[:, r].tolist(), qp, table)
    return weights


def _log_weight(dim, b_stat: int, hooks, qp: QParam, table: list[float]) -> float:
    # the weight of _weights in log space; dim is an int or its double,
    # which math.log reads alike, and an int past the double range too
    return math.exp(
        math.log(dim)
        - b_stat * qp.log_inv
        - math.fsum(math.log(table[h]) for h in hooks)
    )


def _level_weights(n: int, qp: QParam) -> np.ndarray:
    # q_measure of every shape of level n, in enumerate_level's order
    level = _level_table(n)
    return np.array(_weights(level.hooks, level.b_stat.tolist(), level.dim.tolist(), qp))


def q_measure(partition: Partition, qp: QParam) -> float:
    """Probability of ``partition`` under the level-n deformed measure."""
    data = hook_data(partition)
    hooks = np.array([data.hooks], dtype=np.intp).T
    return _weights(hooks, [data.b_stat], [data.dim], qp)[0]


def q_measure_exact(partition: Partition, q: Fraction) -> Fraction:
    """The same measure in exact rational arithmetic, for rational q in (0, 1].

    Each [h]_q is the polynomial bracket, so q = 1 gives dim^2 / n!.
    """
    if not (0 < q <= 1):
        raise ValueError(f"exact evaluation needs q in (0, 1], got {q}")
    data = hook_data(partition)
    value = Fraction(data.dim) * q**data.b_stat
    for h in data.hooks:
        value /= polynomial_bracket(h, q)
    return value


def hook_identity_residual(n: int, qp: QParam) -> float:
    """sum_{|lam|=n} q^b(lam) dim(lam) / prod (1 - q^h) minus (1 - q)^(-n).

    Vanishes identically in exact arithmetic; callers compare the
    returned difference against (1 - q)^(-n) for a relative check.  The
    sum is taken as (1 - q)^(-n) times the level's total measure; where
    (1 - q)^(-n) leaves the double range this raises MomentOverflowError.
    """
    if qp.is_classical:
        raise ValueError("hook identity requires q in (0, 1)")
    try:
        scale = qp.one_minus_q**-n
    except OverflowError:
        raise MomentOverflowError(
            f"(1 - q)^(-{n}) at q = {qp.q} exceeds the floating-point range"
        ) from None
    return (math.fsum(_level_weights(n, qp).tolist()) - 1.0) * scale
