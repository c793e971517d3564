"""Reference routes that only the tests use."""

from __future__ import annotations

from fractions import Fraction

from qplancherel import InterlacingDiagram, QParam


def above_support_weights(w: InterlacingDiagram, qp: QParam) -> tuple[float, ...]:
    """Transition weights from the partial-fraction identity above the support.

    The identity sum_k mu_k / [x - x_k]_q = prod [x - y_j]_q / prod [x - x_k]_q
    is evaluated at the m + 1 integer points support_max + 2, ...,
    support_max + m + 2 and the square system solved for the residues in
    rational arithmetic, each weight rounded once.  Needs integer corners.
    """
    minima = [int(v) for v in w.minima]
    maxima = [int(v) for v in w.maxima]
    qf = Fraction(qp.q)

    # (1 - q) [d]_q, or d at q = 1; the common factor (1 - q) cancels
    def scaled_bracket(d: int) -> Fraction:
        return Fraction(d) if qp.is_classical else 1 - qf**d

    n = len(minima)
    top = minima[-1]
    rows = []
    for g in range(top + 2, top + n + 2):
        rhs = Fraction(1)
        for yj in maxima:
            rhs *= scaled_bracket(g - yj)
        for xk in minima:
            rhs /= scaled_bracket(g - xk)
        rows.append([1 / scaled_bracket(g - xk) for xk in minima] + [rhs])
    for col in range(n):
        pivot = next(i for i in range(col, n) if rows[i][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for i in range(col + 1, n):
            factor = rows[i][col] / rows[col][col]
            for j in range(col, n + 1):
                rows[i][j] -= factor * rows[col][j]
    solution = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = rows[i][n]
        for j in range(i + 1, n):
            acc -= rows[i][j] * solution[j]
        solution[i] = acc / rows[i][i]
    return tuple(float(v) for v in solution)
