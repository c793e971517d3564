"""Reference routes that only the tests use.

Each is an independent route to a quantity the package computes, or an
identity the paper rests on: exact partial-fraction weights, hook
data cell by cell, the partitions of a level listed one by one and the
measure and hook identity summed shape by shape over them, a sample drawn from those
lists, the Young lattice's covering relations, the exact harmonic function, tableau
enumeration and its major index, an exact sampler of the q-Plancherel
measure (RSK of geometric words), the moment flow's polynomials by a
recursion on the prefixes of the initial vector, the classical limit
R-function in closed form, and the self-similar form of the limit
R-function.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import cache

import numpy as np

from qplancherel import (
    InterlacingDiagram,
    Partition,
    QParam,
    StandardTableau,
    hook_data,
    poincare_polynomial,
    solve_r_omega,
)
from qplancherel.diagrams import HookData
from qplancherel.qmeasure import polynomial_bracket
from qplancherel.rsk import maj_distribution, rsk_shape


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


def removable_rows(lam: Partition) -> list[int]:
    """1-based rows where a box may be removed, bottom row first."""
    return [
        i
        for i in range(lam.length, 0, -1)
        if i == lam.length or lam.parts[i - 1] > lam.parts[i]
    ]


def remove_box(lam: Partition, k: int) -> Partition:
    """Remove the box at the k-th removable corner (0-based, content order)."""
    row = removable_rows(lam)[k]
    parts = list(lam.parts)
    parts[row - 1] -= 1
    if parts[row - 1] == 0:
        parts.pop()
    return Partition(tuple(parts))


def successors(lam: Partition) -> list[Partition]:
    """Partitions covering ``lam`` in the Young lattice."""
    return [lam.add_box(k) for k in range(len(lam.addable_rows()))]


def level_partitions(n: int) -> list[Partition]:
    """The partitions of n in decreasing lexicographic order, one by one."""
    out = []

    def gen(remaining: int, largest: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(Partition(prefix))
        for part in range(min(remaining, largest), 0, -1):
            gen(remaining - part, part, prefix + (part,))

    gen(n, n, ())
    return out


@cache
def hook_data_by_cells(lam: Partition) -> HookData:
    """``hook_data`` by a loop over the cells, row by row."""
    conj = lam.conjugate().parts
    hooks = []
    for i, row_len in enumerate(lam.parts):
        for j in range(row_len):
            hooks.append(row_len - j + conj[j] - i - 1)
    b_stat = sum(i * p for i, p in enumerate(lam.parts))
    prod = math.prod(hooks)
    fact = math.factorial(lam.size)
    assert fact % prod == 0
    return HookData(tuple(hooks), b_stat, fact // prod)


def shape_weight(lam: Partition, qp: QParam) -> float:
    """``q_measure`` of one shape: dim * q^b / prod [h]_q, hook by hook.

    The same operations in the same order as the package's route, so
    the bits agree: the quotient q^b / prod [h]_q, then dim times it
    while it is a normal double, or the product in log space below that.
    """
    data = hook_data_by_cells(lam)
    brackets = [qp.bracket(h) for h in data.hooks]
    value = qp.q**data.b_stat
    for bracket in brackets:
        value /= bracket
    if value >= sys.float_info.min:
        return data.dim * value
    return math.exp(
        math.log(data.dim)
        - data.b_stat * qp.log_inv
        - math.fsum(math.log(bracket) for bracket in brackets)
    )


def level_weights_by_shape(n: int, qp: QParam) -> list[float]:
    """``shape_weight`` of each partition of n, in level order."""
    return [shape_weight(lam, qp) for lam in level_partitions(n)]


def hook_identity_residual_by_shape(n: int, qp: QParam) -> float:
    """The hook identity's residual from the level's measure, shape by shape."""
    return (math.fsum(level_weights_by_shape(n, qp)) - 1.0) * qp.one_minus_q**-n


def random_partitions_by_level(
    count: int, max_boxes: int, seed: int
) -> list[Partition]:
    """``checks.random_partitions`` by listing each drawn level and indexing it."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    out = []
    for _ in range(count):
        level = level_partitions(int(rng.integers(1, max_boxes + 1)))
        out.append(level[int(rng.integers(0, len(level)))])
    return out


def predecessors(lam: Partition) -> list[Partition]:
    """Partitions covered by ``lam`` in the Young lattice."""
    return [remove_box(lam, k) for k in range(len(removable_rows(lam)))]


def harmonic(lam: Partition, q) -> Fraction:
    """The harmonic function phi_q = q^b / prod_u [h(u)]_q, exactly.

    ``q`` is any number in (0, 1], taken as the exact rational it
    stores; the brackets are the polynomial ones, so q = 1 gives the
    classical dim / n!.  The measure is dim times this.
    """
    qf = Fraction(q)
    data = hook_data(lam)
    value = qf**data.b_stat
    for h in data.hooks:
        value /= polynomial_bracket(h, qf)
    return value


def inverse(perm: tuple[int, ...]) -> tuple[int, ...]:
    """The inverse permutation."""
    if sorted(perm) != list(range(1, len(perm) + 1)):
        raise ValueError(f"not a permutation of 1..{len(perm)}: {perm}")
    inv = [0] * len(perm)
    for i, v in enumerate(perm):
        inv[v - 1] = i + 1
    return tuple(inv)


def descent_set_tableau(tableau: StandardTableau) -> frozenset[int]:
    """Entries i whose successor i + 1 sits in a strictly lower row."""
    row = {v: i for i, r in enumerate(tableau.rows) for v in r}
    return frozenset(i for i in range(1, tableau.size) if row[i + 1] > row[i])


def maj_tableau(tableau: StandardTableau) -> int:
    """The major index of a standard tableau, summed over its descents."""
    return sum(descent_set_tableau(tableau))


def standard_tableaux(shape: Partition):
    """Yield every standard tableau of ``shape`` (exponentially many)."""
    n = shape.size
    parts = shape.parts
    rows: list[list[int]] = [[] for _ in parts]

    def fill(entry: int):
        if entry > n:
            yield StandardTableau(tuple(tuple(r) for r in rows))
            return
        for i in range(len(parts)):
            j = len(rows[i])
            if j >= parts[i]:
                continue
            if i > 0 and len(rows[i - 1]) <= j:
                continue
            rows[i].append(entry)
            yield from fill(entry + 1)
            rows[i].pop()

    yield from fill(1)


def tableau_genfun_check(shape: Partition, qp_or_q):
    """sum_T q^MAJ(T) over standard tableaux minus its hook-product form.

    The sum is read off ``maj_distribution``, whose counts are dim(shape)
    times the tableau counts.  The closed form is
    q^b(shape) * [n]_q! / prod_u [h(u)]_q in polynomial brackets, for q
    in (0, 1]; at q = 1 both sides are dim(shape).  Returns the
    difference, which vanishes up to rounding; passing a Fraction keeps
    the arithmetic exact and the result is exactly zero.
    """
    q = getattr(qp_or_q, "q", qp_or_q)
    if not (0 < q <= 1):
        raise ValueError(f"q must lie in (0, 1], got {q}")
    n = shape.size
    data = hook_data(shape)
    terms = [(c // data.dim) * q**m for m, c in maj_distribution(n)[shape]]
    lhs = sum(terms) if isinstance(q, Fraction) else math.fsum(terms)
    rhs = q**data.b_stat * poincare_polynomial(n, q)
    for h in data.hooks:
        rhs /= polynomial_bracket(h, q)
    return lhs - rhs


def geometric_word_shape(n: int, q: float, rng: np.random.Generator) -> Partition:
    """RSK shape of n i.i.d. letters with P(k) proportional to q^k.

    The shape's law is (1 - q)^n f^lambda s_lambda(1, q, q^2, ...), which
    the principal specialization (Stanley, EC2, Cor. 7.21.3) makes
    f^lambda q^b(lambda) / prod [h]_q, the measure of ``q_measure``.
    Equal letters are standardized left to right, which keeps the shape;
    at q = 1 the word is a uniform permutation.
    """
    if q == 1.0:
        perm = rng.permutation(n) + 1
    else:
        perm = np.empty(n, dtype=np.int64)
        perm[np.argsort(rng.geometric(1.0 - q, n), kind="stable")] = np.arange(1, n + 1)
    return rsk_shape(tuple(perm.tolist()))[0].shape


def _poly_mul(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@cache
def reduced_flow(y0: tuple[float, ...]) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Exact (P_n, H_n), n = len(y0), of the moment flow from y0, ascending in sigma.

    P_n' = n sum_{k<n} P_k H_{n-k} with P_n(0) = y0_n, and the Newton
    recursion n H_n = P_n + sum_{k<n} P_k H_{n-k}.  P_k and H_k depend
    on y0_1..y0_k only, so the recursion runs on the prefixes of y0.
    """
    n = len(y0)
    slope = [Fraction(0)] * (n - 1)
    for k in range(1, n):
        product = _poly_mul(reduced_flow(y0[:k])[0], reduced_flow(y0[: n - k])[1])
        for i, c in enumerate(product):
            slope[i] += n * c
    p = (Fraction(y0[-1]),) + tuple(c / (i + 1) for i, c in enumerate(slope))
    h = tuple((p[i] + slope[i] / n) / n for i in range(n - 1)) + (p[-1] / n,)
    return p, h


def prefix_flow_coefficients(y0: tuple[float, ...]) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Float coefficients of P_n and of n P_n + P_n', n = len(y0), from :func:`reduced_flow`."""
    n = len(y0)
    p = reduced_flow(y0)[0]
    slope = [n * c for c in p]
    for i in range(1, n):
        slope[i - 1] += i * p[i]
    return tuple(float(c) for c in p), tuple(float(c) for c in slope)


def classical_r(x: float) -> float:
    """Kerov's R-function at q = 1: the small root of R (x - R) = 1, x >= 2.

    (x - sqrt(x^2 - 4)) / 2 in cancellation-free form, 2 / (x +
    sqrt(x - 2) sqrt(x + 2)), taken at x / 2 so that no intermediate
    overflows up to the top of the double range; 0 at x = inf.
    """
    h = x / 2.0
    return 1.0 / (h + math.sqrt(h - 1.0) * math.sqrt(h + 1.0))


def _r_scaled(u: float, rho: float) -> float:
    # the limit R-function at Q = e^(-rho), rescaled to r = rho R / (1 - Q)
    qp = QParam(math.exp(-rho))
    return rho * solve_r_omega(u, qp) / (1.0 - qp.q)


def automodel_residual(u: float, rho: float) -> float:
    """Defect of the self-similar implicit form at scale rho.

    Solves the limit equation at parameter Q = e^(-rho), rescales to
    r = rho R / (1 - Q), and returns |r (1 - e^(-rho (u - r))) - rho|.
    """
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    r = _r_scaled(u, rho)
    return abs(r * -math.expm1(-rho * (u - r)) - rho)


def automodel_pde_residual(u: float, rho: float) -> float:
    """Central-difference defect of 2 r r_u - u r_u + rho r_rho - r = 0."""
    step = 1e-4
    r = _r_scaled(u, rho)
    r_u = (_r_scaled(u + step, rho) - _r_scaled(u - step, rho)) / (2 * step)
    r_rho = (_r_scaled(u, rho + step) - _r_scaled(u, rho - step)) / (2 * step)
    return abs(2.0 * r * r_u - u * r_u + rho * r_rho - r)
