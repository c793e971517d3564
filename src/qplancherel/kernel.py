"""Transition kernel of the deformed growth process on the Young lattice.

A diagram with interlacing minima x_1 < y_1 < ... < y_m < x_{m+1} grows
by one box at a minimum.  In the q-bracket [d]_q = (1 - q^d) / (1 - q),
which tends to d as q -> 1, the probability of growing at x_k is

    mu_k = prod_{i<k} [x_k - y_i]_q / [x_k - x_i]_q
         * prod_{i>k} [x_k - y_{i-1}]_q / [x_k - x_i]_q

for every q in (0, 1]; at q = 1 it is the classical residue form
prod_i (x_k - y_i) / prod_{i != k} (x_k - x_i).  The same numbers are
the unique solution of the partial-fraction identity

    sum_k mu_k / [x - x_k]_q = prod_i [x - y_i]_q / prod_i [x - x_i]_q,

which :func:`partial_fraction_weights` exploits as an independent linear
solve on a grid of evaluation points above the support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .diagrams import InterlacingDiagram, Partition, to_interlacing
from .qmeasure import QParam


class SingularSystemError(RuntimeError):
    """Raised when the partial-fraction linear system cannot be solved."""


def transition_weights(w: InterlacingDiagram, qp: QParam) -> tuple[float, ...]:
    """Growth probabilities over the minima of ``w``, in minima order.

    Positive with sum 1 up to rounding; returned unnormalized, exactly
    as the products evaluate.
    """
    x = w.minima
    y = w.maxima
    bracket = qp.bracket
    out = []
    for k, xk in enumerate(x):
        value = 1.0
        for i, xi in enumerate(x):
            if i != k:
                value *= bracket(xk - y[i if i < k else i - 1]) / bracket(xk - xi)
        out.append(value)
    return tuple(out)


def default_oracle_grid(w: InterlacingDiagram) -> tuple[float, ...]:
    """m + 1 equally spaced evaluation points on [max + 2, max + m + 2]."""
    m = len(w.maxima)
    top = w.support_max
    return tuple(float(top + 2 + j) for j in range(m + 1))


def _exact_pf_solve(
    w: InterlacingDiagram, qp: QParam, offsets: list[list[int]]
) -> tuple[float, ...]:
    # Far above the support every kernel column looks like 1 + O(q^x),
    # so the float system loses the weights long before 25 boxes at
    # small q.  Integer exponents admit an exact rational solve, which
    # is what an oracle should be; q is lifted to the Fraction equal to
    # its binary value.
    qf = Fraction(qp.q)

    # (1 - q) [d]_q, or d as a Fraction at q = 1 so that 1 / d stays
    # exact; the common factor (1 - q) cancels from both sides
    def scaled_bracket(d: int) -> Fraction:
        return Fraction(d) if qp.is_classical else 1 - qf**d

    n = len(offsets)
    rows = []
    for g in range(n):
        row = [1 / scaled_bracket(d) for d in offsets[g]]
        rhs = Fraction(1)
        for i in range(len(w.maxima)):
            rhs *= scaled_bracket(offsets[g][i] + int(w.minima[i]) - int(w.maxima[i]))
        for d in offsets[g]:
            rhs /= scaled_bracket(d)
        rows.append(row + [rhs])
    for col in range(n):
        pivot = next(
            (i for i in range(col, n) if rows[i][col] != 0), None
        )
        if pivot is None:
            raise SingularSystemError("exact partial-fraction system is singular")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for i in range(col + 1, n):
            factor = rows[i][col] / rows[col][col]
            if factor:
                for j in range(col, n + 1):
                    rows[i][j] -= factor * rows[col][j]
    solution = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = rows[i][n]
        for j in range(i + 1, n):
            acc -= rows[i][j] * solution[j]
        solution[i] = acc / rows[i][i]
    return tuple(float(v) for v in solution)


def partial_fraction_weights(
    w: InterlacingDiagram,
    qp: QParam,
    x_grid: tuple[float, ...] | None = None,
) -> tuple[float, ...]:
    """Weights recovered from the partial-fraction identity by a linear solve.

    Independent of the product formula: evaluates the right-hand side at
    grid points strictly above support + 1 and solves for the residues.
    When every grid point sits at an integer offset from the minima and
    the grid is square (the default), the solve is exact in rational
    arithmetic, immune to the severe conditioning of the far-field
    kernel matrix at small q.  Other grids use a floating solve;
    over-determined ones in the least-squares sense.
    """
    m = len(w.maxima)
    if x_grid is None:
        x_grid = default_oracle_grid(w)
    grid = np.asarray(x_grid, dtype=float)
    if grid.size < m + 1:
        raise ValueError(f"need at least {m + 1} grid points, got {grid.size}")
    if np.any(grid <= w.support_max + 1):
        raise ValueError("grid points must lie strictly above support + 1")

    integral = all(
        float(v).is_integer()
        for v in (*grid.tolist(), *w.minima, *w.maxima)
    )
    if grid.size == m + 1 and integral:
        offsets = [
            [int(g) - int(xk) for xk in w.minima] for g in grid.tolist()
        ]
        return _exact_pf_solve(w, qp, offsets)

    bracket = qp.bracket
    points = grid.tolist()
    matrix = np.array([[1.0 / bracket(g - xk) for xk in w.minima] for g in points])
    rhs = np.array(
        [
            math.prod(bracket(g - yj) for yj in w.maxima)
            / math.prod(bracket(g - xk) for xk in w.minima)
            for g in points
        ]
    )

    try:
        if grid.size == m + 1:
            solution = np.linalg.solve(matrix, rhs)
        else:
            solution, *_ = np.linalg.lstsq(matrix, rhs, rcond=None)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            f"partial-fraction system is singular on grid {x_grid}"
        ) from exc
    if not np.all(np.isfinite(solution)):
        raise SingularSystemError(
            f"partial-fraction solve produced non-finite weights on grid {x_grid}"
        )
    return tuple(float(v) for v in solution)


def sample_index(weights, u: float) -> int:
    """Inverse-CDF selection: first k whose Kahan running sum reaches u * total.

    Ties resolve to the smaller index.
    """
    total = math.fsum(weights)
    threshold = u * total
    running = 0.0
    compensation = 0.0
    for k, weight in enumerate(weights):
        term = weight - compensation
        candidate = running + term
        compensation = (candidate - running) - term
        running = candidate
        if running >= threshold:
            return k
    return len(weights) - 1


def trajectory_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """The named generator of the package: PCG64 seeded per (seed, stream).

    Streams are spawned through SeedSequence spawn keys, so distinct
    stream ids give independent, reproducible substreams of one seed.
    """
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Generator(np.random.PCG64(seq))


@dataclass(frozen=True)
class GrowthTrajectory:
    """A sampled growth chain empty = states[0] < states[1] < ... ."""

    states: tuple[Partition, ...]
    q: float
    seed: int
    stream: int

    @property
    def final(self) -> Partition:
        return self.states[-1]


def grow_trajectory(
    n_boxes: int, qp: QParam, seed: int, stream: int = 0
) -> GrowthTrajectory:
    """Sample one trajectory of ``n_boxes`` steps from the empty diagram.

    One uniform variate is consumed per step (also on the forced first
    step), so trajectories of different lengths share their prefix
    stream for a given (seed, stream).
    """
    if n_boxes < 0:
        raise ValueError(f"n_boxes must be nonnegative, got {n_boxes}")
    rng = trajectory_rng(seed, stream)
    current = Partition(())
    states = [current]
    for _ in range(n_boxes):
        weights = transition_weights(to_interlacing(current), qp)
        k = sample_index(weights, rng.random())
        current = current.add_box(k)
        states.append(current)
    return GrowthTrajectory(tuple(states), qp.q, seed, stream)
