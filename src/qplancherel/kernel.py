"""Transition kernel of the deformed growth process on the Young lattice.

A diagram with interlacing minima x_1 < y_1 < ... < y_m < x_{m+1} grows
by one box at a minimum.  In the q-bracket [d]_q = (1 - q^d) / (1 - q),
which tends to d as q -> 1, the probability of growing at x_k is

    mu_k = prod_{i<k} [x_k - y_i]_q / [x_k - x_i]_q
         * prod_{i>k} [x_k - y_{i-1}]_q / [x_k - x_i]_q

for every q in (0, 1]; at q = 1 it is the classical residue form
prod_i (x_k - y_i) / prod_{i != k} (x_k - x_i).  For i > k both
arguments are negative, and [-d]_q = -q^(-d) [d]_q folds each such
pair of signs into a power of q:

    mu_k = q^(E_k) prod_{i != k} [|x_k - y|]_q / [|x_k - x_i|]_q,
    E_k  = sum_{i>k} (x_i - y_{i-1}),

with y the maximum paired with x_i above (y_i left of x_k, y_{i-1}
right of it).  Every bracket now has a positive argument, the bracket
grows with it and |x_k - y| < |x_k - x_i|, so each ratio lies in (0, 1)
and q^(E_k) <= 1: the product cannot overflow, where brackets of
negative arguments grow like q^(-d) and leave the double range at small
q.  The same numbers are the unique solution of the partial-fraction
identity

    sum_k mu_k / [x - x_k]_q = prod_i [x - y_i]_q / prod_i [x - x_i]_q,

whose right-hand side vanishes at each maximum y_j and whose x -> oo
limit gives sum_k mu_k = 1.  :func:`partial_fraction_weights` solves
these m + 1 equations exactly: an oracle independent of the product
formula.  With q = a / b exactly as its double has it, each entry is a
coprime integer pair, the elimination runs on such pairs in
cross-cancelled rational arithmetic (Knuth, TAOCP vol. 2, 4.5.1), which
keeps every value in lowest terms, and each weight is rounded once, by
Python's correctly rounded int true division.

:func:`grow_trajectory` is the reference chain that the fast corner walk
of :mod:`growth` is checked against.  It draws its uniforms in one block,
keeps the corners and their rows between steps, updating them by the
walk's stencil, and reads its brackets from one table per chain; the
product formula itself runs on the code path of
:func:`transition_weights`, so the chain's weights keep every bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import numpy.random  # loaded here, not lazily by the first seeded generator

from .diagrams import InterlacingDiagram, Partition
from .qmeasure import QParam


class SingularSystemError(RuntimeError):
    """Raised when the partial-fraction linear system cannot be solved."""


def transition_weights(w: InterlacingDiagram, qp: QParam) -> tuple[float, ...]:
    """Growth probabilities over the minima of ``w``, in minima order.

    Positive with sum 1 up to rounding; returned unnormalized, exactly
    as the products evaluate.  One array evaluation of the sign-folded
    form of the module docstring: factor j of mu_k pairs y_j with x_j
    left of x_k (j < k) and with x_{j+1} right of it (j >= k).  Each
    factor is a ratio of brackets of positive distances, below 1, and
    q^(E_k) is one power of q, at most 1, so nothing can overflow at any
    q in (0, 1] or any real corners; the power underflows to 0 only
    where mu_k itself is below the double range.
    """
    m = len(w.minima)
    xy = np.array(w.minima + w.maxima, dtype=float)
    # one bracket call on the contiguous m x (2m - 1) matrix |x_k - [x | y]|.
    # Each ufunc keeps its input's memory layout: numpy may run SIMD code
    # for contiguous float64 expm1 and power, whose last bits differ from
    # the strided (libm) path, and tests pin these weights' bits
    return _product_weights(qp.bracket(np.abs(xy[:m, None] - xy)), xy, qp.q)


def _product_weights(
    brackets: np.ndarray, xy: np.ndarray, q: float
) -> tuple[float, ...]:
    # the product formula from the m x (2m - 1) bracket matrix
    # |x_k - [x | y]| and the corners xy = [x | y], as ints or floats: the
    # gaps below are exact either way.  The one code path of
    # transition_weights and of the reference chain
    m = len(brackets)
    to_y, to_x = _factor_index(m)
    ratios = brackets.take(to_y) / brackets.take(to_x)
    # E_k: the gaps x_{j+1} - y_j summed over j >= k, and E_m = 0
    gaps = np.zeros(m)
    gaps[:-1] = xy[1:m] - xy[m:]
    # q**folded runs on the reversed (strided) view: on a contiguous copy
    # numpy may take its SIMD power, whose last bits differ
    folded = gaps[::-1].cumsum()[::-1]
    return tuple((q**folded * ratios.prod(axis=1)).tolist())


# a chain's corner count moves by at most one per box, so a few recent m
# cover it; the arrays hold 2 m (m - 1) indices
@functools.lru_cache(maxsize=32)
def _factor_index(m: int) -> tuple[np.ndarray, np.ndarray]:
    # flat positions in the m x (2m - 1) matrix |x_k - [x | y]| of factor
    # j of mu_k: y_j in column m + j, and x_j (j < k) or x_{j+1} (j >= k)
    k, j = np.indices((m, m - 1))
    row = k * (2 * m - 1)
    to_y, to_x = row + m + j, row + j + (j >= k)
    # every caller shares the cached arrays
    to_y.flags.writeable = to_x.flags.writeable = False
    return to_y, to_x


def _mul(a, b):
    # a * b of two reduced pairs (numerator, positive denominator), each
    # numerator cross-cancelled against the other denominator so that the
    # product is reduced without a gcd of the product (Knuth, TAOCP 4.5.1)
    an, ad = a
    bn, bd = b
    g = math.gcd(an, bd)
    if g > 1:
        an //= g
        bd //= g
    g = math.gcd(bn, ad)
    if g > 1:
        bn //= g
        ad //= g
    return an * bn, ad * bd


def _sub(a, b):
    # a - b of two reduced pairs, reduced: with g = gcd(ad, bd) only the
    # numerator's gcd with g can remain (Knuth, TAOCP 4.5.1)
    an, ad = a
    bn, bd = b
    g = math.gcd(ad, bd)
    if g == 1:
        return an * bd - ad * bn, ad * bd
    s = ad // g
    t = an * (bd // g) - bn * s
    g2 = math.gcd(t, g)
    if g2 == 1:
        return t, s * bd
    return t // g2, s * (bd // g2)


def _inverse(a):
    # 1 / a of a reduced nonzero pair, the sign moved to the numerator
    n, d = a
    return (d, n) if n > 0 else (-d, -n)


def partial_fraction_weights(w: InterlacingDiagram, qp: QParam) -> tuple[float, ...]:
    """Weights recovered from the partial-fraction identity by an exact solve.

    Independent of the product formula: at each maximum y_j the identity's
    right-hand side vanishes, so sum_k mu_k / [y_j - x_k]_q = 0 for the m
    maxima, and sum_k mu_k = 1 fixes the scale.  With q = a / b exactly
    (b a power of two, a odd), each entry 1 / (1 - q^d), which is
    1 / [d]_q up to the common factor 1 - q, is the coprime integer pair
    b^d / (b^d - a^d) for d > 0 and -a^k / (b^k - a^k) for d = -k < 0,
    and 1 / d at q = 1.  The m x (m + 1) system is eliminated on such
    pairs in cross-cancelled rational arithmetic, so every intermediate
    value stays in lowest terms; its kernel vector is normalized and each
    weight rounded once, by int true division, which is correctly
    rounded.  Requires integer corner coordinates, as a partition's
    profile has; any other diagram raises ValueError.
    """
    if any(v != int(v) for v in w.minima + w.maxima):
        raise ValueError("the exact solve needs integer corner coordinates")
    minima = [int(v) for v in w.minima]
    maxima = [int(v) for v in w.maxima]
    # d = y_j - x_k is a nonzero integer of either sign
    a, b = qp.q.as_integer_ratio()

    def entry(d: int) -> tuple[int, int]:
        if qp.is_classical:
            return (1, d) if d > 0 else (-1, -d)
        if d > 0:
            power = b**d
            return power, power - a**d
        power = a**-d
        return -power, b**-d - power

    entries = {d: entry(d) for d in {y - x for y in maxima for x in minima}}
    m = len(maxima)
    rows = [[entries[y - x] for x in minima] for y in maxima]
    for col in range(m):
        pivot = next((i for i in range(col, m) if rows[i][col][0]), None)
        if pivot is None:
            raise SingularSystemError("exact partial-fraction system is singular")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col]
        inverse = _inverse(top[col])
        for row in rows[col + 1 :]:
            factor = _mul(row[col], inverse)
            # column col of the rows below is never read again
            if factor[0]:
                for j in range(col + 1, m + 1):
                    row[j] = _sub(row[j], _mul(factor, top[j]))
    # the kernel vector with mu_{m+1} = 1, then normalized to sum 1
    solution = [(0, 1)] * m + [(1, 1)]
    for i in range(m - 1, -1, -1):
        row = rows[i]
        acc = (-row[m][0], row[m][1])
        for j in range(i + 1, m):
            acc = _sub(acc, _mul(row[j], solution[j]))
        solution[i] = _mul(acc, _inverse(row[i]))
    total = (0, 1)
    for n, d in solution:
        total = _sub(total, (-n, d))
    tn, td = total
    return tuple((n * td) / (d * tn) for n, d in solution)


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

    @property
    def final(self) -> Partition:
        return self.states[-1]


def grow_trajectory(
    n_boxes: int, qp: QParam, seed: int, stream: int = 0
) -> GrowthTrajectory:
    """Sample one trajectory of ``n_boxes`` steps from the empty diagram.

    One uniform variate is consumed per step (also on the forced first
    step), drawn in one block: PCG64 gives the same doubles to one
    ``random(n)`` call as to n scalar calls, so trajectories of different
    lengths share their prefix stream for a given (seed, stream).

    The corners are kept between steps: growing at the minimum c in row
    r makes c a maximum; c - 1 becomes a minimum in row r + 1 unless it
    was a maximum, which then goes, and c + 1 a minimum in row r on the
    same rule.  Each step looks its brackets up in one table of [|d|]_q,
    indexed by the integer matrix d = x_k - [x | y]: a shape of
    t < n_boxes boxes has no corner distance above
    lambda_1 + l(lambda) <= t + 1.  The table is bracketed as one
    contiguous float array, as the matrix of :func:`transition_weights`
    is, so numpy takes the same expm1 path on both, and the weights, and
    so the shapes, are bit for bit those of
    ``transition_weights(to_interlacing(state), qp)``.
    """
    if n_boxes < 0:
        raise ValueError(f"n_boxes must be nonnegative, got {n_boxes}")
    uniforms = trajectory_rng(seed, stream).random(n_boxes).tolist()
    # table[d] = [|d|]_q for d in -n_boxes..n_boxes, the negative d by
    # Python's indexing from the end
    table = qp.bracket(
        np.concatenate([np.arange(n_boxes + 1.0), np.arange(n_boxes, 0.0, -1.0)])
    )
    parts: list[int] = []
    # minima and maxima ascending, and the 1-based row of each minimum
    minima, maxima, rows = [0], [], [1]
    states = [Partition(())]
    for u in uniforms:
        m = len(minima)
        xy = np.array(minima + maxima)
        brackets = table[xy[:m, None] - xy]
        k = sample_index(_product_weights(brackets, xy, qp.q), u)
        c, r = minima[k], rows[k]
        # c turns into a maximum; each neighbour c -/+ 1 becomes a minimum,
        # in row r + 1 / r, unless it was a maximum, which goes
        left = k == 0 or maxima[k - 1] != c - 1
        right = k == m - 1 or maxima[k] != c + 1
        minima[k : k + 1] = [c - 1] * left + [c + 1] * right
        rows[k : k + 1] = [r + 1] * left + [r] * right
        maxima[k - (not left) : k + (not right)] = [c]
        if r > len(parts):
            parts.append(1)
        else:
            parts[r - 1] += 1
        states.append(Partition(tuple(parts)))
    return GrowthTrajectory(tuple(states))
