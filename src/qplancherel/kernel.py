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
formula.  With q = a / b exactly as its double has it, each entry is an
integer pair.  The system is homogeneous, so each row is cleared to
integers by the lcm of its denominators and never divided by its
content: a common factor moves no weight.  The elimination runs on
these integer rows, the back substitution keeps the kernel vector
primitive, and each weight is rounded once, by Python's correctly
rounded int true division.

:func:`grow_trajectory` is the reference chain that the fast corner walk
of :mod:`growth` is checked against.  It draws its uniforms in one block,
keeps the corners and their rows between steps, updating them by the
walk's stencil, and reads its brackets from one table per chain; the
product formula itself runs on the code path of
:func:`transition_weights`, so the chain's weights keep every bit.  A
chain is returned as its row word, the row of each grown box, from
which :class:`GrowthTrajectory` replays the states.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
import numpy.random  # loaded here, not lazily by the first seeded generator

from .diagrams import InterlacingDiagram, Partition
from .qmeasure import QParam, _bracket_table


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
    where mu_k itself is below the double range.  Brackets and powers
    are libm's, so the weights do not depend on the CPU.
    """
    m = len(w.minima)
    xy = np.array(w.minima + w.maxima, dtype=float)
    return _product_weights(qp.bracket(np.abs(xy[:m, None] - xy)), xy, qp.q)


def _product_weights(
    brackets: np.ndarray, xy: np.ndarray, q: float
) -> tuple[float, ...]:
    # the product formula from the m x (2m - 1) bracket matrix
    # |x_k - [x | y]| and the corners xy = [x | y], as ints or floats.
    # The one code path of transition_weights and of the reference chain
    m = len(brackets)
    ratios = brackets[:, m:] / brackets.take(_factor_index(m))
    # q^(E_k) by Python's pow, E_k the gaps x_{j+1} - y_j summed over j >= k
    folded = list(accumulate(reversed((xy[1:m] - xy[m:]).tolist()), initial=0.0))
    folded.reverse()
    return tuple([q**e * p for e, p in zip(folded, ratios.prod(axis=1).tolist())])


# a chain's corner count moves by at most one per box, so a few recent m
# cover it; the array holds m (m - 1) indices
@functools.lru_cache(maxsize=32)
def _factor_index(m: int) -> np.ndarray:
    # flat positions in the m x (2m - 1) matrix |x_k - [x | y]| of the x
    # of factor j of mu_k: x_j (j < k) or x_{j+1} (j >= k).  Its y_j is
    # column m + j, so the y-factors are the block [:, m:] and need no index
    k, j = np.indices((m, m - 1))
    to_x = k * (2 * m - 1) + j + (j >= k)
    # every caller shares the cached array
    to_x.flags.writeable = False
    return to_x


def partial_fraction_weights(w: InterlacingDiagram, qp: QParam) -> tuple[float, ...]:
    """Weights recovered from the partial-fraction identity by an exact solve.

    Independent of the product formula: at each maximum y_j the identity's
    right-hand side vanishes, so sum_k mu_k / [y_j - x_k]_q = 0 for the m
    maxima, and sum_k mu_k = 1 fixes the scale.  With q = a / b exactly
    (b a power of two, a odd), each entry 1 / (1 - q^d), which is
    1 / [d]_q up to the common factor 1 - q, is the integer pair
    b^d / (b^d - a^d) for d > 0 and -a^k / (b^k - a^k) for d = -k < 0,
    and 1 / d at q = 1.  The m x (m + 1) system is homogeneous, so each
    row is cleared to integers by the lcm of its denominators and is not
    divided by its content.  Elimination by cross-multiplication,
    row <- s row - t top with (s, t) the pivot pair over their gcd, keeps
    the row space; back substitution from mu_{m+1} = 1 keeps the kernel
    vector primitive through gcd(acc, pivot), whatever the rows' scale.
    Each weight is its entry over the vector's sum, rounded once by int
    true division, which is correctly rounded, so no common factor can
    move a bit.  Requires integer corner coordinates, as a partition's
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
    rows = []
    for y in maxima:
        pairs = [entries[y - x] for x in minima]
        lcm = math.lcm(*(d for _, d in pairs))
        rows.append([n * (lcm // d) for n, d in pairs])
    for col in range(m):
        # the shortest nonzero pivot keeps the cross-multiplied rows short
        candidates = [i for i in range(col, m) if rows[i][col]]
        if not candidates:
            raise SingularSystemError("exact partial-fraction system is singular")
        pivot = min(candidates, key=lambda i: abs(rows[i][col]).bit_length())
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col]
        for i in range(col + 1, m):
            row = rows[i]
            # s row - t top clears column col; t = 0 leaves the row as it is,
            # up to sign
            g = math.gcd(top[col], row[col])
            s, t = top[col] // g, row[col] // g
            rows[i] = [s * u - t * v for u, v in zip(row, top)]
    # the kernel vector from mu_{m+1} = 1, kept integer: mu_i is
    # acc / pivot with acc = -sum_{j>i} row_j mu_j, so scaling the entries
    # solved so far by pivot / g and setting mu_i = acc / g, for
    # g = gcd(acc, pivot), keeps the vector primitive
    nu = [0] * m + [1]
    for i in range(m - 1, -1, -1):
        row = rows[i]
        acc = -sum(u * v for u, v in zip(row[i + 1 :], nu[i + 1 :]))
        g = math.gcd(acc, row[i])
        scale = row[i] // g
        nu = [scale * v for v in nu]
        nu[i] = acc // g
    total = sum(nu)
    return tuple(v / total for v in nu)


def sample_index(weights, u: float) -> int:
    """Inverse-CDF selection: first k whose Kahan running sum reaches u * total.

    Ties resolve to the smaller index.  A negative weight raises
    ValueError, and so do no weights, a NaN or infinite weight, all zeros
    or a sum past the double range: the fsum must be finite and positive.
    """
    try:
        total = math.fsum(weights)
    except OverflowError:
        total = math.inf
    # min is reached only with a finite positive sum, so never on no weights
    if not (0.0 < total < math.inf and min(weights) >= 0.0):
        raise ValueError(
            f"weights must be nonnegative with a finite positive sum, got sum {total}"
        )
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
    """A sampled growth chain empty = states[0] < states[1] < ... .

    Kept as its row word: ``rows[t]`` is the 0-based row of the box grown
    at step t + 1, the Yamanouchi word of the chain's standard tableau.
    The states are the word's prefixes, replayed on each access and not
    cached, so a kept trajectory of n boxes holds n small ints.
    """

    rows: tuple[int, ...]

    @property
    def states(self) -> tuple[Partition, ...]:
        parts: list[int] = []
        states = [Partition(())]
        for r in self.rows:
            if r == len(parts):
                parts.append(1)
            else:
                parts[r] += 1
            states.append(Partition(tuple(parts)))
        return tuple(states)

    @property
    def final(self) -> Partition:
        # the boxes of each row, counted in one pass over the word
        counts = Counter(self.rows)
        return Partition(tuple(counts[r] for r in range(len(counts))))


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
    same rule.  Each step records r, so the chain returns its row word
    and makes no partition.  Each step looks its brackets up in one
    table of [|d|]_q, indexed by the integer matrix d = x_k - [x | y]: a
    shape of t < n_boxes boxes has no corner distance above
    lambda_1 + l(lambda) <= t + 1.  Table and matrix brackets are both
    libm's, so the weights, and so the shapes, are bit for bit those of
    ``transition_weights(to_interlacing(state), qp)``.
    """
    if n_boxes < 0:
        raise ValueError(f"n_boxes must be nonnegative, got {n_boxes}")
    uniforms = trajectory_rng(seed, stream).random(n_boxes).tolist()
    # table[d] = [|d|]_q for d in -n_boxes..n_boxes, the negative d by
    # Python's indexing from the end
    brackets = _bracket_table(n_boxes, qp)
    table = np.array(brackets + brackets[:0:-1])
    # minima and maxima ascending, the 0-based row of each minimum, and
    # the row word grown so far
    minima, maxima, rows = [0], [], [0]
    word: list[int] = []
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
        word.append(r)
    return GrowthTrajectory(tuple(word))
