"""Row insertion, the major index, and the exact q^MAJ push-forward.

Permutations are tuples holding each of 1..n once.  The descent set of
``w`` is the set of positions i with w_i > w_{i+1}; MAJ(w) is the sum of
those positions.  Biasing the uniform distribution on S(n) by q^MAJ and
pushing forward through the common shape of the row-insertion tableau
pair yields exactly the q-deformed Plancherel measure of ``qmeasure``;
the normalizer is the Poincare polynomial [n]! / (1 - q)^n.  The exact
table of MAJ values per shape is counted over the Young lattice, not
over S(n).  No sampler is offered.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .diagrams import CapacityError, Partition, enumerate_level
from .qmeasure import polynomial_bracket

_MAX_PUSHFORWARD_N = 20

Permutation = tuple[int, ...]


def _check_permutation(perm: Permutation) -> None:
    if sorted(perm) != list(range(1, len(perm) + 1)):
        raise ValueError(f"not a permutation of 1..{len(perm)}: {perm}")


def descent_set(perm: Permutation) -> frozenset[int]:
    """Positions i (1-based) with perm_i > perm_{i+1}."""
    _check_permutation(perm)
    return frozenset(
        i for i in range(1, len(perm)) if perm[i - 1] > perm[i]
    )


def maj(perm: Permutation) -> int:
    """The major index, the sum of the descent positions."""
    return sum(descent_set(perm))


@dataclass(frozen=True)
class StandardTableau:
    """Rows of a standard Young tableau: increasing along rows and columns."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        lengths = [len(r) for r in rows]
        if any(lengths[i] < lengths[i + 1] for i in range(len(rows) - 1)):
            raise ValueError("row lengths must weakly decrease")
        entries = [v for r in rows for v in r]
        if sorted(entries) != list(range(1, len(entries) + 1)):
            raise ValueError("entries must be 1..n, each once")
        for r in rows:
            if any(r[j] >= r[j + 1] for j in range(len(r) - 1)):
                raise ValueError(f"rows must strictly increase: {r}")
        for i in range(len(rows) - 1):
            for j in range(len(rows[i + 1])):
                if rows[i][j] >= rows[i + 1][j]:
                    raise ValueError("columns must strictly increase")

    @property
    def size(self) -> int:
        return sum(len(r) for r in self.rows)

    @property
    def shape(self) -> Partition:
        return Partition(tuple(len(r) for r in self.rows))

def rsk_shape(perm: Permutation) -> tuple[StandardTableau, StandardTableau]:
    """Row insertion of ``perm``: the (insertion, recording) tableau pair.

    The two tableaux share one shape.  The recording tableau carries the
    descents of ``perm`` and the insertion tableau those of its inverse,
    so MAJ is transported exactly.
    """
    _check_permutation(perm)
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for step, value in enumerate(perm, start=1):
        v = value
        for i, row in enumerate(p_rows):
            j = bisect_right(row, v)
            if j == len(row):
                row.append(v)
                q_rows[i].append(step)
                break
            row[j], v = v, row[j]
        else:
            p_rows.append([v])
            q_rows.append([step])
    return (
        StandardTableau(tuple(tuple(r) for r in p_rows)),
        StandardTableau(tuple(tuple(r) for r in q_rows)),
    )


@cache
def maj_distribution(n: int) -> dict[Partition, tuple[tuple[int, int], ...]]:
    """For each shape of n, the multiset {MAJ(w): RSK shape (w) = shape}.

    Returned as sorted (maj, count) pairs.  Row insertion carries the
    descents of w to its recording tableau and pairs it with any of the
    dim(shape) insertion tableaux, so each count is dim(shape) times the
    number of standard tableaux with that maj.  Those are counted box by
    box over the Young lattice: entry k + 1 placed in a row strictly
    below entry k adds k to the maj.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if n > _MAX_PUSHFORWARD_N:
        raise CapacityError(
            f"exact q^MAJ table capped at n = {_MAX_PUSHFORWARD_N}, got {n}"
        )
    # (shape, row of the largest entry) -> tableau counts indexed by maj;
    # a count is at most dim(shape) <= sqrt(n!), well inside int64
    size = n * (n - 1) // 2 + 1
    empty = np.zeros(size, np.int64)
    empty[0] = 1
    level = {(Partition(), 0): empty}
    for k in range(n):
        grown: dict[tuple[Partition, int], np.ndarray] = {}
        for (shape, last), counts in level.items():
            for corner, row in enumerate(shape.addable_rows()):
                key = (shape.add_box(corner), row)
                target = grown.setdefault(key, np.zeros(size, np.int64))
                if row > last:
                    target[k:] += counts[: size - k]
                else:
                    target += counts
        level = grown
    tableaux: dict[Partition, np.ndarray] = {}
    for (shape, _), counts in level.items():
        tableaux[shape] = tableaux.get(shape, 0) + counts
    table = {}
    for shape, counts in tableaux.items():
        dim = int(counts.sum())
        table[shape] = tuple((int(m), int(counts[m]) * dim) for m in np.flatnonzero(counts))
    return table


def poincare_polynomial(n: int, q):
    """[n]! / (1 - q)^n = prod_{k=2..n} (1 + q + ... + q^(k-1)).

    Works for float or Fraction q; this is the total q^MAJ mass of S(n).
    """
    value = q**0
    for k in range(2, n + 1):
        value = value * polynomial_bracket(k, q)
    return value


def pushforward_exact(n: int, q):
    """Exact level-n distribution of the q^MAJ bias under the RSK shape map.

    ``q`` may be a float or a Fraction; the arithmetic follows its type.
    The normalizer is checked against the Poincare polynomial.  Returns
    a dict keyed by shape, in :func:`enumerate_level`'s order.
    """
    if not (0 < q <= 1):
        raise ValueError(f"q must lie in (0, 1], got {q}")
    dist = maj_distribution(n)
    masses = {
        shape: sum(count * q**m for m, count in dist[shape])
        for shape in enumerate_level(n)
    }
    total = sum(masses.values())
    expected = poincare_polynomial(n, q)
    if isinstance(q, Fraction):
        if total != expected:
            raise AssertionError("q^MAJ mass disagrees with the Poincare polynomial")
    elif abs(total - expected) > 1e-12 * abs(expected):
        raise AssertionError("q^MAJ mass disagrees with the Poincare polynomial")
    return {shape: mass / total for shape, mass in masses.items()}

