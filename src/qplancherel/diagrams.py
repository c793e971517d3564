"""Integer partitions, hook data, and interlacing corner coordinates.

A partition is stored as a weakly decreasing tuple of positive integers.
Drawn in the Russian convention (boxes rotated 45 degrees, content
``j - i`` on the horizontal axis), the boundary profile of a Young
diagram is a piecewise linear curve whose local minima sit at the
contents of the addable corners and whose local maxima sit at the
contents of the removable corners.  These form strictly interlacing
integer sequences

    x_1 < y_1 < x_2 < y_2 < ... < y_m < x_{m+1},

one more minimum than maxima, and for a partition the center identity
``sum(x) - sum(y) = 0`` holds.  All combinatorial quantities here (hook
lengths, the statistic b, the number of standard tableaux) are exact
integers; floating point enters only downstream.  A whole level is
also held as arrays over its partitions (:func:`_level_table`), for the
sums and draws that run over every shape of a level.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache

import numpy as np

# Largest level enumerate_level lists; a level's size grows exponentially in n.
LEVEL_CAP = 40
# Cells of one row chunk of the hook build (rows x n).  The chunk bounds
# its peak memory: the hook identity at level 40 peaked at 64 MB RSS in
# chunks, and at 174 MB with the whole level in one pass.
_HOOK_CHUNK_CELLS = 1 << 15
# The exact types whose values the validations check in one C-level pass.
_INT = {int}
_REAL = {int, float}


class CapacityError(RuntimeError):
    """A request above the fixed cap of an enumeration whose cost is exponential."""


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive integers."""

    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        # one C-level pass per condition; weakly decreasing ints are all
        # positive when the last one is
        if (
            set(map(type, parts)) <= _INT
            and all(map(operator.ge, parts, parts[1:]))
            and (not parts or parts[-1] > 0)
        ):
            return
        # the per-part scan names the first fault, or accepts the int
        # subclasses the pass above does not know, but not bool
        for p in parts:
            if not isinstance(p, int) or isinstance(p, bool) or p <= 0:
                raise ValueError(f"parts must be positive integers, got {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing, got {parts}")

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition(())
        cols = tuple(
            sum(1 for p in self.parts if p > j) for j in range(self.parts[0])
        )
        return Partition(cols)

    def addable_rows(self) -> list[int]:
        """1-based rows where a box may be added, bottom row first.

        Ordered so that entry ``k`` is the corner with the k-th smallest
        content; this aligns with the minima of :func:`to_interlacing`.
        """
        rows = [self.length + 1]
        for i in range(self.length, 1, -1):
            if self.parts[i - 2] > self.parts[i - 1]:
                rows.append(i)
        if self.length >= 1:
            rows.append(1)
        return rows

    def add_box(self, k: int) -> "Partition":
        """Add a box at the k-th addable corner (0-based, content order)."""
        rows = self.addable_rows()
        if not 0 <= k < len(rows):
            raise ValueError(f"corner index must lie in 0..{len(rows) - 1}, got {k}")
        row = rows[k]
        if row == self.length + 1:
            return Partition(self.parts + (1,))
        parts = list(self.parts)
        parts[row - 1] += 1
        return Partition(tuple(parts))

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class HookData:
    """Exact hook lengths, the statistic b, and the tableau count of a shape."""

    hooks: tuple[int, ...]
    b_stat: int
    dim: int


@cache
def hook_data(partition: Partition) -> HookData:
    """Hook lengths (row-major), b = sum_i (i-1) * parts_i, and dim.

    The one-row case of the routine that gives hooks, b and dim for the
    level tables too.  dim, the number of standard Young tableaux, is n!
    over the hook product, exactly, with the division checked.  Every
    field holds Python ints; the cost is polynomial, so no size is refused.
    """
    hooks, b_stat, dim = _hook_rows(np.array([partition.parts], dtype=np.intp))
    return HookData(tuple(hooks[0].tolist()), int(b_stat[0]), dim[0])


@cache
def enumerate_level(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in decreasing lexicographic order.

    The first entry is the single row (n,), the last the single column.
    Levels above ``LEVEL_CAP`` raise CapacityError.
    """
    return tuple(
        Partition(tuple(filter(None, row))) for row in _level_parts(n).tolist()
    )


@cache
def _level_parts(n: int) -> np.ndarray:
    # the partitions of n as the rows of an S x n int8 matrix, zero
    # padded, in decreasing lexicographic order.  Those with largest part
    # p are p followed by the partitions of n - p with no part above p,
    # which are the last rows of level n - p, so each level is stacked
    # from the finished smaller ones
    if n < 0:
        raise ValueError(f"level must be nonnegative, got {n}")
    if n > LEVEL_CAP:
        raise CapacityError(
            f"level enumeration requested at level {n}, above the cap {LEVEL_CAP}"
        )
    blocks = []
    for part in range(n, 0, -1):
        rest = _level_parts(n - part)
        if n - part > part:
            rest = rest[rest[:, 0] <= part]
        block = np.zeros((len(rest), n), dtype=np.int8)
        block[:, 0] = part
        block[:, 1 : 1 + rest.shape[1]] = rest
        blocks.append(block)
    parts = np.concatenate(blocks) if blocks else np.zeros((1, 0), dtype=np.int8)
    parts.flags.writeable = False
    return parts


@dataclass(frozen=True)
class _LevelTable:
    """Every shape of one level as arrays, one column per shape.

    Columns follow :func:`enumerate_level`; ``hooks`` is n x S int8 in C
    order, row k the k-th hook (:func:`hook_data`'s row-major order) of
    every shape, and ``dim`` the exact tableau count rounded to a double.
    """

    hooks: np.ndarray
    b_stat: np.ndarray
    dim: np.ndarray


@cache
def _level_table(n: int) -> _LevelTable:
    # a level's hook data, one row chunk of _hook_rows at a time; refused
    # above LEVEL_CAP.  Hooks are at most n <= 40, so each chunk's go to
    # int8 hook columns before the next is built; each dim is rounded once
    parts = _level_parts(n)
    rows = _HOOK_CHUNK_CELLS // max(1, n)
    chunks = []
    for r in range(0, len(parts), rows):
        hooks, b_stat, dim = _hook_rows(parts[r : r + rows])
        columns = np.ascontiguousarray(hooks.T, dtype=np.int8)
        chunks.append((columns, b_stat, list(map(float, dim))))
    hooks, b_stat, dim = (np.concatenate(a, axis=-1) for a in zip(*chunks))
    for array in (hooks, b_stat, dim):
        array.flags.writeable = False
    return _LevelTable(hooks, b_stat, dim)


def _hook_rows(parts: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[int]]:
    # for zero-padded rows of one size n, any size: each row's hooks
    # parts_i - j + conj_j - i - 1 of its cells (i, j), j < parts_i, in
    # row-major order (intp), by flat passes over the cells; its
    # b = sum_i i * parts_i (int64); and its dim = n! / prod hooks, an
    # exact int, checked to divide exactly
    count, length = parts.shape
    lengths = parts.ravel().astype(np.intp)
    # conj_j counts the parts above j: a suffix sum of the multiplicities,
    # binned by the largest part
    width = int(lengths.max(initial=0)) + 1
    shape = np.arange(count).repeat(length)
    sizes = np.bincount(shape * width + lengths, minlength=count * width)
    conj = sizes.reshape(count, width)[:, :0:-1].cumsum(axis=1)[:, ::-1].ravel()
    # a shape's cells are its rows laid end to end
    i = np.tile(np.arange(length), count).repeat(lengths)
    j = np.arange(lengths.sum()) - (lengths.cumsum() - lengths).repeat(lengths)
    conj_j = conj[(shape * (width - 1)).repeat(lengths) + j]
    hooks = (lengths.repeat(lengths) - j + conj_j - i - 1).reshape(count, -1)
    b_stat = parts.astype(np.int64) @ np.arange(length, dtype=np.int64)
    products = list(map(math.prod, hooks.tolist()))
    fact = math.factorial(hooks.shape[1])
    if any(fact % p for p in products):
        raise AssertionError(f"a hook product does not divide {hooks.shape[1]}!")
    return hooks, b_stat, [fact // p for p in products]


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


@dataclass(frozen=True)
class InterlacingDiagram:
    """Strictly interlacing minima and maxima of a rectangular profile.

    Coordinates coming from a partition are exact integers; deformed
    diagrams carry real coordinates.  Requires
    ``len(minima) == len(maxima) + 1`` and
    ``minima[0] < maxima[0] < minima[1] < ...``.
    """

    minima: tuple[float, ...]
    maxima: tuple[float, ...]

    def __post_init__(self) -> None:
        minima = tuple(self.minima)
        maxima = tuple(self.maxima)
        object.__setattr__(self, "minima", minima)
        object.__setattr__(self, "maxima", maxima)
        if len(minima) != len(maxima) + 1:
            raise ValueError(
                f"need one more minimum than maxima, got {len(minima)} and {len(maxima)}"
            )
        coordinates = minima + maxima
        # one C-level pass for the plain int and float case; the scan
        # names the first fault, or accepts float subclasses such as
        # np.float64
        if not (
            set(map(type, coordinates)) <= _REAL
            and all(map(math.isfinite, coordinates))
        ):
            for v in coordinates:
                if not _is_number(v) or not math.isfinite(v):
                    raise ValueError(f"coordinates must be finite numbers, got {v!r}")
        merged = [None] * len(coordinates)
        merged[::2] = minima
        merged[1::2] = maxima
        if not all(map(operator.lt, merged, merged[1:])):
            raise ValueError(f"sequences do not strictly interlace: {merged}")

    @property
    def area(self) -> float:
        """Area between the profile and its asymptotes, (sum x^2 - sum y^2)/2.

        Equals the box count when the diagram comes from a partition.
        """
        return (
            sum(x * x for x in self.minima) - sum(y * y for y in self.maxima)
        ) / 2

    @property
    def support_max(self) -> float:
        return self.minima[-1]


def to_interlacing(partition: Partition) -> InterlacingDiagram:
    """Corner contents of a partition as an interlacing diagram.

    Minima are the contents of the addable corners, maxima the contents
    of the removable corners, both ascending and exactly integer.
    """
    parts = partition.parts
    minima = []
    maxima = []
    # content of an added box in row i (1-based) is parts[i-1] + 1 - i
    minima.append(-len(parts))
    for i in range(len(parts), 0, -1):
        if i == 1 or parts[i - 2] > parts[i - 1]:
            minima.append(parts[i - 1] + 1 - i)
        if i == len(parts) or parts[i - 1] > parts[i]:
            maxima.append(parts[i - 1] - i)
    return InterlacingDiagram(tuple(minima), tuple(maxima))


def from_interlacing(diagram: InterlacingDiagram) -> Partition:
    """Reconstruct the partition whose corner contents are ``diagram``.

    Inverse of :func:`to_interlacing`; requires integer coordinates
    obeying the center identity.
    """
    minima = diagram.minima
    maxima = diagram.maxima
    if any(v != int(v) for v in minima + maxima):
        raise ValueError("a partition profile has integer corner contents")
    x_desc = [int(v) for v in reversed(minima)]
    y_desc = [int(v) for v in reversed(maxima)]
    parts: list[int] = []
    rows = 0
    for j, y in enumerate(y_desc):
        value = x_desc[j] + rows
        new_rows = value - y
        if new_rows <= rows or value <= 0:
            raise ValueError(f"not the corner profile of a partition: {diagram}")
        parts.extend([value] * (new_rows - rows))
        rows = new_rows
    if x_desc[-1] != -rows:
        raise ValueError(f"corner profile is off center: {diagram}")
    return Partition(tuple(parts))
