from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings

from qplancherel import (
    CapacityError,
    InterlacingDiagram,
    Partition,
    enumerate_level,
    from_interlacing,
    hook_data,
    to_interlacing,
)
from qplancherel.diagrams import LEVEL_CAP, _level_parts, _level_table

from conftest import partitions
from oracles import (
    hook_data_by_cells,
    level_partitions,
    predecessors,
    remove_box,
    removable_rows,
    successors,
)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    with pytest.raises(ValueError):
        Partition((2, -1))


@pytest.mark.parametrize(
    "parts, message",
    [
        ((1, 1, 2), "weakly decreasing"),
        ((0, 1), "positive integers"),
        ((-1, -2), "positive integers"),
        ((2.0, 1), "positive integers"),
        ((2, 1.0), "positive integers"),
        ((np.int64(2), 1), "positive integers"),
        ((None,), "positive integers"),
        ((2, True), "positive integers"),
        ((True,), "positive integers"),
    ],
)
def test_partition_rejects(parts, message):
    with pytest.raises(ValueError, match=f"parts must be {message}, got"):
        Partition(parts)


@pytest.mark.parametrize("parts", [(), (1,), (3, 3, 3), (3, 2, 2, 1)])
def test_partition_accepts(parts):
    assert Partition(list(parts)).parts == parts


def test_partition_basics():
    lam = Partition((4, 2, 1))
    assert lam.size == 7
    assert lam.length == 3
    assert lam.conjugate() == Partition((3, 2, 1, 1))
    assert lam.conjugate().conjugate() == lam


@pytest.mark.parametrize("k", [-1, 3])
def test_add_box_rejects_corner_out_of_range(k):
    # (2, 1) has three addable corners; a negative index must not wrap
    with pytest.raises(ValueError, match=r"corner index must lie in 0\.\.2"):
        Partition((2, 1)).add_box(k)


@given(partitions())
def test_conjugate_is_involution(lam):
    assert lam.conjugate().conjugate() == lam
    assert lam.conjugate().size == lam.size


@given(partitions())
def test_addable_one_more_than_removable(lam):
    assert len(lam.addable_rows()) == len(removable_rows(lam)) + 1


def test_empty_interlacing():
    w = to_interlacing(Partition(()))
    assert w.minima == (0,)
    assert w.maxima == ()
    assert from_interlacing(w) == Partition(())


def test_known_interlacing():
    w = to_interlacing(Partition((2, 1)))
    assert w.minima == (-2, 0, 2)
    assert w.maxima == (-1, 1)
    assert w.area == 3.0


@given(partitions(max_boxes=20))
def test_interlacing_roundtrip(lam):
    assert from_interlacing(to_interlacing(lam)) == lam


@pytest.mark.parametrize(
    "minima,maxima,message",
    [
        ((-1.5, 1.0), (0.0,), "integer corner contents"),
        ((-3, -1), (-2,), "not the corner profile of a partition"),
        ((-2, 1), (0,), "off center"),
    ],
    ids=["non_integer", "not_a_profile", "off_center"],
)
def test_from_interlacing_rejects(minima, maxima, message):
    with pytest.raises(ValueError, match=message):
        from_interlacing(InterlacingDiagram(minima, maxima))


@given(partitions(max_boxes=20))
def test_interlacing_structure(lam):
    w = to_interlacing(lam)
    merged = []
    for i, x in enumerate(w.minima):
        merged.append(x)
        if i < len(w.maxima):
            merged.append(w.maxima[i])
    assert all(a < b for a, b in zip(merged, merged[1:]))
    assert sum(w.minima) - sum(w.maxima) == 0
    assert w.area == float(lam.size)


def test_interlacing_validation():
    with pytest.raises(ValueError):
        InterlacingDiagram((0, 1), (2,))  # maxima outside
    with pytest.raises(ValueError):
        InterlacingDiagram((0,), (1,))  # count mismatch
    with pytest.raises(ValueError):
        InterlacingDiagram((1, 0), ())  # not sorted


@pytest.mark.parametrize(
    "minima, maxima",
    [
        ((0,), ()),
        ((-1, 1, 3), (0, 2)),
        ((-1.5, 1.0), (0.25,)),
        ((-1, 1), (-0.0,)),
        ((np.float64(-1.0), 1), (0,)),
    ],
)
def test_interlacing_accepts(minima, maxima):
    w = InterlacingDiagram(list(minima), list(maxima))
    assert (w.minima, w.maxima) == (minima, maxima)


@pytest.mark.parametrize(
    "minima, maxima, bad",
    [
        ((True, 3), (2,), "True"),
        ((-1, 1), (False,), "False"),
        ((np.int64(-1), 1), (0,), "np.int64(-1)"),
        ((-2, 2), (np.float32(0.5),), "np.float32(0.5)"),
        ((-1, 1), ("0",), "'0'"),
        ((-math.inf, 1), (0,), "-inf"),
        ((-1, math.inf), (0,), "inf"),
        ((-1, 1), (math.nan,), "nan"),
    ],
)
def test_interlacing_rejects_coordinates(minima, maxima, bad):
    message = f"coordinates must be finite numbers, got {bad}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        InterlacingDiagram(minima, maxima)


@pytest.mark.parametrize(
    "minima, maxima, merged",
    [
        ((-1, 1), (-1,), "[-1, -1, 1]"),
        ((-1, 1), (1,), "[-1, 1, 1]"),
        ((-1, 1, 3), (0, 3), "[-1, 0, 1, 3, 3]"),
        ((0, 1), (2,), "[0, 2, 1]"),
    ],
)
def test_interlacing_rejects_order(minima, maxima, merged):
    with pytest.raises(ValueError, match=re.escape(f"interlace: {merged}")):
        InterlacingDiagram(minima, maxima)


def test_hook_data_known():
    hd = hook_data(Partition((2, 1)))
    assert hd.hooks == (3, 1, 1)
    assert hd.b_stat == 1
    assert hd.dim == 2
    # Python ints, not numpy scalars
    assert {type(v) for v in (*hd.hooks, hd.b_stat, hd.dim)} == {int}
    assert hook_data(Partition((3, 2))).dim == 5
    assert hook_data(Partition((2, 2))).dim == 2
    assert hook_data(Partition(())).dim == 1
    assert hook_data(Partition((5,))).dim == 1
    assert hook_data(Partition((1, 1, 1))).b_stat == 3


def test_dim_recursion():
    # dim of a shape equals the sum of dims over shapes one box smaller
    for n in range(1, 13):
        for lam in enumerate_level(n):
            total = sum(hook_data(mu).dim for mu in predecessors(lam))
            assert total == hook_data(lam).dim


def _partition_counts(limit: int) -> list[int]:
    # Euler's pentagonal-number recurrence, independent of enumerate_level
    counts = [1] + [0] * limit
    for n in range(1, limit + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= n:
                total += sign * counts[n - g1]
            if g2 <= n:
                total += sign * counts[n - g2]
            k += 1
        counts[n] = total
    return counts


def test_enumeration_counts():
    counts = _partition_counts(30)
    for n in range(31):
        level = enumerate_level(n)
        assert len(level) == counts[n]
        assert len(set(level)) == len(level)
        assert all(lam.size == n for lam in level)


def test_capacity_limit():
    with pytest.raises(CapacityError, match="level 41"):
        enumerate_level(LEVEL_CAP + 1)
    assert len(enumerate_level(5)) == 7


def _assert_table_row(table, r: int, lam: Partition) -> None:
    data = hook_data_by_cells(lam)
    assert tuple(filter(None, _level_parts(lam.size)[r].tolist())) == lam.parts
    assert tuple(table.hooks[:, r].tolist()) == data.hooks
    assert table.b_stat[r] == data.b_stat
    assert table.dim[r] == float(data.dim)


@pytest.mark.parametrize("n", range(19))
def test_hook_data_matches_the_cells(n):
    for lam in enumerate_level(n):
        assert hook_data(lam) == hook_data_by_cells(lam)


@pytest.mark.parametrize("n", range(26))
def test_level_table_matches_the_shapes(n):
    # the table's rows are the level's partitions one by one, in order,
    # with their hook data exactly
    level = enumerate_level(n)
    assert level == tuple(level_partitions(n))
    table = _level_table(n)
    assert len(table.dim) == len(level)
    for r, lam in enumerate(level):
        _assert_table_row(table, r, lam)


def test_level_table_at_the_cap():
    level = enumerate_level(LEVEL_CAP)
    table = _level_table(LEVEL_CAP)
    assert len(table.dim) == len(level) == _partition_counts(LEVEL_CAP)[-1]
    rows = np.random.default_rng(40).choice(len(level), size=200, replace=False)
    for r in [0, len(level) - 1, *rows.tolist()]:
        _assert_table_row(table, r, level[r])


def test_level_table_range():
    with pytest.raises(CapacityError, match="level 41"):
        _level_table(LEVEL_CAP + 1)
    with pytest.raises(ValueError, match="nonnegative"):
        _level_table(-1)
    with pytest.raises(ValueError, match="nonnegative"):
        enumerate_level(-1)


def test_level_table_is_cached_and_read_only():
    table = _level_table(9)
    assert _level_table(9) is table
    for array in (table.hooks, table.b_stat, table.dim):
        assert not array.flags.writeable
    # row k holds every shape's k-th hook, contiguous, as int8
    assert table.hooks.shape == (9, len(enumerate_level(9)))
    assert table.hooks.dtype == np.int8
    assert table.hooks.flags.c_contiguous


def test_enumeration_is_cached():
    # callers share one immutable level
    level = enumerate_level(12)
    assert isinstance(level, tuple)
    assert enumerate_level(12) is level


@settings(max_examples=30)
@given(partitions(min_boxes=1, max_boxes=14))
def test_add_remove_inverse(lam):
    for k in range(len(lam.addable_rows())):
        grown = lam.add_box(k)
        assert grown.size == lam.size + 1
        assert lam in predecessors(grown)
    for k in range(len(removable_rows(lam))):
        shrunk = remove_box(lam, k)
        assert shrunk.size == lam.size - 1
        assert lam in successors(shrunk)
