from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qplancherel import (
    Partition,
    QParam,
    StandardTableau,
    descent_set,
    enumerate_level,
    hook_data,
    maj,
    poincare_polynomial,
    pushforward_exact,
    q_measure,
    q_measure_exact,
    rsk_shape,
)
from qplancherel.rsk import maj_distribution

from conftest import partitions
from oracles import (
    descent_set_tableau,
    inverse,
    maj_tableau,
    standard_tableaux,
    tableau_genfun_check,
)


def test_descents_and_maj():
    assert descent_set((1, 2, 3)) == frozenset()
    assert maj((1, 2, 3)) == 0
    assert descent_set((3, 1, 2)) == frozenset({1})
    assert maj((3, 1, 2)) == 1
    assert descent_set((3, 2, 1)) == frozenset({1, 2})
    assert maj((3, 2, 1)) == 3
    assert maj((2, 1, 4, 3)) == 1 + 3


def test_inverse():
    assert inverse((3, 1, 2)) == (2, 3, 1)
    assert inverse((1, 2, 3)) == (1, 2, 3)
    sigma = (4, 1, 3, 2)
    assert inverse(inverse(sigma)) == sigma


def test_permutation_validation():
    with pytest.raises(ValueError):
        maj((1, 3))
    with pytest.raises(ValueError):
        maj((1, 1, 2))


def test_tableau_validation():
    with pytest.raises(ValueError):
        StandardTableau(((1, 3), (2, 4), (5, 6, 7)))  # rows grow
    with pytest.raises(ValueError):
        StandardTableau(((2, 1),))  # row not increasing
    with pytest.raises(ValueError):
        StandardTableau(((1, 2), (2,)))  # duplicate entry
    with pytest.raises(ValueError):
        StandardTableau(((1,), (2, 3)))  # shape not a partition


def test_tableau_descents():
    t = StandardTableau(((1, 2, 5), (3, 4), (6,)))
    # k is a descent when k+1 sits strictly below k
    assert descent_set_tableau(t) == frozenset({2, 5})
    assert maj_tableau(t) == 7


def test_rsk_known_pairs():
    p, q = rsk_shape((2, 1, 3))
    assert p.rows == ((1, 3), (2,))
    assert q.rows == ((1, 3), (2,))
    p, q = rsk_shape((3, 1, 2))
    assert p.rows == ((1, 2), (3,))
    assert q.rows == ((1, 3), (2,))


def test_rsk_identity_permutation():
    p, q = rsk_shape((1, 2, 3, 4))
    assert p.rows == ((1, 2, 3, 4),)
    assert p == q


def test_descent_transport_exhaustive():
    # recording tableau carries the descents of the word, insertion
    # tableau those of its inverse
    for n in range(1, 8):
        for sigma in permutations(range(1, n + 1)):
            p, q = rsk_shape(sigma)
            assert descent_set_tableau(q) == descent_set(sigma)
            assert descent_set_tableau(p) == descent_set(inverse(sigma))


def test_rsk_inverse_swaps_tableaux():
    for sigma in permutations(range(1, 7)):
        p, q = rsk_shape(sigma)
        pi, qi = rsk_shape(inverse(sigma))
        assert (pi, qi) == (q, p)


@pytest.mark.parametrize("n", range(1, 10))
def test_mahonian_identity_exact(n):
    q = Fraction(1, 3)
    total = Fraction(0)
    for pairs in maj_distribution(n).values():
        for value, count in pairs:
            total += count * q**value
    assert total == poincare_polynomial(n, q)


def test_poincare_polynomial_values():
    assert poincare_polynomial(1, 0.5) == 1.0
    assert poincare_polynomial(2, 0.5) == 1.5
    assert poincare_polynomial(3, Fraction(1, 2)) == Fraction(21, 8)


def test_maj_distribution_cap():
    from qplancherel import CapacityError

    with pytest.raises(CapacityError):
        maj_distribution(21)


@pytest.mark.parametrize("n", range(1, 9))
def test_maj_distribution_matches_insertion(n):
    # row insertion over all of S(n) is the oracle for the tableau recursion
    table: dict[Partition, Counter] = {}
    for sigma in permutations(range(1, n + 1)):
        table.setdefault(rsk_shape(sigma)[0].shape, Counter())[maj(sigma)] += 1
    assert maj_distribution(n) == {
        shape: tuple(sorted(counter.items())) for shape, counter in table.items()
    }


@pytest.mark.parametrize("n", range(1, 9))
def test_maj_distribution_counts_tableaux(n):
    for shape, pairs in maj_distribution(n).items():
        dim = hook_data(shape).dim
        tableaux = Counter(maj_tableau(t) for t in standard_tableaux(shape))
        assert pairs == tuple((m, count * dim) for m, count in sorted(tableaux.items()))


@settings(max_examples=25, deadline=None)
@given(partitions(min_boxes=1, max_boxes=10))
def test_tableau_count_matches_dim(lam):
    assert sum(1 for _ in standard_tableaux(lam)) == hook_data(lam).dim


@settings(max_examples=20, deadline=None)
@given(partitions(min_boxes=1, max_boxes=10), st.sampled_from([0.3, 0.5, 0.8, 1.0]))
def test_tableau_generating_function(lam, q):
    assert abs(tableau_genfun_check(lam, QParam(q))) < 1e-10


def test_tableau_generating_function_exact():
    assert tableau_genfun_check(Partition((2, 1)), Fraction(1, 2)) == 0
    assert tableau_genfun_check(Partition((2, 1)), Fraction(1)) == 0


@pytest.mark.parametrize("q", [0.2, 0.5, 0.8, 1.0])
def test_pushforward_matches_measure(q):
    qp = QParam(q)
    for n in range(1, 21):
        probs = pushforward_exact(n, q)
        tv = 0.5 * math.fsum(
            abs(p - q_measure(lam, qp)) for lam, p in probs.items()
        )
        assert tv < 1e-13
        assert math.fsum(probs.values()) == pytest.approx(1.0, rel=1e-12)


def test_pushforward_exact_rational():
    q = Fraction(1, 2)
    for n in range(1, 6):
        probs = pushforward_exact(n, q)
        for lam, p in probs.items():
            assert p == q_measure_exact(lam, q)


@pytest.mark.parametrize("q", [0.5, Fraction(1, 3)])
def test_pushforward_runs_in_level_order(q):
    # cli pushforward and checks.pushforward zip the shapes with the
    # level's weights, which follow enumerate_level
    for n in range(1, 13):
        assert list(pushforward_exact(n, q)) == list(enumerate_level(n))


def test_pushforward_exact_classical():
    # at q = 1 the bias is uniform: dim^2 / n!, the Plancherel measure
    for n in range(1, 8):
        probs = pushforward_exact(n, Fraction(1))
        assert probs == {
            lam: Fraction(hook_data(lam).dim ** 2, math.factorial(n))
            for lam in enumerate_level(n)
        }
