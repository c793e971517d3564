from __future__ import annotations

import hashlib
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qplancherel
from qplancherel import (
    Partition,
    QParam,
    enumerate_level,
    hook_data,
    hook_identity_residual,
    q_measure,
    q_measure_exact,
)
from qplancherel import moments, qmeasure
from qplancherel.diagrams import LEVEL_CAP, _level_table
from qplancherel.qmeasure import MomentOverflowError, _level_weights

from conftest import partitions
from oracles import (
    geometric_word_shape,
    harmonic,
    hook_data_by_cells,
    hook_identity_residual_by_shape,
    level_weights_by_shape,
    shape_weight,
    successors,
)


def test_qparam_validation():
    with pytest.raises(ValueError):
        QParam(0.0)
    with pytest.raises(ValueError):
        QParam(1.5)
    with pytest.raises(ValueError):
        QParam(-0.2)
    assert QParam(1.0).is_classical
    assert not QParam(0.5).is_classical
    assert QParam(0.5).log_inv == pytest.approx(math.log(2.0), rel=1e-15)
    # -log(1.0) is -0.0; the classical fields are +0.0
    classical = QParam(1.0)
    for zero in (classical.log_inv, classical.one_minus_q):
        assert zero == 0.0 and math.copysign(1.0, zero) == 1.0


def test_known_value():
    # (2,1) at q = 1/2: (1-q)^3 dim q^b / prod(1 - q^h) works out to 4/7
    assert q_measure(Partition((2, 1)), QParam(0.5)) == pytest.approx(4 / 7, rel=1e-14)
    exact = q_measure_exact(Partition((2, 1)), Fraction(1, 2))
    assert exact == Fraction(4, 7)


def test_classical_value():
    # dim^2 / n! at q = 1
    lam = Partition((2, 1))
    assert q_measure(lam, QParam(1.0)) == pytest.approx(4 / 6, rel=1e-15)


@pytest.mark.parametrize("q", [0.1, 0.5, 0.9, 0.99])
def test_normalization(q):
    qp = QParam(q)
    for n in range(21):
        total = math.fsum(q_measure(lam, qp) for lam in enumerate_level(n))
        assert total == pytest.approx(1.0, rel=1e-12)


def test_exact_normalization():
    for q in (Fraction(2, 7), Fraction(1)):
        for n in range(9):
            total = sum(q_measure_exact(lam, q) for lam in enumerate_level(n))
            assert total == 1


@settings(max_examples=40)
@given(partitions(min_boxes=1, max_boxes=14), st.sampled_from([0.2, 0.5, 0.8, 1.0]))
def test_measure_is_dim_times_harmonic(lam, q):
    qp = QParam(q)
    expected = hook_data(lam).dim * harmonic(lam, q)
    assert q_measure(lam, qp) == pytest.approx(expected, rel=1e-12)


def test_harmonic_classical_value():
    # phi_1 = dim / n!, harmonic: phi(lam) = sum of phi over the covers
    for lam in enumerate_level(5):
        phi = harmonic(lam, 1)
        assert phi == Fraction(hook_data(lam).dim, math.factorial(5))
        assert sum(harmonic(cover, 1) for cover in successors(lam)) == phi


def test_classical_limit():
    # q_measure(lam, 1 - eps) approaches dim^2/n! linearly in eps; the
    # linear coefficient is proportional to the conjugation asymmetry
    # of the row statistic, so a non-symmetric shape is needed
    lam = Partition((3, 1))
    target = hook_data(lam).dim ** 2 / math.factorial(4)
    errors = []
    for k in (3, 4, 5):
        eps = 10.0**-k
        errors.append(abs(q_measure(lam, QParam(1.0 - eps)) - target))
    assert errors[0] / errors[1] == pytest.approx(10.0, rel=0.05)
    assert errors[1] / errors[2] == pytest.approx(10.0, rel=0.05)


def test_classical_limit_symmetric_shape_is_second_order():
    # for a self-conjugate shape the linear term cancels and the ratio
    # jumps to the quadratic value
    lam = Partition((3, 2, 1))
    target = hook_data(lam).dim ** 2 / math.factorial(6)
    e3 = abs(q_measure(lam, QParam(1.0 - 1e-3)) - target)
    e4 = abs(q_measure(lam, QParam(1.0 - 1e-4)) - target)
    assert e3 / e4 == pytest.approx(100.0, rel=0.05)


def test_log_space_branch_matches_exact():
    # small q and a sizable shape (30 boxes, q^b = 1e-240)
    lam = Partition((15, 10, 5))
    q = 1e-12
    value = q_measure(lam, QParam(q))
    exact = q_measure_exact(lam, Fraction(q))
    assert value == pytest.approx(float(exact), rel=1e-9)


@pytest.mark.parametrize("q", [0.1, 0.5, 0.9, 0.99])
def test_hook_identity(q):
    qp = QParam(q)
    for n in range(1, 17):
        residual = hook_identity_residual(n, qp)
        assert abs(residual) * (1.0 - q) ** n < 1e-12


@pytest.mark.parametrize("q", [1e-20, 1e-3, 0.1, 0.5, 0.9, 0.99, 1 - 1e-9])
def test_level_weights_match_shape_by_shape(q):
    # the level's array passes keep every bit of the per-shape route
    qp = QParam(q)
    for n in range(21):
        assert _level_weights(n, qp).tolist() == level_weights_by_shape(n, qp)
        assert hook_identity_residual(n, qp) == hook_identity_residual_by_shape(n, qp)


# SHA-256 of the little-endian bytes of _level_weights(n, QParam(q)) for
# n = 21..40 in turn, the levels above the shape-by-shape comparison, as
# first recorded with the level tables' whole-level b and unchecked dims
FROZEN_LEVEL_WEIGHTS = {
    1e-3: "343137be6024f83e0993fa37aaaba6a6028cc55f8e48e04719fed507bf64616d",
    0.5: "c808fc96b21c7000963e22a785655f8ec7f0b2db101a6ebb0896e773f0f10725",
    0.999: "6adef70b4da3d7c9b80d55dd95353f1d10f0193d63a3c5a7734d7c3c078efc4d",
    1.0: "82bd47c2a1e527d72c2aad7ad1180c17cdbe2f3379286f27895873eab1325304",
}


def frozen_level_weights_digest(q: float) -> str:
    qp = QParam(q)
    digest = hashlib.sha256()
    for n in range(21, LEVEL_CAP + 1):
        digest.update(_level_weights(n, qp).astype("<f8").tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("q", list(FROZEN_LEVEL_WEIGHTS))
def test_level_weights_are_frozen(q):
    assert frozen_level_weights_digest(q) == FROZEN_LEVEL_WEIGHTS[q]


def test_wide_shapes_match_the_shape_routes():
    # hooks above int8's range (the row, the column, the word shape), and
    # dims past the double range (the square, the word shape), whose
    # measure takes the log-space branch with the exact int
    shapes = [
        Partition((300,)),
        Partition((1,) * 300),
        Partition((25,) * 25),
        geometric_word_shape(2500, 0.5 ** (1 / 50), np.random.default_rng(2500)),
    ]
    data = [hook_data(lam) for lam in shapes]
    assert [max(d.hooks) > 127 for d in data] == [True, True, False, True]
    assert [d.dim > sys.float_info.max for d in data] == [False, False, True, True]
    # exact Python ints, not numpy scalars, which would wrap past int64
    assert {type(v) for d in data for v in (d.b_stat, d.dim)} == {int}
    assert data == [hook_data_by_cells(lam) for lam in shapes]
    for q in [1e-20, 1e-3, 0.1, 0.5, 0.9, 0.999, 1 - 1e-9, 1.0]:
        qp = QParam(q)
        for lam in shapes:
            assert q_measure(lam, qp) == shape_weight(lam, qp)
    assert q_measure(shapes[2], QParam(1.0)) > 0.0


def test_level_weights_take_the_log_space_branch(monkeypatch):
    # at q = 1e-20, q^b leaves the normal range from b = 16 on
    qp = QParam(1e-20)
    expected = level_weights_by_shape(20, qp)
    calls = []
    log_weight = qmeasure._log_weight

    def counted(*args):
        calls.append(args)
        return log_weight(*args)

    monkeypatch.setattr(qmeasure, "_log_weight", counted)
    assert _level_weights(20, qp).tolist() == expected
    assert calls


def test_level_weights_read_the_hook_columns_in_place():
    # a warm level-40 pass holds its per-shape lists and arrays, ~4 MB; a
    # whole-level intp copy of the hooks (37,338 x 40 x 8 B) adds 12 MB
    _level_table(LEVEL_CAP)
    tracemalloc.start()
    try:
        hook_identity_residual(LEVEL_CAP, QParam(0.999))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_hook_identity_scale_overflow_is_typed():
    # (1 - q)^(-40) at q = 1 - 1e-9 is 1e360, beyond the double range
    with pytest.raises(MomentOverflowError, match="floating-point range"):
        hook_identity_residual(40, QParam(1 - 1e-9))
    assert moments.MomentOverflowError is MomentOverflowError
    # both typed errors of the public functions are public names
    assert qplancherel.MomentOverflowError is MomentOverflowError
    assert qplancherel.PoleProximityError is moments.PoleProximityError
    assert {"MomentOverflowError", "PoleProximityError"} <= set(qplancherel.__all__)


def test_measure_positive():
    qp = QParam(0.37)
    for lam in enumerate_level(8):
        assert q_measure(lam, qp) > 0.0


def test_qparam_bracket():
    qp = QParam(0.5)
    assert qp.bracket(1) == 1.0
    assert qp.bracket(3) == pytest.approx(1.75, rel=1e-15)
    assert qp.bracket(-2) == pytest.approx(-6.0, rel=1e-15)
    assert qp.c == pytest.approx(2.0 * math.log(2.0), rel=1e-15)
    classical = QParam(1.0)
    assert classical.bracket(3) == 3
    assert classical.bracket(-2.5) == -2.5
    assert classical.c == 1.0
    # exactly one at d = 1 even where 1 - q is a few ulp
    assert QParam(1.0 - 2.0**-52).bracket(1) == 1.0


@pytest.mark.parametrize("q", [1e-8, 0.3, 0.5, 0.95, 1 - 1e-12, 1.0])
def test_array_bracket_is_the_scalar_bracket(q):
    # one libm route: an array bracket keeps every bit of the scalar one,
    # and a bracket beyond the double range raises either way
    qp = QParam(q)
    ds, scalars = [], []
    for d in (k + f for k in range(-300, 301) for f in (0.0, 1 / 3, 0.5, 0.999)):
        try:
            scalars.append(qp.bracket(d))
            ds.append(d)
        except MomentOverflowError:
            with pytest.raises(MomentOverflowError):
                qp.bracket(np.array([d]))
    assert len(ds) > 1200
    assert qp.bracket(np.array(ds)).tolist() == scalars


def test_array_bracket_overflow_names_the_element():
    # the message names the first element past the range, as the scalar
    # message names its argument
    with pytest.raises(MomentOverflowError) as error:
        QParam(0.5).bracket(np.array([[1.0, -5000.0], [-6000.0, 2.0]]))
    assert str(error.value) == "[-5000.0]_q at q = 0.5 exceeds the floating-point range"
    with pytest.raises(MomentOverflowError) as scalar:
        QParam(0.5).bracket(-5000.0)
    assert str(scalar.value) == str(error.value)


def test_log_space_branch_below_normal_range():
    # q^b / prod [h]_q is 1e-315, below the normal range, while the
    # measure dim * 1e-315 is a normal double
    lam = Partition((15, 10, 5))
    q = 10.0**-15.75
    assert harmonic(lam, q) < sys.float_info.min
    exact = float(q_measure_exact(lam, Fraction(q)))
    assert exact > sys.float_info.min
    assert q_measure(lam, QParam(q)) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize(
    "parts,q,expected",
    [((50, 50), 1.0 - 1e-6, 4.198e-104), ((1,) * 120, 0.999, 4.1005e-201)],
)
def test_no_underflow_near_classical(parts, q, expected):
    # (1 - q)^n alone underflows here; the bracket form does not
    lam = Partition(parts)
    exact = float(q_measure_exact(lam, Fraction(q)))
    assert exact == pytest.approx(expected, rel=1e-4)
    assert q_measure(lam, QParam(q)) == pytest.approx(exact, rel=1e-13)


@settings(max_examples=150, deadline=None)
@given(
    partitions(min_boxes=1, max_boxes=LEVEL_CAP),
    st.floats(min_value=1e-6, max_value=1.0 - 1e-9),
)
def test_float_measure_matches_exact(lam, q):
    # below the normal range a double resolves only absolute steps, so
    # the relative bound is taken against the smallest normal there
    exact = float(q_measure_exact(lam, Fraction(q)))
    assert q_measure(lam, QParam(q)) == pytest.approx(
        exact, rel=1e-12, abs=1e-12 * sys.float_info.min
    )
