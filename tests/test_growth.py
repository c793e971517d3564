"""Continuous deformation and the Monte Carlo limit experiment."""

import functools
import itertools
import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from qplancherel import kernel, rsk
from qplancherel.diagrams import Partition, from_interlacing, to_interlacing
from qplancherel.growth import (
    _INITIAL_WIDTH,
    DeformationError,
    _LockstepWalk,
    deform,
    deformed_r,
    growth_derivative,
    mc_limit_experiment,
    pde_residual,
    simulate_rescaled,
)
from qplancherel.moments import r_diagram, r_measure, transition_measure
from qplancherel.qmeasure import QParam

from conftest import random_partitions


class TestDeform:
    def test_single_box_geometry(self):
        w = to_interlacing(Partition((1,)))
        out = deform(w, (1.0 / 3.0, 2.0 / 3.0), 0.09)
        s1, s2 = math.sqrt(0.03), math.sqrt(0.06)
        expected_minima = (-1.0 - s1, -1.0 + s1, 1.0 - s2, 1.0 + s2)
        for got, want in zip(out.diagram.minima, expected_minima):
            assert got == pytest.approx(want, abs=1e-12)
        assert out.diagram.maxima == (-1.0, 0.0, 1.0)

    def test_corner_counts_and_interlacing(self):
        w = to_interlacing(Partition((3, 1)))
        weights = kernel.transition_weights(w, QParam(0.5))
        out = deform(w, weights, 1e-3)
        d = out.diagram
        assert len(d.minima) == 2 * len(w.minima)
        assert len(d.maxima) == len(d.minima) - 1

    def test_added_area_equals_time(self):
        qp = QParam(0.4)
        for parts in ((2, 1), (4, 2, 2, 1), ()):
            w = to_interlacing(Partition(parts))
            weights = kernel.transition_weights(w, qp)
            t = 0.04
            out = deform(w, weights, t)
            assert out.diagram.area - w.area == pytest.approx(t, abs=1e-12)

    def test_time_too_large_collides(self):
        w = to_interlacing(Partition((1,)))
        with pytest.raises(DeformationError):
            deform(w, (1.0 / 3.0, 2.0 / 3.0), 2.0)

    def test_validation(self):
        w = to_interlacing(Partition((1,)))
        with pytest.raises(ValueError):
            deform(w, (1.0,), 0.01)  # wrong arity
        with pytest.raises(ValueError):
            deform(w, (0.5, -0.5), 0.01)
        with pytest.raises(ValueError):
            deform(w, (0.5, 0.5), 0.0)


class TestDeformedR:
    def test_matches_deformed_diagram(self):
        # the closed form and the R-function of the actual deformed
        # diagram are the same function
        qp = QParam(0.6)
        w = to_interlacing(Partition((2, 1)))
        weights = kernel.transition_weights(w, qp)
        t = 0.01
        out = deform(w, weights, t)
        for x in (3.0, 4.5, 7.0):
            assert deformed_r(w, weights, t, qp, x) == pytest.approx(
                r_diagram(out.diagram, qp, x), rel=1e-12
            )

    def test_continuity_at_zero_time(self):
        qp = QParam(0.5)
        w = to_interlacing(Partition((2,)))
        weights = kernel.transition_weights(w, qp)
        base = r_diagram(w, qp, 4.0)
        for t in (1e-4, 1e-7):
            drift = deformed_r(w, weights, t, qp, 4.0) - base
            assert abs(drift) < 10.0 * t
        # the analytic continuation to negative time is just as close
        assert deformed_r(w, weights, -1e-7, qp, 4.0) == pytest.approx(
            base, rel=1e-6
        )

    def test_classical_parameter(self):
        w = to_interlacing(Partition((1,)))
        qp = QParam(1.0)
        weights = kernel.transition_weights(w, qp)
        t = 0.01
        out = deform(w, weights, t)
        assert deformed_r(w, weights, t, qp, 5.0) == pytest.approx(
            r_diagram(out.diagram, qp, 5.0), rel=1e-12
        )


class TestGrowthDerivative:
    @pytest.mark.parametrize(
        "parts,x", [((1,), 5.0), ((), 4.0), ((3, 1, 1), 6.0)]
    )
    def test_matches_finite_difference(self, parts, x):
        qp = QParam(0.5)
        w = to_interlacing(Partition(parts))
        weights = kernel.transition_weights(w, qp)
        t = 1e-6
        fd = (
            deformed_r(w, weights, t, qp, x)
            - deformed_r(w, weights, -t, qp, x)
        ) / (2.0 * t)
        assert growth_derivative(w, qp, x, weights) == pytest.approx(
            fd, rel=1e-6
        )

    def test_vanishes_far_away(self):
        w = to_interlacing(Partition((2, 1)))
        assert abs(growth_derivative(w, QParam(0.5), 60.0)) < 1e-15

    def test_classical_finite_difference(self):
        qp = QParam(1.0)
        w = to_interlacing(Partition((1,)))
        weights = kernel.transition_weights(w, qp)
        t = 1e-7
        fd = (
            deformed_r(w, weights, t, qp, 4.0)
            - deformed_r(w, weights, -t, qp, 4.0)
        ) / (2.0 * t)
        assert growth_derivative(w, qp, 4.0) == pytest.approx(fd, rel=1e-6)


class TestPdeResidual:
    def test_single_box_example(self):
        w = to_interlacing(Partition((1,)))
        assert pde_residual(w, QParam(0.5), 6.0, dt=1e-5, dx=1e-5) < 1e-5

    def test_empty_far_field(self):
        w = to_interlacing(Partition(()))
        assert pde_residual(w, QParam(0.5), 30.0) < 1e-8

    def test_random_diagrams_small_residual(self):
        qp = QParam(0.5)
        for lam in random_partitions(20, max_boxes=12, seed=5):
            w = to_interlacing(lam)
            x = w.minima[-1] + 2.5
            assert pde_residual(w, qp, x, dt=1e-5, dx=1e-5) < 1e-5

    def test_second_order_convergence(self):
        # halving both steps divides the defect by about 4
        qp = QParam(0.5)
        w = to_interlacing(Partition((2, 1)))
        x = 4.5
        coarse = pde_residual(w, qp, x, dt=2e-3, dx=2e-3)
        fine = pde_residual(w, qp, x, dt=1e-3, dx=1e-3)
        order = math.log2(coarse / fine)
        assert 1.7 <= order <= 2.3


class TestWeightSplitting:
    @pytest.mark.parametrize("parts", [(1,), (2, 1), (4, 2, 1)])
    def test_deformed_weights_pair_up(self, parts):
        # each old minimum splits in two; the pair of new transition
        # weights merges back to the old weight as t -> 0, linearly
        qp = QParam(0.5)
        w = to_interlacing(Partition(parts))
        mu = kernel.transition_weights(w, qp)

        def paired(t):
            nu = kernel.transition_weights(deform(w, mu, t).diagram, qp)
            return [nu[2 * k] + nu[2 * k + 1] for k in range(len(mu))]

        t1, t2 = 1e-4, 1e-6
        v1, v2 = paired(t1), paired(t2)
        for k in range(len(mu)):
            extrapolated = (t1 * v2[k] - t2 * v1[k]) / (t1 - t2)
            assert abs(extrapolated - mu[k]) < 1e-5


class TestRIdentityPreservation:
    def test_deformed_diagram_keeps_measure_identity(self):
        # R of the deformed diagram still equals R of its own
        # transition measure: the deformation stays inside the class
        qp = QParam(0.5)
        for parts in ((1,), (2, 1), (3, 3, 1)):
            w = to_interlacing(Partition(parts))
            mu = kernel.transition_weights(w, qp)
            d = deform(w, mu, 0.02).diagram
            measure = transition_measure(d, qp)
            for x in (d.minima[-1] + 2.0, d.minima[-1] + 3.5):
                assert abs(
                    r_diagram(d, qp, x) - r_measure(measure, qp, x)
                ) < 1e-9


def _walk(qp, streams, n, seed):
    # n lockstep steps, trial b driven by trajectory_rng(seed, streams[b])
    walk = _LockstepWalk(qp, len(streams))
    uniforms = [kernel.trajectory_rng(seed, s).random(n) for s in streams]
    for u in np.array(uniforms).T:
        walk.step(u)
    return walk


class TestCornerWalk:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_chain(self, seed):
        # the incremental walk and the straightforward chain consume
        # the same variates and must visit the same shapes
        qp = QParam(0.55)
        n = 60
        reference = kernel.grow_trajectory(n, qp, seed)
        walk = _walk(qp, [0], n, seed)
        assert from_interlacing(walk.diagram(0)) == reference.final

    def test_incremental_weights_match_product(self):
        qp = QParam(0.5)
        walk = _walk(qp, [0], 200, seed=7)
        direct = kernel.transition_weights(walk.diagram(0), qp)
        for a, b in zip(walk.weights(0), direct):
            assert a == pytest.approx(b, abs=1e-10)

    def test_classical_parameter_rejected(self):
        with pytest.raises(ValueError):
            _LockstepWalk(QParam(1.0), 1)

    def test_regrown_window_matches_reference_chain(self):
        # 600 steps: the first rows outgrow the initial window twice and
        # the walk passes one drift check; every trial of the batch still
        # follows its own reference chain
        qp = QParam(0.55)
        n = 600
        walk = _walk(qp, range(3), n, seed=3)
        assert walk.width > 2 * _INITIAL_WIDTH
        for stream in range(3):
            reference = kernel.grow_trajectory(n, qp, 3, stream)
            assert from_interlacing(walk.diagram(stream)) == reference.final

    def test_drift_check_catches_corrupted_weight(self):
        qp = QParam(0.5)
        clean, corrupted = (_walk(qp, range(2), 511, seed=4) for _ in range(2))
        # corrupt the heaviest minimum other than the leftmost, which
        # u = 0 grows, so the corrupted cell is still a minimum when the
        # check runs after step 512
        cells = np.flatnonzero(corrupted.kind[1] == 1)[1:]
        cell = cells[np.argmax(corrupted.log_weights[1, cells])]
        corrupted.log_weights[1, cell] += 1e-6
        clean.step(np.zeros(2))
        with pytest.raises(RuntimeError, match="drifted"):
            corrupted.step(np.zeros(2))


def _maj_slot(perm, k):
    # The slot (insert before index s) at which the value len(perm) + 1
    # raises MAJ by k: the last slot by 0, the descent slots right to
    # left by 1..d, the other slots left to right by d + 1..len(perm).
    i = len(perm) + 1
    if k == 0:
        return i - 1
    descents = [s for s in range(1, i - 1) if perm[s - 1] > perm[s]]
    if k <= len(descents):
        return descents[-k]
    others = [s for s in range(i - 1) if s not in descents]
    return others[k - len(descents) - 1]


def _maj_biased_permutation(n, q, rng):
    # Insert 1..n in turn; Z_i = sum_{k<i} q^k factors the q^MAJ mass,
    # so a truncated-geometric increment per insertion samples q^MAJ.
    perm = []
    log_q = math.log(q)
    for i in range(1, n + 1):
        u = rng.random()
        k = int(math.log1p(u * math.expm1(i * log_q)) / log_q)
        perm.insert(_maj_slot(perm, min(k, i - 1)), i)
    return tuple(perm)


def _statistics(shapes):
    return tuple(s.parts[0] for s in shapes), tuple(len(s.parts) for s in shapes)


@functools.cache
def _rsk_statistics(n, q):
    rng = np.random.default_rng(1)
    return _statistics(
        [rsk._insertion_shape(_maj_biased_permutation(n, q, rng)) for _ in range(400)]
    )


def _walk_statistics(n, q):
    # simulate_rescaled runs the chain at (q^sqrt(n))^(1/sqrt(n)) = q
    samples = simulate_rescaled(n, QParam(q ** math.sqrt(n)), 400, 1, seed=5)
    return _statistics([s.shape for s in samples])


class TestMajOracle:
    """The walk's level-n shapes against RSK shapes of q^MAJ permutations.

    An independent route to the q-Plancherel measure at sizes exhaustive
    push-forward cannot reach.
    """

    @pytest.mark.parametrize("n", range(1, 9))
    def test_slot_labelling_matches_maj(self, n):
        for perm in itertools.permutations(range(1, n)):
            base = rsk.maj(perm) if perm else 0
            slots = set()
            for k in range(n):
                s = _maj_slot(perm, k)
                assert rsk.maj(perm[:s] + (n,) + perm[s:]) - base == k
                slots.add(s)
            assert len(slots) == n

    @pytest.mark.parametrize("n,q", [(50, 0.8), (200, 0.95)])
    def test_walk_shapes_match_rsk_shapes(self, n, q):
        for ours, theirs in zip(_walk_statistics(n, q), _rsk_statistics(n, q)):
            assert ks_2samp(ours, theirs).pvalue > 0.001

    def test_comparison_rejects_shifted_parameter(self):
        # the test has power: at 200 boxes, q off by 3% is rejected
        first_rows, _ = _walk_statistics(200, 0.97 * 0.95)
        assert ks_2samp(first_rows, _rsk_statistics(200, 0.95)[0]).pvalue < 1e-6


class TestSimulateRescaled:
    def test_deterministic_and_order_independent(self):
        qp = QParam(0.5)
        a = simulate_rescaled(50, qp, trials=4, n_max=2, seed=11)
        b = simulate_rescaled(50, qp, trials=4, n_max=2, seed=11)
        assert a == b
        # per-trial streams: a longer run shares its leading trials
        c = simulate_rescaled(50, qp, trials=6, n_max=2, seed=11)
        assert c[:4] == a

    def test_moments_computed_at_target_parameter(self):
        # a 1-step trajectory is the single box; check the rescaled
        # p-moment against the hand value
        qp = QParam(0.5)
        (sample,) = simulate_rescaled(1, qp, trials=1, n_max=1, seed=0)
        assert sample.shape == Partition((1,))
        scale = qp.log_inv  # 1/sqrt(1) = 1
        expected = (
            math.exp(scale * -1) + math.exp(scale * 1) - math.exp(0.0)
        )
        assert sample.moments[0] == pytest.approx(expected, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_rescaled(0, QParam(0.5), 1, 1, 0)
        with pytest.raises(ValueError):
            simulate_rescaled(5, QParam(0.5), 0, 1, 0)


class TestMcLimitExperiment:
    def test_report_is_reproducible(self):
        qp = QParam(0.5)
        a = mc_limit_experiment(40, qp, trials=3, n_max=2, seed=9)
        b = mc_limit_experiment(40, qp, trials=3, n_max=2, seed=9)
        assert a == b
        assert a.to_dict() == b.to_dict()

    def test_single_trial_has_zero_stderr(self):
        report = mc_limit_experiment(30, QParam(0.5), 1, 2, seed=3)
        assert report.stderrs == (0.0, 0.0)
        assert all(math.isinf(z) or z == 0.0 for z in report.z_scores())

    def test_moderate_run_is_consistent(self):
        # small n has an O(n^{-1/2}) bias, so allow a generous band;
        # this is a smoke test, the tight one is in the acceptance suite
        report = mc_limit_experiment(400, QParam(0.5), trials=64, n_max=2, seed=1)
        for mean, target in zip(report.means, report.targets):
            assert mean == pytest.approx(target, rel=0.15)

    def test_seed_blocks_same_distribution(self):
        # two disjoint seed blocks: the first moments should be draws
        # from one distribution (two-sample KS smoke test)
        qp = QParam(0.5)
        block_a = simulate_rescaled(256, qp, trials=50, n_max=1, seed=101)
        block_b = simulate_rescaled(256, qp, trials=50, n_max=1, seed=202)
        stat = ks_2samp(
            [s.moments[0] for s in block_a],
            [s.moments[0] for s in block_b],
        )
        assert stat.pvalue > 0.001
