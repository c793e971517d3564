"""Continuous deformation and the Monte Carlo limit experiment."""

import functools
import hashlib
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chisquare, ks_2samp

from qplancherel import kernel
from qplancherel.diagrams import (
    Partition,
    enumerate_level,
    from_interlacing,
    to_interlacing,
)
from qplancherel.growth import (
    _INITIAL_WIDTH,
    DeformationError,
    McReport,
    _LockstepWalk,
    deform,
    growth_derivative,
    mc_limit_experiment,
    pde_residual,
    simulate_rescaled,
)
from qplancherel.moments import (
    MomentOverflowError,
    r_diagram,
    r_measure,
    transition_measure,
)
from qplancherel.qmeasure import QParam, q_measure

from conftest import random_partitions
from oracles import geometric_word_shape


class TestDeform:
    def test_single_box_geometry(self):
        w = to_interlacing(Partition((1,)))
        out = deform(w, (1.0 / 3.0, 2.0 / 3.0), 0.09)
        s1, s2 = math.sqrt(0.03), math.sqrt(0.06)
        expected_minima = (-1.0 - s1, -1.0 + s1, 1.0 - s2, 1.0 + s2)
        for got, want in zip(out.minima, expected_minima):
            assert got == pytest.approx(want, abs=1e-12)
        assert out.maxima == (-1.0, 0.0, 1.0)

    def test_corner_counts_and_interlacing(self):
        w = to_interlacing(Partition((3, 1)))
        weights = kernel.transition_weights(w, QParam(0.5))
        d = deform(w, weights, 1e-3)
        assert len(d.minima) == 2 * len(w.minima)
        assert len(d.maxima) == len(d.minima) - 1

    def test_added_area_equals_time(self):
        qp = QParam(0.4)
        for parts in ((2, 1), (4, 2, 2, 1), ()):
            w = to_interlacing(Partition(parts))
            weights = kernel.transition_weights(w, qp)
            t = 0.04
            out = deform(w, weights, t)
            assert out.area - w.area == pytest.approx(t, abs=1e-12)

    def test_time_too_large_collides(self):
        w = to_interlacing(Partition((1,)))
        with pytest.raises(DeformationError):
            deform(w, (1.0 / 3.0, 2.0 / 3.0), 2.0)

    # the smallest weight (~1e-30, ~9e-71) moves its minimum by less than
    # half an ulp of the coordinate
    @pytest.mark.parametrize(
        "parts, q",
        [((7, 5, 5, 2, 1, 1), 1e-5), ((1,) * 70, 0.1)],
        ids=["7-5-5-2-1-1", "column70"],
    )
    def test_unresolved_offset_is_deformation_error(self, parts, q):
        w = to_interlacing(Partition(parts))
        with pytest.raises(DeformationError, match="does not move"):
            deform(w, kernel.transition_weights(w, QParam(q)), 0.05)

    def test_validation(self):
        w = to_interlacing(Partition((1,)))
        with pytest.raises(ValueError):
            deform(w, (1.0,), 0.01)  # wrong arity
        with pytest.raises(ValueError):
            deform(w, (0.5, -0.5), 0.01)
        with pytest.raises(ValueError):
            deform(w, (0.5, 0.5), 0.0)


class TestDeformedR:
    @pytest.mark.parametrize("t", [1e-3])
    def test_tends_to_classical_as_q_tends_to_one(self, t):
        # R of the deformed diagram w_t keeps the O(1 - q) approach to its
        # q = 1 value down to q = 1 - 1e-15 at non-integer corners
        w = to_interlacing(Partition((3, 1)))
        weights = kernel.transition_weights(w, QParam(1.0))
        w_t = deform(w, weights, t)
        x = w.support_max + 2.0
        classical = r_diagram(w_t, QParam(1.0), x)
        for k in range(4, 16):
            q = 1.0 - 10.0**-k
            gap = r_diagram(w_t, QParam(q), x) / classical - 1.0
            assert abs(gap) <= 10.0 * (1.0 - q) + 1e-13, q

    @pytest.mark.parametrize(
        "t,x,match",
        [(0.01, -200.0, r"\]_q at q = 0.001 exceeds")],  # the R-function's bracket
        ids=["bracket"],
    )
    def test_overflow_is_typed(self, t, x, match):
        w = to_interlacing(Partition((1,)))
        w_t = deform(w, (0.5, 0.5), t)
        with pytest.raises(MomentOverflowError, match=match):
            r_diagram(w_t, QParam(1e-3), x)


def _forward_difference(w, weights, qp, x, t=1e-4):
    # d/dt at t = 0 of R(w_t) by the forward 3-point difference; w_t is
    # a diagram only for t > 0
    r_t, r_2t = (r_diagram(deform(w, weights, s), qp, x) for s in (t, 2.0 * t))
    return (4.0 * r_t - r_2t - 3.0 * r_diagram(w, qp, x)) / (2.0 * t)


class TestGrowthDerivative:
    @pytest.mark.parametrize(
        "parts,x", [((1,), 5.0), ((), 4.0), ((3, 1, 1), 6.0)]
    )
    def test_matches_finite_difference(self, parts, x):
        qp = QParam(0.5)
        w = to_interlacing(Partition(parts))
        weights = kernel.transition_weights(w, qp)
        assert growth_derivative(w, qp, x, weights) == pytest.approx(
            _forward_difference(w, weights, qp, x), rel=1e-6
        )

    def test_vanishes_far_away(self):
        w = to_interlacing(Partition((2, 1)))
        assert abs(growth_derivative(w, QParam(0.5), 60.0)) < 1e-15

    def test_classical_finite_difference(self):
        qp = QParam(1.0)
        w = to_interlacing(Partition((1,)))
        weights = kernel.transition_weights(w, qp)
        assert growth_derivative(w, qp, 4.0) == pytest.approx(
            _forward_difference(w, weights, qp, 4.0), rel=1e-6
        )

    def test_tends_to_classical_as_q_tends_to_one(self):
        # q^d / [d]_q^2 and c^2 keep the O(1 - q) approach to the q = 1
        # value (a gap of about 2 (1 - q)) down to q = 1 - 1e-15
        w = to_interlacing(Partition((3, 1)))
        weights = kernel.transition_weights(w, QParam(1.0))
        x = w.support_max + 2.0
        classical = growth_derivative(w, QParam(1.0), x, weights)
        for k in range(4, 16):
            q = 1.0 - 10.0**-k
            gap = growth_derivative(w, QParam(q), x, weights) / classical - 1.0
            assert abs(gap) <= 10.0 * (1.0 - q) + 1e-13, q

    @pytest.mark.parametrize("x", [-200.0, -60.0])
    def test_overflow_is_typed(self, x):
        # q^d itself, then [d]_q^2, leave the double range below the support
        w = to_interlacing(Partition((1,)))
        with pytest.raises(MomentOverflowError, match=f"x = {x}, q = 0.001"):
            growth_derivative(w, QParam(1e-3), x)

    @pytest.mark.parametrize("q", [1e-3, 0.5, 1.0])
    @pytest.mark.parametrize("parts", [(), (2, 1)])
    def test_limits_at_infinity(self, parts, q):
        # R -> 1 - q, which is 0 at q = 1, and dR/dt -> 0; at q = 1 the
        # products formed inf / inf and q^d formed inf * 0
        qp = QParam(q)
        w = to_interlacing(Partition(parts))
        assert r_diagram(w, qp, math.inf) == qp.one_minus_q
        assert growth_derivative(w, qp, math.inf) == 0.0

    def test_wrong_weight_count_rejected(self):
        # (2, 1) has three minima; one weight must not be zipped silently
        w = to_interlacing(Partition((2, 1)))
        with pytest.raises(ValueError, match="one weight per minimum"):
            growth_derivative(w, QParam(0.5), 5.0, (1.0,))


class TestPdeResidual:
    def test_single_box_example(self):
        w = to_interlacing(Partition((1,)))
        assert pde_residual(w, QParam(0.5), 6.0, dx=1e-5) < 1e-5

    def test_empty_far_field(self):
        w = to_interlacing(Partition(()))
        assert pde_residual(w, QParam(0.5), 30.0) < 1e-8

    def test_random_diagrams_small_residual(self):
        qp = QParam(0.5)
        for lam in random_partitions(20, max_boxes=12, seed=5):
            w = to_interlacing(lam)
            x = w.minima[-1] + 2.5
            assert pde_residual(w, qp, x, dx=1e-5) < 1e-5

    def test_default_step_balances_rounding_and_truncation(self):
        # verify's cases: ~1.3e-11 at dx = 1e-5, against ~2.1e-10 at 1e-6
        # (the rounding of the R difference) and ~5.2e-10 at 1e-4 (the
        # O(dx^2) truncation)
        shapes = random_partitions(15, 15, seed=77)
        worst = max(
            pde_residual(w, QParam(q), w.support_max + 2.0)
            for q in (0.5, 0.8)
            for w in map(to_interlacing, shapes)
        )
        assert worst <= 3e-11

    def test_next_to_the_classical_case(self):
        w = to_interlacing(Partition((3, 1)))
        residual = pde_residual(w, QParam(1 - 1e-12), w.support_max + 2.0)
        assert math.isfinite(residual) and residual < 1e-5

    def test_second_order_convergence(self):
        # halving dx divides the defect by about 4
        qp = QParam(0.5)
        w = to_interlacing(Partition((2, 1)))
        x = 4.5
        coarse = pde_residual(w, qp, x, dx=2e-3)
        fine = pde_residual(w, qp, x, dx=1e-3)
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
            nu = kernel.transition_weights(deform(w, mu, t), qp)
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
            d = deform(w, mu, 0.02)
            measure = transition_measure(d, qp)
            for x in (d.minima[-1] + 2.0, d.minima[-1] + 3.5):
                assert abs(
                    r_diagram(d, qp, x) - r_measure(measure, qp, x)
                ) < 1e-9


def _walk_weights(walk, row):
    # normalized transition weights of trial ``row``, in minima order
    weights = np.exp(walk.log_weights[row][walk.kind[row] == 1])
    return weights / weights.sum()


def _walk(qp, streams, n, seed):
    # n lockstep steps, trial b driven by trajectory_rng(seed, streams[b])
    walk = _LockstepWalk(qp, len(streams))
    uniforms = [kernel.trajectory_rng(seed, s).random(n) for s in streams]
    walk.run(np.array(uniforms).T)
    return walk


class TestCornerWalk:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_chain(self, seed):
        # the incremental walk and the straightforward chain consume
        # the same variates and must visit the same shapes, down to a q
        # at which brackets of negative arguments leave the double range
        for q, n in ((0.55, 60), (1.0, 60), (0.05, 80), (1e-3, 80), (1e-8, 80)):
            qp = QParam(q)
            reference = kernel.grow_trajectory(n, qp, seed)
            walk = _walk(qp, [0], n, seed)
            assert from_interlacing(walk.diagram(0)) == reference.final

    def test_incremental_weights_match_product(self):
        qp = QParam(0.5)
        walk = _walk(qp, [0], 200, seed=7)
        direct = kernel.transition_weights(walk.diagram(0), qp)
        for a, b in zip(_walk_weights(walk, 0), direct):
            assert a == pytest.approx(b, abs=1e-10)

    def test_classical_weights_match_product(self):
        # at q = 1 the walk's weights are the classical Plancherel ones
        qp = QParam(1.0)
        walk = _walk(qp, [0], 300, seed=7)
        direct = kernel.transition_weights(walk.diagram(0), qp)
        for a, b in zip(_walk_weights(walk, 0), direct):
            assert a == pytest.approx(b, abs=1e-14)

    def test_regrown_window_matches_reference_chain(self):
        # 600 steps: the first rows outgrow the initial window twice at
        # q = 0.55 (once at q = 1, where the shape is balanced) and the
        # walk passes one drift check; every trial of the batch still
        # follows its own reference chain
        n = 600
        for q, outgrown in ((0.55, 2 * _INITIAL_WIDTH), (1.0, _INITIAL_WIDTH)):
            qp = QParam(q)
            walk = _walk(qp, range(3), n, seed=3)
            assert walk.width > outgrown
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
        clean.run(np.zeros((1, 2)))
        with pytest.raises(RuntimeError, match="drifted"):
            corrupted.run(np.zeros((1, 2)))

    @pytest.mark.parametrize("trials", [1, 3])
    def test_one_run_equals_single_steps(self, trials):
        # 1300 steps cross a window regrowth and the drift checks at 512
        # and 1024; the stretches of one run() leave every bit where
        # 1300 one-step calls leave it
        qp = QParam(0.55)
        whole = _walk(qp, range(trials), 1300, seed=3)
        stepped = _LockstepWalk(qp, trials)
        uniforms = [kernel.trajectory_rng(3, s).random(1300) for s in range(trials)]
        for u in np.array(uniforms).T:
            stepped.run(u[None, :])
        assert whole.width > _INITIAL_WIDTH
        assert whole.lo == stepped.lo
        assert whole.kind.tobytes() == stepped.kind.tobytes()
        assert whole.log_weights.tobytes() == stepped.log_weights.tobytes()

    def test_drift_check_inside_one_run(self):
        # a weight corrupted at step 300 of one run() call is caught by
        # the drift check at step 512 of the same call
        qp = QParam(0.99)
        walk = _LockstepWalk(qp, 2)
        uniforms = np.array([kernel.trajectory_rng(4, s).random(600) for s in range(2)]).T
        planted = []

        class Planting:
            # the rows of ``uniforms``, tilting trial 1's log-weights by
            # 1e-6 per column before step 300 runs
            def __len__(self):
                return len(uniforms)

            def __getitem__(self, block):
                for t in range(*block.indices(len(uniforms))):
                    if t == 300:
                        walk.log_weights[1] += 1e-6 * np.arange(walk.width)
                        planted.append(walk.width)
                    yield uniforms[t]

        with pytest.raises(RuntimeError, match="drifted"):
            walk.run(Planting())
        # the window did not regrow in between, which would have summed
        # the weights afresh
        assert planted == [walk.width]
        assert walk._steps == 512
        _walk(qp, range(2), 600, seed=4)  # the same steps, uncorrupted


def _statistics(shapes):
    return tuple(s.parts[0] for s in shapes), tuple(len(s.parts) for s in shapes)


@functools.cache
def _rsk_statistics(n, q, words=400):
    rng = np.random.default_rng(1)
    return _statistics([geometric_word_shape(n, q, rng) for _ in range(words)])


def _walk_statistics(n, q, trials=400):
    # simulate_rescaled runs the chain at (q^sqrt(n))^(1/sqrt(n)) = q
    samples = simulate_rescaled(n, QParam(q ** math.sqrt(n)), trials, 1, seed=5)
    return _statistics([s.shape for s in samples])


class TestMajOracle:
    """The walk's level-n shapes against RSK shapes of geometric words.

    RSK of n i.i.d. letters with P(k) proportional to q^k has the
    q-Plancherel law at level n exactly, as the q^MAJ push-forward does,
    so this is an independent route to the measure at sizes exhaustive
    push-forward cannot reach.  It also sees the walk at q = 1, where
    every Rayleigh moment is exactly 1 and the Monte Carlo gate cannot.
    """

    @pytest.mark.parametrize("q", [0.4, 1.0])
    def test_word_shapes_follow_q_measure(self, q):
        # chi^2 at level 6; the rarest shapes share one bin of at least
        # 5 expected counts
        rng = np.random.default_rng(1)
        words = 10_000
        counts = Counter(geometric_word_shape(6, q, rng) for _ in range(words))
        qp = QParam(q)
        shapes = sorted(enumerate_level(6), key=lambda lam: q_measure(lam, qp))
        expected = [words * q_measure(lam, qp) for lam in shapes]
        observed = [counts[lam] for lam in shapes]
        k = next(i for i, e in enumerate(itertools.accumulate(expected)) if e >= 5)
        observed = [sum(observed[: k + 1])] + observed[k + 1 :]
        expected = [sum(expected[: k + 1])] + expected[k + 1 :]
        assert sum(observed) == words
        assert chisquare(observed, expected).pvalue > 0.001

    @pytest.mark.parametrize("n,q", [(50, 0.8), (200, 0.95), (200, 1.0)])
    def test_walk_shapes_match_rsk_shapes(self, n, q):
        for ours, theirs in zip(_walk_statistics(n, q), _rsk_statistics(n, q)):
            assert ks_2samp(ours, theirs).pvalue > 0.001

    @pytest.mark.parametrize("rescaled_q", [0.5, 1.0])
    def test_walk_shapes_match_rsk_shapes_at_2500_boxes(self, rescaled_q):
        q = rescaled_q ** (1 / 50)
        walk, words = _walk_statistics(2500, q, 200), _rsk_statistics(2500, q, 150)
        for ours, theirs in zip(walk, words):
            assert ks_2samp(ours, theirs).pvalue > 0.001

    def test_comparison_rejects_shifted_parameter(self):
        # the test has power: at 200 boxes, q off by 3% is rejected
        first_rows, _ = _walk_statistics(200, 0.97 * 0.95)
        assert ks_2samp(first_rows, _rsk_statistics(200, 0.95)[0]).pvalue < 1e-6


# the shapes and the bits of every moment of these runs (boxes, q, trials,
# n_max, seed), as recorded with libm's exp: a change that moves one bit
# of the walk's output fails here, which a rerun of the same code cannot
# show
FROZEN_OUTPUTS = [
    # two window regrowths and three drift checks
    (2000, 0.5, 3, 3, 11, "3ac7da9951f04463ca666a37db2ba20f0dbdbb2ead4e1c6880f4530afc75e668"),
    (100, 0.5, 100, 3, 12, "82edf45e8e12c937cf327515c2a94351e676eb9c03a11eccb1aabb9f6479ccde"),
    (600, 1.0, 4, 2, 13, "fe810417f09f262752767aa86acb164daabcbf7c5c8bed55cdba519cd0fb5ac9"),
    (80, 1e-30, 2, 1, 14, "05601fd2ae930b8acaae1cca9733bb51e035a7ed1101cf6d85af8735e279b88f"),
]


def frozen_output_digest(n: int, q: float, trials: int, n_max: int, seed: int) -> str:
    samples = simulate_rescaled(n, QParam(q), trials, n_max, seed)
    text = repr([(s.trial, s.shape.parts, s.moments, s.abs_sums) for s in samples])
    return hashlib.sha256(text.encode()).hexdigest()


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

    @pytest.mark.parametrize("n, q, trials, n_max, seed, digest", FROZEN_OUTPUTS)
    def test_output_is_frozen(self, n, q, trials, n_max, seed, digest):
        assert frozen_output_digest(n, q, trials, n_max, seed) == digest

    def test_moment_beyond_double_range_raises(self):
        # q^(-2 x) at the last minimum is past exp(700) here; p_1 is not
        with pytest.raises(MomentOverflowError, match="p_2 .* q = 1e-30"):
            simulate_rescaled(100, QParam(1e-30), 2, 2, 0)
        (sample,) = simulate_rescaled(100, QParam(1e-30), 1, 1, 0)
        assert math.isfinite(sample.moments[0])


class TestMcLimitExperiment:
    def test_report_is_reproducible(self):
        qp = QParam(0.5)
        a = mc_limit_experiment(40, qp, trials=3, n_max=2, seed=9)
        b = mc_limit_experiment(40, qp, trials=3, n_max=2, seed=9)
        assert a == b

    def test_single_trial_has_zero_stderr(self):
        report = mc_limit_experiment(30, QParam(0.5), 1, 2, seed=3)
        assert report.stderrs == (0.0, 0.0)
        assert all(math.isinf(z) or z == 0.0 for z in report.z_scores())

    def test_rounding_floor_stderr_gives_infinite_z(self):
        # near q = 1 every trajectory's moments agree to rounding: a
        # standard error of about 3 ulp carries no sampling information
        mean = 1.0000000000009994
        report = McReport(
            samples=(),
            means=(mean, 2.0),
            stderrs=(3 * math.ulp(mean), 0.5),
            targets=(1.000000000001, 2.5),
            abs_sums=(mean, 2.0),
        )
        z = report.z_scores()
        assert math.isinf(z[0])
        assert z[1] == pytest.approx(-1.0)

    def test_rounding_floor_scales_with_the_moment_sums(self):
        # at q = 1 - 1e-6 each moment is a sum over ~220 corner terms
        # near 1; its rounding, not sampling, sets the standard error
        report = mc_limit_experiment(10000, QParam(0.999999), 4, 2, 0)
        assert all(a > 100 * abs(m) for m, a in zip(report.means, report.abs_sums))
        assert all(math.isinf(z) for z in report.z_scores())

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
