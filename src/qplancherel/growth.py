"""Continuous deformation of diagrams and Monte Carlo of the rescaled process.

A diagram w with minima x_k grows continuously by attaching, above each
minimum, a square of area mu_k * t, where mu = (mu_1, ..., mu_{m+1}) are
the transition weights.  The deformed profile w_t has minima
{x_k - sqrt(mu_k t), x_k + sqrt(mu_k t)} and maxima given by all old
corners {x_k} union {y_j}.  In the q-bracket [d]_q = (1 - q^d) / (1 - q)
and with c = ln(1/q) / (1 - q), both of which tend to their classical
values d and 1 as q -> 1, its R-function obeys, at t = 0,

    d/dt R(x; q) = R(x; q) * c^2 * sum_k mu_k q^(x - x_k) / [x - x_k]_q^2,

and together with the x-derivative of the partial-fraction form this
gives the conservation law

    dR/dx + c^(-1) * R^(-1) * dR/dt = 0,

whose defect :func:`pde_residual` measures with dR/dt in the closed
form above (:func:`growth_derivative`) and dR/dx a central difference.
The Monte Carlo experiment runs the growth chain for n steps at parameter
q^(1/sqrt(n)), rescales the support by 1/sqrt(n), and compares the
Rayleigh moments at parameter q with the integrated moment flow.
:func:`mc_limit_experiment` is the one composition of that run, for the
library and the ``simulate`` command alike: the flow targets once, then
:func:`simulate_rescaled`, then :func:`report_from_samples`.

The chain runs in a corner walk that advances all trials of a run in
lockstep.  Each trial is a row over a window of contents holding the
corner kind (+1 at a minimum, -1 at a maximum, 0 elsewhere) and the
log-weight L[c] = sum_j T[c - y_j] - sum_i T[c - x_i], where
T[d] = log|[d]_q| and T[0] = 0; at a minimum, exp(L) is its transition
weight, at q = 1 as at q < 1.  Growing a box at the minimum c changes
the kinds by the stencil (+1, -2, +1) at c - 1, c, c + 1 whatever the
neighbors were, so L gains one fixed kernel
K[d] = 2 T[d] - T[d - 1] - T[d + 1] shifted to c.  T is built in log
space from [|d|]_q and the factor q^d of a negative d, so no power of q
overflows.

One loop, ``_LockstepWalk.run``, drives every step.  It takes a block
of uniforms, one row per step and one column per trial, and runs it in
stretches that end at the next window check or drift check, binding
its arrays once per stretch.  A step writes exp(L), capped, into one
preallocated scratch array, multiplies it by a float mask that is 1.0
at the minima and 0.0 elsewhere, and takes its running sum in place.
The pick is the inverse-CDF rule: the first minimum whose running sum
reaches u times the total.  Then one kernel row is added to L, and
three integer writes to ``kind`` and three writes to the mask follow.
The window doubles when a minimum comes within one column of its edge,
and then L is summed afresh from the corners.  Every 512 steps L is
also summed afresh and the normalized weights of both are compared: a
difference beyond rtol 1e-8 raises RuntimeError, otherwise the fresh
sums replace the incremental ones.  The walk's numpy exp, log and
matrix products reach an output only through its picks; the final
moments take libm's exp.  :func:`kernel.grow_trajectory` is the
reference chain: one trial at a time, every step's weights from the
product formula, bit for bit those of ``kernel.transition_weights``.  It
consumes the same variates and visits the same shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import dynamics, kernel
from .diagrams import InterlacingDiagram, Partition, from_interlacing
from .moments import _EXP_GUARD, MomentOverflowError, r_diagram
from .qmeasure import QParam, _bracket_table, _libm

# A full recompute of all weights every this many steps bounds the
# rounding drift of the incremental updates and cross-checks them.
_RECOMPUTE_EVERY = 512
_DRIFT_TOLERANCE = 1e-8
_INITIAL_WIDTH = 64
# Trials walked together, and steps of uniforms drawn at once per trial;
# both bound the memory of a run whatever its size.
_BATCH_TRIALS = 256
_UNIFORM_BLOCK = 4096
# Columns of the Toeplitz matrix of T materialized at once.
_TOEPLITZ_BLOCK = 128
_TINY = np.finfo(np.float64).tiny
_LOG_CAP = 700.0
# A Monte Carlo standard error this many ulp of the moment sums' scale
# (the mean of sum |terms|) or below is rounding, not sampling noise.
_ROUNDING_FLOOR_ULPS = 8
# Growing at c turns c into a maximum and c - 1, c + 1 into minima or
# plain columns: the same change of ``kind`` in every case.
_STENCIL_CELLS = np.array([-1, 0, 1])
_STENCIL = np.array([1, -2, 1], dtype=np.int8)


class DeformationError(ValueError):
    """The requested deformation time breaks the interlacing constraints."""


def _checked_weights(w: InterlacingDiagram, weights) -> tuple[float, ...]:
    weights = tuple(float(v) for v in weights)
    if len(weights) != len(w.minima):
        raise ValueError(
            f"need one weight per minimum ({len(w.minima)}), got {len(weights)}"
        )
    return weights


def deform(w: InterlacingDiagram, weights, t: float) -> InterlacingDiagram:
    """The diagram w_t: a square of area weights[k] * t above each minimum.

    Valid while sqrt(weights[k] * t) stays below the gap to the
    neighboring maxima and moves x_k in floating point; otherwise the
    profile is no longer a diagram and DeformationError is raised.  The
    area grows by exactly t when the weights sum to one.
    """
    weights = _checked_weights(w, weights)
    if any(v <= 0 for v in weights):
        raise ValueError(f"weights must be positive, got {weights}")
    if t <= 0:
        raise ValueError(f"deformation time must be positive, got {t}")
    x, y = w.minima, w.maxima
    new_minima = []
    for k, xk in enumerate(x):
        offset = math.sqrt(weights[k] * t)
        left_gap = xk - y[k - 1] if k > 0 else math.inf
        right_gap = y[k] - xk if k < len(y) else math.inf
        if offset >= left_gap or offset >= right_gap:
            raise DeformationError(
                f"time {t} is too large: offset {offset} at minimum {xk} "
                f"reaches a neighboring maximum"
            )
        if xk - offset == xk or xk + offset == xk:
            raise DeformationError(f"offset {offset} does not move minimum {xk}")
        new_minima.extend((xk - offset, xk + offset))
    return InterlacingDiagram(tuple(new_minima), tuple(sorted(x + y)))


def growth_derivative(
    w: InterlacingDiagram,
    qp: QParam,
    x: float,
    weights=None,
) -> float:
    """d/dt at t = 0 of the deformed R-function, in closed form.

    R c^2 sum_k mu_k q^d / [d]_q^2 with d = x - x_k.  At x = inf it is
    the limit 0, for every q.
    """
    if weights is None:
        weights = kernel.transition_weights(w, qp)
    weights = _checked_weights(w, weights)
    if x == math.inf:
        return 0.0
    try:
        total = math.fsum(
            v * math.exp(-(x - xk) * qp.log_inv) / qp.bracket(x - xk) ** 2
            for xk, v in zip(w.minima, weights)
        )
    except OverflowError:
        raise MomentOverflowError(
            f"q^d / [d]_q^2 at x = {x}, q = {qp.q} exceeds the floating-point range"
        ) from None
    return r_diagram(w, qp, x) * qp.c**2 * total


def pde_residual(
    w: InterlacingDiagram,
    qp: QParam,
    x: float,
    dx: float = 1e-5,
) -> float:
    """Defect |dR/dx + c^(-1) R^(-1) dR/dt| of the conservation law at x.

    dR/dt is :func:`growth_derivative`'s closed form and dR/dx the
    central difference of R at x +- dx, so the defect is that
    difference's O(dx^2) truncation plus its rounding.  The default
    dx = 1e-5 balances the two: on ``checks.pde_residual``'s cases the
    worst defect is ~1.3e-11, against ~2e-10 at 1e-6 and ~5e-10 at 1e-4.
    """
    dr_dx = (r_diagram(w, qp, x + dx) - r_diagram(w, qp, x - dx)) / (2.0 * dx)
    return abs(dr_dx + growth_derivative(w, qp, x) / (qp.c * r_diagram(w, qp, x)))


class _LockstepWalk:
    """Growth chains of several trials advanced in lockstep on one window.

    Row b of ``kind`` and ``log_weights`` is trial b over the contents
    ``lo .. lo + width - 1``; the module docstring gives the update.
    ``log_weights`` holds L[c] = -sum_e kind[e] T[c - e], the module's
    log-weight written as one sum over the corners.
    """

    def __init__(self, qp: QParam, trials: int) -> None:
        self.qp = qp
        self.lo = -_INITIAL_WIDTH // 2
        self.kind = np.zeros((trials, _INITIAL_WIDTH), dtype=np.int8)
        self.kind[:, -self.lo] = 1
        self._build_tables()
        self.log_weights = self._direct_log_weights()
        self._free = 0
        self._steps = 0

    @property
    def width(self) -> int:
        return self.kind.shape[1]

    def _build_tables(self) -> None:
        width = self.width
        d = np.arange(-width, width + 1)
        # T[d] = log|[d]_q| with T[0] = 0; [d]_q for d < 0 is
        # -q^d [|d|]_q, so its log stays finite
        brackets = np.array(_bracket_table(width, self.qp))
        brackets[0] = 1.0
        table = np.log(brackets[np.abs(d)]) + np.maximum(-d, 0) * self.qp.log_inv
        self._table = table[1:-1]  # T[d] for |d| < width
        kernel_row = 2.0 * table[1:-1] - table[:-2] - table[2:]
        # row c of this view is K[e - c] over the columns e
        self._kernel_rows = sliding_window_view(kernel_row, width)[::-1]
        # flat indices of the stencil around column 0 of each row
        rows = np.arange(len(self.kind))[:, None]
        self._stencil_cells = rows * width + _STENCIL_CELLS
        # 1.0 at the minima and 0.0 elsewhere, kept in step with kind
        self._minima = (self.kind == 1).astype(np.float64)
        self._scratch = np.empty(self.kind.shape)
        self._reached = np.empty(self.kind.shape, dtype=bool)

    def _direct_log_weights(self) -> np.ndarray:
        # the product formula in log space, summed afresh at every column
        width = self.width
        toeplitz = sliding_window_view(self._table, width)[::-1]  # T[c - e]
        kind = self.kind.astype(np.float64)
        out = np.empty(kind.shape)
        for first in range(0, width, _TOEPLITZ_BLOCK):
            block = slice(first, first + _TOEPLITZ_BLOCK)
            out[:, block] = kind @ np.ascontiguousarray(toeplitz[:, block])
        return -out

    def _fit_window(self) -> None:
        # Every minimum c must keep c - 1 and c + 1 inside the window.
        minima = self.kind == 1
        left = int(minima.argmax(axis=1).min())
        right = self.width - 1 - int(minima[:, ::-1].argmax(axis=1).min())
        if left < 1 or right > self.width - 2:
            a, b = self.lo + left, self.lo + right
            width = 2 * self.width
            # the support scales about content 0 as sqrt(steps), so the
            # spare columns go to each side in proportion to its extent
            spare = width - (b - a) - 1
            left_spare = min(max(round(spare * -a / (b - a)), 4), spare - 4)
            lo = a - left_spare
            kind = np.zeros((len(self.kind), width), dtype=np.int8)
            kind[:, a - lo : b - lo + 1] = self.kind[:, left : right + 1]
            self.lo = lo
            self.kind = kind
            self._build_tables()
            self.log_weights = self._direct_log_weights()
            left, right = a - lo, b - lo
        # minima move at most one column per step
        self._free = min(left, self.width - 1 - right)

    def run(self, uniforms: np.ndarray) -> None:
        """Grow one box per row of ``uniforms`` in every trial.

        ``uniforms[t, b]`` is trial b's uniform variate at step t.  The
        steps run in stretches that end at the next window check, the
        next drift check or the end of the input, so both checks fire at
        the same steps however the uniforms are split across calls.
        """
        done, total = 0, len(uniforms)
        while done < total:
            if self._free == 0:
                self._fit_window()
            stop = min(
                total,
                done + self._free,
                done + _RECOMPUTE_EVERY - self._steps % _RECOMPUTE_EVERY,
            )
            # _fit_window and _resync replace these arrays between stretches
            log_weights, kernel_rows = self.log_weights, self._kernel_rows
            mask, cells = self._minima, self._stencil_cells
            flat_kind, flat_mask = self.kind.reshape(-1), mask.reshape(-1)
            cumulative, reached = self._scratch, self._reached
            totals = cumulative[:, -1]
            for u in uniforms[done:stop]:
                # _minima_weights, written into the scratch, then its
                # running sum
                np.minimum(log_weights, _LOG_CAP, out=cumulative)
                np.exp(cumulative, out=cumulative)
                cumulative *= mask
                np.add.accumulate(cumulative, axis=1, out=cumulative)
                # first column whose running sum reaches u * total; u = 0
                # keeps the first minimum, as the inverse-CDF rule does
                threshold = np.maximum(u * totals, _TINY)
                np.greater_equal(cumulative, threshold[:, None], out=reached)
                pick = reached.argmax(axis=1)
                log_weights += kernel_rows[pick]
                grown = cells + pick[:, None]
                flat_kind[grown] += _STENCIL
                flat_mask[grown] = flat_kind[grown] == 1
            self._free -= stop - done
            self._steps += stop - done
            done = stop
            if self._steps % _RECOMPUTE_EVERY == 0:
                self._resync()

    def _resync(self) -> None:
        direct = self._direct_log_weights()
        exact = self._minima_weights(direct)
        drifted = self._minima_weights(self.log_weights)
        exact /= exact.sum(axis=1, keepdims=True)
        drifted /= drifted.sum(axis=1, keepdims=True)
        if not np.allclose(exact, drifted, rtol=_DRIFT_TOLERANCE, atol=1e-12):
            raise RuntimeError("incremental weights drifted from the product formula")
        self.log_weights = direct

    def _minima_weights(self, log_weights: np.ndarray) -> np.ndarray:
        # exp(L) at the minima and 0 elsewhere; the cap only guards columns
        # that are not minima, where L is not a log-probability
        return np.exp(np.minimum(log_weights, _LOG_CAP)) * self._minima

    def diagram(self, row: int) -> InterlacingDiagram:
        kind = self.kind[row]
        return InterlacingDiagram(
            tuple(int(v) + self.lo for v in np.flatnonzero(kind == 1)),
            tuple(int(v) + self.lo for v in np.flatnonzero(kind == -1)),
        )


def _rescaled_p_moments(
    diagrams: list[InterlacingDiagram], n_boxes: int, qp: QParam, n_max: int
) -> list[tuple[tuple[float, ...], tuple[float, ...]]]:
    # Rayleigh moments of each 1/sqrt(n) rescaled profile at parameter q,
    # and the sum of |terms| of each; the largest exponent sits at the
    # last minimum.
    scale = qp.log_inv / math.sqrt(n_boxes)
    if n_max * scale * max(w.minima[-1] for w in diagrams) > _EXP_GUARD:
        raise MomentOverflowError(
            f"rescaled Rayleigh moment p_{n_max} is outside floating-point "
            f"range at q = {qp.q}"
        )
    # row n - 1 holds q^(-n x / sqrt(n_boxes)) at the corners x of the batch,
    # each diagram's minima then its maxima: one libm map of its distinct x
    corners = [x for w in diagrams for x in w.minima + w.maxima]
    values, index = np.unique(corners, return_inverse=True)
    terms = _libm(math.exp, np.outer(np.arange(1, n_max + 1) * scale, values))[:, index]
    results, end = [], 0
    for w in diagrams:
        start, split, end = end, end + len(w.minima), end + len(w.minima + w.maxima)
        up = np.array([row[start:split].sum() for row in terms])
        down = np.array([row[split:end].sum() for row in terms])
        results.append((tuple((up - down).tolist()), tuple((up + down).tolist())))
    return results


@dataclass(frozen=True)
class TrajectorySample:
    """Final state of one simulated trajectory, already rescaled.

    ``abs_sums`` holds the sum of |terms| of each moment, the scale of
    its rounding.
    """

    trial: int
    shape: Partition
    moments: tuple[float, ...]
    abs_sums: tuple[float, ...]


@dataclass(frozen=True)
class McReport:
    """Simulated trajectories, their moment estimates and the flow targets."""

    samples: tuple[TrajectorySample, ...]
    means: tuple[float, ...]
    stderrs: tuple[float, ...]
    targets: tuple[float, ...]
    abs_sums: tuple[float, ...]

    def z_scores(self) -> tuple[float, ...]:
        """(mean - target) / stderr per moment.

        ``abs_sums`` is the trajectories' mean sum of |terms| of each
        moment, at least |mean|.  A standard error of at most 8 ulp of
        it, zero included, is the rounding floor of the moment sums
        rather than a sampling error, and gives inf.
        """
        return tuple(
            (m - t) / s if s > _ROUNDING_FLOOR_ULPS * math.ulp(a) else math.inf
            for m, s, t, a in zip(self.means, self.stderrs, self.targets, self.abs_sums)
        )


def simulate_rescaled(
    n_boxes: int,
    qp: QParam,
    trials: int,
    n_max: int,
    seed: int,
) -> list[TrajectorySample]:
    """Run ``trials`` growth chains of ``n_boxes`` steps at q^(1/sqrt(n)).

    Trials run together in batches of the corner walk, but each trial
    consumes its own generator stream (seed, trial index), one uniform
    per step, so results do not depend on the batching and reruns are
    identical.
    Returns the final shapes with their rescaled Rayleigh moments at
    parameter q.
    """
    if n_boxes < 1:
        raise ValueError(f"n_boxes must be positive, got {n_boxes}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    q_sim = QParam(qp.q ** (1.0 / math.sqrt(n_boxes)))
    samples = []
    for first in range(0, trials, _BATCH_TRIALS):
        batch = range(first, min(first + _BATCH_TRIALS, trials))
        walk = _LockstepWalk(q_sim, len(batch))
        rngs = [kernel.trajectory_rng(seed, trial) for trial in batch]
        for done in range(0, n_boxes, _UNIFORM_BLOCK):
            count = min(_UNIFORM_BLOCK, n_boxes - done)
            walk.run(np.array([rng.random(count) for rng in rngs]).T)
        diagrams = [walk.diagram(row) for row in range(len(batch))]
        moments = _rescaled_p_moments(diagrams, n_boxes, qp, n_max)
        for trial, w, (p, abs_sums) in zip(batch, diagrams, moments):
            samples.append(TrajectorySample(trial, from_interlacing(w), p, abs_sums))
    return samples


def report_from_samples(
    samples: list[TrajectorySample], targets: tuple[float, ...]
) -> McReport:
    """Aggregate already-simulated trajectories next to the flow ``targets``."""
    trials = len(samples)
    data = np.array([s.moments for s in samples])
    # Squares of moments past ~1e154 overflow, so each column is taken at
    # the power-of-two scale that puts its largest |value| in [0.5, 1).
    # The scaling is exact in the normal range, so results keep the bits
    # they have unscaled, and stderr^2 = sum (v - mean)^2 / (trials
    # (trials - 1)) is at most max v^2, so it scales back into range.
    exps = np.frexp(np.abs(data).max(axis=0))[1]
    data = np.ldexp(data, -exps)
    means = np.ldexp(data.mean(axis=0), exps)
    if trials > 1:
        stderrs = np.ldexp(data.std(axis=0, ddof=1) / math.sqrt(trials), exps)
    else:
        stderrs = np.zeros_like(means)
    abs_sums = np.array([s.abs_sums for s in samples]).mean(axis=0)
    return McReport(
        samples=tuple(samples),
        means=tuple(float(v) for v in means),
        stderrs=tuple(float(v) for v in stderrs),
        targets=tuple(targets),
        abs_sums=tuple(float(v) for v in abs_sums),
    )


def mc_limit_experiment(
    n_boxes: int,
    qp: QParam,
    trials: int,
    n_max: int,
    seed: int,
) -> McReport:
    """Monte Carlo check of the rescaled process against the moment flow.

    The flow targets are evaluated first, so a target beyond the double
    range raises MomentOverflowError before any trajectory is walked.
    """
    targets = dynamics.limit_moments(qp, n_max).values
    samples = simulate_rescaled(n_boxes, qp, trials, n_max, seed)
    return report_from_samples(samples, targets)
