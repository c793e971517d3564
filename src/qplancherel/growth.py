"""Continuous deformation of diagrams and Monte Carlo of the rescaled process.

A diagram w with minima x_k grows continuously by attaching, above each
minimum, a square of area mu_k * t, where mu = (mu_1, ..., mu_{m+1}) are
the transition weights.  The deformed profile w_t has minima
{x_k - sqrt(mu_k t), x_k + sqrt(mu_k t)} and maxima given by all old
corners {x_k} union {y_j}.  Its R-function obeys, at t = 0,

    d/dt R(x; q) = R(x; q) * ln^2(1/q) * sum_k mu_k q^(x - x_k)
                                               / (1 - q^(x - x_k))^2,

and together with the x-derivative of the partial-fraction form this
gives the conservation law

    dR/dx + (1 - q) / ln(1/q) * R^(-1) * dR/dt = 0,

whose finite-difference defect :func:`pde_residual` measures.  The
Monte Carlo experiment runs the growth chain for n steps at parameter
q^(1/sqrt(n)), rescales the support by 1/sqrt(n), and compares the
Rayleigh moments at parameter q with the integrated moment flow.

The chain runs in a corner walk that advances all trials of a run in
lockstep.  Each trial is a row over a window of contents holding the
corner kind (+1 at a minimum, -1 at a maximum, 0 elsewhere) and the
log-weight L[c] = sum_j T[c - y_j] - sum_i T[c - x_i], where
T[d] = log|1 - q^d| and T[0] = 0; at a minimum, exp(L) is its transition
weight.  Growing a box at the minimum c changes the kinds by the stencil
(+1, -2, +1) at c - 1, c, c + 1 whatever the neighbors were, so L gains
one fixed kernel K[d] = 2 T[d] - T[d - 1] - T[d + 1] shifted to c.  A
step is therefore a masked exp and cumsum per row, an inverse-CDF pick
(the first minimum whose running sum reaches u times the total), one
row add and three integer writes.  T is built in log space, so no power
of q overflows.  The window doubles when a minimum comes within one
column of its edge, and then L is summed afresh from the corners.  Every
512 steps L is also summed afresh and the normalized weights of both are
compared: a difference beyond rtol 1e-8 raises RuntimeError, otherwise
the fresh sums replace the incremental ones.  :func:`kernel.grow_trajectory`
is the slow reference chain; it consumes the same variates and visits
the same shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import dynamics, kernel
from .diagrams import InterlacingDiagram, Partition, from_interlacing
from .moments import r_diagram
from .qmeasure import QParam, one_minus_qpow

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
# Growing at c turns c into a maximum and c - 1, c + 1 into minima or
# plain columns: the same change of ``kind`` in every case.
_STENCIL_CELLS = np.array([-1, 0, 1])
_STENCIL = np.array([1, -2, 1], dtype=np.int8)


class DeformationError(ValueError):
    """The requested deformation time breaks the interlacing constraints."""


@dataclass(frozen=True)
class DeformedDiagram:
    """The diagram w_t grown from ``base`` for time ``t`` with given weights."""

    base: InterlacingDiagram
    weights: tuple[float, ...]
    t: float
    diagram: InterlacingDiagram


def deform(
    w: InterlacingDiagram, weights, t: float
) -> DeformedDiagram:
    """Attach squares of area weights[k] * t above each minimum of ``w``.

    Valid while sqrt(weights[k] * t) stays below the gap to the
    neighboring maxima; beyond that the profile is no longer a diagram
    and DeformationError is raised.  The area grows by exactly t when
    the weights sum to one.
    """
    weights = tuple(float(v) for v in weights)
    if len(weights) != len(w.minima):
        raise ValueError(
            f"need one weight per minimum ({len(w.minima)}), got {len(weights)}"
        )
    if any(v <= 0 for v in weights):
        raise ValueError(f"weights must be positive, got {weights}")
    if t <= 0:
        raise ValueError(f"deformation time must be positive, got {t}")
    x = w.minima
    y = w.maxima
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
        new_minima.extend((xk - offset, xk + offset))
    new_maxima = sorted(x + y)
    return DeformedDiagram(
        w, weights, float(t), InterlacingDiagram(tuple(new_minima), tuple(new_maxima))
    )


def deformed_r(
    w: InterlacingDiagram,
    weights,
    t: float,
    qp: QParam,
    x: float,
) -> float:
    """R-function of the deformed diagram w_t at ``x`` above the support.

    Written through cosh(sqrt(mu_k t) ln(1/q)) this expression is
    analytic in t, so negative t evaluates its continuation; that is
    what the central finite differences of :func:`pde_residual` use.
    """
    weights = tuple(float(v) for v in weights)
    if len(weights) != len(w.minima):
        raise ValueError(
            f"need one weight per minimum ({len(w.minima)}), got {len(weights)}"
        )
    base = r_diagram(w, qp, x)
    value = base
    if qp.is_classical:
        for k, xk in enumerate(w.minima):
            d = x - xk
            value *= d * d / (d * d - weights[k] * t)
        return value
    rho = qp.log_inv
    for k, xk in enumerate(w.minima):
        d = x - xk
        qd = math.exp(-d * rho)
        arg = weights[k] * t
        if arg >= 0:
            hump = math.cosh(math.sqrt(arg) * rho)
        else:
            hump = math.cos(math.sqrt(-arg) * rho)
        pair = 1.0 + qd * qd - 2.0 * qd * hump
        value *= (1.0 - qd) ** 2 / pair
    return value


def growth_derivative(
    w: InterlacingDiagram,
    qp: QParam,
    x: float,
    weights=None,
) -> float:
    """d/dt at t = 0 of the deformed R-function, in closed form."""
    if weights is None:
        weights = kernel.transition_weights(w, qp)
    base = r_diagram(w, qp, x)
    if qp.is_classical:
        total = math.fsum(
            v / (x - xk) ** 2 for xk, v in zip(w.minima, weights)
        )
        return base * total
    rho = qp.log_inv
    total = math.fsum(
        v * math.exp(-(x - xk) * rho) / one_minus_qpow(qp, x - xk) ** 2
        for xk, v in zip(w.minima, weights)
    )
    return base * rho * rho * total


def pde_residual(
    w: InterlacingDiagram,
    qp: QParam,
    x: float,
    dt: float = 1e-6,
    dx: float = 1e-5,
) -> float:
    """Central-difference defect of dR/dx + (1-q)/ln(1/q) R^(-1) dR/dt."""
    weights = kernel.transition_weights(w, qp)
    r_here = r_diagram(w, qp, x)
    dr_dt = (
        deformed_r(w, weights, dt, qp, x) - deformed_r(w, weights, -dt, qp, x)
    ) / (2.0 * dt)
    dr_dx = (r_diagram(w, qp, x + dx) - r_diagram(w, qp, x - dx)) / (2.0 * dx)
    scale = 1.0 if qp.is_classical else (1.0 - qp.q) / qp.log_inv
    return abs(dr_dx + scale * dr_dt / r_here)


class _LockstepWalk:
    """Growth chains of several trials advanced in lockstep on one window.

    Row b of ``kind`` and ``log_weights`` is trial b over the contents
    ``lo .. lo + width - 1``; the module docstring gives the update.
    ``log_weights`` holds L[c] = -sum_e kind[e] T[c - e], the module's
    log-weight written as one sum over the corners.
    """

    def __init__(self, qp: QParam, trials: int) -> None:
        if qp.is_classical:
            raise ValueError("the corner walk runs at q in (0, 1)")
        self.rho = qp.log_inv
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
        # 1 - q^d for d < 0 is -q^d (1 - q^|d|); its log stays finite
        with np.errstate(divide="ignore"):
            table = np.log(-np.expm1(-np.abs(d) * self.rho))
        table += np.maximum(-d, 0) * self.rho
        table[width] = 0.0
        self._table = table[1:-1]  # T[d] for |d| < width
        kernel_row = 2.0 * table[1:-1] - table[:-2] - table[2:]
        # row c of this view is K[e - c] over the columns e
        self._kernel_rows = sliding_window_view(kernel_row, width)[::-1]
        self._row_starts = np.arange(len(self.kind))[:, None] * width

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

    def step(self, u: np.ndarray) -> None:
        """Grow one box in every trial; ``u[b]`` is trial b's uniform variate."""
        if self._free == 0:
            self._fit_window()
        weights = _minima_weights(self.log_weights, self.kind)
        cumulative = np.cumsum(weights, axis=1)
        # first column whose running sum reaches u * total; u = 0 keeps
        # the first minimum, as the inverse-CDF rule does
        threshold = np.maximum(u * cumulative[:, -1], _TINY)
        pick = np.argmax(cumulative >= threshold[:, None], axis=1)
        self.log_weights += self._kernel_rows[pick]
        cells = self._row_starts + pick[:, None] + _STENCIL_CELLS
        self.kind.reshape(-1)[cells] += _STENCIL
        self._free -= 1
        self._steps += 1
        if self._steps % _RECOMPUTE_EVERY == 0:
            self._resync()

    def _resync(self) -> None:
        direct = self._direct_log_weights()
        exact = _minima_weights(direct, self.kind)
        drifted = _minima_weights(self.log_weights, self.kind)
        exact /= exact.sum(axis=1, keepdims=True)
        drifted /= drifted.sum(axis=1, keepdims=True)
        if not np.allclose(exact, drifted, rtol=_DRIFT_TOLERANCE, atol=1e-12):
            raise RuntimeError("incremental weights drifted from the product formula")
        self.log_weights = direct

    def weights(self, row: int) -> np.ndarray:
        """Normalized transition weights of trial ``row``, in minima order."""
        weights = np.exp(self.log_weights[row][self.kind[row] == 1])
        return weights / weights.sum()

    def diagram(self, row: int) -> InterlacingDiagram:
        kind = self.kind[row]
        return InterlacingDiagram(
            tuple(int(v) + self.lo for v in np.flatnonzero(kind == 1)),
            tuple(int(v) + self.lo for v in np.flatnonzero(kind == -1)),
        )


def _minima_weights(log_weights: np.ndarray, kind: np.ndarray) -> np.ndarray:
    # exp(L) at the minima and 0 elsewhere; the cap only guards columns
    # that are not minima, where L is not a log-probability
    return np.exp(np.minimum(log_weights, _LOG_CAP)) * (kind == 1)


def _rescaled_p_moments(
    w: InterlacingDiagram, n_boxes: int, qp: QParam, n_max: int
) -> tuple[float, ...]:
    # Rayleigh moments of the 1/sqrt(n) rescaled profile at parameter q.
    scale = qp.log_inv / math.sqrt(n_boxes)
    mins = np.asarray(w.minima, dtype=np.float64)
    maxs = np.asarray(w.maxima, dtype=np.float64)
    out = []
    for n in range(1, n_max + 1):
        out.append(
            float(
                np.exp(n * scale * mins).sum() - np.exp(n * scale * maxs).sum()
            )
        )
    return tuple(out)


@dataclass(frozen=True)
class TrajectorySample:
    """Final state of one simulated trajectory, already rescaled."""

    trial: int
    shape: Partition
    moments: tuple[float, ...]


@dataclass(frozen=True)
class McReport:
    """Aggregated Monte Carlo estimates next to their exact targets."""

    n_boxes: int
    q: float
    trials: int
    n_moments: int
    seed: int
    means: tuple[float, ...]
    stderrs: tuple[float, ...]
    targets: tuple[float, ...]

    def z_scores(self) -> tuple[float, ...]:
        return tuple(
            (m - t) / s if s > 0 else math.inf
            for m, s, t in zip(self.means, self.stderrs, self.targets)
        )

    def to_dict(self) -> dict:
        return {
            "n_boxes": self.n_boxes,
            "q": self.q,
            "trials": self.trials,
            "n_moments": self.n_moments,
            "seed": self.seed,
            "means": list(self.means),
            "stderrs": list(self.stderrs),
            "targets": list(self.targets),
        }


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
            for u in np.array([rng.random(count) for rng in rngs]).T:
                walk.step(u)
        for row, trial in enumerate(batch):
            w = walk.diagram(row)
            samples.append(
                TrajectorySample(
                    trial,
                    from_interlacing(w),
                    _rescaled_p_moments(w, n_boxes, qp, n_max),
                )
            )
    return samples


def report_from_samples(
    samples: list[TrajectorySample],
    n_boxes: int,
    qp: QParam,
    n_max: int,
    seed: int,
) -> McReport:
    """Aggregate already-simulated trajectories against the moment flow."""
    trials = len(samples)
    data = np.array([s.moments for s in samples])
    means = data.mean(axis=0)
    if trials > 1:
        stderrs = data.std(axis=0, ddof=1) / math.sqrt(trials)
    else:
        stderrs = np.zeros(n_max)
    targets = dynamics.limit_moments(qp, n_max).values
    return McReport(
        n_boxes=n_boxes,
        q=qp.q,
        trials=trials,
        n_moments=n_max,
        seed=seed,
        means=tuple(float(v) for v in means),
        stderrs=tuple(float(v) for v in stderrs),
        targets=tuple(targets),
    )


def mc_limit_experiment(
    n_boxes: int,
    qp: QParam,
    trials: int,
    n_max: int,
    seed: int,
) -> McReport:
    """Monte Carlo check of the rescaled process against the moment flow."""
    samples = simulate_rescaled(n_boxes, qp, trials, n_max, seed)
    return report_from_samples(samples, n_boxes, qp, n_max, seed)
