"""The identity checks of ``qplancherel verify`` and the acceptance tests.

Each check sweeps one identity the model rests on and returns the worst
error it measured.  Its defaults are the inputs ``verify`` runs; the
acceptance tests pass larger ones.  ``CHECKS`` maps each name to its
check and tolerance, in the order ``verify`` reports them.
"""

from __future__ import annotations

import math

import numpy as np

from . import dynamics, growth, kernel, limitshape, moments, qmeasure, rsk
from .diagrams import Partition, _level_parts, to_interlacing
from .qmeasure import QParam


def random_partitions(count: int, max_boxes: int, seed: int) -> list[Partition]:
    """Deterministic sample of partitions, one uniform level index each."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    out = []
    for _ in range(count):
        n = int(rng.integers(1, max_boxes + 1))
        level = _level_parts(n)
        row = level[int(rng.integers(0, len(level)))]
        out.append(Partition(tuple(filter(None, row.tolist()))))
    return out


def _worst(errors) -> float:
    # the largest error, 0 for none; unlike max(), a NaN error sticks
    return float(np.max(np.fromiter(errors, float), initial=0.0))


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def hook_identity(top: int = 16) -> float:
    """Worst |hook_identity_residual| (1 - q)^n over levels 1..top."""
    return _worst(
        abs(qmeasure.hook_identity_residual(n, qp)) * (1.0 - qp.q) ** n
        for qp in map(QParam, (0.1, 0.5, 0.9, 0.99))
        for n in range(1, top + 1)
    )


def kernel_oracle(shapes=None) -> float:
    """Worst weight gap between the product formula and the partial-fraction solve."""
    if shapes is None:
        shapes = random_partitions(40, 20, seed=2024)
    profiles = [to_interlacing(shape) for shape in shapes]
    return _worst(
        abs(a - b)
        for qp in map(QParam, (0.3, 0.7, 0.95, 1.0))
        for w in profiles
        for a, b in zip(
            kernel.transition_weights(w, qp), kernel.partial_fraction_weights(w, qp)
        )
    )


def pushforward(top: int = 6) -> float:
    """Worst total variation between the RSK push-forward and the measure."""
    return _worst(
        0.5
        * math.fsum(
            abs(prob - reference)
            for prob, reference in zip(
                rsk.pushforward_exact(n, qp.q).values(), qmeasure._level_weights(n, qp)
            )
        )
        for qp in map(QParam, (0.2, 0.5, 0.8))
        for n in range(1, top + 1)
    )


def markov_krein(qs=(0.5,), shapes=None) -> float:
    """Worst gap between the R-function routes, four points above the support."""
    if shapes is None:
        shapes = random_partitions(30, 12, seed=515)
    return _worst(
        moments.markov_krein_residual(
            w,
            moments.transition_measure(w, qp),
            qp,
            [w.support_max + 1.5 + j for j in range(4)],
        )
        for qp in map(QParam, qs)
        for w in map(to_interlacing, shapes)
    )


def ode_closed_forms(sigmas=(0.25, 0.5, 1.0, 1.5, 2.0)) -> float:
    """Worst relative gap between the exact flow and the printed solutions, n <= 4."""
    y0 = (1.0, 1.0, 1.0, 1.0)
    return _worst(
        _rel_gap(y, dynamics.closed_form(n, sigma, y0))
        for sigma in sigmas
        for n, y in enumerate(dynamics.integrate_moments(y0, sigma).y, 1)
    )


def limit_moments() -> float:
    """Worst relative gap between the series and the flow's limiting h_1..h_6."""
    return _worst(
        _rel_gap(a, b)
        for qp in map(QParam, (0.3, 0.5, 0.7))
        for a, b in zip(
            limitshape.series_h_omega(qp, 6).values,
            moments.p_to_h(dynamics.limit_moments(qp, 6)).values,
        )
    )


def pde_residual(cases=None) -> float:
    """Worst growth-equation defect over (q, shapes), two boxes above the support."""
    if cases is None:
        shapes = random_partitions(15, 15, seed=77)
        cases = ((0.5, shapes), (0.8, shapes))
    return _worst(
        growth.pde_residual(w, QParam(q), w.support_max + 2.0)
        for q, shapes in cases
        for w in map(to_interlacing, shapes)
    )


CHECKS = {
    "hook_identity": (hook_identity, 1e-9),
    "kernel_oracle": (kernel_oracle, 1e-9),
    "pushforward": (pushforward, 1e-12),
    "markov_krein": (markov_krein, 1e-10),
    "ode_closed_forms": (ode_closed_forms, 1e-7),
    "limit_moments": (limit_moments, 1e-6),
    "pde_residual": (pde_residual, 1e-9),
}
