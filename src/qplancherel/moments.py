"""Discrete measures, q-moments, and the R-function correspondence.

Two families of moments are attached to a diagram w with minima x_k and
maxima y_j.  The transition measure mu puts the growth weights at the
minima; its moments are h_n = sum_i w_i q^(-n s_i).  The Rayleigh
measure tau puts +1 at each minimum and -1 at each maximum; its moments
are p_n = sum_k q^(-n x_k) - sum_j q^(-n y_j).  The two families obey
the Newton-type triangular relation

    n h_n = sum_{k=1..n} p_k h_{n-k},      h_0 = 1,

equivalently h_n = sum over partitions of n of prod p_k^{r_k} /
(k^{r_k} r_k!).  In the q-bracket [d]_q = (1 - q^d) / (1 - q), which
tends to d as q -> 1, both measures share one R-function

    R(x; q) = prod_j [x - y_j]_q / prod_k [x - x_k]_q
            = sum_i w_i / [x - s_i]_q,

for every q in (0, 1], and the equality of the two expressions (product
over corners versus sum over transition atoms) is the Markov-Krein
correspondence checked by :func:`markov_krein_residual`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

from . import kernel
from .diagrams import InterlacingDiagram, enumerate_level
from .qmeasure import MomentOverflowError, QParam

# Below this distance to a pole of the R-function, evaluation refuses.
_POLE_TOLERANCE = 1e-12
# q^(-n s) is evaluated directly; refuse once the exponent nears overflow.
_EXP_GUARD = 700.0


class PoleProximityError(ValueError):
    """Evaluation point too close to a pole of the R-function."""


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely many weighted atoms at strictly increasing locations.

    Weights may be signed (Rayleigh measures alternate +1/-1); a
    probability measure has positive weights of unit total mass.
    """

    locations: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        locations = tuple(float(s) for s in self.locations)
        weights = tuple(float(v) for v in self.weights)
        object.__setattr__(self, "locations", locations)
        object.__setattr__(self, "weights", weights)
        if len(locations) != len(weights):
            raise ValueError("locations and weights must have equal length")
        if any(
            locations[i] >= locations[i + 1] for i in range(len(locations) - 1)
        ):
            raise ValueError(f"locations must strictly increase: {locations}")

    @property
    def total_mass(self) -> float:
        return math.fsum(self.weights)


@dataclass(frozen=True)
class MomentVector:
    """Moments 1..N of one family; ``kind`` is "p" or "h"."""

    kind: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("p", "h"):
            raise ValueError(f'kind must be "p" or "h", got {self.kind!r}')
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    def moment(self, n: int) -> float:
        if not 1 <= n <= len(self.values):
            raise IndexError(f"moment index {n} outside 1..{len(self.values)}")
        return self.values[n - 1]

    def __len__(self) -> int:
        return len(self.values)


def transition_measure(w: InterlacingDiagram, qp: QParam) -> DiscreteMeasure:
    """Growth weights of ``w`` as a probability measure on its minima."""
    return DiscreteMeasure(w.minima, kernel.transition_weights(w, qp))


def rayleigh_measure(w: InterlacingDiagram) -> DiscreteMeasure:
    """+1 atoms at the minima, -1 atoms at the maxima; total mass +1."""
    atoms = []
    for i, x in enumerate(w.minima):
        atoms.append((x, 1.0))
        if i < len(w.maxima):
            atoms.append((w.maxima[i], -1.0))
    locations, weights = zip(*atoms)
    return DiscreteMeasure(locations, weights)


def _qpow_neg(qp: QParam, n: int, s: float) -> float:
    # q^(-n s); the guard keeps exp() inside the double range.
    exponent = n * s * qp.log_inv
    if abs(exponent) > _EXP_GUARD:
        raise MomentOverflowError(
            f"q^(-{n} * {s}) is outside floating-point range at q = {qp.q}"
        )
    return math.exp(exponent)


def h_moments(mu: DiscreteMeasure, qp: QParam, n_max: int) -> MomentVector:
    """h_n = sum_i w_i q^(-n s_i) for n = 1..n_max; requires 0 < q < 1."""
    if qp.is_classical:
        raise ValueError("q-moments require q in (0, 1)")
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    values = [
        math.fsum(
            v * _qpow_neg(qp, n, s) for s, v in zip(mu.locations, mu.weights)
        )
        for n in range(1, n_max + 1)
    ]
    return MomentVector("h", tuple(values))


def p_moments(w: InterlacingDiagram, qp: QParam, n_max: int) -> MomentVector:
    """Rayleigh moments p_n = sum_k q^(-n x_k) - sum_j q^(-n y_j)."""
    return MomentVector("p", h_moments(rayleigh_measure(w), qp, n_max).values)


def p_to_h(p: MomentVector) -> MomentVector:
    """Triangular Newton recursion n h_n = sum_{k<=n} p_k h_{n-k}."""
    if p.kind != "p":
        raise ValueError(f'expected a "p" vector, got kind {p.kind!r}')
    h = [1.0]
    for n in range(1, len(p.values) + 1):
        h.append(
            math.fsum(p.values[k - 1] * h[n - k] for k in range(1, n + 1)) / n
        )
    return MomentVector("h", tuple(h[1:]))


def h_to_p(h: MomentVector) -> MomentVector:
    """Inverse triangular recursion p_n = n h_n - sum_{k<n} p_k h_{n-k}."""
    if h.kind != "h":
        raise ValueError(f'expected an "h" vector, got kind {h.kind!r}')
    hs = (1.0,) + h.values
    p: list[float] = []
    for n in range(1, len(h.values) + 1):
        p.append(
            n * hs[n]
            - math.fsum(p[k - 1] * hs[n - k] for k in range(1, n))
        )
    return MomentVector("p", tuple(p))


@cache
def _partition_profiles(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    # each profile is ((part, multiplicity), ...) for one partition of n
    profiles = []
    for lam in enumerate_level(n):
        mults: dict[int, int] = {}
        for part in lam.parts:
            mults[part] = mults.get(part, 0) + 1
        profiles.append(tuple(sorted(mults.items())))
    return tuple(profiles)


def h_from_p_partition_sum(p_values, n: int) -> float:
    """h_n as the explicit partition sum of products of p_k.

    sum over partitions (1^{r_1} 2^{r_2} ...) of n of
    prod_k p_k^{r_k} / (k^{r_k} r_k!).  Used as the brute-force route
    next to :func:`p_to_h` and as the right-hand side of the moment flow.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if len(p_values) < n:
        raise ValueError(f"need p_1..p_{n}, got only {len(p_values)}")
    total = []
    for profile in _partition_profiles(n):
        term = 1.0
        for part, mult in profile:
            term *= p_values[part - 1] ** mult / (
                part**mult * math.factorial(mult)
            )
        total.append(term)
    return math.fsum(total)


def r_diagram(w: InterlacingDiagram, qp: QParam, x: float) -> float:
    """R(x; q) = prod_j [x - y_j]_q / prod_k [x - x_k]_q over the corners of ``w``.

    Requires ``x`` away from the poles at the minima.
    """
    value = 1.0
    for i, xk in enumerate(w.minima):
        value /= _pole_bracket(qp, x, xk)
        if i < len(w.maxima):
            value *= qp.bracket(x - w.maxima[i])
    return value


def r_measure(mu: DiscreteMeasure, qp: QParam, x: float) -> float:
    """R(x; q) from the atom sum sum_i w_i / [x - s_i]_q."""
    return math.fsum(
        v / _pole_bracket(qp, x, s) for s, v in zip(mu.locations, mu.weights)
    )


def _pole_bracket(qp: QParam, x: float, pole: float) -> float:
    # [x - pole]_q, refused within _POLE_TOLERANCE of the pole
    if abs(x - pole) < _POLE_TOLERANCE:
        raise PoleProximityError(f"x = {x} is within tolerance of pole {pole}")
    return qp.bracket(x - pole)


def markov_krein_residual(
    w: InterlacingDiagram,
    mu: DiscreteMeasure,
    qp: QParam,
    points,
) -> float:
    """Largest deviation, over ``points``, between the two R-function routes.

    Checks both the direct equality of :func:`r_diagram` and
    :func:`r_measure` and the exp/log pairing of the atom sum with the
    Rayleigh corner sum (the Rayleigh measure has total mass 1)

        sum_i w_i / [x - s_i]_q = exp( sum tau_j ln 1/[x - t_j]_q ).

    The points must lie above the support.
    """
    tau = rayleigh_measure(w)
    worst = 0.0
    for x in points:
        atom_sum = r_measure(mu, qp, x)
        log_form = math.exp(
            -math.fsum(
                v * math.log(qp.bracket(x - s))
                for s, v in zip(tau.locations, tau.weights)
            )
        )
        worst = max(
            worst, abs(r_diagram(w, qp, x) - atom_sum), abs(atom_sum - log_form)
        )
    return worst
