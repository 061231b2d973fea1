"""Synthetic-observer evaluation of executed trajectories.

An ideal Bayesian observer watches arc-length prefixes of the executed path
and infers which goal the robot is heading to; the per-prefix probability
assigned to the true target is the correctness value, and the early-weighted
mean of those values is the legibility score.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import asdict, dataclass
from types import MappingProxyType

import numpy as np

from .legibility import designated_observer, visibility_points
from .model import (
    Goal, Point2, ScenarioSpec, Trajectory, _as_float, _hypot2, _running_length, prefix_points,
)

@dataclass(frozen=True)
class PosteriorModel:
    """Rationality beta and goal prior of the synthetic observer."""

    beta: float = 1.0
    prior: Mapping[str, float] | None = None  # None means uniform; kept as a read-only copy

    def __post_init__(self) -> None:
        # beta = 0 is allowed: it reduces the posterior to the prior.
        if not 0 <= _as_float(self.beta) < np.inf:
            raise ValueError(f"beta must be finite and nonnegative, got {self.beta}")
        if self.prior is not None:
            object.__setattr__(self, "prior", MappingProxyType(dict(self.prior)))
            values = list(self.prior.values())
            if not all(0 <= _as_float(p) < np.inf for p in values):
                raise ValueError("prior probabilities must be finite and nonnegative")
            if abs(sum(values) - 1.0) > 1e-9:
                raise ValueError(f"prior must sum to 1, got {sum(values)}")

    def prior_for(self, goals: tuple[Goal, ...] | list[Goal]) -> dict[str, float]:
        if self.prior is None:
            return {g.id: 1.0 / len(goals) for g in goals}
        missing = [g.id for g in goals if g.id not in self.prior]
        if missing:
            raise ValueError(f"prior missing goals: {missing}")
        return {g.id: self.prior[g.id] for g in goals}

    def __reduce__(self):  # pickle and deepcopy: a mappingproxy cannot be pickled
        return type(self), (self.beta, None if self.prior is None else dict(self.prior))


DEFAULT_FRACTIONS = (0.25, 0.50, 0.75)
_UNIFORM = PosteriorModel()


@dataclass(frozen=True)
class LegibilityReport:
    """Per-partial posteriors and correctness plus the weighted score."""

    partial_fractions: tuple[float, ...]
    posteriors: tuple[dict[str, float], ...]
    correctness: tuple[float, ...]
    argmax_correct: tuple[bool, ...]  # report column only, not used in the score
    score: float
    mode: str

    def to_dict(self) -> dict:
        return asdict(self)


def posterior_batch(
    lengths: np.ndarray,
    endpoints: np.ndarray,
    start: np.ndarray,
    goals: tuple[Goal, ...] | list[Goal],
    model: PosteriorModel,
) -> np.ndarray:
    """Posterior over goals after each of F prefixes from one start, (F, G).

    Row i observes a prefix of arc length lengths[i] ending at endpoints[i]
    (F, 2). P(G | prefix) is proportional to
    prior(G) * exp(-beta * (len(prefix) + d(Q, G) - d(S, G))) with Q the
    prefix endpoint and S the start. A zero-length prefix returns the prior.
    """
    if not goals:
        raise ValueError("goals must be non-empty")
    prior = model.prior_for(goals)
    weights = np.array(list(prior.values()))
    goal_xy = np.array([(g.position.x, g.position.y) for g in goals], dtype=float)
    # sqrt(vecdot(v, v)) has the bits of the scalar np.linalg.norm(v).
    dq, ds = endpoints[:, None, :] - goal_xy, start - goal_xy
    costs = (lengths[:, None] + np.sqrt(np.vecdot(dq, dq))) - np.sqrt(np.vecdot(ds, ds))
    with np.errstate(over="ignore", invalid="ignore"):
        exponents = -model.beta * costs
        if not all(prior.values()):
            # A ruled-out goal gets exponent -inf: it cannot overflow or set the shift.
            exponents = np.where(weights > 0, exponents, -np.inf)
        shift = exponents.max(axis=1, keepdims=True)
        # Shift before exponentiating for numerical stability.
        scaled = weights * np.exp(exponents - shift)
    if (shift == -np.inf).any():
        # Where beta * cost overflowed for every goal the prior allows, take
        # the beta -> inf limit: the prior's mass on the cheapest of those goals.
        cheapest = np.where(weights > 0, costs, np.inf).min(axis=1, keepdims=True)
        scaled = np.where(shift == -np.inf, np.where(costs == cheapest, weights, 0.0), scaled)
    return scaled / scaled.sum(axis=1, keepdims=True)


def goal_posterior(
    prefix: Trajectory,
    goals: tuple[Goal, ...] | list[Goal],
    start: Point2,
    model: PosteriorModel,
) -> dict[str, float]:
    """Posterior over goals after observing one trajectory prefix: the
    one-row case of posterior_batch."""
    row = posterior_batch(
        np.array([prefix.arc_length()]), prefix.waypoints[-1:], start.as_array(), goals, model
    )[0]
    return {g.id: float(w) for g, w in zip(goals, row)}


def correctness(posterior: dict[str, float], g_star_id: str) -> float:
    """Probability mass the observer assigns to the true target."""
    if g_star_id not in posterior:
        raise ValueError(f"posterior has no entry for target goal {g_star_id!r}")
    return posterior[g_star_id]


def legibility_score(correctness_values: list[float] | tuple[float, ...]) -> float:
    """Weighted mean of correctness values with weights 1/k, k = 1..n.

    Early partials dominate: the first segment carries the largest weight.
    """
    if not correctness_values:
        raise ValueError("correctness list must be non-empty")
    for c in correctness_values:
        if not 0.0 <= c <= 1.0:
            raise ValueError(f"correctness values must lie in [0, 1], got {c}")
    weights = np.array([1.0 / k for k in range(1, len(correctness_values) + 1)])
    return float(np.dot(weights, correctness_values) / weights.sum())


def evaluate_trajectory(
    executed: Trajectory,
    scenario: ScenarioSpec,
    model: PosteriorModel | None = None,
    fractions: tuple[float, ...] = DEFAULT_FRACTIONS,
    mask_fov: bool = False,
    mode: str | None = None,
) -> LegibilityReport:
    """Score an executed trajectory with the synthetic observer.

    For each arc-length fraction, builds the prefix, infers the goal
    posterior and records the probability of the true target. With mask_fov
    the observer only sees the waypoints inside their FOV wedge (falling
    back to the prior when fewer than two waypoints are visible).
    """
    model = _UNIFORM if model is None else model
    pts = executed.waypoints
    cum, j, ends = prefix_points(pts, fractions)
    observer = designated_observer(scenario) if mask_fov else None
    if observer is None:  # nothing is masked: the scan is the path itself
        seen, counts, rows, end_seen = pts, j, range(len(j)), True
        last_seen, endpoints = pts.take(j - 1, axis=0), ends
    else:
        visible = visibility_points(np.concatenate([pts, ends]), observer) > 0.0
        seen, end_seen = pts.compress(visible[: len(pts)], axis=0), visible[len(pts):]
        _, cum = _running_length(seen)  # of the seen points
        counts = visible.cumsum().take(j - 1)  # visible points in pts[:j]
        rows = (counts + end_seen >= 2).nonzero()[0]
        counts, end_seen, ends = counts.take(rows), end_seen.take(rows), ends.take(rows, axis=0)
        last_seen = seen.take(counts - 1, axis=0)
        endpoints = np.where(end_seen[:, None], ends, last_seen)
    prior = model.prior_for(scenario.goals)
    posteriors = [dict(prior) for _ in fractions]
    if len(rows):
        # The seen points' running length plus the seen end's leg: arc_length's bits.
        lengths = cum.take(counts - 1) + np.where(end_seen, _hypot2(*(ends - last_seen).T), 0.0)
        batch = posterior_batch(lengths, endpoints, seen[0], scenario.goals, model)
        for r, row in zip(rows, batch.tolist()):
            posteriors[r] = dict(zip(prior, row))
    g_star_id = scenario.target_goal().id
    correctness_values = [correctness(p, g_star_id) for p in posteriors]
    return LegibilityReport(
        partial_fractions=tuple(fractions),
        posteriors=tuple(posteriors),
        correctness=tuple(correctness_values),
        argmax_correct=tuple(c == max(p.values()) for c, p in zip(correctness_values, posteriors)),
        score=legibility_score(correctness_values),
        mode=mode if mode is not None else scenario.planner.mode,
    )
