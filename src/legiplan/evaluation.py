"""Synthetic-observer evaluation of executed trajectories.

An ideal Bayesian observer watches arc-length prefixes of the executed path
and infers which goal the robot is heading to; the per-prefix probability
assigned to the true target is the correctness value, and the early-weighted
mean of those values is the legibility score.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .legibility import designated_observer, visibility_points
from .model import Goal, Point2, ScenarioSpec, Trajectory, arc_length_prefix

DEFAULT_FRACTIONS = (0.25, 0.50, 0.75)


@dataclass(frozen=True)
class PosteriorModel:
    """Rationality beta and goal prior of the synthetic observer."""

    beta: float = 1.0
    prior: dict[str, float] | None = None  # None means uniform

    def __post_init__(self) -> None:
        # beta = 0 is allowed: it reduces the posterior to the prior.
        if not np.isfinite(self.beta) or self.beta < 0:
            raise ValueError(f"beta must be finite and nonnegative, got {self.beta}")
        if self.prior is not None:
            values = list(self.prior.values())
            if not all(0 <= p < np.inf for p in values):
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


def goal_posterior(
    prefix: Trajectory,
    goals: tuple[Goal, ...] | list[Goal],
    start: Point2,
    model: PosteriorModel,
) -> dict[str, float]:
    """Posterior over goals after observing a trajectory prefix.

    P(G | prefix) is proportional to
    prior(G) * exp(-beta * (len(prefix) + d(Q, G) - d(S, G))) with Q the
    prefix endpoint and S the start. A zero-length prefix returns the prior.
    """
    if not goals:
        raise ValueError("goals must be non-empty")
    prior = model.prior_for(goals)
    length = prefix.arc_length()
    q = prefix.waypoints[-1]
    s = start.as_array()
    costs = [
        length + float(np.linalg.norm(q - g.position.as_array()))
        - float(np.linalg.norm(s - g.position.as_array()))
        for g in goals
    ]
    weights = np.array([prior[g.id] for g in goals])
    # A goal the prior rules out gets exponent -inf, so it can neither set
    # the shift below (underflowing every other weight) nor overflow.
    exponents = np.array([-model.beta * c if w > 0 else -np.inf for c, w in zip(costs, weights)])
    shift = exponents.max()
    if shift == -np.inf:
        # beta * cost overflowed for every goal the prior allows: take the
        # beta -> inf limit, the prior's mass on the cheapest of those goals.
        cheapest = min(c for c, w in zip(costs, weights) if w > 0)
        weights = np.where([c == cheapest for c in costs], weights, 0.0)
    else:
        # Shift before exponentiating for numerical stability.
        weights = weights * np.exp(exponents - shift)
    weights /= weights.sum()
    return {g.id: float(w) for g, w in zip(goals, weights)}


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


def _masked_prefix(prefix: Trajectory, scenario: ScenarioSpec) -> Trajectory | None:
    """Restrict a prefix to the waypoints the designated observer can see.

    Returns None when fewer than two waypoints are visible.
    """
    observer = designated_observer(scenario)
    if observer is None:
        return prefix
    mask = visibility_points(prefix.waypoints, observer) > 0.0
    if mask.sum() < 2:
        return None
    return Trajectory(prefix.waypoints[mask], prefix.dt)


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
    if model is None:
        model = PosteriorModel()
    g_star = scenario.target_goal()
    posteriors = []
    correctness_values = []
    argmax_flags = []
    for fraction in fractions:
        prefix = arc_length_prefix(executed, fraction)
        start = prefix.start
        if mask_fov:
            masked = _masked_prefix(prefix, scenario)
            if masked is None:
                posterior = model.prior_for(scenario.goals)
            else:
                posterior = goal_posterior(masked, scenario.goals, masked.start, model)
        else:
            posterior = goal_posterior(prefix, scenario.goals, start, model)
        c = correctness(posterior, g_star.id)
        posteriors.append(posterior)
        correctness_values.append(c)
        argmax_flags.append(c == max(posterior.values()))
    return LegibilityReport(
        partial_fractions=tuple(fractions),
        posteriors=tuple(posteriors),
        correctness=tuple(correctness_values),
        argmax_correct=tuple(argmax_flags),
        score=legibility_score(correctness_values),
        mode=mode if mode is not None else scenario.planner.mode,
    )
