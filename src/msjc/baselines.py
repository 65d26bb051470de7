"""The comparison strategies' parts: PI gating targets, logit route
choice, and backpressure plan selection over the full plan set.
``runner.STRATEGIES`` combines them with the joint program's parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import boundaryctl
from .mesosim import MicroObservation
from .netmodel import Network, boundary_key


@dataclass
class PiController:
    """Velocity-form PI regulator driving the receiving region's
    accumulation toward its critical value."""

    kp: float
    ki: float
    setpoint: float
    m_prev: float = 0.0
    n_prev: float | None = None  # None until reset, and again once deactivated

    def reset(self, m_init: float, n_now: float) -> None:
        self.m_prev = m_init
        self.n_prev = n_now

    def deactivate(self) -> None:
        self.n_prev = None


def pi_target(
    controller: PiController, n_h: float, m_min: float, m_max: float
) -> float:
    """Next macro-step flow target, clamped to the feasible envelope.  The
    controller must have been reset since it was last deactivated."""
    raw = (
        controller.m_prev
        - controller.kp * (n_h - controller.n_prev)
        - controller.ki * (n_h - controller.setpoint)
    )
    target = min(m_max, max(m_min, raw))
    controller.m_prev = target
    controller.n_prev = n_h
    return target


def logit_choice(
    travel_times: Sequence[float], theta: float
) -> np.ndarray:
    """Route probabilities exp(-theta*tt) normalized, shift-stabilized."""
    u = -theta * np.asarray(travel_times, dtype=float)
    u = u - u.max()
    e = np.exp(u)
    return e / e.sum()


def route_travel_time(
    route: Sequence[str], travel_times: Mapping[str, float]
) -> float:
    return float(sum(travel_times[l] for l in route))


def bp_control(
    obs: MicroObservation, net: Network, boundary: tuple[str, str]
) -> str:
    """Max-pressure plan over the full plan set (no flow-tracking filter);
    ties go to the earliest plan."""
    weights = boundaryctl.plan_weights(net.plan_lanes[boundary_key(*boundary)], obs, net)
    return net.plan_set(*boundary)[weights.index(max(weights))].id
