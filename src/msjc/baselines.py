"""The comparison strategies' parts: PI gating targets, logit route
choice, and backpressure plan selection over the full plan set.  Each is a
pure function; ``runner.STRATEGIES`` combines them with the joint program's
parts, and ``runner.Strategy`` keeps PI gating's state between macro steps.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import boundaryctl
from .mesosim import MicroObservation
from .netmodel import Network, boundary_key


def pi_target(
    m_prev: float, n_prev: float, n_h: float, setpoint: float, kp: float, ki: float,
    m_min: float, m_max: float,
) -> float:
    """Next macro-step flow target of a velocity-form PI regulator driving
    the receiving region's accumulation n_h toward ``setpoint``: the last
    target ``m_prev``, less kp times the accumulation's change since
    ``n_prev`` and ki times its excess over the setpoint, clamped to the
    feasible envelope [m_min, m_max]."""
    raw = m_prev - kp * (n_h - n_prev) - ki * (n_h - setpoint)
    return min(m_max, max(m_min, raw))


def logit_choice(
    travel_times: Sequence[float], theta: float
) -> np.ndarray:
    """Route probabilities exp(-theta*tt) normalized, shift-stabilized."""
    u = -theta * np.asarray(travel_times, dtype=float)
    u = u - u.max()
    e = np.exp(u)
    return e / e.sum()


def bp_control(
    obs: MicroObservation, net: Network, boundary: tuple[str, str]
) -> str:
    """Id of the max-pressure plan over the boundary's full plan set (no
    flow-tracking filter); ties go to the earliest plan."""
    lanes = net.plan_lanes[boundary_key(*boundary)]
    weights = boundaryctl.plan_weights(lanes, obs, net)
    return lanes.ids[weights.index(max(weights))]
