"""Micro-level perimeter control at region boundaries.

Each macro step hands every ordered boundary a target flow rate.  Within the
macro step the controller tracks the remaining budget, estimates what every
multi-phase plan could discharge this step, filters the plans whose combined
gated plus non-gated flow stays inside a shrinking tolerance band around the
expected rate (both directions at once), and activates the feasible plan
with the highest backpressure weight.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Mapping

from .mesosim import MicroObservation
from .netmodel import MultiPhasePlan, Network, boundary_key

logger = logging.getLogger(__name__)


@dataclass
class BoundaryTracker:
    """Per ordered boundary (i, h): macro target and realized history."""

    boundary: tuple[str, str]
    target_veh_s: float = 0.0
    u: int = 10
    k: int = 1
    observed: list[float] = field(default_factory=list)
    ng_rate: float = 0.0
    sigma: float = 0.1
    sigma_abs: float = 0.05
    t_micro_s: float = 10.0
    floored: bool = False

    def begin_macro(self, target_veh_s: float) -> None:
        self.target_veh_s = target_veh_s
        self.k = 1
        self.observed = []
        self.floored = False

    def record(self, realized_veh_s: float, ng_veh_s: float) -> None:
        self.observed.append(realized_veh_s)
        self.ng_rate = ng_veh_s
        self.k += 1


def expected_rate(tracker: BoundaryTracker) -> float:
    """Remaining per-step flow budget (veh/s), floored at zero."""
    t_macro = tracker.u * tracker.t_micro_s
    done = sum(tracker.observed) * tracker.t_micro_s
    remaining_steps = tracker.u - tracker.k + 1
    rate = (tracker.target_veh_s * t_macro - done) / (remaining_steps * tracker.t_micro_s)
    if rate < 0.0:
        tracker.floored = True
        logger.debug(
            "boundary %s step %d: expected rate %.4g floored at 0",
            tracker.boundary,
            tracker.k,
            rate,
        )
        return 0.0
    return rate


def plan_flow(
    plan: MultiPhasePlan,
    obs: MicroObservation,
    net: Network,
    direction: tuple[str, str],
) -> float:
    """Estimated flow (veh/s) the plan would pass across ``direction`` this
    step: per served crossing lane, min(arrivals, saturation, downstream
    space), divided by the step length."""
    i, h = direction
    total = 0.0
    for lane_id in net.crossing_lanes(plan, i, h):
        lane = net.lanes[lane_id]
        arriving = obs.arrivals.get(lane_id, 0.0)
        saturation = lane.sat_flow_veh_s * obs.dt_s
        terms = [arriving, saturation]
        if lane.output_lanes:
            space = sum(
                net.lanes[out].capacity_veh - obs.queues.get(out, 0)
                for out in lane.output_lanes
            ) / len(lane.output_lanes)
            terms.append(max(0.0, space))
        total += max(0.0, min(terms))
    return total / obs.dt_s


def feasible_plans(
    fwd: BoundaryTracker,
    rev: BoundaryTracker,
    estimates: Mapping[str, tuple[float, float]],
    plan_order: list[str],
) -> list[str]:
    """Plans whose forward and reverse estimated flows both stay within the
    shrinking tolerance band around the expected rates."""
    m_fwd = expected_rate(fwd)
    m_rev = expected_rate(rev)
    out = []
    for plan_id in plan_order:
        est_fwd, est_rev = estimates[plan_id]
        if _within_band(est_fwd + fwd.ng_rate, m_fwd, fwd) and _within_band(
            est_rev + rev.ng_rate, m_rev, rev
        ):
            out.append(plan_id)
    return out


def _within_band(flow: float, expected: float, tracker: BoundaryTracker) -> bool:
    if expected <= 0.0:
        return flow < tracker.sigma_abs
    tol = (tracker.u - tracker.k + 1) * tracker.sigma
    return abs(flow - expected) / expected < tol


def flow_bounds(
    estimates: Mapping[str, float], ng_rate: float
) -> tuple[float, float]:
    """Macro-step flow envelope from the start-of-step plan estimates plus
    the non-gated flow."""
    values = list(estimates.values())
    return (min(values) + ng_rate, max(values) + ng_rate)


def phase_pressure(phase_lanes, obs: MicroObservation, net: Network) -> float:
    """Backpressure weight of one phase: served queue minus mean downstream
    queue, scaled by each lane's saturation flow."""
    w = 0.0
    for lane_id in sorted(phase_lanes):
        lane = net.lanes[lane_id]
        q_l = obs.queues.get(lane_id, 0)
        if lane.output_lanes:
            downstream = sum(
                obs.queues.get(out, 0) for out in lane.output_lanes
            ) / len(lane.output_lanes)
        else:
            downstream = 0.0
        w += (q_l - downstream) * lane.sat_flow_veh_s
    return w


def plan_weight(
    plan: MultiPhasePlan, obs: MicroObservation, net: Network
) -> float:
    total = 0.0
    for node_id, phase_id in plan.phase_by_intersection:
        phase = net.intersections[node_id].phase(phase_id)
        total += phase_pressure(phase.allowed_lanes, obs, net)
    return total


def select_plan(
    feasible: list[str],
    weights: Mapping[str, float],
    plan_order: list[str],
    deviations: Mapping[str, float] | None = None,
) -> tuple[str, bool]:
    """Highest-weight feasible plan; ties break toward the earliest plan in
    the configured order.  With no feasible plan, fall back to the plan with
    the smallest summed relative deviation from the expected flows and flag
    the fallback."""
    if feasible:
        ranked = sorted(
            feasible, key=lambda pid: (-weights[pid], plan_order.index(pid))
        )
        return ranked[0], False
    if deviations is None:
        raise ValueError("empty feasible set and no deviations for fallback")
    ranked = sorted(
        plan_order, key=lambda pid: (deviations[pid], plan_order.index(pid))
    )
    return ranked[0], True


@dataclass
class BoundaryDecision:
    """One micro step's plan choice at a boundary and the flows it realized.
    The field order is the column order of a run's ``boundary.csv``."""

    time_s: float
    boundary: str  # "i|h" for the canonical key (i, h)
    k: int
    plan: str
    fallback: bool
    feasible_count: int
    m_expected_fwd: float
    m_expected_rev: float
    est_fwd: float
    est_rev: float
    ng_fwd: float
    ng_rev: float
    realized_fwd: float = 0.0  # set by record_realized after the step
    realized_rev: float = 0.0


class BoundaryController:
    """One decision per unordered boundary per micro step, driving both
    ordered directions' targets through a single plan activation."""

    def __init__(
        self,
        net: Network,
        boundary: tuple[str, str],
        u: int,
        sigma: float,
        sigma_abs: float,
        t_micro_s: float,
    ):
        self.net = net
        self.key = boundary_key(*boundary)
        i, h = self.key
        self.fwd = BoundaryTracker(
            boundary=(i, h), u=u, sigma=sigma, sigma_abs=sigma_abs, t_micro_s=t_micro_s
        )
        self.rev = BoundaryTracker(
            boundary=(h, i), u=u, sigma=sigma, sigma_abs=sigma_abs, t_micro_s=t_micro_s
        )
        self.plans = list(net.plan_set(i, h))
        self.plan_order = [p.id for p in self.plans]
        self.last_decision: BoundaryDecision | None = None

    def begin_macro(self, target_fwd: float, target_rev: float) -> None:
        self.fwd.begin_macro(target_fwd)
        self.rev.begin_macro(target_rev)

    def macro_flow_bounds(
        self, obs: MicroObservation
    ) -> tuple[tuple[float, float], tuple[float, float]]:
        """(min, max) start-of-macro-step flow envelope for both directions."""
        i, h = self.key
        est_fwd = {p.id: plan_flow(p, obs, self.net, (i, h)) for p in self.plans}
        est_rev = {p.id: plan_flow(p, obs, self.net, (h, i)) for p in self.plans}
        ng_fwd = obs.non_gating_crossings.get((i, h), 0.0)
        ng_rev = obs.non_gating_crossings.get((h, i), 0.0)
        return flow_bounds(est_fwd, ng_fwd), flow_bounds(est_rev, ng_rev)

    def control_step(self, obs: MicroObservation) -> str:
        """Steps 1-5 of the per-boundary control loop for one micro step."""
        i, h = self.key
        self.fwd.ng_rate = obs.non_gating_crossings.get((i, h), 0.0)
        self.rev.ng_rate = obs.non_gating_crossings.get((h, i), 0.0)

        m_fwd = expected_rate(self.fwd)
        m_rev = expected_rate(self.rev)
        estimates = {
            p.id: (
                plan_flow(p, obs, self.net, (i, h)),
                plan_flow(p, obs, self.net, (h, i)),
            )
            for p in self.plans
        }
        feasible = feasible_plans(self.fwd, self.rev, estimates, self.plan_order)
        weights = {p.id: plan_weight(p, obs, self.net) for p in self.plans}
        deviations = {
            pid: _relative_deviation(est[0] + self.fwd.ng_rate, m_fwd, self.fwd)
            + _relative_deviation(est[1] + self.rev.ng_rate, m_rev, self.rev)
            for pid, est in estimates.items()
        }
        plan_id, fallback = select_plan(
            feasible, weights, self.plan_order, deviations
        )
        if fallback:
            logger.debug("boundary %s step %d: empty feasible set", self.key, self.fwd.k)
        self.last_decision = BoundaryDecision(
            time_s=obs.time_s,
            boundary=f"{i}|{h}",
            k=self.fwd.k,
            plan=plan_id,
            fallback=fallback,
            feasible_count=len(feasible),
            m_expected_fwd=m_fwd,
            m_expected_rev=m_rev,
            est_fwd=estimates[plan_id][0],
            est_rev=estimates[plan_id][1],
            ng_fwd=self.fwd.ng_rate,
            ng_rev=self.rev.ng_rate,
        )
        return plan_id

    def record_realized(self, obs: MicroObservation) -> None:
        """Append the realized flows once the simulator finished the step
        that ``control_step`` decided, and note them in its decision."""
        i, h = self.key
        d = self.last_decision
        d.realized_fwd = obs.boundary_crossings.get((i, h), 0.0)
        d.realized_rev = obs.boundary_crossings.get((h, i), 0.0)
        self.fwd.record(d.realized_fwd, obs.non_gating_crossings.get((i, h), 0.0))
        self.rev.record(d.realized_rev, obs.non_gating_crossings.get((h, i), 0.0))


def _relative_deviation(
    flow: float, expected: float, tracker: BoundaryTracker
) -> float:
    scale = expected if expected > 0.0 else tracker.sigma_abs
    return abs(flow - expected) / scale
