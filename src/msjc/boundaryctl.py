"""Micro-level perimeter control at region boundaries.

Each macro step hands every ordered boundary a target flow rate.  Every
micro step the controller turns the part of the target not yet realized into
an expected rate for the remaining steps, estimates what every multi-phase
plan could discharge this step, and picks one plan for both directions by a
single ranking: plans whose gated plus non-gated flow stays inside a
shrinking tolerance band around the expected rate (both directions at once)
come first, by highest backpressure weight; when no plan is inside, the
plan with the least summed relative deviation is taken and flagged as a
fallback.  Ties go to the earliest plan in the configured order.  Each
lane's flow and pressure terms are computed once per step; a plan's flow
and weight sum its lanes' terms in lane id order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .mesosim import MicroObservation
from .netmodel import ControlConfig, Network, PlanLanes, boundary_key


def lane_flows(
    lanes: Iterable[str], obs: MicroObservation, arrivals: Mapping[str, float], net: Network
) -> dict[str, float]:
    """Vehicles each of ``lanes`` could pass this step if served: min(arrivals
    from ``Simulator.arrivals()`` at the state ``obs`` describes, saturation,
    mean space on its output lanes), floored at zero."""
    out = {}
    for lane_id in lanes:
        lane = net.lanes[lane_id]
        outs = lane.output_lanes
        terms = [arrivals.get(lane_id, 0.0), lane.sat_flow_veh_s * obs.dt_s]
        if outs:
            space = sum(net.lanes[o].capacity_veh - obs.queues.get(o, 0) for o in outs) / len(outs)
            terms.append(max(0.0, space))
        out[lane_id] = max(0.0, min(terms))
    return out


def plan_weights(lanes: PlanLanes, obs: MicroObservation, net: Network) -> list[float]:
    """Backpressure weight of each of a boundary's plans: over the lanes it
    turns green, queue minus the mean queue of the lane's output lanes,
    scaled by the lane's saturation flow; each lane's term computed once."""
    pressure = {}
    for lane_id in lanes.all_green:
        lane = net.lanes[lane_id]
        outs = lane.output_lanes
        downstream = sum(obs.queues.get(o, 0) for o in outs) / len(outs) if outs else 0.0
        pressure[lane_id] = (obs.queues.get(lane_id, 0) - downstream) * lane.sat_flow_veh_s
    return [sum_in_order(pressure, green) for green in lanes.green]


def sum_in_order(terms: Mapping[str, float], keys: Iterable[str]) -> float:
    """The terms of ``keys`` added one by one in that order, so that a sum
    (a plan's over its lanes, a route's over its links) has the same bits
    however the terms were computed, and on any Python: 3.12's float
    ``sum()`` is compensated."""
    total = 0.0
    for key in keys:
        total += terms[key]
    return total


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

    def __init__(self, net: Network, boundary: tuple[str, str], control: ControlConfig):
        self.net = net
        self.key = boundary_key(*boundary)
        i, h = self.key
        self.directions = ((i, h), (h, i))
        self.control = control
        self.plan_lanes = net.plan_lanes[self.key]
        self.last_decision: BoundaryDecision | None = None
        self.begin_macro(0.0, 0.0)

    def begin_macro(self, target_fwd: float, target_rev: float) -> None:
        self.targets = (target_fwd, target_rev)  # veh/s, forward and reverse
        # the macro step's realized flows (veh/s), per direction added left
        # to right as they come, and the micro steps recorded
        self.realized = [0.0, 0.0]
        self.steps = 0

    def plan_flows(
        self, obs: MicroObservation, arrivals: Mapping[str, float]
    ) -> list[tuple[float, float]]:
        """Estimated (forward, reverse) flow (veh/s) of each plan this step:
        what its crossing lanes could pass (``lane_flows``, one term per
        lane), divided by the step length."""
        lanes = self.plan_lanes
        flows = lane_flows(lanes.all_crossing, obs, arrivals, self.net)
        dt = obs.dt_s
        return [(sum_in_order(flows, f) / dt, sum_in_order(flows, r) / dt) for f, r in lanes.crossing]

    def macro_flow_bounds(
        self, obs: MicroObservation, arrivals: Mapping[str, float]
    ) -> tuple[tuple[float, float], tuple[float, float]]:
        """(min, max) start-of-macro-step flow envelope for both directions:
        the plans' estimated flows plus the non-gated flow."""
        bounds = []
        for est, d in zip(zip(*self.plan_flows(obs, arrivals)), self.directions):
            ng = obs.non_gating_crossings.get(d, 0.0)
            bounds.append((min(est) + ng, max(est) + ng))
        return bounds[0], bounds[1]

    def control_step(self, obs: MicroObservation, arrivals: Mapping[str, float]) -> str:
        """Rank every plan and activate the least.  A plan is inside the band
        when, in both directions, its relative deviation from the expected
        rate is below (u - k + 1)·sigma (below 1 with the absolute scale
        sigma_abs when nothing more is expected)."""
        c = self.control
        u, dt = c.steps_per_macro, c.t_micro_s
        k = self.steps + 1
        remaining = u - k + 1
        # the rate that would still meet the macro target, floored at zero
        expected = [
            max((target * (u * dt) - done * dt) / (remaining * dt), 0.0)
            for target, done in zip(self.targets, self.realized)
        ]
        ng = [obs.non_gating_crossings.get(d, 0.0) for d in self.directions]
        scale = [m if m > 0.0 else c.sigma_abs_veh_s for m in expected]
        band = [remaining * c.sigma if m > 0.0 else 1.0 for m in expected]

        estimates = self.plan_flows(obs, arrivals)
        weights = None  # priced only once a plan is inside the band
        ranks = []
        for index, est in enumerate(estimates):
            dev = [abs(e + n - m) / s for e, n, m, s in zip(est, ng, expected, scale)]
            if dev[0] < band[0] and dev[1] < band[1]:
                if weights is None:
                    weights = plan_weights(self.plan_lanes, obs, self.net)
                ranks.append((0, -weights[index], index))
            else:
                ranks.append((1, dev[0] + dev[1], index))
        fallback, _, index = min(ranks)
        self.last_decision = BoundaryDecision(
            time_s=obs.time_s,
            boundary="|".join(self.key),
            k=k,
            plan=self.plan_lanes.ids[index],
            fallback=bool(fallback),
            feasible_count=sum(r[0] == 0 for r in ranks),
            m_expected_fwd=expected[0],
            m_expected_rev=expected[1],
            est_fwd=estimates[index][0],
            est_rev=estimates[index][1],
            ng_fwd=ng[0],
            ng_rev=ng[1],
        )
        return self.plan_lanes.ids[index]

    def record_realized(self, obs: MicroObservation) -> None:
        """Add the realized flows once the simulator finished the step that
        ``control_step`` decided, and note them in its decision."""
        d = self.last_decision
        d.realized_fwd, d.realized_rev = (
            obs.boundary_crossings.get(x, 0.0) for x in self.directions
        )
        self.realized[0] += d.realized_fwd
        self.realized[1] += d.realized_rev
        self.steps += 1
