"""Independent brute-force oracles used by unit and acceptance tests.

These re-derive expected values from first principles (dense grids,
exhaustive scans) and deliberately share no code with the solvers they
check.  ``step`` and ``targets`` replay the region dynamics and boundary
targets through the transfer bookkeeping below (``transfers``), which the
solvers do not call.  ``annotate_routes`` is route guidance's
per-vehicle candidate sets as first written, ``candidate_next_regions`` and
``reference_route_bounds`` the split bounds over them, and
``counted_routes`` rebuilds ``routectl.route_tables``' count tables from
those sets.  ``per_vehicle_candidates`` rebuilds the candidate sets over
``routectl.generate_routes``' alternatives with nothing shared across
vehicles, one search and route per vehicle, and its own queue-position rule
for the projected link.
``reference_logit_routes`` is logit rerouting as first written: one
candidate set per vehicle record, then one draw per unpinned vehicle in id
order.  ``forward_shortest_route`` is the reference shortest-path
search: a forward label-setting search from the origin, sharing no code with
``netmodel.shortest_paths_to``.  ``ReferenceController`` is the boundary
plan rule as three separate steps (expected rate, feasible set, selection)
over per-plan flow and pressure estimates as first written (``plan_flow``,
``plan_weight``: every lane term computed anew for each plan), the
reference for the controller's single ranking over per-step lane terms.
``density_fields`` recomputes the expected end-of-step link densities that
the route-choice solve fits.
``reference_arrivals`` is the simulator's arrivals projection as first
written: a projection over every running vehicle of every link.
``reference_demand`` is demand injection's Poisson stream as first written:
one scalar draw per OD with a positive rate, per step.
``dense_route_probabilities`` is the route-choice solve as first written,
one dense column per vehicle candidate, always solved by ``lsq_linear``'s
bounded-variable least squares, with the decision and its explanation in
one ``RouteChoice``.
"""

from __future__ import annotations

import heapq
import logging
import math
from collections import Counter
from dataclasses import dataclass
from typing import Collection, Mapping, Sequence

import numpy as np
from scipy.optimize import lsq_linear

from msjc.baselines import logit_choice, route_travel_time
from msjc.boundaryctl import BoundaryDecision
from msjc.jointctl import BKey, TKey
from msjc.macrodyn import CompletionModel, MacroState
from msjc.mesosim import MicroObservation, Simulator
from msjc.netmodel import (
    Network,
    Scenario,
    TravelTimes,
    boundary_key,
    next_region,
    shortest_paths_to,
)
from msjc.routectl import (
    CandidateRoute,
    RouteCounts,
    RouteTables,
    VehicleRoutes,
)

logger = logging.getLogger(__name__)


@dataclass
class RouteChoice:
    """A region's route-choice decision with the terms ``routing.csv``
    explains it by."""

    phi: dict[int, Sequence[float]]
    target_term: float
    homogeneity_term: float
    realized: dict[TKey, float]
    iterations: int


class FractionMfd:
    """Completion model releasing a fixed fraction of the accumulation per
    macro step, with explicit critical values."""

    def __init__(self, fraction: dict[str, float], crit: dict[str, float], t_macro: float = 100.0):
        self.fraction = dict(fraction)
        self.crit = dict(crit)
        self.t = t_macro

    def evaluate(self, region: str, n: float) -> float:
        return self.fraction[region] * n / self.t

    def critical(self, region: str) -> float:
        return self.crit[region]


def two_region_grid_search(state, mfd, bounds, resolution=1e-3, refine=False):
    """Objective of the joint program on a two-region instance by exhaustive
    search over (b_12, b_21) with the splits pinned at 1 (single neighbor).

    With ``refine``, two nested grid passes shrink the quantization error to
    ~1e-7 of a gating step.  Returns (z*, b12*, b21*, flows*)."""
    r1, r2 = state.regions
    n1, n2 = state.accumulation(r1), state.accumulation(r2)
    t = state.t_macro_s
    k12 = state.n.get((r1, r2), 0.0) / n1 * mfd.evaluate(r1, n1) * t
    k21 = state.n.get((r2, r1), 0.0) / n2 * mfd.evaluate(r2, n2) * t
    t2_1 = state.n.get((r1, r1), 0.0) / n1 * mfd.evaluate(r1, n1) * t
    t2_2 = state.n.get((r2, r2), 0.0) / n2 * mfd.evaluate(r2, n2) * t
    q1 = sum(v for (i, j), v in state.q.items() if i == r1)
    q2 = sum(v for (i, j), v in state.q.items() if i == r2)
    base1 = n1 + q1 - t2_1 - mfd.critical(r1)
    base2 = n2 + q2 - t2_2 - mfd.critical(r2)

    def scan(lo12, hi12, lo21, hi21, res):
        g12 = np.arange(lo12, hi12 + res / 2, res)
        g21 = np.arange(lo21, hi21 + res / 2, res)
        b12 = g12[:, None]
        b21 = g21[None, :]
        out12 = b12 * k12
        out21 = b21 * k21
        g1 = base1 - out12 + out21
        g2 = base2 - out21 + out12
        z = np.maximum(g1, g2)
        m12 = out12 / t
        m21 = out21 / t
        eps = 1e-12
        feasible = (
            (m12 >= bounds.m_min[(r1, r2)] - eps)
            & (m12 <= bounds.m_max[(r1, r2)] + eps)
            & (m21 >= bounds.m_min[(r2, r1)] - eps)
            & (m21 <= bounds.m_max[(r2, r1)] + eps)
        )
        z = np.where(feasible, z, np.inf)
        idx = np.unravel_index(np.argmin(z), z.shape)
        return float(z[idx]), float(g12[idx[0]]), float(g21[idx[1]])

    z_best, b12_best, b21_best = scan(0.0, 1.0, 0.0, 1.0, resolution)
    if refine:
        res = resolution
        for _ in range(3):
            lo12, hi12 = max(0.0, b12_best - 2 * res), min(1.0, b12_best + 2 * res)
            lo21, hi21 = max(0.0, b21_best - 2 * res), min(1.0, b21_best + 2 * res)
            res /= 100.0
            z_new, b12_new, b21_new = scan(lo12, hi12, lo21, hi21, res)
            if z_new < z_best:
                z_best, b12_best, b21_best = z_new, b12_new, b21_new
    return (
        z_best,
        b12_best,
        b21_best,
        {(r1, r2): b12_best * k12 / t, (r2, r1): b21_best * k21 / t},
    )


def route_choice_grid_search(objective, n_vars, resolution=1e-3):
    """Minimize a convex objective over [0,1]^n_vars by dense grid (each
    variable is a two-route split, phi = (x, 1-x))."""
    grid = np.arange(0.0, 1.0 + resolution / 2, resolution)
    if n_vars == 1:
        values = np.array([objective((x,)) for x in grid])
        k = int(np.argmin(values))
        return float(values[k]), (float(grid[k]),)
    if n_vars == 2:
        # full arrays, not broadcast views: objectives may add in place
        xs, ys = np.meshgrid(grid, grid, indexing="ij")
        values = objective((xs, ys))
        k = int(np.argmin(values))  # first minimum in row-major order
        return float(values.flat[k]), (float(xs.flat[k]), float(ys.flat[k]))
    raise ValueError("grid oracle supports at most two free vehicles")


@dataclass(frozen=True)
class TransferEstimate:
    type1: dict[tuple[str, str], float]  # released-at-boundary stock per (i, j)
    type2: dict[str, float]  # internal completions per region
    n_crossing: dict[TKey, float]  # veh transferred per (i, h, j)
    m_crossing: dict[TKey, float]  # veh/s per (i, h, j)
    m_boundary: dict[BKey, float]  # veh/s per ordered boundary


def completion_split(
    state: MacroState, mfd: CompletionModel
) -> tuple[dict[tuple[str, str], float], dict[str, float]]:
    """Split each region's completion flow into boundary-ready stock per
    destination (type I) and internal completions (type II), in vehicles per
    macro step.  Empty regions contribute zero."""
    type1: dict[tuple[str, str], float] = {}
    type2: dict[str, float] = {}
    for i in state.regions:
        n_i = state.accumulation(i)
        if n_i <= 0.0:
            type2[i] = 0.0
            for j in state.regions:
                if j != i:
                    type1[(i, j)] = 0.0
            continue
        total = mfd.evaluate(i, n_i) * state.t_macro_s
        type2[i] = state.n.get((i, i), 0.0) / n_i * total
        for j in state.regions:
            if j != i:
                type1[(i, j)] = state.n.get((i, j), 0.0) / n_i * total
    return type1, type2


def _check_controls(
    state: MacroState, b: Mapping[BKey, float], c: Mapping[TKey, float]
) -> None:
    for key, value in b.items():
        if not -1e-9 <= value <= 1.0 + 1e-9:
            raise ValueError(f"b{key} = {value} outside [0, 1]")
    sums: dict[tuple[str, str], float] = {}
    for (i, h, j), value in c.items():
        if value < -1e-9:
            raise ValueError(f"c{(i, h, j)} = {value} negative")
        sums[(i, j)] = sums.get((i, j), 0.0) + value
    for (i, j), total in sums.items():
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"sum_h c[{i},h,{j}] = {total} != 1")


def transfers(
    state: MacroState,
    mfd: CompletionModel,
    b: Mapping[BKey, float],
    c: Mapping[TKey, float],
) -> TransferEstimate:
    """Boundary transfers implied by controls (b, c) on the current state."""
    _check_controls(state, b, c)
    type1, type2 = completion_split(state, mfd)
    n_crossing: dict[TKey, float] = {}
    m_crossing: dict[TKey, float] = {}
    m_boundary: dict[BKey, float] = {}
    for i in state.regions:
        for h in state.adjacency[i]:
            m_boundary[(i, h)] = 0.0
            for j in state.regions:
                if j == i:
                    continue
                released = type1.get((i, j), 0.0)
                moved = b.get((i, h), 0.0) * c.get((i, h, j), 0.0) * released
                n_crossing[(i, h, j)] = moved
                m_crossing[(i, h, j)] = moved / state.t_macro_s
                m_boundary[(i, h)] += moved / state.t_macro_s
    return TransferEstimate(type1, type2, n_crossing, m_crossing, m_boundary)


def step(
    state: MacroState,
    mfd: CompletionModel,
    b: Mapping[BKey, float],
    c: Mapping[TKey, float],
    q: Mapping[tuple[str, str], float],
) -> MacroState:
    """One macro step of the region dynamics.

    Negative stocks (possible when the completion flow overdraws a bucket at
    a coarse step) are clamped at zero and logged.
    """
    est = transfers(state, mfd, b, c)
    new_n: dict[tuple[str, str], float] = {}
    clamped = 0
    for i in state.regions:
        for j in state.regions:
            value = state.n.get((i, j), 0.0) + q.get((i, j), 0.0)
            if i == j:
                value -= est.type2[i]
                for h in state.adjacency[i]:
                    value += est.n_crossing.get((h, i, i), 0.0)
            else:
                for h in state.adjacency[i]:
                    if h != j:
                        value += est.n_crossing.get((h, i, j), 0.0)
                    value -= est.n_crossing.get((i, h, j), 0.0)
            if value < 0.0:
                clamped += 1
                logger.debug("clamped N[%s,%s] = %.6g to 0", i, j, value)
                value = 0.0
            new_n[(i, j)] = value
    if clamped:
        logger.warning("macro step clamped %d negative stocks", clamped)
    return MacroState(
        n=new_n,
        q={},
        t_macro_s=state.t_macro_s,
        regions=state.regions,
        adjacency=state.adjacency,
    )


def targets(solution, state: MacroState, mfd: CompletionModel) -> dict[BKey, float]:
    """Boundary flow targets implied by a solution's controls, via the macro
    transfer bookkeeping."""
    est = transfers(state, mfd, solution.b, solution.c)
    return dict(sorted(est.m_boundary.items()))


def per_vehicle_candidates(
    sim: Simulator, vehicles: Sequence, travel_times: Mapping[str, float]
) -> list[tuple[list[tuple], bool]]:
    """Candidate routes of each of ``vehicles`` (``sim.vehicles`` records)
    with nothing shared between vehicles: a fresh search, on a fresh copy of
    the travel times, and route per vehicle; a queued vehicle gets the
    shortest route only if its lane feeds that route's next link.  A queued
    vehicle is projected onto its route's next link when it clears the stop
    line within the step at its lane's saturation headway, its current link
    otherwise, and to None outside its region.  Per vehicle, returns
    ([(links, is_current, next_region, projected_link), ...], pinned).
    ``annotate_routes`` builds the vehicle's candidates as
    (links, next_region, projected_link), with the current route first and
    one candidate exactly when the vehicle is pinned; in
    ``routectl.generate_routes``' map a vehicle has an entry, its second
    candidate's links, exactly when it is not pinned."""
    net = sim.net
    out = []
    for v in vehicles:
        link = v.route[0]
        moves = False
        if v.lane is not None:
            position = sim._queues[v.lane].index(v.id)
            headway_s = 1.0 / net.lanes[v.lane].sat_flow_veh_s
            moves = (position + 1) * headway_s <= sim.dt + 1e-6
        candidates = [v.route]
        if len(v.route) > 2:
            fresh = TravelTimes(net, [travel_times[l] for l in net.link_ids])
            best = shortest_paths_to(fresh, v.destination, (link,))[link]
            feeds = v.lane is None or any(
                net.lanes[out].link == best[1] for out in net.lanes[v.lane].output_lanes
            )
            if best != v.route and feeds:
                candidates.append(best)
        region = net.links[link].region
        annotated = []
        for r in candidates:
            projected = r[1] if moves else r[0]
            if net.links[projected].region != region:
                projected = None
            annotated.append((r, r == v.route, next_region(r, net), projected))
        out.append((annotated, len(candidates) == 1))
    return out


def annotate_routes(
    vehicles: Sequence,
    alternatives: Mapping[int, tuple[str, ...]],
    net: Network,
    heads: Collection[int],
) -> list[VehicleRoutes]:
    """The candidate set of every one of ``vehicles``, as route guidance
    first built it: the current route first, then its entry in
    ``alternatives`` if any, each with its upcoming region and projected
    end-of-step link (``route[1]`` for a vehicle in ``heads``, else
    ``route[0]``; None outside the vehicle's region)."""
    region_of = net.region_of
    out: list[VehicleRoutes] = []
    for v in vehicles:
        region = region_of[v.route[0]]
        k = 1 if v.id in heads else 0
        links = (v.route, alternatives[v.id]) if v.id in alternatives else (v.route,)
        routes = tuple(
            CandidateRoute(r, next_region(r, net), r[k] if region_of[r[k]] == region else None)
            for r in links
        )
        out.append(VehicleRoutes(v.id, region, v.dest_region, routes))
    return out


def candidate_next_regions(
    routes: Sequence[VehicleRoutes],
) -> dict[tuple[str, str], list[frozenset[str]]]:
    """Per-OD candidate next-region sets, one per vehicle, as the split
    bounds first read them."""
    out: dict[tuple[str, str], list[frozenset[str]]] = {}
    for vr in routes:
        if vr.dest_region == vr.region:
            continue
        key = (vr.region, vr.dest_region)
        out.setdefault(key, []).append(frozenset(r.next_region for r in vr.routes))
    return out


def reference_route_bounds(
    candidates: Mapping[tuple[str, str], Sequence[Collection[str]]],
    adjacency: Mapping[str, tuple[str, ...]],
) -> tuple[dict[TKey, float], dict[TKey, float]]:
    """``jointctl.route_bounds`` as first written, one vehicle's set at a
    time: per OD, the share of vehicles that could go via h, and the share
    whose set is h alone."""
    c_min: dict[TKey, float] = {}
    c_max: dict[TKey, float] = {}
    for (i, j), vehicle_sets in candidates.items():
        n = len(vehicle_sets)
        for h in adjacency[i]:
            could = sum(1 for s in vehicle_sets if h in s)
            must = sum(1 for s in vehicle_sets if set(s) == {h})
            c_min[(i, h, j)] = must / n
            c_max[(i, h, j)] = could / n
    return c_min, c_max


def counted_routes(routes: Sequence[VehicleRoutes]) -> RouteTables:
    """``routectl.route_tables``' output rebuilt from per-vehicle candidate
    sets (``annotate_routes``) with ``Counter``s: per region its vehicles
    with two candidates, and its vehicles counted by last candidate."""
    choices: dict[str, list[VehicleRoutes]] = {}
    counts: dict[str, RouteCounts] = {}
    for region in dict.fromkeys(vr.region for vr in routes):
        mine = [vr for vr in routes if vr.region == region]
        with_choice = [vr for vr in mine if len(vr.routes) == 2]
        if with_choice:
            choices[region] = with_choice
        counts[region] = RouteCounts(
            Counter(vr.dest_region for vr in mine),
            Counter((vr.routes[-1].next_region, vr.dest_region) for vr in mine),
            Counter(vr.routes[-1].projected_link for vr in mine),
        )
    return RouteTables(choices, counts)


def reference_logit_routes(strategy) -> dict[int, tuple[str, ...]]:
    """The ``logit`` route rule as first written: every vehicle record gets
    its candidate set (its current route, then its fresh-search shortest
    route when that differs and its lane serves it), the sets are sorted by
    id, and each unpinned vehicle draws once from ``sim.routing_rng``."""
    sim: Simulator = strategy.sim
    tt = sim.travel_time_estimates()
    records = [v for v in sim.vehicles.values() if len(v.route) > 2]
    candidates = per_vehicle_candidates(sim, records, tt)
    assignments: dict[int, tuple[str, ...]] = {}
    for v, (cands, pinned) in sorted(zip(records, candidates), key=lambda vc: vc[0].id):
        if pinned:
            continue
        times = [route_travel_time(links, tt) for links, *_ in cands]
        phi = logit_choice(times, strategy.scenario.control.logit_theta)
        links, is_current, _, _ = cands[int(sim.routing_rng.choice(len(phi), p=phi))]
        if not is_current:
            assignments[v.id] = links
    return assignments


def forward_shortest_route(
    net: Network, origin: str, destination: str, travel_times: Mapping[str, float]
) -> tuple[str, ...] | None:
    """Minimum-travel-time link route from origin to destination
    (label-setting over the link graph; the first parent found wins a tie,
    unlike ``netmodel.shortest_paths_to``, so compare on tie-free times)."""
    dist = {origin: 0.0}
    parent: dict[str, str] = {}
    heap: list[tuple[float, str]] = [(0.0, origin)]
    while heap:
        d, link = heapq.heappop(heap)
        if link == destination:
            route = [link]
            while link in parent:
                link = parent[link]
                route.append(link)
            return tuple(reversed(route))
        if d > dist.get(link, math.inf):
            continue
        for nxt in net.successors(link):
            nd = d + travel_times[nxt]
            if nd < dist.get(nxt, math.inf) - 1e-12:
                dist[nxt] = nd
                parent[nxt] = link
                heapq.heappush(heap, (nd, nxt))
    return None


# ---------------------------------------------------------------------------
# Simulator arrivals projection, walking every vehicle


def reference_arrivals(sim: Simulator) -> dict[str, float]:
    """Queued plus imminent joiners on every lane of the network: each
    running vehicle within one step of its stop line and not at its
    destination is put on the least loaded lane serving its next move, the
    lowest lane id on a tie, with no capacity check."""
    dt = sim.dt
    arrivals = {lane: float(len(q)) for lane, q in sim._queues.items()}
    for link_id in sorted(sim._running):
        loads = {l: len(sim._queues[l]) for l in sim.net.links[link_id].lanes}
        for vid in sim._running[link_id]:
            v = sim.vehicles[vid]
            if v.remaining_s > dt or v.current == v.destination:
                continue
            lane = min(sim.net.lanes_to[v.route[:2]], key=lambda l: (loads[l], l))
            loads[lane] += 1
            arrivals[lane] += 1.0
    return arrivals


def reference_demand(
    scenario: Scenario, seed: int, steps: int, demand_scale: float = 1.0
) -> list[Counter[tuple[str, str]]]:
    """Per step, the arrivals per (origin, destination): one scalar
    ``poisson(rate * dt)`` per OD with a positive rate, in OD order, from a
    Generator seeded as the simulator seeds its demand stream; no draw from
    the demand horizon on."""
    demand_seq, _ = np.random.SeedSequence([seed, scenario.demand.seed]).spawn(2)
    rng = np.random.Generator(np.random.PCG64(demand_seq))
    dt = scenario.control.t_micro_s
    counts = []
    for step in range(steps):
        t = step * dt
        arrived: Counter[tuple[str, str]] = Counter()
        if t < scenario.demand.horizon_s:
            for flow in scenario.demand.od:
                rate = flow.rate_at(t) * demand_scale
                if rate > 0.0:
                    arrived[flow.origin, flow.destination] += int(rng.poisson(rate * dt))
        counts.append(+arrived)
    return counts


# ---------------------------------------------------------------------------
# Boundary control as three steps (expected rate, feasible set, selection)


@dataclass
class BoundaryTracker:
    """Per ordered boundary (i, h): macro target and the flow realized so
    far, added left to right."""

    boundary: tuple[str, str]
    target_veh_s: float = 0.0
    u: int = 10
    k: int = 1
    observed_veh_s: float = 0.0
    ng_rate: float = 0.0
    sigma: float = 0.1
    sigma_abs: float = 0.05
    t_micro_s: float = 10.0
    floored: bool = False

    def begin_macro(self, target_veh_s: float) -> None:
        self.target_veh_s = target_veh_s
        self.k = 1
        self.observed_veh_s = 0.0
        self.floored = False

    def record(self, realized_veh_s: float, ng_veh_s: float) -> None:
        self.observed_veh_s += realized_veh_s
        self.ng_rate = ng_veh_s
        self.k += 1


def plan_flow(
    green: Collection[str],
    obs: MicroObservation,
    arrivals: Mapping[str, float],
    net: Network,
    direction: tuple[str, str],
) -> float:
    """The estimated flow (veh/s) across ``direction`` of a plan that turns
    ``green`` green, as first written, every lane term computed for this
    plan alone: per served crossing lane, min(arrivals, saturation,
    downstream space), divided by the step length.  A served lane crosses i -> h when it lies in i and one
    of its output lanes in h."""
    i, h = direction

    def region(lane_id: str) -> str:
        return net.links[net.lanes[lane_id].link].region

    total = 0.0
    for lane_id in sorted(green):
        lane = net.lanes[lane_id]
        if region(lane_id) != i or all(region(out) != h for out in lane.output_lanes):
            continue
        arriving = arrivals.get(lane_id, 0.0)
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


def plan_weight(green: Collection[str], obs: MicroObservation, net: Network) -> float:
    """The backpressure weight of a plan that turns ``green`` green, as
    first written: over those lanes in id order, served queue minus mean
    downstream queue, scaled by each lane's saturation flow."""
    w = 0.0
    for lane_id in sorted(green):
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


def expected_rate(tracker: BoundaryTracker) -> float:
    """Remaining per-step flow budget (veh/s), floored at zero."""
    t_macro = tracker.u * tracker.t_micro_s
    done = tracker.observed_veh_s * tracker.t_micro_s
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


class ReferenceController:
    """The boundary control loop as three separate steps: expected rates,
    the feasible set and the plan selection, each in its own helper above.
    Takes the four control settings one by one and returns the same
    ``BoundaryDecision`` as ``boundaryctl.BoundaryController``."""

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
        lanes = net.plan_lanes[self.key]
        self.green = dict(zip(lanes.ids, lanes.green))  # plan id -> green lanes
        self.plan_order = list(lanes.ids)
        self.last_decision: BoundaryDecision | None = None

    def begin_macro(self, target_fwd: float, target_rev: float) -> None:
        self.fwd.begin_macro(target_fwd)
        self.rev.begin_macro(target_rev)

    def macro_flow_bounds(
        self, obs: MicroObservation, arrivals: Mapping[str, float]
    ) -> tuple[tuple[float, float], tuple[float, float]]:
        """(min, max) start-of-macro-step flow envelope for both directions."""
        i, h = self.key
        est_fwd = {p: plan_flow(g, obs, arrivals, self.net, (i, h)) for p, g in self.green.items()}
        est_rev = {p: plan_flow(g, obs, arrivals, self.net, (h, i)) for p, g in self.green.items()}
        ng_fwd = obs.non_gating_crossings.get((i, h), 0.0)
        ng_rev = obs.non_gating_crossings.get((h, i), 0.0)
        return flow_bounds(est_fwd, ng_fwd), flow_bounds(est_rev, ng_rev)

    def control_step(self, obs: MicroObservation, arrivals: Mapping[str, float]) -> str:
        """Steps 1-5 of the per-boundary control loop for one micro step."""
        i, h = self.key
        self.fwd.ng_rate = obs.non_gating_crossings.get((i, h), 0.0)
        self.rev.ng_rate = obs.non_gating_crossings.get((h, i), 0.0)

        m_fwd = expected_rate(self.fwd)
        m_rev = expected_rate(self.rev)
        estimates = {
            p: (
                plan_flow(g, obs, arrivals, self.net, (i, h)),
                plan_flow(g, obs, arrivals, self.net, (h, i)),
            )
            for p, g in self.green.items()
        }
        feasible = feasible_plans(self.fwd, self.rev, estimates, self.plan_order)
        weights = {p: plan_weight(g, obs, self.net) for p, g in self.green.items()}
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


def density_fields(
    routes: Sequence[VehicleRoutes],
    phi: Mapping[int, np.ndarray],
    net: Network,
    region: str,
    accumulation: float,
) -> tuple[dict[str, float], float]:
    """Expected end-of-step link densities (veh/m/lane) and the region mean."""
    region_links = sorted(
        l.id for l in net.links.values() if l.region == region
    )
    area = {
        l: len(net.links[l].lanes) * net.links[l].length_m for l in region_links
    }
    mass = {l: 0.0 for l in region_links}
    for vr in routes:
        if vr.region != region:
            continue
        weights = phi[vr.vid]
        for r, w in zip(vr.routes, weights):
            if r.projected_link is not None and r.projected_link in mass:
                mass[r.projected_link] += float(w)
    densities = {l: mass[l] / area[l] for l in region_links}
    mean = accumulation / sum(area.values()) if region_links else 0.0
    return densities, mean


def dense_route_probabilities(
    routes: Sequence[VehicleRoutes],
    targets: Mapping[tuple[str, str, str], float],
    net: Network,
    region: str,
    accumulation: float,
    beta: float,
    adjacency: Mapping[str, tuple[str, ...]],
) -> RouteChoice:
    """``routectl.solve_probabilities`` as first written: a dense column of
    realized proportions and link densities for every candidate of every
    vehicle in ``region``, the constant part summed over all vehicles'
    last candidates column by column, and ``phi`` for every vehicle (``[1.0]``
    for one with a single candidate)."""
    in_region = [vr for vr in routes if vr.region == region]
    if not in_region:
        raise ValueError(f"no vehicles to route in region {region}")
    for vr in in_region:
        if len(vr.routes) > 2:
            raise ValueError(
                f"vehicle {vr.vid}: {len(vr.routes)} candidate routes, at most 2 supported"
            )

    od_counts = Counter(vr.dest_region for vr in in_region if vr.dest_region != region)
    keys = [(region, h, j) for j in sorted(od_counts) for h in adjacency[region]]
    key_row = {key: k for k, key in enumerate(keys)}
    region_links = sorted(l.id for l in net.links.values() if l.region == region)
    link_row = {l: len(keys) + k for k, l in enumerate(region_links)}
    area = {l: len(net.links[l].lanes) * net.links[l].length_m for l in region_links}
    d_bar = accumulation / sum(area.values())

    def column(vr: VehicleRoutes, r: CandidateRoute) -> np.ndarray:
        """Realized proportions and link densities of one vehicle certainly
        on route ``r``."""
        col = np.zeros(len(keys) + len(region_links))
        row = key_row.get((region, r.next_region, vr.dest_region))
        if row is not None:
            col[row] = 1.0 / od_counts[vr.dest_region]
        if r.projected_link in link_row:
            col[link_row[r.projected_link]] = 1.0 / area[r.projected_link]
        return col

    # At x = 0 every vehicle takes its last candidate.
    free = [vr for vr in in_region if len(vr.routes) == 2]
    base = sum(column(vr, vr.routes[-1]) for vr in in_region)
    m_mat = np.zeros((len(base), len(free)))
    for k, vr in enumerate(free):
        m_mat[:, k] = column(vr, vr.routes[0]) - column(vr, vr.routes[1])
    goal = np.array([targets.get(key, 0.0) for key in keys] + [d_bar] * len(region_links))
    weight = np.array([math.sqrt(beta)] * len(keys) + [1.0] * len(region_links))
    x, iterations = np.zeros(0), 0
    if free:
        sol = lsq_linear(
            weight[:, None] * m_mat, weight * (goal - base), bounds=(0.0, 1.0), method="bvls"
        )
        x, iterations = sol.x, sol.nit

    phi = {vr.vid: np.ones(1) for vr in in_region}
    for vr, xk in zip(free, x):
        phi[vr.vid] = np.array([xk, 1.0 - xk])
    value = base + m_mat @ x
    target_term = beta * float(np.sum((value[: len(keys)] - goal[: len(keys)]) ** 2))
    homog_term = float(np.sum((value[len(keys) :] - d_bar) ** 2))
    return RouteChoice(
        phi=phi,
        target_term=target_term,
        homogeneity_term=homog_term,
        realized={key: float(v) for key, v in zip(keys, value)},
        iterations=iterations,
    )
