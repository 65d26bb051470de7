"""Queue-based mesoscopic traffic engine.

Links are point queues: a vehicle traverses a link at free-flow speed, then
waits in a vertical queue at the stop line until a lane serves it.  Service
per lane and step is min(queued + arrived, saturation flow * dt, downstream
space), with gating approaches served only when the activated multi-phase
plan allows their lane.  Vehicles enter on the shortest route and follow
their routes link by link; blocked vehicles are never removed.

Demand takes one ``poisson`` call per ``steps_per_macro`` injections, each
taking the next row of per-OD counts.  Runs inject once per step, so this is
the stream of per-step scalar draws: numpy draws an array element by element
with the scalar routine, and a zero rate draws nothing.

Routing reads one snapshot per step.  ``travel_time_estimates`` fixes the
per-link times (free flow plus queue clearance) on its first call after
``advance``, the only code that changes a lane queue, and returns that same
snapshot until the next ``advance``; only links with a queued lane differ
from free flow.  A snapshot holds one resumable search per destination
(``netmodel.shortest_paths_to``), so every caller in one step extends the
same search and gets the same route from the same start link.  The
simulator's one free-flow snapshot, built with it, is the snapshot of every
step that finds every lane queue empty; its searches resume across all
steps, so once they have settled, a free-flow route only walks the search.
A route depends only on the times, so sharing a snapshot moves no route.

Demand injection routes a destination's ODs on the free-flow snapshot
first, and searches the step's snapshot only for those whose free-flow
route meets a queued lane; a destination with a queued origin link needs
that search anyway, so all its ODs go straight to it.  A step whose
injected routes all meet no queue builds no snapshot.  This is exact:
queue terms are >= 0, so a free-flow shortest route that meets no queue
keeps its time while every other route's time can only grow, and at each
of its links every other successor within 1e-12 of tight was within it at
free flow too, so the smallest-next-link tie rule keeps the same
successor.  Rerouting (``routectl``) searches the step's snapshot.

A new vehicle waits in its origin's entry queue until the origin link has
storage; ``Simulator.vehicles``, the only per-vehicle record, holds exactly
the vehicles in the network, and ``queue_heads`` the queued ones the next
step may discharge.
Every route is drivable: each link is followed by one of its successors,
and a queued vehicle's next link is one its lane serves (``set_route``
rejects any other route).

One step runs from static tables built once per network
(``Network.service_order``, ``region_of``, ``plan_lanes``,
``region_links``) and per-lane discharge budgets and capacities built once
per simulator.  Boundary control's projected arrivals are built on demand
(``Simulator.arrivals``), not by a step.

The engine is deterministic: identical seed, scenario and control trace
produce an identical observation trace.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .netmodel import GATING, NON_GATING, Network, Scenario, ScenarioError
from .netmodel import TravelTimes, shortest_paths_to


@dataclass(slots=True)
class _Vehicle:
    id: int
    destination: str
    dest_region: str
    route: tuple[str, ...]  # route[0] is always the current link
    remaining_s: float = 0.0  # free-flow time left to the stop line
    lane: str | None = None  # the lane it queues in at the stop line, once it does

    @property
    def current(self) -> str:
        return self.route[0]


@dataclass(frozen=True)
class MicroObservation:
    """State snapshot after one micro step plus the flows realized during it.

    ``queues`` is the end-of-step queue of every lane (a decision input for
    the next step).  ``boundary_crossings`` are the exact counts of link
    transitions across each ordered region boundary during the step, in
    veh/s, keyed in ``RegionPartition.ordered_boundaries()`` order.
    ``accumulation`` is the vehicles in each region's links at the end of
    the step.
    ``Simulator.od_counts()``, ``queue_heads()`` and ``arrivals()`` build the
    OD counts, the next step's queue heads and the projected arrivals on
    demand.
    """

    step: int
    time_s: float
    dt_s: float
    queues: dict[str, int]
    boundary_crossings: dict[tuple[str, str], float]
    non_gating_crossings: dict[tuple[str, str], float]
    accumulation: dict[str, int]
    completed: int
    completions_by_region: dict[str, int]
    admitted_od: dict[tuple[str, str], int]
    entry_queue: int
    in_network: int

    def queue_total(self) -> int:
        return sum(self.queues.values())


# the most vehicles a demand scale may be expected to create over the
# demand horizon; grid6 at scale 1.0 expects about 1,350
MAX_EXPECTED_VEHICLES = 1e6


def check_demand_scale(scenario: Scenario, scale: float) -> None:
    """Raise ScenarioError, naming the scale and the count, unless ``scale``
    is finite and > 0 and the expected vehicles over the demand horizon
    (over ODs, the peak rate times the scale and the horizon) are at most
    MAX_EXPECTED_VEHICLES."""
    demand = scenario.demand
    expected = math.fsum(
        max((rate for _, rate in od.profile), default=0.0) * scale * demand.horizon_s
        for od in demand.od
    )
    if not (0 < scale < math.inf and expected <= MAX_EXPECTED_VEHICLES):
        raise ScenarioError(
            f"demand scale {scale:g} expects {expected:.6g} vehicles over the demand "
            f"horizon; it must be finite and > 0 and expect at most {MAX_EXPECTED_VEHICLES:g}"
        )


class Simulator:
    """Single-writer simulation state; ``advance`` is the only mutator."""

    def __init__(self, scenario: Scenario, seed: int, demand_scale: float = 1.0):
        """Raises ScenarioError for a demand scale ``check_demand_scale``
        rejects, before anything is allocated."""
        check_demand_scale(scenario, demand_scale)
        self.scenario = scenario
        self.net: Network = scenario.network
        self.partition = scenario.partition
        self.dt = scenario.control.t_micro_s
        self.demand_scale = demand_scale

        seq = np.random.SeedSequence([seed, scenario.demand.seed])
        demand_seq, routing_seq = seq.spawn(2)
        self.demand_rng = np.random.Generator(np.random.PCG64(demand_seq))
        self.routing_rng = np.random.Generator(np.random.PCG64(routing_seq))

        self.step_count = 0
        self.time_s = 0.0
        self.vehicles: dict[int, _Vehicle] = {}  # in the network, by id

        self._running: dict[str, list[int]] = {l: [] for l in self.net.links}
        self._queues: dict[str, list[int]] = {l: [] for l in self.net.lanes}
        self._occupancy: dict[str, int] = dict.fromkeys(self.net.links, 0)
        self._entry: dict[str, list[_Vehicle]] = {}  # staged, by origin link

        self._snapshot: TravelTimes | None = None  # this step's, until advance
        # injection's first snapshot, and every empty-queue step's
        self._free_flow = TravelTimes(
            self.net, [free_s for free_s, _, _ in self.net.travel_time_terms]
        )
        self.created_total = 0  # also the next vehicle id
        self.completed_total = 0
        # vehicles a lane may discharge per step, at most: the floor of
        # sat_flow * dt (int() floors a positive number)
        dt = self.dt
        self._budget = {
            l: int(lane.sat_flow_veh_s * dt + 1e-9) for l, lane in self.net.lanes.items()
        }
        self._capacity = {l: lane.capacity_veh for l, lane in self.net.lanes.items()}
        self._link_of = {l: self.net.link_index[lane.link] for l, lane in self.net.lanes.items()}
        # every rate's key
        self._no_crossings = dict.fromkeys(self.partition.ordered_boundaries(), 0.0)
        self._demand_rows: list[list[int]] = []  # drawn by the first call that needs them
        self._demand_next = 0

    # ------------------------------------------------------------------
    # Demand

    def travel_time_estimates(self) -> TravelTimes:
        """This step's per-link travel times, free flow plus queue clearance,
        with the route searches run on them: fixed on the first call after
        ``advance``, then the same snapshot until the next ``advance``.  A
        step with every lane queue empty gets the simulator's one free-flow
        snapshot; any other step builds a new snapshot, on the first call
        that needs one (injection only for a route that meets a queue), from
        the free-flow times with the links of the queued lanes recomputed."""
        if self._snapshot is None:
            queued = {self._link_of[l] for l, q in self._queues.items() if q}
            if queued:
                queue = self._queues.__getitem__
                times = list(self._free_flow.by_index)
                for k in queued:
                    free_s, lanes, service = self.net.travel_time_terms[k]
                    times[k] = free_s + sum(map(len, map(queue, lanes))) / service
                self._snapshot = TravelTimes(self.net, times)
            else:
                self._snapshot = self._free_flow
        return self._snapshot

    def shortest_route(
        self, destination: str, origins: Sequence[str], travel_times: TravelTimes
    ) -> dict[str, tuple[str, ...] | None]:
        """Minimum-travel-time link route from each of ``origins`` to
        ``destination`` (None: unreachable), from the snapshot's search for
        ``destination`` (``netmodel.shortest_paths_to``)."""
        return shortest_paths_to(travel_times, destination, origins)

    def inject_demand(self) -> list[int]:
        """Stage the current step's Poisson arrivals in the entry queues and
        return the new vehicle ids.  A call takes the next row of per-OD
        counts; with none left, one ``poisson`` call draws the rows of the
        ``steps_per_macro`` steps from this one at their rates (0 from the
        demand horizon on), so one call per step draws each at its own."""
        demand = self.scenario.demand
        if self.step_count * self.dt >= demand.horizon_s:
            return []
        if self._demand_next == len(self._demand_rows):
            dt, scale, first = self.dt, self.demand_scale, self.step_count
            steps = range(first, first + self.scenario.control.steps_per_macro)
            lam = [
                [max(f.rate_at(s * dt) * scale, 0.0) * dt for f in demand.od]
                if s * dt < demand.horizon_s else [0.0] * len(demand.od)
                for s in steps
            ]
            self._demand_rows = self.demand_rng.poisson(lam).tolist()
            self._demand_next = 0
        row = self._demand_rows[self._demand_next]
        self._demand_next += 1
        arriving = [(flow, count) for flow, count in zip(demand.od, row) if count]
        if not arriving:
            return []
        # travel times are fixed within a step, so one search per destination
        # routes every vehicle of its ODs; a free-flow route that meets no
        # queued lane is this step's route too (module docstring)
        origins: dict[str, list[str]] = {}
        for flow, _ in arriving:
            origins.setdefault(flow.destination, []).append(flow.origin)
        queued = {self.net.lanes[l].link for l, q in self._queues.items() if q}
        routes = {}
        tt = None
        for destination, starts in origins.items():
            if queued.isdisjoint(starts):
                found = self.shortest_route(destination, starts, self._free_flow)
                stale = [o for o, route in found.items() if not queued.isdisjoint(route)]
            else:
                found, stale = {}, starts
            if stale:
                if tt is None:
                    tt = self.travel_time_estimates()
                found.update(self.shortest_route(destination, stale, tt))
            routes[destination] = found
        # every OD is reachable (checked at load), so every route is found
        first = self.created_total
        for flow, count in arriving:
            route = routes[flow.destination][flow.origin]
            dest_region = self.net.region_of[flow.destination]
            self._entry.setdefault(flow.origin, []).extend(
                _Vehicle(self.created_total + k, flow.destination, dest_region, route)
                for k in range(count)
            )
            self.created_total += count
        return list(range(first, self.created_total))

    def set_route(self, vid: int, route: Sequence[str]) -> None:
        """Replace a vehicle's route.  Raises ValueError unless the route
        starts at the vehicle's current link, ends at its destination and
        moves from each link to one of its successors; a queued vehicle's
        lane must also serve the route's first move."""
        v = self.vehicles[vid]
        route = tuple(route)
        if route[0] != v.current:
            raise ValueError(
                f"vehicle {vid}: route must start at current link {v.current}"
            )
        if route[-1] != v.destination:
            raise ValueError(f"vehicle {vid}: route must end at {v.destination}")
        for move in zip(route, route[1:]):
            if move not in self.net.lanes_to:
                raise ValueError(f"vehicle {vid}: no move {move[0]} -> {move[1]}")
        if v.lane is not None and v.lane not in self.net.lanes_to[route[:2]]:
            raise ValueError(
                f"vehicle {vid}: lane {v.lane} does not serve {route[0]} -> {route[1]}"
            )
        v.route = route

    # ------------------------------------------------------------------
    # Stepping

    def advance(self, plans: Mapping[tuple[str, str], str]) -> MicroObservation:
        """Advance one micro step under the activated plans (one plan id per
        canonical boundary key) and return the step's observation."""
        self._snapshot = None  # the step moves the queues
        dt = self.dt
        net = self.net
        region_of = net.region_of
        storage = net.storage
        free_flow_s = net.free_flow_s
        vehicles = self.vehicles
        occupancy = self._occupancy
        running = self._running
        queues, lanes_to, capacity = self._queues, net.lanes_to, self._capacity
        # lanes the activated plans turn green; a boundary without an
        # activated plan runs a fixed-cycle round robin
        green: set[str] = set()
        for key, lanes in net.plan_lanes.items():
            plan_id = plans.get(key)
            index = self.step_count % len(lanes.ids) if plan_id is None else lanes.ids.index(plan_id)
            green.update(lanes.green[index])
        self.step_count += 1
        self.time_s += dt

        admitted_od: dict[tuple[str, str], int] = {}
        crossings: dict[tuple[str, str], int] = {}
        ng_crossings: dict[tuple[str, str], int] = {}
        completed = 0
        completions_by_region: dict[str, int] = {}

        # 1. admit staged vehicles while their origin link has storage
        for origin in sorted(self._entry):
            staged = self._entry[origin]
            while staged and occupancy[origin] < storage[origin]:
                v = staged.pop(0)
                v.remaining_s = free_flow_s[origin]
                vehicles[v.id] = v
                occupancy[origin] += 1
                running[origin].append(v.id)
                od = (region_of[origin], v.dest_region)
                admitted_od[od] = admitted_od.get(od, 0) + 1

        # 2. free-flow progress; vehicles reaching the stop line complete
        #    their trip or join the least-loaded lane with room serving
        #    their next move, the lower id first on a tie
        for link_id, on_link in running.items():
            if not on_link:
                continue
            still_running: list[int] = []
            for vid in on_link:
                v = vehicles[vid]
                remaining = v.remaining_s
                if remaining > dt:
                    v.remaining_s = remaining - dt
                    still_running.append(vid)
                    continue
                if remaining:
                    v.remaining_s = 0.0
                if v.route[0] == v.destination:
                    occupancy[link_id] -= 1
                    del vehicles[vid]
                    completed += 1
                    self.completed_total += 1
                    region = region_of[link_id]
                    completions_by_region[region] = (
                        completions_by_region.get(region, 0) + 1
                    )
                    continue
                lane = None
                for lane_id in lanes_to.get((link_id, v.route[1]), ()):
                    q = len(queues[lane_id])
                    if q < capacity[lane_id] and (lane is None or q < best):
                        lane, best = lane_id, q
                if lane is None:
                    still_running.append(vid)  # all feasible lanes full; hold
                    continue
                v.lane = lane
                queues[lane].append(vid)
            running[link_id] = still_running

        # 3. queue service
        for link_id, from_region, kind, lanes in net.service_order:
            for lane_id in lanes:
                queue = queues[lane_id]
                if not queue or (kind == GATING and lane_id not in green):
                    continue
                budget = self._budget[lane_id]
                while budget > 0 and queue:
                    vid = queue[0]
                    v = vehicles[vid]
                    nxt = v.route[1]
                    if occupancy[nxt] >= storage[nxt]:
                        break  # head blocked: FIFO lane stops discharging
                    queue.pop(0)
                    v.lane = None
                    v.route = v.route[1:]
                    v.remaining_s = free_flow_s[nxt]
                    occupancy[link_id] -= 1
                    occupancy[nxt] += 1
                    running[nxt].append(vid)
                    budget -= 1
                    to_region = region_of[nxt]
                    if from_region != to_region:
                        key = (from_region, to_region)
                        crossings[key] = crossings.get(key, 0) + 1
                        if kind == NON_GATING:
                            ng_crossings[key] = ng_crossings.get(key, 0) + 1

        return self._build_observation(
            crossings, ng_crossings, completed, completions_by_region, admitted_od
        )

    # ------------------------------------------------------------------
    # Observations

    def initial_observation(self) -> MicroObservation:
        return self._build_observation({}, {}, 0, {}, {})

    def _build_observation(
        self,
        crossings: dict[tuple[str, str], int],
        ng_crossings: dict[tuple[str, str], int],
        completed: int,
        completions_by_region: dict[str, int],
        admitted_od: dict[tuple[str, str], int],
    ) -> MicroObservation:
        dt = self.dt
        occupancy = self._occupancy.__getitem__
        region_links = self.net.region_links
        return MicroObservation(
            step=self.step_count,
            time_s=self.time_s,
            dt_s=dt,
            queues={lane: len(q) for lane, q in self._queues.items()},
            # every crossing is at a boundary with plans (checked at load)
            boundary_crossings=self._no_crossings | {p: n / dt for p, n in crossings.items()},
            non_gating_crossings=self._no_crossings | {p: n / dt for p, n in ng_crossings.items()},
            accumulation={
                r: sum(map(occupancy, region_links.get(r, ()))) for r in self.partition.regions
            },
            completed=completed,
            completions_by_region=completions_by_region,
            admitted_od=admitted_od,
            entry_queue=sum(map(len, self._entry.values())),
            in_network=len(self.vehicles),
        )

    def arrivals(self) -> dict[str, float]:
        """Projected arrivals on the lanes that feed a gating intersection,
        the only lanes boundary control reads: per lane, its queue plus the
        running vehicles within one step of the stop line, each put on the
        serving lane with the least (load, lane id), with no capacity check,
        unlike a vehicle joining a queue in ``advance``; changing the rule
        moves plan decisions.  It reads the vehicles' current routes, so
        read it before ``set_route``."""
        arrivals: dict[str, float] = {}
        for link_id, lanes in self.net.gating_approaches:
            lane_loads = {l: len(self._queues[l]) for l in lanes}
            for vid in self._running[link_id]:
                v = self.vehicles[vid]
                if v.remaining_s > self.dt or v.route[0] == v.destination:
                    continue
                lane = min(self.net.lanes_to[v.route[:2]], key=lambda l: (lane_loads[l], l))
                lane_loads[lane] += 1
            for lane_id, load in lane_loads.items():
                arrivals[lane_id] = float(load)
        return arrivals

    def od_counts(self) -> Counter[tuple[str, str]]:
        """Vehicles in the network per (current region, destination region)."""
        region_of = self.net.region_of
        return Counter(
            (region_of[v.route[0]], v.dest_region) for v in self.vehicles.values()
        )

    def queue_heads(self) -> set[int]:
        """Queued vehicles the next step may discharge: the first
        floor(sat_flow * dt) of each lane's queue, the budget ``advance`` serves."""
        budget = self._budget
        return {vid for lane, queue in self._queues.items() for vid in queue[: budget[lane]]}
