"""Queue-based mesoscopic traffic engine.

Links are point queues: a vehicle traverses a link at free-flow speed, then
waits in a vertical queue at the stop line until a lane serves it.  Service
per lane and step is min(queued + arrived, saturation flow * dt, downstream
space), with gating approaches served only when the activated multi-phase
plan allows their lane.  Vehicles enter on the shortest route by the search
rerouting uses (``netmodel.shortest_paths_to``) and follow their routes link
by link; blocked vehicles are never removed.

A new vehicle waits in its origin's entry queue until the origin link has
storage; ``Simulator.vehicles`` holds exactly the vehicles in the network.
Every route is drivable: each link is followed by one of its successors,
and a queued vehicle's next link is one its lane serves (``set_route``
rejects any other route).

The engine is deterministic: identical seed, scenario and control trace
produce an identical observation trace.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .netmodel import GATING, NON_GATING, Network, Scenario
from .netmodel import route_from, shortest_paths_to


@dataclass
class _Vehicle:
    id: int
    destination: str
    dest_region: str
    route: tuple[str, ...]  # route[0] is always the current link
    remaining_s: float = 0.0
    lane: str | None = None  # the lane it queues in at the stop line

    @property
    def current(self) -> str:
        return self.route[0]


class VehicleView(NamedTuple):
    """Read-only per-vehicle snapshot built by ``Simulator.vehicle_views``;
    ``lane`` and ``queue_index`` are None unless the vehicle is queued."""

    id: int
    link: str
    region: str
    lane: str | None
    queue_index: int | None
    route: tuple[str, ...]
    destination: str
    dest_region: str


@dataclass(frozen=True)
class MicroObservation:
    """State snapshot after one micro step plus the flows realized during it.

    ``queues``/``arrivals`` describe the end-of-step state (the decision
    inputs for the next step); ``boundary_crossings`` are the exact counts of
    link transitions across each ordered region boundary during the step,
    expressed in veh/s.  Per-vehicle state is not part of the observation:
    ``Simulator.vehicle_views()`` and ``Simulator.od_counts()`` build it on
    demand.
    """

    step: int
    time_s: float
    dt_s: float
    queues: dict[str, int]
    arrivals: dict[str, float]
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


class Simulator:
    """Single-writer simulation state; ``advance`` is the only mutator."""

    def __init__(self, scenario: Scenario, seed: int, demand_scale: float = 1.0):
        self.scenario = scenario
        self.net: Network = scenario.network
        self.partition = scenario.partition
        self.dt = scenario.control.t_micro_s
        self.demand_scale = demand_scale
        self.seed = seed

        seq = np.random.SeedSequence([seed, scenario.demand.seed])
        demand_seq, routing_seq = seq.spawn(2)
        self.demand_rng = np.random.Generator(np.random.PCG64(demand_seq))
        self.routing_rng = np.random.Generator(np.random.PCG64(routing_seq))

        self.step_count = 0
        self.time_s = 0.0
        self.vehicles: dict[int, _Vehicle] = {}  # in the network, by id

        self._running: dict[str, list[int]] = {l: [] for l in self.net.links}
        self._queues: dict[str, list[int]] = {l: [] for l in self.net.lanes}
        self._occupancy: dict[str, int] = {l: 0 for l in self.net.links}
        self._entry: dict[str, list[_Vehicle]] = {}  # staged, by origin link

        self.created_total = 0  # also the next vehicle id
        self.completed_total = 0

    # ------------------------------------------------------------------
    # Demand

    def travel_time_estimates(self) -> dict[str, float]:
        """Instantaneous per-link travel time: free flow plus queue clearance."""
        queues = self._queues
        return {
            link: free_s + sum(len(queues[l]) for l in lanes) / service
            for link, free_s, lanes, service in self.net.travel_time_terms
        }

    def shortest_route(
        self, destination: str, origins: Sequence[str], travel_times: Mapping[str, float]
    ) -> dict[str, tuple[str, ...] | None]:
        """Minimum-travel-time link route from each of ``origins`` to
        ``destination`` (None: unreachable), from one search stopped once the
        origins are settled (``netmodel.shortest_paths_to``)."""
        nxt_choice = shortest_paths_to(self.net, destination, travel_times, origins)
        return {o: route_from(o, destination, nxt_choice) for o in origins}

    def inject_demand(self, step: int) -> list[int]:
        """Draw Poisson arrivals for micro step ``step`` and stage them in the
        entry queues.  Returns the new vehicle ids."""
        t = step * self.dt
        tt = self.travel_time_estimates()
        arriving = []
        for flow in self.scenario.demand.od:
            rate = flow.rate_at(t) * self.demand_scale
            if t >= self.scenario.demand.horizon_s:
                rate = 0.0
            if rate <= 0.0:
                continue
            count = int(self.demand_rng.poisson(rate * self.dt))
            if count > 0:
                arriving.append((flow, count))
        # travel times are fixed within a call, so one search per destination
        # routes every vehicle of its ODs
        origins: dict[str, list[str]] = {}
        for flow, _ in arriving:
            origins.setdefault(flow.destination, []).append(flow.origin)
        routes = {
            (origin, destination): route
            for destination, starts in origins.items()
            for origin, route in self.shortest_route(destination, starts, tt).items()
        }
        # every OD is reachable (checked at load), so every route is found
        first = self.created_total
        for flow, count in arriving:
            route = routes[(flow.origin, flow.destination)]
            dest_region = self.net.link_region(flow.destination)
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
        dt = self.dt
        # lanes the activated plans turn green; a boundary without an
        # activated plan runs a fixed-cycle round robin
        green: set[str] = set()
        for key, plan_list in self.net.plans.items():
            plan_id = plans.get(key)
            if plan_id is None:
                green |= plan_list[self.step_count % len(plan_list)].green
            else:
                green |= {p.id: p for p in plan_list}[plan_id].green
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
            while staged and self._occupancy[origin] < self.net.storage[origin]:
                v = staged.pop(0)
                v.remaining_s = self.net.links[origin].travel_time_s
                self.vehicles[v.id] = v
                self._occupancy[origin] += 1
                self._running[origin].append(v.id)
                od = (self.net.link_region(origin), v.dest_region)
                admitted_od[od] = admitted_od.get(od, 0) + 1

        # 2. free-flow progress; vehicles reaching the stop line join a lane
        #    queue (shortest feasible) or complete their trip
        for link_id in sorted(self._running):
            still_running: list[int] = []
            for vid in self._running[link_id]:
                v = self.vehicles[vid]
                v.remaining_s = max(0.0, v.remaining_s - dt)
                if v.remaining_s > 0.0:
                    still_running.append(vid)
                    continue
                if v.current == v.destination:
                    self._occupancy[link_id] -= 1
                    del self.vehicles[vid]
                    completed += 1
                    self.completed_total += 1
                    region = self.net.link_region(link_id)
                    completions_by_region[region] = (
                        completions_by_region.get(region, 0) + 1
                    )
                    continue
                lane = self._pick_lane(v)
                if lane is None:
                    still_running.append(vid)  # all feasible lanes full; hold
                    continue
                v.lane = lane
                self._queues[lane].append(vid)
            self._running[link_id] = still_running

        # 3. queue service
        for link_id in sorted(self.net.links):
            link = self.net.links[link_id]
            node = self.net.intersections.get(link.to_node)
            for lane_id in link.lanes:
                lane = self.net.lanes[lane_id]
                budget = int(math.floor(lane.sat_flow_veh_s * dt + 1e-9))
                if node is not None and node.kind == GATING and lane_id not in green:
                    budget = 0
                queue = self._queues[lane_id]
                while budget > 0 and queue:
                    vid = queue[0]
                    v = self.vehicles[vid]
                    nxt = v.route[1]
                    if self._occupancy[nxt] >= self.net.storage[nxt]:
                        break  # head blocked: FIFO lane stops discharging
                    queue.pop(0)
                    v.lane = None
                    v.route = v.route[1:]
                    v.remaining_s = self.net.links[nxt].travel_time_s
                    self._occupancy[link_id] -= 1
                    self._occupancy[nxt] += 1
                    self._running[nxt].append(vid)
                    budget -= 1
                    from_region = link.region
                    to_region = self.net.link_region(nxt)
                    if from_region != to_region:
                        key = (from_region, to_region)
                        crossings[key] = crossings.get(key, 0) + 1
                        if node is not None and node.kind == NON_GATING:
                            ng_crossings[key] = ng_crossings.get(key, 0) + 1

        return self._build_observation(
            crossings, ng_crossings, completed, completions_by_region, admitted_od, dt
        )

    def _pick_lane(self, v: _Vehicle) -> str | None:
        nxt = v.route[1]
        feasible = self.net.lanes_to.get((v.current, nxt), ())
        best = None
        best_len = None
        for lane_id in feasible:
            q = len(self._queues[lane_id])
            if q >= self.net.lanes[lane_id].capacity_veh:
                continue
            if best_len is None or q < best_len:
                best, best_len = lane_id, q
        return best

    # ------------------------------------------------------------------
    # Observations

    def initial_observation(self) -> MicroObservation:
        return self._build_observation({}, {}, 0, {}, {}, self.dt)

    def _build_observation(
        self,
        crossings: dict[tuple[str, str], int],
        ng_crossings: dict[tuple[str, str], int],
        completed: int,
        completions_by_region: dict[str, int],
        admitted_od: dict[tuple[str, str], int],
        dt: float,
    ) -> MicroObservation:
        queues = {lane: len(q) for lane, q in self._queues.items()}

        arrivals = {lane: float(len(q)) for lane, q in self._queues.items()}
        for link_id in sorted(self._running):
            lane_loads = {l: queues[l] for l in self.net.links[link_id].lanes}
            for vid in self._running[link_id]:
                v = self.vehicles[vid]
                if v.remaining_s > dt or v.current == v.destination:
                    continue
                feasible = self.net.lanes_to[v.route[:2]]
                lane = min(feasible, key=lambda l: (lane_loads[l], l))
                lane_loads[lane] += 1
                arrivals[lane] += 1.0

        accumulation = {r: 0 for r in self.partition.regions}
        for link in self.net.links.values():
            accumulation[link.region] += self._occupancy[link.id]

        boundary_rates = {}
        ng_rates = {}
        for i in self.partition.regions:
            for h in self.partition.adjacency[i]:
                boundary_rates[(i, h)] = crossings.get((i, h), 0) / dt
                ng_rates[(i, h)] = ng_crossings.get((i, h), 0) / dt

        return MicroObservation(
            step=self.step_count,
            time_s=self.time_s,
            dt_s=dt,
            queues=queues,
            arrivals=arrivals,
            boundary_crossings=boundary_rates,
            non_gating_crossings=ng_rates,
            accumulation=accumulation,
            completed=completed,
            completions_by_region=completions_by_region,
            admitted_od=admitted_od,
            entry_queue=sum(map(len, self._entry.values())),
            in_network=len(self.vehicles),
        )

    def od_counts(self) -> Counter[tuple[str, str]]:
        """Vehicles in the network per (current region, destination region)."""
        return Counter(
            (self.net.link_region(v.current), v.dest_region) for v in self.vehicles.values()
        )

    def vehicle_views(self) -> tuple[VehicleView, ...]:
        """Snapshot of every vehicle in the network, by id."""
        queue_index = {
            vid: k for queue in self._queues.values() for k, vid in enumerate(queue)
        }
        return tuple(
            VehicleView(
                id=vid,
                link=v.current,
                region=self.net.link_region(v.current),
                lane=v.lane,
                queue_index=queue_index.get(vid),
                route=v.route,
                destination=v.destination,
                dest_region=v.dest_region,
            )
            for vid, v in sorted(self.vehicles.items())
        )
