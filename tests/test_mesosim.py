import math
import re
from collections import Counter

import numpy as np
import pytest

from msjc import fixtures, routectl
from msjc.baselines import bp_control
from msjc.mesosim import Simulator, _Vehicle
from msjc.netmodel import GATING, ScenarioError, TravelTimes, scenario_from_dict, shortest_paths_to
from conftest import make_single_gate, make_two_gate, single_gate_document
from oracles import reference_arrivals, reference_demand


def _new_vehicle(sim: Simulator, route: tuple[str, ...], **state) -> int:
    vid = sim.created_total
    sim.created_total += 1
    sim.vehicles[vid] = _Vehicle(
        id=vid,
        destination=route[-1],
        dest_region=sim.net.region_of[route[-1]],
        route=tuple(route),
        **state,
    )
    sim._occupancy[route[0]] += 1
    return vid


def force_queued(sim: Simulator, lane_id: str, count: int, route: tuple[str, ...]) -> list[int]:
    """Drop vehicles straight into a lane queue (white-box test helper)."""
    vids = [_new_vehicle(sim, route, lane=lane_id) for _ in range(count)]
    sim._queues[lane_id].extend(vids)
    return vids


def force_running(
    sim: Simulator, count: int, route: tuple[str, ...], remaining: float
) -> list[int]:
    vids = [_new_vehicle(sim, route, remaining_s=remaining) for _ in range(count)]
    sim._running[route[0]].extend(vids)
    return vids


class TestInjectDemand:
    def test_zero_rate_creates_nothing(self):
        sc = fixtures.corridor2(east_rate=0.0, west_rate=0.0)
        sim = Simulator(sc, seed=1)
        assert sim.inject_demand() == []

    def test_poisson_mean_within_three_sigma(self):
        sc = fixtures.corridor2(horizon_s=200000.0, east_rate=0.2, west_rate=0.0)
        sim = Simulator(sc, seed=2)
        steps = 10000
        total = sum(len(sim.inject_demand()) for _ in range(steps))
        mean = total / steps
        sigma = np.sqrt(2.0 / steps)
        assert abs(mean - 2.0) <= 3.0 * sigma

    def test_identical_seed_replays_identical_arrivals(self):
        sc = fixtures.corridor2()
        a = Simulator(sc, seed=9)
        b = Simulator(sc, seed=9)
        trace_a = [tuple(a.inject_demand()) for _ in range(50)]
        trace_b = [tuple(b.inject_demand()) for _ in range(50)]
        assert trace_a == trace_b

    def test_draws_for_the_current_step(self):
        # no demand from the 310 s horizon on: steps 0-30 draw, 31-39 do not
        sc = fixtures.corridor2(horizon_s=310.0, east_rate=0.5, west_rate=0.5)
        sim = Simulator(sc, seed=4)
        drawn = []
        for _ in range(40):
            drawn.append(len(sim.inject_demand()))
            sim.advance({})
        assert all(drawn[:31]) and not any(drawn[31:])

    @staticmethod
    def _changing_corridor2():
        # east steps up at 150 s and west starts at 50 s and drops at 250 s,
        # each inside a 10-step block; the 310 s horizon ends one step into one
        raw = fixtures.corridor2_document(horizon_s=310.0)
        east, west = raw["demand"]["od"]
        del east["rate_veh_s"], west["rate_veh_s"]
        east["profile"] = [[0.0, 0.2], [150.0, 0.9]]
        west["profile"] = [[0.0, 0.0], [50.0, 0.4], [250.0, 0.1]]
        return scenario_from_dict(raw)

    @pytest.mark.parametrize("seed", [0, 5, 13])
    @pytest.mark.parametrize("name", ["grid6", "corridor2 with changing rates"])
    def test_counts_are_the_scalar_draws_of_each_step(self, name, seed):
        sc = fixtures.grid6() if name == "grid6" else self._changing_corridor2()
        steps = math.ceil(sc.demand.horizon_s / sc.control.t_micro_s) + 15
        expected = reference_demand(sc, seed, steps)
        sim = Simulator(sc, seed=seed)
        for step in range(steps):
            new = set(sim.inject_demand())
            drawn = Counter(
                (origin, v.destination)
                for origin, staged in sim._entry.items()
                for v in staged
                if v.id in new
            )
            assert drawn == expected[step], step
            sim.advance({})
        assert sim.created_total == sum(sum(c.values()) for c in expected) > 0

    def test_construction_draws_nothing(self):
        sc = fixtures.grid6()
        sim = Simulator(sc, seed=3)
        demand_seq, _ = np.random.SeedSequence([3, sc.demand.seed]).spawn(2)
        assert sim.demand_rng.bit_generator.state == np.random.PCG64(demand_seq).state

    def test_new_vehicles_get_shortest_route(self):
        sc = fixtures.corridor2(east_rate=0.5, west_rate=0.0)
        sim = Simulator(sc, seed=3)
        for _ in range(10):
            sim.inject_demand()
        v = sim._entry["src1"][0]
        assert v.route[0] == "src1"
        assert v.route[-1] == "snk2"


class TestSetRoute:
    VIA_X = ("A", "X", "Xd", "D")
    VIA_Y = ("A", "Y", "Yd", "D")

    def test_accepts_a_path_to_the_destination(self, turn_lanes):
        sim = Simulator(turn_lanes, seed=0)
        [vid] = force_running(sim, 1, self.VIA_X, remaining=100.0)
        sim.set_route(vid, self.VIA_Y)
        assert sim.vehicles[vid].route == self.VIA_Y

    @pytest.mark.parametrize("route", [("X", "Xd", "D"), ("A", "Y", "Yd")])
    def test_rejects_a_route_from_elsewhere_or_to_elsewhere(self, turn_lanes, route):
        sim = Simulator(turn_lanes, seed=0)
        [vid] = force_running(sim, 1, self.VIA_X, remaining=100.0)
        with pytest.raises(ValueError, match="route must"):
            sim.set_route(vid, route)

    @pytest.mark.parametrize("queued", [False, True])
    def test_rejects_a_route_that_skips_a_node(self, turn_lanes, queued):
        # Xd starts where X ends, not where A ends
        sim = Simulator(turn_lanes, seed=0)
        if queued:
            [vid] = force_queued(sim, "A_0", 1, self.VIA_X)
        else:
            [vid] = force_running(sim, 1, self.VIA_X, remaining=100.0)
        with pytest.raises(ValueError, match="no move A -> Xd"):
            sim.set_route(vid, ("A", "Xd", "D"))
        assert sim.vehicles[vid].route == self.VIA_X

    def test_rejects_a_next_link_the_queued_lane_does_not_serve(self, turn_lanes):
        # A_0 feeds only X, so a vehicle queued there cannot turn to Y
        sim = Simulator(turn_lanes, seed=0)
        [vid] = force_queued(sim, "A_0", 1, self.VIA_X)
        with pytest.raises(ValueError, match="lane A_0 does not serve A -> Y"):
            sim.set_route(vid, self.VIA_Y)
        sim.advance({})
        assert sim.vehicles[vid].route == self.VIA_X[1:]


class TestAdvance:
    @pytest.mark.parametrize("fixture", [fixtures.corridor2, fixtures.grid6])
    def test_observation_keys_follow_the_network_and_rates_are_floats(self, fixture):
        # the key order and cell types of observations.csv
        sc = fixture()
        net = sc.network
        sim = Simulator(sc, seed=2)
        observations = [sim.initial_observation()]
        for _ in range(60):
            sim.inject_demand()
            observations.append(sim.advance({}))
        rates = []
        for obs in observations:
            assert list(obs.queues) == list(net.lanes)
            assert all(type(q) is int for q in obs.queues.values())
            for crossings in (obs.boundary_crossings, obs.non_gating_crossings):
                assert list(crossings) == sc.partition.ordered_boundaries()
                rates += crossings.values()
        assert all(type(r) is float for r in rates)
        assert 0.0 in rates and any(rates)

    def test_empty_network_observation_is_zero(self, single_gate):
        sim = Simulator(single_gate, seed=0)
        obs = sim.advance({})
        assert obs.in_network == 0
        assert obs.queue_total() == 0
        assert all(v == 0.0 for v in obs.boundary_crossings.values())
        assert all(v == 0 for v in obs.accumulation.values())

    def test_discharge_min_rule_budget_binds(self, single_gate):
        # 5 queued, saturation 0.3 veh/s * 10 s = 3, downstream space 10
        sim = Simulator(single_gate, seed=0)
        force_queued(sim, "A_0", 5, ("A", "B"))
        obs = sim.advance({("R1", "R2"): "fwd"})
        assert obs.queues["A_0"] == 2
        assert obs.boundary_crossings[("R1", "R2")] == pytest.approx(0.3)

    def test_discharge_min_rule_space_binds(self, single_gate):
        sim = Simulator(single_gate, seed=0)
        force_queued(sim, "A_0", 5, ("A", "B"))
        force_running(sim, 8, ("B",), remaining=1e9)  # 2 spaces left on B
        obs = sim.advance({("R1", "R2"): "fwd"})
        assert obs.queues["A_0"] == 3
        assert obs.boundary_crossings[("R1", "R2")] == pytest.approx(0.2)

    def test_gated_lane_without_green_discharges_nothing(self, single_gate):
        sim = Simulator(single_gate, seed=0)
        force_queued(sim, "A_0", 5, ("A", "B"))
        obs = sim.advance({("R1", "R2"): "rev"})
        assert obs.queues["A_0"] == 5
        assert obs.boundary_crossings[("R1", "R2")] == 0.0

    @pytest.mark.parametrize(
        "plan_id, green",
        [("fwd", {"A_0", "C_0"}), ("mixed", {"A_0", "Sv_0"}), ("rev", {"Rv_0", "Sv_0"})],
    )
    def test_two_gating_nodes_discharge_exactly_the_green_lanes(self, two_gate, plan_id, green):
        # 5 queued per approach; a green lane serves its budget of 3
        routes = {"A_0": ("A", "B"), "C_0": ("C", "D"), "Rv_0": ("Rv", "Rr"), "Sv_0": ("Sv", "Sr")}
        sim = Simulator(two_gate, seed=0)
        for lane_id, route in routes.items():
            force_queued(sim, lane_id, 5, route)
        obs = sim.advance({("R1", "R2"): plan_id})
        assert {l: obs.queues[l] for l in routes} == {l: 2 if l in green else 5 for l in routes}

    def test_queue_and_discharge_caps_hold_throughout_a_run(self):
        sc = fixtures.corridor2(horizon_s=400.0, east_rate=0.6, west_rate=0.4)
        sim = Simulator(sc, seed=5)
        prev_queues = sim.initial_observation().queues
        for k in range(120):
            sim.inject_demand()
            obs = sim.advance({})
            for lane_id, lane in sc.network.lanes.items():
                assert obs.queues[lane_id] <= lane.capacity_veh
            prev_queues = obs.queues

    def test_vehicle_conservation_every_step(self):
        sc = fixtures.grid6(horizon_s=400.0)
        sim = Simulator(sc, seed=6)
        for k in range(100):
            sim.inject_demand()
            obs = sim.advance({})
            assert (
                sim.created_total
                == sim.completed_total + obs.in_network + obs.entry_queue
            )

    def test_boundary_crossings_match_vehicle_transitions_exactly(self):
        sc = fixtures.corridor2(horizon_s=400.0, east_rate=0.5, west_rate=0.3)
        sim = Simulator(sc, seed=7)
        rng = np.random.default_rng(0)
        plan_ids = sc.network.plan_lanes[("R1", "R2")].ids
        for k in range(80):
            sim.inject_demand()
            before = {
                vid: sc.network.region_of[v.current]
                for vid, v in sim.vehicles.items()
            }
            obs = sim.advance({("R1", "R2"): plan_ids[rng.integers(len(plan_ids))]})
            counts = {}
            for vid, region in before.items():
                v = sim.vehicles.get(vid)
                if v is None:
                    continue  # completed inside its region, no crossing
                now = sc.network.region_of[v.current]
                if now != region:
                    counts[(region, now)] = counts.get((region, now), 0) + 1
            for key, rate in obs.boundary_crossings.items():
                assert rate * obs.dt_s == pytest.approx(counts.get(key, 0))

    def test_identical_seed_and_plan_trace_reproduces_observations(self):
        sc = fixtures.corridor2(horizon_s=300.0)
        runs = []
        for _ in range(2):
            sim = Simulator(sc, seed=11)
            rows = []
            for k in range(60):
                sim.inject_demand()
                obs = sim.advance({})
                rows.append(
                    (
                        obs.accumulation["R1"],
                        obs.accumulation["R2"],
                        obs.boundary_crossings[("R1", "R2")],
                        obs.queue_total(),
                        obs.in_network,
                    )
                )
            runs.append(rows)
        assert runs[0] == runs[1]

    def test_saturated_entry_holds_vehicles_outside(self, single_gate):
        sim = Simulator(single_gate, seed=0)
        force_running(sim, 25, ("A", "B"), remaining=1e9)  # A full (cap 25)
        staged = _Vehicle(id=sim.created_total, destination="B", dest_region="R2", route=("A", "B"))
        sim.created_total += 1
        sim._entry["A"] = [staged]
        obs = sim.advance({})
        assert obs.entry_queue == 1
        assert sim._entry["A"] == [staged] and staged.id not in sim.vehicles


class TestArrivalsProjection:
    def test_vehicles_within_one_step_count_as_arrivals(self, single_gate):
        sim = Simulator(single_gate, seed=0)
        force_running(sim, 2, ("A", "B"), remaining=30.0)
        sim.advance({("R1", "R2"): "none"})
        # after one step remaining is 20 s: not yet arriving
        assert sim.arrivals()["A_0"] == 0.0
        sim.advance({("R1", "R2"): "none"})
        obs = sim.advance({("R1", "R2"): "none"})
        # remaining hit 0: both queued now
        assert obs.queues["A_0"] == 2
        assert sim.arrivals()["A_0"] == 2.0

    def test_projection_counts_imminent_joiners(self, single_gate):
        sim = Simulator(single_gate, seed=0)
        force_running(sim, 3, ("A", "B"), remaining=15.0)
        obs = sim.advance({("R1", "R2"): "none"})
        # remaining 5 s <= dt: projected to join next step
        assert obs.queues["A_0"] == 0
        assert sim.arrivals()["A_0"] == 3.0


    def test_a_trip_ending_on_the_approach_is_not_projected(self, single_gate):
        sim = Simulator(single_gate, seed=0)
        force_running(sim, 2, ("A",), remaining=15.0)
        force_running(sim, 1, ("A", "B"), remaining=15.0)
        sim.advance({("R1", "R2"): "none"})
        assert sim.arrivals()["A_0"] == 1.0 == reference_arrivals(sim)["A_0"]

    def test_two_lane_approach_fills_the_least_loaded_lane_with_no_capacity_check(self):
        raw = single_gate_document()
        raw["links"]["A"]["lanes"] = 2
        raw["lanes"]["A_1"] = {**raw["lanes"]["A_0"], "capacity_veh": 1}
        for phase in ("p_both", "p_fwd"):
            raw["intersections"]["g"]["phases"][phase].append("A_1")
        sim = Simulator(scenario_from_dict(raw), seed=0)
        force_queued(sim, "A_0", 3, ("A", "B"))
        force_running(sim, 4, ("A", "B"), remaining=15.0)
        sim.advance({("R1", "R2"): "none"})
        arrivals = sim.arrivals()
        # three joiners bring A_1 level with A_0, whose lower id takes the
        # fourth; A_1 is shown three although it holds one
        assert arrivals == {"A_0": 4.0, "A_1": 3.0, "Rv_0": 0.0}
        assert arrivals == {l: reference_arrivals(sim)[l] for l in arrivals}

    @pytest.mark.parametrize("control", ["uncontrolled", "bp"])
    def test_gating_lanes_match_the_full_walk_on_a_loaded_grid(self, control):
        # the run loop reads the projection after the next step's demand is
        # injected; injection only stages vehicles outside the network, so
        # the projection must not move
        sc = fixtures.grid6(horizon_s=1500.0)
        sim = Simulator(sc, seed=6)
        obs = sim.initial_observation()
        joiners = 0.0
        staged = len(sim.inject_demand())
        for _ in range(150):
            plans = {}
            if control == "bp":
                plans = {
                    key: bp_control(obs, sc.network, key)
                    for key in sc.partition.boundary_keys()
                }
            obs = sim.advance(plans)
            arrivals = sim.arrivals()
            reference = reference_arrivals(sim)
            assert set(arrivals) == _gating_approach_lanes(sc.network)
            assert arrivals == {l: reference[l] for l in arrivals}
            joiners += sum(arrivals[l] - obs.queues[l] for l in arrivals)
            staged += len(sim.inject_demand())
            assert sim.arrivals() == arrivals
        assert joiners > 0 and staged > 0

    @pytest.mark.parametrize(
        "build",
        [fixtures.grid6, fixtures.corridor2, make_single_gate, make_two_gate],
        ids=["grid6", "corridor2", "single_gate", "two_gate"],
    )
    def test_keys_are_the_gating_approach_lanes_and_hold_every_crossing_lane(self, build):
        sc = build()
        net = sc.network
        crossing = {l for lanes in net.plan_lanes.values() for l in lanes.all_crossing}
        assert crossing
        sim = Simulator(sc, seed=0)
        for _ in range(2):
            keys = set(sim.arrivals())
            assert keys == _gating_approach_lanes(net)
            assert crossing <= keys
            sim.advance({})


def _gating_approach_lanes(net) -> set[str]:
    lanes = set()
    for link in net.links.values():
        if net.node_kind.get(link.to_node) == GATING:
            lanes.update(link.lanes)
    return lanes


class TestVehicleRecords:
    def test_staged_vehicles_are_left_out(self):
        sc = fixtures.corridor2(east_rate=0.5, west_rate=0.5)
        sim = Simulator(sc, seed=3)
        staged = set(sim.inject_demand())
        assert staged and sim.vehicles == {}
        sim.advance({})
        admitted = set(sim.vehicles)
        assert admitted == staged - {v.id for queue in sim._entry.values() for v in queue}
        later = set(sim.inject_demand())
        assert later and not later & set(sim.vehicles)

    def test_queue_heads_are_the_first_budget_of_each_lane(self, single_gate):
        sim = Simulator(single_gate, seed=0)
        queued = force_queued(sim, "A_0", 8, ("A", "B"))
        force_running(sim, 2, ("A", "B"), remaining=100.0)
        assert sim.queue_heads() == set(queued[:3])  # a budget of 3 per step
        sim.advance({("R1", "R2"): "fwd"})  # serves the first 3
        assert sim.queue_heads() == set(queued[3:6])

    def test_queue_heads_hold_every_vehicle_a_step_discharges(self):
        sc = fixtures.grid6(horizon_s=1500.0)
        sim = Simulator(sc, seed=6)
        discharged = held = 0
        for _ in range(150):
            sim.inject_demand()
            heads = sim.queue_heads()
            queued = {vid: v.current for vid, v in sim.vehicles.items() if v.lane is not None}
            assert heads <= queued.keys()
            sim.advance({})  # fixed-cycle plans: the queues build up
            moved = {vid for vid, link in queued.items() if sim.vehicles[vid].current != link}
            assert moved <= heads
            discharged += len(moved)
            held += len(heads - moved)
        # the grid is loaded: heads are discharged, and some are held back
        # by red lights or full downstream links
        assert discharged > 0 and held > 0

    def test_records_agree_with_the_observation_counts(self):
        sc = fixtures.grid6(horizon_s=400.0)
        sim = Simulator(sc, seed=6)
        for _ in range(60):
            sim.inject_demand()
            obs = sim.advance({})
            assert len(sim.vehicles) == obs.in_network == sum(sim.od_counts().values())
            assert all(vid == v.id for vid, v in sim.vehicles.items())

    def test_one_call_routes_every_vehicle_of_an_od_alike(self):
        sc = fixtures.grid6(horizon_s=600.0)
        sim = Simulator(sc, seed=6)
        shared = 0
        for _ in range(60):
            tt = sim.travel_time_estimates()
            new = set(sim.inject_demand())
            by_od: dict[tuple[str, str], list[_Vehicle]] = {}
            for origin, staged in sim._entry.items():
                for v in staged:
                    if v.id in new:
                        by_od.setdefault((origin, v.destination), []).append(v)
            assert sum(map(len, by_od.values())) == len(new)
            for (origin, destination), vehicles in by_od.items():
                route = sim.shortest_route(destination, [origin], tt)[origin]
                assert all(v.route == route for v in vehicles)
                shared += len(vehicles) > 1
            sim.advance({})
        assert shared > 0


class TestInjectionRoutes:
    def test_every_injected_route_is_shortest_on_the_steps_times(self):
        # an optimality certificate: Bellman-Ford potentials on each step's
        # times, over Network.successors and independent of the search, and
        # the search's tie rule, on a grid whose queues make injection
        # search beyond the free-flow routes
        sc = fixtures.grid6()
        net = sc.network
        sim = Simulator(sc, seed=0, demand_scale=2.0)
        source: dict[tuple[str, str], str] = {}  # the last snapshot an OD was routed on
        search = sim.shortest_route

        def counted(destination, origins, tt):
            for origin in origins:
                source[origin, destination] = "free flow" if tt is sim._free_flow else "searched"
            return search(destination, origins, tt)

        sim.shortest_route = counted
        kinds = Counter()
        routes = 0
        for _ in range(150):
            source.clear()
            times = {
                link.id: link.travel_time_s
                + sum(len(sim._queues[l]) for l in link.lanes)
                / sum(net.lanes[l].sat_flow_veh_s for l in link.lanes)
                for link in net.links.values()
            }
            new = set(sim.inject_demand())
            potentials: dict[str, dict[str, float]] = {}
            for origin, staged in sim._entry.items():
                for v in staged:
                    if v.id not in new:
                        continue
                    if v.destination not in potentials:
                        potentials[v.destination] = _potentials(net, times, v.destination)
                    _certify(net, times, potentials[v.destination], origin, v.destination, v.route)
                    routes += 1
            kinds.update(source.values())
            sim.advance({})
        assert routes == sim.created_total
        # both kinds of route occur: free-flow routes kept, and routes
        # searched on the step's times
        assert kinds["free flow"] > 0 and kinds["searched"] > 0


def _potentials(net, times: dict[str, float], destination: str) -> dict[str, float]:
    """Each link's time to ``destination``, its own included (Bellman-Ford)."""
    pi = dict.fromkeys(net.links, math.inf)
    pi[destination] = times[destination]
    changed = True
    while changed:
        changed = False
        for link in net.links:
            for nxt in net.successors(link):
                if times[link] + pi[nxt] < pi[link]:
                    pi[link] = times[link] + pi[nxt]
                    changed = True
    return pi


def _certify(net, times, pi, origin, destination, route) -> None:
    assert route[0] == origin and route[-1] == destination
    cost = math.fsum(times[l] for l in route)
    assert abs(cost - pi[origin]) <= 1e-9, (route, cost, pi[origin])
    for link, nxt in zip(route, route[1:]):
        successors = net.successors(link)
        assert nxt in successors
        best = min(pi[s] for s in successors)
        assert nxt == min(s for s in successors if pi[s] <= best + 1e-12), (route, link)


class TestPickLane:
    """The least-loaded serving lane with room, on a move with two lanes (A_0
    and A_1 into B; A_2 turns into Rr, so A can hold a vehicle that finds
    both full).  grid6 has one lane per link, so only this move reaches the
    choice."""

    @staticmethod
    def _sim() -> Simulator:
        raw = single_gate_document()
        raw["links"]["A"]["lanes"] = 3
        raw["lanes"]["A_0"] = {"output_lanes": ["B_0"], "capacity_veh": 3}
        raw["lanes"]["A_1"] = {"output_lanes": ["B_0"], "capacity_veh": 1}
        raw["lanes"]["A_2"] = {"output_lanes": ["Rr_0"]}
        for phase in ("p_both", "p_fwd"):
            raw["intersections"]["g"]["phases"][phase].append("A_1")
        sim = Simulator(scenario_from_dict(raw), seed=0)
        assert sim.net.lanes_to[("A", "B")] == ("A_0", "A_1")
        return sim

    @pytest.mark.parametrize(
        "queued, lane",
        [
            ({"A_0": 1, "A_1": 0}, "A_1"),
            ({"A_0": 0, "A_1": 0}, "A_0"),
            ({"A_0": 2, "A_1": 1}, "A_0"),
        ],
        ids=["least-loaded", "lower-id-on-a-tie", "shorter-but-full-skipped"],
    )
    def test_a_joiner_takes_the_least_loaded_lane_with_room(self, queued, lane):
        sim = self._sim()
        for lane_id, count in queued.items():
            force_queued(sim, lane_id, count, ("A", "B"))
        [vid] = force_running(sim, 1, ("A", "B"), remaining=5.0)
        obs = sim.advance({("R1", "R2"): "none"})
        assert sim.vehicles[vid].lane == lane and vid in sim._queues[lane]
        assert obs.queues[lane] == queued[lane] + 1

    def test_with_every_lane_full_the_vehicle_waits_on_its_link(self):
        sim = self._sim()
        force_queued(sim, "A_0", 3, ("A", "B"))
        force_queued(sim, "A_1", 1, ("A", "B"))
        [vid] = force_running(sim, 1, ("A", "B"), remaining=5.0)
        # both lanes are full when it reaches the stop line; the green then
        # empties them
        obs = sim.advance({("R1", "R2"): "fwd"})
        v = sim.vehicles[vid]
        assert v.lane is None and vid in sim._running["A"] and v.remaining_s == 0.0
        assert obs.queues["A_0"] == obs.queues["A_1"] == 0
        # the next step tries again
        obs = sim.advance({("R1", "R2"): "none"})
        assert v.lane == "A_0" and sim._queues["A_0"] == [vid] and vid not in sim._running["A"]


class TestTravelTimeSnapshot:
    def test_step_snapshot_searches_are_injections_queued_routes_extended_by_rerouting(self):
        sc = fixtures.grid6(horizon_s=600.0)
        net = sc.network
        sim = Simulator(sc, seed=6)
        free = TravelTimes(net, [free_s for free_s, _, _ in net.travel_time_terms])
        previous = None
        was_empty = False
        kept = rerouted = extended = 0
        for _ in range(60):
            queued_links = {net.lanes[l].link for l, q in sim._queues.items() if q}
            empty = not queued_links
            new = set(sim.inject_demand())
            # destinations whose free-flow route from some injected origin
            # meets a queued link: exactly the searches of the step snapshot
            injected = {
                (origin, v.destination)
                for origin, staged in sim._entry.items()
                for v in staged
                if v.id in new
            }
            stale = {
                destination
                for origin, destination in injected
                if not queued_links.isdisjoint(
                    shortest_paths_to(free, destination, [origin])[origin]
                )
            }
            step = sim._snapshot
            if stale:
                assert step is not None and step.searches.keys() == stale
            else:
                assert step is None
            snapshot = sim.travel_time_estimates()
            assert step is None or snapshot is step
            # the free-flow snapshot on every empty step, else a new one
            assert (snapshot is sim._free_flow) == empty
            assert (snapshot is previous) == (empty and was_empty)
            assert snapshot == {
                link.id: link.travel_time_s
                + sum(len(sim._queues[l]) for l in link.lanes)
                / sum(net.lanes[l].sat_flow_veh_s for l in link.lanes)
                for link in net.links.values()
            }
            # a destination none of whose routes meets a queue is not searched
            kept += not empty and bool({d for _, d in injected} - stale)
            started = dict(snapshot.searches)
            records = [sim.vehicles[vid] for vid in sorted(sim.vehicles)]
            alternatives = routectl.generate_routes(records, net, snapshot)
            for v in records[::2]:
                if v.id in alternatives:
                    sim.set_route(v.id, alternatives[v.id])
                    rerouted += 1
            assert sim.travel_time_estimates() is snapshot
            # rerouting extended the searches injection started on this
            # step's snapshot (on a step with queues, those of ``stale``)
            assert all(snapshot.searches[d] is search for d, search in started.items())
            if not empty:
                extended += bool(stale & {v.destination for v in records})
            previous, was_empty = snapshot, empty
            sim.advance({})
        assert kept > 0 and rerouted > 0 and extended > 0

    def test_a_step_snapshot_is_the_full_per_link_formula(self):
        # at demand 2.0 links off the gating approaches queue too
        sc = fixtures.grid6()
        net = sc.network
        sim = Simulator(sc, seed=0, demand_scale=2.0)
        gating = {link_id for link_id, _ in net.gating_approaches}
        empty = off_gating = 0
        for _ in range(150):
            sim.inject_demand()
            snapshot = sim.travel_time_estimates()
            assert snapshot.by_index == tuple(
                free_s + sum(len(sim._queues[l]) for l in lanes) / service
                for free_s, lanes, service in net.travel_time_terms
            )
            queued = {net.lanes[l].link for l, q in sim._queues.items() if q}
            if not queued:
                assert snapshot is sim._free_flow
            empty += not queued
            off_gating += bool(queued - gating)
            sim.advance({})
        assert empty > 0 and off_gating > 0

    def test_empty_network_steps_share_one_free_flow_snapshot(self):
        sc = fixtures.grid6(horizon_s=300.0)
        net = sc.network
        sim = Simulator(sc, seed=6)
        free_flow = tuple(free_s + 0 / service for free_s, _, service in net.travel_time_terms)
        shared: TravelTimes | None = None
        seen: list[TravelTimes] = []
        empty_steps = []
        for step in range(60):
            empty = not any(sim._queues.values())
            snapshot = sim.travel_time_estimates()
            if empty:
                shared = shared or snapshot
                assert snapshot is shared and snapshot.by_index == free_flow
                empty_steps.append(step)
            else:
                assert all(snapshot is not old for old in seen)
            seen.append(snapshot)
            new = set(sim.inject_demand())
            # injection routes on the shared snapshot are those of a fresh
            # search on the same times
            fresh = TravelTimes(net, snapshot.by_index)
            staged = [(o, v) for o, vs in sim._entry.items() for v in vs if v.id in new]
            assert len(staged) == len(new)
            for origin, v in staged:
                assert v.route == shortest_paths_to(fresh, v.destination, [origin])[origin]
            sim.advance({})
        # empty steps at the start, and again once the first queues cleared
        assert any(b - a > 1 for a, b in zip(empty_steps, empty_steps[1:]))


# 1e300 and NaN each once ended in numpy's "lam value too large" from the
# first demand draw.  grid6 expects 1,350 vehicles over its demand horizon at
# scale 1.0, so 741 is the least whole scale past MAX_EXPECTED_VEHICLES.
@pytest.mark.parametrize(
    "scale, count",
    [
        (1e300, "1.35e+303"),
        (math.nan, "nan"),
        (741.0, "1.00035e+06"),
        (0.0, "0"),
        (math.inf, "inf"),
    ],
)
def test_a_demand_scale_out_of_bounds_is_refused_before_any_step(scale, count):
    message = f"demand scale {scale:g} expects {count} vehicles over the demand horizon"
    with pytest.raises(ScenarioError, match=re.escape(message)):
        Simulator(fixtures.grid6(), seed=0, demand_scale=scale)


def test_the_largest_whole_demand_scale_within_the_bound_is_accepted():
    sim = Simulator(fixtures.grid6(), seed=0, demand_scale=740.0)  # 999,000 vehicles
    assert sim.demand_scale == 740.0
