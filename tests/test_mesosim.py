import numpy as np
import pytest

from msjc import fixtures, routectl
from msjc.baselines import bp_control
from msjc.mesosim import Simulator, _Vehicle
from msjc.netmodel import GATING, scenario_from_dict, scenario_to_dict
from conftest import make_single_gate, make_two_gate
from oracles import reference_arrivals, reference_vehicle_views


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
        assert sim.inject_demand(0) == []

    def test_poisson_mean_within_three_sigma(self):
        sc = fixtures.corridor2(horizon_s=200000.0, east_rate=0.2, west_rate=0.0)
        sim = Simulator(sc, seed=2)
        steps = 10000
        total = sum(len(sim.inject_demand(k)) for k in range(steps))
        mean = total / steps
        sigma = np.sqrt(2.0 / steps)
        assert abs(mean - 2.0) <= 3.0 * sigma

    def test_identical_seed_replays_identical_arrivals(self):
        sc = fixtures.corridor2()
        a = Simulator(sc, seed=9)
        b = Simulator(sc, seed=9)
        trace_a = [tuple(a.inject_demand(k)) for k in range(50)]
        trace_b = [tuple(b.inject_demand(k)) for k in range(50)]
        assert trace_a == trace_b

    def test_new_vehicles_get_shortest_route(self):
        sc = fixtures.corridor2(east_rate=0.5, west_rate=0.0)
        sim = Simulator(sc, seed=3)
        for k in range(10):
            sim.inject_demand(k)
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
            sim.inject_demand(sim.step_count)
            obs = sim.advance({})
            for lane_id, lane in sc.network.lanes.items():
                assert obs.queues[lane_id] <= lane.capacity_veh
            prev_queues = obs.queues

    def test_vehicle_conservation_every_step(self):
        sc = fixtures.grid6(horizon_s=400.0)
        sim = Simulator(sc, seed=6)
        for k in range(100):
            sim.inject_demand(sim.step_count)
            obs = sim.advance({})
            assert (
                sim.created_total
                == sim.completed_total + obs.in_network + obs.entry_queue
            )

    def test_boundary_crossings_match_vehicle_transitions_exactly(self):
        sc = fixtures.corridor2(horizon_s=400.0, east_rate=0.5, west_rate=0.3)
        sim = Simulator(sc, seed=7)
        rng = np.random.default_rng(0)
        plan_ids = [p.id for p in sc.network.plan_set("R1", "R2")]
        for k in range(80):
            sim.inject_demand(sim.step_count)
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
                sim.inject_demand(sim.step_count)
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
        obs = sim.advance({("R1", "R2"): "none"})
        # after one step remaining is 20 s: not yet arriving
        assert obs.arrivals["A_0"] == 0.0
        obs = sim.advance({("R1", "R2"): "none"})
        obs = sim.advance({("R1", "R2"): "none"})
        # remaining hit 0: both queued now
        assert obs.queues["A_0"] == 2
        assert obs.arrivals["A_0"] == 2.0

    def test_projection_counts_imminent_joiners(self, single_gate):
        sim = Simulator(single_gate, seed=0)
        force_running(sim, 3, ("A", "B"), remaining=15.0)
        obs = sim.advance({("R1", "R2"): "none"})
        # remaining 5 s <= dt: projected to join next step
        assert obs.queues["A_0"] == 0
        assert obs.arrivals["A_0"] == 3.0


    def test_a_trip_ending_on_the_approach_is_not_projected(self, single_gate):
        sim = Simulator(single_gate, seed=0)
        force_running(sim, 2, ("A",), remaining=15.0)
        force_running(sim, 1, ("A", "B"), remaining=15.0)
        obs = sim.advance({("R1", "R2"): "none"})
        assert obs.arrivals["A_0"] == 1.0 == reference_arrivals(sim)["A_0"]

    def test_two_lane_approach_fills_the_least_loaded_lane_with_no_capacity_check(self):
        raw = scenario_to_dict(make_single_gate())
        raw["links"]["A"]["lanes"] = 2
        raw["lanes"]["A_1"] = {**raw["lanes"]["A_0"], "capacity_veh": 1}
        for phase in ("p_both", "p_fwd"):
            raw["intersections"]["g"]["phases"][phase].append("A_1")
        sim = Simulator(scenario_from_dict(raw), seed=0)
        force_queued(sim, "A_0", 3, ("A", "B"))
        force_running(sim, 4, ("A", "B"), remaining=15.0)
        obs = sim.advance({("R1", "R2"): "none"})
        # three joiners bring A_1 level with A_0, whose lower id takes the
        # fourth; A_1 is shown three although it holds one
        assert obs.arrivals == {"A_0": 4.0, "A_1": 3.0, "Rv_0": 0.0}
        assert obs.arrivals == {l: reference_arrivals(sim)[l] for l in obs.arrivals}

    @pytest.mark.parametrize("control", ["uncontrolled", "bp"])
    def test_gating_lanes_match_the_full_walk_on_a_loaded_grid(self, control):
        sc = fixtures.grid6(horizon_s=1500.0)
        sim = Simulator(sc, seed=6)
        obs = sim.initial_observation()
        joiners = 0.0
        for _ in range(150):
            sim.inject_demand(sim.step_count)
            plans = {}
            if control == "bp":
                plans = {
                    key: bp_control(obs, sc.network, key)
                    for key in sc.partition.boundary_keys()
                }
            obs = sim.advance(plans)
            reference = reference_arrivals(sim)
            assert set(obs.arrivals) == _gating_approach_lanes(sc.network)
            assert obs.arrivals == {l: reference[l] for l in obs.arrivals}
            joiners += sum(obs.arrivals[l] - obs.queues[l] for l in obs.arrivals)
        assert joiners > 0

    @pytest.mark.parametrize(
        "build",
        [fixtures.grid6, fixtures.corridor2, make_single_gate, make_two_gate],
        ids=["grid6", "corridor2", "single_gate", "two_gate"],
    )
    def test_keys_are_the_gating_approach_lanes_and_hold_every_crossing_lane(self, build):
        sc = build()
        net = sc.network
        crossing = {
            l
            for key, plan_list in net.plans.items()
            for plan in plan_list
            for i, h in (key, key[::-1])
            for l in net.crossing_lanes(plan, i, h)
        }
        assert crossing
        sim = Simulator(sc, seed=0)
        for obs in (sim.initial_observation(), sim.advance({})):
            assert set(obs.arrivals) == _gating_approach_lanes(net)
            assert crossing <= set(obs.arrivals)


def _gating_approach_lanes(net) -> set[str]:
    lanes = set()
    for link in net.links.values():
        node = net.intersections.get(link.to_node)
        if node is not None and node.kind == GATING:
            lanes.update(link.lanes)
    return lanes


class TestVehicleViews:
    def test_staged_vehicles_are_left_out(self):
        sc = fixtures.corridor2(east_rate=0.5, west_rate=0.5)
        sim = Simulator(sc, seed=3)
        staged = set(sim.inject_demand(0))
        assert staged and sim.vehicle_views() == ()
        sim.advance({})
        admitted = {v.id for v in sim.vehicle_views()}
        assert admitted == staged - {v.id for queue in sim._entry.values() for v in queue}
        later = set(sim.inject_demand(sim.step_count))
        assert later and not later & {v.id for v in sim.vehicle_views()}

    def test_queue_index_is_the_position_in_the_lane(self, single_gate):
        sim = Simulator(single_gate, seed=0)
        force_queued(sim, "A_0", 8, ("A", "B"))
        views = sim.vehicle_views()
        assert [v.lane for v in views] == ["A_0"] * 8
        assert [v.queue_index for v in views] == list(range(8))
        sim.advance({("R1", "R2"): "fwd"})  # serves the first 3
        assert [v.queue_index for v in sim.vehicle_views() if v.lane is not None] == list(range(5))

    def test_views_agree_with_the_observation_counts(self):
        sc = fixtures.grid6(horizon_s=400.0)
        sim = Simulator(sc, seed=6)
        for _ in range(60):
            sim.inject_demand(sim.step_count)
            obs = sim.advance({})
            views = sim.vehicle_views()
            assert len(views) == obs.in_network == sum(sim.od_counts().values())
            assert [v.id for v in views] == sorted(v.id for v in views)

    def test_views_equal_the_keyword_built_reference(self):
        sc = fixtures.grid6(horizon_s=1500.0)
        sim = Simulator(sc, seed=6)
        queued = 0
        for k in range(150):
            sim.inject_demand(sim.step_count)
            sim.advance({})
            if k % 10 == 9:
                views = sim.vehicle_views()
                assert views == reference_vehicle_views(sim)
                queued += sum(v.lane is not None for v in views)
        assert queued > 0

    def test_one_call_routes_every_vehicle_of_an_od_alike(self):
        sc = fixtures.grid6(horizon_s=600.0)
        sim = Simulator(sc, seed=6)
        shared = 0
        for _ in range(60):
            tt = sim.travel_time_estimates()
            new = set(sim.inject_demand(sim.step_count))
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


class TestTravelTimeSnapshot:
    def test_one_snapshot_per_step_shared_by_injection_and_rerouting(self):
        sc = fixtures.grid6(horizon_s=600.0)
        net = sc.network
        sim = Simulator(sc, seed=6)
        previous = None
        queued = rerouted = shared = 0
        for _ in range(60):
            sim.inject_demand(sim.step_count)
            snapshot = sim.travel_time_estimates()
            assert snapshot is not previous
            assert snapshot == {
                link.id: link.travel_time_s
                + sum(len(sim._queues[l]) for l in link.lanes)
                / sum(net.lanes[l].sat_flow_veh_s for l in link.lanes)
                for link in net.links.values()
            }
            queued += any(sim._queues.values())
            started = dict(snapshot.searches)
            views = sim.vehicle_views()
            alternatives = routectl.generate_routes(views, net, snapshot)
            for v in views[::2]:
                if v.id in alternatives:
                    sim.set_route(v.id, alternatives[v.id])
                    rerouted += 1
            assert sim.travel_time_estimates() is snapshot
            # rerouting extended the searches injection started
            assert all(snapshot.searches[d] is search for d, search in started.items())
            shared += bool(started.keys() & {v.destination for v in sim.vehicle_views()})
            previous = snapshot
            sim.advance({})
        assert queued > 0 and rerouted > 0 and shared > 0
