import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from msjc.jointctl import route_bounds
from msjc.mesosim import Simulator
from msjc.netmodel import scenario_from_dict
from msjc.routectl import (
    CandidateRoute,
    RouteCounts,
    RouteProbabilities,
    RouteTables,
    VehicleRoutes,
    assign_routes,
    explain_routes,
    generate_routes,
    route_tables,
    solve_probabilities,
)
from msjc import fixtures, routectl, runner

from conftest import make_single_gate
from oracles import (
    RouteChoice,
    annotate_routes,
    candidate_next_regions,
    counted_routes,
    dense_route_probabilities,
    density_fields,
    per_vehicle_candidates,
    reference_route_bounds,
    route_choice_grid_search,
)
from test_mesosim import force_queued, force_running

# the route-choice solves of grid6 msjc seed 0 from 800 to 900 s
ROUTE_COUNTERS = json.loads(Path(__file__).with_name("goldens.json").read_text())[
    "GRID6_MSJC_ROUTE_COUNTERS"
]


def one_region_net(n_links=2, lanes=2, length=100.0):
    links = {
        f"L{k}": {
            "from": f"n{k}",
            "to": f"n{k+1}",
            "region": "R1",
            "length_m": length,
            "lanes": lanes,
        }
        for k in range(n_links)
    }
    raw = {
        "regions": {"R1": {"neighbors": []}},
        "links": links,
        "intersections": {},
        "plans": {},
        "demand": {
            "horizon_s": 10.0,
            "warmup_s": 0.0,
            "od": [{"origin": "L0", "destination": f"L{n_links-1}", "rate_veh_s": 0.0}],
        },
        "control": {},
    }
    return scenario_from_dict(raw).network


def vr(vid, region, dest, routes):
    return VehicleRoutes(vid=vid, region=region, dest_region=dest, routes=tuple(routes))


def cr(next_region, projected, links=("L0",)):
    return CandidateRoute(links=tuple(links), next_region=next_region, projected_link=projected)


def tables_of(vehicles, alternatives, net, heads):
    """``route_tables`` of ``vehicles`` in id order, checked against
    ``Counter``s over the per-vehicle candidate sets."""
    vehicles = sorted(vehicles, key=lambda v: v.id)
    tables = route_tables(vehicles, alternatives, net, heads)
    assert tables == counted_routes(annotate_routes(vehicles, alternatives, net, heads))
    return tables


def choices_of(tables):
    """Vehicle id -> candidate routes of every vehicle with a choice."""
    return {vr.vid: vr for region in tables.choices.values() for vr in region}


def solve(routes, targets, net, region, accumulation, beta, adjacency):
    """``solve_probabilities`` on the count tables and choice list of
    ``routes``, candidate sets given per vehicle, with its explanation.
    None when no vehicle has a choice, once the decision is checked to be
    empty: nothing was solved, so there is nothing to explain."""
    tables = counted_routes(routes)
    choices = tables.choices.get(region, [])
    args = (tables.counts[region], targets, net, region, accumulation, beta, adjacency)
    probs = solve_probabilities(choices, *args)
    if not choices:
        assert probs == RouteProbabilities({}, 0, None)
        return None
    return explained(probs, beta)


def explained(probs, beta):
    """The decision ``probs``, solved with weight ``beta``, with
    ``explain_routes``' terms for it."""
    realized, target_term, homogeneity_term = explain_routes(probs, beta)
    return RouteChoice(probs.phi, target_term, homogeneity_term, realized, probs.iterations)


def objective_of(out):
    """The route-choice objective the solve minimized."""
    return out.target_term + out.homogeneity_term


def detour_off_the_gated_approach():
    """corridor2 with the gated approach f_app congested: the one vehicle on
    src1 may take the non-gated approach f_app_ng instead, and both routes
    enter R2 next."""
    sc = fixtures.corridor2()
    sim = Simulator(sc, seed=0)
    force_queued(sim, "f_app_0", 10, ("f_app", "f_exit", "snk2"))
    force_queued(sim, "src1_0", 1, ("src1", "f_app", "f_exit", "snk2"))
    head = [v for v in sim.vehicles.values() if v.current == "src1"]
    alternatives = generate_routes(head, sc.network, sim.travel_time_estimates())
    tables = tables_of(head, alternatives, sc.network, sim.queue_heads())
    [vr] = choices_of(tables).values()
    assert [(r.next_region, r.projected_link) for r in vr.routes] == [
        ("R2", "f_app"),
        ("R2", "f_app_ng"),
    ]
    return sc, sim, head, alternatives, tables


class TestGenerateRoutes:
    def test_single_path_network_keeps_one_route(self, single_gate):
        sim = Simulator(single_gate, seed=0)
        force_running(sim, 1, ("A", "B"), remaining=100.0)
        sim.advance({("R1", "R2"): "none"})
        vehicles = list(sim.vehicles.values())
        alternatives = generate_routes(vehicles, single_gate.network, sim.travel_time_estimates())
        assert len(vehicles) == 1
        # one link from the destination: the current route only
        assert alternatives == {}
        tables = tables_of(vehicles, alternatives, single_gate.network, sim.queue_heads())
        assert tables.choices == {}
        [counts] = tables.counts.values()
        assert sum(counts.destinations.values()) == 1

    def test_congestion_reveals_the_detour(self):
        sc = fixtures.corridor2()
        sim = Simulator(sc, seed=0)
        # vehicle heading east on the gated path; gated approach congested
        force_running(sim, 1, ("src1", "f_app", "f_exit", "snk2"), remaining=100.0)
        force_queued(sim, "f_app_0", 10, ("f_app", "f_exit", "snk2"))
        sim.advance({("R1", "R2"): "none"})
        target = next(v for v in sim.vehicles.values() if v.current == "src1")
        alternatives = generate_routes([target], sc.network, sim.travel_time_estimates())
        assert alternatives == {target.id: ("src1", "f_app_ng", "f_exit_ng", "snk2")}
        tables = tables_of([target], alternatives, sc.network, sim.queue_heads())
        current, alternative = choices_of(tables)[target.id].routes
        assert alternative.links == ("src1", "f_app_ng", "f_exit_ng", "snk2")
        assert current.links == target.route != alternative.links

    def test_current_route_first_and_only_there(self):
        sc = fixtures.corridor2()
        sim = Simulator(sc, seed=0)
        force_queued(sim, "f_app_0", 8, ("f_app", "f_exit", "snk2"))
        sim.advance({("R1", "R2"): "none"})
        vehicles = list(sim.vehicles.values())
        alternatives = generate_routes(vehicles, sc.network, sim.travel_time_estimates())
        assert all(alternatives[v.id] != v.route for v in vehicles if v.id in alternatives)
        choices = choices_of(tables_of(vehicles, alternatives, sc.network, sim.queue_heads()))
        assert sorted(choices) == sorted(alternatives)
        for vid, vr in choices.items():
            current, alternative = (r.links for r in vr.routes)
            assert current == sim.vehicles[vid].route != alternative

    def test_queued_vehicle_is_offered_only_moves_its_lane_serves(self, turn_lanes):
        # X is congested, so the shortest route from A turns to Y.  A_0 feeds
        # only X: the vehicle queued there keeps its route, while one still
        # running on A may take the detour.
        net = turn_lanes.network
        sim = Simulator(turn_lanes, seed=0)
        force_queued(sim, "X_0", 20, ("X", "Xd", "D"))
        [queued] = force_queued(sim, "A_0", 1, ("A", "X", "Xd", "D"))
        [running] = force_running(sim, 1, ("A", "X", "Xd", "D"), remaining=100.0)
        on_a = [v for v in sim.vehicles.values() if v.current == "A"]
        alternatives = generate_routes(on_a, net, sim.travel_time_estimates())
        assert alternatives == {running: ("A", "Y", "Yd", "D")}
        choices = choices_of(tables_of(on_a, alternatives, net, sim.queue_heads()))
        assert [r.links for r in choices[running].routes] == [
            ("A", "X", "Xd", "D"),
            ("A", "Y", "Yd", "D"),
        ]
        assert queued not in choices

    def test_rerouting_keeps_the_injected_route_on_an_exact_tie(self):
        # a -> b1 -> c1 -> d and a -> b2 -> c0 -> d cost the same; a is long
        # enough that the vehicle is still on it after one step
        links = {
            "a": ("n0", "n1", 300.0),
            "b1": ("n1", "n2", 100.0),
            "b2": ("n1", "n3", 100.0),
            "c1": ("n2", "n4", 100.0),
            "c0": ("n3", "n4", 100.0),
            "d": ("n4", "n5", 100.0),
        }
        raw = {
            "regions": {"R1": {"neighbors": []}},
            "links": {
                k: {"from": f, "to": t, "region": "R1", "length_m": m, "lanes": 1}
                for k, (f, t, m) in links.items()
            },
            "intersections": {},
            "plans": {},
            "demand": {
                "horizon_s": 10.0,
                "warmup_s": 0.0,
                "od": [{"origin": "a", "destination": "d", "rate_veh_s": 0.1}],
            },
            "control": {},
        }
        sc = scenario_from_dict(raw)
        sim = Simulator(sc, seed=0)
        injected = []
        while not injected:
            injected = sim.inject_demand()
        route = sim._entry["a"][0].route
        assert len(route) == 4
        sim.advance({})
        vehicles = list(sim.vehicles.values())
        assert sorted(sim.vehicles) == injected and all(v.current == "a" for v in vehicles)
        alternatives = generate_routes(vehicles, sc.network, sim.travel_time_estimates())
        assert alternatives == {}
        assert tables_of(vehicles, alternatives, sc.network, sim.queue_heads()).choices == {}

    def test_candidates_match_a_per_vehicle_oracle_on_a_loaded_grid(self):
        sc = fixtures.grid6()
        net = sc.network
        sim = Simulator(sc, seed=0)
        while sim.time_s < 800.0:
            sim.inject_demand()
            sim.advance({})
        vehicles = sorted(sim.vehicles.values(), key=lambda v: v.id)
        tt = sim.travel_time_estimates()
        expected = per_vehicle_candidates(sim, vehicles, tt)
        alternatives = generate_routes(vehicles, net, tt)
        tables = tables_of(vehicles, alternatives, net, sim.queue_heads())
        choices = choices_of(tables)
        assert sorted(choices) == [v.id for v, (_, pinned) in zip(vehicles, expected) if not pinned]
        rows: dict[str, list] = {}
        for v, (candidates, pinned) in zip(vehicles, expected):
            region = net.links[v.current].region
            *_, h, link = candidates[-1]
            rows.setdefault(region, []).append((v.dest_region, h, link))
            if pinned:
                continue
            # the current route comes first and only there
            assert [c[1] for c in candidates] == [True, False]
            vr = choices[v.id]
            assert [r.links for r in vr.routes] == [c[0] for c in candidates]
            assert [(r.next_region, r.projected_link) for r in vr.routes] == [
                c[2:] for c in candidates
            ]
            assert (vr.region, vr.dest_region) == (region, v.dest_region)
        # every vehicle is counted by its last candidate
        assert tables.counts == {
            region: RouteCounts(
                Counter(d for d, _, _ in r),
                Counter((h, d) for d, h, _ in r),
                Counter(link for *_, link in r),
            )
            for region, r in rows.items()
        }
        # the grid is loaded enough that routes are shared and rerouting has
        # something to offer
        free = [v for v in vehicles if len(v.route) > 2]
        assert len({(v.current, v.destination) for v in free}) < len(free)
        assert choices
        # the oracle's queue-position rule is met both ways
        heads = sim.queue_heads()
        assert heads and any(v.lane is not None and v.id not in heads for v in vehicles)

    def test_records_get_the_map_of_the_per_vehicle_oracle(self):
        sc = fixtures.grid6()
        sim = Simulator(sc, seed=0)
        while sim.time_s < 800.0:
            sim.inject_demand()
            sim.advance({})
        vehicles = list(sim.vehicles.values())
        tt = sim.travel_time_estimates()
        expected = {
            v.id: candidates[1][0]
            for v, (candidates, pinned) in zip(vehicles, per_vehicle_candidates(sim, vehicles, tt))
            if not pinned
        }
        assert generate_routes(vehicles, sc.network, tt) == expected
        assert expected and len(expected) < len(vehicles)

    def test_two_candidates_through_one_next_region_count_as_must(self):
        # the vehicle's candidate next-region set is {R2} alone
        sc, sim, head, alternatives, tables = detour_off_the_gated_approach()
        annotated = annotate_routes(head, alternatives, sc.network, sim.queue_heads())
        assert candidate_next_regions(annotated) == {("R1", "R2"): [frozenset({"R2"})]}
        adjacency = sc.partition.adjacency
        c_min, c_max = route_bounds(tables.counts, tables.choices, adjacency)
        assert c_min[("R1", "R2", "R2")] == c_max[("R1", "R2", "R2")] == 1.0
        reference = reference_route_bounds(candidate_next_regions(annotated), adjacency)
        assert (c_min, c_max) == reference


class TestRouteTables:
    def test_stationary_queued_vehicle_projects_to_its_own_link(self):
        sc = fixtures.corridor2()
        sim = Simulator(sc, seed=0)
        force_queued(sim, "f_app_0", 8, ("f_app", "f_exit", "snk2"))
        sim.advance({("R1", "R2"): "none"})
        deep = [sim.vehicles[vid] for vid in sim._queues["f_app_0"][5:]]
        alternatives = generate_routes(deep, sc.network, sim.travel_time_estimates())
        tables = tables_of(deep, alternatives, sc.network, sim.queue_heads())
        assert tables.choices == {}
        assert tables.counts["R1"].links == {"f_app": 3}

    def test_queue_head_crossing_is_ignored_for_density(self):
        sc = fixtures.corridor2()
        sim = Simulator(sc, seed=0)
        force_queued(sim, "f_app_0", 3, ("f_app", "f_exit", "snk2"))
        sim.advance({("R1", "R2"): "none"})
        head = [sim.vehicles[sim._queues["f_app_0"][0]]]
        alternatives = generate_routes(head, sc.network, sim.travel_time_estimates())
        tables = tables_of(head, alternatives, sc.network, sim.queue_heads())
        # next link f_exit lies across the boundary: excluded from densities
        assert tables.counts["R1"].links == {None: 1}

    def test_projects_the_vehicles_one_green_step_discharges(self):
        # 0.35 veh/s over a 10 s step: the lane discharges floor(3.5) = 3
        sc = make_single_gate(sat_flow=0.35)
        sim = Simulator(sc, seed=0)
        queued = force_queued(sim, "A_0", 8, ("A", "B"))
        heads = sim.queue_heads()
        tables = tables_of([sim.vehicles[vid] for vid in queued], {}, sc.network, heads)
        # B lies across the boundary, so a vehicle projected onto it reads None
        assert tables.counts["R1"].links == {None: 3, "A": 5}
        projected = [
            vid
            for vid in queued
            if route_tables([sim.vehicles[vid]], {}, sc.network, heads).counts["R1"].links
            == {None: 1}
        ]
        sim.advance({("R1", "R2"): "fwd"})
        discharged = [vid for vid in queued if sim.vehicles[vid].current == "B"]
        assert projected == discharged == queued[:3]

    def test_each_candidate_projects_along_its_own_route(self):
        *_, tables = detour_off_the_gated_approach()
        # counted by its last candidate only
        assert tables.counts["R1"].links == {"f_app_ng": 1}


class TestDensityFields:
    def test_link_density_arithmetic(self):
        net = one_region_net(n_links=2, lanes=2, length=100.0)
        routes = [vr(k, "R1", "R1", [cr("R1", "L0")]) for k in range(4)]
        phi = {k: np.array([1.0]) for k in range(4)}
        densities, mean = density_fields(routes, phi, net, "R1", accumulation=4.0)
        assert densities["L0"] == pytest.approx(0.02)
        assert densities["L1"] == 0.0

    def test_region_mean_density(self):
        net = one_region_net(n_links=2, lanes=2, length=100.0)
        densities, mean = density_fields([], {}, net, "R1", accumulation=8.0)
        assert mean == pytest.approx(0.02)
        assert all(v == 0.0 for v in densities.values())

    def test_empty_region_is_zero(self):
        net = one_region_net()
        densities, mean = density_fields([], {}, net, "R1", accumulation=0.0)
        assert mean == 0.0


ADJ = {"R1": ("R2", "R3")}


class TestSolveProbabilities:
    def test_single_vehicle_single_route_is_pinned(self):
        net = one_region_net()
        routes = [vr(1, "R1", "R9", [cr("R2", "L0")])]
        # no choice: no probabilities, no iterations, no program, no draw
        assert solve(routes, {("R1", "R2", "R9"): 0.0}, net, "R1", 1.0, 10.0, ADJ) is None

    def test_disjoint_fixed_vehicles_leave_only_homogeneity(self):
        net = one_region_net(n_links=2, lanes=1, length=100.0)
        fixed = [
            vr(1, "R1", "R9", [cr("R2", "L0")]),
            vr(2, "R1", "R9", [cr("R3", "L0")]),
        ]
        targets = {("R1", "R2", "R9"): 0.5, ("R1", "R3", "R9"): 0.5}
        assert solve(fixed, targets, net, "R1", 2.0, 10.0, ADJ) is None
        # a vehicle whose candidates end on one link can meet the split
        # exactly (x = 1/2) without moving a density
        free = vr(3, "R1", "R9", [cr("R2", "L1"), cr("R3", "L1")])
        out = solve(fixed + [free], targets, net, "R1", 3.0, 10.0, ADJ)
        assert out.phi == {3: pytest.approx((0.5, 0.5), abs=1e-12)}
        assert out.target_term == pytest.approx(0.0, abs=1e-12)
        assert objective_of(out) == pytest.approx(out.homogeneity_term)

    def test_two_vehicle_fixture_matches_grid_oracle(self):
        net = one_region_net(n_links=2, lanes=1, length=100.0)
        routes = [
            vr(1, "R1", "R9", [cr("R2", "L0"), cr("R3", "L1")]),
            vr(2, "R1", "R9", [cr("R2", "L0"), cr("R3", "L1")]),
        ]
        targets = {("R1", "R2", "R9"): 0.8, ("R1", "R3", "R9"): 0.2}
        beta = 10.0
        out = solve(routes, targets, net, "R1", 2.0, beta, ADJ)

        area = 100.0
        d_bar = 2.0 / (2 * area)

        def objective(x):
            p1, p2 = x
            prop2 = (p1 + p2) / 2.0
            prop3 = ((1 - p1) + (1 - p2)) / 2.0
            d0 = (p1 + p2) / area
            d1 = ((1 - p1) + (1 - p2)) / area
            return (
                beta * ((prop2 - 0.8) ** 2 + (prop3 - 0.2) ** 2)
                + (d0 - d_bar) ** 2
                + (d1 - d_bar) ** 2
            )

        f_star, _ = route_choice_grid_search(objective, 2)
        assert objective_of(out) <= f_star + 1e-6
        assert abs(objective_of(out) - f_star) <= 1e-6

    def test_random_small_fixtures_match_grid_oracle(self):
        rng = np.random.default_rng(77)
        net = one_region_net(n_links=3, lanes=1, length=150.0)
        area = 150.0
        for trial in range(10):
            t2 = float(rng.uniform(0, 1))
            targets = {("R1", "R2", "R9"): t2, ("R1", "R3", "R9"): 1 - t2}
            proj = [rng.choice(["L0", "L1", "L2"]) for _ in range(4)]
            routes = [
                vr(1, "R1", "R9", [cr("R2", proj[0]), cr("R3", proj[1])]),
                vr(2, "R1", "R9", [cr("R2", proj[2]), cr("R3", proj[3])]),
            ]
            beta = float(rng.uniform(1, 20))
            acc = float(rng.uniform(0, 6))
            out = solve(routes, targets, net, "R1", acc, beta, ADJ)
            d_bar = acc / (3 * area)

            def objective(x, proj=proj, t2=t2, beta=beta, d_bar=d_bar):
                p = [x[0], 1 - x[0], x[1], 1 - x[1]]
                prop2 = (p[0] + p[2]) / 2.0
                prop3 = (p[1] + p[3]) / 2.0
                mass = {"L0": 0.0, "L1": 0.0, "L2": 0.0}
                for weight, link in zip(p, proj):
                    mass[link] += weight
                dens = sum((mass[l] / area - d_bar) ** 2 for l in mass)
                return beta * ((prop2 - t2) ** 2 + (prop3 - (1 - t2)) ** 2) + dens

            f_star, _ = route_choice_grid_search(objective, 2)
            assert abs(objective_of(out) - f_star) <= 1e-6

    def test_simplex_constraints_hold_exactly(self):
        rng = np.random.default_rng(5)
        net = one_region_net(n_links=2, lanes=1)
        routes = [
            vr(k, "R1", "R9", [cr("R2", "L0"), cr("R3", "L1")])
            for k in range(20)
        ]
        targets = {("R1", "R2", "R9"): 0.37, ("R1", "R3", "R9"): 0.63}
        out = solve(routes, targets, net, "R1", 20.0, 10.0, ADJ)
        for phi in map(np.array, out.phi.values()):
            assert phi.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(phi >= -1e-15) and np.all(phi <= 1.0 + 1e-15)

    def test_objective_never_exceeds_uniform(self):
        rng = np.random.default_rng(15)
        net = one_region_net(n_links=3, lanes=1)
        for _ in range(20):
            routes = [
                vr(
                    k,
                    "R1",
                    "R9",
                    [
                        cr("R2", str(rng.choice(["L0", "L1", "L2"]))),
                        cr("R3", str(rng.choice(["L0", "L1", "L2"]))),
                    ],
                )
                for k in range(int(rng.integers(1, 8)))
            ]
            t2 = float(rng.uniform(0, 1))
            targets = {("R1", "R2", "R9"): t2, ("R1", "R3", "R9"): 1 - t2}
            accumulation = float(rng.uniform(0, 10))
            out = solve(routes, targets, net, "R1", accumulation, 10.0, ADJ)
            nv = [len(r.routes) for r in routes]
            uniform = {r.vid: np.full(n, 1.0 / n) for r, n in zip(routes, nv)}
            dens, mean = density_fields(routes, uniform, net, "R1", accumulation)
            # recompute the uniform objective independently of the solve
            prop2 = sum(u[0] for u in uniform.values()) / len(routes)
            target_term = 10.0 * ((prop2 - t2) ** 2 + ((1 - prop2) - (1 - t2)) ** 2)
            homog = sum((dens[l] - mean) ** 2 for l in dens)
            assert objective_of(out) <= target_term + homog + 1e-12

    def test_high_beta_attains_feasible_targets(self):
        net = one_region_net(n_links=2, lanes=1)
        routes = [
            vr(k, "R1", "R9", [cr("R2", "L0"), cr("R3", "L0")])
            for k in range(10)
        ]
        targets = {("R1", "R2", "R9"): 0.7, ("R1", "R3", "R9"): 0.3}
        out = solve(routes, targets, net, "R1", 10.0, 1e4, ADJ)
        assert out.realized[("R1", "R2", "R9")] == pytest.approx(0.7, abs=1e-3)


    def test_choice_vehicles_need_exactly_two_candidates(self):
        net = one_region_net(n_links=3)
        counts = RouteCounts(Counter({"R9": 1}), Counter({("R2", "R9"): 1}), Counter({"L2": 1}))
        for candidates in ([cr("R2", "L0"), cr("R3", "L1"), cr("R2", "L2")], [cr("R2", "L2")]):
            choice = vr(1, "R1", "R9", candidates)
            with pytest.raises(ValueError, match=f"{len(candidates)} candidate routes"):
                solve_probabilities(
                    [choice], counts, {("R1", "R2", "R9"): 1.0}, net, "R1", 1.0, 10.0, ADJ
                )

    def test_solution_meets_bound_constrained_kkt_conditions(self):
        rng = np.random.default_rng(21)
        area = 10.0
        links = ["L0", "L1", "L2"]
        net = one_region_net(n_links=3, lanes=1, length=area)
        spec = [
            (
                k,
                str(rng.choice(["R8", "R9"])),
                [(str(rng.choice(["R2", "R3"])), rng.choice(links + [None])) for _ in range(2)],
            )
            for k in range(24)
        ]
        pinned = [(100, "R9", [("R2", "L0")]), (101, "R8", [("R3", "L1")])]
        routes = [
            vr(k, "R1", dest, [cr(h, link) for h, link in cands])
            for k, dest, cands in spec + pinned
        ]
        targets = {("R1", "R2", "R9"): 0.35, ("R1", "R3", "R9"): 0.65,
                   ("R1", "R2", "R8"): 0.8, ("R1", "R3", "R8"): 0.2}
        beta, acc = 4.0, 9.0
        out = solve(routes, targets, net, "R1", acc, beta, ADJ)

        def objective(x):
            probs = [(xk, 1.0 - xk) for xk in x] + [(1.0,), (1.0,)]
            mass = dict.fromkeys(links, 0.0)
            share = {}
            count = {}
            for (_, dest, cands), p in zip(spec + pinned, probs):
                count[dest] = count.get(dest, 0) + 1
                for (h, link), w in zip(cands, p):
                    share[(h, dest)] = share.get((h, dest), 0.0) + w
                    if link is not None:
                        mass[link] += w
            mismatch = sum(
                (share.get((h, dest), 0.0) / count[dest] - targets[("R1", h, dest)]) ** 2
                for dest in count
                for h in ("R2", "R3")
            )
            mean = acc / (len(links) * area)
            return beta * mismatch + sum((mass[l] / area - mean) ** 2 for l in links)

        x = np.array([out.phi[k][0] for k, _, _ in spec])
        assert objective(x) == pytest.approx(objective_of(out), rel=1e-12)
        step = 1e-4
        grad = np.array([
            (objective(x + step * e) - objective(x - step * e)) / (2 * step)
            for e in np.eye(len(x))
        ])
        at_lower, at_upper = x == 0.0, x == 1.0
        inside = ~(at_lower | at_upper)
        assert inside.any() and (at_lower | at_upper).any()
        assert np.all(np.abs(grad[inside]) <= 1e-7)
        assert np.all(grad[at_lower] >= -1e-7)
        assert np.all(grad[at_upper] <= 1e-7)


def assert_matches_dense_reference(routes, targets, net, region, acc, beta, adjacency):
    """The solve agrees bit for bit with the dense-column reference, whose
    ``phi`` also lists the one-candidate vehicles as ``[1.0]``."""
    out = solve(routes, targets, net, region, acc, beta, adjacency)
    assert_same_as_dense(out, routes, targets, net, region, acc, beta, adjacency)
    return out


def assert_same_as_dense(out, routes, targets, net, region, acc, beta, adjacency):
    """``out``, the solve for the vehicles ``routes`` of ``region``, is the
    dense-column reference's solution bit for bit; None (no choice) where
    the reference pins every vehicle to its one candidate."""
    ref = dense_route_probabilities(routes, targets, net, region, acc, beta, adjacency)
    if out is None:
        assert all(phi.tolist() == [1.0] for phi in ref.phi.values())
        return
    assert out.realized == ref.realized
    assert (out.target_term, out.homogeneity_term) == (ref.target_term, ref.homogeneity_term)
    assert out.iterations == ref.iterations
    assert list(out.phi) == [vr.vid for vr in routes if len(vr.routes) == 2]
    for vr in routes:
        if vr.vid in out.phi:
            assert np.array_equal(out.phi[vr.vid], ref.phi[vr.vid])
        else:
            assert ref.phi[vr.vid].tolist() == [1.0]


class TestDenseReference:
    def test_random_instances(self):
        rng = np.random.default_rng(41)
        net = one_region_net(n_links=4, lanes=2, length=80.0)
        links = ["L0", "L1", "L2", "L3", None]
        for _ in range(40):
            routes = []
            for vid in sorted(rng.choice(1000, int(rng.integers(1, 40)), replace=False)):
                dest = str(rng.choice(["R1", "R8", "R9"]))
                cands = [
                    cr("R1" if dest == "R1" else str(rng.choice(["R2", "R3"])), rng.choice(links))
                    for _ in range(int(rng.integers(1, 3)))
                ]
                routes.append(vr(int(vid), "R1", dest, cands))
            targets = {
                ("R1", h, j): float(rng.uniform()) for h in ("R2", "R3") for j in ("R8", "R9")
            }
            acc = float(rng.uniform(0, 40))
            beta = float(rng.uniform(0.5, 20))
            assert_matches_dense_reference(routes, targets, net, "R1", acc, beta, ADJ)

    def test_least_squares_shortcut_keeps_lsq_linears_answer(self):
        # a few choice vehicles among pinned ones: lsq_linear's unconstrained
        # solution is in the box in some instances (0 iterations; its BVLS
        # reports at least 1) and leaves it in others; x and the iterations
        # match the reference's bit for bit either way
        rng = np.random.default_rng(43)
        net = one_region_net(n_links=4, lanes=2, length=80.0)
        links = ["L0", "L1", "L2", "L3", None]
        seen = Counter()
        for _ in range(100):
            n_free = int(rng.integers(1, 4))
            routes = [
                vr(vid, "R1", str(rng.choice(["R8", "R9"])), [
                    cr(str(rng.choice(["R2", "R3"])), rng.choice(links))
                    for _ in range(2 if vid < n_free else 1)
                ])
                for vid in range(int(rng.integers(2, 30)))
            ]
            targets = {
                ("R1", h, j): float(rng.uniform()) for h in ("R2", "R3") for j in ("R8", "R9")
            }
            acc, beta = float(rng.uniform(0, 40)), float(rng.uniform(0.5, 20))
            out = assert_matches_dense_reference(routes, targets, net, "R1", acc, beta, ADJ)
            seen["in the box" if out.iterations == 0 else "off the box"] += 1
        assert seen["in the box"] >= 10 and seen["off the box"] >= 10

    def test_running_sum_keeps_every_bit(self):
        # eleven vehicles of one OD on their last candidates, ten fixed and
        # one with a choice, each add 1/11 to the program's constant share
        # of R2: eleven additions of 1/11 give 1.0000000000000002, not
        # 11 * (1 / 11)
        net = one_region_net(n_links=2, lanes=1, length=100.0)
        fixed = [vr(k, "R1", "R9", [cr("R2", "L0")]) for k in range(10)]
        free = vr(10, "R1", "R9", [cr("R3", "L1"), cr("R2", "L0")])
        targets = {("R1", "R2", "R9"): 1.0, ("R1", "R3", "R9"): 0.0}
        tables = counted_routes(fixed + [free])
        args = (tables.counts["R1"], targets, net, "R1", 11.0, 10.0, ADJ)
        keys, base, _, _ = solve_probabilities(tables.choices["R1"], *args).program
        assert base[keys.index(("R1", "R2", "R9"))] == 1.0000000000000002 != 11 * (1 / 11)
        assert_matches_dense_reference(fixed + [free], targets, net, "R1", 11.0, 10.0, ADJ)


class TestAgainstTheReferencePath:
    def test_msjc_window_matches_the_per_vehicle_path(self, monkeypatch, tmp_path):
        """The window run with logs: the logs change none of the checks, and
        the solves are the ones pinned for the window without logs."""
        seen = self.checked_window(monkeypatch, tmp_path)
        assert seen["solves"] == seen["with_choice"] == ROUTE_COUNTERS["solves"]

    def test_quiet_msjc_window_solves_the_regions_with_a_choice(self, monkeypatch):
        """The window without logs, as the benchmark runs it: one solve per
        (micro step, region with a choice), as pinned."""
        seen = self.checked_window(monkeypatch, None)
        assert seen["solves"] == seen["with_choice"] == ROUTE_COUNTERS["solves"]

    def checked_window(self, monkeypatch, out_dir) -> Counter:
        """Every routed step of grid6 msjc seed 0 from 800 to 900 s, logs
        written to ``out_dir`` (None for none): begin_macro's count tables
        and choice lists are ``Counter``s over the per-vehicle candidate
        sets and its split bounds match the per-vehicle path; each micro
        step's tables are those restricted to the regions with a choice; and
        every solve, all of them with a choice, matches the per-vehicle path
        over the region's vehicles bit for bit."""
        adjacency = fixtures.grid6().partition.adjacency
        tables_fn, generate_fn = routectl.route_tables, routectl.generate_routes
        begin_macro = runner.Strategy.begin_macro
        annotated, every_vehicle = [], []
        seen = Counter()

        def generated(vehicles, net, tt):
            every_vehicle[:] = vehicles
            return generate_fn(vehicles, net, tt)

        def in_macro_step(strategy, ctx):
            seen["macro"] += 1
            begin_macro(strategy, ctx)
            seen["macro"] -= 1

        def checked_tables(vehicles, alternatives, net, heads):
            tables = tables_fn(vehicles, alternatives, net, heads)
            annotated[:] = annotate_routes(every_vehicle, alternatives, net, heads)
            full = counted_routes(annotated)
            if seen["macro"]:
                assert tables == full
                assert route_bounds(tables.counts, tables.choices, adjacency) == (
                    reference_route_bounds(candidate_next_regions(annotated), adjacency)
                )
            else:
                with_choice = {region: full.counts[region] for region in full.choices}
                assert tables == RouteTables(full.choices, with_choice)
                seen["restricted"] += len(full.counts) > len(full.choices)
            seen["tables"] += 1
            return tables

        monkeypatch.setattr(routectl, "generate_routes", generated)
        monkeypatch.setattr(routectl, "route_tables", checked_tables)
        monkeypatch.setattr(routectl, "solve_probabilities", self.checked_solve(annotated, seen))
        monkeypatch.setattr(runner.Strategy, "begin_macro", in_macro_step)
        config = runner.RunConfig("msjc", seed=0, warmup_s=800.0, cap_s=900.0, out_dir=out_dir)
        runner.run(fixtures.grid6(), config)
        assert seen["tables"] == 10 and seen["restricted"] > 0
        # both the least-squares shortcut and BVLS decide some of the solves
        assert 0 < seen["off_the_box"] < seen["with_choice"]
        return seen

    @staticmethod
    def checked_solve(annotated, seen):
        """``solve_probabilities`` checked against the dense per-vehicle
        solve over the region's vehicles in ``annotated``."""
        solve_fn = routectl.solve_probabilities

        def checked(choices, counts, targets, net, region, acc, beta, adj):
            out = solve_fn(choices, counts, targets, net, region, acc, beta, adj)
            in_region = [vr for vr in annotated if vr.region == region]
            assert_same_as_dense(
                explained(out, beta), in_region, targets, net, region, acc, beta, adj
            )
            seen["solves"] += 1
            seen["with_choice"] += bool(choices)
            seen["off_the_box"] += out.iterations > 0
            return out

        return checked


class TestKktCertificate:
    def test_every_route_choice_solve_of_a_grid6_msjc_run_is_optimal(self, monkeypatch):
        """The KKT conditions of min ||a x - b||^2 over x in [0, 1]^n, with
        ``a`` and ``b`` rebuilt from each solve's own program: the gradient
        g = a^T (a x - b) is >= 0 where x = 0, <= 0 where x = 1 and 0 in
        between, within 1e-9; an x within 1e-12 of a bound is at it (BVLS
        may stop an ulp inside or outside the box).  The whole grid6 msjc
        run of seed 0, not its 800-900 s window: on that window every
        off-the-box solve is also solved by clipping the least-squares x
        into the box, a defect the certificate must catch."""
        solve_fn = routectl.solve_probabilities
        tol, x_tol = 1e-9, 1e-12
        seen = Counter()

        def certified(choices, counts, targets, net, region, acc, beta, adj):
            out = solve_fn(choices, counts, targets, net, region, acc, beta, adj)
            if not choices:
                return out
            keys, base, goal, m_mat = out.program
            weight = np.array([np.sqrt(beta)] * len(keys) + [1.0] * (len(base) - len(keys)))
            a, b = weight[:, None] * m_mat, weight * (goal - base)
            x = np.array([out.phi[vr.vid][0] for vr in choices])
            g = a.T @ (a @ x - b)
            assert np.all((x >= -x_tol) & (x <= 1.0 + x_tol))
            at_zero, at_one = x <= x_tol, x >= 1.0 - x_tol
            assert np.all(g[at_zero] >= -tol), g[at_zero]
            assert np.all(g[at_one] <= tol), g[at_one]
            assert np.all(np.abs(g[~(at_zero | at_one)]) <= tol), g
            seen["solves"] += 1
            seen["off_the_box"] += out.iterations > 0
            seen["bound_holds_x"] += bool(np.any(np.abs(g[at_zero | at_one]) > tol))
            return out

        monkeypatch.setattr(routectl, "solve_probabilities", certified)
        runner.run(fixtures.grid6(), runner.RunConfig("msjc", seed=0))
        # BVLS decides some solves, and in some a bound holds x off the
        # unconstrained optimum
        assert seen["solves"] > 100 and seen["off_the_box"] > 0 and seen["bound_holds_x"] > 0


class TestAssignRoutes:
    def test_certain_probability_always_picks_first(self):
        routes = [vr(1, "R1", "R9", [cr("R2", "L0"), cr("R3", "L0")])]
        rng = np.random.default_rng(0)
        for _ in range(20):
            chosen = assign_routes(routes, {1: np.array([1.0, 0.0])}, rng)
            assert chosen[1] == routes[0].routes[0].links

    def test_sampling_marginals_match_probabilities(self):
        routes = [
            vr(1, "R1", "R9", [cr("R2", "L0", links=("L0",)),
                               cr("R3", "L1", links=("L0", "L1"))])
        ]
        rng = np.random.default_rng(123)
        firsts = 0
        trials = 10000
        for _ in range(trials):
            chosen = assign_routes(routes, {1: np.array([0.5, 0.5])}, rng)
            firsts += chosen[1] == routes[0].routes[0].links
        sigma = np.sqrt(0.25 / trials)
        assert abs(firsts / trials - 0.5) <= 3 * sigma

    def test_fixed_seed_reproduces_assignment(self):
        routes = [
            vr(k, "R1", "R9", [cr("R2", "L0"), cr("R3", "L0")])
            for k in range(30)
        ]
        probs = {k: np.array([0.3, 0.7]) for k in range(30)}
        a = assign_routes(routes, probs, np.random.default_rng(9))
        b = assign_routes(routes, probs, np.random.default_rng(9))
        assert a == b


class TestDrawTwo:
    """``draw_two`` draws what ``Generator.choice(2, p=p)`` draws, from the
    same stream, and refuses what it refuses."""

    @staticmethod
    def assert_same_as_choice(p, seed):
        ours, numpy = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            assert routectl.draw_two(p, ours) == int(numpy.choice(2, p=p))
        assert ours.bit_generator.state == numpy.bit_generator.state

    def test_random_shares(self):
        rng = np.random.default_rng(3)
        for seed in range(2000):
            x = float(rng.random())
            p = np.array([x, 1.0 - x])
            if seed % 2:  # off 1 by less than Generator.choice's tolerance
                p = p * (1.0 + float(rng.uniform(-1e-9, 1e-9)))
            self.assert_same_as_choice(p, seed)

    def test_edge_shares(self):
        tiny = np.nextafter(0.0, 1.0)
        below_one = np.nextafter(1.0, 0.0)
        for p in ([1.0, 0.0], [0.0, 1.0], [tiny, 1.0 - tiny], [below_one, 1.0 - below_one],
                  [1.0 - below_one, below_one], [1.0 - tiny, tiny]):
            for seed in range(200):
                self.assert_same_as_choice(np.array(p), seed)

    def test_refuses_what_choice_refuses(self):
        for p in ([np.nan, 1.0], [np.inf, 0.0], [-np.inf, np.inf], [-0.1, 1.1], [1.1, -0.1],
                  [0.0, 0.0], [0.5, 0.5 + 2e-8], [0.5, 0.5 - 2e-8]):
            with pytest.raises(ValueError):
                np.random.default_rng(0).choice(2, p=p)
            with pytest.raises(ValueError):
                routectl.draw_two(p, np.random.default_rng(0))
        self.assert_same_as_choice([0.5, 0.5 + 1e-8], 0)  # within tolerance
