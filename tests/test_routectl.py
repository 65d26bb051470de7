import numpy as np
import pytest

from msjc.mesosim import Simulator
from msjc.netmodel import scenario_from_dict
from msjc.routectl import (
    CandidateRoute,
    VehicleRoutes,
    annotate_routes,
    assign_routes,
    candidate_next_regions,
    generate_routes,
    solve_probabilities,
)
from msjc import fixtures

from conftest import make_single_gate
from oracles import density_fields, per_vehicle_candidates, route_choice_grid_search
from test_mesosim import force_queued, force_running


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


def vr(vid, region, dest, routes, pinned=False):
    return VehicleRoutes(vid=vid, region=region, dest_region=dest, routes=tuple(routes), pinned=pinned)


def cr(next_region, projected, links=("L0",), is_current=True):
    return CandidateRoute(links=tuple(links), next_region=next_region, projected_link=projected, is_current=is_current)


def objective_of(out):
    """The route-choice objective the solve minimized."""
    return out.target_term + out.homogeneity_term


class TestGenerateRoutes:
    def test_single_path_network_keeps_one_route(self, single_gate):
        sim = Simulator(single_gate, seed=0)
        force_running(sim, 1, ("A", "B"), remaining=100.0)
        sim.advance({("R1", "R2"): "none"})
        views = sim.vehicle_views()
        alternatives = generate_routes(views, single_gate.network, sim.travel_time_estimates())
        assert len(views) == 1
        # one link from the destination: pinned with the current route only
        assert alternatives == {}
        [routes] = annotate_routes(views, alternatives, single_gate.network, 10.0)
        assert routes.pinned
        assert routes.routes[0].links == ("A", "B")

    def test_congestion_reveals_the_detour(self):
        sc = fixtures.corridor2()
        sim = Simulator(sc, seed=0)
        # vehicle heading east on the gated path; gated approach congested
        force_running(sim, 1, ("src1", "f_app", "f_exit", "snk2"), remaining=100.0)
        force_queued(sim, "f_app_0", 10, ("f_app", "f_exit", "snk2"))
        sim.advance({("R1", "R2"): "none"})
        target = next(v for v in sim.vehicle_views() if v.link == "src1")
        alternatives = generate_routes([target], sc.network, sim.travel_time_estimates())
        assert alternatives == {target.id: ("src1", "f_app_ng", "f_exit_ng", "snk2")}
        [routes] = annotate_routes([target], alternatives, sc.network, 10.0)
        assert len(routes.routes) == 2
        alternative = routes.routes[1]
        assert alternative.links == ("src1", "f_app_ng", "f_exit_ng", "snk2")
        assert not alternative.is_current

    def test_current_route_first_and_flagged(self):
        sc = fixtures.corridor2()
        sim = Simulator(sc, seed=0)
        force_queued(sim, "f_app_0", 8, ("f_app", "f_exit", "snk2"))
        sim.advance({("R1", "R2"): "none"})
        views = sim.vehicle_views()
        alternatives = generate_routes(views, sc.network, sim.travel_time_estimates())
        assert all(alternatives[v.id] != v.route for v in views if v.id in alternatives)
        routes = annotate_routes(views, alternatives, sc.network, 10.0)
        assert routes and all(r.routes[0].is_current for r in routes)
        assert [r.routes[0].links for r in routes] == [v.route for v in views]

    def test_queued_vehicle_is_offered_only_moves_its_lane_serves(self, turn_lanes):
        # X is congested, so the shortest route from A turns to Y.  A_0 feeds
        # only X: the vehicle queued there keeps its route, while one still
        # running on A may take the detour.
        net = turn_lanes.network
        sim = Simulator(turn_lanes, seed=0)
        force_queued(sim, "X_0", 20, ("X", "Xd", "D"))
        [queued] = force_queued(sim, "A_0", 1, ("A", "X", "Xd", "D"))
        [running] = force_running(sim, 1, ("A", "X", "Xd", "D"), remaining=100.0)
        on_a = [v for v in sim.vehicle_views() if v.link == "A"]
        alternatives = generate_routes(on_a, net, sim.travel_time_estimates())
        assert alternatives == {running: ("A", "Y", "Yd", "D")}
        routes = {vr.vid: vr for vr in annotate_routes(on_a, alternatives, net, 10.0)}
        assert [r.links for r in routes[running].routes] == [
            ("A", "X", "Xd", "D"),
            ("A", "Y", "Yd", "D"),
        ]
        assert [r.links for r in routes[queued].routes] == [("A", "X", "Xd", "D")]
        assert routes[queued].pinned

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
            injected = sim.inject_demand(0)
        route = sim._entry["a"][0].route
        assert len(route) == 4
        sim.advance({})
        views = sim.vehicle_views()
        assert [v.id for v in views] == injected and all(v.link == "a" for v in views)
        alternatives = generate_routes(views, sc.network, sim.travel_time_estimates())
        assert alternatives == {}
        for vr in annotate_routes(views, alternatives, sc.network, 10.0):
            assert [r.links for r in vr.routes] == [route]
            assert vr.pinned

    def test_candidates_match_a_per_vehicle_oracle_on_a_loaded_grid(self):
        sc = fixtures.grid6()
        sim = Simulator(sc, seed=0)
        while sim.time_s < 800.0:
            sim.inject_demand(sim.step_count)
            sim.advance({})
        views = sim.vehicle_views()
        tt = sim.travel_time_estimates()
        expected = per_vehicle_candidates(views, sc.network, tt, sc.control.t_micro_s)
        alternatives = generate_routes(views, sc.network, tt)
        annotated = annotate_routes(views, alternatives, sc.network, sc.control.t_micro_s)
        assert [ar.vid for ar in annotated] == [v.id for v in views]
        for v, ar, (candidates, pinned) in zip(views, annotated, expected):
            assert [(r.links, r.is_current) for r in ar.routes] == [c[:2] for c in candidates]
            assert ar.pinned == pinned
            assert [(r.next_region, r.projected_link) for r in ar.routes] == [
                c[2:] for c in candidates
            ]
            assert (ar.region, ar.dest_region) == (v.region, v.dest_region)
        # the grid is loaded enough that routes are shared and rerouting has
        # something to offer
        free = [v for v in views if len(v.route) > 2]
        assert len({(v.link, v.destination) for v in free}) < len(free)
        assert any(len(ar.routes) == 2 for ar in annotated)

    def test_records_and_views_get_the_map_of_the_per_vehicle_oracle(self):
        sc = fixtures.grid6()
        sim = Simulator(sc, seed=0)
        while sim.time_s < 800.0:
            sim.inject_demand(sim.step_count)
            sim.advance({})
        views = sim.vehicle_views()
        tt = sim.travel_time_estimates()
        expected = {
            v.id: candidates[1][0]
            for v, (candidates, pinned) in zip(
                views, per_vehicle_candidates(views, sc.network, tt, sc.control.t_micro_s)
            )
            if not pinned
        }
        from_records = generate_routes(sim.vehicles.values(), sc.network, tt)
        assert from_records == generate_routes(views, sc.network, tt) == expected
        assert expected and len(expected) < len(views)

    def test_candidate_next_regions_grouping(self):
        routes = [
            vr(1, "R1", "R9", [cr("R2", "L0"), cr("R3", "L0", is_current=False)]),
            vr(2, "R1", "R9", [cr("R2", "L0")]),
            vr(3, "R1", "R1", [cr("R1", "L0")]),  # intra: not an OD
        ]
        cand = candidate_next_regions(routes)
        assert cand == {("R1", "R9"): [frozenset({"R2", "R3"}), frozenset({"R2"})]}


class TestAnnotateRoutes:
    def test_stationary_queued_vehicle_projects_to_its_own_link(self):
        sc = fixtures.corridor2()
        sim = Simulator(sc, seed=0)
        force_queued(sim, "f_app_0", 8, ("f_app", "f_exit", "snk2"))
        sim.advance({("R1", "R2"): "none"})
        deep = [v for v in sim.vehicle_views() if (v.queue_index or 0) >= 5]
        routes = generate_routes(deep, sc.network, sim.travel_time_estimates())
        routes = annotate_routes(deep, routes, sc.network, 10.0)
        for r in routes:
            assert r.routes[0].projected_link == "f_app"

    def test_queue_head_crossing_is_ignored_for_density(self):
        sc = fixtures.corridor2()
        sim = Simulator(sc, seed=0)
        force_queued(sim, "f_app_0", 3, ("f_app", "f_exit", "snk2"))
        sim.advance({("R1", "R2"): "none"})
        head = [v for v in sim.vehicle_views() if v.queue_index == 0]
        routes = generate_routes(head, sc.network, sim.travel_time_estimates())
        routes = annotate_routes(head, routes, sc.network, 10.0)
        # next link f_exit lies across the boundary: excluded from densities
        assert routes[0].routes[0].projected_link is None

    def test_each_candidate_projects_along_its_own_route(self):
        sc = fixtures.corridor2()
        sim = Simulator(sc, seed=0)
        force_queued(sim, "f_app_0", 10, ("f_app", "f_exit", "snk2"))
        force_queued(sim, "src1_0", 1, ("src1", "f_app", "f_exit", "snk2"))
        head = [v for v in sim.vehicle_views() if v.link == "src1"]
        routes = generate_routes(head, sc.network, sim.travel_time_estimates())
        routes = annotate_routes(head, routes, sc.network, 10.0)
        assert [(r.next_region, r.projected_link) for r in routes[0].routes] == [
            ("R2", "f_app"),
            ("R2", "f_app_ng"),
        ]


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
        out = solve_probabilities(routes, {("R1", "R2", "R9"): 0.0}, net, "R1", 1.0, 10.0, ADJ)
        assert out.phi[1].tolist() == [1.0]

    def test_disjoint_fixed_vehicles_leave_only_homogeneity(self):
        net = one_region_net(n_links=2, lanes=1, length=100.0)
        routes = [
            vr(1, "R1", "R9", [cr("R2", "L0")]),
            vr(2, "R1", "R9", [cr("R3", "L0")]),
        ]
        targets = {("R1", "R2", "R9"): 0.5, ("R1", "R3", "R9"): 0.5}
        out = solve_probabilities(routes, targets, net, "R1", 2.0, 10.0, ADJ)
        assert out.phi[1].tolist() == [1.0]
        assert out.phi[2].tolist() == [1.0]
        assert out.target_term == pytest.approx(0.0, abs=1e-12)
        assert objective_of(out) == pytest.approx(out.homogeneity_term)

    def test_two_vehicle_fixture_matches_grid_oracle(self):
        net = one_region_net(n_links=2, lanes=1, length=100.0)
        routes = [
            vr(1, "R1", "R9", [cr("R2", "L0"), cr("R3", "L1", is_current=False)]),
            vr(2, "R1", "R9", [cr("R2", "L0"), cr("R3", "L1", is_current=False)]),
        ]
        targets = {("R1", "R2", "R9"): 0.8, ("R1", "R3", "R9"): 0.2}
        beta = 10.0
        out = solve_probabilities(routes, targets, net, "R1", 2.0, beta, ADJ)

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
                vr(1, "R1", "R9", [cr("R2", proj[0]), cr("R3", proj[1], is_current=False)]),
                vr(2, "R1", "R9", [cr("R2", proj[2]), cr("R3", proj[3], is_current=False)]),
            ]
            beta = float(rng.uniform(1, 20))
            acc = float(rng.uniform(0, 6))
            out = solve_probabilities(routes, targets, net, "R1", acc, beta, ADJ)
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
            vr(k, "R1", "R9", [cr("R2", "L0"), cr("R3", "L1", is_current=False)])
            for k in range(20)
        ]
        targets = {("R1", "R2", "R9"): 0.37, ("R1", "R3", "R9"): 0.63}
        out = solve_probabilities(routes, targets, net, "R1", 20.0, 10.0, ADJ)
        for phi in out.phi.values():
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
                        cr("R3", str(rng.choice(["L0", "L1", "L2"])), is_current=False),
                    ],
                )
                for k in range(int(rng.integers(1, 8)))
            ]
            t2 = float(rng.uniform(0, 1))
            targets = {("R1", "R2", "R9"): t2, ("R1", "R3", "R9"): 1 - t2}
            accumulation = float(rng.uniform(0, 10))
            out = solve_probabilities(routes, targets, net, "R1", accumulation, 10.0, ADJ)
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
            vr(k, "R1", "R9", [cr("R2", "L0"), cr("R3", "L0", is_current=False)])
            for k in range(10)
        ]
        targets = {("R1", "R2", "R9"): 0.7, ("R1", "R3", "R9"): 0.3}
        out = solve_probabilities(routes, targets, net, "R1", 10.0, 1e4, ADJ)
        assert out.realized[("R1", "R2", "R9")] == pytest.approx(0.7, abs=1e-3)


    def test_three_candidates_rejected(self):
        net = one_region_net(n_links=3)
        routes = [
            vr(1, "R1", "R9", [
                cr("R2", "L0"),
                cr("R3", "L1", is_current=False),
                cr("R2", "L2", is_current=False),
            ])
        ]
        with pytest.raises(ValueError, match="3 candidate routes"):
            solve_probabilities(routes, {("R1", "R2", "R9"): 1.0}, net, "R1", 1.0, 10.0, ADJ)

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
            vr(k, "R1", dest, [cr(h, link, is_current=(n == 0)) for n, (h, link) in enumerate(cands)])
            for k, dest, cands in spec + pinned
        ]
        targets = {("R1", "R2", "R9"): 0.35, ("R1", "R3", "R9"): 0.65,
                   ("R1", "R2", "R8"): 0.8, ("R1", "R3", "R8"): 0.2}
        beta, acc = 4.0, 9.0
        out = solve_probabilities(routes, targets, net, "R1", acc, beta, ADJ)

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


class TestAssignRoutes:
    def test_certain_probability_always_picks_first(self):
        routes = [vr(1, "R1", "R9", [cr("R2", "L0"), cr("R3", "L0", is_current=False)])]
        rng = np.random.default_rng(0)
        for _ in range(20):
            chosen = assign_routes(routes, {1: np.array([1.0, 0.0])}, rng)
            assert chosen[1] == routes[0].routes[0].links

    def test_sampling_marginals_match_probabilities(self):
        routes = [
            vr(1, "R1", "R9", [cr("R2", "L0", links=("L0",)),
                               cr("R3", "L1", links=("L0", "L1"), is_current=False)])
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
            vr(k, "R1", "R9", [cr("R2", "L0"), cr("R3", "L0", is_current=False)])
            for k in range(30)
        ]
        probs = {k: np.array([0.3, 0.7]) for k in range(30)}
        a = assign_routes(routes, probs, np.random.default_rng(9))
        b = assign_routes(routes, probs, np.random.default_rng(9))
        assert a == b
